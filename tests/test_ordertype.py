"""Scattered order-type terms: parsing, normal forms, and the invariants."""

import hashlib
import json
import random
import sys
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from fishbone.ordertype import (
    MAX_NESTING,
    OMEGA,
    OMEGA_STAR,
    Fin,
    OmegaRep,
    OmegaStarRep,
    ParseError,
    Sum,
    has_maximum,
    has_minimum,
    normalize,
    parse_term,
    render,
    reverse,
    term_report,
)

# Reference invariants: wellfounded, cowellfounded, embeds w+1, embeds
# w*+w, embeds w+w*, alternation, rank, (plus, minus) limit classes,
# vacillating.
TABLE = {
    "w":       (True,  False, False, False, False, 0,   1, (1, 0),     True),
    "w*":      (False, True,  False, False, False, 0,   1, (0, 1),     True),
    "w*+w":    (False, False, False, True,  False, 1,   1, (1, 1),     True),
    "w+1":     (True,  False, True,  False, False, 0,   1, (1, 0),     True),
    "w[w*]":   (False, False, False, True,  False, 1,   2, (1, inf),   False),
    "w[w]":    (True,  False, True,  False, False, 0,   2, (inf, 0),   True),
    "w[w*+w]": (False, False, True,  True,  True,  inf, 2, (inf, inf), True),
}


def _count(value):
    """A count from a term report as a number: ``"inf"`` (alternation) and
    ``"w"`` (limit classes) are ``math.inf``."""
    return inf if value in ("inf", "w") else value


def _limits(report):
    """(increasing classes, decreasing classes) of a term report."""
    return _count(report["limits"]["plus"]), _count(report["limits"]["minus"])


@pytest.mark.parametrize("text", sorted(TABLE))
def test_reference_invariants(text):
    report = term_report(parse_term(text))
    wf, cowf, wp1, zeta, owv, alt, rank, limits, vac = TABLE[text]
    p = report["predicates"]
    assert p["wellfounded"] == wf
    assert p["cowellfounded"] == cowf
    assert p["embeds_omega_plus_one"] == wp1
    assert p["embeds_zeta"] == zeta
    assert p["embeds_omega_plus_omegastar"] == owv
    assert _count(report["alt"]) == alt
    assert report["rank"] == rank
    assert _limits(report) == limits
    assert report["vacillating"] == vac


def test_more_alternation_numbers():
    for text, alt in {
        "w*+w+w*+w": 2,
        "w[w*]+w": 1,
        "w*+w+w*": 1,
        "w[w[w*]]": inf,
        "w*[w]": 1,
        "w*[w]+w*[w]": 2,
        "5": 0,
        "1+w+1": 0,
    }.items():
        assert _count(term_report(parse_term(text))["alt"]) == alt, text


def test_more_vacillation():
    for text, vac in {
        "w+w*[w]": True,
        "w[w*]+5": True,
        "w*[w]": False,
        "w*[w]+w": False,
        "0": True,
        "w[w*]+w[w]": True,
    }.items():
        assert term_report(parse_term(text))["vacillating"] == vac, text


def test_hausdorff_ranks():
    for text, rank in {"0": 0, "7": 0, "w+w*": 1, "w[w]": 2, "w[w[w]]": 3,
                       "w*[1+w*]": 2, "w[w*]+w": 2}.items():
        assert term_report(parse_term(text))["rank"] == rank, text


def test_endpoints():
    assert has_minimum(parse_term("1+w"))
    assert not has_minimum(parse_term("w*+w"))
    assert has_maximum(parse_term("w+1"))
    assert not has_maximum(parse_term("w"))
    # The greatest block of w*[.] is a whole copy of the body.
    assert has_maximum(parse_term("w*[w+1]"))
    assert not has_maximum(parse_term("w*[w]"))
    assert not has_maximum(parse_term("w[w]"))


# ----------------------------------------------------------- parsing/normal


def test_parse_and_render_are_inverse_on_canonical_text():
    for text in ("w", "w*", "3", "w+1", "w*+w", "w[w*+w]", "w*[w[w]]+2"):
        assert render(parse_term(text)) == text


def test_normalization_rules():
    cases = {
        "2+3": "5",
        "w+0": "w",
        "0+w*": "w*",
        "(w)": "w",
        "1+(2+3)": "6",
        "w+(w*+w)": "w+w*+w",
        "w[0]": "0",
        "w[1]": "w",
        "w[4]": "w",
        "w*[2]": "w*",
        "w[(w)]": "w[w]",
        "0": "0",
    }
    for text, want in cases.items():
        assert render(parse_term(text)) == want, text


def test_normalize_is_idempotent_on_manual_terms():
    t = Sum((Fin(1), Fin(2), Sum((OMEGA, Fin(0))), OmegaRep(Fin(3))))
    n = normalize(t)
    assert n == normalize(n)
    assert render(n) == "3+w+w"


def test_whitespace_is_ignored():
    assert parse_term(" w  +  1 ") == parse_term("w+1")
    assert parse_term("w [ w* ]") == parse_term("w[w*]")


def test_parse_errors_carry_positions():
    for text, pos in {"": 0, "w+": 2, "w[[": 2, "w]": 1, "3 3": 2, "w*+)": 3}.items():
        with pytest.raises(ParseError) as exc:
            parse_term(text)
        assert exc.value.position == pos, text
    with pytest.raises(ParseError):
        parse_term("w^2")
    assert issubclass(ParseError, SyntaxError)


def test_nesting_cap_position():
    text = "w+(" * MAX_NESTING + "w[1]" + ")" * MAX_NESTING
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert exc.value.position == text.index("[")
    flat = parse_term("+".join(["w"] * (MAX_NESTING + 1)))
    assert parse_term("w+(" * MAX_NESTING + "w" + ")" * MAX_NESTING) == flat


def test_reverse_frozen_examples():
    for text, want in {
        "w": "w*",
        "w*": "w",
        "w+1": "1+w*",
        "w[w*]": "w*[w]",
        "1+w+w*[2+w]": "w[w*+2]+w*+1",
    }.items():
        assert render(reverse(parse_term(text))) == want, text


def test_term_report_shape():
    report = term_report(parse_term("w[w*+w]"))
    assert report["term"] == "w[w*+w]"
    assert report["alt"] == "inf"
    assert report["rank"] == 2
    assert report["limits"] == {"plus": "w", "minus": "w"}
    assert report["vacillating"] is True
    assert set(report["predicates"]) == {
        "wellfounded", "cowellfounded", "embeds_omega_plus_one",
        "embeds_zeta", "embeds_omega_plus_omegastar",
        "iwf", "owf", "atomic_increasing",
    }
    assert report["predicates"]["iwf"] is False
    assert report["predicates"]["owf"] is False
    assert report["predicates"]["atomic_increasing"] is False


def test_predicate_shorthands():
    p = term_report(parse_term("w"))["predicates"]
    assert p["iwf"] and p["owf"] and p["atomic_increasing"]
    q = term_report(parse_term("w+1"))["predicates"]
    assert q["iwf"] and q["owf"] and not q["atomic_increasing"]


# ------------------------------------------------------------- random terms


terms = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=3).map(Fin),
        st.just(OMEGA),
        st.just(OMEGA_STAR),
    ),
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=4).map(lambda ps: Sum(tuple(ps))),
        sub.map(OmegaRep),
        sub.map(OmegaStarRep),
    ),
    max_leaves=10,
).map(normalize)


@given(terms)
def test_normalize_idempotent(t):
    assert normalize(t) == t


@given(terms)
def test_render_parse_round_trip(t):
    assert parse_term(render(t)) == t


@given(terms)
def test_reverse_is_an_involution(t):
    assert reverse(reverse(t)) == t


@given(terms)
@settings(max_examples=200)
def test_reverse_mirrors_the_invariants(t):
    r = reverse(t)
    a, b = term_report(t), term_report(r)
    p, q = a["predicates"], b["predicates"]
    assert p["wellfounded"] == q["cowellfounded"]
    assert p["embeds_zeta"] == q["embeds_zeta"]
    assert p["embeds_omega_plus_omegastar"] == q["embeds_omega_plus_omegastar"]
    assert a["alt"] == b["alt"]
    assert a["rank"] == b["rank"]
    assert a["vacillating"] == b["vacillating"]
    assert _limits(a) == _limits(b)[::-1]
    assert has_maximum(t) == has_minimum(r)


@given(terms)
@settings(max_examples=200)
def test_predicate_implications(t):
    report = term_report(t)
    p = report["predicates"]
    wf = p["wellfounded"]
    cowf = p["cowellfounded"]
    assert isinstance(t, Fin) == (wf and cowf)
    if p["embeds_zeta"] or p["embeds_omega_plus_omegastar"]:
        assert not wf and not cowf
    if p["embeds_omega_plus_one"]:
        assert not cowf
    if report["alt"] == 0:
        assert not p["embeds_zeta"]


# ----------------------------------------------------------------- golden


def _grow(ts):
    """``ts`` with every ω- and ω*-repetition and every binary sum added."""
    out = set(ts)
    for t in ts:
        out.add(normalize(OmegaRep(t)))
        out.add(normalize(OmegaStarRep(t)))
        out.update(normalize(Sum((t, u))) for u in ts)
    return out


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((Fin(rng.randint(0, 3)), OMEGA, OMEGA_STAR))
    kind = rng.randrange(3)
    if kind == 0:
        return Sum(tuple(_random_term(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    body = _random_term(rng, depth - 1)
    return OmegaRep(body) if kind == 1 else OmegaStarRep(body)


def golden_corpus():
    """The 260 canonical terms two rounds of :func:`_grow` make from
    {1, ω, ω*}, then 1000 seeded random terms of depth at most 5."""
    exhaustive = _grow(_grow({Fin(1), OMEGA, OMEGA_STAR}))
    rng = random.Random(20241125)
    return sorted(exhaustive, key=render) + [
        normalize(_random_term(rng, 5)) for _ in range(1000)
    ]


# SHA-256 over one JSON line per corpus term: its term_report together with
# has_maximum and has_minimum.  Update it only for an intended change of the
# invariants.
GOLDEN_SHA256 = "1b2a4bdce72b7955beca7d73b9df3c417be0316dd5d5d89809d384a3e7652bf6"


def test_invariants_on_the_golden_corpus():
    corpus = golden_corpus()
    assert len(set(corpus[:260])) == 260
    digest = hashlib.sha256()
    for t in corpus:
        line = {"report": term_report(t), "max": has_maximum(t), "min": has_minimum(t)}
        digest.update((json.dumps(line, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_repeat_report_at_the_nesting_cap_fits_in_500_frames():
    text = "w+w*[" * MAX_NESTING + "w" + "]" * MAX_NESTING
    term_report(parse_term(text))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 500)
    try:
        report = term_report(parse_term(text))
    finally:
        sys.setrecursionlimit(limit)
    assert report["term"] == text


def reverse_reference(t):
    """Reverse by normalizing the rebuilt term at every level."""
    if isinstance(t, Fin):
        return t
    if t == OMEGA:
        return OMEGA_STAR
    if t == OMEGA_STAR:
        return OMEGA
    if isinstance(t, Sum):
        return normalize(Sum(tuple(reverse_reference(p) for p in reversed(t.parts))))
    rep = OmegaStarRep if isinstance(t, OmegaRep) else OmegaRep
    return normalize(rep(reverse_reference(t.body)))


def test_reverse_on_the_golden_corpus():
    for t in golden_corpus():
        r = reverse(t)
        assert r == reverse_reference(t), render(t)
        assert normalize(r) == r
        assert reverse(r) == t
    rng = random.Random(7)
    for _ in range(300):
        raw = _random_term(rng, 5)
        assert reverse(raw) == reverse_reference(raw), raw


def test_raw_terms_answer_for_their_normal_form():
    # Terms built with the exported constructors need not be normal.
    assert has_minimum(Sum((Fin(0), OMEGA)))
    assert term_report(Sum((OMEGA, Fin(0)))) == term_report(OMEGA)
    assert term_report(OmegaRep(Fin(1))) == term_report(OMEGA)
    rng = random.Random(11)
    for _ in range(500):
        t = _random_term(rng, 5)
        n = normalize(t)
        assert term_report(t) == term_report(n), t
        assert (has_maximum(t), has_minimum(t)) == (has_maximum(n), has_minimum(n)), t
        assert reverse(t) == reverse(n), t
        assert parse_term(render(n)) == n, t


def test_reverse_at_the_nesting_cap_fits_in_500_frames():
    text = "w+w*[" * MAX_NESTING + "w" + "]" * MAX_NESTING
    want = "w[" * MAX_NESTING + "w*" + "]+w*" * MAX_NESTING
    t = parse_term(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 500)
    try:
        r = reverse(t)
        back = reverse(r)
    finally:
        sys.setrecursionlimit(limit)
    assert render(r) == want
    assert back == t
