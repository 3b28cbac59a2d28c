"""The acceptance battery: twelve self-contained checks covering every
module, runnable from the command line (``fishbone sweep``) and mirrored
one-to-one by the test suite.

Each criterion function returns a :class:`VerificationReport`.  Oracles used
here are deliberately independent code paths: bitmask dynamic programming
for the chain/antichain cover duals, and a bounded-expansion word oracle for
the order-type predicates.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import families, ordertype, verify
from .ordertype import OrderTerm, parse_term, reverse, term_report
from .partition import (
    ThresholdTooSmall,
    extend_spine_partition,
    find_spine,
    greedy_antichain_from_chains,
    height_and_max_chain,
    is_spine,
    strong_thick_check,
    width_and_dilworth,
)
from .poset import FinitePoset, _true_pairs
from .random_posets import random_poset
from .report import FAIL, PASS, VerificationReport


def _report(k: int, ok: bool, witness=None, **detail) -> VerificationReport:
    return VerificationReport(
        claim=f"acceptance-{k}",
        params={},
        status=PASS if ok else FAIL,
        witness=witness if not ok else None,
        detail=detail,
    )


# ---------------------------------------------------- 1: spines always exist


def criterion_1(seed: int = 0) -> VerificationReport:
    """200 random posets of size <= 9: the constructed spine certificate
    validates and has exactly height-many parts, within 5 seconds."""
    rng = random.Random(seed)
    t0 = time.perf_counter()
    for trial in range(200):
        P = random_poset(rng, max_size=9)
        cert = find_spine(P)
        if not is_spine(P, cert):
            return _report(1, False, witness={"trial": trial})
        h, _ = height_and_max_chain(P)
        if len(cert.antichains) != h:
            return _report(1, False, witness={"trial": trial, "parts": len(cert.antichains)})
    elapsed = time.perf_counter() - t0
    return _report(1, elapsed < 5.0, witness=None if elapsed < 5.0 else {"elapsed": elapsed},
                   posets=200, elapsed=round(elapsed, 3))


# ------------------------------------------- 2: min-max duals vs brute force


def _comparability_masks(P: FinitePoset) -> list[int]:
    return [
        sum(1 << j for j, c in enumerate(row) if c and j != i)
        for i, row in enumerate(P.comparability_matrix.tolist())
    ]


def _min_cover_size(n: int, good: list[int]) -> int:
    """Minimum number of parts covering all of 0..n-1 where a part must be a
    set whose pairs all satisfy the ``good`` adjacency masks (chains when
    good = comparability, antichains when good = incomparability)."""

    def is_good(mask: int) -> bool:
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if (mask & ~(1 << i)) & ~good[i]:
                return False
            m &= m - 1
        return True

    @lru_cache(maxsize=None)
    def f(mask: int) -> int:
        if mask == 0:
            return 0
        low = (mask & -mask).bit_length() - 1
        cand = mask & good[low] & ~(1 << low)
        best = 1 + f(mask & ~(1 << low))
        sub = cand
        while sub:
            part = sub | (1 << low)
            if is_good(part):
                best = min(best, 1 + f(mask & ~part))
            sub = (sub - 1) & cand
        return best

    return f((1 << n) - 1)


def criterion_2(seed: int = 0) -> VerificationReport:
    """100 random posets of size <= 8: the matching-based width equals the
    brute-force minimum chain cover, and the level-based height equals the
    brute-force minimum antichain cover."""
    rng = random.Random(seed + 1)
    for trial in range(100):
        P = random_poset(rng, max_size=8)
        n = len(P)
        comp = _comparability_masks(P)
        inc = [~comp[i] & ((1 << n) - 1) & ~(1 << i) for i in range(n)]
        w, chains, anti = width_and_dilworth(P)
        h, chain = height_and_max_chain(P)
        if w != _min_cover_size(n, comp):
            return _report(2, False, witness={"trial": trial, "width": w})
        if h != _min_cover_size(n, inc):
            return _report(2, False, witness={"trial": trial, "height": h})
        if len(anti) != w or len(chain) != h:
            return _report(2, False, witness={"trial": trial})
    return _report(2, True, posets=100)


# ----------------------------------------- 3: level structure of the family


def criterion_3(seed: int = 0) -> VerificationReport:
    """P5 structure: diagonal antichains and contiguous rows/columns for
    n in {0,1,2}, s <= 8 at B = 10, plus 50 random interpolation triples
    hitting the exact chain-length formula."""
    for n in (0, 1, 2):
        two = verify.level_window(n, 10, levels=2)
        for s, (status, _, _) in enumerate(verify.check_level_structure(n, range(9), 10, two)):
            if status == FAIL:
                report = verify.verify_level_structure(n, s, 10).to_dict()
                return _report(3, False, witness={"n": n, "s": s, "report": report})
    rng = random.Random(seed + 2)
    for trial in range(50):
        n = rng.randint(0, 3)
        x, y = rng.randint(0, 7), rng.randint(0, 7)
        u, v = x + rng.randint(0, 4), y + rng.randint(0, 4)
        w, z = u + rng.randint(0, 4), v + rng.randint(0, 4)
        chain = verify.interpolate_chain(n, (x, y), (u, v), (w, z))
        want = w + z + 1 - x - y
        # Row 0 compares the lower end, the last column the upper end, and
        # the first superdiagonal each step of the chain.
        ends = [(x, y, n), *chain, (w, z, n)]
        le = families.relation_block("P5", ends, ends)
        ok = (
            len(chain) == want
            and (u, v, n) in chain
            and le[0].all()
            and le[:, -1].all()
            and np.diagonal(le, 1).all()
        )
        if not ok:
            return _report(3, False, witness={"trial": trial, "triple": [[x, y], [u, v], [w, z]]})
    return _report(3, True, structure_cases=27, triples=50)


# -------------------------------------------------- 4: final counting lemma


def criterion_4() -> VerificationReport:
    """Counting gap for a in 1..5: a chain of 2a+1 forced comparabilities
    against a region of height 2a."""
    for a in range(1, 6):
        rep = verify.verify_final_counting(a)
        if not (rep.ok and rep.detail["F_size"] == 2 * a + 1 and rep.detail["T_height"] == 2 * a):
            return _report(4, False, witness={"a": a, "report": rep.to_dict()})
    return _report(4, True, cases=5)


# ------------------------------------------------ 5: forced-label rectangles


def criterion_5() -> VerificationReport:
    """Exhaustive diagonal-constancy for ell in {1,2,3}, within 60 s."""
    t0 = time.perf_counter()
    counts = {}
    for ell in (1, 2, 3):
        rep = verify.verify_constant_on_rows(ell)
        if not rep.ok:
            return _report(5, False, witness=rep.to_dict())
        counts[ell] = rep.detail["assignments"]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    return _report(5, ok, witness=None if ok else {"elapsed": elapsed},
                   assignments=counts, elapsed=round(elapsed, 3))


# --------------------------------------------- 6: single-level antichain cap


def criterion_6() -> VerificationReport:
    """Max antichain of the one-level [0..B]^2 window is exactly B+1 for
    B <= 6 (increasing first coordinates force decreasing second ones)."""
    for B in range(7):
        P = verify.level_window(0, B)
        w, _, _ = width_and_dilworth(P)
        if w != B + 1:
            return _report(6, False, witness={"B": B, "width": w})
    return _report(6, True, cases=7)


# -------------------------------- 7: order-type table and expansion oracle
#
# The oracle flattens a term to a finite word of blocks: PT (a point), WUP
# (one ω), WDOWN (one ω*), and tail markers summarizing an infinite run of
# copies of a sub-word (four explicit copies are laid out as well, so the
# word shows every finite interaction pattern).  Predicates are then decided
# by scanning the word: an infinite chain lives inside a single block, a
# composite figure is either inside one block or split across two, with the
# tail markers contributing the cross-copy behaviors derived below.


@dataclass(frozen=True)
class _Block:
    pt: bool
    omega: bool
    omegastar: bool
    w_plus_one: bool
    zeta: bool
    owfviol: bool
    wf: bool
    cowf: bool


_PT = _Block(True, False, False, False, False, False, True, True)
_WUP = _Block(True, True, False, False, False, False, True, False)
_WDOWN = _Block(True, False, True, False, False, False, False, True)


def _word_omega(word) -> bool:
    return any(b.omega for b in word)


def _word_omegastar(word) -> bool:
    return any(b.omegastar for b in word)


def _word_wf(word) -> bool:
    return all(b.wf for b in word)


def _word_cowf(word) -> bool:
    return all(b.cowf for b in word)


def _word_w_plus_one(word) -> bool:
    if any(b.w_plus_one for b in word):
        return True
    seen_omega = False
    for b in word:
        if seen_omega and b.pt:
            return True
        seen_omega = seen_omega or b.omega
    return False


def _word_zeta(word) -> bool:
    if any(b.zeta for b in word):
        return True
    seen_down = False
    for b in word:
        if seen_down and b.omega:
            return True
        seen_down = seen_down or b.omegastar
    return False


def _word_owfviol(word) -> bool:
    if any(b.owfviol for b in word):
        return True
    seen_up = False
    for b in word:
        if seen_up and b.omegastar:
            return True
        seen_up = seen_up or b.omega
    return False


def _tail_up(sub) -> _Block:
    # ω-indexed copies of the sub-word: an ascending chain crosses copies
    # freely (omega always present, never co-wellfounded); a descending
    # chain is stuck inside one copy; a copy's ω is topped by any later
    # copy; a copy's ω* is under an ascending cross-copy chain (ζ); and any
    # ω below any ω* in two consecutive copies violates one-way finality.
    return _Block(
        pt=True,
        omega=True,
        omegastar=_word_omegastar(sub),
        w_plus_one=_word_w_plus_one(sub) or _word_omega(sub),
        zeta=_word_zeta(sub) or _word_omegastar(sub),
        owfviol=_word_owfviol(sub) or (_word_omega(sub) and _word_omegastar(sub)),
        wf=_word_wf(sub),
        cowf=False,
    )


def _tail_down(sub) -> _Block:
    return _Block(
        pt=True,
        omega=_word_omega(sub),
        omegastar=True,
        w_plus_one=_word_w_plus_one(sub) or _word_omega(sub),
        zeta=_word_zeta(sub) or _word_omega(sub),
        owfviol=_word_owfviol(sub) or (_word_omega(sub) and _word_omegastar(sub)),
        wf=False,
        cowf=_word_cowf(sub),
    )


def _expand(t: OrderTerm) -> list:
    if isinstance(t, ordertype.Fin):
        return [_PT] * t.k
    if isinstance(t, ordertype.Omega):
        return [_WUP]
    if isinstance(t, ordertype.OmegaStar):
        return [_WDOWN]
    if isinstance(t, ordertype.Sum):
        return [b for p in t.parts for b in _expand(p)]
    if isinstance(t, ordertype.OmegaRep):
        sub = _expand(t.body)
        return sub * 4 + [_tail_up(sub)]
    if isinstance(t, ordertype.OmegaStarRep):
        sub = _expand(t.body)
        return [_tail_down(sub)] + sub * 4
    raise TypeError(f"not an order term: {t!r}")


def oracle_predicates(t: OrderTerm) -> dict:
    """The five primitive predicates decided by the word oracle."""
    word = _expand(t)
    return {
        "wellfounded": _word_wf(word),
        "cowellfounded": _word_cowf(word),
        "embeds_omega_plus_one": _word_w_plus_one(word),
        "embeds_zeta": _word_zeta(word),
        "embeds_omega_plus_omegastar": _word_owfviol(word),
    }


# Expected values for the seven reference orders, as ``term_report`` writes
# them ("inf" for no finite alternation bound, "w" for countably many limit
# classes): columns are wellfounded, cowellfounded, embeds ω+1, embeds ζ,
# embeds ω+ω*, alternation number, rank, limit classes (plus, minus),
# vacillating.
TRUTH_TABLE = {
    "w":       (True,  False, False, False, False, 0,     1, (1, 0),     True),
    "w*":      (False, True,  False, False, False, 0,     1, (0, 1),     True),
    "w*+w":    (False, False, False, True,  False, 1,     1, (1, 1),     True),
    "w+1":     (True,  False, True,  False, False, 0,     1, (1, 0),     True),
    "w[w*]":   (False, False, False, True,  False, 1,     2, (1, "w"),   False),
    "w[w]":    (True,  False, True,  False, False, 0,     2, ("w", 0),   True),
    "w[w*+w]": (False, False, True,  True,  True,  "inf", 2, ("w", "w"), True),
}

REGRESSION_TERMS = [
    "0", "1", "3", "w", "w*", "w+1", "1+w", "w*+1", "1+w*", "w+w",
    "w*+w*", "w*+w", "w+w*", "w+w*+w", "w*+w+w*", "w+1+w*", "w[w]",
    "w*[w*]", "w[w*]", "w*[w]", "w[w+1]", "w*[1+w*]", "w[w*+w]",
    "w*[w*+w]", "w[w+w*]", "w*[w+w*]", "w[w]+w*", "w*+w[w*]",
    "1+w[w*]+1", "w[w*]+w[w]",
]


def criterion_7() -> VerificationReport:
    """Order-type calculus: the reference truth table reproduces exactly;
    all reverse-invariance laws hold on the regression set; the recursive
    predicates agree with the word oracle on every regression term."""
    for text, row in TRUTH_TABLE.items():
        rep = term_report(parse_term(text))
        p, limits = rep["predicates"], rep["limits"]
        got = (
            p["wellfounded"], p["cowellfounded"], p["embeds_omega_plus_one"],
            p["embeds_zeta"], p["embeds_omega_plus_omegastar"], rep["alt"],
            rep["rank"], (limits["plus"], limits["minus"]), rep["vacillating"],
        )
        if got != row:
            return _report(7, False, witness={"term": text, "got": repr(got)})
    for text in REGRESSION_TERMS:
        t = parse_term(text)
        r = reverse(t)
        a, b = term_report(t), term_report(r)
        p, q = a["predicates"], b["predicates"]
        laws = [
            p["wellfounded"] == q["cowellfounded"],
            p["cowellfounded"] == q["wellfounded"],
            p["embeds_zeta"] == q["embeds_zeta"],
            p["embeds_omega_plus_omegastar"] == q["embeds_omega_plus_omegastar"],
            a["alt"] == b["alt"],
            a["rank"] == b["rank"],
            a["vacillating"] == b["vacillating"],
            a["limits"]["plus"] == b["limits"]["minus"],
            a["limits"]["minus"] == b["limits"]["plus"],
            reverse(r) == t,
        ]
        if not all(laws):
            return _report(7, False, witness={"term": text, "laws": laws})
        want = oracle_predicates(t)
        if any(p[k] != v for k, v in want.items()):
            return _report(7, False, witness={"term": text, "oracle": want, "got": p})
    return _report(7, True, table_rows=len(TRUTH_TABLE), regression_terms=len(REGRESSION_TERMS))


# ----------------------------------------------------- 8: P1 window claims


def criterion_8() -> VerificationReport:
    """P1: the window spine certificate validates for every N <= 20, and the
    pigeonhole obstruction yields exactly m+1 demanders vs m hosts for
    every m <= 10."""
    for N in range(21):
        rep = families.verify_claim("P1", "spine_partition", {"N": N})
        if not rep.ok:
            return _report(8, False, witness={"N": N, "report": rep.to_dict()})
    for m in range(11):
        rep = families.verify_claim("P1", "pigeonhole", {"m": m})
        if not (
            rep.ok
            and rep.detail["demander_count"] == m + 1
            and rep.detail["host_count"] == m
        ):
            return _report(8, False, witness={"m": m, "report": rep.to_dict()})
    return _report(8, True, spine_cases=21, pigeonhole_cases=11)


# ----------------------------------------------------- 9: P2 window claims


def criterion_9() -> VerificationReport:
    """P2: both chain families partition every window B <= 6; the two
    infinite chains are bicomparable at B = 8 with slack 2; the column
    shift is order-consistent at B = 8."""
    for B in range(1, 7):
        rep = families.verify_claim("P2", "partitions", {"B": B})
        if not rep.ok:
            return _report(9, False, witness={"B": B, "report": rep.to_dict()})
    rep = families.check_bounded_bicomparable(
        "P2", "C0", "C1", families.WindowSpec.make(z=8, n=8), slack=2
    )
    if not rep.ok:
        return _report(9, False, witness=rep.to_dict())
    rep = families.verify_claim("P2", "shift_reduction", {"B": 8})
    if not rep.ok:
        return _report(9, False, witness=rep.to_dict())
    return _report(9, True, partition_cases=6)


# ------------------------------------------------ 10: P3 and P4 window claims


def criterion_10() -> VerificationReport:
    """P3: row antichain caps match min(y+1, B+1) for y <= 5 at B = 25.
    P4: each E(n) is reachable from above E(n+1) in bounded windows, and
    no element ever dominates a whole sibling window, for n, m <= 4."""
    for y in range(6):
        rep = families.verify_claim("P3", "row_bound", {"y": y, "B": 25})
        if not rep.ok:
            return _report(10, False, witness={"y": y, "report": rep.to_dict()})
    bound = families.WindowSpec.make(x=5, y=5, z=5)
    for n in range(5):
        rep = families.check_bounded_cofinally_above(
            "P4", f"E({n})", f"E({n + 1})", bound, slack=3
        )
        if not rep.ok:
            return _report(10, False, witness={"n": n, "report": rep.to_dict()})
    for n in range(5):
        for m in range(5):
            rep = families.verify_claim("P4", "no_domination", {"n": n, "m": m, "B": 4})
            if not rep.ok:
                return _report(10, False, witness={"n": n, "m": m, "report": rep.to_dict()})
    return _report(10, True, row_cases=6, cofinal_cases=5, domination_cases=25)


# ----------------------------------------- 11: proof-embedded greedy drivers


def _ladder(k: int, ymax: int = 5) -> tuple[FinitePoset, list[list]]:
    els = [(i, y) for i in range(k) for y in range(ymax + 1)]
    pairs = [((i, y), (i, y + 1)) for i in range(k) for y in range(ymax)]
    pairs += [((i + 1, y), (i, y + 1)) for i in range(k - 1) for y in range(ymax)]
    P = FinitePoset.from_generators(els, pairs)
    chains = [[(i, y) for y in range(ymax + 1)] for i in range(k)]
    return P, chains


def _transversal_antichains(P: FinitePoset, chains: list[list]) -> list[tuple]:
    """Every antichain with one element per chain, in ``itertools.product``
    order, grown chain by chain from the pairwise incomparable prefixes:
    each prefix carries the bitmask of the elements comparable to one of
    its members, the members included."""
    comp = _comparability_masks(P)
    selections: list[tuple[int, tuple]] = [(0, ())]
    for chain in chains:
        steps = [(x, 1 << i, comp[i] | 1 << i) for x, i in zip(chain, map(P.index, chain))]
        selections = [
            (blocked | reach, sel + (x,))
            for blocked, sel in selections
            for x, bit, reach in steps
            if not blocked & bit
        ]
    return [sel for _, sel in selections]


def _extension_instance(rng: random.Random):
    """A random (P, F, cert, tau) meeting the thickness precondition, built
    so the extension is expected to succeed: each outside element either
    duplicates the comparabilities of a distinct inside element or is
    isolated.  So tau >= 1: an isolated element's degree is |F| >= 3, and a
    twin's inside element counts toward its degree."""
    F_poset = random_poset(rng, max_size=7, min_size=3)
    cert = find_spine(F_poset)
    part_of = {x: k for k, part in enumerate(cert.antichains) for x in part}
    e = F_poset.elements
    names = range(len(e), len(e) + rng.randint(1, min(3, len(cert.antichains))))
    twin_parts: set[int] = set()
    # The comparable pairs of F in row-major order, then each twin's, read
    # from the rows of the strict matrix.
    strict = F_poset.strict_matrix
    pairs = [(e[a], e[b]) for a, b in zip(*(k.tolist() for k in _true_pairs(strict)))]
    rows = strict.tolist()
    for name in names:
        if rng.random() < 0.5:
            continue  # isolated
        # At most len(names) - 1 < len(cert.antichains) parts are taken, and no
        # part is empty, so a candidate always remains.
        candidates = [x for x in e if part_of[x] not in twin_parts]
        twin = rng.choice(candidates)
        twin_parts.add(part_of[twin])
        t = F_poset.index(twin)
        for z, above, below in zip(e, rows[t], (row[t] for row in rows)):
            if above:
                pairs.append((name, z))
            elif below:
                pairs.append((z, name))
    P = FinitePoset.from_generators([*e, *names], pairs)
    F = set(e)
    tau = strong_thick_check(P, F, 0).detail["min_degree"]
    return P, F, cert, tau


def criterion_11(seed: int = 0) -> VerificationReport:
    """Greedy drivers: the chain-transversal picks a brute-validated
    antichain of size k on ladder posets for k <= 6, and the partition
    extension outputs valid certificates on 50 random instances meeting
    the thickness precondition."""
    for k in range(1, 7):
        P, chains = _ladder(k)
        picks = greedy_antichain_from_chains(P, chains)
        if tuple(picks) not in _transversal_antichains(P, chains):
            return _report(11, False, witness={"k": k, "picks": picks})
    rng = random.Random(seed + 11)
    successes = 0
    attempts = 0
    while successes < 50:
        attempts += 1
        if attempts > 500:
            return _report(11, False, witness={"successes": successes, "attempts": attempts})
        P, F, cert, tau = _extension_instance(rng)
        try:
            ext = extend_spine_partition(P, F, cert, tau)
        except ThresholdTooSmall:
            continue
        if not is_spine(P, ext):
            return _report(11, False, witness={"attempt": attempts})
        successes += 1
    return _report(11, True, ladders=6, extensions=successes, attempts=attempts)


# ------------------------------------------------- 12: family axiom fuzzing


def _random_members(family: str, rng: random.Random, B: int, k: int) -> list:
    """k members of the family with coordinates up to B (from -B on a signed
    axis, P2's z), each coordinate uniform over its range in the family's
    record, drawn one coordinate column at a time; then a tenth of the
    members become named points (P1's bot, a and top), uniformly."""
    fam = families.RECORDS[family]
    spans = fam.spans(families.WindowSpec.make(**dict.fromkeys(fam.axes, B)))
    columns = (spans[fam.factors[j]] for j in fam.order)
    members = list(zip(*(rng.choices(range(lo, hi + 1), k=k) for lo, hi in columns)))
    named = [p for p in fam.points if p is not None]
    if named:
        extremes = rng.choices((*named, *[None] * 9 * len(named)), k=k)
        members = [e or m for e, m in zip(extremes, members)]
    return members


def criterion_12(seed: int = 0) -> VerificationReport:
    """1000 random triples (p, q, r) per family satisfy reflexivity,
    antisymmetry, and transitivity of the comparison routines at B = 12.

    Each family's 3000 members are compared in one
    :func:`families.relation_pairs` call, so the broadcast comparison forms
    are what is fuzzed; the tests check the scalar ``elem_le`` against
    them.  A failure names the first failing trial, and in it the first of
    the laws reflexive, antisymmetric, transitive.
    """
    rng = random.Random(seed + 12)
    B, trials = 12, 1000
    # Member t, trials + t and 2 * trials + t are trial t's p, q and r; the
    # pairs are p<=p, p<=q, q<=p, q<=r and p<=r.
    p, q, r = np.arange(3 * trials).reshape(3, trials)
    left, right = np.concatenate((p, p, q, q, p)), np.concatenate((p, q, p, r, r))
    for family in families.FAMILIES:
        members = _random_members(family, rng, B, 3 * trials)
        pp, pq, qp, qr, pr = families.relation_pairs(family, members, left, right).reshape(5, trials)
        distinct = np.array([a != b for a, b in zip(members[:trials], members[trials : 2 * trials])])
        laws = (
            ("reflexive", "p", ~pp),
            ("antisymmetric", "pq", distinct & pq & qp),
            ("transitive", "pqr", pq & qr & ~pr),
        )
        failed = np.any([broken for _, _, broken in laws], axis=0)
        if failed.any():
            t = int(failed.argmax())
            law, roles = next((law, roles) for law, roles, broken in laws if broken[t])
            witness = {"family": family, **dict(zip(roles, members[t::trials])), "law": law}
            return _report(12, False, witness=witness)
    return _report(12, True, families=len(families.FAMILIES), trials_each=trials)


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12,
]


def run_acceptance(seed: int = 0) -> list[VerificationReport]:
    """Run the full battery."""
    reports = []
    for func in ALL_CRITERIA:
        kwargs = {"seed": seed} if "seed" in inspect.signature(func).parameters else {}
        reports.append(func(**kwargs))
    return reports
