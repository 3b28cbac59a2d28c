"""The flat-index and ``take`` matrix kernels of ``poset`` against numpy's
2-D index machinery, the thickness drivers and criterion 11's instance
builder against their per-outsider and per-pair loops, the antichain test
and ``check_spine``, which read strict rows, against their blocks of the
comparability matrix, ``element_id`` against the per-coordinate join, and
the family checks on coordinate columns against their payload formulations.

``poset._true_pairs`` and ``poset._block`` replace ``np.argwhere`` /
``np.nonzero`` and ``np.ix_`` in the package.  ``partition`` answers a
thickness question from one partner matrix (one ``poset._bool_matmul``
product): ``extend_spine_partition`` reads its precondition check and its
placement from the same one, so a criterion 11 attempt builds two, one
for tau and one for the extension.  Each public result built on them is
compared here with the old formulation, kept below as the oracle, on
hypothesis posets and on full-size family windows.
"""

import ast
import dataclasses
import itertools
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fishbone import acceptance, families, partition, poset, verify
from fishbone.families import WindowSpec, elem_le, element_id, window, window_payloads
from fishbone.partition import (
    NoEligiblePoint,
    SpineCertificate,
    ThresholdTooSmall,
    _thick_partners,
    check_spine,
    extend_spine_partition,
    find_spine,
    greedy_antichain_from_chains,
    strong_thick_check,
    width_and_dilworth,
)
from fishbone.poset import FinitePoset, _block, _bool_matmul, _row_lists, _true_pairs
from fishbone.random_posets import random_poset
from fishbone.report import CLAIMS, FAIL, PASS, UP_TO_BOUND, VerificationReport

SRC = Path(__file__).resolve().parents[1] / "src" / "fishbone"


# ------------------------------------------------------------------ oracles


def old_covers(P):
    e = P.elements
    return [(e[v], e[u]) for v, u in np.argwhere(P.cover_matrix.T).tolist()]


def old_row_lists(m):
    rows, cols = np.nonzero(m)
    flat = cols.tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(m))).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def old_block(P, members):
    idx = [P.index(m) for m in members]
    return P.comparability_matrix[np.ix_(idx, idx)]


def old_induced(P, members):
    keep = sorted({P.index(x) for x in members})
    return FinitePoset([P.elements[i] for i in keep], P.leq_matrix[np.ix_(keep, keep)])


def old_thick_partners(P, members, y):
    idx = [P.index(x) for x in members]
    comp = P.comparability_matrix
    with_y = comp[idx, P.index(y)]
    covers_y = (comp[np.ix_(idx, idx)] | ~with_y[:, None]).all(axis=0)
    return [members[k] for k in np.flatnonzero(covers_y & ~with_y)]


def old_thick_degree(P, members, y):
    return len(old_thick_partners(P, list(members), y))


def old_strong_thick_check(P, F, tau):
    members = set(F)
    params = {"subset": len(members), "tau": tau}
    worst = None
    for y in P.elements:
        if y in members:
            continue
        d = old_thick_degree(P, members, y)
        if worst is None or d < worst[1]:
            worst = (y, d)
        if d < tau:
            return VerificationReport(claim="thickness", params=params, status=FAIL, witness=y, detail={"degree": d})
    detail = {} if worst is None else {"min_degree": worst[1]}
    return VerificationReport(claim="thickness", params=params, status=PASS, detail=detail)


def old_extend_spine_partition(P, F, cert, tau):
    members = set(F)
    rep = check_spine(P.induced(members), cert)
    if not rep.ok:
        raise ValueError(f"invalid certificate for subset: {rep.detail.get('reason')}")
    rep = old_strong_thick_check(P, members, tau)
    if not rep.ok:
        raise ThresholdTooSmall(rep.witness, f"thickness degree {rep.detail['degree']} < {tau}")
    part_of = {}
    for k, part in enumerate(cert.antichains):
        for x in part:
            part_of[x] = k
    new_parts = [list(part) for part in cert.antichains]
    used = set()
    member_list = list(members)
    for y in [y for y in P.elements if y not in members]:
        candidates = {part_of[x] for x in old_thick_partners(P, member_list, y)}
        placed = False
        for k in sorted(candidates):
            if k in used:
                continue
            if all(P.incomparable(y, w) for w in new_parts[k]):
                new_parts[k].append(y)
                used.add(k)
                placed = True
                break
        if not placed:
            raise ThresholdTooSmall(y, "no unused antichain can absorb it")
    return SpineCertificate(chain=cert.chain, antichains=tuple(tuple(p) for p in new_parts))


def old_greedy_antichain_from_chains(P, chains):
    picked, picked_set = [], set()
    for ci, chain in enumerate(chains):
        ordered = P.chain_sorted(set(chain))
        if any(x in picked_set for x in ordered):
            raise NoEligiblePoint(ci, "chain repeats an already picked element")
        if ci == 0:
            choice = ordered[0]
        else:
            start = len(ordered)
            for k in range(len(ordered) - 1, -1, -1):
                if all(P.incomparable(ordered[k], p) for p in picked):
                    start = k
                else:
                    break
            if start == len(ordered):
                raise NoEligiblePoint(ci, "no final segment avoids the picks so far")
            choice = ordered[start]
        picked.append(choice)
        picked_set.add(choice)
    return picked


def old_extension_instance(rng):
    """Criterion 11's instance builder with a ``leq`` call per ordered pair
    of F, an ``lt`` pair per twin and one degree per outsider."""
    F_poset = random_poset(rng, max_size=7, min_size=3)
    cert = find_spine(F_poset)
    part_of = {}
    for k, part in enumerate(cert.antichains):
        for x in part:
            part_of[x] = k
    n_f = len(F_poset)
    n_out = rng.randint(1, min(3, len(cert.antichains)))
    twin_parts = set()
    pairs = [(a, b) for a in F_poset.elements for b in F_poset.elements if a != b and F_poset.leq(a, b)]
    outsiders = []
    for j in range(n_out):
        name = n_f + j
        if rng.random() < 0.5:
            outsiders.append((name, None))
            continue
        candidates = [x for x in F_poset.elements if part_of[x] not in twin_parts]
        twin = rng.choice(candidates)
        twin_parts.add(part_of[twin])
        outsiders.append((name, twin))
        for z in F_poset.elements:
            if F_poset.lt(twin, z):
                pairs.append((name, z))
            elif F_poset.lt(z, twin):
                pairs.append((z, name))
    elements = list(F_poset.elements) + [name for name, _ in outsiders]
    P = FinitePoset.from_generators(elements, pairs)
    F = set(F_poset.elements)
    tau = min(old_thick_degree(P, F, name) for name, _ in outsiders)
    return P, F, cert, tau


def outcome(f, *args):
    """What ``f(*args)`` gives: its value, or its error's type, message and
    the element or chain index the error names."""
    try:
        return f(*args)
    except (ThresholdTooSmall, NoEligiblePoint, ValueError) as err:
        return type(err), str(err), getattr(err, "element", None), getattr(err, "chain_index", None)


def assert_thickness_matches_the_oracles(P, F, cert, tau):
    assert strong_thick_check(P, F, tau).to_dict() == old_strong_thick_check(P, F, tau).to_dict()
    assert outcome(extend_spine_partition, P, F, cert, tau) == outcome(old_extend_spine_partition, P, F, cert, tau)


def old_is_antichain(P, members):
    block = old_block(P, members)
    np.fill_diagonal(block, False)
    return not block.any()


def old_check_spine(P, cert):
    """``check_spine`` as it read the comparability matrix: the clash test
    on that matrix with its diagonal cleared, and the repeated part through
    ``old_is_antichain``."""
    params = {"chain": len(cert.chain), "antichains": len(cert.antichains)}

    def fail(reason, witness):
        return VerificationReport(claim="spine", params=params, status=FAIL, witness=witness, detail={"reason": reason})

    try:
        chain = [P.index(x) for x in cert.chain]
    except poset.UnknownElement as err:
        return fail("chain element not in poset", err.element)
    label, repeat = [-1] * len(P), None
    try:
        for k, part in enumerate(cert.antichains):
            for x in part:
                i = P.index(x)
                if repeat is None:
                    if label[i] < 0:
                        label[i] = k
                    else:
                        repeat = k, x
    except poset.UnknownElement as err:
        return fail("antichain element not in poset", err.element)
    at = np.array(chain, dtype=np.intp)
    rises = P.strict_matrix[at[:-1], at[1:]]
    if not rises.all():
        k = int(rises.argmin())
        return fail("chain not strictly increasing", [cert.chain[k], cert.chain[k + 1]])
    labels = np.array(label, dtype=np.intp)
    clash = P.comparability_matrix & (labels[:, None] == labels) & (labels >= 0)[:, None]
    np.fill_diagonal(clash, False)
    if clash.any():
        k = int(labels[clash.any(axis=1)].min())
        return fail("part is not an antichain", list(cert.antichains[k]))
    if repeat is not None:
        k, x = repeat
        if not old_is_antichain(P, cert.antichains[k]):
            return fail("part is not an antichain", list(cert.antichains[k]))
        return fail("element in two parts", x)
    if -1 in label:
        return fail("element in no part", P.elements[label.index(-1)])
    meets = [0] * len(cert.antichains)
    for i in chain:
        meets[label[i]] += 1
    k = next((k for k, count in enumerate(meets) if count != 1), None)
    if k is not None:
        on_chain = set(cert.chain)
        hits = [x for x in cert.antichains[k] if x in on_chain]
        return fail("part must meet the chain exactly once", {"part": k, "hits": hits})
    return VerificationReport(claim="spine", params=params, status=PASS)


def assert_matches_the_oracles(P, rng):
    """Every kernel result on P, and on a few drawn subsets, equals the
    2-D-index formulation."""
    assert P.covers() == old_covers(P)
    assert P.to_json_dict()["le"] == [[u, v] for v, u in old_covers(P)]
    for m in (P.cover_matrix, P.strict_matrix, P.leq_matrix):
        assert _row_lists(m) == old_row_lists(m)
    for _ in range(4):
        k = rng.randint(0, len(P))
        members = rng.sample(P.elements, k)
        Q, R = P.induced(members), old_induced(P, members)
        assert Q == R and (Q.cover_matrix == R.cover_matrix).all()
        # Repeats are allowed in the members of the two predicates.
        listed = members + rng.sample(members, min(k, 2))
        for chosen in (members, listed, members[:3]):
            assert P.is_chain(chosen) == bool(old_block(P, chosen).all())
            assert P.is_antichain(chosen) == old_is_antichain(P, chosen)
        for y in rng.sample(P.elements, min(len(P), 3)):
            assert _thick_partners(P, members, [y]).sum() == old_thick_degree(P, members, y)


# ------------------------------------------------------------------ posets


@st.composite
def posets(draw, max_size: int = 40) -> FinitePoset:
    """0 to 40 elements; generator pairs follow a drawn permutation, so the
    declared order is unrelated to the order relation."""
    n = draw(st.integers(0, max_size))
    perm = draw(st.permutations(range(n)))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)) if n else []
    pairs = [(perm[min(a, b)], perm[max(a, b)]) for a, b in edges if a != b]
    return FinitePoset.from_generators(range(n), pairs)


@settings(max_examples=150, deadline=None)
@given(P=posets(), seed=st.integers(0, 2**16))
def test_kernels_match_the_2d_index_formulations_on_generated_posets(P, seed):
    assert_matches_the_oracles(P, random.Random(seed))
    # The table constructor takes the other path to the covers.
    assert_matches_the_oracles(FinitePoset(P.elements, P.leq_matrix), random.Random(seed))


def planted_certificates(P, rng):
    """P's spine certificate, then copies of it with one planted fault
    each, drawn at random: a comparable pair in one part, a member
    repeated in its own part or another, a member dropped from every part,
    a foreign element in a part or on the chain, two parts merged, and a
    shuffled chain with random parts."""
    cert = find_spine(P)
    chain, parts = list(cert.chain), [list(p) for p in cert.antichains]
    e, certs = P.elements, [cert]

    def plant(new_chain, new_parts):
        certs.append(SpineCertificate(chain=tuple(new_chain), antichains=tuple(map(tuple, new_parts))))

    def drawn_part():
        return rng.randrange(len(parts))

    if not e:
        plant(chain, [["foreign"]])
        return certs
    for _ in range(6):
        x, y = rng.choice(e), rng.choice(e)
        where = {z: k for k, part in enumerate(parts) for z in part}
        moved = [list(p) for p in parts]
        moved[where[y]].remove(y)
        moved[where[x]].insert(rng.randint(0, len(moved[where[x]])), y)
        plant(chain, moved)
        added = [list(p) for p in parts]
        added[drawn_part()].append(x)
        plant(chain, added)
        dropped = [list(p) for p in parts]
        dropped[where[x]].remove(x)
        plant(chain, dropped)
        foreign = [list(p) for p in parts]
        foreign[drawn_part()].insert(0, "foreign")
        plant(chain, foreign)
        plant(chain[:1] + ["foreign"] + chain[1:], parts)
        if len(parts) > 1:
            j, k = sorted(rng.sample(range(len(parts)), 2))
            merged = [p for i, p in enumerate(parts) if i != k]
            merged[j] = parts[j] + parts[k]
            plant(chain, merged)
        shuffled = [rng.sample(list(e), rng.randint(0, len(e))) for _ in range(rng.randint(1, 3))]
        plant(rng.sample(chain, len(chain)), shuffled)
    return certs


@settings(max_examples=150, deadline=None)
@given(P=posets(max_size=24), seed=st.integers(0, 2**16))
def test_antichain_and_spine_checks_match_their_comparability_block_forms(P, seed):
    # ``is_antichain`` reads the members' strict rows and ``check_spine``
    # the strict matrix; the oracles read blocks of ``leq | leq.T``.  Every
    # construction route: generators, a table, and a subposet of either.
    rng = random.Random(seed)
    table = FinitePoset(P.elements, P.leq_matrix)
    routes = [P, table, P.induced(rng.sample(P.elements, rng.randint(0, len(P))))]
    routes.append(table.induced(rng.sample(P.elements, rng.randint(0, len(P)))))
    for Q in routes:
        e = list(Q.elements)
        lists = [[], *([x] for x in e)]
        for _ in range(8):
            members = rng.sample(e, rng.randint(0, len(e)))
            lists += [members, members + rng.choices(members, k=2) if members else members]
            lists.append(rng.sample(lists[-1], len(lists[-1])))
        for members in lists:
            assert Q.is_antichain(members) == old_is_antichain(Q, members), members
        for cert in planted_certificates(Q, rng):
            assert check_spine(Q, cert).to_dict() == old_check_spine(Q, cert).to_dict(), cert


# The five windows of the benchmark's families workload, then P1 at N = 200
# (405 elements).
WINDOWS = [
    ("P1", {"n": 126}),
    ("P2", {"z": 6, "n": 8}),
    ("P3", {"x": 20, "y": 11}),
    ("P4", {"x": 5, "y": 5, "z": 6}),
    ("P5", {"n": (0, 2), "c": 8}),
    ("P1", {"n": 200}),
]


@pytest.mark.parametrize("family, axes", WINDOWS, ids=[f"{f}-{'-'.join(map(str, a.values()))}" for f, a in WINDOWS])
def test_kernels_match_the_2d_index_formulations_on_family_windows(family, axes):
    assert_matches_the_oracles(window(family, WindowSpec.make(**axes)), random.Random(17))


@settings(max_examples=150, deadline=None)
@given(P=posets(max_size=24), seed=st.integers(0, 2**16))
def test_thickness_drivers_match_their_per_outsider_loops(P, seed):
    rng = random.Random(seed)
    F = rng.sample(P.elements, rng.randint(0, len(P)))
    cert = find_spine(P.induced(F))
    for tau in range(3):
        assert_thickness_matches_the_oracles(P, F, cert, tau)


@pytest.mark.parametrize("seed", range(4))
def test_extension_matches_its_per_outsider_loop_on_criterion_11_instances(seed):
    # Criterion 11's instances meet the thickness precondition by design, so
    # most of them extend; tau + 1 sends some to each failure.
    rng = random.Random(seed)
    for _ in range(25):
        P, F, cert, tau = acceptance._extension_instance(rng)
        for t in (tau, tau + 1):
            assert_thickness_matches_the_oracles(P, F, cert, t)


@pytest.mark.parametrize("seed", range(25))
def test_extension_instances_match_the_pairwise_builder(seed):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(4):
        P, F, cert, tau = acceptance._extension_instance(new)
        Q, G, want_cert, want_tau = old_extension_instance(old)
        assert P.elements == Q.elements and np.array_equal(P.leq_matrix, Q.leq_matrix)
        assert (F, cert, tau) == (G, want_cert, want_tau)


def test_one_partner_matrix_per_extension(monkeypatch):
    """The precondition check and the placement read one partner matrix,
    and a criterion 11 attempt builds at most two: tau's and the
    extension's."""
    built = []
    real = partition._thick_partners
    monkeypatch.setattr(partition, "_thick_partners", lambda *args: built.append(args) or real(*args))
    rng = random.Random(11)
    for _ in range(40):
        built.clear()
        P, F, cert, tau = acceptance._extension_instance(rng)
        outcome(extend_spine_partition, P, F, cert, tau)
        assert len(built) <= 2
        for t in (tau, tau + 1):
            built.clear()
            outcome(extend_spine_partition, P, F, cert, t)
            assert len(built) == 1


@settings(max_examples=150, deadline=None)
@given(P=posets(max_size=24), seed=st.integers(0, 2**16))
def test_greedy_transversal_matches_its_pairwise_loop(P, seed):
    if not len(P):
        return
    rng = random.Random(seed)
    cover = width_and_dilworth(P)[1]
    # Subchains of a minimum chain cover, listed in drawn order; a chain
    # drawn twice may repeat a pick.  The first is never empty: there the
    # old loop raised IndexError (tests/test_partition.py pins the fix).
    drawn = rng.choices(cover, k=rng.randint(1, 5))
    chains = [rng.sample(c, rng.randint(k == 0, len(c))) for k, c in enumerate(drawn)]
    assert outcome(greedy_antichain_from_chains, P, chains) == outcome(old_greedy_antichain_from_chains, P, chains)


@settings(max_examples=200, deadline=None)
@given(
    m=st.tuples(st.integers(0, 12), st.integers(0, 12)).flatmap(
        lambda s: st.lists(st.booleans(), min_size=s[0] * s[1], max_size=s[0] * s[1]).map(
            lambda v: np.array(v, dtype=bool).reshape(s)
        )
    ),
    data=st.data(),
)
def test_true_pairs_block_and_bool_matmul_match_numpy(m, data):
    for view in (m, m.T):
        rows, cols = _true_pairs(view)
        assert np.array_equal(np.stack((rows, cols), axis=1).reshape(-1, 2), np.argwhere(view))
    n = min(m.shape)
    idx = data.draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else []
    assert np.array_equal(_block(m, idx), m[np.ix_(idx, idx)])
    rows, cols = (data.draw(st.lists(st.integers(0, k - 1), max_size=8)) if k else [] for k in m.shape)
    assert np.array_equal(_block(m, rows, cols), m[np.ix_(rows, cols)])
    square = m[:n, :n]
    assert np.array_equal(_bool_matmul(square), square.astype(np.int64) @ square.astype(np.int64) > 0)
    k = data.draw(st.integers(0, 12))
    b = np.array(data.draw(st.lists(st.booleans(), min_size=m.shape[1] * k, max_size=m.shape[1] * k)), dtype=bool)
    b = b.reshape(m.shape[1], k)
    assert np.array_equal(_bool_matmul(m, b), m.astype(np.int64) @ b.astype(np.int64) > 0)


# (n, k, m) shapes of a ``_bool_matmul`` product: squares on both sides of
# its switch from BLAS to four Russians (64**3 multiply-adds) and at it;
# the partner matrix's rectangles; k not a multiple of 8 and m not a
# multiple of 64; zero dimensions.
PRODUCT_SHAPES = [
    *((s, s, s) for s in (63, 64, 65, 100, 127, 128, 129, 200, 257)),
    (3, 7, 7), (300, 20, 300), (20, 300, 20), (64, 64, 65), (1, 1, 300000),
    (70, 13, 300), (129, 255, 63), (0, 300, 300), (300, 0, 300), (300, 300, 0),
]


@pytest.mark.parametrize("density", [0, 0.05, 0.5, 1])
@pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=str)
def test_bool_matmul_is_the_integer_product_across_its_switch(shape, density):
    n, k, m = shape
    rng = np.random.default_rng(n * k + m)
    a = rng.random((n, k)) < density
    b = rng.random((k, m)) < density
    assert np.array_equal(_bool_matmul(a, b), a.astype(np.int64) @ b.astype(np.int64) > 0)
    if n == k:
        assert np.array_equal(_bool_matmul(a), a.astype(np.int64) @ a.astype(np.int64) > 0)
        # A transposed view is not C-contiguous.
        assert np.array_equal(_bool_matmul(a.T, b), a.T.astype(np.int64) @ b.astype(np.int64) > 0)


class _NoProduct(np.ndarray):
    def __matmul__(self, other):
        raise AssertionError("a BLAS product")


def test_bool_matmul_calls_blas_only_up_to_its_switch():
    """At 64**3 multiply-adds the product is a BLAS ``@``; one row more and
    it is four Russians, which multiplies operands that refuse ``@``."""
    rng = np.random.default_rng(0)
    a, b = rng.random((65, 64)) < 0.3, (rng.random((64, 64)) < 0.3).view(_NoProduct)
    with pytest.raises(AssertionError, match="a BLAS product"):
        _bool_matmul(a[:64].view(_NoProduct), b)
    expected = a.astype(np.int64) @ b.view(np.ndarray).astype(np.int64) > 0
    assert np.array_equal(_bool_matmul(a.view(_NoProduct), b), expected)


# --------------------------------------------------------- failure paths


@st.composite
def non_antisymmetric_tables(draw, max_size: int = 10) -> np.ndarray:
    """A reflexive table with at least one pair i != j related both ways."""
    n = draw(st.integers(2, max_size))
    keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    table = np.array(keep).reshape(n, n) | np.eye(n, dtype=bool)
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    table[i, j] = table[j, i] = True
    return table


# e0 and e1 lie both ways, and e1 <= e2 <= e3 lacks e1 <= e3: antisymmetry
# is still the failure reported.
@example(np.eye(4, dtype=bool) | np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=bool))
@given(non_antisymmetric_tables())
def test_antisymmetry_witness_is_the_first_argwhere_pair(table):
    strict = table & ~np.eye(len(table), dtype=bool)
    i, j = map(int, np.argwhere(strict & strict.T)[0])
    elements = [f"e{k}" for k in range(len(table))]
    with pytest.raises(ValueError) as exc:
        FinitePoset(elements, table)
    assert str(exc.value) == f"not antisymmetric: {elements[i]!r} and {elements[j]!r}"


@pytest.mark.parametrize("seed", range(8))
def test_final_counting_witness_is_the_first_argwhere_failure(monkeypatch, seed):
    # Holes punched in P5's block make F fail to be a chain, or miss the cut,
    # at drawn places; the witness must be the first failure in the order
    # of the 2-D formulation: pairs of F row-major, then the cut column-major.
    rng = random.Random(seed)
    real = families.relation_block

    def holed(family, rows, cols):
        block = real(family, rows, cols).copy()
        for _ in range(rng.randint(1, 4)):
            block[rng.randrange(len(rows)), rng.randrange(len(cols))] = False
        return block

    a = 2
    F = [(a + t, a, 1) for t in range(2 * a + 1)]
    cut = [(u, v, 0) for u in range(3 * a + 1) for v in range(3 * a + 1) if u + v >= 2 * a]
    blocks = []
    monkeypatch.setattr(verify, "relation_block", lambda *args: blocks.append(holed(*args)) or blocks[-1])
    rep = verify.verify_final_counting(a)
    le, to_cut = blocks[0], blocks[1]
    failures = [(F[i], F[j]) for i, j in np.argwhere(np.triu(~(le | le.T), 1))]
    failures += [(F[i], cut[j]) for j, i in np.argwhere(~to_cut.T)]
    if failures:
        p, q = failures[0]
        assert rep.status == "fail" and rep.witness == [element_id("P5", p), element_id("P5", q)]
    else:
        assert rep.ok


def test_no_2d_index_machinery_in_the_package():
    """np.argwhere, np.nonzero (or .nonzero()) and np.ix_ stay out of
    src/fishbone: their flat-index and take forms are several times faster
    at the package's sizes."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("argwhere", "nonzero", "ix_"):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert not found, (
        f"use poset._true_pairs (np.flatnonzero and divmod) for np.argwhere / np.nonzero, "
        f"and poset._block (two takes) for np.ix_: {found}"
    )


def test_no_matrix_product_outside_bool_matmul():
    """``@``, np.matmul and np.dot appear in src/fishbone only inside
    poset._bool_matmul, whose two branches (float32 BLAS for small
    products, four Russians on packed bits above) are exact; a product on
    a narrow integer type, such as uint8, wraps."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "poset.py":
            kernel = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_bool_matmul")
            allowed = {id(n) for n in ast.walk(kernel)}
        for node in ast.walk(tree):
            product = (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)) or (
                isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot")
            )
            if product and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"use poset._bool_matmul for a boolean matrix product: {found}"


def test_a_subposet_makes_no_product_until_its_covers_are_read(monkeypatch):
    """``induced`` restricts its parent's matrices; the one product of a
    subposet is its cover matrix, made on first read and kept.  So an
    extension's input check makes none, and the extension makes one, its
    partner matrix."""
    calls = []
    real = poset._bool_matmul

    def counted(*operands):
        calls.append(operands[0].shape)
        return real(*operands)

    P = random_poset(random.Random(3), max_size=9, min_size=6)
    instance = acceptance._extension_instance(random.Random(0))
    monkeypatch.setattr(poset, "_bool_matmul", counted)
    monkeypatch.setattr(partition, "_bool_matmul", counted)
    Q = P.induced(P.elements[::2])
    assert calls == []
    cover = Q.cover_matrix
    assert len(calls) == 1
    assert Q.cover_matrix is cover and len(calls) == 1
    calls.clear()
    extend_spine_partition(*instance)
    assert len(calls) == 1


def test_every_claim_writes_its_report_through_the_claim_decorator():
    """verify.py builds no VerificationReport itself, and every registered
    claim, the P5 desk checks among them, has caps."""
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "VerificationReport"
    ]
    assert not calls, f"return (status, witness, detail) from a report.claim check: verify.py lines {calls}"
    for check in CLAIMS.values():
        assert isinstance(check.caps, dict) and check.caps, check.__name__


# ------------------------------------------------------------ element names


@pytest.mark.parametrize(
    "family, axes",
    [("P1", {"n": 6}), ("P2", {"z": 4, "n": 3}), ("P3", {"x": 5, "y": 4}), ("P4", {"x": 3, "y": 3, "z": 3}),
     ("P5", {"n": 2, "c": 4})],
)
def test_element_id_is_the_coordinate_join(family, axes):
    payloads = window_payloads(family, WindowSpec.make(**axes))
    for p in payloads:
        want = p if isinstance(p, str) else "(" + ",".join(map(str, p)) + ")"
        assert element_id(family, p) == want
    if family == "P1":
        assert [p for p in payloads if isinstance(p, str)] == ["bot", "a", "top"]
    if family == "P2":
        assert element_id("P2", (-4, 1, 0)) == "(-4,1,0)" and min(p[0] for p in payloads) == -4


# ---------------------------------------------------------- family columns
#
# The parent formulations of the family checks, kept as oracles: windows
# enumerated with itertools.product, named sets filtered one payload at a
# time, strict comparison as one block ANDed with a transposed reverse
# block, incomparability from two payload conversions, the shift reduction
# with its reverse form and the 20-operation P1 form.


def old_window_payloads(family, spec):
    bounds = {name: (lo, hi) for name, lo, hi in spec.bounds}

    def span(axis, natural=True):
        lo, hi = bounds[axis]
        return range(max(lo, 0) if natural else lo, hi + 1)

    if family == "P1":
        return ["bot", *itertools.product(span("n"), (0, 1)), "a", "top"]
    if family == "P2":
        return list(itertools.product(span("z", natural=False), (0, 1), span("n")))
    if family in ("P3", "P4"):
        return list(itertools.product(*map(span, {"P3": "xy", "P4": "xyz"}[family])))
    return [(x, y, n) for n, x, y in itertools.product(span("n"), span("c"), span("c"))]


def old_named_predicate(family, name):
    m = re.match(r"^([A-Z]+[0-9]*)(?:\(\s*(-?\d+)(?:\s*,\s*(-?\d+))?\s*\))?$", name.strip())
    base, a, b = m.group(1), m.group(2), m.group(3)
    a = int(a) if a is not None else None
    b = int(b) if b is not None else None
    if family == "P1" and base == "C1" and a is None:
        return lambda p: p in ("bot", "top") or (isinstance(p, tuple) and p[1] == 0)
    if family == "P1" and base == "C2" and a is None:
        return lambda p: p in ("bot", "top", "a") or (isinstance(p, tuple) and p[1] == 1)
    if family == "P2" and base in ("C0", "C1") and a is None:
        return lambda p: p[1] == int(base[1])
    if family == "P2" and base == "D" and a is not None and b is None:
        return lambda p: p[2] == a
    if family in ("P3", "P4") and base in ("C", "E") and a is not None and b is None:
        return lambda p: p[0] == a
    if family == "P5" and base == "L" and a is not None and b is None:
        return lambda p: p[2] == a
    if family == "P5" and base == "K" and a is not None and b is not None:
        return lambda p: p[2] == a and p[0] + p[1] == b
    raise families.UnknownName(family, name)


def old_named_subset_payloads(family, name, spec):
    pred = old_named_predicate(family, name)
    return [p for p in old_window_payloads(family, spec) if pred(p)]


def old_first_unreached(family, lower, upper):
    below = families.relation_block(family, lower, upper) & ~families.relation_block(family, upper, lower).T
    reached = below.any(axis=1)
    return None if reached.all() else lower[int(reached.argmin())]


def old_checked_bound(family, spec):
    """The range each axis of ``spec`` spans in the window: only P2's z
    goes below 0."""
    return {name: [lo if (family, name) == ("P2", "z") else max(lo, 0), hi] for name, lo, hi in spec.bounds}


def old_check_bounded_cofinally_above(family, upper, lower, bound, slack):
    bound_params = old_checked_bound(family, bound)
    params = {"family": family, "upper": upper, "lower": lower, "bound": bound_params, "slack": slack}
    lower_elems = [y for y in old_named_subset_payloads(family, lower, bound) if y != "top"]
    upper_elems = old_named_subset_payloads(family, upper, bound.widened(slack))
    y = old_first_unreached(family, lower_elems, upper_elems)
    if y is not None:
        detail = {"reason": "no element of the upper set lies strictly above"}
        return VerificationReport("cofinally-above", params, FAIL, element_id(family, y), detail)
    detail = {"lower_checked": len(lower_elems), "upper_candidates": len(upper_elems)}
    return VerificationReport("cofinally-above", params, UP_TO_BOUND, None, detail)


def old_incomparable(family, rows, cols):
    return ~(families.relation_block(family, rows, cols) | families.relation_block(family, cols, rows).T)


def old_p1_pigeonhole(m):
    demanders = [(n, 1) for n in range(m + 1)]
    c1 = old_named_subset_payloads("P1", "C1", WindowSpec.make(n=m))
    eligible = {h for h, free in zip(c1, old_incomparable("P1", demanders, c1).any(axis=0)) if free}
    reserved = (m, 0)
    hosts = [element_id("P1", h) for h in sorted(eligible - {reserved})]
    ok = len(hosts) < len(demanders)
    return PASS if ok else FAIL, None if ok else hosts, {
        "demanders": [element_id("P1", d) for d in demanders],
        "hosts": hosts,
        "demander_count": len(demanders),
        "host_count": len(hosts),
        "reserved_for_a": element_id("P1", reserved),
    }


def old_p3_atomic_antichain(n, m, B):
    if n == m:
        return FAIL, element_id("P3", (n, 0)), {"reason": "columns coincide"}
    column = [(n, y1) for y1 in range(B + 1)]
    counts = old_incomparable("P3", column, [(m, y2) for y2 in range(2 * B + 1)]).sum(axis=1)
    best, count = element_id("P3", column[int(counts.argmax())]), int(counts.max())
    ok = count >= B
    return UP_TO_BOUND if ok else FAIL, None if ok else best, {
        "best_element": best,
        "incomparable_count": count,
        "required": B,
    }


def old_shift_reduction(B, le):
    z = np.arange(1 - B, B + 1).reshape(-1, 1, 1)
    n = np.arange(B + 1)
    lower, upper = (z - 1, 0, n[:, None]), (z, 0, n)
    reached = (le(lower, upper) & ~le(upper, lower)).any(axis=2)
    if not reached.all():
        col, k = np.unravel_index(int(reached.argmin()), reached.shape)
        return FAIL, element_id("P2", (int(col) - B, 0, int(k))), {}
    return UP_TO_BOUND, None, {"checked": 2 * B * (B + 1)}


def old_le_p1_cols(p, q):
    (s, n, i), (t, m, j) = p, q
    same = (s == t) & (n == m) & (i == j)
    pairs = (s == 1) & (t == 1) & (((i == j) & (n <= m)) | ((i == 1) & (j == 0) & (n < m)))
    return same | (s == 0) | (t == 3) | ((s == 1) & (t == 2) & (i == 1)) | pairs


# Every named set of each family, with overlapping ones (P1's C1 and C2 share
# bot and top; P2's C0 and D(n); P5's L(n) and K(n, s)), and the window at
# each bound 0..4 on every axis.
NAMED = {
    "P1": ["C1", "C2"],
    "P2": ["C0", "C1", "D(0)", "D(1)", "D(3)"],
    "P3": ["C(0)", "C(1)", "C(2)"],
    "P4": ["E(0)", "E(1)", "E(2)"],
    "P5": ["L(0)", "L(1)", "L(2)", "K(0,1)", "K(1,2)"],
}


def bounds(family):
    """The spec with every axis at 0..k for k = 0..4 (P2's z at -k..k), and
    specs whose window is empty or holds only bot, a and top."""
    axes = families.RECORDS[family].axes
    specs = [WindowSpec.make(**{a: k for a in axes}) for k in range(5)]
    return specs + [WindowSpec.make(**{a: (-3, -1) if a == axes[-1] else 2 for a in axes})]


SLACKS = [-3, -1, 0, 1, 2, 3]


def columns_payload(family, p):
    """The coordinate column entries of one payload: P1's (kind, n, i)."""
    if family == "P1":
        return (1, *p) if isinstance(p, tuple) else ({"bot": 0, "a": 2, "top": 3}[p], 0, 0)
    return p


@pytest.mark.parametrize("family", families.FAMILIES)
def test_window_payloads_are_the_tuples_of_the_window_columns(family):
    for spec in [*bounds(family), *(s.widened(k) for s in bounds(family) for k in SLACKS)]:
        payloads = window_payloads(family, spec)
        assert payloads == old_window_payloads(family, spec)
        a = families._window_columns(family, spec)
        assert [columns_payload(family, p) for p in payloads] == list(zip(*a.tolist()))
        assert all(type(c) is int for p in payloads if isinstance(p, tuple) for c in p)


@pytest.mark.parametrize("family", families.FAMILIES)
def test_named_sets_and_cofinality_match_the_payload_filters(family):
    for spec in bounds(family):
        for name in NAMED[family]:
            for k in SLACKS:
                widened = spec.widened(k)
                assert families.named_subset_payloads(family, name, widened) == old_named_subset_payloads(
                    family, name, widened
                )
        for upper, lower in itertools.product(NAMED[family], repeat=2):
            for slack in SLACKS:
                rep = families.check_bounded_cofinally_above(family, upper, lower, spec, slack)
                assert rep == old_check_bounded_cofinally_above(family, upper, lower, spec, slack)


@pytest.mark.parametrize("family", families.FAMILIES)
def test_bicomparability_matches_both_payload_filter_scans(family):
    for spec in bounds(family)[:3]:
        for first, second in itertools.product(NAMED[family], repeat=2):
            for slack in (0, 2):
                bound = old_checked_bound(family, spec)
                params = {"family": family, "first": first, "second": second, "bound": bound, "slack": slack}
                want = VerificationReport("bicomparable", params, UP_TO_BOUND)
                for upper, lower in ((first, second), (second, first)):
                    rep = old_check_bounded_cofinally_above(family, upper, lower, spec, slack)
                    if not rep.ok:
                        detail = {"direction": f"{upper} over {lower}"}
                        want = VerificationReport("bicomparable", params, FAIL, rep.witness, detail)
                        break
                assert families.check_bounded_bicomparable(family, first, second, spec, slack) == want


@pytest.mark.parametrize("family", families.FAMILIES)
def test_one_block_strict_comparison_and_incomparability_match_the_two_block_forms(family):
    for spec in bounds(family):
        for first, second in itertools.product(NAMED[family], repeat=2):
            for slack in SLACKS:
                lower = families._named_columns(family, first, spec)
                upper = families._named_columns(family, second, spec.widened(slack))
                lo, up = families._payloads(family, lower), families._payloads(family, upper)
                k = families._first_unreached(family, lower, upper)
                assert (None if k is None else lo[k]) == old_first_unreached(family, lo, up)
                new = families._incomparable(family, lower[:, :, None], upper[:, None, :])
                assert new.shape == (len(lo), len(up))
                assert np.array_equal(new, old_incomparable(family, lo, up))


def test_claims_on_columns_match_their_payload_formulations():
    for m in range(13):
        assert families.verify_claim("P1", "pigeonhole", {"m": m}) == VerificationReport(
            "P1.pigeonhole", {"m": m}, *old_p1_pigeonhole(m)
        )
    for n, m, B in itertools.product(range(4), range(4), range(5)):
        want = VerificationReport("P3.atomic_antichain", {"n": n, "m": m, "B": B}, *old_p3_atomic_antichain(n, m, B))
        assert families.verify_claim("P3", "atomic_antichain", {"n": n, "m": m, "B": B}) == want
    for n, m in [(2, 2**60 - 1), (2**60 - 1, 2), (2**60 - 1, 2**60 - 2)]:
        want = VerificationReport("P3.atomic_antichain", {"n": n, "m": m, "B": 6}, *old_p3_atomic_antichain(n, m, 6))
        assert families.verify_claim("P3", "atomic_antichain", {"n": n, "m": m, "B": 6}) == want
    for B in range(9):
        want = VerificationReport("P2.shift_reduction", {"B": B}, *old_shift_reduction(B, families._le_p2_cols))
        assert families.verify_claim("P2", "shift_reduction", {"B": B}) == want


def test_shift_reduction_matches_its_two_form_scan_on_a_broken_form(monkeypatch):
    # Holes in the form at drawn points (z, 0, n) make those lower points
    # unreached; the one-form scan names the same first one.
    record = families.RECORDS["P2"]
    rng = random.Random(5)
    for _ in range(20):
        holes = {(rng.randint(-4, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 6))}

        def broken(p, q, holes=holes):
            z, i, n = p
            out = record.le_cols(p, q)
            for hz, hn in holes:
                out = out & ((z != hz) | (i != 0) | (n != hn))
            return out

        monkeypatch.setitem(families.RECORDS, "P2", dataclasses.replace(record, le_cols=broken))
        want = VerificationReport("P2.shift_reduction", {"B": 4}, *old_shift_reduction(4, broken))
        assert families.verify_claim("P2", "shift_reduction", {"B": 4}) == want


@pytest.mark.parametrize("n", [0, 1, 5, 31, 32, 2**13, 2**60 - 1, 2**61, 10**20])
def test_p1_pair_form_matches_the_twenty_operation_form(n):
    spec = WindowSpec.make(n=(max(n - 3, 0), n))
    a = families._window_columns("P1", spec)
    y, x = a[:, :, None], a[:, None, :]
    assert np.array_equal(families._le_p1_cols(y, x), old_le_p1_cols(y, x))
    payloads = window_payloads("P1", spec)
    assert np.array_equal(families._le_p1_cols(y, x), [[elem_le("P1", p, q) for q in payloads] for p in payloads])


def test_no_transposed_comparison_block_in_families():
    """families.py evaluates each form in the layout its caller needs, so
    it has no ``.T``, np.transpose, swapaxes or moveaxis: a reverse form is
    broadcast with its arguments swapped instead."""
    tree = ast.parse((SRC / "families.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("T", "transpose", "swapaxes", "moveaxis")
    ]
    assert not found, f"broadcast the form with its arguments swapped instead of transposing: lines {found}"
