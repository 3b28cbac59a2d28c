"""The flat-index and ``take`` matrix kernels of ``poset`` against numpy's
2-D index machinery, the thickness drivers against their per-outsider
loops, and ``element_id`` against the per-coordinate join.

``poset._true_pairs`` and ``poset._block`` replace ``np.argwhere`` /
``np.nonzero`` and ``np.ix_`` in the package, and ``partition`` reads every
thickness question from one partner matrix (one ``poset._bool_matmul``
product).  Each public result built on them is compared here with the old
formulation, kept below as the oracle, on hypothesis posets and on
full-size family windows.
"""

import ast
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fishbone import acceptance, families, verify
from fishbone.families import WindowSpec, element_id, window, window_payloads
from fishbone.partition import (
    NoEligiblePoint,
    SpineCertificate,
    ThresholdTooSmall,
    check_spine,
    extend_spine_partition,
    find_spine,
    greedy_antichain_from_chains,
    strong_thick_check,
    thick_degree,
    width_and_dilworth,
)
from fishbone.poset import FinitePoset, _block, _bool_matmul, _row_lists, _true_pairs
from fishbone.report import FAIL, PASS, VerificationReport

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
            assert thick_degree(P, members, y) == old_thick_degree(P, members, y)


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
    poset._bool_matmul, whose float32 product is exact; a product on a
    narrow integer type, such as uint8, wraps."""
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


def test_every_claim_writes_its_report_through_the_claim_decorator():
    """verify.py builds no VerificationReport itself, and every family claim
    and P5 desk check carries the caps of report.claim."""
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "VerificationReport"
    ]
    assert not calls, f"return (status, witness, detail) from a report.claim check: verify.py lines {calls}"
    desk = [verify.verify_level_structure, verify.verify_min_drop, verify.verify_constant_on_rows,
            verify.verify_final_counting]
    for check in [*families._CLAIMS.values(), *desk]:
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
