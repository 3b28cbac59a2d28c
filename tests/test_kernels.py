"""The flat-index and ``take`` matrix kernels of ``poset`` against numpy's
2-D index machinery, and ``element_id`` against the per-coordinate join.

``poset._true_pairs`` and ``poset._block`` replace ``np.argwhere`` /
``np.nonzero`` and ``np.ix_`` in the package.  Each public result built on
them is compared here with the old formulation, kept below as the oracle,
on hypothesis posets and on full-size family windows.
"""

import ast
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fishbone import families, verify
from fishbone.families import WindowSpec, element_id, window, window_payloads
from fishbone.partition import thick_degree
from fishbone.poset import FinitePoset, _block, _bool_matmul, _row_lists, _true_pairs

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


def old_thick_degree(P, members, y):
    idx = [P.index(x) for x in members]
    comp = P.comparability_matrix
    with_y = comp[idx, P.index(y)]
    covers_y = (comp[np.ix_(idx, idx)] | ~with_y[:, None]).all(axis=0)
    return len(np.flatnonzero(covers_y & ~with_y))


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
    square = m[:n, :n]
    assert np.array_equal(_bool_matmul(square), square.astype(np.int64) @ square.astype(np.int64) > 0)


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
