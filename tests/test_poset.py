"""Exact-arithmetic finite poset core: axioms, closure, intervals, JSON."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fishbone import families
from fishbone.partition import check_spine, find_spine, width_and_dilworth
from fishbone.poset import (
    CycleError,
    FinitePoset,
    NotAChain,
    UnknownElement,
    loads_poset,
    poset_from_json_dict,
)
from fishbone.random_posets import random_poset


def diamond() -> FinitePoset:
    return FinitePoset.from_generators(
        "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


def chain5() -> FinitePoset:
    return FinitePoset.from_generators("abcde", list(zip("abcd", "bcde")))


@st.composite
def posets(draw, max_size: int = 8) -> FinitePoset:
    n = draw(st.integers(min_value=1, max_value=max_size))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    pairs = [(min(a, b), max(a, b)) for a, b in edges if a != b]
    return FinitePoset.from_generators(range(n), pairs)


# ----------------------------------------------------------- construction


def test_transitive_closure_of_generators():
    P = diamond()
    assert P.leq("a", "d")
    assert P.lt("a", "d")
    assert not P.leq("d", "a")
    assert P.incomparable("b", "c")
    assert P.leq("b", "b")


def test_declared_element_order_is_kept():
    P = diamond()
    assert P.elements == ("a", "b", "c", "d")
    assert P.index("c") == 2


def test_cycle_in_generators_is_rejected_with_shortest_cycle():
    with pytest.raises(CycleError) as exc:
        FinitePoset.from_generators(
            "abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        )
    assert set(exc.value.cycle) == {"a", "b", "c"}


def test_two_cycle_is_reported_minimally():
    with pytest.raises(CycleError) as exc:
        FinitePoset.from_generators(
            "abc", [("a", "b"), ("b", "a"), ("b", "c")]
        )
    assert set(exc.value.cycle) == {"a", "b"}


# Which cycle is named when the generators hold several: these values were
# recorded when graphlib alone checked for cycles, and must not change.
@pytest.mark.parametrize(
    "elements, pairs, cycle",
    [
        ("abcdef", [("a", "b"), ("b", "a"), ("c", "d"), ("d", "e"), ("e", "c"), ("e", "f")], ("a", "b")),
        ("xyabc", [("x", "y"), ("y", "a"), ("a", "b"), ("b", "c"), ("c", "a")], ("a", "b", "c")),
        (range(5), [(0, 1), (1, 2), (2, 0), (1, 3), (3, 1), (3, 4)], (0, 1, 2)),
        (range(6), [(5, 5), (4, 5), (4, 5), (5, 3), (3, 4), (0, 0), (1, 2), (2, 1), (1, 2)], (1, 2)),
        (range(8), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (6, 7), (7, 5), (5, 6), (2, 6)], (0, 1, 2, 3, 4)),
    ],
)
def test_cycle_error_names_a_fixed_cycle(elements, pairs, cycle):
    with pytest.raises(CycleError) as exc:
        FinitePoset.from_generators(elements, pairs)
    assert exc.value.cycle == cycle


def test_generator_edge_cases():
    # Self-loops and repeated pairs change nothing.
    P = FinitePoset.from_generators("abc", [("a", "a"), ("a", "b"), ("a", "b"), ("b", "c"), ("c", "c"), ("b", "c")])
    assert P == FinitePoset.from_generators("abc", [("a", "b"), ("b", "c")])
    assert P.covers() == [("b", "a"), ("c", "b")]
    assert [m.tolist() for m in P.chain_lengths] == [[1, 2, 3], [3, 2, 1]]
    # Isolated elements are minimal and maximal at once.
    Q = FinitePoset.from_generators("abcd", [("c", "a")])
    assert Q.covers() == [("a", "c")]
    assert [m.tolist() for m in Q.chain_lengths] == [[2, 1, 1, 1], [1, 1, 2, 1]]
    # The empty poset.
    E = FinitePoset.from_generators([], [])
    assert len(E) == 0 and E.leq_matrix.shape == E.cover_matrix.shape == (0, 0)
    assert E.covers() == [] and [m.tolist() for m in E.chain_lengths] == [[], []]


@given(posets(max_size=12), st.data())
def test_every_generating_set_gives_the_table_poset(P, data):
    # The strict pairs, the covers, and the covers with repeated, redundant
    # and reflexive pairs mixed in generate one poset: the table's.
    T = FinitePoset(P.elements, P.leq_matrix)
    strict = [(P.elements[i], P.elements[j]) for i, j in np.argwhere(T.strict_matrix).tolist()]
    covers = [(u, v) for v, u in T.covers()]
    extra = data.draw(st.lists(st.sampled_from(strict), max_size=2 * len(strict))) if strict else []
    loops = [(x, x) for x in data.draw(st.lists(st.sampled_from(P.elements), max_size=3))]
    mixed = data.draw(st.permutations(covers + covers + extra + loops))
    for pairs in (strict, covers, mixed):
        Q = FinitePoset.from_generators(P.elements, pairs)
        assert Q == T
        assert (Q.cover_matrix == T.cover_matrix).all()
        assert all((a == b).all() for a, b in zip(Q.chain_lengths, T.chain_lengths))


def test_covers_and_chain_lengths_are_read_only_on_both_paths():
    built = diamond()
    table = FinitePoset(built.elements, built.leq_matrix)
    for P in (built, table):
        assert P.cover_matrix.tolist() == [
            [False, True, True, False],
            [False, False, False, True],
            [False, False, False, True],
            [False, False, False, False],
        ]
        assert [m.tolist() for m in P.chain_lengths] == [[1, 2, 2, 3], [3, 2, 2, 1]]
        for m in (P.cover_matrix, *P.chain_lengths):
            with pytest.raises(ValueError):
                m[0] = 0


def test_duplicate_elements_rejected():
    with pytest.raises(ValueError):
        FinitePoset.from_generators("aab", [])


def test_generator_with_unknown_element_rejected():
    with pytest.raises(UnknownElement):
        FinitePoset.from_generators("ab", [("a", "z")])


def test_raw_matrix_axiom_validation():
    bad_reflexive = np.zeros((2, 2), dtype=bool)
    with pytest.raises(ValueError, match="not reflexive"):
        FinitePoset("ab", bad_reflexive)
    bad_antisym = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError, match="not antisymmetric"):
        FinitePoset("ab", bad_antisym)
    bad_trans = np.eye(3, dtype=bool)
    bad_trans[0, 1] = bad_trans[1, 2] = True
    with pytest.raises(ValueError, match="not transitive"):
        FinitePoset("abc", bad_trans)


@st.composite
def non_transitive_tables(draw, max_size: int = 10) -> np.ndarray:
    """A reflexive, antisymmetric table that is not transitive: the pairs
    i < j of a hidden linear order are kept at random, one i < k < j is
    forced without its shortcut i <= j, and the rows are relabelled."""
    n = draw(st.integers(min_value=3, max_value=max_size))
    keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    table = np.triu(np.array(keep).reshape(n, n), 1) | np.eye(n, dtype=bool)
    i, k, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)))
    table[i, k] = table[k, j] = True
    table[i, j] = False
    perm = draw(st.permutations(range(n)))
    return table[np.ix_(perm, perm)]


@given(non_transitive_tables())
def test_transitivity_witness_is_the_first_pair_of_the_integer_square(table):
    # Reference: the table squared in exact integers, and its first pair
    # (row-major) that the table lacks.
    m = table.astype(np.int64)
    i, j = map(int, np.argwhere((m @ m > 0) & ~table)[0])
    elements = [f"e{k}" for k in range(len(table))]
    with pytest.raises(ValueError) as exc:
        FinitePoset(elements, table)
    assert str(exc.value) == f"not transitive: {elements[i]!r} .. {elements[j]!r}"


@given(posets(max_size=12), st.booleans(), st.data())
def test_induced_covers_match_the_generator_built_subposet(P, from_table, data):
    # The subposet restricts its parent's matrices, from a generator-built
    # or a table-built parent; the oracle closes the restricted pairs anew.
    if from_table:
        P = FinitePoset(P.elements, P.leq_matrix)
    members = data.draw(st.sets(st.sampled_from(P.elements)))
    Q = P.induced(members)
    strict = [(x, y) for x in Q.elements for y in Q.elements if P.lt(x, y)]
    R = FinitePoset.from_generators(Q.elements, strict)
    assert Q == R
    for name in ("strict_matrix", "comparability_matrix", "cover_matrix", "linear_extension"):
        assert np.array_equal(getattr(Q, name), getattr(R, name)), name
    for q, r in zip(Q.chain_lengths, R.chain_lengths):
        assert np.array_equal(q, r)


def test_matrix_is_frozen():
    P = diamond()
    with pytest.raises(ValueError):
        P._leq[0, 0] = False
    # A subposet's blocks, and the cover it computes on first use, are
    # frozen too.
    Q = P.induced(["a", "b", "d"])
    for m in (Q.leq_matrix, Q.strict_matrix, Q.comparability_matrix, Q.cover_matrix):
        with pytest.raises(ValueError):
            m[0, 1] = not m[0, 1]


def test_unknown_element_lookup():
    with pytest.raises(UnknownElement):
        diamond().leq("a", "z")


# ------------------------------------------------------------------ queries


def test_up_down_sets_are_strict():
    P = diamond()
    assert P.up_set("b") == {"d"}
    assert P.down_set("b") == {"a"}


def test_chain_and_antichain_predicates():
    P = diamond()
    assert P.is_chain(["a", "b", "d"])
    assert not P.is_chain(["b", "c"])
    assert P.is_antichain(["b", "c"])
    assert not P.is_antichain(["a", "d"])
    assert P.is_chain([]) and P.is_antichain([])
    assert not P.is_antichain(["b", "c", "b"])  # a repeat is comparable to itself


def test_shared_matrices_are_read_only_and_consistent():
    P = diamond()
    n = len(P)
    assert (P.strict_matrix == P.leq_matrix & ~np.eye(n, dtype=bool)).all()
    assert (P.comparability_matrix == P.leq_matrix | P.leq_matrix.T).all()
    for m in (P.leq_matrix, P.strict_matrix, P.comparability_matrix):
        with pytest.raises(ValueError):
            m[0, 1] = not m[0, 1]


WINDOWS = {
    "P1": {"n": 2},
    "P2": {"z": 1, "n": 1},
    "P3": {"x": 3, "y": 2},
    "P4": {"x": 2, "y": 2, "z": 1},
    "P5": {"n": (0, 1), "c": 2},
}


def test_comparability_is_built_on_first_read():
    # No construction route, no certificate pipeline and no family window
    # reads ``leq | leq.T``, so none builds it; its first read does, once.
    generated = random_poset(random.Random(5), max_size=30, min_size=20)
    posets = [
        generated,
        FinitePoset(generated.elements, generated.leq_matrix),
        generated.induced(generated.elements[::2]),
        FinitePoset(generated.elements, generated.leq_matrix).induced(generated.elements[1::3]),
    ]
    for P in posets:
        assert P._comparable is None
        P.covers()
        check_spine(P, find_spine(P))
        width_and_dilworth(P)
        assert P._comparable is None
    for family, axes in WINDOWS.items():
        W = families.window(family, families.WindowSpec.make(**axes))
        W.to_json_dict()
        assert W._comparable is None, family
        posets.append(W)
    for P in posets:
        comp = P.comparability_matrix
        assert np.array_equal(comp, P.leq_matrix | P.leq_matrix.T)
        assert not comp.flags.writeable
        assert P.comparability_matrix is comp


def test_chain_sorted_orders_by_the_poset():
    P = diamond()
    assert P.chain_sorted(["d", "a", "b"]) == ["a", "b", "d"]
    with pytest.raises(NotAChain) as exc:
        P.chain_sorted(["b", "c"])
    assert set(exc.value.pair) == {"b", "c"}


def test_covers_are_immediate_and_sorted():
    P = diamond()
    assert P.covers() == [("b", "a"), ("c", "a"), ("d", "b"), ("d", "c")]
    # (d, a) is a comparability but not a cover.
    assert ("d", "a") not in P.covers()


def test_induced_subposet():
    P = diamond()
    Q = P.induced(["a", "b", "d"])
    assert Q.elements == ("a", "b", "d")
    assert Q.leq("a", "d")
    assert len(Q) == 3


# ---------------------------------------------------------------- intervals


def test_convex_hull():
    P = diamond()
    assert P.convex_hull(["a", "d"]) == {"a", "b", "c", "d"}
    assert P.convex_hull(["b", "c"]) == {"b", "c"}
    assert P.convex_hull([]) == frozenset()


def test_wide_interval_on_a_chain():
    C = chain5()
    assert C.wide_interval(["b", "d"]) == {"b", "c", "d"}


def test_wide_interval_of_empty_set_is_everything():
    P = diamond()
    assert P.wide_interval([]) == set(P.elements)


def test_contiguous_chain():
    C = chain5()
    assert C.is_contiguous_chain(["a", "b", "c"])
    assert not C.is_contiguous_chain(["a", "c"])  # b fits inside
    assert not C.is_contiguous_chain(["b", "d"])
    P = diamond()
    # c is not comparable to b, so it cannot be inserted into a..b..d.
    assert P.is_contiguous_chain(["a", "b", "d"])


# --------------------------------------------------------------------- JSON


def test_json_round_trip_through_covers():
    P = diamond()
    data = P.to_json_dict()
    assert data["elements"] == ["a", "b", "c", "d"]
    assert ["a", "b"] in data["le"] and ["a", "d"] not in data["le"]
    Q = poset_from_json_dict(data)
    assert Q == P


def test_dumps_loads_round_trip():
    P = diamond()
    assert loads_poset(P.dumps()) == P
    assert json.loads(P.dumps()) == P.to_json_dict()


def test_json_input_lists_generators_not_covers():
    # Redundant generator pairs are fine on input; output is covers only.
    Q = loads_poset(
        '{"elements": ["a","b","c"], "le": [["a","b"],["b","c"],["a","c"]]}'
    )
    assert Q.to_json_dict()["le"] == [["a", "b"], ["b", "c"]]


def test_malformed_json_dict():
    with pytest.raises(ValueError):
        poset_from_json_dict({"elements": ["a"]})
    with pytest.raises(ValueError):
        poset_from_json_dict({"elements": ["a"], "le": [["a", "a", "a"]]})


@pytest.mark.parametrize(
    "le, bad",
    [
        ([[0, 1], [True, 1], [1.0, 0]], "[True, 1]"),
        ([[0, 1], [1, 1.0], [True, 1]], "[1, 1.0]"),
        ([["x", 0], ["x", None]], "['x', None]"),
        ([[0, 1], [0, 1, 1]], "[0, 1, 1]"),
        ([[0], [None, 1]], "[0]"),
        ([(0, 1)], "(0, 1)"),
    ],
)
def test_malformed_le_names_the_first_bad_pair(le, bad):
    with pytest.raises(ValueError) as exc:
        poset_from_json_dict({"elements": [0, 1, "x"], "le": le})
    assert str(exc.value) == f"bad le pair {bad}"


def test_element_ids_may_subclass_str_and_int():
    class Id(int):
        pass

    P = poset_from_json_dict({"elements": [Id(0), "b"], "le": [[Id(0), "b"]]})
    assert P.leq(0, "b") and not P.leq("b", 0)


# ------------------------------------------------------------ random posets


@given(posets())
def test_random_posets_satisfy_axioms(P):
    m = P._leq
    n = len(P)
    assert m.diagonal().all()
    assert not (m & m.T & ~np.eye(n, dtype=bool)).any()
    closed = (m @ m) | m
    assert (closed == m).all()


@given(posets())
def test_covers_regenerate_the_order(P):
    Q = poset_from_json_dict(P.to_json_dict())
    assert Q == P
    assert Q.elements == P.elements


@given(posets())
def test_up_down_sets_match_matrix(P):
    for x in P.elements:
        for y in P.elements:
            assert (y in P.up_set(x)) == P.lt(x, y)
            assert (y in P.down_set(x)) == P.lt(y, x)


@given(posets())
def test_wide_interval_contains_its_defining_pair(P):
    els = P.elements
    x, y = els[0], els[-1]
    if P.leq(x, y):
        between = {z for z in els if P.leq(x, z) and P.leq(z, y)}
        assert between <= P.wide_interval([x, y])


# ------------------------------------------------------ exactness at scale


def _wide_diamond(middles: int) -> tuple[list, np.ndarray]:
    """A bottom b, ``middles`` pairwise incomparable middles and a top t,
    as elements and their correct table: b reaches t along ``middles``
    distinct paths of length two."""
    elements = ["b", *(f"m{k}" for k in range(middles)), "t"]
    table = np.eye(len(elements), dtype=bool)
    table[0, :] = table[:, -1] = True
    return elements, table


def test_closure_counts_no_paths_modulo_256():
    elements, table = _wide_diamond(256)
    mids = elements[1:-1]
    P = FinitePoset.from_generators(elements, [("b", m) for m in mids] + [(m, "t") for m in mids])
    assert P.leq("b", "t")
    assert P == FinitePoset(elements, table)


def test_axiom_check_sees_transitivity_past_256_paths():
    elements, table = _wide_diamond(256)
    table[0, -1] = False
    with pytest.raises(ValueError, match="not transitive"):
        FinitePoset(elements, table)


def test_covers_omit_pairs_with_256_elements_between():
    covers = FinitePoset(*_wide_diamond(256)).covers()
    assert ("t", "b") not in covers and len(covers) == 512


def test_large_window_covers_match_transitive_reduction():
    nx = pytest.importorskip("networkx")
    from fishbone.families import WindowSpec, window

    P = window("P1", WindowSpec.make(n=200))
    assert len(P) == 405
    g = nx.DiGraph()
    g.add_nodes_from(P.elements)
    g.add_edges_from((x, y) for x in P.elements for y in P.up_set(x))
    want = {(v, u) for u, v in nx.transitive_reduction(g).edges}
    got = P.covers()
    assert len(got) == len(want) and set(got) == want


@given(posets(), st.data())
def test_matrix_predicates_match_pairwise_loops(P, data):
    members = data.draw(st.lists(st.sampled_from(P.elements), max_size=len(P) + 1))
    pairs = [(x, y) for a, x in enumerate(members) for y in members[a + 1:]]
    assert P.is_chain(members) == all(P.leq(x, y) or P.leq(y, x) for x, y in pairs)
    assert P.is_antichain(members) == (not any(P.leq(x, y) or P.leq(y, x) for x, y in pairs))
    if P.is_chain(members):
        chain = set(members)
        fits = any(
            x not in chain
            and all(P.leq(x, c) or P.leq(c, x) for c in chain)
            and any(P.lt(c, x) for c in chain)
            and any(P.lt(x, c) for c in chain)
            for x in P.elements
        )
        assert P.is_contiguous_chain(members) == (not fits)
