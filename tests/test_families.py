"""The five decidable infinite orders: comparisons, windows, named sets,
bounded claims.  A plain search over the generator moves, and the closure of
the generator edges inside a window, cross-check the closed-form comparisons
of P2, P3 and P4; the per-pair ``elem_le`` checks every window matrix and
rectangular ``relation_block``."""

import dataclasses
import inspect
import itertools
import json
import random
from collections import deque

import numpy as np
import pytest

from fishbone import acceptance, families, report, verify
from fishbone.cli import main
from fishbone.families import (
    FAMILIES,
    FamilyMismatch,
    UnknownClaim,
    UnknownName,
    WindowSpec,
    check_bounded_bicomparable,
    check_bounded_cofinally_above,
    elem_le,
    element_id,
    named_subset_payloads,
    relation_block,
    verify_claim,
    window,
    window_payloads,
)
from fishbone.poset import FinitePoset, PosetError
from fishbone.report import FAIL, PASS, PreconditionViolated, VerificationReport


def named_ids(family, name, spec):
    """The named set intersected with the window, as element names."""
    return [element_id(family, p) for p in named_subset_payloads(family, name, spec)]


# ------------------------------------------------------ generator-move oracle


def generator_moves(family, s, free):
    """Upward generator moves of P2, P3 or P4 from s, as written in the
    family definitions; ``free`` is the range the free coordinates of
    P4's jump and big drop run over.  Moves may leave the family (a
    negative x in P4); callers keep only the ones inside their box."""
    if family == "P2":
        z, i, n = s
        return [(z, i, n + 1), (z + 1, i, 0), (z, 1, n) if i == 0 else (z + 1, 0, n)]
    if family == "P3":
        x, y = s
        return [(x, y + 1), (x + y + 1, y)]
    x, y, z = s
    return (
        [(x, y, z + 1), (x, y + 1, z), (x - 1, y, z)]
        + [(a, y + 2, c) for a in free for c in free]
        + [(x - y - 1, y, c) for c in free]
    )


def search_reach(family, p, cap):
    """Everything reachable from p by generator moves with every coordinate
    in [0, cap] (z of P2 in [-cap, cap]): caps generous enough that the
    search never relies on the pruning the closed forms argue for."""
    lo = -cap if family == "P2" else 0
    seen = {p}
    queue = deque([p])
    while queue:
        for t in generator_moves(family, queue.popleft(), range(cap + 1)):
            if t not in seen and all(lo <= c <= cap for c in t):
                seen.add(t)
                queue.append(t)
    return seen


def assert_matches_search(family, members, cap):
    for p in members:
        reach = search_reach(family, p, cap)
        for q in members:
            assert elem_le(family, p, q) == (q in reach), (p, q)


@pytest.mark.parametrize(
    "family, axes",
    [("P2", {"z": (0, 3), "n": 3}), ("P3", {"x": 14, "y": 4}), ("P4", {"x": 5, "y": 4, "z": 3})],
)
def test_window_is_the_closure_of_generator_edges(family, axes):
    spec = WindowSpec.make(**axes)
    box = window_payloads(family, spec)
    inside = set(box)
    free = range(max(max(p) for p in box) + 1)
    edges = [
        (element_id(family, s), element_id(family, t))
        for s in box
        for t in generator_moves(family, s, free)
        if t in inside
    ]
    closure = FinitePoset.from_generators([element_id(family, p) for p in box], edges)
    assert window(family, spec) == closure


# ------------------------------------------------- window builder oracle


def oracle_matrix(family, rows, cols):
    return np.array([[elem_le(family, p, q) for q in cols] for p in rows], dtype=bool)


def oracle_covers(family, payloads):
    """(lower, upper) name pairs of the transitive reduction of the
    per-pair ``elem_le`` matrix."""
    m = oracle_matrix(family, payloads, payloads)
    n = len(payloads)
    lt = [[m[i, j] and i != j for j in range(n)] for i in range(n)]
    return {
        (element_id(family, payloads[i]), element_id(family, payloads[j]))
        for i in range(n)
        for j in range(n)
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))
    }


BIG = 2**62
HUGE = 10**20

# Across the int8 and int16 limits (coordinates 31 and 8191), near the int64
# one and far past it, on the axes the broadcast forms add, subtract, double
# or divide: P3 x (and y), P4 x/z (and y), P5 c (and n).
FAR_WINDOWS = [
    ("P1", {"n": (BIG - 3, BIG + 1)}),
    ("P2", {"z": (-BIG - 1, -BIG + 1), "n": (BIG - 1, BIG)}),
    ("P3", {"x": (BIG - 6, BIG), "y": (0, 3)}),
    ("P3", {"x": (HUGE, HUGE + 6), "y": (0, 3)}),
    ("P3", {"x": (0, 6), "y": (HUGE, HUGE + 2)}),
    ("P4", {"x": (BIG - 3, BIG), "y": (0, 3), "z": (BIG - 2, BIG)}),
    ("P4", {"x": (HUGE, HUGE + 3), "y": (HUGE, HUGE + 3), "z": (HUGE, HUGE + 2)}),
    ("P5", {"n": (0, 2), "c": (2**60 - 5, 2**60 - 1)}),
    ("P5", {"n": (0, 2), "c": (BIG - 4, BIG - 1)}),
    ("P5", {"n": (0, 2), "c": (2**63 - 2, 2**63 + 1)}),
    ("P5", {"n": (HUGE, HUGE + 2), "c": (HUGE, HUGE + 3)}),
    ("P3", {"x": (2**13 - 6, 2**13), "y": (0, 3)}),
    ("P4", {"x": (29, 33), "y": (0, 3), "z": (30, 32)}),
    ("P5", {"n": (0, 2), "c": (29, 33)}),
    ("P5", {"n": (0, 2), "c": (2**13 - 3, 2**13 + 1)}),
]


# Every P1 window holds bot, a and top next to its pairs.
@pytest.mark.parametrize(
    "family, axes",
    [
        ("P1", {"n": 6}),
        ("P1", {"n": (3, 5)}),
        ("P2", {"z": 3, "n": 3}),
        ("P2", {"z": (-5, -3), "n": 2}),
        ("P3", {"x": 20, "y": 5}),
        ("P4", {"x": 4, "y": 4, "z": 3}),
        ("P5", {"n": (0, 3), "c": 4}),
        ("P5", {"n": (2, 5), "c": (1, 3)}),
        *FAR_WINDOWS,
    ],
)
def test_window_matrix_matches_elem_le(family, axes):
    payloads = window_payloads(family, WindowSpec.make(**axes))
    P = window(family, WindowSpec.make(**axes))
    assert P.elements == tuple(element_id(family, p) for p in payloads)
    assert (P.leq_matrix == oracle_matrix(family, payloads, payloads)).all()


@pytest.mark.parametrize("a", [1, 2, 3, 5])
def test_final_counting_region_matches_elem_le(a):
    # Construction runs the partial-order axiom checks on the block.
    T = [(u, v, 0) for u in range(2 * a) for v in range(2 * a) if u + v <= 2 * a - 1]
    assert (FinitePoset(T, relation_block("P5", T, T)).leq_matrix == oracle_matrix("P5", T, T)).all()


def test_relation_block_keeps_the_payload_order():
    payloads = [(3, 0, 1), (0, 0, 0), (9, 9, 3), (1, 2, 1)]
    P = FinitePoset([element_id("P5", p) for p in payloads], relation_block("P5", payloads, payloads))
    assert P.elements == ("(3,0,1)", "(0,0,0)", "(9,9,3)", "(1,2,1)")
    assert (P.leq_matrix == oracle_matrix("P5", payloads, payloads)).all()
    assert len(FinitePoset([], relation_block("P3", [], []))) == 0


# Small windows next to points with coordinates at or past the int64 limit;
# every P1 window holds bot, a and top.
NEAR = {
    "P1": {"n": 2},
    "P2": {"z": 1, "n": 1},
    "P3": {"x": 3, "y": 2},
    "P4": {"x": 2, "y": 2, "z": 1},
    "P5": {"n": (0, 1), "c": 2},
}


def far_payloads(family, big):
    return {
        "P1": ["bot", (big, 0), (big + 1, 1), "a", "top"],
        "P2": [(big, 0, 0), (-big, 1, big), (big + 1, 1, 3)],
        "P3": [(big, 0), (big, 3), (2, big), (big + 5, big)],
        "P4": [(big, 0, big), (0, big, 0), (big, big + 2, 1)],
        "P5": [(big, 0, 1), (0, big, 0), (big, big, big), (1, 1, big)],
    }[family]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("big", [2**60, 2**63, HUGE])
def test_relation_block_matches_elem_le(family, big):
    near = window_payloads(family, WindowSpec.make(**NEAR[family]))
    far = far_payloads(family, big)
    for rows, cols in ((near, far), (far, near), (near, near[::2]), (far, far)):
        block = relation_block(family, rows, cols)
        assert block.dtype == bool and block.shape == (len(rows), len(cols))
        assert (block == oracle_matrix(family, rows, cols)).all(), (rows, cols)


def edge_points(family, c):
    """Points whose coordinates are 0, 1, c - 1 and c: every sum, difference
    and double a broadcast form takes of them is near its largest."""
    vals = (0, 1, c - 1, c)
    return {
        "P1": ["bot", "a", "top", *itertools.product(vals, (0, 1))],
        "P2": list(itertools.product((-c, -1, 0, c), (0, 1), vals)),
        "P3": list(itertools.product(vals, vals)),
        "P4": list(itertools.product(vals, vals, vals)),
        "P5": list(itertools.product(vals, vals, (0, 1, c))),
    }[family]


# The largest coordinate each integer type takes (P5's x + y <= 2*(u + v)
# reaches 4c, which must fit), and the next one, which takes a wider type.
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("c", [31, 32, 2**13 - 1, 2**13, 2**29 - 1, 2**29, 2**61 - 1, 2**61])
def test_relation_block_at_the_integer_type_edges(family, c):
    points = edge_points(family, c)
    assert (relation_block(family, points, points) == oracle_matrix(family, points, points)).all()


@pytest.mark.parametrize("family", FAMILIES)
def test_relation_block_with_an_empty_side(family):
    some = window_payloads(family, WindowSpec.make(**NEAR[family]))
    for rows, cols in (([], some), (some, []), ([], [])):
        block = relation_block(family, rows, cols)
        assert block.dtype == bool and block.shape == (len(rows), len(cols))


@pytest.mark.parametrize("family, axes", FAR_WINDOWS)
def test_far_window_through_the_cli(capsys, family, axes):
    spec = ",".join(f"{k}={lo}:{hi}" for k, (lo, hi) in axes.items())
    code = main(["family", "window", family, "--spec", spec])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    payloads = window_payloads(family, WindowSpec.make(**axes))
    assert data["elements"] == [element_id(family, p) for p in payloads]
    assert {tuple(pair) for pair in data["le"]} == oracle_covers(family, payloads)


# ------------------------------------------------------------ window specs


def test_window_spec_make():
    # A bare v is -v..v on every axis; the family reads a natural axis from 0.
    assert WindowSpec.make(n=3).bounds == (("n", -3, 3),)
    assert WindowSpec.make(z=4).bounds == (("z", -4, 4),)
    assert WindowSpec.make(x=(1, 5)).bounds == (("x", 1, 5),)
    assert WindowSpec.make(z=2, n=(1, 3)).bounds == (("z", -2, 2), ("n", 1, 3))
    assert families.RECORDS["P1"].spans(WindowSpec.make(n=3)) == {"n": (0, 3), "i": (0, 1)}
    assert families.RECORDS["P2"].spans(WindowSpec.make(z=2, n=3)) == {"z": (-2, 2), "n": (0, 3), "i": (0, 1)}
    with pytest.raises(ValueError):
        WindowSpec.make(x=(5, 1))
    with pytest.raises(ValueError, match="family P2 needs a bound for axis 'n'"):
        families.RECORDS["P2"].spans(WindowSpec.make(z=3))


def test_window_spec_widened():
    spec = WindowSpec.make(z=2, n=3).widened(2)
    assert spec.bounds == (("z", -4, 4), ("n", -5, 5))
    assert WindowSpec.make(n=3).widened(1).bounds == (("n", -4, 4),)
    assert WindowSpec.make(x=(1, 5)).widened(-1).bounds == (("x", 2, 4),)
    assert families.RECORDS["P2"].spans(spec) == {"z": (-4, 4), "n": (0, 5), "i": (0, 1)}


def test_a_window_spec_that_bounds_an_axis_twice_is_refused():
    # The raw constructor takes any tuple; the family reading it refuses a
    # repeated axis rather than keep its last range.
    spec = WindowSpec((("x", 0, 1), ("x", 3, 4), ("y", 0, 0)))
    with pytest.raises(ValueError, match="window bounds an axis twice: x, x, y"):
        families.RECORDS["P3"].spans(spec)
    with pytest.raises(ValueError, match="twice"):
        families.window_payloads("P3", spec)
    # An empty range is an empty window, as ``widened`` with negative slack
    # makes them; only ``make`` refuses one.
    assert families.window_payloads("P3", WindowSpec((("x", 5, 1), ("y", 0, 0)))) == []


# ------------------------------------------------------------- element ids


def test_element_ids_and_parsing():
    assert element_id("P5", (1, 2, 0)) == "(1,2,0)"
    assert element_id("P2", (-1, 0, 2)) == "(-1,0,2)"
    assert element_id("P1", "bot") == "bot"


def test_element_parsing_rejects_mismatches():
    with pytest.raises(FamilyMismatch):
        elem_le("P1", (0, 2), (1, 1))
    with pytest.raises(FamilyMismatch):
        elem_le("P5", (0, 0), (0, 0, 0))


@pytest.mark.parametrize(
    "family, p, q",
    [
        ("P3", (0.5, 0), (1, 0)),
        ("P3", (1, 0), (2, 0.0)),
        ("P1", (1.5, 1), (2, 0)),
        ("P1", (1, True), (2, 0)),
        ("P3", (True, 0), (1, 0)),
        ("P2", ("x", 0, 0), (1, 0, 0)),
        ("P2", (0, False, 0), (1, 0, 0)),
        ("P4", (0, 0, 0), (1, 0, 2.0)),
        ("P5", (0, 0, 0), (0, 1.0, 0)),
    ],
)
def test_elem_le_rejects_coordinates_that_are_not_ints(family, p, q):
    # Floats, bools and strings used to compare (or raise TypeError) by
    # whatever the closed form made of them.
    for args in ((p, q), (q, p)):
        with pytest.raises(FamilyMismatch):
            elem_le(family, *args)


# ------------------------------------------------------------ P1 relations


def test_p1_frozen_order():
    assert elem_le("P1", "bot", "top")
    assert elem_le("P1", "bot", (4, 0)) and elem_le("P1", (4, 0), "top")
    assert elem_le("P1", (2, 1), "a") and not elem_le("P1", (2, 0), "a")
    assert elem_le("P1", "a", "top") and not elem_le("P1", "a", (9, 1))
    assert elem_le("P1", (1, 0), (3, 0)) and not elem_le("P1", (3, 0), (1, 0))
    assert elem_le("P1", (1, 1), (3, 1))
    assert elem_le("P1", (0, 1), (1, 0))  # strictly smaller index crosses
    assert not elem_le("P1", (1, 1), (1, 0))
    assert not elem_le("P1", (0, 0), (5, 1))
    assert elem_le("P1", "bot", "a") and not elem_le("P1", "a", "bot")
    assert elem_le("P1", (0, 1), (4, 0))
    assert not elem_le("P1", (4, 0), "a") and not elem_le("P1", "a", (4, 0))


def test_p1_window_enumeration_and_named_chains():
    spec = WindowSpec.make(n=2)
    ids = [element_id("P1", p) for p in window_payloads("P1", spec)]
    assert ids == ["bot", "(0,0)", "(0,1)", "(1,0)", "(1,1)", "(2,0)", "(2,1)", "a", "top"]
    assert named_ids("P1", "C1", spec) == ["bot", "(0,0)", "(1,0)", "(2,0)", "top"]
    assert named_ids("P1", "C2", spec) == ["bot", "(0,1)", "(1,1)", "(2,1)", "a", "top"]


def test_p1_window_poset_has_global_bounds():
    P = window("P1", WindowSpec.make(n=1))
    assert len(P) == 7
    assert all(P.leq("bot", x) for x in P.elements)
    assert all(P.leq(x, "top") for x in P.elements)


# ------------------------------------------------------------ P2 relations


def test_p2_against_search_exhaustively():
    members = [(z, i, n) for z in range(-2, 3) for i in (0, 1) for n in range(4)]
    assert_matches_search("P2", members, cap=5)


def test_p2_far_out():
    big = 10**9
    assert elem_le("P2", (big, 1, big), (big + 1, 0, big))
    assert not elem_le("P2", (big, 1, big), (big + 1, 0, big - 1))
    assert elem_le("P2", (-big, 1, big), (big, 0, 0))
    assert not elem_le("P2", (big, 0, 0), (big - 1, 1, big))


def test_p2_named_sets():
    spec = WindowSpec.make(z=1, n=1)
    assert named_ids("P2", "C0", spec) == [
        "(-1,0,0)", "(-1,0,1)", "(0,0,0)", "(0,0,1)", "(1,0,0)", "(1,0,1)"
    ]
    assert named_ids("P2", "D(1)", spec) == [
        "(-1,0,1)", "(-1,1,1)", "(0,0,1)", "(0,1,1)", "(1,0,1)", "(1,1,1)"
    ]


# ------------------------------------------------------------ P3 relations


def test_p3_same_row_closed_form():
    for y in range(6):
        for x in range(15):
            for xx in range(15):
                want = xx >= x and (xx - x) % (y + 1) == 0
                assert elem_le("P3", (x, y), (xx, y)) == want, (x, y, xx)


def test_p3_against_naive_search():
    members = [(x, y) for x in range(11) for y in range(7)]
    assert_matches_search("P3", members, cap=14)


def test_p3_far_out():
    big = 10**9
    assert elem_le("P3", (0, 1), (big, 1))
    assert not elem_le("P3", (0, 1), (big + 1, 1))
    assert elem_le("P3", (0, big), (big + 1, big))
    assert not elem_le("P3", (0, big), (big, big))
    assert elem_le("P3", (3, 2), (big, 4))
    assert not elem_le("P3", (3, 5), (big, 4))


def test_p3_origin_is_minimum_in_window():
    P = window("P3", WindowSpec.make(x=4, y=4))
    assert all(P.leq("(0,0)", e) for e in P.elements)


# ------------------------------------------------------------ P4 relations


def test_p4_against_search():
    members = [(x, y, z) for x in range(5) for y in range(4) for z in range(4)]
    assert_matches_search("P4", members, cap=6)


def test_p4_far_out():
    big = 10**9
    assert elem_le("P4", (big, 0, big), (0, 1, 0))
    assert not elem_le("P4", (big, 5, big), (big - 5, 5, 0))
    assert elem_le("P4", (big, 5, big), (big - 6, 5, 0))
    assert elem_le("P4", (0, big, big), (big, big + 2, 0))
    assert not elem_le("P4", (0, big, big), (1, big + 1, big))


def test_p4_column_is_not_a_chain():
    # Two members of E(2) with incomparable z-coordinates at equal height.
    assert not elem_le("P4", (2, 0, 5), (2, 1, 0))
    assert not elem_le("P4", (2, 1, 0), (2, 0, 5))


# ------------------------------------------------------------ P5 relations


def test_p5_frozen_rules():
    assert elem_le("P5", (9, 9, 4), (0, 0, 0))  # two levels down: always
    assert elem_le("P5", (1, 2, 3), (4, 2, 3)) and not elem_le("P5", (1, 2, 3), (0, 2, 3))
    assert elem_le("P5", (3, 5, 1), (2, 2, 0))  # sum rule: 8 <= 2*(2+2)
    assert elem_le("P5", (0, 9, 1), (1, 1, 0))  # min rule: 0+1 <= 1
    assert not elem_le("P5", (5, 5, 1), (2, 2, 0))
    assert not elem_le("P5", (0, 0, 0), (9, 9, 1))  # never down to a deeper level


def test_p5_named_sets():
    spec = WindowSpec.make(n=(0, 0), c=3)
    assert named_ids("P5", "K(0,2)", spec) == ["(0,2,0)", "(1,1,0)", "(2,0,0)"]
    spec2 = WindowSpec.make(n=(0, 1), c=1)
    assert named_ids("P5", "L(1)", spec2) == [
        "(0,0,1)", "(0,1,1)", "(1,0,1)", "(1,1,1)"
    ]


def test_window_sizes():
    assert len(window("P5", WindowSpec.make(n=(0, 1), c=3))) == 32
    assert len(window("P2", WindowSpec.make(z=1, n=1))) == 12
    assert len(window("P4", WindowSpec.make(x=1, y=1, z=1))) == 8


# ------------------------------------------------------------- named errors


def test_unknown_names():
    spec = WindowSpec.make(n=2)
    with pytest.raises(UnknownName):
        named_ids("P1", "C9", spec)
    with pytest.raises(UnknownName):
        named_ids("P5", "K(1)", WindowSpec.make(n=1, c=2))
    with pytest.raises(UnknownName):
        named_ids("P3", "C", WindowSpec.make(x=2, y=2))


def test_unknown_family_raises_the_records_value_error():
    spec = WindowSpec.make(n=2)
    calls = [
        lambda: window("P9", spec),
        lambda: elem_le("P9", (0, 0), (0, 0)),
        lambda: check_bounded_cofinally_above("P9", "C1", "C2", spec),
        lambda: check_bounded_bicomparable("P9", "C1", "C2", spec),
        lambda: named_subset_payloads("P9", "C1", spec),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert not isinstance(err.value, UnknownName)
        assert str(err.value) == "unknown family 'P9'"


# ------------------------------------------------------------------- claims


def test_claim_registry():
    assert sorted(report.CLAIMS) == [
        "P1.pigeonhole", "P1.spine_partition", "P2.partitions", "P2.shift_reduction", "P3.atomic_antichain",
        "P3.row_bound", "P4.no_domination", "P5.constant_on_rows", "P5.final_counting", "P5.level_structure",
        "P5.min_drop",
    ]
    assert report.CLAIMS["P5.min_drop"] is verify.verify_min_drop
    with pytest.raises(UnknownClaim):
        verify_claim("P1", "no_such_claim", {})
    with pytest.raises(UnknownClaim):
        verify_claim("P6", "pigeonhole", {"m": 1})
    with pytest.raises(ValueError, match="needs parameters"):
        verify_claim("P1", "pigeonhole", {})


def test_a_claim_name_is_registered_once():
    before = dict(report.CLAIMS)
    with pytest.raises(ValueError, match="P5.min_drop is already registered"):
        report.claim("P5.min_drop", B=1)(lambda B: (PASS, None, {}))
    assert report.CLAIMS == before


def test_p1_spine_partition_claim():
    rep = verify_claim("P1", "spine_partition", {"N": 5})
    assert rep.ok and rep.status == "pass"


def test_p1_pigeonhole_claim_exact_sets():
    rep = verify_claim("P1", "pigeonhole", {"m": 2})
    assert rep.ok
    assert rep.detail["demanders"] == ["(0,1)", "(1,1)", "(2,1)"]
    assert rep.detail["hosts"] == ["(0,0)", "(1,0)"]
    assert rep.detail["reserved_for_a"] == "(2,0)"
    assert rep.detail["demander_count"] == 3 and rep.detail["host_count"] == 2


def test_p2_claims():
    assert verify_claim("P2", "partitions", {"B": 4}).ok
    rep = verify_claim("P2", "shift_reduction", {"B": 6})
    assert rep.ok and rep.status == "verified-up-to-bound"


def _p2_partitions_by_filter(B):
    """Reference for P2.partitions: every named set filtered from the
    window payloads one predicate call at a time."""
    everything = window_payloads("P2", WindowSpec.make(z=B, n=B))

    def subsets(names):
        return [list(filter(families._named_predicate("P2", name), everything)) for name in names]

    detail = {}
    named = {"C0/C1": subsets(("C0", "C1")), "D(n)": subsets([f"D({n})" for n in range(B + 1)])}
    for label, sets in named.items():
        combined = [p for s in sets for p in s]
        if len(combined) != len(set(combined)) or set(combined) != set(everything):
            missing = sorted(set(everything) - set(combined))
            extra = [p for p in combined if combined.count(p) > 1]
            return VerificationReport(
                claim="P2.partitions",
                params={"B": B},
                status=FAIL,
                witness=element_id("P2", (missing + extra)[0]),
                detail={"family": label},
            )
        detail[label] = {"sets": len(sets), "covered": len(combined)}
    return VerificationReport(claim="P2.partitions", params={"B": B}, status=PASS, detail=detail)


# Replacement P2 predicates, written with operators that apply to one
# payload and to coordinate columns alike.
_P2_BROKEN_SETS = {
    "intact": {},
    "C1 overlaps C0": {"C1": lambda p: p[1] >= 0},
    "C1 is empty": {"C1": lambda p: p[1] == 2},
    "D(n) overlaps D(n+1)": {
        f"D({n})": (lambda n: lambda p: (p[2] == n) | ((p[2] == n + 1) & (p[0] > 0)))(n) for n in range(5)
    },
    "D(n) misses and overlaps": {
        f"D({n})": (lambda n: lambda p: ((p[2] == n) & (p[0] != 0)) | ((p[2] == 0) & (p[0] == 0)))(n)
        for n in range(5)
    },
}


@pytest.mark.parametrize("case", list(_P2_BROKEN_SETS))
def test_p2_partitions_matches_the_filter_reference(monkeypatch, case):
    real = families._named_predicate
    broken = _P2_BROKEN_SETS[case]
    monkeypatch.setattr(
        families, "_named_predicate", lambda family, name: broken.get(name) or real(family, name)
    )
    for B in range(5):
        want = _p2_partitions_by_filter(B)
        assert verify_claim("P2", "partitions", {"B": B}) == want
    assert want.ok == (case == "intact")


def test_shift_reduction_names_the_first_unreached_point_column_by_column(monkeypatch):
    record = families.RECORDS["P2"]

    def broken(p, q):
        # (1, i, n >= 3) and (2, i, n >= 1) are below nothing at all.
        z, _, n = p
        return record.le_cols(p, q) & ((z != 1) | (n < 3)) & ((z != 2) | (n < 1))

    monkeypatch.setitem(families.RECORDS, "P2", dataclasses.replace(record, le_cols=broken))
    B = 4

    def reached(p):  # the per-column scan, on scalars
        z = p[0] + 1
        return any(broken(p, (z, 0, m)) and not broken((z, 0, m), p) for m in range(B + 1))

    first = next(p for z in range(-B, B) for p in [(z, 0, n) for n in range(B + 1)] if not reached(p))
    assert first == (1, 0, 3)
    rep = verify_claim("P2", "shift_reduction", {"B": B})
    assert rep.status == "fail" and rep.witness == element_id("P2", first)


def test_p3_claims():
    rep = verify_claim("P3", "row_bound", {"y": 3, "B": 10})
    assert rep.ok
    rep = verify_claim("P3", "atomic_antichain", {"n": 0, "m": 1, "B": 4})
    assert rep.ok and rep.status == "verified-up-to-bound"
    rep = verify_claim("P3", "atomic_antichain", {"n": 2, "m": 2, "B": 4})
    assert not rep.ok


def test_p4_no_domination_claim():
    rep = verify_claim("P4", "no_domination", {"n": 1, "m": 2, "B": 4})
    assert rep.ok and rep.status == "verified-up-to-bound"


def test_claim_parameter_messages():
    # Required parameters are the ones without a default, in signature order.
    with pytest.raises(ValueError) as err:
        verify_claim("P4", "no_domination", {})
    assert str(err.value) == "claim P4.no_domination needs parameters ['n', 'm', 'B']"
    with pytest.raises(ValueError) as err:
        verify_claim("P4", "no_domination", {"n": 1, "B": 2})
    assert str(err.value) == "claim P4.no_domination needs parameters ['m']"
    with pytest.raises(ValueError) as err:
        verify_claim("P4", "no_domination", {"n": 1, "m": 2, "B": 2, "slack": 2, "q": 3})
    assert str(err.value) == "claim P4.no_domination takes no parameters ['q']"


@pytest.mark.parametrize(
    "name, args, kwargs, message",
    [
        ("P5.final_counting", (), {}, "needs parameters ['a']"),
        ("P5.final_counting", (), {"b": 1}, "needs parameters ['a']"),
        ("P5.final_counting", (), {"a": 1, "b": 1}, "takes no parameters ['b']"),
        ("P5.min_drop", (), {"B": 12, "v": 2}, "needs parameters ['u']"),
        ("P5.min_drop", (2,), {"B": 12}, "needs parameters ['v']"),
        ("P5.min_drop", (2, 2), {"B": 12, "w": 0}, "takes no parameters ['w']"),
        ("P4.no_domination", (1,), {"B": 2}, "needs parameters ['m']"),
    ],
)
def test_a_direct_call_fails_as_verify_claim_does(name, args, kwargs, message):
    # A check validates its own arguments, positional ones included, so a
    # direct call raises what verify_claim and the command line report.
    with pytest.raises(PreconditionViolated) as err:
        report.CLAIMS[name](*args, **kwargs)
    assert str(err.value) == f"claim {name} {message}"
    if not args:
        with pytest.raises(PreconditionViolated) as via_registry:
            verify_claim(*name.split("."), kwargs)
        assert str(via_registry.value) == str(err.value)


def test_positional_calls_still_run():
    assert verify.verify_min_drop(2, 2, B=12) == verify_claim("P5", "min_drop", {"u": 2, "v": 2, "B": 12})
    assert verify.verify_final_counting(2) == verify_claim("P5", "final_counting", {"a": 2})
    with pytest.raises(TypeError):
        verify.verify_final_counting(2, 3)
    with pytest.raises(TypeError):
        verify.verify_final_counting(2, a=2)


@pytest.mark.parametrize("name", sorted(report.CLAIMS))
def test_every_claim_report_is_named_and_echoes_its_arguments(name):
    # Each argument gets a distinct small value, so the columns of
    # P3.atomic_antichain differ.  The first call passes only the required
    # arguments, in reverse order; the second passes every argument.
    signature = inspect.signature(report.CLAIMS[name])
    parameters = signature.parameters
    values = {k: 1 + i for i, k in enumerate(parameters)}
    required = {k: values[k] for k in reversed(parameters) if parameters[k].default is parameters[k].empty}
    for given in (required, values):
        bound = signature.bind(**given)
        bound.apply_defaults()
        rep = verify_claim(*name.split("."), given)
        assert rep.claim == name
        assert list(rep.params.items()) == list(bound.arguments.items())


@pytest.mark.parametrize("name", sorted(report.CLAIMS))
def test_every_claim_rejects_arguments_past_its_caps(name):
    # Starting from the valid arguments above, each argument in turn is made
    # negative, one past its cap, or 2**60 where it has no cap.
    check = report.CLAIMS[name]
    values = {k: 1 + i for i, k in enumerate(inspect.signature(check).parameters)}
    for key in values:
        cases = {-1: "is not a natural number"}
        if key in check.caps:
            cases[check.caps[key] + 1] = f"exceeds its cap {check.caps[key]}"
        else:
            cases[2**60] = "is not below 2**60"
        for value, message in cases.items():
            with pytest.raises(PreconditionViolated) as err:
                verify_claim(*name.split("."), values | {key: value})
            assert str(err.value) == f"claim {name} parameter {key}={value} {message}"
            assert isinstance(err.value, PosetError) and isinstance(err.value, ValueError)


def test_the_capped_claims_windows_fit_under_the_window_cap():
    # P1.spine_partition and P3.row_bound build their windows with window().
    N, B = report.CLAIMS["P1.spine_partition"].caps["N"], report.CLAIMS["P3.row_bound"].caps["B"]
    assert len(window_payloads("P1", WindowSpec.make(n=N))) == 3005
    assert len(window_payloads("P3", WindowSpec.make(x=B, y=(B, B)))) == 3001
    assert families.WINDOW_CAP >= 3005


def test_coordinates_below_2_to_the_60_stay_in_int64():
    m = 2**60 - 1
    assert families._columns("P3", [(2, m), (m, 2 * 3000)]).dtype == np.int64
    rep = verify_claim("P3", "atomic_antichain", {"n": 2, "m": m, "B": 3})
    assert rep.ok and rep.params == {"n": 2, "m": m, "B": 3}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("far", [0, 2**70])
def test_coordinate_columns_and_payloads_round_trip(family, far):
    # Criterion 12's draws (P1's bot, a and top among them, P2's z down to
    # -12) and every named point; ``far`` moves each coordinate but i away
    # from 0 (downward on P2's z), which at 2**70 makes the columns object.
    fam = families.RECORDS[family]
    shift = [0 if fam.factors[j] == "i" else -far if fam.factors[j] in fam.signed else far for j in fam.order]
    members = acceptance._random_members(family, random.Random(12), 12, 300)
    members += [p for p in fam.points if p is not None]
    members = [tuple(c + d for c, d in zip(p, shift)) if isinstance(p, tuple) else p for p in members]
    a = families._columns(family, members)
    assert a.dtype == (object if far else np.int8)
    back = families._payloads(family, a)
    assert back == members
    assert all(type(c) is int for p in back if isinstance(p, tuple) for c in p)
    if family == "P1":
        assert {"bot", "a", "top"} <= set(members) and any(isinstance(p, tuple) for p in members)
    if family == "P2":
        assert min(z for z, _, _ in members) < 0


# -------------------------------------------------------- bounded cofinality


def test_cofinality_passes_for_interleaved_chains():
    rep = check_bounded_cofinally_above("P1", "C2", "C1", WindowSpec.make(n=4))
    assert rep.ok and rep.status == "verified-up-to-bound"
    rep = check_bounded_cofinally_above("P1", "C1", "C2", WindowSpec.make(n=4))
    assert rep.ok  # both contain the global extremes


def test_cofinality_fails_across_p3_columns():
    spec = WindowSpec.make(x=3, y=3)
    rep = check_bounded_cofinally_above("P3", "C(0)", "C(1)", spec)
    assert not rep.ok
    assert rep.witness == "(1,0)"


def test_cofinality_fails_upward_across_p5_levels():
    spec = WindowSpec.make(n=(0, 1), c=3)
    rep = check_bounded_cofinally_above("P5", "L(1)", "L(0)", spec)
    assert not rep.ok and rep.witness == "(0,0,0)"


def test_bicomparable_direction_detail():
    spec = WindowSpec.make(n=(0, 1), c=3)
    rep = check_bounded_bicomparable("P5", "L(0)", "L(1)", spec)
    assert not rep.ok
    assert rep.detail["direction"] == "L(1) over L(0)"
    rep = check_bounded_bicomparable("P2", "C0", "C1", WindowSpec.make(z=4, n=4))
    assert rep.ok


def test_all_families_listed():
    assert FAMILIES == ("P1", "P2", "P3", "P4", "P5")
