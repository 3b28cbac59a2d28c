"""Desk checks of the finite sub-lemmas about the fifth example order."""

import dataclasses
import json
import random

import numpy as np
import pytest

from fishbone import acceptance, families, verify
from fishbone.cli import main
from fishbone.families import WindowSpec, elem_le, element_id, named_subset_payloads
from fishbone.poset import FinitePoset
from fishbone.report import FAIL, UP_TO_BOUND
from fishbone.verify import (
    PreconditionViolated,
    _monotone_paths,
    _valid_assignments,
    check_level_structure,
    desk_preset,
    interpolate_chain,
    level_window,
    verify_constant_on_rows,
    verify_final_counting,
    verify_level_structure,
    verify_min_drop,
)

# ------------------------------------------------------------ level windows


def test_level_window_sizes():
    assert len(level_window(0, 3)) == 16
    assert len(level_window(1, 3, levels=2)) == 32


def test_level_structure_report():
    rep = verify_level_structure(0, 4, 8)
    assert rep.ok and rep.status == "verified-up-to-bound"
    assert rep.detail == {"diagonal_size": 5, "lines_checked": 18}


def test_level_structure_other_levels():
    for n in (1, 2):
        assert verify_level_structure(n, 3, 6).ok


def test_level_structure_on_shared_windows_matches_fresh_builds():
    B = 6
    for n in (0, 1):
        shared = check_level_structure(n, range(2 * B + 1), B, level_window(n, B, levels=2))
        fresh = [verify_level_structure(n, s, B) for s in range(2 * B + 1)]
        assert shared == [(r.status, r.witness, r.detail) for r in fresh]


def _level_structure_by_loops(n, s, B, two):
    """Reference for check_level_structure's ``(status, witness, detail)``:
    one scalar walk per row and column through is_chain and
    is_contiguous_chain on the level's induced subposet, on windows of
    payload tuples; witnesses are turned into names with element_id."""

    def fail(reason, witness):
        return FAIL, witness, {"reason": reason}

    def names(points):
        return [element_id("P5", p) for p in points]

    spec2 = WindowSpec.make(n=(n, n + 1), c=B)
    level_n = named_subset_payloads("P5", f"L({n})", spec2)
    hull = two.convex_hull(level_n)
    if hull != frozenset(level_n):
        return fail("level is not convex in the two-level window", sorted(names(hull - set(level_n)))[0])
    diagonal = named_subset_payloads("P5", f"K({n},{s})", spec2)
    if not two.is_antichain(diagonal):
        return fail("diagonal is not an antichain", names(diagonal))
    one = two.induced(level_n)
    lines = 0
    for z0 in range(B + 1):
        row = [(x, z0, n) for x in range(B + 1)]
        col = [(z0, y, n) for y in range(B + 1)]
        for line in (row, col):
            lines += 1
            if not one.is_chain(line):
                return fail("row/column is not a chain", names(line))
            if not one.is_contiguous_chain(line):
                return fail("row/column is not contiguous in its level", names(line))
    return UP_TO_BOUND, None, {"diagonal_size": len(diagonal), "lines_checked": lines}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_level_structure_matches_the_loop_reference_on_real_windows(n):
    for B in range(7):
        two, one = level_window(n, B, levels=2), level_window(n, B)
        assert two.induced(one.elements) == one
        reports = check_level_structure(n, range(2 * B + 1), B, two)
        for s, outcome in enumerate(reports):
            want = _level_structure_by_loops(n, s, B, two)
            assert outcome == want
            assert want[0] == UP_TO_BOUND


def _with_level_order(n, B, pairs):
    """The payloads of ``level_window(n, B, levels=2)`` ordered by the
    closure of ``pairs`` alone: pairs on level n give it another order, and
    the points of level n+1 are left isolated."""
    return FinitePoset.from_generators(level_window(n, B, levels=2).elements, pairs)


def _random_level_order(points, rng, p):
    """Pairs of a random order on ``points``: they follow a hidden
    permutation and each is kept with probability p (p = 1 gives a linear
    order)."""
    perm = list(points)
    rng.shuffle(perm)
    return [(a, b) for i, a in enumerate(perm) for b in perm[i + 1 :] if rng.random() < p]


def _lexicographic_level_order(n, B, major):
    """The covers of the level's payloads in a linear order with coordinate
    ``major`` most significant: its lines along the other coordinate are
    contiguous, the others are not."""
    points = sorted(
        ((x, y, n) for x in range(B + 1) for y in range(B + 1)), key=lambda q: (q[major], q[1 - major])
    )
    return list(zip(points, points[1:]))


def _grid_level_order(n, B, drop=None, extra=()):
    """The covers of P5's order on level n (the product order), with the
    cover ``drop`` left out and the pairs ``extra`` added."""
    points = [(x, y) for x in range(B + 1) for y in range(B + 1)]
    covers = [((x, y), q) for x, y in points for q in ((x + 1, y), (x, y + 1)) if max(q) <= B]
    pairs = [(a, b) for a, b in covers if (a, b) != drop] + list(extra)
    return [((*a, n), (*b, n)) for a, b in pairs]


@pytest.mark.parametrize("seed", range(6))
def test_level_structure_matches_the_loop_reference_on_perturbed_levels(seed):
    """The level's order in ``two`` replaced by other orders: sparse random
    posets (lines that are not chains), random linear orders and two
    lexicographic orders (chains that are not contiguous), denser random
    posets, and the level's own order with one row cover dropped (row z0
    stops being a chain) or with (0, z0+1) <= (1, z0) added (row z0 stops
    being contiguous), so that the first bad line lies further in.  Every
    diagonal matches the reference; the one-point diagonal s = 0 is an
    antichain in every order, so its report is the line check's."""
    expected = {
        "dropped cover": "row/column is not a chain",
        "shortcut": "row/column is not contiguous in its level",
        "not a chain": "row/column is not a chain",
        "not contiguous": "row/column is not contiguous in its level",
        "rows contiguous": "row/column is not contiguous in its level",
        "columns contiguous": "row/column is not contiguous in its level",
    }
    rng = random.Random(seed)
    for n in (0, 1, 2):
        B = rng.randint(2, 5)
        points = list(level_window(n, B).elements)
        z0, x = rng.randint(0, B - 1), rng.randint(0, B - 1)
        orders = {
            "dropped cover": _grid_level_order(n, B, drop=((x, z0), (x + 1, z0))),
            "shortcut": _grid_level_order(n, B, extra=[((0, z0 + 1), (1, z0))]),
            "not a chain": _random_level_order(points, rng, 0.1),
            "not contiguous": _random_level_order(points, rng, 1.0),
            "rows contiguous": _lexicographic_level_order(n, B, major=1),
            "columns contiguous": _lexicographic_level_order(n, B, major=0),
            "dense": _random_level_order(points, rng, 0.95),
        }
        for kind, pairs in orders.items():
            two = _with_level_order(n, B, pairs)
            reports = check_level_structure(n, range(2 * B + 1), B, two)
            assert reports == [_level_structure_by_loops(n, s, B, two) for s in range(2 * B + 1)]
            status, witness, detail = reports[0]
            assert status == FAIL
            assert detail["reason"] == expected.get(kind, detail["reason"])
            if kind in ("dropped cover", "shortcut"):
                assert witness == [element_id("P5", (k, z0, n)) for k in range(B + 1)]
            if kind == "rows contiguous":
                assert witness == [element_id("P5", (0, k, n)) for k in range(B + 1)]
            if kind == "columns contiguous":
                assert witness == [element_id("P5", (k, 0, n)) for k in range(B + 1)]


@pytest.mark.parametrize("seed", range(3))
def test_level_structure_per_diagonal_reports_match_the_loop_reference_on_perturbed_windows(seed):
    """``two`` replaced by linear orders on its payloads: a random one, where
    the level is not convex, and one with the level's payloads first, where
    the level is convex, only the two one-point diagonals are antichains,
    and the level's lines are chains that are not all contiguous, so one
    call mixes diagonal failures with a line failure."""
    rng = random.Random(seed)
    for n in (0, 1):
        B = rng.randint(1, 4)
        level = set(level_window(n, B).elements)
        points = list(level_window(n, B, levels=2).elements)
        rng.shuffle(points)
        level_first = sorted(points, key=lambda e: e not in level)
        cases = {
            tuple(points): {"level is not convex in the two-level window"},
            tuple(level_first): {"row/column is not contiguous in its level", "diagonal is not an antichain"},
        }
        for order, reasons in cases.items():
            two = FinitePoset.from_generators(order, zip(order, order[1:]))
            reports = check_level_structure(n, range(2 * B + 1), B, two)
            want = [_level_structure_by_loops(n, s, B, two) for s in range(2 * B + 1)]
            assert reports == want
            assert {detail.get("reason") for _, _, detail in reports} == reasons


def test_convexity_witness_is_the_first_name_in_string_order():
    """The two-level window as a linear order that puts (10,0,n+1) and
    (2,0,n+1) between two of the level's points: the witness is the first
    extra element by name, and "(10,0,1)" sorts before "(2,0,1)"."""
    n, B = 0, 10
    level = list(level_window(n, B).elements)
    extras = [(10, 0, n + 1), (2, 0, n + 1)]
    rest = [p for p in level_window(n, B, levels=2).elements if p not in set(level) | set(extras)]
    order = [level[0], *extras, *level[1:], *rest]
    two = FinitePoset.from_generators(order, zip(order, order[1:]))
    outcome = check_level_structure(n, [0], B, two)[0]
    assert outcome == _level_structure_by_loops(n, 0, B, two)
    assert outcome == (FAIL, "(10,0,1)", {"reason": "level is not convex in the two-level window"})


def test_a_level_check_builds_only_its_two_level_window(monkeypatch):
    """verify_level_structure builds one poset, its two-level window, and
    criterion 3 one per level; all three construction routes end in _set."""
    built = []
    real = FinitePoset._set

    def counted(self, *matrices):
        built.append(len(self.elements))
        real(self, *matrices)

    monkeypatch.setattr(FinitePoset, "_set", counted)
    assert verify_level_structure(1, 4, 8).ok
    assert built == [2 * 9**2]
    built.clear()
    assert acceptance.criterion_3().ok
    assert built == [2 * 11**2] * 3


def _count_element_ids(monkeypatch):
    """Replace element_id in verify and in families by one counting
    wrapper; returns the list of payloads it was called on."""
    calls = []
    real = families.element_id

    def counted(family, payload):
        calls.append(payload)
        return real(family, payload)

    monkeypatch.setattr(verify, "element_id", counted)
    monkeypatch.setattr(families, "element_id", counted)
    return calls


def test_passing_desk_checks_build_no_element_names(monkeypatch):
    """Names are built only for failure witnesses: a passing ``verify all``
    and criterion 3 build none."""
    calls = _count_element_ids(monkeypatch)
    assert all(r.ok for r in desk_preset())
    for n in (0, 1, 2):
        outcomes = check_level_structure(n, range(9), 10, level_window(n, 10, levels=2))
        assert all(status != FAIL for status, _, _ in outcomes)
    assert acceptance.criterion_3().ok
    assert calls == []


def test_criterion_3_reports_the_first_failing_diagonal(monkeypatch):
    """Criterion 3 reads the outcomes of check_level_structure and builds
    the report of a failing diagonal through verify_level_structure."""
    real = check_level_structure

    def broken(n, diagonals, B, two):
        outcomes = real(n, diagonals, B, two)
        return [(FAIL, "w", {"reason": "r"}) if (n, s) == (1, 5) else o for s, o in zip(diagonals, outcomes)]

    monkeypatch.setattr(verify, "check_level_structure", broken)
    rep = acceptance.criterion_3()
    assert not rep.ok
    assert rep.witness == {
        "n": 1,
        "s": 5,
        "report": {
            "claim": "P5.level_structure",
            "params": {"n": 1, "s": 5, "B": 10},
            "status": FAIL,
            "witness": "w",
            "detail": {"reason": "r"},
        },
    }


def test_a_failing_line_names_only_its_witness(monkeypatch):
    """With one row cover dropped, the report names the B+1 points of that
    row and nothing else."""
    n, B, z0 = 1, 5, 2
    two = _with_level_order(n, B, _grid_level_order(n, B, drop=((3, z0), (4, z0))))
    calls = _count_element_ids(monkeypatch)
    _, witness, detail = check_level_structure(n, [4], B, two)[0]
    assert detail == {"reason": "row/column is not a chain"}
    assert calls == [(x, z0, n) for x in range(B + 1)]
    assert witness == [f"({x},{z0},{n})" for x in range(B + 1)]


def test_level_structure_precondition():
    with pytest.raises(PreconditionViolated):
        verify_level_structure(0, 13, 6)


# ------------------------------------------------------------ interpolation


def test_interpolate_chain_staircase():
    chain = interpolate_chain(0, (0, 0), (1, 1), (2, 2))
    assert chain == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0)]
    assert len(chain) == 5
    for a, b in zip(chain, chain[1:]):
        assert elem_le("P5", a, b)


def test_interpolate_chain_degenerate():
    assert interpolate_chain(2, (1, 1), (1, 1), (1, 1)) == [(1, 1, 2)]


def test_interpolate_chain_precondition():
    with pytest.raises(PreconditionViolated):
        interpolate_chain(0, (2, 0), (1, 1), (3, 3))


# ------------------------------------------------------- minimum-drop lemma


def test_min_drop_qualifying_counts():
    rep = verify_min_drop(2, 2, 12)
    assert rep.ok and rep.detail == {"qualifying": 18}
    rep = verify_min_drop(1, 3, 15)
    assert rep.ok and rep.detail == {"qualifying": 14}


def test_min_drop_count_matches_direct_enumeration():
    # Qualifying points must use the min clause: min(x,y)+1 <= min(u,v),
    # with x+y beyond twice the target sum.
    u = v = 2
    B = 12
    direct = sum(
        1
        for x in range(B + 1)
        for y in range(B + 1)
        if x + y > 2 * (u + v) and min(x, y) + 1 <= min(u, v)
    )
    assert direct == 18


def test_min_drop_names_the_first_qualifying_point_that_breaks_the_drop(monkeypatch, capsys):
    # Under an all-true order every grid point lies below (0, 0, 0); the first
    # with x + y > 0 in grid order is (0, 1, 1), and min(0, 1) + 1 > 0.
    everything = dataclasses.replace(
        families.RECORDS["P5"], le_cols=lambda p, q: np.ones(np.broadcast_shapes(p[0].shape, q[0].shape), dtype=bool)
    )
    monkeypatch.setitem(families.RECORDS, "P5", everything)
    code = main(["family", "check", "P5", "--claim", "min_drop", "--params", "u=0,v=0,B=2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == FAIL and out["witness"] == "(0,1,1)"


# ------------------------------------------------ constant-on-rows rectangle


def test_constant_on_rows_counts():
    for ell, count in {1: 2, 2: 4, 3: 8}.items():
        rep = verify_constant_on_rows(ell)
        assert rep.ok and rep.status == "pass"
        assert rep.detail == {"instances": count, "assignments": count}


def _assignment_chain_bijections(ell):
    """Supporting fact: on every maximal chain of the rectangle, every valid
    labelling is a bijection onto {0..ell} (ell+1 pairwise comparable cells
    with antichain classes must take distinct labels)."""
    for u in range(ell + 1):
        v = ell - u
        for path in _monotone_paths(u, v):
            for f in _valid_assignments(u, v, path, ell):
                for chain in _monotone_paths(u, v):
                    if sorted(f[c] for c in chain) != list(range(ell + 1)):
                        return False
    return True


def test_each_instance_forces_exactly_one_assignment():
    for ell in (1, 2, 3):
        assert _assignment_chain_bijections(ell)


def test_constant_on_rows_reports_a_wrong_label_below_the_top_diagonal(monkeypatch):
    # The first instance of ell = 2 is the column from (0,0) to (0,2); its
    # middle cell lies on diagonal 1 but is labelled 2.
    labelling = {(0, 0): 0, (0, 1): 2, (0, 2): 2}
    monkeypatch.setattr(verify, "_valid_assignments", lambda u, v, path, ell: iter([labelling]))
    rep = verify_constant_on_rows(2)
    assert rep.status == FAIL
    assert rep.witness == {"corner": [0, 2], "path": [[0, 0], [0, 1], [0, 2]], "cell": [0, 1], "label": 2}
    json.dumps(rep.to_dict())


def test_constant_on_rows_precondition():
    with pytest.raises(PreconditionViolated):
        verify_constant_on_rows(0)


# ----------------------------------------------------------- final counting


def test_final_counting_gap():
    for a in (1, 2, 3):
        rep = verify_final_counting(a)
        assert rep.ok
        assert rep.detail["F_size"] == 2 * a + 1
        assert rep.detail["T_height"] == 2 * a
        assert rep.detail["gap"] == 1


@pytest.mark.parametrize("a", range(1, 7))
def test_final_counting_chain_lies_below_the_whole_cut(a):
    """The docstring's argument, by plain arithmetic for coordinates up to
    6a (the report checks up to 3a): every point of F meets P5's sum clause
    x + y <= 2(u + v) against every cut point (u, v) with u + v >= 2a."""
    F = [(a + t, a) for t in range(2 * a + 1)]
    cut = [(u, v) for u in range(6 * a + 1) for v in range(6 * a + 1) if u + v >= 2 * a]
    assert max(x + y for x, y in F) == 4 * a <= 2 * min(u + v for u, v in cut)
    assert all(x + y <= 2 * (u + v) for x, y in F for u, v in cut)
    assert all(elem_le("P5", (x, y, 1), (u, v, 0)) for x, y in F for u, v in cut)
    assert verify_final_counting(a).ok


def test_final_counting_precondition():
    with pytest.raises(PreconditionViolated):
        verify_final_counting(0)


# ------------------------------------------------------------------ presets


def test_desk_preset_all_ok():
    reports = desk_preset()
    assert len(reports) == 11
    assert all(r.ok for r in reports)
    assert [r.claim for r in reports] == (
        ["P5.level_structure"] * 3
        + ["P5.min_drop"] * 2
        + ["P5.constant_on_rows"] * 3
        + ["P5.final_counting"] * 3
    )
