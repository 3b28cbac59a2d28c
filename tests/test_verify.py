"""Desk checks of the finite sub-lemmas about the fifth example order."""

import pytest

from fishbone.families import elem_le
from fishbone.verify import (
    PreconditionViolated,
    assignment_chain_bijections,
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
        two, one = level_window(n, B, levels=2), level_window(n, B)
        for s in range(2 * B + 1):
            shared = check_level_structure(n, s, B, two, one)
            assert shared.to_dict() == verify_level_structure(n, s, B).to_dict()


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


# ------------------------------------------------ constant-on-rows rectangle


def test_constant_on_rows_counts():
    for ell, count in {1: 2, 2: 4, 3: 8}.items():
        rep = verify_constant_on_rows(ell)
        assert rep.ok and rep.status == "pass"
        assert rep.detail == {"instances": count, "assignments": count}


def test_each_instance_forces_exactly_one_assignment():
    for ell in (1, 2, 3):
        assert assignment_chain_bijections(ell)


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
