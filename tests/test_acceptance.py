"""The twelve acceptance criteria, one test each.

Each test runs the corresponding battery from :mod:`fishbone.acceptance`
and prints a single summary line; the assertion enforces the stated scale
and tolerance of the criterion.
"""

import itertools

import pytest

from fishbone import acceptance


def _check(rep, **expected_detail):
    line = f"{rep.claim}: {rep.status}"
    if rep.detail:
        line += "  " + ", ".join(f"{k}={v}" for k, v in rep.detail.items())
    print(line)
    assert rep.ok, rep.witness
    for key, value in expected_detail.items():
        assert rep.detail[key] == value, (key, rep.detail)


def test_criterion_01_spines_on_200_random_posets_under_5s():
    rep = acceptance.criterion_1(seed=0)
    _check(rep, posets=200)
    assert rep.detail["elapsed"] < 5.0


def test_criterion_02_minmax_equal_brute_force_covers():
    _check(acceptance.criterion_2(seed=0), posets=100)


def test_criterion_03_level_structure_and_interpolation():
    _check(acceptance.criterion_3(seed=0), structure_cases=27, triples=50)


def test_criterion_04_final_counting_exact():
    _check(acceptance.criterion_4(), cases=5)


def test_criterion_05_constant_on_rows_exhaustive_under_60s():
    rep = acceptance.criterion_5()
    _check(rep, assignments={1: 2, 2: 4, 3: 8})
    assert rep.detail["elapsed"] < 60.0


def test_criterion_06_single_level_antichain_cap():
    _check(acceptance.criterion_6(), cases=7)


def test_criterion_07_truth_table_and_expansion_oracle():
    _check(acceptance.criterion_7(), table_rows=7, regression_terms=30)


def test_criterion_08_p1_spine_and_pigeonhole():
    _check(acceptance.criterion_8(), spine_cases=21, pigeonhole_cases=11)


def test_criterion_09_p2_partitions_and_shift():
    _check(acceptance.criterion_9(), partition_cases=6)


def test_criterion_10_p3_rows_p4_cofinality_domination():
    _check(
        acceptance.criterion_10(),
        row_cases=6,
        cofinal_cases=5,
        domination_cases=25,
    )


def test_criterion_11_greedy_drivers():
    rep = acceptance.criterion_11(seed=0)
    _check(rep, ladders=6)
    assert rep.detail["extensions"] == 50


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_ladder_transversals_match_the_product_filter(k):
    P, chains = acceptance._ladder(k)
    full = [
        sel
        for sel in itertools.product(*chains)
        if len(set(sel)) == k and P.is_antichain(sel)
    ]
    assert acceptance._transversal_antichains(P, chains) == full
    assert len(full) == [6, 21, 56, 126, 252][k - 1]


def test_criterion_12_axiom_fuzzing_all_families():
    _check(acceptance.criterion_12(seed=0), families=5, trials_each=1000)
