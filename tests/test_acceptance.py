"""The twelve acceptance criteria, one test each.

Each test runs the corresponding battery from :mod:`fishbone.acceptance`
and prints a single summary line; the assertion enforces the stated scale
and tolerance of the criterion.
"""

import dataclasses
import itertools
import json
import random

import numpy as np
import pytest

from fishbone import acceptance, families, verify
from fishbone.families import FAMILIES, elem_le
from fishbone.partition import ThresholdTooSmall
from fishbone.report import FAIL, PASS, VerificationReport


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


def _criterion_7_witness():
    rep = acceptance.criterion_7()
    assert rep.status == "fail"
    json.dumps(rep.to_dict())
    return rep.witness


def test_criterion_07_reports_a_wrong_truth_table_row(monkeypatch):
    row = acceptance.TRUTH_TABLE["w*+w"]
    monkeypatch.setitem(acceptance.TRUTH_TABLE, "w*+w", row[:5] + (2,) + row[6:])
    assert _criterion_7_witness() == {"term": "w*+w", "got": repr(row)}


def test_criterion_07_reports_a_broken_reverse_law(monkeypatch):
    # With reverse as the identity the laws hold on finite chains and first
    # break on ω, which is wellfounded but not co-wellfounded.
    monkeypatch.setattr(acceptance, "reverse", lambda t: t)
    w = _criterion_7_witness()
    assert list(w) == ["term", "laws"] and w["term"] == "w"
    assert not w["laws"][0] and w["laws"][-1]


def test_criterion_07_reports_an_oracle_disagreement(monkeypatch):
    oracle = acceptance.oracle_predicates

    def flipped(t):
        want = oracle(t)
        return {**want, "embeds_zeta": not want["embeds_zeta"]}

    monkeypatch.setattr(acceptance, "oracle_predicates", flipped)
    w = _criterion_7_witness()
    assert list(w) == ["term", "oracle", "got"] and w["term"] == "0"
    assert w["oracle"]["embeds_zeta"] is True and w["got"]["embeds_zeta"] is False


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


PLANTED = VerificationReport(claim="planted", params={}, status=FAIL, witness="w")
PLANTED_KEYS = ["claim", "params", "status", "witness"]


def _fail_on(claim, real):
    """verify_claim with the given claim's report replaced by PLANTED."""
    return lambda family, name, params: PLANTED if name == claim else real(family, name, params)


def _raise_threshold(*args):
    raise ThresholdTooSmall("x", "planted")


# Each case replaces one call a criterion reads so that one of its checks
# fails: (criterion, module, attribute, replacement given the real one,
# witness keys).  Criteria 3, 7 and 12 have tests of their own.
FAILURE_CASES = {
    "1-not-a-spine": (1, acceptance, "is_spine", lambda real: lambda P, cert: False, ["trial"]),
    "1-wrong-part-count": (1, acceptance, "height_and_max_chain", lambda real: lambda P: (-1, []), ["trial", "parts"]),
    "2-width": (2, acceptance, "_min_cover_size", lambda real: lambda n, good: -1, ["trial", "width"]),
    "2-height": (2, acceptance, "height_and_max_chain", lambda real: lambda P: (-1, []), ["trial", "height"]),
    "2-antichain-size": (
        2, acceptance, "width_and_dilworth", lambda real: lambda P: (lambda w, c, a: (w, c, [*a, None]))(*real(P)),
        ["trial"],
    ),
    "3-interpolation": (3, verify, "interpolate_chain", lambda real: lambda *args: [], ["trial", "triple"]),
    "4": (4, verify, "verify_final_counting", lambda real: lambda a: PLANTED, ["a", "report"]),
    "5": (5, verify, "verify_constant_on_rows", lambda real: lambda ell: PLANTED, PLANTED_KEYS),
    "6": (6, acceptance, "width_and_dilworth", lambda real: lambda P: (0, [], []), ["B", "width"]),
    "8-spine": (8, families, "verify_claim", lambda real: _fail_on("spine_partition", real), ["N", "report"]),
    "8-pigeonhole-counts": (
        8, families, "verify_claim",
        lambda real: lambda family, name, params: (
            VerificationReport("planted", {}, PASS, detail={"demander_count": 0, "host_count": 0})
            if name == "pigeonhole" else real(family, name, params)
        ),
        ["m", "report"],
    ),
    "9-partitions": (9, families, "verify_claim", lambda real: _fail_on("partitions", real), ["B", "report"]),
    "9-bicomparable": (9, families, "check_bounded_bicomparable", lambda real: lambda *a, **k: PLANTED, PLANTED_KEYS),
    "9-shift": (9, families, "verify_claim", lambda real: _fail_on("shift_reduction", real), PLANTED_KEYS),
    "10-rows": (10, families, "verify_claim", lambda real: _fail_on("row_bound", real), ["y", "report"]),
    "10-cofinal": (
        10, families, "check_bounded_cofinally_above", lambda real: lambda *a, **k: PLANTED, ["n", "report"]
    ),
    "10-domination": (10, families, "verify_claim", lambda real: _fail_on("no_domination", real), ["n", "m", "report"]),
    "11-ladder": (11, acceptance, "greedy_antichain_from_chains", lambda real: lambda P, chains: [], ["k", "picks"]),
    "11-attempts": (11, acceptance, "extend_spine_partition", lambda real: _raise_threshold, ["successes", "attempts"]),
    "11-not-a-spine": (11, acceptance, "is_spine", lambda real: lambda P, cert: False, ["attempt"]),
}


@pytest.mark.parametrize("case", FAILURE_CASES)
def test_a_failing_check_gives_a_failing_criterion_report(monkeypatch, case):
    k, module, name, replacement, keys = FAILURE_CASES[case]
    monkeypatch.setattr(module, name, replacement(getattr(module, name)))
    rep = getattr(acceptance, f"criterion_{k}")()
    assert rep.claim == f"acceptance-{k}" and rep.status == "fail"
    assert list(rep.witness) == keys
    json.dumps(rep.to_dict())


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


# Criterion 12 fuzzes the broadcast forms through ``relation_pairs``; these
# tests keep the scalar ``elem_le`` tied to them on the same kind of draws.


@pytest.mark.parametrize("family", FAMILIES)
def test_relation_pairs_match_elem_le_on_criterion_12_draws(family):
    members = acceptance._random_members(family, random.Random(12), 12, 150)
    if family == "P1":
        assert {"bot", "top", "a"} <= set(members)
    left, right = np.divmod(np.arange(len(members) ** 2), len(members))
    got = families.relation_pairs(family, members, left, right)
    want = [elem_le(family, members[i], members[j]) for i, j in zip(left, right)]
    assert got.dtype == bool and got.tolist() == want


def _first_failure(monkeypatch, family, broken):
    """Criterion 12's report with ``family``'s broadcast form replaced by
    ``broken(form, p, q)``, plus that family's drawn members."""
    real = families.RECORDS[family]
    wrong = dataclasses.replace(real, le_cols=lambda p, q: broken(real.le_cols, p, q))
    monkeypatch.setitem(families.RECORDS, family, wrong)
    rep = acceptance.criterion_12(seed=0)
    rng = random.Random(12)
    for earlier in FAMILIES[: FAMILIES.index(family)]:
        acceptance._random_members(earlier, rng, 12, 3000)
    assert rep.status == "fail" and rep.witness["family"] == family
    json.dumps(rep.to_dict())
    return rep, acceptance._random_members(family, rng, 12, 3000)


def test_criterion_12_reports_reflexivity_ahead_of_antisymmetry(monkeypatch):
    # "p != q" breaks reflexivity in every trial, and antisymmetry in every
    # trial whose p and q differ; the report names the first law.
    rep, members = _first_failure(monkeypatch, "P2", lambda form, p, q: ~(form(p, q) & form(q, p)))
    assert members[0] != members[1000]
    assert rep.witness == {"family": "P2", "p": members[0], "law": "reflexive"}


def test_criterion_12_reports_the_first_antisymmetry_failure(monkeypatch):
    # Comparing P3 points by y alone is a preorder: only antisymmetry breaks.
    rep, members = _first_failure(monkeypatch, "P3", lambda form, p, q: p[1] <= q[1])
    t = next(t for t in range(1000) if members[t] != members[1000 + t] and members[t][1] == members[1000 + t][1])
    assert rep.witness == {"family": "P3", "p": members[t], "q": members[1000 + t], "law": "antisymmetric"}


def test_criterion_12_reports_a_broken_transitive_law(monkeypatch):
    # P5's order cut down to pairs at most six levels apart stays reflexive
    # and antisymmetric but is not transitive.
    def cut(form, p, q):
        return form(p, q) & (p[2] - q[2] <= 6)

    rep, _ = _first_failure(monkeypatch, "P5", cut)
    w = rep.witness
    assert list(w) == ["family", "p", "q", "r", "law"] and w["law"] == "transitive"
    assert all(type(c) is int for role in "pqr" for c in w[role])
    le = families._le_p5_cols
    assert cut(le, w["p"], w["q"]) and cut(le, w["q"], w["r"]) and not cut(le, w["p"], w["r"])
