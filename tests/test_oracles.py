"""One independent oracle per report-producing check.

``ORACLES`` maps every check in ``report.CLAIMS``, plus the two bounded
checks that are not decorated (``cofinally-above`` and ``bicomparable``),
to the test that compares it with a formulation it does not share code
with: scalar ``elem_le`` loops, plain enumeration, or the parent
formulation kept as an oracle.  A newly registered check fails
:func:`test_every_check_has_an_oracle_test` until it gets an entry, and an
entry fails it when its test is renamed or deleted.  The oracle tests that
no other module holds are below the table.
"""

import ast
import dataclasses
import itertools
from pathlib import Path

import pytest

from fishbone import families, verify
from fishbone.families import WindowSpec, elem_le, element_id, verify_claim, window_payloads
from fishbone.poset import FinitePoset
from fishbone.report import CLAIMS, FAIL, PASS, UP_TO_BOUND, VerificationReport

TESTS = Path(__file__).resolve().parent

ORACLES = {
    "P1.spine_partition": "test_oracles::test_p1_spine_partition_matches_a_pairwise_spine_check",
    "P1.pigeonhole": "test_kernels::test_claims_on_columns_match_their_payload_formulations",
    "P2.partitions": "test_families::test_p2_partitions_matches_the_filter_reference",
    "P2.shift_reduction": "test_kernels::test_shift_reduction_matches_its_two_form_scan_on_a_broken_form",
    "P3.row_bound": "test_oracles::test_p3_row_bound_matches_a_brute_force_antichain",
    "P3.atomic_antichain": "test_kernels::test_claims_on_columns_match_their_payload_formulations",
    "P4.no_domination": "test_oracles::test_p4_no_domination_matches_a_scalar_scan",
    "P5.level_structure": "test_verify::test_level_structure_matches_the_loop_reference_on_real_windows",
    "P5.min_drop": "test_oracles::test_min_drop_matches_a_scalar_enumeration",
    "P5.constant_on_rows": "test_oracles::test_constant_on_rows_matches_every_labelling_of_the_rectangle",
    "P5.final_counting": "test_oracles::test_final_counting_matches_scalar_comparisons_and_a_longest_chain_scan",
    "cofinally-above": "test_kernels::test_named_sets_and_cofinality_match_the_payload_filters",
    "bicomparable": "test_kernels::test_bicomparability_matches_both_payload_filter_scans",
}


def _test_functions(module: str) -> set[str]:
    tree = ast.parse((TESTS / f"{module}.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_every_check_has_an_oracle_test():
    checks = set(CLAIMS) | {"cofinally-above", "bicomparable"}
    assert sorted(checks - set(ORACLES)) == [], "add an oracle test for each new check to ORACLES"
    assert sorted(set(ORACLES) - checks) == [], "ORACLES names a check that no longer exists"
    missing = []
    for check, entry in ORACLES.items():
        module, _, name = entry.partition("::")
        if not (TESTS / f"{module}.py").is_file() or name not in _test_functions(module):
            missing.append(f"{check}: {entry}")
    assert not missing, f"these oracle tests do not exist: {missing}"


# ------------------------------------------------------------------ P1


def _spine_verdict_by_pairs(le, elements, chain, parts):
    """The spine conditions one pair at a time under the comparison ``le``:
    the chain rises strictly, every part is an antichain, the parts cover
    ``elements`` once each, and every part meets the chain once."""
    if not all(le(a, b) and a != b for a, b in zip(chain, chain[1:])):
        return FAIL
    if any(le(a, b) or le(b, a) for part in parts for a, b in itertools.combinations(part, 2)):
        return FAIL
    members = [x for part in parts for x in part]
    if sorted(members, key=str) != sorted(elements, key=str):
        return FAIL
    on_chain = set(chain)
    return PASS if all(len(on_chain.intersection(part)) == 1 for part in parts) else FAIL


def _p1_certificate(N):
    """The claim's certificate as its docstring states it."""
    chain = ["bot", *(f"({n},1)" for n in range(N + 1)), "a", "top"]
    parts = [["bot"], *([f"({n},0)", f"({n},1)"] for n in range(N + 1)), ["a"], ["top"]]
    return chain, parts


def test_p1_spine_partition_matches_a_pairwise_spine_check(monkeypatch):
    for N in range(9):
        payload = {element_id("P1", p): p for p in window_payloads("P1", WindowSpec.make(n=N))}
        chain, parts = _p1_certificate(N)
        want = _spine_verdict_by_pairs(
            lambda x, y: elem_le("P1", payload[x], payload[y]), list(payload), chain, parts
        )
        rep = verify_claim("P1", "spine_partition", {"N": N})
        assert want == PASS and rep.status == want
        assert rep.detail == {"chain_size": len(chain), "parts": len(parts)}
    # A window with (2,0) below (2,1) as well: the pair part is no longer an
    # antichain, and both sides must see it.
    real = families.window

    def joined(family, spec):
        P = real(family, spec)
        return FinitePoset.from_generators(P.elements, [*((u, v) for v, u in P.covers()), ("(2,0)", "(2,1)")])

    monkeypatch.setattr(families, "window", joined)
    for N in range(2, 5):
        chain, parts = _p1_certificate(N)
        P = joined("P1", WindowSpec.make(n=N))
        want = _spine_verdict_by_pairs(P.leq, P.elements, chain, parts)
        rep = verify_claim("P1", "spine_partition", {"N": N})
        assert want == FAIL and rep.status == want and rep.witness == ["(2,0)", "(2,1)"]


# ------------------------------------------------------------------ P3


def _width_by_subsets(points, le):
    """The size of the largest subset of ``points`` with no two comparable."""
    for k in range(len(points), 0, -1):
        for subset in itertools.combinations(points, k):
            if not any(le(p, q) or le(q, p) for p, q in itertools.combinations(subset, 2)):
                return k
    return 0


def test_p3_row_bound_matches_a_brute_force_antichain():
    for y in range(5):
        for B in range(7):
            width = _width_by_subsets([(x, y) for x in range(B + 1)], lambda p, q: elem_le("P3", p, q))
            rep = verify_claim("P3", "row_bound", {"y": y, "B": B})
            assert rep.detail == {"width": width, "expected": min(y + 1, B + 1)}
            assert rep.status == (PASS if width == min(y + 1, B + 1) else FAIL)


# ------------------------------------------------------------------ P4


def _no_domination_by_scan(n, m, B, slack, le):
    """The first candidate (n, y, z), y and z <= B in that order, lying above
    every target (m, v, w) with v, w <= B + slack."""
    targets = [(m, v, w) for v in range(B + slack + 1) for w in range(B + slack + 1)]
    for y, z in itertools.product(range(B + 1), repeat=2):
        if all(le(t, (n, y, z)) for t in targets):
            return FAIL, element_id("P4", (n, y, z)), {}
    return UP_TO_BOUND, None, {"candidates": (B + 1) ** 2, "targets": len(targets)}


@pytest.mark.parametrize("planted", [None, (1, 2)])
def test_p4_no_domination_matches_a_scalar_scan(monkeypatch, planted):
    # ``planted`` (y, z) puts one candidate of each column above everything,
    # in the broadcast form and the scalar oracle alike.
    def extra(p, q):
        return (q[1] == planted[0]) & (q[2] == planted[1]) if planted else False

    real = families.RECORDS["P4"]
    planted_form = dataclasses.replace(real, le_cols=lambda p, q: real.le_cols(p, q) | extra(p, q))
    monkeypatch.setitem(families.RECORDS, "P4", planted_form)
    statuses, planted_found = set(), False
    for n, m, B, slack in itertools.product(range(3), range(3), range(4), range(3)):
        want = _no_domination_by_scan(n, m, B, slack, lambda p, q: elem_le("P4", p, q) or bool(extra(p, q)))
        params = {"n": n, "m": m, "B": B, "slack": slack}
        assert verify_claim("P4", "no_domination", params) == VerificationReport("P4.no_domination", params, *want)
        statuses.add(want[0])
        planted_found |= planted is not None and want[1] == element_id("P4", (n, *planted))
    # Small slacks let a candidate dominate, so both outcomes occur.
    assert statuses == {FAIL, UP_TO_BOUND}
    assert planted_found == (planted is not None)


# ------------------------------------------------------------------ P5


def test_min_drop_matches_a_scalar_enumeration():
    for u, v, B in itertools.product(range(4), range(4), (0, 3, 9, 14)):
        qualifying = [
            (x, y)
            for x in range(B + 1)
            for y in range(B + 1)
            if elem_le("P5", (x, y, 1), (u, v, 0)) and x + y > 2 * (u + v)
        ]
        broken = [(x, y) for x, y in qualifying if min(x, y) + 1 > min(u, v)]
        if broken:
            want = (FAIL, element_id("P5", (*broken[0], 1)), {})
        else:
            want = (UP_TO_BOUND, None, {"qualifying": len(qualifying)})
        params = {"u": u, "v": v, "B": B}
        assert verify.verify_min_drop(u, v, B) == VerificationReport("P5.min_drop", params, *want)


def _staircases(u, v):
    """Every right/up path (0,0) -> (u,v), as the set of steps that go up."""
    for ups in itertools.combinations(range(u + v), v):
        point, path = (0, 0), [(0, 0)]
        for k in range(u + v):
            point = (point[0], point[1] + 1) if k in ups else (point[0] + 1, point[1])
            path.append(point)
        yield path


def test_constant_on_rows_matches_every_labelling_of_the_rectangle():
    """Every map from the rectangle to {0..ell}, filtered by the two
    conditions; the check's own staircase and backtracking code is not
    used."""
    for ell in (1, 2, 3):
        instances = assignments = 0
        bad = None
        for u in range(ell + 1):
            v = ell - u
            cells = [(i, j) for i in range(u + 1) for j in range(v + 1)]
            pairs = [(a, b) for a, b in itertools.combinations(cells, 2) if a[0] <= b[0] and a[1] <= b[1]]
            valid = [
                f
                for f in (dict(zip(cells, labels)) for labels in itertools.product(range(ell + 1), repeat=len(cells)))
                if all(f[a] != f[b] for a, b in pairs)
            ]
            for path in sorted(_staircases(u, v)):
                instances += 1
                for f in valid:
                    if all(f[p] == k for k, p in enumerate(path)):
                        assignments += 1
                        if any(i + j < ell and f[(i, j)] != i + j for i, j in cells):
                            bad = bad or (u, v)
        rep = verify.verify_constant_on_rows(ell)
        assert rep.status == (FAIL if bad else PASS)
        assert rep.detail == {"instances": instances, "assignments": assignments}
        assert (instances, assignments) == (2**ell, 2**ell)


def _height_by_relaxation(points, le):
    """Longest chain of ``points`` under the strict order of ``le``: the
    chain size ending at each point, relaxed once per point."""
    size = {p: 1 for p in points}
    for _ in points:
        for p, q in itertools.permutations(points, 2):
            if le(p, q):
                size[q] = max(size[q], size[p] + 1)
    return max(size.values())


def test_final_counting_matches_scalar_comparisons_and_a_longest_chain_scan():
    for a in (1, 2, 3):
        F = [(a + t, a, 1) for t in range(2 * a + 1)]
        cut = [(u, v, 0) for u in range(3 * a + 1) for v in range(3 * a + 1) if u + v >= 2 * a]
        T = [(u, v, 0) for u in range(2 * a) for v in range(2 * a) if u + v <= 2 * a - 1]
        assert all(elem_le("P5", p, q) or elem_le("P5", q, p) for p, q in itertools.combinations(F, 2))
        assert all(elem_le("P5", p, c) for p in F for c in cut)
        h = _height_by_relaxation(T, lambda p, q: elem_le("P5", p, q))
        rep = verify.verify_final_counting(a)
        assert rep.status == UP_TO_BOUND and rep.detail == {"F_size": len(F), "T_height": h, "gap": len(F) - h}
        assert h == 2 * a
