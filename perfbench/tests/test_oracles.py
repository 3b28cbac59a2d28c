"""Planted faults: each must be reported as a failed operation.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


class SmallCertify(run.Certify):
    """The certify workload on three small posets."""

    def __init__(self):
        rng = random.Random(5)
        self.items = []
        for shape, n in (("dim2", 30), ("layered", 40), ("deep", 40)):
            item = gen.make_poset(shape, n, rng)
            item["closure"] = oracles.closure_from_edges(n, item["pairs"])
            self.items.append(item)
        self.oracle = [oracles.poset_oracle(it["closure"]) for it in self.items]


def _round(workload, name: str) -> list[dict]:
    """One untraced round, run in this process, through JSON as in a run."""
    inp = json.loads(json.dumps(dict(workload.payload(), workload=name, trace=False)))
    tr = worker.Tracer(False)
    ops: list = []
    worker._run_ops(tr, worker.WORKLOADS[name](tr, inp), ops, [])
    return json.loads(json.dumps(ops))


def _failed(workload, ops) -> int:
    checker = run.Checker(workload)
    checker.round(ops, traced=True)
    return checker.failed


@pytest.fixture(scope="module")
def certify():
    w = SmallCertify()
    return w, _round(w, "certify")


def test_correct_certify_round_passes(certify):
    w, ops = certify
    assert len(ops) == 3 and _failed(w, ops) == 0


def _planted(ops, edit):
    ops = copy.deepcopy(ops)
    edit(ops[0]["out"])
    return ops


def test_dropped_closure_pair(certify):
    w, ops = certify
    n = w.items[0]["n"]

    def drop(out):
        leq = run._unbits(out["closure"], n)
        i, j = map(int, np.argwhere(leq & ~np.eye(n, dtype=bool))[0])
        leq[i, j] = False
        out["closure"] = run._bits(leq)

    checker = run.Checker(w)
    checker.round(_planted(ops, drop), traced=True)
    assert checker.failed == 1 and checker.layer_failed["poset"] == 1


def test_extra_cover(certify):
    w, ops = certify
    leq = w.items[0]["closure"]
    covers = w.oracle[0]["covers"]
    extra = next((int(a), int(b)) for a, b in np.argwhere(leq & ~np.eye(len(leq), dtype=bool))
                 if (int(a), int(b)) not in covers)
    assert _failed(w, _planted(ops, lambda out: out["covers"].append(list(extra)))) == 1


def test_part_hit_twice_by_the_chain(certify):
    w, ops = certify

    def twice(out):
        out["chain"].append(out["chain"][-1])

    assert _failed(w, _planted(ops, twice)) == 1


def test_wrong_width(certify):
    w, ops = certify

    def wider(out):
        out["width"] += 1

    assert _failed(w, _planted(ops, wider)) == 1


def test_flipped_term_predicate():
    w = run.Battery(0)
    w.terms = w.terms[:20]
    ops = [o for o in _round(w, "battery") if o["kind"] == "battery.ot"]
    assert len(ops) == 20 and _failed(w, ops) == 0
    report = json.loads(ops[3]["out"]["stdout"])
    report["predicates"]["wellfounded"] = not report["predicates"]["wellfounded"]
    ops[3]["out"]["stdout"] = json.dumps(report, indent=2) + "\n"
    checker = run.Checker(w)
    checker.round(ops, traced=True)
    # The flipped report fails its own oracle, and the reverse law with its
    # pair fails the partner's operation as well.
    assert checker.failed >= 1 and checker.layer_failed["ordertype"] >= 1


def test_masked_fields_only():
    payload = [
        {"claim": "acceptance-1", "detail": {"elapsed": 0.5, "posets": 200}},
        {"claim": "acceptance-2", "detail": {"elapsed": 0.5}},
    ]
    out = oracles.masked(payload)
    assert out[0]["detail"] == {"elapsed": None, "posets": 200}
    assert out[1]["detail"] == {"elapsed": 0.5}


def test_family_oracle_agrees_with_generators():
    # Spot checks straight from the generator definitions.
    assert oracles.family_le("P1", (2, 1), (3, 0)) and not oracles.family_le("P1", (2, 0), (3, 1))
    assert oracles.family_le("P3", (0, 0), (1, 0)) and not oracles.family_le("P3", (1, 0), (0, 1))
    assert oracles.family_le("P2", (0, 0, 3), (0, 1, 3)) and oracles.family_le("P2", (0, 1, 3), (1, 0, 3))
    assert oracles.family_le("P4", (5, 0, 0), (0, 2, 9)) and oracles.family_le("P4", (3, 0, 2), (1, 0, 0))
