"""Pinned stdout of the two batteries, so that refactors keep it byte-identical.

The digests are SHA-256 of ``verify all`` stdout, of ``--seed S sweep``
stdout for S = 0..7 with the wall-clock ``detail.elapsed`` of acceptance
criteria 1 and 5 set to null (the only fields that vary between runs), and
of the JSON of a grid of family claim, cofinality, counting and min-drop
reports, and of a second grid of the three family claims the first leaves
out.  Update them only for an intended change of report contents.
"""

import contextlib
import hashlib
import io
import json

from fishbone import cli, families, verify
from fishbone.families import WindowSpec

VERIFY_ALL_SHA256 = "495f94599dae2e12186945b7a855f84d5b4179a53a56d67018ff394ece55d5ae"
# The seeds the benchmark runs.  They give three distinct outputs: of the
# unmasked fields, only criterion 11's attempt count depends on the seed.
SWEEP_SHA256 = {
    0: "46ff13d475314408b4b49160d32892f35b9e5011bc8a940bd3b36eca6ad5efa7",
    1: "0b0e9fb536138c29fc1e59386044daec9197c3cc8a8961ad599fdef9786863fb",
    2: "f5eb84e02568169d44b2aa5d5ca8526c49c815bdf6c0051bf0206d9698e9f91a",
    3: "46ff13d475314408b4b49160d32892f35b9e5011bc8a940bd3b36eca6ad5efa7",
    4: "46ff13d475314408b4b49160d32892f35b9e5011bc8a940bd3b36eca6ad5efa7",
    5: "f5eb84e02568169d44b2aa5d5ca8526c49c815bdf6c0051bf0206d9698e9f91a",
    6: "0b0e9fb536138c29fc1e59386044daec9197c3cc8a8961ad599fdef9786863fb",
    7: "46ff13d475314408b4b49160d32892f35b9e5011bc8a940bd3b36eca6ad5efa7",
}
REPORT_GRID_SHA256 = "d6e761c89e43ed8fdce24341f3624bcc6be525fce59f4706e7ccf93948e24553"
CLAIM_GRID_SHA256 = "6c7ea5dc0d1aa5829ac26059309edcb87b143163627a8373f81de5d096d36947"


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(argv) == 0
    return out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_stdout_is_pinned():
    assert sha256(stdout_of(["verify", "all"])) == VERIFY_ALL_SHA256


def test_sweep_stdout_is_pinned():
    for seed, digest in SWEEP_SHA256.items():
        text = stdout_of(["--seed", str(seed), "sweep"])
        reports = json.loads(text)
        assert text == json.dumps(reports, indent=2) + "\n"
        for rep in reports:
            if rep["claim"] in ("acceptance-1", "acceptance-5"):
                rep["detail"]["elapsed"] = None
        assert sha256(json.dumps(reports, indent=2) + "\n") == digest, seed


# Named sets per family, compared in both directions.  More than a quarter
# of the grid's reports fail, so the digest pins failing witnesses too.
COFINALITY_GRID = [
    ("P1", ("C1", "C2"), WindowSpec.make(n=3)),
    ("P2", ("C0", "C1", "D(0)", "D(2)"), WindowSpec.make(z=2, n=3)),
    ("P3", ("C(0)", "C(1)", "C(3)"), WindowSpec.make(x=4, y=4)),
    ("P4", ("E(0)", "E(1)", "E(2)"), WindowSpec.make(x=3, y=3, z=3)),
    ("P5", ("L(0)", "L(1)", "K(0,2)", "K(1,3)"), WindowSpec.make(n=(0, 2), c=3)),
]


def report_grid() -> list[dict]:
    reports = [families.verify_claim("P1", "pigeonhole", {"m": m}) for m in range(5)]
    reports += [
        families.verify_claim("P3", "atomic_antichain", {"n": n, "m": m, "B": B})
        for n in range(4) for m in range(4) for B in range(4)
    ]
    reports += [
        families.verify_claim("P4", "no_domination", {"n": n, "m": m, "B": B, "slack": slack})
        for n in range(3) for m in range(3) for B in range(3) for slack in range(3)
    ]
    reports += [families.verify_claim("P2", "shift_reduction", {"B": B}) for B in range(5)]
    reports += [
        families.check_bounded_cofinally_above(family, upper, lower, spec, slack)
        for family, names, spec in COFINALITY_GRID
        for upper in names for lower in names for slack in range(4)
    ]
    reports += [verify.verify_final_counting(a) for a in range(1, 5)]
    reports += [verify.verify_min_drop(u, v, B) for u in range(4) for v in range(4) for B in (0, 3, 8)]
    return [r.to_dict() for r in reports]


def test_report_grid_is_pinned():
    reports = report_grid()
    assert sum(r["status"] == "fail" for r in reports) == 120
    assert sha256(json.dumps(reports, indent=2) + "\n") == REPORT_GRID_SHA256


def claim_grid() -> list[dict]:
    """The registered claims that :func:`report_grid` does not run."""
    reports = [families.verify_claim("P1", "spine_partition", {"N": N}) for N in range(5)]
    reports += [families.verify_claim("P2", "partitions", {"B": B}) for B in range(1, 5)]
    reports += [
        families.verify_claim("P3", "row_bound", {"y": y, "B": B}) for y in range(4) for B in range(4)
    ]
    return [r.to_dict() for r in reports]


def test_claim_grid_is_pinned():
    reports = claim_grid()
    assert len(reports) == 25 and all(r["status"] == "pass" for r in reports)
    assert sha256(json.dumps(reports, indent=2) + "\n") == CLAIM_GRID_SHA256
