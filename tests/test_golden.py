"""Pinned stdout of the two batteries, so that refactors keep it byte-identical.

The digests are SHA-256 of ``verify all`` stdout and of ``--seed 0 sweep``
stdout with the wall-clock ``detail.elapsed`` of acceptance criteria 1 and 5
set to null (the only fields that vary between runs).  Update them only for
an intended change of report contents.
"""

import contextlib
import hashlib
import io
import json

from fishbone import cli

VERIFY_ALL_SHA256 = "495f94599dae2e12186945b7a855f84d5b4179a53a56d67018ff394ece55d5ae"
SWEEP_SEED0_SHA256 = "46ff13d475314408b4b49160d32892f35b9e5011bc8a940bd3b36eca6ad5efa7"


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
    text = stdout_of(["--seed", "0", "sweep"])
    reports = json.loads(text)
    assert text == json.dumps(reports, indent=2) + "\n"
    for rep in reports:
        if rep["claim"] in ("acceptance-1", "acceptance-5"):
            rep["detail"]["elapsed"] = None
    assert sha256(json.dumps(reports, indent=2) + "\n") == SWEEP_SEED0_SHA256
