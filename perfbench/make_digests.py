"""Regenerate digests.json: SHA-256 digests of the ``verify all`` and
``sweep --seed S`` JSON (S < gen.SWEEP_SEEDS), with the two masked
``detail.elapsed`` fields of criteria 1 and 5 set to null.

Run from the root of a checkout whose outputs are the reference::

    PYTHONPATH=src python3 perfbench/make_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
from fishbone import cli  # noqa: E402


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    masked = oracles.masked(json.loads(out.getvalue()))
    return hashlib.sha256(json.dumps(masked, indent=2).encode()).hexdigest()


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
                            cwd=HERE.parent).stdout.strip()
    data = {
        "commit": commit,
        "masked": "detail.elapsed of acceptance-1 and acceptance-5 (wall-clock times)",
        "verify_all": digest(["verify", "all"]),
        "sweep": {str(s): digest(["--seed", str(s), "sweep"]) for s in range(gen.SWEEP_SEEDS)},
    }
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
