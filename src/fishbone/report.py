"""Structured pass/fail reports shared by the checkers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

PASS = "pass"
FAIL = "fail"
UP_TO_BOUND = "verified-up-to-bound"

_STATUSES = (PASS, FAIL, UP_TO_BOUND)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check.

    ``status`` is ``"pass"`` for claims that are complete finite facts,
    ``"verified-up-to-bound"`` for finite samplings of infinite claims, and
    ``"fail"`` otherwise.  A failing report always carries a ``witness``
    describing the offending data.
    """

    claim: str
    params: dict[str, Any]
    status: str
    witness: Any = None
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == FAIL and self.witness is None:
            raise ValueError("failing report requires a witness")

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "claim": self.claim,
            "params": self.params,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out
