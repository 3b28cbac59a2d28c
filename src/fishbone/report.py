"""Structured pass/fail reports shared by the checkers and the CLI."""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any

from .poset import PosetError

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


class PreconditionViolated(PosetError, ValueError):
    """A check was called on arguments outside the inputs it decides."""


# Claim parameters stay below this, so that every coordinate a claim builds
# fits the int64 coordinate columns of ``families.relation_block``.
PARAM_LIMIT = 2**60

# Every check decorated with :func:`claim`, by its report name.
CLAIMS: dict[str, Any] = {}


def claim(name: str, **caps: int):
    """Decorate a check that returns ``(status, witness, detail)`` and
    register it in :data:`CLAIMS` as ``name``, which must be new.

    The decorated check raises :class:`PreconditionViolated` when a required
    argument is missing or a keyword unknown, and unless each argument
    (defaults included) is a natural number below :data:`PARAM_LIMIT` and
    each capped one is at most its cap; it then returns the
    :class:`VerificationReport` named ``name`` whose params are the
    arguments in signature order.  Each cap is about a second of work,
    timed in the check's docstring; the decorated check exposes them as
    ``.caps``.
    """

    def decorate(check):
        if name in CLAIMS:
            raise ValueError(f"claim {name} is already registered")
        signature = inspect.signature(check)
        parameters = signature.parameters

        @functools.wraps(check)
        def run(*args, **kwargs):
            given = dict(zip(parameters, args)) | kwargs
            missing = [k for k, p in parameters.items() if p.default is p.empty and k not in given]
            if missing:
                raise PreconditionViolated(f"claim {name} needs parameters {missing}")
            unknown = [k for k in kwargs if k not in parameters]
            if unknown:
                raise PreconditionViolated(f"claim {name} takes no parameters {unknown}")
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            params = dict(bound.arguments)
            for key, value in params.items():
                if not isinstance(value, int) or value < 0:
                    raise PreconditionViolated(f"claim {name} parameter {key}={value!r} is not a natural number")
                if key in caps and value > caps[key]:
                    raise PreconditionViolated(f"claim {name} parameter {key}={value} exceeds its cap {caps[key]}")
                if value >= PARAM_LIMIT:
                    raise PreconditionViolated(f"claim {name} parameter {key}={value} is not below 2**60")
            return VerificationReport(name, params, *check(**params))

        run.caps = caps
        CLAIMS[name] = run
        return run

    return decorate
