"""Verification records and machine-readable reports.

A ``VerificationRecord`` captures one identity check: the two sides, the
errors, the tolerance verdict and method metadata.  ``suites`` is the one
module that builds records, through ``make_record``; the modules whose
identities it checks return values, never records.  Reports are JSON: a
single top-level array with one object per record, field names matching
the dataclass, plus an ``elapsed_ms`` key that is always 0.0 (it is not
a record field; no time enters a report, so identical (suite, trials,
seed, tol) inputs produce byte-identical report files).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class VerificationRecord:
    suite: str
    case_id: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    status: str  # pass | fail | skipped
    skip_reason: str | None
    method: str


def make_record(
    suite: str,
    case_id: str,
    params: dict,
    lhs: complex,
    rhs: complex,
    tol: float,
    method: str,
    skip_reason: str | None = None,
) -> VerificationRecord:
    """Build a record; pass/fail from rel_err = abs_err / (1 + max |side|)."""
    if skip_reason is not None:
        return VerificationRecord(
            suite, case_id, dict(params), 0j, 0j, 0.0, 0.0, tol,
            "skipped", skip_reason, method,
        )
    lhs, rhs = complex(lhs), complex(rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / (1.0 + max(abs(lhs), abs(rhs)))
    status = "pass" if rel_err <= tol else "fail"
    return VerificationRecord(
        suite, case_id, dict(params), lhs, rhs, abs_err, rel_err, tol,
        status, None, method,
    )


def _num(v: float) -> float:
    # JSON has no inf/nan; clamp the pathological case rather than emit them
    if math.isnan(v):
        return -1.0
    if math.isinf(v):
        return 1e308 if v > 0 else -1e308
    return float(v)


def record_to_dict(rec: VerificationRecord) -> dict:
    return {
        "suite": rec.suite,
        "case_id": rec.case_id,
        "params": {k: _num(float(v)) for k, v in rec.params.items()},
        "lhs": {"re": _num(rec.lhs.real), "im": _num(rec.lhs.imag)},
        "rhs": {"re": _num(rec.rhs.real), "im": _num(rec.rhs.imag)},
        "abs_err": _num(rec.abs_err),
        "rel_err": _num(rec.rel_err),
        "tol": _num(rec.tol),
        "status": rec.status,
        "skip_reason": rec.skip_reason,
        "elapsed_ms": 0.0,
        "method": rec.method,
    }


def write_report(records: list[VerificationRecord], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([record_to_dict(r) for r in records], fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise DomainError(f"cannot write report to {path}: {exc}") from exc
