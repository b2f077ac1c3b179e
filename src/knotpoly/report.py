"""Structured pass/fail records shared by the verification surfaces."""

from __future__ import annotations

from dataclasses import dataclass, field

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NUMERIC = "numeric-pass"


class InternalInconsistencyError(RuntimeError):
    """A proved structural property failed to hold; the build is broken."""


@dataclass
class VerificationReport:
    """One checked claim: stable id, status, and free-form details.

    Status "numeric-pass" is reserved for checks that are floating-point
    by design; everything else is exact and reports "pass" or "fail".
    """

    claim_id: str
    subject: str
    status: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status in (STATUS_PASS, STATUS_NUMERIC)

    def as_dict(self) -> dict:
        return {"claim_id": self.claim_id, "subject": self.subject,
                "status": self.status, "details": self.details}


def sort_reports(reports) -> list:
    """Deterministic ordering: claim id, then subject."""
    return sorted(reports, key=lambda r: (r.claim_id, r.subject))


def all_passed(reports) -> bool:
    """True when there is at least one report and every report passes."""
    reports = list(reports)
    return bool(reports) and all(r.passed for r in reports)


def status_of(flag: bool, numeric: bool = False) -> str:
    if not flag:
        return STATUS_FAIL
    return STATUS_NUMERIC if numeric else STATUS_PASS
