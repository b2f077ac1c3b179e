"""Structured pass/fail records shared by the verification surfaces."""

from __future__ import annotations

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NUMERIC = "numeric-pass"


class InternalInconsistencyError(RuntimeError):
    """A proved structural property failed to hold; the build is broken."""


class Record:
    """A plain record whose fields are its class's __slots__: equal only to
    a record of the same class with equal fields, and unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields are set once, by _init, and then only read;
    it hashes as the tuple of its fields."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class VerificationReport(Record):
    """One checked claim: stable id, status, and free-form details.

    Status "numeric-pass" is reserved for checks that are floating-point
    by design; everything else is exact and reports "pass" or "fail".
    """

    __slots__ = ("claim_id", "subject", "status", "details")

    def __init__(self, claim_id: str, subject: str, status: str,
                 details: dict | None = None):
        self.claim_id = claim_id
        self.subject = subject
        self.status = status
        self.details = {} if details is None else details

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
