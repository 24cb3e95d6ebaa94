"""Structured pass/fail records shared by every verification routine.

A report carries one entry per checked identity instance plus the list
of boundary rows a truncation forced us to skip, so "everything passed"
is always distinguishable from "nothing was checked".
"""

from __future__ import annotations

from .laurent import LaurentPoly


class Check:
    """Outcome of one identity instance (one index, row, or monomial)."""

    __slots__ = ("label", "ok", "detail")  # thousands per run: no __dict__ each

    def __init__(self, label: str, ok: bool, detail: str = ""):
        self.label = label
        self.ok = ok
        self.detail = detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.ok, self.detail) == (other.label, other.ok, other.detail)

    def __repr__(self) -> str:
        return f"Check(label={self.label!r}, ok={self.ok!r}, detail={self.detail!r})"

    def to_dict(self) -> dict:
        d: dict = {"label": self.label, "status": "pass" if self.ok else "fail"}
        if self.detail:
            d["detail"] = self.detail
        return d


class VerificationReport:
    """The checks of one identity, with the params it was checked at and
    the rows a truncation skipped; ``==`` compares all five fields."""

    def __init__(self, identity: str, relation: str, params: dict | None = None,
                 checks: list[Check] | None = None, skipped: list[str] | None = None):
        self.identity = identity
        self.relation = relation
        self.params = {} if params is None else params
        self.checks = [] if checks is None else checks
        self.skipped = [] if skipped is None else skipped

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(label, ok, detail))

    def residual(self, label: str, res: LaurentPoly) -> None:
        """Pass when res is the zero Laurent polynomial; a failure keeps
        its canonical text, which is rendered only then."""
        self.add(label, res.is_zero, "" if res.is_zero else res.text())

    def skip(self, label: str) -> None:
        self.skipped.append(label)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "relation": self.relation,
            "params": {k: str(v) for k, v in self.params.items()},
            "indices_checked": len(self.checks),
            "status": "pass" if self.ok else "fail",
            "failures": [c.to_dict() for c in self.failures],
            "skipped": list(self.skipped),
        }

    def summary_line(self) -> str:
        word = "PASS" if self.ok else "FAIL"
        line = f"{word} {self.identity} ({len(self.checks)} checks"
        if self.skipped:
            line += f", {len(self.skipped)} skipped"
        line += ")"
        if not self.ok:
            line += f" -- {len(self.failures)} failing"
        return line
