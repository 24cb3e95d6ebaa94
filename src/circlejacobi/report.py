"""Structured pass/fail records shared by every verification routine.

A report carries one entry per checked identity instance plus the list
of boundary rows a truncation forced us to skip, so "everything passed"
is always distinguishable from "nothing was checked".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .laurent import LaurentPoly


@dataclass
class Check:
    """Outcome of one identity instance (one index, row, or monomial)."""

    label: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        d: dict = {"label": self.label, "status": "pass" if self.ok else "fail"}
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class VerificationReport:
    identity: str
    relation: str
    params: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

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
