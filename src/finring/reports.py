"""Structured results: axiom validation reports and check verification reports.

Checks never hand back a bare boolean. A VerificationReport always names the
check, describes the instance, and carries enough witness data to re-validate
the claim independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.axiom} at ({', '.join(self.witness)})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an axiom scan. Empty violation list means the object is valid."""

    subject: str
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: valid"
        lines = "; ".join(str(v) for v in self.violations)
        return f"{self.subject}: {lines}"


PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"
THEOREM_BACKED = "theorem_backed"


@dataclass
class Witness:
    name: str
    value: str

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value}


@dataclass
class VerificationReport:
    check: str
    instance: str
    status: str
    witnesses: list[Witness] = field(default_factory=list)
    counterexample: str | None = None
    millis: float = 0.0

    def add(self, name: str, value: object) -> None:
        self.witnesses.append(Witness(name, str(value)))

    def witness(self, name: str) -> str | None:
        for w in self.witnesses:
            if w.name == name:
                return w.value
        return None

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "status": self.status,
            "witnesses": [w.to_json() for w in self.witnesses],
            "counterexample": self.counterexample,
            "millis": round(self.millis, 3),
        }

    def line(self) -> str:
        return f"{self.status.upper():18s} {self.check}({self.instance})"


def reports_to_json(reports: list[VerificationReport]) -> str:
    """The text of `json.dumps({"version": "1", "reports": [...]},
    indent=2)`, encoded one report at a time, so that only one report's
    dict is alive at once. A report nests two levels deep, so its lines
    after the first take four more spaces; a JSON string escapes every
    newline, so each newline of its text is one of those lines' ends."""
    items = ",\n    ".join(
        json.dumps(r.to_json(), indent=2, ensure_ascii=True).replace("\n", "\n    ")
        for r in reports)
    body = f"[\n    {items}\n  ]" if reports else "[]"
    return f'{{\n  "version": "1",\n  "reports": {body}\n}}\n'


def strip_timing(json_text: str) -> str:
    """Canonical form with millis zeroed, for byte-comparing two runs."""
    doc = json.loads(json_text)
    for rep in doc.get("reports", []):
        rep["millis"] = 0.0
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"
