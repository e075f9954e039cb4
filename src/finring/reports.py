"""Structured results: axiom validation reports and check verification reports.

Checks never hand back a bare boolean. A VerificationReport always names the
check, describes the instance, and carries enough witness data to re-validate
the claim independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _str


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


@dataclass(slots=True)
class Witness:
    name: str
    value: str


@dataclass(slots=True)
class VerificationReport:
    check: str
    instance: str
    status: str = PASS
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

    def verdict(self, ok: bool, counterexample: str) -> VerificationReport:
        """Unless `ok`, mark the report failed with `counterexample`. The one
        place a check records a failure; returns the report."""
        if not ok:
            self.status = FAIL
            self.counterexample = counterexample
        return self

    def line(self) -> str:
        return f"{self.status.upper():18s} {self.check}({self.instance})"


def reports_to_json(reports: list[VerificationReport]) -> str:
    """The text of `json.dumps({"version": "1", "reports": [...]},
    indent=2, ensure_ascii=True) + "\n"`, written in one pass with json's
    own string escaping and its number form for the rounded millis."""
    out = []
    for r in reports:
        wits = ",".join(
            f'\n        {{\n          "name": {_str(w.name)},\n'
            f'          "value": {_str(w.value)}\n        }}'
            for w in r.witnesses) + "\n      " if r.witnesses else ""
        cex = "null" if r.counterexample is None else _str(r.counterexample)
        out.append(f'\n    {{\n      "check": {_str(r.check)},\n'
                   f'      "instance": {_str(r.instance)},\n'
                   f'      "status": {_str(r.status)},\n'
                   f'      "witnesses": [{wits}],\n'
                   f'      "counterexample": {cex},\n'
                   f'      "millis": {round(r.millis, 3)!r}\n    }}')
    body = ",".join(out) + "\n  " if out else ""
    return f'{{\n  "version": "1",\n  "reports": [{body}]\n}}\n'


def strip_timing(json_text: str) -> str:
    """Canonical form with millis zeroed, for byte-comparing two runs."""
    doc = json.loads(json_text)
    for rep in doc.get("reports", []):
        rep["millis"] = 0.0
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"
