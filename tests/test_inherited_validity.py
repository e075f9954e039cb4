"""Rings and homs that skip their own validation because they inherit it
(products, closed subsets, quotients, pullbacks and their maps), checked
after the fact against the validators and the naive oracles."""

from __future__ import annotations

import pytest

from finring import rings
from finring.dsl_cli import evaluate, generate_catalog, parse
from finring.morphisms import RingHom, validate_hom
from finring.reports import FAIL, PASS, ValidationReport, Violation
from finring.rings import FiniteRng, validate_rng

from oracles import hom_violations, rng_violations

DUP_256 = "dup(zmod(128), gen(zmod(128); 64))"


def _script(checks) -> str:
    return "".join(f"check {c}({DUP_256});\n" for c in checks)


def _expected(subject: str, violations) -> str:
    return str(ValidationReport(subject, tuple(Violation(a, w) for a, w in violations)))


@pytest.fixture
def unchecked(monkeypatch):
    """Every FiniteRng and RingHom built with check=False while the test runs."""
    built = {FiniteRng: [], RingHom: []}
    for cls in built:
        def record(self, *args, check=True, _init=cls.__init__, _into=built[cls], **kwargs):
            _init(self, *args, check=check, **kwargs)
            if not check:
                _into.append(self)
        monkeypatch.setattr(cls, "__init__", record)
    return built


def test_unchecked_rings_and_homs_pass_the_validators(unchecked):
    text = generate_catalog(0, 32) + _script(
        ("cardinality", "pull_identity", "canonical_isos", "reduced_criterion",
         "domain_criterion", "retraction_roundtrip"))
    reports = evaluate(parse(text))
    assert [r for r in reports if r.status == FAIL] == []
    built_rings, built_homs = unchecked[FiniteRng], unchecked[RingHom]
    provenances = {r.provenance for r in built_rings}
    assert {"product", "subring", "quotient", "amalgam", "pullback"} <= provenances
    assert max(r.order for r in built_rings) == 256
    for r in built_rings:
        report = validate_rng(r)
        assert report.ok, report
    for f in built_homs:
        report = validate_hom(f)
        assert report.ok, report
    # the naive loops, once per distinct small structure
    for r in {r for r in built_rings if r.order <= 16}:
        want = rng_violations(r.add.tolist(), r.mul.tolist(), r.zero, r.one, r.labels)
        assert str(validate_rng(r)) == _expected(r.name, want)
    small = {f for f in built_homs if max(f.domain.order, f.codomain.order) <= 16}
    for f in small:
        want = hom_violations(f.domain, f.codomain, f.map, f.unital)
        assert str(validate_hom(f)) == _expected(f.name, want)


def test_amalgam_checks_validate_no_derived_ring(monkeypatch):
    seen = []
    validate = rings.validate_rng

    def counted(ring):
        seen.append(ring.provenance)
        return validate(ring)

    monkeypatch.setattr(rings, "validate_rng", counted)
    reports = evaluate(parse(_script(
        ("cardinality", "pull_identity", "canonical_isos", "domain_criterion",
         "retraction_roundtrip"))))
    assert [r.status for r in reports] == [PASS] * 5
    assert seen == ["zmod"]  # zmod(128), once: the evaluator shares it
