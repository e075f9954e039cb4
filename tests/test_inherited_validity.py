"""Rings and homs that skip their own validation because they inherit it
(products, closed subsets, quotients, pullbacks and their maps) or are
validated by their structure constants (zmod, trunc_poly, dotted sums),
checked after the fact against the validators and the naive oracles."""

from __future__ import annotations

import numpy as np
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


@pytest.fixture
def every(monkeypatch):
    """Every FiniteRng built while the test runs, with whether its
    constructor passed it a generating set."""
    built = []

    def record(self, *args, _init=FiniteRng.__init__, **kwargs):
        _init(self, *args, **kwargs)
        built.append((self, kwargs.get("additive_gens") is not None))
    monkeypatch.setattr(FiniteRng, "__init__", record)
    return built


def _additive_closure(ring: FiniteRng, gens) -> np.ndarray:
    """The subgroup generated by gens, by adding generators from zero."""
    reached = np.arange(ring.order) == ring.zero
    frontier = np.array([ring.zero])
    while frontier.size:
        hits = np.unique(ring.add[frontier[:, None], np.asarray(gens)].ravel())
        frontier = hits[~reached[hits]]
        reached[frontier] = True
    return reached


def test_unchecked_rings_and_homs_pass_the_validators(unchecked):
    text = generate_catalog(0, 32) + _script(
        ("cardinality", "pull_identity", "canonical_isos", "reduced_criterion",
         "domain_criterion", "retraction_roundtrip"))
    reports = evaluate(parse(text))
    assert [r for r in reports if r.status == FAIL] == []
    built_rings, built_homs = unchecked[FiniteRng], unchecked[RingHom]
    provenances = {r.provenance for r in built_rings}
    assert {"product", "subring", "quotient", "amalgam", "pullback",
            "zmod", "trunc_poly", "dotted_sum"} <= provenances
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
    assert seen == []  # zmod(128) is validated by its structure constants


def test_every_generating_set_generates(every):
    """The additive generating set each ring carries from its constructor,
    or the greedy one, generates the whole ring."""
    text = generate_catalog(0, 32) + _script(
        ("cardinality", "dotted_presentation", "pull_identity", "canonical_isos",
         "reduced_criterion", "domain_criterion", "retraction_roundtrip"))
    evaluate(parse(text))
    carried = {r.provenance for r, given in every if given}
    assert {"zmod", "trunc_poly", "dotted_sum", "product", "quotient", "amalgam"} <= carried
    for r, _ in every:
        assert r.additive_gens is not None and _additive_closure(r, r.additive_gens).all(), r
