"""Axiom validation: the generator reduction against the naive oracles, and
the orders it makes reachable under the size guard."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finring import morphisms, rings, subobjects
from finring.amalgamation import duplication
from finring.config import guard_limit
from finring.errors import SizeGuardExceeded
from finring.morphisms import RingHom, enumerate_homs, identity_hom, validate_hom
from finring.reports import ValidationReport, Violation
from finring.rings import (
    FiniteRng,
    direct_product,
    galois_field,
    trunc_poly,
    validate_rng,
    zmod,
)
from finring.subobjects import (
    FiniteModule,
    ideal_as_rng,
    ideal_from_generators,
    module_via_hom,
    quotient_ring,
    validate_module,
)

from oracles import hom_violations, module_violations, rng_violations
from test_guard import guard_run, reads

Z2 = zmod(2)
RINGS = [zmod(n) for n in range(1, 17)] + [galois_field(q) for q in (4, 8, 9, 16)] + [
    direct_product([Z2, zmod(4)]),
    direct_product([Z2] * 4),
    trunc_poly(Z2, 1, 2),
    trunc_poly(zmod(3), 1, 1),
    trunc_poly(Z2, 2, 1),
]


def _unit_module(f: RingHom) -> FiniteModule:
    return module_via_hom(f, ideal_from_generators(f.codomain, [f.codomain.one]))


MODULES = [_unit_module(identity_hom(r)) for r in RINGS if r.order > 1][::3] + [
    _unit_module(RingHom(zmod(8), zmod(4), np.arange(8) % 4)),
    _unit_module(RingHom(Z2, galois_field(4), [0, 1])),
    module_via_hom(identity_hom(zmod(12)), ideal_from_generators(zmod(12), [4])),
    module_via_hom(identity_hom(RINGS[-4]), ideal_from_generators(RINGS[-4], ["(1,0,0,0)"])),
]


def _embedding(ring: FiniteRng, gen) -> RingHom:
    return ideal_as_rng(ideal_from_generators(ring, [gen]))[1]


HOMS = [identity_hom(r) for r in RINGS[::2]] + [
    quotient_ring(zmod(12), ideal_from_generators(zmod(12), [4]))[1],
    quotient_ring(RINGS[-4], ideal_from_generators(RINGS[-4], ["(1,0,0,0)"]))[1],
    RingHom(zmod(8), zmod(4), np.arange(8) % 4),
    RingHom(Z2, galois_field(4), [0, 1]),
    *enumerate_homs(galois_field(8), galois_field(8))[1:],  # Frobenius maps
    _embedding(zmod(12), 2),  # rng homs: not unital
    _embedding(trunc_poly(Z2, 2, 1), "X1"),
]


def _expected(subject: str, violations) -> str:
    return str(ValidationReport(subject, tuple(Violation(a, w) for a, w in violations)))


def _corrupt(data, tables: dict, n: int) -> None:
    """Overwrite one or two cells of the named tables, mirrored or not."""
    rows = {name: t.shape[0] for name, t in tables.items()}
    mirror = data.draw(st.booleans(), label="mirror")
    for _ in range(data.draw(st.integers(1, 2), label="cells")):
        name = data.draw(st.sampled_from(sorted(tables)), label="table")
        i = data.draw(st.integers(0, rows[name] - 1), label="i")
        j = data.draw(st.integers(0, n - 1), label="j")
        v = data.draw(st.integers(0, n - 1), label="value")
        tables[name][i, j] = v
        if mirror and i < n and j < rows[name]:
            tables[name][j, i] = v


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_validate_rng_matches_naive_oracle_on_corrupted_tables(data):
    base = data.draw(st.sampled_from(RINGS), label="ring")
    tables = {"add": np.array(base.add), "mul": np.array(base.mul)}
    _corrupt(data, tables, base.order)
    X = FiniteRng(tables["add"], tables["mul"], base.zero, base.one, base.labels,
                  name="X", check=False)
    want = rng_violations(tables["add"].tolist(), tables["mul"].tolist(),
                          base.zero, base.one, base.labels)
    assert str(validate_rng(X)) == _expected("X", want)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_validate_rng_matches_naive_oracle_on_random_tables(data):
    # arbitrary magmas, most far from a group: covers the fallback paths
    n = data.draw(st.integers(1, 5), label="n")
    cell = st.integers(0, n - 1)
    add = np.array(data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                      min_size=n, max_size=n), label="add"))
    mul = np.array(data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                      min_size=n, max_size=n), label="mul"))
    zero = data.draw(cell, label="zero")
    one = data.draw(st.none() | cell, label="one")
    labels = [f"e{i}" for i in range(n)]
    X = FiniteRng(add, mul, zero, one, labels, name="X", check=False)
    want = rng_violations(add.tolist(), mul.tolist(), zero, one, labels)
    assert str(validate_rng(X)) == _expected("X", want)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_validate_module_matches_naive_oracle_on_corrupted_tables(data):
    base = data.draw(st.sampled_from(MODULES), label="module")
    tables = {"add": np.array(base.add), "action": np.array(base.action)}
    _corrupt(data, tables, base.order)
    M = FiniteModule(ring=base.ring, order=base.order, add=tables["add"],
                     zero=base.zero, labels=base.labels, action=tables["action"])
    A = base.ring
    want = module_violations(A.add.tolist(), A.mul.tolist(), A.one, A.labels,
                             tables["add"].tolist(), tables["action"].tolist(),
                             base.zero, base.labels)
    assert str(validate_module(M)) == _expected("module", want)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_validate_module_matches_naive_oracle_on_random_tables(data):
    A = data.draw(st.sampled_from(RINGS[:5]), label="ring")
    n = data.draw(st.integers(1, 4), label="n")
    cell = st.integers(0, n - 1)
    add = np.array(data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                      min_size=n, max_size=n), label="add"))
    action = np.array(data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                         min_size=A.order, max_size=A.order),
                                label="action"))
    zero = data.draw(cell, label="zero")
    labels = tuple(f"m{i}" for i in range(n))
    M = FiniteModule(ring=A, order=n, add=add, zero=zero, labels=labels, action=action)
    want = module_violations(A.add.tolist(), A.mul.tolist(), A.one, A.labels,
                             add.tolist(), action.tolist(), zero, labels)
    assert str(validate_module(M)) == _expected("module", want)


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_validate_hom_matches_naive_oracle_on_corrupted_maps(data):
    base = data.draw(st.sampled_from(HOMS), label="hom")
    A, B = base.domain, base.codomain
    fmap = np.array(base.map)
    for _ in range(data.draw(st.integers(1, 2), label="cells")):
        x = data.draw(st.integers(0, A.order - 1), label="x")
        fmap[x] = data.draw(st.integers(0, B.order - 1), label="value")
    f = RingHom(A, B, fmap, unital=base.unital, name="f", check=False)
    assert str(validate_hom(f)) == _expected("f", hom_violations(A, B, fmap, base.unital))


def test_valid_structures_never_reach_the_witness_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("witness scan reached on a valid structure")

    monkeypatch.setattr(rings, "_scan", scan)
    monkeypatch.setattr(subobjects, "_scan", scan)
    for r in RINGS + [direct_product([Z2] * 8), zmod(255)]:
        assert validate_rng(r).ok
    for m in MODULES:
        assert validate_module(m).ok


def test_valid_homs_never_reach_the_full_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("full scan reached on a hom")

    monkeypatch.setattr(morphisms, "_first_miss", scan)
    for f in HOMS:
        assert validate_hom(f).ok


def test_additive_generators_are_greedy_and_logarithmic():
    gens = rings._additive_generators
    assert gens(zmod(12).add, 0).tolist() == [1]
    assert gens(zmod(1).add, 0).tolist() == [0]
    boolean = direct_product([Z2] * 4)
    assert gens(boolean.add, boolean.zero).tolist() == [1, 2, 4, 8]  # log2 16
    # zero is a generator only when the others cannot reach it
    assert gens(np.array([[0, 1], [1, 1]]), 0).tolist() == [1, 0]
    # x + y = max(x, y) is associative but no group: it needs every element
    semilattice = np.maximum.outer(np.arange(4), np.arange(4))
    assert gens(semilattice, 0) is None


# -- orders the size guard admits -------------------------------------------------

def test_order_1024_builds_and_validates():
    assert validate_rng(zmod(1024)).ok
    r = zmod(512)
    am = duplication(r, ideal_from_generators(r, [256]))
    assert am.ring.order == 1024


# The guard sweep's row build_products builds (Z/2)^12, Z/64 x Z/64 and
# Z/4096 in this order under a 1 GiB limit, and prints for each its order,
# whether it took under 20 s and whether it validates.

@reads("build_products")
def test_order_4096_builds_under_a_2_gib_address_space(request):
    lines = guard_run(request, "build_products").child.stdout.splitlines()
    assert lines[2].split() == ["4096", "True", "True"]


@reads("build_products")
def test_order_4096_product_builds_under_a_2_gib_address_space(request):
    lines = guard_run(request, "build_products").child.stdout.splitlines()
    assert lines[1].split() == ["4096", "True", "True"]


def test_orders_above_the_guard_are_refused():
    with pytest.raises(SizeGuardExceeded):
        zmod(4097)
    with guard_limit(8):
        with pytest.raises(SizeGuardExceeded):
            direct_product([Z2] * 4)
