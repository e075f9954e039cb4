"""The structure-constant kernel `rings.from_structure` against the table
builders it replaced (`oracles.*_tables`), the naive axiom loops, and tables
computed from corrupted structure constants."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from finring import amalgamation, constructions
from finring.dsl_cli import evaluate, generate_catalog, parse
from finring.errors import MalformedTable
from finring.rings import (
    FiniteRng,
    direct_product,
    from_structure,
    galois_field,
    restrict_to_subset,
    trunc_poly,
    validate_rng,
    zmod,
)

import oracles
from oracles import rng_violations


def _same(ring: FiniteRng, ref: FiniteRng) -> bool:
    """add, mul, zero, one and labels (FiniteRng equality), and the name."""
    return ring == ref and ring.name == ref.name


def _naive_ok(ring: FiniteRng) -> bool:
    return rng_violations(ring.add.tolist(), ring.mul.tolist(), ring.zero, ring.one,
                          ring.labels) == []


def _prime_powers(limit: int) -> list[int]:
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]
    return sorted(p**k for p in primes for k in range(1, 9) if p**k <= limit)


F4 = galois_field(4)
BASES = [zmod(2), zmod(3), zmod(4), zmod(6), F4, direct_product([zmod(2), zmod(3)]),
         restrict_to_subset(F4, np.array([0, 1]), "subring", "sub(F4)")]


def test_zmod_and_fields_match_the_reference_builders():
    for n in range(1, 65):
        ring = zmod(n)
        assert _same(ring, oracles.zmod_tables(n)), n
        if n <= 16:
            assert _naive_ok(ring), n
    for q in _prime_powers(256):
        ring = galois_field(q)
        assert _same(ring, oracles.galois_field_tables(q)), q
        if q <= 16:
            assert _naive_ok(ring), q


@pytest.mark.parametrize("base", BASES, ids=lambda b: b.name)
def test_trunc_poly_matches_the_reference_builder(base):
    for num_vars, max_deg in ((1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        if base.order ** math.comb(num_vars + max_deg, num_vars) > 1024:
            continue
        ring = trunc_poly(base, num_vars, max_deg)
        assert _same(ring, oracles.trunc_poly_tables(base, num_vars, max_deg)), ring.name
        if ring.order <= 16:
            assert _naive_ok(ring), ring.name


def test_catalog_dotted_sums_match_the_reference_builder(monkeypatch):
    built = []
    original = amalgamation.dotted_sum

    def recorded(base, part, action):
        ds = original(base, part, action)
        built.append((ds, action))
        return ds

    for module in (amalgamation, constructions):
        monkeypatch.setattr(module, "dotted_sum", recorded)
    evaluate(parse(generate_catalog(0, 256)))
    assert len(built) > 10
    for ds, action in built:
        assert _same(ds.ring, oracles.dotted_sum_tables(ds.base, ds.part, action)), ds.ring.name
        if ds.ring.order <= 16:
            assert _naive_ok(ds.ring), ds.ring.name


# -- corrupted structure constants ---------------------------------------------------


def _presentation(ring: FiniteRng, dims: list[int]):
    """(dims, products, one) of a ring whose elements are the codes over
    cyclic `dims` with unit digits as generators: its own constants."""
    gens = [math.prod(dims[i + 1:]) for i in range(len(dims))]
    return dims, ring.mul[np.ix_(gens, gens)].tolist(), ring.one


PRESENTATIONS = [
    _presentation(zmod(4), [4]),
    _presentation(direct_product([zmod(2), zmod(4)]), [2, 4]),
    _presentation(direct_product([zmod(2), zmod(2)]), [2, 2]),
    _presentation(galois_field(8), [2, 2, 2]),
    _presentation(galois_field(9), [3, 3]),
    _presentation(trunc_poly(zmod(2), 1, 2), [2, 2, 2]),
    ([2, 4], [[0, 0], [0, 0]], None),  # square-zero, no identity
]


def _axiom(exc: MalformedTable) -> str:
    return str(exc).split(": ", 1)[1].split(" at ")[0]


def _corruptions(products, one, order):
    size = len(products)
    for i, j, v in itertools.product(range(size), range(size), range(order)):
        for symmetric in (False, True):
            c = [row[:] for row in products]
            c[i][j] = v
            if symmetric:
                c[j][i] = v
            yield c, one
    for bad_one in range(order):
        yield products, bad_one


def test_corrupted_structure_constants_name_the_axiom_validate_rng_names():
    named = set()
    for dims, products, one in PRESENTATIONS:
        order = math.prod(dims)
        labels = [str(x) for x in range(order)]
        for c, unit in _corruptions(products, one, order):
            add, mul, zero, _ = oracles.structure_tables(dims, c, unit)
            report = validate_rng(FiniteRng(add, mul, zero, unit, labels, check=False))
            try:
                ring = from_structure(dims, c, unit, labels, "table", "corrupt")
            except MalformedTable as exc:
                axiom = _axiom(exc)
                assert axiom in {v.axiom for v in report.violations}, (dims, c, unit, report)
                named.add(axiom)
            else:
                assert report.ok, (dims, c, unit, report)
                assert np.array_equal(ring.mul, mul) and np.array_equal(ring.add, add)
    assert named == {"distributive", "mul_commutative", "mul_associative", "one_neutral"}


def test_constants_of_the_wrong_shape_or_range_are_refused():
    with pytest.raises(MalformedTable):
        from_structure([2, 2], [[0, 1]], None, "abcd", "table", "short")
    with pytest.raises(MalformedTable):
        from_structure([4], [[4]], None, "abcd", "table", "out of range")


# -- order 1024 ----------------------------------------------------------------------

# The order-4096 builds of these families run in tests/test_guard.py.


def test_order_1024_rings_match_the_reference_builders():
    for ring, ref in (
        (galois_field(1024), oracles.galois_field_tables(1024)),
        (trunc_poly(zmod(2), 1, 9), oracles.trunc_poly_tables(zmod(2), 1, 9)),
        (trunc_poly(zmod(4), 1, 4), oracles.trunc_poly_tables(zmod(4), 1, 4)),
    ):
        assert ring.order == 1024 and _same(ring, ref), ring.name
