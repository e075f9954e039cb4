"""`localization` against the fraction-pair route it replaced, and its
typed refusals. The CPI checks it serves run at guard order in
tests/test_guard.py.

`localization` builds S^-1 A as A modulo the kernel of a -> a/1, which is
onto in a finite ring. `localization_by_pairs` (tests/oracles.py) compares
all n·|S| fraction pairs with each other, so it gives the expected tables,
identity, labels, name and canonical map on small rings only.
"""

from __future__ import annotations

import numpy as np
import pytest

from finring.errors import EmptySet, MissingIdentity, NotMultiplicativelyClosed
from finring.reports import PASS
from finring.rings import direct_product, galois_field, trunc_poly, zmod
from finring.subobjects import (
    all_ideals,
    ideal_as_rng,
    ideal_from_generators,
    is_prime,
    localization,
    regular_elements_mod,
)

from oracles import localization_by_pairs
from test_guard import guard_run, reads

RINGS = (
    [zmod(n) for n in range(1, 41)]
    + [galois_field(q) for q in (4, 8, 9, 16)]
    + [
        direct_product([zmod(2), zmod(2)]),
        direct_product([zmod(2), zmod(4)]),
        direct_product([zmod(3), zmod(4)]),
        direct_product([zmod(2), zmod(2), zmod(2)]),
        direct_product([galois_field(4), zmod(2)]),
        direct_product([zmod(4), trunc_poly(zmod(2), 1, 2)]),
        trunc_poly(zmod(2), 1, 3),
        trunc_poly(zmod(2), 2, 1),
        trunc_poly(zmod(3), 1, 2),
        trunc_poly(zmod(4), 1, 2),
        trunc_poly(galois_field(4), 1, 1),
    ]
)


def _closed_sets(ring, seed: int, count: int = 3):
    """`count` multiplicatively closed sets holding 1, each generated by one
    to three elements drawn with `seed`."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mask = np.zeros(ring.order, dtype=bool)
        mask[ring.one] = True
        mask[rng.integers(ring.order, size=rng.integers(1, 4))] = True
        while True:
            members = np.flatnonzero(mask)
            grown = mask.copy()
            grown[ring.mul[np.ix_(members, members)]] = True
            if (grown == mask).all():
                break
            mask = grown
        yield np.flatnonzero(mask)


def _localization_sets(ring):
    """Every regular set modulo an ideal, every prime complement, and a few
    seeded multiplicatively closed sets, each once."""
    sets = {}
    for ideal in all_ideals(ring):
        sets[tuple(regular_elements_mod(ring, ideal).tolist())] = None
        if is_prime(ideal):
            sets[tuple(np.flatnonzero(~ideal.members).tolist())] = None
    for s in _closed_sets(ring, ring.order):
        sets[tuple(s.tolist())] = None
    return [s for s in sets if ring.one in s]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_localization_matches_the_fraction_pair_route(ring):
    sets = _localization_sets(ring)
    assert sets
    for s in sets:
        got, lam = localization(ring, s)
        want, mu = localization_by_pairs(ring, s)
        assert got.add.tolist() == want.add.tolist(), s
        assert got.mul.tolist() == want.mul.tolist(), s
        assert (got.zero, got.one) == (want.zero, want.one), s
        assert got.labels == want.labels, s
        assert got.name == want.name, s
        assert lam.map.tolist() == mu.map.tolist(), s


@pytest.mark.parametrize("ring, s, error, message", [
    (zmod(12), [], EmptySet, "empty"),
    (zmod(12), [3, 9], NotMultiplicativelyClosed, "must contain 1"),  # closed
    (zmod(12), [1, 5, 7], NotMultiplicativelyClosed, "5 [*] 7 leaves the set"),
    (ideal_as_rng(ideal_from_generators(zmod(8), [2]))[0], [0], MissingIdentity,
     "no multiplicative identity"),
], ids=["empty", "without_one", "not_closed", "ring_without_one"])
def test_localization_refusals_are_typed(ring, s, error, message):
    with pytest.raises(error, match=message):
        localization(ring, np.array(s, dtype=np.int64))


# Order-4096 products localized at sets of 2048 to 4095 elements, as
# checked by the guard sweep's row cpi_products under a 1 GiB limit
GUARD_CPI = {
    "prime_gf4_x_z1024": 'cpi_prime(P, gen(P; "(0,1)"))',
    "ideal_gf4_x_z1024": 'cpi_ideal(P, gen(P; "(0,1)"))',
    "ideal_z2_x_z2048": 'cpi_ideal(Q, gen(Q; "(0,1)"))',
}


@reads("cpi_products")
@pytest.mark.parametrize("check", list(GUARD_CPI))
def test_guard_order_cpi_checks_run_in_one_gib(request, check):
    assert guard_run(request, "cpi_products").reports[GUARD_CPI[check]]["status"] == PASS
