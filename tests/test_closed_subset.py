"""Products, closed subsets of them and the fiber-product kernel
`pair_subring` against the naive oracles.

Draws are closed subsets of products of one to three small factors:
subrings and ideals generated from random seeds, and pullbacks of random
homs. `direct_product` is presented by structure constants, and
`restrict_to_subset` reads a subset's tables in one gather through its
positions; `pullback` goes through `pair_subring`, which places each
element by its rank within a fiber, and is also checked against the
flat-code route it replaced (`closed_subset_flat`, which still looks small
subsets of larger products up by binary search).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finring.amalgamation import pullback
from finring.errors import InvalidParameter
from finring.morphisms import enumerate_homs
from finring.rings import (
    _distinct,
    direct_product,
    galois_field,
    pair_subring,
    restrict_to_subset,
    trunc_poly,
    zmod,
)
from finring.subobjects import ideal_as_rng, ideal_from_generators, subring_generated

from oracles import closed_subset_naive, fiber_product_via_flat_codes, pullback_pairs

# two rngs of the pool have no ambient identity: 2Z/8Z has none at all, and
# 3Z/6Z has its own (3), so products with them exercise the identity search
POOL = [
    zmod(1), zmod(2), zmod(3), zmod(4), zmod(6), galois_field(4),
    trunc_poly(zmod(2), 2, 1),
    ideal_as_rng(ideal_from_generators(zmod(8), [2]))[0],
    ideal_as_rng(ideal_from_generators(zmod(6), [3]))[0],
    trunc_poly(zmod(2), 1, 2),  # 1 sits at index 4, after X^2, X, X+X^2
]
MAX_PRODUCT = 96
# pullback targets, first those a left side can map onto while a right side
# cannot, so that some x have an empty fiber
TARGETS = (POOL[9], POOL[5], POOL[6], zmod(4), zmod(3), zmod(2), zmod(1))


def _agrees(ring, factors, members, labels=None):
    """`ring` is the oracle's closed subset `members` of the product of
    `factors`, with labels "(a,b,...)" unless given."""
    expected = closed_subset_naive(factors, members)
    assert expected is not None
    add, mul, zero, one, elems = expected
    assert ring.add.tolist() == add
    assert ring.mul.tolist() == mul
    assert (ring.zero, ring.one) == (zero, one)
    if labels is None:
        labels = [
            "(" + ",".join(f.labels[i] for f, i in zip(factors, e)) + ")" for e in elems
        ]
    assert list(ring.labels) == labels


def _hom_pair(left, right, seeds):
    """Unital homs alpha on left and beta on right to the first target both
    sides have one to, picked by `seeds`; None when there is none."""
    homs = [[], []]
    for target in TARGETS:
        homs = [enumerate_homs(left, target), enumerate_homs(right, target)]
        if all(homs):
            break
    if not all(homs):  # a factor without 1 has no unital hom
        return None
    alpha = homs[0][seeds[0] % len(homs[0])] if seeds else homs[0][0]
    beta = homs[1][seeds[-1] % len(homs[1])] if seeds else homs[1][-1]
    return alpha, beta


def _tuples(codes, factors):
    dims = [f.order for f in factors]
    return [tuple(int(d) for d in np.unravel_index(c, dims)) for c in codes]


@settings(deadline=None, max_examples=120)
@given(
    st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=3),
    st.sampled_from(["subring", "ideal", "pullback"]),
    st.lists(st.integers(0, 10**6), max_size=3),
    st.booleans(),
)
@example([3, 3, 1], "ideal", [], False)        # {0} of 32 codes
@example([3, 3, 1], "subring", [], True)       # the prime subring, 4 of 32
@example([3, 1], "ideal", [3], False)          # (1,1) gives everything
@example([7, 8], "subring", [5], False)        # no ambient identity
@example([3, 4], "pullback", [0, 1], False)
@example([9, 1], "pullback", [2], False)      # empty fibers over F2[X]/X^3
def test_closed_subsets_match_the_naive_oracle(picks, kind, seeds, include_one):
    factors = [POOL[i] for i in picks]
    while math.prod(f.order for f in factors) > MAX_PRODUCT:
        factors.pop()
    if kind == "pullback":
        left, right = factors[0], factors[-1]
        if (picked := _hom_pair(left, right, seeds)) is None:
            return
        alpha, beta = picked
        members = sorted(pullback_pairs(alpha.map.tolist(), beta.map.tolist()))
        pb = pullback(alpha, beta)
        _agrees(pb.ring, [left, right], members)
        assert pb.pairs.tolist() == [list(p) for p in members]
        flat, pairs = fiber_product_via_flat_codes([left], [right], alpha.map, beta.map)
        assert pairs == members
        assert np.array_equal(pb.ring.add, flat.add) and np.array_equal(pb.ring.mul, flat.mul)
        assert (pb.ring.zero, pb.ring.one, pb.ring.labels) == (flat.zero, flat.one, flat.labels)
        return
    product = direct_product(factors)
    _agrees(product, factors, _tuples(range(product.order), factors))
    gens = [s % product.order for s in seeds]
    sub = (subring_generated(product, gens, include_one) if kind == "subring"
           else ideal_from_generators(product, gens))
    codes = sub.indices
    members = _tuples(codes, factors)
    _agrees(restrict_to_subset(product, codes, "subring", "sub"), factors, members)
    if len(factors) == 2:
        # the pair codes a*|right| + b, sorted by `_distinct`
        right = factors[1].order
        pair_codes = _distinct([a * right + b for a, b in members], product.order)
        _agrees(restrict_to_subset(product, pair_codes, "subring", "sub"), factors, members)
        pairs = np.stack(np.divmod(pair_codes, right), axis=1)
        assert pairs.tolist() == [list(m) for m in members]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, len(POOL) - 1), min_size=2, max_size=2),
       st.lists(st.integers(0, 10**6), min_size=1, max_size=2), st.integers(1, 2))
@example([3, 3], [0, 1], 2)
@example([5, 1], [0], 1)   # gf(4) and zmod(2) over gf(4): w and w+1 have no fiber
@example([9, 1], [2], 2)   # id of F2[X]/X^3: only 0 and 1 (index 4) have a fiber
def test_fiber_product_positions_are_minus_one_exactly_off_the_pullback_pairs(picks, seeds, n):
    """`pair_subring`'s elements and `FiberProduct.position` for every
    tuple of left x right^n, a -1 entry in any slot included, against
    `pullback_pairs`: a tuple is inside when each (x, y_k) is a pair."""
    left, right = (POOL[i] for i in picks)
    if (picked := _hom_pair(left, right, seeds)) is None:
        return
    alpha, beta = picked
    fp = pair_subring(left, [right], alpha.map, beta.map, n, "pullback", "fp")
    pairs = pullback_pairs(alpha.map.tolist(), beta.map.tolist())
    ranges = [range(-1, left.order)] + [range(-1, right.order)] * n
    every = list(itertools.product(*ranges))
    members = [t for t in every if all((t[0], y) in pairs for y in t[1:])]
    assert fp.coords.tolist() == [list(t) for t in members]
    where = {t: i for i, t in enumerate(members)}
    assert fp.position(every).tolist() == [where.get(t, -1) for t in every]
    _agrees(fp.ring, [left] + [right] * n, members)


@settings(deadline=None, max_examples=120)
@given(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=2), st.data())
def test_closed_subset_refuses_exactly_what_the_oracle_refuses(picks, data):
    factors = [POOL[i] for i in picks]
    size = math.prod(f.order for f in factors)
    codes = sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1)))
    members = _tuples(codes, factors)
    product = direct_product(factors)
    if closed_subset_naive(factors, members) is None:
        with pytest.raises(InvalidParameter):
            restrict_to_subset(product, codes, "subring", "sub")
    else:
        _agrees(restrict_to_subset(product, codes, "subring", "sub"), factors, members)


def test_closed_subset_refusals():
    z4, gf4 = zmod(4), galois_field(4)
    with pytest.raises(InvalidParameter, match="must contain zero"):
        restrict_to_subset(direct_product([z4, z4]), range(1, 16), "subring", "sub")
    with pytest.raises(InvalidParameter, match="not closed under addition"):
        restrict_to_subset(z4, [0, 1], "subring", "sub")
    for indices in ([0, 4], [-1, 0]):
        with pytest.raises(InvalidParameter, match="index out of range"):
            restrict_to_subset(z4, indices, "subring", "sub")
    # {0, w} is an additive subgroup of GF(4), but w*w = w+1
    w = gf4.index_of("w")
    with pytest.raises(InvalidParameter, match="not closed under multiplication"):
        restrict_to_subset(gf4, [0, w], "subring", "sub")
    with pytest.raises(InvalidParameter, match="nonempty"):
        restrict_to_subset(z4, [], "subring", "sub")
