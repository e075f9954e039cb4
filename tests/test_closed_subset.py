"""`closed_subset` and its three callers against the naive oracle.

Draws are closed subsets of products of one to three small factors:
subrings and ideals generated from random seeds, and pullbacks of random
homs. Small subsets of larger products take the binary-search positions
(more product codes than |subset|^2), large ones the dense positions; the
pinned examples make sure both run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finring.amalgamation import pullback
from finring.errors import InvalidParameter, SizeGuardExceeded
from finring.morphisms import enumerate_homs
from finring.rings import (
    closed_subset,
    direct_product,
    galois_field,
    pair_subring,
    restrict_to_subset,
    trunc_poly,
    zmod,
)
from finring.subobjects import ideal_as_rng, ideal_from_generators, subring_generated

from oracles import closed_subset_naive, pullback_pairs

# two rngs of the pool have no ambient identity: 2Z/8Z has none at all, and
# 3Z/6Z has its own (3), so products with them exercise the identity search
POOL = [
    zmod(1), zmod(2), zmod(3), zmod(4), zmod(6), galois_field(4),
    trunc_poly(zmod(2), 2, 1),
    ideal_as_rng(ideal_from_generators(zmod(8), [2]))[0],
    ideal_as_rng(ideal_from_generators(zmod(6), [3]))[0],
]
MAX_PRODUCT = 96


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
@example([3, 3, 1], "ideal", [], False)        # {0}: binary search
@example([3, 3, 1], "subring", [], True)       # the prime subring, 4 of 32
@example([3, 1], "ideal", [3], False)          # (1,1) gives everything: dense
@example([7, 8], "subring", [5], False)        # no ambient identity
@example([3, 4], "pullback", [0, 1], False)
def test_closed_subsets_match_the_naive_oracle(picks, kind, seeds, include_one):
    factors = [POOL[i] for i in picks]
    while math.prod(f.order for f in factors) > MAX_PRODUCT:
        factors.pop()
    if kind == "pullback":
        left, right = factors[0], factors[-1]
        homs = [[], []]
        for target in (zmod(4), zmod(3), zmod(2), zmod(1)):
            homs = [enumerate_homs(left, target), enumerate_homs(right, target)]
            if all(homs):
                break
        if not all(homs):  # a factor without 1 has no unital hom
            return
        alpha = homs[0][seeds[0] % len(homs[0])] if seeds else homs[0][0]
        beta = homs[1][seeds[-1] % len(homs[1])] if seeds else homs[1][-1]
        members = sorted(pullback_pairs(alpha.map.tolist(), beta.map.tolist()))
        pb = pullback(alpha, beta)
        _agrees(pb.ring, [left, right], members)
        assert pb.pairs.tolist() == [list(p) for p in members]
        return
    product = direct_product(factors)
    _agrees(product, factors, _tuples(range(product.order), factors))
    gens = [s % product.order for s in seeds]
    sub = (subring_generated(product, gens, include_one) if kind == "subring"
           else ideal_from_generators(product, gens))
    codes = sub.indices
    members = _tuples(codes, factors)
    _agrees(closed_subset(factors, codes), factors, members)
    _agrees(restrict_to_subset(product, codes, "subring", "sub"), factors, members,
            labels=[product.labels[c] for c in codes])
    if len(factors) == 2:
        ring, arr = pair_subring(factors[0], factors[1], members, "subring", "sub")
        _agrees(ring, factors, members)
        assert arr.tolist() == [list(m) for m in members]


@settings(deadline=None, max_examples=120)
@given(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=2), st.data())
def test_closed_subset_refuses_exactly_what_the_oracle_refuses(picks, data):
    factors = [POOL[i] for i in picks]
    size = math.prod(f.order for f in factors)
    codes = sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1)))
    members = _tuples(codes, factors)
    if closed_subset_naive(factors, members) is None:
        with pytest.raises(InvalidParameter):
            closed_subset(factors, codes)
    else:
        _agrees(closed_subset(factors, codes), factors, members)


def test_closed_subset_refusals():
    z4, gf4 = zmod(4), galois_field(4)
    with pytest.raises(InvalidParameter, match="must contain zero"):
        closed_subset([z4, z4], range(1, 16))
    with pytest.raises(InvalidParameter, match="not closed under addition"):
        restrict_to_subset(z4, [0, 1], "subring", "sub")
    for indices in ([0, 4], [-1, 0]):
        with pytest.raises(InvalidParameter, match="index out of range"):
            restrict_to_subset(z4, indices, "subring", "sub")
    # {0, w} is an additive subgroup of GF(4), but w*w = w+1
    w = gf4.index_of("w")
    with pytest.raises(InvalidParameter, match="not closed under multiplication"):
        closed_subset([gf4], [0, w])
    with pytest.raises(InvalidParameter, match="nonempty"):
        closed_subset([z4], [])
    for codes in ([0, 0, 2], [2, 0], [0, 16]):
        with pytest.raises(InvalidParameter, match="increase strictly"):
            closed_subset([z4, z4], codes)
    # codes are int64: a product of 2^63 codes is refused by name, not as
    # unsorted codes, and one of 2^62 still works
    with pytest.raises(SizeGuardExceeded, match=f"code space {2 ** 63} of the flat product"):
        closed_subset([zmod(2)] * 63, [0])
    assert closed_subset([zmod(2)] * 62, [0]).order == 1
