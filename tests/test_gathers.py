"""The sub-table gather and the index scatters of `rings` (`_sub`,
`_distinct`, `_first_at`) and the kernels built on them, against `np.ix_`
and the plain-Python oracles, on unital rings and on rngs without 1."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finring.morphisms import RingHom, first_iso_witness, identity_hom
from finring.rings import (
    _distinct,
    _first_at,
    _sub,
    direct_product,
    galois_field,
    restrict_to_subset,
    trunc_poly,
    zmod,
)
from finring.subobjects import (
    all_ideals,
    coset_representatives,
    ideal_as_rng,
    ideal_from_generators,
    quotient_ring,
)

from oracles import coset_partition, least_preimages

Z2 = zmod(2)
# unital rings, then rngs without 1: the ideals (2) of Z/8, (2) of Z/12 and
# (4) of Z/16 as rngs of their own
RINGS = [zmod(n) for n in range(1, 13)] + [galois_field(q) for q in (4, 8, 9)] + [
    direct_product([Z2, Z2]),
    direct_product([Z2, zmod(4)]),
    trunc_poly(Z2, 1, 2),
    trunc_poly(Z2, 2, 1),
] + [ideal_as_rng(ideal_from_generators(zmod(n), [g]))[0] for n, g in ((8, 2), (12, 2), (16, 4))]
IDS = [r.name for r in RINGS]

INDICES = st.lists(st.integers(0, 6), max_size=9).map(lambda xs: np.array(xs, dtype=np.int64))


@settings(deadline=None, max_examples=120)
@given(st.sampled_from([np.int32, np.int64]), INDICES, INDICES)
def test_sub_equals_ix_gather(dtype, rows, cols):
    """Empty, repeated and unsorted rows and columns."""
    table = np.arange(49, dtype=dtype).reshape(7, 7) * 3 % 50
    got = _sub(table, rows, cols)
    want = table[np.ix_(rows, cols)]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 400).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=40))))
def test_distinct_and_first_at_match_the_oracles(case):
    """Both paths of `_distinct`: the scatter while n <= 32 * |x|, the sort
    beyond."""
    n, xs = case
    x = np.array(xs, dtype=np.int64)
    assert _distinct(x, n).tolist() == sorted(set(xs))
    assert _first_at(x, n).tolist() == least_preimages(xs, n)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_injective_and_surjective_match_set_sizes(ring):
    rng = np.random.default_rng(ring.order)
    targets = [ring, zmod(1), zmod(ring.order + 1), zmod(2 * ring.order)]
    for target in targets:
        maps = [rng.integers(0, target.order, ring.order) for _ in range(6)]
        maps += [np.arange(ring.order) % target.order]
        for fmap in maps:
            f = RingHom(ring, target, fmap, unital=False, check=False)
            count = len(set(fmap.tolist()))
            assert f.is_injective == (count == ring.order)
            assert f.is_surjective == (count == target.order)
    assert identity_hom(ring).is_injective and identity_hom(ring).is_surjective


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_coset_representatives_match_the_partition(ring):
    add = ring.add.tolist()
    for ideal in all_ideals(ring):
        reps, class_of = coset_representatives(ring, ideal)
        classes = [frozenset(np.flatnonzero(class_of == c).tolist()) for c in range(reps.size)]
        assert set(classes) == coset_partition(add, ideal.members.tolist(), ring.order)
        assert reps.tolist() == [min(c) for c in classes] == sorted(reps.tolist())


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_first_iso_representatives_are_least_preimages(ring):
    """The induced map is read at the least element of each class of the
    kernel: here h is a projection onto a quotient, so that least element
    is the class's least preimage."""
    for ideal in all_ideals(ring):
        quotient, proj = quotient_ring(ring, ideal)
        h = RingHom(ring, quotient, proj.map, unital=proj.unital, check=False)
        fi = first_iso_witness(h)
        least = least_preimages(fi.projection.map.tolist(), fi.quotient.order)
        assert -1 not in least
        assert fi.iso.map.tolist() == [int(h.map[x]) for x in least]
        assert fi.valid


def _ideal_pairs(left, right, I, J, rng) -> np.ndarray:
    """I x J, a closed subset of left x right, as shuffled pairs with some
    repeated."""
    pairs = np.array([(a, b) for a in I.indices for b in J.indices], dtype=np.int64)
    pairs = np.concatenate((pairs, pairs[rng.integers(0, len(pairs), 3)]))
    return pairs[rng.permutation(len(pairs))]


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_pair_subring_codes_match_sorted_set(ring):
    """The pair codes a*|right| + b of a subring of ring x right, sorted by
    `_distinct` and restricted to in the product, on both paths of
    `_distinct`: 0 x 0 in ring x zmod(64) takes the sort from order 3 on,
    ring x zmod(2) the scatter; then random ideals I x J."""
    rng = np.random.default_rng(ring.order + 7)
    cases = [(zmod(64), 0, 0), (zmod(2), -1, -1)]
    cases += [(right, None, None) for right in (zmod(2), zmod(64), ring) for _ in range(3)]
    paths = set()
    for right, i, j in cases:
        left_ideals, right_ideals = all_ideals(ring), all_ideals(right)
        I = left_ideals[rng.integers(len(left_ideals)) if i is None else i]
        J = right_ideals[rng.integers(len(right_ideals)) if j is None else j]
        pairs = _ideal_pairs(ring, right, I, J, rng)
        codes = _distinct(pairs[:, 0] * right.order + pairs[:, 1], ring.order * right.order)
        sub = restrict_to_subset(direct_product([ring, right]), codes, "subring", "sub")
        assert sub.order == I.size * J.size
        arr = np.stack(np.divmod(codes, right.order), axis=1)
        assert arr.tolist() == [list(p) for p in sorted(set(map(tuple, pairs.tolist())))]
        paths.add(ring.order * right.order <= 32 * len(pairs))
    assert paths == ({True, False} if ring.order >= 3 else {True})
