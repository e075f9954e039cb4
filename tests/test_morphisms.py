"""Homs, enumeration, sections, and isomorphism search against brute force."""

from __future__ import annotations

import functools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finring import config, morphisms
from finring.errors import AmbientMismatch, MalformedMap
from finring.morphisms import (
    HomSearch,
    RingHom,
    complete_hom,
    compose,
    corestrict,
    enumerate_homs,
    find_iso,
    find_section,
    identity_hom,
    image,
    kernel,
    verify_iso,
)
from finring.rings import direct_product, from_tables, galois_field, trunc_poly, zmod
from finring.subobjects import ideal_as_rng, ideal_from_generators, quotient_ring

from oracles import all_homs_brute, complete_hom_worklist, search_worklist

Z2 = zmod(2)
# unital rings plus two rngs without identity, all small enough for the worklist
RINGS = [zmod(n) for n in range(1, 13)] + [galois_field(q) for q in (4, 8, 9)] + [
    direct_product([Z2, Z2]),
    direct_product([Z2, zmod(4)]),
    direct_product([Z2, zmod(3)]),
    trunc_poly(Z2, 1, 2),
    trunc_poly(zmod(3), 1, 1),
    trunc_poly(Z2, 2, 1),
    ideal_as_rng(ideal_from_generators(zmod(8), [2]))[0],
    ideal_as_rng(ideal_from_generators(zmod(12), [2]))[0],
]


def test_hom_validation_rejects_non_multiplicative_map():
    a, b = zmod(4), zmod(4)
    with pytest.raises(MalformedMap):
        RingHom(a, b, np.array([0, 3, 2, 1]))  # additive, not multiplicative


def test_hom_validation_rejects_non_unital_map():
    a = zmod(2)
    with pytest.raises(MalformedMap):
        RingHom(a, a, np.array([0, 0]))


def test_enumerate_homs_matches_brute_force_on_small_rings():
    cases = [
        (zmod(4), zmod(2)),
        (zmod(2), zmod(4)),
        (zmod(2), zmod(2)),
        (direct_product([zmod(2), zmod(2)]), zmod(2)),
        (trunc_poly(zmod(2), 1, 1), trunc_poly(zmod(2), 1, 1)),
    ]
    for a, b in cases:
        want = sorted(all_homs_brute(a, b))
        got = sorted(tuple(int(x) for x in h.map)
                     for h in enumerate_homs(a, b))
        assert got == want


def test_expected_hom_counts():
    assert len(enumerate_homs(zmod(4), zmod(2))) == 1
    assert len(enumerate_homs(zmod(2), zmod(4))) == 0
    assert len(enumerate_homs(zmod(6), zmod(6))) == 1
    p22 = direct_product([zmod(2), zmod(2)])
    assert len(enumerate_homs(p22, p22)) == 4


def test_enumerate_homs_reports_a_budget_cut():
    # all four images of the one generator of Z2 x Z2 give a hom
    p22 = direct_product([zmod(2), zmod(2)])
    cut = enumerate_homs(p22, p22, cap=4, budget=3)
    assert not cut.exhausted and cut.tried == 4 and len(cut) == 3
    assert cut[:2] == cut.homs[:2] and cut.hom is cut[0]
    # uncapped, the four assignments cannot fit, so none is completed
    refused = enumerate_homs(p22, p22, budget=3)
    assert not refused.exhausted and refused.tried == 0 and not refused.found
    assert refused.reason == "needs 4 assignments, over the budget of 3"


def test_kernel_and_image_of_reduction():
    h = enumerate_homs(zmod(12), zmod(4))[0]
    k = kernel(h)
    assert sorted(k.indices.tolist()) == [0, 4, 8]
    assert image(h).size == 4
    assert h.is_surjective and not h.is_injective


def test_compose_and_corestrict():
    r12, r4, r2 = zmod(12), zmod(4), zmod(2)
    f = enumerate_homs(r12, r4)[0]
    g = enumerate_homs(r4, r2)[0]
    gf = compose(g, f)
    assert np.array_equal(gf.map, g.map[f.map])
    co, embed = corestrict(f)
    assert co.is_surjective and co.codomain.order == 4
    assert np.array_equal(embed.map[co.map], f.map)


def test_compose_rejects_mismatched_rings():
    f = identity_hom(zmod(4))
    g = identity_hom(zmod(2))
    with pytest.raises(AmbientMismatch):
        compose(g, f)


def test_verify_iso_accepts_only_bijective_homs():
    r = zmod(4)
    assert verify_iso(identity_hom(r))
    h = enumerate_homs(zmod(12), r)[0]
    assert not verify_iso(h)


def test_find_iso_between_isomorphic_presentations():
    r = zmod(12)
    q, _ = quotient_ring(r, ideal_from_generators(r, [4]))
    search = find_iso(q, zmod(4))
    assert search.found
    assert verify_iso(search.hom)
    # 1 generates Z6, so the search completes the one forced map
    forced = find_iso(_fresh(zmod(6), "x"), _fresh(zmod(6), "y"))
    assert forced.found and forced.tried == 1 and verify_iso(forced.hom)


def _fresh(ring, prefix):
    # labels no other test uses keep the copy distinct from every ring built
    # before, so no structural equality can reach it
    return from_tables(ring.add, ring.mul, ring.zero,
                       labels=[f"{prefix}{i}" for i in range(ring.order)])


def _iso_search():
    # (Z2)^2 needs a generator beyond 1, so the search runs
    z = direct_product([Z2, Z2])
    a, b = _fresh(z, "u"), _fresh(z, "v")
    search = find_iso(a, b)
    assert search.found and search.reason == "found by generator search"
    return [a, b], search


def _section_search():
    # (Z2)^3 -> (Z2)^2, forgetting the last factor; the section caches a
    # completion program on its domain
    d, c = _fresh(direct_product([Z2] * 3), "s"), _fresh(direct_product([Z2] * 2), "t")
    search = find_section(RingHom(d, c, np.arange(8) // 2))
    assert search.found
    return [d, c], search


def _quotient():
    r = _fresh(zmod(12), "q")
    q, proj = quotient_ring(r, ideal_from_generators(r, ["q4"]))
    assert quotient_ring(r, ideal_from_generators(r, ["q8"])) == (q, proj)
    return [r, q], proj


@pytest.mark.parametrize("run", [_iso_search, _section_search, _quotient],
                         ids=["find_iso", "find_section", "quotient_ring"])
def test_caches_leave_no_reference_to_their_rings(run):
    rings, result = run()
    refs = [weakref.ref(r) for r in rings]
    del rings, result
    assert [ref() for ref in refs] == [None, None]


@functools.cache
def _homs(i: int, j: int, unital: bool) -> list[np.ndarray]:
    return [h.map for h in enumerate_homs(RINGS[i], RINGS[j], unital=unital, cap=4)]


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_complete_hom_matches_worklist(data):
    i = data.draw(st.integers(0, len(RINGS) - 1), label="A")
    j = data.draw(st.integers(0, len(RINGS) - 1), label="B")
    A, B = RINGS[i], RINGS[j]
    unital = A.has_one and B.has_one and data.draw(st.booleans(), label="unital")
    keys = data.draw(st.lists(st.integers(0, A.order - 1), max_size=3, unique=True),
                     label="keys")
    homs = _homs(i, j, unital)
    if homs and data.draw(st.booleans(), label="from a hom"):
        # images of a real hom, so that completions succeed too
        h = data.draw(st.sampled_from(homs), label="hom")
        images = {k: int(h[k]) for k in keys}
    else:
        images = {k: data.draw(st.integers(0, B.order - 1), label="image") for k in keys}
    got, = complete_hom(A, B, tuple(images), [tuple(images.values())], unital)
    want = complete_hom_worklist(A, B, images, unital)
    assert (None if got is None else got.tolist()) == want


def _oracle_search(A, B, gens, choices, unital, budget, cap=None, accept=None,
                   injective=False):
    """`morphisms._search` one assignment at a time, on the worklist oracle."""
    def hom(m):
        return RingHom(A, B, m, unital=unital, check=False)

    maps, exhausted, tried, reason = search_worklist(
        A, B, gens, [list(c) for c in choices], unital,
        config.DEFAULT_SEARCH_BUDGET if budget is None else budget, cap,
        None if accept is None else (lambda m: accept(hom(m))), injective)
    return HomSearch(tuple(map(hom, maps)), exhausted, tried, reason)


def _permuted(ring, seed):
    """The same ring with its elements listed in a shuffled order."""
    perm = np.random.default_rng(seed).permutation(ring.order)
    inv = np.argsort(perm)
    return from_tables(inv[ring.add[np.ix_(perm, perm)]], inv[ring.mul[np.ix_(perm, perm)]],
                       int(inv[ring.zero]), name=f"perm({ring.name})")


Z0 = zmod(1)
P8 = trunc_poly(Z2, 2, 1)  # two generators, 64 assignments into itself
F8, F9 = galois_field(8), galois_field(9)
E8 = ideal_as_rng(ideal_from_generators(zmod(8), [2]))[0]  # no identity
Z2Z2, Z2Z4 = direct_product([Z2, Z2]), direct_product([Z2, zmod(4)])
SEARCHES = [
    # (search domain, call taking budget and cap); find_* always cap at 1
    (P8, lambda b, c: enumerate_homs(P8, P8, cap=c, budget=b)),
    (P8, lambda b, c: enumerate_homs(P8, P8, unital=False, cap=c, budget=b)),
    (E8, lambda b, c: enumerate_homs(E8, zmod(8), unital=False, cap=c, budget=b)),
    (Z2Z4, lambda b, c: enumerate_homs(Z2Z4, trunc_poly(Z2, 1, 2), cap=c, budget=b)),
    (Z0, lambda b, c: enumerate_homs(Z0, Z0, cap=c, budget=b)),
    (Z0, lambda b, c: enumerate_homs(Z0, zmod(3), cap=c, budget=b)),
    (Z0, lambda b, c: enumerate_homs(Z0, zmod(3), unital=False, cap=c, budget=b)),
    (P8, lambda b, c: find_iso(P8, _permuted(P8, 1), budget=b)),
    (F8, lambda b, c: find_iso(F8, _permuted(F8, 2), budget=b)),  # hit on the 3rd
    (F9, lambda b, c: find_iso(F9, _permuted(F9, 1), budget=b)),  # hit on the 6th
    (Z2Z4, lambda b, c: find_iso(Z2Z4, direct_product([zmod(4), Z2]), budget=b)),
    (Z2Z2, lambda b, c: find_section(RingHom(Z2Z2, Z2, [0, 1, 0, 1]), budget=b)),
    (P8, lambda b, c: find_section(RingHom(direct_product([P8, P8]), P8, np.arange(64) // 8),
                                   budget=b)),
    (zmod(3), lambda b, c: find_section(enumerate_homs(zmod(6), zmod(3))[0], budget=b)),
    # Z2[X]/(X^3) onto Z2[X]/(X^2): neither lift of X squares to 0
    (trunc_poly(Z2, 1, 1), lambda b, c: find_section(
        RingHom(trunc_poly(Z2, 1, 2), trunc_poly(Z2, 1, 1), np.arange(8) // 2), budget=b)),
]


@pytest.mark.parametrize("domain, search", SEARCHES, ids=range(len(SEARCHES)))
def test_batched_search_matches_one_assignment_oracle(domain, search, monkeypatch):
    for budget in [*range(10), 63, 64, 65, None]:
        for cap in (None, 1, 2, 8):
            with monkeypatch.context() as m:
                m.setattr(morphisms, "_search", _oracle_search)
                want = search(budget, cap)
            for rows in (1, 2, 3, None):
                cells = morphisms._BATCH_CELLS if rows is None else rows * domain.order
                with monkeypatch.context() as m:
                    m.setattr(morphisms, "_BATCH_CELLS", cells)
                    assert search(budget, cap) == want, (budget, cap, rows)


def test_find_iso_distinguishes_non_isomorphic_rings():
    a = direct_product([zmod(2), zmod(2)])
    certain = find_iso(a, zmod(4))
    assert not certain.found and certain.exhausted
    b = trunc_poly(zmod(2), 1, 1)
    ruled_out = find_iso(b, galois_field(4))
    assert not ruled_out.found and ruled_out.exhausted


def test_find_section_of_product_projection():
    # the first projection of Z2 x Z2 splits through the diagonal, while
    # Z4 -> Z2 admits no unital section at all
    p22, r2 = direct_product([zmod(2), zmod(2)]), zmod(2)
    p = enumerate_homs(p22, r2)[0]
    hit = find_section(p)
    assert hit.found
    assert np.array_equal(p.map[hit.hom.map], np.arange(2))

    q = enumerate_homs(zmod(4), r2)[0]
    miss = find_section(q)
    assert not miss.found and miss.exhausted


def test_no_unital_section_for_z6_onto_z3():
    # s(1) = 1 would force 3*1 = 0 in Z6, so the splitting of abelian
    # groups does not lift to unital rings; the search certifies this
    p = enumerate_homs(zmod(6), zmod(3))[0]
    res = find_section(p)
    assert not res.found and res.exhausted
    # Z3 has no generator beyond 1: the one forced map is the only candidate
    assert res.tried == 1
