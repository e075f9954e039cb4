"""Property-based coverage of the structural invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from finring.amalgamation import (
    amalgam,
    dotted_transport,
    duplication,
    pull_identity_check,
    reduced_criterion_check,
    same_amalgam,
)
from finring.dsl_cli import parse
from finring.morphisms import (
    RingHom,
    enumerate_homs,
    identity_hom,
    kernel,
    validate_hom,
    verify_iso,
)
from finring.reports import PASS
from finring.rings import direct_product, galois_field, trunc_poly, zmod
from finring.subobjects import (
    all_ideals,
    ideal_as_rng,
    ideal_from_generators,
    ideal_product,
    quotient_ring,
)
from finring.constructions import noetherian_verdict_xjx
from finring.subobjects import subring_generated

from oracles import amalgam_pairs, ideal_closure, nilpotent_set

MODULI = st.integers(min_value=2, max_value=12)

# unital rings, then rngs without 1: the ideals (2) of Z/8, (4) of Z/16 and
# (3) of Z/18 as rngs of their own
IDEAL_RINGS = [zmod(n) for n in range(1, 13)] + [
    direct_product([zmod(2), zmod(4)]),
    direct_product([zmod(2), zmod(3), zmod(2)]),
    trunc_poly(zmod(2), 1, 2),
    trunc_poly(zmod(2), 2, 1),
    galois_field(8),
] + [ideal_as_rng(ideal_from_generators(zmod(n), [g]))[0] for n, g in ((8, 2), (16, 4), (18, 3))]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_ideal_closure_is_ideal_and_matches_naive(data):
    r = data.draw(st.sampled_from(IDEAL_RINGS), label="ring")
    gens = data.draw(st.lists(st.integers(0, r.order - 1), max_size=3), label="gens")
    ideal = ideal_from_generators(r, gens)
    naive = ideal_closure(r.add.tolist(), r.mul.tolist(), r.zero, gens)
    assert frozenset(ideal.indices.tolist()) == naive
    # closed under addition and absorbing
    idx = ideal.indices
    assert ideal.members[r.add[np.ix_(idx, idx)]].all()
    assert ideal.members[r.mul[:, idx]].all()


@settings(deadline=None, max_examples=40)
@given(MODULI, st.integers(min_value=0, max_value=11))
def test_lagrange_for_quotients(n, g):
    r = zmod(n)
    ideal = ideal_from_generators(r, [g % n])
    quotient, proj = quotient_ring(r, ideal)
    assert quotient.order * ideal.size == r.order
    assert proj.is_surjective
    assert kernel(proj).size == ideal.size


@settings(deadline=None, max_examples=30)
@given(MODULI, st.integers(min_value=0, max_value=11))
def test_duplication_order_law_and_set(n, g):
    r = zmod(n)
    ideal = ideal_from_generators(r, [g % n])
    am = duplication(r, ideal)
    assert am.ring.order == n * ideal.size
    want = amalgam_pairs(list(range(n)), r.add.tolist(),
                         ideal.indices.tolist())
    assert frozenset(map(tuple, am.pairs.tolist())) == want


@settings(deadline=None, max_examples=30)
@given(MODULI, st.integers(min_value=0, max_value=11))
def test_pull_identity_everywhere(n, g):
    r = zmod(n)
    am = duplication(r, ideal_from_generators(r, [g % n]))
    assert pull_identity_check(am).status == PASS


@settings(deadline=None, max_examples=30)
@given(MODULI, st.integers(min_value=0, max_value=11))
def test_reduced_criterion_matches_naive_everywhere(n, g):
    r = zmod(n)
    am = duplication(r, ideal_from_generators(r, [g % n]))
    rep = reduced_criterion_check(am)
    assert rep.status == PASS
    naive = nilpotent_set(am.ring.mul.tolist(), am.ring.zero) == frozenset(
        {am.ring.zero}
    )
    assert rep.witness("amalgam_reduced") == str(naive)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4))
def test_same_amalgam_under_projections(a, b):
    r = direct_product([zmod(a), zmod(b)])
    homs = enumerate_homs(r, r, cap=6)
    ideal = ideal_from_generators(r, [r.index_of("(1,0)")])
    for g in homs:
        rep = same_amalgam(identity_hom(r), g, ideal)
        assert rep.status == PASS
        # equivalence re-stated naively
        agree = all(
            ideal.members[r.sub(np.arange(r.order), g.map)].tolist()
        )
        sets_equal = rep.witness("element_sets_equal") == "True"
        assert agree == sets_equal


@settings(deadline=None, max_examples=20)
@given(MODULI, st.integers(min_value=0, max_value=11))
def test_noetherian_verdicts_differ_only_for_non_idempotent(n, g):
    # sound direction: when the verdicts for J and J*J differ, J cannot be
    # idempotent (the converse fails, so only this direction is asserted)
    r = zmod(n)
    j = ideal_from_generators(r, [g % n])
    j2 = ideal_product(j, j)
    sub = subring_generated(r, [])
    v1 = noetherian_verdict_xjx(sub, r, j).witness(
        "constrained_variable_ring_noetherian"
    )
    v2 = noetherian_verdict_xjx(sub, r, j2).witness(
        "constrained_variable_ring_noetherian"
    )
    if v1 != v2:
        assert j2 != j


NAME = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@settings(deadline=None, max_examples=40)
@given(NAME, MODULI, st.lists(st.integers(min_value=0, max_value=11),
                              min_size=1, max_size=3))
def test_parse_render_round_trip_generated_scripts(name, n, gens):
    gen_list = ", ".join(str(g % n) for g in gens)
    text = (
        f"ring {name} = zmod({n});\n"
        f"ideal {name}_j = gen({name}; {gen_list});\n"
        f"check cardinality(dup({name}, {name}_j));\n"
    )
    script = parse(text)
    assert script.render() == text
    assert parse(script.render()) == script


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=2, max_value=8))
def test_amalgam_kernels_of_projections(n):
    # amalgam() builds its maps unchecked; the invariants its construction
    # guarantees are checked here, along the identity (duplication) and along
    # the non-identity reduction Z/2n -> Z/n
    r = zmod(n)
    reduction = RingHom(zmod(2 * n), r, np.arange(2 * n) % n)
    for f in (identity_hom(r), reduction):
        for ideal in all_ideals(r):
            am = amalgam(f, ideal)
            for m in (am.embed, am.proj_base, am.proj_target):
                assert validate_hom(m).ok
            assert am.ring.order == f.domain.order * ideal.size
            pairs = [tuple(p) for p in am.pairs.tolist()]
            k_left = {pairs[i] for i in kernel(am.proj_base).indices}
            assert k_left == {(0, j) for j in ideal.indices.tolist()}
            k_right = {pairs[i] for i in kernel(am.proj_target).indices}
            assert k_right == {(a, 0) for a in range(f.domain.order)
                               if ideal.members[f.map[a]]}
            assert verify_iso(dotted_transport(am)[1])
