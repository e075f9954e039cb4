"""Ideals, quotients, localization, and modules against naive oracles."""

from __future__ import annotations

import numpy as np
import pytest

from finring import config
from finring.dsl_cli import _catalog_rings
from finring.errors import InvalidParameter, NotMultiplicativelyClosed
from finring.morphisms import (
    RingHom,
    _generators,
    enumerate_homs,
    first_iso_witness,
    identity_hom,
    verify_iso,
)
from finring.rings import direct_product, galois_field, trunc_poly, zmod
from finring.subobjects import (
    all_ideals,
    ideal_as_rng,
    ideal_from_generators,
    ideal_product,
    is_maximal,
    is_prime,
    is_radical,
    localization,
    min_generating_set,
    module_min_generators,
    module_via_hom,
    nilradical,
    quotient_ring,
    regular_elements_mod,
    submodule_generated,
    subring_generated,
    unit_ideal,
    validate_module,
    zero_ideal,
)

from oracles import (
    all_ideals_closure,
    coset_partition,
    first_min_generators,
    fraction_class_count,
    ideal_closure,
    min_generator_size,
    nilpotent_set,
    regular_mod,
)


def test_ideal_closure_matches_naive_worklist():
    r = direct_product([zmod(2), zmod(4)])
    for gens in ([], [1], [2], [5], [1, 4]):
        want = ideal_closure(r.add.tolist(), r.mul.tolist(), r.zero, gens)
        got = ideal_from_generators(r, gens)
        assert frozenset(got.indices.tolist()) == want


LATTICE_RINGS = [zmod(n) for n in range(1, 25)] + [
    direct_product([zmod(2), zmod(2)]),
    direct_product([zmod(2), zmod(4)]),
    direct_product([zmod(3), zmod(6)]),
    direct_product([zmod(2), zmod(2), zmod(2)]),
    trunc_poly(zmod(2), 1, 2),
    trunc_poly(zmod(2), 2, 1),
    trunc_poly(zmod(3), 1, 1),
    galois_field(8),
] + [ideal_as_rng(ideal_from_generators(zmod(n), [g]))[0] for n, g in ((8, 2), (16, 4), (18, 3))]


@pytest.mark.parametrize("ring", LATTICE_RINGS, ids=lambda r: r.name)
def test_all_ideals_matches_per_element_closure(ring):
    want = all_ideals_closure(ring.add.tolist(), ring.mul.tolist(), ring.zero)
    assert [frozenset(I.indices.tolist()) for I in all_ideals(ring)] == want
    assert [frozenset(I.indices.tolist()) for I in all_ideals(ring, cap=3)] == want[:3]


def test_ideal_lattice_of_z12():
    r = zmod(12)
    ideals = all_ideals(r)
    assert sorted(i.size for i in ideals) == [1, 2, 3, 4, 6, 12]
    # divisors of 12 name the ideals: (d) has 12/d elements
    for d in (1, 2, 3, 4, 6, 12):
        gen = ideal_from_generators(r, [d % 12])
        assert gen.size == 12 // d


def test_ideal_arithmetic_on_z12():
    r = zmod(12)
    two, three = ideal_from_generators(r, [2]), ideal_from_generators(r, [3])
    assert ideal_product(two, three).size == 2  # (6)
    assert ideal_product(two, two) != two       # (4)
    four = ideal_from_generators(r, [4])
    assert ideal_product(four, four) == four    # (4)^2 = (4)


def test_nilradical_of_z12():
    r = zmod(12)
    assert frozenset(nilradical(r).indices.tolist()) == nilpotent_set(
        r.mul.tolist(), 0
    )
    assert nilradical(r).size == 2  # {0, 6}


def test_prime_maximal_radical_on_z12():
    r = zmod(12)
    p2, p3 = ideal_from_generators(r, [2]), ideal_from_generators(r, [3])
    p4 = ideal_from_generators(r, [4])
    assert is_prime(p2) and is_prime(p3)
    assert is_maximal(p2) and is_maximal(p3)
    assert not is_prime(p4)
    assert is_radical(ideal_from_generators(r, [6]))
    assert not is_radical(p4)


def test_quotient_cosets_match_naive_partition():
    r = zmod(12)
    ideal = ideal_from_generators(r, [4])
    quotient, proj = quotient_ring(r, ideal)
    assert quotient.order == 4
    naive = coset_partition(r.add.tolist(), ideal.members.tolist(), 12)
    got = {frozenset(np.flatnonzero(proj.map == q).tolist())
           for q in range(quotient.order)}
    assert got == naive
    # the quotient of Z12 by (4) has characteristic 4 and order 4
    assert quotient.add[proj.map[1], proj.map[3]] == proj.map[0]


def test_localization_at_odds_of_z12():
    r = zmod(12)
    odds = np.array([1, 3, 5, 7, 9, 11])
    loc, lam = localization(r, odds)
    assert loc.order == fraction_class_count(r, odds.tolist()) == 4
    assert lam.domain is r and lam.codomain is loc
    # 4 is annihilated by the odd 3, so it dies; 3 has no odd annihilator
    assert lam.map[4] == loc.zero and lam.map[3] != loc.zero


def test_localization_rejects_set_without_closure():
    r = zmod(12)
    with pytest.raises(NotMultiplicativelyClosed):
        localization(r, np.array([2, 3]))


def test_regular_elements_mod_matches_naive():
    r = zmod(12)
    ideal = ideal_from_generators(r, [4])
    got = regular_elements_mod(r, ideal)
    want = regular_mod(r.add.tolist(), r.mul.tolist(),
                       ideal.members.tolist(), 12)
    assert got.tolist() == want
    assert got.size == 6  # the odd residues


@pytest.mark.parametrize("ring", [zmod(12), galois_field(4), direct_product([zmod(2), zmod(4)])],
                         ids=lambda r: r.name)
def test_quotient_by_zero_shares_the_ring_tables(ring):
    quotient, proj = quotient_ring(ring, zero_ideal(ring))
    assert quotient.add is ring.add and quotient.mul is ring.mul
    assert quotient.labels == tuple(f"[{label}]" for label in ring.labels)
    assert quotient != ring
    assert proj.map.tolist() == list(range(ring.order))


@pytest.mark.parametrize("ring", [
    zmod(1), zmod(12), galois_field(4), direct_product([zmod(2), zmod(4)]),
    trunc_poly(zmod(2), 1, 2), ideal_as_rng(ideal_from_generators(zmod(8), [2]))[0],
], ids=lambda r: r.name)
def test_regular_elements_mod_matches_its_definition_for_every_ideal(ring):
    # s qualifies when its class is nonzero and no zero divisor, or when
    # ring/I is the zero ring
    n, mul = ring.order, ring.mul.tolist()
    for ideal in all_ideals(ring):
        inside = ideal.members.tolist()
        want = [s for s in range(n) if all(inside) or (
            not inside[s] and all(inside[y] for y in range(n) if inside[mul[s][y]]))]
        assert regular_elements_mod(ring, ideal).tolist() == want


def test_star_import_binds_every_public_name():
    names = (
        "Amalgam", "DottedSum", "FiniteRng", "FinringError", "Ideal", "Idealization",
        "RingHom", "Subrng", "VerificationReport", "all_ideals", "amalgam",
        "canonical_isos", "cpi_ideal", "cpi_prime", "d_plus_m", "direct_product",
        "domain_criterion_check", "dorroh", "dorroh_check", "dotted_sum",
        "dotted_transport", "duplication", "enumerate_homs", "evaluate", "find_iso",
        "find_section", "from_tables", "galois_field", "generate_catalog", "guard_limit",
        "ideal_from_generators", "identity_hom", "kernel", "localization", "main",
        "n_amalgam", "nagata_idealization", "nilradical", "noetherian_report",
        "noetherian_verdict_xjx", "parse", "pullback", "quotient_ring",
        "reduced_criterion_check", "reports_to_json", "retraction_criterion_check",
        "same_amalgam", "set_size_guard", "size_guard", "subring_generated", "trunc_poly",
        "trunc_poly_amalgam", "verify_iso", "zmod",
    )
    namespace: dict = {}
    exec("from finring import *", namespace)
    assert [name for name in names if name not in namespace] == []
    assert "annotations" not in namespace


def test_all_ideals_of_product_ring():
    r = direct_product([zmod(2), zmod(2)])
    ideals = all_ideals(r)
    assert len(ideals) == 4  # 0, Z2 x 0, 0 x Z2, everything
    assert sorted(i.size for i in ideals) == [1, 2, 2, 4]


def test_subring_generated_contains_one_and_closes():
    r = trunc_poly(zmod(4), 1, 1)
    prime = subring_generated(r, [])
    assert prime.size == 4  # multiples of 1
    full = subring_generated(r, [r.index_of("X")])
    assert full.size == 16


def test_module_via_hom_refuses_a_map_whose_one_does_not_act_as_one():
    # f: Z/2 -> Z/2 x Z/2 with f(1) = (1,0) is a non-unital hom, and on the
    # unit ideal 1.(0,1) = (1,0)(0,1) = 0; on the ideal of (1,0), 1 acts as 1
    p = direct_product([zmod(2), zmod(2)])
    f = RingHom(zmod(2), p, [p.zero, p.index_of("(1,0)")], unital=False)
    with pytest.raises(InvalidParameter, match=r"^hom action does not give a "
                       r"module: one_acts_as_identity at \(\(0,1\)\)$"):
        module_via_hom(f, unit_ideal(p))
    assert validate_module(module_via_hom(f, ideal_from_generators(p, ["(1,0)"]))).ok


def test_module_via_hom_agrees_with_the_full_module_scan():
    # every hom, unital or not, between small rings, along every ideal of
    # its codomain: refused exactly when f(1) moves an element of J, and
    # otherwise a module that the full axiom scan accepts
    rings = [zmod(2), zmod(4), zmod(6), direct_product([zmod(2), zmod(2)]),
             trunc_poly(zmod(2), 1, 1)]
    cases = 0
    for A in rings:
        for B in rings:
            for f in enumerate_homs(A, B, unital=False):
                for J in all_ideals(B):
                    moves = (B.mul[f.map[A.one], J.indices] != J.indices).any()
                    if moves:
                        with pytest.raises(InvalidParameter):
                            module_via_hom(f, J)
                    else:
                        assert validate_module(module_via_hom(f, J)).ok
                    cases += 1
    assert cases > 100


def test_submodule_closure_needs_multiple_passes():
    # generator 1 reaches all of Z8 only after repeated additive steps;
    # this must terminate and cover everything
    r = zmod(8)
    m = module_via_hom(identity_hom(r), unit_ideal(r))
    mask = submodule_generated(m, [1])
    assert mask.all()
    sub = submodule_generated(m, [2])
    assert sorted(np.flatnonzero(sub).tolist()) == [0, 2, 4, 6]


def test_module_min_generators_matches_brute_force():
    # every ideal of Z/n as a module over Z/n, n = 2..16
    for n in range(2, 17):
        r = zmod(n)
        for ideal in all_ideals(r):
            m = module_via_hom(identity_hom(r), ideal)
            search = module_min_generators(m)
            want = min_generator_size(m.add.tolist(), m.action.tolist(), m.zero)
            assert search.minimal
            assert len(search.indices) == want, (n, ideal.labels())
            assert submodule_generated(m, search.indices).all()


@pytest.mark.parametrize("include_one", [True, False])
def test_generator_seed_phase_returns_the_first_minimum_seed(include_one):
    # every roster ring of order <= 16 stays inside the seed budget
    for name, _, ring in _catalog_rings(16):
        search = min_generating_set(
            lambda seed: subring_generated(ring, seed, include_one).members)
        fixed = [ring.zero] + ([ring.one] if include_one and ring.has_one else [])
        want = first_min_generators(ring.add.tolist(), ring.mul.tolist(), fixed)
        assert search.minimal, name
        assert search.indices == want == _generators(ring, include_one), name


@pytest.mark.parametrize("kind", ["subrng", "module"])
def test_generator_search_past_its_budget_adds_the_least_missing_element(
        monkeypatch, kind):
    # (Z/2)^4 as a subrng over 1, and as a module over Z/2 through the
    # diagonal, which no fewer than 4 elements generate. Three seeds fit
    # the budget, and no single element generates either.
    p, r2 = direct_product([zmod(2)] * 4), zmod(2)
    m = module_via_hom(RingHom(r2, p, [p.zero, p.one]), unit_ideal(p))
    generated = {"subrng": lambda seed: subring_generated(p, seed).members,
                 "module": lambda seed: submodule_generated(m, seed)}[kind]
    monkeypatch.setattr(config, "DEFAULT_SUBSET_CELLS", 3 * p.order)
    search = min_generating_set(generated)
    assert not search.minimal
    assert generated(search.indices).all()
    for k, g in enumerate(search.indices):
        assert g == int(np.argmin(generated(search.indices[:k])))
    assert len(search.indices) <= int(np.log2(p.order))
    assert search.indices == {"subrng": (1, 2, 4), "module": (1, 2, 4, 8)}[kind]


def test_first_isomorphism_witness_for_z12_mod_4():
    r = zmod(12)
    _, proj = quotient_ring(r, ideal_from_generators(r, [4]))
    fi = first_iso_witness(proj)
    assert fi.valid
    assert fi.quotient.order == 4
    assert verify_iso(fi.iso)


def test_zero_and_unit_ideals():
    r = zmod(6)
    assert zero_ideal(r).size == 1 and zero_ideal(r).is_zero
    assert unit_ideal(r).size == 6
    assert not is_prime(unit_ideal(r))
    # the whole ring as a rng is the ring itself, not a copy
    assert ideal_as_rng(unit_ideal(r))[0] is r
