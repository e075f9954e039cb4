"""Amalgam constructions and their verification ops against naive sets."""

from __future__ import annotations

import numpy as np
import pytest

import finring.amalgamation
import finring.rings
from finring import morphisms
from finring.amalgamation import (
    alt_pullback_checks,
    amalgam,
    canonical_isos,
    domain_criterion_check,
    dorroh,
    dorroh_check,
    dotted_sum,
    duplication,
    factor_check,
    image_plus_ideal,
    image_plus_ideal_check,
    iter_iso_check,
    kernel_identity_check,
    n_amalgam,
    pull_identity_check,
    pullback,
    pullback_reduced_check,
    reduced_converse_search,
    reduced_criterion_check,
    retraction_criterion_check,
    retraction_roundtrip,
    same_amalgam,
    split_sequence_check,
)
from finring.dsl_cli import evaluate, parse
from finring.errors import (
    FinringError,
    HypothesisViolated,
    InvalidParameter,
    MalformedTable,
)
from finring.morphisms import RingHom, enumerate_homs, identity_hom, validate_hom, verify_iso
from finring.reports import FAIL, HYPOTHESIS_NOT_MET, PASS
from finring.rings import FiniteRng, direct_product, is_reduced, trunc_poly, zmod
from finring.subobjects import (
    ideal_as_rng,
    ideal_from_generators,
    unit_ideal,
    zero_ideal,
)

from oracles import (
    amalgam_pairs,
    fiber_product_via_flat_codes,
    is_domain,
    n_amalgam_via_flat_codes,
    n_amalgam_via_power,
    nilpotent_set,
    pullback_pairs,
    trunc_poly_tables,
    zmod_tables,
)
from test_guard import guard_run, reads, witnesses


def _pairs_set(am):
    return frozenset(map(tuple, am.pairs.tolist()))


def test_duplication_element_set_matches_naive():
    r = zmod(4)
    ideal = ideal_from_generators(r, [2])
    am = duplication(r, ideal)
    want = amalgam_pairs(list(range(4)), r.add.tolist(), ideal.indices.tolist())
    assert _pairs_set(am) == want
    assert am.ring.order == 8


def test_amalgam_along_reduction_matches_naive():
    f = enumerate_homs(zmod(4), zmod(2))[0]
    j = unit_ideal(zmod(2))
    am = amalgam(f, j)
    want = amalgam_pairs(f.map.tolist(), zmod(2).add.tolist(),
                         j.indices.tolist())
    assert _pairs_set(am) == want
    assert am.ring.order == 8


def test_amalgam_tables_are_componentwise():
    r = zmod(6)
    am = duplication(r, ideal_from_generators(r, [2]))
    pairs = am.pairs
    pos = {tuple(p): i for i, p in enumerate(pairs.tolist())}
    for i, (a, b) in enumerate(pairs.tolist()):
        for k, (c, d) in enumerate(pairs.tolist()):
            assert am.ring.add[i, k] == pos[(r.add[a, c], r.add[b, d])]
            assert am.ring.mul[i, k] == pos[(r.mul[a, c], r.mul[b, d])]


def test_amalgam_requires_matching_ambient():
    f = identity_hom(zmod(4))
    wrong = ideal_from_generators(zmod(6), [2])
    with pytest.raises(FinringError):
        amalgam(f, wrong)


def test_duplication_by_zero_ideal_is_graph():
    r = zmod(6)
    am = duplication(r, zero_ideal(r))
    assert am.ring.order == 6
    assert _pairs_set(am) == frozenset((a, a) for a in range(6))


def test_reduced_criterion_on_known_instances():
    r4 = zmod(4)
    am4 = duplication(r4, ideal_from_generators(r4, [2]))
    rep4 = reduced_criterion_check(am4)
    assert rep4.status == PASS
    assert rep4.witness("amalgam_reduced") == "False"
    naive = nilpotent_set(am4.ring.mul.tolist(), am4.ring.zero)
    assert len(naive) > 1  # the pair (0, 2) squares to zero

    r6 = zmod(6)
    am6 = duplication(r6, ideal_from_generators(r6, [2]))
    rep6 = reduced_criterion_check(am6)
    assert rep6.status == PASS
    assert rep6.witness("amalgam_reduced") == "True"
    assert am6.ring.order == 18
    assert is_reduced(am6.ring)


def test_reduced_criterion_agrees_with_naive_on_sample():
    rings = [zmod(4), zmod(6), zmod(8), zmod(9),
             direct_product([zmod(2), zmod(2)])]
    for r in rings:
        for gen in range(r.order):
            ideal = ideal_from_generators(r, [gen])
            am = duplication(r, ideal)
            rep = reduced_criterion_check(am)
            assert rep.status == PASS
            naive_reduced = nilpotent_set(
                am.ring.mul.tolist(), am.ring.zero
            ) == frozenset({am.ring.zero})
            assert rep.witness("amalgam_reduced") == str(naive_reduced)


def test_domain_criterion_needs_nonzero_ideal():
    r = zmod(4)
    rep = domain_criterion_check(duplication(r, zero_ideal(r)))
    assert rep.status == HYPOTHESIS_NOT_MET


def test_domain_criterion_equivalence_with_naive_sides():
    r = zmod(6)
    ideal = ideal_from_generators(r, [3])
    am = duplication(r, ideal)
    rep = domain_criterion_check(am)
    assert rep.status == PASS
    assert rep.witness("equivalence_holds") == "True"
    lhs = is_domain(am.ring.mul.tolist(), am.ring.zero, am.ring.one)
    assert rep.witness("amalgam_is_domain") == str(lhs)


def test_pull_identity_matches_naive_pullback():
    r = zmod(12)
    ideal = ideal_from_generators(r, [3])
    am = duplication(r, ideal)
    rep = pull_identity_check(am)
    assert rep.status == PASS

    # naive: reduce both maps mod the ideal and collect agreeing pairs
    from finring.subobjects import quotient_ring

    quotient, proj = quotient_ring(r, ideal)
    want = pullback_pairs(proj.map[am.hom.map].tolist(), proj.map.tolist())
    assert _pairs_set(am) == want


@pytest.mark.parametrize("left, right, over", [
    ("zmod(4)", "zmod(2)", "zmod(2)"),
    ("zmod(6)", "zmod(4)", "zmod(2)"),
    ("zmod(6)", "zmod(3)", "zmod(3)"),
    ("P22", "zmod(4)", "zmod(2)"),
    # the diagonal zmod(2) -> P22 misses (0,1) and (1,0), so the elements of
    # the other side over those two lie in no pair
    ("zmod(2)", "P22", "P22"),
    ("P22", "zmod(2)", "P22"),
])
def test_pullback_construction_matches_naive(left, right, over):
    """For every pair of unital homs into `over`, the pairs are the naive
    solutions in lexicographic order, and both projections are homs."""
    rings = {"P22": direct_product([zmod(2), zmod(2)]),
             **{f"zmod({n})": zmod(n) for n in range(2, 7)}}
    alphas = enumerate_homs(rings[left], rings[over])
    betas = enumerate_homs(rings[right], rings[over])
    assert len(alphas) and len(betas)
    for alpha in alphas:
        for beta in betas:
            pb = pullback(alpha, beta)
            want = sorted(pullback_pairs(alpha.map.tolist(), beta.map.tolist()))
            assert list(map(tuple, pb.pairs.tolist())) == want
            assert validate_hom(pb.proj_left).ok and validate_hom(pb.proj_right).ok


def test_kernel_identity_check_passes():
    p22, r2 = direct_product([zmod(2), zmod(2)]), zmod(2)
    alpha = enumerate_homs(p22, r2)[0]
    beta = enumerate_homs(zmod(4), r2)[0]
    rep = kernel_identity_check(alpha, beta)
    assert rep.status == PASS and rep.witness("kernel_matches") == "True"


def test_factor_check_positive_and_negative():
    r4, r2 = zmod(4), zmod(2)
    f = enumerate_homs(r4, r2)[0]
    pos = factor_check(f, identity_hom(r2), f)
    assert pos.status == PASS
    assert pos.witness("alpha_factors_through_beta") == "True"

    p22 = direct_product([zmod(2), zmod(2)])
    proj1, proj2 = enumerate_homs(p22, r2)
    neg = factor_check(proj1, identity_hom(r2), proj2)
    assert neg.status == PASS
    assert neg.witness("alpha_factors_through_beta") == "False"
    assert neg.witness("no_ideal_matches") == "True"


def test_same_amalgam_equivalence_both_ways():
    p22 = direct_product([zmod(2), zmod(2)])
    ideal = ideal_from_generators(p22, [p22.index_of("(1,0)")])
    collapse = next(h for h in enumerate_homs(p22, p22)
                    if h.map.tolist() == [0, 3, 0, 3])  # (x, y) -> (y, y)

    agree = same_amalgam(identity_hom(p22), collapse, ideal)
    assert agree.status == PASS
    assert agree.witness("difference_lands_in_ideal") == "True"
    assert agree.witness("element_sets_equal") == "True"
    assert agree.witness("homs_equal") == "False"

    # naive cross-check of the set equality
    s1 = amalgam_pairs(list(range(4)), p22.add.tolist(), ideal.indices.tolist())
    s2 = amalgam_pairs(collapse.map.tolist(), p22.add.tolist(),
                       ideal.indices.tolist())
    assert s1 == s2

    swap = next(h for h in enumerate_homs(p22, p22)
                if h.map.tolist() == [0, 2, 1, 3])
    differ = same_amalgam(identity_hom(p22), swap, ideal)
    assert differ.status == PASS
    assert differ.witness("difference_lands_in_ideal") == "False"
    assert differ.witness("element_sets_equal") == "False"


def test_counterexamples_that_read_the_failure_are_built_only_on_failure(monkeypatch):
    # A passing run must not read data that exists only on failure (the match
    # of `_find_presentation`, the first a outside the ideal), and a failing
    # run names it.
    r2, p22 = zmod(2), direct_product([zmod(2), zmod(2)])
    proj1, proj2 = enumerate_homs(p22, r2)
    beta = enumerate_homs(zmod(4), r2)[0]
    assert factor_check(proj1, identity_hom(r2), proj2).status == PASS
    assert retraction_criterion_check(identity_hom(r2), beta).status == PASS
    found = ideal_from_generators(r2, [1])
    monkeypatch.setattr(finring.amalgamation, "_find_presentation",
                        lambda homs, ideals, enc: ((proj2, found), 1))
    neg = factor_check(proj1, identity_hom(r2), proj2)
    assert (neg.status, neg.counterexample) == (
        FAIL, "no factorization, yet the pullback equals the amalgam along an "
              "ideal of size 2")
    cert = retraction_criterion_check(identity_hom(r2), beta)
    assert (cert.status, cert.counterexample) == (
        FAIL, "no section exists, yet the pullback is an amalgam along an ideal of size 2")

    ideal = ideal_from_generators(p22, [p22.index_of("(1,0)")])
    swap = next(h for h in enumerate_homs(p22, p22) if h.map.tolist() == [0, 2, 1, 3])
    monkeypatch.setattr(finring.amalgamation, "amalgam_pair_encoding",
                        lambda f, J: np.arange(3))  # every element set looks equal
    broken = same_amalgam(identity_hom(p22), swap, ideal)
    assert (broken.status, broken.counterexample) == (FAIL, "equivalence broken at a=(0,1)")
    collapse = next(h for h in enumerate_homs(p22, p22) if h.map.tolist() == [0, 3, 0, 3])
    monkeypatch.setattr(finring.amalgamation, "amalgam_pair_encoding",
                        lambda f, J: f.map)  # and now the homs' sets differ
    broken = same_amalgam(identity_hom(p22), collapse, ideal)
    assert (broken.status, broken.counterexample) == (
        FAIL, "sets differ yet differences lie in the ideal")


def test_n_amalgam_order_law_matches_naive_count():
    r = zmod(4)
    ideal = ideal_from_generators(r, [2])
    for n in (1, 2, 3):
        big = n_amalgam(identity_hom(r), ideal, n)
        assert big.ring.order == 4 * 2 ** n

    # naive n = 2 set: (a, (b1, b2)) with bi = a + ji
    naive = {
        (a, (r.add[a, j1], r.add[a, j2]))
        for a in range(4)
        for j1 in ideal.indices.tolist()
        for j2 in ideal.indices.tolist()
    }
    assert len(naive) == 16


def test_iter_iso_small_cases():
    r = zmod(4)
    ideal = ideal_from_generators(r, [2])
    for n, order in ((2, 16), (3, 32)):
        rep = iter_iso_check(identity_hom(r), ideal, n)
        assert rep.status == PASS
        assert rep.witness("witness_is_bijective_hom") == "True"
        assert rep.witness("left_order") == str(order)
    with pytest.raises(HypothesisViolated):
        iter_iso_check(identity_hom(r), ideal, 1)


def _n_amalgam_bases():
    z4, z6, z8 = zmod(4), zmod(6), zmod(8)
    p23 = direct_product([zmod(2), zmod(3)])
    t = trunc_poly(zmod(2), 1, 2)
    return {
        "id(zmod(4)) along (2)": (identity_hom(z4), ideal_from_generators(z4, [2])),
        "id(zmod(6)) along (3)": (identity_hom(z6), ideal_from_generators(z6, [3])),
        "zmod(8) -> zmod(4) along (2)": (
            RingHom(z8, z4, np.arange(8) % 4, unital=True, name="reduce"),
            ideal_from_generators(z4, [2])),
        "id(product(zmod(2), zmod(3))) along ((1,0))": (
            identity_hom(p23), ideal_from_generators(p23, [p23.index_of("(1,0)")])),
        "id(trunc_poly(zmod(2), 1, 2)) along (X)": (
            identity_hom(t), ideal_from_generators(t, [t.index_of("X")])),
    }


@pytest.mark.parametrize("base", list(_n_amalgam_bases()))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_n_amalgam_matches_the_power_ring_construction(base, n):
    f, J = _n_amalgam_bases()[base]
    new, old = n_amalgam(f, J, n), n_amalgam_via_power(f, J, n)
    assert new.ring.order == old.ring.order == f.domain.order * J.size ** n
    assert np.array_equal(new.ring.add, old.ring.add)
    assert np.array_equal(new.ring.mul, old.ring.mul)
    assert (new.ring.zero, new.ring.one) == (old.ring.zero, old.ring.one)
    # the same elements in the same order: (a, b_1..b_n) against (a, code of b in B^n)
    a, *b = new.coords.T
    code = np.zeros_like(a)
    for col in b:
        code = code * f.codomain.order + col
    assert np.array_equal(np.stack([a, code], axis=1), old.pairs)
    # the carried S generates (R, +)
    reached = np.zeros(new.ring.order, dtype=bool)
    reached[new.ring.zero] = True
    while True:
        grown = reached.copy()
        grown[new.ring.add[np.flatnonzero(reached)][:, new.ring.additive_gens]] = True
        if (grown == reached).all():
            break
        reached = grown
    assert reached.all()


def _same_ring(new, old):
    assert np.array_equal(new.add, old.add) and np.array_equal(new.mul, old.mul)
    assert (new.zero, new.one, new.labels) == (old.zero, old.one, old.labels)


@pytest.mark.parametrize("base", list(_n_amalgam_bases()))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_n_amalgam_matches_the_flat_code_construction(base, n):
    """The rank-positioned kernel against the flat product (A, B, ..., B)
    looked up by codes: same elements in the same order, same tables, zero,
    one and labels."""
    f, J = _n_amalgam_bases()[base]
    new = n_amalgam(f, J, n)
    old, coords = n_amalgam_via_flat_codes(f, J, n)
    assert np.array_equal(new.coords, coords)
    _same_ring(new.ring, old)


@pytest.mark.parametrize("base", [
    "zmod(8) -> zmod(4) along (2)",
    "id(product(zmod(2), zmod(3))) along ((1,0))",
    "id(trunc_poly(zmod(2), 1, 2)) along (X)",
])
def test_alt_pullback_fiber_products_match_the_flat_code_construction(monkeypatch, base):
    """Both fiber products of `alt_pullback_checks`, over A x B/J and over
    A/I x B/J, against (left, A, B) coded over the flat product."""
    built = []
    kernel = finring.amalgamation.pair_subring

    def recording(left, right, alpha, beta, *rest, **kw):
        fp = kernel(left, right, alpha, beta, *rest, **kw)
        built.append((left, right, alpha, beta, fp))
        return fp

    am = amalgam(*_n_amalgam_bases()[base])
    monkeypatch.setattr(finring.amalgamation, "pair_subring", recording)
    assert alt_pullback_checks(am).status == PASS
    assert [len(right) for _, right, *_ in built] == [2, 2]
    for left, right, alpha, beta, fp in built:
        old, pairs = fiber_product_via_flat_codes([left], right, alpha.tolist(), beta.tolist())
        assert fp.coords.tolist() == [list(p) for p in pairs]
        _same_ring(fp.ring, old)


def test_kernels_past_order_181_match_the_int64_oracles():
    """From order 182 on, a code x * n + y no longer fits in int16, the
    table dtype. At orders 512 to 2048, zmod, trunc_poly and two n-fold
    amalgams against oracles that compute every code and table in int64.
    `FiniteRng` range-checks a table before it narrows it, so equal tables
    are equal as int64 values."""
    B = trunc_poly(zmod(2), 1, 8)  # order 512
    _same_ring(B, trunc_poly_tables(zmod(2), 1, 8))
    _same_ring(zmod(2048), zmod_tables(2048))
    r = zmod(128)
    for f, J, n in [(identity_hom(B), ideal_from_generators(B, [B.index_of("X^7")]), 1),
                    (identity_hom(r), ideal_from_generators(r, [64]), 2)]:
        new = n_amalgam(f, J, n)
        old, coords = n_amalgam_via_flat_codes(f, J, n)
        assert new.ring.order == old.order >= 512
        assert np.array_equal(new.coords, coords)
        _same_ring(new.ring, old)


def test_iterated_iso_runs_where_only_the_power_ring_exceeded_the_guard():
    # the 3-fold amalgam has order 512; B^3 has order 262,144
    (rep,) = evaluate(parse("check iterated_iso(id(zmod(64)), gen(zmod(64); 32), 3);"))
    assert rep.status == PASS
    assert rep.witness("left_order") == "512"
    assert rep.witness("witness_is_bijective_hom") == "True"


def test_retraction_criterion_positive():
    p22, r2 = direct_product([zmod(2), zmod(2)]), zmod(2)
    alpha = enumerate_homs(p22, r2)[0]
    rep = retraction_criterion_check(alpha, identity_hom(r2))
    assert rep.status == PASS
    assert rep.witness("section_found") == "True"
    assert rep.witness("reconstruction_set_equal") == "True"


def test_retraction_criterion_negative_is_certified():
    r2 = zmod(2)
    beta = enumerate_homs(zmod(4), r2)[0]
    rep = retraction_criterion_check(identity_hom(r2), beta)
    assert rep.status == PASS
    assert rep.witness("section_found") == "False"
    assert rep.witness("no_presentation_exists") == "True"


def test_retraction_criterion_gives_no_certificate_past_its_budget(monkeypatch):
    # Z2 x Z2 has characteristic 2 and Z4 x Z2 characteristic 4, so no unital
    # hom, and no section of the reduction, exists
    r22, b = direct_product([zmod(2), zmod(2)]), direct_product([zmod(4), zmod(2)])
    # (a, c) -> (a mod 2, c), the element (a, c) of Z4 x Z2 sitting at 2a + c
    beta = RingHom(b, r22, [(x // 2 % 2) * 2 + x % 2 for x in range(8)])
    full = retraction_criterion_check(identity_hom(r22), beta)
    assert full.status == PASS
    assert full.witness("no_presentation_exists") == "True"
    # the two section candidates fit a budget of 2; the 8 hom assignments
    # (|Z4 x Z2| images of one generator) do not, so none of them is completed
    calls = []
    complete = morphisms.complete_hom
    monkeypatch.setattr(morphisms, "complete_hom",
                        lambda A, B, gens, rows, unital:
                        calls.extend(rows) or complete(A, B, gens, rows, unital))
    cut = retraction_criterion_check(identity_hom(r22), beta, budget=2)
    assert len(calls) == 2
    assert cut.status == HYPOTHESIS_NOT_MET
    assert cut.witness("assignments_tried") == "2"
    assert "8 assignments" in cut.witness("note")
    assert cut.witness("no_presentation_exists") is None


def test_retraction_roundtrip_recovers_ideal():
    r = zmod(6)
    am = duplication(r, ideal_from_generators(r, [2]))
    rep = retraction_roundtrip(am)
    assert rep.status == PASS
    assert rep.witness("recovered_ideal_equals_J") == "True"


# Order-4096 section searches out of Boolean rings: the guard sweep's row
# boolean_sections prints one line per instance, in this order, from a
# child under a 1 GiB address-space limit.
GUARD_BOOLEAN = ["roundtrip_dup_z2_11", "criterion_z2_12_onto_z2"]


@reads("boolean_sections")
@pytest.mark.parametrize("instance", GUARD_BOOLEAN)
def test_guard_order_boolean_section_searches_run_in_one_gib(request, instance):
    lines = guard_run(request, "boolean_sections").child.stdout.splitlines()
    assert lines[GUARD_BOOLEAN.index(instance)].split() == [PASS, "True"]


def test_pullback_reduced_implications():
    p22, r2 = direct_product([zmod(2), zmod(2)]), zmod(2)
    alpha = enumerate_homs(p22, r2)[0]
    beta = enumerate_homs(zmod(4), r2)[0]
    rep = pullback_reduced_check(alpha, beta)
    assert rep.status == PASS
    assert rep.witness("necessary_condition_holds") == "True"


def test_canonical_isos_on_surjective_instance():
    r = zmod(6)
    am = duplication(r, ideal_from_generators(r, [3]))
    rep = canonical_isos(am)
    assert rep.status == PASS
    assert rep.witness("hom_surjective") == "True"
    # f(A)+J is all of B, so the corestriction keeps B rather than a copy
    assert am.target_image[0].codomain is am.target
    assert "valid=True" in rep.witness("mod_embedded_ideal_iso_base_quotient")
    assert "valid=True" in rep.witness("mod_zero_cross_J_iso_base")
    assert "valid=True" in rep.witness("surjective_variant_iso_target_quotient")


def test_canonical_isos_on_non_surjective_instance():
    p22 = direct_product([zmod(2), zmod(2)])
    diag = enumerate_homs(zmod(2), p22)[0]  # 1 -> (1,1), not onto
    ideal = ideal_from_generators(p22, [p22.index_of("(1,0)")])
    am = amalgam(diag, ideal)
    rep = canonical_isos(am)
    assert rep.status == PASS
    assert rep.witness("hom_surjective") == "False"
    # f is not onto, but f(A)+J is all of B
    assert am.target_image[0].codomain is am.target


def test_alt_pullbacks_validate():
    r = zmod(6)
    am = duplication(r, ideal_from_generators(r, [2]))
    rep = alt_pullback_checks(am)
    assert rep.status == PASS
    assert rep.witness("presentation_over_A_x_BJ") == "True"
    assert rep.witness("presentation_over_AI_x_BJ") == "True"


@pytest.mark.parametrize("n", [128, 512])
def test_alt_pullbacks_pass_where_a_x_b_exceeds_the_guard(n):
    # |A x B| = n^2 is above the guard; the fiber products are built as
    # closed subsets of the flat products, never as subsets of A x B
    r = zmod(n)
    rep = alt_pullback_checks(duplication(r, ideal_from_generators(r, [n // 2])))
    assert rep.status == PASS
    assert rep.witness("presentation_over_A_x_BJ") == "True"
    assert rep.witness("presentation_over_AI_x_BJ") == "True"
    assert rep.witness("order") == str(2 * n)


@reads("dup_zmod2048")
def test_alt_pullbacks_at_order_4096_under_a_2_gib_address_space(request):
    # the guard sweep's row dup_zmod2048 runs it first, under 448 MiB
    report = guard_run(request, "dup_zmod2048").reports["alt_pullbacks(dup(A, J))"]
    assert report["status"] == PASS
    assert list(witnesses(report).values()) == ["True", "True", "4096"]


def test_image_plus_ideal_subring():
    f = enumerate_homs(zmod(4), zmod(2))[0]
    j = zero_ideal(zmod(2))
    sub = image_plus_ideal(f, j)
    assert sub.size == 2
    rep = image_plus_ideal_check(f, unit_ideal(zmod(2)))
    assert rep.status == PASS


def test_dotted_sum_split_sequence():
    r = zmod(4)
    part, _ = ideal_as_rng(ideal_from_generators(r, [2]))
    ds = dorroh(part)
    rep = split_sequence_check(ds)
    assert rep.status == PASS


def test_dorroh_check_and_characteristic_guard():
    r = zmod(4)
    part, _ = ideal_as_rng(ideal_from_generators(r, [2]))
    rep = dorroh_check(part)
    assert rep.status == PASS
    assert rep.witness("has_identity") == "True"
    assert "valid: True" in rep.witness("quotient_by_part_iso_zmod")
    with pytest.raises(InvalidParameter):
        dorroh(part, 3)  # 3 is not a multiple of the characteristic 2
    bigger = dorroh_check(part, 4)
    assert bigger.status == PASS


def test_reduced_converse_search_reports_scan():
    r6 = zmod(6)
    pool = [duplication(r6, ideal_from_generators(r6, [2])),
            duplication(zmod(4), ideal_from_generators(zmod(4), [2]))]
    rep = reduced_converse_search(pool)
    assert rep.status == PASS
    assert rep.witness("instances_scanned") == "2"


def test_dotted_sum_rejects_nonmodule_action():
    r = zmod(4)
    part, _ = ideal_as_rng(ideal_from_generators(r, [2]))
    bad = np.zeros((4, 2), dtype=np.int64)  # 1 . x = 0 breaks unitality
    with pytest.raises(FinringError):
        dotted_sum(r, part, bad)


def test_dotted_sum_rejects_action_wrong_off_the_generators():
    # a.x = ax agrees with this table on S_A = {1} and S_R = {2}, so the
    # structure constants pass; 3 . 2 = 0 is caught by (a, 0)(0, x) = (0, a.x)
    r = zmod(4)
    part, _ = ideal_as_rng(ideal_from_generators(r, [2]))
    with pytest.raises(FinringError):
        dotted_sum(r, part, np.array([[0, 0], [0, 1], [0, 0], [0, 0]]))


def test_amalgam_builds_no_dotted_sum_until_asked(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dotted_sum called")

    monkeypatch.setattr(finring.amalgamation, "dotted_sum", refuse)
    r = zmod(8)
    am = duplication(r, ideal_from_generators(r, [2]))
    assert am.ring.order == 32
    script = parse("ring R = zmod(8);\ncheck cardinality(dup(R, gen(R; 2)));\n")
    (rep,) = evaluate(script)
    assert rep.status == PASS
    assert rep.witness("amalgam_order") == "32"


def test_amalgam_builds_s_j_on_the_first_read_of_its_generators(monkeypatch):
    """The greedy S_J runs once, when the amalgam's S is first read, and
    the S it completes generates the amalgam additively."""
    calls = []
    greedy = finring.rings._additive_generators
    monkeypatch.setattr(finring.rings, "_additive_generators",
                        lambda *args: calls.append(args) or greedy(*args))
    r = zmod(16)
    ring = duplication(r, ideal_from_generators(r, [4])).ring
    assert calls == [] and "additive_gens" not in vars(ring)
    gens = ring.additive_gens
    assert len(calls) == 1 and ring.additive_gens is gens and not gens.flags.writeable
    reached = np.arange(ring.order) == ring.zero
    for _ in range(ring.order):
        reached[ring.add[np.flatnonzero(reached)][:, gens]] = True
    assert reached.all()


def test_a_generating_set_callable_is_range_checked_when_read():
    r = zmod(4)
    ring = FiniteRng(r.add, r.mul, r.zero, r.one, r.labels, check=False,
                     additive_gens=lambda: [1, 4])
    with pytest.raises(MalformedTable, match="additive generator out of range"):
        ring.additive_gens
    with pytest.raises(MalformedTable, match="additive generator out of range"):
        FiniteRng(r.add, r.mul, r.zero, r.one, r.labels, additive_gens=[-1])
