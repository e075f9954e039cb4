"""Named ring constructions realized and verified as amalgams.

Each construction here (square-zero extensions, coefficient-subring plus
maximal-ideal sums, localization preimage rings, constrained truncated
polynomial rings) has a classical direct definition and an amalgam
presentation. The ops build both and validate the identifying isomorphism
explicitly. The one deliberately non-enumerative op is the Noetherianity
verdict for polynomial extensions, which evaluates the finite hypotheses of
a trusted equivalence and labels its output as theorem-backed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amalgamation import Amalgam, amalgam, dotted_sum, image_plus_ideal
from .errors import (
    AmbientMismatch,
    HypothesisViolated,
    IncompatibleStructures,
    InvalidParameter,
    InvariantViolated,
    NotPrime,
)
from .morphisms import (
    RingHom,
    compose,
    corestrict,
    first_iso_witness,
    image,
    kernel,
    verify_iso,
)
from .reports import FAIL, PASS, THEOREM_BACKED, VerificationReport
from .rings import _TABLE_DTYPE, FiniteRng, _digits, _monomials, _sub, is_field, trunc_poly
from .subobjects import (
    FiniteModule,
    Ideal,
    Subrng,
    ideal_from_generators,
    ideal_from_members,
    ideal_mask_witness,
    ideal_product,
    is_maximal,
    is_prime,
    localization,
    module_min_generators,
    module_via_hom,
    quotient_ring,
    regular_elements_mod,
    submodule_generated,
    subrng_as_ring,
    validate_module,
    zero_ideal,
)


# -- square-zero extensions -----------------------------------------------------------


@dataclass(frozen=True)
class Idealization:
    """The square-zero extension of `base` by the module `module`: the ring
    on base x module with product (a,x)(a',x') = (aa', a.x' + a'.x)."""

    ring: FiniteRng
    base: FiniteRng
    module: FiniteModule
    part: FiniteRng
    embed_base: RingHom
    embed_module: RingHom
    proj_base: RingHom

    def module_ideal(self) -> Ideal:
        mask = np.zeros(self.ring.order, dtype=bool)
        mask[self.embed_module.map] = True
        return Ideal(self.ring, mask)


def nagata_idealization(base: FiniteRng, module: FiniteModule,
                        name: str | None = None) -> Idealization:
    """Make the module a square-zero rng and take the dotted sum. The zero
    product makes bilinearity automatic, so every valid module qualifies."""
    base.require_one()
    if module.ring != base:
        raise AmbientMismatch("module is not over the given base ring")
    report = validate_module(module)
    if not report.ok:
        raise IncompatibleStructures(f"not a module: {report}")
    # not validated again: (M, +) is an abelian group by the module check,
    # and the zero product meets every multiplicative axiom
    zero_mul = np.full((module.order, module.order), module.zero, dtype=_TABLE_DTYPE)
    part = FiniteRng(module.add, zero_mul, module.zero, None, module.labels,
                     provenance="idealization", name=f"sq0({base.name})", check=False)
    ds = dotted_sum(base, part, module.action)
    ring = FiniteRng(ds.ring.add, ds.ring.mul, ds.ring.zero, ds.ring.one,
                     ds.ring.labels, provenance="idealization",
                     name=name or f"idealization({base.name})", check=False,
                     additive_gens=ds.ring.additive_gens)
    embed_base = RingHom(base, ring, ds.embed_base.map, unital=True,
                         name="base_embedding", check=False)
    embed_module = RingHom(part, ring, ds.embed_part.map, unital=False,
                           name="module_embedding", check=False)
    proj_base = RingHom(ring, base, ds.proj_base.map, unital=True,
                        name="base_projection", check=False)
    emb = embed_module.map
    if not (_sub(ring.mul, emb, emb) == ring.zero).all():
        raise InvariantViolated("embedded module is not square-zero")
    idl = Idealization(ring, base, module, part, embed_base, embed_module,
                       proj_base)
    if ideal_mask_witness(ring, idl.module_ideal().members) is not None:
        raise InvariantViolated("embedded module is not an ideal")
    return idl


def nagata_as_amalgam_check(base: FiniteRng, module: FiniteModule,
                            instance: str | None = None) -> VerificationReport:
    """a square-zero extension equals its own amalgam

    Make the ideal J a module over A through f, build the
    square-zero extension B = A x J with (a,x)(a',x') =
    (aa', a.x' + a'.x), and amalgamate the base embedding along the
    embedded module. The collapse (a, iota(a)+j) -> iota(a)+j is a
    bijective hom onto B."""
    idl = nagata_idealization(base, module)
    rep = VerificationReport(
        "nagata_as_amalgam",
        instance or f"{base.name},module order {module.order}", PASS,
    )
    J = idl.module_ideal()
    am = amalgam(idl.embed_base, J)
    rep.add("extension_order", idl.ring.order)
    rep.add("amalgam_order", am.ring.order)
    square_zero = bool(
        (_sub(idl.ring.mul, J.indices, J.indices) == idl.ring.zero).all()
    )
    rep.add("module_ideal_square_zero", square_zero)
    valid = verify_iso(am.proj_target)
    rep.add("collapse_map_is_iso", valid)
    if not (valid and square_zero and am.ring.order == idl.ring.order):
        rep.status = FAIL
        rep.counterexample = "square-zero extension does not match its amalgam"
    return rep


# -- coefficient subring plus maximal ideals -------------------------------------------


def d_plus_m(T: FiniteRng, D: Subrng, Ms: list[Ideal],
             instance: str | None = None) -> tuple[Subrng, VerificationReport]:
    """coefficient subring plus an intersection of maximal ideals

    For maximal ideals M_i of T each meeting the unital subring D
    only in 0, set J to their intersection. D + J is a subring of T
    of order |D| * |J|, and the second projection of the amalgam of
    the inclusion D -> T along J is a bijective hom onto it."""
    if D.ring != T:
        raise AmbientMismatch("subring does not live in T")
    if not Ms:
        raise HypothesisViolated("need at least one maximal ideal")
    if not D.has_one:
        raise HypothesisViolated("coefficient subring must contain the identity")
    Jmask = np.ones(T.order, dtype=bool)
    for M in Ms:
        if M.ring != T:
            raise AmbientMismatch("an ideal does not live in T")
        if not is_maximal(M):
            raise HypothesisViolated(f"ideal of size {M.size} is not maximal")
        meet = int((M.members & D.members).sum())
        if meet != 1:
            raise HypothesisViolated(
                f"a maximal ideal meets the coefficient subring in {meet} elements"
            )
        Jmask &= M.members
    J = ideal_from_members(T, Jmask)
    rep = VerificationReport(
        "d_plus_m",
        instance or f"{T.name},D size {D.size},{len(Ms)} maximal ideals", PASS,
    )
    rep.add("ideal_order", J.size)
    D_ring, iota = subrng_as_ring(D, name="coefficient_subring")
    am = amalgam(iota, J)
    rep.add("amalgam_order", am.ring.order)
    result = image_plus_ideal(iota, J)  # D + J, as iota(D_ring) = D
    rep.add("sum_order", result.size)
    set_ok = np.array_equal(image(am.proj_target).members, result.members)
    rep.add("projection_image_equals_sum", set_ok)
    inj_ok = am.proj_target.is_injective
    rep.add("projection_injective", inj_ok)
    collapse, _ = corestrict(am.proj_target, name="d_plus_m")
    valid = inj_ok and verify_iso(collapse)
    rep.add("iso_witness_valid", valid)
    order_ok = result.size == D.size * J.size
    rep.add("order_law_holds", order_ok)
    if not (set_ok and valid and order_ok):
        rep.status = FAIL
        rep.counterexample = "sum subring does not match its amalgam"
    return result, rep  # D + J as a subring of T


# -- localization preimage rings --------------------------------------------------------


def _preimage_ring(rep: VerificationReport, lam: RingHom, E: Ideal, I: Ideal,
                   C_mask: np.ndarray, contraction: str) -> tuple[FiniteRng, bool]:
    """The part `cpi_prime` and `cpi_ideal` share: the preimage C_mask is
    lam(A) + E, E contracts to I, and the amalgam of lam along E modulo the
    kernel of its second projection is C, by an explicit witness. Returns
    C and whether every step held."""
    set_ok = np.array_equal(C_mask, image_plus_ideal(lam, E).members)
    rep.add("preimage_equals_image_plus_extension", set_ok)
    am = amalgam(lam, E)
    rep.add("amalgam_order", am.ring.order)
    rep.add("kernel_order", kernel(am.proj_target).size)
    pre_ok = np.array_equal(E.members[lam.map], I.members)
    rep.add(contraction, pre_ok)
    collapse, _ = corestrict(am.proj_target, name=f"cpi({lam.domain.name})")
    fi = first_iso_witness(collapse)
    valid = fi.valid
    rep.add("quotient_order", fi.quotient.order)
    rep.add("iso_witness_valid", valid)
    mask_ok = np.array_equal(image(am.proj_target).members, C_mask)
    rep.add("result_set_matches_preimage", mask_ok)
    return collapse.codomain, set_ok and pre_ok and valid and mask_ok


def cpi_prime(A: FiniteRng, P: Ideal,
              instance: str | None = None) -> tuple[FiniteRng, VerificationReport]:
    """preimage ring of a prime's residue embedding

    Localize A at the complement of a prime P, extend P, and map
    onto the residue field. The preimage of the canonical copy of
    A/P equals lambda(A) + P-extension as a set, and the amalgam of
    lambda along the extension, modulo the kernel of its second
    projection, is isomorphic to it by an explicit witness."""
    if P.ring != A:
        raise AmbientMismatch("ideal does not live in the given ring")
    if not is_prime(P):
        raise NotPrime(f"ideal of size {P.size} is not prime")
    rep = VerificationReport(
        "cpi_prime", instance or f"{A.name},P size {P.size}", PASS,
    )
    S = np.flatnonzero(~P.members)
    loc, lam = localization(A, S)
    rep.add("localization_order", loc.order)
    PE = ideal_from_generators(loc, lam.map[P.indices])
    rep.add("extended_ideal_order", PE.size)
    units = (loc.mul == loc.one).any(axis=1)
    local_ok = np.array_equal(~units, PE.members)
    rep.add("localization_local_with_extended_maximal", local_ok)
    kP, psi = quotient_ring(loc, PE)
    field_ok = is_field(kP)
    rep.add("residue_ring_is_field", field_ok)
    C_mask = image(compose(psi, lam)).members[psi.map]
    C_ring, ok = _preimage_ring(rep, lam, PE, P, C_mask, "contraction_is_P")
    if not (local_ok and field_ok and ok):
        rep.status = FAIL
        rep.counterexample = "a preimage-ring identification failed"
    return C_ring, rep


def cpi_ideal(A: FiniteRng, I: Ideal,
              instance: str | None = None) -> tuple[FiniteRng, VerificationReport]:
    """preimage ring of an arbitrary proper ideal

    Localize A at the elements regular modulo I, reduce fractions
    into the total quotient ring of A/I, and pull back the canonical
    copy of A/I. The preimage equals lambda(A) + extension of I, and
    the amalgam-quotient witness validates as for the prime case."""
    if I.ring != A:
        raise AmbientMismatch("ideal does not live in the given ring")
    if I.size == A.order and A.order > 1:
        raise InvalidParameter("ideal must be proper")
    rep = VerificationReport(
        "cpi_ideal", instance or f"{A.name},I size {I.size}", PASS,
    )
    S = regular_elements_mod(A, I)
    rep.add("regular_set_order", S.size)
    loc, lam = localization(A, S)
    rep.add("localization_order", loc.order)
    J = ideal_from_generators(loc, lam.map[I.indices])
    rep.add("extended_ideal_order", J.size)
    Q, piI = quotient_ring(A, I)
    regQ = regular_elements_mod(Q, zero_ideal(Q))
    tot, lamQ = localization(Q, regQ)
    rep.add("total_quotient_order", tot.order)
    # lam is onto (see `localization`), so a/1 -> (a + I)/1 is the whole map
    reduced = lamQ.map[piI.map]
    phi_map = np.full(loc.order, -1, dtype=np.int64)
    phi_map[lam.map] = reduced
    well_defined = (phi_map >= 0).all() and (phi_map[lam.map] == reduced).all()
    rep.add("fraction_reduction_well_defined", bool(well_defined))
    if not well_defined:
        rep.status = FAIL
        rep.counterexample = "fraction reduction map is not well defined"
        return loc, rep
    # phi . lam = lamQ . piI (checked above) is a unital hom and lam is onto,
    # so phi(lam a + lam b) = lamQ piI (a + b) = phi(lam a) + phi(lam b), and
    # alike for *: phi is a hom without a scan
    phi = RingHom(loc, tot, phi_map, unital=True, name="fraction_reduction",
                  check=False)
    C_ring, ok = _preimage_ring(rep, lam, J, I, image(lamQ).members[phi.map],
                                "contraction_is_I")
    if not ok:
        rep.status = FAIL
        rep.counterexample = "a preimage-ring identification failed"
    return C_ring, rep


# -- constrained truncated polynomial rings ---------------------------------------------


def trunc_poly_amalgam(A: Subrng, B: FiniteRng, J: Ideal, num_vars: int,
                       max_deg: int, instance: str | None = None,
                       ) -> tuple[FiniteRng, VerificationReport]:
    """constrained truncated polynomials form an amalgam

    Inside truncated polynomials over B, the elements with constant
    term in the subring A and all other coefficients in the ideal J
    form a subring of order |A| * |J|^(nonconstant monomials). It
    equals the amalgam of the constant embedding of A along the
    ideal of zero-constant-term polynomials with coefficients in J."""
    if A.ring != B or J.ring != B:
        raise AmbientMismatch("subring and ideal must live in B")
    if not A.has_one:
        raise InvalidParameter("coefficient subring must contain the identity")
    P = trunc_poly(B, num_vars, max_deg)
    monos = _monomials(num_vars, max_deg)
    m = len(monos)
    dims = (B.order,) * m
    digits = _digits(np.arange(P.order), dims)
    member_mask = A.members[digits[0]]
    jmask = digits[0] == B.zero
    for t in range(1, m):
        member_mask &= J.members[digits[t]]
        jmask &= J.members[digits[t]]
    rep = VerificationReport(
        "trunc_poly_amalgam",
        instance or f"{B.name},A size {A.size},J size {J.size},"
                    f"r={num_vars},k={max_deg}",
        PASS,
    )
    rep.add("ambient_order", P.order)
    rep.add("nonconstant_monomials", m - 1)
    A_ring, embed_A = subrng_as_ring(A, name="coefficient_subring")
    sigma = RingHom(A_ring, P,
                    embed_A.map.astype(np.int64) * B.order ** (m - 1),
                    unital=True, name="constant_embedding")
    Jp = ideal_from_members(P, jmask)
    rep.add("zero_constant_ideal_order", Jp.size)
    am = amalgam(sigma, Jp)
    rep.add("amalgam_order", am.ring.order)
    set_ok = np.array_equal(image(am.proj_target).members, member_mask)
    rep.add("membership_scan_matches", set_ok)
    inj_ok = am.proj_target.is_injective
    collapse, _ = corestrict(am.proj_target, name="trunc_poly_amalgam")
    valid = inj_ok and verify_iso(collapse)
    rep.add("iso_witness_valid", valid)
    order_ok = am.ring.order == A.size * J.size ** (m - 1)
    rep.add("order_law_holds", order_ok)
    if not (set_ok and valid and order_ok):
        rep.status = FAIL
        rep.counterexample = "constrained polynomial subring mismatch"
    return collapse.codomain, rep


# -- Noetherianity ---------------------------------------------------------------------


def noetherian_report(am: Amalgam, instance: str | None = None) -> VerificationReport:
    """finiteness evidence for an amalgam's chain conditions

    On finite instances every chain condition holds; the check
    computes the supporting data: a generating set for J as a module
    over the base through f, of minimum size when its budgeted search
    finishes (generating_set_minimal), finiteness of the base, of
    f(A)+J, and of the induced residue map."""
    rep = VerificationReport(
        "noetherian", instance or am.description, PASS,
    )
    rep.add("base_noetherian", f"true (finite, order {am.base.order})")
    bd = image_plus_ideal(am.hom, am.ideal)
    rep.add("image_plus_ideal_noetherian", f"true (finite, order {bd.size})")
    M = module_via_hom(am.hom, am.ideal)
    gs = module_min_generators(M)
    rep.add("ideal_module_generators",
            "{" + ",".join(gs.labels(M)) + "}")
    rep.add("generator_count", len(gs.indices))
    rep.add("generating_set_minimal", gs.minimal)
    rep.add("residue_map_finite", "true (finite rings)")
    rep.add("amalgam_noetherian", f"true (finite, order {am.ring.order})")
    gen_ok = bool(submodule_generated(M, gs.indices).all())
    rep.add("generators_verified", gen_ok)
    if not gen_ok:
        rep.status = FAIL
        rep.counterexample = "reported generating set does not generate"
    return rep


def noetherian_verdict_xjx(A: Subrng, B: FiniteRng, J: Ideal,
                           instance: str | None = None) -> VerificationReport:
    """theorem-backed verdicts for polynomial extensions

    For a unital subring A of B and an ideal J of B, the ring of
    polynomials with constant term in A and other coefficients in J
    is Noetherian exactly when J is idempotent (J*J = J), while the
    unconstrained version with coefficients in B is Noetherian
    whenever the data are finite (the extension is module-finite).
    The infinite rings are never constructed; the report evaluates
    J*J against J and the finite hypotheses, and carries status
    theorem_backed."""
    if A.ring != B or J.ring != B:
        raise AmbientMismatch("subring and ideal must live in B")
    if not A.has_one:
        raise InvalidParameter("coefficient subring must contain the identity")
    rep = VerificationReport(
        "noetherian_xjx",
        instance or f"{B.name},A size {A.size},J size {J.size}",
        THEOREM_BACKED,
    )
    rep.add("coefficient_ring_noetherian", "true (finite)")
    A_ring, embed_A = subrng_as_ring(A, name="coefficient_subring")
    M = module_via_hom(embed_A, J)
    gs = module_min_generators(M)
    rep.add("ideal_fg_over_coefficients",
            "true, generators {" + ",".join(gs.labels(M)) + "}")
    J2 = ideal_product(J, J)
    idem = J2 == J
    rep.add("ideal_square_order", J2.size)
    rep.add("ideal_order", J.size)
    rep.add("ideal_idempotent", idem)
    rep.add("constrained_variable_ring_noetherian",
            "yes" if idem else "no (ideal not idempotent)")
    rep.add("full_variable_ring_noetherian", "yes (module-finite extension)")
    return rep
