"""Amalgamated algebras and the machinery around them.

The central object is the subring {(a, f(a)+j)} of A x B attached to a hom
f: A -> B and an ideal J of B. The module builds it three ways (directly, as
a dotted sum transported along f, and as a pullback) and cross-validates the
presentations. Every "canonically isomorphic" claim is discharged by building
the explicit map and checking it is a bijective hom; no check trusts an
abstract argument when the element scan is affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .errors import (
    AmbientMismatch,
    HypothesisViolated,
    IncompatibleStructures,
    InvalidParameter,
    MalformedTable,
    SizeGuardExceeded,
)
from .morphisms import (
    RingHom,
    compose,
    corestrict,
    enumerate_homs,
    find_section,
    first_iso_witness,
    identity_hom,
    image,
    kernel,
    verify_iso,
)
from .reports import HYPOTHESIS_NOT_MET, PASS, VerificationReport
from .rings import (
    FiberProduct,
    FiniteRng,
    _distinct,
    _first_at,
    _sub,
    characteristic,
    from_structure,
    is_domain,
    is_reduced,
    nilpotent_mask,
    pair_subring,
    zmod,
)
from .subobjects import (
    Ideal,
    Subrng,
    all_ideals,
    ideal_as_rng,
    ideal_from_members,
    ideal_mask_witness,
    is_radical,
    quotient_ring,
    subrng_as_ring,
)


# -- dotted sums --------------------------------------------------------------------


@dataclass(frozen=True)
class DottedSum:
    """The ring on A x R with product (a,x)(a',x') = (aa', a.x' + a'.x + xx'),
    for a unital ring A acting on a rng R."""

    ring: FiniteRng
    base: FiniteRng
    part: FiniteRng
    action: np.ndarray
    embed_base: RingHom
    embed_part: RingHom
    proj_base: RingHom


def dotted_sum(base: FiniteRng, part: FiniteRng, action) -> DottedSum:
    """Build A dotted-plus R. `action` is the (|A|, |R|) scalar table a.x.

    The ring is `from_structure` over A + R, with generators S_A x 0 and
    0 x S_R and the formula's products of them. Its biadditive product is
    the formula's exactly when (a, 0)(0, x) = (0, a.x), since the other
    terms are the products of A and of R. The ring axioms then make R a
    unital A-module whose multiplication is A-bilinear, a.(xy) = (a.x)y,
    which the kernel checks on S_A x S_R x S_R as part of associativity on
    S^3. An action that breaks any of this raises IncompatibleStructures.
    """
    base.require_one()
    m, n = part.order, base.order * part.order
    action = np.asarray(action, dtype=np.int64)
    if action.shape != (base.order, m) or action.min(initial=0) < 0 or action.max(initial=0) >= m:
        raise IncompatibleStructures("the action table must be |A| x |R| with entries in R")
    if n > config.size_guard():
        raise SizeGuardExceeded(f"order {n} exceeds size guard {config.size_guard()}")
    # (a,x)(a',x') = (aa', a.x' + a'.x + xx') on the generators
    sa, sr = base.additive_gens, part.additive_gens
    ga = np.concatenate((sa, np.full(sr.size, base.zero)))
    gx = np.concatenate((np.full(sa.size, part.zero), sr))
    acts = _sub(action, ga, gx)
    cross = part.add[acts, acts.T]
    # table-dtype codes below n, which is within the guard (checked above)
    products = _sub(base.mul, ga, ga) * m + part.add[cross, _sub(part.mul, gx, gx)]
    labels = [f"({a},{x})" for a in base.labels for x in part.labels]
    try:
        ring = from_structure([base, part], products, base.one * m + part.zero, labels,
                              "dotted_sum", f"dsum({base.name},{part.name})")
    except MalformedTable as exc:  # A and R are valid, so the action is at fault
        raise IncompatibleStructures(f"action is no bilinear module structure: {exc}") from None
    scaled = _sub(ring.mul, np.arange(base.order) * m + part.zero, base.zero * m + np.arange(m))
    if not np.array_equal(scaled, base.zero * m + action):
        raise IncompatibleStructures("action is not additive in both arguments")
    # the coordinate maps, homs by the product formula
    embed_base = RingHom(base, ring, np.arange(base.order) * m + part.zero,
                         unital=True, name="base_embedding", check=False)
    embed_part = RingHom(part, ring, base.zero * m + np.arange(m),
                         unital=False, name="part_embedding", check=False)
    proj_base = RingHom(ring, base, np.arange(n) // m, unital=True, name="base_projection",
                        check=False)
    return DottedSum(ring, base, part, action, embed_base, embed_part, proj_base)


def split_sequence_check(ds: DottedSum, instance: str | None = None) -> VerificationReport:
    """The part embeds as an ideal, the base projection retracts the base
    embedding, and base plus part covers the whole ring: the defining split
    exact sequence, verified element by element."""
    rep = VerificationReport("split_sequence", instance or ds.ring.name)
    n = ds.ring.order
    retract_ok = np.array_equal(
        ds.proj_base.map[ds.embed_base.map], np.arange(ds.base.order)
    )
    rep.add("projection_retracts_embedding", retract_ok)
    part_mask = np.zeros(n, dtype=bool)
    part_mask[ds.embed_part.map] = True
    kernel_ok = np.array_equal(kernel(ds.proj_base).members, part_mask)
    rep.add("kernel_equals_embedded_part", kernel_ok)
    ideal_ok = ideal_mask_witness(ds.ring, part_mask) is None
    rep.add("embedded_part_is_ideal", ideal_ok)
    covered = _sub(ds.ring.add, ds.embed_base.map, ds.embed_part.map)
    cover_ok = _distinct(covered, n).size == n
    rep.add("base_plus_part_covers_ring", cover_ok)
    inj_ok = ds.embed_base.is_injective and ds.embed_part.is_injective
    rep.add("embeddings_injective", inj_ok)
    return rep.verdict(retract_ok and kernel_ok and ideal_ok and cover_ok and inj_ok,
                       "split sequence property violated")


def dorroh(part: FiniteRng, n: int | None = None) -> DottedSum:
    """Adjoin an identity to a rng of characteristic n by forming the dotted
    sum with the integers mod n acting by repeated addition."""
    ch = characteristic(part)
    if n is None:
        n = ch
    if n < 1 or n % ch != 0:
        raise InvalidParameter(
            f"modulus {n} is not a multiple of the characteristic {ch}"
        )
    base = zmod(n)
    action = np.empty((n, part.order), dtype=np.int64)
    action[0] = part.zero
    for a in range(1, n):
        action[a] = part.add[action[a - 1], np.arange(part.order)]
    return dotted_sum(base, part, action)


def dorroh_check(part: FiniteRng, n: int | None = None,
                 instance: str | None = None) -> VerificationReport:
    """identity adjunction to an ideal viewed as a rng

    Take the ideal as a rng R of characteristic n and form the ring
    on (Z/nZ) x R with product (a,x)(a',x') = (aa', ax' + a'x + xx').
    The result is unital with identity (1,0), has characteristic n,
    contains R as an ideal with quotient Z/nZ (witnessed by an
    explicit iso), and is covered by multiples of the identity
    plus R."""
    ds = dorroh(part, n)
    base = ds.base
    rep = VerificationReport("dorroh", instance or f"{part.name},n={base.order}")
    split = split_sequence_check(ds)
    rep.add("split_sequence", split.status)
    rep.add("has_identity", ds.ring.has_one)
    rep.add("identity_is_one_zero",
            ds.ring.labels[ds.ring.one]
            == f"({base.labels[base.one]},{part.labels[part.zero]})")
    char_ok = characteristic(ds.ring) == base.order
    rep.add("characteristic", f"{characteristic(ds.ring)} (expected {base.order})")
    fi = first_iso_witness(ds.proj_base)
    quotient_ok = fi.valid and fi.quotient.order == base.order
    rep.add("quotient_by_part_iso_zmod",
            f"order {fi.quotient.order}, witness valid: {fi.valid}")
    span = [ds.ring.zero]
    for _ in range(base.order - 1):
        span.append(int(ds.ring.add[span[-1], ds.ring.one]))
    covered = _sub(ds.ring.add, span, ds.embed_part.map)
    span_ok = _distinct(covered, ds.ring.order).size == ds.ring.order
    rep.add("multiples_of_one_plus_part_cover", span_ok)
    return rep.verdict(split.status == PASS and ds.ring.has_one and char_ok
                       and quotient_ok and span_ok, "unitalization property violated")


# -- amalgams -----------------------------------------------------------------------


@dataclass(frozen=True)
class Amalgam:
    """The subring {(a, f(a)+j)} of A x B with its canonical maps.

    embed sends a to (a, f(a)); proj_base and proj_target are the coordinate
    projections; `fiber` is `n_amalgam`'s, which places a pair in the ring.
    The presentations that several checks read are built on first access
    and then kept: `residue_pullback`, the pullback over B/J, and
    `target_image`, which makes f(A)+J a ring. `dotted_transport` builds the
    dotted presentation, which one check reads, on each call.
    """

    ring: FiniteRng
    base: FiniteRng
    target: FiniteRng
    hom: RingHom
    ideal: Ideal
    pairs: np.ndarray
    fiber: FiberProduct
    embed: RingHom
    proj_base: RingHom
    proj_target: RingHom

    @property
    def description(self) -> str:
        return f"{self.base.name} via {self.hom.name} along J size {self.ideal.size}"

    @cached_property
    def residue_pullback(self) -> PullbackData:
        """The pullback of A -> B/J (a -> f(a)+J) against B -> B/J."""
        return pullback(*residue_presentation(self))

    @cached_property
    def target_image(self) -> tuple[RingHom, RingHom]:
        """proj_target corestricted onto its image f(A)+J, a ring named
        "image_plus_ideal" unless f(A)+J is all of B, and the inclusion of
        f(A)+J into B."""
        return corestrict(self.proj_target, name="image_plus_ideal")


def dotted_transport(am: Amalgam) -> tuple[DottedSum, RingHom]:
    """A dotted-plus J, with A acting on J through f: a.j = f(a)j, and
    (a, j) -> (a, f(a)+j), its transport onto the amalgam's pairs.

    Not validated here: the `dotted_presentation` check verifies the
    transport.
    """
    A, B, J = am.base, am.target, am.ideal
    jrng, _ = ideal_as_rng(J)
    action = np.searchsorted(J.indices, _sub(B.mul, am.hom.map, J.indices))
    dotted = dotted_sum(A, jrng, action)
    pairs = np.stack([np.repeat(np.arange(A.order), J.size),
                      _sub(B.add, am.hom.map, J.indices).ravel()], axis=1)
    return dotted, RingHom(dotted.ring, am.ring, am.fiber.position(pairs),
                           unital=True, name="dotted_to_pairs", check=False)


def amalgam_pair_encoding(f: RingHom, J: Ideal) -> np.ndarray:
    """Sorted encodings a*|B| + (f(a)+j) of the element set of the amalgam,
    without building the ring. Used for cheap set comparisons. They are
    distinct, as j -> f(a)+j is injective, so sorting each row sorts all.
    In int64, as a*|B| passes the table dtype from |A||B| > 32767 on."""
    cols = np.sort(_sub(f.codomain.add, f.map, J.indices), axis=1).astype(np.int64)
    return (np.arange(f.domain.order, dtype=np.int64)[:, None] * f.codomain.order + cols).ravel()


def n_amalgam(f: RingHom, J: Ideal, n: int, name: str | None = None) -> FiberProduct:
    """The amalgam of the diagonal hom A -> B^n along J^n: the elements
    (a, f(a)+j_1, ..., f(a)+j_n), |A| * |J|^n of them in lexicographic
    order, as the fiber product `pair_subring` of A against n copies of B
    over the cosets f(a)+J; B^n is never built. `amalgam` is the case n = 1.

    Keys are least coset members, a -> min(f(a)+J) and b -> min(b+J) on
    f(A)+J: f followed by the projection onto B/J, and that projection,
    homs on the subring f(A)+J that holds every b_k. Off f(A)+J each b is
    its own key, which no a reaches. Every a has a fiber, so S is carried:
    S_A, each with the least of f(a)+J, and S_J in each coordinate."""
    A, B = f.domain, f.codomain
    if J.ring != B:
        raise AmbientMismatch("ideal does not live in the hom's codomain")
    if not f.unital:
        raise InvalidParameter("amalgam requires a unital hom")
    cols = _sub(B.add, f.map, J.indices)  # row a: f(a)+J
    least = cols.min(axis=1)
    beta = np.arange(B.order)
    beta[cols] = least[:, None]
    return pair_subring(A, [B], least, beta, n, "amalgam",
                        name or f"amalg^{n}({f.name},{J.size})")


def amalgam(f: RingHom, J: Ideal, name: str | None = None) -> Amalgam:
    """Construct the amalgam of f along J with its three canonical maps.

    The structure holds by construction, so nothing is rescanned here; the
    `cardinality` and `dotted_presentation` checks report it per instance:

    - the ring and its pairs (a, f(a)+j) are `n_amalgam` with n = 1;
    - j = 0 puts the graph (a, f(a)) inside, and f unital makes (1, 1) its
      identity, so embed and both projections are unital homs, and
      proj_base retracts embed;
    - Ker(proj_base) = {0} x J and Ker(proj_target) = f^-1(J) x {0}, since
      f(a)+j = 0 means j = -f(a);
    - (a, j) -> (a, f(a)+j) is a bijective hom from A dotted-plus J (with
      a.j = f(a)j), because f(aa') + f(a)j' + f(a')j + jj' is
      (f(a)+j)(f(a')+j').
    """
    A, B = f.domain, f.codomain
    fiber = n_amalgam(f, J, 1, name or f"amalg({f.name},{J.size})")
    ring, pairs = fiber.ring, fiber.coords
    embed = RingHom(A, ring, fiber.position(np.stack([np.arange(A.order), f.map], axis=1)),
                    unital=True, name="graph_embedding", check=False)
    proj_base = RingHom(ring, A, pairs[:, 0], unital=True, name="proj_base",
                        check=False)
    proj_target = RingHom(ring, B, pairs[:, 1], unital=True, name="proj_target",
                          check=False)
    return Amalgam(ring, A, B, f, J, pairs, fiber, embed, proj_base, proj_target)


def duplication(A: FiniteRng, I: Ideal, name: str | None = None) -> Amalgam:
    """The amalgam along the identity map: pairs (a, a+i)."""
    return amalgam(identity_hom(A), I, name or f"dup({A.name},{I.size})")


def image_plus_ideal(f: RingHom, J: Ideal) -> Subrng:
    """The subring f(A)+J of the codomain: the image of the amalgam under the
    second projection."""
    B = f.codomain
    if J.ring != B:
        raise AmbientMismatch("ideal does not live in the hom's codomain")
    mask = np.zeros(B.order, dtype=bool)
    mask[_sub(B.add, _distinct(f.map, B.order), J.indices)] = True
    return Subrng(B, mask)


def image_plus_ideal_check(f: RingHom, J: Ideal,
                           instance: str | None = None) -> VerificationReport:
    """Replacing f by its corestriction onto f(A)+J leaves the amalgam's
    element set unchanged."""
    rep = VerificationReport("image_plus_ideal", instance or f"{f.name},J size {J.size}")
    bd = image_plus_ideal(f, J)
    rep.add("subring_order", bd.size)
    rep.add("contains_image", bool(bd.members[image(f).indices].all()))
    rep.add("contains_ideal", bool(bd.members[J.indices].all()))
    small, embed_small = subrng_as_ring(bd, name="image_plus_ideal")
    f_small = RingHom(f.domain, small, np.searchsorted(embed_small.map, f.map), unital=True,
                      name=f"{f.name}|diamond")
    J_small = Ideal(small, J.members[embed_small.map])
    enc_small = amalgam_pair_encoding(f_small, J_small)
    # int64 throughout: the encodings, and hom maps (`RingHom` stores int64)
    a_part, b_part = np.divmod(enc_small, small.order)
    enc_lifted = a_part * f.codomain.order + embed_small.map[b_part]
    same = np.array_equal(np.sort(enc_lifted), amalgam_pair_encoding(f, J))
    rep.add("same_amalgam_through_corestriction", same)
    return rep.verdict(same, "corestricted amalgam has a different element set")


def same_amalgam(f: RingHom, g: RingHom, J: Ideal,
                 instance: str | None = None) -> VerificationReport:
    """two homs give one amalgam iff they agree modulo the ideal

    For f, g: A -> B and an ideal J of B, the element sets
    {(a, f(a)+j)} and {(a, g(a)+j)} coincide exactly when
    f(a) - g(a) lies in J for every a. Both sides are computed
    independently and compared."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise AmbientMismatch("homs must share domain and codomain")
    B = f.codomain
    if J.ring != B:
        raise AmbientMismatch("ideal does not live in the homs' codomain")
    rep = VerificationReport("same_amalgam",
                             instance or f"{f.name} vs {g.name}, J size {J.size}")
    pointwise = bool(J.members[B.sub(f.map, g.map)].all())
    sets_equal = np.array_equal(
        amalgam_pair_encoding(f, J), amalgam_pair_encoding(g, J)
    )
    rep.add("difference_lands_in_ideal", pointwise)
    rep.add("element_sets_equal", sets_equal)
    rep.add("homs_equal", bool(np.array_equal(f.map, g.map)))
    if pointwise != sets_equal:
        bad = np.flatnonzero(~J.members[B.sub(f.map, g.map)])
        rep.verdict(False, f"equivalence broken at a={f.domain.labels[bad[0]]}" if bad.size
                    else "sets differ yet differences lie in the ideal")
    return rep


# -- iterated amalgams ---------------------------------------------------------------


def iter_iso_check(f: RingHom, J: Ideal, n: int,
                   instance: str | None = None) -> VerificationReport:
    """the n-fold amalgam is a duplication of the (n-1)-fold one

    Amalgamating the diagonal map into B^n along J^n gives a ring of
    order |A| * |J|^n, and the coordinate shuffle
    (a,(b_1..b_n)) -> ((a,(b_1..b_{n-1})), (a,(b_1..b_{n-2},b_n)))
    identifies it with the duplication of the (n-1)-fold amalgam
    along its embedded copy of J. The shuffle is validated as a
    bijective hom."""
    if n < 2:
        raise HypothesisViolated("iterated isomorphism needs n >= 2")
    rep = VerificationReport("iterated_iso", instance or f"{f.name},J size {J.size},n={n}")
    big = n_amalgam(f, J, n)
    small = n_amalgam(f, J, n - 1)
    A, B = f.domain, f.codomain
    # (0, 0, ..., 0, j): a = 0 puts every b_k in J
    tail = (small.coords[:, :-1] == [A.zero] + [B.zero] * (n - 2)).all(axis=1)
    Jprime = ideal_from_members(small.ring, tail)
    rep.add("embedded_ideal_order", Jprime.size)
    dup = duplication(small.ring, Jprime)
    rep.add("left_order", big.ring.order)
    rep.add("right_order", dup.ring.order)
    expected = A.order * J.size ** n
    rep.add("expected_order", expected)

    d1 = small.position(big.coords[:, :-1])
    d2 = small.position(np.delete(big.coords, -2, axis=1))
    pos = dup.fiber.position(np.stack([d1, d2], axis=1))  # -1 where d1 or d2 is
    if pos.min() < 0:
        return rep.verdict(False, "witness map leaves the duplication's element set")
    witness = RingHom(big.ring, dup.ring, pos, unital=True,
                      name=f"shuffle_n{n}", check=False)
    valid = verify_iso(witness)
    rep.add("witness_is_bijective_hom", valid)
    rep.add("order_law_holds", big.ring.order == expected)
    return rep.verdict(valid and big.ring.order == expected and dup.ring.order == expected,
                       "iterated presentation mismatch")


# -- pullbacks ----------------------------------------------------------------------


@dataclass(frozen=True)
class PullbackData:
    """The fiber product {(a,b) : alpha(a) = beta(b)} with its projections."""

    ring: FiniteRng
    left: FiniteRng
    right: FiniteRng
    over: FiniteRng
    alpha: RingHom
    beta: RingHom
    pairs: np.ndarray
    proj_left: RingHom
    proj_right: RingHom


def pullback(alpha: RingHom, beta: RingHom, name: str | None = None) -> PullbackData:
    """The pairs are exactly the solutions of alpha(a) = beta(b), so the
    square commutes by construction. The solutions of an equation between
    homs form a closed subset of the product, so `pair_subring` builds the
    ring without validating it again, and the projections are the
    coordinate maps of its own rows, the product's projections restricted
    to it: unital homs, not validated either."""
    if alpha.codomain != beta.codomain:
        raise AmbientMismatch("pullback requires a common codomain")
    if not (alpha.unital and beta.unital):
        raise InvalidParameter("pullback requires unital homs")
    ring, pairs, _ = pair_subring(alpha.domain, [beta.domain], alpha.map, beta.map, 1,
                                  "pullback", name or f"pullback({alpha.name},{beta.name})")
    proj_left = RingHom(ring, alpha.domain, pairs[:, 0], unital=True, name="proj_left",
                        check=False)
    proj_right = RingHom(ring, beta.domain, pairs[:, 1], unital=True, name="proj_right",
                         check=False)
    return PullbackData(ring, alpha.domain, beta.domain, alpha.codomain,
                        alpha, beta, pairs, proj_left, proj_right)


def residue_presentation(am: Amalgam) -> tuple[RingHom, RingHom]:
    """(induced hom A -> B/J, projection B -> B/J) for the pull identity."""
    quotient, pi = quotient_ring(am.target, am.ideal)
    return compose(pi, am.hom), pi


def pull_identity_check(am: Amalgam, instance: str | None = None) -> VerificationReport:
    """amalgam equals the fiber product over B/J

    Let pi: B -> B/J be the projection and f' = pi o f. The amalgam
    of f along J has exactly the element set {(a,b) : f'(a) = pi(b)}
    and the same operation tables: it is that fiber product, not
    merely isomorphic to it."""
    rep = VerificationReport("pull_identity", instance or am.description)
    pb = am.residue_pullback
    pairs_equal = np.array_equal(pb.pairs, am.pairs)
    rings_equal = pb.ring == am.ring
    rep.add("element_sets_equal", pairs_equal)
    rep.add("tables_equal", rings_equal)
    rep.add("order", am.ring.order)
    return rep.verdict(pairs_equal and rings_equal,
                       "pullback presentation differs from the amalgam")


def alt_pullback_checks(am: Amalgam, instance: str | None = None) -> VerificationReport:
    """two further fiber-product presentations collapse onto the amalgam

    The amalgam is also the fiber product of u: a -> (a, f(a)+J)
    against v: (a,b) -> (a, b+J) over A x B/J, and of the maps these
    induce over A/I x B/J with I the preimage of J. Both collapse
    maps are validated as bijective homs."""
    rep = VerificationReport("alt_pullbacks", instance or am.description)
    A, B = am.base, am.target
    f_res, pi = residue_presentation(am)
    BJ = pi.codomain
    Ipre = Ideal(A, am.ideal.members[am.hom.map])
    AI, rho = quotient_ring(A, Ipre)
    rep_idx = _first_at(rho.map, AI.order)

    def collapses(left: FiniteRng, u: np.ndarray, v: np.ndarray,
                  to_left: np.ndarray, name: str) -> bool:
        # u on `left` and v on all of A x B, at the flat code a*|B| + b, as
        # codes over left x B/J, so no product ring is built; (l, a, b) goes
        # to the amalgam's (a, b)
        fp = pair_subring(left, [A, B], u, v, 1, "pullback", name)
        a, b = np.divmod(fp.coords[:, 1], B.order)
        pos = am.fiber.position(np.stack([a, b], axis=1))
        if not (np.array_equal(fp.coords[:, 0], to_left[a])
                and (pos >= 0).all() and fp.ring.order == am.ring.order):
            return False
        return verify_iso(RingHom(fp.ring, am.ring, pos, unital=True,
                                  name=f"collapse {name}", check=False))

    # u: a -> (a, f(a)+J), v: (a, b) -> (a, b+J), and the maps they induce
    # over A/I x B/J (well defined, as f(I) lies in J) are products of homs
    # coordinate by coordinate, so homs, and each fiber product is closed.
    # Codes over left x B/J are below |A||B/J| <= guard^2 < 2^31, so int32
    # holds them, and v, one per element of A x B, takes half of int64's room
    a_codes = np.arange(A.order, dtype=np.int32)
    f_codes, pi_codes = f_res.map.astype(np.int32), pi.map.astype(np.int32)
    ok1 = collapses(A, a_codes * BJ.order + f_codes,
                    (a_codes[:, None] * BJ.order + pi_codes).ravel(), a_codes, "over A x B/J")
    rep.add("presentation_over_A_x_BJ", ok1)
    c_codes = np.arange(AI.order, dtype=np.int32)
    ok2 = collapses(AI, c_codes * BJ.order + f_codes[rep_idx],
                    (rho.map.astype(np.int32)[:, None] * BJ.order + pi_codes).ravel(),
                    rho.map, "over A/I x B/J")
    rep.add("presentation_over_AI_x_BJ", ok2)
    rep.add("order", am.ring.order)
    return rep.verdict(ok1 and ok2, "an alternate presentation failed to collapse")


def _find_presentation(homs, ideals: list[Ideal],
                       enc_pb: np.ndarray) -> tuple[tuple[RingHom, Ideal] | None, int]:
    """The first (g, J), homs outer and ideals inner, whose amalgam has the
    element set `enc_pb` (pullback pair encodings), else None, and the
    number of (g, J) tried."""
    tried = 0
    for g in homs:
        for J in ideals:
            tried += 1
            if g.domain.order * J.size != enc_pb.size:
                continue
            if np.array_equal(amalgam_pair_encoding(g, J), enc_pb):
                return (g, J), tried
    return None, tried


def factor_check(alpha: RingHom, beta: RingHom, f: RingHom,
                 instance: str | None = None) -> VerificationReport:
    """pullback of (alpha, beta) is an amalgam along f iff alpha = beta o f

    The fiber product of alpha: A -> C and beta: B -> C equals the
    amalgam of f: A -> B along some ideal exactly when
    alpha = beta o f, and the ideal is then Ker(beta). The negative
    direction is certified by exhausting all ideals of B."""
    if f.domain != alpha.domain or f.codomain != beta.domain \
            or alpha.codomain != beta.codomain:
        raise AmbientMismatch("factor_check needs f: A->B under alpha: A->C, beta: B->C")
    rep = VerificationReport("pullback_presentation",
                             instance or f"{alpha.name} vs {beta.name} through {f.name}")
    pb = pullback(alpha, beta)
    enc_pb = pb.pairs[:, 0] * beta.domain.order + pb.pairs[:, 1]  # pairs are int64
    factors = np.array_equal(beta.map[f.map], alpha.map)
    rep.add("alpha_factors_through_beta", factors)
    if factors:
        Jk = kernel(beta)
        rep.add("recovered_ideal_order", Jk.size)
        equal = np.array_equal(amalgam_pair_encoding(f, Jk), enc_pb)
        rep.add("pullback_equals_amalgam_along_kernel", equal)
        rep.verdict(equal, "factorization holds but sets differ")
    else:
        match, tried = _find_presentation([f], all_ideals(f.codomain), enc_pb)
        rep.add("ideals_exhausted", tried)
        rep.add("no_ideal_matches", match is None)
        if match is not None:
            rep.verdict(False, "no factorization, yet the pullback equals the amalgam "
                               f"along an ideal of size {match[1].size}")
    return rep


def retraction_criterion_check(alpha: RingHom, beta: RingHom,
                               budget: int | None = None,
                               instance: str | None = None) -> VerificationReport:
    """a pullback is an amalgam of its left ring iff a section exists

    For the fiber product of alpha: A -> C and beta: B -> C, the
    left projection admitting a section is equivalent to the
    pullback being the amalgam of some f: A -> B along Ker(beta).
    A found section rebuilds (f, J) and the sets are compared; a
    certified fruitless search is cross-checked by exhausting every
    (hom, ideal) presentation."""
    # Both searches charge `budget`; when either cannot finish inside it
    # there is no certificate, and the verdict is hypothesis_not_met.
    rep = VerificationReport("retraction_criterion", instance or f"{alpha.name} vs {beta.name}")
    pb = pullback(alpha, beta)
    if not pb.proj_left.is_surjective:
        rep.status = HYPOTHESIS_NOT_MET
        rep.add("note", "left projection is not surjective; a retraction "
                        "cannot exist and the criterion is not exercised")
        return rep
    search = find_section(pb.proj_left, budget)
    rep.add("section_found", search.found)
    rep.add("assignments_tried", search.tried)
    enc_pb = pb.pairs[:, 0] * beta.domain.order + pb.pairs[:, 1]  # pairs are int64
    if search.found:
        section = search.hom
        f_new = compose(pb.proj_right, section)
        Jk = kernel(beta)
        rep.add("reconstructed_ideal_order", Jk.size)
        factors = np.array_equal(beta.map[f_new.map], alpha.map)
        equal = np.array_equal(amalgam_pair_encoding(f_new, Jk), enc_pb)
        rep.add("reconstruction_factors", factors)
        rep.add("reconstruction_set_equal", equal)
        return rep.verdict(factors and equal, "section found but reconstruction failed")
    if not search.exhausted:
        rep.status = HYPOTHESIS_NOT_MET
        rep.add("note", "section search hit the budget before exhausting the "
                        "space; no certificate either way")
        return rep
    homs = enumerate_homs(pb.left, pb.right, unital=True, budget=budget)
    if not homs.exhausted:
        rep.status = HYPOTHESIS_NOT_MET
        rep.add("note", f"enumerating homs {homs.reason}; no certificate either way")
        return rep
    match, presentations = _find_presentation(homs, all_ideals(pb.right), enc_pb)
    rep.add("presentations_exhausted", presentations)
    rep.add("homs_available", len(homs))
    rep.add("no_presentation_exists", match is None)
    if match is not None:
        rep.verdict(False, "no section exists, yet the pullback is an amalgam along an "
                           f"ideal of size {match[1].size}")
    return rep


def retraction_roundtrip(am: Amalgam, budget: int | None = None,
                         instance: str | None = None) -> VerificationReport:
    """an amalgam re-entered as a pullback yields a section and J

    Present the amalgam as the fiber product of the induced map to
    B/J against the projection. The left projection admits a
    section (a -> (a, f(a)) gives one), and composing the section
    with the right projection recovers a hom whose amalgam along
    Ker(projection) = J is the original element set."""
    rep = VerificationReport("retraction_roundtrip", instance or am.description)
    pb = am.residue_pullback
    search = find_section(pb.proj_left, budget)
    rep.add("section_found", search.found)
    if not search.found and not search.exhausted:
        rep.status = HYPOTHESIS_NOT_MET
        rep.add("note", "section search budget exhausted")
        return rep
    if not search.found:
        return rep.verdict(False, "no section found for an amalgam's own projection")
    f_new = compose(pb.proj_right, search.hom)
    J_new = kernel(pb.beta)
    ideal_match = J_new == am.ideal
    rep.add("recovered_ideal_equals_J", ideal_match)
    # a fiber product's coords, the pairs, are int64
    enc_pb = pb.pairs[:, 0] * am.target.order + pb.pairs[:, 1]
    set_ok = np.array_equal(amalgam_pair_encoding(f_new, J_new), enc_pb) \
        and np.array_equal(pb.pairs, am.pairs)
    rep.add("reconstruction_set_equal", set_ok)
    return rep.verdict(ideal_match and set_ok, "round trip did not recover the amalgam")


def pullback_reduced_check(alpha: RingHom, beta: RingHom,
                           instance: str | None = None) -> VerificationReport:
    """reducedness transfer across a fiber product

    If the fiber product of alpha and beta is reduced then both
    Nilp(A) meet Ker(alpha) and Nilp(B) meet Ker(beta) are trivial;
    conversely A reduced with the beta-side intersection trivial
    forces the fiber product reduced, and symmetrically. All three
    implications are evaluated on the instance."""
    rep = VerificationReport("pullback_reduced", instance or f"{alpha.name} vs {beta.name}")
    pb = pullback(alpha, beta)
    d_red = is_reduced(pb.ring)
    a_red = is_reduced(pb.left)
    b_red = is_reduced(pb.right)
    na_ka = nilpotent_mask(pb.left) & (alpha.map == pb.over.zero)
    nb_kb = nilpotent_mask(pb.right) & (beta.map == pb.over.zero)
    left_trivial = int(na_ka.sum()) == 1
    right_trivial = int(nb_kb.sum()) == 1
    rep.add("pullback_reduced", d_red)
    rep.add("left_intersection_trivial", left_trivial)
    rep.add("right_intersection_trivial", right_trivial)
    rep.add("left_reduced", a_red)
    rep.add("right_reduced", b_red)
    necessary = (not d_red) or (left_trivial and right_trivial)
    sufficient_a = (not (a_red and right_trivial)) or d_red
    sufficient_b = (not (b_red and left_trivial)) or d_red
    rep.add("necessary_condition_holds", necessary)
    rep.add("sufficient_conditions_hold", sufficient_a and sufficient_b)
    return rep.verdict(necessary and sufficient_a and sufficient_b,
                       "an implication of the reducedness criterion failed")


def kernel_identity_check(alpha: RingHom, beta: RingHom,
                          instance: str | None = None) -> VerificationReport:
    """kernel of the left projection is {0} x Ker(beta)

    In the fiber product of alpha and beta, an element (a, b) maps
    to zero under the left projection exactly when a = 0 and
    beta(b) = 0. The two membership masks are compared element by
    element."""
    rep = VerificationReport("kernel_identity", instance or f"{alpha.name} vs {beta.name}")
    pb = pullback(alpha, beta)
    expected = (pb.pairs[:, 0] == pb.left.zero) \
        & (beta.map[pb.pairs[:, 1]] == pb.over.zero)
    actual = kernel(pb.proj_left).members
    equal = np.array_equal(actual, expected)
    rep.add("kernel_matches", equal)
    rep.add("kernel_order", int(actual.sum()))
    return rep.verdict(equal, "Ker(proj_left) differs from {0} x Ker(beta)")


# -- canonical isomorphisms -----------------------------------------------------------


def embedded_ideal(am: Amalgam, I: Ideal) -> Ideal:
    """I join J = {(i, f(i)+j)} as an ideal of the amalgam."""
    if I.ring != am.base:
        raise AmbientMismatch("ideal does not live in the base ring")
    return ideal_from_members(am.ring, I.members[am.pairs[:, 0]])


def canonical_isos(am: Amalgam, I: Ideal | None = None,
                   instance: str | None = None) -> VerificationReport:
    """the four quotient presentations of an amalgam

    Writing I for the preimage of J: the amalgam modulo the embedded
    ideal {(i, f(i)+j)} is A/I; modulo {0} x J it is A; modulo
    I x {0} it is f(A)+J; modulo I x J it is (f(A)+J)/J, and B/J
    when f is surjective. Each is verified through its explicit
    induced map."""
    rep = VerificationReport("canonical_isos", instance or am.description)
    A, B = am.base, am.target
    if I is None:
        I = Ideal(A, am.ideal.members[am.hom.map])
    IJ = embedded_ideal(am, I)
    Q1, q1 = quotient_ring(am.ring, IJ)
    h1 = compose(q1, am.embed)
    ok1 = h1.is_surjective and kernel(h1) == I
    if ok1:
        fi1 = first_iso_witness(h1)
        ok1 = fi1.valid and fi1.quotient.order == Q1.order
    rep.add("mod_embedded_ideal_iso_base_quotient",
            f"valid={ok1}, orders {am.ring.order}/{IJ.size} -> {Q1.order}")

    fi2 = first_iso_witness(am.proj_base)
    ok2 = fi2.valid
    rep.add("mod_zero_cross_J_iso_base", f"valid={ok2}, order {fi2.quotient.order}")

    pb_small, embed_bd = am.target_image
    fi3 = first_iso_witness(pb_small)
    ok3 = fi3.valid
    rep.add("mod_preimage_cross_zero_iso_image_plus_ideal",
            f"valid={ok3}, order {fi3.quotient.order}")

    bd_ring = pb_small.codomain
    # J lies inside f(A)+J: proj_target sends (0, j) to j
    J_bd = Ideal(bd_ring, am.ideal.members[embed_bd.map])
    BdJ, pi_bd = quotient_ring(bd_ring, J_bd)
    gamma = compose(pi_bd, pb_small)
    expected_ker = am.ideal.members[am.pairs[:, 1]]
    ok4 = np.array_equal(kernel(gamma).members, expected_ker)
    if ok4:
        fi4 = first_iso_witness(gamma)
        ok4 = fi4.valid
        rep.add("mod_preimage_cross_J_iso_residues",
                f"valid={ok4}, order {fi4.quotient.order}")
    else:
        rep.add("mod_preimage_cross_J_iso_residues", "kernel mismatch")

    surjective = am.hom.is_surjective
    rep.add("hom_surjective", surjective)
    ok5 = True
    if surjective:
        BJ, pi = quotient_ring(B, am.ideal)
        gamma2 = compose(pi, am.proj_target)
        fi5 = first_iso_witness(gamma2)
        ok5 = fi5.valid and fi5.quotient.order == BJ.order
        rep.add("surjective_variant_iso_target_quotient",
                f"valid={ok5}, order {BJ.order}")

    return rep.verdict(ok1 and ok2 and ok3 and ok4 and ok5,
                       "a canonical quotient witness failed to validate")


# -- ring-theoretic criteria -----------------------------------------------------------


def domain_criterion_check(am: Amalgam, instance: str | None = None) -> VerificationReport:
    """amalgam a domain iff f(A)+J is and the preimage of J is zero

    For nonzero J the amalgam is an integral domain exactly when
    f(A)+J is one and f^{-1}(J) = 0. Finite instances make both
    sides provably false (a finite domain is a field, and a field
    has no proper nonzero ideal), so the equivalence is exercised
    in its degenerate regime and the degeneracy is reported."""
    rep = VerificationReport("domain_criterion", instance or am.description)
    if am.ideal.is_zero:
        rep.status = HYPOTHESIS_NOT_MET
        rep.add("note", "J = 0 is outside the criterion's hypothesis; the "
                        "amalgam is just a copy of the base ring")
        rep.add("amalgam_is_domain", is_domain(am.ring))
        return rep
    lhs = is_domain(am.ring)
    bd_ring = am.target_image[0].codomain
    preimage_trivial = int(am.ideal.members[am.hom.map].sum()) == 1
    rhs = is_domain(bd_ring) and preimage_trivial
    rep.add("amalgam_is_domain", lhs)
    rep.add("image_plus_ideal_is_domain", is_domain(bd_ring))
    rep.add("preimage_trivial", preimage_trivial)
    rep.add("equivalence_holds", lhs == rhs)
    rep.add("finite_degeneracy",
            "both sides false: a finite domain is a field and a field has no "
            "proper nonzero ideal")
    return rep.verdict(lhs == rhs, "domain criterion equivalence violated")


def reduced_criterion_check(am: Amalgam, instance: str | None = None) -> VerificationReport:
    """amalgam reduced iff base reduced and Nilp(B) meets J trivially

    The amalgam has no nonzero nilpotents exactly when A has none
    and no nonzero nilpotent of B lies in J. When J is radical and
    the amalgam is reduced, B itself must be reduced; the check
    verifies the equivalence and that corollary on the instance."""
    rep = VerificationReport("reduced_criterion", instance or am.description)
    lhs = is_reduced(am.ring)
    a_red = is_reduced(am.base)
    nilp_meet = nilpotent_mask(am.target) & am.ideal.members
    meet_trivial = int(nilp_meet.sum()) == 1
    rhs = a_red and meet_trivial
    rep.add("amalgam_reduced", lhs)
    rep.add("base_reduced", a_red)
    rep.add("nilradical_meets_ideal_trivially", meet_trivial)
    rep.add("equivalence_holds", lhs == rhs)
    radical = is_radical(am.ideal)
    rep.add("ideal_is_radical", radical)
    corollary = (not (radical and lhs)) or is_reduced(am.target)
    rep.add("radical_corollary_holds", corollary)
    return rep.verdict(lhs == rhs and corollary, "reducedness criterion violated")


def reduced_converse_search(amalgams: list[Amalgam],
                            instance: str | None = None) -> VerificationReport:
    """search for a reduced amalgam over a non-reduced f(A)+J

    Scans the given amalgams for one whose base is reduced and whose
    ideal meets the target's nilradical trivially while f(A)+J is
    not reduced. Reports the witness or its absence; absence is a
    statement about the scanned instances only."""
    rep = VerificationReport("reduced_converse_search", instance or f"{len(amalgams)} instances")
    found = None
    for am in amalgams:
        nilp_meet = nilpotent_mask(am.target) & am.ideal.members
        if not (is_reduced(am.base) and int(nilp_meet.sum()) == 1):
            continue
        if not is_reduced(am.target_image[0].codomain):
            found = am
            break
    rep.add("instances_scanned", len(amalgams))
    rep.add("witness_found", found is not None)
    if found is not None:
        rep.add("witness_instance", found.description)
        rep.add("witness_reduced", is_reduced(found.ring))
    else:
        rep.add("note", "no catalog instance has a reduced amalgam with "
                        "non-reduced f(A)+J at this size bound")
    return rep
