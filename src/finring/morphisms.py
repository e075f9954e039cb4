"""Ring homomorphisms, isomorphism search, and section search.

A hom is stored as an index map from domain to codomain. Searches work from a
small generating set: images of generators determine the whole map, which is
grown by a worklist closure that fails fast on the first conflict. Exhaustive
searches report whether they really covered the whole space, so a negative
answer can be quoted as a certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import AmbientMismatch, MalformedMap, NotSurjective
from .reports import ValidationReport, Violation
from .rings import Element, FiniteRng
from .subobjects import Ideal, Subrng, min_generating_set, subring_generated


class RingHom:
    """A homomorphism between finite rngs, as an index map.

    `unital` records whether the map is required to send 1 to 1; embeddings
    of ideals are the usual non-unital case. Construction validates unless
    check=False.
    """

    __slots__ = ("domain", "codomain", "map", "unital", "name", "_hash")

    def __init__(self, domain: FiniteRng, codomain: FiniteRng, index_map,
                 unital: bool = True, name: str | None = None, check: bool = True):
        self.domain = domain
        self.codomain = codomain
        arr = np.asarray(index_map, dtype=np.int64).copy()
        arr.setflags(write=False)
        self.map = arr
        self.unital = bool(unital)
        self.name = name or f"{domain.name}->{codomain.name}"
        self._hash = None
        if check:
            report = validate_hom(self)
            if not report.ok:
                raise MalformedMap(f"{self.name}: {report}")

    def __call__(self, x: Element) -> Element:
        if x.ring != self.domain:
            raise AmbientMismatch("element is not in the hom's domain")
        return Element(self.codomain, int(self.map[x.index]))

    def apply(self, index: int) -> int:
        return int(self.map[index])

    @property
    def is_injective(self) -> bool:
        return np.unique(self.map).size == self.domain.order

    @property
    def is_surjective(self) -> bool:
        return np.unique(self.map).size == self.codomain.order

    @property
    def is_bijective(self) -> bool:
        return self.domain.order == self.codomain.order and self.is_injective

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingHom):
            return NotImplemented
        return (
            self.unital == other.unital
            and self.domain == other.domain
            and self.codomain == other.codomain
            and np.array_equal(self.map, other.map)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.domain, self.codomain, self.unital, self.map.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:
        kind = "hom" if self.unital else "rng-hom"
        return f"<{kind} {self.name}>"


def validate_hom(f: RingHom) -> ValidationReport:
    A, B = f.domain, f.codomain
    violations: list[Violation] = []
    if f.map.shape != (A.order,):
        return ValidationReport(f.name, (Violation("map_shape", ()),))
    if f.map.min(initial=0) < 0 or f.map.max(initial=0) >= B.order:
        return ValidationReport(f.name, (Violation("map_range", ()),))
    if f.map[A.zero] != B.zero:
        violations.append(Violation("preserves_zero", (A.labels[A.zero],)))
    lhs = f.map[A.add]
    rhs = B.add[f.map[:, None], f.map[None, :]]
    if not np.array_equal(lhs, rhs):
        i, j = np.argwhere(lhs != rhs)[0]
        violations.append(Violation("preserves_add", (A.labels[i], A.labels[j])))
    lhs = f.map[A.mul]
    rhs = B.mul[f.map[:, None], f.map[None, :]]
    if not np.array_equal(lhs, rhs):
        i, j = np.argwhere(lhs != rhs)[0]
        violations.append(Violation("preserves_mul", (A.labels[i], A.labels[j])))
    if f.unital:
        if not (A.has_one and B.has_one):
            violations.append(Violation("unital_requires_identities", ()))
        elif f.map[A.one] != B.one:
            violations.append(Violation("preserves_one", (A.labels[A.one],)))
    return ValidationReport(f.name, tuple(violations))


def identity_hom(ring: FiniteRng) -> RingHom:
    return RingHom(ring, ring, np.arange(ring.order), unital=ring.has_one,
                   name=f"id({ring.name})", check=False)


def compose(outer: RingHom, inner: RingHom) -> RingHom:
    """outer after inner."""
    if inner.codomain != outer.domain:
        raise AmbientMismatch("compose: codomain/domain mismatch")
    return RingHom(
        inner.domain, outer.codomain, outer.map[inner.map],
        unital=inner.unital and outer.unital,
        name=f"{outer.name} o {inner.name}", check=False,
    )


def kernel(f: RingHom) -> Ideal:
    return Ideal(f.domain, f.map == f.codomain.zero)


def image(f: RingHom) -> Subrng:
    mask = np.zeros(f.codomain.order, dtype=bool)
    mask[f.map] = True
    return Subrng(f.codomain, mask)


def verify_iso(f: RingHom) -> bool:
    return f.is_bijective and validate_hom(f).ok


def corestrict(f: RingHom, name: str | None = None) -> tuple[RingHom, RingHom]:
    """f with its codomain shrunk to its image. Returns (f', embed) with
    embed o f' = f."""
    from .subobjects import subrng_as_ring

    img = image(f)
    small, embed = subrng_as_ring(img, name)
    pos = np.full(f.codomain.order, -1, dtype=np.int64)
    pos[embed.map] = np.arange(small.order)
    g = RingHom(f.domain, small, pos[f.map], unital=f.unital,
                name=f"{f.name}|image", check=False)
    return g, embed


@dataclass(frozen=True)
class FirstIsoWitness:
    """Quotient by the kernel plus the induced map onto the codomain: the
    first isomorphism theorem, made checkable."""

    quotient: FiniteRng
    projection: RingHom
    iso: RingHom

    @property
    def valid(self) -> bool:
        return verify_iso(self.iso)


def first_iso_witness(h: RingHom) -> FirstIsoWitness:
    """For surjective h, the induced map (domain/Ker h) -> codomain, built on
    least-index representatives. Validity is the caller's check to report."""
    from .subobjects import quotient_ring

    if not h.is_surjective:
        raise NotSurjective(f"{h.name} is not surjective")
    Q, proj = quotient_ring(h.domain, kernel(h))
    _, rep_idx = np.unique(proj.map, return_index=True)
    iso = RingHom(Q, h.codomain, h.map[rep_idx], unital=h.unital,
                  name=f"induced({h.name})", check=False)
    return FirstIsoWitness(Q, proj, iso)


# -- generator machinery -----------------------------------------------------------


def _generators(ring: FiniteRng, include_one: bool) -> tuple[int, ...]:
    """Least generating set as a subrng over 1 (when include_one) or over
    nothing, cached on the ring so that it lives exactly as long as the ring."""
    if include_one not in ring._gens:
        ring._gens[include_one] = min_generating_set(
            lambda seed: subring_generated(ring, seed, include_one).members
        ).indices
    return ring._gens[include_one]


def min_unital_generators(ring: FiniteRng) -> tuple[int, ...]:
    """Smallest generating set over the prime subring (1 comes for free)."""
    ring.require_one()
    return _generators(ring, True)


def rng_generators(ring: FiniteRng) -> tuple[int, ...]:
    """Smallest generating set as a rng (nothing comes for free)."""
    return _generators(ring, False)


def complete_hom(A: FiniteRng, B: FiniteRng, images: dict[int, int],
                 unital: bool) -> np.ndarray | None:
    """Grow a full index map from generator images, or None on conflict or
    when the images do not determine every element."""
    mapping = np.full(A.order, -1, dtype=np.int64)
    mapping[A.zero] = B.zero
    if unital:
        mapping[A.one] = B.one
    for g, img in images.items():
        if mapping[g] not in (-1, img):
            return None
        mapping[g] = img
    neg_a = A.neg_table()
    neg_b = B.neg_table()
    defined = [int(i) for i in np.flatnonzero(mapping >= 0)]
    queue = list(defined)
    while queue:
        x = queue.pop()
        fx = mapping[x]
        nx = int(neg_a[x])
        w = int(neg_b[fx])
        if mapping[nx] == -1:
            mapping[nx] = w
            defined.append(nx)
            queue.append(nx)
        elif mapping[nx] != w:
            return None
        for y in list(defined):
            fy = mapping[y]
            for table_a, table_b in ((A.add, B.add), (A.mul, B.mul)):
                z = int(table_a[x, y])
                w = int(table_b[fx, fy])
                if mapping[z] == -1:
                    mapping[z] = w
                    defined.append(z)
                    queue.append(z)
                elif mapping[z] != w:
                    return None
    if (mapping < 0).any():
        return None
    return mapping


# -- invariants used to prune searches ----------------------------------------------


def additive_orders(ring: FiniteRng) -> np.ndarray:
    orders = np.zeros(ring.order, dtype=np.int64)
    cur = np.arange(ring.order)
    k = 1
    while (orders == 0).any():
        orders[(cur == ring.zero) & (orders == 0)] = k
        cur = ring.add[cur, np.arange(ring.order)]
        k += 1
    return orders


def nilpotency_indices(ring: FiniteRng) -> np.ndarray:
    """Least k with x^k = 0, or 0 for non-nilpotent x. By convention 0 itself
    has index 1."""
    idx = np.zeros(ring.order, dtype=np.int64)
    cur = np.arange(ring.order)
    for k in range(1, ring.order + 1):
        hit = (cur == ring.zero) & (idx == 0)
        idx[hit] = k
        if (idx > 0).all():
            break
        cur = ring.mul[cur, np.arange(ring.order)]
    return idx


def element_signatures(ring: FiniteRng) -> list[tuple]:
    """Per-element tuples preserved by any isomorphism."""
    n = ring.order
    add_ord = additive_orders(ring)
    nilp = nilpotency_indices(ring)
    idem = ring.mul[np.arange(n), np.arange(n)] == np.arange(n)
    ann = (ring.mul == ring.zero).sum(axis=1)
    unit = (ring.mul == ring.one).any(axis=1) if ring.has_one else np.zeros(n, bool)
    return [
        (int(add_ord[i]), int(nilp[i]), bool(idem[i]), int(ann[i]), bool(unit[i]))
        for i in range(n)
    ]


# -- searches -----------------------------------------------------------------------


@dataclass(frozen=True)
class IsoSearch:
    hom: RingHom | None
    reason: str
    exhausted: bool

    @property
    def found(self) -> bool:
        return self.hom is not None


def find_iso(A: FiniteRng, B: FiniteRng,
             budget: int | None = None) -> IsoSearch:
    """Search for an isomorphism. On failure, `reason` states the invariant
    that rules one out, or reports an exhausted (or budget-cut) search."""
    if budget is None:
        budget = config.DEFAULT_SEARCH_BUDGET
    if A.order != B.order:
        return IsoSearch(None, f"orders differ ({A.order} vs {B.order})", True)
    if A.has_one != B.has_one:
        return IsoSearch(None, "one side has an identity, the other does not", True)
    sig_a = element_signatures(A)
    sig_b = element_signatures(B)
    if sorted(sig_a) != sorted(sig_b):
        return IsoSearch(None, "element signature multisets differ", True)
    if A == B:
        return IsoSearch(identity_hom(A), "identical presentations", True)
    unital = A.has_one
    gens = min_unital_generators(A) if unital else rng_generators(A)
    if not gens:
        # the prime subring is everything; the hom is forced
        mapping = complete_hom(A, B, {}, unital)
        if mapping is not None:
            f = RingHom(A, B, mapping, unital=unital, check=False)
            if verify_iso(f):
                return IsoSearch(f, "forced by identity element", True)
        return IsoSearch(None, "forced map is not an isomorphism", True)
    candidates = []
    for g in gens:
        fits = [b for b in range(B.order) if sig_b[b] == sig_a[g]]
        candidates.append(fits)
    tried = 0
    for assignment in itertools.product(*candidates):
        if len(set(assignment)) != len(assignment):
            continue
        tried += 1
        if tried > budget:
            return IsoSearch(None, f"search budget {budget} exhausted", False)
        mapping = complete_hom(A, B, dict(zip(gens, assignment)), unital)
        if mapping is None:
            continue
        f = RingHom(A, B, mapping, unital=unital, check=False)
        if verify_iso(f):
            return IsoSearch(f, "found by generator search", True)
    return IsoSearch(None, f"no isomorphism after {tried} completions", True)


def enumerate_homs(A: FiniteRng, B: FiniteRng, unital: bool = True,
                   cap: int | None = None,
                   budget: int | None = None) -> list[RingHom]:
    """All homs A -> B (unital or not), by generator-image search. Ordered by
    the image tuple, so the result is deterministic. `cap` truncates; `budget`
    bounds the number of completions attempted."""
    if budget is None:
        budget = config.DEFAULT_SEARCH_BUDGET
    if unital:
        if not (A.has_one and B.has_one):
            return []
        gens = min_unital_generators(A)
    else:
        gens = rng_generators(A)
    found: list[RingHom] = []
    tried = 0
    for assignment in itertools.product(range(B.order), repeat=len(gens)):
        tried += 1
        if tried > budget:
            break
        mapping = complete_hom(A, B, dict(zip(gens, assignment)), unital)
        if mapping is None:
            continue
        f = RingHom(A, B, mapping, unital=unital, check=False)
        if validate_hom(f).ok:
            found.append(f)
            if cap is not None and len(found) >= cap:
                break
    return found


@dataclass(frozen=True)
class SectionSearch:
    section: RingHom | None
    exhausted: bool
    tried: int

    @property
    def found(self) -> bool:
        return self.section is not None


def find_section(p: RingHom, budget: int | None = None) -> SectionSearch:
    """Search for a unital hom s with p o s = id on p's codomain.

    Generator images are drawn from the fibers of p, so exhausting the space
    certifies that no section exists.
    """
    if budget is None:
        budget = config.DEFAULT_SEARCH_BUDGET
    if not p.is_surjective:
        raise NotSurjective(f"{p.name} is not onto its codomain")
    C, D = p.codomain, p.domain
    C.require_one()
    D.require_one()
    gens = min_unital_generators(C)
    if not gens:
        mapping = complete_hom(C, D, {}, True)
        if mapping is not None:
            s = RingHom(C, D, mapping, unital=True, check=False)
            if validate_hom(s).ok and np.array_equal(p.map[s.map], np.arange(C.order)):
                return SectionSearch(s, True, 1)
        return SectionSearch(None, True, 1)
    fibers = [np.flatnonzero(p.map == g) for g in gens]
    tried = 0
    for assignment in itertools.product(*[f.tolist() for f in fibers]):
        tried += 1
        if tried > budget:
            return SectionSearch(None, False, tried)
        mapping = complete_hom(C, D, dict(zip(gens, assignment)), True)
        if mapping is None:
            continue
        s = RingHom(C, D, mapping, unital=True, check=False)
        if not validate_hom(s).ok:
            continue
        if np.array_equal(p.map[s.map], np.arange(C.order)):
            return SectionSearch(s, True, tried)
    return SectionSearch(None, True, tried)
