"""Ring homomorphisms, isomorphism search, and section search.

A hom is stored as an index map from domain to codomain. Searches work from a
small generating set: images of generators determine the whole map, which is
grown by a worklist closure that fails fast on the first conflict. Exhaustive
searches report whether they really covered the whole space, so a negative
answer can be quoted as a certificate.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import AmbientMismatch, MalformedMap, NotSurjective
from .reports import ValidationReport, Violation
from .rings import Element, FiniteRng, _distinct, _first_at, _sub
from .subobjects import (
    Ideal,
    Subrng,
    _closure,
    _derivation,
    min_generating_set,
    subring_generated,
)


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
        self.unital = bool(unital)
        self.name = name or f"{domain.name}->{codomain.name}"
        self._hash = None
        try:
            arr = np.asarray(index_map, dtype=np.int64).copy()
        except OverflowError:  # an image beyond int64 is beyond the codomain
            report = ValidationReport(self.name, (Violation("map_range", ()),))
            raise MalformedMap(f"{self.name}: {report}") from None
        arr.setflags(write=False)
        self.map = arr
        if check:
            report = validate_hom(self)
            if not report.ok:
                raise MalformedMap(f"{self.name}: {report}")

    def __call__(self, x: Element) -> Element:
        if x.ring != self.domain:
            raise AmbientMismatch("element is not in the hom's domain")
        return Element(self.codomain, int(self.map[x.index]))

    @property
    def is_injective(self) -> bool:
        return _distinct(self.map, self.codomain.order).size == self.domain.order

    @property
    def is_surjective(self) -> bool:
        return _distinct(self.map, self.codomain.order).size == self.codomain.order

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


def _respects(fmap: np.ndarray, cols: np.ndarray, table_b: np.ndarray,
              gens: np.ndarray):
    """f(x op g) = f(x) op f(g) for every x and every g in gens, where cols
    holds x op g (`FiniteRng._generator_columns`), and f(x) op f(g) is read
    off the rows of the few f(g), op being commutative; one verdict per
    column when fmap holds several maps as columns."""
    rhs = _sub(table_b, fmap[gens], fmap).T if fmap.ndim == 1 else table_b[fmap[:, None], fmap[gens]]
    return (fmap[cols] == rhs).all(axis=(0, 1))


def _first_miss(fmap: np.ndarray, table_a: np.ndarray,
                table_b: np.ndarray) -> tuple[int, int] | None:
    """Lexicographically first (x, y) with f(x op y) != f(x) op f(y)."""
    bad = fmap[table_a] != _sub(table_b, fmap, fmap)
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return int(i), int(j)


def validate_hom(f: RingHom) -> ValidationReport:
    """Check that f preserves 0, +, * (and 1 when unital), reporting each
    violated law once with its lexicographically first witness.

    Both rings are taken to be valid, as every FiniteRng built with its
    check is. Then the laws are decided on the additive generating set S of
    the domain (`FiniteRng.additive_gens`) in O(n |S|) cells instead of n^2:
    the g with f(x + g) = f(x) + f(g) for all x are closed under +, so
    passing on S makes f additive; once it is, the g with f(xg) = f(x)f(g)
    for all x are closed under + by distributivity. A failed generator test
    hands over to the full scan for the witness.
    """
    A, B = f.domain, f.codomain
    violations: list[Violation] = []
    if f.map.shape != (A.order,):
        return ValidationReport(f.name, (Violation("map_shape", ()),))
    if f.map.min(initial=0) < 0 or f.map.max(initial=0) >= B.order:
        return ValidationReport(f.name, (Violation("map_range", ()),))
    if f.map[A.zero] != B.zero:
        violations.append(Violation("preserves_zero", (A.labels[A.zero],)))
    gens, cols = A.additive_gens, A._generator_columns
    additive = gens is not None and _respects(f.map, cols[0], B.add, gens)
    w = None if additive else _first_miss(f.map, A.add, B.add)
    if w is not None:
        violations.append(Violation("preserves_add", (A.labels[w[0]], A.labels[w[1]])))
    multiplicative = additive and _respects(f.map, cols[1], B.mul, gens)
    w = None if multiplicative else _first_miss(f.map, A.mul, B.mul)
    if w is not None:
        violations.append(Violation("preserves_mul", (A.labels[w[0]], A.labels[w[1]])))
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
    g = RingHom(f.domain, small, np.searchsorted(embed.map, f.map), unital=f.unital,
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
    iso = RingHom(Q, h.codomain, h.map[_first_at(proj.map, Q.order)], unital=h.unital,
                  name=f"induced({h.name})", check=False)
    return FirstIsoWitness(Q, proj, iso)


# -- generator machinery -----------------------------------------------------------


def _generators(ring: FiniteRng, include_one: bool) -> tuple[int, ...]:
    """A generating set as a subrng over 1 (when include_one) or over
    nothing, from `min_generating_set`: the least one when its seed phase
    finishes, else at most floor(log2 n) elements. Cached on the ring so
    that it lives exactly as long as the ring."""
    if include_one not in ring._gens:
        ring._gens[include_one] = min_generating_set(
            lambda seed: subring_generated(ring, seed, include_one).members
        ).indices
    return ring._gens[include_one]


def complete_hom(A: FiniteRng, B: FiniteRng, gens: tuple[int, ...], assignments,
                 unital: bool) -> list[np.ndarray | None]:
    """For each row of `assignments` (k rows of len(gens) images), the hom
    A -> B sending 0 to 0, 1 to 1 (when unital) and gens[i] to the row's
    i-th image, as an index map; None when the seeds do not generate A as a
    subrng, one element is asked for two images, or no hom extends them.

    How each element of A is reached from the seeds by + and * is derived
    once per seed tuple (`_closure`, `_derivation`) and cached on A. The
    batch replays it once for all k rows, one gather per step, and each
    candidate must then pass the generator test of `validate_hom`. So a
    returned map is a hom, and callers need not validate it again.
    """
    keys = [A.zero, A.one][:1 + unital] + list(gens)
    seeds = tuple(dict.fromkeys(keys))
    if seeds not in A._programs:
        mask, rounds = _closure(A.order, seeds, A.add, A.mul, absorbing=False)
        A._programs[seeds] = _derivation(A.order, rounds) if mask.all() else None
    program = A._programs[seeds]
    if program is None:
        return [None] * len(assignments)
    rows = [[B.zero, B.one][:1 + unital] + list(row) for row in assignments]
    # one map per column; one row, as in every forced map, replays on 1-D arrays
    vals = np.array(rows[0] if len(rows) == 1 else rows).T
    maps = np.empty((A.order, *vals.shape[1:]), dtype=np.int64)
    maps[keys] = vals
    ok = (maps[keys] == vals).all(axis=0)  # a seed asked for two images keeps one
    tables = (B.add, B.mul)
    for op, z, x, y in program:
        maps[z] = tables[op][maps[x], maps[y]]
    columns = maps.reshape(A.order, -1).T
    for table_b, cols in zip(tables, A._generator_columns):
        ok &= _respects(maps, cols, table_b, A.additive_gens)
    return [m if good else None for m, good in zip(columns, np.atleast_1d(ok))]


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
class HomSearch(Sequence):
    """The homs a generator-image search found, and how far it got.

    `exhausted` is False exactly when the budget cut the search, so only an
    exhausted search that found nothing certifies that nothing exists;
    stopping at a cap or at the first hit is not a cut. `tried` counts the
    assignments charged to the budget. The result reads as the tuple of its
    homs: len, iteration, indexing and slicing.
    """

    homs: tuple[RingHom, ...]
    exhausted: bool
    tried: int
    reason: str

    @property
    def found(self) -> bool:
        return bool(self.homs)

    @property
    def hom(self) -> RingHom | None:
        """The first hom found, or None."""
        return self.homs[0] if self.homs else None

    def __len__(self) -> int:
        return len(self.homs)

    def __getitem__(self, i):
        return self.homs[i]


_BATCH_CELLS = 1 << 12  # map cells per `complete_hom` batch: 1 map at order 4096


def _search(A: FiniteRng, B: FiniteRng, gens: tuple[int, ...], choices: list,
            unital: bool, budget: int | None, cap: int | None = None,
            accept=None, injective: bool = False) -> HomSearch:
    """The homs A -> B sending gens[i] into choices[i] that pass `accept`,
    in image-tuple order, up to `cap` of them.

    Each completion is charged to `budget`; under `injective`, assignments
    that repeat an image are skipped free of charge. `complete_hom` takes
    them in batches of `_BATCH_CELLS // |A|`, and the rows of a batch after
    the hit that ends a capped search are completed but not charged. An
    uncapped search whose assignment space exceeds the budget cannot
    finish, so it is refused before its first completion. With no
    generators, `itertools.product()` yields the one empty assignment, and
    the search completes the forced map.
    """
    budget = config.DEFAULT_SEARCH_BUDGET if budget is None else budget
    if cap is None:
        space = math.prod(map(len, choices))
        if space > budget:
            return HomSearch((), False, 0, f"needs {space} assignments, "
                                           f"over the budget of {budget}")
    assignments = (a for a in itertools.product(*choices)
                   if not injective or len(set(a)) == len(a))
    size = max(1, _BATCH_CELLS // A.order)
    homs: list[RingHom] = []
    tried = 0
    while batch := list(itertools.islice(assignments, max(0, min(size, budget - tried)))):
        for mapping in complete_hom(A, B, gens, batch, unital):
            tried += 1
            if mapping is None:
                continue
            f = RingHom(A, B, mapping, unital=unital, check=False)
            if accept is None or accept(f):
                homs.append(f)
                if len(homs) == cap:
                    return HomSearch(tuple(homs), True, tried, "found by generator search")
    if next(assignments, None) is not None:  # charged, never completed
        return HomSearch(tuple(homs), False, tried + 1, f"search budget {budget} exhausted")
    reason = "found by generator search" if homs else f"none after {tried} completions"
    return HomSearch(tuple(homs), True, tried, reason)


def find_iso(A: FiniteRng, B: FiniteRng,
             budget: int | None = None) -> HomSearch:
    """Search for an isomorphism. On failure, `reason` states the invariant
    that rules one out, or reports an exhausted (or budget-cut) search."""
    if A.order != B.order:
        return HomSearch((), True, 0, f"orders differ ({A.order} vs {B.order})")
    if A.has_one != B.has_one:
        return HomSearch((), True, 0, "one side has an identity, the other does not")
    sig_a = element_signatures(A)
    sig_b = element_signatures(B)
    if sorted(sig_a) != sorted(sig_b):
        return HomSearch((), True, 0, "element signature multisets differ")
    if A == B:
        return HomSearch((identity_hom(A),), True, 0, "identical presentations")
    unital = A.has_one
    gens = _generators(A, unital)
    choices = [[b for b in range(B.order) if sig_b[b] == sig_a[g]] for g in gens]
    return _search(A, B, gens, choices, unital, budget, cap=1,
                   accept=lambda f: f.is_bijective, injective=True)


def enumerate_homs(A: FiniteRng, B: FiniteRng, unital: bool = True,
                   cap: int | None = None,
                   budget: int | None = None) -> HomSearch:
    """All homs A -> B (unital or not), by generator-image search. Ordered by
    the image tuple, so the result is deterministic. `cap` truncates; `budget`
    bounds the number of completions attempted, and an uncapped enumeration
    that could not finish inside it returns no homs, with exhausted False."""
    if unital and not (A.has_one and B.has_one):
        return HomSearch((), True, 0, "a unital hom needs identities on both sides")
    gens = _generators(A, unital)
    return _search(A, B, gens, [range(B.order)] * len(gens), unital, budget, cap=cap)


def find_section(p: RingHom, budget: int | None = None) -> HomSearch:
    """Search for a unital hom s with p o s = id on p's codomain.

    Generator images are drawn from the fibers of p, so exhausting the space
    certifies that no section exists.
    """
    if not p.is_surjective:
        raise NotSurjective(f"{p.name} is not onto its codomain")
    C, D = p.codomain, p.domain
    C.require_one()
    D.require_one()
    gens = _generators(C, True)
    fibers = [np.flatnonzero(p.map == g).tolist() for g in gens]
    identity = np.arange(C.order)
    return _search(C, D, gens, fibers, True, budget, cap=1,
                   accept=lambda s: np.array_equal(p.map[s.map], identity))
