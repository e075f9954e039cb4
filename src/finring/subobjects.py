"""Ideals, subrings, quotients, localizations, and finite modules.

All subobjects are membership masks over an ambient ring, so set algebra is
numpy boolean algebra and every derived object remembers where it came from.
Canonical orderings: quotient classes and localization classes are sorted by
their least member (least ambient index, or lexicographically least fraction
pair), and subobjects materialize as standalone rings in ascending ambient
index order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import config
from .errors import (
    AmbientMismatch,
    EmptySet,
    InvalidParameter,
    InvariantViolated,
    NotMultiplicativelyClosed,
)
from .reports import ValidationReport, Violation
from .rings import (
    _TABLE_DTYPE,
    Element,
    FiniteRng,
    _additive_generators,
    _assoc_on,
    _assoc_scan,
    _distinct,
    _distrib_scan,
    _distributes,
    _first_at,
    _group_laws,
    _scan,
    _sub,
    is_domain,
    is_field,
    is_reduced,
    nilpotent_mask,
    restrict_to_subset,
)


def _as_index(ring: FiniteRng, x) -> int:
    if isinstance(x, Element):
        if x.ring != ring:
            raise AmbientMismatch("element belongs to a different ring")
        return x.index
    if isinstance(x, str):
        return ring.index_of(x)
    i = int(x)
    if not 0 <= i < ring.order:
        raise InvalidParameter(f"index {i} out of range for {ring.name}")
    return i


def _as_mask(ring: FiniteRng, members) -> np.ndarray:
    members = np.asarray(members)
    if members.dtype == bool:
        if members.shape != (ring.order,):
            raise InvalidParameter("membership mask has the wrong length")
        return members.copy()
    mask = np.zeros(ring.order, dtype=bool)
    for x in members:
        mask[_as_index(ring, x)] = True
    return mask


@dataclass(frozen=True, eq=False)
class MaskedSubset:
    """A subset of `ring`, stored as a read-only boolean membership mask.

    Equality and hashing compare ring and mask; subsets of different kinds
    never compare equal, even on the same mask."""

    ring: FiniteRng
    members: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.members, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "members", mask)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.members)

    @property
    def size(self) -> int:
        return int(self.members.sum())

    def contains(self, x) -> bool:
        return bool(self.members[_as_index(self.ring, x)])

    def labels(self) -> list[str]:
        return [self.ring.labels[i] for i in self.indices]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self.members, other.members)

    def __hash__(self) -> int:
        return hash((self.ring, self.members.tobytes()))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {self.ring.name}, size {self.size}>"


class Ideal(MaskedSubset):
    """An ideal of `ring`."""

    @property
    def is_zero(self) -> bool:
        return self.size == 1


class Subrng(MaskedSubset):
    """A subrng of `ring` (closed under + and *)."""

    @property
    def has_one(self) -> bool:
        return self.ring.has_one and bool(self.members[self.ring.one])


def _closure(order: int, seed, add: np.ndarray, mul: np.ndarray,
             absorbing: bool) -> tuple[np.ndarray, list[tuple]]:
    """Mask of the least set holding the `seed` indices and closed under the
    additive table `add` and under products from `mul`: by every row of
    `mul` when absorbing, else by members only. A finite set closed under +
    is closed under negation too, so no separate negation step is needed.

    The set grows in frontier rounds. Each round adds the frontier (what
    the round before reached first) to every member, and multiplies it by
    every member, or by every row of `mul` when absorbing; so each pair is
    met once, the tables being commutative. Also returns the rounds, for
    `_derivation`: the elements each reached first (ascending) and the
    cells it computed, as ((rows, cols), block) for `add` then `mul`, rows
    None standing for every row of the table.
    """
    mask = np.zeros(order, dtype=bool)
    mask[list(seed)] = True
    frontier = members = np.flatnonzero(mask)
    rounds = []
    while True:
        spans = ((frontier, members),
                 (None, frontier) if absorbing else (frontier, members))
        blocks = [table.take(cols, 1) if rows is None else _sub(table, rows, cols)
                  for table, (rows, cols) in zip((add, mul), spans)]
        hit = np.zeros(order, dtype=bool)
        for block in blocks:
            hit[block] = True
        frontier = np.flatnonzero(hit & ~mask)
        if not frontier.size:
            return mask, rounds
        rounds.append((frontier, list(zip(spans, blocks))))
        mask[frontier] = True
        members = np.concatenate((members, frontier))


def _derivation(order: int,
                rounds: list[tuple]) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The rounds of `_closure` on 0..order-1 as a straight-line program:
    steps (op, z, x, y) meaning z = add[x, y] (op 0) or z = mul[x, y] (op
    1), elementwise, each z taken from the first cell of its round that
    produced it. Every x and y is a seed or the z of an earlier step."""
    steps = []
    for new, blocks in rounds:
        todo = new
        for op, ((rows, cols), block) in enumerate(blocks):
            at = _first_at(block, order)[todo]
            found = at >= 0
            if found.any():
                i, j = np.divmod(at[found], cols.size)
                steps.append((op, todo[found], i if rows is None else rows[i], cols[j]))
            todo = todo[~found]
    return steps


# -- ideal construction and arithmetic -----------------------------------------


def ideal_mask_witness(ring: FiniteRng, mask: np.ndarray) -> str | None:
    """None when mask is an ideal, else a short description of the failure."""
    if not mask[ring.zero]:
        return "missing zero"
    idx = np.flatnonzero(mask)
    neg = ring.neg_table()
    if not mask[neg[idx]].all():
        bad = idx[~mask[neg[idx]]][0]
        return f"not closed under negation at {ring.labels[bad]}"
    sums = _sub(ring.add, idx, idx)
    if not mask[sums].all():
        i, j = np.argwhere(~mask[sums])[0]
        return f"not closed under + at ({ring.labels[idx[i]]}, {ring.labels[idx[j]]})"
    prods = np.take(ring.mul, idx, 1)
    if not mask[prods].all():
        r, j = np.argwhere(~mask[prods])[0]
        return f"not absorbing at ({ring.labels[r]}, {ring.labels[idx[j]]})"
    return None


def ideal_from_members(ring: FiniteRng, members) -> Ideal:
    """Wrap an explicit member set after verifying it really is an ideal."""
    mask = _as_mask(ring, members)
    witness = ideal_mask_witness(ring, mask)
    if witness is not None:
        raise InvalidParameter(f"member set is not an ideal: {witness}")
    return Ideal(ring, mask)


def _principal(ring: FiniteRng, xs) -> np.ndarray:
    """Masks of the ideals (x), one row per x in xs: with a 1, R·x, the row
    `mul[x]`, which holds 0x and 1x and is closed as rx + sx = (r + s)x and
    s(rx) = (sr)x; without one, the closure of {0, x}."""
    if not ring.has_one:
        return np.array([_closure(ring.order, (ring.zero, x), ring.add, ring.mul,
                                  absorbing=True)[0] for x in xs])
    masks = np.zeros((len(xs), ring.order), dtype=bool)
    masks[np.arange(len(xs))[:, None], ring.mul[xs]] = True
    return masks


def _sum_mask(ring: FiniteRng, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of {i + j : i in a, j in b}, one gather. For ideals it is the
    ideal I + J: it holds 0, + keeps it closed, and r(i + j) = ri + rj."""
    mask = np.zeros(ring.order, dtype=bool)
    mask[ring.add[a][:, b]] = True
    return mask


def ideal_from_generators(ring: FiniteRng, generators) -> Ideal:
    """Smallest ideal containing the generators: the sum (g1) + ... + (gk)
    of their principal ideals (`_principal`, `_sum_mask`), a generator
    already in the partial sum adding nothing."""
    mask = np.arange(ring.order) == ring.zero
    for g in [_as_index(ring, g) for g in generators]:
        if not mask[g]:
            mask = _sum_mask(ring, mask, _principal(ring, [g])[0])
    return Ideal(ring, mask)


def zero_ideal(ring: FiniteRng) -> Ideal:
    return ideal_from_generators(ring, [])


def unit_ideal(ring: FiniteRng) -> Ideal:
    mask = np.ones(ring.order, dtype=bool)
    return Ideal(ring, mask)


def _same_ambient(a, b) -> None:
    if a.ring != b.ring:
        raise AmbientMismatch("operands live in different ambient rings")


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    _same_ambient(I, J)
    prods = _sub(I.ring.mul, I.indices, J.indices)
    return ideal_from_generators(I.ring, _distinct(prods, I.ring.order))


def nilradical(ring: FiniteRng) -> Ideal:
    return Ideal(ring, nilpotent_mask(ring).copy())


def annihilator_killed(ring: FiniteRng, s_indices: np.ndarray) -> np.ndarray:
    """Mask of x with tx = 0 for some t in the given set."""
    return (np.take(ring.mul, s_indices, 0) == ring.zero).any(axis=0)


# -- quotients -------------------------------------------------------------------


def coset_representatives(ring: FiniteRng, I: Ideal) -> tuple[np.ndarray, np.ndarray]:
    """(reps, class_of): reps are the least-index coset representatives in
    ascending order; class_of[x] is the class index of element x, in the
    table dtype, so that a table gathered through it needs no copy."""
    _require_same_ring(ring, I)
    rep_of = np.take(ring.add, I.indices, 1).min(axis=1)
    is_rep = rep_of == np.arange(ring.order)  # x is the least of x + I
    return np.flatnonzero(is_rep), (np.cumsum(is_rep, dtype=_TABLE_DTYPE) - 1)[rep_of]


def _require_same_ring(ring: FiniteRng, sub) -> None:
    if sub.ring != ring:
        raise AmbientMismatch("subobject belongs to a different ring")


def quotient_ring(ring: FiniteRng, I: Ideal):
    """The quotient by an ideal together with the projection hom.

    Classes are ordered by least ambient representative; labels are the
    representative label in brackets. The quotient and class map are cached
    on `ring` by mask, the projection made per call: no cycle holds `ring`.

    The quotient is not validated again. Every `Ideal` is a closure, a
    kernel, a preimage, a sum of ideals, a principal ideal
    R·x of a unital ring (`_principal`), or checked by
    `ideal_from_members`, so the class map is a congruence and the quotient
    is the image of a valid ring under a surjective hom, where every axiom
    holds. The projection, the class map of that congruence, is a hom onto
    the quotient's tables by construction and not validated either. The
    classes of the additive generators of `ring` generate the quotient.
    """
    from .morphisms import RingHom

    _require_same_ring(ring, I)
    key = I.members.tobytes()
    if key not in ring._quotients:
        reps, class_of = coset_representatives(ring, I)
        add = class_of[_sub(ring.add, reps, reps)]
        mul = class_of[_sub(ring.mul, reps, reps)]
        zero = int(class_of[ring.zero])
        one = int(class_of[ring.one]) if ring.has_one else None
        labels = [f"[{ring.labels[r]}]" for r in reps]
        quotient = FiniteRng(
            add, mul, zero, one, labels,
            provenance="quotient", name=f"quot({ring.name},{I.size})", check=False,
            additive_gens=class_of[ring.additive_gens],
        )
        ring._quotients[key] = (quotient, class_of)
    quotient, class_of = ring._quotients[key]
    return quotient, RingHom(ring, quotient, class_of, unital=ring.has_one, check=False)


def is_prime(I: Ideal) -> bool:
    quotient, _ = quotient_ring(I.ring, I)
    return is_domain(quotient)

def is_maximal(I: Ideal) -> bool:
    quotient, _ = quotient_ring(I.ring, I)
    return is_field(quotient)

def is_radical(I: Ideal) -> bool:
    quotient, _ = quotient_ring(I.ring, I)
    return is_reduced(quotient)


def regular_elements_mod(ring: FiniteRng, I: Ideal) -> np.ndarray:
    """Indices of all s whose class in ring/I is nonzero and not a zero
    divisor. When ring/I is the zero ring the convention is that every
    element qualifies. ring/I is read from `quotient_ring`'s cache, and
    ring/{0} is ring itself, so no table is gathered here."""
    _require_same_ring(ring, I)
    if I.size == ring.order:
        return np.arange(ring.order)
    if I.size == 1:
        mul, zero, class_of = ring.mul, ring.zero, None
    else:
        quotient, proj = quotient_ring(ring, I)
        mul, zero, class_of = quotient.mul, quotient.zero, proj.map
    # x*0 = 0, so a class is regular exactly when its row holds zero once;
    # the zero row holds it in every column
    regular = np.count_nonzero(mul == zero, axis=1) == 1
    return np.flatnonzero(regular if class_of is None else regular[class_of])


def localization(ring: FiniteRng, s_indices) -> tuple:
    """Fractions a/s for s in a multiplicatively closed set containing 1.

    (a,s) and (a',s') are identified when t(as' - a's) = 0 for some t in S.
    Classes are labeled and ordered by their lexicographically least pair.
    Returns (localized ring, canonical hom a -> a/1).

    The ring is finite, so each s in S has an idempotent power e in S, and
    e/1 = 1: s is a unit in eA, and a/s = (a t)/1 for t the inverse of s
    there. So a -> a/1 is onto, and the localization is A/K, K its kernel:
    the a that some t in S kills. The class of a/s is the class of
    a times the inverse class of s, one n x |S| gather, the least pair of
    each class one `_first_at` over it: O(n·|S| + n²).
    """
    from .morphisms import RingHom

    one = ring.require_one()
    s_idx = np.array(sorted({_as_index(ring, s) for s in s_indices}), dtype=np.int64)
    if s_idx.size == 0:
        raise EmptySet("localization set is empty")
    if one not in set(s_idx.tolist()):
        raise NotMultiplicativelyClosed("localization set must contain 1")
    in_s = np.zeros(ring.order, dtype=bool)
    in_s[s_idx] = True
    closed = in_s[_sub(ring.mul, s_idx, s_idx)]
    if not closed.all():
        i, j = np.argwhere(~closed)[0]
        raise NotMultiplicativelyClosed(
            f"{ring.labels[s_idx[i]]} * {ring.labels[s_idx[j]]} leaves the set"
        )
    killed = annihilator_killed(ring, s_idx)
    reps, class_of = coset_representatives(ring, Ideal(ring, killed))
    units = class_of[_sub(ring.mul, s_idx, reps)] == class_of[one]
    if not units.any(axis=1).all():
        raise InvariantViolated("a denominator has no inverse class")
    # row a, column j: the class of a/s_j, so the flat order is the pairs'
    first = _first_at(class_of[ring.mul.take(reps[units.argmax(axis=1)], 1)], reps.size)
    is_least = np.zeros(ring.order * s_idx.size, dtype=bool)
    is_least[first] = True
    # by least pair; the count of classes is at most the order
    cls = (np.cumsum(is_least, dtype=_TABLE_DTYPE)[first] - 1)[class_of]
    reps = _first_at(cls, reps.size)
    ra, rs = np.divmod(np.flatnonzero(is_least), s_idx.size)
    labels = [f"{ring.labels[a]}/{ring.labels[s]}" for a, s in zip(ra, s_idx[rs])]
    localized = FiniteRng(
        cls[_sub(ring.add, reps, reps)], cls[_sub(ring.mul, reps, reps)],
        int(cls[ring.zero]), int(cls[one]), labels,
        provenance="localization", name=f"loc({ring.name},{s_idx.size})",
    )
    # the class map of a congruence, so a hom onto the tables read through it
    lam = RingHom(ring, localized, cls, unital=True, check=False)
    # kernel sanity: a/1 = 0 exactly when some t in S kills a
    if not np.array_equal(lam.map == localized.zero, killed):
        raise InvariantViolated("localization kernel mismatch")
    return localized, lam


# -- subrings --------------------------------------------------------------------


def subring_generated(ring: FiniteRng, seed, include_one: bool = True) -> Subrng:
    """Smallest subrng containing the seed (and 1 when include_one and the
    ambient ring is unital): closure under +, negation, and *."""
    fixed = [ring.zero] + ([ring.one] if include_one and ring.has_one else [])
    start = fixed + [_as_index(ring, g) for g in seed]
    mask, _ = _closure(ring.order, start, ring.add, ring.mul, absorbing=False)
    return Subrng(ring, mask)


def _as_ring(sub: MaskedSubset, name: str, unital: bool):
    """The subset as a rng (see `restrict_to_subset`), or `sub.ring` itself
    when the subset is all of it, plus its inclusion, which is not
    validated: it is the identity of `sub.ring` restricted to a closed
    subset, so it keeps + and *, and 1 when `unital` says the subset holds
    the ambient identity."""
    from .morphisms import RingHom

    idx = sub.indices
    whole = idx.size == sub.ring.order
    ring = sub.ring if whole else restrict_to_subset(sub.ring, idx, "subring", name)
    return ring, RingHom(ring, sub.ring, idx.astype(np.int64), unital=unital, check=False)


def subrng_as_ring(sub: Subrng, name: str | None = None):
    """Materialize a subrng as a standalone ring plus the embedding hom."""
    return _as_ring(sub, name or f"sub({sub.ring.name},{sub.size})", sub.has_one)


def ideal_as_rng(I: Ideal, name: str | None = None):
    """Materialize an ideal as a standalone rng plus the (non-unital) embedding."""
    return _as_ring(I, name or f"rng({I.ring.name},{I.size})", unital=False)


def all_ideals(ring: FiniteRng, cap: int | None = None) -> list[Ideal]:
    """Every ideal, sorted by (size, membership mask) so the order is
    reproducible; `cap` truncates the sorted list.

    An ideal is the sum of the principal ideals of its members, and a sum
    of ideals is one (`_sum_mask`). So the ideals are the closure of {0}
    under adding one more principal ideal (`_principal`, once per element),
    skipping those inside the ideal at hand."""
    masks = {m.tobytes(): m for m in _principal(ring, np.arange(ring.order))}
    principals = np.array(list(masks.values()))
    start = np.arange(ring.order) == ring.zero
    seen, queue = {start.tobytes(): start}, [start]
    while queue:
        cur = queue.pop()
        for p in principals[(principals & ~cur).any(axis=1)]:
            bigger = _sum_mask(ring, cur, p)
            if seen.setdefault(bigger.tobytes(), bigger) is bigger:
                queue.append(bigger)
    result = sorted(seen.values(), key=lambda m: (int(m.sum()), m.tobytes()))
    return [Ideal(ring, m) for m in result[:cap]]


# -- finite modules ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteModule:
    """A finite module over `ring`: an additive table plus an action table
    of shape (|ring|, order)."""

    ring: FiniteRng
    order: int
    add: np.ndarray
    zero: int
    labels: tuple[str, ...]
    action: np.ndarray

    def __post_init__(self):
        add = np.asarray(self.add, dtype=np.int64)
        action = np.asarray(self.action, dtype=np.int64)
        add.setflags(write=False)
        action.setflags(write=False)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteModule):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.order == other.order
            and self.zero == other.zero
            and self.labels == other.labels
            and np.array_equal(self.add, other.add)
            and np.array_equal(self.action, other.action)
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.order, self.zero, self.labels,
                     self.add.tobytes(), self.action.tobytes()))

    def __repr__(self) -> str:
        return f"<FiniteModule over {self.ring.name}, order {self.order}>"


def validate_module(M: FiniteModule) -> ValidationReport:
    """Abelian group axioms plus both distributive laws, associativity of the
    action, and 1x = x when the scalar ring is unital.

    Decided exactly as in `validate_rng`, on greedy additive generating sets
    of M and of the scalar ring (a valid rng, as every FiniteRng built with
    its check is): Light's test for + on M; a(x + s) = ax + as for s in
    gens(M); (a + b)x = ax + bx for b in gens(A); and, once the action is
    additive in both arguments, (ab)x = a(bx) on gens(A)^2 x gens(M). A
    failed generator test or premise hands over to a row-ordered scan for
    the lexicographically first witness.
    """
    add, act, n = M.add, M.action, M.order
    ring = M.ring
    lab = M.labels
    if add.shape != (n, n) or act.shape != (ring.order, n):
        return ValidationReport("module", (Violation("table_shape", ()),))
    gens = _additive_generators(add, M.zero)
    violations, add_ok = _group_laws(add, M.zero, gens, lab)

    def report(axiom: str, w: tuple[int, ...] | None, *alphabets) -> None:
        if w is not None:
            violations.append(Violation(axiom, tuple(ls[i] for ls, i in zip(alphabets, w))))

    # a(x + y) = ax + ay
    fast = gens is not None and add_ok
    w = None if fast and _distributes(add, act, gens) else _distrib_scan(add, act)
    report("action_distributes_over_module_add", w, ring.labels, lab, lab)
    module_ok = w is None
    # (a + b)x = ax + bx; the b that pass are closed under + when both + are
    # associative
    ring_gens = ring.additive_gens
    fast = ring_gens is not None and add_ok and all(
        np.array_equal(act[ring.add[:, b]], add[act, act[b][None, :]]) for b in ring_gens
    )
    w = None if fast else _scan(
        ring.order, lambda a: act[ring.add[a]], lambda a: add[act[a][None, :], act]
    )
    report("action_distributes_over_scalar_add", w, ring.labels, ring.labels, lab)
    # (ab)x = a(bx)
    bilinear = ring_gens is not None and gens is not None and module_ok and w is None
    fast = bilinear and _assoc_on(ring.mul, act, ring_gens, gens)
    w = None if fast else _assoc_scan(ring.mul, act)
    report("action_associative", w, ring.labels, ring.labels, lab)
    if ring.has_one and not np.array_equal(act[ring.one], np.arange(n)):
        x = int(np.argwhere(act[ring.one] != np.arange(n))[0][0])
        report("one_acts_as_identity", (x,), lab)
    return ValidationReport("module", tuple(violations))


def module_via_hom(f, J: Ideal) -> FiniteModule:
    """The ideal J of f's codomain as a module over f's domain, with the
    action a.j = f(a) * j.

    f is a hom and J an ideal, so each module law follows from the ring
    axioms of the codomain and the hom laws of f, except 1.j = j when f(1)
    is not 1: only that row of the action is checked, in O(|J|)."""
    B = f.codomain
    _require_same_ring(B, J)
    idx = J.indices
    pos = np.full(B.order, -1, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    add = pos[_sub(B.add, idx, idx)]
    action = pos[_sub(B.mul, f.map, idx)]
    if (add < 0).any() or (action < 0).any():
        raise InvariantViolated("the ideal is not closed under + or the action")
    M = FiniteModule(
        ring=f.domain,
        order=int(idx.size),
        add=add,
        zero=int(pos[B.zero]),
        labels=tuple(B.labels[i] for i in idx),
        action=action,
    )
    if f.domain.has_one:
        moved = np.flatnonzero(action[f.domain.one] != np.arange(idx.size))
        if moved.size:
            raise InvalidParameter("hom action does not give a module: "
                                   f"one_acts_as_identity at ({M.labels[moved[0]]})")
    return M


def submodule_generated(M: FiniteModule, seed) -> np.ndarray:
    """Membership mask of the submodule generated by seed positions."""
    mask, _ = _closure(M.order, [M.zero, *map(int, seed)], M.add, M.action, absorbing=True)
    return mask


@dataclass(frozen=True)
class GeneratorSearch:
    indices: tuple[int, ...]
    minimal: bool

    def labels(self, M: FiniteModule) -> list[str]:
        return [M.labels[i] for i in self.indices]


def min_generating_set(generated: Callable[[Sequence[int]], np.ndarray]) -> GeneratorSearch:
    """A generating set, where generated(seed) is the mask of what a seed
    generates: an additive subgroup, the least one holding the seed and
    generated(()). Seeds are drawn from the elements outside generated(())
    and tried in (size, lexicographic) order, each charged the structure's
    order n in cells against DEFAULT_SUBSET_CELLS; the first that generates
    everything has minimum size (minimal=True). Past the budget the search
    appends the least element not yet generated and closes again
    (minimal=False). Each step at least doubles the subgroup, so that takes
    at most floor(log2 n) closures."""
    base = generated(())
    if base.all():
        return GeneratorSearch((), True)
    pool = np.flatnonzero(~base).tolist()
    seeds = itertools.chain.from_iterable(
        itertools.combinations(pool, k) for k in range(1, len(pool) + 1)
    )
    for seed in itertools.islice(seeds, config.DEFAULT_SUBSET_CELLS // base.size):
        if generated(seed).all():
            return GeneratorSearch(seed, True)
    chosen, mask = [], base
    while not mask.all():
        chosen.append(int(np.argmin(mask)))
        mask = generated(chosen)
    return GeneratorSearch(tuple(chosen), False)


def module_min_generators(M: FiniteModule) -> GeneratorSearch:
    """A generating set of M, of minimum size when the seed phase of
    `min_generating_set` finishes (`minimal`)."""
    return min_generating_set(lambda seed: submodule_generated(M, seed))
