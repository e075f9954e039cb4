"""Finite commutative rngs presented by explicit Cayley tables.

A ring here is a carrier 0..order-1 plus two order x order numpy tables for
addition and multiplication, a distinguished zero, an optional multiplicative
identity (None for rngs without one), and one display label per element.
Instances are immutable. Equality is structural: same tables, same zero/one,
same labels. `name` and `provenance` are descriptive and never compared.

An object that exists is an object whose axioms hold. Every constructor
establishes them in one of three ways, and says which in its docstring:
it machine-checks the tables (`validate_rng`, for raw tables and
localizations); it decides them from an additive generating set S and the
products of its members, the structure constants, in O(|S|^3) cells
(`from_structure`, under zmod, galois_field, trunc_poly, direct products
and dotted sums); or it builds the ring from valid rings in a way that
provably keeps every axiom (closed subsets and fiber products here,
quotients in `subobjects`).

Each ring carries an additive generating set S (`FiniteRng.additive_gens`)
for the deciders that work on generators: the constructor's own where it
knows one, else a greedy one computed on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import config
from .errors import (
    AmbientMismatch,
    InvalidParameter,
    InvariantViolated,
    MalformedTable,
    MissingIdentity,
    SizeGuardExceeded,
)
from .reports import ValidationReport, Violation

# Element indices are below the order, which the size guard caps at the
# dtype's maximum (`config.set_size_guard`), so int16 holds every one.
# Arithmetic that meets an order is done in int64 unless it provably stays
# below the ring's order, as each such place says.
_TABLE_DTYPE = np.int16

# Provenance tags, fixed vocabulary.
PROVENANCES = (
    "zmod",
    "product",
    "quotient",
    "subring",
    "amalgam",
    "pullback",
    "table",
    "trunc_poly",
    "localization",
    "dotted_sum",
    "idealization",
)


def _blocks(n: int, cells_per_block: int = 1 << 21) -> Iterator[tuple[int, int]]:
    """Row-block ranges keeping roughly cells_per_block table cells in flight."""
    step = max(1, cells_per_block // max(n, 1))
    for i0 in range(0, n, step):
        yield i0, min(n, i0 + step)


def _sub(table: np.ndarray, rows, cols) -> np.ndarray:
    """table[rows][:, cols], the sub-table at the index arrays rows and
    cols: whole rows first, then columns by `np.take`, so that each gather
    stays inside one row. Two to three times faster than one
    two-dimensional fancy index when the sub-table is about as wide as the
    table; a few rows of a much wider table cost more, as whole rows are
    copied."""
    return table.take(rows, 0).take(cols, 1)


def _distinct(x, n: int) -> np.ndarray:
    """The distinct values of x, all in 0..n-1, in ascending order: a
    boolean scatter over 0..n-1 while n is at most 32 x.size, about where
    one pass over n flags costs what sorting x does, else a sort."""
    x = np.ravel(x)
    if n <= 32 * x.size:
        seen = np.zeros(n, dtype=bool)
        seen[x] = True
        return np.flatnonzero(seen)
    x = np.sort(x)
    return x[np.diff(x, prepend=-1) != 0]


def _first_at(x, n: int) -> np.ndarray:
    """first[v], for v in 0..n-1, the least i with x[i] == v, -1 where v
    does not occur: a scatter of the positions in reverse, so that the last
    write to each value, the least position, is the one kept."""
    x = np.ravel(x)
    first = np.full(n, -1, dtype=np.int64)
    first[x[::-1]] = np.arange(x.size - 1, -1, -1)
    return first


class FiniteRng:
    """A finite commutative rng given by explicit operation tables."""

    def __init__(
        self,
        add,
        mul,
        zero: int,
        one: int | None,
        labels: Sequence[str],
        provenance: str = "table",
        name: str | None = None,
        check: bool = True,
        additive_gens=None,
    ):
        # range-checked at the caller's width first, so that no entry wraps
        # when narrowed to the table dtype
        add, mul = np.asarray(add), np.asarray(mul)
        if add.ndim != 2 or add.shape[0] != add.shape[1]:
            raise MalformedTable("addition table must be square")
        n = int(add.shape[0])
        if n == 0:
            raise MalformedTable("carrier must be nonempty")
        if mul.shape != (n, n):
            raise MalformedTable("multiplication table shape differs from addition table")
        if n > config.size_guard():
            raise SizeGuardExceeded(f"order {n} exceeds size guard {config.size_guard()}")
        for table, which in ((add, "addition"), (mul, "multiplication")):
            if int(table.min()) < 0 or int(table.max()) >= n:
                raise MalformedTable(f"{which} table entry out of range 0..{n - 1}")
        add = np.ascontiguousarray(add, dtype=_TABLE_DTYPE)
        mul = np.ascontiguousarray(mul, dtype=_TABLE_DTYPE)
        zero = int(zero)
        if not 0 <= zero < n:
            raise MalformedTable("zero index out of range")
        if one is not None:
            one = int(one)
            if not 0 <= one < n:
                raise MalformedTable("one index out of range")
        labels = tuple(str(lab) for lab in labels)
        if len(labels) != n:
            raise MalformedTable("label count differs from order")
        if len(set(labels)) != n:
            raise MalformedTable("labels must be pairwise distinct")
        if provenance not in PROVENANCES:
            raise InvalidParameter(f"unknown provenance tag {provenance!r}")
        add.setflags(write=False)
        mul.setflags(write=False)
        self.order = n
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.labels = labels
        self.provenance = provenance
        self.name = name if name is not None else provenance
        self._neg: np.ndarray | None = None
        self._nil: np.ndarray | None = None
        self._char: int | None = None
        # caches that live exactly as long as the ring and never refer back to
        # it: generator sets, programs by seed tuple, quotients by ideal mask
        self._gens: dict[bool, tuple[int, ...]] = {}
        self._programs: dict[tuple[int, ...], object] = {}
        self._quotients: dict[bytes, tuple] = {}
        self._label_pos: dict[str, int] | None = None
        self._hash: int | None = None
        # the constructor's S: an array is read (and range-checked) now, a
        # zero-argument callable when S is first read
        self._gens_source = additive_gens
        if additive_gens is not None and not callable(additive_gens):
            self.additive_gens
        if check:
            report = validate_rng(self)
            if not report.ok:
                raise MalformedTable(str(report))

    # -- identity and container protocol ------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteRng):
            return NotImplemented
        return (
            self.order == other.order
            and self.zero == other.zero
            and self.one == other.one
            and self.labels == other.labels
            and np.array_equal(self.add, other.add)
            and np.array_equal(self.mul, other.mul)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.order, self.zero, self.one, self.labels, self.add.tobytes(), self.mul.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:
        return f"<FiniteRng {self.name} order={self.order}>"

    def __len__(self) -> int:
        return self.order

    # -- element access ------------------------------------------------------

    @property
    def has_one(self) -> bool:
        return self.one is not None

    def require_one(self) -> int:
        if self.one is None:
            raise MissingIdentity(f"{self.name} has no multiplicative identity")
        return self.one

    def label(self, i: int) -> str:
        return self.labels[i]

    def index_of(self, label: str) -> int:
        if self._label_pos is None:
            self._label_pos = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return self._label_pos[label]
        except KeyError:
            raise InvalidParameter(f"{self.name} has no element labeled {label!r}") from None

    def element(self, i: int) -> "Element":
        if not 0 <= i < self.order:
            raise InvalidParameter(f"index {i} out of range for {self.name}")
        return Element(self, i)

    def by_label(self, label: str) -> "Element":
        return Element(self, self.index_of(label))

    def elements(self) -> Iterator["Element"]:
        for i in range(self.order):
            yield Element(self, i)

    # -- table views ----------------------------------------------------------

    @cached_property
    def additive_gens(self) -> np.ndarray | None:
        """An additive generating set S: carried by the constructor, or
        built on this first read by the callable it passed, else greedy
        (`_additive_generators`, computed once per ring; None when + is no
        abelian group). Every decider that reads S reaches the same verdict
        and witness from any generating set."""
        source, self._gens_source = self._gens_source, None
        if source is None:
            gens = _additive_generators(self.add, self.zero)
        else:
            gens = np.array(source() if callable(source) else source, dtype=np.int64).ravel()
            if ((gens < 0) | (gens >= self.order)).any():
                raise MalformedTable("additive generator out of range")
        if gens is not None:
            gens.setflags(write=False)
        return gens

    @cached_property
    def _generator_columns(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The columns of both tables at `additive_gens`, x + g and x * g
        for every x and g, as index arrays; None when there is no S."""
        gens = self.additive_gens
        if gens is None:
            return None
        return self.add[:, gens].astype(np.intp), self.mul[:, gens].astype(np.intp)

    def neg_table(self) -> np.ndarray:
        if self._neg is None:
            neg = np.argmax(self.add == self.zero, axis=1).astype(_TABLE_DTYPE)
            neg.setflags(write=False)
            self._neg = neg
        return self._neg

    def sub(self, x, y):
        """x - y, vectorized over numpy index arrays."""
        return self.add[x, self.neg_table()[y]]


@dataclass(frozen=True)
class Element:
    """One ring element: a ring reference plus an index. Arithmetic operators
    look up the owning ring's tables and refuse mixed-ring operands."""

    ring: FiniteRng
    index: int

    @property
    def label(self) -> str:
        return self.ring.labels[self.index]

    def _same(self, other: "Element") -> None:
        if not isinstance(other, Element) or self.ring != other.ring:
            raise AmbientMismatch("elements belong to different rings")

    def __add__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.ring, int(self.ring.add[self.index, other.index]))

    def __mul__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.ring, int(self.ring.mul[self.index, other.index]))

    def __neg__(self) -> "Element":
        return Element(self.ring, int(self.ring.neg_table()[self.index]))

    def __sub__(self, other: "Element") -> "Element":
        return self.__add__(-other)

    def __pow__(self, k: int) -> "Element":
        if k < 1:
            raise InvalidParameter("exponent must be >= 1 for a rng element")
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    @property
    def is_zero(self) -> bool:
        return self.index == self.ring.zero

    def __repr__(self) -> str:
        return f"<{self.label} in {self.ring.name}>"


# -- axiom validation ---------------------------------------------------------


def _additive_generators(add: np.ndarray, zero: int) -> np.ndarray | None:
    """Greedy generating set of (X, +): repeatedly the least nonzero element
    not yet reached from those taken so far, then zero itself if it was not
    reached.

    Reached elements grow by frontier + reached, each pair summed once, so
    O(n^2) in all. Whatever the table, every reached element is a sum of
    generators, which is all the generator tests rely on; when + is
    commutative, reached is exactly the closure. In an abelian group every
    new generator at least doubles the subgroup reached, so floor(log2 n) of
    them suffice; None when more are needed, which proves + is no abelian
    group.
    """
    n = add.shape[0]
    inside = np.zeros(n, dtype=bool)
    members = np.empty(0, dtype=np.int64)
    gens: list[int] = []
    while True:
        outside = ~inside
        outside[zero] = False
        if not outside.any():
            if not inside[zero]:
                gens.append(zero)
            return np.array(gens, dtype=np.int64)
        if len(gens) == n.bit_length() - 1:
            return None
        frontier = np.flatnonzero(outside)[:1]
        gens.append(int(frontier[0]))
        while frontier.size:
            inside[frontier] = True
            members = np.concatenate((members, frontier))
            hit = np.zeros(n, dtype=bool)
            hit[_sub(add, frontier, members)] = True
            frontier = np.flatnonzero(hit & ~inside)


def _light(table: np.ndarray, gens: np.ndarray) -> bool:
    """Light's associativity test: (x g) y = x (g y) for every generator g
    and all x, y. The g that pass form a set closed under the operation, so
    passing on a generating set proves associativity everywhere. Rows x go
    by `_blocks`, so one block of each side is in memory at a time; columns
    are gathered by `np.take`, several times faster than fancy indexing
    along the last axis."""
    return all(
        np.array_equal(table[table[i0:i1, g]], np.take(table[i0:i1], table[g], axis=1))
        for g in gens for i0, i1 in _blocks(table.shape[0])
    )


def _distributes(add: np.ndarray, mul: np.ndarray, gens: np.ndarray) -> bool:
    """a(x + s) = ax + as for every row a of `mul`, every x and every s in
    gens. With + associative and commutative, the s that pass are closed
    under +, so passing on an additive generating set proves a(x + y) = ax + ay
    for all y. Rows a go by `_blocks`, as in `_light`. Since + commutes,
    ax + as is read as (as) + (ax), so that each row of the gather stays
    inside one row of `add`."""
    return all(
        np.array_equal(np.take(mul[i0:i1], add[:, s], axis=1),
                       add[mul[i0:i1, s, None], mul[i0:i1]])
        for s in gens for i0, i1 in _blocks(mul.shape[0])
    )


def _assoc_on(op: np.ndarray, act: np.ndarray, sa: np.ndarray, sm: np.ndarray) -> bool:
    """(a op b) act x = a act (b act x) for a, b in sa and x in sm. When both
    sides are additive in each argument, this decides the law everywhere."""
    lhs = act[op[sa[:, None], sa][:, :, None], sm]
    rhs = act[sa[:, None, None], act[sa[:, None], sm][None]]
    return np.array_equal(lhs, rhs)


def _scan(rows: int, lhs, rhs) -> tuple[int, int, int] | None:
    """Lexicographically first (i, j, k) with lhs(i)[j, k] != rhs(i)[j, k],
    taking i = 0, 1, ... so that one pair of 2-D slices is in memory at a
    time; None when the law holds everywhere."""
    for i in range(rows):
        diff = lhs(i) != rhs(i)
        if diff.any():
            j, k = np.argwhere(diff)[0]
            return i, int(j), int(k)
    return None


def _assoc_scan(op: np.ndarray, act: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b, x) with (a op b) act x != a act (b act x)."""
    return _scan(op.shape[0], lambda a: act[op[a]], lambda a: act[a][act])


def _distrib_scan(add: np.ndarray, mul: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, x, y) with a(x + y) != ax + ay, a ranging over rows of `mul`."""
    return _scan(
        mul.shape[0],
        lambda a: mul[a][add],
        lambda a: _sub(add, mul[a], mul[a]),
    )


def _group_laws(add: np.ndarray, zero: int, gens: np.ndarray | None,
                labels: Sequence[str]) -> tuple[list[Violation], bool]:
    """The violated abelian-group laws of `add`, each with its first witness,
    in the order both validators report them; add_associative is decided by
    Light's test on the additive generating set `gens`, by a scan when that
    fails or gens is None. The flag says whether + is commutative and
    associative, the premise of every generator test that follows."""
    n = add.shape[0]
    found = []
    add_comm = np.array_equal(add, add.T)
    if not add_comm:
        found.append(("add_commutative", np.argwhere(add != add.T)[0]))
    w = None if gens is not None and _light(add, gens) else _assoc_scan(add, add)
    if w is not None:
        found.append(("add_associative", w))
    add_ok = add_comm and w is None
    row = add[zero]
    if not np.array_equal(row, np.arange(n)):
        found.append(("zero_neutral", (int(np.argwhere(row != np.arange(n))[0][0]),)))
    has_inverse = (add == zero).any(axis=1)
    if not has_inverse.all():
        found.append(("add_inverse", (int(np.argwhere(~has_inverse)[0][0]),)))
    return [Violation(axiom, tuple(labels[i] for i in x)) for axiom, x in found], add_ok


def validate_rng(ring: FiniteRng) -> ValidationReport:
    """Decide every rng axiom exactly, for all elements.

    Each violated axiom is reported once with a concrete witness tuple, the
    lexicographically first one, so a failed report is directly actionable.

    The three-variable laws are decided on a greedy additive generating set
    S (|S| <= log2 n when + is an abelian group and n > 1) instead of on all
    n^3 triples, in O(n^2 log n) time and O(n^2) memory:

    - additive associativity by Light's test (Clifford & Preston 1961,
      section 1.2): (x + g) + y = x + (g + y) for g in S;
    - once + is associative and commutative, a(x + y) = ax + ay by checking
      y in S, since the y that pass are closed under +;
    - once multiplication distributes on both sides, the associator
      (ab)c - a(bc) is additive in each argument, so checking S^3 decides
      associativity.

    When a generator test fails, or its premise does not hold, a row-ordered
    scan finds the witness; valid rings never reach it.
    """
    add, mul, n, lab = ring.add, ring.mul, ring.order, ring.labels
    gens = ring.additive_gens
    violations, add_ok = _group_laws(add, ring.zero, gens, lab)

    def report(axiom: str, w: tuple[int, ...] | None) -> None:
        if w is not None:
            violations.append(Violation(axiom, tuple(lab[i] for i in w)))

    mul_comm = np.array_equal(mul, mul.T)
    if not mul_comm:
        i, j = np.argwhere(mul != mul.T)[0]
        report("mul_commutative", (i, j))

    fast = gens is not None and add_ok
    left = None if fast and _distributes(add, mul, gens) else _distrib_scan(add, mul)
    right = None
    if left is None and not mul_comm:
        # without commutativity the mirrored law is independent
        right = None if fast and _distributes(add, mul.T, gens) else _distrib_scan(add, mul.T)
    bilinear = gens is not None and left is None and right is None
    w = None if bilinear and _assoc_on(mul, mul, gens, gens) else _assoc_scan(mul, mul)
    report("mul_associative", w)
    report("distributive", left)
    report("distributive_right", right)

    if ring.one is not None:
        row = mul[ring.one]
        if not np.array_equal(row, np.arange(n)):
            report("one_neutral", (int(np.argwhere(row != np.arange(n))[0][0]),))

    return ValidationReport(subject=ring.name, violations=tuple(violations))


# -- constructors --------------------------------------------------------------


def _detect_one(add: np.ndarray, mul: np.ndarray) -> int | None:
    n = mul.shape[0]
    hits = np.argwhere((mul == np.arange(n)).all(axis=1))
    return int(hits[0][0]) if len(hits) else None


def from_tables(
    add,
    mul,
    zero: int,
    one: int | None | str = "auto",
    labels: Sequence[str] | None = None,
    provenance: str = "table",
    name: str | None = None,
) -> FiniteRng:
    """Build a ring from raw tables. one="auto" detects an identity if any.
    The tables keep the caller's width until `FiniteRng` range-checks them."""
    add, mul = np.asarray(add), np.asarray(mul)
    if one == "auto":
        if add.ndim != 2 or add.shape != mul.shape or add.shape[0] != add.shape[1]:
            raise MalformedTable("tables must be square and of equal shape")
        one = _detect_one(add, mul)
    if labels is None:
        labels = [str(i) for i in range(add.shape[0])]
    return FiniteRng(add, mul, zero, one, labels, provenance=provenance, name=name)


def rename(ring: FiniteRng, name: str) -> FiniteRng:
    """Same ring, different display name (structural equality is unaffected)."""
    return FiniteRng(
        ring.add, ring.mul, ring.zero, ring.one, ring.labels, provenance=ring.provenance,
        name=name, check=False, additive_gens=ring.additive_gens,
    )


def _cyclic(d: int) -> np.ndarray:
    """The addition table of Z/d, (i + j) mod d, as i - (d - j) plus d where
    that is negative: every value lies in -d..d-1, so the table dtype holds
    it for any d within the guard, where i + j could reach 2d - 2."""
    r = np.arange(d, dtype=_TABLE_DTYPE)
    table = np.subtract.outer(r, d - r)
    table[table < 0] += d
    return table


def _embedded_gens(dims: Sequence[int], zeros: Sequence[int], gens) -> tuple[int, np.ndarray]:
    """The zero of a direct sum, as the mixed-radix code of the factors'
    zeros, and its generators: each factor's `gens` in its own digit, the
    other digits at their zeros."""
    zero, weight, out = int(_code(zeros, dims)), math.prod(dims), []
    for dim, fzero, fgens in zip(dims, zeros, gens):
        weight //= dim
        out += [zero + (int(g) - fzero) * weight for g in fgens]
    return zero, np.array(out, dtype=np.int64)


def _walk(add: np.ndarray, zero: int, gens: np.ndarray) -> tuple[list, np.ndarray | None]:
    """A walk over (R, +) from zero: steps (j, count, take), each adding t,
    the next doubling g, 2g, 4g, ... of generator j, to the `take` part of
    the first `count` elements reached, and the order reached (None when it
    is element order). The doublings of g stop past the first 2^i >= its
    order, so one pass over them takes the reached set to R + <g>."""
    n = add.shape[0]
    order, reached, steps, count = np.full(n, zero), np.arange(n) == zero, [], 1
    for j in reversed(range(gens.size)):  # the last digit first, so Z/d is in order
        g, taken = int(gens[j]), []
        while count < n and g != zero and g not in taken:
            taken.append(g)
            dst = add[order[:count], g]
            fresh = ~reached[dst]
            new = dst[fresh]
            steps.append((j, count, slice(new.size) if fresh[:new.size].all() else fresh))
            order[count:count + new.size] = new
            reached[new] = True
            count += new.size
            g = int(add[g, g])
    if count < n:
        raise InvariantViolated("an additive generating set does not generate its group")
    return steps, None if (order == np.arange(n)).all() else order


def _span(add: np.ndarray, walk, gen_cols: np.ndarray, zero: int) -> np.ndarray:
    """Column x, for every x, of a map additive in x, from its columns at
    the generators, along `walk`: col(x + t) = col(t) + col(x). Reached
    columns are contiguous, so each step is one slice gather, and col(t)
    is fixed along each row of it, which keeps the gather in one row of
    `add`."""
    steps, order = walk
    vals = np.empty((gen_cols.shape[0], add.shape[0]), dtype=_TABLE_DTYPE)
    vals[:, 0] = zero
    last = None
    for j, count, take in steps:
        col, last = (gen_cols[:, j] if j != last else add[col, col]), j
        src = vals[:, :count][:, take]
        vals[:, count:count + src.shape[1]] = add[col[:, None], src]
    if order is not None:
        vals[:, order] = vals.copy()
    return vals


def from_structure(factors: Sequence[int | FiniteRng], products, one: int | None,
                   labels: Sequence[str], provenance: str, name: str) -> FiniteRng:
    """The rng on the direct sum of the additive groups `factors` (an int d
    for Z/d generated by 1, a ring for its group generated by its
    `additive_gens`) whose product extends the structure constants
    `products` biadditively. Elements are mixed-radix codes over the factor
    orders, first factor most significant, as in `direct_product`; the
    generators S are each factor's in its own digit, the others at zero,
    and products[i][j] is the code of s_i s_j.

    The rows s_j x follow from s_j(x + s_i) = s_j x + s_j s_i, and then
    every row from row(x + t) = row(x) + row(t), along one `_walk`: n^2
    cells in all. The axioms are decided on S, raising MalformedTable with
    the axiom `validate_rng` would name (the structure-constant argument):
    - "distributive": each x -> s_j x is additive iff s_j(x + s_i) =
      s_j x + s_j s_i for all x and i, since the y that pass for all x are
      closed under +. On a cyclic basis (s_i of order d_i) this is
      d_i (s_i s_j) = 0, and with commutativity d_j (s_i s_j) = 0, which
      makes the fill in the left argument well defined too;
    - "mul_commutative" on S^2, as xy - yx is biadditive;
    - "mul_associative" on S^3, as the associator is additive in each
      argument;
    - "one_neutral" on S, as x -> 1x - x is additive.
    A biadditive product satisfies both distributive laws, so the ring is
    valid without a scan of its tables.
    """
    dims = [f if isinstance(f, int) else f.order for f in factors]
    n = math.prod(dims)
    if n > config.size_guard():
        raise SizeGuardExceeded(f"order {n} exceeds size guard {config.size_guard()}")
    groups = [(_cyclic(f), 0, np.array([1 % f])) if isinstance(f, int)
              else (f.add, f.zero, f.additive_gens) for f in factors]
    zero, gens = _embedded_gens(dims, [z for _, z, _ in groups], [g for _, _, g in groups])
    add = groups[-1][0]
    # digit by digit, the last first; each code is below k * w <= n, which
    # the guard check above keeps within the table dtype
    for table, _, _ in reversed(groups[:-1]):
        k, w = table.shape[0], add.shape[0]
        add = (table[:, None, :, None] * w + add[None, :, None, :]).reshape(k * w, k * w)
    c = np.asarray(products, dtype=np.int64).reshape(-1, gens.size)
    if c.shape != (gens.size, gens.size) or c.min(initial=0) < 0 or c.max(initial=0) >= n:
        raise MalformedTable("structure constants must be an |S| x |S| array of codes")
    c = c.astype(_TABLE_DTYPE)

    def fail(axiom: str, *w) -> None:
        violation = Violation(axiom, tuple(labels[int(i)] for i in w))
        raise MalformedTable(str(ValidationReport(name, (violation,))))

    walk = _walk(add, zero, gens)
    rows = _span(add, walk, c, zero)  # rows[j, x] = s_j x
    bad = rows[:, add[:, gens]] != add[rows[:, :, None], c[:, None, :]]  # [j, x, i]
    if bad.any():
        j, x, i = np.argwhere(bad)[0]
        fail("distributive", gens[j], x, gens[i])
    if not np.array_equal(c, c.T):
        fail("mul_commutative", *gens[np.argwhere(c != c.T)[0]])
    k = np.arange(gens.size)
    bad = rows[k, c[:, :, None]] != rows[k[:, None, None], c[None]]  # [i, j, k]
    if bad.any():
        fail("mul_associative", *gens[np.argwhere(bad)[0]])
    if one is not None and not np.array_equal(rows[:, one], gens):
        fail("one_neutral", gens[np.argwhere(rows[:, one] != gens)[0][0]])
    # column x of the span is row x of mul, and mul is commutative
    mul = _span(add, walk, np.ascontiguousarray(rows.T), zero)
    return FiniteRng(add, mul, zero, one, labels, provenance=provenance, name=name,
                     check=False, additive_gens=gens)


def zmod(n: int) -> FiniteRng:
    """The ring of integers modulo n, elements labeled by their residues:
    Z/n generated by 1, with 1 * 1 = 1 (`from_structure`)."""
    if n < 1:
        raise InvalidParameter("zmod needs n >= 1")
    if n > config.size_guard():
        raise SizeGuardExceeded(f"order {n} exceeds size guard {config.size_guard()}")
    one = 0 if n == 1 else 1
    return from_structure([n], [[one]], one, [str(i) for i in range(n)], "zmod", f"zmod({n})")


def direct_product(factors: Sequence[FiniteRng], name: str | None = None) -> FiniteRng:
    """Componentwise product. Element order is lexicographic in the factor
    indices with the first factor most significant; labels are "(a,b,...)".
    It is the `from_structure` ring over the factors' additive groups, with
    each factor's S in its own digit. Its constants, the componentwise
    products of those generators, are block-diagonal: generators of two
    factors multiply to 0, and two of one factor to their product there.
    The identity is the code of the factors' ones when each has one."""
    factors = list(factors)
    if not factors:
        raise InvalidParameter("direct_product needs at least one factor")
    dims = [f.order for f in factors]
    order = math.prod(dims)
    if order > config.size_guard():
        raise SizeGuardExceeded(f"order {order} exceeds size guard {config.size_guard()}")
    if name is None:
        name = "product(" + ",".join(f.name for f in factors) + ")"
    _, gens = _embedded_gens(dims, [f.zero for f in factors], [f.additive_gens for f in factors])
    products = _code((f.mul[d[:, None], d] for f, d in zip(factors, _digits(gens, dims))), dims)
    one = int(_code([f.one for f in factors], dims)) if all(f.has_one for f in factors) else None
    labels = _tuple_labels(factors, _digits(np.arange(order), dims))
    return from_structure(factors, products, one, labels, "product", name)


def _monomials(num_vars: int, max_deg: int) -> list[tuple[int, ...]]:
    monos: list[tuple[int, ...]] = [()]
    for _ in range(num_vars):  # never more than the final count of exponents
        monos = [e + (k,) for e in monos for k in range(max_deg + 1 - sum(e))]
    monos.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    return monos


def _mono_str(expts: tuple[int, ...], num_vars: int) -> str:
    parts = []
    for v, e in enumerate(expts):
        if e == 0:
            continue
        var = "X" if num_vars == 1 else f"X{v + 1}"
        parts.append(var if e == 1 else f"{var}^{e}")
    return "*".join(parts)


def trunc_poly(base: FiniteRng, num_vars: int, max_deg: int) -> FiniteRng:
    """Polynomials over `base` in num_vars variables, truncated so that every
    monomial of total degree above max_deg is zero. Elements are coefficient
    assignments over the degree-sorted monomial list; the element index is the
    mixed-radix number of its coefficient indices (first monomial most
    significant), which makes the ordering reproducible.

    The ring is `from_structure` over m copies of the base's additive group,
    one per monomial, with basis g X^e for g in the base's S and structure
    constants g X^e * h X^f = gh X^(e+f), zero when e + f has degree above
    max_deg."""
    if num_vars < 1 or max_deg < 0:
        raise InvalidParameter("trunc_poly needs num_vars >= 1 and max_deg >= 0")
    # num_vars and max_deg are refused before math.comb, whose cost grows
    # with them; for max_deg >= 1 the monomial count exceeds both, so no ring
    # within the guard is lost. The count is refused too: over a ring of
    # order 1 the order alone never exceeds the guard.
    guard = config.size_guard()
    if num_vars > guard or max_deg > guard:
        raise SizeGuardExceeded(
            f"trunc_poly in {num_vars} variables of degree {max_deg} exceeds "
            f"size guard {guard}")
    m = math.comb(num_vars + max_deg, num_vars)
    if m > guard or base.order**m > guard:
        raise SizeGuardExceeded(
            f"trunc_poly order {base.order}^{m} exceeds size guard {guard}")
    name = f"pol({base.name},{num_vars},{max_deg})"
    if base.order == 1:
        # every coefficient is zero: the zero ring, without the m x m
        # monomial products
        return FiniteRng([[0]], [[0]], 0, base.one, base.labels, provenance="trunc_poly",
                         name=name)
    monos = _monomials(num_vars, max_deg)
    slot = {e: t for t, e in enumerate(monos)}
    order = base.order**m
    weights = [base.order ** (m - 1 - t) for t in range(m)]
    zero = base.zero * sum(weights)
    # the basis g X^e (g in the base's S), and g X^e * h X^f = gh X^(e+f)
    basis = [(e, g) for e in monos for g in base.additive_gens.tolist()]
    products = [
        [zero + (int(base.mul[g, h]) - base.zero) * weights[slot[ef]]
         if (ef := tuple(map(sum, zip(e, f)))) in slot else zero for f, h in basis]
        for e, g in basis
    ]
    one = zero + (base.one - base.zero) * weights[0] if base.has_one else None

    def term(t: int, c: int) -> str:
        mono = _mono_str(monos[t], num_vars)
        if not mono:
            return base.labels[c]
        if base.has_one and c == base.one:
            return mono
        coeff = base.labels[c]
        return (f"({coeff})" if "+" in coeff or "-" in coeff else coeff) + mono

    terms = [["" if c == base.zero else term(t, c) for c in range(base.order)]
             for t in range(m)]
    digits = np.stack(_digits(np.arange(order), (base.order,) * m), axis=1).tolist()
    labels = ["+".join(filter(None, map(list.__getitem__, terms, row))) or base.labels[base.zero]
              for row in digits]
    return from_structure([base] * m, products, one, labels, "trunc_poly", name)


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division of dense little-endian coefficient lists over Z/p, den monic."""
    num = num[:]
    q = [0] * max(1, len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1] % p
        if c:
            q[shift] = c
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - c * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _is_irreducible(poly: list[int], p: int) -> bool:
    k = len(poly) - 1
    for deg in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=deg):
            den = list(low) + [1]
            _, rem = _poly_divmod(poly, den, p)
            if rem == [0]:
                return False
    return True


def galois_field(q: int) -> FiniteRng:
    """The finite field with q elements, q a prime power. For q = p^k with
    k > 1 the field is F_p[w]/(m(w)) for the lexicographically first monic
    irreducible m of degree k, so the construction is reproducible: the
    `from_structure` over (Z/p)^k with basis 1, w, ..., w^(k-1) and
    structure constants w^a w^b = w^(a+b) reduced mod m."""
    if q < 2:
        raise InvalidParameter("galois_field needs a prime power >= 2")
    if q > config.size_guard():  # before the trial division, which takes q steps
        raise SizeGuardExceeded(f"order {q} exceeds size guard {config.size_guard()}")
    p = next((d for d in range(2, q + 1) if q % d == 0), q)
    k, t = 0, q
    while t % p == 0:
        t //= p
        k += 1
    if t != 1:
        raise InvalidParameter(f"{q} is not a prime power")
    if k == 1:
        return rename(zmod(p), f"gf({q})")
    irr = next((m for low in itertools.product(range(p), repeat=k)
                if _is_irreducible(m := list(low) + [1], p)), None)
    if irr is None:
        raise InvariantViolated(f"no monic irreducible of degree {k} over F_{p}")
    # w^d reduced mod irr for d up to 2k-2, little-endian over F_p
    red = np.array([(_poly_divmod([0] * d + [1], irr, p)[1] + [0] * k)[:k]
                    for d in range(2 * k - 1)])
    # element index sum c_i p^i: the digit of w^(k-1) is the most
    # significant, so the basis in code order is w^(k-1), ..., w, 1
    powers = p ** np.arange(k, dtype=np.int64)
    deg = np.arange(k - 1, -1, -1)
    products = red[deg[:, None] + deg[None, :]] @ powers

    def term(d: int, c: int) -> str:
        mono = "w" if d == 1 else f"w^{d}"
        return str(c) if d == 0 else mono if c == 1 else f"{c}{mono}"

    terms = [["" if c == 0 else term(d, c) for c in range(p)] for d in range(k)]
    digits = ((np.arange(q)[:, None] // powers[None, :]) % p).tolist()  # little-endian
    labels = ["+".join(filter(None, map(list.__getitem__, terms, row))) or "0" for row in digits]
    return from_structure([p] * k, products, 1, labels, "table", f"gf({q})")


# -- whole-ring predicates ------------------------------------------------------


def characteristic(ring: FiniteRng) -> int:
    """Least n >= 1 with nx = 0 for every x (the additive exponent)."""
    if ring._char is not None:
        return ring._char
    n = ring.order
    cur = np.arange(n)
    for k in range(1, n + 1):
        if (cur == ring.zero).all():
            ring._char = k
            return k
        cur = ring.add[cur, np.arange(n)]
    raise MalformedTable("additive group has no finite exponent; tables are invalid")


def nilpotent_mask(ring: FiniteRng) -> np.ndarray:
    """Boolean mask of nilpotent elements (x^m = 0 for some m <= order)."""
    if ring._nil is not None:
        return ring._nil
    n = ring.order
    power = np.arange(n)
    steps = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(steps):
        power = ring.mul[power, power]
    mask = power == ring.zero
    mask.setflags(write=False)
    ring._nil = mask
    return mask


def is_reduced(ring: FiniteRng) -> bool:
    """True when zero is the only nilpotent element."""
    return int(nilpotent_mask(ring).sum()) == 1


def is_domain(ring: FiniteRng) -> bool:
    """True for a nonzero unital ring without zero divisors: each nonzero x
    has x * y = 0 for y = 0 alone, so one zero in its row, while the row
    of 0 is all zeros. One boolean table, with no copy of the nonzero
    block."""
    ring.require_one()
    if ring.order == 1:
        return False
    zeros = np.count_nonzero(ring.mul == ring.zero, axis=1)
    return int(np.count_nonzero(zeros == 1)) == ring.order - 1


def is_field(ring: FiniteRng) -> bool:
    """True for a nonzero unital ring in which every nonzero element divides 1."""
    one = ring.require_one()
    if ring.order == 1:
        return False
    has_inv = (ring.mul == one).any(axis=1)
    nz = np.arange(ring.order) != ring.zero
    return bool(has_inv[nz].all())


# -- internal construction helpers (shared by subobjects and amalgamation) ------


def _digits(codes, dims: Sequence[int]) -> list[np.ndarray]:
    """Mixed-radix digits of `codes` over `dims`, first digit most
    significant: one divmod per factor, so any number of factors works
    (np.unravel_index stops at 64)."""
    rest = np.asarray(codes, dtype=np.int64)
    digits = []
    for dim in reversed(dims):
        rest, digit = np.divmod(rest, dim)
        digits.append(digit)
    return digits[::-1]


def _code(digits, dims: Sequence[int], dtype=np.int64):
    """The mixed-radix code of `digits` over `dims`, inverse of `_digits`;
    `digits` may be a generator, so one digit array is in flight at a time,
    and the code is updated in place once it has their shape. `dtype` must
    hold the product of `dims`."""
    code = np.zeros((), dtype=dtype)
    for digit, dim in zip(digits, dims):
        if code.shape == np.shape(digit):
            code *= dim
            code += digit
        else:
            code = code * dim + digit
    return code


def _tuple_labels(factors: Sequence[FiniteRng], digits) -> list[str]:
    """"(a,b,...)" for each element, from its index in each factor."""
    coords = [list(map(f.labels.__getitem__, d.tolist())) for f, d in zip(factors, digits)]
    return ["(" + ",".join(row) + ")" for row in zip(*coords)]


def restrict_to_subset(ring: FiniteRng, indices: np.ndarray, provenance: str,
                       name: str) -> FiniteRng:
    """The subset, sorted by ambient index, as a standalone rng with inherited
    labels; the identity is the ring's when the subset holds it, else any
    element that acts as one (an ideal can be unital on its own). Each table
    is one gather through the subset's positions, by row blocks. Not
    validated again: the subset is checked to hold 0 and to be closed under
    + and *, so it meets every axiom that quantifies over all elements, and
    a finite subset closed under + holds the negatives too (x, 2x, 3x, ...
    returns to 0)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise InvalidParameter("subset must be nonempty")
    if idx.min() < 0 or idx.max() >= ring.order:
        raise InvalidParameter("subset index out of range")
    idx = _distinct(idx, ring.order)
    pos = np.full(ring.order, -1, dtype=_TABLE_DTYPE)  # -1 outside the subset
    pos[idx] = np.arange(idx.size)
    if pos[ring.zero] < 0:
        raise InvalidParameter("subset must contain zero")
    tables = []
    for source, word in ((ring.add, "addition"), (ring.mul, "multiplication")):
        table = np.empty((idx.size, idx.size), dtype=_TABLE_DTYPE)
        for i0, i1 in _blocks(idx.size):
            table[i0:i1] = pos[_sub(source, idx[i0:i1], idx)]
        if table.min() < 0:
            raise InvalidParameter(f"subset is not closed under {word}")
        tables.append(table)
    add, mul = tables
    one = int(pos[ring.one]) if ring.has_one else -1
    return FiniteRng(add, mul, int(pos[ring.zero]), one if one >= 0 else _detect_one(add, mul),
                     [ring.labels[i] for i in idx], provenance=provenance, name=name,
                     check=False)


class FiberProduct(NamedTuple):
    """A `pair_subring`: its ring, the rows (x, y_1, ..., y_n) of its elements
    in order, and `position`, the index of such rows, -1 for one off the ring."""

    ring: FiniteRng
    coords: np.ndarray
    position: Callable[..., np.ndarray]


def pair_subring(left: FiniteRng, right: Sequence[FiniteRng], alpha, beta, n: int,
                 provenance: str, name: str) -> FiberProduct:
    """The fiber product {(x, y_1, ..., y_n) : alpha[x] = beta[y_k] for all
    k} of `left` and n copies of the product of the `right` factors (y a
    mixed-radix code over them) in lexicographic order, for integer keys
    alpha, beta >= 0, labeled "(x,y_1,...)" with the identity as in
    `restrict_to_subset`. A stable
    argsort of the y whose fiber alpha reaches gives rank[y], y's place in
    its fiber (-1 for none), and idx[x] counts the x' < x with a fiber (-1
    for none); an element sits at the code (idx[x], rank[y_1], ...,
    rank[y_n]). So nothing is searched: a cell is T[x, x'] K^n plus
    U[y_k, y'_k] K^(n-k) over k, with T = idx[x op x'] and U = rank[y op y']
    over the x and y that occur, every pair of them in some cell. Not
    validated again: alpha and beta are homs to one ring on subrings holding
    every coordinate, so the solutions are closed (see `restrict_to_subset`),
    and each fiber is a coset of Ker beta, of one size K (checked); a cell
    outside every reached fiber (-1 in T or U) raises.

    When every x has a fiber, S is carried: (s, y_s, ..., y_s) for s in the
    S of `left`, y_s first in its fiber, and S of the fiber F over 0 (a
    subgroup) in each slot, the others 0. An element minus the sum of the
    (s, y_s, ...) that make up its x is (0, f_1, ..., f_n) with each f_k in F."""
    guard, right = config.size_guard(), list(right)
    dims = [f.order for f in right]
    # beta keeps the caller's integer width: it may hold one key per code over
    # the right factors
    alpha, beta = np.asarray(alpha, dtype=np.int64), np.asarray(beta)
    if n < 1:
        raise InvalidParameter("a fiber product needs n >= 1")
    if n > guard:  # before any power of n
        raise SizeGuardExceeded(f"n = {n} exceeds size guard {guard}")
    reached = np.zeros(int(max(alpha.max(), beta.max())) + 1, dtype=bool)
    reached[alpha] = True
    ys = np.flatnonzero(reached[beta])  # fiber by fiber, increasing in each
    ys = ys[np.argsort(beta[ys], kind="stable")]
    keys = beta[ys]
    start, end = np.searchsorted(keys, [alpha, alpha + 1])  # x's fiber: ys[start[x]:end[x]]
    sizes = end - start
    fiber, xs = int(sizes.max()), np.flatnonzero(sizes)
    if (sizes[xs] != fiber).any():
        raise InvalidParameter("the fibers alpha reaches differ in size")
    order = xs.size * fiber ** n
    if order > guard:
        raise SizeGuardExceeded(f"order {order} exceeds size guard {guard}")
    rank = np.full(beta.size, -1, dtype=_TABLE_DTYPE)
    idx = np.full(left.order, -1, dtype=_TABLE_DTYPE)
    rank[ys], idx[xs] = np.arange(ys.size) - np.searchsorted(keys, keys), np.arange(xs.size)
    t = _digits(np.arange(order), [xs.size] + [fiber] * n)
    slots = [start[xs[t[0]]] + tk for tk in t[1:]]  # where each y_k is in ys
    coords = np.stack([xs[t[0]]] + [ys[s] for s in slots], axis=1)

    # Codes below are sums of a table-dtype index times a power of the
    # fiber; each is widened to int64 (or a Python int) before it meets one.
    def position(rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        x, y = rows[:, 0], rows[:, 1:]
        inside = (rows >= 0).all(axis=1) & (idx[x] >= 0) & (beta[y] == alpha[x, None]).all(axis=1)
        at = idx[x].astype(np.int64) * fiber ** n + rank[y] @ fiber ** np.arange(n)[::-1]
        return np.where(inside, at, -1)

    def ends(e: str) -> tuple[int, int, int]:  # x, y and the index of (0, ..., 0) or (1, ..., 1)
        x, y = getattr(left, e), 0
        for f in right:
            y = y * f.order + getattr(f, e)
        at = int(idx[x]) * fiber ** n + int(rank[y]) * sum(fiber ** k for k in range(n))
        return x, y, at if idx[x] >= 0 and alpha[x] == beta[y] else -1

    zero = ends("zero")[2]
    one = ends("one")[2] if all(f.has_one for f in [left] + right) else -1
    if zero < 0:
        raise InvalidParameter("fiber product must contain zero")
    # with n = 1 and alpha one-to-one on the x with a fiber, each y lies in
    # one element, so U can hold that element's index, and it is the table
    one_y, where = n == 1 and ys.size == order, rank
    if one_y:
        where = np.full(beta.size, -1, dtype=_TABLE_DTYPE)
        where[coords[:, 1]] = np.arange(order)
    y_digits = _digits(coords[:, 1] if one_y else ys, dims)
    dtype = np.int32 if beta.size < 1 << 31 else np.int64  # holds every code over right

    def fill(op: str, word: str) -> np.ndarray:
        U = np.empty((ys.size, ys.size), dtype=_TABLE_DTYPE)
        for i0, i1 in _blocks(ys.size):
            cells = (_sub(getattr(f, op), d[i0:i1], d) for f, d in zip(right, y_digits))
            U[i0:i1] = where[_code(cells, dims, dtype)]
        # when every x has a fiber, idx is the identity and T the table of x
        T = getattr(left, op) if xs.size == left.order else idx[_sub(getattr(left, op), xs, xs)]
        if min(T.min(), U.min()) < 0:
            raise InvalidParameter(f"fiber product is not closed under {word}")
        if one_y or fiber == 1:  # or every rank is 0, and the elements are the x in order
            return U if one_y else T
        # in place, in the table dtype: after each slot a cell is the code of
        # its leading digits, below the order
        table = np.empty((order, order), dtype=_TABLE_DTYPE)
        for i0, i1 in _blocks(order):
            block = table[i0:i1]
            block[...] = _sub(T, t[0][i0:i1], t[0])
            for s in slots:
                block *= fiber
                block += _sub(U, s[i0:i1], s)
        return table

    def gens() -> np.ndarray:  # read when S is first read
        x0, y0, at = ends("zero")
        f = ys[start[x0]:][:fiber]  # the fiber over 0, increasingly: ranks are places
        cells = (_sub(g.add, d, d) for g, d in zip(right, _digits(f, dims)))
        s_f = _additive_generators(rank[_code(cells, dims)], int(rank[y0])) - int(rank[y0])
        return np.concatenate([idx[left.additive_gens].astype(np.int64) * fiber ** n] + [
            at + s_f * fiber ** (n - 1 - k) for k in range(n)])

    add, mul = fill("add", "addition"), fill("mul", "multiplication")
    labels = _tuple_labels([left] + right * n, [coords[:, 0]] + [
        d for y in coords[:, 1:].T for d in _digits(y, dims)])
    ring = FiniteRng(add, mul, zero, one if one >= 0 else _detect_one(add, mul),
                     labels, provenance=provenance, name=name, check=False,
                     additive_gens=gens if xs.size == left.order else None)
    return FiberProduct(ring, coords, position)
