"""Slow reference implementations used to cross-check the library.

Everything here is deliberately naive: plain Python loops over ints, no
vectorization, and no reuse of library logic beyond reading the finished
operation tables as nested sequences. Answers produced here are the
expected values the tests freeze against.
"""

from __future__ import annotations

from itertools import combinations, product

from finring.errors import ScriptSyntaxError


def ideal_closure(add, mul, zero: int, gens) -> frozenset[int]:
    """Smallest subset containing gens that is an additive subgroup and
    absorbs ring multiplication, by worklist."""
    n = len(add)
    cur = set(gens) | {zero}
    while True:
        new = set(cur)
        for x in cur:
            for y in cur:
                new.add(add[x][y])
            for r in range(n):
                new.add(mul[r][x])
        if new == cur:
            return frozenset(cur)
        cur = new


def all_ideals_closure(add, mul, zero: int) -> list[frozenset[int]]:
    """Every ideal, found by closing each reachable ideal under one more
    generator (`ideal_closure`), sorted by size and then by membership
    mask read as a tuple of flags over the indices."""
    n = len(add)
    start = ideal_closure(add, mul, zero, [])
    seen, queue = {start}, [start]
    while queue:
        cur = queue.pop()
        for x in range(n):
            if x not in cur:
                bigger = ideal_closure(add, mul, zero, [*cur, x])
                if bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
    return sorted(seen, key=lambda s: (len(s), [i in s for i in range(n)]))


def nilpotent_set(mul, zero: int) -> frozenset[int]:
    n = len(mul)
    out = set()
    for x in range(n):
        p, seen = x, set()
        while p not in seen:
            if p == zero:
                out.add(x)
                break
            seen.add(p)
            p = mul[p][x]
    return frozenset(out)


def has_zero_divisors(mul, zero: int) -> bool:
    n = len(mul)
    return any(
        mul[x][y] == zero
        for x in range(n) if x != zero
        for y in range(n) if y != zero
    )


def is_domain(mul, zero: int, one) -> bool:
    return one is not None and one != zero and not has_zero_divisors(mul, zero)


def amalgam_pairs(f_map, b_add, j_indices) -> frozenset[tuple[int, int]]:
    """The element set {(a, f(a)+j)} by double loop."""
    return frozenset(
        (a, b_add[f_map[a]][j]) for a in range(len(f_map)) for j in j_indices
    )


def pullback_pairs(alpha_map, beta_map) -> frozenset[tuple[int, int]]:
    return frozenset(
        (a, b)
        for a in range(len(alpha_map))
        for b in range(len(beta_map))
        if alpha_map[a] == beta_map[b]
    )


def closed_subset_naive(factors, members):
    """The subset `members` (tuples of factor indices) of the product of the
    rings `factors` as (add, mul, zero, one, element tuples), its elements
    in lexicographic order and the tables as nested lists of positions;
    None when the subset misses zero or is not closed under + or *."""
    adds = [f.add.tolist() for f in factors]
    muls = [f.mul.tolist() for f in factors]
    elems = sorted(set(members))
    pos = {e: i for i, e in enumerate(elems)}
    zero = tuple(f.zero for f in factors)
    if zero not in pos:
        return None
    tables = []
    for ops in (adds, muls):
        table = []
        for x in elems:
            row = []
            for y in elems:
                z = tuple(op[a][b] for op, a, b in zip(ops, x, y))
                if z not in pos:
                    return None
                row.append(pos[z])
            table.append(row)
        tables.append(table)
    add, mul = tables
    n = len(elems)
    ones = [e for e in range(n) if all(mul[e][x] == x for x in range(n))]
    return add, mul, pos[zero], (ones[0] if ones else None), elems


def is_hom(a, b, fmap, unital: bool = True) -> bool:
    """fmap respects both tables of the rings a and b (tables read off the
    ring objects but compared entry by entry)."""
    for x in range(a.order):
        for y in range(a.order):
            if fmap[a.add[x][y]] != b.add[fmap[x]][fmap[y]]:
                return False
            if fmap[a.mul[x][y]] != b.mul[fmap[x]][fmap[y]]:
                return False
    if fmap[a.zero] != b.zero:
        return False
    if unital and fmap[a.one] != b.one:
        return False
    return True


def all_homs_brute(a, b, unital: bool = True) -> list[tuple[int, ...]]:
    """Every map a -> b checked against is_hom. Exponential; keep orders tiny."""
    out = []
    for fmap in product(range(b.order), repeat=a.order):
        if is_hom(a, b, fmap, unital):
            out.append(fmap)
    return out


def coset_partition(add, members, order: int) -> set[frozenset[int]]:
    """The partition of the index set into cosets of the additive subgroup
    given by the membership list."""
    sub = [i for i in range(order) if members[i]]
    return {frozenset(add[x][i] for i in sub) for x in range(order)}


def regular_mod(add, mul, members, order: int) -> list[int]:
    """Indices x with: x*y in the ideal implies y in the ideal."""
    return [
        x for x in range(order)
        if all(members[y] for y in range(order) if members[mul[x][y]])
    ]


def fraction_class_count(ring, s_indices) -> int:
    """Number of classes of pairs (a, s) under (a,s) ~ (b,t) iff
    u*(a*t - b*s) = 0 for some u in S."""
    n = ring.order
    sub = ring.sub

    def equiv(a, s, b, t):
        lhs = sub(int(ring.mul[a][t]), int(ring.mul[b][s]))
        return any(ring.mul[u][lhs] == ring.zero for u in s_indices)

    classes: list[tuple[int, int]] = []
    for a in range(n):
        for s in s_indices:
            if not any(equiv(a, s, b, t) for b, t in classes):
                classes.append((a, s))
    return len(classes)


def min_generator_size(module_add, action, zero: int, members=None) -> int:
    """Smallest k such that k elements generate the whole module, brute
    force over subsets. Tiny modules only."""
    n = len(module_add)
    universe = list(range(n))

    def span(gens) -> set[int]:
        cur = set(gens) | {zero}
        while True:
            new = set(cur)
            for x in cur:
                for y in cur:
                    new.add(module_add[x][y])
                for row in action:
                    new.add(row[x])
            if new == cur:
                return cur
            cur = new

    for k in range(n + 1):
        for gens in combinations(universe, k):
            if len(span(gens)) == n:
                return k
    raise AssertionError("module not generated by itself")


def poly_mul_truncated(a_coeffs, b_coeffs, base_add, base_mul,
                       zero: int, max_deg: int) -> tuple[int, ...]:
    """Single-variable truncated product: coefficient lists indexed by
    degree, entries are base-ring element indices."""
    out = [zero] * (max_deg + 1)
    for i, ca in enumerate(a_coeffs):
        for j, cb in enumerate(b_coeffs):
            if i + j <= max_deg:
                out[i + j] = base_add[out[i + j]][base_mul[ca][cb]]
    return tuple(out)


def _first(cases, bad):
    """First case (in the given order) for which bad(*case) holds, or None."""
    return next((c for c in cases if bad(*c)), None)


def rng_violations(add, mul, zero: int, one, labels) -> list[tuple[str, tuple[str, ...]]]:
    """Every violated rng axiom with its lexicographically first witness, by
    full O(n^3) loops, in the order validate_rng reports them."""
    n = len(add)
    singles = [(x,) for x in range(n)]
    pairs = list(product(range(n), repeat=2))
    triples = list(product(range(n), repeat=3))
    out = []

    def note(axiom, w):
        if w is not None:
            out.append((axiom, tuple(labels[i] for i in w)))

    note("add_commutative", _first(pairs, lambda i, j: add[i][j] != add[j][i]))
    note("add_associative", _first(
        triples, lambda i, j, k: add[add[i][j]][k] != add[i][add[j][k]]))
    note("zero_neutral", _first(singles, lambda x: add[zero][x] != x))
    note("add_inverse", _first(singles, lambda x: zero not in add[x]))
    mul_comm = _first(pairs, lambda i, j: mul[i][j] != mul[j][i])
    note("mul_commutative", mul_comm)
    note("mul_associative", _first(
        triples, lambda i, j, k: mul[mul[i][j]][k] != mul[i][mul[j][k]]))
    left = _first(
        triples, lambda a, x, y: mul[a][add[x][y]] != add[mul[a][x]][mul[a][y]])
    note("distributive", left)
    if left is None and mul_comm is not None:
        note("distributive_right", _first(
            triples,
            lambda a, x, y: mul[add[x][y]][a] != add[mul[x][a]][mul[y][a]]))
    if one is not None:
        note("one_neutral", _first(singles, lambda x: mul[one][x] != x))
    return out


def module_violations(ring_add, ring_mul, ring_one, ring_labels,
                      add, action, zero: int, labels) -> list[tuple[str, tuple[str, ...]]]:
    """Every violated module axiom with its lexicographically first witness,
    by full loops, in the order validate_module reports them. The scalar
    ring is given by its tables."""
    n, r = len(add), len(ring_add)
    singles = [(x,) for x in range(n)]
    pairs = list(product(range(n), repeat=2))
    out = []

    def note(axiom, w, *alphabets):
        if w is not None:
            out.append((axiom, tuple(ls[i] for ls, i in zip(alphabets, w))))

    note("add_commutative", _first(pairs, lambda i, j: add[i][j] != add[j][i]),
         labels, labels)
    note("add_associative", _first(
        product(range(n), repeat=3),
        lambda i, j, k: add[add[i][j]][k] != add[i][add[j][k]]),
        labels, labels, labels)
    note("zero_neutral", _first(singles, lambda x: add[zero][x] != x), labels)
    note("add_inverse", _first(singles, lambda x: zero not in add[x]), labels)
    note("action_distributes_over_module_add", _first(
        product(range(r), range(n), range(n)),
        lambda a, x, y: action[a][add[x][y]] != add[action[a][x]][action[a][y]]),
        ring_labels, labels, labels)
    note("action_distributes_over_scalar_add", _first(
        product(range(r), range(r), range(n)),
        lambda a, b, x: action[ring_add[a][b]][x] != add[action[a][x]][action[b][x]]),
        ring_labels, ring_labels, labels)
    note("action_associative", _first(
        product(range(r), range(r), range(n)),
        lambda a, b, x: action[ring_mul[a][b]][x] != action[a][action[b][x]]),
        ring_labels, ring_labels, labels)
    if ring_one is not None:
        note("one_acts_as_identity", _first(singles, lambda x: action[ring_one][x] != x),
             labels)
    return out


def hom_violations(a, b, fmap, unital: bool) -> list[tuple[str, tuple[str, ...]]]:
    """Every violated hom law with its lexicographically first witness, by
    full loops over all pairs, in the order validate_hom reports them."""
    a_add, a_mul = a.add.tolist(), a.mul.tolist()
    b_add, b_mul = b.add.tolist(), b.mul.tolist()
    f = [int(v) for v in fmap]
    pairs = list(product(range(a.order), repeat=2))
    out = []

    def note(law, w):
        if w is not None:
            out.append((law, tuple(a.labels[i] for i in w)))

    if f[a.zero] != b.zero:
        note("preserves_zero", (a.zero,))
    note("preserves_add", _first(
        pairs, lambda x, y: f[a_add[x][y]] != b_add[f[x]][f[y]]))
    note("preserves_mul", _first(
        pairs, lambda x, y: f[a_mul[x][y]] != b_mul[f[x]][f[y]]))
    if unital:
        if a.one is None or b.one is None:
            out.append(("unital_requires_identities", ()))
        elif f[a.one] != b.one:
            note("preserves_one", (a.one,))
    return out


def complete_hom_worklist(a, b, images: dict[int, int], unital: bool):
    """Grow an index map from 0 -> 0, 1 -> 1 (when unital) and `images` by
    a worklist over negation, + and *, failing on the first conflict; None
    on a conflict or when some element is never reached. Each newly
    defined element is combined with every element defined so far."""
    a_add, a_mul = a.add.tolist(), a.mul.tolist()
    b_add, b_mul = b.add.tolist(), b.mul.tolist()
    a_neg = [row.index(a.zero) for row in a_add]
    b_neg = [row.index(b.zero) for row in b_add]
    mapping = [-1] * a.order
    mapping[a.zero] = b.zero
    if unital:
        mapping[a.one] = b.one
    for g, img in images.items():
        if mapping[g] not in (-1, img):
            return None
        mapping[g] = img
    defined = [i for i in range(a.order) if mapping[i] >= 0]
    queue = list(defined)

    def assign(z, w) -> bool:
        if mapping[z] == -1:
            mapping[z] = w
            defined.append(z)
            queue.append(z)
            return True
        return mapping[z] == w

    while queue:
        x = queue.pop()
        fx = mapping[x]
        if not assign(a_neg[x], b_neg[fx]):
            return None
        for y in list(defined):
            fy = mapping[y]
            if not (assign(a_add[x][y], b_add[fx][fy])
                    and assign(a_mul[x][y], b_mul[fx][fy])):
                return None
    if -1 in mapping:
        return None
    return mapping


def search_worklist(a, b, gens, choices, unital: bool, budget: int, cap=None,
                    accept=None, injective: bool = False):
    """The generator-image search one assignment at a time, each completed
    by `complete_hom_worklist`: (maps, exhausted, tried, reason), with maps
    the completed lists that pass `accept`, up to `cap` of them. An
    uncapped search whose space exceeds the budget is refused untried;
    otherwise each assignment is charged (under `injective`, those that
    repeat an image are skipped free), and the one past the budget cuts
    the search without being completed."""
    if cap is None:
        space = 1
        for c in choices:
            space *= len(c)
        if space > budget:
            return [], False, 0, f"needs {space} assignments, over the budget of {budget}"
    maps, tried = [], 0
    for assignment in product(*choices):
        if injective and len(set(assignment)) != len(assignment):
            continue
        tried += 1
        if tried > budget:
            return maps, False, tried, f"search budget {budget} exhausted"
        mapping = complete_hom_worklist(a, b, dict(zip(gens, assignment)), unital)
        if mapping is not None and (accept is None or accept(mapping)):
            maps.append(mapping)
            if len(maps) == cap:
                break
    reason = "found by generator search" if maps else f"none after {tried} completions"
    return maps, True, tried, reason


_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ";": "SEMI", "=": "EQUALS"}


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Script text to (type, value, line, col) tuples, one character at a
    time: the scanner the regex one in `dsl_cli` replaced. It differs on
    digits that are not decimal (such as '²'): it takes them into a NUMBER,
    which `int()` then rejects."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(("ARROW", "->", line, start_col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise ScriptSyntaxError("unterminated string", line, start_col,
                                        ('"',))
            tokens.append(("STRING", text[i + 1:j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUMBER", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ScriptSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("EOF", "", line, col))
    return tokens


# -- reference table builders ------------------------------------------------------
#
# The constructors of zmod, galois_field, trunc_poly and dotted_sum as they
# were before `rings.from_structure` replaced them: each computes its tables
# from its own formula, block by block. They return unvalidated rings whose
# add, mul, zero, one, labels and name the kernel must reproduce.


def _ref_ring(add, mul, zero, one, labels, name):
    from finring.rings import FiniteRng

    return FiniteRng(add, mul, zero, one, labels, name=name, check=False)


def zmod_tables(n: int):
    import numpy as np
    from finring.rings import _TABLE_DTYPE, _blocks

    r = np.arange(n, dtype=np.int64)
    add = np.empty((n, n), dtype=_TABLE_DTYPE)
    mul = np.empty((n, n), dtype=_TABLE_DTYPE)
    for i0, i1 in _blocks(n):
        add[i0:i1] = (r[i0:i1, None] + r) % n
        mul[i0:i1] = (r[i0:i1, None] * r) % n
    one = 0 if n == 1 else 1
    return _ref_ring(add, mul, 0, one, [str(i) for i in range(n)], f"zmod({n})")


def galois_field_tables(q: int):
    import itertools

    import numpy as np
    from finring.rings import _TABLE_DTYPE, _blocks, _is_irreducible

    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, t = 0, q
    while t % p == 0:
        t //= p
        k += 1
    if k == 1:
        ring = zmod_tables(p)
        return _ref_ring(ring.add, ring.mul, ring.zero, ring.one, ring.labels, f"gf({q})")
    irr = next(list(low) + [1] for low in itertools.product(range(p), repeat=k)
               if _is_irreducible(list(low) + [1], p))
    red = np.zeros((2 * k - 1, k), dtype=np.int64)
    for d in range(k):
        red[d, d] = 1
    for d in range(k, 2 * k - 1):
        shifted = np.zeros(k + 1, dtype=np.int64)
        shifted[1:] = red[d - 1]
        top = shifted[k] % p
        red[d] = (shifted[:k] - top * np.array(irr[:k], dtype=np.int64)) % p
    powers = p ** np.arange(k, dtype=np.int64)
    E = (np.arange(q)[:, None] // powers[None, :]) % p
    add = np.empty((q, q), dtype=_TABLE_DTYPE)
    mul = np.empty((q, q), dtype=_TABLE_DTYPE)
    for i0, i1 in _blocks(q, 1 << 19):
        add[i0:i1] = ((E[i0:i1, None, :] + E[None, :, :]) % p) @ powers
        conv = np.zeros((i1 - i0, q, 2 * k - 1), dtype=np.int64)
        for s in range(k):
            for t2 in range(k):
                conv[:, :, s + t2] += E[i0:i1, s][:, None] * E[:, t2][None, :]
        mul[i0:i1] = (np.tensordot(conv, red, axes=([2], [0])) % p) @ powers
    labels = []
    for i in range(q):
        terms = []
        for d in range(k):
            c = int(E[i, d])
            if c == 0:
                continue
            mono = "" if d == 0 else ("w" if d == 1 else f"w^{d}")
            terms.append(str(c) if not mono else mono if c == 1 else f"{c}{mono}")
        labels.append("+".join(terms) if terms else "0")
    return _ref_ring(add, mul, 0, 1, labels, f"gf({q})")


def trunc_poly_tables(base, num_vars: int, max_deg: int):
    import math

    import numpy as np
    from finring.rings import _TABLE_DTYPE, _blocks, _code, _digits, _mono_str, _monomials

    m = math.comb(num_vars + max_deg, num_vars)
    name = f"pol({base.name},{num_vars},{max_deg})"
    monos = _monomials(num_vars, max_deg)
    order = base.order**m
    dims = (base.order,) * m
    digits = _digits(np.arange(order), dims)
    slot = {e: t for t, e in enumerate(monos)}
    prod_slot = [
        [slot.get(tuple(a + b for a, b in zip(e1, e2))) if sum(e1) + sum(e2) <= max_deg
         else None for e2 in monos]
        for e1 in monos
    ]
    add = np.empty((order, order), dtype=_TABLE_DTYPE)
    mul = np.empty((order, order), dtype=_TABLE_DTYPE)
    for i0, i1 in _blocks(order):
        add[i0:i1] = _code((base.add[d[i0:i1, None], d] for d in digits), dims, _TABLE_DTYPE)
        res = [np.full((i1 - i0, order), base.zero, dtype=_TABLE_DTYPE) for _ in range(m)]
        for s in range(m):
            for t in range(m):
                p = prod_slot[s][t]
                if p is None:
                    continue
                term = base.mul[digits[s][i0:i1, None], digits[t][None, :]]
                res[p] = base.add[res[p], term]
        mul[i0:i1] = _code(res, dims, _TABLE_DTYPE)
    zero = int(_code([base.zero] * m, dims))
    one = int(_code([base.one] + [base.zero] * (m - 1), dims)) if base.has_one else None
    labels = []
    col = np.stack(digits, axis=1)
    for i in range(order):
        terms = []
        for t in range(m):
            c = int(col[i, t])
            if c == base.zero:
                continue
            mono = _mono_str(monos[t], num_vars)
            if not mono:
                terms.append(base.labels[c])
            elif base.has_one and c == base.one:
                terms.append(mono)
            else:
                coeff = base.labels[c]
                if "+" in coeff or "-" in coeff:
                    coeff = f"({coeff})"
                terms.append(coeff + mono)
        labels.append("+".join(terms) if terms else base.labels[base.zero])
    return _ref_ring(add, mul, zero, one, labels, name)


def dotted_sum_tables(base, part, action):
    """A dotted-plus R with (a,x)(a',x') = (aa', a.x' + a'.x + xx')."""
    import numpy as np
    from finring.rings import _blocks

    m = part.order
    action = np.asarray(action, dtype=np.int64)
    n = base.order * m
    aj = np.arange(n) // m
    xj = np.arange(n) % m
    add = np.empty((n, n), dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int64)
    for i0, i1 in _blocks(n):
        ai, xi = aj[i0:i1], xj[i0:i1]
        add[i0:i1] = base.add[ai[:, None], aj[None, :]].astype(np.int64) * m \
            + part.add[xi[:, None], xj[None, :]]
        cross = part.add[action[ai[:, None], xj[None, :]],
                         action[aj[None, :], xi[:, None]]]
        mul[i0:i1] = base.mul[ai[:, None], aj[None, :]].astype(np.int64) * m \
            + part.add[cross, part.mul[xi[:, None], xj[None, :]]]
    labels = [f"({base.labels[a]},{part.labels[x]})" for a in range(base.order)
              for x in range(m)]
    return _ref_ring(add, mul, base.zero * m + part.zero, base.one * m + part.zero, labels,
                     f"dsum({base.name},{part.name})")


def structure_tables(dims, products, one):
    """The tables of the product x y = sum_ij x_i y_j (s_i s_j) on the
    direct sum of Z/d over `dims` (elements are mixed-radix digit tuples,
    first digit most significant, s_i the i-th unit digit tuple), computed
    on digit representatives 0 <= x_i < d_i by plain loops. It is a table
    even when the constants admit no biadditive product, which is what
    `validate_rng` then rejects."""
    n = 1
    for d in dims:
        n *= d

    def digits(x):
        out = []
        for d in reversed(dims):
            x, r = divmod(x, d)
            out.append(r)
        return out[::-1]

    def code(ds):
        x = 0
        for d, v in zip(dims, ds):
            x = x * d + v % d
        return x

    add = [[code([a + b for a, b in zip(digits(x), digits(y))]) for y in range(n)]
           for x in range(n)]
    const = [[digits(c) for c in row] for row in products]
    mul = []
    for x in range(n):
        row = []
        for y in range(n):
            acc = [0] * len(dims)
            for i, xi in enumerate(digits(x)):
                for j, yj in enumerate(digits(y)):
                    acc = [a + xi * yj * c for a, c in zip(acc, const[i][j])]
            row.append(code(acc))
        mul.append(row)
    return add, mul, 0, one


def least_preimages(values, n: int) -> list[int]:
    """For each v in 0..n-1, the least i with values[i] == v; -1 when v
    does not occur."""
    first: dict[int, int] = {}
    for i, v in enumerate(values):
        first.setdefault(int(v), i)
    return [first.get(v, -1) for v in range(n)]


def n_amalgam_via_power(f, J, n: int):
    """The n-fold amalgam as it was built before `n_amalgam` went through
    the flat product: the power ring B^n, the diagonal hom A -> B^n, and the
    `amalgam` of that hom along the ideal J^n of B^n. Returns the Amalgam,
    whose ring has order |A| * |J|^n inside A x B^n."""
    import numpy as np
    from finring.amalgamation import amalgam
    from finring.morphisms import RingHom
    from finring.rings import _code, _digits, direct_product
    from finring.subobjects import Ideal

    B = f.codomain
    power = direct_product([B] * n, name=f"{B.name}^{n}")
    dims = (B.order,) * n
    diag = RingHom(f.domain, power, _code([f.map] * n, dims), unital=True,
                   name=f"diag^{n}({f.name})")
    mask = np.ones(power.order, dtype=bool)
    for digit in _digits(np.arange(power.order), dims):
        mask &= J.members[digit]
    return amalgam(diag, Ideal(power, mask), f"amalg^{n}({f.name},{J.size})")


# -- the flat-code route ----------------------------------------------------------
#
# Fiber products as `rings.closed_subset` built them before `pair_subring`
# positioned each element by its rank within a fiber: every element coded
# over the flat product of its factors, and every table cell looked up among
# the codes, by a dense position array while the product has at most m^2
# codes and by binary search beyond. Kept to cross-check the kernel.


def closed_subset_flat(factors, codes, name: str = "flat"):
    """The subset of the flat product of `factors` with the strictly
    increasing int64 `codes` (first factor most significant), as an
    unvalidated rng in code order with labels "(a,b,...)"; AssertionError
    when the subset misses 0 or is not closed."""
    import math

    import numpy as np
    from finring.rings import FiniteRng, _blocks, _code, _detect_one, _digits, _sub

    factors = list(factors)
    dims = [f.order for f in factors]
    size = math.prod(dims)
    assert size < 1 << 63, "int64 codes would wrap"
    codes = np.asarray(codes, dtype=np.int64)
    m = codes.size
    if size <= m * m:
        dense = np.full(size, -1, dtype=np.int64)
        dense[codes] = np.arange(m)
        position = dense.__getitem__
    else:
        def position(c):
            p = np.minimum(np.searchsorted(codes, c), m - 1)
            return np.where(codes[p] == c, p, -1)
    zero = int(position(_code([f.zero for f in factors], dims)))
    assert zero >= 0, "subset misses zero"
    digits = _digits(codes, dims)
    tables = []
    for op in ("add", "mul"):
        table = np.empty((m, m), dtype=np.int64)
        for i0, i1 in _blocks(m):
            cells = (_sub(getattr(f, op), d[i0:i1], d) for f, d in zip(factors, digits))
            table[i0:i1] = position(_code(cells, dims))
        assert table.min() >= 0, f"subset not closed under {op}"
        tables.append(table)
    add, mul = tables
    one = -1
    if all(f.has_one for f in factors):
        one = int(position(_code([f.one for f in factors], dims)))
    coords = [[f.labels[i] for i in d.tolist()] for f, d in zip(factors, digits)]
    labels = ["(" + ",".join(row) + ")" for row in zip(*coords)]
    return FiniteRng(add, mul, zero, one if one >= 0 else _detect_one(add, mul), labels,
                     name=name, check=False)


def n_amalgam_via_flat_codes(f, J, n: int):
    """The n-fold amalgam as `n_amalgam` built it over the flat product
    (A, B, ..., B): rows (a, b_1, ..., b_n) with each b_k read from f(a)+J
    sorted, coded over (|A|, |B|, ..., |B|). Returns the ring and the rows."""
    import numpy as np
    from finring.rings import _code, _digits, _sub

    A, B = f.domain, f.codomain
    cols = np.sort(_sub(B.add, f.map, J.indices), axis=1)
    t = _digits(np.arange(A.order * J.size ** n), [A.order] + [J.size] * n)
    coords = np.stack([t[0]] + [cols[t[0], tk] for tk in t[1:]], axis=1)
    ring = closed_subset_flat([A] + [B] * n, _code(coords.T, [A.order] + [B.order] * n))
    return ring, coords


def fiber_product_via_flat_codes(left, right, alpha_map, beta_map):
    """{(x, y) : alpha(x) = beta(y)}, x and y codes over the `left` and the
    `right` factors, as the subset of the flat product (*left, *right): the
    pairs by `pullback_pairs`, each coded x * |right| + y. Returns the ring
    and the sorted pairs."""
    pairs = sorted(pullback_pairs(list(alpha_map), list(beta_map)))
    ring = closed_subset_flat([*left, *right], [x * len(beta_map) + y for x, y in pairs])
    return ring, pairs


# -- the fraction-pair route -------------------------------------------------------
#
# Localizations as `subobjects.localization` built them before it took the
# quotient by the kernel of a -> a/1: every one of the n·|S| fraction pairs
# compared with every other in one cross matrix, so it stops at small n·|S|.
# Kept to cross-check the quotient route.


def localization_by_pairs(ring, s_indices):
    """(S^-1 A, a -> a/1) from the pairs (a, s), s in the sorted indices
    `s_indices` (a multiplicatively closed set holding 1): (a, s) ~ (b, t)
    when some u in S kills at - bs; classes ordered by their least pair,
    labeled "a/s", and validated with the canonical hom."""
    import numpy as np
    from finring.morphisms import RingHom
    from finring.rings import FiniteRng, _sub
    from finring.subobjects import annihilator_killed

    one = ring.require_one()
    s_idx = np.asarray(sorted(set(int(s) for s in s_indices)), dtype=np.int64)
    killed = annihilator_killed(ring, s_idx)
    pairs = np.array([(a, int(s)) for a in range(ring.order) for s in s_idx], dtype=np.int64)
    cross = _sub(ring.mul, pairs[:, 0], pairs[:, 1])
    eq = killed[ring.sub(cross, cross.T)]
    rep_idx = eq.argmax(axis=1)
    is_rep = rep_idx == np.arange(len(pairs))  # the least pair of its class
    class_of_pair = (np.cumsum(is_rep) - 1)[rep_idx]
    rep_pairs = pairs[is_rep]
    ra, rs = rep_pairs[:, 0], rep_pairs[:, 1]
    lookup = np.full((ring.order, ring.order), -1, dtype=np.int64)
    lookup[pairs[:, 0], pairs[:, 1]] = class_of_pair
    ra_rs = _sub(ring.mul, ra, rs)
    den = _sub(ring.mul, rs, rs)
    add = lookup[ring.add[ra_rs, ra_rs.T], den]
    mul = lookup[_sub(ring.mul, ra, ra), den]
    assert (add >= 0).all() and (mul >= 0).all(), "a sum or product has no class"
    labels = [f"{ring.labels[a]}/{ring.labels[s]}" for a, s in rep_pairs]
    localized = FiniteRng(add, mul, int(lookup[ring.zero, one]), int(lookup[one, one]),
                          labels, provenance="localization",
                          name=f"loc({ring.name},{s_idx.size})")
    return localized, RingHom(ring, localized, lookup[np.arange(ring.order), one],
                              unital=True)
