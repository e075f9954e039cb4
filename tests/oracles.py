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
