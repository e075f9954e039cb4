"""Global size and search limits.

Every constructor that materializes a Cayley table checks the element count
against the active size guard. `set_size_guard` replaces the guard for the
process, and `guard_limit` replaces it for the length of a `with` block;
`finring check --guard N` evaluates its script under `guard_limit(N)`.
The two budgets are constants: DEFAULT_SEARCH_BUDGET bounds the completions
of a hom search whose caller passes no budget, and DEFAULT_SUBSET_CELLS
bounds the cells of the exhaustive seed phase of `min_generating_set`, each
seed charged the structure's order, before it adds the least element not
yet generated instead.
"""

from __future__ import annotations

import contextlib

DEFAULT_SIZE_GUARD = 4096
DEFAULT_SEARCH_BUDGET = 10**6
DEFAULT_SUBSET_CELLS = 2**20

_size_guard = DEFAULT_SIZE_GUARD


def size_guard() -> int:
    return _size_guard


def set_size_guard(n: int) -> None:
    global _size_guard
    if n < 1:
        raise ValueError("size guard must be positive")
    _size_guard = int(n)


@contextlib.contextmanager
def guard_limit(n: int):
    """Temporarily replace the size guard (used by the evaluator and tests)."""
    old = _size_guard
    set_size_guard(n)
    try:
        yield
    finally:
        set_size_guard(old)
