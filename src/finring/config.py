"""Global size and search limits.

Every constructor that materializes a Cayley table checks the element count
against the active size guard. `set_size_guard` replaces the guard for the
process, and `guard_limit` replaces it for the length of a `with` block;
`finring check --guard N` evaluates its script under `guard_limit(N)`.
A guard is at least 1 and at most `max_size_guard()`, the largest value of
the table dtype, since table entries are element indices below the order.
The two budgets are constants: DEFAULT_SEARCH_BUDGET bounds the completions
of a hom search whose caller passes no budget, and DEFAULT_SUBSET_CELLS
bounds the cells of the exhaustive seed phase of `min_generating_set`, each
seed charged the structure's order, before it adds the least element not
yet generated instead.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import InvalidParameter

DEFAULT_SIZE_GUARD = 4096
DEFAULT_SEARCH_BUDGET = 10**6
DEFAULT_SUBSET_CELLS = 2**20

_size_guard = DEFAULT_SIZE_GUARD


def size_guard() -> int:
    return _size_guard


def max_size_guard() -> int:
    from .rings import _TABLE_DTYPE  # here, as rings imports this module

    return int(np.iinfo(_TABLE_DTYPE).max)


def set_size_guard(n: int) -> None:
    global _size_guard
    if n < 1:
        raise InvalidParameter(f"size guard must be at least 1, got {n}")
    if n > max_size_guard():
        raise InvalidParameter(
            f"size guard must be at most {max_size_guard()}, the largest element "
            f"index a table entry holds, got {n}")
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
