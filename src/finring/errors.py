"""Exception hierarchy shared by all finring modules."""

from __future__ import annotations


class FinringError(Exception):
    """Base class for every error raised by this package for bad input or a
    refused construction."""


class InvariantViolated(Exception):
    """A mathematical invariant the code relies on does not hold: a fault in
    the program, not in its input. It is not a FinringError, so it never
    reads as an unmet hypothesis; `evaluate` reports it as a failed check."""


class MalformedTable(FinringError):
    """A Cayley table is non-square, out of range, or violates a ring axiom."""


class InvalidParameter(FinringError):
    """A constructor argument is out of its documented range."""


class SizeGuardExceeded(FinringError):
    """A construction or search would exceed the configured size guard."""


class MissingIdentity(FinringError):
    """An operation that needs a multiplicative identity was given a rng without one."""


class AmbientMismatch(FinringError):
    """Two objects that must share an ambient ring do not."""


class EmptySet(FinringError):
    """A set argument that must be nonempty is empty."""


class NotMultiplicativelyClosed(FinringError):
    """A localization set is not multiplicatively closed or misses 1."""


class MalformedMap(FinringError):
    """An index map is out of range or fails the homomorphism laws."""


class NotSurjective(FinringError):
    """A map that must be surjective is not."""


class IncompatibleStructures(FinringError):
    """Module and rng data do not share the required additive structure."""


class HypothesisViolated(FinringError):
    """The inputs sit outside the hypotheses of the construction."""


class NotPrime(FinringError):
    """An ideal that must be prime is not."""


class UnknownName(FinringError):
    """A script references a name that was never defined."""


class TypeMismatch(FinringError):
    """A script expression has the wrong kind for its position."""


class ScriptSyntaxError(FinringError):
    """Script text failed to tokenize or parse.

    Carries the 1-based line/column and the token set that would have
    been accepted at that point.
    """

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        detail = f"line {line}, col {col}: {message}"
        if self.expected:
            detail += " (expected " + " | ".join(self.expected) + ")"
        super().__init__(detail)


class EvaluationError(FinringError):
    """A script definition could not be evaluated; carries the statement location."""

    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")
