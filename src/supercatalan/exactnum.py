"""Exact arithmetic primitives.

Everything in this package is computed exactly. Integers are plain Python
ints (arbitrary precision), rationals are fractions.Fraction (always in
lowest terms, denominator positive, integer-valued fractions compare equal
to ints). There is no floating point anywhere, and every division that a
formula promises to be exact is checked at runtime.
"""

from __future__ import annotations

import math

__all__ = [
    "IntegrityError",
    "InexactDivisionError",
    "exact_div",
    "factorial",
    "binomial",
    "central_binomial",
]


class IntegrityError(ArithmeticError):
    """An internal cross-check that must hold by construction failed."""


class InexactDivisionError(IntegrityError):
    """A division that must be exact left a remainder."""


def exact_div(a: int, b: int) -> int:
    """Divide a by b, insisting on a zero remainder."""
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError(f"{a} is not divisible by {b} (remainder {r})")
    return q


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the windowed-sum convention.

    k < 0 or k > n yields 0 so truncated sums can run over a full index
    range without edge cases. A negative n is a caller bug and raises.
    """
    if n < 0:
        raise ValueError(f"binomial with negative upper index {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def central_binomial(n: int) -> int:
    """binomial(2n, n)."""
    return binomial(2 * n, n)
