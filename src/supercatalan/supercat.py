"""Super Catalan numbers and the closed form of their truncated convolution.

S(n, l) = binomial(2n, n) * binomial(2l, l) / binomial(n+l, n)
        = (2n)! (2l)! / (n! l! (n+l)!)

is an integer for all n, l >= 0, symmetric in its arguments, and even
except for S(0, 0) = 1. Three independent evaluation routes are exposed
(binomial ratio, factorial ratio, alternating binomial sum) so they can
be played against each other; the memoized super_catalan used by the rest
of the package is the binomial ratio.
"""

from __future__ import annotations

from functools import lru_cache

from .exactnum import binomial, central_binomial, exact_div, factorial

__all__ = [
    "super_catalan",
    "super_catalan_ratio",
    "super_catalan_factorial",
    "super_catalan_von_szily",
    "catalan",
    "phi",
]


def _require_pair(n: int, l: int) -> None:
    if n < 0 or l < 0:
        raise ValueError(f"super Catalan indices must be non-negative, got ({n}, {l})")


def _require_offset(n: int, t: int, l: int, offset: str = "t") -> None:
    # offset names t as the caller does: t for phi, s for q_scaled, j for d_psi_level1
    _require_pair(n, l)
    if not 0 <= t <= n:
        raise ValueError(f"offset requires 0 <= {offset} <= n, got {offset}={t}, n={n}")


def super_catalan_ratio(n: int, l: int) -> int:
    """S(n, l) as binomial(2n,n) binomial(2l,l) / binomial(n+l,n), exactly."""
    _require_pair(n, l)
    return exact_div(central_binomial(n) * central_binomial(l), binomial(n + l, n))


def super_catalan_factorial(n: int, l: int) -> int:
    """S(n, l) as (2n)!(2l)! / (n! l! (n+l)!), exactly."""
    _require_pair(n, l)
    return exact_div(factorial(2 * n) * factorial(2 * l),
                     factorial(n) * factorial(l) * factorial(n + l))


def super_catalan_von_szily(n: int, l: int) -> int:
    """S(n, l) as the alternating sum over binomial(2n, n+k) binomial(2l, l+k).

    Terms vanish outside |k| <= min(n, l), so the sum is truncated there.
    """
    _require_pair(n, l)
    w = min(n, l)
    # abs: a negative exponent on an int base would silently go float
    return sum((-1) ** abs(k) * binomial(2 * n, n + k) * binomial(2 * l, l + k)
               for k in range(-w, w + 1))


@lru_cache(maxsize=None)
def super_catalan(n: int, l: int) -> int:
    """Memoized S(n, l). Shared by the convolution sums, write-once per key."""
    return super_catalan_ratio(n, l)


def catalan(n: int) -> int:
    """Catalan number binomial(2n, n) / (n+1), exactly. S(n, 1) = 2 catalan(n)."""
    if n < 0:
        raise ValueError(f"catalan of negative integer {n}")
    return exact_div(central_binomial(n), n + 1)


def phi(n: int, l: int, t: int) -> int:
    """Closed form of the window-t alternating convolution of length 2n.

    phi(n, l, t) = (-1)^t * binomial(2l,l) binomial(2t,t) binomial(2(n+l-t), n+l-t)
                            binomial(2n,n) binomial(2n-2t, n-t)
                   / ( binomial(n+l,n) binomial(2n+l-t, n) binomial(n,t) )

    The quotient is an integer; it is computed as one exact division of the
    assembled numerator by the assembled denominator, not term by term, so
    a violated integrality surfaces as InexactDivisionError.
    """
    _require_offset(n, t, l)
    num = (central_binomial(l) * central_binomial(t)
           * central_binomial(n + l - t) * central_binomial(n)
           * binomial(2 * n - 2 * t, n - t))
    den = binomial(n + l, n) * binomial(2 * n + l - t, n) * binomial(n, t)
    return (-1) ** t * exact_div(num, den)
