"""Alternating convolution sums of super Catalan numbers.

The basic objects are

    psi(n, m, l)   = sum_k (-1)^k binomial(n,k)^m S(k,l) S(n-k,l)
    psi_t(n, t, l) = sum_{k=t}^{n-t} (-1)^k binomial(n-2t, k-t) S(k,l) S(n-k,l)

together with the weighted variants p_sum, r_sum, r_prime_sum,
r_dprime_sum and t_sum that the recurrence arguments run on. Sums whose
weights carry a 1/(k+l+1)-style factor return Fraction, everything else
returns int. The unweighted sums vanish whenever the length n is odd; the
weighted ones in general do not.

All seven run on one kernel. The summand is hypergeometric in k: with
M = n - 2t and j = k - t,

    term(k+1) = -term(k) ((M-j)/(j+1))^m (2k+1)(n-k+l) / ((k+l+1)(2n-2k-1))

so only the first term takes S values. Every later one costs a few
small-integer products and one exact division; an inexact step raises
InexactDivisionError. A weighted sum multiplies term k by an integer
weight(k). A rational one also divides by den(k): with L the lcm of all
den(k) over the window, the walk carries the integer term(k) L/den(k) (its
step ratio gains the factor den(k)/den(k+1)), adds the weighted numerators
and builds one Fraction over L at the end.

Each of the seven is memoized (exactnum.memoized): inside a sweep or a
run_check, identities that evaluate the same sum at the same arguments
share one evaluation, and the memo is emptied when the sweep ends. A call
made outside such a scope computes its sum afresh and keeps nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .exactnum import exact_div, memoized
from .supercat import super_catalan

__all__ = ["psi", "psi_t", "p_sum", "r_sum", "r_prime_sum", "r_dprime_sum",
           "t_sum"]


def _terms(n: int, t: int, l: int, m: int, dens: list[int], common: int):
    """Yield term(k) common/dens[k-t] for k = t, ..., n-t, one exact division a step."""
    term = (-1) ** t * super_catalan(t, l) * super_catalan(n - t, l) * (common // dens[0])
    yield term
    for k in range(t, n - t):
        j = k - t
        num = (n - t - k) ** m * (2 * k + 1) * (n - k + l) * dens[j]
        den = (j + 1) ** m * (k + l + 1) * (2 * n - 2 * k - 1) * dens[j + 1]
        term = exact_div(term * -num, den)
        yield term


def _windowed(n: int, t: int, l: int, weight=None, den=None, m: int = 1):
    """sum over the window of weight(k) term(k), divided by den(k) if given."""
    if l < 0:
        raise ValueError(f"second super Catalan index must be non-negative, got {l}")
    if n < 0:
        raise ValueError(f"sum length must be non-negative, got {n}")
    if t < 0 or 2 * t > n:
        raise ValueError(f"window offset requires 0 <= 2t <= n, got t={t}, n={n}")
    window = range(t, n - t + 1)
    dens = [1] * len(window) if den is None else list(map(den, window))
    common = math.lcm(*dens)
    terms = _terms(n, t, l, m, dens, common)
    total = sum(terms) if weight is None else sum(map(mul, map(weight, window), terms))
    return total if den is None else Fraction(total, common)


@memoized
def psi(n: int, m: int, l: int) -> int:
    """Alternating convolution with the binomial weight raised to the m-th power."""
    if n < 0:
        raise ValueError(f"sum length must be non-negative, got {n}")
    if m < 1:
        raise ValueError(f"binomial power must be positive, got {m}")
    return _windowed(n, 0, l, m=m)


@memoized
def psi_t(n: int, t: int, l: int) -> int:
    """Window-t truncation of the alternating convolution."""
    return _windowed(n, t, l)


@memoized
def p_sum(n: int, t: int, l: int) -> int:
    """psi_t with the extra linear weight (n - t - k)."""
    return _windowed(n, t, l, lambda k: n - t - k)


@memoized
def r_sum(n: int, t: int, l: int) -> Fraction:
    """psi_t with the weight (2l+1)/(k+l+1). Exact rational."""
    return _windowed(n, t, l, lambda k: 2 * l + 1, lambda k: k + l + 1)


@memoized
def r_prime_sum(n: int, t: int, l: int) -> Fraction:
    """psi_t with the symmetric weight (2l+1)/((k+l+1)(n-k+l+1))."""
    return _windowed(n, t, l, lambda k: 2 * l + 1,
                     lambda k: (k + l + 1) * (n - k + l + 1))


@memoized
def r_dprime_sum(n: int, t: int, l: int) -> Fraction:
    """r_prime_sum with the extra weight (n - k) on each term."""
    return _windowed(n, t, l, lambda k: (2 * l + 1) * (n - k),
                     lambda k: (k + l + 1) * (n - k + l + 1))


@memoized
def t_sum(n: int, t: int, l: int) -> Fraction:
    """psi_t with the combined weight (n-t-k)(2l+1)/(k+l+1)."""
    return _windowed(n, t, l, lambda k: (n - t - k) * (2 * l + 1),
                     lambda k: k + l + 1)
