"""Alternating convolution sums of super Catalan numbers.

The basic objects are

    psi(n, m, l)   = sum_k (-1)^k binomial(n,k)^m S(k,l) S(n-k,l)
    psi_t(n, t, l) = sum_{k=t}^{n-t} (-1)^k binomial(n-2t, k-t) S(k,l) S(n-k,l)

together with the weighted variants p_sum, r_sum, r_prime_sum,
r_dprime_sum and t_sum that the recurrence arguments run on. Sums whose
weights carry a 1/(k+l+1)-style factor return Fraction, everything else
returns int. The unweighted sums vanish whenever the length n is odd; the
weighted ones in general do not.

All seven run on one integer kernel. With M = n - 2t, j = k - t and the
second S indices shifted by a, b in {0, 1}, the walk over k = t, ..., n-t

    term(k)   = (-1)^k binomial(M, j)^m S(k, l+a) S(n-k, l+b)
    term(k+1) = -term(k) ((M-j)/(j+1))^m (2k+1)(n-k+l+b) / ((k+l+a+1)(2n-2k-1))

takes S values for the first term only. The step factors of all k are
ranges, the sign folded into the odd one; map raises (M-j) and (j+1) to
the m-th power and multiplies the factors together, so their small-integer
arithmetic runs in C. Every later term then costs one bignum product and
one divmod, checked on the spot: an inexact step raises
InexactDivisionError. A weighted sum multiplies term k by an integer
weight, for p_sum, t_sum and r_dprime_sum a range that falls by one as k
rises. The rational weights are index shifts:
S(k, l+1) = 2(2l+1) S(k, l) / (k+l+1), so each rational sum is one
integer walk over a constant, 2 with a = 1 (r_sum, t_sum) or 4(2l+1) with
a = b = 1 (r_prime_sum, r_dprime_sum). r_prime_sum at l thus walks the terms of psi_t at l+1, but
on its own walk, not by calling psi_t.

When n is even, there are no weights and a = b (psi, psi_t, r_prime_sum),
the summand is mirror-symmetric, term(k) = term(n-k), so the walk stops
at the middle term j = M/2 and the sum is twice the half sum less that
term: M/2 checked steps instead of M. The other sums walk in full. At odd
n the mirror pairs cancel, and p_sum, t_sum and r_dprime_sum carry
weights while r_sum shifts one index only, so their summands are not
symmetric. The vanishing at odd length (eq20) and the weight pairings
behind eq28 and eq58 are identities the registry checks, so the walk
does not assume them.

Six of the seven are memoized (exactnum.memoized): inside a sweep or a
run_check, identities that evaluate the same sum at the same arguments
share one evaluation, and the memo is emptied when the sweep ends. A call
made outside such a scope computes its sum afresh and keeps nothing.
r_dprime_sum is not: only eq58 reads it, once a point, so a sweep never
asks for the same value twice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import mul

from .exactnum import exact_div, memoized
from .supercat import super_catalan

__all__ = ["psi", "psi_t", "p_sum", "r_sum", "r_prime_sum", "r_dprime_sum",
           "t_sum"]


def _check_window(n: int, t: int, l: int, offset: str = "t") -> None:
    # offset names t as the caller does: t for the sums and a_t, j for the D sums
    if l < 0:
        raise ValueError(f"second super Catalan index must be non-negative, got {l}")
    if n < 0:
        raise ValueError(f"sum length must be non-negative, got {n}")
    if t < 0 or 2 * t > n:
        raise ValueError(f"window offset requires 0 <= 2{offset} <= n, "
                         f"got {offset}={t}, n={n}")


def _check_power(m: int) -> None:
    if m < 1:
        raise ValueError(f"binomial power must be positive, got {m}")


def _windowed(n: int, t: int, l: int, weights: range | None = None, m: int = 1,
              a: int = 0, b: int = 0) -> int:
    """sum over the window of weights[k-t] term(k)."""
    _check_window(n, t, l)
    M = n - 2 * t
    # an even length with no weights and a == b has term(k) == term(n-k):
    # walk to the middle term j = M/2 and count the steps before it twice
    half = weights is None and a == b and n % 2 == 0
    steps = M // 2 if half else M
    # the factors of the step k -> k+1, k = t..t+steps-1, j = k-t:
    # -(M-j)^m (2k+1)(n-k+l+b) over (j+1)^m (k+l+a+1)(2n-2k-1)
    up, down = range(M, M - steps, -1), range(1, steps + 1)
    if m > 1:
        up, down = map(pow, up, repeat(m)), map(pow, down, repeat(m))
    nums = map(mul, map(mul, up, range(-2 * t - 1, -2 * t - 2 * steps - 1, -2)),
               range(n - t + l + b, n - t + l + b - steps, -1))
    dens = map(mul, map(mul, down, range(t + l + a + 1, t + l + a + 1 + steps)),
               range(2 * n - 2 * t - 1, 2 * n - 2 * t - 2 * steps - 1, -2))
    term = (-1) ** t * super_catalan(t, l + a) * super_catalan(n - t, l + b)
    if weights is None:
        total = term
        for num, den in zip(nums, dens):
            term, r = divmod(term * num, den)
            if r:  # exact_div raises its error for the dividend term den + r
                exact_div(term * den + r, den)
            total += term
        return 2 * total - term if half else total
    weights = iter(weights)
    total = next(weights) * term
    for num, den, w in zip(nums, dens, weights):
        term, r = divmod(term * num, den)
        if r:
            exact_div(term * den + r, den)
        total += w * term
    return total


@memoized
def psi(n: int, m: int, l: int) -> int:
    """Alternating convolution with the binomial weight raised to the m-th power."""
    _check_power(m)
    return _windowed(n, 0, l, m=m)


@memoized
def psi_t(n: int, t: int, l: int) -> int:
    """Window-t truncation of the alternating convolution."""
    return _windowed(n, t, l)


@memoized
def p_sum(n: int, t: int, l: int) -> int:
    """psi_t with the extra linear weight (n - t - k)."""
    return _windowed(n, t, l, range(n - 2 * t, -1, -1))


@memoized
def r_sum(n: int, t: int, l: int) -> Fraction:
    """psi_t with the weight (2l+1)/(k+l+1). Exact rational."""
    return Fraction(_windowed(n, t, l, a=1), 2)


@memoized
def r_prime_sum(n: int, t: int, l: int) -> Fraction:
    """psi_t with the symmetric weight (2l+1)/((k+l+1)(n-k+l+1))."""
    return Fraction(_windowed(n, t, l, a=1, b=1), 4 * (2 * l + 1))


def r_dprime_sum(n: int, t: int, l: int) -> Fraction:
    """r_prime_sum with the extra weight (n - k) on each term."""
    return Fraction(_windowed(n, t, l, range(n - t, t - 1, -1), a=1, b=1), 4 * (2 * l + 1))


@memoized
def t_sum(n: int, t: int, l: int) -> Fraction:
    """psi_t with the combined weight (n-t-k)(2l+1)/(k+l+1)."""
    return Fraction(_windowed(n, t, l, range(n - 2 * t, -1, -1), a=1), 2)
