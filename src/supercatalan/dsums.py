"""Window-truncated convolution engine and the divisibility pipeline.

d_sum_direct evaluates, for an arbitrary integer-valued summand f(n, k, l),

    D(n, j, t) = sum_u binomial(n-j, u) binomial(n-j, j+u) binomial(n, j+u)^t f(n, j+u, l)

with 0 <= j <= floor(n/2) and t >= 0. d_sum_step lowers the level through

    D(n, j, t+1) = sum_u binomial(n, j+u) binomial(n-j, u) D(n, j+u, t)

and d_sum_base expresses the t = 0 layer through the windowed sums

    a_t(n) = sum_{k=t}^{n-t} binomial(n-2t, k-t) f(n, k, l).

Two summands are provided: psi_summand, whose D values reproduce the
alternating super Catalan convolutions (psi(n, m, l) = D(n, 0, m-2) for
m >= 2), and the constant unit_summand for engine self-tests.

For psi_summand the level-0 and level-1 layers of D(2n, j, t) admit closed
forms that factor S(n, l) out in front: d_psi_base_closed carries a rational
cofactor, d_psi_level1 an integer one built from q_scaled. Propagating the
integer cofactors upward through the level recurrence gives a constructive
quotient psi(2n, m, l) / S(n, l) that never performs the division; that is
what psi_quotient_witness returns and what psi_divisibility_check is
validated against.

d_sum_direct and the witness rows read rows: _pascal(N) holds binomial(N, k)
for k = 0..N and _summands(f, n, l) holds f(n, k, l) for k = 0..n. Each of
their sums is one sum(map(mul, ...)) over slices of those rows, so its loop
runs in C, and the direct sums of one (n, l) evaluate f only n + 1 times,
whatever j and t they take.

No other inner sum takes a binomial per term either. a_t reads its
binomials from a Pascal row, and q_scaled reads binomial(n-s, v) from one.
The inner sum of _base_expanded and the central binomials of q_scaled walk
instead: each factor is taken once, for the first term, and then stepped
by its exact ratio, one small-integer product and one quotient a term:

    binomial(N, k+1)    = binomial(N, k) (N-k) / (k+1)
    binomial(2w+2, w+1) = binomial(2w, w) 2(2w+1) / (w+1)

Each walk is inline, since at the lengths the sweeps run a generator per
factor costs about as much as the binomial it replaces. The outer loops of
d_sum_step and the base regroupings, and q_sum, which no sweep reaches,
take binomial() per term.

d_sum_base plays a walk (_base_expanded) against rows (a_t under
_base_windowed). a_t and the regroupings call f directly, so eq17 plays
them against the summand row. The routes share no code beyond the rows, so
the cross-checks between them stay independent.

A witness row holds D(2n, j, level) / S(n, l) for j = 0..n. It weights a
vector w once, and its entry j is sum_k binomial(2n-j, k-j) w[k], one dot
product of a Pascal row with a slice of w. At level 1,
w[k] = (-1)^k binomial(n, k) q_scaled(n, k, l), so one row takes n + 1
q_scaled values and holds every level-1 cofactor of its (n, l); above it,
w[k] = binomial(2n, k) below[k].

The Pascal and summand rows, q_scaled and the witness rows are memoized
(exactnum.memoized) while a memo scope is open: a sweep, a run_check,
psi_quotient_witness, which opens one for its lift, or d_sum_step, which
opens one so that its inner direct sums share their rows. The D values
themselves are not: a sweep rarely asks for one twice, so a table of them
would only hold memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb
from operator import mul
from typing import Callable

from .exactnum import IntegrityError, binomial, central_binomial, memo_scope, memoized
from .sums import psi
from .supercat import super_catalan

__all__ = [
    "Summand",
    "psi_summand",
    "unit_summand",
    "d_sum_direct",
    "d_sum_step",
    "a_t",
    "d_sum_base",
    "q_sum",
    "q_scaled",
    "d_psi_base_closed",
    "d_psi_level1",
    "psi_quotient_witness",
    "DivisionCheck",
    "division_check",
    "psi_divisibility_check",
]

# A summand maps (n, k, l) to an integer and must be pure: the engine may
# re-evaluate it freely, and inside a memo scope it keeps the row
# f(n, k, l), k = 0..n, keyed by f itself.
Summand = Callable[[int, int, int], int]


@memoized
def _pascal(N: int) -> tuple[int, ...]:
    """binomial(N, k) for k = 0..N."""
    return tuple(map(comb, repeat(N), range(N + 1)))


@memoized
def _summands(f: Summand, n: int, l: int) -> tuple[int, ...]:
    """f(n, k, l) for k = 0..n."""
    return tuple(map(f, repeat(n), range(n + 1), repeat(l)))


def psi_summand(n: int, k: int, l: int) -> int:
    """(-1)^k S(k, l) S(n-k, l), the alternating super Catalan summand."""
    v = super_catalan(k, l) * super_catalan(n - k, l)
    return -v if k & 1 else v


def unit_summand(n: int, k: int, l: int) -> int:
    """Constant 1; turns D(n, 0, m-2) into the sum of binomial(n,k)^m."""
    return 1


def _check_window(n: int, j: int) -> None:
    if n < 0:
        raise ValueError(f"sum length must be non-negative, got {n}")
    if j < 0 or 2 * j > n:
        raise ValueError(f"window offset requires 0 <= 2j <= n, got j={j}, n={n}")


def d_sum_direct(f: Summand, n: int, j: int, t: int, l: int) -> int:
    """Evaluate D(n, j, t) for summand f by its defining single sum."""
    _check_window(n, j)
    if t < 0:
        raise ValueError(f"level must be non-negative, got {t}")
    # k = j+u runs over the window [j, n-j]; binomial(n-j, u),
    # binomial(n-j, k), f(n, k, l) and binomial(n, k)^t are slices of rows
    inner, window = _pascal(n - j), slice(j, n - j + 1)
    terms = map(mul, map(mul, inner, inner[window]), _summands(f, n, l)[window])
    if t:
        c = _pascal(n)[window]
        terms = map(mul, terms, c if t == 1 else map(pow, c, repeat(t)))
    return sum(terms)


def d_sum_step(f: Summand, n: int, j: int, t: int, l: int) -> int:
    """Evaluate D(n, j, t) through the level recurrence, one step down.

    Only defined for t >= 1; the t = 0 layer has no level below it and is
    covered by d_sum_direct and d_sum_base instead.
    """
    _check_window(n, j)
    if t < 1:
        raise ValueError(f"level recurrence needs t >= 1, got {t}")
    with memo_scope:  # the inner sums share their rows even outside a sweep
        return sum(binomial(n, j + u) * binomial(n - j, u)
                   * d_sum_direct(f, n, j + u, t - 1, l)
                   for u in range((n - 2 * j) // 2 + 1))


def a_t(f: Summand, n: int, t: int, l: int) -> int:
    """Windowed sum a_t(n) = sum_{k=t}^{n-t} binomial(n-2t, k-t) f(n, k, l)."""
    _check_window(n, t)
    return sum(map(mul, _pascal(n - 2 * t), map(f, repeat(n), range(t, n - t + 1), repeat(l))))


def _base_windowed(f: Summand, n: int, j: int, l: int) -> int:
    return sum(binomial(n - j, u) * binomial(n - j - u, j + u) * a_t(f, n, j + u, l)
               for u in range((n - 2 * j) // 2 + 1))


def _base_expanded(f: Summand, n: int, j: int, l: int) -> int:
    out = 0
    for u in range((n - 2 * j) // 2 + 1):
        gap = n - 2 * j - 2 * u
        c, inner = 1, 0  # binomial(gap, v)
        for v in range(gap + 1):
            inner += c * f(n, j + u + v, l)
            c = c * (gap - v) // (v + 1)
        out += binomial(n - j, j + u) * binomial(n - 2 * j - u, u) * inner
    return out


def d_sum_base(f: Summand, n: int, j: int, l: int) -> int:
    """The t = 0 layer written over the a_t windows.

    Two equivalent regroupings of the same double sum exist; both are
    evaluated and compared on every call so a drift in either one is caught
    immediately.
    """
    _check_window(n, j)
    windowed = _base_windowed(f, n, j, l)
    expanded = _base_expanded(f, n, j, l)
    if windowed != expanded:
        raise IntegrityError(
            f"base-layer regroupings disagree at n={n}, j={j}, l={l}: "
            f"{windowed} vs {expanded}")
    return windowed


def q_sum(n: int, s: int, l: int) -> Fraction:
    """Rational kernel of the level-1 closed form.

    q_sum(n, s, l) = sum_v (-1)^v binomial(2(s+v), s+v)
                     binomial(2(n+l-s-v), n+l-s-v) binomial(n-s, v)
                     / binomial(2n+l-s-v, n)
    """
    if n < 0 or l < 0 or not 0 <= s <= n:
        raise ValueError(f"q_sum requires n, l >= 0 and 0 <= s <= n, "
                         f"got n={n}, s={s}, l={l}")
    Fr = Fraction
    return sum((Fr((-1) ** v * central_binomial(s + v)
                   * central_binomial(n + l - s - v) * binomial(n - s, v),
                   binomial(2 * n + l - s - v, n))
                for v in range(n - s + 1)), Fr(0))


@memoized
def q_scaled(n: int, s: int, l: int) -> int:
    """binomial(2n, n) * q_sum(n, s, l), assembled without any division.

    q_scaled(n, s, l) = sum_v (-1)^v binomial(2(s+v), s+v) binomial(n-s, v)
                        S(n, n+l-s-v)

    Always an integer, and even whenever l >= 1, which is what makes the
    constructive divisibility quotients below integral.
    """
    if n < 0 or l < 0 or not 0 <= s <= n:
        raise ValueError(f"q_scaled requires n, l >= 0 and 0 <= s <= n, "
                         f"got n={n}, s={s}, l={l}")
    a = central_binomial(s)  # binomial(2(s+v), s+v)
    total = 0
    for v, c in enumerate(_pascal(n - s)):
        x = a * c * super_catalan(n, n + l - s - v)
        total += -x if v & 1 else x
        a = a * 2 * (2 * (s + v) + 1) // (s + v + 1)
    return total


def d_psi_base_closed(n: int, j: int, l: int) -> tuple[int, Fraction]:
    """Closed level-0 evaluation D(2n, j, 0) = S(n, l) * cofactor.

    Returns the integer value together with the factored rational cofactor

        cofactor = (-1)^j binomial(2n-j, n) q_sum(n, j, l)

    so divisibility by S(n, l) is witnessed constructively whenever the
    cofactor happens to be integral (it is rational in general, only the
    product is guaranteed integer). The product is cross-checked against
    the direct evaluation on every call.
    """
    if n < 0 or l < 0 or not 0 <= j <= n:
        raise ValueError(f"requires n, l >= 0 and 0 <= j <= n, got n={n}, j={j}, l={l}")
    cofactor = (-1) ** j * binomial(2 * n - j, n) * q_sum(n, j, l)
    product = super_catalan(n, l) * cofactor
    direct = d_sum_direct(psi_summand, 2 * n, j, 0, l)
    if product.denominator != 1 or int(product) != direct:
        raise IntegrityError(
            f"closed level-0 form disagrees at n={n}, j={j}, l={l}: "
            f"{product} vs direct {direct}")
    return direct, cofactor


def d_psi_level1(n: int, j: int, l: int) -> tuple[int, int]:
    """Closed level-1 evaluation D(2n, j, 1) = (-1)^j S(n, l) * cofactor.

    The cofactor sum_u (-1)^u binomial(2n-j, u) binomial(n, j+u)
    q_scaled(n, j+u, l) is an integer built without dividing, so it is a
    constructive witness that S(n, l) divides the level-1 layer; it is read
    from the level-1 witness row of (n, l), which holds it with the sign
    (-1)^j. The reconstructed value is cross-checked against the direct
    evaluation on every call, and the direct value is what comes back, as
    in d_psi_base_closed.
    """
    if n < 0 or l < 0 or not 0 <= j <= n:
        raise ValueError(f"requires n, l >= 0 and 0 <= j <= n, got n={n}, j={j}, l={l}")
    signed = _witness_row(n, l, 1)[j]
    cofactor = -signed if j & 1 else signed
    value = super_catalan(n, l) * signed
    direct = d_sum_direct(psi_summand, 2 * n, j, 1, l)
    if value != direct:
        raise IntegrityError(
            f"closed level-1 form disagrees at n={n}, j={j}, l={l}: "
            f"{value} vs direct {direct}")
    return direct, cofactor


@memoized
def _witness_row(n: int, l: int, level: int) -> tuple[int, ...]:
    # Quotients D(2n, j, level) / S(n, l) for j = 0..n: the level-1 cofactors,
    # signs included, pushed up through the level recurrence.
    if level == 1:
        w = [(-b if k & 1 else b) * q_scaled(n, k, l) for k, b in enumerate(_pascal(n))]
    else:
        w = list(map(mul, _pascal(2 * n), _witness_row(n, l, level - 1)))
    # entry j is sum_{k=j}^{n} binomial(2n-j, k-j) w[k]
    return tuple(sum(map(mul, _pascal(2 * n - j), w[j:])) for j in range(n + 1))


def psi_quotient_witness(n: int, m: int, l: int) -> int:
    """Constructive quotient psi(2n, m, l) / S(n, l), no division performed.

    m = 1 comes from the product form of the full alternating convolution,
    m = 2 from the level-0 closed form at j = 0, which is q_scaled(n, 0, l),
    and m >= 3 from the level-(m-2) witness row.
    """
    if n < 0 or l < 0:
        raise ValueError(f"indices must be non-negative, got n={n}, l={l}")
    if m < 1:
        raise ValueError(f"binomial power must be positive, got {m}")
    if m == 1:
        return super_catalan(n + l, n)
    if m == 2:
        return q_scaled(n, 0, l)
    # lift one level at a time, so each row finds the one below it memoized;
    # the rows go when the outermost scope closes
    with memo_scope:
        for level in range(1, m - 2):
            _witness_row(n, l, level)
        return _witness_row(n, l, m - 2)[0]


@dataclass(frozen=True)
class DivisionCheck:
    """Outcome of an integer divisibility test; failure is data, not an error."""

    dividend: int
    divisor: int
    quotient: int
    remainder: int

    @property
    def exact(self) -> bool:
        return self.remainder == 0


def division_check(dividend: int, divisor: int) -> DivisionCheck:
    q, r = divmod(dividend, divisor)
    return DivisionCheck(dividend, divisor, q, r)


def psi_divisibility_check(n: int, m: int, l: int) -> DivisionCheck:
    """Does S(n, l) divide psi(2n, m, l)? Returns quotient or remainder.

    A non-exact outcome is a first-class result rather than an exception;
    the same mechanism serves checks against other divisors, where failure
    is sometimes the expected answer.
    """
    return division_check(psi(2 * n, m, l), super_catalan(n, l))
