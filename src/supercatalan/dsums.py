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

For psi_summand the level-1 layer of D(2n, j, t) admits a closed form that
factors S(n, l) out in front: d_psi_level1 builds its integer cofactor
from the level-1 weights of (n, l) and sets the closed value against the
direct sum. At level 0 only j = 0 is needed, D(2n, 0, 0) = S(n, l)
q_scaled(n, 0, l), which eq104 reads. Propagating the weights upward
through the level recurrence gives a constructive quotient
psi(2n, m, l) / S(n, l) that never performs the division; that is what
psi_quotient_witness returns and what psi_divisibility_check is validated
against.

d_sum_direct and the witness read rows: _pascal(N) holds binomial(N, k)
for k = 0..N. A direct sum is one dot product, the weight row

    Q(n, j, t)[u] = binomial(n-j, u) binomial(n-j, j+u) binomial(n, j+u)^t,

u = 0..n-2j, against the window [j, n-j] of the summand row f(n, k, l),
k = 0..n. It is the defining single sum regrouped by associativity: the
three factors that depend on n, j and t alone are multiplied once, when Q
is built from slices of Pascal rows, and every l and summand shares that
Q, so a term takes one multiply. d_sum_step is one dot product too, the
step row

    P(n, j)[u] = binomial(n, j+u) binomial(n-j, u),   u = 0..(n-2j)//2,

against D(n, j', t-1), j' = j..n/2, read from _direct_row(n, f, t-1, l),
which builds the level below from one summand row, so even outside a
scope a step evaluates f n + 1 times. Each dot product is one
sum(map(mul, ...)), so its loop runs in C.

No other inner sum takes a binomial per term either. a_t reads its
binomials from a Pascal row, and so do q_scaled, the level-1 weights and
the lift steps. The inner sum of _base_expanded and the central binomials
of the level-1 cofactor vector walk instead: each factor is taken once,
for the first term, and then stepped by its exact ratio, one small-integer
product and one quotient a term:

    binomial(N, k+1)    = binomial(N, k) (N-k) / (k+1)
    binomial(2w+2, w+1) = binomial(2w, w) 2(2w+1) / (w+1)

Each walk is inline, since at the lengths the sweeps run a generator per
factor costs about as much as the binomial it replaces. The outer loops of
the base regroupings take binomial() per term.

d_sum_base plays a walk (_base_expanded) against rows (a_t under
_base_windowed). a_t and the regroupings call f directly, so eq17 plays
them against the summand row. The routes share no code beyond the rows, so
the cross-checks between them stay independent.

One walk, _cofactor_vector, builds the level-1 cofactor vector

    x[u] = (-1)^u binomial(2u, u) S(n, n+l-u),   u = 0..n,

and q_scaled and the level-1 weights are dot products over it:

    (-1)^k q_scaled(n, k, l) = sum_{u=k}^{n} binomial(n-k, u-k) x[u],
    w[k] = binomial(n, k) sum_{u=k}^{n} binomial(n-k, u-k) x[u]
         = (-1)^k binomial(n, k) q_scaled(n, k, l),

each one Pascal row against a slice of x. Every witness above the product
form is a dot product with the n + 1 weights of (n, l). The level-1
cofactor, d_psi_level1's route, is

    D(2n, j, 1) / S(n, l) = sum_{k=j}^{n} binomial(2n-j, k-j) w[k],

a Pascal row against the slice w[j:]. The level recurrence has neither f
nor l in it, so the witness at level L is the lift vector d_L of n dotted
with the same weights:

    psi_quotient_witness(n, L+2, l) = sum_k d_L[k] w[k],

    d_0 = e_0,   d_{t+1}[k] = sum_{j<=k} binomial(2n-j, k-j) binomial(2n, j) d_t[j]
                            = binomial(2n, k) sum_{j<=k} binomial(k, j) d_t[j],

as binomial(2n, j) binomial(2n-j, k-j) = binomial(2n, k) binomial(k, j).
d_0 picks w[0] = q_scaled(n, 0, l), and d_1[k] = binomial(2n, k) picks
entry 0 of the level-1 cofactors. A step is n + 1 dot products of d with
the Pascal rows k = 0..n, which the weights read too, and every l of one
n shares it.

The Pascal rows, q_scaled and the level-1 weights are memoized
(exactnum.memoized) while a memo scope is open. This module only declares
what is memoized and never opens a scope: the verifier does, for a sweep,
each pool worker and each run_check, and a library caller can open
exactnum.memo_scope around a batch of calls to have them share their rows.
The rows that go with one n are held for one n at a time, in one memoized
slot per kind: the summand rows f(n, k, l) of every f and l, the weight
rows Q(n, j, t), the step rows P(n, j), the direct rows of the levels
below that d_sum_step reads, and the lift vectors of the levels that were
asked for. Another n empties the slot of its kind only, so the direct sums
of length 2n that d_psi_level1 takes and the witness's lift vectors of n
do not evict each other. A sweep runs its points in ascending n, so inside
a scope the direct sums of one (n, l) evaluate f n + 1 times, whatever j
and t they take; outside a scope each call builds its rows and keeps
nothing. A lift starts from the highest held vector at or below its
target, or from d_0; the levels in between are locals. A sweep to m_max
thus holds m_max - 1 vectors, and a lift to level 3000 holds one. Of the D
values, only the direct rows are held: eq13 asks for D(n, j', t-1) once
for each j <= j' at its point (n, l, t), and no other point reads that
row. d_psi_level1 asks for each of its D values once, so a table of those
would only hold memory.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb
from operator import mul
from typing import Callable, NamedTuple

from .exactnum import IntegrityError, binomial, central_binomial, decimal_text, memoized
from .sums import _check_power, _check_window, psi
from .supercat import _require_offset, _require_pair, super_catalan

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
    "d_psi_level1",
    "psi_quotient_witness",
    "DivisionCheck",
    "division_check",
    "psi_divisibility_check",
]

# A summand maps (n, k, l) to an integer and must be pure: the engine may
# re-evaluate it freely, and inside a memo scope it keeps the rows
# f(n, k, l), k = 0..n, of one n, keyed by f itself.
Summand = Callable[[int, int, int], int]


@memoized
def _pascal(N: int) -> tuple[int, ...]:
    """binomial(N, k) for k = 0..N."""
    return tuple(map(comb, repeat(N), range(N + 1)))


@memoized
def _slot(kind: str) -> list:
    # [(n, {key: row})]: the rows of one kind for the n asked for last.
    # Memoized on the kind, so an open scope holds one slot per kind and a
    # bare call gets a fresh one, which goes with it. Threads that share a
    # scope may overwrite each other's n; each still reads its own rows
    return [(None, {})]


def _rows(kind: str, n: int) -> dict:
    # the held rows of kind for n; asking for another n empties the slot
    slot = _slot(kind)
    held, rows = slot[0]
    if held != n:
        rows = {}
        slot[0] = (n, rows)
    return rows


def _held(kind: str, build: Callable, n: int, *key) -> tuple[int, ...]:
    # build(n, *key), kept in the slot of kind while n is its n
    rows = _rows(kind, n)
    row = rows.get(key)
    if row is None:
        row = rows[key] = build(n, *key)
    return row


def _summand_row(n: int, f: Summand, l: int) -> tuple[int, ...]:
    # f(n, k, l) for k = 0..n
    return tuple(map(f, repeat(n), range(n + 1), repeat(l)))


def psi_summand(n: int, k: int, l: int) -> int:
    """(-1)^k S(k, l) S(n-k, l), the alternating super Catalan summand."""
    v = super_catalan(k, l) * super_catalan(n - k, l)
    return -v if k & 1 else v


def unit_summand(n: int, k: int, l: int) -> int:
    """Constant 1; turns D(n, 0, m-2) into the sum of binomial(n,k)^m."""
    return 1


def _direct_weights(n: int, j: int, t: int) -> tuple[int, ...]:
    # Q(n, j, t)[u] = binomial(n-j, u) binomial(n-j, j+u) binomial(n, j+u)^t
    # for u = 0..n-2j: the weights of D(n, j, t), every factor a slice of a
    # Pascal row
    inner, window = _pascal(n - j), slice(j, n - j + 1)
    row = map(mul, inner, inner[window])
    if t:
        c = _pascal(n)[window]
        row = map(mul, row, c if t == 1 else map(pow, c, repeat(t)))
    return tuple(row)


def _direct(fs: tuple[int, ...], n: int, j: int, t: int) -> int:
    # D(n, j, t): the weights Q(n, j, t) against the window [j, n-j] of the
    # summand row fs
    return sum(map(mul, _held("direct", _direct_weights, n, j, t), fs[j:n - j + 1]))


def d_sum_direct(f: Summand, n: int, j: int, t: int, l: int) -> int:
    """Evaluate D(n, j, t) for summand f by its defining single sum."""
    _check_window(n, j, l, "j")
    if t < 0:
        raise ValueError(f"level must be non-negative, got {t}")
    return _direct(_held("summand", _summand_row, n, f, l), n, j, t)


def _direct_row(n: int, f: Summand, t: int, l: int) -> tuple[int, ...]:
    # D(n, j, t) for j = 0..n//2, one summand row read for all of them
    fs = _held("summand", _summand_row, n, f, l)
    return tuple(_direct(fs, n, j, t) for j in range(n // 2 + 1))


def _step_weights(n: int, j: int) -> tuple[int, ...]:
    # P(n, j)[u] = binomial(n, j+u) binomial(n-j, u) for u = 0..(n-2j)//2
    return tuple(map(mul, _pascal(n)[j:n // 2 + 1], _pascal(n - j)))


def d_sum_step(f: Summand, n: int, j: int, t: int, l: int) -> int:
    """Evaluate D(n, j, t) through the level recurrence, one step down.

    Only defined for t >= 1; the t = 0 layer has no level below it and is
    covered by d_sum_direct and d_sum_base instead.
    """
    _check_window(n, j, l, "j")
    if t < 1:
        raise ValueError(f"level recurrence needs t >= 1, got {t}")
    below = _held("level", _direct_row, n, f, t - 1, l)
    return sum(map(mul, _held("step", _step_weights, n, j), below[j:]))


def a_t(f: Summand, n: int, t: int, l: int) -> int:
    """Windowed sum a_t(n) = sum_{k=t}^{n-t} binomial(n-2t, k-t) f(n, k, l)."""
    _check_window(n, t, l)
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
    _check_window(n, j, l, "j")
    windowed = _base_windowed(f, n, j, l)
    expanded = _base_expanded(f, n, j, l)
    if windowed != expanded:
        raise IntegrityError(
            f"base-layer regroupings disagree at n={n}, j={j}, l={l}: "
            f"{decimal_text(windowed)} vs {decimal_text(expanded)}")
    return windowed


def _cofactor_vector(n: int, l: int) -> list[int]:
    # x[u] = (-1)^u binomial(2u, u) S(n, n+l-u) for u = 0..n, the central
    # binomial walked: the one walk that q_scaled and the level-1 weights read
    x, c = [], 1
    for u in range(n + 1):
        v = c * super_catalan(n, n + l - u)
        x.append(-v if u & 1 else v)
        c = c * 2 * (2 * u + 1) // (u + 1)
    return x


@memoized
def q_scaled(n: int, s: int, l: int) -> int:
    """Integer kernel of the level-1 closed form, assembled without any division.

    q_scaled(n, s, l) = sum_v (-1)^v binomial(2(s+v), s+v) binomial(n-s, v)
                        S(n, n+l-s-v)

    It is (-1)^s times the dot product of the Pascal row binomial(n-s, v)
    with the slice x[s:] of the level-1 cofactor vector. Always an integer,
    and even whenever l >= 1, which is what makes the constructive
    divisibility quotients below integral.
    """
    _require_offset(n, s, l, "s")
    total = sum(map(mul, _pascal(n - s), _cofactor_vector(n, l)[s:]))
    return -total if s & 1 else total


def q_sum(n: int, s: int, l: int) -> Fraction:
    """Rational kernel of the level-1 closed form, q_scaled over binomial(2n, n).

    q_sum(n, s, l) = sum_v (-1)^v binomial(2(s+v), s+v)
                     binomial(2(n+l-s-v), n+l-s-v) binomial(n-s, v)
                     / binomial(2n+l-s-v, n)
    """
    return Fraction(q_scaled(n, s, l), central_binomial(n))


def d_psi_level1(n: int, j: int, l: int) -> tuple[int, int]:
    """Closed level-1 evaluation D(2n, j, 1) = (-1)^j S(n, l) * cofactor.

    The cofactor sum_u (-1)^u binomial(2n-j, u) binomial(n, j+u)
    q_scaled(n, j+u, l) is an integer built without dividing, so it is a
    constructive witness that S(n, l) divides the level-1 layer. Taken with
    the sign (-1)^j, it is one dot product: the Pascal row of 2n - j against
    the level-1 weights w[j:] of (n, l). The reconstructed value is
    cross-checked against the direct evaluation on every call, and the
    direct value is what comes back.
    """
    _require_offset(n, j, l, "j")
    signed = sum(map(mul, _pascal(2 * n - j), _level1_weights(n, l)[j:]))
    closed = super_catalan(n, l) * signed
    direct = d_sum_direct(psi_summand, 2 * n, j, 1, l)
    if closed != direct:
        raise IntegrityError(
            f"closed level-1 form disagrees at n={n}, j={j}, l={l}: "
            f"{decimal_text(closed)} vs direct {decimal_text(direct)}")
    return direct, -signed if j & 1 else signed


@memoized
def _level1_weights(n: int, l: int) -> tuple[int, ...]:
    # w[k] = (-1)^k binomial(n, k) q_scaled(n, k, l), each q from the one x
    x = _cofactor_vector(n, l)
    return tuple(b * sum(map(mul, _pascal(n - k), x[k:]))
                 for k, b in enumerate(_pascal(n)))


def _lift(n: int, level: int) -> tuple[int, ...]:
    # d_level, with psi_quotient_witness(n, level+2, l) = d_level dotted with
    # the level-1 weights of (n, l), for every l. A lift starts from the
    # highest held vector of n at or below the target, or from d_0 = e_0, and
    # keeps the target's; the vectors in between stay local.
    vectors = _rows("lift", n)
    d = vectors.get(level)
    if d is None:
        top = max((t for t in vectors if t < level), default=0)
        d = vectors.get(top, (1,) + (0,) * n)
        for _ in range(top, level):
            d = _lift_step(d, n)
        vectors[level] = d
    return d


def _lift_step(d: tuple[int, ...], n: int) -> tuple[int, ...]:
    # entry k is binomial(2n, k) times d dotted with Pascal row k
    return tuple(b * sum(map(mul, _pascal(k), d))
                 for k, b in enumerate(_pascal(2 * n)[:n + 1]))


def psi_quotient_witness(n: int, m: int, l: int) -> int:
    """Constructive quotient psi(2n, m, l) / S(n, l), no division performed.

    m = 1 comes from the product form of the full alternating convolution.
    Every m >= 2 is one dot product: the level-(m-2) lift vector of n
    against the level-1 weights of (n, l).
    """
    _require_pair(n, l)
    _check_power(m)
    if m == 1:
        return super_catalan(n + l, n)
    return sum(map(mul, _lift(n, m - 2), _level1_weights(n, l)))


class DivisionCheck(NamedTuple):
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
