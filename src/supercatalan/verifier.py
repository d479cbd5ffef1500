"""Identity registry and exhaustive grid sweeps.

Every identity, recurrence and divisibility fact the library exposes is
registered here as a point-indexed check over a subset of the parameters
(n, l, t, m). Each is declared once, by the _identity decorator on its
_check_<name> function, which registers it as <name> with its params,
description, domain and relation; identities added at runtime go through
register(IdentitySpec(...)). sweep() evaluates a selection of identities
over a bounded grid, exhaustively on the intersection of each identity's
domain with the grid, one identity per unit of work, serially or over a
process pool, and always joins results in the same deterministic order:
two invocations with the same arguments serialize to byte-identical
reports regardless of the worker count.

The streamed sweep. Every sweep, sweep()'s and the CLI's, runs one loop:
_write_sweep over _batches. _batches checks every argument when it is
called and returns a generator that yields the sweep one n-block at a time,
in sorted name order: an identity's records at one n, or all of them if it
takes no n. _render(fmt, rows) renders each block where it is made, in the
serial loop or in the pool worker that swept its identity: for sweep()
(fmt None) the block's records, which go into the Report; for the CLI its
JSONL or CSV text, written as it comes, or its fail rows, kept for the
human table, which is written after the last block. The loop keeps one
[pass, fail, skip] count per identity, which sweep()'s Report, the CLI's
exit status and the table all read. So a CLI writer holds one n-block, not
the report, and a pooled writer's parent formats no record.

sweep resolves each name once, in the calling process, and hands a pool
the IdentitySpec itself, pickled once, with its check and domain by
reference. So a runtime identity's check and domain must be module-level
functions that a worker can import. A jobs > 1 sweep of a spec that does
not pickle (a lambda or a closure, say) raises ValueError before any worker
starts. A function defined under `if __name__ == "__main__":` pickles in
the parent, but a worker started by spawn or forkserver re-imports the main
module without running that block and cannot find it; the sweep then
raises ValueError naming the identity that the worker could not load.

Identities share their sums through the package memo (exactnum.memoized):
sweep and run_check open a memo scope around their evaluations, and the
memo is emptied when they return. Its keys are the function and its
arguments, so the routes a check compares never share a value.

A check never aborts a sweep. _row alone turns a point into its record,
for sweep and run_check: failures, integrity errors and domains that raise
are failed rows; points outside a domain or below the grid are skipped
with a machine-readable reason (only run_check returns those).

Parameter columns are fixed to (n, l, t, m), and register rejects any
other param name. Identities over the level engine reuse the t column for
a window offset j or a level; their descriptions say which. Every value
type here is a NamedTuple, and a CheckResult is already a row in the
column order of every record stream, so the serializers and the process
pool take it as it is.
"""

from __future__ import annotations

import csv
import io
import os
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, product, repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, NamedTuple

from . import dsums, exactnum, sums, supercat
from .exactnum import IntegrityError, binomial, central_binomial, exact_div, memo_scope

__all__ = [
    "CheckResult",
    "GridBounds",
    "IdentitySpec",
    "Report",
    "registry_ids",
    "get_identity",
    "register",
    "run_check",
    "sweep",
    "to_jsonl",
    "to_csv",
    "to_human",
]

class CheckResult(NamedTuple):
    """One evaluated (identity, point) pair, a tuple in column order.

    lhs and rhs are exact decimal strings ("8624", "-8", "10/3"); status is
    "pass", "fail" or "skipped". For remainder-relation identities lhs is
    the remainder and rhs is "0". reason is empty unless the point was
    skipped or the check raised.
    """

    identity: str
    n: int | None
    l: int | None
    t: int | None
    m: int | None
    lhs: str
    rhs: str
    status: str
    reason: str = ""


_COLUMNS = CheckResult._fields
_PARAMS = _COLUMNS[1:5]  # the point coordinates (n, l, t, m)
_FLOORS = (0, 0, 0, 1)  # the lowest value of each coordinate in any grid
# one JSONL record: every key in column order, every value a %s slot
_JSONL_LINE = "{" + ",".join(f"{encode_basestring_ascii(c)}:%s" for c in _COLUMNS) + "}\n"
# one CSV record: a %s cell per column; see to_csv for when it is csv.writer's
_CSV_LINE = ",".join(["%s"] * len(_COLUMNS)) + "\n"
# the CSV header, which csv.writer writes as it is: no column name needs quotes
_CSV_HEADER = ",".join(_COLUMNS) + "\n"


class GridBounds(NamedTuple):
    """Inclusive sweep bounds. t_max=None means t is limited only by n."""

    n_max: int = 10
    l_max: int = 6
    t_max: int | None = None
    m_max: int = 5

    def describe(self) -> str:
        t = "n" if self.t_max is None else str(self.t_max)
        return f"n<={self.n_max}, l<={self.l_max}, t<={t}, m<={self.m_max}"


class IdentitySpec(NamedTuple):
    """A registered check: its parameters, domain and evaluation.

    check(n, l, t, m) returns the two exact values whose relation is
    asserted: equal values for relation "equal", a (remainder, 0) pair for
    "remainder-zero" (divisibility) and "remainder-nonzero" (asserted
    non-divisibility).
    """

    name: str
    description: str
    params: tuple[str, ...]
    domain: Callable[[int | None, int | None, int | None, int | None], bool]
    check: Callable[[int | None, int | None, int | None, int | None], tuple]
    relation: str = "equal"


# ---------------------------------------------------------------------------
# registry

REGISTRY: dict[str, IdentitySpec] = {}


def register(spec: IdentitySpec) -> None:
    # a name that is not a str could not be sorted among the others
    if type(spec.name) is not str:
        raise TypeError(f"identity name must be a str, got {spec.name!r}")
    if spec.name in REGISTRY:
        raise ValueError(f"identity {spec.name!r} already registered")
    if spec.relation not in ("equal", "remainder-zero", "remainder-nonzero"):
        raise ValueError(f"unknown relation {spec.relation!r}")
    if not set(spec.params) <= set(_PARAMS) or len(set(spec.params)) < len(spec.params):
        raise ValueError(f"params must be distinct names from {_PARAMS}, "
                         f"got {spec.params!r}")
    REGISTRY[spec.name] = spec


def registry_ids() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def get_identity(name: str) -> IdentitySpec:
    try:
        return REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown identity {name!r}") from None


# Domains are module-level functions, like the checks, so that a spec
# pickles by reference and a pool worker imports what it calls.


def _any(n, l, t, m):
    return True


def _t_le_n(n, l, t, m):
    return t <= n


def _t_lt_n(n, l, t, m):
    return t < n


def _2t_le_n(n, l, t, m):
    return 2 * t <= n


def _2t_lt_n(n, l, t, m):
    return 2 * t < n


def _l_ge_1(n, l, t, m):
    return l >= 1


def _m_ge_2(n, l, t, m):
    return m >= 2


def _t_from_1_to_3(n, l, t, m):
    return 1 <= t <= 3


def _at_4_2_1(n, l, t, m):
    return (n, l, m) == (4, 2, 1)


def _identity(params, description, domain=_any, relation="equal"):
    """Register the decorated _check_<name> as identity <name>.

    The description is an argument, not the docstring, so that it survives
    python -OO. Decorators run in definition order, which is the order of
    REGISTRY.
    """
    def declare(check):
        name = check.__name__.removeprefix("_check_")
        register(IdentitySpec(name, description, params, domain, check, relation))
        return check
    return declare


# ---------------------------------------------------------------------------
# checks


@_identity(("n", "l"), "alternating binomial sum for S(n,l) equals the closed ratio form")
def _check_vonszily(n, l, t, m):
    # the factorial route must agree with the ratio route the record shows
    ratio = supercat.super_catalan(n, l)
    factorial = supercat.super_catalan_factorial(n, l)
    if factorial != ratio:
        raise IntegrityError(f"factorial route disagrees at n={n}, l={l}: "
                             f"{exactnum.decimal_text(factorial)} vs ratio "
                             f"{exactnum.decimal_text(ratio)}")
    return supercat.super_catalan_von_szily(n, l), ratio


@_identity(("n", "l"), "S(n,l) = S(l,n)")
def _check_symmetry(n, l, t, m):
    return supercat.super_catalan(n, l), supercat.super_catalan(l, n)


@_identity(("n", "l"), "S(n,l) is even except S(0,0) = 1")
def _check_parity(n, l, t, m):
    return supercat.super_catalan(n, l) % 2, 1 if n == l == 0 else 0


@_identity(("n", "l"), "psi(2n,1,l) = S(n,l) S(n+l,n)")
def _check_thm1(n, l, t, m):
    rhs = supercat.super_catalan(n, l) * supercat.super_catalan(n + l, n)
    return sums.psi(2 * n, 1, l), rhs


@_identity(("n",), "l=0 convolution row over central binomials equals binomial(2n,n)^2")
def _check_eq2(n, l, t, m):
    lhs = sum((-1) ** k * binomial(2 * n, k) * central_binomial(k)
              * binomial(4 * n - 2 * k, 2 * n - k)
              for k in range(2 * n + 1))
    return lhs, central_binomial(n) ** 2


@_identity(("n",),
           "l=1 convolution row over Catalan numbers equals catalan(n) binomial(2n,n)")
def _check_eq3(n, l, t, m):
    C = supercat.catalan
    lhs = sum((-1) ** k * binomial(2 * n, k) * C(k) * C(2 * n - k)
              for k in range(2 * n + 1))
    return lhs, C(n) * central_binomial(n)


@_identity(("n", "l", "t"),
           "window-t alternating convolution of length 2n equals phi(n,l,t)", _t_le_n)
def _check_thm2(n, l, t, m):
    return dsums.a_t(dsums.psi_summand, 2 * n, t, l), supercat.phi(n, l, t)


@_identity(("n", "t"), "closed binomial form of psi_t(2n,t,0)", _t_le_n)
def _check_eq8(n, l, t, m):
    num = central_binomial(n) * central_binomial(t) * binomial(2 * n - 2 * t, n - t)
    rhs = (-1) ** t * exact_div(num, binomial(2 * n - t, t))
    return sums.psi_t(2 * n, t, 0), rhs


@_identity(("n", "t"), "closed Catalan form of the window-t l=1 row", _t_le_n)
def _check_eq9(n, l, t, m):
    C = supercat.catalan
    lhs = sum((-1) ** k * binomial(2 * n - 2 * t, k - t) * C(k) * C(2 * n - k)
              for k in range(t, 2 * n - t + 1))
    num = C(n) * central_binomial(t) * binomial(2 * n - 2 * t, n - t)
    return lhs, (-1) ** t * exact_div(num, binomial(2 * n + 1 - t, t))


@_identity(("n", "l", "t"), "psi_t(2n,t,l) = phi(n,l,t)", _t_le_n)
def _check_eq18(n, l, t, m):
    return sums.psi_t(2 * n, t, l), supercat.phi(n, l, t)


@_identity(("n", "l", "t"), "psi_t vanishes at odd length 2n-1", _t_lt_n)
def _check_eq20(n, l, t, m):
    return sums.psi_t(2 * n - 1, t, l), 0


@_identity(("n", "l"), "full window: psi_t(2n,n,l) = (-1)^n S(n,l)^2")
def _check_eq22(n, l, t, m):
    s = supercat.super_catalan(n, l)
    return sums.psi_t(2 * n, n, l), (-1) ** n * s * s


@_identity(("n", "l", "t"), "p_sum(2n,t,l) = (n-t) psi_t(2n,t,l)", _t_le_n)
def _check_eq28(n, l, t, m):
    return sums.p_sum(2 * n, t, l), (n - t) * sums.psi_t(2 * n, t, l)


@_identity(("n", "l", "t"), "(n+l+1) r_prime_sum(2n,t,l) = r_sum(2n,t,l)", _t_le_n)
def _check_eq29(n, l, t, m):
    return (n + l + 1) * sums.r_prime_sum(2 * n, t, l), sums.r_sum(2 * n, t, l)


@_identity(("l",), "central binomial ratio: l cb(l) = 2(2l-1) cb(l-1)", _l_ge_1)
def _check_eq33(n, l, t, m):
    return l * central_binomial(l), 2 * (2 * l - 1) * central_binomial(l - 1)


@_identity(("n", "l", "t"), "p_sum at any length n from psi_t and r_sum at length n-1",
           _2t_lt_n)
def _check_eq47(n, l, t, m):
    rhs = (4 * (n - 2 * t) * sums.psi_t(n - 1, t, l)
           + (-1) ** n * 2 * (n - 2 * t) * sums.r_sum(n - 1, t, l))
    return sums.p_sum(n, t, l), rhs


@_identity(("n", "l", "t"),
           "t_sum(n,t,l) = (n+l+1-t) r_sum(n,t,l) - (2l+1) psi_t(n,t,l)", _2t_le_n)
def _check_eq51(n, l, t, m):
    rhs = (n + l + 1 - t) * sums.r_sum(n, t, l) - (2 * l + 1) * sums.psi_t(n, t, l)
    return sums.t_sum(n, t, l), rhs


@_identity(("n", "l", "t"),
           "t_sum(n,t,l) as a weighted alternating sum one length down", _2t_le_n)
def _check_eq53(n, l, t, m):
    S = supercat.super_catalan
    inner = sum((Fraction((-1) ** k * (2 * n - 2 * k - 1) * binomial(n - 1 - 2 * t, k - t)
                          * S(k, l) * S(n - 1 - k, l), (k + l + 1) * (n - k + l))
                 for k in range(t, n - t)), Fraction(0))
    return sums.t_sum(n, t, l), 2 * (n - 2 * t) * (2 * l + 1) * inner


@_identity(("n", "l", "t"), "r_dprime_sum(2n,t,l) = n r_prime_sum(2n,t,l)", _t_le_n)
def _check_eq58(n, l, t, m):
    return sums.r_dprime_sum(2 * n, t, l), n * sums.r_prime_sum(2 * n, t, l)


@_identity(("n", "l", "t"),
           "cleared form: 2(2n-1-2t)(2n-1) psi_t(2n-2,t,l+1) = "
           "(2n+l-t)(2l+1) psi_t(2n,t,l)", _t_lt_n)
def _check_lemma1(n, l, t, m):
    lhs = 2 * (2 * n - 1 - 2 * t) * (2 * n - 1) * sums.psi_t(2 * n - 2, t, l + 1)
    rhs = (2 * n + l - t) * (2 * l + 1) * sums.psi_t(2 * n, t, l)
    return lhs, rhs


@_identity(("n", "l", "t"),
           "cleared form: 4(2l+1) r_sum(2n,t,l) = (n+l+1) psi_t(2n,t,l+1)", _t_le_n)
def _check_lemma2(n, l, t, m):
    lhs = 4 * (2 * l + 1) * sums.r_sum(2 * n, t, l)
    return lhs, (n + l + 1) * sums.psi_t(2 * n, t, l + 1)


@_identity(("n", "l", "t"), "psi_t(2n,t,l) = 4 r_sum(2n-1,t,l) for t < n", _t_lt_n)
def _check_lemma3(n, l, t, m):
    return sums.psi_t(2 * n, t, l), 4 * sums.r_sum(2 * n - 1, t, l)


@_identity(("n", "l", "t"),
           "cleared form: (2n+l-t)(n+l) r_sum(2n-1,t,l) = "
           "2(2n-1-2t)(2n-1) r_sum(2n-2,t,l)", _t_lt_n)
def _check_lemma4(n, l, t, m):
    lhs = (2 * n + l - t) * (n + l) * sums.r_sum(2 * n - 1, t, l)
    rhs = 2 * (2 * n - 1 - 2 * t) * (2 * n - 1) * sums.r_sum(2 * n - 2, t, l)
    return lhs, rhs


@_identity(("n", "l", "t"), "cleared phi recurrence linking (n, l+1) to (n+1, l)", _t_lt_n)
def _check_eq64phi(n, l, t, m):
    lhs = 2 * (2 * n + 1 - 2 * t) * (2 * n + 1) * supercat.phi(n, l + 1, t)
    rhs = (2 * n + 2 + l - t) * (2 * l + 1) * supercat.phi(n + 1, l, t)
    return lhs, rhs


@_identity(("n", "l", "m"),
           "psi(n,m,l) = level engine at j=0, level m-2 (any length parity)",
           _m_ge_2)
def _check_eq12(n, l, t, m):
    return sums.psi(n, m, l), dsums.d_sum_direct(dsums.psi_summand, n, 0, m - 2, l)


_SUMMANDS = (dsums.psi_summand, dsums.unit_summand)


def _first_mismatch(pairs):
    # the first unequal (lhs, rhs) pair, else the first pair; pairs after a
    # mismatch are not evaluated
    first = None
    for pair in pairs:
        if pair[0] != pair[1]:
            return pair
        first = first or pair
    return first


@_identity(("n", "l", "t"),
           "level recurrence equals direct evaluation at level t, all window "
           "offsets, both summands", _t_from_1_to_3)
def _check_eq13(n, l, t, m):
    return _first_mismatch(
        (dsums.d_sum_step(f, n, j, t, l), dsums.d_sum_direct(f, n, j, t, l))
        for f in _SUMMANDS for j in range(n // 2 + 1))


@_identity(("n", "l", "t"),
           "base layer over a_t windows equals direct level 0; t column is the "
           "window offset j", _2t_le_n)
def _check_eq17(n, l, t, m):
    return _first_mismatch(
        (dsums.d_sum_base(f, n, t, l), dsums.d_sum_direct(f, n, t, 0, l)) for f in _SUMMANDS)


@_identity(("n", "l", "t"), "scaled closed form of binomial(2n-t,t) psi_t(2n,t,l)", _t_le_n)
def _check_eq94(n, l, t, m):
    num = (central_binomial(l) * central_binomial(t) * central_binomial(n + l - t)
           * central_binomial(n) * binomial(2 * n - t, n))
    den = binomial(n + l, n) * binomial(2 * n + l - t, n)
    rhs = (-1) ** t * exact_div(num, den)
    return binomial(2 * n - t, t) * sums.psi_t(2 * n, t, l), rhs


@_identity(("n", "l"), "psi(2n,2,l) = S(n,l) times an explicit integer cofactor")
def _check_eq104(n, l, t, m):
    return sums.psi(2 * n, 2, l), supercat.super_catalan(n, l) * dsums.q_scaled(n, 0, l)


@_identity(("n", "l", "m"),
           "S(n,l) divides psi(2n,m,l), with the constructive witness quotient")
def _check_thm3(n, l, t, m):
    rhs = supercat.super_catalan(n, l) * dsums.psi_quotient_witness(n, m, l)
    return sums.psi(2 * n, m, l), rhs


@_identity(("n", "l"), "product form of psi(2n,1,l) over four binomials")
def _check_remark1(n, l, t, m):
    num = central_binomial(l) * central_binomial(n + l) * central_binomial(n)
    return sums.psi(2 * n, 1, l), exact_div(num, binomial(2 * n + l, l))


@_identity(("n", "l"), "2 S(n,l) divides psi(2n,2,l) for l >= 1", _l_ge_1, "remainder-zero")
def _check_remark2(n, l, t, m):
    return sums.psi(2 * n, 2, l) % (2 * supercat.super_catalan(n, l)), 0


@_identity(("n", "l", "m"), "2 S(n,l) divides psi(2n,m,l) for l >= 1", _l_ge_1,
           "remainder-zero")
def _check_remark3(n, l, t, m):
    return sums.psi(2 * n, m, l) % (2 * supercat.super_catalan(n, l)), 0


@_identity(("n", "l", "m"),
           "counterexample: binomial(2n,n) does not divide psi(2n,m,l) at "
           "n=4, m=1, l=2 (the recorded lhs is the nonzero remainder)",
           _at_4_2_1, "remainder-nonzero")
def _check_remark4(n, l, t, m):
    return sums.psi(2 * n, m, l) % central_binomial(n), 0


@_identity(("n", "l", "t"),
           "level-1 layer D(2n,j,1) equals (-1)^j S(n,l) times its integer "
           "witness cofactor; t column is the window offset j", _t_le_n)
def _check_dlevel1(n, l, t, m):
    # d_psi_level1 returns the direct sum and raises if the closed product
    # below differs from it, so the record sets the two routes side by side
    direct, cofactor = dsums.d_psi_level1(n, t, l)
    return direct, (-1) ** t * supercat.super_catalan(n, l) * cofactor


# ---------------------------------------------------------------------------
# evaluation


def _require_int(name: str, value) -> None:
    # not a bool or IntEnum member: to_jsonl writes a point value as int.__repr__
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")


def _row(spec: IdentitySpec, point: tuple) -> CheckResult | None:
    # the one path from a point to its record: None outside the domain, and
    # any error is a failed point, so it cannot abort a sweep or a pool
    n, l, t, m = point
    try:
        if not spec.domain(n, l, t, m):
            return None
        lhs, rhs = spec.check(n, l, t, m)
        ok = lhs != rhs if spec.relation == "remainder-nonzero" else lhs == rhs
        return CheckResult(spec.name, n, l, t, m, exactnum.decimal_text(lhs),
                           exactnum.decimal_text(rhs), "pass" if ok else "fail")
    except Exception as exc:
        return CheckResult(spec.name, n, l, t, m, "", "", "fail",
                           f"{type(exc).__name__}: {exc}")


def run_check(name: str, *, n: int | None = None, l: int | None = None,
              t: int | None = None, m: int | None = None) -> CheckResult:
    """Evaluate one identity at one point.

    Points outside the identity's domain, including points below the grid
    (n, l or t < 0, m < 1) and points missing a required parameter, come
    back as skipped with a reason; any other point gets the row a sweep
    records there. A name that is not registered, of any type, raises
    ValueError, and a parameter of the identity that is not exactly an int
    (a bool or an IntEnum member, say) raises TypeError, as in sweep.
    """
    spec = get_identity(name)
    point = tuple(v if p in spec.params else None for p, v in zip(_PARAMS, (n, l, t, m)))
    for p, v in zip(_PARAMS, point):
        if v is not None:
            _require_int(p, v)
    missing = [p for p, v in zip(_PARAMS, point) if p in spec.params and v is None]
    if missing:
        return CheckResult(spec.name, *point, "", "", "skipped",
                           f"missing parameter(s): {', '.join(missing)}")
    below = any(v is not None and v < lo for v, lo in zip(point, _FLOORS))
    with memo_scope:
        row = None if below else _row(spec, point)
    return row or CheckResult(spec.name, *point, "", "", "skipped",
                              f"point outside domain of {spec.name}")


def _axes(spec: IdentitySpec, grid: GridBounds) -> list:
    # each coordinate's values in the grid, or (None,) for a param the spec
    # lacks; their product is lexicographic in (n, l, t, m)
    t_hi = grid.t_max if grid.t_max is not None else grid.n_max
    highs = (grid.n_max, grid.l_max, t_hi, grid.m_max)
    return [range(lo, hi + 1) if p in spec.params else (None,)
            for p, lo, hi in zip(_PARAMS, _FLOORS, highs)]


def _sweep_identity(spec: IdentitySpec, grid: GridBounds) -> Iterator[list[CheckResult]]:
    # one identity's results in key order, the unit of work of a sweep, as
    # n-blocks: a list, maybe empty, for each n, or one if it takes no n
    ns, *rest = _axes(spec, grid)
    for n in ns:
        yield [row for row in map(_row, repeat(spec), product((n,), *rest))
               if row is not None]


def _sweep_pickled(task: tuple[str, bytes], grid: GridBounds, fmt: str | None) -> list:
    # the spec is unpickled inside the task, so a worker that cannot load it
    # fails this task, with its name, not the pool
    import pickle
    name, data = task
    try:
        spec = pickle.loads(data)
    except Exception as exc:
        raise ValueError(f"identity {name!r} cannot be loaded in a worker "
                         f"process: {exc}") from exc
    return [_render(fmt, block) for block in _sweep_identity(spec, grid)]


class Report(NamedTuple):
    """A completed sweep: ordered results plus summary bookkeeping."""

    results: tuple[CheckResult, ...]
    identities: tuple[str, ...]
    grid: GridBounds
    passed: int
    failed: int
    skipped: int
    runtime_seconds: float
    generated_at: str


def _batches(names, grid: GridBounds, jobs: int,
             fmt: str | None) -> Iterator[tuple[str, tuple]]:
    # every check runs here, when _batches is called, so that its caller may
    # write before the first block; each block comes as (name, _render(fmt,
    # block))
    if not isinstance(grid, GridBounds):
        raise TypeError(f"grid must be a GridBounds, got {grid!r}")
    for name, value in zip(GridBounds._fields, grid):
        if value is None and name == "t_max":
            continue
        _require_int(name, value)
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    if isinstance(names, str):
        raise TypeError(f"names must be a collection of identity names, "
                        f"not the str {names!r}")
    _require_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    # every name is resolved before any two are compared
    resolved = {name: get_identity(name) for name in names}
    specs = [resolved[name] for name in sorted(resolved)]
    if jobs > 1:
        # checked for every jobs > 1, not only when a pool starts, so the CPU
        # count cannot decide whether a sweep raises
        import pickle
        tasks = []
        for spec in specs:
            try:
                tasks.append((spec.name, pickle.dumps(spec)))
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise ValueError(f"identity {spec.name!r} cannot be sent to a "
                                 f"worker process: {exc}") from exc
    workers = min(jobs, len(specs), os.cpu_count() or 1)

    def blocks():
        if workers <= 1:
            with memo_scope:
                for spec in specs:
                    for block in _sweep_identity(spec, grid):
                        yield spec.name, _render(fmt, block)
        else:
            # the pool pulls in multiprocessing, socket and pickle: a serial
            # sweep and the CLI's cold start do not pay for them
            from concurrent.futures import ProcessPoolExecutor
            # a pool worker memoizes for its whole life; its tables go with it
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=memo_scope.__enter__) as pool:
                results = pool.map(_sweep_pickled, tasks, repeat(grid), repeat(fmt))
                for spec in specs:
                    # no name holds an identity's blocks while the next is awaited
                    for block in next(results):
                        yield spec.name, block
    return blocks()


def sweep(names, grid: GridBounds | None = None, jobs: int = 1) -> Report:
    """Exhaustively evaluate each named identity over its domain in the grid.

    One identity, its points in lexicographic order, is the unit of work of
    the serial loop and of the pool's map; both keep sorted name order, so
    the report content does not depend on jobs. The pool starts no more
    workers than identities or CPUs: a one-identity sweep runs in process.
    Each name is resolved once, here, and the pool maps the specs, each
    pickled once; with jobs > 1, a spec that does not pickle raises
    ValueError first, and one that a worker cannot unpickle raises
    ValueError from the pool.

    A NamedTuple checks nothing when it is built, so sweep checks the grid
    and jobs before it pickles a spec or starts a worker. The grid is a
    GridBounds (a plain tuple raises TypeError), and each bound and jobs is
    exactly an int, as a run_check point value is (t_max may be None). A
    name that is not registered, of any type, raises ValueError.

    The serial loop runs in one memo scope, and each pool worker holds one
    for its life, so identities that share a sum evaluate it once per
    process. The memo is empty again when sweep returns.
    """
    if grid is None:
        grid = GridBounds()
    started = time.perf_counter()
    results = []
    counts = _write_sweep(names, grid, jobs, None, results.extend)
    passed, failed, skipped = map(sum, zip((0, 0, 0), *counts.values()))
    runtime_seconds, generated_at = _stamp(started)
    return Report(
        results=tuple(results),
        identities=tuple(counts),
        grid=grid,
        passed=passed,
        failed=failed,
        skipped=skipped,
        runtime_seconds=runtime_seconds,
        generated_at=generated_at,
    )


def _stamp(started: float) -> tuple[float, str]:
    # the runtime since perf_counter read started, and the UTC time now
    return time.perf_counter() - started, time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# ---------------------------------------------------------------------------
# serialization


def to_jsonl(report: Report) -> str:
    """One JSON object per result, fixed key order, big values as strings.

    Record streams carry no timestamp, so equal sweeps serialize to equal
    bytes unconditionally.

    Each line fills _JSONL_LINE once, and it equals
    json.dumps(dict(zip(_COLUMNS, row)), separators=(",", ":")). Under its
    default ensure_ascii=True, json.dumps escapes every str, keys included,
    with encode_basestring_ascii, the function used here; it writes an int
    as int.__repr__, which is what %s gives, and None as null; and the
    separators are the template's. run_check and sweep admit only int or
    None as point values, so no bool or float reaches a point column.
    """
    return _jsonl_text(report.results)


def _jsonl_text(rows) -> str:
    # to_jsonl's lines for any run of records, such as one n-block
    quote = encode_basestring_ascii
    return "".join(
        _JSONL_LINE % (quote(identity), "null" if n is None else n,
                       "null" if l is None else l, "null" if t is None else t,
                       "null" if m is None else m, quote(lhs), quote(rhs),
                       quote(status), quote(reason))
        for identity, n, l, t, m, lhs, rhs, status, reason in rows)


def to_csv(report: Report) -> str:
    """Same records as to_jsonl in CSV form; empty cells for unused params.

    The bytes are those of csv.writer(buf, lineterminator="\\n"), header
    first. Under that dialect the writer quotes a field only when it holds
    the delimiter ",", the quote character '"' or a line break: "\\n", the
    terminator, and "\\r" on the Python versions that quote it whatever
    the terminator. Before Python 3.11 it also refuses a field holding
    NUL, with csv.Error. Any other field it writes as str() does, and None
    as the empty string. The text filled from _CSV_LINE, repeated once a
    line, with "" for None, is therefore csv.writer's text whenever it
    holds 8 commas and one "\\n" a line and no '"', "\\r" or NUL: the
    template supplies those commas and line ends itself, so then no field
    holds one of the five characters. The check is five scans of the text
    in C. Any other report is written by the csv module itself, and so
    behaves as csv.writer does on the running Python.
    """
    return _CSV_HEADER + _csv_text(report.results)


def _csv_text(rows) -> str:
    # to_csv's lines after the header for any run of records, such as one
    # n-block. csv.writer writes each row on its own, so the texts of
    # consecutive runs join to the text of the whole, and the template check
    # is exact for each text by itself
    cells = chain.from_iterable(
        (identity, "" if n is None else n, "" if l is None else l,
         "" if t is None else t, "" if m is None else m, lhs, rhs, status, reason)
        for identity, n, l, t, m, lhs, rhs, status, reason in rows)
    lines = len(rows)
    # one format over all the cells: a join would hold a string a row
    text = (_CSV_LINE * lines) % tuple(cells)
    if (text.count(",") == (len(_COLUMNS) - 1) * lines and text.count("\n") == lines
            and '"' not in text and "\r" not in text and "\0" not in text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def to_human(report: Report, show_timestamp: bool = True) -> str:
    """Per-identity summary table, failure detail, totals.

    Runtime and generation time are the only non-reproducible fields and
    are dropped when show_timestamp is false.
    """
    stamp = (report.runtime_seconds, report.generated_at) if show_timestamp else None
    # counted by status, not taken from the sweep's count: a report built by
    # hand may hold skipped rows, rows of identities it does not list, or
    # list a name twice, which gets one row, as in a sweep
    tally = Counter((r.identity, r.status) for r in report.results)
    counts = [(name, [tally[name, s] for s in ("pass", "fail", "skipped")])
              for name in dict.fromkeys(report.identities)]
    return _human_text(counts, [r for r in report.results if r.status == "fail"],
                       report.grid, stamp)


def _human_text(counts, bad, grid: GridBounds, stamp: tuple[float, str] | None) -> str:
    # to_human's table from a tally that can be kept batch by batch: each
    # identity's (name, [pass, fail, skip]) in order, the fail rows in
    # order, and (runtime, generated at), or None to omit both
    total = list(map(sum, zip((0, 0, 0), *(c for _, c in counts))))
    width = max([len("identity")] + [len(name) for name, _ in counts])
    line = ("{:<%d}" % width + "  {:>7}" * 4).format
    lines = [line("identity", "points", "pass", "fail", "skip")]
    lines += [line(name, sum(c), *c) for name, c in (*counts, ("total", total))]
    if bad:
        lines.append("")
        lines.append("failures:")
        for r in bad:
            point = ", ".join(f"{k}={v}" for k, v in zip(_PARAMS, r[1:5])
                              if v is not None)
            detail = f"  {r.identity} at {point}: lhs={r.lhs} rhs={r.rhs}"
            if r.reason:
                detail += f" ({r.reason})"
            lines.append(detail)
    lines.append(f"grid: {grid.describe()}")
    if stamp is not None:
        lines.append(f"runtime: {stamp[0]:.3f}s")
        lines.append(f"generated: {stamp[1]}")
    return "".join(line + "\n" for line in lines)


def _render(fmt: str | None, rows: list[CheckResult]) -> tuple[str | list[CheckResult], int, int]:
    # one n-block as (text, record count, fail count), where the text is,
    # for fmt None, the block's records, for "human" its fail rows, and
    # otherwise its JSONL or its CSV lines after the header
    bad = [r for r in rows if r.status == "fail"]
    text = (rows if fmt is None else bad if fmt == "human"
            else _csv_text(rows) if fmt == "csv" else _jsonl_text(rows))
    return text, len(rows), len(bad)


def _write_sweep(names, grid: GridBounds, jobs: int, fmt: str | None, write: Callable,
                 show_timestamp: bool = True) -> dict[str, list[int]]:
    # the one sweep loop: each block's _render(fmt, ...) text goes to write
    # as it comes, and for "human" the table goes after the last block. It
    # returns each identity's [pass, fail, skip] count, in name order; a
    # sweep's record is "pass" or "fail", so skip stays 0
    started = time.perf_counter()
    batches = _batches(names, grid, jobs, fmt)
    if fmt == "csv":
        write(_CSV_HEADER)
    counts, bad = {}, []
    out = bad.extend if fmt == "human" else write
    for name, (text, points, fails) in batches:
        count = counts.setdefault(name, [0, 0, 0])
        count[0] += points - fails
        count[1] += fails
        out(text)
        # released here: a serial sweep renders the next block before the
        # loop would rebind text
        del text
    if fmt == "human":
        write(_human_text(counts.items(), bad, grid,
                          _stamp(started) if show_timestamp else None))
    return counts
