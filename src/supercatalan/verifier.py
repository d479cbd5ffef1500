"""Identity registry and exhaustive grid sweeps.

Every identity, recurrence and divisibility fact the library exposes is
registered here as a point-indexed check over a subset of the parameters
(n, l, t, m). Each is declared once, by the _identity decorator on its
_check_<name> function, which registers it as <name> with its params,
description, domain and relation; identities added at runtime go through
register(IdentitySpec(...)). sweep() evaluates a selection of identities
over a bounded grid, exhaustively on the intersection of each identity's
domain with the grid, optionally in parallel, and always merges results
into the same deterministic order: two invocations with the same arguments
serialize to byte-identical reports regardless of the worker count.

Identities share their sums through the package memo (exactnum.memoized):
sweep and run_check open a memo scope around their evaluations, and the
memo is emptied when they return. Its keys are the function and its
arguments, so the routes a check compares never share a value.

A check never aborts a sweep. Failures and integrity errors are recorded
as results; points outside an identity's domain or below the grid are
skipped with a machine-readable reason (which only happens through
run_check, since the sweep enumerates domains exactly).

Parameter columns are fixed to (n, l, t, m), and register rejects any
other param name. Identities over the level engine reuse the t column for
a window offset j or a level; their descriptions say which. A CheckResult
is a NamedTuple, already a row in the column order of every record stream,
so the serializers and the process pool take it as it is.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, NamedTuple

from . import dsums, sums, supercat
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


@dataclass(frozen=True)
class GridBounds:
    """Inclusive sweep bounds. t_max=None means t is limited only by n."""

    n_max: int = 10
    l_max: int = 6
    t_max: int | None = None
    m_max: int = 5

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if value is None and name == "t_max":
                continue
            # bool is an int subclass, but True as a bound is a caller bug
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")

    def describe(self) -> str:
        t = "n" if self.t_max is None else str(self.t_max)
        return f"n<={self.n_max}, l<={self.l_max}, t<={t}, m<={self.m_max}"


# Point = (n, l, t, m), None where the identity has no such parameter.
Point = tuple


@dataclass(frozen=True)
class IdentitySpec:
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
    except KeyError:
        raise ValueError(f"unknown identity {name!r}") from None


_any = lambda n, l, t, m: True
_t_le_n = lambda n, l, t, m: t <= n
_t_lt_n = lambda n, l, t, m: t < n
_2t_le_n = lambda n, l, t, m: 2 * t <= n
_l_ge_1 = lambda n, l, t, m: l >= 1


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
                             f"{factorial} vs ratio {ratio}")
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
           lambda n, l, t, m: 2 * t < n)
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
           lambda n, l, t, m: m >= 2)
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
           "offsets, both summands", lambda n, l, t, m: 1 <= t <= 3)
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
           lambda n, l, t, m: (n, l, m) == (4, 2, 1), "remainder-nonzero")
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


def _evaluate(spec: IdentitySpec, point: Point) -> CheckResult:
    n, l, t, m = point
    try:
        lhs, rhs = spec.check(n, l, t, m)
    except Exception as exc:
        # any error is a failed point: it must not abort a sweep or a pool
        return CheckResult(spec.name, n, l, t, m, "", "",
                           "fail", f"{type(exc).__name__}: {exc}")
    if spec.relation == "remainder-nonzero":
        ok = lhs != rhs
    else:
        ok = lhs == rhs
    # ints and Fractions both print as exact decimal strings
    return CheckResult(spec.name, n, l, t, m, str(lhs), str(rhs),
                       "pass" if ok else "fail")


def _normalize_point(spec: IdentitySpec, n, l, t, m) -> Point:
    return tuple(v if p in spec.params else None
                 for p, v in zip(_PARAMS, (n, l, t, m)))


def run_check(name: str, *, n: int | None = None, l: int | None = None,
              t: int | None = None, m: int | None = None) -> CheckResult:
    """Evaluate one identity at one point.

    Points outside the identity's domain, including points below the grid
    (n, l or t < 0, m < 1) and points missing a required parameter, come
    back as skipped with a reason; an unknown identity name raises
    ValueError, and a parameter of the identity that is not exactly an int
    (a bool, say) raises TypeError.
    """
    spec = get_identity(name)
    point = _normalize_point(spec, n, l, t, m)
    for p, v in zip(_PARAMS, point):
        if v is not None and type(v) is not int:
            raise TypeError(f"{p} must be an int, got {v!r}")
    missing = [p for p, v in zip(_PARAMS, point)
               if p in spec.params and v is None]
    if missing:
        return CheckResult(spec.name, *point, "", "", "skipped",
                           f"missing parameter(s): {', '.join(missing)}")
    if (any(v is not None and v < lo for v, lo in zip(point, _FLOORS))
            or not spec.domain(*point)):
        return CheckResult(spec.name, *point, "", "", "skipped",
                           f"point outside domain of {spec.name}")
    with memo_scope:
        return _evaluate(spec, point)


def _iter_points(spec: IdentitySpec, grid: GridBounds) -> Iterator[Point]:
    # nested ascending loops make the enumeration lexicographic in (n,l,t,m)
    t_hi = grid.t_max if grid.t_max is not None else grid.n_max
    highs = (grid.n_max, grid.l_max, t_hi, grid.m_max)
    ns, ls, ts, ms = (range(lo, hi + 1) if p in spec.params else (None,)
                      for p, lo, hi in zip(_PARAMS, _FLOORS, highs))
    for n in ns:
        for l in ls:
            for t in ts:
                for m in ms:
                    if spec.domain(n, l, t, m):
                        yield (n, l, t, m)


def _eval_task(task: tuple[str, Point]) -> CheckResult:
    name, point = task
    return _evaluate(REGISTRY[name], point)


def _open_worker_scope() -> None:
    # a pool worker memoizes for its whole life; its tables go with it
    memo_scope.__enter__()


@dataclass(frozen=True)
class Report:
    """A completed sweep: ordered results plus summary bookkeeping."""

    results: tuple[CheckResult, ...]
    identities: tuple[str, ...]
    grid: GridBounds
    passed: int
    failed: int
    skipped: int
    runtime_seconds: float
    generated_at: str


def sweep(names, grid: GridBounds | None = None, jobs: int = 1) -> Report:
    """Exhaustively evaluate each named identity over its domain in the grid.

    The task list is enumerated in sorted identity order with lexicographic
    points, and both the serial loop and the pool's map return results in
    task order, so the report content does not depend on jobs.

    The serial loop runs in one memo scope, and each pool worker holds one
    for its life, so identities that share a sum evaluate it once per
    process. The memo is empty again when sweep returns.
    """
    if grid is None:
        grid = GridBounds()
    if isinstance(names, str):
        raise TypeError(f"names must be a collection of identity names, "
                        f"not the str {names!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        # the pool pulls in multiprocessing, socket and pickle: a serial
        # sweep and the CLI's cold start do not pay for them
        from concurrent.futures import ProcessPoolExecutor
    selected = sorted(set(names))
    for name in selected:
        get_identity(name)
    started = time.perf_counter()
    tasks = [(name, point)
             for name in selected
             for point in _iter_points(REGISTRY[name], grid)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        with memo_scope:
            results = [_eval_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_open_worker_scope) as pool:
            chunk = max(1, len(tasks) // (8 * workers))
            results = list(pool.map(_eval_task, tasks, chunksize=chunk))
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in results:
        counts[r.status] += 1
    return Report(
        results=tuple(results),
        identities=tuple(selected),
        grid=grid,
        passed=counts["pass"],
        failed=counts["fail"],
        skipped=counts["skipped"],
        runtime_seconds=time.perf_counter() - started,
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


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
    separators are the template's. run_check and GridBounds admit only int
    or None as point values, so no bool or float reaches a point column.
    """
    quote = encode_basestring_ascii
    return "".join(
        _JSONL_LINE % (quote(identity), "null" if n is None else n,
                       "null" if l is None else l, "null" if t is None else t,
                       "null" if m is None else m, quote(lhs), quote(rhs),
                       quote(status), quote(reason))
        for identity, n, l, t, m, lhs, rhs, status, reason in report.results)


def to_csv(report: Report) -> str:
    """Same records as to_jsonl in CSV form; empty cells for unused params."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows(report.results)
    return buf.getvalue()


def to_human(report: Report, show_timestamp: bool = True) -> str:
    """Per-identity summary table, failure detail, totals.

    Runtime and generation time are the only non-reproducible fields and
    are dropped when show_timestamp is false.
    """
    per: dict[str, dict[str, int]] = {
        name: {"points": 0, "pass": 0, "fail": 0, "skipped": 0}
        for name in report.identities
    }
    for r in report.results:
        per[r.identity]["points"] += 1
        per[r.identity][r.status] += 1
    width = max([len("identity")] + [len(name) for name in report.identities])
    lines = [f"{'identity':<{width}}  {'points':>7}  {'pass':>7}  {'fail':>7}  {'skip':>7}"]
    for name in report.identities:
        c = per[name]
        lines.append(f"{name:<{width}}  {c['points']:>7}  {c['pass']:>7}  "
                     f"{c['fail']:>7}  {c['skipped']:>7}")
    total = len(report.results)
    lines.append(f"{'total':<{width}}  {total:>7}  {report.passed:>7}  "
                 f"{report.failed:>7}  {report.skipped:>7}")
    bad = [r for r in report.results if r.status == "fail"]
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
    lines.append(f"grid: {report.grid.describe()}")
    if show_timestamp:
        lines.append(f"runtime: {report.runtime_seconds:.3f}s")
        lines.append(f"generated: {report.generated_at}")
    return "".join(line + "\n" for line in lines)
