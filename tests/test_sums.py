"""Alternating convolution sums: frozen values, vanishing, cross-relations."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercatalan import sums
from supercatalan.exactnum import InexactDivisionError
from supercatalan.sums import (
    p_sum,
    psi,
    psi_t,
    r_dprime_sum,
    r_prime_sum,
    r_sum,
    t_sum,
)
from supercatalan.supercat import super_catalan

import _oracle


def test_psi_frozen_values():
    assert psi(2, 1, 0) == 4          # 6 - 8 + 6
    assert psi(2, 3, 0) == -20        # 6 - 32 + 6
    assert psi(3, 2, 5) == 0
    assert psi(8, 1, 2) == 8624


def test_psi_t_frozen_values():
    assert psi_t(4, 1, 0) == -8
    assert psi_t(2, 1, 0) == -4
    assert psi_t(2, 0, 0) == 4


def test_p_sum_frozen_values():
    assert p_sum(2, 0, 0) == 4        # 12 - 8 + 0
    assert p_sum(4, 0, 0) == 72
    assert p_sum(2, 1, 0) == 0        # single term with zero weight


def test_r_sum_frozen_values():
    assert r_sum(2, 0, 0) == 4        # 6 - 4 + 2
    assert r_sum(1, 0, 0) == 1        # 2 - 1
    assert r_sum(0, 0, 0) == 1
    assert isinstance(r_sum(2, 0, 0), Fraction)


def test_r_prime_sum_frozen_values():
    assert r_prime_sum(2, 0, 0) == 2
    assert r_prime_sum(0, 0, 0) == 1
    # 3 - 8/3 + 3, and also r_sum(2,0,1)/(n+l+1) = 10/3
    assert r_prime_sum(2, 0, 1) == Fraction(10, 3)
    assert r_prime_sum(2, 0, 1) == r_sum(2, 0, 1) / 3


def test_r_dprime_sum_frozen_values():
    assert r_dprime_sum(2, 0, 0) == 2
    assert r_dprime_sum(0, 0, 0) == 0
    assert r_dprime_sum(4, 1, 0) == 2 * r_prime_sum(4, 1, 0)


def test_t_sum_frozen_values():
    assert t_sum(2, 0, 0) == 8        # 12 - 4 + 0
    assert t_sum(2, 1, 0) == 0


INT_SUMS = {"psi_t": psi_t, "p_sum": p_sum}
RATIONAL_SUMS = {"r_sum": r_sum, "r_prime_sum": r_prime_sum,
                 "r_dprime_sum": r_dprime_sum, "t_sum": t_sum}


def _agrees_with_oracle(n, t, l):
    for name, f in INT_SUMS.items():
        value = f(n, t, l)
        assert type(value) is int and value == getattr(_oracle, name)(n, t, l)
    for name, f in RATIONAL_SUMS.items():
        value = f(n, t, l)
        assert type(value) is Fraction and value == getattr(_oracle, name)(n, t, l)


def test_matches_oracle_on_grid(memo_oracle):
    for n in range(61):
        for l in range(7):
            for m in range(1, 5):
                value = psi(n, m, l)
                assert type(value) is int and value == _oracle.psi(n, m, l)
            for t in range(n // 2 + 1):
                _agrees_with_oracle(n, t, l)


def test_matches_oracle_at_length_200(memo_oracle):
    # from m = 6 the step divisors reach three 30-bit digits
    for m in range(1, 9):
        assert psi(200, m, 3) == _oracle.psi(200, m, 3)
    # t = 99 leaves M = 2, one step of the half walk to the middle term
    for t, l in ((0, 0), (37, 5), (100, 2), (93, 17), (99, 3)):
        _agrees_with_oracle(200, t, l)
    _agrees_with_oracle(199, 12, 4)


def test_each_sum_takes_at_most_two_s_values(monkeypatch):
    # S values seed the first term only; the rest follow by the term ratio
    calls = []

    def counting_s(n, l):
        calls.append((n, l))
        return super_catalan(n, l)

    monkeypatch.setattr(sums, "super_catalan", counting_s)
    for n in (0, 7, 40, 300):
        calls.clear()
        psi(n, 3, 2)
        assert len(calls) <= 2
        for f in (*INT_SUMS.values(), *RATIONAL_SUMS.values()):
            calls.clear()
            f(n, n // 4, 2)
            assert len(calls) <= 2, f.__name__


@pytest.mark.parametrize("f, args, steps", [
    # even length, no weights and equal S shifts: a mirror-symmetric
    # summand, walked to its middle term only
    (psi_t, (40, 7, 3), 13),
    (r_prime_sum, (40, 7, 3), 13),
    (psi, (40, 3, 2), 20),
    (psi_t, (40, 20, 3), 0),
    # odd length, weights or unequal shifts: the full walk of M = n - 2t steps
    (psi_t, (41, 7, 3), 27),
    (p_sum, (40, 7, 3), 26),
    (r_sum, (40, 7, 3), 26),
    (t_sum, (40, 7, 3), 26),
    (r_dprime_sum, (40, 7, 3), 26),
])
def test_walk_takes_one_checked_step_per_term(monkeypatch, f, args, steps):
    # every step of the walk is one divmod; a module global shadows the builtin
    calls = []

    def counting_divmod(x, y):
        calls.append(y)
        return divmod(x, y)

    monkeypatch.setattr(sums, "divmod", counting_divmod, raising=False)
    value = f(*args)
    assert len(calls) == steps
    assert value == getattr(_oracle, f.__name__)(*args)


def _shifted(n, t, l, weight, b):
    # the window sum with S(k, l+1) S(n-k, l+b) in place of S(k, l) S(n-k, l)
    return sum((-1) ** k * weight(k) * _oracle.binom(n - 2 * t, k - t)
               * _oracle.S(k, l + 1) * _oracle.S(n - k, l + b)
               for k in range(t, n - t + 1))


def test_rational_sums_are_shifted_integer_sums_over_constants(memo_oracle):
    # S(k, l+1) = 2(2l+1) S(k, l)/(k+l+1) turns each rational weight into a
    # shift of the second S index, leaving a constant denominator
    for n in range(31):
        for l in range(6):
            c = 4 * (2 * l + 1)
            for t in range(n // 2 + 1):
                for scale, f, weight, b in (
                        (2, r_sum, lambda k: 1, 0),
                        (2, t_sum, lambda k: n - t - k, 0),
                        (c, r_prime_sum, lambda k: 1, 1),
                        (c, r_dprime_sum, lambda k: n - k, 1)):
                    scaled = scale * f(n, t, l)
                    assert scaled.denominator == 1, (f.__name__, n, t, l)
                    assert scaled == _shifted(n, t, l, weight, b), (f.__name__, n, t, l)


def test_every_sum_rejects_a_drifted_seed(monkeypatch):
    # one S value off by one breaks the exact term ratio of every walk
    monkeypatch.setattr(sums, "super_catalan", lambda n, l: super_catalan(n, l) + 1)
    with pytest.raises(InexactDivisionError, match="not divisible"):
        psi(12, 2, 3)
    for f in (*INT_SUMS.values(), *RATIONAL_SUMS.values()):
        with pytest.raises(InexactDivisionError, match="not divisible"):
            f(12, 2, 3)


def test_odd_length_vanishing():
    for n in range(1, 16, 2):
        for l in range(4):
            for m in range(1, 5):
                assert psi(n, m, l) == 0
            for t in range(n // 2 + 1):
                assert psi_t(n, t, l) == 0


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=12))
def test_psi_product_form(n, l):
    assert psi(2 * n, 1, l) == super_catalan(n, l) * super_catalan(n + l, n)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=12))
def test_weighted_sums_recombine(n, l, t):
    # (n+l+1-t) r - (2l+1) psi_t reproduces the combined weight of t_sum
    if 2 * t <= n:
        assert t_sum(n, t, l) == (n + l + 1 - t) * r_sum(n, t, l) - (2 * l + 1) * psi_t(n, t, l)


def test_domain_validation():
    with pytest.raises(ValueError):
        psi(-1, 1, 0)
    with pytest.raises(ValueError):
        psi(2, 0, 0)
    with pytest.raises(ValueError):
        psi(2, 1, -1)
    with pytest.raises(ValueError):
        psi_t(4, 3, 0)
    with pytest.raises(ValueError):
        r_sum(4, -1, 0)
