"""Arithmetic primitives: conventions, exactness, and algebraic laws."""

import sys
import threading
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercatalan import exactnum
from supercatalan.exactnum import (
    InexactDivisionError,
    binomial,
    central_binomial,
    exact_div,
    factorial,
    memo_scope,
    memoized,
)

import _oracle


def test_factorial_small_values():
    assert [factorial(n) for n in range(8)] == [1, 1, 2, 6, 24, 120, 720, 5040]


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_known_values():
    assert binomial(0, 0) == 1
    assert binomial(6, 3) == 20
    assert binomial(8, 4) == 70
    assert binomial(60, 30) == 118264581564861424


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 1) == 0


def test_binomial_rejects_negative_upper_index():
    with pytest.raises(ValueError):
        binomial(-2, 0)


def test_central_binomial_values():
    assert [central_binomial(n) for n in range(6)] == [1, 2, 6, 20, 70, 252]


def test_central_binomial_ratio_recurrence_exhaustive():
    # (l+1) cb(l+1) = 2 (2l+1) cb(l) across the whole working range
    for l in range(65):
        assert (l + 1) * central_binomial(l + 1) == 2 * (2 * l + 1) * central_binomial(l)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=-2, max_value=66))
def test_binomial_pascal_recurrence(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=64))
def test_binomial_symmetry(n, k):
    if k <= n:
        assert binomial(n, k) == binomial(n, n - k)


@given(st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40))
def test_binomial_subcommittee_identity(n, k, j):
    if j <= k <= n:
        assert binomial(n, k) * binomial(k, j) == binomial(n, j) * binomial(n - j, k - j)


@given(st.integers(min_value=0, max_value=48))
def test_binomial_row_sum(n):
    assert sum(binomial(n, k) for k in range(n + 1)) == 2 ** n


def test_binomial_matches_pascal_oracle():
    for n in range(30):
        for k in range(n + 1):
            assert binomial(n, k) == _oracle.binom(n, k)


BIG = 10 ** 4300  # 4,301 digits, one past str()'s default limit


def test_exact_div(full_str):
    assert exact_div(84, 6) == 14
    assert exact_div(-20, 2) == -10
    with pytest.raises(InexactDivisionError):
        exact_div(7, 2)
    # the message names the operands past the digit limit, not the limit
    with pytest.raises(InexactDivisionError) as exc:
        exact_div(-BIG - 1, 10)
    assert str(exc.value) == f"{full_str(-BIG - 1)} is not divisible by 10 (remainder 9)"


@pytest.mark.parametrize("value", [
    10 ** 4299, BIG, -BIG - 7, 7 ** 6000, 0, -5,
    Fraction(BIG + 1, 3), Fraction(-7, 3 * BIG + 1), Fraction(BIG, 3 ** 9100),
    Fraction(6 * BIG, 3), Fraction(-10, 4),
], ids=["int-4300", "int-4301", "negative", "int-5071", "zero", "small", "big-num",
        "big-den", "big-both", "integral", "small-fraction"])
def test_decimal_text_writes_what_str_writes(monkeypatch, full_str, value):
    expected = full_str(value)

    def refuse(limit):
        raise AssertionError(f"the int digit limit was set to {limit}")

    # the limit belongs to the process, so the writer must never set it
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    assert exactnum.decimal_text(value) == expected


def test_integer_alias_is_arbitrary_precision():
    assert isinstance(factorial(60), int)
    assert factorial(60) == _oracle.fact(60)  # 82 digits, no overflow


def test_rational_alias_invariants():
    x = Fraction(4, 2)
    assert x == 2 and x.denominator == 1
    y = Fraction(3, -9)
    assert y.denominator > 0 and y == Fraction(-1, 3)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4),
       st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_round_trip(a, b, c, d):
    x, y = Fraction(a, b), Fraction(c, d)
    assert (x + y) - y == x
    assert x * y == y * x


def test_memo_holds_only_inside_a_scope_and_keys_by_function():
    calls = []

    @memoized
    def double(x):
        calls.append(("double", x))
        return 2 * x

    @memoized
    def triple(x):
        calls.append(("triple", x))
        return 3 * x

    assert double(5) == double(5) == 10  # no scope: every call computes
    assert len(calls) == 2
    calls.clear()
    with memo_scope:
        assert double(5) == 10
        with memo_scope:
            assert double(5) == 10 and triple(5) == 15  # same arguments, own table
            assert double(x=5) == 10  # a keyword call computes
        assert double(5) == 10  # the inner exit kept the tables
    assert calls == [("double", 5), ("triple", 5), ("double", 5)]
    calls.clear()
    with memo_scope:
        assert double(5) == 10  # the outer exit emptied them
    assert calls == [("double", 5)]


def test_memo_counts_lookups_inside_scopes_like_lru_cache():
    double = memoized(lambda x: 2 * x)
    assert double.cache_info()._fields == lru_cache(None)(abs).cache_info()._fields
    double(1)  # outside a scope: computed, not counted
    assert double.cache_info() == (0, 0, None, 0)
    with memo_scope:
        double(1), double(1), double(2), double(x=1)
        with memo_scope:
            double(2)
        assert double.cache_info() == (2, 2, None, 2)
    # the counts last for the process, the table only for the scope
    assert double.cache_info() == (2, 2, None, 0)
    with memo_scope:
        double(1)
        assert double.cache_info() == (2, 3, None, 1)


def test_memo_scopes_from_many_threads_close_cleanly():
    # more threads than cores open and close scopes with a short switch
    # interval; a lost update of the scope count would leave it nonzero or
    # empty the tables under a thread still inside its scope
    square = memoized(lambda x: x * x)
    wrong = []

    def work(seed):
        for i in range(300):
            with memo_scope:
                for x in range(seed, seed + 5):
                    if square(x) != x * x:
                        wrong.append(x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert exactnum._depth == 0
    assert not any(exactnum._tables)
