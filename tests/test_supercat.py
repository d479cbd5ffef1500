"""Super Catalan numbers: routes agree, known values, structure."""

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercatalan.exactnum import central_binomial
from supercatalan.supercat import (
    catalan,
    phi,
    super_catalan,
    super_catalan_factorial,
    super_catalan_ratio,
    super_catalan_von_szily,
)
from supercatalan.sums import psi_t

import _oracle


def test_known_values():
    assert super_catalan(3, 1) == 10
    assert super_catalan(2, 2) == 6
    assert super_catalan(4, 2) == 28
    assert super_catalan(6, 4) == 308
    assert super_catalan(1, 0) == 2
    assert super_catalan(0, 0) == 1


def test_von_szily_truncated_window():
    assert super_catalan_von_szily(1, 1) == 2  # -1 + 4 - 1
    assert super_catalan_von_szily(5, 0) == central_binomial(5)


def test_three_routes_agree_on_grid():
    for n in range(13):
        for l in range(13):
            a = super_catalan_ratio(n, l)
            assert a == super_catalan_factorial(n, l)
            assert a == super_catalan_von_szily(n, l)
            assert a == _oracle.S(n, l)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
def test_three_routes_agree_random(n, l):
    a = super_catalan_ratio(n, l)
    assert a == super_catalan_factorial(n, l) == super_catalan_von_szily(n, l)


def test_symmetry_and_parity():
    for n in range(16):
        for l in range(16):
            assert super_catalan(n, l) == super_catalan(l, n)
            if (n, l) != (0, 0):
                assert super_catalan(n, l) % 2 == 0
    assert super_catalan(0, 0) % 2 == 1


def test_degenerate_rows():
    for n in range(21):
        assert super_catalan(n, 0) == central_binomial(n)
        assert super_catalan(n, 1) == 2 * catalan(n)


def test_rejects_negative_indices():
    with pytest.raises(ValueError):
        super_catalan_ratio(-1, 0)
    with pytest.raises(ValueError):
        super_catalan_von_szily(0, -3)


def test_catalan_values():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    assert catalan(3) == 5
    assert catalan(5) == 42
    with pytest.raises(ValueError):
        catalan(-1)


def test_memoized_route_is_safe_under_concurrent_readers():
    # hammer the shared cache from several threads; values must not vary
    points = [(n, l) for n in range(25) for l in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        tables = list(pool.map(lambda _: [super_catalan(n, l) for n, l in points],
                               range(8)))
    assert all(t == tables[0] for t in tables)
    assert tables[0] == [_oracle.S(n, l) for n, l in points]


def test_memoized_route_keeps_a_bounded_cache():
    # the cache lives for the whole process and no memo scope empties it, so
    # a loop over more keys than it holds must evict, not grow
    info = super_catalan.cache_info()
    assert info.maxsize is not None
    side = 1 + int(info.maxsize ** 0.5)
    for n in range(side):
        for l in range(side):
            assert super_catalan(n, l) == super_catalan_ratio(n, l)
    info = super_catalan.cache_info()
    assert side * side > info.maxsize
    assert info.currsize <= info.maxsize


def test_phi_known_values():
    assert phi(1, 0, 0) == 4
    assert phi(1, 0, 1) == -4
    assert phi(2, 0, 1) == -8


def test_phi_full_window_collapses_to_signed_square():
    for n in range(9):
        for l in range(6):
            assert phi(n, l, n) == (-1) ** n * super_catalan(n, l) ** 2


def test_phi_matches_truncated_convolution():
    for n in range(8):
        for l in range(5):
            for t in range(n + 1):
                assert phi(n, l, t) == psi_t(2 * n, t, l)


def test_phi_domain_errors():
    with pytest.raises(ValueError):
        phi(2, 0, 3)
    with pytest.raises(ValueError, match=r"super Catalan indices .* got \(2, -1\)"):
        phi(2, -1, 0)
    with pytest.raises(ValueError, match=r"super Catalan indices .* got \(-1, 0\)"):
        phi(-1, 0, 0)
