"""Engine coherence, closed layers, and the constructive divisibility pipeline."""

from collections import Counter
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercatalan import dsums, exactnum
from supercatalan.dsums import (
    a_t,
    d_psi_level1,
    d_sum_base,
    d_sum_direct,
    d_sum_step,
    psi_quotient_witness,
    psi_summand,
    q_scaled,
    q_sum,
    unit_summand,
)
from supercatalan.exactnum import IntegrityError, central_binomial, memo_scope
from supercatalan.sums import p_sum, psi, psi_t, r_sum
from supercatalan.supercat import phi, super_catalan
from supercatalan.verifier import GridBounds, run_check, sweep

import _oracle


def test_direct_reproduces_power_sums():
    # with f == 1 and j = 0 the D value is the plain binomial power sum
    for n in range(9):
        for t in range(4):
            assert d_sum_direct(unit_summand, n, 0, t, 0) == \
                _oracle.binomial_power_sum(n, t + 2)


def test_direct_reproduces_psi():
    for n in range(9):
        for l in range(3):
            for m in range(2, 6):
                assert d_sum_direct(psi_summand, n, 0, m - 2, l) == psi(n, m, l)


def test_step_agrees_with_direct():
    for f in (psi_summand, unit_summand):
        for n in range(9):
            for j in range(n // 2 + 1):
                for t in range(1, 4):
                    assert d_sum_step(f, n, j, t, 0) == d_sum_direct(f, n, j, t, 0)


def test_step_rejects_the_base_layer():
    with pytest.raises(ValueError):
        d_sum_step(psi_summand, 4, 0, 0, 0)


def test_base_agrees_with_direct():
    for f in (psi_summand, unit_summand):
        for n in range(10):
            for j in range(n // 2 + 1):
                for l in range(3):
                    assert d_sum_base(f, n, j, l) == d_sum_direct(f, n, j, 0, l)


def test_base_cross_check_trips_on_drift(monkeypatch):
    monkeypatch.setattr(dsums, "_base_expanded", lambda f, n, j, l: 10 ** 9)
    with pytest.raises(IntegrityError):
        d_sum_base(psi_summand, 4, 1, 0)


def test_a_t_is_the_windowed_convolution():
    for n in range(10):
        for t in range(n // 2 + 1):
            for l in range(3):
                assert a_t(psi_summand, n, t, l) == psi_t(n, t, l)


def test_window_validation():
    with pytest.raises(ValueError):
        d_sum_direct(psi_summand, 4, 3, 0, 0)
    with pytest.raises(ValueError):
        d_sum_direct(psi_summand, -1, 0, 0, 0)
    with pytest.raises(ValueError):
        d_sum_direct(psi_summand, 4, 0, -1, 0)


# (n, offset, l) -> the sum; unit_summand ignores l, so only the window
# check stands between a negative l and a value
@pytest.mark.parametrize("call, offset", [
    (psi_t, "t"),
    (p_sum, "t"),
    (r_sum, "t"),
    (lambda n, t, l: a_t(unit_summand, n, t, l), "t"),
    (lambda n, j, l: d_sum_direct(unit_summand, n, j, 0, l), "j"),
    (lambda n, j, l: d_sum_step(unit_summand, n, j, 1, l), "j"),
    (lambda n, j, l: d_sum_base(unit_summand, n, j, l), "j"),
], ids=["psi_t", "p_sum", "r_sum", "a_t", "d_sum_direct", "d_sum_step", "d_sum_base"])
def test_every_window_is_checked_by_one_rule(call, offset):
    with pytest.raises(ValueError) as exc:
        call(4, 0, -1)
    assert str(exc.value) == "second super Catalan index must be non-negative, got -1"
    with pytest.raises(ValueError) as exc:
        call(-1, 0, 0)
    assert str(exc.value) == "sum length must be non-negative, got -1"
    for bad in (-1, 3):
        with pytest.raises(ValueError) as exc:
            call(4, bad, 0)
        assert str(exc.value) == (f"window offset requires 0 <= 2{offset} <= n, "
                                  f"got {offset}={bad}, n=4")


# (n, offset, l) -> the value; the offset runs over 0..n, not over half a window
@pytest.mark.parametrize("call, offset", [
    (lambda n, t, l: phi(n, l, t), "t"),
    (q_scaled, "s"),
    (q_sum, "s"),
    (d_psi_level1, "j"),
], ids=["phi", "q_scaled", "q_sum", "d_psi_level1"])
def test_every_offset_is_checked_by_one_rule(call, offset):
    for n, l in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError) as exc:
            call(n, 0, l)
        assert str(exc.value) == f"super Catalan indices must be non-negative, got ({n}, {l})"
    for bad in (-1, 4):
        with pytest.raises(ValueError) as exc:
            call(3, bad, 1)
        assert str(exc.value) == f"offset requires 0 <= {offset} <= n, got {offset}={bad}, n=3"


def test_q_sum_frozen_values():
    assert q_sum(1, 1, 0) == 2
    assert q_sum(1, 0, 0) == Fraction(-1, 1)
    assert q_sum(0, 0, 0) == 1
    assert isinstance(q_sum(1, 1, 0), Fraction)


def test_q_scaled_frozen_values():
    assert q_scaled(1, 1, 0) == 4
    assert q_scaled(1, 0, 0) == -2
    assert q_scaled(0, 0, 0) == 1


def test_q_scaled_is_the_cleared_kernel(memo_oracle):
    # every s reads a slice x[s:] of the cofactor vector, the last ones short
    for n in range(41):
        for s in range(n + 1):
            for l in range(4):
                assert q_scaled(n, s, l) == _oracle.q_scaled(n, s, l)
                if n < 8:
                    assert q_scaled(n, s, l) == central_binomial(n) * _oracle.q_sum(n, s, l)


def test_q_scaled_even_for_positive_l():
    for n in range(9):
        for s in range(n + 1):
            for l in range(1, 5):
                assert q_scaled(n, s, l) % 2 == 0


def test_q_domain_validation():
    with pytest.raises(ValueError):
        q_sum(2, 3, 0)
    with pytest.raises(ValueError):
        q_scaled(2, -1, 0)


def test_level1_frozen_values():
    assert d_psi_level1(1, 1, 0) == (-8, 4)
    assert d_psi_level1(1, 0, 0) == (-20, -10)


def test_level1_cofactor_is_integral_witness():
    for n in range(6):
        for j in range(n + 1):
            for l in range(3):
                value, cofactor = d_psi_level1(n, j, l)
                assert isinstance(cofactor, int)
                assert value == (-1) ** j * super_catalan(n, l) * cofactor
                assert value == d_sum_direct(psi_summand, 2 * n, j, 1, l)


def test_witness_frozen_values():
    assert psi_quotient_witness(1, 3, 0) == -10
    assert psi_quotient_witness(1, 4, 0) == -26


def test_witness_quotient_even_for_positive_l():
    # for l >= 1 every q_scaled term carries an S(a, b) with b >= 1, which is
    # even, so 2 S(n, l) divides psi(2n, m, l) without a division. At l = 0
    # it fails (n = 0 gives 1), and no higher power of 2 holds in general
    with memo_scope:
        for n in range(13):
            for l in range(1, 6):
                for m in range(1, 9):
                    assert psi_quotient_witness(n, m, l) % 2 == 0, (n, m, l)


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=4))
def test_witness_equals_performed_division(n, m, l):
    assert divmod(psi(2 * n, m, l), super_catalan(n, l)) == \
        (psi_quotient_witness(n, m, l), 0)


def test_witness_domain_validation():
    # the witness and the sum it stands for share one power check
    for call in (lambda: psi_quotient_witness(3, 0, 1), lambda: psi(6, 0, 1)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "binomial power must be positive, got 0"
    with pytest.raises(ValueError, match=r"super Catalan indices .* got \(-1, 0\)"):
        psi_quotient_witness(-1, 1, 0)
    with pytest.raises(ValueError, match=r"super Catalan indices .* got \(2, -1\)"):
        psi_quotient_witness(2, 3, -1)
    with pytest.raises(ValueError):
        d_psi_level1(2, 3, 0)


SUMMANDS = ((psi_summand, _oracle.F_psi), (unit_summand, _oracle.F_one))


def _engine_agrees_with_oracle(n, j, l, levels):
    # D(n, j, t) by every route, and a_j(n), for a sum of length n
    for f, g in SUMMANDS:
        for t in levels:
            want = _oracle.d_direct(g, n, j, t, l)
            assert d_sum_direct(f, n, j, t, l) == want
            if t:
                assert d_sum_step(f, n, j, t, l) == want
        assert d_sum_base(f, n, j, l) == _oracle.d_direct(g, n, j, 0, l)
        assert a_t(f, n, j, l) == _oracle.a_t(g, n, j, l)


def _closed_forms_agree_with_oracle(n, s, l):
    assert q_scaled(n, s, l) == _oracle.q_scaled(n, s, l)
    assert q_sum(n, s, l) == _oracle.q_sum(n, s, l)
    value, cofactor = d_psi_level1(n, s, l)
    assert value == _oracle.d_direct(_oracle.F_psi, 2 * n, s, 1, l)
    assert cofactor == sum((-1) ** u * _oracle.binom(2 * n - s, u) * _oracle.binom(n, s + u)
                           * _oracle.q_scaled(n, s + u, l) for u in range(n - s + 1))


def _witness_agrees_with_oracle(n, m, l):
    quotient, remainder = divmod(_oracle.psi(2 * n, m, l), _oracle.S(n, l))
    assert remainder == 0
    assert psi_quotient_witness(n, m, l) == quotient


def test_dsums_layer_matches_oracle_on_grid(memo_oracle):
    for n in range(13):
        for l in range(5):
            for j in range(n // 2 + 1):
                _engine_agrees_with_oracle(n, j, l, range(4))
            for s in range(n + 1):
                _closed_forms_agree_with_oracle(n, s, l)
            for m in range(1, 7):
                _witness_agrees_with_oracle(n, m, l)


def test_dsums_layer_matches_oracle_at_length_120(memo_oracle):
    _engine_agrees_with_oracle(120, 17, 3, (0, 2))
    _closed_forms_agree_with_oracle(60, 13, 3)
    _witness_agrees_with_oracle(60, 5, 3)


def skew_summand(n, k, l):
    # not symmetric under k -> n-k, unlike psi_summand and unit_summand, so
    # a row slice shifted off its window changes the sum (a reversed one
    # cannot: the weights of D are themselves symmetric under k -> n-k)
    return (k + 1) ** 2 - 3 * l * k + n


@pytest.mark.parametrize("scope", [nullcontext, lambda: memo_scope], ids=["bare", "scoped"])
def test_direct_sum_reads_its_window_of_each_row(scope):
    with scope():
        for n in range(31):
            for j in range(n // 2 + 1):
                for t in range(4):
                    for l in (0, 2):
                        assert d_sum_direct(skew_summand, n, j, t, l) == \
                            _oracle.d_direct(skew_summand, n, j, t, l)


@pytest.mark.parametrize("scope", [nullcontext, lambda: memo_scope], ids=["bare", "scoped"])
def test_lifted_witness_is_the_oracle_quotient(memo_oracle, scope):
    # m = 2 is the weights' entry 0, each m above it one more lift step
    n, l = 60, 3
    with scope():
        for m in range(2, 9):
            _witness_agrees_with_oracle(n, m, l)


def test_each_sum_takes_binomials_per_walk_not_per_term(monkeypatch):
    # a binomial factor is taken once at the start of its walk; the terms
    # follow by exact ratios. The outer sums of d_sum_base take their own
    # factors per term, each term an inner sum; d_sum_step reads its
    # factors from the Pascal rows.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dsums, "binomial", counting("binomial", dsums.binomial))
    monkeypatch.setattr(dsums, "central_binomial",
                        counting("central_binomial", dsums.central_binomial))
    for j in (0, 1, 17, 40):
        outer = (80 - 2 * j) // 2 + 1
        for call, most in ((lambda: d_sum_direct(psi_summand, 80, j, 2, 3), 3),
                           (lambda: a_t(psi_summand, 80, j, 3), 3),
                           (lambda: d_sum_base(psi_summand, 80, j, 3), 4 * outer),
                           (lambda: d_sum_step(psi_summand, 80, j, 2, 3), 0)):
            calls.clear()
            call()
            assert sum(calls.values()) <= most, dict(calls)
    n, l = 40, 2
    with memo_scope:  # a fresh scope: nothing is memoized yet
        calls.clear()
        q_scaled(n, 7, l)
        assert sum(calls.values()) <= 1
    monkeypatch.setattr(dsums, "q_scaled", counting("q_scaled", dsums.q_scaled))
    monkeypatch.setattr(dsums, "super_catalan",
                        counting("super_catalan", dsums.super_catalan))
    with memo_scope:
        calls.clear()
        misses = dsums._pascal.cache_info().misses
        # fresh level-1 weights: one S per entry of their x vector, the
        # central binomials walked, and Pascal rows 0..n, each built once
        dsums._level1_weights(n, l)
        assert dict(calls) == {"super_catalan": n + 1}
        assert dsums._pascal.cache_info().misses - misses == n + 1
        monkeypatch.setattr(dsums, "_lift_step", counting("step", dsums._lift_step))
        calls.clear()
        # level 0: d_0 = e_0, no step, no q_scaled and no new Pascal row
        psi_quotient_witness(n, 2, l)
        assert dict(calls) == {}
        assert dsums._pascal.cache_info().misses - misses == n + 1
        # level 2: two vector steps from d_0, on Pascal rows 0..n and 2n
        psi_quotient_witness(n, 4, l)
        assert dict(calls) == {"step": 2}
        assert dsums._pascal.cache_info().misses - misses == n + 2
        held, rows = dsums._slot(dsums._lift_vectors)[0]
        assert held == n and sorted(rows[()]) == [0, 2]
        # the direct sums of length 2n that d_psi_level1 takes have slots of
        # their own: the lift vectors of n stay held beside the rows of 2n
        d_psi_level1(n, 1, l)
        assert dsums._slot(dsums._lift_vectors)[0] == (n, rows)
        assert sorted(rows[()]) == [0, 2]
        assert dsums._slot(dsums._summand_row)[0][0] == 2 * n
        assert dsums._slot(dsums._direct_weights)[0][0] == 2 * n
    # the direct sums of one (2n, l), every j: one summand row, and one
    # Pascal row per distinct upper index 2n - j or 2n
    summand = counting("summand", psi_summand)
    with memo_scope:
        calls.clear()
        misses = dsums._pascal.cache_info().misses
        for j in range(n + 1):
            d_sum_direct(summand, 2 * n, j, 1, l)
        assert calls["summand"] <= 2 * n + 1
        assert dsums._pascal.cache_info().misses - misses == n + 1
    # inside a scope the inner direct sums of d_sum_step share one summand row
    with memo_scope:
        calls.clear()
        d_sum_step(summand, 2 * n, 0, 2, l)
        assert calls["summand"] <= 2 * n + 1


def test_a_bare_step_reads_one_summand_row():
    # outside a scope, d_sum_step builds the level below once, from one row
    calls = Counter()

    def summand(n, k, l):
        calls[n] += 1
        return psi_summand(n, k, l)

    assert d_sum_step(summand, 200, 0, 2, 3) == d_sum_direct(psi_summand, 200, 0, 2, 3)
    assert calls == {200: 201}


def test_an_eq13_sweep_builds_each_direct_row_once(monkeypatch):
    built = Counter()
    direct_row = dsums._direct_row

    def counting(n, f, t, l):
        built[f, n, t, l] += 1
        return direct_row(n, f, t, l)

    monkeypatch.setattr(dsums, "_direct_row", counting)
    report = sweep(["eq13"], GridBounds(n_max=8, l_max=2))
    assert report.failed == 0
    keys = {(f, r.n, r.t - 1, r.l) for r in report.results
            for f in (psi_summand, unit_summand)}
    assert set(built) == keys
    assert sum(built.values()) == len(keys) == 2 * 9 * 3 * 3


def test_closed_form_cross_checks_trip_when_direct_drifts(monkeypatch):
    direct = dsums.d_sum_direct
    monkeypatch.setattr(dsums, "d_sum_direct", lambda *args: direct(*args) + 1)
    with pytest.raises(IntegrityError, match="closed level-1 form disagrees"):
        d_psi_level1(3, 1, 2)
    result = run_check("dlevel1", n=3, l=2, t=1)
    assert result.status == "fail"
    assert result.reason.startswith("IntegrityError: closed level-1 form disagrees at n=3, j=1, l=2")


def test_a_drifted_cofactor_vector_fails_every_witness_identity(monkeypatch):
    # q_scaled and the level-1 row read one vector; each identity that reads
    # it sets its value against a side that does not
    vector = dsums._cofactor_vector

    def drifted(n, l):
        x = vector(n, l)
        x[0] += 2
        return x

    monkeypatch.setattr(dsums, "_cofactor_vector", drifted)
    report = sweep(["eq104", "dlevel1", "thm3"], GridBounds(n_max=4, l_max=2, m_max=4))
    failed = Counter(r.identity for r in report.results if r.status == "fail")
    assert set(failed) == {"eq104", "dlevel1", "thm3"}, failed


@pytest.mark.parametrize("n, l, j", [(0, 0, 0), (3, 2, 1), (5, 1, 0), (6, 3, 4),
                                     (7, 2, 7)])
def test_dlevel1_record_shows_the_direct_value(n, l, j):
    result = run_check("dlevel1", n=n, l=l, t=j)
    assert result.status == "pass"
    assert result.lhs == str(_oracle.d_direct(_oracle.F_psi, 2 * n, j, 1, l))


def test_d_psi_level1_returns_the_direct_value(monkeypatch):
    # the same int object d_sum_direct made, not the equal closed product
    made = []
    direct = dsums.d_sum_direct
    monkeypatch.setattr(dsums, "d_sum_direct",
                        lambda *args: made.append(direct(*args)) or made[-1])
    value, _ = d_psi_level1(6, 1, 3)
    assert abs(value) > 256  # beyond the small ints Python shares
    assert value is made[-1]


def test_a_call_outside_any_scope_takes_no_memo_lookup(memo_oracle):
    # dsums never opens a scope itself: a bare call computes afresh and
    # leaves every table empty
    lookups = sum(dsums._pascal.cache_info()[:2])
    for t in (1, 2):
        want = _oracle.d_direct(_oracle.F_psi, 40, 7, t, 3)
        assert d_sum_direct(psi_summand, 40, 7, t, 3) == want
        assert d_sum_step(psi_summand, 40, 7, t, 3) == want
    _witness_agrees_with_oracle(5, 4, 2)
    assert sum(dsums._pascal.cache_info()[:2]) == lookups
    assert exactnum._depth == 0 and not any(exactnum._tables)


def test_level1_row_weighs_the_q_scaled_vector():
    # the weights are w[k] = (-1)^k binomial(n, k) q_scaled(n, k, l), and
    # entry j of the level-1 row, d_psi_level1's cofactor up to (-1)^j, is
    # w weighed by the Pascal row of 2n - j
    with memo_scope:
        for n in range(31):
            for l in range(6):
                w = tuple((-1) ** k * _oracle.binom(n, k) * q_scaled(n, k, l)
                          for k in range(n + 1))
                assert dsums._level1_weights(n, l) == w
                for j in range(n + 1):
                    entry = sum(_oracle.binom(2 * n - j, k - j) * w[k]
                                for k in range(j, n + 1))
                    assert d_psi_level1(n, j, l)[1] == (-1) ** j * entry


@pytest.mark.parametrize("scope", [nullcontext, lambda: memo_scope], ids=["bare", "scoped"])
def test_level1_row_entries_are_the_oracle_quotients(memo_oracle, scope):
    n, l = 60, 3
    with scope():
        cofactors = [d_psi_level1(n, j, l)[1] for j in range(n + 1)]
    for j, cofactor in enumerate(cofactors):
        quotient, remainder = divmod(_oracle.d_direct(_oracle.F_psi, 2 * n, j, 1, l),
                                     _oracle.S(n, l))
        assert remainder == 0
        assert (-1) ** j * cofactor == quotient


def test_a_lift_starts_from_the_highest_held_vector(monkeypatch):
    n = 5
    bare = {level: dsums._lift(n, level) for level in range(8)}
    # the step's definition, by the oracle's binomials
    assert bare[0] == (1,) + (0,) * n
    for level in range(7):
        d = bare[level]
        assert bare[level + 1] == tuple(
            sum(_oracle.binom(2 * n - j, k - j) * _oracle.binom(2 * n, j) * d[j]
                for j in range(k + 1))
            for k in range(n + 1))
    steps = []
    step = dsums._lift_step
    monkeypatch.setattr(dsums, "_lift_step", lambda *args: steps.append(1) or step(*args))
    with memo_scope:
        assert dsums._lift(n, 4) == bare[4]  # 4 steps from d_0
        assert dsums._lift(n, 6) == bare[6]  # 2 from level 4
        assert dsums._lift(n, 3) == bare[3]  # 3 from d_0
        assert dsums._lift(n, 5) == bare[5]  # 1 from level 4
        assert dsums._lift(n, 6) == bare[6]  # held
        assert dsums._lift(n, 0) == bare[0]  # d_0 itself, no step
        assert len(steps) == 4 + 2 + 3 + 1
        held, rows = dsums._slot(dsums._lift_vectors)[0]
        assert held == n and rows == {(): {level: bare[level] for level in (0, 3, 4, 5, 6)}}
        dsums._lift(n + 1, 2)  # another n empties the slot
        held, rows = dsums._slot(dsums._lift_vectors)[0]
        assert held == n + 1 and list(rows[()]) == [2]
        assert len(steps) == 4 + 2 + 3 + 1 + 2
