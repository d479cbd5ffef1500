"""Acceptance gate: every advertised guarantee on its full stated grid.

One test per criterion; `pytest -v` therefore shows one pass/fail line for
each. The inline prints repeat the verdicts for runs with -s. Grids here are
deliberately larger than the unit-test grids; everything is still exact
arithmetic, so "pass" means identical integers, not closeness.
"""

import subprocess
import sys
from contextlib import contextmanager

from supercatalan.dsums import (
    d_psi_level1,
    d_sum_base,
    d_sum_direct,
    d_sum_step,
    psi_quotient_witness,
    psi_summand,
    unit_summand,
)
from supercatalan.exactnum import binomial, central_binomial, exact_div
from supercatalan.sums import psi, psi_t, r_sum
from supercatalan.supercat import (
    catalan,
    phi,
    super_catalan,
    super_catalan_factorial,
    super_catalan_ratio,
    super_catalan_von_szily,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL")
        raise
    print(f"criterion {number:02d} ({label}): pass")


def test_criterion_01_full_window_factorization():
    with criterion(1, "psi(2n,1,l) factors as S(n,l) S(n+l,n)"):
        for n in range(26):
            for l in range(16):
                assert psi(2 * n, 1, l) == \
                    super_catalan(n, l) * super_catalan(n + l, n)
        assert psi(8, 1, 2) == 8624
        assert (super_catalan(4, 2), central_binomial(4)) == (28, 70)
        assert super_catalan(4, 2) == 28
        assert super_catalan(6, 4) == 308
        assert 8624 == 28 * 308


def test_criterion_02_windowed_sums_have_closed_form():
    with criterion(2, "psi_t(2n,t,l) equals the closed ratio phi(n,l,t)"):
        for n in range(16):
            for l in range(11):
                for t in range(n + 1):
                    assert psi_t(2 * n, t, l) == phi(n, l, t)


def test_criterion_03_classical_rows():
    with criterion(3, "central binomial and Catalan rows, full and windowed"):
        # l = 0 full row: alternating central binomial convolution
        anchor = sum((-1) ** k * binomial(4, k) * central_binomial(k)
                     * binomial(8 - 2 * k, 4 - k) for k in range(5))
        assert anchor == 36
        for n in range(21):
            lhs = sum((-1) ** k * binomial(2 * n, k) * central_binomial(k)
                      * binomial(4 * n - 2 * k, 2 * n - k)
                      for k in range(2 * n + 1))
            assert lhs == central_binomial(n) ** 2
            lhs = sum((-1) ** k * binomial(2 * n, k) * catalan(k)
                      * catalan(2 * n - k) for k in range(2 * n + 1))
            assert lhs == catalan(n) * central_binomial(n)
        # windowed closed forms of the same two rows
        for n in range(16):
            for t in range(n + 1):
                num = (central_binomial(n) * central_binomial(t)
                       * binomial(2 * n - 2 * t, n - t))
                assert psi_t(2 * n, t, 0) == \
                    (-1) ** t * exact_div(num, binomial(2 * n - t, t))
                lhs = sum((-1) ** k * binomial(2 * n - 2 * t, k - t)
                          * catalan(k) * catalan(2 * n - k)
                          for k in range(t, 2 * n - t + 1))
                num = (catalan(n) * central_binomial(t)
                       * binomial(2 * n - 2 * t, n - t))
                assert lhs == \
                    (-1) ** t * exact_div(num, binomial(2 * n + 1 - t, t))


def test_criterion_04_cleared_rational_recurrences():
    with criterion(4, "length- and weight-shift recurrences clear exactly"):
        for n in range(1, 13):
            for l in range(9):
                for t in range(n):
                    assert (2 * (2 * n - 1 - 2 * t) * (2 * n - 1)
                            * psi_t(2 * n - 2, t, l + 1)) == \
                        (2 * n + l - t) * (2 * l + 1) * psi_t(2 * n, t, l)
                    assert 4 * (2 * l + 1) * r_sum(2 * n, t, l) == \
                        (n + l + 1) * psi_t(2 * n, t, l + 1)
                    assert psi_t(2 * n, t, l) == 4 * r_sum(2 * n - 1, t, l)
                    assert ((2 * n + l - t) * (n + l)
                            * r_sum(2 * n - 1, t, l)) == \
                        (2 * (2 * n - 1 - 2 * t) * (2 * n - 1)
                         * r_sum(2 * n - 2, t, l))


def test_criterion_05_level_engine_coherence():
    with criterion(5, "level engine: direct, stepped and base layers agree"):
        for n in range(13):
            for l in range(5):
                for m in range(2, 7):
                    assert psi(n, m, l) == \
                        d_sum_direct(psi_summand, n, 0, m - 2, l)
                for f in (psi_summand, unit_summand):
                    for j in range(n // 2 + 1):
                        for t in range(1, 4):
                            assert d_sum_step(f, n, j, t, l) == \
                                d_sum_direct(f, n, j, t, l)
                        assert d_sum_base(f, n, j, l) == \
                            d_sum_direct(f, n, j, 0, l)


def test_criterion_06_constructive_divisibility_witnesses():
    with criterion(6, "witness quotients reproduce every performed division"):
        for n in range(11):
            for l in range(7):
                for m in range(1, 6):
                    assert divmod(psi(2 * n, m, l), super_catalan(n, l)) == \
                        (psi_quotient_witness(n, m, l), 0)


def test_criterion_07_even_divisibility_and_its_boundary():
    with criterion(7, "2 S(n,l) divides psi(2n,m,l) for l >= 1; the central "
                      "binomial does not take its place"):
        for n in range(11):
            for l in range(1, 7):
                for m in range(1, 6):
                    assert psi(2 * n, m, l) % (2 * super_catalan(n, l)) == 0
        assert psi(8, 1, 2) == 8624
        assert (super_catalan(4, 2), central_binomial(4)) == (28, 70)
        assert divmod(8624, super_catalan(4, 2)) == (308, 0)
        assert divmod(8624, central_binomial(4)) == (123, 14)


def test_criterion_08_route_agreement_symmetry_parity():
    with criterion(8, "three S(n,l) routes agree; S is symmetric and even "
                      "away from the origin"):
        for n in range(31):
            for l in range(31):
                value = super_catalan_ratio(n, l)
                assert value == super_catalan_factorial(n, l)
                assert value == super_catalan_von_szily(n, l)
                assert value == super_catalan(l, n)
                assert value % 2 == (1 if n == l == 0 else 0)


def test_criterion_09_scaled_closed_forms_and_level_one():
    with criterion(9, "scaled window closed form, the m=2 cofactor, and the "
                      "level-1 factorization"):
        for n in range(11):
            for l in range(7):
                cofactor = sum((-1) ** u * central_binomial(u)
                               * super_catalan(n, n + l - u) * binomial(n, u)
                               for u in range(n + 1))
                assert psi(2 * n, 2, l) == super_catalan(n, l) * cofactor
                for t in range(n + 1):
                    num = (central_binomial(l) * central_binomial(t)
                           * central_binomial(n + l - t) * central_binomial(n)
                           * binomial(2 * n - t, n))
                    den = binomial(n + l, n) * binomial(2 * n + l - t, n)
                    assert binomial(2 * n - t, t) * psi_t(2 * n, t, l) == \
                        (-1) ** t * exact_div(num, den)
        for n in range(9):
            for l in range(5):
                for j in range(n + 1):
                    value, cofactor = d_psi_level1(n, j, l)
                    assert value == \
                        (-1) ** j * super_catalan(n, l) * cofactor
                    assert value == d_sum_direct(psi_summand, 2 * n, j, 1, l)


def test_criterion_10_cli_sweep_determinism():
    with criterion(10, "full default-grid sweep passes from the command line "
                       "and serializes to stable bytes"):
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "supercatalan", *args],
                capture_output=True, text=True)

        human = run("verify", "--all", "--default-grid")
        assert human.returncode == 0, human.stderr
        assert "total" in human.stdout

        record_args = ("verify", "--all", "--default-grid",
                       "--format", "json", "--no-timestamp")
        first = run(*record_args, "--jobs", "1")
        second = run(*record_args, "--jobs", "2")
        repeat = run(*record_args, "--jobs", "1")
        for proc in (first, second, repeat):
            assert proc.returncode == 0, proc.stderr
        assert first.stdout == second.stdout == repeat.stdout
        assert len(first.stdout.splitlines()) == 8607
