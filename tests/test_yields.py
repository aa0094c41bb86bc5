import math
from fractions import Fraction

import numpy as np
import pytest

from pathent.blocks import run_scheme, run_scheme_double
from pathent.factorize import factorize_target, noon_factor_angles
from pathent.yields import (
    YieldRow,
    optimal_schedule,
    optimal_transmittance,
    qk_squared,
    yield_generic,
    yield_noon_double,
    yield_noon_double_linear,
    yield_noon_single,
    yield_stirling,
    yield_table,
)
from helpers import random_target, rel_err


def test_qk_squared_values():
    assert qk_squared(1.0, 1) == 1.0
    np.testing.assert_allclose(qk_squared(0.5, 2), 0.25)
    np.testing.assert_allclose(qk_squared(0.25, 3), 0.25 * 0.75 ** 2)


@pytest.mark.parametrize("k", range(1, 11))
def test_qk_squared_at_optimum(k):
    # T = 1/k gives (k-1)^{k-1} / k^k
    expected = (k - 1) ** (k - 1) / k ** k if k > 1 else 1.0
    np.testing.assert_allclose(qk_squared(1.0 / k, k), expected, rtol=1e-12)


def test_qk_squared_validation():
    with pytest.raises(ValueError):
        qk_squared(0.5, 0)
    with pytest.raises(ValueError):
        qk_squared(-0.1, 1)
    with pytest.raises(ValueError):
        qk_squared(1.5, 1)


def test_optimal_transmittance():
    assert optimal_transmittance(1) == 1.0
    np.testing.assert_allclose(optimal_transmittance(3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        optimal_transmittance(0)


@pytest.mark.parametrize("k", range(1, 11))
def test_optimal_transmittance_is_argmax_on_grid(k):
    grid = np.linspace(0.001, 0.999, 999)
    values = [qk_squared(t, k) for t in grid]
    best = grid[int(np.argmax(values))]
    assert abs(best - optimal_transmittance(k)) <= (grid[1] - grid[0]) + 1e-12


def test_yield_generic():
    assert yield_generic(1.0, 1) == 1.0
    np.testing.assert_allclose(yield_generic(3.0, 4), 3.0 / 256.0, rtol=1e-12)
    for bad in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="normalization"):
            yield_generic(bad, 2)
    with pytest.raises(ValueError):
        yield_generic(1.0, 0)


def test_yield_generic_matches_simulation():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        fs = factorize_target(random_target(rng, n))
        res = run_scheme(fs)
        np.testing.assert_allclose(
            res.total_yield, yield_generic(fs.normalization, n), rtol=1e-9
        )


def test_yield_noon_single_values():
    assert yield_noon_single(1) == 1.0
    np.testing.assert_allclose(yield_noon_single(2), 0.25, rtol=1e-12)
    np.testing.assert_allclose(yield_noon_single(4), 3.0 / 256.0, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_yield_noon_single_matches_simulation(n):
    res = run_scheme(noon_factor_angles(n))
    np.testing.assert_allclose(res.total_yield, yield_noon_single(n),
                               rtol=1e-9)


def test_yield_noon_single_is_correctly_rounded():
    # (N-1)! / (2N)^(N-1) to the last bit, beyond where a float factorial
    # is exact
    for n in range(1, 65):
        exact = Fraction(math.factorial(n - 1), (2 * n) ** (n - 1))
        assert yield_noon_single(n) == float(exact), n


def test_yield_noon_single_closed_form():
    # (n-1)! (2n)^{1-n} for a sample of sizes
    for n in (2, 3, 5, 8, 12):
        expected = math.factorial(n - 1) * (2.0 * n) ** (1 - n)
        np.testing.assert_allclose(yield_noon_single(n), expected, rtol=1e-12)


def test_yield_noon_single_monotone_decay():
    vals = [yield_noon_single(n) for n in range(1, 21)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0


def test_yield_noon_single_log_slope():
    # asymptotically log P drops by log(2e) per photon
    ns = np.arange(10, 21)
    logs = np.array([math.log(yield_noon_single(int(n))) for n in ns])
    slope = np.polyfit(ns, logs, 1)[0]
    assert rel_err(slope, -math.log(2.0 * math.e)) < 0.02


def test_yield_noon_single_large_n_path():
    # the log-space branch must agree with exact factorial arithmetic
    n = 18
    exact = math.factorial(n - 1) / (2 * n) ** (n - 1)
    np.testing.assert_allclose(yield_noon_single(n), exact, rtol=1e-12)


def test_yield_noon_double_values():
    assert yield_noon_double(2) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(yield_noon_double(4), 3.0 / 16.0, rtol=1e-12)
    with pytest.raises(ValueError):
        yield_noon_double(3)
    with pytest.raises(ValueError):
        yield_noon_double(0)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_yield_noon_double_matches_simulation(n):
    res = run_scheme_double(n)
    np.testing.assert_allclose(res.total_yield, yield_noon_double(n),
                               rtol=1e-9)


def test_yield_noon_double_enhancement():
    for n in (2, 4, 6, 8, 10):
        np.testing.assert_allclose(
            yield_noon_double(n) / yield_noon_single(n), 2.0 ** n, rtol=1e-12
        )


def test_four_photon_protocol_comparison():
    # the doubled four-photon scheme beats the older 3/64 figure by 4x
    np.testing.assert_allclose(yield_noon_double(4) / (3.0 / 64.0), 4.0,
                               rtol=1e-12)


def test_yield_noon_double_linear_form():
    np.testing.assert_allclose(yield_noon_double_linear(4), 0.09375,
                               rtol=1e-12)
    # agrees with the factorial form at n=2 but diverges from n=4 on
    np.testing.assert_allclose(yield_noon_double_linear(2),
                               yield_noon_double(2), rtol=1e-12)
    assert yield_noon_double_linear(4) != pytest.approx(yield_noon_double(4))


def test_yield_stirling_approximation():
    for n in range(12, 25):
        assert rel_err(yield_stirling(n), yield_noon_single(n)) <= 0.05
    assert rel_err(yield_stirling(20), yield_noon_single(20)) <= 0.01


def test_yield_table_structure():
    rows = yield_table(6)
    assert len(rows) == 6
    assert [r.n_photons for r in rows] == list(range(1, 7))
    for r in rows:
        assert isinstance(r, YieldRow)
        np.testing.assert_allclose(r.p_single,
                                   yield_noon_single(r.n_photons), rtol=1e-12)
        if r.n_photons % 2 == 0:
            np.testing.assert_allclose(r.p_double,
                                       yield_noon_double(r.n_photons),
                                       rtol=1e-12)
            np.testing.assert_allclose(r.double_over_single,
                                       2.0 ** r.n_photons, rtol=1e-12)
        else:
            assert r.p_double is None
            assert r.double_over_single is None


def test_yield_table_validation():
    with pytest.raises(ValueError):
        yield_table(0)


def test_optimal_schedule():
    np.testing.assert_allclose(optimal_schedule(4),
                               [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-15)
    with pytest.raises(ValueError):
        optimal_schedule(0)
