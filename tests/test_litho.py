import math

import numpy as np
import pytest

from pathent.blocks import run_scheme, run_scheme_unconditional
from pathent.factorize import factorize_target, noon_target
from pathent.fock import (
    TwoModeDensity,
    basis_state,
    noon_state,
    phase_shift,
    vacuum,
)
from pathent.litho import (
    FringeSweep,
    absorption_rate_mixed,
    absorption_rate_pure,
    dominant_fringe_frequency,
    fringe_sweep,
)
from pathent.yields import yield_noon_single
from helpers import random_two_mode_state


def test_rate_two_photons_one_mode():
    # (a+b)^2 |2,0> / sqrt(2!) has norm 1: e†e cross terms included
    np.testing.assert_allclose(absorption_rate_pure(basis_state(2, 2, 0), 2),
                               1.0, rtol=1e-12)


def test_rate_vacuum_is_zero():
    assert absorption_rate_pure(vacuum(2), 2) == 0.0
    assert absorption_rate_pure(vacuum(0), 1) == 0.0


def test_rate_low_sectors_vanish_exactly():
    # fewer photons than the absorber order leaves nothing
    assert absorption_rate_pure(basis_state(3, 1, 1), 3) <= 1e-14
    assert absorption_rate_pure(noon_state(2), 3) <= 1e-14


def test_rate_validation():
    with pytest.raises(ValueError):
        absorption_rate_pure(vacuum(2), 0)
    with pytest.raises(ValueError):
        absorption_rate_mixed(TwoModeDensity.from_state(vacuum(2)), 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_noon_zero_phase_rate(n):
    np.testing.assert_allclose(absorption_rate_pure(noon_state(n), n), 2.0,
                               rtol=1e-9)


def test_noon2_interference_pattern():
    for phi in np.linspace(0.0, 2.0 * math.pi, 9):
        shifted = phase_shift(noon_state(2), phi, mode="b")
        rate = absorption_rate_pure(shifted, 2)
        np.testing.assert_allclose(rate, 1.0 + math.cos(2.0 * phi),
                                   atol=1e-9)


def test_mixed_rate_matches_pure_on_pure_density():
    rng = np.random.default_rng(5)
    for _ in range(5):
        s = random_two_mode_state(rng, 4)
        rho = TwoModeDensity.from_state(s)
        np.testing.assert_allclose(
            absorption_rate_mixed(rho, 2), absorption_rate_pure(s, 2),
            rtol=1e-9, atol=1e-12,
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unconditional_rate_scales_with_yield(n):
    """An n-photon absorber postselects the successful branch for free."""
    fs = factorize_target(noon_target(n))
    rho = run_scheme_unconditional(fs)
    res = run_scheme(fs)
    pure = absorption_rate_pure(res.final_state, n)
    np.testing.assert_allclose(absorption_rate_mixed(rho, n),
                               res.total_yield * pure, rtol=1e-9)
    np.testing.assert_allclose(absorption_rate_mixed(rho, n),
                               yield_noon_single(n) * 2.0, rtol=1e-9)


def test_failed_branches_are_dark():
    fs = factorize_target(noon_target(3))
    rho = run_scheme_unconditional(fs)
    res = run_scheme(fs)
    failed = TwoModeDensity(
        rho.cutoff,
        rho.mat - res.total_yield * np.outer(res.final_state.amps,
                                             res.final_state.amps.conj()),
    )
    assert absorption_rate_mixed(failed, 3) <= 1e-12


def test_fringe_sweep_basic_fields():
    sweep = fringe_sweep(noon_state(2), 2, 16)
    assert isinstance(sweep, FringeSweep)
    assert sweep.n_absorb == 2
    assert len(sweep.phases) == 16 and len(sweep.rates) == 16
    np.testing.assert_allclose(sweep.phases[1], 2.0 * math.pi / 16.0)
    assert all(r >= -1e-12 for r in sweep.rates)


@pytest.mark.parametrize("n,points", [(2, 64), (4, 64), (3, 32), (6, 64)])
def test_noon_fringe_frequency(n, points):
    sweep = fringe_sweep(noon_state(n), n, points)
    assert dominant_fringe_frequency(sweep) == n
    np.testing.assert_allclose(max(sweep.rates), 2.0, rtol=1e-9)
    if points % (2 * n) == 0:
        # the grid lands on a null, so full contrast is visible exactly
        np.testing.assert_allclose(min(sweep.rates), 0.0, atol=1e-9)
    np.testing.assert_allclose(sweep.rates,
                               1.0 + np.cos(n * sweep.phases), atol=1e-9)


def test_single_photon_state_is_flat():
    # |1,0> carries no path superposition, so the fringe has no modulation
    sweep = fringe_sweep(basis_state(1, 1, 0), 1, 32)
    assert max(sweep.rates) - min(sweep.rates) < 1e-14
    assert dominant_fringe_frequency(sweep) == 0


def test_balanced_single_photon_oscillates_once():
    plus = (basis_state(1, 1, 0) + basis_state(1, 0, 1)) / math.sqrt(2.0)
    sweep = fringe_sweep(plus, 1, 32)
    assert dominant_fringe_frequency(sweep) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_fringe_sweep_matches_per_phase_rates_bit_for_bit(n):
    state = random_two_mode_state(np.random.default_rng(n), 8)
    sweep = fringe_sweep(state, n, 33)
    per_phase = [absorption_rate_pure(phase_shift(state, float(phi), mode="b"), n)
                 for phi in sweep.phases]
    assert np.array_equal(sweep.rates, per_phase)


def test_fringe_sweep_validation():
    with pytest.raises(ValueError):
        fringe_sweep(noon_state(2), 2, 1)
    with pytest.raises(ValueError):
        fringe_sweep(noon_state(2), 0, 16)


def test_dominant_frequency_of_constant_is_zero():
    sweep = FringeSweep(1, tuple(np.linspace(0, 6, 8)), (1.0,) * 8)
    assert dominant_fringe_frequency(sweep) == 0
