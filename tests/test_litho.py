import math

import numpy as np
import pytest

from pathent.blocks import run_scheme, run_scheme_unconditional
from pathent.factorize import factorize_target, noon_target
from pathent.fock import (
    TwoModeDensity,
    _basis,
    basis_state,
    dim2,
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
from helpers import (
    absorption_rate_dense,
    needs_long_double,
    random_target,
    random_two_mode_state,
    reference_fringe,
    reference_lower,
)


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
    rho = TwoModeDensity.from_state(vacuum(2))
    for n_absorb in (0, -1):
        with pytest.raises(ValueError):
            absorption_rate_mixed(rho, n_absorb)


@pytest.mark.parametrize("state", [vacuum(0), noon_state(2)])
@pytest.mark.parametrize("n_absorb", [0, -1])
def test_pure_rate_and_fringe_reject_an_absorber_order_below_one(
        state, n_absorb):
    with pytest.raises(ValueError, match="n_absorb"):
        absorption_rate_pure(state, n_absorb)
    with pytest.raises(ValueError, match="n_absorb"):
        fringe_sweep(state, n_absorb, 16)


@pytest.mark.parametrize("order,points", [(2.0, 16.0), (True, True),
                                          ("2", "16")], ids=repr)
def test_rates_and_fringe_reject_a_non_integer_order_or_point_count(
        order, points):
    # the fringe reduces n_b p modulo the point count as an integer
    state = noon_state(2)
    rho = TwoModeDensity.from_state(state)
    for run, name, bad in [
            (lambda: absorption_rate_pure(state, order), "n_absorb", order),
            (lambda: absorption_rate_mixed(rho, order), "n_absorb", order),
            (lambda: fringe_sweep(state, order, 16), "n_absorb", order),
            (lambda: fringe_sweep(state, 2, points), "n_points", points)]:
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == f"{name} must be an integer, got {bad!r}"


def _reference_rate(amps, cutoff, n):
    v = reference_lower(amps, cutoff, n)
    return np.vdot(v, v).real / math.factorial(n)


@pytest.mark.parametrize("cutoff", range(9))
def test_rates_match_the_whole_simplex_lowering(cutoff):
    # Sector by sector, the rate sums its sectors' norms separately, so it
    # agrees with one norm of the whole lowered simplex to rounding.
    rng = np.random.default_rng(600 + cutoff)
    state = random_two_mode_state(rng, cutoff)
    for n in range(1, cutoff + 2):
        want = _reference_rate(state.amps, cutoff, n)
        got = absorption_rate_pure(state, n)
        assert abs(got - want) <= 1e-15 * want


@needs_long_double
@pytest.mark.parametrize("cutoff", range(9))
def test_fringe_rates_match_the_long_double_reference(cutoff):
    # The states of the test above, every absorber order up to one past
    # the cutoff (an exactly dark fringe), relative to each sample's rate.
    rng = np.random.default_rng(600 + cutoff)
    state = random_two_mode_state(rng, cutoff)
    for n in range(1, cutoff + 2):
        for points, tol in ((9, 2.2e-15), (64, 4e-15)):
            got = fringe_sweep(state, n, points).rates
            want = reference_fringe(state, n, points)
            assert np.all(np.abs(got - want) <= tol * want)


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
    # Multi-sector states, whose coherences between sectors from_state
    # drops, at every absorber order up to one past the cutoff.
    rng = np.random.default_rng(5)
    for cutoff in range(9):
        s = random_two_mode_state(rng, cutoff)
        rho = TwoModeDensity.from_state(s)
        for n in range(1, cutoff + 2):
            np.testing.assert_allclose(
                absorption_rate_mixed(rho, n), absorption_rate_pure(s, n),
                rtol=1e-9, atol=1e-12,
            )


@pytest.mark.parametrize("cutoff", range(1, 9))
def test_mixed_rate_matches_dense_matrix_power(cutoff):
    # Random densities with coherences between every pair of sectors and
    # weight in every sector, at every absorber order up to one past the
    # cutoff, where nothing can be absorbed.  The reference reads the
    # whole matrix; the rate gets only its sector blocks, so dropping the
    # coherences must leave the rate unchanged.
    rng = np.random.default_rng(80 + cutoff)
    d = dim2(cutoff)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = g @ g.conj().T
    mat = g / np.trace(g).real
    (na, nb), _ = _basis(2, cutoff)
    rho = TwoModeDensity(
        cutoff, np.where((na + nb)[:, None] == na + nb, mat, 0.0))
    for n in range(1, cutoff + 2):
        got = absorption_rate_mixed(rho, n)
        want = absorption_rate_dense(cutoff, mat, n)
        assert abs(got - want) <= 1e-12 * abs(want) + 1e-15
    assert absorption_rate_mixed(rho, cutoff + 1) == 0.0


@pytest.mark.parametrize("cutoff", [3, 5, 9])
def test_mixed_rate_of_a_mixture_is_the_weighted_pure_rates(cutoff):
    rng = np.random.default_rng(90 + cutoff)
    states = [random_two_mode_state(rng, cutoff) for _ in range(4)]
    weights = rng.dirichlet(np.ones(4))
    rho = TwoModeDensity.from_sectors(sum(
        w * TwoModeDensity.from_state(s).blocks
        for w, s in zip(weights, states)))
    for n in range(1, cutoff + 1):
        want = sum(w * absorption_rate_pure(s, n)
                   for w, s in zip(weights, states))
        assert abs(absorption_rate_mixed(rho, n) - want) <= 1e-12 * want


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
    success = TwoModeDensity.from_state(res.final_state)
    failed = TwoModeDensity.from_sectors(
        rho.blocks - res.total_yield * success.blocks)
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


@needs_long_double
@pytest.mark.parametrize("n", range(1, 9))
def test_noon_fringe_matches_the_exactly_reduced_reference(n):
    # 1 + cos(2 pi (n p mod P) / P) at every sample; multiplying the
    # rounded phase 2 pi p / P by n is off by up to 9.4e-15 on these grids
    state = noon_state(n)
    for points in (2, 3, 8, 9, 16, 17, 33, 64, 1000, 4099, 65536):
        got = fringe_sweep(state, n, points).rates
        want = reference_fringe(state, n, points)
        assert np.max(np.abs(got - want)) <= 2e-15


def test_fringe_sweep_validation():
    with pytest.raises(ValueError):
        fringe_sweep(noon_state(2), 2, 1)
    with pytest.raises(ValueError):
        fringe_sweep(noon_state(2), 0, 16)


def test_dominant_frequency_of_constant_is_zero():
    sweep = FringeSweep(1, tuple(np.linspace(0, 6, 8)), (1.0,) * 8)
    assert dominant_fringe_frequency(sweep) == 0


@pytest.mark.parametrize("n", [3, 8, 16, 32])
def test_exposure_is_a_product_of_one_photon_fringes(n):
    # The heralded yield at T_k = 1/k times the N-photon rate of the chain's
    # state is E(phi) = N! N^-N prod_k |cos theta_k - e^{i(phi_k + phi)}
    # sin theta_k|^2, a closed form of the factors alone (ROADMAP item
    # 21(a)): an oracle of the chain that shares none of its code.  With the
    # conjugate phase e^{i(phi_k - phi)} the product is 0.47-0.92 off, so
    # the sign convention is pinned too.
    fs = factorize_target(random_target(np.random.default_rng(3), n))
    result = run_scheme(fs)
    sweep = fringe_sweep(result.final_state, n, 64)
    exposure = result.total_yield * sweep.rates
    theta, phi = np.array(fs.factors).T
    scale = math.factorial(n) / n ** n

    def product(sign):
        shifted = np.exp(1j * (phi[:, None] + sign * sweep.phases))
        return scale * np.prod(np.abs(np.cos(theta)[:, None]
                                      - shifted * np.sin(theta)[:, None])
                               ** 2, axis=0)

    top = exposure.max()
    assert np.abs(exposure - product(1)).max() <= 1e-12 * top
    assert np.abs(exposure - product(-1)).max() >= 0.4 * top
