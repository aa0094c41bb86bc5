import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import pathent
from pathent.blocks import (
    BlockParams,
    _block_weights,
    _channel_block,
    _double_coeffs,
    _double_table,
    _mixing,
    _single_coeffs,
    _single_table,
    _splitter_entries,
    _transfer_table,
    amplitude_factor_double,
    amplitude_factor_single,
    ancilla_double,
    ancilla_single,
    noon_double_phases,
    run_block_double,
    run_block_single,
    run_scheme,
    run_scheme_double,
    run_scheme_unconditional,
)
from pathent.factorize import (
    factorize_target,
    noon_factor_angles,
    noon_target,
    state_of_target,
)
from pathent.fock import (
    TwoModeDensity,
    _basis,
    _sector_state,
    apply_linear_factor,
    basis_state,
    is_photon_number_eigenstate,
    noon_state,
    overlap_fidelity,
    dim2,
    vacuum,
    with_cutoff,
    zero_state,
)
from pathent.yields import optimal_schedule, qk_squared, yield_generic
from helpers import (
    MIX_KAPPAS,
    apply_double_factor,
    oracle_outcomes,
    random_eigenstate,
    random_target,
    random_two_mode_state,
    reference_block_double,
    reference_block_single,
    reference_block_weights,
    reference_chain,
    reference_channel_sectors,
    reference_double_table,
    reference_run_chain,
    reference_sector_index,
    reference_single_table,
    reference_splitter_entries,
    reference_transfer_table,
    rel_err,
    sector_eigh,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_block_params_validation():
    p = BlockParams(0.3, 1.0, 0.25)
    np.testing.assert_allclose(p.kappa, math.asin(0.5))
    with pytest.raises(ValueError):
        BlockParams(0.3, 1.0, 0.0)
    with pytest.raises(ValueError):
        BlockParams(0.3, 1.0, 1.2)
    with pytest.raises(ValueError):
        BlockParams(-0.1, 1.0, 0.5)
    with pytest.raises(ValueError):
        BlockParams(2.0, 1.0, 0.5)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phi"):
            BlockParams(0.3, phi, 0.5)
    with pytest.raises(ValueError, match="phi"):
        run_block_double(vacuum(0), math.nan, 0.5)


def test_ancilla_single_closed_form():
    s = ancilla_single(0.0, 0.7)
    np.testing.assert_allclose(s.amplitude(1, 0), 1.0)

    s = ancilla_single(math.pi / 2.0, 0.0)
    np.testing.assert_allclose(s.amplitude(0, 1), -1.0)
    np.testing.assert_allclose(abs(s.amplitude(1, 0)), 0.0, atol=1e-15)

    s = ancilla_single(math.pi / 4.0, math.pi)
    np.testing.assert_allclose(s.amplitude(1, 0), INV_SQRT2)
    np.testing.assert_allclose(s.amplitude(0, 1), INV_SQRT2, rtol=1e-12)


@pytest.mark.parametrize("theta,phi", [(0.3, -2.0), (1.1, 0.4), (0.8, 3.0)])
def test_ancilla_single_general(theta, phi):
    s = ancilla_single(theta, phi)
    np.testing.assert_allclose(s.amplitude(1, 0), math.cos(theta), rtol=1e-12)
    np.testing.assert_allclose(
        s.amplitude(0, 1), -np.exp(1j * phi) * math.sin(theta), rtol=1e-12
    )
    np.testing.assert_allclose(s.norm_sq(), 1.0, rtol=1e-12)


@pytest.mark.parametrize("phi", [0.0, 0.7, -2.5, math.pi])
def test_ancillas_are_exactly_their_closed_forms(phi):
    for theta in (0.0, 0.3, math.pi / 4.0, 1.2, math.pi / 2.0):
        s = ancilla_single(theta, phi)
        assert s.cutoff == 1 and s.amplitude(0, 0) == 0
        assert s.amplitude(1, 0) == math.cos(theta)
        assert s.amplitude(0, 1) == -np.exp(1j * phi) * math.sin(theta)
    s = ancilla_double(phi)
    assert s.cutoff == 2
    assert s.amplitude(2, 0) == math.sqrt(0.5)
    assert s.amplitude(0, 2) == -np.exp(2j * phi) * math.sqrt(0.5)
    assert s.amplitude(1, 1) == 0
    assert np.count_nonzero(s.amps) == 2


def test_blocks_run_no_public_splitter(monkeypatch):
    def refuse(*args):
        raise AssertionError("the two-mode sector exponential ran")

    monkeypatch.setattr(pathent.fock, "_sector_eigh", refuse)
    monkeypatch.setattr(pathent.fock, "_sector_blocks", refuse)
    assert not run_scheme(noon_factor_angles(4)).impossible
    assert not run_scheme_double(4).impossible
    run_scheme_unconditional(noon_factor_angles(3)).validate()


def test_ancilla_double_closed_form():
    # pair bunching on the balanced splitter, then the phase shifter
    s = ancilla_double(0.0)
    np.testing.assert_allclose(s.amplitude(2, 0), INV_SQRT2, rtol=1e-12)
    np.testing.assert_allclose(s.amplitude(0, 2), -INV_SQRT2, rtol=1e-12)
    np.testing.assert_allclose(s.amplitude(1, 1), 0.0, atol=1e-15)

    for phi in np.linspace(-3.0, 3.0, 7):
        s = ancilla_double(phi)
        np.testing.assert_allclose(s.norm_sq(), 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            s.amplitude(0, 2), -np.exp(2j * phi) * INV_SQRT2, rtol=1e-12
        )


def test_block_on_vacuum_full_transfer():
    theta, phi = 0.9, -1.3
    out = run_block_single(vacuum(0), BlockParams(theta, phi, 1.0))
    np.testing.assert_allclose(out.probability, 1.0, rtol=1e-12)
    expected = apply_linear_factor(vacuum(1), theta, phi)
    np.testing.assert_allclose(out.state.amps, expected.amps, atol=1e-12)


def test_block_on_vacuum_balanced():
    out = run_block_single(vacuum(0), BlockParams(math.pi / 4.0, 0.0, 1.0))
    np.testing.assert_allclose(out.probability, 1.0, rtol=1e-12)
    np.testing.assert_allclose(out.state.amplitude(1, 0), INV_SQRT2, rtol=1e-12)
    np.testing.assert_allclose(out.state.amplitude(0, 1), -INV_SQRT2, rtol=1e-12)


def test_block_probability_is_norm_sq():
    rng = np.random.default_rng(31)
    for _ in range(10):
        k = int(rng.integers(1, 6))
        s = random_eigenstate(rng, k - 1)
        out = run_block_single(
            s, BlockParams(rng.uniform(0, math.pi / 2),
                           rng.uniform(-math.pi, math.pi),
                           rng.uniform(0.1, 1.0))
        )
        assert abs(out.probability - out.state.norm_sq()) < 1e-12


def test_block_closed_form_amplitude():
    """Dark-ancilla branch = q_k x (photon-adding factor on the input)."""
    rng = np.random.default_rng(8)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.05, 1.0)
        s = random_eigenstate(rng, k - 1)
        out = run_block_single(s, BlockParams(theta, phi, t))
        q_k = amplitude_factor_single(k, t)
        expected = q_k * apply_linear_factor(with_cutoff(s, k), theta, phi)
        assert np.abs(out.state.amps - expected.amps).max() < 1e-9


def test_block_outcomes_complete():
    rng = np.random.default_rng(9)
    s = random_eigenstate(rng, 3)
    params = BlockParams(0.7, 0.2, 0.4)
    out = oracle_outcomes(s, ancilla_single(params.theta, params.phi),
                          params.kappa)
    total = 0.0
    for nc in range(5):
        for nd in range(5 - nc):
            total += np.vdot(out[nc, nd], out[nc, nd]).real
    assert abs(total - 1.0) < 1e-12


def test_double_block_on_vacuum():
    phi = 0.6
    out = run_block_double(vacuum(0), phi, 1.0)
    np.testing.assert_allclose(out.probability, 1.0, rtol=1e-12)
    np.testing.assert_allclose(out.state.amplitude(2, 0), INV_SQRT2, rtol=1e-12)
    np.testing.assert_allclose(
        out.state.amplitude(0, 2), -np.exp(2j * phi) * INV_SQRT2, rtol=1e-12
    )


def test_double_block_outcome_enumeration_at_t1():
    # with full transmittance every outcome except dark-dark is empty
    out = oracle_outcomes(vacuum(0), ancilla_double(0.3), math.pi / 2.0)
    probs = {}
    for nc in range(3):
        for nd in range(3 - nc):
            probs[(nc, nd)] = np.vdot(out[nc, nd], out[nc, nd]).real
    np.testing.assert_allclose(probs[(0, 0)], 1.0, rtol=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_double_block_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        phi = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.05, 1.0)
        s = random_eigenstate(rng, 2 * (k - 1))
        out = run_block_double(s, phi, t)
        r_k = amplitude_factor_double(k, t)
        expected = r_k * apply_double_factor(with_cutoff(s, 2 * k), phi)
        assert np.abs(out.state.amps - expected.amps).max() < 1e-9


def test_amplitude_factor_values():
    np.testing.assert_allclose(amplitude_factor_single(1, 1.0), 1.0)
    np.testing.assert_allclose(amplitude_factor_single(2, 0.5), 0.5)
    np.testing.assert_allclose(amplitude_factor_double(1, 1.0), 0.5)
    assert amplitude_factor_single(2, 1.0) == 0.0
    assert amplitude_factor_single(3, 0.0) == 0.0
    for factor in (amplitude_factor_single, amplitude_factor_double):
        with pytest.raises(ValueError, match="k must be >= 1"):
            factor(0, 0.5)
        for t in (-0.1, 1.5, 2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"transmittance outside \[0, 1\]"):
                factor(2, t)


def test_scheme_noon2():
    res = run_scheme(noon_factor_angles(2))
    np.testing.assert_allclose(res.total_yield, 0.25, rtol=1e-12)
    assert overlap_fidelity(res.final_state, noon_state(2)) >= 1.0 - 1e-9
    assert is_photon_number_eigenstate(res.final_state) == 2
    np.testing.assert_allclose(math.prod(res.block_probs), res.total_yield,
                               rtol=1e-12)


def test_scheme_random_target_fidelity():
    rng = np.random.default_rng(4)
    t = random_target(rng, 3)
    fs = factorize_target(t)
    res = run_scheme(fs)
    assert overlap_fidelity(res.final_state, state_of_target(t)) >= 1.0 - 1e-9
    np.testing.assert_allclose(res.total_yield,
                               yield_generic(fs.normalization, 3), rtol=1e-9)


def test_scheme_yield_factorizes_over_blocks():
    rng = np.random.default_rng(21)
    t = random_target(rng, 4)
    fs = factorize_target(t)
    ts = rng.uniform(0.1, 0.9, size=4)
    res = run_scheme(fs, ts)
    expected = fs.normalization * math.prod(
        qk_squared(tk, k) for k, tk in enumerate(ts, start=1)
    )
    np.testing.assert_allclose(res.total_yield, expected, rtol=1e-9)


def test_scheme_factor_order_invariance():
    rng = np.random.default_rng(6)
    t = random_target(rng, 4)
    fs = factorize_target(t)
    res = run_scheme(fs)
    perm = list(fs.factors)
    rng.shuffle(perm)
    res_p = run_scheme(perm)
    assert abs(res.total_yield - res_p.total_yield) < 1e-12
    assert overlap_fidelity(res.final_state, res_p.final_state) >= 1.0 - 1e-9


def test_scheme_impossible_conditioning():
    # T=1 empties the k=1 splitter, so any later block can't stay dark
    for n, double in ((3, False), (8, False), (8, True)):
        if double:
            res = run_scheme_double(n, transmittances=[1.0] * (n // 2))
        else:
            res = run_scheme(noon_factor_angles(n), [1.0] * n)
        assert res.impossible
        assert res.total_yield == 0.0
        np.testing.assert_allclose(res.block_probs[0], 1.0, atol=1e-12)
        assert res.block_probs[1:] == (0.0,) * (len(res.block_probs) - 1)
        assert res.final_state.cutoff == n
        assert res.final_state.norm_sq() == 0.0


def test_scheme_input_validation():
    # the first failing check names itself: photon number, phase count,
    # factor count, then schedule length
    for run, message in [
        (lambda: run_scheme([]), "need at least one factor"),
        (lambda: run_scheme_unconditional([], []), "need at least one factor"),
        (lambda: run_scheme(noon_factor_angles(3), [0.5, 0.5]),
         "need 3 transmittances, got 2"),
        (lambda: run_scheme_double(0, []),
         "doubled scheme needs an even photon number >= 2"),
        (lambda: run_scheme_double(4, [], []), "need 2 phases, got 0"),
        (lambda: run_scheme_double(4, [0.1, math.nan], [0.5]),
         "need 2 transmittances, got 1"),
    ]:
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message


@pytest.mark.parametrize("theta,phi,t,message", [
    (-0.1, 0.1, 0.5, "theta -0.1 outside [0, pi/2]"),
    (2.0, 0.1, 0.5, "theta 2.0 outside [0, pi/2]"),
    (0.3, math.nan, 0.5, "phi nan is not finite"),
    (0.3, -math.inf, 0.5, "phi -inf is not finite"),
    (0.3, 0.1, 0.0, "transmittance 0.0 outside (0, 1]"),
    (0.3, 0.1, 1.5, "transmittance 1.5 outside (0, 1]"),
    (0.3, 0.1, math.nan, "transmittance nan outside (0, 1]"),
])
def test_chains_reject_a_block_with_its_block_params_error(theta, phi, t,
                                                           message):
    # The chains check each block's floats and build a BlockParams only to
    # raise for the first block out of range; a later bad block is not
    # reached.  The ancilla builders and the public blocks raise the same
    # error for the one block they take; the ancillas have no splitter.
    factors = [(0.2, 0.1), (theta, phi), (0.4, -0.3), (3.0, math.inf)]
    ts = [0.5, t, 0.25, 2.0]
    runs = [lambda: run_scheme(factors, ts),
            lambda: run_scheme_unconditional(factors, ts),
            lambda: run_block_single(vacuum(0), BlockParams(theta, phi, t))]
    if t == 0.5:
        runs.append(lambda: ancilla_single(theta, phi))
    if theta == 0.3:  # the doubled blocks fix theta at pi/4
        runs.append(lambda: run_scheme_double(8, [0.1, phi, -0.3, math.inf],
                                              ts))
        runs.append(lambda: run_block_double(vacuum(0), phi, t))
        if t == 0.5:
            runs.append(lambda: ancilla_double(phi))
    for run in runs:
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message


def test_noon_double_phases_pairing():
    phis = noon_double_phases(4)
    np.testing.assert_allclose(sorted(phis), [math.pi / 4, 3 * math.pi / 4])
    full = sorted(phi for _, phi in noon_factor_angles(4))
    paired = sorted(
        [p for p in phis]
        + [((p + math.pi + math.pi) % (2 * math.pi)) - math.pi for p in phis]
    )
    np.testing.assert_allclose(paired, full, atol=1e-12)
    with pytest.raises(ValueError):
        noon_double_phases(3)


def test_scheme_double_noon2():
    res = run_scheme_double(2)
    np.testing.assert_allclose(res.total_yield, 1.0, rtol=1e-12)
    np.testing.assert_allclose(res.final_state.amps, noon_state(2).amps,
                               atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_scheme_double_ratio(n):
    single = run_scheme(noon_factor_angles(n)).total_yield
    double = run_scheme_double(n).total_yield
    np.testing.assert_allclose(double / single, 2.0 ** n, rtol=1e-9)


def test_scheme_double_validation():
    with pytest.raises(ValueError):
        run_scheme_double(3)
    with pytest.raises(ValueError):
        run_scheme_double(4, phis=[0.1])
    with pytest.raises(ValueError):
        run_scheme_double(4, transmittances=[1.0])


def test_scheme_double_eigenvalue():
    res = run_scheme_double(4)
    assert is_photon_number_eigenstate(res.final_state) == 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unconditional_density_structure(n):
    rng = np.random.default_rng(100 + n)
    t = random_target(rng, n)
    fs = factorize_target(t)
    rho = run_scheme_unconditional(fs)
    rho.validate()
    assert abs(rho.trace() - 1.0) < 1e-12

    res = run_scheme(fs)
    success = res.total_yield * np.outer(res.final_state.amps,
                                         res.final_state.amps.conj())
    assert np.abs(rho.sector(n) - success).max() < 1e-9

    # everything else lives strictly below n photons
    complement = rho.blocks.copy()
    complement[n] = 0.0
    comp = TwoModeDensity.from_sectors(complement)
    assert comp.sector_weight(n) < 1e-12
    assert abs(comp.trace() - (1.0 - res.total_yield)) < 1e-9


def test_unconditional_density_noon3_weights():
    rho = run_scheme_unconditional(factorize_target(noon_target(3)))
    weights = [rho.sector_weight(m) for m in range(4)]
    np.testing.assert_allclose(sum(weights), 1.0, atol=1e-12)
    np.testing.assert_allclose(weights[3], 1.0 / 18.0, rtol=1e-9)


@pytest.mark.parametrize("cutoff", [16, 32, 64, 128])
def test_splitter_entries_match_sector_eigh(cutoff):
    # Every v[j, o, n] = <o, n| exp(kappa G) |m - j, j>, j <= 2, against the
    # exponential of G restricted to sector m = o + n, from its eigenpairs.
    for kappa in MIX_KAPPAS + [math.asin(math.sqrt(0.995))]:
        v = _splitter_entries(cutoff, math.cos(kappa), math.sin(kappa), 2)
        want = np.zeros((3, cutoff + 1, cutoff + 1), dtype=complex)
        for m in range(cutoff + 1):
            lam, vec = sector_eigh(m)
            n = np.arange(m + 1)
            # columns j = 0..min(m, 2) of vec diag(exp(-i kappa lam)) vec^dagger
            want[:m + 1, m - n, n] = ((vec * np.exp(-1j * kappa * lam))
                                      @ vec[:3].conj().T).T
        assert np.abs(want.imag).max() < 1e-12
        assert np.abs(v - want.real).max() < 1e-12, kappa


def _log_noon_yield(n, ts):
    """log of N prod_k T_k (1 - T_k)^{k-1}, with N = 2^{1-n} n! for NOON."""
    return ((1 - n) * math.log(2.0) + math.lgamma(n + 1)
            + sum(math.log(t) + (k - 1) * math.log1p(-t)
                  for k, t in enumerate(ts, start=1)))


@pytest.mark.parametrize("n, t", [(24, 0.97), (40, 0.9)])
def test_scheme_at_high_transmittance(n, t):
    # Far above the optimal T_k = 1/k the yield underflows, so it is
    # compared in log space, block by block.
    res = run_scheme(noon_factor_angles(n), [t] * n)
    assert abs(overlap_fidelity(res.final_state, noon_state(n)) - 1.0) < 1e-12
    log_yield = sum(math.log(p) for p in res.block_probs)
    assert abs(log_yield - _log_noon_yield(n, [t] * n)) < 1e-9


def test_unconditional_top_sector_at_high_transmittance():
    rng = np.random.default_rng(24)
    fs = factorize_target(random_target(rng, 24))
    rho = run_scheme_unconditional(fs, [0.9] * 24)
    expected = fs.normalization * math.prod(
        qk_squared(0.9, k) for k in range(1, 25))
    assert rel_err(rho.sector_weight(24), expected) < 1e-9


def _reference_block(rho: TwoModeDensity,
                     params: BlockParams) -> TwoModeDensity:
    """One unconditioned block by the textbook route, eigenvector by
    eigenvector of each sector block, tracing out every ancilla outcome.

    Sector m goes to the kets of cutoff m + 1, which lead every larger
    cutoff's, so each outcome's outer product lands in the top-left corner.
    """
    anc = ancilla_single(params.theta, params.phi)
    mat = np.zeros((dim2(rho.cutoff + 1),) * 2, dtype=complex)
    for m in range(rho.cutoff + 1):
        weights, vecs = np.linalg.eigh(rho.block(m))
        for w, vec in zip(weights, vecs.T):
            out = oracle_outcomes(_sector_state(vec), anc, params.kappa)
            d = out.shape[-1]
            pieces = out.reshape(-1, d)
            mat[:d, :d] += w * (pieces.T @ pieces.conj())
    return TwoModeDensity(rho.cutoff + 1, mat)


def _reference_channel(factors, transmittances) -> TwoModeDensity:
    """The unconditioned chain by the textbook route, block by block."""
    rho = TwoModeDensity(0, np.ones((1, 1)))
    for (theta, phi), t in zip(factors, transmittances):
        rho = _reference_block(rho, BlockParams(theta, phi, t))
    return rho


def _by_offset(rho: TwoModeDensity) -> np.ndarray:
    """r[d + k, s, t] = <s, t| rho |s - d, t + d>, zero off the simplex."""
    k = rho.cutoff
    (na, nb), _ = _basis(2, k)
    r = np.zeros((2 * k + 1, k + 1, k + 1), dtype=complex)
    for i, i_ket in zip(*np.nonzero((na + nb)[:, None] == na + nb)):
        r[na[i] - na[i_ket] + k, na[i], nb[i]] = rho.mat[i, i_ket]
    return r


# The per-mode transfer products against the independent textbook route, the
# dense-exponential oracle, at the swap T = 1 and at T = 0.8 and 0.2.
@pytest.mark.parametrize("transmittance", [1.0, 0.8, 0.2])
def test_channel_block_matches_ket_by_ket_route(transmittance):
    # One block on a random positive semidefinite rho, block-diagonal over
    # the sectors m <= 6, against the textbook route through the four-mode
    # state; the splitter entries come at the block's cutoff and above it,
    # as in a chain.
    rng = np.random.default_rng(70)
    params = BlockParams(0.7, -1.1, transmittance)
    anc = ancilla_single(params.theta, params.phi)
    amps = np.array([anc.amplitude(0, 1), anc.amplitude(1, 0)])
    k = 6
    mat = np.zeros((dim2(k),) * 2, dtype=complex)
    (na, nb), _ = _basis(2, k)
    for m in range(k + 1):
        g = (rng.standard_normal((m + 1, m + 1))
             + 1j * rng.standard_normal((m + 1, m + 1)))
        block = g @ g.conj().T
        mat[np.ix_(na + nb == m, na + nb == m)] = (
            block / np.trace(block).real / (k + 1))
    rho = TwoModeDensity(k, mat)
    rho.validate()
    want = _by_offset(_reference_block(rho, params))
    for cutoff in (k + 1, k + 4):
        v = _splitter_entries(cutoff, *params.cos_sin, 1)
        # returned in (t, s) order: the mode-swapped state's by offset,
        # with its offset axis reversed
        got = _channel_block(_by_offset(rho), v,
                             amps[:, None] * amps.conj()).swapaxes(1, 2)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-14
        assert abs(got[k + 1].sum() - rho.trace()) < 1e-12


@pytest.mark.parametrize("size", [1, 2, 9, 17])
def test_strided_views_read_what_the_index_gathers_read(size, monkeypatch):
    # The channel's transfer table and the block weights' second factor
    # are strided views; here against the index gathers they replace.
    rng = np.random.default_rng(90 + size)
    ts = [1.0, 0.8, float(rng.uniform(0.05, 1.0))]
    for t in ts:
        for cutoff in (size + 1, size + 4):
            v = _splitter_entries(cutoff, *_mixing([t]), 1)[:, 0]
            got = _transfer_table(v, size)
            want = reference_transfer_table(v, size)
            # The same values; where a factor reads a padding zero, the
            # product may be -0.0 where the gather has +0.0 * +0.0, and
            # nowhere else do the bytes differ.
            assert got.shape == want.shape and np.array_equal(got, want)
            sign = np.signbit(got) != np.signbit(want)
            assert not got[sign].any() and not np.signbit(want[sign]).any()
    # With a matmul that starts each sum from +0, as numpy's and OpenBLAS's
    # do, no product reads that sign: whole channels, every block at a
    # cutoff above its own, give the same bytes through either table.
    fs = factorize_target(random_target(rng, size))
    schedules = (None, list(rng.uniform(0.05, 1.0, size)), [1.0] * size)
    got = [run_scheme_unconditional(fs, ts).blocks.tobytes()
           for ts in schedules]
    monkeypatch.setattr(pathent.blocks, "_transfer_table",
                        reference_transfer_table)
    assert got == [run_scheme_unconditional(fs, ts).blocks.tobytes()
                   for ts in schedules]
    # The weights, byte for byte where a block reads them, j <= o <= j + m:
    # the chains' tables (a = 1 and 2, T = 1 in the first row) and the
    # public blocks' repeated row at T = 1 and below it.
    thetas = rng.uniform(0.0, 1.5, size).tolist()
    phis = rng.uniform(-math.pi, math.pi, size).tolist()
    ts = [1.0] + rng.uniform(0.05, 1.0, size - 1).tolist()
    cases = []
    for a, ancs in ((1, _single_table(list(zip(thetas, phis)))),
                    (2, _double_table(phis))):
        v = _splitter_entries(size * a, *_mixing(ts), a, 0)[..., 0]
        cases.append((v, ancs, a))
        for t in (1.0, ts[-1]):
            v = _splitter_entries(size - 1 + a, *_mixing([t]), a, 0)[..., 0]
            cases.append((v.repeat(size, axis=1), ancs[:1], 1))
    for v, ancs, step in cases:
        k, j, o = np.ogrid[:v.shape[1], :v.shape[0], :v.shape[2]]
        read = (j <= o) & (o <= j + k * step)
        got = _block_weights(v, ancs, step)
        want = reference_block_weights(v, ancs, step)
        assert got.shape == want.shape
        assert got[read].tobytes() == want[read].tobytes(), (v.shape, step)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_unconditional_density_matches_reference_channel(n):
    rng = np.random.default_rng(60 + n)
    fs = factorize_target(random_target(rng, n))
    for ts in ([1.0 / k for k in range(1, n + 1)],
               list(rng.uniform(0.05, 1.0, size=n)), [1.0] * n):
        got = run_scheme_unconditional(fs, ts)
        want = _reference_channel(fs.factors, ts)
        assert got.cutoff == want.cutoff == n
        assert np.abs(got.mat - want.mat).max() < 1e-13


@pytest.mark.parametrize("n", range(1, 13))
def test_unconditional_sectors_match_reference_kernel(n):
    # The fused kernel and its swapped-mode chain against the per-term
    # kernel in rho's own modes, under the optimal, a seeded random and the
    # all-swap schedule: every sector block within 1e-15.
    rng = np.random.default_rng(120 + n)
    fs = factorize_target(random_target(rng, n))
    for ts in (None, list(rng.uniform(0.05, 1.0, size=n)), [1.0] * n):
        got = run_scheme_unconditional(fs, ts)
        want = reference_channel_sectors(fs, ts)
        assert got.cutoff == n
        for m in range(n + 1):
            assert np.abs(got.block(m) - want[m]).max() <= 1e-15, (ts, m)


@pytest.mark.parametrize("n", range(1, 13))
def test_unconditional_sector_form_reads_as_its_dense_matrix(n):
    # The channel's dense matrix has no entry between two sectors, the
    # dense constructor gathers its sector blocks back bit for bit, and
    # the trace of the blocks is the dense matrix's, to the bit.
    rho = run_scheme_unconditional(
        factorize_target(random_target(np.random.default_rng(140 + n), n)))
    mat = rho.mat
    (na, nb), _ = _basis(2, n)
    assert not mat[(na + nb)[:, None] != na + nb].any()
    assert TwoModeDensity(n, mat).blocks.tobytes() == rho.blocks.tobytes()
    assert rho.trace() == float(np.trace(mat).real)


def test_unconditional_density_memory_at_n17():
    # A fresh interpreter, so caches filled by other tests do not count.
    src = os.path.dirname(os.path.dirname(pathent.__file__))
    code = """
import json, tracemalloc
import pathent
angles = pathent.noon_factor_angles(17)
tracemalloc.start()
rho = pathent.run_scheme_unconditional(angles)
print(json.dumps([tracemalloc.get_traced_memory()[1], rho.trace()]))
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak, trace = json.loads(proc.stdout)
    # The dense Kraus stack of every outcome peaked near 210 MB here; the
    # per-mode transfer products and rho's sector blocks peak near 2.4 MB.
    assert peak < 20e6
    assert abs(trace - 1.0) < 1e-12


def test_unconditional_density_at_n24():
    fs = factorize_target(random_target(np.random.default_rng(24), 24))
    rho = run_scheme_unconditional(fs)
    y = run_scheme(fs).total_yield
    assert abs(rho.sector_weight(24) - y) <= 1e-9 * y
    assert abs(rho.trace() - 1.0) < 1e-12


@pytest.mark.parametrize("transmittance", [1.0, 0.8, 0.2])
def test_heralded_blocks_match_the_simplex_route(transmittance):
    # Signals spread over several photon numbers, a sparse one with two
    # kets in different sectors, and the zero state: the dark branch, read
    # from the closed form of a few entries of the two-mode splitter, must
    # match the textbook route through the whole four-mode state and the
    # dense-exponential oracle to rounding.
    rng = np.random.default_rng(41)
    kappa = BlockParams(0.0, 0.0, transmittance).kappa
    signals = [random_two_mode_state(rng, cutoff) for cutoff in (0, 1, 3, 5)]
    signals += [0.6 * basis_state(4, 1, 2) - 0.8j * basis_state(4, 4, 0),
                zero_state(3)]
    for s in signals:
        for anc, out in (
            (ancilla_single(0.4, 1.1),
             run_block_single(s, BlockParams(0.4, 1.1, transmittance))),
            (ancilla_double(0.3), run_block_double(s, 0.3, transmittance)),
        ):
            dark = oracle_outcomes(s, anc, kappa)[0, 0]
            assert out.state.amps.shape == dark.shape
            assert np.abs(out.state.amps - dark).max() < 1e-14
            assert abs(out.probability - np.vdot(dark, dark).real) < 1e-14
    assert run_block_single(zero_state(3),
                            BlockParams(0.4, 1.1, transmittance)).probability == 0


def test_unconditional_density_off_optimal_schedule():
    # T > 1/2 beyond the first block, far from the optimal schedule
    # T_k = 1/k.
    fs = factorize_target(random_target(np.random.default_rng(7), 4))
    ts = [0.9, 0.8, 0.7, 0.6]
    rho = run_scheme_unconditional(fs, ts)
    rho.validate()
    assert abs(rho.trace() - 1.0) < 1e-12
    assert abs(rho.sector_weight(4) - run_scheme(fs, ts).total_yield) < 1e-9


def test_double_factor_matches_two_singles():
    s = with_cutoff(basis_state(1, 1, 0) + 0.5j * basis_state(1, 0, 1), 3)
    phi = 0.9
    via_double = apply_double_factor(s, phi)
    via_singles = 2.0 * apply_linear_factor(
        apply_linear_factor(with_cutoff(s, 3), math.pi / 4, phi),
        math.pi / 4, phi + math.pi,
    )
    np.testing.assert_allclose(via_double.amps, via_singles.amps, atol=1e-12)


def _assert_chain_matches_reference(res, ref, exact=None):
    """Every block probability within 1e-13 relative, every amplitude 1e-13.

    Where the chain's partial products cancel, both routes carry rounding
    noise on the kets that are zero in exact arithmetic: given the exact
    state, only its populated kets are compared, and the others must stay
    within 1e-12 of zero on both routes.
    """
    state, probs = ref
    assert res.final_state.cutoff == state.cutoff
    assert len(res.block_probs) == len(probs)
    for got, want in zip(res.block_probs, probs):
        assert abs(got - want) <= 1e-13 * want
    diff = np.abs(res.final_state.amps - state.amps)
    if exact is None:
        assert diff.max() <= 1e-13
        return
    zero = exact.amps == 0
    assert diff[~zero].max() <= 1e-13
    for amps in (res.final_state.amps, state.amps):
        assert np.abs(amps[zero]).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
def test_chain_matches_public_block_route_random(n):
    fs = factorize_target(random_target(np.random.default_rng(90 + n), n))
    ts = [1.0 / k for k in range(1, n + 1)]
    ref = reference_chain(reference_block_single, [
        (BlockParams(theta, phi, t),) for (theta, phi), t in zip(fs.factors, ts)])
    _assert_chain_matches_reference(run_scheme(fs), ref)


@pytest.mark.parametrize("n, t", [(2, None), (8, None), (32, None), (40, 0.9)])
def test_chain_matches_public_block_route_noon(n, t):
    # At T = 0.9 the NOON chain's spurious kets carry about 5e-13 of
    # rounding noise on either route (6.0e-13 on the block route, 4.9e-13
    # on the chain), so there the two are compared on the NOON kets only.
    exact = None if t is None else noon_state(n)
    angles = noon_factor_angles(n)
    ts = [1.0 / k for k in range(1, n + 1)] if t is None else [t] * n
    ref = reference_chain(reference_block_single, [
        (BlockParams(theta, phi, tk),) for (theta, phi), tk in zip(angles, ts)])
    _assert_chain_matches_reference(run_scheme(angles, ts), ref, exact)

    ts = ts[:n // 2]
    ref = reference_chain(reference_block_double,
                          list(zip(noon_double_phases(n), ts)))
    _assert_chain_matches_reference(
        run_scheme_double(n, transmittances=ts), ref, exact)


def test_chain_builds_one_table_and_no_simplex(monkeypatch):
    # The chains keep the coefficients of one sector: no public block, no
    # basis table, one splitter table per chain and one embedding at the
    # end.  The unconditioned channel builds no basis table either, and
    # one splitter table for all its blocks.
    calls = {"entries": 0, "embed": 0}

    def entries(*args):
        calls["entries"] += 1
        return _splitter_entries(*args)

    def embed(coeffs):
        calls["embed"] += 1
        return pathent.fock._sector_state(coeffs)

    def refuse(*args):
        raise AssertionError("the chain left its sector")

    monkeypatch.setattr(pathent.blocks, "_splitter_entries", entries)
    monkeypatch.setattr(pathent.blocks, "_sector_state", embed)
    monkeypatch.setattr(pathent.blocks, "_herald", refuse)
    monkeypatch.setattr(pathent.fock, "_basis", refuse)
    for run in (lambda: run_scheme(noon_factor_angles(16)),
                lambda: run_scheme_double(16)):
        for _ in range(2):
            calls.update(entries=0, embed=0)
            assert not run().impossible
            assert calls == {"entries": 1, "embed": 1}
    calls.update(entries=0)
    run_scheme_unconditional(noon_factor_angles(6)).validate()
    assert calls["entries"] == 1


def test_repeated_channels_retain_no_memory():
    # The first channel at N = 9 may fill caches; the ten after it keep no
    # array alive once they return.  One rho stack at N = 9 is 16 kB; the
    # traced total still drifts by tens of bytes a call, all of it inside
    # numpy's cumprod, with no growth of the process's RSS.
    angles = noon_factor_angles(9)
    tracemalloc.start()
    try:
        run_scheme_unconditional(angles)
        first = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            run_scheme_unconditional(angles)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held - first < 8e3


@pytest.mark.parametrize("n", list(range(1, 14)) + [17, 24, 32])
def test_sector_view_reads_the_index_gather(n, monkeypatch):
    # The strided view over the last channel output holds, in every
    # sector corner, the entries the index gather reference_sector_index
    # reads, byte for byte, and every byte it can reach lies inside that
    # output; from_sectors keeps the corners and writes +0 elsewhere.
    seen = []
    block, keep = pathent.blocks._channel_block, TwoModeDensity.from_sectors

    def channel_block(*args):
        seen.append(block(*args))
        return seen[-1]

    def from_sectors(blocks):
        seen.append(blocks)
        return keep(blocks)

    monkeypatch.setattr(pathent.blocks, "_channel_block", channel_block)
    monkeypatch.setattr(TwoModeDensity, "from_sectors", from_sectors)
    rng = np.random.default_rng(160 + n)
    rho = run_scheme_unconditional(factorize_target(random_target(rng, n)),
                                   list(rng.uniform(0.05, 1.0, size=n)))
    r, view = seen[-2:]
    assert len(seen) == n + 1 and r.shape == (2 * n + 1, n + 1, n + 1)
    lo, hi = np.lib.array_utils.byte_bounds(view)
    r_lo, r_hi = np.lib.array_utils.byte_bounds(r)
    assert r_lo <= lo and hi <= r_hi
    dst, src = reference_sector_index(n)
    want = np.zeros((n + 1,) * 3, dtype=complex)
    want.ravel()[dst] = r.ravel()[src]
    assert view.reshape(-1)[dst].tobytes() == r.ravel()[src].tobytes()
    assert rho.blocks.tobytes() == want.tobytes()


def test_chain_memory_at_the_simulate_cap():
    # The weights of all 64 blocks, the splitter table and its reversed
    # copy are alive together: near 0.4 MB here.
    for run in (lambda: run_scheme(noon_factor_angles(64)),
                lambda: run_scheme_double(64)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def _assert_bit_identical(got, want):
    # the bytes, so signed zeros count too
    assert got.final_state.cutoff == want.final_state.cutoff
    assert got.final_state.amps.tobytes() == want.final_state.amps.tobytes()
    assert got.block_probs == want.block_probs
    assert got.total_yield == want.total_yield
    assert got.impossible == want.impossible


@pytest.mark.parametrize("double", [False, True])
def test_chain_matches_the_sector_loop_reference_bit_for_bit(double):
    # The precomputed weights and the buffered step must give the floats of
    # the per-block loop that forms each product on the spot: N = 1..64,
    # the optimal, T = 1, constant 0.9 and random schedules, NOON and
    # random factors, some at theta = 0 and pi/2.  T = 1 heralds nothing
    # after the first block, so it also covers the impossible short-circuit.
    rng = np.random.default_rng(19)
    impossible = 0
    for n in range(2, 65, 2) if double else range(1, 65):
        blocks = n // 2 if double else n
        if double:
            factor_sets = [noon_double_phases(n),
                           list(rng.uniform(-math.pi, math.pi, blocks))]
        else:
            angles = list(zip(rng.uniform(0.0, math.pi / 2, n),
                              rng.uniform(-math.pi, math.pi, n)))
            angles[0] = (0.0, angles[0][1])
            angles[-1] = (math.pi / 2, angles[-1][1])
            factor_sets = [noon_factor_angles(n), angles]
        for factors in factor_sets:
            for ts in (None, [1.0] * blocks, [0.9] * blocks,
                       list(rng.uniform(0.01, 1.0, blocks))):
                t_k = optimal_schedule(blocks) if ts is None else ts
                if double:
                    got = run_scheme_double(n, factors, ts)
                    params = [BlockParams(math.pi / 4.0, phi, t)
                              for phi, t in zip(factors, t_k)]
                    ancs = [_double_coeffs(phi) for phi in factors]
                else:
                    got = run_scheme(factors, ts)
                    params = [BlockParams(theta, phi, t)
                              for (theta, phi), t in zip(factors, t_k)]
                    ancs = [_single_coeffs(p.theta, p.phi) for p in params]
                _assert_bit_identical(got, reference_run_chain(params, ancs))
                impossible += got.impossible
    assert impossible > 0


def test_public_blocks_match_the_sector_loop_reference_bit_for_bit():
    # Signals over several photon numbers at cutoffs 0..10, a sparse one
    # and the zero state; every ancilla angle including theta = 0, pi/2.
    rng = np.random.default_rng(23)
    signals = [random_two_mode_state(rng, cutoff) for cutoff in range(11)]
    signals += [0.6 * basis_state(4, 1, 2) - 0.8j * basis_state(4, 4, 0),
                zero_state(3)]
    for s in signals:
        for t in (1.0, 0.9, float(rng.uniform())):
            phi = float(rng.uniform(-math.pi, math.pi))
            for theta in (0.0, float(rng.uniform(0.0, math.pi / 2)),
                          math.pi / 2):
                params = BlockParams(theta, phi, t)
                got = run_block_single(s, params)
                want = reference_block_single(s, params)
                assert got.state.amps.tobytes() == want.state.amps.tobytes()
                assert got.probability == want.probability
            got = run_block_double(s, phi, t)
            want = reference_block_double(s, phi, t)
            assert got.state.amps.tobytes() == want.state.amps.tobytes()
            assert got.probability == want.probability


@pytest.mark.parametrize("cutoff", [1, 8, 33])
@pytest.mark.parametrize("j_max", [1, 2])
def test_batched_splitter_entries_match_one_row_builds(cutoff, j_max):
    # T = 1 (c = 0), T = 1e-6, and the optimal schedule's 1/k.
    ts = np.array([1.0, 1e-6, 0.5, 0.9, 0.995] + [1.0 / k for k in range(3, 34)])
    c, s = np.sqrt(1.0 - ts), np.sqrt(ts)
    for n_max in (0, None):
        v = _splitter_entries(cutoff, c, s, j_max, n_max)
        width = cutoff + 1 if n_max is None else 1
        assert v.shape == (j_max + 1, len(ts), cutoff + 1, width)
        for k, t in enumerate(ts):
            row = BlockParams(0.0, 0.0, float(t)).cos_sin
            one = _splitter_entries(cutoff, *row, j_max, n_max)
            assert v[:, k].tobytes() == one.tobytes(), (t, n_max)
            one = _splitter_entries(cutoff, [row[0]], [row[1]], j_max, n_max)
            assert v[:, k].tobytes() == one[:, 0].tobytes(), (t, n_max)


@pytest.mark.parametrize("j_max", [1, 2, 3])
def test_splitter_entries_are_the_reference_byte_for_byte(j_max):
    # Rows at T = 1 (c = 0), T = 1e-6, near 1 and on the optimal schedule,
    # batched, and single splitters at every test angle, negative c and s
    # among them, against the masked build with every factor on every
    # column: signed zeros included.
    ts = np.array([1.0, 1e-6, 0.5, 0.9, 0.995] + [1.0 / k for k in range(3, 12)])
    c, s = np.sqrt(1.0 - ts), np.sqrt(ts)
    rows = [(0.0, 1.0)] + [(math.cos(k), math.sin(k)) for k in MIX_KAPPAS]
    for cutoff in range(41):
        for n_max in (0, None):
            got = _splitter_entries(cutoff, c, s, j_max, n_max)
            want = reference_splitter_entries(cutoff, c, s, j_max, n_max)
            assert got.tobytes() == want.tobytes(), (cutoff, n_max)
            for row in rows:
                got = _splitter_entries(cutoff, *row, j_max, n_max)
                want = reference_splitter_entries(cutoff, *row, j_max, n_max)
                assert got.tobytes() == want.tobytes(), (cutoff, n_max, row)


def test_ancilla_tables_are_the_reference_byte_for_byte():
    # One np.exp for every factor gives the bits of one per factor, at
    # signed zero, pi and tiny phases and at theta = 0 and pi/2 too.
    rng = np.random.default_rng(47)
    special = [0.0, -0.0, math.pi, -math.pi, 1e-300, -1e-300, math.pi / 2]
    for size in range(1, 65):
        theta = rng.uniform(0.0, math.pi / 2, size)
        phi = rng.uniform(-math.pi, math.pi, size)
        theta[::3] = rng.choice([0.0, math.pi / 2], theta[::3].size)
        phi[::2] = rng.choice(special, phi[::2].size)
        angles = list(zip(theta.tolist(), phi.tolist()))
        assert (_single_table(angles).tobytes()
                == reference_single_table(angles).tobytes()), size
        assert (_double_table(phi.tolist()).tobytes()
                == reference_double_table(phi.tolist()).tobytes()), size


def test_one_row_ancillas_are_the_table_rows_byte_for_byte():
    # One factor builds its row alone, without the table's fixed cost, and
    # keeps the table's bits, at theta = 0 and pi/2 and phi = 0 and +-pi too.
    rng = np.random.default_rng(53)
    thetas = [0.0, math.pi / 2] + rng.uniform(0.0, math.pi / 2, 30).tolist()
    phis = [0.0, math.pi, -math.pi] + rng.uniform(-math.pi, math.pi, 30).tolist()
    for phi in phis:
        for theta in thetas:
            assert (_single_coeffs(theta, phi).tobytes()
                    == _single_table([(theta, phi)])[0].tobytes()), (theta, phi)
        assert (_double_coeffs(phi).tobytes()
                == _double_table([phi])[0].tobytes()), phi
