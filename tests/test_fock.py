import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import pathent
from pathent.fock import (
    CutoffOverflowError,
    FourModeState,
    _basis,
    _mix,
    _pair_blocks,
    _pair_unitary,
    TwoModeDensity,
    TwoModeState,
    apply_annihilation,
    apply_creation,
    apply_linear_factor,
    basis_state,
    basis_state4,
    beam_splitter,
    beam_splitter_pair_exact,
    beam_splitter_pair_oracle,
    dim2,
    dim4,
    inner_product,
    is_photon_number_eigenstate,
    noon_state,
    overlap_fidelity,
    phase_shift,
    project_outcome_cd,
    project_vacuum_cd,
    tensor,
    trace_out_cd,
    vacuum,
    with_cutoff,
    zero_state,
)
from helpers import random_four_mode_state, random_two_mode_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# One angle per branch of the beam-splitter core: identity, one factored
# step, one and two half-angle splits, the swap threshold from both sides,
# the exact swap at +-pi/2, and negative angles.
MIX_KAPPAS = [0.0, 0.1, 0.7, math.pi / 4 + 1e-6, 1.3,
              math.pi / 2 - 3 * math.ulp(math.pi / 2), math.pi / 2,
              -math.pi / 2, -1.0, 2.5, 3.0]


def test_vacuum_definition():
    v = vacuum(4)
    assert v.amplitude(0, 0) == 1.0
    assert v.norm_sq() == 1.0
    others = [amp for na, nb, amp in v.nonzero_amplitudes() if (na, nb) != (0, 0)]
    assert others == []


def test_vacuum_is_zero_photon_eigenstate():
    assert is_photon_number_eigenstate(vacuum(3)) == 0
    assert vacuum(10).norm_sq() == 1.0


def test_basis_state_bounds():
    s = basis_state(3, 2, 1)
    assert s.amplitude(2, 1) == 1.0
    with pytest.raises(ValueError):
        basis_state(3, 2, 2)
    with pytest.raises(ValueError):
        basis_state(3, -1, 0)
    with pytest.raises(ValueError, match="ket"):
        basis_state(3, 0.5, 0)
    assert basis_state(3, np.int64(2), 1).amplitude(np.intp(2), 1) == 1.0


@pytest.mark.parametrize("state,ket", [
    (basis_state(2, 2, 0), (-1, 0)),
    (basis_state(2, 2, 0), (1,)),
    (basis_state(2, 2, 0), (1, 0, 0, 0)),
    (basis_state(2, 2, 0), (2, 1)),
    (basis_state4(1, 0, 0, 0, 1), (0, 0, 0, -1)),
    (basis_state4(1, 0, 0, 0, 1), (0, 0, 1)),
    (basis_state4(1, 0, 0, 0, 1), (1, 0, 0, 1)),
    (basis_state(2, 2, 0), (0.5, 0)),
    (basis_state(2, 2, 0), (1.5, 0.5)),
])
def test_amplitude_rejects_kets_outside_the_basis(state, ket):
    with pytest.raises(ValueError, match="ket"):
        state.amplitude(*ket)


def test_creation_ladder():
    assert apply_creation(vacuum(2), "a").amplitude(1, 0) == 1.0
    s = apply_creation(apply_creation(vacuum(2), "a"), "a")
    np.testing.assert_allclose(s.amplitude(2, 0), math.sqrt(2.0))


def test_creation_chain_two_by_two():
    # a† a† b† b† |0,0> = sqrt(2) * sqrt(2) |2,2>
    s = vacuum(4)
    for mode in ("a", "a", "b", "b"):
        s = apply_creation(s, mode)
    np.testing.assert_allclose(s.amplitude(2, 2), 2.0)
    assert is_photon_number_eigenstate(s) == 4


def test_creation_overflow():
    with pytest.raises(CutoffOverflowError):
        apply_creation(basis_state(2, 1, 1), "a")
    assert issubclass(CutoffOverflowError, ValueError)


def test_creation_unknown_mode():
    with pytest.raises(ValueError):
        apply_creation(vacuum(1), "c")


def test_annihilation_is_adjoint_of_creation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = random_two_mode_state(rng, 4)
        y = random_two_mode_state(rng, 4)
        for mode in ("a", "b"):
            lhs = inner_product(apply_creation(with_cutoff(x, 5), mode),
                                with_cutoff(y, 5))
            rhs = inner_product(x, apply_annihilation(y, mode))
            assert abs(lhs - rhs) < 1e-12


def test_linear_factor_special_angles():
    s = apply_linear_factor(vacuum(1), 0.0, 1.3)
    np.testing.assert_allclose(s.amplitude(1, 0), 1.0)
    np.testing.assert_allclose(s.amplitude(0, 1), 0.0)

    s = apply_linear_factor(vacuum(1), math.pi / 2.0, 0.0)
    np.testing.assert_allclose(abs(s.amplitude(1, 0)), 0.0, atol=1e-16)
    np.testing.assert_allclose(s.amplitude(0, 1), -1.0)


def test_linear_factor_balanced():
    s = apply_linear_factor(vacuum(1), math.pi / 4.0, 0.0)
    np.testing.assert_allclose(s.amplitude(1, 0), INV_SQRT2)
    np.testing.assert_allclose(s.amplitude(0, 1), -INV_SQRT2)
    np.testing.assert_allclose(inner_product(s, s), 1.0)


def test_inner_product_basics():
    assert inner_product(vacuum(2), vacuum(2)) == 1.0
    assert inner_product(basis_state(2, 1, 0), basis_state(2, 0, 1)) == 0.0
    with pytest.raises(ValueError):
        inner_product(vacuum(2), vacuum(3))


def test_inner_product_conjugates_first_argument():
    x = basis_state(1, 1, 0) * (0.0 + 1.0j)
    y = basis_state(1, 1, 0)
    assert inner_product(x, y) == pytest.approx(-1.0j)


def test_photon_number_eigenstate_detection():
    assert is_photon_number_eigenstate(noon_state(2)) == 2
    mixed = basis_state(2, 1, 0) + basis_state(2, 2, 0)
    assert is_photon_number_eigenstate(mixed) is None
    with pytest.raises(ValueError):
        is_photon_number_eigenstate(zero_state(2))


def test_phase_shift_action():
    s = noon_state(3)
    shifted = phase_shift(s, 0.4, mode="b")
    np.testing.assert_allclose(shifted.amplitude(3, 0), s.amplitude(3, 0))
    np.testing.assert_allclose(
        shifted.amplitude(0, 3), s.amplitude(0, 3) * np.exp(1.2j)
    )
    np.testing.assert_allclose(shifted.norm_sq(), 1.0)
    shifted_a = phase_shift(s, 0.4, mode="a")
    np.testing.assert_allclose(
        shifted_a.amplitude(3, 0), s.amplitude(3, 0) * np.exp(1.2j)
    )


def test_two_mode_beam_splitter_single_photon():
    k = 0.37
    out = beam_splitter(basis_state(1, 1, 0), k)
    np.testing.assert_allclose(out.amplitude(1, 0), math.cos(k))
    np.testing.assert_allclose(out.amplitude(0, 1), -math.sin(k))
    out = beam_splitter(basis_state(1, 0, 1), k)
    np.testing.assert_allclose(out.amplitude(1, 0), math.sin(k))
    np.testing.assert_allclose(out.amplitude(0, 1), math.cos(k))


def test_two_mode_beam_splitter_bunches_photon_pair():
    # two indistinguishable photons on a balanced splitter never split up
    out = beam_splitter(basis_state(2, 1, 1), math.pi / 4.0)
    np.testing.assert_allclose(out.amplitude(1, 1), 0.0, atol=1e-15)
    np.testing.assert_allclose(out.amplitude(2, 0), INV_SQRT2)
    np.testing.assert_allclose(out.amplitude(0, 2), -INV_SQRT2)


@pytest.mark.parametrize("kappa", [0.0, 0.2, 0.7, 1.3, 1.55, math.pi / 2])
def test_two_mode_beam_splitter_unitary(kappa):
    rng = np.random.default_rng(5)
    s = random_two_mode_state(rng, 5)
    out = beam_splitter(s, kappa)
    np.testing.assert_allclose(out.norm_sq(), 1.0, atol=1e-12)


@pytest.mark.parametrize("kappa", MIX_KAPPAS)
def test_two_mode_beam_splitter_matches_dense_exponential(kappa):
    # Independent route: expm of a†b - a b† over a locally enumerated basis.
    cutoff = 5
    kets = [(na, nb) for na in range(cutoff + 1)
            for nb in range(cutoff + 1 - na)]
    index = {ket: i for i, ket in enumerate(kets)}
    gen = np.zeros((len(kets), len(kets)))
    for (na, nb), i in index.items():
        if nb >= 1:
            gen[index[na + 1, nb - 1], i] += math.sqrt((na + 1) * nb)
        if na >= 1:
            gen[index[na - 1, nb + 1], i] -= math.sqrt(na * (nb + 1))
    s = random_two_mode_state(np.random.default_rng(13), cutoff)
    expected = scipy.linalg.expm(kappa * gen) @ [s.amplitude(*k) for k in kets]
    out = beam_splitter(s, kappa)
    got = np.array([out.amplitude(*k) for k in kets])
    assert np.abs(got - expected).max() < 1e-9


def test_pair_splitter_identity_at_zero():
    rng = np.random.default_rng(3)
    s = random_four_mode_state(rng, 4)
    out = beam_splitter_pair_exact(s, 0.0)
    np.testing.assert_allclose(out.amps, s.amps, atol=1e-15)
    out = beam_splitter_pair_oracle(s, 0.0)
    np.testing.assert_allclose(out.amps, s.amps, atol=1e-12)


def test_pair_splitter_single_photon_blocks():
    k = 0.61
    out = beam_splitter_pair_exact(basis_state4(1, 1, 0, 0, 0), k)
    np.testing.assert_allclose(out.amplitude(1, 0, 0, 0), math.cos(k))
    np.testing.assert_allclose(out.amplitude(0, 0, 1, 0), -math.sin(k))
    out = beam_splitter_pair_exact(basis_state4(1, 0, 0, 1, 0), k)
    np.testing.assert_allclose(out.amplitude(1, 0, 0, 0), math.sin(k))
    np.testing.assert_allclose(out.amplitude(0, 0, 1, 0), math.cos(k))
    out = beam_splitter_pair_exact(basis_state4(1, 0, 1, 0, 0), k)
    np.testing.assert_allclose(out.amplitude(0, 1, 0, 0), math.cos(k))
    np.testing.assert_allclose(out.amplitude(0, 0, 0, 1), -math.sin(k))


@pytest.mark.parametrize("kappa", [0.1, 0.7, 1.3, 1.55])
def test_pair_splitter_unitarity_and_number_conservation(kappa):
    rng = np.random.default_rng(int(kappa * 100))
    totals = sum(_basis(4, 6)[0])
    for _ in range(5):
        s = random_four_mode_state(rng, 6)
        out = beam_splitter_pair_exact(s, kappa)
        assert abs(out.norm() - 1.0) < 1e-12
        for n in range(7):
            sector = totals == n
            w_in = float(np.sum(np.abs(s.amps[sector]) ** 2))
            w_out = float(np.sum(np.abs(out.amps[sector]) ** 2))
            assert abs(w_in - w_out) < 1e-12


def test_pair_splitter_full_swap():
    out = beam_splitter_pair_exact(basis_state4(3, 1, 1, 0, 1), math.pi / 2.0)
    # a†b† -> (-c†)(-d†), picking up (-1)^(n_a+n_b)
    np.testing.assert_allclose(out.amplitude(0, 1, 1, 1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.norm_sq(), 1.0, atol=1e-12)

    out = beam_splitter_pair_exact(basis_state4(2, 1, 0, 1, 0), math.pi / 2.0)
    np.testing.assert_allclose(out.amplitude(1, 0, 1, 0), -1.0, atol=1e-12)

    # the opposite angle inverts the swap exactly
    back = beam_splitter_pair_exact(out, -math.pi / 2.0)
    np.testing.assert_allclose(
        back.amps, basis_state4(2, 1, 0, 1, 0).amps, atol=1e-12
    )


def test_pair_splitter_oracle_swaps_populations():
    out = beam_splitter_pair_oracle(basis_state4(2, 1, 1, 0, 0), math.pi / 2.0)
    np.testing.assert_allclose(abs(out.amplitude(0, 0, 1, 1)), 1.0, atol=1e-9)


@pytest.mark.parametrize("kappa", MIX_KAPPAS)
def test_pair_splitter_routes_agree(kappa):
    rng = np.random.default_rng(77)
    for _ in range(10):
        s = random_four_mode_state(rng, 6)
        fast = beam_splitter_pair_exact(s, kappa)
        slow = beam_splitter_pair_oracle(s, kappa)
        assert np.abs(fast.amps - slow.amps).max() < 1e-9

    # a stack of states, one per column, gives each column's 1-D result
    states = [random_two_mode_state(rng, 6) for _ in range(3)]
    stacked = _mix(np.stack([t.amps for t in states], axis=1), 6, kappa)
    for i, t in enumerate(states):
        assert np.array_equal(stacked[:, i], beam_splitter(t, kappa).amps)


@pytest.mark.parametrize("kappa", MIX_KAPPAS)
def test_splitter_is_2pi_periodic_in_the_angle(kappa):
    s = random_two_mode_state(np.random.default_rng(5), 6)
    expected = beam_splitter(s, kappa).amps
    for k in (-3, -1, 1, 2, 5):
        got = beam_splitter(s, kappa + 2 * math.pi * k).amps
        assert np.abs(got - expected).max() < 1e-12, k


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_splitters_reject_non_finite_angles(kappa):
    two = random_two_mode_state(np.random.default_rng(6), 3)
    four = tensor(two, basis_state(1, 0, 1))
    for split, state in ((beam_splitter, two),
                         (beam_splitter_pair_exact, four),
                         (beam_splitter_pair_oracle, four)):
        with pytest.raises(ValueError, match="kappa must be finite"):
            split(state, kappa)


@pytest.mark.parametrize("cutoff", range(9))
def test_pair_oracle_blocks_tile_the_basis(cutoff):
    na, nb, nc, nd = _basis(4, cutoff)[0]
    blocks = _pair_blocks(cutoff)
    for idx, gen in blocks:
        # one block per (n_a + n_c, n_b + n_d), holding all of its kets
        p, q = na[idx[0]] + nc[idx[0]], nb[idx[0]] + nd[idx[0]]
        assert np.all(na[idx] + nc[idx] == p) and np.all(nb[idx] + nd[idx] == q)
        assert idx.size == (p + 1) * (q + 1) and gen.shape == (idx.size,) * 2
        assert gen.dtype == complex
    assert len(blocks) == (cutoff + 1) * (cutoff + 2) // 2
    every = np.concatenate([idx for idx, _ in blocks])
    assert np.array_equal(np.sort(every), np.arange(dim4(cutoff)))


@pytest.mark.parametrize("kappa", MIX_KAPPAS)
def test_pair_oracle_matches_full_dense_exponential(kappa):
    # Reference: expm of a†c - ac† + b†d - bd† over the whole four-mode
    # basis, enumerated and filled here, so no code is shared with fock.
    rng = np.random.default_rng(41)
    for cutoff in range(1, 6):
        kets = [k for k in itertools.product(range(cutoff + 1), repeat=4)
                if sum(k) <= cutoff]
        index = {ket: i for i, ket in enumerate(kets)}
        gen = np.zeros((len(kets), len(kets)), dtype=complex)
        for ket, i in index.items():
            for x, y in ((0, 2), (1, 3)):
                for up, down, sign in ((x, y, 1.0), (y, x, -1.0)):
                    if ket[down] >= 1:
                        new = list(ket)
                        new[up] += 1
                        new[down] -= 1
                        gen[index[tuple(new)], i] += sign * math.sqrt(
                            (ket[up] + 1) * ket[down])
        s = random_four_mode_state(rng, cutoff)
        expected = scipy.linalg.expm(kappa * gen) @ [s.amplitude(*k)
                                                    for k in kets]
        out = beam_splitter_pair_oracle(s, kappa)
        got = np.array([out.amplitude(*k) for k in kets])
        assert np.abs(got - expected).max() < 1e-13


def test_pair_oracle_matches_blockwise_expm_at_the_largest_cli_cutoff():
    # oracle-check accepts cutoffs up to 10; scipy's expm of each block is
    # a third route, independent of the oracle's eigendecomposition.
    cutoff = 10
    s = random_four_mode_state(np.random.default_rng(43), cutoff)
    for kappa in MIX_KAPPAS:
        expected = np.zeros_like(s.amps)
        for idx, gen in _pair_blocks(cutoff):
            expected[idx] = scipy.linalg.expm(kappa * gen) @ s.amps[idx]
        got = beam_splitter_pair_oracle(s, kappa).amps
        assert np.abs(got - expected).max() < 1e-13, kappa


@pytest.mark.parametrize("kappa", MIX_KAPPAS)
@pytest.mark.parametrize("modes,pairs", [(2, ((0, 1),)),
                                         (4, ((1, 3), (0, 2)))])
def test_simplex_and_sector_maps_agree(kappa, modes, pairs):
    # Each mixed pair (x, y) conserves n_x + n_y.  A state on every such
    # sector of the simplex: each sector, run alone through the splitter,
    # gives exactly the whole-simplex result on its kets and nothing else.
    cutoff = 6
    occ = _basis(modes, cutoff)[0]
    totals = np.stack([occ[x] + occ[y] for x, y in pairs], axis=1)
    rng = np.random.default_rng(31)
    amps = rng.standard_normal(len(occ[0])) \
        + 1j * rng.standard_normal(len(occ[0]))

    def split(a):
        if modes == 2:
            return beam_splitter(TwoModeState(cutoff, a), kappa).amps
        return beam_splitter_pair_exact(FourModeState(cutoff, a), kappa).amps

    whole = split(amps)
    sectors = np.unique(totals, axis=0)
    assert len(sectors) == math.comb(cutoff + len(pairs), len(pairs))
    for sector in sectors:
        rows = np.all(totals == sector, axis=1)
        alone = split(np.where(rows, amps, 0.0))
        assert np.array_equal(alone[rows], whole[rows])
        assert not alone[~rows].any()


def test_heralded_chain_stays_in_its_sectors():
    # A fresh interpreter, so caches filled by other tests do not count.
    src = os.path.dirname(os.path.dirname(pathent.__file__))
    code = """
import json, sys, tracemalloc
import pathent, pathent.cli
from pathent import fock

basis, modes = fock._basis, set()

def spy(m, cutoff):
    modes.add(m)
    return basis(m, cutoff)

# every module that binds the table by name, pathent.blocks among them
for name, module in list(sys.modules.items()):
    if name.startswith("pathent.") and getattr(module, "_basis", None) is basis:
        module._basis = spy
assert pathent.blocks._basis is spy
angles = pathent.noon_factor_angles(32)
tracemalloc.start()
result = pathent.run_scheme(angles)
print(json.dumps([tracemalloc.get_traced_memory()[1], sorted(modes),
                  result.impossible]))
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak, modes, impossible = json.loads(proc.stdout)
    # The whole four-mode simplex route peaked near 92 MB here, a four-mode
    # sector route near 10 MB; two-mode splitters only need about 0.7 MB.
    assert peak < 2e6
    assert modes == [2] and not impossible


def test_pair_unitary_cache_stays_bounded():
    # One entry per cutoff: fresh angles add none.
    s = basis_state4(3, 1, 0, 1, 0)
    beam_splitter_pair_oracle(s, 0.5)
    before = _pair_unitary.cache_info().currsize
    for i in range(40):
        beam_splitter_pair_oracle(s, 0.01 * (i + 1))
    assert _pair_unitary.cache_info().currsize == before


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    # Neither importing the CLI nor running the oracle via oracle-check
    # loads scipy.linalg.
    src = os.path.dirname(os.path.dirname(pathent.__file__))
    code = """
import os, sys, pathent.cli
loaded = 'scipy.linalg' in sys.modules
code = pathent.cli.main(["oracle-check", "--trials", "1", "--out", os.devnull])
print(code, loaded, 'scipy.linalg' in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["0", "False", "False"], proc.stderr


def test_project_vacuum_cases():
    reduced, p = project_vacuum_cd(basis_state4(1, 1, 0, 0, 0))
    assert p == 1.0
    np.testing.assert_allclose(reduced.amplitude(1, 0), 1.0)

    reduced, p = project_vacuum_cd(basis_state4(1, 0, 0, 1, 0))
    assert p == 0.0
    assert reduced.norm_sq() == 0.0


def test_project_vacuum_linearity():
    alpha, beta = 0.6, 0.8j
    s = FourModeState(
        1,
        alpha * basis_state4(1, 1, 0, 0, 0).amps
        + beta * basis_state4(1, 0, 0, 1, 0).amps,
    )
    reduced, p = project_vacuum_cd(s)
    np.testing.assert_allclose(p, abs(alpha) ** 2)
    np.testing.assert_allclose(reduced.amplitude(1, 0), alpha)


def test_outcome_probabilities_complete():
    rng = np.random.default_rng(19)
    s = random_four_mode_state(rng, 5)
    total = 0.0
    for nc in range(6):
        for nd in range(6 - nc):
            _, p = project_outcome_cd(s, nc, nd)
            total += p
    assert abs(total - s.norm_sq()) < 1e-12


def test_trace_out_pure_case():
    rho = trace_out_cd(basis_state4(1, 1, 0, 0, 0))
    expected = np.zeros_like(rho.mat)
    i = int(np.argmax(np.abs(basis_state(1, 1, 0).amps)))
    expected[i, i] = 1.0
    np.testing.assert_allclose(rho.mat, expected, atol=1e-15)


def test_trace_out_entangled_case():
    # (|1,0,0,0> + |0,0,1,0>)/sqrt(2) -> equal mixture of |1,0> and |0,0>
    s = FourModeState(
        1,
        (basis_state4(1, 1, 0, 0, 0).amps + basis_state4(1, 0, 0, 1, 0).amps)
        / math.sqrt(2.0),
    )
    rho = trace_out_cd(s)
    i10 = int(np.argmax(np.abs(basis_state(1, 1, 0).amps)))
    i00 = int(np.argmax(np.abs(basis_state(1, 0, 0).amps)))
    np.testing.assert_allclose(rho.mat[i10, i10], 0.5)
    np.testing.assert_allclose(rho.mat[i00, i00], 0.5)
    np.testing.assert_allclose(rho.mat[i10, i00], 0.0, atol=1e-15)
    rho.validate()


def test_trace_out_preserves_norm():
    rng = np.random.default_rng(23)
    for _ in range(5):
        s = random_four_mode_state(rng, 4)
        rho = trace_out_cd(s)
        assert abs(rho.trace() - s.norm_sq()) < 1e-12
        rho.validate()


def test_density_validate_rejects_nonhermitian():
    mat = np.zeros((dim2(1), dim2(1)), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValueError):
        TwoModeDensity(1, mat).validate()


def test_density_sector_weights():
    rho = TwoModeDensity.from_state(noon_state(2))
    assert abs(rho.sector_weight(2) - 1.0) < 1e-12
    assert rho.sector_weight(1) == 0.0
    assert np.abs(rho.sector(1)).max() == 0.0


def test_tensor_and_overflow():
    joint = tensor(basis_state(1, 1, 0), basis_state(2, 0, 2))
    assert joint.cutoff == 3
    np.testing.assert_allclose(joint.amplitude(1, 0, 0, 2), 1.0)


def test_with_cutoff_roundtrip():
    s = noon_state(2)
    grown = with_cutoff(s, 5)
    assert grown.cutoff == 5
    np.testing.assert_allclose(with_cutoff(grown, 2).amps, s.amps)
    with pytest.raises(CutoffOverflowError):
        with_cutoff(s, 1)


def test_overlap_fidelity_ignores_global_phase():
    s = noon_state(3)
    rotated = s * np.exp(0.7j)
    assert abs(overlap_fidelity(s, rotated) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        overlap_fidelity(s, zero_state(3))


def test_dimensions():
    assert dim2(0) == 1
    assert dim2(8) == 45
    assert dim4(8) == 495
