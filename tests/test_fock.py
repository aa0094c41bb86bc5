import itertools
import json
import math
import operator
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import pathent
from pathent.fock import (
    CutoffOverflowError,
    FourModeState,
    _basis,
    _ket_index,
    _pair_blocks,
    _pair_unitary,
    _sector,
    _sector_blocks,
    TwoModeDensity,
    TwoModeState,
    apply_annihilation,
    apply_creation,
    apply_linear_factor,
    basis_state,
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
    tensor,
    vacuum,
    with_cutoff,
    zero_state,
)
from helpers import (
    MIX_KAPPAS,
    padded_pair_oracle,
    random_four_mode_state,
    random_target,
    random_two_mode_state,
    reference_mix,
    reference_pair_exact,
    reference_pair_oracle,
    reference_sector_blocks,
    reference_shift,
    sector_eigh,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _ket4(cutoff, *ket):
    """The four-mode basis ket |n_a, n_b, n_c, n_d> at ``cutoff``."""
    amps = np.zeros(dim4(cutoff), dtype=complex)
    amps[_ket_index(4, cutoff, ket)] = 1.0
    return FourModeState(cutoff, amps)


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


@pytest.mark.parametrize("modes", [2, 4])
def test_basis_is_sector_major_at_every_cutoff(modes):
    # Kets run by total photon number, then lexicographically with the first
    # mode outermost; sector n is one slice, and a ket keeps its index at
    # every cutoff that holds it.
    top = list(zip(*_basis(modes, 6)[0]))
    for cutoff in range(7):
        occ, table = _basis(modes, cutoff)
        kets = list(zip(*occ))
        assert kets == sorted(kets, key=lambda k: (sum(k), k))
        assert kets == top[:math.comb(cutoff + modes, modes)]
        assert np.array_equal(table[occ], np.arange(len(kets)))
        totals = sum(occ)
        for n in range(cutoff + 1):
            start = math.comb(n + modes - 1, modes)
            stop = math.comb(n + modes, modes)
            assert np.array_equal(np.flatnonzero(totals == n),
                                  np.arange(start, stop))
            if modes == 2:
                assert _sector(n) == slice(start, stop)


@pytest.mark.parametrize("state,ket", [
    (basis_state(2, 2, 0), (-1, 0)),
    (basis_state(2, 2, 0), (1,)),
    (basis_state(2, 2, 0), (1, 0, 0, 0)),
    (basis_state(2, 2, 0), (2, 1)),
    (_ket4(1, 0, 0, 0, 1), (0, 0, 0, -1)),
    (_ket4(1, 0, 0, 0, 1), (0, 0, 1)),
    (_ket4(1, 0, 0, 0, 1), (1, 0, 0, 1)),
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


@pytest.mark.parametrize("cutoff", [0, 1, 3])
@pytest.mark.parametrize("op", [apply_creation, apply_annihilation,
                                lambda s, mode: phase_shift(s, 0.3, mode)])
def test_ladder_and_phase_reject_an_unknown_mode(op, cutoff):
    # the mode is checked before any sector loop, which may run zero times
    with pytest.raises(ValueError, match="unknown mode 'c'"):
        op(vacuum(cutoff), "c")


@pytest.mark.parametrize("cutoff", range(13))
def test_ladder_matches_the_whole_simplex_shift_bit_for_bit(cutoff):
    # seeded random states with weight in every sector; creation needs the
    # top sector empty
    rng = np.random.default_rng(700 + cutoff)
    for _ in range(4):
        amps = random_two_mode_state(rng, cutoff).amps
        low = amps.copy()
        low[_sector(cutoff)] = 0.0
        for mode, d in (("a", (1, 0)), ("b", (0, 1))):
            down = apply_annihilation(TwoModeState(cutoff, amps), mode).amps
            want = reference_shift(amps, cutoff, tuple(-x for x in d))
            assert down.tobytes() == want.tobytes(), mode
            up = apply_creation(TwoModeState(cutoff, low), mode).amps
            assert up.tobytes() == reference_shift(low, cutoff, d).tobytes()


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


@pytest.mark.parametrize("n", [1, 2, 5, 32])
def test_noon_state_is_its_two_kets_byte_for_byte(n):
    inv = 1.0 / math.sqrt(2.0)
    kets = basis_state(n, n, 0) * inv + basis_state(n, 0, n) * inv
    assert noon_state(n).cutoff == n
    assert noon_state(n).amps.tobytes() == kets.amps.tobytes()


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


@pytest.mark.parametrize("cutoff", [16, 32, 64, 128])
def test_two_mode_beam_splitter_matches_sector_eigh(cutoff):
    # Each photon-number sector, normalized alone so that its error reads
    # as an entry error of U's block there, against the exponential of
    # G = a†b - ab† restricted to that sector, from its eigenpairs.
    table = _basis(2, cutoff)[1]
    rng = np.random.default_rng(cutoff)
    amps = rng.standard_normal(dim2(cutoff)) \
        + 1j * rng.standard_normal(dim2(cutoff))
    sectors = [table[m - np.arange(m + 1), np.arange(m + 1)]
               for m in range(cutoff + 1)]
    for kets in sectors:
        amps[kets] /= np.linalg.norm(amps[kets])
    s = TwoModeState(cutoff, amps)
    for kappa in MIX_KAPPAS:
        got = beam_splitter(s, kappa).amps
        for m, kets in enumerate(sectors):
            lam, vec = sector_eigh(m)
            want = vec @ (np.exp(-1j * kappa * lam)
                          * (vec.conj().T @ amps[kets]))
            assert np.abs(got[kets] - want).max() < 1e-12, (kappa, m)


@pytest.mark.parametrize("m", [16, 32, 64])
def test_two_mode_beam_splitter_hong_ou_mandel(m):
    # |m, m> on a balanced splitter stays normalized, and its photons leave
    # in pairs: no amplitude with odd n_a.
    out = beam_splitter(basis_state(2 * m, m, m), math.pi / 4.0)
    assert abs(out.norm() - 1.0) < 1e-12
    n_a = _basis(2, 2 * m)[0][0]
    assert np.abs(out.amps[n_a % 2 == 1]).max() < 1e-12


def test_pair_splitter_identity_at_zero():
    rng = np.random.default_rng(3)
    s = random_four_mode_state(rng, 4)
    out = beam_splitter_pair_exact(s, 0.0)
    np.testing.assert_allclose(out.amps, s.amps, atol=1e-15)
    out = beam_splitter_pair_oracle(s, 0.0)
    np.testing.assert_allclose(out.amps, s.amps, atol=1e-12)


def test_pair_splitter_single_photon_blocks():
    k = 0.61
    out = beam_splitter_pair_exact(_ket4(1, 1, 0, 0, 0), k)
    np.testing.assert_allclose(out.amplitude(1, 0, 0, 0), math.cos(k))
    np.testing.assert_allclose(out.amplitude(0, 0, 1, 0), -math.sin(k))
    out = beam_splitter_pair_exact(_ket4(1, 0, 0, 1, 0), k)
    np.testing.assert_allclose(out.amplitude(1, 0, 0, 0), math.sin(k))
    np.testing.assert_allclose(out.amplitude(0, 0, 1, 0), math.cos(k))
    out = beam_splitter_pair_exact(_ket4(1, 0, 1, 0, 0), k)
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
    out = beam_splitter_pair_exact(_ket4(3, 1, 1, 0, 1), math.pi / 2.0)
    # a†b† -> (-c†)(-d†), picking up (-1)^(n_a+n_b)
    np.testing.assert_allclose(out.amplitude(0, 1, 1, 1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.norm_sq(), 1.0, atol=1e-12)

    out = beam_splitter_pair_exact(_ket4(2, 1, 0, 1, 0), math.pi / 2.0)
    np.testing.assert_allclose(out.amplitude(1, 0, 1, 0), -1.0, atol=1e-12)

    # the opposite angle inverts the swap exactly
    back = beam_splitter_pair_exact(out, -math.pi / 2.0)
    np.testing.assert_allclose(
        back.amps, _ket4(2, 1, 0, 1, 0).amps, atol=1e-12
    )


def test_pair_splitter_oracle_swaps_populations():
    out = beam_splitter_pair_oracle(_ket4(2, 1, 1, 0, 0), math.pi / 2.0)
    np.testing.assert_allclose(abs(out.amplitude(0, 0, 1, 1)), 1.0, atol=1e-9)


@pytest.mark.parametrize("kappa", MIX_KAPPAS)
def test_pair_splitter_routes_agree(kappa):
    rng = np.random.default_rng(77)
    for _ in range(10):
        s = random_four_mode_state(rng, 6)
        fast = beam_splitter_pair_exact(s, kappa)
        slow = beam_splitter_pair_oracle(s, kappa)
        assert np.abs(fast.amps - slow.amps).max() < 1e-9

    # the two-mode splitter's two products agree with the stack of blocks
    # that the fast pair places in U, both from ``_sector_eigh``
    blocks = _sector_blocks(6, kappa)
    for t in [random_two_mode_state(rng, 6) for _ in range(3)]:
        out = beam_splitter(t, kappa).amps
        for n in range(7):
            want = blocks[n, :n + 1, :n + 1] @ t.amps[_sector(n)]
            assert np.abs(out[_sector(n)] - want).max() < 2e-15, n


@pytest.mark.parametrize("kappa", MIX_KAPPAS + [
    1e-9, math.pi / 2 - math.ulp(math.pi / 2), -0.7, 0.7 + 4 * math.pi])
def test_pair_routes_match_their_dense_copies_bit_for_bit(kappa):
    # The fast pair from the eigenpairs of each sector holds within 2e-15
    # (2.6e-16 measured) of the route that places the balanced recursion's
    # blocks in U one by one and multiplies in complex arithmetic.  The
    # oracle, with one exponential and the blocks of one padded size
    # stacked, reproduces bit for bit the route that exponentiates each
    # block alone, padded the same way.  Padding lengthens each dot
    # product, so against the unpadded blocks the oracle holds to 1e-15
    # (1.1e-16 measured), not bit for bit.
    rng = np.random.default_rng(23)
    for cutoff in range(11):
        for _ in range(2):
            s = random_four_mode_state(rng, cutoff)
            assert np.abs(beam_splitter_pair_exact(s, kappa).amps
                          - reference_pair_exact(s, kappa)).max() <= 2e-15, \
                cutoff
            oracle = beam_splitter_pair_oracle(s, kappa).amps
            assert oracle.tobytes() == padded_pair_oracle(s, kappa).tobytes(), \
                cutoff
            assert np.abs(oracle - reference_pair_oracle(s, kappa)).max() \
                <= 1e-15, cutoff


@pytest.mark.parametrize("cutoff", [1, 4, 8, 10])
def test_pair_oracle_keeps_a_non_finite_amplitude_in_its_block(cutoff):
    # The padding is zeros, not a mask: a NaN reaches only the kets of its
    # own generator block, however many blocks share its padded stack.
    s = random_four_mode_state(np.random.default_rng(29), cutoff)
    blocks = [idx for idx, _ in _pair_blocks(cutoff)]
    for idx in (blocks[0], blocks[len(blocks) // 2], blocks[-1]):
        amps = s.amps.copy()
        amps[idx[-1]] = math.nan
        out = beam_splitter_pair_oracle(FourModeState(cutoff, amps), 0.7).amps
        inside = np.zeros(out.size, dtype=bool)
        inside[idx] = True
        assert np.isnan(out[inside]).all()
        assert np.isfinite(out[~inside]).all()


@pytest.mark.parametrize("kappa", MIX_KAPPAS + [0.7 + 4 * math.pi])
def test_sector_blocks_are_the_recursion_within_2e_14(kappa):
    # The stack from the eigenpairs holds each block of the per-sector
    # balanced recursion, reversed on both axes, within 2e-14 (9.4e-15
    # measured at cutoff 128), and +0 around the blocks.  Every sector up
    # to 128 is covered by the largest cutoff; the smaller ones check the
    # stack's shape and its padding.
    want = np.zeros((129,) * 3)
    for n, q in enumerate(reference_sector_blocks(128, kappa)):
        want[n, :n + 1, :n + 1] = q[::-1, ::-1]
    for cutoff in list(range(17)) + [25, 26, 64, 128]:
        got = _sector_blocks(cutoff, kappa)
        tri = np.tri(cutoff + 1, dtype=bool)
        corners = tri[:, :, None] & tri[:, None]
        assert got.shape == (cutoff + 1,) * 3
        assert np.abs(got - want[:cutoff + 1, :cutoff + 1, :cutoff + 1])[
            corners].max() <= 2e-14, cutoff
        outside = got[~corners]
        assert not outside.any() and not np.signbit(outside).any(), cutoff


@pytest.mark.parametrize("kappa", MIX_KAPPAS + [0.7 + 4 * math.pi])
def test_mix_is_the_reference_within_4e_15(kappa):
    # beam_splitter against the balanced recursion's blocks, on complex and
    # real amplitudes normalized to 1: within 4e-15 (6.7e-16 measured).
    rng = np.random.default_rng(41)
    for cutoff in range(17):
        d = dim2(cutoff)
        one = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        one /= np.linalg.norm(one)
        for amps in (one, one.real.copy()):
            got = beam_splitter(TwoModeState(cutoff, amps), kappa).amps
            assert np.abs(got - reference_mix(amps, cutoff, kappa)).max() \
                <= 4e-15, cutoff


@pytest.mark.parametrize("kappa", MIX_KAPPAS)
def test_splitter_is_2pi_periodic_in_the_angle(kappa):
    s = random_two_mode_state(np.random.default_rng(5), 6)
    expected = beam_splitter(s, kappa).amps
    for k in (-3, -1, 1, 2, 5):
        got = beam_splitter(s, kappa + 2 * math.pi * k).amps
        assert np.abs(got - expected).max() < 1e-12, k


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_splitters_reject_non_finite_angles(kappa):
    rng = np.random.default_rng(6)
    two = random_two_mode_state(rng, 3)
    four = random_four_mode_state(rng, 4)
    for split, state in ((beam_splitter, two),
                         (beam_splitter_pair_exact, four),
                         (beam_splitter_pair_oracle, four)):
        with pytest.raises(ValueError, match="kappa must be finite"):
            split(state, kappa)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_phase_and_factor_reject_non_finite_angles(angle):
    s = random_two_mode_state(np.random.default_rng(7), 3)
    for mode in ("a", "b"):
        with pytest.raises(ValueError, match="phi must be finite"):
            phase_shift(s, angle, mode)
    with pytest.raises(ValueError, match="theta must be finite"):
        apply_linear_factor(vacuum(1), angle, 0.0)
    with pytest.raises(ValueError, match="phi must be finite"):
        apply_linear_factor(vacuum(1), 0.3, angle)


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
    # Cutoff 10, the top of the 0..10 range the pair splitter is tested
    # over; scipy's expm of each block is a third route, independent of the
    # oracle's eigendecomposition.
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

# every module that binds the table by name, pathent.fock among them
for name, module in list(sys.modules.items()):
    if name.startswith("pathent.") and getattr(module, "_basis", None) is basis:
        module._basis = spy
assert pathent.fock._basis is spy
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
    # The sector slices need no basis table at all.
    assert peak < 2e6
    assert modes == [] and not impossible


def test_pair_unitary_cache_stays_bounded():
    # One entry per cutoff: fresh angles add none.
    s = _ket4(3, 1, 0, 1, 0)
    beam_splitter_pair_oracle(s, 0.5)
    before = _pair_unitary.cache_info().currsize
    for i in range(40):
        beam_splitter_pair_oracle(s, 0.01 * (i + 1))
    assert _pair_unitary.cache_info().currsize == before


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    # Neither importing the CLI nor running oracle-check loads scipy.linalg.
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
    reduced, p = project_outcome_cd(_ket4(1, 1, 0, 0, 0), 0, 0)
    assert p == 1.0
    np.testing.assert_allclose(reduced.amplitude(1, 0), 1.0)

    reduced, p = project_outcome_cd(_ket4(1, 0, 0, 1, 0), 0, 0)
    assert p == 0.0
    assert reduced.norm_sq() == 0.0


def test_project_vacuum_linearity():
    alpha, beta = 0.6, 0.8j
    s = FourModeState(
        1,
        alpha * _ket4(1, 1, 0, 0, 0).amps
        + beta * _ket4(1, 0, 0, 1, 0).amps,
    )
    reduced, p = project_outcome_cd(s, 0, 0)
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


def _from_blocks(*blocks):
    """The density with the given sector blocks, sector 0 first, built
    with no dense matrix."""
    cube = np.zeros((len(blocks),) * 3, dtype=complex)
    for m, block in enumerate(blocks):
        cube[m, :m + 1, :m + 1] = block
    return TwoModeDensity.from_sectors(cube)


def test_density_validate_rejects_nonhermitian():
    # Between two sectors the constructor names the entry; inside one,
    # validate rejects it.
    mat = np.zeros((dim2(1), dim2(1)), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValueError, match=r"^density matrix entry \[0, 1\] "
                                         r"couples photon-number sectors "
                                         r"0 and 1$"):
        TwoModeDensity(1, mat)
    mat[0, 1], mat[1, 2] = 0.0, 1.0
    with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
        TwoModeDensity(1, mat).validate()


def test_density_validate_rejects_a_small_hermitian_defect():
    # A PSD block of sector 1 whose coherence is 1e-6 off its conjugate:
    # far above validate's 1e-12 tolerance, far below 1e-3.
    mat = np.diag([0.5, 0.3, 0.2]).astype(complex)
    mat[1, 2], mat[2, 1] = 0.1, 0.1 + 1e-6
    with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
        TwoModeDensity(1, mat).validate()


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf)])
def test_density_validate_rejects_non_finite_entries(bad):
    # NaN coherences once passed (nan > 1e-12 is false and the eigenvalue
    # minimum was NaN); inf ones raised LinAlgError with a RuntimeWarning.
    # Between two sectors the constructor names the entry; inside one,
    # validate names it by its sector.
    mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
    mat[0, 1] = bad
    mat[1, 0] = np.conj(bad)
    inside = np.diag([0.5, 0.3, 0.2]).astype(complex)
    inside[1, 2] = bad
    inside[2, 1] = np.conj(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^density matrix entry \[0, 1\] "
                                             r"couples photon-number "
                                             r"sectors 0 and 1$"):
            TwoModeDensity(1, mat)
        with pytest.raises(ValueError, match=r"^density matrix sector 1 "
                                             r"entry \[0, 1\] is not finite$"):
            TwoModeDensity(1, inside).validate()


def _coherent_pair(na, nb):
    """[[0.3, 0.4], [0.4, 0.3]] on |na, nb> and |1, 0>: eigenvalue -0.1.

    On |0, 1> both kets lie in sector 1, whose block has that eigenvalue;
    on |0, 0> each sector's block is PSD and the coherence joins two
    sectors.
    """
    ket, one = basis_state(1, na, nb).amps, basis_state(1, 1, 0).amps
    return (0.3 * (np.outer(ket, ket) + np.outer(one, one))
            + 0.4 * (np.outer(ket, one) + np.outer(one, ket)))


def test_density_rejects_coherence_between_sectors():
    with pytest.raises(ValueError, match=r"^density matrix entry \[0, 2\] "
                                         r"couples photon-number sectors "
                                         r"0 and 1$"):
        TwoModeDensity(1, _coherent_pair(0, 0))


@pytest.mark.parametrize("mat,lowest", [
    (np.diag([0.5, 0.3, -2e-9]), -2e-9),
    (_coherent_pair(0, 1), -0.1),
], ids=["diagonal", "coherent"])
def test_density_validate_rejects_a_negative_eigenvalue(mat, lowest):
    with pytest.raises(ValueError, match="negative eigenvalue") as err:
        TwoModeDensity(1, mat).validate()
    named = float(str(err.value).split()[-1])
    assert abs(named - lowest) <= 1e-12 * abs(lowest)


@pytest.mark.parametrize("rho,factored", [
    # inside the tolerance
    (TwoModeDensity(1, np.diag([0.5, 0.3, -5e-10])), True),
    # on it: the shifted diagonal has an exact 0, so the factorization
    # fails and the eigenvalues accept
    (TwoModeDensity(1, np.diag([0.5, 0.3, -1e-9])), False),
    # rank-deficient
    (TwoModeDensity.from_state(noon_state(4)), True),
    (pathent.run_scheme_unconditional(pathent.noon_factor_angles(9)), True),
], ids=["inside", "boundary", "noon4", "channel9"])
def test_density_validate_accepts_within_the_tolerance(rho, factored,
                                                       monkeypatch):
    # the eigendecomposition runs only where the factorization fails
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: calls.append(m) or eigvalsh(m))
    before = rho.mat.copy()
    rho.validate()
    assert np.array_equal(rho.mat, before)
    assert len(calls) == (0 if factored else 1)


@pytest.mark.parametrize("rho,message,calls", [
    (_from_blocks([[0.5]], np.diag([0.3, -5e-10])), None, 0),
    (_from_blocks([[0.5]], np.diag([0.3, -1e-9])), None, 1),
    (_from_blocks([[0.5]], np.diag([0.3, -2e-9])),
     "negative eigenvalue -2e-09", 1),
    (_from_blocks([[0.5]], [[0.3, 0.1j], [0.1j, 0.2]]),
     "density matrix is not Hermitian", 0),
    (TwoModeDensity.from_state(noon_state(4)), None, 0),
    (pathent.run_scheme_unconditional(pathent.noon_factor_angles(9)), None, 0),
], ids=["inside", "boundary", "negative", "nonhermitian", "noon4",
        "channel9"])
def test_sector_form_validates_as_the_dense_form(rho, message, calls,
                                                 monkeypatch):
    # The dense constructor gathers the sector blocks of rho's dense
    # matrix back bit for bit, the path a check on a rescaled dense matrix
    # takes.  Both validate alike, after as many eigendecompositions: they
    # accept inside the tolerance, fall back to the eigenvalues on it and
    # reject -2e-9 and the non-Hermitian block, naming them.
    eigvalsh = np.linalg.eigvalsh

    def outcome(form):
        found = []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: found.append(m) or eigvalsh(m))
        try:
            form.validate()
        except ValueError as err:
            return str(err), len(found)
        return None, len(found)

    dense = TwoModeDensity(rho.cutoff, rho.mat)
    assert dense.blocks.tobytes() == rho.blocks.tobytes()
    assert outcome(rho) == outcome(dense) == (message, calls)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf)])
def test_sector_form_names_a_non_finite_entry_by_its_sector(bad):
    # |0,1> and |1,0> are kets 0 and 1 of sector 1.
    rho = _from_blocks([[0.5]], [[0.3, bad], [np.conj(bad), 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^density matrix sector 1 "
                                             r"entry \[0, 1\] is not finite$"):
            rho.validate()


def test_density_rejects_a_negative_cutoff():
    # Both constructors, as the state classes do; a cutoff of -1 once
    # passed, and validate then failed inside numpy on the empty matrix.
    with pytest.raises(ValueError, match="cutoff must be non-negative"):
        TwoModeDensity(-1, np.zeros((0, 0)))
    with pytest.raises(ValueError, match="cutoff must be non-negative"):
        TwoModeDensity.from_sectors(np.zeros((0, 0, 0)))
    with pytest.raises(ValueError, match="cube"):
        TwoModeDensity.from_sectors(np.zeros((2, 3, 3)))


def test_density_rejects_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"^expected 3x3 matrix, got \(2, 2\)$"):
        TwoModeDensity(1, np.eye(2))


@pytest.mark.parametrize("scale,trace", [(2.0, "6.0"), (-1.0, "-3.0")])
def test_density_validate_rejects_a_trace_outside_0_1(scale, trace):
    # Finite and Hermitian, so the trace is the first check to fail
    rho = TwoModeDensity(1, scale * np.eye(3))
    with pytest.raises(ValueError, match=rf"^trace {trace} outside \[0, 1\]$"):
        rho.validate()


def test_states_reject_a_negative_cutoff_and_a_wrong_amplitude_count():
    with pytest.raises(ValueError, match="^cutoff must be non-negative$"):
        TwoModeState(-1, np.zeros(0))
    with pytest.raises(ValueError, match=r"^expected 3 amplitudes for cutoff "
                                         r"1, got shape \(2,\)$"):
        TwoModeState(1, np.zeros(2))


@pytest.mark.parametrize("op", [operator.add, operator.sub],
                         ids=["add", "sub"])
def test_state_sums_reject_other_types_and_cutoffs(op):
    with pytest.raises(TypeError):
        op(vacuum(1), 1.0)
    with pytest.raises(ValueError, match="^cutoff mismatch$"):
        op(vacuum(1), vacuum(2))


def test_overlap_fidelity_rejects_a_cutoff_mismatch():
    with pytest.raises(ValueError, match="^cutoff mismatch$"):
        overlap_fidelity(vacuum(1), vacuum(2))


def test_from_sectors_drops_entries_outside_the_corners():
    # Entries outside the sector corners are no part of rho: no reading
    # uses them, and validate once judged them anyway, a -5.0 at [0, 1, 1]
    # as a negative eigenvalue and a 3.0 at [1, 1, 2] as not Hermitian.
    want = TwoModeDensity.from_state(noon_state(2))
    for at, value in (((0, 1, 1), -5.0), ((1, 1, 2), 3.0),
                      ((1, 2, 0), math.nan)):
        blocks = want.blocks.copy()
        blocks[at] = value
        rho = TwoModeDensity.from_sectors(blocks)
        assert rho.blocks.tobytes() == want.blocks.tobytes()
        rho.validate()
    blocks = want.blocks.copy()
    blocks[2, 1, 1] = math.nan
    with pytest.raises(ValueError, match=r"^density matrix sector 2 "
                                         r"entry \[1, 1\] is not finite$"):
        TwoModeDensity.from_sectors(blocks).validate()


def test_density_sector_weights():
    rho = TwoModeDensity.from_state(noon_state(2))
    assert abs(rho.sector_weight(2) - 1.0) < 1e-12
    assert rho.sector_weight(1) == 0.0
    assert np.abs(rho.sector(1)).max() == 0.0


def test_density_sectors_outside_the_cutoff_are_empty():
    s = random_two_mode_state(np.random.default_rng(8), 4)
    rho = TwoModeDensity.from_state(s)
    for n in (-3, -2, -1, 5, 6):
        assert rho.sector_weight(n) == 0.0
        assert not rho.sector(n).any()
    # the outer product of s masked to its sector blocks, bit for bit
    (na, nb), _ = _basis(2, 4)
    same = (na + nb)[:, None] == na + nb
    want = np.where(same, np.outer(s.amps, s.amps.conj()), 0.0)
    assert rho.mat.tobytes() == want.tobytes()
    assert np.array_equal(sum(rho.sector(n) for n in range(5)), want)
    assert abs(sum(rho.sector_weight(n) for n in range(5)) - 1.0) < 1e-12


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


def test_with_cutoff_pads_and_truncates_multi_sector_states():
    s = random_two_mode_state(np.random.default_rng(9), 3)
    grown = with_cutoff(s, 6)
    assert grown.amps[:dim2(3)].tobytes() == s.amps.tobytes()
    assert not grown.amps[dim2(3):].any()
    for na in range(4):
        for nb in range(4 - na):
            assert grown.amplitude(na, nb) == s.amplitude(na, nb)
    assert with_cutoff(grown, 3).amps.tobytes() == s.amps.tobytes()
    for cutoff in (0, 2):
        with pytest.raises(CutoffOverflowError):
            with_cutoff(s, cutoff)
    low = TwoModeState(3, np.where(np.arange(dim2(3)) < dim2(1), s.amps, 0))
    assert with_cutoff(low, 1).amps.tobytes() == s.amps[:dim2(1)].tobytes()


def test_overlap_fidelity_never_exceeds_one():
    # The rounded ratio |<x|y>| / (|x| |y|) of a simulated state and its
    # target landed up to 4e-16 above 1 on about half of these targets.
    rng = np.random.default_rng(2032)
    for i in range(200):
        target = random_target(rng, 2 + i % 31)
        state = pathent.state_of_target(target)
        res = pathent.run_scheme(pathent.factorize_target(target))
        assert 1.0 - 1e-9 <= overlap_fidelity(res.final_state, state) <= 1.0
        assert overlap_fidelity(state, state) <= 1.0


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
