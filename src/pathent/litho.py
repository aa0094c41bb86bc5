"""N-photon absorption at the plane where the two modes recombine.

The deposition observable is e†^N e^N / N! with e = a + b, which annihilates
anything carrying fewer than N photons.  Scanning a phase shift phi on mode
b before the substrate writes a fringe; an N-photon path-entangled NOON
state oscillates as 1 + cos(N phi), N times finer than a classical fringe.

A pure state's rate and a fringe go through ``_lower``, N ladder steps of
a + b on amplitudes; a density matrix's rate is read sector block by
sector block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import TwoModeDensity, TwoModeState, _basis, _shift

# Non-DC Fourier weight below this fraction of the DC weight counts as flat.
_FLAT_TOL = 1e-9


def _lower(amps: np.ndarray, cutoff: int, n_absorb: int) -> np.ndarray:
    """(a + b)^N on two-mode amplitudes, one state per column if stacked."""
    if n_absorb < 1:
        raise ValueError("n_absorb must be >= 1")
    for _ in range(n_absorb):
        amps = _shift(amps, cutoff, (-1, 0)) + _shift(amps, cutoff, (0, -1))
    return amps


def absorption_rate_pure(state: TwoModeState, n_absorb: int) -> float:
    """<state| e†^N e^N |state> / N! for a pure (unit-norm) state."""
    v = _lower(state.amps, state.cutoff, n_absorb)
    return float(np.vdot(v, v).real) / math.factorial(n_absorb)


def absorption_rate_mixed(rho: TwoModeDensity, n_absorb: int) -> float:
    """Tr(rho e†^N e^N) / N! for a density matrix, sector by sector.

    On sector m >= N, e^N is one real block E_m of entries
    E_m[k - i, k] = C(N, i) sqrt(k!/(k - i)!) sqrt((m - k)!/(m - k - N + i)!),
    and the rate sums Tr(E_m rho_mm E_m^T): e†^N e^N keeps photon number.
    rho_mm is ``rho.block(m)``, read from either form of ``rho``, so the
    sector form of the unconditioned channel never builds its dense matrix.
    """
    if n_absorb < 1:
        raise ValueError("n_absorb must be >= 1")
    n, rate = n_absorb, 0.0
    for m in range(n, rho.cutoff + 1):
        e = np.array([[math.comb(n, k - r) * math.sqrt(
            math.perm(k, k - r) * math.perm(m - k, n - k + r))
            if 0 <= k - r <= n else 0.0 for k in range(m + 1)]
            for r in range(m - n + 1)])
        rate += np.vdot(e, e @ rho.block(m)).real
    return float(rate) / math.factorial(n)


@dataclass(frozen=True, eq=False)
class FringeSweep:
    """Absorption rates sampled on an equispaced phase grid over [0, 2 pi)."""

    n_absorb: int
    phases: np.ndarray
    rates: np.ndarray


def fringe_sweep(state: TwoModeState, n_absorb: int,
                 n_points: int) -> FringeSweep:
    """Scan a mode-b phase shift and record the N-photon absorption rate."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    phases = 2.0 * math.pi * np.arange(n_points) / n_points
    nb = _basis(2, state.cutoff)[0][1]
    shifted = state.amps[:, None] * np.exp(1j * phases * nb[:, None])
    lowered = _lower(shifted, state.cutoff, n_absorb)
    # a vdot per contiguous column keeps the bits of a single-state call
    rates = np.array([np.vdot(c, c).real for c in lowered.T.copy()])
    return FringeSweep(n_absorb, phases, rates / math.factorial(n_absorb))


def dominant_fringe_frequency(sweep: FringeSweep) -> int:
    """Index of the strongest non-constant Fourier component of the fringe.

    Returns 0 for a flat fringe (all oscillating components negligible
    against the mean).  Frequencies above n_points // 2 alias and cannot be
    resolved, so sample with n_points >= 2 N + 1 to see an N-fold fringe.
    """
    spectrum = np.abs(np.fft.rfft(sweep.rates))
    if spectrum.size <= 1:
        return 0
    rest = spectrum[1:]
    if rest.max() <= _FLAT_TOL * max(spectrum[0], 1.0):
        return 0
    return int(np.argmax(rest)) + 1
