"""N-photon absorption at the plane where the two modes recombine.

The deposition observable is e†^N e^N / N! with e = a + b, which annihilates
anything carrying fewer than N photons.  Scanning a phase shift phi on mode
b before the substrate writes a fringe; an N-photon path-entangled NOON
state oscillates as 1 + cos(N phi), N times finer than a classical fringe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    TwoModeDensity,
    TwoModeState,
    _shift,
    apply_annihilation,
    dim2,
    phase_shift,
)

# Non-DC Fourier weight below this fraction of the DC weight counts as flat.
_FLAT_TOL = 1e-9


def absorption_rate_pure(state: TwoModeState, n_absorb: int) -> float:
    """<state| e†^N e^N |state> / N! for a pure (unit-norm) state."""
    if n_absorb < 1:
        raise ValueError("n_absorb must be >= 1")
    v = state
    for _ in range(n_absorb):
        v = apply_annihilation(v, "a") + apply_annihilation(v, "b")
    return v.norm_sq() / math.factorial(n_absorb)


def _absorb_matrix(cutoff: int, n_absorb: int) -> np.ndarray:
    """Dense matrix of (a + b)^N over the two-mode basis."""
    eye = np.eye(dim2(cutoff), dtype=complex)
    m = _shift(eye, cutoff, (-1, 0)) + _shift(eye, cutoff, (0, -1))
    return np.linalg.matrix_power(m, n_absorb)


def absorption_rate_mixed(rho: TwoModeDensity, n_absorb: int) -> float:
    """Tr(rho e†^N e^N) / N! for a density matrix."""
    if n_absorb < 1:
        raise ValueError("n_absorb must be >= 1")
    e_n = _absorb_matrix(rho.cutoff, n_absorb)
    # Tr(E rho E†) as the Frobenius product of E with E rho
    return float(np.vdot(e_n, e_n @ rho.mat).real) / math.factorial(n_absorb)


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
    rates = np.array(
        [
            absorption_rate_pure(phase_shift(state, float(phi), mode="b"), n_absorb)
            for phi in phases
        ]
    )
    return FringeSweep(n_absorb, phases, rates)


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
