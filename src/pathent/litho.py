"""N-photon absorption at the plane where the two modes recombine.

The deposition observable is e†^N e^N / N! with e = a + b, which annihilates
anything carrying fewer than N photons.  Scanning a phase shift phi on mode
b before the substrate writes a fringe; an N-photon path-entangled NOON
state oscillates as 1 + cos(N phi), N times finer than a classical fringe.

Every rate lowers sector by sector: on sector m >= N, (a + b)^N is N
steps of ``fock._ladder``, landing on sector m - N; lower sectors are dark.
A density matrix's rate lowers the identity of sector m once per (N, m),
into the cached block E_m.  The fringe reuses E_m: at sample p of P, ket
n_b takes the phasor e^{2 pi i q / P} with q = (n_b p) mod P reduced exactly
as an integer, so one product per sector gives every sample's rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import TwoModeDensity, TwoModeState, _ladder, _sector
from .yields import _at_least

# Non-DC Fourier weight below this fraction of the DC weight counts as flat.
_FLAT_TOL = 1e-9


def _lower(x: np.ndarray, n_absorb: int) -> np.ndarray:
    """(a + b)^N on sector m's coefficients, columns allowed: sector m - N's."""
    for _ in range(n_absorb):
        x = _ladder(x, "a", -1) + _ladder(x, "b", -1)
    return x


def absorption_rate_pure(state: TwoModeState, n_absorb: int) -> float:
    """<state| e†^N e^N |state> / N! for a pure (unit-norm) state."""
    n_absorb = _at_least("n_absorb", n_absorb, 1)
    lowered = (_lower(state.amps[_sector(m)], n_absorb)
               for m in range(n_absorb, state.cutoff + 1))
    rate = sum(np.vdot(v, v).real for v in lowered)
    return float(rate) / math.factorial(n_absorb)


@lru_cache(maxsize=64)
def _absorber(n_absorb: int, m: int) -> np.ndarray:
    """E_m, the real block of (a + b)^N from sector m to sector m - N."""
    e = _lower(np.eye(m + 1), n_absorb)
    e.setflags(write=False)  # shared by every caller of the cache
    return e


def absorption_rate_mixed(rho: TwoModeDensity, n_absorb: int) -> float:
    """Tr(rho e†^N e^N) / N! for a density matrix, sector by sector.

    e†^N e^N keeps photon number, so the rate sums Tr(E_m rho_mm E_m^T)
    over m >= N, with rho_mm read as ``rho.block(m)``: no dense matrix
    is built.
    """
    n_absorb = _at_least("n_absorb", n_absorb, 1)
    blocks = ((_absorber(n_absorb, m), rho.block(m))
              for m in range(n_absorb, rho.cutoff + 1))
    rate = sum(np.vdot(e, e @ r).real for e, r in blocks)
    return float(rate) / math.factorial(n_absorb)


@dataclass(frozen=True, eq=False)
class FringeSweep:
    """Absorption rates sampled on an equispaced phase grid over [0, 2 pi)."""

    n_absorb: int
    phases: np.ndarray
    rates: np.ndarray


def fringe_sweep(state: TwoModeState, n_absorb: int,
                 n_points: int) -> FringeSweep:
    """Scan a mode-b phase shift and record the N-photon absorption rate.

    Sample p shifts mode b by phases[p] = 2 pi p / P, and ket n_b by the
    exactly reduced e^{2 pi i ((n_b p) mod P) / P}, not by a rounded
    n_b phases[p]; sector m adds the column norms of E_m diag(x_m) times
    the gathered phasors.
    """
    n_points = _at_least("n_points", n_points, 2)
    n_absorb = _at_least("n_absorb", n_absorb, 1)
    p = np.arange(n_points)
    phases = 2.0 * math.pi * p / n_points
    phasors = np.exp(1j * phases)
    rates = np.zeros(n_points)
    for m in range(n_absorb, state.cutoff + 1):
        nb = np.arange(m, -1, -1)  # n_b of the kets |i, m - i>
        u = _absorber(n_absorb, m) * state.amps[_sector(m)]
        y = u @ phasors[nb[:, None] * p % n_points]
        rates += (y.real ** 2 + y.imag ** 2).sum(axis=0)
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
