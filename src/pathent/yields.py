"""Closed-form heralding yields of the chained generation schemes.

Block k succeeds with probability q_k^2 = T_k (1 - T_k)^{k-1} on a
(k-1)-photon input; the product over an N-block chain telescopes to
N^{-N} at the optimal schedule T_k = 1/k, so a target with factor-product
normalization constant A is produced with probability A N^{-N}.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


def _integer(name: str, value: int) -> int:
    """value as an int; a bool, a float or another non-integer is refused.

    ``operator.index`` turns a numpy integer, whose arithmetic would wrap
    on overflow, into an int.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _at_least(name: str, value: int, least: int) -> int:
    """value as an int, checked to be an integer >= least."""
    value = _integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def _photon_number(n_photons: int, doubled: bool = False) -> int:
    """n_photons as an int, checked: an integer of at least 1, or even and
    at least 2 if doubled."""
    n = _integer("n_photons", n_photons)
    if doubled and (n < 2 or n % 2 != 0):
        raise ValueError("doubled scheme needs an even photon number >= 2")
    return _at_least("n_photons", n, 1)


def qk_squared(transmittance: float, k: int) -> float:
    """Success probability of block k at the given transmittance."""
    k = _at_least("k", k, 1)
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance outside [0, 1]")
    return transmittance * (1.0 - transmittance) ** (k - 1)


def optimal_transmittance(k: int) -> float:
    """The transmittance maximizing qk_squared for block k."""
    return 1.0 / _at_least("k", k, 1)


def yield_generic(normalization: float, n_photons: int) -> float:
    """Total yield A N^{-N} for a target with factor normalization A."""
    n = _photon_number(n_photons)
    if not 0.0 < normalization < math.inf:
        raise ValueError(
            f"normalization must be positive and finite, got {normalization}")
    return normalization * float(n) ** (-n)


def yield_noon_single(n_photons: int) -> float:
    """NOON-state yield (N-1)! (2N)^{1-N} of the single-photon scheme.

    The NOON normalization constant is 2^{1-N} N!, so this is the generic
    A N^{-N} specialized.  Python's int / int division is correctly rounded
    at any size, so the ratio is exact to the last bit with no overflow.
    """
    n = _photon_number(n_photons)
    return math.factorial(n - 1) / (2 * n) ** (n - 1)


def yield_noon_double(n_photons: int) -> float:
    """Doubled-scheme NOON yield 2 (N-1)! N^{1-N}, i.e. 2^N times the single.

    This is the factorial reading of the doubled-yield formula; it is the
    one consistent with the block amplitudes (see yield_noon_double_linear
    for the rejected alternative).  One int / int division, correctly
    rounded at any N, so it does not inherit the single yield's underflow.
    """
    n = _photon_number(n_photons, doubled=True)
    return 2 * math.factorial(n - 1) / n ** (n - 1)


def yield_noon_double_linear(n_photons: int) -> float:
    """Rejected literal reading 2 (N-1) N^{1-N} of the doubled-yield formula.

    Kept for the audit table: it disagrees with the simulated doubled
    scheme for every even N >= 4 (e.g. 3/32 instead of 3/16 at N = 4).
    """
    n = _photon_number(n_photons, doubled=True)
    return 2.0 * (n - 1) * float(n) ** (1 - n)


def yield_stirling(n_photons: int) -> float:
    """Large-N approximation 2 sqrt(2 pi N) (2 e)^{-N} of the NOON yield.

    The exact yield is 2 N! (2N)^{-N}; this is Stirling's formula for N!
    without its factor 1 + 1/(12N) + 1/(288N^2) + ..., so it reads about
    1/(12N) low: 1.0e-2 relative at N = 8, 3.5e-3 at N = 24.
    """
    n = _photon_number(n_photons)
    return 2.0 * math.sqrt(2.0 * math.pi * n) * (2.0 * math.e) ** (-n)


@dataclass(frozen=True)
class YieldRow:
    """One row of the yield table for an N-photon NOON target."""

    n_photons: int
    p_single: float
    p_stirling: float
    p_double: float | None
    p_double_linear: float | None

    @property
    def double_over_single(self) -> float | None:
        if self.p_double is None:
            return None
        return self.p_double / self.p_single


def yield_table(n_max: int) -> list[YieldRow]:
    """Closed-form yields for N = 1..n_max; doubled columns on even N only."""
    rows = []
    for n in range(1, _at_least("n_max", n_max, 1) + 1):
        even = n % 2 == 0
        rows.append(
            YieldRow(
                n_photons=n,
                p_single=yield_noon_single(n),
                p_stirling=yield_stirling(n),
                p_double=yield_noon_double(n) if even else None,
                p_double_linear=yield_noon_double_linear(n) if even else None,
            )
        )
    return rows


def optimal_schedule(n_blocks: int) -> list[float]:
    """The yield-optimal transmittance schedule 1, 1/2, ..., 1/n."""
    return [1.0 / k for k in range(1, _at_least("n_blocks", n_blocks, 1) + 1)]
