"""Decomposition of two-mode N-photon states into photon-adding factors.

Any state sum_k c_k |k, N-k> is, up to normalization, a product of N
operators of the form cos(theta) a† - e^{i phi} sin(theta) b† acting on
vacuum.  Writing d_k = c_k / sqrt(k! (N-k)!), the ratios e^{i phi} tan(theta)
are the roots of the polynomial sum_k d_k z^k; vanishing leading d's push
the corresponding roots to infinity, which is the pure b†-adding factor
theta = pi/2, phi = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import TwoModeState, basis_state, inner_product, vacuum, apply_linear_factor


def _wrap_angle(x: float) -> float:
    """Map an angle to the half-open interval [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _coeff_norm(vec: np.ndarray) -> float:
    """Euclidean norm of a finite coefficient vector.

    The plain norm is kept unless the sum of squares overflows, or falls
    below the smallest normal float on a nonzero vector and so loses digits,
    so ordinary inputs keep their bits.  Then ``math.hypot``, which rescales
    internally, takes the norm of the real and imaginary parts.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if math.isinf(norm) or (norm < math.sqrt(np.finfo(float).tiny) and vec.any()):
        norm = math.hypot(*np.concatenate([vec.real, vec.imag]))
    return norm


@dataclass(frozen=True)
class TargetSpec:
    """A normalized two-mode target sum_k c_k |k, n_photons - k>.

    ``coeffs[k]`` multiplies |k, n_photons - k>; the vector is rescaled to
    unit norm on construction.
    """

    n_photons: int
    coeffs: tuple[complex, ...]

    def __init__(self, n_photons: int, coeffs):
        if n_photons < 1:
            raise ValueError("n_photons must be >= 1")
        vec = np.asarray(list(coeffs), dtype=complex)
        if vec.shape != (n_photons + 1,):
            raise ValueError(
                f"need {n_photons + 1} coefficients for {n_photons} photons, "
                f"got {vec.size}"
            )
        finite = np.isfinite(vec)
        if not finite.all():
            raise ValueError(
                f"coefficient coeffs[{int(np.argmin(finite))}] is not finite")
        norm = _coeff_norm(vec)
        if norm == 0.0:
            raise ValueError("coefficient vector is zero")
        # complex division by a subnormal norm overflows and gives NaN
        if math.isinf(norm) or norm < np.finfo(float).tiny:
            raise ValueError("coefficient norm is outside the float range")
        vec = vec / norm
        object.__setattr__(self, "n_photons", n_photons)
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in vec))


@dataclass(frozen=True)
class FactorSet:
    """Angles (theta_k, phi_k) of the factor product, plus bookkeeping.

    ``normalization`` is the squared norm of the raw factor product on
    vacuum; ``global_phase`` is the unimodular number by which the phase-
    aligned reconstruction must divide the raw product, so that
    raw / (sqrt(normalization) * global_phase) reproduces the target.
    """

    factors: tuple[tuple[float, float], ...]
    normalization: float
    global_phase: complex = 1.0

    @property
    def n_photons(self) -> int:
        return len(self.factors)


def monomial_coeffs(target: TargetSpec) -> np.ndarray:
    """d_k = c_k / sqrt(k! (n - k)!), the generating-polynomial coefficients."""
    n = target.n_photons
    return np.array(
        [
            target.coeffs[k] / math.sqrt(math.factorial(k) * math.factorial(n - k))
            for k in range(n + 1)
        ],
        dtype=complex,
    )


def _polish_root(d: np.ndarray, z: complex) -> complex:
    """One damped Newton step on p(z) = sum_k d_k z^k, only if it helps."""
    p = np.polynomial.polynomial.polyval(z, d)
    dp = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(d))
    if dp == 0:
        return z
    step = p / dp
    z_new = z - step
    p_new = np.polynomial.polynomial.polyval(z_new, d)
    return z_new if abs(p_new) < abs(p) else z


def find_factor_angles(d) -> list[tuple[float, float]]:
    """Factor angles (theta_k, phi_k) from monomial coefficients d_0..d_N.

    Finite roots z of sum_k d_k z^k give theta = arctan|z|, phi = arg z;
    each exactly-zero leading coefficient contributes one pure-b† factor
    (pi/2, 0), appended after the finite factors.  Finite factors are
    sorted by (theta, phi) so equal inputs give equal lists.
    """
    d = np.asarray(list(d), dtype=complex)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("need at least two monomial coefficients")
    if not np.any(d):
        raise ValueError("coefficient vector is zero")
    n = d.size - 1
    m = n
    while m > 0 and d[m] == 0:
        m -= 1
    angles: list[tuple[float, float]] = []
    if m > 0:
        roots = np.roots(d[: m + 1][::-1])
        for z in roots:
            z = _polish_root(d[: m + 1], complex(z))
            theta = math.atan(abs(z))
            phi = _wrap_angle(cmath.phase(z)) if z != 0 else 0.0
            angles.append((theta, phi))
    angles.sort()
    angles.extend([(math.pi / 2.0, 0.0)] * (n - m))
    return angles


def apply_factors(angles) -> TwoModeState:
    """Raw factor product on vacuum at cutoff len(angles), unnormalized."""
    angles = list(angles)
    s = vacuum(len(angles))
    for theta, phi in angles:
        s = apply_linear_factor(s, theta, phi)
    return s


def normalization(angles,
                  target: TargetSpec | None = None) -> tuple[float, complex]:
    """Squared norm of the raw factor product, and its phase against a target.

    Returns (N, g) where N = |product|^2 and g is unimodular with
    product / (sqrt(N) g) matching the target's phase; g = 1 when no target
    is given.
    """
    raw = apply_factors(angles)
    n_sq = raw.norm_sq()
    if n_sq == 0.0:
        raise ValueError("factor product annihilates the vacuum")
    g = 1.0 + 0.0j
    if target is not None:
        t = state_of_target(target)
        ov = inner_product(t, raw)
        if abs(ov) == 0.0:
            raise ValueError("factor product is orthogonal to the target")
        g = ov / abs(ov)
    return n_sq, g


def factorize_target(target: TargetSpec) -> FactorSet:
    """Full decomposition: angles, normalization, and global phase."""
    angles = find_factor_angles(monomial_coeffs(target))
    n_sq, g = normalization(angles, target=target)
    return FactorSet(tuple(angles), n_sq, g)


def reconstruct(fs: FactorSet) -> TwoModeState:
    """Normalized, phase-aligned state produced by a factor set."""
    raw = apply_factors(fs.factors)
    return raw / (math.sqrt(fs.normalization) * fs.global_phase)


def state_of_target(target: TargetSpec) -> TwoModeState:
    """The target as a two-mode state at cutoff n_photons."""
    n = target.n_photons
    s = basis_state(n, 0, n) * target.coeffs[0]
    for k in range(1, n + 1):
        s = s + basis_state(n, k, n - k) * target.coeffs[k]
    return s


def target_of_state(s: TwoModeState) -> TargetSpec:
    """Read a photon-number eigenstate back into a TargetSpec."""
    from .fock import is_photon_number_eigenstate

    n = is_photon_number_eigenstate(s)
    if n is None:
        raise ValueError("state is not a photon-number eigenstate")
    if n < 1:
        raise ValueError("state must carry at least one photon")
    coeffs = [s.amplitude(k, n - k) for k in range(n + 1)]
    return TargetSpec(n, coeffs)


def noon_factor_angles(n: int) -> list[tuple[float, float]]:
    """Closed-form angles for (|n,0> + |0,n>)/sqrt(2): theta = pi/4, odd phases.

    The generating polynomial is (z^n + 1)/sqrt(2 n!), whose roots are the n
    odd 2n-th roots of unity, all on the unit circle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return sorted(
        (math.pi / 4.0, _wrap_angle((2 * k + 1) * math.pi / n)) for k in range(n)
    )


def noon_target(n: int) -> TargetSpec:
    coeffs = [0.0] * (n + 1)
    coeffs[0] = 1.0
    coeffs[n] = 1.0
    return TargetSpec(n, coeffs)
