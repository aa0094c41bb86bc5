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
from functools import lru_cache

import numpy as np

from .fock import (TwoModeState, _sector, _sector_state, inner_product,
                   is_photon_number_eigenstate)


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
        object.__setattr__(self, "coeffs", tuple(vec.tolist()))


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
    """d_k = c_k / sqrt(k! (n - k)!), the generating-polynomial coefficients.

    A product k! (n - k)! past the float range is shifted right by an even
    2e bits for its square root, and the quotient scaled by 2^-e.  The
    square roots and shifts of every k depend on n alone and are computed
    once per n (``_monomial_scales``); each c_k is then divided by its
    square root as a Python complex, and only the shifted k are rescaled.
    A target whose every d_k underflows to 0 is rejected with a ValueError.
    """
    n = target.n_photons
    roots, shifts = _monomial_scales(n)
    d = np.array([c / r for c, r in zip(target.coeffs, roots)], dtype=complex)
    if shifts is not None:
        d.real = np.ldexp(d.real, shifts)
        d.imag = np.ldexp(d.imag, shifts)
    if not d.any():
        raise ValueError(
            f"every d_k = c_k / sqrt(k! (N - k)!) underflows to 0 at N = {n}")
    return d


@lru_cache(maxsize=32)
def _monomial_scales(n: int) -> tuple[tuple[float, ...], np.ndarray | None]:
    """sqrt(k! (n - k)! >> 2 e_k) and -e_k for k = 0..n; None for no shift.

    e_k = 0 while k! (n - k)! fits in a float, which holds up to n = 170.
    """
    roots, shifts = [], []
    f = math.factorial(n)
    for k in range(n + 1):
        if k:
            f = f * k // (n - k + 1)  # k! (n - k)!, exactly
        e = max(f.bit_length() - 1022, 0) // 2
        roots.append(math.sqrt(f >> 2 * e))
        shifts.append(-e)
    if not any(shifts):
        return tuple(roots), None
    shifts = np.array(shifts)
    shifts.setflags(write=False)  # shared by every caller of the cache
    return tuple(roots), shifts


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c[..., k] z^k at every z, for each row of c.

    The steps of ``np.polynomial.polynomial.polyval``, so each row gets
    its bits: Horner's rule from c[..., -1] + 0 z.
    """
    v = c[..., -1:] + z * 0
    for k in range(c.shape[-1] - 2, -1, -1):
        v = c[..., k:k + 1] + v * z
    return v


def _polish_roots(d: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Newton step on every root z of p(z) = sum_k d_k z^k.

    A root takes its step only where that lowers |p|; a root with
    p'(z) = 0 stays as it is.  p and p' are one stacked Horner loop.  p'
    is padded with a zero leading coefficient, which keeps its bits: its
    first real step adds a zero to m d_m, as ``polyval`` adds 0 z.
    """
    c = np.zeros((2, d.size), dtype=complex)
    c[0] = d
    np.multiply(d[1:], np.arange(1.0, d.size), out=c[1, :-1])
    p, dp = _horner(c, z)
    flat = dp == 0
    z_new = z - p / np.where(flat, 1.0, dp)
    better = ~flat & (np.abs(_horner(d, z_new)) < np.abs(p))
    return np.where(better, z_new, z)


def _binomial_root_angles(d_lo: complex, d_m: complex,
                          q: int) -> list[tuple[float, float]]:
    """Angles of the q roots of d_lo + d_m z^q, written down in closed form.

    The roots are |w|^{1/q} e^{i pi (t + 2k)/q}, k = 0..q-1, with
    w = -d_lo/d_m and t = arg(w)/pi; adding 0.0 to Im w turns -0.0 into 0.0,
    so w = -1 gives t = 1 and the phases are the odd multiples of pi/q.
    """
    w = -d_lo / d_m
    size = abs(w)
    if 0.0 < size < math.inf:
        theta = math.atan(size ** (1.0 / q))
    else:
        # w left the float range, though its q-th root may not: take the
        # root's log-modulus x from the parts, atan(e^x) as an atan2 whose
        # arguments cannot overflow, and the phase from the unit parts
        x = (math.log(abs(d_lo)) - math.log(abs(d_m))) / q
        theta = math.atan2(math.exp(min(x, 0.0)), math.exp(min(-x, 0.0)))
        w = -(d_lo / abs(d_lo)) / (d_m / abs(d_m))
    t = math.atan2(w.imag + 0.0, w.real) / math.pi
    return [(theta, _wrap_angle((t + 2 * k) * math.pi / q)) for k in range(q)]


def find_factor_angles(d) -> list[tuple[float, float]]:
    """Factor angles (theta_k, phi_k) from monomial coefficients d_0..d_N.

    Finite roots z of sum_k d_k z^k give theta = arctan|z|, phi = arg z;
    each exactly-zero leading coefficient contributes one pure-b† factor
    (pi/2, 0), appended after the finite factors.  Finite factors are
    sorted by (theta, phi) so equal inputs give equal lists.

    A two-term polynomial d_lo z^lo + d_m z^m (NOON targets among them) is
    factored in closed form: lo roots at z = 0 and the m - lo roots of
    z^{m-lo} = -d_lo/d_m, with no eigenproblem and no polish.  The branch
    has no tolerance: only coefficients that are exactly zero count as
    absent.  Any other polynomial goes to ``np.roots`` and one Newton step.
    """
    d = np.asarray(list(d), dtype=complex)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("need at least two monomial coefficients")
    nonzero = np.flatnonzero(d)
    if nonzero.size == 0:
        raise ValueError("coefficient vector is zero")
    n = d.size - 1
    lo, m = int(nonzero[0]), int(nonzero[-1])
    if nonzero.size <= 2:
        angles = [(0.0, 0.0)] * lo
        if m > lo:
            angles += _binomial_root_angles(complex(d[lo]), complex(d[m]),
                                            m - lo)
    else:
        # np.roots divides by the leading coefficient d_m; past the float
        # range that leaves infs or NaNs in its companion matrix
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = d[:m] / d[m]
        if not np.isfinite(ratios).all():
            raise ValueError(
                f"leading monomial coefficient d_{m} is too small: "
                f"d_k / d_{m} overflows floats at N = {n}")
        roots = _polish_roots(d[: m + 1], np.roots(d[: m + 1][::-1]))
        angles = []
        for z in map(complex, roots):
            theta = math.atan(abs(z))
            phi = _wrap_angle(cmath.phase(z)) if z != 0 else 0.0
            angles.append((theta, phi))
    angles.sort()
    angles.extend([(math.pi / 2.0, 0.0)] * (n - m))
    return angles


def apply_factors(angles) -> TwoModeState:
    """Raw factor product on vacuum at cutoff len(angles), unnormalized.

    After k factors the product is sum_j x_j |j, k - j>, one photon-number
    sector, so it is run on those k + 1 coefficients alone.  The factor
    cos(theta) a† - e^{i phi} sin(theta) b† maps them to the k + 2
        y_j = cos(theta) sqrt(j) x_{j-1} - e^{i phi} sin(theta) sqrt(k+1-j) x_j,
    and the result is embedded at cutoff N once, at the end.
    """
    angles = list(angles)
    sqrt_n = np.sqrt(np.arange(len(angles) + 1.0))
    x = np.ones(1, dtype=complex)
    for k, (theta, phi) in enumerate(angles, start=1):
        y = np.zeros(k + 1, dtype=complex)
        y[1:] = math.cos(theta) * (x * sqrt_n[1:k + 1])
        y[:-1] += -np.exp(1j * phi) * math.sin(theta) * (x * sqrt_n[k:0:-1])
        x = y
    return _sector_state(x)


def normalization(angles,
                  target: TargetSpec | None = None) -> tuple[float, complex]:
    """Squared norm of the raw factor product, and its phase against a target.

    Returns (N, g) where N = |product|^2 and g is unimodular with
    product / (sqrt(N) g) matching the target's phase; g = 1 when no target
    is given.
    """
    return _product_normalization(apply_factors(angles), target)


def _product_normalization(raw: TwoModeState,
                           target: TargetSpec | None) -> tuple[float, complex]:
    n_sq = raw.norm_sq()
    if n_sq == 0.0:
        raise ValueError("factor product annihilates the vacuum")
    if not math.isfinite(n_sq):
        raise ValueError("factor product's squared norm overflows floats")
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
    return _factorize(target)[0]


def _factorize(target: TargetSpec) -> tuple[FactorSet, TwoModeState]:
    """``factorize_target``, and the raw factor product it is read from."""
    angles = find_factor_angles(monomial_coeffs(target))
    raw = apply_factors(angles)
    n_sq, g = _product_normalization(raw, target)
    return FactorSet(tuple(angles), n_sq, g), raw


def reconstruct(fs: FactorSet) -> TwoModeState:
    """Normalized, phase-aligned state produced by a factor set."""
    return _aligned(apply_factors(fs.factors), fs)


def _aligned(raw: TwoModeState, fs: FactorSet) -> TwoModeState:
    """The raw factor product of ``fs``, normalized and phase-aligned."""
    return raw / (math.sqrt(fs.normalization) * fs.global_phase)


def state_of_target(target: TargetSpec) -> TwoModeState:
    """The target as a two-mode state at cutoff n_photons."""
    return _sector_state(target.coeffs)


def target_of_state(s: TwoModeState) -> TargetSpec:
    """Read a photon-number eigenstate back into a TargetSpec."""
    n = is_photon_number_eigenstate(s)
    if n is None:
        raise ValueError("state is not a photon-number eigenstate")
    if n < 1:
        raise ValueError("state must carry at least one photon")
    return TargetSpec(n, s.amps[_sector(n)])


def noon_factor_angles(n: int) -> list[tuple[float, float]]:
    """Closed-form angles for (|n,0> + |0,n>)/sqrt(2): theta = pi/4, odd phases.

    The generating polynomial is (z^n + 1)/sqrt(2 n!), whose roots are the n
    odd 2n-th roots of unity, all on the unit circle.  The list is the one
    ``find_factor_angles`` gives for a NOON target, bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = np.zeros(n + 1)
    d[0] = d[n] = 1.0
    return find_factor_angles(d)


def noon_target(n: int) -> TargetSpec:
    coeffs = [0.0] * (n + 1)
    coeffs[0] = 1.0
    coeffs[n] = 1.0
    return TargetSpec(n, coeffs)
