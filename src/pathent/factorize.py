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
from .yields import _at_least, _photon_number


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
        n_photons = _photon_number(n_photons)
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
        self._normalize(vec, _coeff_norm(vec))

    @classmethod
    def _of_norm(cls, vec: np.ndarray, norm: float) -> "TargetSpec":
        """The target of N + 1 finite coefficients ``vec`` whose norm
        ``norm`` = ``_coeff_norm(vec)`` the caller has already taken."""
        target = cls.__new__(cls)
        target._normalize(vec, norm)
        return target

    def _normalize(self, vec: np.ndarray, norm: float) -> None:
        if norm == 0.0:
            raise ValueError("coefficient vector is zero")
        # complex division by a subnormal norm overflows and gives NaN
        if math.isinf(norm) or norm < np.finfo(float).tiny:
            raise ValueError("coefficient norm is outside the float range")
        object.__setattr__(self, "n_photons", vec.size - 1)
        object.__setattr__(self, "coeffs", tuple((vec / norm).tolist()))


@dataclass(frozen=True)
class FactorSet:
    """Angles (theta_k, phi_k) of the factor product, plus bookkeeping.

    ``normalization`` is the squared norm of the raw factor product on
    vacuum; ``global_phase`` is the unimodular number by which the phase-
    aligned reconstruction must divide the raw product, so that
    raw / (sqrt(normalization) * global_phase) reproduces the target.  A
    normalization that is not finite and positive, or a global phase that
    is not finite or whose modulus is more than 1e-12 off 1, is refused.
    """

    factors: tuple[tuple[float, float], ...]
    normalization: float
    global_phase: complex = 1.0

    def __post_init__(self):
        n_sq, g = self.normalization, complex(self.global_phase)
        if not (math.isfinite(n_sq) and n_sq > 0.0):
            raise ValueError(
                f"normalization must be finite and positive, got {n_sq}")
        if not cmath.isfinite(g):
            raise ValueError(f"global_phase must be finite, got {g}")
        # a phase printed to 17 digits comes back within an ulp or two of 1
        if abs(abs(g) - 1.0) > 1e-12:
            raise ValueError(f"global_phase must have modulus 1, got {g}")

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


# Highest power of a block of the polish: at N <= 64 the values of p and p'
# are one product with the table of running powers z^0 .. z^N.
_POWERS = 64


def _values(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k c[r, k] u^k for each row r of c at every |u| <= 1.

    The sum runs in blocks of b <= ``_POWERS`` + 1 coefficients: one table
    of running powers u^0 .. u^b and one matrix product of every block
    with it, the blocks then summed with the running powers (u^b)^j as
    weights.  No power exceeds 1 in modulus, so nothing overflows, and the
    number of numpy calls does not depend on the degree.
    """
    rows, size = c.shape
    b = min(size, _POWERS + 1)
    blocks = -(-size // b)
    powers = np.empty((b + 1, u.size), dtype=complex)
    powers[0] = 1.0
    powers[1:] = u
    np.multiply.accumulate(powers, axis=0, out=powers)
    if blocks == 1:
        return c @ powers[:b]
    padded = np.zeros((rows, blocks * b), dtype=complex)
    padded[:, :size] = c
    v = (padded.reshape(rows * blocks, b) @ powers[:b]).reshape(
        rows, blocks, u.size)
    steps = np.empty((blocks, u.size), dtype=complex)
    steps[0] = 1.0
    steps[1:] = powers[b]
    np.multiply.accumulate(steps, axis=0, out=steps)
    return (v * steps).sum(axis=1)


def _polish_roots(d: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Newton step on every root z of p(z) = sum_k d_k z^k, d_N != 0.

    A root with |z| <= 1 steps in z on p; a root with |z| > 1 steps in
    w = 1/z on the reversed polynomial q(w) = w^N p(1/w) = sum_k d_{N-k} w^k.
    Either way no power exceeds 1 in modulus (``_values``), so nothing
    overflows at any N.  The new point is evaluated in the variable of its
    own modulus, and the step is taken only where it lowers |p|.  Both
    polynomials give |p(z)| / max(1, |z|)^N, so the old and new values are
    compared after multiplying one side by the ratio of the two maxima to
    the power N, the smaller over the larger: a factor of at most 1.  A
    root whose derivative is 0, or whose step would be longer than 4 in
    its own variable, stays as it is.
    """
    n = d.size - 1
    k = np.arange(1.0, n + 1)
    # rows p and p' in z, then q and q' in w
    c = np.zeros((4, n + 1), dtype=complex)
    c[0] = d
    c[2] = d[::-1]
    np.multiply(c[::2, 1:], k, out=c[1::2, :-1])
    # the variable of each root and its scale 1 / max(1, |z|)
    out = np.abs(z) > 1.0
    u = np.divide(1.0, z, out=z.astype(complex), where=out)
    g = np.where(out, np.abs(u), 1.0)
    v = _values(c, u)
    p, dp = np.where(out, v[2:], v[:2])
    ok = 0.25 * np.abs(p) < np.abs(dp)
    u_new = u - np.divide(p, dp, out=np.zeros_like(u), where=ok)
    cross = np.abs(u_new) > 1.0
    np.divide(1.0, u_new, out=u_new, where=cross)
    out_new = out ^ cross
    g_new = np.where(out_new, np.abs(u_new), 1.0)
    v = _values(c[::2], u_new)
    p_new = np.where(out_new, v[1], v[0])
    r = np.minimum(g, g_new) / np.maximum(g, g_new)
    r **= n
    a, b = np.abs(p_new), np.abs(p)
    better = ok & np.where(g_new >= g, a * r < b, a < b * r)
    z_new = np.divide(1.0, u_new, out=u_new.copy(), where=better & out_new)
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


def _companion_roots(row: np.ndarray, zeros: int) -> np.ndarray:
    """The eigenvalues of the companion matrix with first row ``row``, then
    ``zeros`` roots at 0: what ``np.roots`` returns for the polynomial that
    its first row and trailing zero coefficients describe."""
    companion = np.eye(row.size, k=-1, dtype=complex)
    companion[0] = row
    return np.concatenate([np.linalg.eigvals(companion),
                           np.zeros(zeros, dtype=complex)])


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
    absent.  Any other polynomial is factored as ``np.roots`` does it, from
    the companion matrix of d_lo..d_m, whose first row is the ratios
    -d_k / d_m that the overflow check takes (the same matrix, so the same
    roots bit for bit), with the lo roots at 0 appended; then every root
    takes one Newton step of ``_polish_roots``.  A non-finite d_k is
    refused before either branch.
    """
    d = np.asarray(list(d), dtype=complex)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("need at least two monomial coefficients")
    finite = np.isfinite(d)
    if not finite.all():
        raise ValueError(
            f"monomial coefficient d_{int(np.argmin(finite))} is not finite")
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
        # the companion matrix that np.roots builds for d_lo..d_m: its
        # first row is -d_{m-1}/d_m .. -d_lo/d_m, and past the float range
        # those ratios are infs or NaNs
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = -d[lo:m] / d[m]
        if not np.isfinite(ratios).all():
            raise ValueError(
                f"leading monomial coefficient d_{m} is too small: "
                f"d_k / d_{m} overflows floats at N = {n}")
        roots = _polish_roots(d[:m + 1], _companion_roots(ratios[::-1], lo))
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


def _finite_angles(name: str, angles) -> list:
    """``angles`` as a list, each (theta, phi) checked to be finite."""
    angles = list(angles)
    for k, (theta, phi) in enumerate(angles):
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"{name}[{k}] = ({theta}, {phi}) is not finite")
    return angles


def normalization(angles,
                  target: TargetSpec | None = None) -> tuple[float, complex]:
    """Squared norm of the raw factor product, and its phase against a target.

    Returns (N, g) where N = |product|^2 and g is unimodular with
    product / (sqrt(N) g) matching the target's phase; g = 1 when no target
    is given.  A factor with a non-finite angle is refused.
    """
    return _product_normalization(
        apply_factors(_finite_angles("angles", angles)), target)


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
    """Normalized, phase-aligned state produced by a factor set.

    A factor with a non-finite angle is refused.
    """
    return _aligned(apply_factors(_finite_angles("factors", fs.factors)), fs)


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
    n = _at_least("n", n, 1)
    d = np.zeros(n + 1)
    d[0] = d[n] = 1.0
    return find_factor_angles(d)


def noon_target(n: int) -> TargetSpec:
    n = _photon_number(n)
    coeffs = [0.0] * (n + 1)
    coeffs[0] = 1.0
    coeffs[n] = 1.0
    return TargetSpec(n, coeffs)
