"""Exact Fock-space algebra for two- and four-mode photonic states.

Amplitudes are stored densely over the simplex of occupation tuples with
total photon number <= cutoff, sector-major: by total photon number, then
lexicographically, first mode outermost.  Each photon-number sector is one
contiguous slice, ``_sector`` for two modes, and a ket keeps its index at
every cutoff that holds it.  Everything is complex double precision and
every operation is pure: inputs are never mutated.

One table per (modes, cutoff), ``_basis``, holds the kets' occupations and
maps each ket to its index.  Constructors build a state at its photon
number, a tensor product at the sum of its factors' cutoffs, and only
``with_cutoff`` re-embeds, by padding or truncating.  Every ladder product,
a creation or annihilation operator or a step of the absorber a + b, is
``_ladder``: a weighted shift of one sector's coefficients into the
neighbouring sector, applied sector by sector.
The two-mode splitter U is exponentiated on each photon-number sector from
one eigendecomposition per cutoff, ``_sector_eigh``: ``beam_splitter``
applies it as two batched real products and never forms U, and
``_sector_blocks`` builds U's blocks into one (cutoff + 1)^3 stack, the
layout of a density matrix's blocks.  The heralded blocks call neither;
``blocks`` reads their few entries of U, and their ancillas, from closed
forms.  The four-mode pair of splitters on (a, c) and (b, d) is U (x) U:
``beam_splitter_pair_exact`` places the stack on the diagonal of a real U
and returns U X U^T, X[(n_a, n_c), (n_b, n_d)] holding the amplitudes;
``_split_cd`` maps the amplitudes to ancilla outcomes (n_c, n_d) and
signal kets.  A density matrix is held as the stack of its photon-number
sector blocks: the splitters conserve photon number and the detectors
count it, so no rho pathent builds or reads has coherence between sectors.
The dense-exponential oracle shares only ``_basis`` with the splitters.  Its
generator G conserves n_a + n_c and n_b + n_d, so the oracle builds it,
with its own hop loop, as one dense complex block per conserved pair.
Each block is exponentiated from the eigendecomposition of the Hermitian
iG, made once per cutoff: one ``np.exp`` gives the phases of every block,
and the blocks, zero-padded to the next square from 4, are applied as one
stacked product per padded size.  No runtime code imports scipy.

Beam-splitter convention: a mixing angle ``kappa`` generates
``exp(kappa (x† y - x y†))`` on the mode pair (x, y), whose single-photon
block is ``[[cos k, sin k], [-sin k, cos k]]`` in the basis (|1,0>, |0,1>).
A photon entering the second mode transfers to the first with probability
sin^2(kappa), the transmittance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .yields import _at_least


class CutoffOverflowError(ValueError):
    """A ladder operation would push amplitude past the stored cutoff."""


# ---------------------------------------------------------------------------
# basis bookkeeping


@lru_cache(maxsize=None)
def _basis(modes: int, cutoff: int):
    """Occupation columns of the ``modes``-mode simplex and its lookup table.

    The kets have total photon number <= cutoff and are ordered by that
    total, then lexicographically, first mode outermost: one 1-D array per
    mode.  Sector n thus starts at C(n + modes - 1, modes) at every cutoff.
    The table maps an occupation tuple to its index (-1 beyond the cutoff).
    """
    occ = np.zeros((1, 0), dtype=np.intp)
    for _ in range(modes):
        counts = cutoff + 1 - occ.sum(axis=1)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        occ = np.column_stack([np.repeat(occ, counts, axis=0),
                               np.arange(first.size) - first])
    # a stable sort by total keeps the lexicographic order in each sector
    occ = tuple(occ[np.argsort(occ.sum(axis=1), kind="stable")].T.copy())
    table = np.full((cutoff + 1,) * modes, -1, dtype=np.intp)
    table[occ] = np.arange(len(occ[0]))
    return occ, table


def _ket_index(modes: int, cutoff: int, ket) -> int:
    """Index of an occupation tuple; ValueError if it is not in the basis."""
    if (len(ket) != modes
            or not all(isinstance(n, (int, np.integer)) for n in ket)
            or min(ket) < 0 or sum(ket) > cutoff):
        raise ValueError(
            f"ket {ket} is not in the {modes}-mode basis at cutoff {cutoff}")
    return int(_basis(modes, cutoff)[1][ket])


# perfbench/tracing.py reads the build count through this name.  The one
# cache holds the tables of every mode count, so all of them are counted.
_basis4 = _basis


def dim2(cutoff: int) -> int:
    return (cutoff + 1) * (cutoff + 2) // 2


def _sector(n: int) -> slice:
    """Two-mode kets |0, n> .. |n, 0> at every cutoff >= n; empty if n < 0."""
    return slice(dim2(n - 1), dim2(n))


def dim4(cutoff: int) -> int:
    return math.comb(cutoff + 4, 4)


# ---------------------------------------------------------------------------
# state containers


@dataclass(frozen=True, eq=False)
class _FockState:
    """One complex amplitude per ket of a ``_modes``-mode simplex."""

    cutoff: int
    amps: np.ndarray

    _modes = 0

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        amps = np.asarray(self.amps, dtype=complex)
        d = math.comb(self.cutoff + self._modes, self._modes)
        if amps.shape != (d,):
            raise ValueError(
                f"expected {d} amplitudes for cutoff "
                f"{self.cutoff}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def amplitude(self, *ket: int) -> complex:
        return complex(self.amps[_ket_index(self._modes, self.cutoff, ket)])


class TwoModeState(_FockState):
    """Two-mode Fock state: one complex amplitude per ket |n_a, n_b>.

    States may be unnormalized; conditional states carry their success
    probability in the squared norm.
    """

    _modes = 2

    def normalized(self) -> "TwoModeState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return TwoModeState(self.cutoff, self.amps / n)

    def nonzero_amplitudes(self):
        """(n_a, n_b, amplitude) of |amplitude| > 1e-12 by n_a + n_b, n_a."""
        (na, nb), _ = _basis(2, self.cutoff)
        return [(int(na[i]), int(nb[i]), complex(self.amps[i]))
                for i in np.flatnonzero(np.abs(self.amps) > 1e-12)]

    def __add__(self, other: "TwoModeState") -> "TwoModeState":
        if not isinstance(other, TwoModeState):
            return NotImplemented
        if other.cutoff != self.cutoff:
            raise ValueError("cutoff mismatch")
        return TwoModeState(self.cutoff, self.amps + other.amps)

    def __sub__(self, other: "TwoModeState") -> "TwoModeState":
        if not isinstance(other, TwoModeState):
            return NotImplemented
        if other.cutoff != self.cutoff:
            raise ValueError("cutoff mismatch")
        return TwoModeState(self.cutoff, self.amps - other.amps)

    def __mul__(self, scalar) -> "TwoModeState":
        return TwoModeState(self.cutoff, self.amps * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "TwoModeState":
        return TwoModeState(self.cutoff, self.amps / complex(scalar))


class FourModeState(_FockState):
    """Joint Fock state of signal modes (a, b) and ancilla modes (c, d)."""

    _modes = 4


@lru_cache(maxsize=8)
def _in_block(n: int) -> np.ndarray:
    """[m, i]: whether i <= m, i.e. [m, i, i] of a sector-block stack is in
    block m, at cutoff n."""
    tri = np.tri(n + 1, dtype=bool)
    tri.setflags(write=False)  # shared by every caller of the cache
    return tri


class TwoModeDensity:
    """Density matrix over the two-mode Fock basis, held by its sector blocks.

    Every rho pathent builds or reads commutes with photon number, so it is
    held without coherence between photon-number sectors: the
    (cutoff + 1)^3 stack ``blocks`` has the block on sector m,
    <i, m - i| rho |j, m - j>, in its corner ``blocks[m, :m + 1, :m + 1]``
    and +0 outside those corners.  ``from_sectors(blocks)`` takes the
    corners of a stack and drops everything outside them;
    ``TwoModeDensity(cutoff, mat)`` gathers the stack from a dense
    dim2 x dim2 matrix and rejects any nonzero entry between two sectors,
    naming it.  ``mat`` and ``sector`` build a dense matrix from the
    blocks on each call.
    """

    def __init__(self, cutoff: int, mat):
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        mat = np.asarray(mat, dtype=complex)
        d = dim2(cutoff)
        if mat.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got {mat.shape}")
        (na, nb), _ = _basis(2, cutoff)
        n = na + nb
        cross = np.argwhere((n[:, None] != n) & (mat != 0))
        if cross.size:
            i, j = cross[0]
            raise ValueError(f"density matrix entry [{i}, {j}] couples "
                             f"photon-number sectors {n[i]} and {n[j]}")
        self.cutoff = cutoff
        self.blocks = np.zeros((cutoff + 1,) * 3, dtype=complex)
        for m in range(cutoff + 1):
            self.blocks[m, :m + 1, :m + 1] = mat[_sector(m), _sector(m)]

    @classmethod
    def from_sectors(cls, blocks) -> "TwoModeDensity":
        """rho from a cube whose corner [m, :m + 1, :m + 1] is block m.

        The corners are copied into a new stack and every entry outside
        them is dropped, +0 in the stack, so ``validate`` judges only the
        entries that ``block``, ``mat``, ``trace`` and ``sector_weight``
        read.
        """
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape != (len(blocks),) * 3:
            raise ValueError(f"expected a cube of sector blocks, got "
                             f"{blocks.shape}")
        if len(blocks) == 0:
            raise ValueError("cutoff must be non-negative")
        return cls._holding(np.array(blocks, order="C"))

    @classmethod
    def _holding(cls, stack: np.ndarray) -> "TwoModeDensity":
        """rho held in ``stack`` itself, a complex cube of sector blocks,
        with +0 written over every entry outside the corners."""
        rho = cls.__new__(cls)
        rho.cutoff = len(stack) - 1
        tri = _in_block(rho.cutoff)
        np.copyto(stack, 0.0, where=~(tri[:, :, None] & tri[:, None]))
        rho.blocks = stack
        return rho

    @classmethod
    def from_state(cls, s: TwoModeState) -> "TwoModeDensity":
        """|s><s| by its sector blocks, the outer product of every sector.

        Row m of ``x`` holds sector m's coefficients, so x[m, i] x[m, j]*
        is block m's entry [i, j].  Coherences between photon-number
        sectors are dropped; no pathent reading uses them.  The product is
        built for rho alone, so rho holds it without a copy.
        """
        x = np.zeros((s.cutoff + 1,) * 2, dtype=complex)
        x[_in_block(s.cutoff)] = s.amps
        return cls._holding(x[:, :, None] * x[:, None].conj())

    @property
    def mat(self) -> np.ndarray:
        """The dense matrix, a new one on each read."""
        mat = np.zeros((dim2(self.cutoff),) * 2, dtype=complex)
        for m in range(self.cutoff + 1):
            mat[_sector(m), _sector(m)] = self.block(m)
        return mat

    def block(self, n: int) -> np.ndarray:
        """The (n + 1) x (n + 1) block on sector n; empty outside the cutoff."""
        if not 0 <= n <= self.cutoff:
            return np.zeros((0, 0), dtype=complex)
        return self.blocks[n, :n + 1, :n + 1]

    def trace(self) -> float:
        # the diagonal in the dense matrix's order, summed as np.trace does
        diag = np.diagonal(self.blocks, axis1=1, axis2=2)
        return float(diag[_in_block(self.cutoff)].sum().real)

    def sector(self, n: int) -> np.ndarray:
        """Matrix restricted to the total-photon-number-n subspace."""
        out = np.zeros((dim2(self.cutoff),) * 2, dtype=complex)
        out[_sector(n), _sector(n)] = self.block(n)
        return out

    def sector_weight(self, n: int) -> float:
        return float(np.trace(self.block(n)).real)

    def validate(self) -> None:
        """Raise ValueError unless finite, Hermitian, trace in [0, 1], and PSD.

        The sector blocks run as one stack of square blocks; a non-finite
        entry is named by its sector.  Positivity is rho >= -1e-9 I.  It is
        proved by one batched Cholesky factorization of the stack with its
        diagonal shifted by 1e-9 and the padding of each block's diagonal
        set to 1, which succeeds exactly when the smallest eigenvalue of
        rho lies above -1e-9, up to rounding of order dim * eps at that
        boundary: the spectrum of a block-diagonal rho is the union of its
        blocks'.  Only when the factorization fails does a full
        eigendecomposition run; it has the final word, and rejects only a
        smallest eigenvalue below -1e-9, naming it.
        """
        stack = self.blocks
        if not np.isfinite(stack).all():
            m, i, j = np.argwhere(~np.isfinite(stack))[0]
            raise ValueError(
                f"density matrix sector {m} entry [{i}, {j}] is not finite")
        if np.abs(stack - stack.conj().swapaxes(1, 2)).max() > 1e-12:
            raise ValueError("density matrix is not Hermitian")
        tr = self.trace()
        if not (-1e-12 <= tr <= 1.0 + 1e-12):
            raise ValueError(f"trace {tr} outside [0, 1]")
        pad = np.where(_in_block(self.cutoff), 1e-9, 1.0)
        shifted = stack.copy()
        shifted.reshape(len(stack), -1)[:, :: stack.shape[1] + 1] += pad
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(stack).min()
            if low < -1e-9:
                raise ValueError(f"negative eigenvalue {low}") from None


# ---------------------------------------------------------------------------
# constructors


def vacuum(cutoff: int) -> TwoModeState:
    """The two-mode vacuum |0, 0>."""
    return basis_state(cutoff, 0, 0)


def zero_state(cutoff: int) -> TwoModeState:
    return TwoModeState(cutoff, np.zeros(dim2(cutoff), dtype=complex))


def basis_state(cutoff: int, na: int, nb: int) -> TwoModeState:
    amps = np.zeros(dim2(cutoff), dtype=complex)
    amps[_ket_index(2, cutoff, (na, nb))] = 1.0
    return TwoModeState(cutoff, amps)


def _sector_state(coeffs) -> TwoModeState:
    """sum_k coeffs[k] |k, n - k> as a two-mode state at cutoff n."""
    n = len(coeffs) - 1
    amps = np.zeros(dim2(n), dtype=complex)
    amps[_sector(n)] = coeffs
    return TwoModeState(n, amps)


def noon_state(n: int) -> TwoModeState:
    """The maximally path-entangled state (|n,0> + |0,n>)/sqrt(2), cutoff n."""
    n = _at_least("n", n, 1)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[[0, n]] = 1.0 / math.sqrt(2.0)
    return _sector_state(coeffs)


# perfbench/tracing.py wraps this name; no pathent code calls it.
def tensor(ab: TwoModeState, cd: TwoModeState) -> FourModeState:
    """Embed ab (x) cd into a four-mode state at cutoff ab.cutoff + cd.cutoff."""
    c = ab.cutoff + cd.cutoff
    (na, nb, nc, nd), _ = _basis(4, c)
    table = _basis(2, c)[1]
    return FourModeState(c, with_cutoff(ab, c).amps[table[na, nb]]
                         * with_cutoff(cd, c).amps[table[nc, nd]])


def with_cutoff(s: TwoModeState, cutoff: int) -> TwoModeState:
    """Re-embed a state at a different cutoff (lossless, or raise)."""
    if cutoff == s.cutoff:
        return s
    if s.amps[dim2(cutoff):].any():
        raise CutoffOverflowError("state does not fit in the requested cutoff")
    amps = np.zeros(dim2(cutoff), dtype=complex)
    amps[:s.amps.size] = s.amps[:amps.size]
    return TwoModeState(cutoff, amps)


# ---------------------------------------------------------------------------
# ladder operators and friends


def _check_mode(mode: str) -> None:
    if mode not in ("a", "b"):
        raise ValueError(f"unknown mode {mode!r}")


def _finite(name: str, angle: float) -> None:
    if not math.isfinite(angle):
        raise ValueError(f"{name} must be finite, got {angle}")


def _ladder(x: np.ndarray, mode: str, step: int) -> np.ndarray:
    """a or b (step -1), or a† or b† (step 1), on one sector's coefficients.

    x[i] on axis 0 is the amplitude of |i, n - i> in sector n = len(x) - 1,
    with any further axes as columns; the result holds sector n + step's.
    The weights are sqrt(i) for a, sqrt(n - i) for b, sqrt(i + 1) for a†
    and sqrt(n - i + 1) for b†.
    """
    if mode == "b":
        # b acts on |i, n - i> as a does on the coefficients read backwards
        return _ladder(x[::-1], "a", step)[::-1]
    n = len(x) - 1
    root = np.sqrt(np.arange(1.0, n + 2))
    if step < 0:
        return (x[1:].T * root[:n]).T
    out = np.zeros((n + 2,) + x.shape[1:], dtype=x.dtype)
    out[1:] = (x.T * root).T
    return out


def apply_creation(s: TwoModeState, mode: str) -> TwoModeState:
    """Apply the creation operator of the chosen mode ("a" or "b")."""
    _check_mode(mode)
    if s.amps[_sector(s.cutoff)].any():
        raise CutoffOverflowError(
            f"creation on mode {mode} would exceed cutoff {s.cutoff}"
        )
    out = np.zeros_like(s.amps)
    for n in range(s.cutoff):
        out[_sector(n + 1)] = _ladder(s.amps[_sector(n)], mode, 1)
    return TwoModeState(s.cutoff, out)


def apply_annihilation(s: TwoModeState, mode: str) -> TwoModeState:
    """Apply the annihilation operator of the chosen mode ("a" or "b")."""
    _check_mode(mode)
    out = np.zeros_like(s.amps)
    for n in range(1, s.cutoff + 1):
        out[_sector(n - 1)] = _ladder(s.amps[_sector(n)], mode, -1)
    return TwoModeState(s.cutoff, out)


def apply_linear_factor(s: TwoModeState, theta: float, phi: float) -> TwoModeState:
    """Apply the photon-adding factor cos(theta) a† - e^{i phi} sin(theta) b†."""
    _finite("theta", theta)
    _finite("phi", phi)
    ca = apply_creation(s, "a")
    cb = apply_creation(s, "b")
    coeff_b = -np.exp(1j * phi) * math.sin(theta)
    return TwoModeState(s.cutoff, math.cos(theta) * ca.amps + coeff_b * cb.amps)


def phase_shift(s: TwoModeState, phi: float, mode: str = "b") -> TwoModeState:
    """Apply the phase shifter exp(i phi n_mode)."""
    _check_mode(mode)
    _finite("phi", phi)
    (na, nb), _ = _basis(2, s.cutoff)
    n = na if mode == "a" else nb
    return TwoModeState(s.cutoff, s.amps * np.exp(1j * phi * n))


def inner_product(x: TwoModeState, y: TwoModeState) -> complex:
    """<x|y> with conjugation on x."""
    if x.cutoff != y.cutoff:
        raise ValueError("cutoff mismatch")
    return complex(np.vdot(x.amps, y.amps))


def overlap_fidelity(x: TwoModeState, y: TwoModeState) -> float:
    """|<x|y>| / (|x| |y|): phase-insensitive state agreement in [0, 1].

    Clamped at 1: the rounded ratio of equal states can land an ulp or two
    above it.
    """
    if x.cutoff != y.cutoff:
        raise ValueError("cutoff mismatch")
    return _fidelity(x.amps, y.amps)


def _fidelity(x: np.ndarray, y: np.ndarray) -> float:
    """``overlap_fidelity`` of two amplitude vectors over one set of kets,
    such as the coefficients of one photon-number sector."""
    nx, ny = (math.sqrt(float(np.vdot(v, v).real)) for v in (x, y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("fidelity of a zero state is undefined")
    return min(1.0, abs(complex(np.vdot(x, y))) / (nx * ny))


def is_photon_number_eigenstate(s: TwoModeState) -> int | None:
    """Total photon number if sharp, else None.

    A ket counts as populated when its amplitude exceeds 1e-12 of the
    largest amplitude.
    """
    mags = np.abs(s.amps)
    top = mags.max()
    if top == 0.0:
        raise ValueError("zero state has no photon-number eigenvalue")
    (na, nb), _ = _basis(2, s.cutoff)
    totals = np.unique((na + nb)[mags > 1e-12 * top])
    return int(totals[0]) if totals.size == 1 else None


# ---------------------------------------------------------------------------
# beam splitters


@lru_cache(maxsize=8)
def _sector_eigh(cutoff: int) -> tuple:
    """(lam, vec, phase): the splitter's generator diagonalized per sector.

    On sector n, G = a†b - ab† is tridiagonal over the kets |i, n - i>,
    G[i + 1, i] = -G[i, i + 1] = sqrt((i + 1)(n - i)).  With D = diag(i^i),
    ``phase``, H_n = D^dagger (iG) D is real symmetric, with that
    off-diagonal and the integer spectrum n - 2l, so U = exp(kappa G) =
    D W e^{-i kappa Lambda} W^T D^dagger.  One batched ``eigh`` takes every
    H_n, padded with cutoff + 1 on the diagonal, above its spectrum:
    ``vec[n]`` holds W in its corner [:n + 1, :n + 1] and +0 around it,
    ``lam[n]`` the eigenvalues rounded to integers.  2.2 MB at cutoff 64.
    """
    n, i, j = np.ogrid[:cutoff + 1, :cutoff + 1, :cutoff + 1]
    pad = np.where((i == j) & (i > n), cutoff + 1.0, 0.0)
    # eigh reads the lower triangle: the hops sqrt(i (n - j)) at i = j + 1
    hop = np.where(i == j + 1, np.sqrt(i * np.maximum(n - j, 0.0)), 0.0)
    lam, vec = np.linalg.eigh(hop + pad)
    vec = np.where((i <= n) & (j <= n), vec, 0.0)
    phase = np.array([1, 1j, -1, -1j])[np.arange(cutoff + 1) % 4]
    parts = (np.rint(lam), vec, phase)
    for part in parts:
        part.setflags(write=False)  # shared by every caller of the cache
    return parts


def _sector_exp(cutoff: int, kappa: float) -> tuple:
    """``_sector_eigh``'s vec and phase, and e^{-i kappa Lambda} at kappa
    reduced to [-pi, pi] by atan2(sin kappa, cos kappa): U is 2 pi-periodic
    in kappa."""
    _finite("kappa", kappa)
    lam, vec, phase = _sector_eigh(cutoff)
    kappa = math.atan2(math.sin(kappa), math.cos(kappa))
    return vec, phase, np.exp(-1j * kappa * lam)


def _sector_blocks(cutoff: int, kappa: float) -> np.ndarray:
    """U's block on every photon-number sector, as a (cutoff + 1)^3 stack.

    ``stack[n, :n + 1, :n + 1]`` is U's block on sector n,
    <i, n - i| U |j, n - j>, with +0 around it: U[j, k] = Re(i^(j - k) Y),
    Y = W e^{-i kappa Lambda} W^T one batched real product.
    """
    vec, phase, rot = _sector_exp(cutoff, kappa)
    # [n, l, k] = e^{-i kappa lam_l} W[k, l], complex-contiguous for the view
    t = np.multiply(vec.transpose(0, 2, 1), rot[:, :, None], order="C")
    y = (vec @ t.view(float)).view(complex)
    # + 0.0 turns the -0.0 a zero product may leave outside the corners into +0
    return (y * np.outer(phase, phase.conj())).real + 0.0


def beam_splitter(s: TwoModeState, kappa: float) -> TwoModeState:
    """Mix the two modes: |1,0> -> cos(kappa)|1,0> - sin(kappa)|0,1>.

    Sector n's amplitudes, row n of a zero-padded matrix, go through
    D W e^{-i kappa Lambda} W^T D^dagger as two batched real products on
    complex float views; U is never formed.
    """
    vec, phase, rot = _sector_exp(s.cutoff, kappa)
    tri = _in_block(s.cutoff)
    x = np.zeros(rot.shape + (1,), dtype=complex)
    x[tri, 0] = s.amps
    x *= phase.conj()[:, None]
    z = (vec.transpose(0, 2, 1) @ x.view(float)).view(complex)
    z *= rot[:, :, None]
    y = (vec @ z.view(float)).view(complex)
    return TwoModeState(s.cutoff, (y[:, :, 0] * phase)[tri])


def beam_splitter_pair_exact(s: FourModeState, kappa: float) -> FourModeState:
    """Identical beam splitters on (a, c) and (b, d): U X U^T.

    The pair is U (x) U, with U the two-mode splitter as a matrix over the
    two-mode simplex; X[(n_a, n_c), (n_b, n_d)] holds the amplitudes.  U is
    block-diagonal in photon number: the ``_sector_blocks`` stack is placed
    on its diagonal, and the amplitudes in X, through one cached layout,
    ``_pair_layout``.  U is real, so U X U^T is two real products on
    complex float views, U X and then U (U X)^T, read back transposed.
    U conserves photon number, so X keeps its p + q <= cutoff support.
    """
    rows, cols, dst, src = _pair_layout(s.cutoff)
    d = dim2(s.cutoff)
    u = np.zeros((d, d))
    u.ravel()[dst] = _sector_blocks(s.cutoff, kappa).take(src)
    x = np.zeros((d, d), dtype=complex)
    x[rows, cols] = s.amps
    ux_t = (u @ x.view(float)).view(complex).T.copy()
    return FourModeState(s.cutoff,
                         (u @ ux_t.view(float)).view(complex)[cols, rows])


@lru_cache(maxsize=16)
def _pair_layout(cutoff: int) -> tuple:
    """(rows, cols, dst, src): the places of a four-mode state and of U.

    ``rows`` and ``cols`` place each four-mode ket in
    X[(n_a, n_c), (n_b, n_d)]; ``dst`` and ``src`` are the flat positions
    of the sector blocks in U and in their stack, one int32 pair per
    in-block entry, sum_n (n + 1)^2 of them: 0.75 MB at cutoff 64.
    """
    (na, nb, nc, nd), _ = _basis(4, cutoff)
    table = _basis(2, cutoff)[1]
    tri = _in_block(cutoff)
    n, i, j = np.nonzero(tri[:, :, None] & tri[:, None])
    first = n * (n + 1) // 2  # sector n starts at dim2(n - 1)
    dst = (first + i) * dim2(cutoff) + first + j
    src = (n * (cutoff + 1) + i) * (cutoff + 1) + j
    layout = (table[na, nc], table[nb, nd], dst.astype(np.int32),
              src.astype(np.int32))
    for part in layout:
        part.setflags(write=False)  # shared by every caller of the cache
    return layout


def _pair_blocks(cutoff: int) -> tuple:
    """Dense blocks of a†c - ac† + b†d - bd† over the four-mode basis.

    The generator conserves n_a + n_c = p and n_b + n_d = q, so it is
    block-diagonal: one (basis indices, complex generator) pair per (p, q)
    with p + q <= cutoff, each of (p + 1)(q + 1) kets.  Not cached: the
    oracle keeps only their eigenpairs, ``_pair_unitary``.
    """
    occ, table = _basis(4, cutoff)
    p_all, q_all = occ[0] + occ[2], occ[1] + occ[3]
    local = np.empty(len(p_all), dtype=np.intp)
    blocks = []
    for p in range(cutoff + 1):
        for q in range(cutoff + 1 - p):
            idx = np.flatnonzero((p_all == p) & (q_all == q))
            local[idx] = np.arange(idx.size)
            sub = [n[idx] for n in occ]
            # complex: the oracle diagonalizes the Hermitian iG
            gen = np.zeros((idx.size, idx.size), dtype=complex)
            # (created mode, lowered mode, sign) of each term, modes a=0 .. d=3
            for create, lower, sign in ((0, 2, 1.0), (2, 0, -1.0),
                                        (1, 3, 1.0), (3, 1, -1.0)):
                keep = np.flatnonzero(sub[lower] >= 1)
                new = [n[keep] for n in sub]
                w = sign * np.sqrt((new[create] + 1.0) * new[lower])
                new[create] += 1
                new[lower] -= 1
                gen[local[table[tuple(new)]], keep] += w
            blocks.append((idx, gen))
    return tuple(blocks)


# perfbench/tracing.py reads this cache's counters through its name.
@lru_cache(maxsize=None)
def _pair_unitary(cutoff: int) -> tuple:
    """Eigenpairs of iG, each block G of ``_pair_blocks(cutoff)``, padded.

    G is real antisymmetric, so iG is Hermitian and
    exp(kappa G) = vec diag(exp(-i kappa lam)) vec^dagger at any angle.
    Each block is padded with zeros to the next rung of one ladder, the
    squares 4, 9, 16, ...: its vec fills the top-left corner of a zeroed
    square, and its padded eigenvalues are 0.  Blocks of one rung are
    stacked, so the 45 blocks of 19 sizes at cutoff 8 make 4 stacks, and
    the 66 blocks of 26 sizes at cutoff 10 make 5.  Returns
    (pos, lam, stacks): ``pos`` gives each four-mode ket its place in one
    flat padded buffer, ``lam`` the eigenvalues in that buffer's order,
    and ``stacks`` one (slice, vec, vec^dagger) per rung, the slice
    covering its stretch of the buffer.  The entry is about 0.35 MB at
    cutoff 8 and 1.0 MB at cutoff 10.
    """
    rungs = {}
    for idx, gen in _pair_blocks(cutoff):
        rung = max(math.isqrt(idx.size - 1) + 1, 2) ** 2
        rungs.setdefault(rung, []).append((idx, *np.linalg.eigh(1j * gen)))
    pos = np.empty(dim4(cutoff), dtype=np.intp)
    lams, stacks, start = [], [], 0
    for rung, blocks in sorted(rungs.items()):
        lam = np.zeros((len(blocks), rung))
        vec = np.zeros((len(blocks), rung, rung), dtype=complex)
        for b, (idx, w, v) in enumerate(blocks):
            lam[b, :idx.size] = w
            vec[b, :idx.size, :idx.size] = v
            pos[idx] = start + b * rung + np.arange(idx.size)
        lams.append(lam.ravel())
        stacks.append((slice(start, start + lam.size), vec,
                       vec.conj().swapaxes(-1, -2)))
        start += lam.size
    return pos, np.concatenate(lams), tuple(stacks)


def beam_splitter_pair_oracle(s: FourModeState, kappa: float) -> FourModeState:
    """Brute-force route: dense exponential of each generator block.

    The amplitudes are placed in a zeroed buffer with every block padded
    to its rung (``_pair_unitary``), e^{-i kappa lam} of every block comes
    from one ``np.exp``, each rung is two stacked matrix-vector products,
    and one gather reads the result back.  The padding is zeros, not a
    mask, so a non-finite amplitude stays in its own block.  Padding
    lengthens each dot product, so the result may differ in the last bits
    from one unpadded exponential per block.
    """
    _finite("kappa", kappa)
    pos, lam, stacks = _pair_unitary(s.cutoff)
    x = np.zeros(lam.size, dtype=complex)
    x[pos] = s.amps
    y = np.exp(-1j * kappa * lam)
    for part, vec, vec_h in stacks:
        shape = vec.shape[:2] + (1,)
        z = y[part].reshape(shape)  # a view: the products land in y
        z *= vec_h @ x[part].reshape(shape)
        y[part] = (vec @ z).ravel()
    return FourModeState(s.cutoff, y[pos])


# ---------------------------------------------------------------------------
# measurement of the ancilla modes


# perfbench/tracing.py wraps this name; no pathent code calls it.
def project_outcome_cd(s: FourModeState, nc_out: int,
                       nd_out: int) -> tuple[TwoModeState, float]:
    """Project onto |nc_out, nd_out> in modes (c, d).

    Returns the unnormalized reduced two-mode state and the outcome
    probability (its squared norm).
    """
    if min(nc_out, nd_out) < 0 or nc_out + nd_out > s.cutoff:
        reduced = zero_state(s.cutoff)
    else:
        outcome = _ket_index(2, s.cutoff, (nc_out, nd_out))
        reduced = TwoModeState(s.cutoff, _split_cd(s.amps, s.cutoff)[outcome])
    return reduced, reduced.norm_sq()


def _split_cd(amps: np.ndarray, cutoff: int) -> np.ndarray:
    """Amplitudes as [outcome (n_c, n_d), signal (n_a, n_b), ...], two-mode kets."""
    (na, nb, nc, nd), _ = _basis(4, cutoff)
    table2 = _basis(2, cutoff)[1]
    out = np.zeros((dim2(cutoff),) * 2 + amps.shape[1:], dtype=complex)
    out[table2[nc, nd], table2[na, nb]] = amps
    return out

