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
The public splitters share one core, ``_sector_blocks``, which builds the
two-mode splitter U's block on each photon-number sector into one
(cutoff + 1)^3 stack, the same layout as a density matrix's blocks.  Each
step of its recursion is one multiply into a buffer of four shifted planes
and three adds in the recursion's own order, so the blocks keep the bits
of a sector-by-sector build.  ``_mix`` applies the blocks to a stack of
states, one per column.  The heralded blocks do not call either;
``blocks`` reads their few entries of U, and their ancillas, from closed
forms.  The four-mode pair of splitters on (a, c) and (b, d) is U (x) U:
``beam_splitter_pair_exact`` lays the amplitudes out as a matrix
X[(n_a, n_c), (n_b, n_d)] over the two-mode simplex, places the stack on
the diagonal of a real U through one cached index and returns U X U^T, two
real products on the complex arrays' float views; ``_split_cd`` maps the
amplitudes to ancilla outcomes (n_c, n_d) and signal kets.  A density
matrix is held as the stack of its photon-number sector blocks: the
splitters conserve photon number and the detectors count it, so no rho
pathent builds or reads has coherence between sectors.
The dense-exponential oracle shares only ``_basis`` with that core.  Its
generator G conserves n_a + n_c and n_b + n_d, so the oracle builds it,
with its own hop loop, as one dense complex block per conserved pair.
Each block is exponentiated from the eigendecomposition of the Hermitian
iG, made once per cutoff: one ``np.exp`` gives the phases of every block,
and the blocks of one size are applied as one stacked product.  No runtime
code imports scipy.

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
    and zeros outside those corners.  ``from_sectors(blocks)`` takes the
    stack; ``TwoModeDensity(cutoff, mat)`` gathers it from a dense
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
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape != (len(blocks),) * 3:
            raise ValueError(f"expected a cube of sector blocks, got "
                             f"{blocks.shape}")
        if len(blocks) == 0:
            raise ValueError("cutoff must be non-negative")
        rho = cls.__new__(cls)
        rho.cutoff, rho.blocks = len(blocks) - 1, blocks
        return rho

    @classmethod
    def from_state(cls, s: TwoModeState) -> "TwoModeDensity":
        """|s><s| by its sector blocks, one outer product per sector.

        Coherences between photon-number sectors are dropped; no pathent
        reading uses them.
        """
        blocks = np.zeros((s.cutoff + 1,) * 3, dtype=complex)
        for m in range(s.cutoff + 1):
            x = s.amps[_sector(m)]
            blocks[m, :m + 1, :m + 1] = np.outer(x, x.conj())
        return cls.from_sectors(blocks)

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
    if n < 1:
        raise ValueError("n must be >= 1")
    inv = 1.0 / math.sqrt(2.0)
    return basis_state(n, n, 0) * inv + basis_state(n, 0, n) * inv


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
    ca = apply_creation(s, "a")
    cb = apply_creation(s, "b")
    coeff_b = -np.exp(1j * phi) * math.sin(theta)
    return TwoModeState(s.cutoff, math.cos(theta) * ca.amps + coeff_b * cb.amps)


def phase_shift(s: TwoModeState, phi: float, mode: str = "b") -> TwoModeState:
    """Apply the phase shifter exp(i phi n_mode)."""
    _check_mode(mode)
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
    nx, ny = x.norm(), y.norm()
    if nx == 0.0 or ny == 0.0:
        raise ValueError("fidelity of a zero state is undefined")
    return min(1.0, abs(inner_product(x, y)) / (nx * ny))


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


@lru_cache(maxsize=16)
def _step_roots(cutoff: int) -> np.ndarray:
    """Ladder weights of every step of ``_sector_blocks``, flat by step.

    Step n, 1 <= n <= cutoff, holds four n x n planes over rows i and
    columns j, sqrt(i + 1) or sqrt(n - i) times sqrt(j + 1) or sqrt(n - j):
        [[sqrt((i + 1)(j + 1)), sqrt((i + 1)(n - j))],
         [sqrt((n - i)(j + 1)), sqrt((n - i)(n - j))]],
    flattened at [:, :, (n - 1) n (2n - 1) / 6:][:, :, :n^2].  Each entry
    is one root of an integer product, so kappa = 0 gives the identity bit
    for bit.  4 sum_n n^2 floats: 2.9 MB at cutoff 64.
    """
    k = np.arange(cutoff + 1.0)
    root = np.sqrt(np.outer(k, k))
    steps = [np.zeros((2, 2, 0))]
    for n in range(1, cutoff + 1):
        up, down = slice(1, n + 1), slice(n, 0, -1)
        steps.append(np.array([[root[up, up], root[up, down]],
                               [root[down, up], root[down, down]]])
                     .reshape(2, 2, -1))
    roots = np.concatenate(steps, axis=2)
    roots.setflags(write=False)  # shared by every caller of the cache
    return roots


def _sector_blocks(cutoff: int, kappa: float) -> np.ndarray:
    """U's block on every photon-number sector, as a (cutoff + 1)^3 stack.

    ``stack[n, :n + 1, :n + 1]`` is U's block on sector n,
    <i, n - i| U |j, n - j>, with zeros around it.  U maps a† to
    A† = c a† - s b† and b† to B† = s a† + c b† (c = cos kappa,
    s = sin kappa), so block n comes from block n - 1, all columns at once,
    by the balanced recursion (p = n - l)
        n U|p, l> = sqrt(p) A† U|p - 1, l> + sqrt(l) B† U|p, l - 1>,
    accurate at any angle and photon number; the one-sided one is not.
    Column j of block n is thus four weighted copies of block n - 1: c a†
    and -s b† of its column j - 1, s a† and c b† of its column j, where a†
    moves a row down.  One multiply by the ``_step_roots`` of c and s
    writes the four through a view with shifted strides over one buffer of
    four planes, the subtracted term pre-negated.  Summed in the
    recursion's own order, ((c a† - s b†) + s a†) + c b†, and divided by n,
    they are block n, bit for bit as the recursion built one sector at a
    time.
    """
    c, s = math.cos(kappa), math.sin(kappa)
    w = _step_roots(cutoff) * np.array([[c, s], [-s, c]])[:, :, None]
    stack = np.zeros((cutoff + 1,) * 3)
    stack[0, 0, 0] = 1.0
    # Term (x, y), a† (x = 0) or b† (x = 1) of column j - 1 (y = 0) or j
    # (y = 1), lands 1 - x rows and 1 - y columns on, in plane (x, y).  Each
    # step overwrites what the step before wrote.  Where a term does not
    # reach, its plane holds -0.0, which adds as nothing, and the first
    # plane holds 0.0, where the recursion starts its sums: the planes add
    # up to block n and the zeros around it, signed zeros included.
    buf = np.full((2, 2, cutoff + 1, cutoff + 1), -0.0)
    buf[0, 0] = 0.0
    s0, s1, s2, s3 = buf.strides
    terms = np.ndarray((2, 2, cutoff, cutoff), float, buf, s2 + s3,
                       (s0 - s2, s1 - s3, s2, s3))
    start = 0
    for n in range(1, cutoff + 1):
        np.multiply(w[:, :, start:start + n * n].reshape(2, 2, n, n),
                    stack[n - 1, :n, :n], out=terms[:, :, :n, :n])
        start += n * n
        block = stack[n]
        np.add(buf[0, 0], buf[1, 0], out=block)
        block += buf[0, 1]
        block += buf[1, 1]
        block /= n
    return stack


def _mix(amps: np.ndarray, cutoff: int, kappa: float) -> np.ndarray:
    """Beam splitter of angle kappa on two-mode amplitudes at ``cutoff``.

    One contraction per sector with its block of the ``_sector_blocks``
    stack, and no dense U, so each stacked column comes out bit-identical
    to a single-state call.  The contraction runs over n_b ascending, on a
    contiguous copy of the block read backwards, ``block[::-1, ::-1]``:
    ``np.einsum`` sums in an order that follows its operands' layout.
    """
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    out = np.empty_like(amps)
    blocks = _sector_blocks(cutoff, kappa)
    for n in range(cutoff + 1):
        kets = _sector(n)
        q = blocks[n, n::-1, n::-1].copy()
        x = amps[kets][::-1].copy()
        out[kets] = np.einsum("il,l...->i...", q, x)[::-1]
    return out


def beam_splitter(s: TwoModeState, kappa: float) -> TwoModeState:
    """Mix the two modes: |1,0> -> cos(kappa)|1,0> - sin(kappa)|0,1>."""
    return TwoModeState(s.cutoff, _mix(s.amps, s.cutoff, kappa))


def beam_splitter_pair_exact(s: FourModeState, kappa: float) -> FourModeState:
    """Identical beam splitters on (a, c) and (b, d): U X U^T.

    The pair is U (x) U, with U the two-mode splitter as a matrix over the
    two-mode simplex; X[(n_a, n_c), (n_b, n_d)] holds the amplitudes.  U is
    block-diagonal in photon number: the ``_sector_blocks`` stack is placed
    on its diagonal through one cached index, ``_block_index``.  U is real,
    so U X U^T is two real products on complex float views, U X and then
    U (U X)^T, read back transposed.  U conserves photon number, so X
    keeps its p + q <= cutoff support.
    """
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    rows, cols = _pair_layout(s.cutoff)
    d = dim2(s.cutoff)
    dst, src = _block_index(s.cutoff)
    u = np.zeros((d, d))
    u.ravel()[dst] = _sector_blocks(s.cutoff, kappa).take(src)
    x = np.zeros((d, d), dtype=complex)
    x[rows, cols] = s.amps
    ux_t = (u @ x.view(float)).view(complex).T.copy()
    return FourModeState(s.cutoff,
                         (u @ ux_t.view(float)).view(complex)[cols, rows])


@lru_cache(maxsize=16)
def _block_index(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the sector blocks in U and in their stack.

    One int32 pair per in-block entry, sum_n (n + 1)^2 of them: 0.75 MB at
    cutoff 64.
    """
    tri = _in_block(cutoff)
    n, i, j = np.nonzero(tri[:, :, None] & tri[:, None])
    first = n * (n + 1) // 2  # sector n starts at dim2(n - 1)
    dst = (first + i) * dim2(cutoff) + first + j
    src = (n * (cutoff + 1) + i) * (cutoff + 1) + j
    index = dst.astype(np.int32), src.astype(np.int32)
    for part in index:
        part.setflags(write=False)  # shared by every caller of the cache
    return index


@lru_cache(maxsize=16)
def _pair_layout(cutoff: int) -> tuple:
    """(rows, cols) of each four-mode ket in X[(n_a, n_c), (n_b, n_d)]."""
    (na, nb, nc, nd), _ = _basis(4, cutoff)
    table = _basis(2, cutoff)[1]
    return table[na, nc], table[nb, nd]


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
    """Eigenpairs of iG, each block G of ``_pair_blocks(cutoff)``, by size.

    G is real antisymmetric, so iG is Hermitian and
    exp(kappa G) = vec diag(exp(-i kappa lam)) vec^dagger at any angle.
    Blocks of one size are stacked.  Returns (kets, lam, groups): ``kets``
    lists the basis indices of every block, stack by stack, ``lam`` their
    eigenvalues in the same order, and ``groups`` one (slice, vec,
    vec^dagger) per stack, the slice covering its stretch of both.
    """
    sizes = {}
    for idx, gen in _pair_blocks(cutoff):
        sizes.setdefault(idx.size, []).append((idx, *np.linalg.eigh(1j * gen)))
    kets, lams, groups, start = [], [], [], 0
    for group in sizes.values():
        idx, lam, vec = (np.stack(part) for part in zip(*group))
        kets.append(idx.ravel())
        lams.append(lam.ravel())
        groups.append((slice(start, start + lam.size), vec,
                       vec.conj().swapaxes(-1, -2)))
        start += lam.size
    return np.concatenate(kets), np.concatenate(lams), tuple(groups)


def beam_splitter_pair_oracle(s: FourModeState, kappa: float) -> FourModeState:
    """Brute-force route: dense exponential of each generator block.

    The amplitudes are gathered stack by stack in one pass, e^{-i kappa lam}
    of every block comes from one ``np.exp``, and each stack of equal-sized
    blocks is two stacked matrix-vector products.
    """
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    kets, lam, groups = _pair_unitary(s.cutoff)
    x = s.amps[kets]
    y = np.exp(-1j * kappa * lam)
    for part, vec, vec_h in groups:
        shape = vec.shape[:2] + (1,)
        z = y[part].reshape(shape)  # a view: the products land in y
        z *= vec_h @ x[part].reshape(shape)
        y[part] = (vec @ z).ravel()
    out = np.empty_like(s.amps)
    out[kets] = y
    return FourModeState(s.cutoff, out)


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

