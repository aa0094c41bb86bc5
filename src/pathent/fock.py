"""Exact Fock-space algebra for two- and four-mode photonic states.

Amplitudes are stored densely over the simplex of occupation tuples with
total photon number <= cutoff, in a fixed enumeration order shared by all
operations, so states with equal cutoffs can be compared entry by entry.
Everything is complex double precision and every operation is pure: inputs
are never mutated.

One table per (modes, cutoff), ``_basis``, holds the kets' occupations
and maps each ket to its index.  Constructors build a state at its photon
number, a tensor product at the sum of its factors' cutoffs, and only
``with_cutoff`` re-embeds.  Every ladder product, a creation or
annihilation operator, a hop x† y or the absorber a + b, is an occupation
shift: one cached gather/scatter map, ``_shift_map``, applied by ``_shift``.  There is one
splitter core, the two-mode ``_mix``: a terminating series of hops.  It
takes a stack of states, one per column, each coming out bit-identical to
a single-state call.  The four-mode splitter pair on (a, c) and (b, d) is
U (x) U, with U the two-mode splitter: ``beam_splitter_pair_exact`` lays
four-mode amplitudes out as a matrix X[(n_a, n_c), (n_b, n_d)] over the
two-mode simplex and returns U X U^T.  U conserves photon number, so the output
keeps the p + q <= cutoff support.  ``_split_cd`` is the one map from
four-mode amplitudes to ancilla outcomes (n_c, n_d) and signal kets
(n_a, n_b).  The dense-exponential oracle shares no hop or series code
with that core.  Its generator G conserves n_a + n_c and n_b + n_d, so the
oracle builds it, from ``_basis`` and its own hop loop, as one dense
complex block per conserved pair, and exponentiates each block alone from
the eigendecomposition of the Hermitian iG, made once per cutoff.  No
runtime code imports scipy.

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

# The factored beam-splitter product divides by cos(kappa); below this the
# splitter is taken to be the exact mode swap instead.
_SWAP_EPS = 1e-12

# Beyond this mixing angle, |tan(kappa)| > 1 inflates intermediate series
# terms; the rotation is then applied as two half-angle rotations.
_HALF_ANGLE_LIMIT = math.pi / 4 + 1e-9


class CutoffOverflowError(ValueError):
    """A ladder operation would push amplitude past the stored cutoff."""


# ---------------------------------------------------------------------------
# basis bookkeeping


@lru_cache(maxsize=None)
def _basis(modes: int, cutoff: int):
    """Occupation columns of the ``modes``-mode simplex and its lookup table.

    The kets have total photon number <= cutoff and are enumerated
    lexicographically, first mode outermost: one 1-D array per mode.  The
    table maps an occupation tuple to its index (-1 beyond the cutoff).
    """
    occ = np.zeros((1, 0), dtype=np.intp)
    for _ in range(modes):
        counts = cutoff + 1 - occ.sum(axis=1)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        occ = np.column_stack([np.repeat(occ, counts, axis=0),
                               np.arange(first.size) - first])
    occ = tuple(occ.T.copy())
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


@lru_cache(maxsize=None)
def _shift_map(cutoff: int, shift: tuple) -> tuple:
    """The occupation shift n -> n + shift as (src, dst, w).

    Amplitude at ket src moves to ket dst, times w; kets whose image leaves
    the simplex are not in src.  Each entry of ``shift`` is 1 (a creation
    operator), -1 (an annihilation operator) or 0, so w is the square root
    of the product of max(n, n + d) over the shifted modes.
    """
    occ, table = _basis(len(shift), cutoff)
    new = [n + d for n, d in zip(occ, shift)]
    src = np.flatnonzero((np.min(new, axis=0) >= 0) & (sum(new) <= cutoff))
    dst = table[tuple(n[src] for n in new)]
    w = np.prod([np.maximum(n, m)[src]
                 for n, m, d in zip(occ, new, shift) if d], axis=0)
    return src, dst, np.sqrt(w.astype(float))


def _shift(amps: np.ndarray, cutoff: int, shift: tuple) -> np.ndarray:
    """The ladder product of ``_shift_map(cutoff, shift)`` on amplitudes.

    Amplitudes carry the simplex on axis 0 and optionally one state per
    column; the per-ket weights multiply the transpose to broadcast over
    the columns.
    """
    src, dst, w = _shift_map(cutoff, shift)
    out = np.zeros_like(amps)
    moved = amps[src]
    # in place, so a shift allocates no second array of the moved amplitudes
    out[dst] = np.multiply(moved.T, w, out=moved.T).T
    return out


# perfbench/tracing.py reads the build count through this name.  The one
# cache holds the tables of every mode count, so all of them are counted.
_basis4 = _basis


def dim2(cutoff: int) -> int:
    return (cutoff + 1) * (cutoff + 2) // 2


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
        """Sorted list of (n_a, n_b, amplitude) with |amplitude| > 1e-12."""
        (na, nb), _ = _basis(2, self.cutoff)
        out = []
        for i in np.flatnonzero(np.abs(self.amps) > 1e-12):
            out.append((int(na[i]), int(nb[i]), complex(self.amps[i])))
        return out

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


@dataclass(frozen=True, eq=False)
class TwoModeDensity:
    """Density matrix over the two-mode Fock basis."""

    cutoff: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        d = dim2(self.cutoff)
        if mat.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got {mat.shape}")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def from_state(cls, s: TwoModeState) -> "TwoModeDensity":
        return cls(s.cutoff, np.outer(s.amps, s.amps.conj()))

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def sector(self, n: int) -> np.ndarray:
        """Matrix restricted to the total-photon-number-n subspace."""
        (na, nb), _ = _basis(2, self.cutoff)
        mask = (na + nb) == n
        out = np.zeros_like(self.mat)
        out[np.ix_(mask, mask)] = self.mat[np.ix_(mask, mask)]
        return out

    def sector_weight(self, n: int) -> float:
        (na, nb), _ = _basis(2, self.cutoff)
        mask = (na + nb) == n
        return float(np.trace(self.mat[np.ix_(mask, mask)]).real)

    def validate(self) -> None:
        """Raise ValueError unless Hermitian, trace in [0, 1], and PSD."""
        if np.abs(self.mat - self.mat.conj().T).max() > 1e-12:
            raise ValueError("density matrix is not Hermitian")
        tr = self.trace()
        if not (-1e-12 <= tr <= 1.0 + 1e-12):
            raise ValueError(f"trace {tr} outside [0, 1]")
        eigs = np.linalg.eigvalsh(self.mat)
        if eigs.min() < -1e-9:
            raise ValueError(f"negative eigenvalue {eigs.min()}")


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


def noon_state(n: int) -> TwoModeState:
    """The maximally path-entangled state (|n,0> + |0,n>)/sqrt(2), cutoff n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    inv = 1.0 / math.sqrt(2.0)
    return basis_state(n, n, 0) * inv + basis_state(n, 0, n) * inv


def basis_state4(cutoff: int, na: int, nb: int, nc: int, nd: int) -> FourModeState:
    amps = np.zeros(dim4(cutoff), dtype=complex)
    amps[_ket_index(4, cutoff, (na, nb, nc, nd))] = 1.0
    return FourModeState(cutoff, amps)


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
    (na, nb), _ = _basis(2, s.cutoff)
    keep = (na + nb) <= cutoff
    if np.any(s.amps[~keep] != 0):
        raise CutoffOverflowError("state does not fit in the requested cutoff")
    table = _basis(2, cutoff)[1]
    amps = np.zeros(dim2(cutoff), dtype=complex)
    amps[table[na[keep], nb[keep]]] = s.amps[keep]
    return TwoModeState(cutoff, amps)


# ---------------------------------------------------------------------------
# ladder operators and friends


def _mode_shift(mode: str, d: int) -> tuple:
    """The two-mode occupation shift that moves ``mode`` ("a" or "b") by d."""
    if mode not in ("a", "b"):
        raise ValueError(f"unknown mode {mode!r}")
    return (d, 0) if mode == "a" else (0, d)


def apply_creation(s: TwoModeState, mode: str) -> TwoModeState:
    """Apply the creation operator of the chosen mode ("a" or "b")."""
    (na, nb), _ = _basis(2, s.cutoff)
    if np.any(s.amps[(na + nb) == s.cutoff] != 0):
        raise CutoffOverflowError(
            f"creation on mode {mode} would exceed cutoff {s.cutoff}"
        )
    shift = _mode_shift(mode, 1)
    return TwoModeState(s.cutoff, _shift(s.amps, s.cutoff, shift))


def apply_annihilation(s: TwoModeState, mode: str) -> TwoModeState:
    """Apply the annihilation operator of the chosen mode ("a" or "b")."""
    shift = _mode_shift(mode, -1)
    return TwoModeState(s.cutoff, _shift(s.amps, s.cutoff, shift))


def apply_linear_factor(s: TwoModeState, theta: float, phi: float) -> TwoModeState:
    """Apply the photon-adding factor cos(theta) a† - e^{i phi} sin(theta) b†."""
    ca = apply_creation(s, "a")
    cb = apply_creation(s, "b")
    coeff_b = -np.exp(1j * phi) * math.sin(theta)
    return TwoModeState(s.cutoff, math.cos(theta) * ca.amps + coeff_b * cb.amps)


def phase_shift(s: TwoModeState, phi: float, mode: str = "b") -> TwoModeState:
    """Apply the phase shifter exp(i phi n_mode)."""
    (na, nb), _ = _basis(2, s.cutoff)
    n = na if mode == "a" else nb
    if mode not in ("a", "b"):
        raise ValueError(f"unknown mode {mode!r}")
    return TwoModeState(s.cutoff, s.amps * np.exp(1j * phi * n))


def inner_product(x: TwoModeState, y: TwoModeState) -> complex:
    """<x|y> with conjugation on x."""
    if x.cutoff != y.cutoff:
        raise ValueError("cutoff mismatch")
    return complex(np.vdot(x.amps, y.amps))


def overlap_fidelity(x: TwoModeState, y: TwoModeState) -> float:
    """|<x|y>| / (|x| |y|): phase-insensitive state agreement in [0, 1]."""
    nx, ny = x.norm(), y.norm()
    if nx == 0.0 or ny == 0.0:
        raise ValueError("fidelity of a zero state is undefined")
    return abs(inner_product(x, y)) / (nx * ny)


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

# A hopping step x† y, the shift (1, -1) or (-1, 1), maps |n_x, n_y> to
# sqrt((n_x + 1) n_y) |n_x + 1, n_y - 1> and conserves the total photon
# number, so repeated application terminates within cutoff steps.


def _exp_hop(amps: np.ndarray, cutoff: int, coef: float,
             shift: tuple) -> np.ndarray:
    """exp(coef x† y) as its series, which ends within cutoff terms."""
    result = amps.copy()
    term = amps
    for m in range(1, cutoff + 1):
        term = (coef / m) * _shift(term, cutoff, shift)
        if not term.any():
            break
        result = result + term
    return result


def _mix(amps: np.ndarray, cutoff: int, kappa: float) -> np.ndarray:
    """Beam splitter of angle kappa on two-mode amplitudes at ``cutoff``.

    With K = tan(kappa), exp(kappa (a† b - a b†)) equals the factored form
        e^{-K a b†} * cos(kappa)^{n_a - n_b} * e^{K a† b},
    each exponential an exactly terminating series.  The splitter is
    2 pi-periodic in kappa, so an angle beyond pi is reduced into [-pi, pi].
    Near |cos kappa| = 0, where the form divides by cos(kappa), the splitter
    is the exact mode swap it converges to; above pi/4 the angle is halved
    until |K| <= 1.
    """
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    (n_a, n_b), table = _basis(2, cutoff)
    if abs(kappa) > math.pi:  # so angles in [-pi, pi] keep their bits
        kappa = math.remainder(kappa, 2 * math.pi)
    if abs(math.cos(kappa)) < _SWAP_EPS:
        # kappa = +-pi/2: a† -> -s b†, b† -> s a†, with s = sign(sin kappa).
        odd = n_a if math.sin(kappa) > 0 else n_b
        sign = np.where(odd % 2 == 1, -1.0, 1.0)
        out = np.zeros_like(amps)
        out[table[n_b, n_a]] = (amps.T * sign).T
        return out
    halvings = 0
    while abs(kappa) / 2 ** halvings > _HALF_ANGLE_LIMIT:
        halvings += 1
    step = kappa / 2 ** halvings
    K = math.tan(step)
    scale = math.cos(step) ** (n_a - n_b)
    for _ in range(2 ** halvings):
        amps = _exp_hop(amps, cutoff, K, (1, -1))
        amps = (amps.T * scale).T
        amps = _exp_hop(amps, cutoff, -K, (-1, 1))
    return amps


def beam_splitter(s: TwoModeState, kappa: float) -> TwoModeState:
    """Mix the two modes: |1,0> -> cos(kappa)|1,0> - sin(kappa)|0,1>."""
    return TwoModeState(s.cutoff, _mix(s.amps, s.cutoff, kappa))


def beam_splitter_pair_exact(s: FourModeState, kappa: float) -> FourModeState:
    """Identical beam splitters on (a, c) and (b, d): U X U^T.

    The pair is U (x) U, with U the two-mode splitter as a matrix over the
    two-mode simplex; X[(n_a, n_c), (n_b, n_d)] holds the amplitudes.  U
    conserves photon number, so X keeps its p + q <= cutoff support.  The
    series never truncate, and the kappa = pi/2 singularity of the factored
    form is handled as the exact mode swap it converges to.
    """
    (na, nb, nc, nd), _ = _basis(4, s.cutoff)
    table = _basis(2, s.cutoff)[1]
    rows, cols = table[na, nc], table[nb, nd]
    d = dim2(s.cutoff)
    x = np.zeros((d, d), dtype=complex)
    x[rows, cols] = s.amps
    u = _mix(np.eye(d), s.cutoff, kappa)
    return FourModeState(s.cutoff, (u @ x @ u.T)[rows, cols])


@lru_cache(maxsize=None)
def _pair_blocks(cutoff: int) -> tuple:
    """Dense blocks of a†c - ac† + b†d - bd† over the four-mode basis.

    The generator conserves n_a + n_c = p and n_b + n_d = q, so it is
    block-diagonal: one (basis indices, complex generator) pair per (p, q)
    with p + q <= cutoff, each of (p + 1)(q + 1) kets.
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
    """Eigenpairs (lam, vec) of iG, each block G of ``_pair_blocks(cutoff)``.

    G is real antisymmetric, so iG is Hermitian and
    exp(kappa G) = vec diag(exp(-i kappa lam)) vec^dagger at any angle.
    """
    return tuple(np.linalg.eigh(1j * gen) for _, gen in _pair_blocks(cutoff))


def beam_splitter_pair_oracle(s: FourModeState, kappa: float) -> FourModeState:
    """Brute-force route: dense exponential of each generator block."""
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    out = np.zeros_like(s.amps)
    for (idx, _), (lam, vec) in zip(_pair_blocks(s.cutoff),
                                    _pair_unitary(s.cutoff)):
        out[idx] = vec @ (np.exp(-1j * kappa * lam)
                          * (vec.conj().T @ s.amps[idx]))
    return FourModeState(s.cutoff, out)


# ---------------------------------------------------------------------------
# measurement and reduction of the ancilla modes


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


def project_vacuum_cd(s: FourModeState) -> tuple[TwoModeState, float]:
    """Condition on zero photons in both ancilla modes."""
    return project_outcome_cd(s, 0, 0)


def _split_cd(amps: np.ndarray, cutoff: int) -> np.ndarray:
    """Amplitudes as [outcome (n_c, n_d), signal (n_a, n_b), ...], two-mode kets."""
    (na, nb, nc, nd), _ = _basis(4, cutoff)
    table2 = _basis(2, cutoff)[1]
    out = np.zeros((dim2(cutoff),) * 2 + amps.shape[1:], dtype=complex)
    out[table2[nc, nd], table2[na, nb]] = amps
    return out


def trace_out_cd(s: FourModeState) -> TwoModeDensity:
    """Partial trace over modes (c, d); the trace equals |s|^2."""
    pieces = _split_cd(s.amps, s.cutoff)
    return TwoModeDensity(s.cutoff, pieces.T @ pieces.conj())
