"""Conditional photon-adding blocks and chained generation schemes.

One block couples the signal modes (a, b) to a fresh two-mode ancilla
(c, d) through a pair of identical beam splitters and post-selects on both
ancilla detectors staying dark.  With the ancilla photon in the
superposition cos(theta)|1,0> - e^{i phi} sin(theta)|0,1>, the surviving
branch has the photon handed over to the signal in exactly the same
superposition of modes, i.e. one factor cos(theta) a† - e^{i phi} sin(theta) b†
is applied.  Chaining one block per factor grows any N-photon two-mode
state from vacuum.

The doubled variant loads the ancilla with the two-photon state
(|2,0> - e^{2i phi}|0,2>)/sqrt(2) and applies a conjugate pair of factors
at once, halving the number of heralding events for even-N targets whose
factor phases come in (phi, phi + pi) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factorize import FactorSet, _single_table, _wrap_angle
from .fock import (
    TwoModeDensity,
    TwoModeState,
    _in_block,
    _sector_state,
    dim2,
    zero_state,
)
from .yields import _photon_number, optimal_schedule, qk_squared


# Largest ancilla angle theta a block accepts: pi/2 and a rounding margin.
_THETA_MAX = math.pi / 2.0 + 1e-12


@dataclass(frozen=True)
class BlockParams:
    """Ancilla angles and beam-splitter transmittance of one block.

    ``transmittance`` is the probability for the ancilla photon to hop into
    the signal; the beam-splitter mixing angle is arcsin of its square root.
    """

    theta: float
    phi: float
    transmittance: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= _THETA_MAX:
            raise ValueError(f"theta {self.theta} outside [0, pi/2]")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi {self.phi} is not finite")
        if not 0.0 < self.transmittance <= 1.0:
            raise ValueError(
                f"transmittance {self.transmittance} outside (0, 1]"
            )

    @property
    def kappa(self) -> float:
        return math.asin(math.sqrt(self.transmittance))


@dataclass(frozen=True, eq=False)
class BlockOutcome:
    """Unnormalized post-selected state and its heralding probability."""

    state: TwoModeState
    probability: float


@dataclass(frozen=True, eq=False)
class SchemeResult:
    """Outcome of a full chained scheme.

    ``final_state`` is normalized (or the zero state when ``impossible``);
    ``block_probs`` holds one heralding probability per block and
    ``total_yield`` is their product.
    """

    final_state: TwoModeState
    block_probs: tuple[float, ...]
    total_yield: float
    impossible: bool = False


def _double_table(phis) -> np.ndarray:
    """Row k: amplitudes of |0,2>, |1,1> and |2,0> in doubled block k."""
    phis = np.array(phis, dtype=float)
    table = np.empty((len(phis), 3), dtype=complex)
    table[:, 0] = -np.exp(2j * phis) * math.sqrt(0.5)
    table[:, 1] = 0.0
    table[:, 2] = math.sqrt(0.5)
    return table


def ancilla_single(theta: float, phi: float) -> TwoModeState:
    """One ancilla photon in cos(theta)|1,0> - e^{i phi} sin(theta)|0,1>.

    Written down from its closed form, the amplitudes the photon-adding
    factor cos(theta) a† - e^{i phi} sin(theta) b† puts on vacuum: row 0
    of ``factorize._single_table``, once the angles pass the one check
    every block passes (``_blocks``).
    """
    angles, _ = _blocks([(theta, phi)])
    return _sector_state(_single_table(angles)[0])


def ancilla_double(phi: float) -> TwoModeState:
    """Two-photon ancilla (|2,0> - e^{2i phi}|0,2>)/sqrt(2), |1,1> exactly 0.

    Physically |1,1> bunched on a balanced beam splitter, then phase-shifted
    in the second mode; written down here from that closed form as row 0 of
    ``_double_table``, once phi passes every block's check at
    theta = pi/4 (``_blocks``).
    """
    ((_, phi),), _ = _blocks([(math.pi / 4.0, phi)])
    return _sector_state(_double_table([phi])[0])


def _splitter_entries(cutoff: int, c, s, j_max: int,
                      n_max: int | None = None) -> np.ndarray:
    """v[j, ..., o, n] = U[(o, n), (o + n - j, j)] of the two-mode splitter U.

    U sends a† to A† = c a† - s b† and b† to B† = s a† + c b†, with
    c = cos(kappa) and s = sin(kappa) of its angle.  ``c`` and ``s`` may be
    arrays, one entry per splitter (a chain builds the table of all its
    blocks at once); their shape goes between j and (o, n), and every row
    gets the same elementwise operations, in the same order, as a scalar
    build.  v[0] is a closed form: U|m, 0> = A†^m |0> / sqrt(m!) has the
    |o, n> entry c^o (-s)^n sqrt(C(m, n)).  Each further b-photon applies
    B† once, U|m - j, j> = B† U|m - j, j - 1> / sqrt(j), so
        v[j, o, n] = (s sqrt(o) v[j-1, o-1, n] + c sqrt(n) v[j-1, o, n-1])
                     / sqrt(j),
    which unrolls to the j + 1 terms of the binomial expansion of B†^j.
    Every power is non-negative and nothing divides by c, so no angle needs
    a special case.  Only the columns n <= n_max <= cutoff (default: all)
    are built, since the recursion never reads a higher one; the heralded
    blocks need n = 0 alone, c^{o-j} s^j sqrt(C(o, j)).  Entries with
    o + n > cutoff or o + n < j are zero.  Each j is a few numpy calls on
    the whole table, and every operation that would leave each bit as it
    is goes: (-s)^0 and the unit binomial root of column 0, the division
    by sqrt(1), and, when column 0 is all that is built, the mask.
    """
    n_max = cutoff if n_max is None else n_max
    c = np.asarray(c, dtype=float)[..., None, None]
    s = np.asarray(s, dtype=float)[..., None, None]
    o = np.arange(cutoff + 1.0)[:, None]
    v = np.zeros((j_max + 1,) + c.shape[:-2] + (cutoff + 1, n_max + 1))
    np.power(c, o, out=v[0, ..., :1])
    s_o = s * np.sqrt(o[1:])
    if n_max:
        n = np.arange(1.0, n_max + 1)
        outside = o + np.arange(n_max + 1.0) > cutoff
        v0 = v[0, ..., 1:]
        np.multiply(v[0, ..., :1], (-s) ** n, out=v0)
        # sqrt(C(o + n, n)) as the running product of sqrt((o + t) / t)
        v0 *= np.cumprod(np.sqrt((o + n) / n), axis=1)
        np.copyto(v0, 0.0, where=outside[:, 1:])
        c_n = c * np.sqrt(n)
    for j in range(1, j_max + 1):
        np.multiply(s_o, v[j - 1, ..., :-1, :], out=v[j, ..., 1:, :])
        if n_max:
            v[j, ..., 1:] += c_n * v[j - 1, ..., :-1]
            np.copyto(v[j], 0.0, where=outside)
        if j > 1:
            v[j] /= math.sqrt(j)
    return v


def _block_weights(v: np.ndarray, ancs: np.ndarray, step: int) -> np.ndarray:
    """Dark-branch weights w[k, j, o] of every row of a splitter table.

    ``v[j, k, p]`` is the splitter entry U[(p, 0), (p - j, j)] of row k and
    ``ancs[k, j]`` the amplitude of its ancilla ket |j, a - j> (one row
    broadcasts).  The pair is U (x) U on (a, c) and (b, d); with both
    ancilla detectors dark, |i, m - i> (x) |j, a - j> goes to
    |i + j, m + a - i - j> with amplitude
        U[(i + j, 0), (i, j)] * U[(m + a - i - j, 0), (m - i, a - j)] * anc[j],
    which is w[k, j, i + j] for input sector m = m_k = k step.  The second
    factor, v[a - j, k, a + m_k - o], is u[j, k, o + (rows - 1 - k) step] of
    the copy u of v reversed along j and o, read as a view with constant,
    positive strides: outside j <= o <= j + m_k, which no block reads, it
    reads other entries of u, all finite.  The weights come block-major and
    C-ordered, so block k reads its (a + 1, width) slice in place.
    """
    a, (rows, width), item = v.shape[0] - 1, v.shape[1:], v.itemsize
    # the view is the copy's only holder: freed after the product
    w = np.multiply(v.transpose(1, 0, 2), np.ndarray(
        (rows, a + 1, width), float, v[::-1, :, ::-1].copy(),
        (rows - 1) * step * item,
        ((width - step) * item, rows * width * item, item)), order="C")
    return w * ancs[:, :, None]


def _shifted(pad: np.ndarray, a: int) -> np.ndarray:
    """View x[..., j, o] = pad[..., a + o - j] of zero-padded coefficients.

    ``pad`` holds a zeros, then the coefficients x_0, x_1, ... of a sector
    and zeros up to its last axis's end; row j of the view is x shifted by
    j, x_{o - j}, and reads +0 wherever o - j is outside the sector.
    """
    *lead, size = pad.shape
    *outer, item = pad.strides
    return np.ndarray((*lead, a + 1, size - a), pad.dtype, pad, a * item,
                      (*outer, -item, item))


def _herald(state: TwoModeState, anc: np.ndarray,
            params: BlockParams) -> BlockOutcome:
    """Mix signal (x) ancilla on the splitter pair; keep the dark branch.

    ``anc`` holds the ancilla's sector coefficients.  A photon-number
    sector never mixes with another: input sector m goes to output sector
    m + a alone, y_o = sum_j w[m, j, o] x_{o - j}, with w the block weights
    of one splitter repeated for every input sector.  Row m of one
    zero-padded buffer holds sector m, so every sector is one row of a
    single product with the buffer's ``_shifted`` view and of one sum over
    j from +0: the step the chains run.
    """
    a, rows = len(anc) - 1, state.cutoff + 1
    cutoff = state.cutoff + a
    v = _splitter_entries(cutoff, *_mixing([params.transmittance]), a, 0)
    w = _block_weights(v[..., 0].repeat(rows, axis=1), anc[None], 1)
    pad = np.zeros((rows, a + cutoff + 1), dtype=complex)
    pad[:, a:a + rows][_in_block(state.cutoff)] = state.amps
    y = np.add.reduce(w * _shifted(pad, a), axis=1, initial=0.0)
    dark = np.zeros(dim2(cutoff), dtype=complex)
    dark[dim2(a - 1):] = y[np.tri(rows, cutoff + 1, a, dtype=bool)]
    out = TwoModeState(cutoff, dark)
    return BlockOutcome(out, out.norm_sq())


def run_block_single(state: TwoModeState, params: BlockParams) -> BlockOutcome:
    anc = _single_table([(params.theta, params.phi)])[0]
    return _herald(state, anc, params)


def run_block_double(state: TwoModeState, phi: float,
                     transmittance: float) -> BlockOutcome:
    params = BlockParams(math.pi / 4.0, phi, transmittance)
    return _herald(state, _double_table([phi])[0], params)


def amplitude_factor_single(k: int, transmittance: float) -> float:
    """Closed-form amplitude q_k by which block k scales the added factor.

    Block k acts on a (k-1)-photon state; the dark-ancilla branch equals
    q_k times the factor applied to the input, with
    q_k = (1 - T)^{(k-1)/2} sqrt(T).  k and T pass ``qk_squared``'s checks.
    """
    qk_squared(transmittance, k)
    return (1.0 - transmittance) ** ((k - 1) / 2.0) * math.sqrt(transmittance)


def amplitude_factor_double(k: int, transmittance: float) -> float:
    """Closed-form amplitude r_k of doubled block k.

    On a 2(k-1)-photon input the dark branch equals
    r_k (a†^2 - e^{2i phi} b†^2) applied to it, with
    r_k = (1 - T)^{k-1} T / 2 = q_k^2 / 2.
    """
    return 0.5 * qk_squared(transmittance, k)


def _blocks(factors, transmittances=None):
    """Checked (theta, phi) floats and schedule of a chain of blocks.

    ``factors`` is a FactorSet or an iterable of (theta, phi) pairs, at
    least one; ``transmittances``, one per block, defaults to T_k = 1/k.
    Every block is checked here, as plain floats; a BlockParams is built
    only for the first block out of range, to raise its error.
    """
    if isinstance(factors, FactorSet):
        factors = factors.factors
    angles = [(float(t), float(p)) for t, p in factors]
    if not angles:
        raise ValueError("need at least one factor")
    ts = (optimal_schedule(len(angles)) if transmittances is None
          else [float(t) for t in transmittances])
    if len(ts) != len(angles):
        raise ValueError(f"need {len(angles)} transmittances, got {len(ts)}")
    for (theta, phi), t in zip(angles, ts):
        if not (0.0 <= theta <= _THETA_MAX and math.isfinite(phi)
                and 0.0 < t <= 1.0):
            BlockParams(theta, phi, t)
    return angles, ts


def _mixing(ts) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the mixing angles of the blocks, sqrt(1 - T) and sqrt(T).

    Taken from T itself, so T = 1 gives the exact swap, cos = 0.
    """
    t = np.asarray(ts, dtype=float)
    return np.sqrt(1.0 - t), np.sqrt(t)


def _run_chain(ts, ancs: np.ndarray) -> SchemeResult:
    """Chain one heralded block per (transmittance, ancilla row) from vacuum.

    ``ts`` holds the checked transmittance of each block and row k of
    ``ancs`` the coefficients of block k's a-photon ancilla.  After k
    blocks the state is the k a + 1 coefficients of one photon-number
    sector, kept zero-padded in one of two buffers, each read through one
    fixed ``_shifted`` view.  The weights of every block come from one
    splitter table before the loop (``_block_weights``, row k for input
    sector k a).  Block k is one product of its weights with the view of
    one buffer, into a product buffer whose a + 1 rows, one per ancilla
    ket, are views taken before the loop, and those rows added with
    ``np.add`` into the other buffer: entries past the sector multiply
    padding zeros and add to +-0.  Its probability is the squared norm of
    the sector slice, followed by an in-place renormalization.  The result
    is embedded at cutoff N once.  Owns the short-circuit to an
    ``impossible`` result.
    """
    n_blocks, a = ancs.shape[0], ancs.shape[1] - 1
    n_photons = a * n_blocks
    v = _splitter_entries(n_photons, *_mixing(ts), a, 0)[..., 0]
    w = _block_weights(v, ancs, a)
    bufs = np.zeros((2, a + n_photons + 1), dtype=complex)
    bufs[0, a] = 1.0
    views, outs = list(_shifted(bufs, a)), list(bufs[:, a:])
    prod = np.empty(views[0].shape, dtype=complex)
    first, *rest = prod
    probs: list[float] = []
    for k in range(n_blocks):
        np.multiply(w[k], views[k % 2], out=prod)
        y = np.add(first, rest[0], out=outs[(k + 1) % 2])
        for row in rest[1:]:
            y += row
        x = y[:(k + 1) * a + 1]
        probs.append(float(np.vdot(x, x).real))
        if probs[-1] == 0.0:
            probs.extend([0.0] * (n_blocks - k - 1))
            return SchemeResult(zero_state(n_photons), tuple(probs), 0.0, True)
        x /= math.sqrt(probs[-1])
    return SchemeResult(_sector_state(x), tuple(probs), math.prod(probs), False)


def run_scheme(factors, transmittances=None) -> SchemeResult:
    """Chain one single-photon block per factor, starting from vacuum.

    ``factors`` is a FactorSet or an iterable of (theta, phi) pairs;
    ``transmittances`` defaults to the yield-optimal schedule T_k = 1/k.
    Every block passes one check (``_blocks``) before the first runs; one
    with zero heralding probability short-circuits to ``impossible``.
    """
    angles, ts = _blocks(factors, transmittances)
    return _run_chain(ts, _single_table(angles))


def noon_double_phases(n_photons: int) -> list[float]:
    """Phases of the n/2 doubled blocks that target the n-photon NOON state.

    The n factor phases of the NOON target are the odd multiples of pi/n;
    they split into conjugate pairs (phi, phi + pi), one pair per block.
    """
    return [_wrap_angle((2 * k + 1) * math.pi / n_photons)
            for k in range(_photon_number(n_photons, doubled=True) // 2)]


def run_scheme_double(n_photons: int, phis=None,
                      transmittances=None) -> SchemeResult:
    """Chain doubled blocks, two photons per heralding event.

    Defaults target the n-photon NOON state.  ``phis`` (one per block) and
    ``transmittances`` (default T_k = 1/k) may be overridden.  Every block,
    as (pi/4, phi), passes ``run_scheme``'s check before the first runs.
    """
    half = _photon_number(n_photons, doubled=True) // 2
    if phis is None:
        phis = noon_double_phases(n_photons)
    angles = [(math.pi / 4.0, float(p)) for p in phis]
    if len(angles) != half:
        raise ValueError(f"need {half} phases, got {len(angles)}")
    angles, ts = _blocks(angles, transmittances)
    return _run_chain(ts, _double_table([phi for _, phi in angles]))


def _transfer_table(v: np.ndarray, k: int) -> np.ndarray:
    """Per-mode transfer table a[j, j', d + k, x, s] of one channel block.

    With ancilla kets j and j' in ket and bra, a splitter and the trace of
    its ancilla mode send |s><s - d| of its signal mode, s <= k and
    |d| <= k, to sum_n v[j, x, n] v[j', x', n] |x><x'|, x = s + j - n and
    x' = x - d - j + j', with ``v`` the splitter's (2, c + 1, c + 1)
    ``_splitter_entries`` at a cutoff c above k; entry [j, j', d + k, x, s]
    is that product.  The entries it reads are copied once into a zeroed
    buffer that also spans every negative n and every x' below 0 or above
    c, and the second factor is a view with constant strides over it.  The
    first factor is another view of the same buffer, the second's slice
    j' = j, d = 0.  Where the second factor is a padding zero the product
    may be -0.0, where an index gather of both factors would give +0.0.
    No output bit depends on that sign as long as each sum of the
    channel's matrix products starts from +0, as numpy's own matmul loop
    and the gemm of OpenBLAS 0.3.31 were seen to do; a BLAS that started a
    sum from its first product could keep a -0.0 where every term is zero.
    """
    top = min(v.shape[1] - 1, 2 * k + 2)
    pad = np.zeros((2, 3 * k + 4, 2 * k + 3))  # [j, x' + k + 1, n + k + 1]
    pad[:, k + 1:k + 2 + top, k + 1:] = v[:, :top + 1, :k + 2]
    sj, sx, sn = pad.strides
    at = (k + 1) * (sx + sn)  # j = j' = x = s = 0, d = 0
    second = np.ndarray((2, 2, 2 * k + 1, k + 2, k + 1), float, pad,
                        at + k * sx, (sn - sx, sj + sx, -sx, sx - sn, sn))
    first = np.ndarray((2, 1, 1, k + 2, k + 1), float, pad,
                       at, (sj + sn, 0, 0, sx - sn, sn))
    # in C order, the layout the channel's batched products read
    return np.multiply(first, second, order="C")


def _channel_block(r: np.ndarray, v: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """One unconditioned block on rho stored by offset; returns it swapped.

    ``r[d + k, s, t] = <s, t| rho |s - d, t + d>`` for a rho of at most k
    photons, block-diagonal in photon number; ``v`` is the block's
    (2, c + 1, c + 1) ``_splitter_entries`` at a cutoff c above k, and
    ``w[j, j'] = anc[j] anc[j']*`` for the ancilla kets |j, 1 - j>.  With
    modes c and d traced out, U (x) U on (a, c) and (b, d) is
    sum_{j, j'} w[j, j'] A_jj' (x) B_jj', which takes input offset d to
    d + j - j' alone.  On offset d, A_jj' is a[j, j', d] of
    ``_transfer_table`` and B_jj' is A_jj' with j -> 1 - j: a reversed
    along (j, j', d).  The second product, B (A r)^T, writes each term
    straight to its output offset through a view with shifted strides over
    one zeroed buffer, and one product with the four weights sums the
    terms.  That leaves the result in (t, s) order: it is returned as
    ``out[d + k + 1, t, s] = <s, t| rho' |s - d, t + d>``, which read with
    its offset axis reversed is rho' of the mode-swapped signal, whose
    ancilla kets are reversed, w[::-1, ::-1].  The output is C-contiguous,
    so the chain reads the last one's sector blocks through one view with
    constant strides over its buffer.
    """
    k = r.shape[1] - 1
    a = _transfer_table(v, k)
    # each product is a real matmul, a real table on the left of a complex
    # array's float view
    ar = (a @ r.view(float)).view(complex).swapaxes(-1, -2).copy()
    buf = np.zeros((2, 2, 2 * k + 3, k + 2, 2 * (k + 2)))
    sj, sjp, sd = buf.strides[:3]
    terms = np.ndarray((2, 2, 2 * k + 1) + buf.shape[3:], float, buf, sd,
                       (sj + sd, sjp - sd) + buf.strides[2:])
    np.matmul(a[::-1, ::-1, ::-1], ar.view(float), out=terms)
    del a, ar  # freed before the weighted sum: it sets the channel's peak
    out = w.reshape(4) @ buf.view(complex).reshape(4, -1)
    return out.reshape(2 * k + 3, k + 2, k + 2)


def run_scheme_unconditional(factors, transmittances=None) -> TwoModeDensity:
    """Run the chained scheme keeping every ancilla outcome.

    Returns the mixed signal state after all blocks as its sector blocks,
    ``TwoModeDensity.from_sectors``: the heralded generation branch sits
    in the top photon-number sector with weight equal to the scheme yield,
    all failed branches hold fewer photons, and no sectors are coherent.
    Every block passes ``run_scheme``'s check before the first runs.

    rho is kept by offset, as ``_channel_block`` takes it.  Each block
    returns the mode-swapped state, so every other block reads its input
    with the offset axis reversed and its ancilla kets reversed.  Every
    block reads its splitter entries from one table of the whole chain at
    cutoff N: entries with o + n <= k + 1 do not depend on it.  The last
    output r is rho by offset read as ``r[::-1]`` when N is even and as
    ``r.swapaxes(1, 2)``, the modes swapped back, when N is odd.  Entry
    [m, i, j] of the sector-block stack, <i, m - i| rho |j, m - j>, is
    then r[d, s, t] with (d, s, t) = (i - j + N, m - i, i) for odd N and
    (j - i + N, i, m - i) for even N, affine in (m, i, j), so one view
    with constant strides over r reads the stack.  Outside the corners,
    i > m or j > m, it reads other entries of r, which ``from_sectors``
    drops.
    """
    angles, ts = _blocks(factors, transmittances)
    n = len(angles)
    v = _splitter_entries(n, *_mixing(ts), 1)
    anc = _single_table(angles)
    anc[1::2] = anc[1::2, ::-1]
    w = anc[:, :, None] * anc[:, None].conj()
    r = np.ones((1, 1, 1), dtype=complex)
    for k in range(n):
        r = _channel_block(r[::-1], v[:, k], w[k])
    s0, s1, s2 = r.strides
    strides = (s1, s0 - s1 + s2, -s0) if n % 2 else (s2, s1 - s0 - s2, s0)
    return TwoModeDensity.from_sectors(
        np.ndarray((n + 1,) * 3, complex, r, n * s0, strides))
