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
from functools import lru_cache

import numpy as np

from .factorize import FactorSet, _wrap_angle
from .fock import (
    TwoModeDensity,
    TwoModeState,
    _basis,
    _sector_state,
    apply_creation,
    dim2,
    vacuum,
    zero_state,
)
from .yields import optimal_schedule


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
        if not 0.0 <= self.theta <= math.pi / 2.0 + 1e-12:
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

    @property
    def cos_sin(self) -> tuple[float, float]:
        """cos and sin of the mixing angle, sqrt(1 - T) and sqrt(T).

        Taken from T itself, so T = 1 gives the exact swap, cos = 0.
        """
        t = self.transmittance
        return math.sqrt(1.0 - t), math.sqrt(t)


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


def ancilla_single(theta: float, phi: float) -> TwoModeState:
    """One ancilla photon in cos(theta)|1,0> - e^{i phi} sin(theta)|0,1>.

    Written down from its closed form, the amplitudes the photon-adding
    factor cos(theta) a† - e^{i phi} sin(theta) b† puts on vacuum.
    """
    return _sector_state([-np.exp(1j * phi) * math.sin(theta), math.cos(theta)])


def ancilla_double(phi: float) -> TwoModeState:
    """Two-photon ancilla (|2,0> - e^{2i phi}|0,2>)/sqrt(2), |1,1> exactly 0.

    Physically |1,1> bunched on a balanced beam splitter, then phase-shifted
    in the second mode; written down here from that closed form.
    """
    return _sector_state([-np.exp(2j * phi) * math.sqrt(0.5), 0.0,
                          math.sqrt(0.5)])


def _splitter_entries(cutoff: int, c: float, s: float, j_max: int,
                      n_max: int | None = None) -> np.ndarray:
    """v[j, o, n] = U[(o, n), (o + n - j, j)] of the two-mode splitter U.

    U sends a† to A† = c a† - s b† and b† to B† = s a† + c b†, with
    c = cos(kappa) and s = sin(kappa) of its angle.  v[0] is a closed
    form: U|m, 0> = A†^m |0> / sqrt(m!) has the |o, n> entry
    c^o (-s)^n sqrt(C(m, n)).  Each further b-photon applies B† once,
    U|m - j, j> = B† U|m - j, j - 1> / sqrt(j), so
        v[j, o, n] = (s sqrt(o) v[j-1, o-1, n] + c sqrt(n) v[j-1, o, n-1])
                     / sqrt(j),
    which unrolls to the j + 1 terms of the binomial expansion of B†^j.
    Every power is non-negative and nothing divides by c, so no angle needs
    a special case.  Only the columns n <= n_max (default: all) are built,
    since the recursion never reads a higher one; the heralded blocks need
    n = 0 alone, c^{o-j} s^j sqrt(C(o, j)).  Entries with o + n > cutoff or
    o + n < j are zero.
    """
    n_max = cutoff if n_max is None else n_max
    o = np.arange(cutoff + 1.0)[:, None]
    n = np.arange(n_max + 1.0)
    inside = o + n <= cutoff
    # sqrt(C(o + n, n)) as the running product of sqrt((o + t) / t), t <= n
    step = np.sqrt((o + n) / np.maximum(n, 1.0))
    step[:, 0] = 1.0
    v = np.zeros((j_max + 1, cutoff + 1, n_max + 1))
    v[0] = np.where(inside, c ** o * (-s) ** n * np.cumprod(step, axis=1), 0.0)
    for j in range(1, j_max + 1):
        v[j, 1:] = s * np.sqrt(o[1:]) * v[j - 1, :-1]
        v[j, :, 1:] += c * np.sqrt(n[1:]) * v[j - 1, :, :-1]
        v[j] = np.where(inside, v[j] / math.sqrt(j), 0.0)
    return v


def _herald(state: TwoModeState, ancilla: TwoModeState,
            params: BlockParams) -> BlockOutcome:
    """Mix signal (x) ancilla on the splitter pair; keep the dark branch.

    The pair is U (x) U on (a, c) and (b, d).  With both ancilla detectors
    dark, signal ket |s_a, s_b> and ancilla ket |j, l> go to
    |p, q> = |s_a + j, s_b + l> with amplitude
        U[(p,0), (s_a,j)] * U[(q,0), (s_b,l)] * s(s_a, s_b) * anc(j, l).
    Only the populated signal kets are visited: in a chain, whose state
    after k blocks is the k + 1 kets of one photon-number sector, a block
    computes O(k) amplitudes, not one per ket of the simplex.  For a fixed
    ancilla ket the shift is one-to-one, so each ancilla ket is one scatter.
    """
    cutoff = state.cutoff + ancilla.cutoff
    v = _splitter_entries(cutoff, *params.cos_sin, ancilla.cutoff, 0)[:, :, 0]
    (na, nb), _ = _basis(2, state.cutoff)
    (nc, nd), _ = _basis(2, ancilla.cutoff)
    table = _basis(2, cutoff)[1]
    src = np.flatnonzero(state.amps)
    s_a, s_b, amps = na[src], nb[src], state.amps[src]
    dark = np.zeros(dim2(cutoff), dtype=complex)
    for k in np.flatnonzero(ancilla.amps):
        j, l = nc[k], nd[k]
        p, q = s_a + j, s_b + l
        dark[table[p, q]] += v[j, p] * v[l, q] * ancilla.amps[k] * amps
    out = TwoModeState(cutoff, dark)
    return BlockOutcome(out, out.norm_sq())


def run_block_single(state: TwoModeState, params: BlockParams) -> BlockOutcome:
    return _herald(state, ancilla_single(params.theta, params.phi), params)


def run_block_double(state: TwoModeState, phi: float,
                     transmittance: float) -> BlockOutcome:
    return _herald(state, ancilla_double(phi),
                   BlockParams(math.pi / 4.0, phi, transmittance))


def amplitude_factor_single(k: int, transmittance: float) -> float:
    """Closed-form amplitude q_k by which block k scales the added factor.

    Block k acts on a (k-1)-photon state; the dark-ancilla branch equals
    q_k times the factor applied to the input, with
    q_k = (1 - T)^{(k-1)/2} sqrt(T).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return (1.0 - transmittance) ** ((k - 1) / 2.0) * math.sqrt(transmittance)


def amplitude_factor_double(k: int, transmittance: float) -> float:
    """Closed-form amplitude r_k of doubled block k.

    On a 2(k-1)-photon input the dark branch equals
    r_k (a†^2 - e^{2i phi} b†^2) applied to it, with
    r_k = (1 - T)^{k-1} T / 2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return 0.5 * (1.0 - transmittance) ** (k - 1) * transmittance


def apply_double_factor(state: TwoModeState, phi: float) -> TwoModeState:
    """Apply a†^2 - e^{2i phi} b†^2, the conjugate factor pair at theta=pi/4."""
    aa = apply_creation(apply_creation(state, "a"), "a")
    bb = apply_creation(apply_creation(state, "b"), "b")
    return TwoModeState(state.cutoff,
                        aa.amps - np.exp(2j * phi) * bb.amps)


def _factor_angles(factors) -> list[tuple[float, float]]:
    if isinstance(factors, FactorSet):
        factors = factors.factors
    angles = [(float(t), float(p)) for t, p in factors]
    if not angles:
        raise ValueError("need at least one factor")
    return angles


def _schedule(n_blocks: int, transmittances) -> list[float]:
    if transmittances is None:
        return optimal_schedule(n_blocks)
    ts = [float(t) for t in transmittances]
    if len(ts) != n_blocks:
        raise ValueError(
            f"need {n_blocks} transmittances, got {len(ts)}"
        )
    return ts


def _run_chain(run_block, block_args, transmittances,
               n_photons: int) -> SchemeResult:
    """Chain ``run_block(state, *args, T_k)`` from vacuum, once per args.

    Owns the schedule, the renormalization of each heralded state and the
    short-circuit to an ``impossible`` result.
    """
    n_blocks = len(block_args)
    ts = _schedule(n_blocks, transmittances)
    state = vacuum(0)
    probs: list[float] = []
    for k, (args, t) in enumerate(zip(block_args, ts), start=1):
        out = run_block(state, *args, t)
        probs.append(out.probability)
        if out.probability == 0.0:
            probs.extend([0.0] * (n_blocks - k))
            return SchemeResult(zero_state(n_photons), tuple(probs), 0.0, True)
        state = out.state / math.sqrt(out.probability)
    return SchemeResult(state, tuple(probs), math.prod(probs), False)


def run_scheme(factors, transmittances=None) -> SchemeResult:
    """Chain one single-photon block per factor, starting from vacuum.

    ``factors`` is a FactorSet or an iterable of (theta, phi) pairs;
    ``transmittances`` defaults to the yield-optimal schedule T_k = 1/k.
    A block with zero heralding probability short-circuits to an
    ``impossible`` result.
    """
    angles = _factor_angles(factors)
    return _run_chain(
        lambda state, theta, phi, t: run_block_single(
            state, BlockParams(theta, phi, t)),
        angles, transmittances, len(angles))


def noon_double_phases(n_photons: int) -> list[float]:
    """Phases of the n/2 doubled blocks that target the n-photon NOON state.

    The n factor phases of the NOON target are the odd multiples of pi/n;
    they split into conjugate pairs (phi, phi + pi), one pair per block.
    """
    if n_photons < 2 or n_photons % 2 != 0:
        raise ValueError("doubled scheme needs an even photon number >= 2")
    return [_wrap_angle((2 * k + 1) * math.pi / n_photons)
            for k in range(n_photons // 2)]


def run_scheme_double(n_photons: int, phis=None,
                      transmittances=None) -> SchemeResult:
    """Chain doubled blocks, two photons per heralding event.

    Defaults target the n-photon NOON state.  ``phis`` (one per block) and
    ``transmittances`` (default T_k = 1/k) may be overridden.
    """
    if n_photons < 2 or n_photons % 2 != 0:
        raise ValueError("doubled scheme needs an even photon number >= 2")
    half = n_photons // 2
    if phis is None:
        phis = noon_double_phases(n_photons)
    phis = [float(p) for p in phis]
    if len(phis) != half:
        raise ValueError(f"need {half} phases, got {len(phis)}")
    return _run_chain(run_block_double, [(p,) for p in phis], transmittances,
                      n_photons)


@lru_cache(maxsize=None)
def _sector_map(m: int) -> tuple:
    """(outcomes, starts, pos, first, second) of input sector m.

    Outcomes (n_c, n_d) run by output sector m' = m + 1 - n_c - n_d, m' from
    ``starts[m']``.  With j ancilla photons leaving c and 1 - j leaving d,
    |s_a, m - s_a> goes to |o_a, o_b> = |s_a + j - n_c, m - s_a + 1 - j - n_d>
    with amplitude anc[j] v[j, o_a, n_c] v[1 - j, o_b, n_d]: flat ``pos`` of
    the Kraus stack, ``first`` and ``second`` of v[:, :m + 2, :m + 2].
    """
    outcomes = np.array([(nc, m + 1 - mo - nc) for mo in range(m + 2)
                         for nc in range(m + 2 - mo)])
    k, j, s_a = np.indices((len(outcomes), 2, m + 1)).reshape(3, -1)
    nc, nd = outcomes[k].T
    o_a, o_b = s_a + j - nc, m - s_a + 1 - j - nd
    ok = (o_a >= 0) & (o_b >= 0)
    flat = ((k * (m + 2) + o_a) * (m + 1) + s_a,
            (j * (m + 2) + o_a) * (m + 2) + nc,
            ((1 - j) * (m + 2) + o_b) * (m + 2) + nd)
    starts = np.flatnonzero(np.diff(outcomes.sum(axis=1), prepend=m + 2))
    return (outcomes, starts) + tuple(x[ok] for x in flat)


def _sector_kraus(m: int, v: np.ndarray, anc: np.ndarray) -> np.ndarray:
    """Kraus stack [outcome, o_a, s_a] of one block on input sector m.

    ``v`` is ``_splitter_entries`` at cutoff >= m + 1, ``anc`` the ancilla
    amplitudes of |0,1> and |1,0>.
    """
    outcomes, _, pos, first, second = _sector_map(m)
    v = v[:, :m + 2, :m + 2]
    kraus = np.zeros((len(outcomes), m + 2, m + 1), dtype=complex)
    kraus.ravel()[pos] = ((anc[:, None, None] * v).ravel()[first]
                          * v.ravel()[second])
    return kraus


def run_scheme_unconditional(factors, transmittances=None) -> TwoModeDensity:
    """Run the chained scheme keeping every ancilla outcome.

    Returns the mixed signal state after all blocks: the heralded
    generation branch sits in the top photon-number sector with weight
    equal to the scheme yield, and all failed branches hold fewer photons.

    From vacuum, rho is block-diagonal in signal photon number m and kept
    so, one block per sector; outcome (n_c, n_d) sends sector m to
    m + 1 - n_c - n_d, with Kraus elements from ``_sector_kraus``.
    """
    angles = _factor_angles(factors)
    ts = _schedule(len(angles), transmittances)
    n = len(angles)
    # rho[m, i, i'] = <i, m - i| rho |i', m - i'>, zero past i, i' = m
    rho = np.zeros((n + 1,) * 3, dtype=complex)
    rho[0, 0, 0] = 1.0
    for n_in, ((theta, phi), t) in enumerate(zip(angles, ts)):
        v = _splitter_entries(n_in + 1, *BlockParams(theta, phi, t).cos_sin, 1)
        anc = ancilla_single(theta, phi)
        anc = np.array([anc.amplitude(0, 1), anc.amplitude(1, 0)])
        out = np.zeros_like(rho)
        for m in range(n_in + 1):
            kraus = _sector_kraus(m, v, anc)
            mixed = kraus @ rho[m, :m + 1, :m + 1] @ kraus.conj().transpose(0, 2, 1)
            out[:m + 2, :m + 2, :m + 2] += np.add.reduceat(mixed, _sector_map(m)[1])
        rho = out
    (na, nb), _ = _basis(2, n)
    m = (na + nb)[:, None]
    return TwoModeDensity(n, np.where(m == m.T, rho[m, na[:, None], na], 0))
