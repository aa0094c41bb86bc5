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

from .factorize import FactorSet, _wrap_angle
from .fock import (
    TwoModeDensity,
    TwoModeState,
    _mix_pair,
    _project_cd,
    _sector,
    _simplex,
    _split_cd,
    _tensor_amps,
    _totals,
    apply_creation,
    basis_state,
    beam_splitter,
    dim2,
    phase_shift,
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


def ancilla_single(theta: float, phi: float) -> TwoModeState:
    """One ancilla photon in cos(theta)|1,0> - e^{i phi} sin(theta)|0,1>."""
    s = basis_state(1, 1, 0)
    s = beam_splitter(s, theta)
    return phase_shift(s, phi, mode="b")


def ancilla_double(phi: float) -> TwoModeState:
    """Two-photon ancilla (|2,0> - e^{2i phi}|0,2>)/sqrt(2).

    Prepared by interfering |1,1> on a balanced beam splitter, which
    bunches the pair, then phase-shifting the second mode.
    """
    s = basis_state(2, 1, 1)
    s = beam_splitter(s, math.pi / 4.0)
    return phase_shift(s, phi, mode="b")


def _herald(state: TwoModeState, ancilla: TwoModeState,
            kappa: float) -> BlockOutcome:
    """Mix signal (x) ancilla on the splitter pair; keep the dark branch.

    The splitters conserve photon number, so each total n of signal plus
    ancilla runs in its own four-mode sector; the chain's states fill one.
    The result equals the whole-simplex route (tensor, splitter pair,
    vacuum projection) bit for bit.
    """
    cutoff = state.cutoff + ancilla.cutoff
    dark = np.zeros(dim2(cutoff), dtype=complex)
    for n in np.unique(np.add.outer(_totals(state), _totals(ancilla))):
        kets = _sector(4, int(n))
        joint = _tensor_amps(state.amps, state.cutoff, ancilla, kets)
        _project_cd(dark, cutoff, _mix_pair(joint, kets, kappa), kets, 0, 0)
    out = TwoModeState(cutoff, dark)
    return BlockOutcome(out, out.norm_sq())


def run_block_single(state: TwoModeState, params: BlockParams) -> BlockOutcome:
    return _herald(state, ancilla_single(params.theta, params.phi),
                   params.kappa)


def run_block_double(state: TwoModeState, phi: float,
                     transmittance: float) -> BlockOutcome:
    params = BlockParams(math.pi / 4.0, phi, transmittance)
    return _herald(state, ancilla_double(phi), params.kappa)


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


def _block_kraus(cutoff_in: int, params: BlockParams) -> list[np.ndarray]:
    """Kraus matrices of one block with the heralding detectors ignored.

    Every ancilla detection pattern (n_c, n_d) contributes one operator
    mapping the two-mode space at ``cutoff_in`` to ``cutoff_in + 1``; their
    completeness relation sum(M† M) = 1 holds because the block unitary is
    photon-number conserving.
    """
    anc = ancilla_single(params.theta, params.phi)
    cutoff_out = cutoff_in + 1
    kets = _simplex(4, cutoff_out)
    # Column i is input basis ket i (x) ancilla, all pushed through at once.
    joint = _tensor_amps(np.eye(dim2(cutoff_in), dtype=complex), cutoff_in,
                         anc, kets)
    kraus = _split_cd(_mix_pair(joint, kets, params.kappa), cutoff_out)
    return [m for m in kraus if m.any()]


def run_scheme_unconditional(factors, transmittances=None) -> TwoModeDensity:
    """Run the chained scheme keeping every ancilla outcome.

    Returns the mixed signal state after all blocks: the heralded
    generation branch sits in the top photon-number sector with weight
    equal to the scheme yield, and all failed branches hold fewer photons.
    """
    angles = _factor_angles(factors)
    ts = _schedule(len(angles), transmittances)
    rho = np.ones((1, 1), dtype=complex)
    for n_in, ((theta, phi), t) in enumerate(zip(angles, ts)):
        kraus = _block_kraus(n_in, BlockParams(theta, phi, t))
        rho = sum(m @ rho @ m.conj().T for m in kraus)
    return TwoModeDensity(len(angles), rho)
