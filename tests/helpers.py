"""Shared random-state builders and matchers for the test suite."""

import math
from functools import lru_cache

import numpy as np

from pathent.factorize import TargetSpec, _wrap_angle
from pathent.cli import _random_eigenstate as random_eigenstate
from pathent.cli import _random_four_mode_state as random_four_mode_state
from pathent.fock import TwoModeState, dim2, vacuum
from pathent.litho import _lower

# Mixing angles for the beam-splitter tests: the identity, angles below
# and above the balanced pi/4, the swap at +-pi/2 and the last floats
# below it, negative angles and angles beyond pi/2.
MIX_KAPPAS = [0.0, 0.1, 0.7, math.pi / 4 + 1e-6, 1.3,
              math.pi / 2 - 3 * math.ulp(math.pi / 2), math.pi / 2,
              -math.pi / 2, -1.0, 2.5, 3.0]


@lru_cache(maxsize=None)
def sector_eigh(m):
    """Eigenpairs of iG, G = a†b - ab† on the kets |m - l, l>, l = 0..m.

    exp(kappa G) on that sector is vec diag(exp(-i kappa lam)) vec^dagger,
    a reference built with no code from pathent.
    """
    l = np.arange(m)
    # a†b sends |m - l - 1, l + 1> to sqrt((m - l)(l + 1)) |m - l, l>
    hop = np.sqrt((m - l) * (l + 1.0))
    gen = np.zeros((m + 1, m + 1), dtype=complex)
    gen[l, l + 1] = hop
    gen[l + 1, l] = -hop
    return np.linalg.eigh(1j * gen)


def random_two_mode_state(rng, cutoff):
    v = rng.standard_normal(dim2(cutoff)) + 1j * rng.standard_normal(dim2(cutoff))
    return TwoModeState(cutoff, v / np.linalg.norm(v))


def reference_chain(run_block, block_args):
    """Chain ``run_block(state, *args)`` from vacuum through the public blocks.

    Each heralded state is renormalized before the next block: the route
    the chained schemes took block by block, over the whole two-mode
    simplex.  Returns the final state and the block probabilities.
    """
    state, probs = vacuum(0), []
    for args in block_args:
        out = run_block(state, *args)
        probs.append(out.probability)
        state = out.state / math.sqrt(out.probability)
    return state, probs


def absorption_rate_dense(rho, n_absorb):
    """Tr(rho e†^N e^N) / N! from the dense N-th power of e = a + b.

    The one-step matrix of a + b on the whole two-mode simplex, raised to
    the N-th power: a reference that never splits rho into sectors.
    """
    e_1 = _lower(np.eye(dim2(rho.cutoff), dtype=complex), rho.cutoff, 1)
    e_n = np.linalg.matrix_power(e_1, n_absorb)
    return float(np.vdot(e_n, e_n @ rho.mat).real) / math.factorial(n_absorb)


def random_target(rng, n):
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return TargetSpec(n, v)


def angle_pair_distance(a, b):
    return abs(a[0] - b[0]) + abs(_wrap_angle(a[1] - b[1]))


def assert_angle_multisets_close(got, expected, tol=1e-7):
    """Greedy nearest-pair matching of (theta, phi) multisets."""
    assert len(got) == len(expected)
    remaining = list(expected)
    worst = 0.0
    for pair in got:
        dists = [angle_pair_distance(pair, r) for r in remaining]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        remaining.pop(i)
    assert worst < tol, f"angle multisets differ by {worst}"


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


TAU = 2.0 * math.pi
