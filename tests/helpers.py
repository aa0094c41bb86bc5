"""Shared random-state builders and matchers for the test suite."""

import json
import math
from functools import lru_cache

import numpy as np
import pytest

from pathent.blocks import (
    BlockOutcome,
    BlockParams,
    SchemeResult,
    _blocks,
    _mixing,
)
from pathent.factorize import TargetSpec, _wrap_angle
from pathent.cli import _random_eigenstate as random_eigenstate
from pathent.fock import (
    FourModeState,
    TwoModeState,
    _basis,
    _pair_blocks,
    _sector,
    _sector_state,
    apply_creation,
    beam_splitter_pair_oracle,
    dim2,
    dim4,
    vacuum,
    with_cutoff,
    zero_state,
)

# Mixing angles for the beam-splitter tests: the identity, angles below
# and above the balanced pi/4, the swap at +-pi/2 and the last floats
# below it, negative angles and angles beyond pi/2.
MIX_KAPPAS = [0.0, 0.1, 0.7, math.pi / 4 + 1e-6, 1.3,
              math.pi / 2 - 3 * math.ulp(math.pi / 2), math.pi / 2,
              -math.pi / 2, -1.0, 2.5, 3.0]


def random_four_mode_state(rng, cutoff):
    """Normalized four-mode state with a Gaussian amplitude on every ket."""
    v = rng.standard_normal(dim4(cutoff)) + 1j * rng.standard_normal(dim4(cutoff))
    return FourModeState(cutoff, v / np.linalg.norm(v))


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


def reference_sector_blocks(cutoff, kappa):
    """Yield q[r, l] = <n - r, r| U |n - l, l>, U's block on sector n.

    The balanced recursion one sector at a time, each term added into a
    fresh zeroed block in turn: the test-side reference that the blocks
    of ``fock._sector_blocks``, from eigenpairs, are held to.
    U maps a† to A† = c a† - s b† and b† to B† = s a† + c b† (c = cos kappa,
    s = sin kappa), so block n comes from block n - 1, all columns at once,
    by the balanced recursion (p = n - l)
        n U|p, l> = sqrt(p) A† U|p - 1, l> + sqrt(l) B† U|p, l - 1>.
    """
    k = np.arange(cutoff + 1.0)
    # sqrt(i j) in one root, so kappa = 0 gives the identity bit for bit
    root = np.sqrt(np.outer(k, k))
    wc, ws = math.cos(kappa) * root, math.sin(kappa) * root
    q = np.ones((1, 1))
    yield q
    for n in range(1, cutoff + 1):
        # a† weighs row r by sqrt(n - r), b† by sqrt(r + 1)
        a, b = slice(n, 0, -1), slice(1, n + 1)
        z = np.zeros((n + 1, n + 1))
        z[:-1, :-1] = wc[a, a] * q
        z[1:, :-1] -= ws[b, a] * q
        z[:-1, 1:] += ws[a, b] * q
        z[1:, 1:] += wc[b, b] * q
        q = z / n
        yield q


def reference_mix(amps, cutoff, kappa):
    """The two-mode splitter, one contraction per ``reference_sector_blocks``
    block: the reference for ``fock.beam_splitter``."""
    out = np.empty_like(amps)
    for n, q in enumerate(reference_sector_blocks(cutoff, kappa)):
        # q runs over n_b ascending, the sector slice over n_a ascending
        kets = _sector(n)
        x = amps[kets][::-1].copy()
        out[kets] = np.einsum("il,l...->i...", q, x)[::-1]
    return out


def reference_pair_exact(s, kappa):
    """The pair splitter U X U^T with U placed block by block.

    U gets each ``reference_sector_blocks`` block reversed on both axes on
    its diagonal, one sector slice at a time, X[(n_a, n_c), (n_b, n_d)]
    holds the amplitudes, and both products are complex: a reference that
    shares neither the blocks, nor the assembly of U, nor the real products
    with ``beam_splitter_pair_exact``.
    """
    (na, nb, nc, nd), _ = _basis(4, s.cutoff)
    table = _basis(2, s.cutoff)[1]
    rows, cols = table[na, nc], table[nb, nd]
    d = dim2(s.cutoff)
    x = np.zeros((d, d), dtype=complex)
    x[rows, cols] = s.amps
    u = np.zeros((d, d))
    for n, q in enumerate(reference_sector_blocks(s.cutoff, kappa)):
        u[_sector(n), _sector(n)] = q[::-1, ::-1]
    return (u @ x @ u.T)[rows, cols]


@lru_cache(maxsize=None)
def _pair_eigh(cutoff):
    return tuple((idx, *np.linalg.eigh(1j * gen))
                 for idx, gen in _pair_blocks(cutoff))


def reference_pair_oracle(s, kappa):
    """The dense-exponential oracle block by block, one np.exp per block,
    with no stacking of equal-sized blocks."""
    out = np.zeros_like(s.amps)
    for idx, lam, vec in _pair_eigh(s.cutoff):
        out[idx] = vec @ (np.exp(-1j * kappa * lam)
                          * (vec.conj().T @ s.amps[idx]))
    return out


def padded_pair_oracle(s, kappa):
    """The dense-exponential oracle block by block, each block alone and
    zero-padded to the next square from 4: the byte-for-byte reference for
    ``beam_splitter_pair_oracle``, which stacks the blocks of one square."""
    out = np.zeros_like(s.amps)
    for idx, lam, vec in _pair_eigh(s.cutoff):
        n = idx.size
        rung = max(math.isqrt(n - 1) + 1, 2) ** 2
        v = np.zeros((rung, rung), dtype=complex)
        v[:n, :n] = vec
        w = np.zeros(rung)
        w[:n] = lam
        x = np.zeros(rung, dtype=complex)
        x[:n] = s.amps[idx]
        out[idx] = (v @ (np.exp(-1j * kappa * w) * (v.conj().T @ x)))[:n]
    return out


def oracle_outcomes(signal, ancilla, kappa):
    """One block by the textbook route: out[n_c, n_d] is the signal left
    when the ancilla modes (c, d) read (n_c, n_d), unnormalized.

    signal (x) ancilla is embedded on the four-mode simplex at the sum of
    their cutoffs, mixed by the dense-exponential oracle and split by
    ancilla outcome; each signal holds the two-mode kets at that cutoff.
    Shares no splitter, embedding or projection code with the heralded
    blocks or the exact pair splitter.
    """
    c = signal.cutoff + ancilla.cutoff
    (na, nb, nc, nd), _ = _basis(4, c)
    table = _basis(2, c)[1]
    amps = (with_cutoff(signal, c).amps[table[na, nb]]
            * with_cutoff(ancilla, c).amps[table[nc, nd]])
    mixed = beam_splitter_pair_oracle(FourModeState(c, amps), kappa).amps
    out = np.zeros((c + 1, c + 1, dim2(c)), dtype=complex)
    out[nc, nd, table[na, nb]] = mixed
    return out


def random_two_mode_state(rng, cutoff):
    v = rng.standard_normal(dim2(cutoff)) + 1j * rng.standard_normal(dim2(cutoff))
    return TwoModeState(cutoff, v / np.linalg.norm(v))


def reference_splitter_entries(cutoff, c, s, j_max, n_max=None):
    """v[j, ..., o, n] = U[(o, n), (o + n - j, j)] of the two-mode splitter U.

    The reference for ``blocks._splitter_entries``, built with a mask and
    every factor on every column: v[0] is the closed form
    c^o (-s)^n sqrt(C(o + n, n)), and each further b-photon applies
    B† = s a† + c b† once and divides by sqrt(j).  ``c`` and ``s`` may be
    arrays, one entry per splitter, their shape between j and (o, n).
    """
    n_max = cutoff if n_max is None else n_max
    c = np.asarray(c, dtype=float)[..., None, None]
    s = np.asarray(s, dtype=float)[..., None, None]
    o = np.arange(cutoff + 1.0)[:, None]
    n = np.arange(n_max + 1.0)
    inside = o + n <= cutoff
    # sqrt(C(o + n, n)) as the running product of sqrt((o + t) / t), t <= n
    step = np.sqrt((o + n) / np.maximum(n, 1.0))
    step[:, 0] = 1.0
    v = np.zeros((j_max + 1,) + c.shape[:-2] + (cutoff + 1, n_max + 1))
    v[0] = np.where(inside, c ** o * (-s) ** n * np.cumprod(step, axis=1), 0.0)
    for j in range(1, j_max + 1):
        v[j, ..., 1:, :] = s * np.sqrt(o[1:]) * v[j - 1, ..., :-1, :]
        v[j, ..., 1:] += c * np.sqrt(n[1:]) * v[j - 1, ..., :-1]
        v[j] = np.where(inside, v[j] / math.sqrt(j), 0.0)
    return v


def reference_single_table(angles):
    """Ancilla rows of single-photon blocks, one np.exp per factor."""
    return np.array([(-np.exp(1j * phi) * math.sin(theta), math.cos(theta))
                     for theta, phi in angles])


def reference_double_table(phis):
    """Ancilla rows of doubled blocks, one np.exp per block."""
    return np.array([(-np.exp(2j * phi) * math.sqrt(0.5), 0.0, math.sqrt(0.5))
                     for phi in phis])


def apply_double_factor(state, phi):
    """Apply a†^2 - e^{2i phi} b†^2, the conjugate factor pair at theta=pi/4."""
    aa = apply_creation(apply_creation(state, "a"), "a")
    bb = apply_creation(apply_creation(state, "b"), "b")
    return TwoModeState(state.cutoff, aa.amps - np.exp(2j * phi) * bb.amps)


def reference_herald_sector(x, v, anc):
    """Dark branch of one block on the coefficients ``x`` of sector m.

    ``anc[j]`` is the amplitude of the ancilla ket |j, a - j> and
    ``v[j, p]`` the splitter entry U[(p, 0), (p - j, j)]; |i, m - i> (x)
    |j, a - j> goes to |i + j, m + a - i - j>, one slice-add per nonzero
    ancilla amplitude, each product formed on the spot.
    """
    m, a = len(x) - 1, len(anc) - 1
    y = np.zeros(m + a + 1, dtype=complex)
    for j in np.flatnonzero(anc):
        l = a - j
        y[j:j + m + 1] += (v[j, j:j + m + 1] * v[l, l:l + m + 1][::-1]
                           * anc[j] * x)
    return y


def reference_herald(state, anc, params):
    """The heralded block as ``reference_herald_sector`` on every sector."""
    a = len(anc) - 1
    cutoff = state.cutoff + a
    v = reference_splitter_entries(cutoff, *_mixing(params.transmittance), a,
                                   0)[..., 0]
    dark = np.zeros(dim2(cutoff), dtype=complex)
    for m in range(state.cutoff + 1):
        x = state.amps[_sector(m)]
        if x.any():
            dark[_sector(m + a)] = reference_herald_sector(x, v, anc)
    out = TwoModeState(cutoff, dark)
    return BlockOutcome(out, out.norm_sq())


def reference_block_single(state, params):
    anc = reference_single_table([(params.theta, params.phi)])[0]
    return reference_herald(state, anc, params)


def reference_block_double(state, phi, transmittance):
    return reference_herald(state, reference_double_table([phi])[0],
                            BlockParams(math.pi / 4.0, phi, transmittance))


def reference_run_chain(params, ancs):
    """The heralded chain block by block through ``reference_herald_sector``.

    Each block forms its weights on the spot from one row of the chain's
    splitter table, allocates its output and renormalizes into a new
    vector; a zero heralding probability gives the ``impossible`` result.
    """
    a = len(ancs[0]) - 1
    n_photons = a * len(ancs)
    ts = [p.transmittance for p in params]
    v = reference_splitter_entries(n_photons, *_mixing(ts), a, 0)[..., 0]
    x = np.ones(1, dtype=complex)
    probs = []
    for k, anc in enumerate(ancs):
        x = reference_herald_sector(x, v[:, k], anc)
        probs.append(float(np.vdot(x, x).real))
        if probs[-1] == 0.0:
            probs.extend([0.0] * (len(ancs) - k - 1))
            return SchemeResult(zero_state(n_photons), tuple(probs), 0.0, True)
        x = x / math.sqrt(probs[-1])
    return SchemeResult(_sector_state(x), tuple(probs), math.prod(probs), False)


def reference_transfer_table(v, k):
    """``blocks._transfer_table`` gathered through an index, built afresh.

    Entry [f, j, j', d + k, x, s] of the index is the flat position of
    factor f, v[j, x, n] or v[j', x', n] with n = s + j - x and
    x' = x - d - j + j', or of a zero appended past the end of ``v``
    when n < 0, x' < 0 or x' > c.
    """
    c = v.shape[1] - 1
    j, jp, d, x, s = np.ogrid[:2, :2, -k:k + 1, :k + 2, :k + 1]
    n, xp = s + j - x, x - d - j + jp
    inside = (n >= 0) & (xp >= 0) & (xp <= c)
    index = [np.where(inside, (i * (c + 1) + o) * (c + 1) + n, v.size)
             for i, o in ((j, x), (jp, xp))]
    return np.multiply(*np.append(v, 0.0).take(index))


def reference_block_weights(v, ancs, step):
    """``blocks._block_weights`` with its second factor gathered by index.

    Block-major, w[k, j, o], as the chains read it.  The index holds the
    position of v[a - j, k, a + k step - o], clipped into the row outside
    j <= o <= j + k step, which no block reads.
    """
    a, rows, width = v.shape[0] - 1, v.shape[1], v.shape[2]
    k, j, o = np.ogrid[:rows, :a + 1, :width]
    n = np.clip(a + k * step - o, 0, width - 1)
    return (v.transpose(1, 0, 2) * v.take(((a - j) * rows + k) * width + n)
            * ancs[:, :, None])


def reference_channel_block(r, v, w):
    """One unconditioned block on rho by offset, each term added on its own.

    The same per-mode transfer products as ``pathent.blocks._channel_block``,
    with the table from ``reference_transfer_table``, but each ancilla
    term (j, j') is scaled by its weight and added into a zeroed output at
    offset d + j - j' with a transposing write, so the result keeps rho's
    own (s, t) order and modes: ``r[d + k, s, t] = <s, t| rho |s - d, t + d>``.
    """
    k = r.shape[1] - 1
    a = reference_transfer_table(v, k)
    ar = (a @ r.view(float)).view(complex).swapaxes(-1, -2).copy()
    t = (a[::-1, ::-1, ::-1] @ ar.view(float)).view(complex)
    t *= w[:, :, None, None, None]
    out = np.zeros((2 * k + 3, k + 2, k + 2), dtype=complex)
    out_t = out.swapaxes(-1, -2)
    out_t[1:-1] = t[0, 0] + t[1, 1]
    out_t[2:] += t[1, 0]
    out_t[:-2] += t[0, 1]
    return out


def reference_channel_sectors(factors, transmittances=None):
    """The unconditioned chain through ``reference_channel_block``.

    Returns rho's sector blocks as a list, block m read from the by-offset
    array as r[i - j + N, i, m - i] one sector at a time.
    """
    angles, ts = _blocks(factors, transmittances)
    n = len(angles)
    v = reference_splitter_entries(n, *_mixing(ts), 1)
    anc = reference_single_table(angles)
    r = np.ones((1, 1, 1), dtype=complex)
    for k in range(n):
        r = reference_channel_block(r, v[:, k],
                                    np.outer(anc[k], anc[k].conj()))
    i, j = np.ogrid[:n + 1, :n + 1]
    return [r[i[:m + 1] - j[:, :m + 1] + n, i[:m + 1], m - i[:m + 1]]
            for m in range(n + 1)]


def reference_sector_index(n):
    """Flat positions of rho's sector blocks in the stack and in ``r``.

    ``r`` is the last of the n blocks' ``_channel_block`` outputs.  The
    block on sector m has entry [i, j] = <i, m - i| rho |j, m - j>.  rho
    by offset is ``r[::-1]`` after an even number of blocks and
    ``r.swapaxes(1, 2)``, the modes swapped back, after an odd number.
    """
    tri = np.tri(n + 1, dtype=bool)  # [m, i]: i <= m
    m, i, j = np.nonzero(tri[:, :, None] & tri[:, None])
    d, s, t = (i - j + n, m - i, i) if n % 2 else (j - i + n, i, m - i)
    return (m * (n + 1) + i) * (n + 1) + j, (d * (n + 1) + s) * (n + 1) + t


def reference_chain(run_block, block_args):
    """Chain ``run_block(state, *args)`` from vacuum, one whole state per block.

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


def reference_shift(amps, cutoff, shift):
    """The occupation shift n -> n + shift on amplitudes over the simplex.

    Each entry of ``shift`` is 1 (a creation operator), -1 (an annihilation
    operator) or 0.  One gather/scatter over the whole ``len(shift)``-mode
    simplex at ``cutoff``: the amplitude at ket n moves to ket n + shift,
    times the square root of the product of max(n, n + d) over the shifted
    modes, and kets whose image leaves the simplex are dropped.  Amplitudes
    carry the simplex on axis 0 and optionally one state per column.
    """
    occ, table = _basis(len(shift), cutoff)
    new = [n + d for n, d in zip(occ, shift)]
    src = np.flatnonzero((np.min(new, axis=0) >= 0) & (sum(new) <= cutoff))
    dst = table[tuple(n[src] for n in new)]
    w = np.prod([np.maximum(n, m)[src]
                 for n, m, d in zip(occ, new, shift) if d], axis=0)
    out = np.zeros_like(amps)
    out[dst] = (amps[src].T * np.sqrt(w.astype(float))).T
    return out


def reference_lower(amps, cutoff, n_absorb):
    """(a + b)^N on two-mode amplitudes as N whole-simplex shifts."""
    for _ in range(n_absorb):
        amps = (reference_shift(amps, cutoff, (-1, 0))
                + reference_shift(amps, cutoff, (0, -1)))
    return amps


# The long-double reference rounds no finer than the float64 code it checks
# where np.longdouble is float64 itself (Windows, and macOS on arm64).
needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble has no extended precision on this platform")


def reference_fringe(state, n_absorb, n_points):
    """The fringe's rates in np.longdouble, at exactly reduced phases.

    Sample p of P shifts ket |i, m - i> by the angle 2 pi q / P with
    q = ((m - i) p) mod P reduced as an integer, and lowers it by the
    binomial expansion (a + b)^N = sum_s C(N, s) a^s b^{N-s}, each weight
    C(N, s) sqrt(i!/(i-s)! (m-i)!/(m-i-N+s)!) a long-double square root of
    an exact integer.  The amplitudes are the state's float64 ones.
    """
    ld = np.longdouble
    tau = 8 * np.arctan(ld(1))
    p = np.arange(n_points)
    rates = np.zeros(n_points, dtype=ld)
    for m in range(n_absorb, state.cutoff + 1):
        x = state.amps[_sector(m)].astype(np.clongdouble)
        q = np.arange(m, -1, -1)[:, None] * p % n_points
        angle = tau * q.astype(ld) / n_points
        shifted = x[:, None] * (np.cos(angle) + 1j * np.sin(angle))
        lowered = np.zeros((m - n_absorb + 1, n_points), dtype=np.clongdouble)
        for i in range(m + 1):
            for s in range(max(0, n_absorb - (m - i)), min(i, n_absorb) + 1):
                w = (math.comb(n_absorb, s) ** 2 * math.perm(i, s)
                     * math.perm(m - i, n_absorb - s))
                lowered[i - s] += np.sqrt(ld(w)) * shifted[i]
        rates += (lowered.real ** 2 + lowered.imag ** 2).sum(axis=0)
    return rates / math.factorial(n_absorb)


def absorption_rate_dense(cutoff, mat, n_absorb):
    """Tr(rho e†^N e^N) / N! from the dense N-th power of e = a + b.

    The one-step matrix of a + b on the whole two-mode simplex, raised to
    the N-th power, against any dense rho ``mat`` at ``cutoff``: a
    reference that never splits rho into sectors.
    """
    e_1 = reference_lower(np.eye(dim2(cutoff), dtype=complex), cutoff, 1)
    e_n = np.linalg.matrix_power(e_1, n_absorb)
    return float(np.vdot(e_n, e_n @ mat).real) / math.factorial(n_absorb)


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


def reference_monomial_coeffs(target):
    """d_k = c_k sqrt(C(n, k) / C(n, n // 2)), one k at a time.

    Each ratio is one division of the exact integers of ``math.comb``, its
    square root a Python float, and d_k the Python complex product of c_k
    with it.
    """
    n = target.n_photons
    mid = math.comb(n, n // 2)
    return np.array([c * math.sqrt(math.comb(n, k) / mid)
                     for k, c in enumerate(target.coeffs)], dtype=complex)


def reference_leja_order(z):
    """Greedy Leja order of the complex points z, one point at a time.

    Start at the largest modulus, then take the point whose sum of
    log-distances to the points taken is largest; each log is of the
    distance or 1e-300, whichever is larger, rounded to whole units of
    2^-30 as Python ints, so sums are exact and ties go to the lowest
    index: the rule ``factorize._leja_order`` states, in plain loops.
    """
    def units(x):
        return round(math.log(max(x, 1e-300)) * 2 ** 30)

    z = [complex(p) for p in z]
    start = [units(abs(p)) for p in z]
    order = [start.index(max(start))]
    score = [0] * len(z)
    while len(order) < len(z):
        for i, p in enumerate(z):
            score[i] += units(abs(p - z[order[-1]]))
        left = [i for i in range(len(z)) if i not in order]
        order.append(max(left, key=lambda i: (score[i], -i)))
    return order


def _reference_number(x):
    return format(x, ".17g") if math.isfinite(x) else "null"


def reference_render(value, indent=""):
    """JSON text of a report tree, item by item, with no ``%`` templates.

    The layout ``pathent.cli._render`` keeps: a list whose items are all
    scalars on one line; any other list, and every non-empty dict, one item
    per line, two spaces deeper per level.  Floats print with 17
    significant digits, and a non-finite float or complex part as null.
    """
    if isinstance(value, (dict, list, tuple)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = indent + "  "
        if isinstance(value, dict):
            items = [f"{json.dumps(str(k))}: {reference_render(v, inner)}"
                     for k, v in value.items()]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
        items = [reference_render(v, inner) for v in value]
        if not any(isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(items) + "]"
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _reference_number(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return f"[{_reference_number(z.real)}, {_reference_number(z.imag)}]"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_polish_roots(d, z):
    """One Newton step on every root, p and p' from ``polyval`` and
    ``polyder``: the route ``factorize._polish_roots`` replaces."""
    poly = np.polynomial.polynomial
    p = poly.polyval(z, d)
    dp = poly.polyval(z, poly.polyder(d))
    flat = dp == 0
    z_new = z - p / np.where(flat, 1.0, dp)
    better = ~flat & (np.abs(poly.polyval(z_new, d)) < np.abs(p))
    return np.where(better, z_new, z)


def reference_abs_polynomial(d, z):
    """|p(z)| of p(z) = sum_k d_k z^k and its rounding scale
    sum_k |d_k| |z|^k, both by Horner's rule in np.longdouble, whose range
    holds every value the polish tests reach."""
    z = np.asarray(z, dtype=np.clongdouble)
    size = np.abs(z)
    p = np.zeros(z.shape, dtype=np.clongdouble)
    scale = np.zeros(z.shape, dtype=np.longdouble)
    for c in np.asarray(d, dtype=np.clongdouble)[::-1]:
        p = p * z + c
        scale = scale * size + abs(c)
    return np.abs(p), scale
