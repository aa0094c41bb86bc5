"""Byte-exact CLI reports, pinned by the SHA-256 of their stdout.

A refactor of the numerics must leave every printed digit unchanged.  The
last hashes re-recorded are the four below, when ``monomial_coeffs`` began
to scale each c_k by sqrt(C(N, k) / C(N, N // 2)) instead of dividing it by
sqrt(k! (N - k)!).  The two differ by the constant sqrt(N! / C(N, N // 2)),
so the roots are the same in exact arithmetic, but the ratios -d_k / d_N of
the companion matrix round anew.  A NOON target keeps d_0 / d_N = 1
exactly and is factored in closed form, and the doubled chain,
``yield-table``, ``fringe`` and ``oracle-check`` do not scale a target, so
every other report kept its bytes.  Old -> new, with the largest change of
a printed float (relative over values >= 1e-12, and absolute over every
printed float, both without the self-check's own deviation):

    factorize_target6       4b260a268b88... -> f2067b71e303...
        1.8e-15 relative, 8.9e-16 absolute (a phi); normalization
        unchanged; max_amplitude_deviation 3.38e-16 at [6, 0] -> 2.79e-16
        at [2, 4]
    simulate_real4          44326d7843b3... -> 628e94de25d6...
        1.4e-16 relative, 2.8e-17 absolute (a theta); total_yield and
        max_amplitude_deviation unchanged
    simulate_target32       176573b87b27... -> d986140e6b9d...
        1.2e-14 relative (the small part of a final amplitude), 8.9e-16
        absolute (a phi); total_yield moves by 4.8e-16 (relative),
        max_amplitude_deviation 4.32e-16 at [18, 14] -> 4.72e-16 at [31, 1]
    simulate_target6        e75832566e97... -> f0a71b5e3055...
        2.3e-14 relative (a final amplitude), 8.9e-16 absolute (a phi);
        fidelity_vs_target 0.9999999999999999 -> 1, max_amplitude_deviation
        3.33e-16 at [6, 0] -> 2.99e-16 at [2, 4]

In the same change the factorize report gained ``log10_normalization``
after ``normalization``, which prints null once A leaves the float range;
``apply_factors`` rescales its coefficients only past 98 factors, so no
other byte moved:

    factorize_target6       f2067b71e303... -> 2cfc778c12d3...
        the added line "log10_normalization": 1.3601196305950931 only

Before that, the last hashes re-recorded were the seven below, when
``find_factor_angles`` began to return the finite factors in greedy Leja
order of their roots instead of sorted by (theta, phi);
``noon_factor_angles``, ``simulate``, ``factorize`` and ``yield-table``
take that order.  Every report prints the
same multiset of factors; the chain applies them in the new order, so each
block's probability is that of another factor, and the sums round anew.
Old -> new:

    factorize_target6       20780c6e6ae2... -> 4b260a268b88...
        the factor rows reordered; normalization 22.914987812333763 ->
        22.91498781233377, max_amplitude_deviation 3.34e-16 -> 3.38e-16
    simulate_noon8          01b241a4bf0a... -> d96b77478605...
        factors and block probabilities reordered; total_yield
        1.8775463104248047e-05 -> 1.877546310424805e-05, the two kets'
        amplitudes move by 4.1e-17, max_amplitude_deviation 5.67e-16 ->
        5.71e-16
    simulate_noon32         ff0ad955f3a5... -> e5ccc8ddc488...
        max_amplitude_deviation 9.21e-14 at [13, 19] -> 1.69e-15 at
        [0, 32]: the sorted order's partial products grew and cancelled;
        total_yield moves by 1.9e-15 (relative)
    simulate_real4          a790bea60903... -> 44326d7843b3...
        max_amplitude_deviation 1.11e-16 at [2, 2] -> 8.0e-17 at [3, 1];
        total_yield moves by 3.9e-16 (relative)
    simulate_target6        9459bb5de267... -> e75832566e97...
        fidelity_vs_target 1 -> 0.9999999999999999, max_amplitude_deviation
        3.38e-16 at [1, 5] -> 3.33e-16 at [6, 0]
    simulate_target32       37e2f4ab3408... -> 176573b87b27...
        max_amplitude_deviation 7.01e-16 at [15, 17] -> 4.32e-16 at
        [18, 14]; final amplitudes move by at most 6.9e-16
    yield_table_8           01eab9788413... -> d06218f4e98d...
        the p_single_simulated cells of N = 4 to 8 move, by at most
        7.2e-16 (relative)

The doubled reports, ``fringe_4_16`` and ``oracle_check`` kept their
hashes: the doubled chain pairs its own phases, and neither ``fringe`` nor
``oracle-check`` factors a target.

Before that, the last hashes re-recorded were the three below, when the
root finder's Newton
polish began to evaluate p and p' from blocks of running powers in z, or
in w = 1/z on the reversed polynomial for |z| > 1, instead of Horner's
rule in z (which overflowed past |z|^N ~ 1e308).  Old -> new, with the
largest change of a printed float (relative over values >= 1e-12, and
absolute over every printed float, both without the self-check's own
deviation):

    factorize_target6       c4dd853f2fcf... -> 20780c6e6ae2...
        3.1e-16 relative, 7.1e-15 absolute (normalization); the factor
        thetas move by an ulp, max_amplitude_deviation 2.79e-16 -> 3.34e-16
    simulate_target6        02d46b1400f4... -> 9459bb5de267...
        2.2e-15 relative (a final amplitude), 1.1e-16 absolute (a theta);
        max_amplitude_deviation is the same 3.38e-16, now first reached at
        ket [1, 5] instead of [6, 0]
    simulate_target32       7972c23f956b... -> 37e2f4ab3408...
        2.0e-14 relative, 6.2e-16 absolute (the small part of a final
        amplitude); max_amplitude_deviation 7.62e-16 at [16, 16] ->
        7.01e-16 at [15, 17]

The same change runs each heralded block's sum over the ancilla kets as
``np.add`` into the output buffer and reads the fidelity, the self-check and
the printed kets from the N + 1 coefficients of the final sector, not the
whole simplex.  Those parts left every hash as it was: every NOON, doubled,
``simulate_real4``, ``yield_table_8``, ``fringe_4_16`` and ``oracle_check``
report kept its bytes.

Before that, the last hashes re-recorded were the nine below, when
``oracle-check`` lost its four-mode pair section, with ``--cutoff`` and
``--perturb``, and ``simulate`` and ``factorize`` began to check their own
state: each report gained ``max_amplitude_deviation`` (after phase
alignment), its ``ket``, ``tolerance`` and ``status``.  Old -> new:

    oracle_check            1a3e01574121... -> d99e3d6225d0...
        the fields cutoff and perturb and the pair section gone, kappas
        the four angles of the entries section; the block section draws
        its trials first, so its max_deviation is 5.9285935503344339e-17
        -> 1.6711069443220836e-16, and the entries section is unchanged
    factorize_target6       96c2b2e8b808... -> c4dd853f2fcf...
    simulate_noon32         4263cf0b9fbe... -> ff0ad955f3a5...
    simulate_noon32_double  777eebd0c195... -> d55cf61cbc91...
    simulate_noon8          3b5493764aab... -> 01b241a4bf0a...
    simulate_noon8_double   076672f106fb... -> 2870fa56bf43...
    simulate_real4          c5ee0b0921e7... -> a790bea60903...
    simulate_target32       f5af0b7d120a... -> 7972c23f956b...
    simulate_target6        cda7370abd83... -> 02d46b1400f4...
        the four added lines only, and the comma they put after the
        fidelity line; every other byte is the same

``yield_table_8`` and ``fringe_4_16`` kept their hashes.

Before that, the last hash re-recorded was ``fringe_4_16``'s, when
``fringe_sweep`` began to shift ket n_b at sample p of P by the phasor of
the exactly reduced integer (n_b p) mod P, and to sum each sector as one
product with the cached absorber block, instead of lowering
e^{i n_b phi} of the rounded phase phi = 2 pi p / P and taking one vdot
per sample.  Old -> new:

    fringe_4_16             8cf0644fbd2f... -> d1eb175efe25...
        the rates only, e.g. at phi = 3 pi / 4 6.7489190219783581e-32 ->
        7.4987989133092867e-33; the largest deviation from
        1 + cos(2 pi (4p mod 16) / 16) falls from 2.6e-15 to 2.2e-16

Every other report kept its hash: ``simulate``, ``factorize``,
``yield-table`` and ``oracle-check`` never call ``fringe_sweep``.

Before that, the last hash re-recorded was ``oracle_check``'s, when
``oracle-check`` gained the section
``splitter_entries_vs_sector_exponential``, which compares rows j <= 2 of
the chains' splitter table with the per-sector exponential at cutoffs up
to 64.  Old -> new:

    oracle_check            9011c62ebf78... -> 1a3e01574121...
        a third section appended, max_deviation 6.2554128543723664e-15;
        the other two sections print the same bytes

In the same change the heralded chains and the public blocks began to run
each block as one product of the weights with a shifted view of
zero-padded coefficients and one sum over the ancilla kets, instead of one
multiply-accumulate per live ancilla ket.  That left every ``simulate``
and ``yield-table`` hash unchanged: each output sum starts at +0 and adds
the same products in the same order, and the extra terms, products with a
padding zero or a zero ancilla amplitude, are +-0 and leave it as it is.
``simulate_real4`` was added then, recorded before that step: its report
prints exact-zero imaginary parts.

Before that, the last hash re-recorded was ``oracle_check``'s, when the
two-mode splitter's sector blocks, which the fast pair places in U, began
to come from one eigendecomposition per sector instead of the balanced
recursion.  Old -> new:

    oracle_check            6a08e1d0622a... -> 9011c62ebf78...
        the pair section's max_deviation only, 5.6067808515458017e-16 ->
        5.3287613598538351e-16: the fast pair's last bits move

Every other report kept its hash: ``simulate``, ``factorize``,
``fringe`` and ``yield-table`` never call the two-mode splitter.

Before that, the last hash re-recorded was ``oracle_check``'s, when the
dense-exponential oracle began to pad each generator block with zeros to the next square
from 4 and to stack the blocks of one padded size.  Old -> new:

    oracle_check            d3db97f15956... -> 6a08e1d0622a...
        the pair section's max_deviation only, 5.662749647834299e-16 ->
        5.6067808515458017e-16: padding lengthens each dot product of
        the oracle's matrix-vector products, so the oracle's last bits
        move

Every other report kept its hash: ``simulate``, ``factorize``,
``fringe`` and ``yield-table`` never call the oracle.

Before that, the hashes re-recorded were the five below, when ``overlap_fidelity``
began to clamp its rounded ratio |<x|y>| / (|x| |y|) at 1, as its
docstring had always promised.  Old -> new:

    simulate_noon8          a12e95cfe64e... -> 3b5493764aab...
    simulate_noon8_double   e8a216602169... -> 076672f106fb...
    simulate_noon32         453a28479e22... -> 4263cf0b9fbe...
    simulate_noon32_double  157236ad9478... -> 777eebd0c195...
        fidelity_vs_target only, 1.0000000000000002 -> 1
    factorize_target6       90f02a621a5f... -> 96c2b2e8b808...
        round_trip_fidelity only, 1.0000000000000002 -> 1

Every other report kept its hash: their fidelities already printed at
most 1.  Just before, the heralded chains began to form the weights of
all their blocks before the loop and to run each block as one buffered
step; that left every hash unchanged, since the products, sums and
renormalizations are the same operations on the same values.

Before that, the hashes re-recorded were ``factorize_target6``'s and
``oracle_check``'s, when ``fock._basis`` began to order kets by total
photon number, then lexicographically, so that every photon-number sector
is one contiguous slice.  Old -> new:

    factorize_target6       c5ea003749c7... -> 90f02a621a5f...
        global_phase only, 0.50188993193174014 -> 0.50188993193174003:
        the target/product overlap is a vdot over the whole simplex, and
        it now sums the same products in another order
    oracle_check            34bedbdcc1de... -> d3db97f15956...
        the pair section's max_deviation only, 7.5719835211394908e-16 ->
        5.662749647834299e-16: ``_random_four_mode_state`` fills the
        amplitudes in basis order, so every trial draws another state

Every other report kept its hash.  Single-sector states list their kets in
the same order, n_a ascending, and the sector slices apply the same
operations to the same values as the gathers they replace.

Before that, the last hash re-recorded was ``oracle_check``'s, when the
public two-mode splitter ``fock._mix`` began to apply its photon-number-sector blocks from
a balanced recursion instead of the factored series
e^{-K a b†} cos(kappa)^{n_a - n_b} e^{K a† b}.  Old -> new:

    oracle_check            9b54d0aa3c07... -> 34bedbdcc1de...
        the pair section's max_deviation only, the fast pair splitter
        against the dense exponential: 1.1872455580504653e-15 ->
        7.5719835211394908e-16

Every other report kept its hash: ``simulate``, ``factorize``, ``fringe``
and ``yield-table`` never call the two-mode splitter.

Before that, the hashes were re-recorded when ``find_factor_angles`` began
to factor two-term polynomials d_lo z^lo + d_m z^m in closed form, so that
``simulate`` on a NOON file applies the factor list of
``noon_factor_angles``, the one ``yield-table`` runs, instead of the roots
of an N x N companion matrix after one Newton step.  Old -> new, with the
largest change of a printed float (relative over values >= 1e-12, and
absolute over every printed float):

    simulate_noon8          cb8ff7629942... -> a12e95cfe64e...
        1.1e-15 relative, 4.4e-16 absolute (a factor phi); elsewhere
        5.4e-16 relative (total_yield), 2.2e-16 absolute
    simulate_noon32         75cc50fc7a41... -> 453a28479e22...
        4.5e-15 relative, 1.3e-15 absolute (a factor phi); elsewhere
        1.3e-15 relative (a block probability), 4.0e-16 absolute

The closed form gives theta = pi/4 and phi = _wrap_angle((2k + 1) pi / N),
the floats ``noon_factor_angles`` always gave; the root finder's phases
were a few ulps off.  Every other report kept its hash: ``yield_table_8``
runs ``noon_factor_angles``, which gives the same list bit for bit as
before, and the generic targets have more than two nonzero coefficients
and still go through the root finder.

Before that, the hashes were re-recorded when the heralded chains began
to keep their state as the coefficients of one photon-number sector and
to take each block probability as the squared norm of that vector,
summed over its N + 1 entries instead of over the whole two-mode
simplex.  Old -> new, with the largest change of a printed float
(relative over values >= 1e-12, and absolute over every printed float):

    simulate_noon8          52961eed4264... -> cb8ff7629942...
        1.8e-16 relative (total_yield), 5.6e-17 absolute
    simulate_noon32         05251122f53f... -> 75cc50fc7a41...
        7.0e-16 relative (a block probability), 2.2e-16 absolute
    simulate_noon32_double  7fd3fae75d0e... -> 157236ad9478...
        4.2e-16 relative (a block probability), 2.2e-16 absolute
    simulate_target32       96c8eaada93d... -> f5af0b7d120a...
        1.2e-14 relative (the small part of a final amplitude),
        5.3e-16 absolute
    yield_table_8           f584459191f3... -> 01eab9788413...
        p_single_simulated only; 3.6e-16 relative, 1.4e-20 absolute

The summation order of the norm is the only cause: the splitter entries,
the products and the renormalization are the same operations on the same
values.  ``simulate_noon8_double``, ``simulate_target6``,
``factorize_target6``, ``oracle_check`` and ``fringe_4_16`` kept their
hashes; ``oracle_check`` runs the public blocks, which stay bit for bit.

Before that, the hashes moved when the heralded blocks began to take their
ancillas from the closed forms cos(theta)|1,0> - e^{i phi} sin(theta)|0,1>
and (|2,0> - e^{2i phi}|0,2>)/sqrt(2), instead of running the series
splitter, and the root finder began to polish all roots in one vectorized
Newton step (numbers below 1e-14, which are zero in exact arithmetic,
count only absolutely):

    simulate_noon8_double   cebb48269ad2... -> e8a216602169...
        ancilla_double; 9.0e-16 relative, 3.3e-16 absolute
    simulate_noon32_double  f10818874fdd... -> 7fd3fae75d0e...
        ancilla_double; 3.1e-15 relative (total_yield), 8.9e-16 absolute
    simulate_target6        97d38dd034aa... -> cda7370abd83...
        ancilla_single and the polish; 9.7e-15 relative, 1.7e-16 absolute
    simulate_target32       884d5e7244b6... -> 96c8eaada93d...
        ancilla_single and the polish; 2.0e-14 relative, 6.5e-16 absolute
    factorize_target6       d4af038bccdd... -> c5ea003749c7...
        the polish; 2.2e-16 relative and absolute
    yield_table_8           1b1b6319f406... -> f584459191f3...
        ancilla_double, p_double_simulated only; 1.1e-15 relative

The two-photon ancilla holds sqrt(0.5), correctly rounded, in both kets,
so its squared norm is 1 + 2.2e-16; the series splitter had rounded one
down.  Each doubled block's probability reads about that much higher.
The NOON single-photon reports, ``fringe`` and ``oracle_check`` kept their
hashes then: at theta = pi/4 the closed-form ancilla equals the series
one bit for bit, and the vectorized polish gave the root finder's NOON
factors bit for bit as the per-root polish had.

The hashes hold for the numpy build the suite runs on (numpy 2.4,
x86-64); the CLI does not use scipy.  Another BLAS, LAPACK or libm may
move the last printed digit and needs the hashes re-recorded.
"""

import hashlib
import json
import math

import pytest

from pathent import cli

# A fixed, generic six-photon target (no symmetry, no repeated roots).
TARGET6 = [[0.248241, 0.122856], [0.39616, 0.436783], [0.276679, 0.181162],
           [-0.234807, 0.15436], [-0.336053, -0.176452], [0.016213, -0.267268],
           [0.207825, 0.358155]]


# A fixed, generic 32-photon target with exact decimal entries; simulate
# re-normalizes it (norm 2.835...).
TARGET32 = [[((7 * k) % 11 - 5) / 10, ((5 * k) % 13 - 6) / 10]
            for k in range(33)]


# A real four-photon target with two trailing zeros; simulate re-normalizes
# it (norm sqrt(14)) and prints exact-zero imaginary parts.
REAL4 = [[1, 0], [-3, 0], [2, 0], [0, 0], [0, 0]]


def _noon(n):
    coeffs = [[0.0, 0.0] for _ in range(n + 1)]
    coeffs[0][0] = coeffs[n][0] = 1.0 / math.sqrt(2.0)
    return coeffs


GOLDEN = {
    "simulate_noon8": (["simulate", "{noon8}"],
        "d96b77478605b2aa7b494b9a4d48e117f79b6e49d47893ed677f77872400e160"),
    "simulate_noon8_double": (["simulate", "{noon8}", "--double"],
        "2870fa56bf430b777e343e1be4b2eb2fd79d254eb4e673a73b94e2940406c79a"),
    "simulate_target6": (["simulate", "{target6}"],
        "f0a71b5e30556ef681c18a8c614e60f2f0de8ab59a9ee7a83a1fdec08d2c8922"),
    "factorize_target6": (["factorize", "{target6}"],
        "2cfc778c12d38a3e9261898b8ef2e40dbf146278c7d19551f7e969694ab69a9d"),
    "oracle_check": (["oracle-check", "--trials", "5"],
        "d99e3d6225d0505a7c6fc8edb201f6df5f0daf8982b9748b142d267e6afd5c87"),
    "yield_table_8": (["yield-table", "8"],
        "d06218f4e98dfd3bff72984eb6727efe3f18745437ba4754c04713d44c8e5352"),
    "fringe_4_16": (["fringe", "4", "16"],
        "d1eb175efe25eb2109b1ca919f9b3f5541685620881ec71cd2f9c715f1a51f54"),
    "simulate_noon32": (["simulate", "{noon32}"],
        "e5ccc8ddc488c652cfa668c722e432cb93c81b1c8764e560ce021bd3078685d6"),
    "simulate_noon32_double": (["simulate", "{noon32}", "--double"],
        "d55cf61cbc91676f0e00337f5e101e4e0bae41e76ee582f1a8cbe8c952e61a36"),
    "simulate_target32": (["simulate", "{target32}"],
        "d986140e6b9df611b70755d87910593b2fd4a7942a4406f2566ea3330ae87fdc"),
    "simulate_real4": (["simulate", "{real4}"],
        "628e94de25d6509cd51521f5d40aa849c612db07e3a0eb612407d85ccc4178c3"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_stdout_is_byte_identical(name, tmp_path, capsys):
    files = {}
    for key, coeffs in (("noon8", _noon(8)), ("target6", TARGET6),
                        ("noon32", _noon(32)), ("target32", TARGET32),
                        ("real4", REAL4)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"N": len(coeffs) - 1, "coeffs": coeffs}))
        files[key] = str(path)
    argv, expected = GOLDEN[name]
    assert cli.main([a.format(**files) for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected
