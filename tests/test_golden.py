"""Byte-exact CLI reports, pinned by the SHA-256 of their stdout.

A refactor of the numerics must leave every printed digit unchanged.  The
last hash re-recorded is ``oracle_check``'s, when the dense-exponential
oracle began to pad each generator block with zeros to the next square
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


def _noon(n):
    coeffs = [[0.0, 0.0] for _ in range(n + 1)]
    coeffs[0][0] = coeffs[n][0] = 1.0 / math.sqrt(2.0)
    return coeffs


GOLDEN = {
    "simulate_noon8": (["simulate", "{noon8}"],
        "3b5493764aabac3cf08a2747585423cb7a7fdb68fac0856e3b7bfd69c5a1a04f"),
    "simulate_noon8_double": (["simulate", "{noon8}", "--double"],
        "076672f106fbcfdc4ee1bd23bbd2b6f28597611f5dc4ab43c1887b6620122d80"),
    "simulate_target6": (["simulate", "{target6}"],
        "cda7370abd83ced7e465403bc35952f79538a77040d3beb56cb796905bf70374"),
    "factorize_target6": (["factorize", "{target6}"],
        "96c2b2e8b8086f487fb713c6aeb39b8794260e4e115f2020081410ffed068198"),
    "oracle_check": (["oracle-check", "--trials", "5"],
        "6a08e1d0622a32a14ecbceea2c32f739d8610c28ac5e58c3bbd79d9bc45e6344"),
    "yield_table_8": (["yield-table", "8"],
        "01eab9788413d9853001ae96b7f8f7c054ffec9c60dd3a57c2ac7a07d7e9c8fe"),
    "fringe_4_16": (["fringe", "4", "16"],
        "8cf0644fbd2f2d0d6874c4f14ccf9a3f96646c8996566116bdde42e73cdf35b0"),
    "simulate_noon32": (["simulate", "{noon32}"],
        "4263cf0b9fbe51b6afb1b11da03e47f21b14c360e397a09f6a0eda325d71e55e"),
    "simulate_noon32_double": (["simulate", "{noon32}", "--double"],
        "777eebd0c195feb15c926dc1bdafba4918127ca2a9efbcc284220267b2689de1"),
    "simulate_target32": (["simulate", "{target32}"],
        "f5af0b7d120ab117c80a6308df188ebfc3ea6dc2c8fb88a2b8b7924a01e70323"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_stdout_is_byte_identical(name, tmp_path, capsys):
    files = {}
    for key, coeffs in (("noon8", _noon(8)), ("target6", TARGET6),
                        ("noon32", _noon(32)), ("target32", TARGET32)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"N": len(coeffs) - 1, "coeffs": coeffs}))
        files[key] = str(path)
    argv, expected = GOLDEN[name]
    assert cli.main([a.format(**files) for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected
