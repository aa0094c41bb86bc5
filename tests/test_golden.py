"""Byte-exact CLI reports, pinned by the SHA-256 of their stdout.

A refactor of the numerics must leave every printed digit unchanged.  The
hashes were last re-recorded when the heralded blocks and the Kraus
channel stopped running the series splitter and began reading their
splitter entries from the closed form c^o (-s)^n sqrt(C(m, n)) of
U|m, 0>, raised to j <= 2 b-photons by s a† + c b†, with c = sqrt(1 - T)
and s = sqrt(T).  Old -> new:

    simulate_noon8          d4b2cabdf36e... -> 52961eed4264...
    simulate_noon8_double   02bc4ec234bf... -> cebb48269ad2...
    simulate_target6        76c35a2373cd... -> 97d38dd034aa...
    simulate_noon32         86f87f4ffde3... -> 05251122f53f...
    simulate_noon32_double  ee889dd09460... -> f10818874fdd...
    simulate_target32       bc45f9e1751e... -> 884d5e7244b6...
    yield_table_8           1e8ab3e036c9... -> 1b1b6319f406...

Yields, block probabilities and fidelities moved by at most 5.8e-15
relative (``simulate_target32``); the simulated columns of
``yield_table_8`` by at most 2.4e-15, and its closed-form columns kept
their bits.  Final-state amplitudes moved by at most 1.1e-15 absolute,
which is 2.3e-14 relative on a 0.016 component of ``simulate_target32``;
that report's largest amplitude error against the exact target went from
1.5e-15 to 6.9e-16.  Components that are zero in exact arithmetic
(|x| < 2e-15) moved within that noise.  ``factorize``, ``fringe`` and
``oracle_check`` never run the heralded blocks and kept their hashes.
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
        "52961eed4264b09c052a4fd43ae8694528a2fffadb0e4888ab0387d3548b28c2"),
    "simulate_noon8_double": (["simulate", "{noon8}", "--double"],
        "cebb48269ad279ec25648e32a3b181a8f0253dc94d68945842179c77ffe77056"),
    "simulate_target6": (["simulate", "{target6}"],
        "97d38dd034aa720a43cb4b19f7089c7b639548491828e418188102bd9797c775"),
    "factorize_target6": (["factorize", "{target6}"],
        "d4af038bccdd67a28f743eb3fb17c29872f7054255a3bfe1e871f6554f854f33"),
    "oracle_check": (["oracle-check", "--trials", "5"],
        "9b54d0aa3c07363bdbf1e6440a793fb3b8983940b52e319d4cf5175ae0b0a897"),
    "yield_table_8": (["yield-table", "8"],
        "1b1b6319f406dfb943ce0604545969d5f7b982296e37899726ea94ed7e57ca1d"),
    "fringe_4_16": (["fringe", "4", "16"],
        "8cf0644fbd2f2d0d6874c4f14ccf9a3f96646c8996566116bdde42e73cdf35b0"),
    "simulate_noon32": (["simulate", "{noon32}"],
        "05251122f53f73973f74a9155a76c6d2376d9e1aa104db3186843f54697df58e"),
    "simulate_noon32_double": (["simulate", "{noon32}", "--double"],
        "f10818874fddd2d019fd9db71ccc52d05abb99ad842a4f28b6659f03d338db4e"),
    "simulate_target32": (["simulate", "{target32}"],
        "884d5e7244b6f4e40cc901680e38afdd5b489b6796fc93e512510b42bbd4efa7"),
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
