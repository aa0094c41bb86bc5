"""Byte-exact CLI reports, pinned by the SHA-256 of their stdout.

A refactor of the numerics must leave every printed digit unchanged.  The
hashes were last re-recorded when every splitter pair became two two-mode
splitters (U X U^T, and the heralded blocks read a few entries of U): the
order of each sum changed, and the printed floats of the moved reports
differ from the four-mode series route by at most 1.8e-15.  ``factorize``
and ``fringe`` never run the splitter and kept their hashes.  Since then
only ``oracle_check`` moved, when the oracle began exponentiating each
block from its eigendecomposition instead of scipy's ``expm``: its
printed ``max_deviation`` went from 1.2459481545701319e-15 to
1.1872455580504653e-15.  The hashes hold for the numpy build the suite
runs on (numpy 2.4, x86-64); the CLI does not use scipy.  Another BLAS,
LAPACK or libm may move the last printed digit and needs the hashes
re-recorded.
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
        "d4b2cabdf36e52e1ae00ef91e431a18c2c562d2d7291e5e171d23412a3258cf6"),
    "simulate_noon8_double": (["simulate", "{noon8}", "--double"],
        "02bc4ec234bfcabf3fe8f5755bec7b47a2818e762550bc6a7701b781af4e74e3"),
    "simulate_target6": (["simulate", "{target6}"],
        "76c35a2373cdfe8dc342054936a5c483dcd2fc8bd9adc1f2c3dba81615dad0ea"),
    "factorize_target6": (["factorize", "{target6}"],
        "d4af038bccdd67a28f743eb3fb17c29872f7054255a3bfe1e871f6554f854f33"),
    "oracle_check": (["oracle-check", "--trials", "5"],
        "9b54d0aa3c07363bdbf1e6440a793fb3b8983940b52e319d4cf5175ae0b0a897"),
    "yield_table_8": (["yield-table", "8"],
        "1e8ab3e036c960ba0b99e2acec49b22d9f4fd5a2975f409c371d6e2c991a45d4"),
    "fringe_4_16": (["fringe", "4", "16"],
        "8cf0644fbd2f2d0d6874c4f14ccf9a3f96646c8996566116bdde42e73cdf35b0"),
    "simulate_noon32": (["simulate", "{noon32}"],
        "86f87f4ffde3217a644a0543f8a5e7fd011dff98ab69089b584604d121650c97"),
    "simulate_noon32_double": (["simulate", "{noon32}", "--double"],
        "ee889dd09460a44dd46ee7d0c06e5cdc3b8f8fd1c4c3df7d8922022e0faaddc9"),
    "simulate_target32": (["simulate", "{target32}"],
        "bc45f9e1751ea1477b9b7586bb389f0f24b148e4f84140ec6b21560f2b887bd5"),
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
