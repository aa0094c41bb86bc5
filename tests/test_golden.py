"""Byte-exact CLI reports, pinned by the SHA-256 of their stdout.

The N <= 8 hashes were recorded before the mode-generic Fock core replaced
the separate two- and four-mode beam-splitter code, the N = 32 ones before
the heralded blocks moved from the whole four-mode simplex to one photon-
number sector; a refactor of the numerics must leave every printed digit
unchanged.  The one exception is ``oracle_check``, re-recorded when the
dense-``expm`` oracle moved from the whole basis to one exponential per
conserved block: its only changed digits are the printed rounding error of
the splitter-versus-oracle deviation.  They hold for the numpy/scipy
builds the suite runs on (numpy 2.4, scipy 1.17, x86-64); another BLAS or
libm may move the last printed digit and needs the hashes re-recorded.
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
        "c6f6f59ed425e054f137e346c939bbe52b878ba6dbdd3234690c22e38e1e1124"),
    "simulate_noon8_double": (["simulate", "{noon8}", "--double"],
        "3d2a58b69d977846ad3be175bcd06cf49182a69f814478f678fbc83ceeaa2514"),
    "simulate_target6": (["simulate", "{target6}"],
        "6906323906144a0e087b0990e16ebb8505c668a7b4bb998d1ab5b52401fb1df4"),
    "factorize_target6": (["factorize", "{target6}"],
        "d4af038bccdd67a28f743eb3fb17c29872f7054255a3bfe1e871f6554f854f33"),
    "oracle_check": (["oracle-check", "--trials", "5"],
        "e1d971e5417a130d00a3daa7986a2e844edda89f8dc9a6696e65a77f03564b02"),
    "yield_table_8": (["yield-table", "8"],
        "dd89021afc9aaba32506e32a85054c2ac06e9f0d2e5731a71ab5b4ad1051733a"),
    "fringe_4_16": (["fringe", "4", "16"],
        "8cf0644fbd2f2d0d6874c4f14ccf9a3f96646c8996566116bdde42e73cdf35b0"),
    "simulate_noon32": (["simulate", "{noon32}"],
        "d7314268de5f00a60f2e024943ae607212e33985de88b2c1c84c6ab78d736cbb"),
    "simulate_noon32_double": (["simulate", "{noon32}", "--double"],
        "86549831444c43ac2564dcdb2be7c54001f461fb101bdc3a408cb9a60ed11b59"),
    "simulate_target32": (["simulate", "{target32}"],
        "369197a45875451135bcc7960387aaaf2f10f394d72160f7177150a1cc84b5a5"),
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
