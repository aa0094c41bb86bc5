"""End-to-end checks of the command-line front end via cli.main()."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pathent import cli
from pathent.blocks import BlockOutcome, run_scheme
from pathent.factorize import (FactorSet, TargetSpec, factorize_target,
                               monomial_coeffs, noon_factor_angles,
                               noon_target, reconstruct)
from pathent.fock import TwoModeState, _fidelity, _ket_index, _sector
from pathent.yields import yield_generic, yield_noon_double_linear
from helpers import reference_render

SQ2 = 1.0 / math.sqrt(2.0)


def write_target(tmp_path, n, coeffs, name="target.json"):
    path = tmp_path / name
    payload = {"N": n, "coeffs": [[z.real, z.imag] for z in map(complex, coeffs)]}
    path.write_text(json.dumps(payload))
    return str(path)


def noon_file(tmp_path, n):
    coeffs = [0.0] * (n + 1)
    coeffs[0] = SQ2
    coeffs[n] = SQ2
    return write_target(tmp_path, n, coeffs)


def binomial_file(tmp_path, n):
    """(a† + b†)^n on vacuum, normalized: c_k = sqrt(C(n, k)) / 2^(n/2),
    each correctly rounded; its polynomial has one root of multiplicity n."""
    return write_target(tmp_path, n, [math.sqrt(math.comb(n, k)) / 2 ** (n / 2)
                                      for k in range(n + 1)])


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize("value,text", [
    (math.nan, "null"),
    (-math.inf, "null"),
    ([math.inf, np.float64(math.nan)], "[null, null]"),
    (np.float64(0.1), "0.10000000000000001"),
    (np.float32(0.1), "0.10000000149011612"),
    (-0.0, "-0"),
    (np.int64(-3), "-3"),
    (np.uint8(7), "7"),
    (2 ** 70, "1180591620717411303424"),
    (np.complex128(1 - 2j), "[1, -2]"),
    (np.complex64(0.5j), "[0, 0.5]"),
    (complex(0.1, -0.0), "[0.10000000000000001, -0]"),
    (None, "null"),
    ([True, False, None], "[true, false, null]"),
    ('q"\u00e9', '"q\\"\\u00e9"'),
    ([], "[]"),
    ({}, "{}"),
    ((1, 2.5), "[1, 2.5]"),
    ([[], {}], "[\n  [],\n  {}\n]"),
    ({"a": [1, [2]], "b": {"c": []}},
     '{\n  "a": [\n    1,\n    [2]\n  ],\n  "b": {\n    "c": []\n  }\n}'),
    # Lists of dicts: where the dicts share their keys, in order, _fields
    # writes them from one row template with a field per key column; every
    # text below is what the rules above give row by row.
    ([{"x": 1.5, "y": -0.0}, {"x": math.nan, "y": math.inf},
      {"x": -math.inf, "y": 0.25}],
     '[\n  {\n    "x": 1.5,\n    "y": -0\n  },\n  {\n    "x": null,\n'
     '    "y": null\n  },\n  {\n    "x": null,\n    "y": 0.25\n  }\n]'),
    ([{"z": complex(1, -0.0)}, {"z": complex(math.inf, 1)}],
     '[\n  {\n    "z": [1, -0]\n  },\n  {\n    "z": [null, 1]\n  }\n]'),
    ([{"ok": True, "v": np.float64(0.5), "n": 2 ** 70},
      {"ok": False, "v": np.int64(-1), "n": 3}],
     '[\n  {\n    "ok": true,\n    "v": 0.5,\n    "n": 1180591620717411303424'
     '\n  },\n  {\n    "ok": false,\n    "v": -1,\n    "n": 3\n  }\n]'),
    ([{"a": 1, "b": 2}, {"b": 3, "a": 4}],
     '[\n  {\n    "a": 1,\n    "b": 2\n  },\n  {\n    "b": 3,\n    "a": 4\n  }\n]'),
    ([{"a": 1}, {"a": 2, "b": 3}],
     '[\n  {\n    "a": 1\n  },\n  {\n    "a": 2,\n    "b": 3\n  }\n]'),
    ([{"a": 1, "b": 2.5}, {"a": 1.5, "b": None}],
     '[\n  {\n    "a": 1,\n    "b": 2.5\n  },\n  {\n    "a": 1.5,\n'
     '    "b": null\n  }\n]'),
    ([{"a": 1j, "b": "s"}, {"a": 2, "b": "t"}],
     '[\n  {\n    "a": [0, 1],\n    "b": "s"\n  },\n  {\n    "a": 2,\n'
     '    "b": "t"\n  }\n]'),
    ([{"theta": 0.1, "phi": -0.0}],
     '[\n  {\n    "theta": 0.10000000000000001,\n    "phi": -0\n  }\n]'),
    ([{"ket": [0, 2], "amp": 0.5j, "sub": [{"k": 1}]},
      {"ket": [2, 0], "amp": complex(0.5, -0.0), "sub": [{"k": 2}]}],
     '[\n  {\n    "ket": [0, 2],\n    "amp": [0, 0.5],\n    "sub": [\n'
     '      {\n        "k": 1\n      }\n    ]\n  },\n  {\n    "ket": [2, 0],\n'
     '    "amp": [0.5, -0],\n    "sub": [\n      {\n        "k": 2\n      }\n'
     '    ]\n  }\n]'),
    ([{"m": [[1, 2]], "e": [], "d": {}}, {"m": [[3, 4]], "e": [], "d": {}}],
     '[\n  {\n    "m": [\n      [1, 2]\n    ],\n    "e": [],\n    "d": {}\n'
     '  },\n  {\n    "m": [\n      [3, 4]\n    ],\n    "e": [],\n    "d": {}\n'
     '  }\n]'),
    ([{"ket": [0, 2]}, {"ket": [1, 1, 0]}],
     '[\n  {\n    "ket": [0, 2]\n  },\n  {\n    "ket": [1, 1, 0]\n  }\n]'),
    ([{"ket": [0, True]}, {"ket": [1, False]}],
     '[\n  {\n    "ket": [0, true]\n  },\n  {\n    "ket": [1, false]\n  }\n]'),
    ([{"%d": 1, "b%": 2.0}, {"%d": 3, "b%": 4.0}],
     '[\n  {\n    "%d": 1,\n    "b%": 2\n  },\n  {\n    "%d": 3,\n'
     '    "b%": 4\n  }\n]'),
    ([{}, {}], '[\n  {},\n  {}\n]'),
    ([[{"a": 1}, {"a": 2}], {"b": [{"c": 1.0}, {"c": 2.0}]}],
     '[\n  [\n    {\n      "a": 1\n    },\n    {\n      "a": 2\n    }\n  ],\n'
     '  {\n    "b": [\n      {\n        "c": 1\n      },\n      {\n'
     '        "c": 2\n      }\n    ]\n  }\n]'),
    # A non-finite part of a complex number prints null, as a float does.
    (complex(math.nan, -0.0), "[null, -0]"),
    ([complex(-0.0, math.nan), complex(math.inf, -0.0), 0.5j],
     "[[-0, null], [null, -0], [0, 0.5]]"),
])
def test_render_pins_its_edge_cases(value, text):
    assert cli._render(value) == text


@pytest.mark.parametrize("top", [0x7EF, 0x7FF])
def test_render_writes_every_float_of_a_row_as_f_does(top):
    # The %.17g fields of _fields against _f, value by value, on floats
    # drawn from every exponent below 2^(top - 1023): subnormals, huge
    # values, -0.0.  Below top = 0x7EF no column sum overflows, so every
    # column takes a %.17g field; up to the largest float some take %s.
    rng = np.random.default_rng(top)
    bits = rng.integers(0, top << 52, 600, dtype=np.int64)
    signs = rng.integers(0, 2, 600, dtype=np.int64) << 63
    xs = (bits | signs).view(float).tolist() + [-0.0, 5e-324, 0.1]
    rows = [{"x": x, "z": complex(x, -y)} for x, y in zip(xs, xs[::-1])]
    want = ",\n".join(
        f'  {{\n    "x": {cli._f(r["x"])},\n    "z": [{cli._f(r["z"].real)}, '
        f'{cli._f(r["z"].imag)}]\n  }}' for r in rows)
    assert cli._render(rows) == "[\n" + want + "\n]"
    assert cli._render(xs) == "[" + ", ".join(map(cli._f, xs)) + "]"


@pytest.mark.parametrize("value", [object(), np.bool_(True),
                                   [1, np.bool_(False)], {"a": object()},
                                   [{"a": 1}, {"a": object()}]])
def test_render_rejects_what_json_cannot_hold(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._render(value)


_TREE_KEYS = ["a", "b", "theta", "%d", "k%s%", "\u03c8\u00e9"]
_TREE_STRINGS = ["", "%", "%d", "100%s", "%%", "\u00e9", "\u03c8\u2192\u03c6",
                 'q"\\', "\u2028", "a\nb"]
_TREE_FLOATS = [-0.0, 0.0, 0.1, 5e-324, 2.2250738585072014e-308 / 3,
                1.7976931348623157e308, -1e300, 1e-300, math.inf, -math.inf,
                math.nan]
_TREE_KINDS = ("int", "float", "complex", "numpy", "bool", "none", "str")


def _tree_float(rng):
    if rng.random() < 0.5:
        return _TREE_FLOATS[rng.integers(len(_TREE_FLOATS))]
    if rng.random() < 0.5:  # any exponent, subnormals included
        return float(np.int64(rng.integers(0, 0x7FF << 52)).view(float))
    return float(rng.standard_normal())


def _tree_scalar(rng, kind):
    if kind == "int":
        return [0, -7, 2 ** 70, -(2 ** 63), int(rng.integers(-999, 999))][
            rng.integers(5)]
    if kind == "float":
        return _tree_float(rng)
    if kind == "complex":
        return complex(_tree_float(rng), _tree_float(rng))
    if kind == "numpy":
        x = float(rng.standard_normal())
        return [np.float64(_tree_float(rng)), np.float32(x), np.int64(-5),
                np.uint8(200), np.complex128(complex(x, _tree_float(rng))),
                np.complex64(complex(x, -0.0))][rng.integers(6)]
    if kind == "bool":
        return bool(rng.integers(2))
    if kind == "none":
        return None
    return _TREE_STRINGS[rng.integers(len(_TREE_STRINGS))]


def _tree_keys(rng):
    return [_TREE_KEYS[i] for i in
            rng.permutation(len(_TREE_KEYS))[:rng.integers(0, 4)]]


def _tree_column(rng, n, depth):
    """n report values of one shape, with now and then one that differs."""
    mode = rng.integers(5) if depth < 4 else rng.integers(2)
    if mode == 0:  # scalars of one kind
        kind = _TREE_KINDS[rng.integers(len(_TREE_KINDS))]
        return [_tree_scalar(rng, kind) for _ in range(n)]
    if mode == 1:  # scalars of any kind
        return [_tree_scalar(rng, _TREE_KINDS[rng.integers(len(_TREE_KINDS))])
                for _ in range(n)]
    if mode == 2:  # dicts with shared keys, one of them reordered or not
        keys = _tree_keys(rng)
        columns = [_tree_column(rng, n, depth + 1) for _ in keys]
        rows = [dict(zip(keys, values)) for values in zip(*columns)] \
            if keys else [{} for _ in range(n)]
        if n and rng.random() < 0.3:
            row = rows[rng.integers(n)]
            items = list(row.items())
            if rng.random() < 0.5:
                items = items[::-1]
            else:
                items = items[1:] + [("extra", 1)]
            row.clear()
            row.update(items)
        return rows
    if mode == 3:  # lists of one length, one of them longer or not
        columns = [_tree_column(rng, n, depth + 1)
                   for _ in range(rng.integers(0, 4))]
        lists = [list(values) for values in zip(*columns)] \
            if columns else [[] for _ in range(n)]
        if n and rng.random() < 0.3:
            lists[rng.integers(n)].append(0.5)
        return lists
    return [_random_tree(rng, depth + 1) for _ in range(n)]


def _random_tree(rng, depth=0):
    if depth >= 4 or rng.random() < 0.2:
        return _tree_scalar(rng, _TREE_KINDS[rng.integers(len(_TREE_KINDS))])
    if rng.random() < 0.3:
        return {k: _random_tree(rng, depth + 1) for k in _tree_keys(rng)}
    return _tree_column(rng, int(rng.integers(0, 6)), depth + 1)


def _plain(value):
    """``value`` as json.loads gives it back; ValueError for a non-finite
    number, which JSON cannot hold."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [_plain(value.real), _plain(value.imag)]
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"{value} is not finite")
        return float(value)
    return int(value) if isinstance(value, np.integer) else value


def _reject(constant):
    raise AssertionError(f"{constant} is not JSON")


def test_render_matches_the_item_by_item_reference_on_random_trees():
    # Random report trees, nested up to depth 4, written by the column
    # writer and by the item-by-item rules; trees of finite numbers must
    # also come back from a strict json.loads.
    rng = np.random.default_rng(2022)
    finite = 0
    for _ in range(2000):
        tree = _random_tree(rng)
        text = cli._render(tree)
        assert text == reference_render(tree)
        try:
            want = _plain(tree)
        except ValueError:
            continue
        finite += 1
        assert json.loads(text, parse_constant=_reject) == want
    assert finite > 500


def test_factorize_noon4(tmp_path, capsys):
    code, report = run_json(capsys, ["factorize", noon_file(tmp_path, 4)])
    assert code == 0
    assert report["command"] == "factorize"
    assert report["target"]["N"] == 4
    assert len(report["factors"]) == 4
    for f in report["factors"]:
        assert f["theta"] == pytest.approx(math.pi / 4.0, abs=1e-9)
    np.testing.assert_allclose(report["normalization"], 3.0, rtol=1e-9)
    assert report["round_trip_fidelity"] >= 1.0 - 1e-9


def test_factorize_single_mode_target(tmp_path, capsys):
    # |2,0>: both photons in mode a, factored by two theta=0 creations
    path = write_target(tmp_path, 2, [0.0, 0.0, 1.0])
    code, report = run_json(capsys, ["factorize", path])
    assert code == 0
    thetas = sorted(f["theta"] for f in report["factors"])
    np.testing.assert_allclose(thetas, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(report["normalization"], 2.0, rtol=1e-9)
    phase = complex(*report["global_phase"])
    np.testing.assert_allclose(abs(phase), 1.0, rtol=1e-12)


@pytest.mark.parametrize(
    "payload,needle",
    [
        ('{"coeffs": [[1, 0], [0, 0]]}', "'N'"),
        ('{"N": "2", "coeffs": [[1, 0], [0, 0], [0, 0]]}', "'N'"),
        ('{"N": 2}', "'coeffs'"),
        ('{"N": 2, "coeffs": 5}', "'coeffs'"),
        ('{"N": 2, "coeffs": [[1, 0], [0, 0]]}', "3 entries"),
        ('{"N": 1, "coeffs": [[1, 0], [0]]}', "coeffs[1]"),
        ('{"N": 1, "coeffs": [[1, 0], ["x", 0]]}', "coeffs[1]"),
        ('{"N": 1, "coeffs": [[0, 0], [0, 0]]}', "all zeros"),
        ('{"N": 1, "coeffs": [[1, 0], [NaN, 0]]}', "'coeffs[1]' must be finite"),
        ('{"N": 1, "coeffs": [[1, -Infinity], [0, 0]]}',
         "'coeffs[0]' must be finite"),
        ('{"N": 1, "coeffs": [[1, 0], [1e400, 0]]}', "'coeffs[1]' must be finite"),
        ("not json at all", "not valid JSON"),
        ("[1, 2, 3]", "JSON object"),
    ],
)
def test_malformed_target_files(tmp_path, capsys, payload, needle):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code = cli.main(["factorize", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert needle in err


# JSON tokens a pair may hold.  Finite: signed zeros, subnormal and huge
# floats, and ints past 2^53, 2^70 and 2^1023, the last one just below the
# float range's rounding boundary.  Rejected: tokens json.loads reads as inf
# or NaN, ints that round past the float range (the first one rounds half
# to even onto 2^1024), and every non-number.
_FINITE_TOKENS = ["0", "-0", "1", "-7", "3.5", "-0.0", "0.1", "1e-320",
                  "-2.5e-310", "1.7976931348623157e308", str(2 ** 53 + 1),
                  str(2 ** 70 + 1), str(2 ** 1023),
                  str(-(2 ** 1024 - 2 ** 970 - 1))]
_BAD_TOKENS = ["1e309", "-1e400", "NaN", "Infinity", "-Infinity",
               str(2 ** 1024 - 2 ** 970), str(2 ** 1024 - 1), str(2 ** 1024),
               str(-(2 ** 1024)), str(3 ** 700), "true", "false", "null",
               '"1"', '"x%"', "[]", "{}", "[1, 2]", '{"re": 1}']


def _coeffs_text(rng):
    """A JSON list of 2..5 entries, mostly [re, im] pairs of finite numbers."""
    def token():
        return str(rng.choice(_FINITE_TOKENS if rng.random() < 0.96
                              else _BAD_TOKENS))

    def entry():
        if rng.random() < 0.03:
            return token()
        size = 2 if rng.random() < 0.93 else int(rng.choice([0, 1, 3]))
        return "[" + ", ".join(token() for _ in range(size)) + "]"

    return "[" + ", ".join(entry() for _ in range(rng.integers(2, 6))) + "]"


def test_target_pair_parsers_agree():
    # _load_target reads the coefficients with _parse_pairs and, when that
    # returns None, names the first bad entry with _check_pairs.  On every
    # input exactly one of them rejects it, and the fast path's values are
    # each entry's complex(re, im) bit for bit.
    rng = np.random.default_rng(2024)
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(3000):
        text = _coeffs_text(rng)
        raw = json.loads(text)
        vec = cli._parse_pairs(raw)
        if vec is None:
            with pytest.raises(cli.InputError):
                cli._check_pairs(raw)
            outcomes["rejected"] += 1
        else:
            cli._check_pairs(raw)
            checked = np.array([complex(*entry) for entry in raw])
            assert checked.tobytes() == vec.tobytes(), text
            outcomes["parsed"] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_missing_target_file(tmp_path, capsys):
    code = cli.main(["factorize", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot read target file" in err


def test_unnormalized_target_warns_and_renormalizes(tmp_path, capsys):
    path = write_target(tmp_path, 1, [2.0, 2.0])
    code = cli.main(["factorize", path])
    captured = capsys.readouterr()
    assert code == 0
    assert "re-normalizing" in captured.err
    report = json.loads(captured.out)
    coeffs = [complex(*pair) for pair in report["target"]["coeffs"]]
    np.testing.assert_allclose([c.real for c in coeffs], [SQ2, SQ2], rtol=1e-12)


def test_integer_coefficient_beyond_float_range_is_rejected(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"N": 1, "coeffs": [[1, 0], [1%s, 0]]}' % ("0" * 400))
    assert cli.main(["factorize", str(path)]) == 1
    assert "'coeffs[1]' must be finite" in capsys.readouterr().err


def test_target_whose_plain_norm_overflows_is_renormalized(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"N": 2, "coeffs": [[1e308, 0], [1e308, 0], [0, 0]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["factorize", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "norm 1.41421356237309" in captured.err
    assert "e+308; re-normalizing" in captured.err
    coeffs = json.loads(captured.out)["target"]["coeffs"]
    np.testing.assert_allclose(coeffs, [[SQ2, 0.0], [SQ2, 0.0], [0.0, 0.0]],
                               rtol=1e-15)


def test_target_whose_plain_norm_underflows_is_renormalized(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text('{"N": 1, "coeffs": [[1e-200, 0], [1e-200, 0]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["factorize", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "e-200; re-normalizing" in captured.err
    report = json.loads(captured.out)
    np.testing.assert_allclose(report["target"]["coeffs"],
                               [[SQ2, 0.0], [SQ2, 0.0]], rtol=1e-15)
    assert report["round_trip_fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_simulate_noon4_optimal(tmp_path, capsys):
    code, report = run_json(capsys, ["simulate", noon_file(tmp_path, 4)])
    assert code == 0
    assert report["double"] is False
    np.testing.assert_allclose(report["schedule"],
                               [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-15)
    np.testing.assert_allclose(report["total_yield"], 3.0 / 256.0, rtol=1e-9)
    assert report["impossible"] is False
    assert report["fidelity_vs_target"] >= 1.0 - 1e-9
    prod = math.prod(b["probability"] for b in report["blocks"])
    np.testing.assert_allclose(prod, report["total_yield"], rtol=1e-12)
    kets = {tuple(e["ket"]) for e in report["final_state"]}
    assert kets == {(4, 0), (0, 4)}


def test_simulate_noon4_double(tmp_path, capsys):
    code, report = run_json(
        capsys, ["simulate", noon_file(tmp_path, 4), "--double"]
    )
    assert code == 0
    assert report["double"] is True
    np.testing.assert_allclose(report["total_yield"], 3.0 / 16.0, rtol=1e-9)
    assert len(report["factors"]) == 4
    assert len(report["blocks"]) == 2
    assert report["fidelity_vs_target"] >= 1.0 - 1e-9


def test_simulate_and_yield_table_apply_one_noon_factor_list(tmp_path, capsys):
    # simulate factors a NOON file in closed form, so it prints the factors
    # yield-table runs, and their total yield, bit for bit
    for n in range(1, 25):
        code, report = run_json(capsys, ["simulate", noon_file(tmp_path, n)])
        assert code == 0
        angles = noon_factor_angles(n)
        assert [(f["theta"], f["phi"]) for f in report["factors"]] == angles
        assert report["total_yield"] == run_scheme(angles).total_yield


def test_simulate_explicit_schedule_matches_optimal(tmp_path, capsys):
    target = noon_file(tmp_path, 4)
    code = cli.main(["simulate", target, "--schedule", "optimal"])
    out_optimal = capsys.readouterr().out
    assert code == 0
    code = cli.main(
        ["simulate", target, "--schedule", "1,0.5,0.3333333333333333,0.25"]
    )
    out_explicit = capsys.readouterr().out
    assert code == 0
    assert out_optimal == out_explicit


def test_simulate_generic_target(tmp_path, capsys):
    path = write_target(
        tmp_path, 3,
        [0.5 + 0.1j, 0.2 - 0.3j, 0.4 + 0.0j, 0.1 + 0.6j],
    )
    code, report = run_json(capsys, ["simulate", path])
    assert code == 0
    assert report["fidelity_vs_target"] >= 1.0 - 1e-9
    prod = math.prod(b["probability"] for b in report["blocks"])
    np.testing.assert_allclose(prod, report["total_yield"], rtol=1e-9)


def test_simulate_double_rejects_odd_and_non_noon(tmp_path, capsys):
    odd = noon_file(tmp_path, 3)
    assert cli.main(["simulate", odd, "--double"]) == 1
    assert "even photon number" in capsys.readouterr().err

    plain = write_target(tmp_path, 2, [1.0, 0.0, 0.0], name="plain.json")
    assert cli.main(["simulate", plain, "--double"]) == 1
    assert "path-entangled" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--double"]])
def test_simulate_rejects_photon_numbers_above_the_bound(tmp_path, capsys,
                                                         extra):
    # the benchmark and the golden reports run simulate up to N = 48
    assert cli._SIMULATE_N_MAX >= 48
    n = cli._SIMULATE_N_MAX + 1
    too_big = noon_file(tmp_path, n + n % 2)
    assert cli.main(["simulate", too_big] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "field 'N' must be at most" in captured.err


def test_simulate_refuses_65_photons(tmp_path, capsys):
    # the bound stated literally, so raising _SIMULATE_N_MAX fails here
    assert cli.main(["simulate", noon_file(tmp_path, 65)]) == 1
    assert capsys.readouterr().err == ("error: target file: field 'N' must "
                                       "be at most 64 for simulate, got 65\n")


def _deviation_of_report(report, target):
    """The largest amplitude deviation of a simulate or factorize report's
    state from ``target`` after phase alignment, and its [n_a, n_b] ket,
    recomputed from the printed numbers alone."""
    n = len(target) - 1
    if report["command"] == "simulate":
        got = np.zeros(n + 1, dtype=complex)
        for entry in report["final_state"]:
            got[entry["ket"][0]] = complex(*entry["amplitude"])
    else:
        # a null normalization is an A past the float range
        fs = FactorSet(tuple((f["theta"], f["phi"]) for f in report["factors"]),
                       report["normalization"] or math.inf,
                       complex(*report["global_phase"]),
                       report["log10_normalization"])
        state = reconstruct(fs)
        got = np.array([state.amplitude(k, n - k) for k in range(n + 1)])
    overlap = np.vdot(target, got)
    dev = np.abs(got * (abs(overlap) / overlap) - target)
    i = int(np.argmax(dev))
    return dev[i], [i, n - i]


@pytest.mark.parametrize("command", ["simulate", "factorize"])
@pytest.mark.parametrize("n,low,high", [(16, 5e-5, 3e-4), (32, 2e-3, 8e-3)])
def test_a_repeated_root_fails_its_own_check(command, n, low, high, tmp_path,
                                              capsys):
    # np.roots splits the n-fold root of (a† + b†)^n into a cluster, so the
    # printed state is 1.1e-4 (n = 16) and 3.4e-3 (n = 32) off the target
    # (ROADMAP item 6); the report says so, names the ket and exits 2.
    code, report = run_json(capsys, [command, binomial_file(tmp_path, n)])
    assert code == 2 and report["status"] == "fail"
    assert report["tolerance"] == 1e-9
    assert low < report["max_amplitude_deviation"] < high
    target = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    dev, ket = _deviation_of_report(report, target / np.linalg.norm(target))
    assert report["ket"] == ket
    assert abs(report["max_amplitude_deviation"] - dev) <= 1e-12


def test_noon_at_the_simulate_cap_passes_its_own_check(tmp_path, capsys):
    # 4.2e-15 in Leja order; 2.2e-10 in the sorted order, whose partial
    # products grew and cancelled
    code, report = run_json(capsys, ["simulate", noon_file(tmp_path, 64)])
    assert code == 0 and report["status"] == "pass"
    assert report["max_amplitude_deviation"] <= 1e-13
    target = np.zeros(65)
    target[[0, 64]] = SQ2
    dev, ket = _deviation_of_report(report, target)
    assert report["ket"] == ket
    assert abs(report["max_amplitude_deviation"] - dev) <= 1e-15


@pytest.mark.parametrize("n", [48, 64])
def test_simulate_prints_only_the_two_noon_kets(n, tmp_path, capsys):
    # The sorted order printed 22 and 47 kets above 1e-12 at N = 48 and 64
    code, report = run_json(capsys, ["simulate", noon_file(tmp_path, n)])
    assert code == 0
    assert [e["ket"] for e in report["final_state"]] == [[0, n], [n, 0]]
    for entry in report["final_state"]:
        assert abs(abs(complex(*entry["amplitude"])) - SQ2) <= 1e-13


@pytest.mark.parametrize("n", [128, 170, 256, 512])
def test_factorize_passes_its_own_check_on_noon(n, tmp_path, capsys):
    # In Leja order the NOON round trip is within 1e-13 (9.3e-15 at 170,
    # 3.1e-14 at 512); the sorted order was 2.5e-4 and 0.67 off at 128
    # and 170, 1 - F = 4.6e-7 and 0.94.  A = 2^(1-N) N! leaves the float
    # range at N = 197: normalization prints null, its log stays.
    code, report = run_json(capsys, ["factorize", noon_file(tmp_path, n)])
    assert code == 0 and report["status"] == "pass"
    assert report["max_amplitude_deviation"] <= 1e-13
    assert report["round_trip_fidelity"] >= 1.0 - 1e-12
    log10 = ((1 - n) * math.log(2.0) + math.lgamma(n + 1)) / math.log(10.0)
    assert abs(report["log10_normalization"] - log10) <= 1e-12 * log10
    assert (report["normalization"] is None) == (n >= 256)


def test_simulate_double_checks_against_the_noon_target(tmp_path, capsys):
    # A file within --double's fidelity gate of NOON, but 1e-4 off it in
    # amplitude: the doubled chain makes NOON itself, and is checked
    # against it.
    coeffs = [0.0] * 9
    coeffs[0], coeffs[8] = SQ2, SQ2 + 1e-4
    code, report = run_json(capsys, [
        "simulate", write_target(tmp_path, 8, coeffs), "--double"])
    assert code == 0 and report["status"] == "pass"
    assert report["max_amplitude_deviation"] < 1e-15
    assert report["fidelity_vs_target"] < 1.0 - 1e-9


def test_self_check_fails_a_nan_state():
    # one NaN leaves the phase, and so every aligned amplitude, NaN; the
    # first ket of the two-photon sector is named
    state = np.array([1.0, np.nan, 0.0])
    check = cli._self_check(state, state)
    assert check["status"] == "fail" and check["ket"] == [0, 2]
    assert cli._render(check["max_amplitude_deviation"]) == "null"


def test_simulate_at_the_photon_number_bound(tmp_path, capsys):
    n = cli._SIMULATE_N_MAX
    rng = np.random.default_rng(64)
    coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    coeffs /= np.linalg.norm(coeffs)
    code, report = run_json(capsys, ["simulate",
                                     write_target(tmp_path, n, coeffs)])
    assert code == 0 and not report["impossible"]
    assert report["fidelity_vs_target"] >= 1.0 - 1e-9
    assert report["status"] == "pass"
    closed = yield_generic(
        factorize_target(TargetSpec(n, coeffs)).normalization, n)
    assert abs(report["total_yield"] - closed) <= 1e-9 * closed


@pytest.mark.parametrize(
    "schedule",
    ["abc", "0.5,0.5", "1,0.5,0.25,0.125,0.1", "0,0.5,0.5,0.5", "1,2,0.5,0.5"],
)
def test_simulate_bad_schedules(tmp_path, capsys, schedule):
    code = cli.main(
        ["simulate", noon_file(tmp_path, 4), "--schedule", schedule]
    )
    assert code == 1
    assert "--schedule" in capsys.readouterr().err


def test_simulate_impossible_schedule(tmp_path, capsys):
    code, report = run_json(
        capsys, ["simulate", noon_file(tmp_path, 2), "--schedule", "1,1"]
    )
    assert code == 0
    assert report["impossible"] is True
    assert report["total_yield"] == 0.0
    assert report["fidelity_vs_target"] is None
    assert report["final_state"] == []
    assert report["blocks"][1]["probability"] == 0.0
    # no state, so nothing to check
    assert all(report[field] is None for field in cli._CHECK_FIELDS)


def test_simulate_high_transmittance_schedule(tmp_path, capsys):
    # T = 0.9 in all 40 blocks, far above the optimal T_k = 1/k
    code, report = run_json(capsys, ["simulate", noon_file(tmp_path, 40),
                                     "--schedule", ",".join(["0.9"] * 40)])
    assert code == 0
    assert abs(report["fidelity_vs_target"] - 1.0) < 1e-12


def read_table(text):
    lines = text.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, header, rows


def test_yield_table_contents(tmp_path, capsys):
    code = cli.main(["yield-table", "8"])
    out = capsys.readouterr().out
    assert code == 0
    comments, header, rows = read_table(out)
    assert any("confirmed_reading=factorial" in c for c in comments)
    assert header[0] == "N" and "ratio_double_over_single" in header
    assert len(rows) == 8

    by_n = {int(r[0]): r for r in rows}
    np.testing.assert_allclose(float(by_n[4][1]), 3.0 / 256.0, rtol=1e-12)
    np.testing.assert_allclose(float(by_n[4][4]), 3.0 / 16.0, rtol=1e-12)
    np.testing.assert_allclose(float(by_n[4][7]), 16.0, rtol=1e-12)

    for n, row in by_n.items():
        # simulated single-photon yield agrees with the closed form
        np.testing.assert_allclose(float(row[2]), float(row[1]), rtol=1e-9)
        if n % 2 == 0:
            np.testing.assert_allclose(float(row[6]), float(row[4]),
                                       rtol=1e-9)
            np.testing.assert_allclose(float(row[7]), 2.0 ** n, rtol=1e-12)
        else:
            assert row[4] == "" and row[5] == "" and row[6] == ""
            assert row[7] == ""


def test_yield_table_simulates_up_to_its_cap(capsys):
    assert cli.main(["yield-table", "24"]) == 0
    comments, _, rows = read_table(capsys.readouterr().out)
    assert comments[1].startswith("# simulated columns cover N <= 24;")
    assert any("confirmed_reading=factorial" in c for c in comments)
    assert [int(r[0]) for r in rows] == list(range(1, 25))
    for r in rows:
        # p_single_simulated against p_single, p_double_simulated against
        # p_double_factorial_form
        assert abs(float(r[2]) - float(r[1])) <= 1e-9 * float(r[1])
        if int(r[0]) % 2 == 0:
            assert abs(float(r[6]) - float(r[4])) <= 1e-9 * float(r[4])


def test_yield_table_bounds(capsys):
    assert cli.main(["yield-table", "0"]) == 1
    capsys.readouterr()
    assert cli.main(["yield-table", "25"]) == 1
    capsys.readouterr()


def test_yield_table_adjudication_edge_cases(capsys):
    cli.main(["yield-table", "1"])
    assert "confirmed_reading=undetermined" in capsys.readouterr().out
    cli.main(["yield-table", "2"])
    assert "confirmed_reading=ambiguous" in capsys.readouterr().out
    cli.main(["yield-table", "4"])
    assert "confirmed_reading=factorial" in capsys.readouterr().out


def test_adjudication_names_the_linear_reading_and_none():
    # Simulated yields the chain never gives: the linear formula's own
    # value at N = 4, and one that matches neither formula
    linear = cli._adjudicate_double_reading({4: yield_noon_double_linear(4)})
    assert linear.startswith("confirmed_reading=linear; ")
    assert cli._adjudicate_double_reading({4: 0.5}) == (
        "confirmed_reading=none; no candidate formula matches simulation")


def test_fringe_output(capsys):
    code = cli.main(["fringe", "4", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# dominant_fourier_frequency=4" in out
    comments, header, rows = read_table(out)
    assert header == ["phase", "rate"]
    assert len(rows) == 9
    np.testing.assert_allclose(float(rows[0][1]), 2.0, rtol=1e-9)


def test_fringe_single_photon(capsys):
    code = cli.main(["fringe", "1", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# dominant_fourier_frequency=1" in out


def test_fringe_validation(capsys):
    assert cli.main(["fringe", "4", "8"]) == 1
    assert "aliasing" in capsys.readouterr().err
    assert cli.main(["fringe", "9", "32"]) == 1
    capsys.readouterr()
    assert cli.main(["fringe", "0", "16"]) == 1
    capsys.readouterr()
    assert cli.main(["fringe", "3", "100000000000"]) == 1
    err = capsys.readouterr().err
    assert "points" in err and "65536" in err


def test_out_file_matches_stdout(tmp_path, capsys):
    target = noon_file(tmp_path, 4)
    code = cli.main(["simulate", target])
    stdout_text = capsys.readouterr().out
    assert code == 0
    out_path = tmp_path / "report.json"
    code = cli.main(["simulate", target, "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == stdout_text


def test_outputs_are_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["yield-table", "6", "--out", str(a)]) == 0
    assert cli.main(["yield-table", "6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_check_passes(capsys):
    code, report = run_json(capsys, ["oracle-check", "--trials", "5"])
    assert code == 0
    assert report["status"] == "pass"
    assert "cutoff" not in report and "perturb" not in report
    names = [s["name"] for s in report["sections"]]
    assert names == [
        "block_vs_closed_form_amplitude",
        "splitter_entries_vs_sector_exponential",
    ]
    for section in report["sections"]:
        assert section["pass"] is True
        assert section["max_deviation"] <= 1e-9
        assert "worst" not in section


def _spiked_blocks(monkeypatch, spike):
    """Route oracle-check's blocks through ``spike(trial, k, amps)``, which
    may change the amplitudes in place; returns the (k, transmittance) of
    every call."""
    calls, run_block = [], cli.run_block_single

    def spiked(state, params):
        outcome = run_block(state, params)
        amps = outcome.state.amps.copy()
        k = state.cutoff + 1
        spike(len(calls), k, amps)
        calls.append((k, params.transmittance))
        return BlockOutcome(TwoModeState(k, amps), outcome.probability)

    monkeypatch.setattr(cli, "run_block_single", spiked)
    return calls


def test_oracle_check_locates_the_largest_block_deviation(monkeypatch, capsys):
    # The block is exact except on two trials; the larger error is located.
    def spike(trial, k, amps):
        size = {2: 1e-6, 4: 1e-7}.get(trial)
        if size:
            amps[_ket_index(2, k, (1, k - 1))] += size

    calls = _spiked_blocks(monkeypatch, spike)
    code, report = run_json(capsys, ["oracle-check", "--trials", "6"])
    assert code == 2 and report["status"] == "fail"
    block, entries = report["sections"]
    assert entries["pass"] is True and "worst" not in entries
    assert block["pass"] is False and 9e-7 < block["max_deviation"] < 2e-6
    k, t = calls[2]
    assert block["worst"] == {"trial": 2, "k": k, "transmittance": t,
                              "ket": [1, k - 1]}


def test_oracle_check_fails_a_nan_block_deviation(monkeypatch, capsys):
    def spike(trial, k, amps):
        if trial in (1, 3):
            amps[:] = np.nan

    calls = _spiked_blocks(monkeypatch, spike)
    code = cli.main(["oracle-check", "--trials", "5"])
    out = capsys.readouterr().out

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads(out, parse_constant=reject)
    assert code == 2 and report["status"] == "fail"
    block, entries = report["sections"]
    assert entries["pass"] is True
    assert block["pass"] is False and block["max_deviation"] is None
    # the first NaN is the one located
    k, t = calls[1]
    assert block["worst"] == {"trial": 1, "k": k, "transmittance": t,
                              "ket": [0, 0]}


def _spiked_entries(monkeypatch, spikes):
    """Route oracle-check's splitter tables through one that adds
    ``size`` at [j, angle index, o, n] for each (cutoff, j, angle index,
    (o, n)): size entry of ``spikes``."""
    entries = cli._splitter_entries

    def spiked(cutoff, c, s, j_max):
        v = entries(cutoff, c, s, j_max)
        for (at, j, i, ket), size in spikes.items():
            if at == cutoff:
                v[(j, i) + ket] += size
        return v

    monkeypatch.setattr(cli, "_splitter_entries", spiked)


def test_oracle_check_locates_the_largest_entry_deviation(monkeypatch,
                                                          capsys):
    # Two entries are off; the larger is located.
    _spiked_entries(monkeypatch, {(24, 2, 1, (3, 20)): 1e-6,
                                  (64, 0, 3, (0, 0)): 1e-7})
    code, report = run_json(capsys, ["oracle-check", "--trials", "1"])
    assert code == 2 and report["status"] == "fail"
    block, entries = report["sections"]
    assert block["pass"] is True
    assert entries["pass"] is False
    assert 9e-7 < entries["max_deviation"] < 2e-6
    assert entries["worst"] == {"cutoff": 24, "kappa": report["kappas"][1],
                                "j": 2, "ket": [3, 20]}


def test_oracle_check_fails_entries_outside_the_table(monkeypatch, capsys):
    # An entry the table must leave at 0, o + n above the cutoff, counts.
    _spiked_entries(monkeypatch, {(10, 1, 0, (6, 7)): 1e-3})
    code, report = run_json(capsys, ["oracle-check", "--trials", "1"])
    assert code == 2
    assert report["sections"][1]["worst"] == {
        "cutoff": 10, "kappa": report["kappas"][0], "j": 1, "ket": [6, 7]}


def test_oracle_check_deterministic(capsys):
    argv = ["oracle-check", "--trials", "4", "--seed", "7"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second and first != ""


def test_oracle_check_validation(capsys):
    assert cli.main(["oracle-check", "--trials", "0"]) == 1
    capsys.readouterr()
    # the four-mode pair section and its options are gone
    for option in (["--cutoff", "4"], ["--perturb", "0"]):
        assert cli.main(["oracle-check", "--trials", "1", *option]) == 1
        assert capsys.readouterr().out == ""
    # numpy's own message for a negative seed does not name the flag
    assert cli.main(["oracle-check", "--trials", "1", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


def test_top_level_dispatch(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    assert "factorize" in capsys.readouterr().out


def test_one_parser_serves_every_call(tmp_path, capsys):
    # Each call through the shared parser gives the exit code and bytes of
    # a first call, which builds its own.
    target = noon_file(tmp_path, 4)
    out = tmp_path / "report.json"
    calls = [["simulate", target, "--no-such-flag"], ["--help"],
             ["factorize", target], ["simulate", target, "--out", str(out)],
             ["factorize", target]]

    def run(argv):
        if out.exists():
            out.unlink()
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.exists() and out.read_bytes()

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    cli.build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    assert [r[0] for r in shared] == [1, 0, 0, 0, 0]
    assert shared[3][3].startswith(b'{\n  "command": "simulate"')
    assert shared == fresh


def _run_python(*args):
    """Run the interpreter on ``args`` with this checkout's pathent importable."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("module", ["pathent", "pathent.cli"])
def test_python_dash_m_runs_the_cli(module, capsys):
    proc = _run_python("-m", module, "yield-table", "3")
    assert cli.main(["yield-table", "3"]) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out.encode()
    proc = _run_python("-m", module, "oracle-check", "--trials", "0")
    assert proc.returncode == 1
    assert b"--trials" in proc.stderr


def test_oracle_check_memory_at_the_largest_cutoff():
    # The fast pair splitter and its dense-exponential oracle on one random
    # state at cutoff 10, in a fresh interpreter, so caches filled by other
    # tests do not count.
    code = """
import tracemalloc
import numpy as np
from pathent.fock import (FourModeState, beam_splitter_pair_exact,
                          beam_splitter_pair_oracle, dim4)
tracemalloc.start()
rng = np.random.default_rng(1)
v = rng.standard_normal(dim4(10)) + 1j * rng.standard_normal(dim4(10))
state = FourModeState(10, v / np.linalg.norm(v))
dev = max(np.abs(beam_splitter_pair_exact(state, kappa).amps
                 - beam_splitter_pair_oracle(state, kappa).amps).max()
          for kappa in (0.1, 0.7, 1.3))
print(int(dev <= 1e-9), tracemalloc.get_traced_memory()[1])
"""
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    agree, peak = map(int, proc.stdout.split())
    # The whole-basis expm peaked near 208 MB here, the per-block one
    # near 17 MB.
    assert agree == 1 and peak < 60e6


@pytest.mark.parametrize("kind,n", [("noon", 171), ("generic", 200),
                                    ("noon", 200)])
def test_factorize_beyond_the_float_range_of_the_factorials(kind, n, tmp_path):
    # k! (n - k)! leaves the float range from n = 171 on.  Each run prints
    # a report, or one error line with exit code 1; never a traceback.  The
    # NOON round trip at 171 passes its own check in Leja order (it was
    # 0.67 off in amplitude in the sorted order, and said so with exit 2),
    # and NOON at 200, whose A = 2^-199 200! is past the float range, prints
    # its report with a null normalization (it exited 1 when A overflowed).
    expected = {("noon", 171): 0, ("generic", 200): 0, ("noon", 200): 0}
    if kind == "noon":
        path = noon_file(tmp_path, n)
    else:
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        path = write_target(tmp_path, n, v / np.linalg.norm(v))
    proc = _run_python("-m", "pathent", "factorize", path)
    assert proc.returncode == expected[kind, n], proc.stderr
    if proc.returncode != 1:
        assert proc.stderr == b""
        report = json.loads(proc.stdout)
        assert report["target"]["N"] == n
        assert report["status"] == ("pass" if proc.returncode == 0 else "fail")
    else:
        assert proc.returncode == 1 and proc.stdout == b""
        assert proc.stderr.startswith(b"error: ")
        assert proc.stderr.count(b"\n") == 1, proc.stderr


def test_factorize_a_target_whose_roots_reach_481(tmp_path, capsys):
    # The random N = 200 target of CI's factorize step, drawn from seed 15:
    # its largest root has modulus 481, and the polish once evaluated
    # 481^200, which overflowed with three RuntimeWarnings (an error here).
    rng = np.random.default_rng(15)
    v = rng.standard_normal(201) + 1j * rng.standard_normal(201)
    path = write_target(tmp_path, 200, v / np.linalg.norm(v))
    code, report = run_json(capsys, ["factorize", path])
    assert code == 0 and report["status"] == "pass"
    assert len(report["factors"]) == 200
    assert report["round_trip_fidelity"] >= 1.0 - 1e-9


def test_factorize_names_the_underflow_of_every_monomial_coefficient():
    # NOON's d_0 = d_N = 2^-1/2 sqrt(1 / C(N, N // 2)) are normal floats up
    # to N = 1027 (with c_k / sqrt(k! (N - k)!) both underflowed at
    # N = 400) and are 0 at N = 2200.  factorize refuses N > 1024 first, so
    # the raise is reached in-process.
    with pytest.raises(ValueError) as info:
        monomial_coeffs(noon_target(2200))
    assert str(info.value) == ("every d_k = c_k sqrt(C(N, k) / C(N, N // 2)) "
                               "underflows to 0 at N = 2200")


@pytest.mark.parametrize("n", [300, 330])
def test_factorize_names_a_leading_coefficient_too_small_to_divide_by(n,
                                                                      tmp_path):
    # Seeded random targets with c_N near 1e-272, so that d_N, below
    # 1e-315, is subnormal and d_k / d_N overflows: one error line that
    # names the cause, with no numpy warning before it.  (With
    # c_k / sqrt(k! (N - k)!) the plain seeded targets failed so at
    # N = 300; they now pass.)
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    v[n] = 1e-270
    v /= np.linalg.norm(v)
    proc = _run_python("-m", "pathent", "factorize", write_target(tmp_path, n, v))
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr == (f"error: leading monomial coefficient d_{n} is too "
                           f"small: d_k / d_{n} overflows floats at N = {n}\n"
                           ).encode()
    assert proc.stderr.count(b"\n") == 1, proc.stderr
    assert b"Warning" not in proc.stderr


@pytest.mark.parametrize("n", [256, 512])
def test_factorize_round_trips_random_targets_past_the_float_range(n,
                                                                   tmp_path,
                                                                   capsys):
    # Seeded random targets (8.7e-16 off at N = 512): every warning is an
    # error here, A is past the float range and its log is printed
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    v /= np.linalg.norm(v)
    code, report = run_json(capsys, ["factorize", write_target(tmp_path, n, v)])
    assert code == 0 and report["status"] == "pass"
    assert report["max_amplitude_deviation"] <= 1e-12
    assert report["normalization"] is None
    assert report["log10_normalization"] > 308.0
    dev, ket = _deviation_of_report(report, v)
    assert report["ket"] == ket
    assert abs(report["max_amplitude_deviation"] - dev) <= 1e-15


def test_factorize_refuses_1025_photons(tmp_path, capsys):
    # the bound stated literally, so raising _FACTORIZE_N_MAX fails here
    assert cli.main(["factorize", noon_file(tmp_path, 1025)]) == 1
    assert capsys.readouterr().err == ("error: target file: field 'N' must "
                                       "be at most 1024 for factorize, got "
                                       "1025\n")


def test_factorize_reports_the_round_trip_of_its_own_product(tmp_path,
                                                             capsys):
    # The report reads the product factorize_target built; the fidelity is
    # that of reconstruct on the printed factor set, to the bit, both taken
    # over the N + 1 coefficients of the target's sector.
    rng = np.random.default_rng(24)
    v = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    path = write_target(tmp_path, 24, v / np.linalg.norm(v))
    code, report = run_json(capsys, ["factorize", path])
    target = cli._load_target(path)
    fs = factorize_target(target)
    want = _fidelity(reconstruct(fs).amps[_sector(24)], np.array(target.coeffs))
    assert code == 0 and report["round_trip_fidelity"] == want
