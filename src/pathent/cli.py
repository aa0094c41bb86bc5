"""Batch command-line front end.

Subcommands: ``factorize`` (target file -> factor angles), ``simulate``
(target file -> full scheme run report), ``yield-table`` (closed-form and
simulated yields as CSV), ``fringe`` (phase sweep of the N-photon
absorption rate as CSV), and ``oracle-check`` (agreement checks
between independent computation routes).

Conventions shared by all commands:
  * reports are JSON, tables are comma-separated, and every float is
    printed with 17 significant digits so values round-trip exactly;
  * complex numbers appear as [re, im] pairs; in reports a non-finite
    float, or a non-finite part of a complex number, appears as null;
  * output is byte-deterministic for identical inputs and seeds (no
    timestamps, hostnames, or file paths in any report body);
  * exit codes: 0 success, 1 validation or parse error, 2 numerical
    tolerance failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import sys

import numpy as np

from .blocks import (
    BlockParams,
    _splitter_entries,
    amplitude_factor_single,
    noon_double_phases,
    run_block_single,
    run_scheme,
    run_scheme_double,
)
from .factorize import (
    TargetSpec,
    _aligned,
    _coeff_norm,
    _factorize,
    _wrap_angle,
    find_factor_angles,
    monomial_coeffs,
    noon_factor_angles,
)
from .fock import (
    TwoModeState,
    _basis,
    _fidelity,
    _sector,
    _sector_blocks,
    apply_linear_factor,
    _sector_state,
    noon_state,
    with_cutoff,
)
from .litho import dominant_fringe_frequency, fringe_sweep
from .yields import (
    optimal_schedule,
    yield_noon_double,
    yield_noon_double_linear,
    yield_table,
)

# Largest target photon number ``simulate`` accepts.  The heralded chain
# keeps only the N + 1 coefficients of one photon-number sector and reads
# one table of closed-form splitter entries, so its cost is small: on a
# loaded 2-vCPU x86-64 host ``simulate`` at N = 64 takes about 0.2 s of
# wall time as a fresh process, most of it interpreter start and imports,
# and 32 MB peak RSS; in-process a call on a seeded random target takes
# about 5.1 ms, of which the 64 x 64 companion eigenproblem is about 3 ms,
# the root polish 0.15 ms and the chain 0.53 ms.  A NOON call takes about
# 1.5 ms: its two-term polynomial is factored in closed form, without the
# eigenproblem.  The Leja order of the factors adds about 0.1 ms to a
# random target at N = 64 and nothing to NOON, whose order is cached.  The
# bound stays at 64 until a larger one is set from a measurement of time
# and memory, with the yield carried where it underflows: NOON yields,
# e^{-1.69 N}, reach 0 beyond N of about 440.
_SIMULATE_N_MAX = 64
# Largest target photon number ``factorize`` accepts.  Up to N = 1027 every
# scale of ``monomial_coeffs`` is a normal float.  On a 2-vCPU x86-64 host,
# in-process, NOON at N = 1024 takes 0.02-0.05 s and a seeded random target
# about 2.4 s, most of it the 1024 x 1024 companion eigenproblem, with an
# 18 MB tracemalloc peak.
_FACTORIZE_N_MAX = 1024
_ORACLE_TOL = 1e-9
_NORM_WARN_TOL = 1e-6


class InputError(Exception):
    """Bad user input: maps to exit code 1."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _number(x: float) -> str:
    # JSON has no NaN or infinity
    return format(x, ".17g") if math.isfinite(x) else "null"


_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str
_CONTAINERS = (dict, list, tuple)


def _leaf(value) -> str | None:
    """The JSON text of a scalar report value; None for a dict, list, tuple."""
    if isinstance(value, _CONTAINERS):
        return None
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _number(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        return f"[{_number(value.real)}, {_number(value.imag)}]"
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render(value, indent: str = "") -> str:
    """Render a report tree as JSON with fixed float formatting.

    A list whose items are all scalars goes on one line; any other list,
    and every non-empty dict, puts one item per line, indented two spaces
    per level.  A list is written as one ``_fields`` column of its items.
    """
    text = _leaf(value)
    if text is not None:
        return text
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_quote(str(k))}: {_render(v, inner)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    field, columns = _fields(value, inner)
    args = tuple(itertools.chain.from_iterable(zip(*columns)))
    if _scalars(value):
        return "[" + ", ".join([field] * len(value)) % args + "]"
    return ("[\n" + inner + (",\n" + inner).join([field] * len(value)) % args
            + "\n" + indent + "]")


def _scalars(values) -> bool:
    """Whether none of ``values`` is a dict, list or tuple."""
    return not any(issubclass(k, _CONTAINERS) for k in set(map(type, values)))


def _fields(values, indent: str) -> tuple[str, list]:
    """One ``%`` field that writes each of ``values`` as ``_render`` lays it
    out at ``indent``, and the field's argument columns: ``%d`` for exact
    ints; ``%.17g`` for exact floats, and a pair of those for exact complex
    numbers, whose sum is finite; a row template built key by key for dicts
    that share their keys, in order; a one-line list of position columns
    for lists of scalars of one length; else ``%s``, filled by ``_render``.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        return "%d", [values]
    # a sum past the float range only sends finite values the slow way
    if kinds == {float} and math.isfinite(sum(values)):
        return "%.17g", [values]
    if kinds == {complex} and cmath.isfinite(sum(values)):
        return "[%.17g, %.17g]", [[v.real for v in values],
                                  [v.imag for v in values]]
    if all(issubclass(kind, dict) for kind in kinds):
        keys = tuple(values[0])
        if keys and set(map(tuple, values)) == {keys}:
            inner = indent + "  "
            lines, columns = [], []
            for key in keys:
                field, parts = _fields([v[key] for v in values], inner)
                key = _quote(str(key)).replace("%", "%%")
                lines.append(f"{inner}{key}: {field}")
                columns += parts
            return "{\n" + ",\n".join(lines) + "\n" + indent + "}", columns
    elif (kinds == {list} and len(set(map(len, values))) == 1
          and _scalars(itertools.chain.from_iterable(values))):
        items = [_fields(column, indent) for column in zip(*values)]
        return ("[" + ", ".join(field for field, _ in items) + "]",
                [part for _, parts in items for part in parts])
    return "%s", [[_render(v, indent) for v in values]]


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# target file handling


def _load_target(path: str) -> TargetSpec:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read target file {path!r}: {exc.strerror}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"target file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError("target file must be a JSON object "
                         "with fields 'N' and 'coeffs'")
    if "N" not in data:
        raise InputError("target file: field 'N' is missing")
    n = data["N"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError("target file: field 'N' must be an integer >= 1")
    if "coeffs" not in data:
        raise InputError("target file: field 'coeffs' is missing")
    raw = data["coeffs"]
    if not isinstance(raw, list):
        raise InputError("target file: field 'coeffs' must be a list "
                         "of [re, im] pairs")
    if len(raw) != n + 1:
        raise InputError(
            f"target file: field 'coeffs' must have N+1 = {n + 1} entries, "
            f"got {len(raw)}"
        )
    vec = _parse_pairs(raw)
    if vec is None:
        _check_pairs(raw)  # raises: some entry is not a finite [re, im] pair
    norm = _coeff_norm(vec)
    if norm == 0.0:
        raise InputError("target file: field 'coeffs' is all zeros")
    if abs(norm - 1.0) > _NORM_WARN_TOL:
        print(
            f"warning: target coefficients have norm {_f(norm)}; "
            "re-normalizing",
            file=sys.stderr,
        )
    return TargetSpec(n, vec)


def _parse_pairs(raw: list) -> np.ndarray | None:
    """The coefficients in one np.array when every entry is a [re, im] list
    of ints and floats, all finite; None for any other input."""
    if (set(map(type, raw)) != {list} or set(map(len, raw)) != {2}
            or not set(map(type, itertools.chain.from_iterable(raw)))
            <= {int, float}):
        return None
    try:
        pairs = np.array(raw, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return pairs.view(complex)[:, 0] if np.isfinite(pairs).all() else None


def _check_pairs(raw: list) -> None:
    """Raise InputError naming the first entry that is not a [re, im] pair
    of finite numbers, the entry that made ``_parse_pairs`` return None."""
    for i, entry in enumerate(raw):
        # exactly the types _parse_pairs takes, so a bool is rejected
        if (not isinstance(entry, list) or len(entry) != 2
                or not set(map(type, entry)) <= {int, float}):
            raise InputError(f"target file: field 'coeffs[{i}]' must be a "
                             "[re, im] pair of numbers")
        try:
            finite = cmath.isfinite(complex(*entry))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise InputError(f"target file: field 'coeffs[{i}]' must be finite")


def _echo_target(target: TargetSpec) -> dict:
    return {
        "N": target.n_photons,
        "coeffs": [complex(c) for c in target.coeffs],
    }


# ---------------------------------------------------------------------------
# commands


def _worst(worst: tuple | None, dev: np.ndarray, *where) -> tuple:
    """(deviation, *where, ket index) of the larger of ``worst`` and dev's
    largest entry; the first NaN outranks every number and then stays."""
    i = int(np.argmax(dev))  # the first NaN, if there is one
    if worst is None or (not dev[i] <= worst[0] and not math.isnan(worst[0])):
        return (float(dev[i]), *where, i)
    return worst


# The fields with which ``simulate`` and ``factorize`` check their own state.
_CHECK_FIELDS = ("max_amplitude_deviation", "ket", "tolerance", "status")


def _self_check(state: np.ndarray, reference: np.ndarray) -> dict:
    """The largest amplitude deviation of the N-photon sector coefficients
    ``state`` from ``reference`` once the global phase is aligned, the
    [n_a, n_b] ket where it sits, the tolerance and the status, which is
    "fail" above it or on a NaN."""
    overlap = complex(np.vdot(reference, state))
    unphase = overlap.conjugate() / abs(overlap) if overlap else 1.0
    dev, i = _worst(None, np.abs(state * unphase - reference))
    return dict(zip(_CHECK_FIELDS, (
        dev, [i, state.size - 1 - i], _ORACLE_TOL,
        "pass" if dev <= _ORACLE_TOL else "fail")))


def _write_checked(report: dict, out_path: str | None) -> int:
    """Write a report that holds a ``status``; exit code 2 if it failed."""
    _write_output(_render(report) + "\n", out_path)
    return 2 if report["status"] == "fail" else 0


def _load_capped(path: str, n_max: int, command: str) -> TargetSpec:
    """The target file at ``path``, refused if its N exceeds ``n_max``."""
    target = _load_target(path)
    if target.n_photons > n_max:
        raise InputError(f"target file: field 'N' must be at most {n_max} "
                         f"for {command}, got {target.n_photons}")
    return target


def _cmd_factorize(args) -> int:
    target = _load_capped(args.target, _FACTORIZE_N_MAX, "factorize")
    fs, raw = _factorize(target)
    state = _aligned(raw, fs.global_phase).amps[_sector(target.n_photons)]
    coeffs = np.array(target.coeffs)
    report = {
        "command": "factorize",
        "target": _echo_target(target),
        "factors": [
            {"theta": theta, "phi": phi} for theta, phi in fs.factors
        ],
        "normalization": fs.normalization,
        "log10_normalization": fs.log10_normalization,
        "global_phase": complex(fs.global_phase),
        "round_trip_fidelity": _fidelity(state, coeffs),
        **_self_check(state, coeffs),
    }
    return _write_checked(report, args.out)


def _parse_schedule(text: str, n_blocks: int) -> list[float]:
    if text == "optimal":
        return optimal_schedule(n_blocks)
    try:
        ts = [float(part) for part in text.split(",")]
    except ValueError:
        raise InputError(
            "--schedule must be 'optimal' or a comma-separated list of numbers"
        )
    if len(ts) != n_blocks:
        raise InputError(
            f"--schedule needs {n_blocks} entries for this run, got {len(ts)}"
        )
    for t in ts:
        if not 0.0 < t <= 1.0:
            raise InputError(f"--schedule entries must lie in (0, 1], got {_f(t)}")
    return ts


def _state_entries(state: np.ndarray) -> list[dict]:
    """The kets of N-photon sector coefficients above 1e-12 in modulus, as
    ``TwoModeState.nonzero_amplitudes`` lists them."""
    n = state.size - 1
    return [{"ket": [i, n - i], "amplitude": complex(state[i])}
            for i in np.flatnonzero(np.abs(state) > 1e-12).tolist()]


def _cmd_simulate(args) -> int:
    target = _load_capped(args.target, _SIMULATE_N_MAX, "simulate")
    n = target.n_photons
    coeffs = np.array(target.coeffs)
    if args.double:
        if n % 2 != 0:
            raise InputError("--double requires an even photon number")
        reference = noon_state(n).amps[_sector(n)]
        if _fidelity(coeffs, reference) < 1.0 - 1e-6:
            raise InputError(
                "--double supports only maximally path-entangled "
                "(|N,0>+|0,N>)/sqrt(2) targets"
            )
        schedule = _parse_schedule(args.schedule, n // 2)
        phis = noon_double_phases(n)
        result = run_scheme_double(n, phis, schedule)
        angles = [(math.pi / 4.0, p) for phi in phis
                  for p in (phi, _wrap_angle(phi + math.pi))]
    else:
        angles = find_factor_angles(monomial_coeffs(target))
        schedule = _parse_schedule(args.schedule, n)
        reference = coeffs
        result = run_scheme(angles, schedule)
    if result.impossible:
        fidelity = None
        final_entries: list[dict] = []
        check = dict.fromkeys(_CHECK_FIELDS)
    else:
        state = result.final_state.amps[_sector(n)]
        fidelity = _fidelity(state, coeffs)
        final_entries = _state_entries(state)
        check = _self_check(state, reference)
    report = {
        "command": "simulate",
        "target": _echo_target(target),
        "double": bool(args.double),
        "schedule": schedule,
        "factors": [{"theta": theta, "phi": phi} for theta, phi in angles],
        "blocks": [
            {"block": k, "transmittance": t, "probability": p}
            for k, (t, p) in enumerate(zip(schedule, result.block_probs), start=1)
        ],
        "total_yield": result.total_yield,
        "impossible": result.impossible,
        "final_state": final_entries,
        "fidelity_vs_target": fidelity,
        **check,
    }
    return _write_checked(report, args.out)


# Largest N ``yield-table`` accepts; it simulates the NOON yields of every row.
_YIELD_N_MAX = 24


def _adjudicate_double_reading(simulated: dict[int, float]) -> str:
    """Name the doubled-yield formula reading the simulation confirms."""
    if not simulated:
        return (
            "confirmed_reading=undetermined; no even N simulated, "
            "both candidate formulas shown"
        )

    def matches(formula) -> bool:
        return all(
            math.isclose(formula(n), sim, rel_tol=1e-9)
            for n, sim in simulated.items()
        )

    fact_ok = matches(yield_noon_double)
    lin_ok = matches(yield_noon_double_linear)
    if fact_ok and not lin_ok:
        return (
            "confirmed_reading=factorial; simulated doubled yields match "
            "p_double = 2*(N-1)!*N^(1-N) = 2^N*p_single within rel 1e-9; "
            "the linear alternative 2*(N-1)*N^(1-N) disagrees "
            "(first divergence at N=4: 0.09375 vs simulated 0.1875)"
        )
    if fact_ok and lin_ok:
        return (
            "confirmed_reading=ambiguous; both formula readings coincide on "
            "the simulated range (they first diverge at N=4)"
        )
    if lin_ok:
        return (
            "confirmed_reading=linear; simulated doubled yields match "
            "p_double = 2*(N-1)*N^(1-N)"
        )
    return "confirmed_reading=none; no candidate formula matches simulation"


def _cmd_yield_table(args) -> int:
    n_max = args.n_max
    if not 1 <= n_max <= _YIELD_N_MAX:
        raise InputError(f"n_max must lie in 1..{_YIELD_N_MAX}")
    rows = yield_table(n_max)
    sim_single: dict[int, float] = {}
    sim_double: dict[int, float] = {}
    for n in range(1, n_max + 1):
        sim_single[n] = run_scheme(noon_factor_angles(n)).total_yield
        if n % 2 == 0:
            sim_double[n] = run_scheme_double(n).total_yield
    lines = [
        f"# closed-form and simulated heralding yields for "
        f"(|N,0>+|0,N>)/sqrt(2) targets, N = 1..{n_max}",
        f"# simulated columns cover N <= {n_max}; "
        "empty cells mean not simulated or not applicable",
        f"# {_adjudicate_double_reading(sim_double)}",
        "N,p_single,p_single_simulated,p_stirling,p_double_factorial_form,"
        "p_double_linear_form,p_double_simulated,ratio_double_over_single",
    ]
    for row in rows:
        n = row.n_photons
        cells = [
            str(n),
            _f(row.p_single),
            _f(sim_single[n]),
            _f(row.p_stirling),
            _f(row.p_double) if row.p_double is not None else "",
            _f(row.p_double_linear) if row.p_double_linear is not None else "",
            _f(sim_double[n]) if n in sim_double else "",
            _f(row.double_over_single)
            if row.double_over_single is not None
            else "",
        ]
        lines.append(",".join(cells))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_fringe(args) -> int:
    n = args.n
    if not 1 <= n <= 8:
        raise InputError("n must lie in 1..8")
    min_points = max(8, 2 * n + 1)
    if args.points < min_points:
        raise InputError(
            f"points must be >= max(8, 2n+1) = {min_points} to resolve an "
            f"n={n} fringe without aliasing"
        )
    # The sweep holds every point at once, about 0.26 KB each at n = 8: the
    # cap peaks near 17 MB and runs in about 0.07 s (2-vCPU x86-64 host).
    if args.points > 65536:
        raise InputError(f"points must be <= 65536, got {args.points}")
    sweep = fringe_sweep(noon_state(n), n, args.points)
    freq = dominant_fringe_frequency(sweep)
    header = (
        f"# {n}-photon absorption fringe of the (|{n},0>+|0,{n}>)/sqrt(2) "
        f"state, {args.points} phase samples on [0, 2pi)\n"
        f"# dominant_fourier_frequency={freq}\n"
        "phase,rate\n"
    )
    # %.17g formats a float as _f does
    rows = np.column_stack([sweep.phases, sweep.rates]).ravel().tolist()
    _write_output(header + "%.17g,%.17g\n" * args.points % tuple(rows),
                  args.out)
    return 0


def _random_eigenstate(rng: np.random.Generator, total: int) -> TwoModeState:
    """Normalized state with every populated ket at the given total."""
    v = rng.standard_normal(total + 1) + 1j * rng.standard_normal(total + 1)
    return _sector_state(v / np.linalg.norm(v))


def _oracle_section(name: str, trials: int, max_dev: float,
                    worst: dict) -> dict:
    """One oracle-check section; ``worst`` locates a failing one's deviation."""
    section = {"name": name, "trials": trials, "max_deviation": max_dev,
               "pass": max_dev <= _ORACLE_TOL}
    if not section["pass"]:
        section["worst"] = worst
    return section


# The fixed grid of the splitter-entries section: the smallest cutoffs, where
# rows j <= 2 outgrow the table, a middle one, and the largest chains that
# yield-table and simulate run.
_ENTRY_CUTOFFS = (1, 2, 10, _YIELD_N_MAX, _SIMULATE_N_MAX)
_ENTRY_KAPPAS = (0.1, 0.7, 1.3, 1.5)


def _entries_section() -> dict:
    """Rows j <= 2 of the chains' splitter table against the per-sector
    exponential, at every cutoff and angle of the fixed grid.

    ``_splitter_entries`` builds every column, with c and s passed as
    arrays, one entry per angle, as the chains pass them.  Its entry
    v[j, o, n] = <o, n| U |o + n - j, j> is entry [o, o + n - j] of block
    o + n of ``_sector_blocks``, and 0 where o + n is above the cutoff or
    below j.
    """
    worst = None
    for cutoff in _ENTRY_CUTOFFS:
        v = _splitter_entries(cutoff, np.cos(_ENTRY_KAPPAS),
                              np.sin(_ENTRY_KAPPAS), 2)
        o, n = np.ogrid[:cutoff + 1, :cutoff + 1]
        m = np.minimum(o + n, cutoff)  # clipped: the mask drops the rest
        for kappa, rows in zip(_ENTRY_KAPPAS, v.swapaxes(0, 1)):
            stack = _sector_blocks(cutoff, kappa)
            for j, row in enumerate(rows):
                want = np.where((o + n <= cutoff) & (m >= j),
                                stack[m, o, np.maximum(m - j, 0)], 0.0)
                worst = _worst(worst, np.abs(row - want).ravel(), cutoff,
                               kappa, j)
    dev, cutoff, kappa, j, i = worst
    return _oracle_section(
        "splitter_entries_vs_sector_exponential",
        len(_ENTRY_CUTOFFS) * len(_ENTRY_KAPPAS), dev,
        {"cutoff": cutoff, "kappa": kappa, "j": j,
         "ket": list(divmod(i, cutoff + 1))})


def _cmd_oracle_check(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    if args.trials < 1:
        raise InputError("--trials must be >= 1")
    rng = np.random.default_rng(args.seed)

    block_worst = None
    for trial in range(args.trials):
        k = int(rng.integers(1, 7))
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.05, 1.0)
        state = _random_eigenstate(rng, k - 1)
        outcome = run_block_single(state, BlockParams(theta, phi, t))
        expected = amplitude_factor_single(k, t) * apply_linear_factor(
            with_cutoff(state, k), theta, phi
        )
        block_worst = _worst(block_worst,
                             np.abs(outcome.state.amps - expected.amps),
                             trial, k, t)
    block_max, trial, k, t, i = block_worst
    block_section = _oracle_section(
        "block_vs_closed_form_amplitude", args.trials, block_max,
        {"trial": trial, "k": k, "transmittance": float(t),
         "ket": [int(n[i]) for n in _basis(2, k)[0]]})

    sections = [block_section, _entries_section()]
    all_pass = all(section["pass"] for section in sections)
    report = {
        "command": "oracle-check",
        "seed": args.seed,
        "trials": args.trials,
        "kappas": list(_ENTRY_KAPPAS),
        "tolerance": _ORACLE_TOL,
        "sections": sections,
        "status": "pass" if all_pass else "fail",
    }
    return _write_checked(report, args.out)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="pathent",
        description="Factor, simulate, and analyze conditional generation "
                    "of two-mode path-entangled photon states.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser(
        "factorize",
        help="decompose a target state file into photon-adding factor angles",
    )
    p.add_argument("target", help="JSON file with fields N and coeffs")
    _add_out(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser(
        "simulate",
        help="run the chained conditional scheme for a target state file",
    )
    p.add_argument("target", help="JSON file with fields N and coeffs")
    p.add_argument("--double", action="store_true",
                   help="use two-photon blocks (even-N NOON targets only)")
    p.add_argument("--schedule", default="optimal", metavar="SCHED",
                   help="'optimal' or comma-separated transmittances, "
                        "one per block (default: optimal)")
    _add_out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "yield-table",
        help="emit closed-form and simulated yields as CSV",
    )
    p.add_argument("n_max", type=int,
                   help=f"largest photon number (1..{_YIELD_N_MAX})")
    _add_out(p)
    p.set_defaults(func=_cmd_yield_table)

    p = sub.add_parser(
        "fringe",
        help="emit an absorption-rate phase sweep as CSV",
    )
    p.add_argument("n", type=int, help="photon number of the target (1..8)")
    p.add_argument("points", type=int,
                   help="phase samples over [0, 2pi); at least max(8, 2n+1) "
                        "and at most 65536")
    _add_out(p)
    p.set_defaults(func=_cmd_fringe)

    p = sub.add_parser(
        "oracle-check",
        help="compare independent computation routes on random instances",
    )
    p.add_argument("--seed", type=int, default=1,
                   help="random seed (default: 1)")
    p.add_argument("--trials", type=int, default=100,
                   help="random blocks checked against their closed form "
                        "(default: 100)")
    _add_out(p)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold usage
        # errors into the validation exit code.
        return 0 if (exc.code or 0) == 0 else 1
    try:
        return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
