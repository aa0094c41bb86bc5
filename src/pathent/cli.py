"""Batch command-line front end.

Subcommands: ``factorize`` (target file -> factor angles), ``simulate``
(target file -> full scheme run report), ``yield-table`` (closed-form and
simulated yields as CSV), ``fringe`` (phase sweep of the N-photon
absorption rate as CSV), and ``oracle-check`` (randomized agreement checks
between independent computation routes).

Conventions shared by all commands:
  * reports are structured text (JSON), tables are comma-separated, and
    every float is printed with 17 significant digits so values round-trip
    exactly;
  * complex numbers appear as [re, im] pairs;
  * output is byte-deterministic for identical inputs and seeds (no
    timestamps, hostnames, or file paths in any report body);
  * exit codes: 0 success, 1 validation or parse error, 2 numerical
    tolerance failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from .blocks import (
    BlockParams,
    amplitude_factor_single,
    noon_double_phases,
    run_block_single,
    run_scheme,
    run_scheme_double,
)
from .factorize import (
    TargetSpec,
    _wrap_angle,
    _coeff_norm,
    factorize_target,
    noon_factor_angles,
    reconstruct,
    state_of_target,
)
from .fock import (
    TwoModeState,
    _basis,
    apply_linear_factor,
    beam_splitter_pair_exact,
    beam_splitter_pair_oracle,
    dim2,
    dim4,
    FourModeState,
    noon_state,
    overlap_fidelity,
    with_cutoff,
)
from .litho import dominant_fringe_frequency, fringe_sweep
from .yields import (
    optimal_schedule,
    yield_noon_double,
    yield_noon_double_linear,
    yield_table,
)

# Largest target photon number ``simulate`` accepts.  Each heralded block
# mixes a few columns of one two-mode simplex, so a chain's time grows about
# as N^4: on a 2-vCPU x86-64 host ``simulate`` on a NOON target takes about
# 0.6 s and 37 MB peak RSS at N = 64, of which the chain is 0.15 s.  The
# bound stays at 64 until the factors are applied in a well-conditioned
# order: in sorted order the partial products grow and cancel, and NOON
# targets already print spurious kets near 1e-10 at N = 64.
_SIMULATE_N_MAX = 64
_ORACLE_TOL = 1e-9
_ORACLE_KAPPAS = (0.1, 0.7, 1.3)
_NORM_WARN_TOL = 1e-6


class InputError(Exception):
    """Bad user input: maps to exit code 1."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _render(value, indent: str = "") -> str:
    """Render a report tree as JSON with fixed float formatting."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # JSON has no NaN or infinity
        return _f(value) if math.isfinite(value) else "null"
    if isinstance(value, (complex, np.complexfloating)):
        return f"[{_f(value.real)}, {_f(value.imag)}]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        parts = [
            f"{inner}{json.dumps(str(k))}: {_render(v, inner)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(
            isinstance(v, (bool, int, float, complex, str,
                           np.integer, np.floating, np.complexfloating))
            or v is None
            for v in items
        ):
            return "[" + ", ".join(_render(v) for v in items) + "]"
        inner = indent + "  "
        parts = [f"{inner}{_render(v, inner)}" for v in items]
        return "[\n" + ",\n".join(parts) + "\n" + indent + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


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
    coeffs = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in entry)
        ):
            raise InputError(
                f"target file: field 'coeffs[{i}]' must be a [re, im] pair "
                "of numbers"
            )
        try:
            c = complex(entry[0], entry[1])
        except OverflowError:  # an integer beyond the float range
            c = complex(math.inf)
        if not cmath.isfinite(c):
            raise InputError(f"target file: field 'coeffs[{i}]' must be finite")
        coeffs.append(c)
    norm = _coeff_norm(np.asarray(coeffs))
    if norm == 0.0:
        raise InputError("target file: field 'coeffs' is all zeros")
    if abs(norm - 1.0) > _NORM_WARN_TOL:
        print(
            f"warning: target coefficients have norm {_f(norm)}; "
            "re-normalizing",
            file=sys.stderr,
        )
    return TargetSpec(n, coeffs)


def _echo_target(target: TargetSpec) -> dict:
    return {
        "N": target.n_photons,
        "coeffs": [complex(c) for c in target.coeffs],
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_factorize(args) -> int:
    target = _load_target(args.target)
    fs = factorize_target(target)
    recon = reconstruct(fs)
    fidelity = overlap_fidelity(recon, state_of_target(target))
    report = {
        "command": "factorize",
        "target": _echo_target(target),
        "factors": [
            {"theta": theta, "phi": phi} for theta, phi in fs.factors
        ],
        "normalization": fs.normalization,
        "global_phase": complex(fs.global_phase),
        "round_trip_fidelity": fidelity,
    }
    _write_output(_render(report) + "\n", args.out)
    return 0


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


def _state_entries(state: TwoModeState) -> list[dict]:
    return [
        {"ket": [na, nb], "amplitude": amp}
        for na, nb, amp in state.nonzero_amplitudes()
    ]


def _cmd_simulate(args) -> int:
    target = _load_target(args.target)
    n = target.n_photons
    if n > _SIMULATE_N_MAX:
        raise InputError(f"target file: field 'N' must be at most "
                         f"{_SIMULATE_N_MAX} for simulate, got {n}")
    target_state = state_of_target(target)
    if args.double:
        if n % 2 != 0:
            raise InputError("--double requires an even photon number")
        if overlap_fidelity(target_state, noon_state(n)) < 1.0 - 1e-6:
            raise InputError(
                "--double supports only maximally path-entangled "
                "(|N,0>+|0,N>)/sqrt(2) targets"
            )
        schedule = _parse_schedule(args.schedule, n // 2)
        phis = noon_double_phases(n)
        result = run_scheme_double(n, phis, schedule)
        factors = []
        for phi in phis:
            factors.append({"theta": math.pi / 4.0, "phi": phi})
            factors.append({"theta": math.pi / 4.0, "phi": _wrap_angle(phi + math.pi)})
    else:
        fs = factorize_target(target)
        schedule = _parse_schedule(args.schedule, n)
        result = run_scheme(fs, schedule)
        factors = [{"theta": theta, "phi": phi} for theta, phi in fs.factors]
    if result.impossible:
        fidelity = None
        final_entries: list[dict] = []
    else:
        fidelity = overlap_fidelity(result.final_state, target_state)
        final_entries = _state_entries(result.final_state)
    report = {
        "command": "simulate",
        "target": _echo_target(target),
        "double": bool(args.double),
        "schedule": schedule,
        "factors": factors,
        "blocks": [
            {"block": k, "transmittance": t, "probability": p}
            for k, (t, p) in enumerate(zip(schedule, result.block_probs), start=1)
        ],
        "total_yield": result.total_yield,
        "impossible": result.impossible,
        "final_state": final_entries,
        "fidelity_vs_target": fidelity,
    }
    _write_output(_render(report) + "\n", args.out)
    return 0


_SIM_N_MAX = 8


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
    if not 1 <= n_max <= 24:
        raise InputError("n_max must lie in 1..24")
    rows = yield_table(n_max)
    sim_single: dict[int, float] = {}
    sim_double: dict[int, float] = {}
    for n in range(1, min(n_max, _SIM_N_MAX) + 1):
        sim_single[n] = run_scheme(noon_factor_angles(n)).total_yield
        if n % 2 == 0:
            sim_double[n] = run_scheme_double(n).total_yield
    lines = [
        f"# closed-form and simulated heralding yields for "
        f"(|N,0>+|0,N>)/sqrt(2) targets, N = 1..{n_max}",
        f"# simulated columns cover N <= {_SIM_N_MAX}; empty cells mean "
        "not simulated or not applicable",
        f"# {_adjudicate_double_reading(sim_double)}",
        "N,p_single,p_single_simulated,p_stirling,p_double_factorial_form,"
        "p_double_linear_form,p_double_simulated,ratio_double_over_single",
    ]
    for row in rows:
        n = row.n_photons
        cells = [
            str(n),
            _f(row.p_single),
            _f(sim_single[n]) if n in sim_single else "",
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
    # The sweep holds every point at once, about 3 KB each at n = 8: the cap
    # peaks near 250 MB and runs in under 2 s (2-vCPU x86-64 host).
    if args.points > 65536:
        raise InputError(f"points must be <= 65536, got {args.points}")
    sweep = fringe_sweep(noon_state(n), n, args.points)
    freq = dominant_fringe_frequency(sweep)
    lines = [
        f"# {n}-photon absorption fringe of the (|{n},0>+|0,{n}>)/sqrt(2) "
        f"state, {args.points} phase samples on [0, 2pi)",
        f"# dominant_fourier_frequency={freq}",
        "phase,rate",
    ]
    for phi, rate in zip(sweep.phases, sweep.rates):
        lines.append(f"{_f(phi)},{_f(rate)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _random_four_mode_state(rng: np.random.Generator,
                            cutoff: int) -> FourModeState:
    v = rng.standard_normal(dim4(cutoff)) + 1j * rng.standard_normal(dim4(cutoff))
    return FourModeState(cutoff, v / np.linalg.norm(v))


def _random_eigenstate(rng: np.random.Generator, total: int) -> TwoModeState:
    """Normalized state with every populated ket at the given total."""
    amps = np.zeros(dim2(total), dtype=complex)
    table = _basis(2, total)[1]
    kets = [table[na, total - na] for na in range(total + 1)]
    v = rng.standard_normal(len(kets)) + 1j * rng.standard_normal(len(kets))
    amps[kets] = v / np.linalg.norm(v)
    return TwoModeState(total, amps)


def _cmd_oracle_check(args) -> int:
    if args.trials < 1:
        raise InputError("--trials must be >= 1")
    if not 1 <= args.cutoff <= 10:
        raise InputError("--cutoff must lie in 1..10")
    if not math.isfinite(args.perturb):
        raise InputError(f"--perturb must be finite, got {args.perturb}")
    rng = np.random.default_rng(args.seed)

    # (deviation, trial, kappa, ket index) of the largest deviation; the
    # first NaN outranks every number and then stays, failing the section
    worst = None
    for trial in range(args.trials):
        state = _random_four_mode_state(rng, args.cutoff)
        for kappa in _ORACLE_KAPPAS:
            fast = beam_splitter_pair_exact(state, kappa + args.perturb)
            slow = beam_splitter_pair_oracle(state, kappa)
            dev = np.abs(fast.amps - slow.amps)
            i = int(np.argmax(dev))  # the first NaN, if there is one
            if worst is None or (not dev[i] <= worst[0]
                                 and not math.isnan(worst[0])):
                worst = (float(dev[i]), trial, kappa, i)
    bs_max, trial, kappa, i = worst

    block_max = 0.0
    for _ in range(args.trials):
        k = int(rng.integers(1, 7))
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.05, 1.0)
        state = _random_eigenstate(rng, k - 1)
        outcome = run_block_single(state, BlockParams(theta, phi, t))
        expected = amplitude_factor_single(k, t) * apply_linear_factor(
            with_cutoff(state, k), theta, phi
        )
        block_max = float(np.maximum(
            block_max, np.abs(outcome.state.amps - expected.amps).max()))

    pair_section = {
        "name": "beam_splitter_pair_vs_matrix_exponential",
        "trials": args.trials * len(_ORACLE_KAPPAS),
        "max_deviation": bs_max,
        "pass": bs_max <= _ORACLE_TOL,
    }
    if not pair_section["pass"]:
        pair_section["worst"] = {
            "trial": trial,
            "kappa": kappa,
            "ket": [int(n[i]) for n in _basis(4, args.cutoff)[0]],
        }
    sections = [
        pair_section,
        {
            "name": "block_vs_closed_form_amplitude",
            "trials": args.trials,
            "max_deviation": block_max,
            "pass": block_max <= _ORACLE_TOL,
        },
    ]
    all_pass = all(section["pass"] for section in sections)
    report = {
        "command": "oracle-check",
        "seed": args.seed,
        "trials": args.trials,
        "cutoff": args.cutoff,
        "kappas": list(_ORACLE_KAPPAS),
        "perturb": args.perturb,
        "tolerance": _ORACLE_TOL,
        "sections": sections,
        "status": "pass" if all_pass else "fail",
    }
    _write_output(_render(report) + "\n", args.out)
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("n_max", type=int, help="largest photon number (1..24)")
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
                   help="random instances per section (default: 100)")
    p.add_argument("--cutoff", type=int, default=8,
                   help="total-photon cutoff for random states (default: 8)")
    p.add_argument("--perturb", type=float, default=0.0, metavar="EPS",
                   help="test hook: offset the mixing angle in the fast "
                        "route only, forcing a mismatch; a failing section "
                        "names the trial, angle and [n_a, n_b, n_c, n_d] "
                        "ket of its largest deviation")
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
