"""Acceptance gate: the eleven end-to-end checks the package must satisfy.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion.  Each criterion also hard-asserts, so a
plain pytest run fails loudly on any regression.
"""

import math

import numpy as np
import pytest

from pathent import cli
from pathent.blocks import (
    BlockParams,
    amplitude_factor_single,
    run_block_single,
    run_scheme,
    run_scheme_double,
    run_scheme_unconditional,
)
from pathent.factorize import (
    factorize_target,
    noon_factor_angles,
    state_of_target,
)
from pathent.fock import (
    TwoModeDensity,
    apply_linear_factor,
    beam_splitter_pair_exact,
    beam_splitter_pair_oracle,
    noon_state,
    overlap_fidelity,
    with_cutoff,
)
from pathent.litho import (
    absorption_rate_mixed,
    absorption_rate_pure,
    dominant_fringe_frequency,
    fringe_sweep,
)
from pathent.yields import (
    qk_squared,
    yield_generic,
    yield_noon_double,
    yield_noon_single,
    yield_stirling,
)
from helpers import (
    random_eigenstate,
    random_four_mode_state,
    random_target,
    rel_err,
)


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:02d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_noon4_single_yield():
    res = run_scheme(noon_factor_angles(4))
    yield_err = rel_err(res.total_yield, 3.0 / 256.0)
    fid = overlap_fidelity(res.final_state, noon_state(4))
    _criterion(
        1,
        "4-photon single-photon scheme yields 3/256 with unit fidelity",
        yield_err <= 1e-9 and fid >= 1.0 - 1e-9,
        f"yield rel err {yield_err:.2e}, fidelity {fid:.12f}",
    )


def test_criterion_02_noon4_double_yield():
    single = run_scheme(noon_factor_angles(4)).total_yield
    double = run_scheme_double(4).total_yield
    yield_err = rel_err(double, 3.0 / 16.0)
    ratio_err = rel_err(double / single, 16.0)
    prior_art_gain = double / (3.0 / 64.0)
    _criterion(
        2,
        "4-photon two-photon scheme yields 3/16, 16x the single-photon "
        "scheme and 4x the older 3/64 protocol",
        yield_err <= 1e-9
        and ratio_err <= 1e-9
        and rel_err(prior_art_gain, 4.0) <= 1e-9,
        f"yield rel err {yield_err:.2e}, ratio {double / single:.9f}, "
        f"gain {prior_art_gain:.9f}",
    )


def test_criterion_03_closed_form_yields():
    worst_single = 0.0
    worst_double = 0.0
    for n in range(1, 7):
        simulated = run_scheme(noon_factor_angles(n)).total_yield
        closed = math.factorial(n - 1) * (2.0 * n) ** (1 - n)
        worst_single = max(worst_single, rel_err(simulated, closed))
        if n % 2 == 0:
            doubled = run_scheme_double(n).total_yield
            worst_double = max(
                worst_double, rel_err(doubled, 2.0 ** n * closed)
            )
    _criterion(
        3,
        "simulated yields match (N-1)!(2N)^(1-N) for N=1..6 and "
        "2^N times that for doubled even N",
        worst_single <= 1e-9 and worst_double <= 1e-9,
        f"worst single rel err {worst_single:.2e}, "
        f"worst doubled rel err {worst_double:.2e}",
    )


def test_criterion_04_block_closed_form():
    rng = np.random.default_rng(1404)
    worst = 0.0
    for _ in range(60):
        k = int(rng.integers(1, 7))
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.05, 1.0)
        state = random_eigenstate(rng, k - 1)
        out = run_block_single(state, BlockParams(theta, phi, t))
        kappa = math.asin(math.sqrt(t))
        q_k = math.cos(kappa) ** (k - 1) * math.sin(kappa)
        assert math.isclose(q_k, amplitude_factor_single(k, t), rel_tol=1e-12)
        expected = q_k * apply_linear_factor(with_cutoff(state, k), theta, phi)
        worst = max(worst, float(np.abs(out.state.amps - expected.amps).max()))
    _criterion(
        4,
        "conditional block output equals (cos kappa)^(k-1) sin kappa times "
        "the photon-adding factor on 60 random eigenstate inputs",
        worst <= 1e-9,
        f"worst amplitude deviation {worst:.2e}",
    )


def test_criterion_05_optimal_transmittance():
    grid = np.arange(1, 1001) / 1000.0
    argmax_ok = True
    deriv_ok = True
    worst_gap = 0.0
    worst_deriv = 0.0
    h = 1e-5
    for k in range(1, 11):
        values = np.array([qk_squared(float(t), k) for t in grid])
        best = float(grid[int(np.argmax(values))])
        gap = abs(best - 1.0 / k)
        worst_gap = max(worst_gap, gap)
        argmax_ok = argmax_ok and gap <= 1e-3 + 1e-12
        if k >= 2:
            # 1/k is interior, so the stationarity condition applies
            deriv = (qk_squared(1.0 / k + h, k) - qk_squared(1.0 / k - h, k)) / (
                2.0 * h
            )
            worst_deriv = max(worst_deriv, abs(deriv))
            deriv_ok = deriv_ok and abs(deriv) < 1e-6
    _criterion(
        5,
        "T=1/k maximizes the block success probability for k=1..10 "
        "(grid step 1e-3; interior stationarity for k>=2, k=1 optimum "
        "sits on the T=1 boundary)",
        argmax_ok and deriv_ok,
        f"worst argmax gap {worst_gap:.1e}, worst |dP/dT| {worst_deriv:.1e}",
    )


def test_criterion_06_beam_splitter_routes_agree():
    rng = np.random.default_rng(1406)
    kappas = (0.1, 0.7, 1.3)
    trials = 34
    worst = 0.0
    for _ in range(trials):
        state = random_four_mode_state(rng, 8)
        for kappa in kappas:
            fast = beam_splitter_pair_exact(state, kappa)
            slow = beam_splitter_pair_oracle(state, kappa)
            worst = max(worst, float(np.abs(fast.amps - slow.amps).max()))
    _criterion(
        6,
        "per-sector and dense matrix-exponential beam splitter routes "
        f"agree on {trials * len(kappas)} random four-mode states",
        worst <= 1e-9,
        f"worst amplitude deviation {worst:.2e}",
    )


def test_criterion_07_factorization_round_trip():
    rng = np.random.default_rng(1407)
    worst_fidelity = 1.0
    worst_yield_err = 0.0
    for i in range(50):
        n = 2 + i % 7
        target = random_target(rng, n)
        fs = factorize_target(target)
        res = run_scheme(fs)
        fid = overlap_fidelity(res.final_state, state_of_target(target))
        worst_fidelity = min(worst_fidelity, fid)
        worst_yield_err = max(
            worst_yield_err,
            rel_err(res.total_yield, yield_generic(fs.normalization, n)),
        )
    _criterion(
        7,
        "50 random targets (N=2..8) factorize and regenerate with fidelity "
        ">= 1-1e-9 and yield = normalization * N^-N",
        worst_fidelity >= 1.0 - 1e-9 and worst_yield_err <= 1e-9,
        f"worst fidelity {worst_fidelity:.12f}, "
        f"worst yield rel err {worst_yield_err:.2e}",
    )


def test_criterion_08_unconditional_output_structure():
    rng = np.random.default_rng(1408)
    ok = True
    details = []
    for n in (2, 3, 4):
        target = random_target(rng, n)
        fs = factorize_target(target)
        rho = run_scheme_unconditional(fs)
        res = run_scheme(fs)

        projector = res.total_yield * np.outer(
            res.final_state.amps, res.final_state.amps.conj()
        )
        sector_dev = float(np.abs(rho.sector(n) - projector).max())

        failed = rho.blocks.copy()
        failed[n] = 0.0
        complement = TwoModeDensity.from_sectors(failed)
        comp_trace_dev = abs(complement.trace() - (1.0 - res.total_yield))
        comp_in_sector = complement.sector_weight(n)

        pure_rate = absorption_rate_pure(res.final_state, n)
        mixed_rate = absorption_rate_mixed(rho, n)
        rate_err = rel_err(mixed_rate, res.total_yield * pure_rate)

        ok = (
            ok
            and sector_dev <= 1e-9
            and comp_trace_dev <= 1e-9
            and comp_in_sector <= 1e-9
            and rate_err <= 1e-9
        )
        details.append(
            f"N={n}: sector dev {sector_dev:.1e}, rate rel err {rate_err:.1e}"
        )
    _criterion(
        8,
        "keeping all ancilla outcomes yields the target projector (weight "
        "= yield) in the top sector, lower sectors elsewhere, and the "
        "N-photon absorption rate scales by the yield",
        ok,
        "; ".join(details),
    )


def test_criterion_09_fringe_resolution():
    freqs = []
    for n in range(1, 7):
        sweep = fringe_sweep(noon_state(n), n, 64)
        freqs.append(dominant_fringe_frequency(sweep))
    _criterion(
        9,
        "N-photon absorption fringe of the N-photon path-entangled state "
        "oscillates exactly N times per phase cycle, N=1..6",
        freqs == [1, 2, 3, 4, 5, 6],
        f"dominant frequencies {freqs}",
    )


def test_criterion_10_stirling_asymptote():
    errs = {n: rel_err(yield_stirling(n), yield_noon_single(n))
            for n in range(12, 25)}
    ok = all(e <= 0.05 for e in errs.values()) and errs[20] <= 0.01
    _criterion(
        10,
        "the closed-form large-N yield approximation tracks the exact "
        "yield within 5% for N>=12 and 1% at N=20",
        ok,
        f"err(12) {errs[12]:.3f}, err(20) {errs[20]:.4f}",
    )


def test_criterion_11_doubled_formula_adjudication(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli.main(["yield-table", "6", "--out", str(out)])
    capsys.readouterr()
    text = out.read_text()
    recorded = code == 0 and "confirmed_reading=factorial" in text

    value_err = rel_err(yield_noon_double(4), 3.0 / 16.0)
    ratio_errs = [
        rel_err(yield_noon_double(n) / yield_noon_single(n), 2.0 ** n)
        for n in (2, 4, 6)
    ]
    _criterion(
        11,
        "the yield table records the simulation-confirmed doubled-yield "
        "formula, which gives 3/16 at N=4 and the 2^N ratio at N=2,4,6",
        recorded and value_err <= 1e-9 and max(ratio_errs) <= 1e-9,
        f"value rel err {value_err:.2e}, "
        f"worst ratio rel err {max(ratio_errs):.2e}",
    )
