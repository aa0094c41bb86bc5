"""Tests of the benchmark itself: inputs, checks and the printed metrics.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pathent  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Runner, generate  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _files(path) -> list[str]:
    return sorted(os.listdir(path))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    plan_a = generate(workload, 7, str(a))
    generate(workload, 7, str(b))
    plan_c = generate(workload, 8, str(c))
    assert _files(a) == _files(b)
    match, mismatch, errors = filecmp.cmpfiles(a, b, _files(a), shallow=False)
    assert mismatch == [] and errors == []
    # Another seed draws other values but keeps photon numbers and order.
    assert filecmp.cmpfiles(a, c, _files(a), shallow=False)[1]
    assert [t["kind"] for t in plan_a["tasks"]] == \
        [t["kind"] for t in plan_c["tasks"]]
    for name in _files(a):
        if name.endswith(".json") and name != "plan.json":
            with open(a / name) as fa, open(c / name) as fc:
                assert json.load(fa)["N"] == json.load(fc)["N"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_min_tasks_are_whole_cycles(workload, tmp_path):
    plan = generate(workload, 1, str(tmp_path))
    assert plan["min_tasks"] > 0 and plan["min_tasks"] % plan["cycle"] == 0


def test_reference_does_not_use_the_program():
    code = ("import sys, reference; t = reference.reference(); "
            "print(t > 0, any(m.split('.')[0] == 'pathent' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["True", "False"], proc.stderr


def test_oracle_angles_are_fresh_and_cover_every_path(tmp_path):
    plan = generate("oracle_audit", 3, str(tmp_path))
    kappas = [t["kappa"] for t in plan["warmup"] + plan["tasks"]]
    assert len(set(kappas)) == len(kappas)
    assert all(0.0 < k < math.pi / 2.0 for k in kappas)
    assert any(k > math.pi / 4.0 + 1e-9 for k in kappas)
    swap = [k for k in kappas if math.pi / 2.0 - k < 1e-12]
    assert swap and all(abs(math.cos(k)) < 1e-12 for k in swap)


def _runner(tmp_path, monkeypatch, workload, tasks, seed=5):
    """A Runner over hand-made tasks, in a directory generated for ``seed``."""
    monkeypatch.chdir(tmp_path)
    plan = generate(workload, seed, str(tmp_path))
    plan["warmup"], plan["tasks"] = [], tasks
    return Runner(plan)


def _write_target(tmp_path, name, coeffs):
    with open(tmp_path / name, "w") as fh:
        json.dump({"N": len(coeffs) - 1, "coeffs": coeffs}, fh)
    return name


@pytest.mark.parametrize("kind", ["oracle_below_quarter", "oracle_half_angle",
                                  "oracle_swap"])
def test_oracle_check_rejects_offset_angle(kind, tmp_path, monkeypatch):
    plan = generate("oracle_audit", 5, str(tmp_path))
    task = next(t for t in plan["tasks"] if t["kind"] == kind and t["k"] > 1)
    runner = _runner(tmp_path, monkeypatch, "oracle_audit", [task])
    fast, slow, block = runner.run(task)
    assert runner.check(task, (fast, slow, block)) is None
    k = task["k"]
    off = SimpleNamespace(state=block.state + pathent.basis_state(k, 1, k - 1) * 1e-6)
    assert runner.check(task, (fast, slow, off)) is not None
    # Offset the angle of the fast route only, as oracle-check --perturb does.
    exact = pathent.beam_splitter_pair_exact
    monkeypatch.setattr(pathent, "beam_splitter_pair_exact",
                        lambda state, kappa: exact(state, kappa + 1e-6))
    assert runner.check(task, runner.run(task)) is not None


def _perturb_json(text, edit):
    rep = json.loads(text)
    edit(rep)
    return json.dumps(rep)


def test_simulate_check_rejects_perturbed_report(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    name = _write_target(tmp_path, "t5.json", workloads._random_coeffs(rng, 5))
    noon = _write_target(tmp_path, "noon4.json", workloads._noon_coeffs(4))
    tasks = [{"kind": "simulate_generic", "argv": ["simulate", name]},
             {"kind": "simulate_noon", "argv": ["simulate", noon]},
             {"kind": "simulate_noon_double",
              "argv": ["simulate", noon, "--double"]}]
    runner = _runner(tmp_path, monkeypatch, "chain_large", tasks)

    def bump_amplitude(rep):
        rep["final_state"][0]["amplitude"][0] += 1e-6

    def bump_yield(rep):
        rep["total_yield"] *= 1.0 + 1e-6

    for task in tasks:
        code, text = runner.run(task)
        assert runner.check(task, (code, text)) is None
        for edit in (bump_amplitude, bump_yield):
            assert runner.check(task, (code, _perturb_json(text, edit)))
        assert runner.check(task, (1, text)) == "exit code 1"


def test_factorize_check_rejects_perturbed_angle(tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    name = _write_target(tmp_path, "t24.json", workloads._random_coeffs(rng, 24))
    task = {"kind": "factorize", "argv": ["factorize", name]}
    runner = _runner(tmp_path, monkeypatch, "small_batch", [task])
    code, text = runner.run(task)
    assert runner.check(task, (code, text)) is None

    def bump_theta(rep):
        rep["factors"][3]["theta"] += 1e-6

    assert runner.check(task, (code, _perturb_json(text, bump_theta)))


def _perturb_csv(text, row, col, factor):
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    cells = lines[data[row]].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_table_checks_reject_perturbed_rows(tmp_path, monkeypatch):
    fringe = {"kind": "fringe", "argv": ["fringe", "4", "64"]}
    table = {"kind": "yield_table", "argv": ["yield-table", "8"]}
    runner = _runner(tmp_path, monkeypatch, "small_batch", [fringe, table])
    code, text = runner.run(fringe)
    assert runner.check(fringe, (code, text)) is None
    assert runner.check(fringe, (code, _perturb_csv(text, 9, 1, 1.0 + 1e-6)))
    code, text = runner.run(table)
    assert runner.check(table, (code, text)) is None
    assert runner.check(table, (code, _perturb_csv(text, 5, 2, 1.0 + 1e-8)))
    assert runner.check(table, (code, _perturb_csv(text, 3, 6, 1.0 + 1e-8)))


def test_unconditioned_check_rejects_perturbed_state(tmp_path, monkeypatch):
    plan = generate("unconditioned", 5, str(tmp_path))
    task = plan["tasks"][0]
    runner = _runner(tmp_path, monkeypatch, "unconditioned", [task])
    target, fs, rho, rate = runner.run(task)
    assert runner.check(task, (target, fs, rho, rate)) is None
    assert runner.check(task, (target, fs, rho, rate * (1.0 + 1e-6)))
    scaled = type(rho)(rho.cutoff, rho.mat * (1.0 + 1e-6))
    assert runner.check(task, (target, fs, scaled, rate))


def _run_benchmark(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _run_benchmark(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = _benchmark_json()["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run_benchmark(ROOT, "small_batch", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    spec = bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"] and metric["value"] > 0
    # Only the repeated-root factorize tasks fail: two in each cycle of 22.
    assert result["failed"] > 0 and result["correct"] is True
    context = [line for line in proc.stdout.splitlines()
               if line.startswith("# known_defect_failures:")]
    assert context == [f"# known_defect_failures: {result['failed']}"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, "small_batch", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
