"""Run one workload of the pathent benchmark and print its metrics.

    python3 perfbench/run.py --workload chain_large --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The inputs of the run are generated from the seed into
``.bench_work/<workload>/`` before any timing.  Each measured process is a
fresh interpreter with OpenBLAS/OpenMP pinned to one thread, and only one
runs at a time: a closed loop with one caller.

--trace 0 prints the end-to-end metrics:
  setup_s      median over several fresh set-up-only processes of the time
               from interpreter start to ready (import pathent.cli plus
               one untimed warm-up task of each task kind)
  task_p50_s   median wall time of one task, after set-up
  tasks_per_s  tasks completed / summed task wall time
  peak_rss_mb  peak resident memory of the measuring process after a fixed
               number of tasks (workloads.MIN_TASKS)
--trace 1 runs untraced for half the time, then traced for as many tasks,
and prints per-layer metrics per traced task (see BENCHMARK.json).

The three times are given at a fixed machine speed.  The shared host's speed
drifts by tens of percent within minutes, which moved raw medians between
runs of the same code by more than the bounds, and it also moves within a
run.  The measuring process therefore times a fixed reference computation
(reference.py) between its tasks, about every half second.  Each task time
t is reported as t * REF_NOMINAL_S / r, where r is the median of the
_LOCAL_REFS reference samples around the one taken last before the task:
seconds on a machine where the reference takes REF_NOMINAL_S.  Each set-up
sample is scaled likewise by the mean of two reference timings that this
process takes just before and just after it.  The raw times and the
reference timings are printed as context.

Every task's output is checked against the package's closed forms at 1e-9.
``failed`` counts tasks that raised, exited non-zero or missed a check.  The
repeated-root factorize tasks of small_batch miss the 1e-9 round trip on
every run (a known defect of the root finder); they are counted in
``failed``, and ``correct`` is false only when some other task fails.  Lines
before the final JSON line give context: the failed share, the environment,
the raw times and the reference timings.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
# One BLAS/OpenMP thread here too, set before numpy loads: this process
# times the reference, and idle BLAS threads would compete with the worker.
_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
os.environ.update(_PINNED)

from reference import REF_NOMINAL_S, reference  # noqa: E402
from workloads import KNOWN_DEFECT_KIND, WORKLOADS, generate  # noqa: E402

# Fresh set-up-only processes timed for setup_s.
SETUP_SAMPLES = {"chain_large": 3, "unconditioned": 5, "oracle_audit": 5,
                 "small_batch": 5}
# A run must end within 180 s; leave room for the last task and set-up.
_BUDGET_S = 170.0
# Reference samples (about half a second apart) whose median gives the
# machine's speed around a task.
_LOCAL_REFS = 7


def _worker(workdir, deadline, seconds=0.0, trace=0, setup_only=False):
    """Start one worker process, wait for it, return its JSON result."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(os.path.join(workdir, "worker.err"), "w") as err:
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=workdir, env=env,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        with open(os.path.join(workdir, "worker.err")) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


def _rate(records) -> float:
    return len(records) / sum(r[1] for r in records)


def _scaled(records, refs):
    """Task times at the reference speed.

    ``refs`` are (index of the next task, seconds) pairs in task order, the
    first taken before task 0.
    """
    times = [t for _, t in refs]
    k = min(_LOCAL_REFS, len(times))
    factors = []
    for i in range(len(times)):
        lo = min(max(i - k // 2, 0), len(times) - k)
        factors.append(REF_NOMINAL_S / statistics.median(times[lo:lo + k]))
    starts = [i for i, _ in refs]
    return [r[1] * factors[bisect.bisect_right(starts, j) - 1]
            for j, r in enumerate(records)]


def _setup_sample(workdir, deadline):
    """One set-up-only process: (seconds, seconds at the reference speed)."""
    before = reference()
    seconds = _worker(workdir, deadline, setup_only=True)["setup_s"]
    after = reference()
    return seconds, seconds * 2.0 * REF_NOMINAL_S / (before + after)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _per_layer(res) -> dict:
    units = {"calls": "calls/task", "self_s": "s/task", "amps": "amps/task",
             "nonzero_frac": "ratio", "task_s": "s/task"}
    metrics = {"cli.import_s": _metric(res["import_s"], "s")}
    for name, value in res["per_task"].items():
        metrics[name] = _metric(value, units[name.rsplit(".", 1)[1]])
    for name, value in res["caches"].items():
        metrics[name] = _metric(value, "count")
    metrics["trace.tasks_per_s"] = _metric(_rate(res["traced"]), "1/s")
    metrics["trace.untraced_tasks_per_s"] = _metric(_rate(res["untraced"]), "1/s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + _BUDGET_S
    # On SIGTERM, unwind so that _worker kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "pathent", "__init__.py")):
        print(f"no pathent package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    generate(args.workload, args.seed, workdir)

    setups = []
    reference()  # the first call pays one-time costs; leave it untimed
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES[args.workload]):
                setups.append(_setup_sample(workdir, deadline))
        res = _worker(workdir, deadline, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    records = res["records"]
    ref_times = [t for _, t in res["refs"]]
    failures = [r for r in records if r[2] is not None]
    unexpected = [r for r in failures if r[0] != KNOWN_DEFECT_KIND]
    raw = {
        "setup_s": [raw_s for raw_s, _ in setups],
        "measuring_setup_s": res["setup_s"],
        "task_p50_s": statistics.median(r[1] for r in records),
        "tasks_per_s": _rate(records),
    }
    if args.trace:
        metrics = _per_layer(res)
    else:
        scaled = _scaled(records, res["refs"])
        metrics = {
            "setup_s": _metric(statistics.median(s for _, s in setups), "s"),
            "task_p50_s": _metric(statistics.median(scaled), "s"),
            "tasks_per_s": _metric(len(scaled) / sum(scaled), "1/s"),
            "peak_rss_mb": _metric(res["peak_rss_mb_at_min"]
                                   or res["peak_rss_mb"], "MB"),
        }

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "tasks": len(records),
        "failed_frac": len(failures) / len(records),
        "known_defect_failures": len(failures) - len(unexpected),
        "raw": raw,
        "reference_s": {
            "nominal": REF_NOMINAL_S, "samples": len(ref_times),
            "median": statistics.median(ref_times),
            "min": min(ref_times), "max": max(ref_times)},
        "peak_rss_mb_at_end": res["peak_rss_mb"],
        "rss_cap_hit": res["rss_cap_hit"],
        "environment": res["environment"],
        "first_failures": sorted({f"{k}: {why}" for k, _, why in failures})[:5],
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"context": context, "metrics": metrics,
                   "records": records}, fh)
    for key, value in context.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not unexpected,
                      "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
