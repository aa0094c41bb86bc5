"""One benchmark process: set up, then run a closed loop of tasks.

run.py starts this script with the working directory set to the run's
input directory and ``PYTHONPATH`` set to the checkout's ``src``.  Set-up is
``import pathent.cli`` plus one untimed warm-up task of each task kind; its
duration is counted from ``--spawned-at``, the parent's ``time.monotonic()``
just before it started this interpreter.  With ``--setup-only`` the process
stops there.  Otherwise one caller runs tasks back to back for
``--seconds``, checking each output, and prints one JSON line.

The loop also times the fixed reference computation of reference.py
between tasks, at most every ``REF_EVERY_S`` seconds; run.py uses these
timings to give times at a fixed machine speed.

With ``--trace 1`` the loop runs untraced for half the time, then traced for
as many tasks again, so the two rates give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

# A run stops early rather than push the shared machine past this peak RSS
# (oracle_audit's pair-unitary cache grows ~3.9 MB per task).
_RSS_CAP_MB = 2048.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(runner, tasks, cycle, start, seconds=None, count=None,
          min_count=0, tracer=None, rss_at=None):
    """Run tasks[start:] cyclically, by time or by count; one record each.

    A timed loop runs at least ``min_count`` tasks and ends on a whole cycle
    of task kinds, so every run has the same mix of kinds.  A record is
    (kind, task seconds, failure reason or None).  Checks run after the
    clock stops and outside any trace.  Returns the records, the reference
    timings taken between tasks as (index of the next task, seconds), and
    the peak RSS once ``rss_at`` tasks had run (None if fewer ran).
    """
    from reference import REF_EVERY_S, reference

    reference()  # the first call pays one-time costs; leave it untimed
    records, refs, rss = [], [], None
    deadline = time.perf_counter() + seconds if seconds is not None else None
    next_ref = 0.0
    i = start
    while True:
        if count is not None and len(records) >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline \
                and len(records) >= min_count and len(records) % cycle == 0:
            break
        if time.perf_counter() >= next_ref:
            refs.append((len(records), reference()))
            next_ref = time.perf_counter() + REF_EVERY_S
        task = tasks[i % len(tasks)]
        span = tracer.task(i, task["kind"]) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                output = runner.run(task)
        except Exception:  # a failed task is counted, not fatal
            elapsed = time.perf_counter() - t0
            reason = traceback.format_exc(limit=2).strip().splitlines()[-1]
        else:
            elapsed = time.perf_counter() - t0
            try:
                reason = runner.check(task, output)
            except Exception:
                reason = "check raised: " + traceback.format_exc(
                    limit=2).strip().splitlines()[-1]
        records.append((task["kind"], elapsed, reason))
        i += 1
        if len(records) == rss_at:
            rss = _peak_rss_mb()
        if _peak_rss_mb() > _RSS_CAP_MB:
            break
    return records, refs, rss


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = {
        lib: mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        for lib, mod in (("numpy", np), ("scipy", scipy))
    }
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {lib: f"{b.get('name')} {b.get('version')}"
                     for lib, b in blas.items()},
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import pathent.cli
    import_s = time.perf_counter() - t0
    import pathent

    src = os.path.realpath(args.src)
    if not os.path.realpath(pathent.__file__).startswith(src + os.sep):
        print(f"pathent imported from {pathent.__file__}, not {src}",
              file=sys.stderr)
        return 3

    import tracing
    import workloads

    with open("plan.json") as fh:
        plan = json.load(fh)
    runner = workloads.Runner(plan)
    for task in plan["warmup"]:
        runner.run(task)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tasks, cycle = plan["tasks"], plan["cycle"]
    min_count = plan["min_tasks"]
    result = {"setup_s": setup_s, "import_s": import_s,
              "environment": _environment()}
    if not args.trace:
        records, refs, rss = _loop(runner, tasks, cycle, 0, seconds=args.seconds,
                                   min_count=min_count, rss_at=min_count)
        result.update(records=records, refs=refs, peak_rss_mb_at_min=rss)
    else:
        untraced, refs, _ = _loop(runner, tasks, cycle, 0,
                                  seconds=args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install(pathent)
        try:
            traced, _, _ = _loop(runner, tasks, cycle, len(untraced),
                                 count=len(untraced), tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans("spans.csv")
        result.update(records=untraced + traced, untraced=untraced,
                      traced=traced, refs=refs, per_task=tracer.per_task(),
                      caches=tracing.cache_counters(pathent))
    result["peak_rss_mb"] = _peak_rss_mb()
    result["rss_cap_hit"] = result["peak_rss_mb"] > _RSS_CAP_MB
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
