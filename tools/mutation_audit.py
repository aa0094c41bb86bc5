"""Mutation audit: every listed source mutation must fail the tier-1 tests.

Usage: python tools/mutation_audit.py [MUTATIONS_JSON]

Each entry of the list (default: tools/mutations.json next to this file)
names a file of the repository, an exact old text, the new text that
replaces it and a label.  The audit copies the repository into a temporary
directory once per run, first runs ``python -m pytest -x -q tests`` on the
unchanged copy, then applies each mutation alone to a fresh copy of the
file and runs the tests again.  A mutation is killed when the tests fail.

It prints one JSON report: the baseline run, one row per mutation (label,
path, whether its old text occurs exactly once, killed or survived, and
seconds) and ``status``, which is "pass" only if the baseline passes, every
old text occurs exactly once and every mutation is killed.  The exit code is
0 on pass and 1 otherwise.  The audit is not part of tier-1: it runs the
suite once per mutation, a few minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                               ".benchmarks", ".bench_work", ".bench_build")
# A mutation that makes the suite hang counts as killed after this long.
_TIMEOUT_S = 900


def _run_tests(copy: str) -> tuple[bool, float]:
    """Whether tier-1 passes in ``copy``, with -x, and the seconds it took.

    No bytecode is written: a cached module compiled from a mutated file
    could otherwise be taken for its restored text of the same size.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "tests"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=_TIMEOUT_S)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, round(time.perf_counter() - start, 1)


def audit(mutations: list[dict]) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutation_audit_") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        passed, seconds = _run_tests(copy)
        rows = []
        for m in mutations:
            path = os.path.join(copy, m["path"])
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            row = {"label": m["label"], "path": m["path"],
                   "found_once": original.count(m["old"]) == 1,
                   "killed": None, "seconds": None}
            if row["found_once"]:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original.replace(m["old"], m["new"]))
                try:
                    survived, row["seconds"] = _run_tests(copy)
                finally:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(original)
                row["killed"] = not survived
            rows.append(row)
    ok = passed and all(r["found_once"] and r["killed"] for r in rows)
    return {"baseline": {"passed": passed, "seconds": seconds},
            "mutations": rows, "status": "pass" if ok else "fail"}


def main(argv: list[str]) -> int:
    path = argv[0] if argv else os.path.join(ROOT, "tools", "mutations.json")
    with open(path, encoding="utf-8") as fh:
        report = audit(json.load(fh))
    print(json.dumps(report, indent=2))
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
