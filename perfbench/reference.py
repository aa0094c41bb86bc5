"""A fixed reference computation that measures the machine's current speed.

On a shared host the speed of one process drifts by tens of percent within
minutes, and different runs of a workload land on different speeds.  The
worker times ``reference()`` between its tasks; run.py divides each time it
reports by the median reference time around it and multiplies by
``REF_NOMINAL_S``.  The reference never calls ``pathent``, so a change to the
program moves the rescaled times as it moves wall time.

The reference is the sum of five short parts, each a kind of work the
workloads do: a tight interpreter loop, broader interpreter work (calls,
dicts, strings, JSON), small-array numpy calls, a gather over a complex
array the size of the N = 32 four-mode basis, and a small complex matrix
product.  None of them allocates large blocks, so the allocator state a
workload leaves behind does not change the reference's time.
"""

from __future__ import annotations

import json
import time

import numpy as np

REF_NOMINAL_S = 0.02   # roughly the reference's time on one 2.1 GHz Xeon vCPU
REF_EVERY_S = 0.5      # the worker takes a sample at most this often

_DIM = 58_905          # C(36, 4): the four-mode basis at cutoff 32
_rng = np.random.default_rng(0)
_VEC = _rng.standard_normal(_DIM) + 1j * _rng.standard_normal(_DIM)
_PERM = _rng.permutation(_DIM)
_BUF = (np.empty_like(_VEC), np.empty_like(_VEC))
_SMALL = _rng.standard_normal(30) + 1j * _rng.standard_normal(30)
_MAT = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_MAT_BUF = (np.empty_like(_MAT), np.empty_like(_MAT))
_DOC = [{"ket": [i, 30 - i], "amplitude": [0.1 * i, -0.2 * i], "name": f"k{i}"}
        for i in range(60)]


def _record(x, y=2):
    return {"a": x, "b": y, "s": f"{x}:{y}"}


def _interpreter() -> None:
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    out = []
    for i in range(1_500):
        d = _record(i)
        out.append(d["s"])
        d.get("c")
        sorted((3, 1, 2))
    for _ in range(2):
        json.loads(json.dumps(_DOC))
    ", ".join(out).split(",")


def _numpy() -> None:
    v = _SMALL
    for _ in range(400):
        v = np.sqrt(np.abs(v) + 1.0) * 0.5 + v[::-1] * 0.25
        float(np.vdot(v, v).real)
    a, b = _BUF
    np.copyto(a, _VEC)
    for _ in range(25):
        np.take(a, _PERM, out=b)
        a, b = b, a
    x, y = _MAT_BUF
    np.copyto(x, _MAT)
    for _ in range(12):
        np.matmul(_MAT, x, out=y)
        np.multiply(y, 0.01, out=x)


def reference() -> float:
    """Seconds taken by one run of the reference computation."""
    t0 = time.perf_counter()
    _interpreter()
    _numpy()
    return time.perf_counter() - t0
