"""Inputs, tasks and output checks of the four pathent benchmark workloads.

``generate(workload, seed, workdir)`` writes every input of one run (target
JSON files, CLI argument lists, random four-mode states) before timing
starts.  The seed draws coefficients, phases and angles only; photon numbers
and the order of task kinds are fixed per workload, so every seed does the
same work and a claim can be re-checked on a seed not used while writing it.

``Runner`` executes one task through the public API or CLI of ``pathent``
and checks its output against the package's closed forms at 1e-9.  It is
imported only after ``pathent.cli``, so the worker can time that import.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os

import numpy as np

WORKLOADS = ("chain_large", "unconditioned", "oracle_audit", "small_batch")

CHAIN_N = 32
UNCOND_N = 9
ORACLE_CUTOFF = 8
TOL = 1e-9

# The repeated-root round trip misses the 1e-9 gate (ROADMAP item 4).  These
# two fixed targets, (a†+b†)^16 and (a†+b†)^16 (a†-b†)^16, miss it on every
# run (1-F = 3.5e-6 and 1.3e-5); a seeded root or phase lets some draws pass
# by rounding luck, which would make the failure share vary between runs.
KNOWN_DEFECT_KIND = "factorize_repeated_root"
REPEATED_ROOTS = {16: [-1.0] * 16, 32: [-1.0] * 16 + [1.0] * 16}

# Inputs per run.  A workload cycles through its task list when a run gets
# through all of it; only oracle_audit's angles must never repeat (its
# pair-unitary cache is keyed by the angle), so it gets many more tasks.
_CYCLES = {"chain_large": 64, "unconditioned": 64, "small_batch": 16}
_ORACLE_TASKS = 3000  # a multiple of the cycle of 6
_ORACLE_STATES = 16
_ULP_HALF_PI = math.ulp(math.pi / 2.0)
# A timed run completes at least this many tasks, and its peak_rss_mb is
# read after exactly this many, so that memory which grows per task
# (oracle_audit's pair-unitary cache) does not follow the machine's speed.
MIN_TASKS = {"chain_large": 6, "unconditioned": 30, "oracle_audit": 48,
             "small_batch": 220}


# ---------------------------------------------------------------------------
# input generation


def _random_coeffs(rng: np.random.Generator, n: int) -> list[list[float]]:
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    v /= np.linalg.norm(v)
    return [[float(c.real), float(c.imag)] for c in v]


def _noon_coeffs(n: int) -> list[list[float]]:
    c = [[0.0, 0.0] for _ in range(n + 1)]
    c[0][0] = c[n][0] = 1.0 / math.sqrt(2.0)
    return c


def _root_coeffs(n: int, roots) -> list[list[float]]:
    """Coefficients of prod_j (a† - z_j b†)|0>, normalized.

    The generating polynomial sum_k d_k x^k has the z_j as roots, and
    c_k = d_k sqrt(k! (n - k)!).
    """
    d = np.polynomial.polynomial.polyfromroots(roots).astype(complex)
    c = np.array([d[k] * math.sqrt(math.factorial(k) * math.factorial(n - k))
                  for k in range(n + 1)])
    c /= np.linalg.norm(c)
    return [[float(x.real), float(x.imag)] for x in c]


def _write_target(workdir: str, name: str, coeffs) -> str:
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump({"N": len(coeffs) - 1, "coeffs": coeffs}, fh)
    return name


def _chain_large(rng, workdir):
    noon = _write_target(workdir, "noon32.json", _noon_coeffs(CHAIN_N))

    def cycle(tag):
        generic = _write_target(workdir, f"generic_{tag}.json",
                                _random_coeffs(rng, CHAIN_N))
        return [
            {"kind": "simulate_noon", "argv": ["simulate", noon]},
            {"kind": "simulate_generic", "argv": ["simulate", generic]},
            {"kind": "simulate_noon_double",
             "argv": ["simulate", noon, "--double"]},
        ]

    warmup = cycle("warmup")
    tasks = [t for i in range(_CYCLES["chain_large"]) for t in cycle(str(i))]
    return warmup, tasks, len(warmup)


def _unconditioned(rng, workdir):
    def task(tag):
        name = _write_target(workdir, f"target_{tag}.json",
                             _random_coeffs(rng, UNCOND_N))
        return {"kind": "unconditioned", "target": name}

    tasks = [task(str(i)) for i in range(_CYCLES["unconditioned"])]
    return [task("warmup")], tasks, 1


def _oracle_audit(rng, workdir):
    dim = math.comb(ORACLE_CUTOFF + 4, 4)
    states = rng.standard_normal((_ORACLE_STATES, dim)) \
        + 1j * rng.standard_normal((_ORACLE_STATES, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    np.save(os.path.join(workdir, "states.npy"), states)
    # Swap-path angles sit a distinct whole number of ulps below pi/2, all
    # within 1e-12 of it, so no two tasks share an angle.
    n_swap = _ORACLE_TASKS // 3 + 1
    swap_ulps = iter(rng.choice(4000, size=n_swap, replace=False) + 1)
    draws = {
        "oracle_below_quarter": lambda: rng.uniform(1e-6, math.pi / 4.0),
        "oracle_half_angle": lambda: rng.uniform(math.pi / 4.0 + 1e-6,
                                                 math.pi / 2.0 - 1e-6),
        "oracle_swap": lambda: math.pi / 2.0 - int(next(swap_ulps)) * _ULP_HALF_PI,
    }
    kinds = list(draws)

    def task(i):
        kind = kinds[i % 3]
        k = 1 + i % 6
        eig = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        eig /= np.linalg.norm(eig)
        return {
            "kind": kind,
            "state": i % _ORACLE_STATES,
            "kappa": float(draws[kind]()),
            "k": k,
            "theta": float(rng.uniform(0.0, math.pi / 2.0)),
            "phi": float(rng.uniform(-math.pi, math.pi)),
            "eig": [[float(c.real), float(c.imag)] for c in eig],
        }

    # A cycle covers every pairing of angle path (3) and photon number (6).
    warmup = [task(i) for i in range(3)]
    return warmup, [task(i) for i in range(_ORACLE_TASKS)], 6


def _small_batch(rng, workdir):
    rr = {n: _write_target(workdir, f"repeated_root_{n}.json",
                           _root_coeffs(n, roots))
          for n, roots in REPEATED_ROOTS.items()}

    def cycle(tag, sim_ns, fact_ns, rr_ns, fringe_ns):
        out = []
        for n in sim_ns:
            name = _write_target(workdir, f"sim{n}_{tag}.json",
                                 _random_coeffs(rng, n))
            out.append({"kind": "simulate_small", "argv": ["simulate", name]})
        for n in fact_ns:
            name = _write_target(workdir, f"fact{n}_{tag}.json",
                                 _random_coeffs(rng, n))
            out.append({"kind": "factorize", "argv": ["factorize", name]})
        for n in rr_ns:
            out.append({"kind": KNOWN_DEFECT_KIND,
                        "argv": ["factorize", rr[n]]})
        for n in fringe_ns:
            out.append({"kind": "fringe", "argv": ["fringe", str(n), "64"]})
        out.append({"kind": "yield_table", "argv": ["yield-table", "8"]})
        return out

    warmup = cycle("warmup", [7], [32], [16], [5])
    tasks = [t for i in range(_CYCLES["small_batch"])
             for t in cycle(str(i), range(4, 11), range(16, 49, 8),
                            sorted(rr), range(2, 9))]
    return warmup, tasks, len(tasks) // _CYCLES["small_batch"]


_GENERATORS = {
    "chain_large": _chain_large,
    "unconditioned": _unconditioned,
    "oracle_audit": _oracle_audit,
    "small_batch": _small_batch,
}


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the inputs of one run into ``workdir`` and return its plan.

    The plan (also written to ``plan.json``) lists untimed warm-up tasks,
    one per task kind, and the timed tasks in their fixed order, which
    repeats every ``cycle`` tasks.  Paths in it are relative to ``workdir``.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    warmup, tasks, cycle = _GENERATORS[workload](rng, workdir)
    plan = {"workload": workload, "seed": seed, "cycle": cycle,
            "min_tasks": MIN_TASKS[workload], "warmup": warmup, "tasks": tasks}
    with open(os.path.join(workdir, "plan.json"), "w") as fh:
        json.dump(plan, fh)
    return plan


# ---------------------------------------------------------------------------
# running and checking tasks


def _complex_list(pairs) -> list[complex]:
    return [complex(re, im) for re, im in pairs]


def _target_name(task: dict) -> str | None:
    if "target" in task:
        return task["target"]
    return next((a for a in task.get("argv", ()) if a.endswith(".json")), None)


def _state_mismatch(target: np.ndarray, got: np.ndarray,
                    align: bool) -> str | None:
    """Reason why ``got`` is not the target state at 1e-9, or None.

    The fidelity |<t|g>| / (|t| |g|) must reach 1 - 1e-9, and every
    amplitude must match within 1e-9, after removing the global phase
    when ``align`` is set.
    """
    overlap = np.vdot(target, got)
    fid = abs(overlap) / (np.linalg.norm(target) * np.linalg.norm(got))
    if fid < 1.0 - TOL:
        return f"fidelity 1-F = {1.0 - fid:.3g}"
    if align:
        got = got * (abs(overlap) / overlap)
    dev = float(np.abs(got - target).max())
    if dev > TOL:
        return f"amplitude deviation {dev:.3g}"
    return None


def _rel_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= TOL * abs(reference)


class Runner:
    """Runs the tasks of one plan and checks their outputs.

    The working directory must be the one the plan was generated in.
    ``run`` is the timed part: one CLI call through ``pathent.cli.main``
    or one chain of library calls, all looked up in the ``pathent``
    namespace at call time so that tracing wrappers see them.  ``check``
    returns None when the output matches its closed form and a one-line
    reason otherwise.
    """

    def __init__(self, plan: dict):
        import pathent
        import pathent.cli  # noqa: F401  (binds pathent.cli)

        self.p = pathent
        self.targets: dict[str, np.ndarray] = {}
        for task in plan["warmup"] + plan["tasks"]:
            name = _target_name(task)
            if name and name not in self.targets:
                with open(name) as fh:
                    self.targets[name] = np.array(
                        _complex_list(json.load(fh)["coeffs"]))
        if plan["workload"] == "oracle_audit":
            self.states = np.load("states.npy")

    # -- execution ---------------------------------------------------------

    def run(self, task: dict):
        if "argv" in task:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.p.cli.main(task["argv"])
            return code, out.getvalue()
        if task["kind"] == "unconditioned":
            return self._run_unconditioned(task)
        return self._run_oracle(task)

    def _run_unconditioned(self, task):
        p = self.p
        coeffs = self.targets[task["target"]]
        target = p.TargetSpec(len(coeffs) - 1, list(coeffs))
        fs = p.factorize_target(target)
        rho = p.run_scheme_unconditional(fs)
        rho.validate()
        rate = p.absorption_rate_mixed(rho, target.n_photons)
        return target, fs, rho, rate

    def _run_oracle(self, task):
        p = self.p
        state = p.FourModeState(ORACLE_CUTOFF, self.states[task["state"]])
        kappa = task["kappa"]
        fast = p.beam_splitter_pair_exact(state, kappa)
        slow = p.beam_splitter_pair_oracle(state, kappa)
        n = task["k"] - 1
        signal = sum((p.basis_state(n, j, n - j) * c
                      for j, c in enumerate(_complex_list(task["eig"]))),
                     p.basis_state(n, 0, n) * 0.0)
        block = p.run_block_single(signal, p.BlockParams(
            task["theta"], task["phi"], math.sin(kappa) ** 2))
        return fast, slow, block

    # -- checks ------------------------------------------------------------

    def check(self, task: dict, output) -> str | None:
        kind = task["kind"]
        if "argv" in task:
            code, text = output
            if code != 0:
                return f"exit code {code}"
            if kind.startswith("simulate"):
                return self._check_simulate(task, text)
            if kind in ("factorize", KNOWN_DEFECT_KIND):
                return self._check_factorize(task, text)
            if kind == "fringe":
                return self._check_fringe(task, text)
            return self._check_yield_table(text)
        if kind == "unconditioned":
            return self._check_unconditioned(output)
        return self._check_oracle(task, output)

    def _check_simulate(self, task, text):
        p = self.p
        rep = json.loads(text)
        coeffs = self.targets[_target_name(task)]
        n = len(coeffs) - 1
        if rep["impossible"]:
            return "scheme reported impossible"
        final = np.zeros(n + 1, dtype=complex)
        for entry in rep["final_state"]:
            na, nb = entry["ket"]
            if na + nb != n:
                return f"final state populates ket {na},{nb} outside N={n}"
            final[na] = complex(*entry["amplitude"])
        mismatch = _state_mismatch(coeffs, final, align=True)
        if mismatch:
            return mismatch
        if rep["double"]:
            closed = p.yield_noon_double(n)
        elif task["kind"] == "simulate_noon":
            # The NOON normalization constant is 2^{1-N} N!.
            closed = p.yield_generic(2.0 ** (1 - n) * math.factorial(n), n)
        else:
            fs = p.factorize_target(p.TargetSpec(n, list(coeffs)))
            closed = p.yield_generic(fs.normalization, n)
        got = rep["total_yield"]
        if not _rel_close(got, closed):
            return f"yield {got!r} vs closed form {closed!r}"
        if not _rel_close(math.prod(b["probability"] for b in rep["blocks"]), got):
            return "block probabilities do not multiply to the yield"
        return None

    def _check_factorize(self, task, text):
        p = self.p
        rep = json.loads(text)
        coeffs = self.targets[_target_name(task)]
        n = len(coeffs) - 1
        fs = p.FactorSet(
            tuple((f["theta"], f["phi"]) for f in rep["factors"]),
            rep["normalization"], complex(*rep["global_phase"]))
        recon = p.reconstruct(fs)
        amps = np.array([recon.amplitude(k, n - k) for k in range(n + 1)])
        mismatch = _state_mismatch(coeffs, amps, align=False)
        return mismatch and "round trip " + mismatch

    def _check_fringe(self, task, text):
        n, points = int(task["argv"][1]), int(task["argv"][2])
        lines = text.splitlines()
        if f"# dominant_fourier_frequency={n}" not in lines:
            return "dominant fringe frequency is not N"
        rows = [line.split(",") for line in lines
                if not line.startswith(("#", "phase"))]
        if len(rows) != points:
            return f"{len(rows)} fringe rows, expected {points}"
        for j, (phase, rate) in enumerate(rows):
            phi = 2.0 * math.pi * j / points
            # (|N,0> + e^{iN phi}|0,N>)/sqrt(2) gives rate 1 + cos(N phi).
            if abs(float(phase) - phi) > TOL or \
                    abs(float(rate) - (1.0 + math.cos(n * phi))) > TOL:
                return f"fringe row {j} off its closed form"
        return None

    def _check_yield_table(self, text):
        p = self.p
        rows = [line.split(",") for line in text.splitlines()
                if line[:1].isdigit()]
        if [int(r[0]) for r in rows] != list(range(1, 9)):
            return "yield table rows are not N = 1..8"
        for r in rows:
            n = int(r[0])
            if not _rel_close(float(r[2]), p.yield_noon_single(n)):
                return f"simulated single yield at N={n} off closed form"
            if n % 2 == 0 and not _rel_close(float(r[6]), p.yield_noon_double(n)):
                return f"simulated doubled yield at N={n} off closed form"
        return None

    def _check_unconditioned(self, output):
        p = self.p
        target, fs, rho, rate = output
        n = target.n_photons
        closed = p.yield_generic(fs.normalization, n)
        weight = rho.sector_weight(n)
        if not _rel_close(weight, closed):
            return f"top-sector weight {weight!r} vs yield {closed!r}"
        pure = closed * p.absorption_rate_pure(p.state_of_target(target), n)
        if not _rel_close(rate, pure):
            return f"mixed absorption {rate!r} vs yield x pure {pure!r}"
        return None

    def _check_oracle(self, task, output):
        fast, slow, block = output
        dev = float(np.abs(fast.amps - slow.amps).max())
        if dev > TOL:
            return f"pair beam splitter vs expm deviation {dev:.3g}"
        # The dark-ancilla branch is q_k (cos(theta) a† - e^{i phi}
        # sin(theta) b†) applied to the (k-1)-photon input c_j |j, k-1-j>.
        k, theta, phi = task["k"], task["theta"], task["phi"]
        c = _complex_list(task["eig"]) + [0.0]
        q = self.p.amplitude_factor_single(k, math.sin(task["kappa"]) ** 2)
        expected = np.array([
            q * (math.cos(theta) * math.sqrt(m) * (c[m - 1] if m else 0.0)
                 - cmath.exp(1j * phi) * math.sin(theta) * math.sqrt(k - m) * c[m])
            for m in range(k + 1)])
        got = np.array([block.state.amplitude(m, k - m) for m in range(k + 1)])
        dev = max(float(np.abs(got - expected).max()),
                  abs(block.state.norm_sq() - float(np.vdot(got, got).real)))
        if dev > TOL:
            return f"block vs closed-form amplitude deviation {dev:.3g}"
        return None
