"""Run one workload in this process and print its raw results as one JSON
line. Started by run.py, which pins BLAS threads and sets PYTHONPATH in the
environment before this process imports NumPy.

    python3 bench/worker.py --workload fit_batch --seed 1 --seconds 20 \
        --trace 0 --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

from spec import NAMED_FUNCTIONS, SLOTS, SPEC, TRACE_ROUNDS_PER_S
from workloads import ROOT, WORKLOADS, import_package

# about calibration_s() on the baseline machine while it is quiet; times are
# reported at this reference speed
CALIBRATION_REF_S = 1.5e-3
LORENTZIAN_GRID_POINTS = 801  # every spectrum the workloads evaluate has 801 points
IMPORT_PROBES = 5


class Tally:
    """Operation count, failures, and the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.hard_failed = 0
        self.failed_by_slot = {s: 0 for s in SLOTS}
        self.examples: list[str] = []

    def add(self, slot: str, results: list) -> None:
        for reason, hard in results:
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.failed_by_slot[slot] += 1
                self.hard_failed += hard
                if len(self.examples) < 8:
                    self.examples.append(f"{slot}{' (hard)' if hard else ''}: {reason}")

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "hard_failed": self.hard_failed,
            "failed_by_slot": self.failed_by_slot,
            "failure_examples": self.examples,
        }


def calibration_s() -> float:
    """Wall time of a fixed kernel owned by the benchmark: interpreter work,
    many small NumPy calls and a few 81x81 complex products, the mix the
    workloads run. The host's speed drifts by 20-30 % between and within
    runs; timing this kernel next to every item tracks that drift."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += (i * i) % 7
    v = np.linspace(0.0, 1.0, 81) + 0j
    for _ in range(300):
        v = v * 0.999 + 0.001
    grid = np.linspace(-250.0, 250.0, 801)
    for k in range(20):
        d = grid - k
        acc += float((25.0 / (d * d + 25.0)).sum())
    m = np.kron(np.eye(3, dtype=complex), np.eye(27, dtype=complex)) + 0.01
    for _ in range(3):
        m = m @ m
        m = m / np.abs(m).max()
    return time.perf_counter() - t0


def calibration_median_s(repeats: int = 5) -> float:
    return statistics.median(calibration_s() for _ in range(repeats))


def timed_run(wl, seconds: float) -> dict:
    """Closed loop, one client: rounds of op_a, op_b, op_c until ``seconds``
    of wall time have passed and the last pass over the workload's inputs is
    complete. Checks run between operations, untimed.

    ``items`` holds item times scaled to the reference speed: each item is
    multiplied by CALIBRATION_REF_S over the mean of the calibration times
    measured just before and just after it. ``raw_items`` are wall times."""
    items = {s: [] for s in SLOTS}
    raw_items = {s: [] for s in SLOTS}
    ops = {s: [] for s in SLOTS}
    tally = Tally()
    before = calibration_s()
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds or (wl.corpus_rounds and r % wl.corpus_rounds):
        inputs = wl.inputs(r)
        for slot in SLOTS:
            item_s, op_s, outputs = wl.run(slot, inputs[slot])
            after = calibration_s()
            scale = CALIBRATION_REF_S / (0.5 * (before + after))
            before = after
            items[slot] += [x * scale for x in item_s]
            raw_items[slot] += item_s
            ops[slot] += op_s
            tally.add(slot, wl.check(slot, inputs[slot], outputs))
        wl.end_round(r)
        r += 1
    return {"rounds": r, "items": items, "raw_items": raw_items, "ops": ops, **tally.as_dict()}


def tracer_self_test() -> list[str]:
    """On one small fixed-p15 fit, the traced forward-model calls must equal
    the residual evaluations counted around lm_minimize, and a function that
    does not exist must be reported absent. Returns the named functions that
    the package no longer defines."""
    import numpy as np

    import_package()
    import vbodmr.cli  # noqa: F401  (loads every layer module)
    from vbodmr import fit, spectrum

    import tracer as tracing

    t = tracing.Tracer()
    absent = t.install(NAMED_FUNCTIONS + ["spectrum.no_such_function"])
    try:
        model = spectrum.SpectrumModel(2308.0, 0.11, 51.0, 43.0, 64.0, 1.0)
        grid = spectrum.default_grid(model.f_center, points=101)
        y = spectrum.mixture_spectrum(model, grid).values
        y = y + np.random.default_rng(0).normal(0.0, 0.002, y.size)
        t.enabled = True
        fit.fit_physical(fit.MeasuredSpectrum(grid, y), p15_mode=("fixed", 1.0))
        t.enabled = False
    finally:
        t.uninstall()
    traced = t.forward_calls_under_lm()
    if traced != t.model_evals or traced == 0:
        raise SystemExit(
            f"tracer self-test failed: {traced} traced forward-model calls, "
            f"{t.model_evals} residual evaluations"
        )
    if "spectrum.no_such_function" not in absent:
        raise SystemExit("tracer self-test failed: a missing function was not reported absent")
    return [name for name in absent if name != "spectrum.no_such_function"]


def import_seconds() -> float:
    """Median fresh ``import vbodmr.cli`` minus median bare interpreter start."""
    def median_run(code: str) -> float:
        times = []
        for _ in range(IMPORT_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
            times.append(time.perf_counter() - t0)
        return sorted(times)[IMPORT_PROBES // 2]

    return median_run("import vbodmr.cli") - median_run("pass")


def traced_run(wl, rounds: int) -> dict:
    """A fixed number of rounds; every item runs once traced and once
    untraced on the same input, which gives the tracing overhead."""
    import tracer as tracing

    absent = tracer_self_test()
    t = tracing.Tracer()
    if wl.in_process:
        t.install(NAMED_FUNCTIONS)
    else:
        wl.traced = True
    traced = {s: [] for s in SLOTS}
    plain = {s: [] for s in SLOTS}
    tally = Tally()
    try:
        for r in range(rounds):
            inputs = wl.inputs(r)
            for slot in SLOTS:
                if wl.in_process:
                    t.enabled = True
                    t_s, _, outputs = wl.run(slot, inputs[slot])
                    t.enabled = False
                    tally.add(slot, wl.check(slot, inputs[slot], outputs))
                    u_s, _, outputs = wl.run(slot, inputs[slot])
                    tally.add(slot, wl.check(slot, inputs[slot], outputs))
                else:
                    (t1, u1), _, outputs = wl.run(slot, inputs[slot])
                    tally.add(slot, wl.check(slot, inputs[slot], outputs))
                    t_s, u_s = [t1], [u1]
                traced[slot] += t_s
                plain[slot] += u_s
            wl.end_round(r)
    finally:
        t.uninstall()
    if wl.in_process:
        summary = t.summary()
        cli_import_s = 0.0
    else:
        summary = tracing.merge(wl.summaries)
        cli_import_s = import_seconds()
    metrics = layer_metrics(summary, traced, plain, cli_import_s, len(absent))
    return {"rounds": rounds, "metrics": metrics, "absent": absent, **tally.as_dict()}


def layer_metrics(summary, traced, plain, cli_import_s, n_absent) -> dict:
    fns = summary["functions"]
    traced_wall = sum(sum(v) for v in traced.values())
    special = {
        "spectrum.lorentzian.points": fns.get("spectrum.lorentzian", [0])[0] * LORENTZIAN_GRID_POINTS,
        "fit.lm_iterations": summary["lm_iterations"],
        "fit.model_evals": summary["model_evals"],
        "fit.model_evals_per_iteration": summary["model_evals"] / max(summary["lm_iterations"], 1),
        "fit.converged_ratio": summary["lm_converged"] / max(summary["lm_runs"], 1),
        "cli.import_s": cli_import_s,
        "trace.top_level_share_pct": 100.0 * summary["top_level_s"] / traced_wall,
        "trace.spans": summary["spans"],
        "trace.absent_functions": n_absent,
    }
    for slot in SLOTS:
        special[f"trace.{slot}_overhead_pct"] = 100.0 * (sum(traced[slot]) / sum(plain[slot]) - 1.0)
    out = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in special:
            value = special[name]
        else:
            fn, kind = name.rsplit(".", 1)
            calls, total_s, self_s = fns.get(fn, [0, 0.0, 0.0])
            value = {"calls": calls, "self_ms": 1e3 * self_s, "ms": 1e3 * total_s}[kind]
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    try:
        wl.setup()
        setup_s = time.monotonic() - args.spawned_at
        calibration_s()  # first call imports NumPy in the CLI worker
        speed = CALIBRATION_REF_S / calibration_median_s()
        result = {"setup_s": setup_s * speed, "raw_setup_s": setup_s}
        if not args.setup_only:
            if args.trace:
                rounds = max(2, round(args.seconds * TRACE_ROUNDS_PER_S[args.workload]))
                result.update(traced_run(wl, rounds))
            else:
                result.update(timed_run(wl, args.seconds))
                who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
                result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss * 1024 / 1e6
            result["machine"] = machine_facts()
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
