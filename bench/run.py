"""Benchmark entry point.

    python3 bench/run.py --workload fit_batch --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Runs from the root of a checkout. Each workload runs in worker processes
(bench/worker.py) with BLAS pinned to one thread and PYTHONPATH set to this
checkout's src/. With --trace 0 the last stdout line is a JSON object with
every end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer
metric. ``--workload all`` runs every workload untraced and traced, prints
all metrics and writes BENCHMARK.json from spec.SPEC.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spec import CLASS_NAMES, SLOTS, SPEC, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-ups per untraced run; setup_s is their median
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_DEADLINE_S = 175.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(args: argparse.Namespace, trace: int, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    cmd += ["--spawned-at", repr(time.monotonic())]
    # own session, so a timeout also ends the CLI child a worker may be running
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"bench: {args.workload} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise SystemExit(f"bench: {args.workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(sorted_values: list[float], p: float) -> float:
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def latency_line(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    text = f"median {1e3 * statistics.median(s):.4g} ms"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(s) * (1.0 - p / 100.0) >= 10:
            if p != 50.0:
                text += f", p{p:g} {1e3 * percentile(s, p):.4g} ms"
            break
    else:
        text += f", max {1e3 * s[-1]:.4g} ms (under 20 samples: no tail percentile)"
    return f"{text} (n={len(s)})"


def machine_facts(worker_facts: dict) -> dict:
    cgroup = "unreadable"
    for path in (Path("/sys/fs/cgroup/cpu.max"), Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")):
        try:
            text = path.read_text().split()
        except OSError:
            continue
        if path.name == "cpu.max":
            cgroup = "none" if text[0] == "max" else f"{int(text[0]) / int(text[1]):g} CPUs"
        else:
            quota = int(text[0])
            period = int((path.parent / "cpu.cfs_period_us").read_text())
            cgroup = "none" if quota < 0 else f"{quota / period:g} CPUs"
        break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_lines = {
        p.name: len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src" / "vbodmr").glob("*.py"))
    }
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": cgroup,
        "platform": platform.platform(),
        **worker_facts,
        "blas_threads_env": PINNED_THREADS,
        "commit": commit,
        "src_lines": {**src_lines, "total": sum(src_lines.values())},
    }


def run_workload(args: argparse.Namespace, trace: int) -> dict:
    """One benchmark run; prints a readable report and returns the result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    if not trace:
        setups = [spawn(args, 0, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
    raw = spawn(args, trace, False, deadline)
    print(f"# workload {args.workload}, seed {args.seed}, trace {trace}: {raw['rounds']} rounds, "
          "closed loop, one client")
    print(f"# machine {json.dumps(machine_facts(raw['machine']))}")
    share = 100.0 * raw["failed"] / raw["attempted"]
    print(f"# checks: {raw['attempted']} operations, {raw['failed']} failed ({share:.1f} %), "
          f"{raw['hard_failed']} of them hard; failed by slot {raw['failed_by_slot']}")
    for example in raw["failure_examples"]:
        print(f"#   {example}")
    if trace:
        metrics = raw["metrics"]
        if raw["absent"]:
            print(f"# absent functions: {', '.join(raw['absent'])}")
    else:
        setups.append(raw)
        print(f"# set-up wall time: median {statistics.median(x['raw_setup_s'] for x in setups):.4g} s "
              f"of {len(setups)}")
        metrics = {
            "setup_s": {"value": statistics.median(x["setup_s"] for x in setups), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
        for slot in SLOTS:
            item, report_name = CLASS_NAMES[args.workload][slot]
            ops = raw["ops"][slot]
            metrics[f"{slot}_per_s"] = {"value": len(ops) / sum(raw["items"][slot]), "unit": "1/s"}
            print(f"# {slot} = {item}; item wall time {latency_line(raw['raw_items'][slot])}")
            if report_name.endswith("_per_s"):
                print(f"{report_name} = {len(ops) / sum(ops):.6g} 1/s of wall time; "
                      f"per operation {latency_line(ops)}")
            else:
                print(f"{report_name} = {statistics.median(ops):.6g} s median wall time; "
                      f"per operation {latency_line(ops)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": raw["hard_failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "vbodmr").is_dir():
        raise SystemExit(f"bench: no package source at {ROOT / 'src' / 'vbodmr'}")

    if args.workload != "all":
        print(json.dumps(run_workload(args, args.trace)))
        return
    results = {}
    for workload in WORKLOADS:
        args.workload = workload
        results[workload] = {f"trace{t}": run_workload(args, t) for t in (0, 1)}
    (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n", encoding="utf-8")
    print("# wrote BENCHMARK.json")
    print(json.dumps(results))


if __name__ == "__main__":
    main()
