#!/usr/bin/env python3
"""Where a full-mode solve's time goes, stage by stage, on the
hamiltonian_sweep benchmark corpus.

Takes the systems of the first ``--rounds`` rounds of the
``hamiltonian_sweep`` workload (``bench/workloads.HamiltonianSweep``, round r
reading corpus entry r) and prints, per slot (op_a axial solves, op_b
transverse dense solves, op_c axial solves with nuclear Zeeman) the dtype
the slot's checked matrices are stored in (``HermitianMatrix`` decides it:
float64 takes the real path, complex128 the complex one; slots that mix both
print both, joined by '/'), then the mean microseconds per solve of four
stages of ``spin_core.transition_frequencies(system, "full")``:

* build: ``build_full_hamiltonian`` with its ``HermitianMatrix`` check
  replaced by a pass-through, so the assembly alone;
* check: ``HermitianMatrix`` on the assembled matrix;
* eigensolve: ``eigen_hermitian`` on the checked matrix;
* list: the whole solve with the build and the eigensolve replaced by their
  stored results, so everything after the eigensolve.

Each stage is timed over all systems of a slot in one pass; the printed mean
is the median over ``--passes`` passes, the stages of a pass run back to
back. BLAS is pinned to one thread before NumPy loads, as the benchmark
pins it. With ``--root OTHER`` the stages of another checkout are timed, so
two checkouts can be set side by side on the same host.

    python3 scripts/solve_stages.py                  # this checkout, 36 rounds
    python3 scripts/solve_stages.py --root OTHER     # another checkout
    python3 scripts/solve_stages.py --rounds 4 --passes 3
"""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SLOTS = ("op_a", "op_b", "op_c")
STAGES = ("build", "check", "eigensolve", "list")


def mean_us(call, items) -> float:
    """Mean microseconds of ``call(item)`` over ``items``."""
    t0 = time.perf_counter()
    for item in items:
        call(item)
    return (time.perf_counter() - t0) / len(items) * 1e6


def entry_dtypes(spin_core, systems: list) -> str:
    """The dtypes of the checked matrices of ``systems``, sorted, joined by '/'."""
    dtypes = {spin_core.build_full_hamiltonian(s).entries.dtype.name for s in systems}
    return "/".join(sorted(dtypes))


def stage_times(spin_core, systems: list, passes: int) -> dict:
    """Median over ``passes`` of each stage's mean microseconds per solve."""
    checked = [spin_core.build_full_hamiltonian(s) for s in systems]
    solved = [spin_core.eigen_hermitian(h) for h in checked]
    stored_h = dict(zip(map(id, systems), checked))
    stored_eig = {id(h): e for h, e in zip(checked, solved)}
    raw = [h.entries for h in checked]
    # the stages call these originals; only the module's names are swapped
    build, check = spin_core.build_full_hamiltonian, spin_core.HermitianMatrix
    eigen = spin_core.eigen_hermitian
    runs = {stage: [] for stage in STAGES}
    try:
        for _ in range(passes):
            spin_core.HermitianMatrix = lambda m: m
            runs["build"].append(mean_us(build, systems))
            spin_core.HermitianMatrix = check
            runs["check"].append(mean_us(check, raw))
            runs["eigensolve"].append(mean_us(eigen, checked))
            spin_core.build_full_hamiltonian = lambda s: stored_h[id(s)]
            spin_core.eigen_hermitian = lambda h: stored_eig[id(h)]
            runs["list"].append(
                mean_us(lambda s: spin_core.transition_frequencies(s, "full"), systems)
            )
    finally:
        spin_core.HermitianMatrix = check
        spin_core.build_full_hamiltonian, spin_core.eigen_hermitian = build, eigen
    return {stage: statistics.median(values) for stage, values in runs.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=str(Path(__file__).resolve().parent.parent),
        help="checkout whose src/ and bench/ to time (default: this one)",
    )
    parser.add_argument("--rounds", type=int, default=36, help="corpus rounds (default: all 36)")
    parser.add_argument("--passes", type=int, default=9, help="timed passes per stage (default: 9)")
    args = parser.parse_args()
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be >= 1")
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from vbodmr import spin_core
    from workloads import HamiltonianSweep

    sweep = HamiltonianSweep(seed=0)  # round r reads corpus entry r
    sweep.setup()
    rounds = min(args.rounds, sweep.corpus_rounds)
    systems = {s: [] for s in SLOTS}
    for r in range(rounds):
        inputs = sweep.inputs(r)
        for s in SLOTS:
            systems[s].extend(inputs[s])
    print(f"root {root}")
    print(f"{rounds} rounds, median of {args.passes} passes, mean us per solve, BLAS on one thread")
    header = "".join(f" {stage:>10}" for stage in (*STAGES, "total"))
    print(f"{'slot':5} {'solves':>6} {'dtype':>10}{header}")
    for s in SLOTS:
        times = stage_times(spin_core, systems[s], args.passes)
        cells = "".join(f" {times[stage]:10.1f}" for stage in STAGES)
        dtype = entry_dtypes(spin_core, systems[s])
        print(f"{s:5} {len(systems[s]):6d} {dtype:>10}{cells} {sum(times.values()):10.1f}")


if __name__ == "__main__":
    main()
