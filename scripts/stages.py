#!/usr/bin/env python3
"""Where the time goes, layer by layer, on both benchmark corpora.

Prints one table per workload of ``bench/workloads.py``, under a line that
names it; round r reads corpus entry r.

hamiltonian_sweep, the first ``--rounds`` rounds (default: all 36): per slot
(op_a axial solves, op_b transverse dense solves, op_c axial solves with
nuclear Zeeman) the dtype of its checked matrices, then the mean us per
solve of four stages of ``spin_core.transition_frequencies(system, "full")``.
``build_full_hamiltonian`` sums a system with no imaginary term in float64,
from the terms it enters, and any other in complex128; ``HermitianMatrix``
stores a matrix as float64 exactly when its imaginary part is all zero, and
float64 takes LAPACK's real path. A slot with both dtypes prints both. Then
the route of its eigensolves, read from the arrays ``eigen_hermitian``
hands ``np.linalg.eigh``: ``blocks`` for a stack of the three m_S blocks of
a matrix that conserves m_S, ``dense`` for the whole matrix. A slot with
both routes prints both; a checkout without the block route prints
``dense``.

* build: ``build_full_hamiltonian`` with its ``HermitianMatrix`` check
  replaced by a pass-through, so the assembly alone;
* check: ``HermitianMatrix`` on the assembled matrix;
* eigensolve: ``eigen_hermitian`` on the checked matrix;
* list: the whole solve with the build and the eigensolve replaced by their
  stored results, so everything after the eigensolve.

fit_batch, the first ``--rounds`` rounds (default: all 40): per fit kind
(op_a's fits at fixed p15 = 0, 1 and 0.6, op_b's free-p15 fit) the fits and
the LM points that one untimed fit of each spectrum evaluated (rejected
trial points included), then the mean us of four stages:

* point: one residual evaluation, ``problem(p)`` of ``fit._physical_problem``;
* jacobian: the closed-form Jacobian thunk of a point, called after its residual;
* lm: one ``fit.lm_minimize`` run (a fit makes two when it restarts) fed the
  residuals and Jacobians that the untimed fit gave that run, in call order,
  so the LM alone, without the model; each replay must return the recorded
  ``FitResult``, bit for bit, or the script stops;
* fit: one whole ``fit.fit_physical``, its start and any restart included.

Each stage is timed over all items of a row in one pass; a mean is the
median over ``--passes`` passes (default: 9 for the solves, 5 for the
fits), the stages of a pass run back to back. Each cell prints that median
and, after a slash, the minimum over the passes, which a slow stretch of
the host moves less; a solve row's total adds up its medians and its
minima. BLAS is pinned to one thread before NumPy
loads, as the benchmark pins it. ``--root OTHER`` times another checkout, so
two can be set side by side on the same host.

    python3 scripts/stages.py                  # this checkout, every round
    python3 scripts/stages.py --root OTHER     # another checkout
    python3 scripts/stages.py --rounds 4 --passes 3
"""

import argparse
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SLOTS = ("op_a", "op_b", "op_c")
SOLVE_STAGES = ("build", "check", "eigensolve", "list")
SOLVE_PASSES = 9
KINDS = ("fixed 0", "fixed 1", "fixed 0.6", "free")
FIT_STAGES = ("point", "jacobian", "lm", "fit")
FIT_PASSES = 5


def mean_us(call, items) -> float:
    """Mean microseconds of ``call(item)`` over ``items``."""
    t0 = time.perf_counter()
    for item in items:
        call(item)
    return (time.perf_counter() - t0) / len(items) * 1e6


def solve_routes(spin_core, checked: list) -> tuple[list, str]:
    """``eigen_hermitian`` of each checked matrix, and the routes it took,
    sorted, joined by '/': ``blocks`` where it handed LAPACK a stack of
    m_S blocks, ``dense`` where it handed it the whole matrix."""
    eigh, routes = spin_core.np.linalg.eigh, set()

    def recording(a, *args, **kwargs):
        routes.add("blocks" if a.ndim == 3 else "dense")
        return eigh(a, *args, **kwargs)

    spin_core.np.linalg.eigh = recording
    try:
        solved = [spin_core.eigen_hermitian(h) for h in checked]
    finally:
        spin_core.np.linalg.eigh = eigh
    return solved, "/".join(sorted(routes))


def solve_times(spin_core, systems: list, passes: int) -> tuple[dict, str, str]:
    """Median and minimum over ``passes`` of each solve stage's mean
    microseconds per solve, and the dtypes of the checked matrices and the
    routes of their eigensolves, each sorted, joined by '/'."""
    checked = [spin_core.build_full_hamiltonian(s) for s in systems]
    solved, routes = solve_routes(spin_core, checked)
    stored_h = dict(zip(map(id, systems), checked))
    stored_eig = {id(h): e for h, e in zip(checked, solved)}
    raw = [h.entries for h in checked]
    # the stages call these originals; only the module's names are swapped
    build, check = spin_core.build_full_hamiltonian, spin_core.HermitianMatrix
    eigen = spin_core.eigen_hermitian
    runs = {stage: [] for stage in SOLVE_STAGES}
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
    dtypes = "/".join(sorted({h.entries.dtype.name for h in checked}))
    times = {stage: (statistics.median(values), min(values)) for stage, values in runs.items()}
    return times, dtypes, routes


def solve_table(rounds: int | None, passes: int | None) -> None:
    from vbodmr import spin_core
    from workloads import HamiltonianSweep

    sweep = HamiltonianSweep(seed=0)
    sweep.setup()
    rounds = min(rounds or sweep.corpus_rounds, sweep.corpus_rounds)
    passes = passes or SOLVE_PASSES
    print(f"hamiltonian_sweep, {rounds} rounds, median/min of {passes} passes, mean us per solve")
    systems = {s: [] for s in SLOTS}
    for r in range(rounds):
        inputs = sweep.inputs(r)
        for s in SLOTS:
            systems[s].extend(inputs[s])
    header = "".join(f" {stage:>13}" for stage in (*SOLVE_STAGES, "total"))
    print(f"{'slot':5} {'solves':>6} {'dtype':>10} {'route':>12}{header}")
    for s in SLOTS:
        times, dtype, route = solve_times(spin_core, systems[s], passes)
        times["total"] = tuple(map(sum, zip(*times.values())))
        cells = "".join(f" {'%.1f/%.1f' % times[stage]:>13}" for stage in (*SOLVE_STAGES, "total"))
        print(f"{s:5} {len(systems[s]):6d} {dtype:>10} {route:>12}{cells}")


def fit_kinds(fit, batch, rounds: int) -> dict:
    """The (measured spectrum, p15 mode) of each fit of ``rounds`` rounds, per kind."""
    fits = {kind: [] for kind in KINDS}
    for r in range(rounds):
        inputs = batch.inputs(r)
        for case in inputs["op_a"]:
            p15 = case["truth"].p15
            fits[f"fixed {p15:g}"].append((fit.MeasuredSpectrum(case["grid"], case["y"]), ("fixed", p15)))
        for case in inputs["op_b"]:
            fits["free"].append((fit.MeasuredSpectrum(case["grid"], case["y"]), "free"))
    return fits


def lm_record(fit, fits: list) -> tuple[list, list]:
    """(problem, p) of every residual evaluation of the ``lm_minimize`` runs
    of ``fits``, and each run as (args, kwargs, residuals, jacobians,
    result): its arguments after the problem, the residuals and Jacobians
    its problem handed it, in call order, and its ``FitResult``."""
    points, runs = [], []
    lm_minimize = fit.lm_minimize

    def recording(problem, *args, **kwargs):
        residuals, jacobians = [], []

        def recorded(p):
            points.append((problem, p.copy()))
            r, jacobian = problem(p)
            residuals.append(r)

            def recorded_jacobian():
                jacobians.append(jacobian())
                return jacobians[-1]

            return r, recorded_jacobian

        result = lm_minimize(recorded, *args, **kwargs)
        runs.append((args, kwargs, residuals, jacobians, result))
        return result

    fit.lm_minimize = recording
    try:
        for meas, p15_mode in fits:
            fit.fit_physical(meas, p15_mode=p15_mode)
    finally:
        fit.lm_minimize = lm_minimize
    return points, runs


def replay(fit, run):
    """``fit.lm_minimize`` of a recorded run, fed its residuals and
    Jacobians in call order."""
    args, kwargs, residuals, jacobians, _ = run
    residuals, jacobians = iter(residuals), iter(jacobians)
    return fit.lm_minimize(lambda p: (next(residuals), jacobians.__next__), *args, **kwargs)


def same_result(a, b) -> bool:
    """Whether two ``FitResult``s are equal bit for bit, NaNs included."""
    return a.covariance.tobytes() == b.covariance.tobytes() and repr(
        replace(a, covariance=None)
    ) == repr(replace(b, covariance=None))


def fit_times(fit, fits: list, points: list, runs: list, passes: int) -> dict:
    """Median and minimum over ``passes`` of each fit stage's mean microseconds."""
    for i, run in enumerate(runs):
        if not same_result(replay(fit, run), run[-1]):
            raise SystemExit(f"lm run {i}: the replay gave another FitResult than the fit")
    times = {stage: [] for stage in FIT_STAGES}
    for _ in range(passes):
        times["point"].append(mean_us(lambda point: point[0](point[1]), points))
        # the Jacobian thunk alone, its residual untimed
        spent = 0.0
        for problem, p in points:
            jacobian = problem(p)[1]
            t0 = time.perf_counter()
            jacobian()
            spent += time.perf_counter() - t0
        times["jacobian"].append(spent / len(points) * 1e6)
        times["lm"].append(mean_us(lambda run: replay(fit, run), runs))
        times["fit"].append(mean_us(lambda f: fit.fit_physical(f[0], p15_mode=f[1]), fits))
    return {stage: (statistics.median(values), min(values)) for stage, values in times.items()}


def fit_table(rounds: int | None, passes: int | None) -> None:
    from vbodmr import fit
    from workloads import FitBatch

    batch = FitBatch(seed=0)
    batch.setup()
    rounds = min(rounds or batch.corpus_rounds, batch.corpus_rounds)
    passes = passes or FIT_PASSES
    print(f"fit_batch, {rounds} rounds, median/min of {passes} passes, mean us")
    header = "".join(f" {stage:>15}" for stage in FIT_STAGES)
    print(f"{'kind':9} {'fits':>5} {'points':>6}{header}")
    for kind, fits in fit_kinds(fit, batch, rounds).items():
        points, runs = lm_record(fit, fits)
        times = fit_times(fit, fits, points, runs, passes)
        cells = "".join(f" {'%.1f/%.1f' % times[stage]:>15}" for stage in FIT_STAGES)
        print(f"{kind:9} {len(fits):5d} {len(points):6d}{cells}")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--root", default=str(Path(__file__).resolve().parent.parent),
        help="checkout whose src/ and bench/ to time (default: this one)",
    )
    parser.add_argument("--rounds", type=int, help="corpus rounds (default: every round)")
    passes = f"{SOLVE_PASSES} for the solves, {FIT_PASSES} for the fits"
    parser.add_argument("--passes", type=int, help=f"timed passes per stage (default: {passes})")
    args = parser.parse_args()
    if any(n is not None and n < 1 for n in (args.rounds, args.passes)):
        parser.error("--rounds and --passes must be >= 1")
    root = Path(args.root).resolve()
    if not (root / "bench" / "workloads.py").is_file():
        parser.error(f"{root} is not a checkout: it has no bench/workloads.py")
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    print(f"root {root}, BLAS on one thread")
    solve_table(args.rounds, args.passes)
    fit_table(args.rounds, args.passes)


if __name__ == "__main__":
    main()
