#!/usr/bin/env python3
"""Where a physical fit's time goes, per LM point, on the fit_batch
benchmark corpus.

Takes the spectra of the first ``--rounds`` rounds of the ``fit_batch``
workload (``bench/workloads.FitBatch``, round r reading corpus entry r) and
prints, per fit kind (op_a's fits at fixed p15 = 0, 1 and 0.6, op_b's
free-p15 fit), the fits and the LM points they evaluated, then the mean
microseconds of three stages:

* point: one residual evaluation, ``problem(p)`` of
  ``fit._physical_problem``, at the points that the fit's ``lm_minimize``
  runs evaluated (rejected trial points included);
* jacobian: the closed-form Jacobian thunk of such a point, called after
  its residual;
* fit: one whole ``fit.fit_physical``, its start and any restart included.

The points are recorded once, from an untimed fit of each spectrum. Each
stage is timed over all points (or fits) of a kind in one pass; the printed
mean is the median over ``--passes`` passes, the stages of a pass run back
to back. BLAS is pinned to one thread before NumPy loads, as the benchmark
pins it. With ``--root OTHER`` the stages of another checkout are timed, so
two checkouts can be set side by side on the same host.

    python3 scripts/fit_stages.py                  # this checkout, 40 rounds
    python3 scripts/fit_stages.py --root OTHER     # another checkout
    python3 scripts/fit_stages.py --rounds 4 --passes 3
"""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

KINDS = ("fixed 0", "fixed 1", "fixed 0.6", "free")
STAGES = ("point", "jacobian", "fit")


def fit_kinds(batch, rounds: int) -> dict:
    """The (measured spectrum, p15 mode) of each fit of ``rounds`` rounds, per kind."""
    from vbodmr import fit

    fits = {kind: [] for kind in KINDS}
    for r in range(rounds):
        inputs = batch.inputs(r)
        for case in inputs["op_a"]:
            p15 = case["truth"].p15
            fits[f"fixed {p15:g}"].append((fit.MeasuredSpectrum(case["grid"], case["y"]), ("fixed", p15)))
        for case in inputs["op_b"]:
            fits["free"].append((fit.MeasuredSpectrum(case["grid"], case["y"]), "free"))
    return fits


def lm_points(fit, fits: list) -> list:
    """(problem, p) of every residual evaluation of the ``lm_minimize`` runs of ``fits``."""
    points = []
    lm_minimize = fit.lm_minimize

    def recording(problem, *args, **kwargs):
        def recorded(p):
            points.append((problem, p.copy()))
            return problem(p)

        return lm_minimize(recorded, *args, **kwargs)

    fit.lm_minimize = recording
    try:
        for meas, p15_mode in fits:
            fit.fit_physical(meas, p15_mode=p15_mode)
    finally:
        fit.lm_minimize = lm_minimize
    return points


def stage_times(fit, fits: list, points: list, passes: int) -> dict:
    """Median over ``passes`` of each stage's mean microseconds."""
    runs = {stage: [] for stage in STAGES}
    for _ in range(passes):
        t0 = time.perf_counter()
        for problem, p in points:
            problem(p)
        runs["point"].append((time.perf_counter() - t0) / len(points) * 1e6)
        spent = 0.0
        for problem, p in points:
            jacobian = problem(p)[1]
            t0 = time.perf_counter()
            jacobian()
            spent += time.perf_counter() - t0
        runs["jacobian"].append(spent / len(points) * 1e6)
        t0 = time.perf_counter()
        for meas, p15_mode in fits:
            fit.fit_physical(meas, p15_mode=p15_mode)
        runs["fit"].append((time.perf_counter() - t0) / len(fits) * 1e6)
    return {stage: statistics.median(values) for stage, values in runs.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=str(Path(__file__).resolve().parent.parent),
        help="checkout whose src/ and bench/ to time (default: this one)",
    )
    parser.add_argument("--rounds", type=int, default=40, help="corpus rounds (default: all 40)")
    parser.add_argument("--passes", type=int, default=5, help="timed passes per stage (default: 5)")
    args = parser.parse_args()
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be >= 1")
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from vbodmr import fit
    from workloads import FitBatch

    batch = FitBatch(seed=0)  # round r reads corpus entry r
    batch.setup()
    rounds = min(args.rounds, batch.corpus_rounds)
    print(f"root {root}")
    print(f"{rounds} rounds, median of {args.passes} passes, mean us, BLAS on one thread")
    header = "".join(f" {stage:>9}" for stage in STAGES)
    print(f"{'kind':9} {'fits':>5} {'points':>6}{header}")
    for kind, fits in fit_kinds(batch, rounds).items():
        points = lm_points(fit, fits)
        times = stage_times(fit, fits, points, args.passes)
        cells = "".join(f" {times[stage]:9.1f}" for stage in STAGES)
        print(f"{kind:9} {len(fits):5d} {len(points):6d}{cells}")


if __name__ == "__main__":
    main()
