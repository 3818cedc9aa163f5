#!/usr/bin/env python3
"""One untimed pass of the fit_batch benchmark corpus: fit outcomes per slot
and a digest of every fit.

Runs each of the 40 rounds of the ``fit_batch`` workload once, from corpus
entry 0, through ``bench/workloads.FitBatch`` and its own check. Prints, per
slot (op_a fixed-p15 fits, op_b free-p15 fits, op_c quartet fits), the
operations that fail the check, the LM iterations of the fits the operations
return (``lm_iter``), the LM iterations of every ``lm_minimize`` run that
returned, discarded multi-start runs and restarts included (``lm_iter_all``),
the ``lm_minimize`` runs abandoned mid-way (``abandoned``: quartet starts that
put a width on its floor; their iterations are in no column), the fits that
report ``converged``, the CPU seconds (``cpu_s``, ``time.process_time``) and
minor page faults (``minflt``, ``ru_minflt`` of this process) spent in the
slot's operations, and a sha256 over every operation's values, sigmas,
iterations and diagnostics. Then it prints that sha256 per slot and over all
slots. Two checkouts print the same digest only when every fit is
bit-identical. ``cpu_s`` and ``minflt`` vary from run to run; the page faults
show how often the allocator hands large temporaries back to the system and
takes them again (glibc's heap trimming).

    python3 scripts/corpus_pass.py                  # this checkout
    python3 scripts/corpus_pass.py --root OTHER     # another checkout
    python3 scripts/corpus_pass.py --ops            # one line per operation
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SLOTS = ("op_a", "op_b", "op_c")


def fit_record(out) -> str:
    """Canonical text of one operation's fit, or of the exception it raised."""
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    res = out[0]
    return json.dumps(
        [sorted(res.values.items()), sorted(res.sigmas.items()), res.iterations,
         list(res.diagnostics)]
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=str(Path(__file__).resolve().parent.parent),
        help="checkout whose src/ and bench/ to run (default: this one)",
    )
    parser.add_argument("--ops", action="store_true", help="print one line per operation")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from workloads import FitBatch
    from vbodmr import fit

    # iterations of every lm_minimize call that returned, kept or discarded,
    # and the calls abandoned by an exception
    all_runs = [0, 0]
    lm_minimize = fit.lm_minimize
    abandon = getattr(fit, "_WidthCollapse", ())  # () catches nothing

    def counted_lm_minimize(*a, **kw):
        try:
            result = lm_minimize(*a, **kw)
        except abandon:
            all_runs[1] += 1
            raise
        all_runs[0] += result.iterations
        return result

    fit.lm_minimize = counted_lm_minimize

    batch = FitBatch(seed=0)  # round r reads corpus entry r
    batch.setup()
    failed = {s: 0 for s in SLOTS}
    iterations = {s: 0 for s in SLOTS}
    iterations_all = {s: 0 for s in SLOTS}
    abandoned = {s: 0 for s in SLOTS}
    converged = {s: 0 for s in SLOTS}
    total = {s: 0 for s in SLOTS}
    cpu_s = {s: 0.0 for s in SLOTS}
    minflt = {s: 0 for s in SLOTS}
    digest = hashlib.sha256()
    slot_digest = {s: hashlib.sha256() for s in SLOTS}
    for r in range(batch.corpus_rounds):
        inputs = batch.inputs(r)
        for slot in SLOTS:
            before = list(all_runs)
            cpu, faults = time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            _, _, outputs = batch.run(slot, inputs[slot])
            cpu_s[slot] += time.process_time() - cpu
            minflt[slot] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            iterations_all[slot] += all_runs[0] - before[0]
            abandoned[slot] += all_runs[1] - before[1]
            checks = batch.check(slot, inputs[slot], outputs)
            for k, (out, (reason, _hard)) in enumerate(zip(outputs, checks)):
                record = fit_record(out)
                digest.update(record.encode())
                slot_digest[slot].update(record.encode())
                res = None if isinstance(out, Exception) else out[0]
                total[slot] += 1
                failed[slot] += reason is not None
                if res is not None:
                    iterations[slot] += res.iterations
                    converged[slot] += res.converged
                if args.ops:
                    its, conv = ("-", "-") if res is None else (res.iterations, res.converged)
                    short = hashlib.sha256(record.encode()).hexdigest()[:12]
                    print(f"{r:2d} {slot} {k} it={its} conv={conv} {short} {reason or 'ok'}")
    print(f"root {root}")
    print(
        f"{'slot':5} {'ops':>4} {'failed':>6} {'lm_iter':>7} {'lm_iter_all':>11}"
        f" {'abandoned':>9} {'converged':>9} {'cpu_s':>7} {'minflt':>8}"
    )
    for s in SLOTS:
        print(
            f"{s:5} {total[s]:4d} {failed[s]:6d} {iterations[s]:7d}"
            f" {iterations_all[s]:11d} {abandoned[s]:9d} {converged[s]:9d}"
            f" {cpu_s[s]:7.3f} {minflt[s]:8d}"
        )
    print(f"all   {sum(total.values()):4d} {sum(failed.values()):6d}")
    for s in SLOTS:
        print(f"sha256 {s:4}  {slot_digest[s].hexdigest()}")
    print(f"sha256 all   {digest.hexdigest()}")


if __name__ == "__main__":
    main()
