#!/usr/bin/env python3
"""One untimed pass of both benchmark corpora: fit outcomes per slot and a
digest of every fit (fit_batch), then a digest of every full-mode transition
list (hamiltonian_sweep).

Runs each of the 40 rounds of the ``fit_batch`` workload once, from corpus
entry 0, through ``bench/workloads.FitBatch`` and its own check. Prints, per
slot (op_a fixed-p15 fits, op_b free-p15 fits, op_c quartet fits), the
operations that fail the check, the LM iterations of the fits the operations
return (``lm_iter``; a quartet fit's adds up its two runs), the LM iterations
of every ``lm_minimize`` run, restarts included (``lm_iter_all``), the
``lm_minimize`` runs made (``runs``: a quartet fit makes two, its projected
run and its polish, or one of no iterations on a spectrum with no lines),
the residual evaluations of every ``lm_minimize`` run, rejected trial points
included (``evals``; the quartet fit's evaluation of its start for the
no-line test is outside any run and in no column), the trial points those
runs discarded (``rejected``: ``evals`` less the initial and accepted
points, whose Jacobians the LM asks for; a stalled run's last trials are
among them), the fits that report ``converged``, the CPU seconds
(``cpu_s``, ``time.process_time``) and minor page faults (``minflt``,
``ru_minflt`` of this process) spent in the slot's operations, the CPU
microseconds per residual evaluation (``us_eval``: ``cpu_s`` over
``evals``, so it holds the Jacobians and the slot's other work too), and a
sha256 over every operation's values, sigmas, iterations and diagnostics.
Then it prints that sha256 per slot and over all slots. Two checkouts print
the same digest only when every fit is bit-identical. ``cpu_s``, ``minflt``
and ``us_eval`` vary from run to run; the page faults show how often the
allocator hands large temporaries back to the system and takes them again
(glibc's heap trimming). It also prints ``src_lines``, the ``wc -l`` total
of ``src/vbodmr/*.py`` under the checkout it ran.

Last it prints the trust columns, which score each fit against its corpus
truth, per fit kind (op_a split by its fixed p15 of 0, 1 and 0.6, op_b,
op_c): the fits with a coupling more than 2 MHz off, per coupling and
either; the RMS z of each fitted coupling, of p15 and of P; for op_b the
fits with p15 on a bound and those with p15 more than 0.1 off away from a
bound; for op_c the fits with |P - target| > 0.02. They are not in the
digest, which already covers every value they derive from.

Then, under a ``hamiltonian_sweep`` header line, it runs each of the 36
rounds of the ``hamiltonian_sweep`` workload once, from corpus entry 0,
through ``bench/workloads.HamiltonianSweep`` and its own check. It prints,
per slot (op_a axial solves, op_b transverse dense solves with nuclear
Zeeman and quadrupole, op_c axial solves with nuclear Zeeman), the
operations and those that fail the check, then a sha256 over every
transition list (branch, nuclear label, frequency and weight of each line,
in list order, or the exception the operation raised) per slot and over all
slots. Two checkouts print the same digest only when every transition list
is bit-identical.

With ``--against OTHER`` it runs the same passes on the checkout OTHER (in a
child process). The fit_batch section then prints, per slot, the operations
whose outcome (pass or fail) or ``lm_iter`` differs between the two, and the
largest relative change of any fitted value and of any sigma, so a change
that moves the digest by a few ulps can show that no outcome moved, and
``src_lines`` of both checkouts. For op_c it also prints the largest change
of the polarization P in units of the other checkout's sigma(P), and the
other checkout's trust columns after its own. The hamiltonian_sweep section
prints, per slot, each system whose list changed, with its largest
|delta f| (MHz) and |delta weight|, and the largest of both over the slot; a
list whose branches or labels differ, or that raised on one side only,
counts as changed by inf. A list counts as changed when its JSON text, the
one the digest hashes, differs. It exits with status 1, as ``cmp`` does,
when any operation differs between the two: its fit record (the text the
digest hashes: values, sigmas, iterations and diagnostics), its outcome, its
``lm_iter`` or its transition list; 0 when none does. As ``cmp`` does for
trouble, it exits with status 2 when a root is not a checkout or the pass on
OTHER fails, and then prints the last lines of that pass's error output.

    python3 scripts/corpus_pass.py                  # this checkout
    python3 scripts/corpus_pass.py --root OTHER     # another checkout
    python3 scripts/corpus_pass.py --ops            # one line per operation
    python3 scripts/corpus_pass.py --against OTHER  # this checkout against OTHER
"""

import argparse
import hashlib
import json
import math
import resource
import subprocess
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


def op_record(out, reason, slot, case) -> dict:
    """Outcome, iterations, values and sigmas of one operation, for --against,
    and the truth it is scored against in the trust columns: the coupling
    magnitudes and p15, or a quartet's (op_c) target P; a quartet's record
    also holds P and sigma(P)."""
    if slot == "op_c":
        truth = {"P": case["target"]}
    else:
        model = case["truth"]
        truth = {"a14": abs(model.a14), "a15": abs(model.a15), "p15": model.p15}
    record = {"failed": reason is not None, "truth": truth}
    if isinstance(out, Exception):
        return {**record, "lm_iter": None, "values": {}, "sigmas": {}}
    res = out[0]
    record.update(lm_iter=res.iterations, values=dict(res.values), sigmas=dict(res.sigmas))
    if slot == "op_c":
        from vbodmr.analysis import polarization_from_quartet_fit

        report = polarization_from_quartet_fit(res)
        record["polarization"] = (report.polarization, report.sigma)
    return record


def rms(values: list) -> float | None:
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else None


def trust_columns(records: list) -> dict:
    """Per fit kind (op_a split by its fixed p15, op_b, op_c), how far the
    fits land from their truths: the fits more than 2 MHz off in each
    coupling and in either; the RMS z, (fitted - truth) / sigma, of each
    coupling, of p15 and of P over the fits with a finite sigma; the op_b
    fits with p15 on a bound, and off by more than 0.1 away from one; the
    op_c fits with |P - target| > 0.02. None marks a column that does not
    apply. A fit that raised is counted in ``fits`` only."""
    kinds: dict = {}
    for m in records:
        kind = f"op_a p15={m['truth']['p15']:g}" if m["slot"] == "op_a" else m["slot"]
        kinds.setdefault(kind, []).append(m)
    table = {}
    for kind, ops in kinds.items():
        fits = [m for m in ops if m["lm_iter"] is not None]
        fitted = {}  # parameter -> (value, truth, sigma) per fit that has it
        for m in fits:
            for name, value in m["values"].items():
                if name in m["truth"]:
                    fitted.setdefault(name, []).append((value, m["truth"][name], m["sigmas"][name]))
            if "polarization" in m:
                p, sigma = m["polarization"]
                fitted.setdefault("P", []).append((p, m["truth"]["P"], sigma))
        off = {n: [abs(v - t) > 2.0 for v, t, _ in fitted.get(n, [])] for n in ("a14", "a15")}
        row = {"fits": len(ops)}
        for name in ("a14", "a15"):
            row[f"{name} off"] = sum(off[name]) if off[name] else None
        both = len(off["a14"]) == len(off["a15"]) == len(fits) > 0
        row["either off"] = sum(map(any, zip(off["a14"], off["a15"]))) if both else None
        for name in ("a14", "a15", "p15", "P"):
            z = [(v - t) / s for v, t, s in fitted.get(name, []) if s and math.isfinite(s)]
            row[f"rms z {name}"] = rms(z) if name in fitted else None
        p15 = fitted.get("p15")
        bound = [v in (0.0, 1.0) for v, _, _ in p15 or []]
        row["p15 at bound"] = sum(bound) if p15 else None
        row["p15 off"] = (
            sum(not b and abs(v - t) > 0.1 for b, (v, t, _) in zip(bound, p15)) if p15 else None
        )
        P = fitted.get("P")
        row["P off"] = sum(abs(v - t) > 0.02 for v, t, _ in P) if P else None
        table[kind] = row
    return table


def print_trust(table: dict, title: str) -> None:
    """The trust columns, one row per fit kind; '-' where a column does not apply."""
    columns = list(next(iter(table.values())))
    print(f"trust {title}")
    print(f"{'':12}" + "".join(f"  {c}" for c in columns))
    for kind, row in table.items():
        cells = ("-" if v is None else f"{v:.2f}" if isinstance(v, float) else str(v)
                 for v in row.values())
        print(f"{kind:12}" + "".join(f"  {v:>{len(c)}}" for c, v in zip(columns, cells)))


def relative_change(new: float, old: float) -> float:
    """|new - old| / |old|; 0 when equal (infinities included), inf when old
    is 0 and new is not."""
    if new == old or (math.isnan(new) and math.isnan(old)):
        return 0.0
    if old == 0.0 or not math.isfinite(old) or not math.isfinite(new):
        return math.inf
    return abs(new - old) / abs(old)


def src_lines(root: Path) -> int:
    """Line count of the package source, as ``wc -l src/vbodmr/*.py`` totals it."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "vbodmr").glob("*.py"))


def paired(records: list, other: list, other_root: str) -> list:
    """The ``against`` line, then the two checkouts' records operation by
    operation; exits when the two ran different operations."""
    print(f"against {other_root}")
    if [(m["round"], m["slot"], m["k"]) for m in records] != [
        (t["round"], t["slot"], t["k"]) for t in other
    ]:
        raise SystemExit("the two checkouts ran different operations")
    return list(zip(records, other))


def compare(records: list, other: list, other_root: str) -> int:
    """Per slot: operations whose outcome or lm_iter moved, those whose fit
    record differs, and the largest relative change of values and of sigmas
    against the other checkout; for op_c, the largest |delta P| in units of
    the other checkout's sigma(P). Returns the number of operations that
    differ in any of these."""
    pairs = paired(records, other, other_root)
    differ = 0
    for s in SLOTS:
        moved = []
        refit = 0  # operations whose fit record differs
        worst = {"values": (0.0, None), "sigmas": (0.0, None)}
        worst_p = (0.0, None)
        for mine, theirs in pairs:
            if mine["slot"] != s:
                continue
            where = f"round {mine['round']} {s} #{mine['k']}"
            refit += mine["fit"] != theirs["fit"]
            outcome = mine["failed"] != theirs["failed"] or mine["lm_iter"] != theirs["lm_iter"]
            differ += outcome or mine["fit"] != theirs["fit"]
            if outcome:
                moved.append(
                    f"  {where}: {'fail' if theirs['failed'] else 'ok'} ->"
                    f" {'fail' if mine['failed'] else 'ok'},"
                    f" lm_iter {theirs['lm_iter']} -> {mine['lm_iter']}"
                )
            for column in worst:
                for name, old in theirs[column].items():
                    change = relative_change(mine[column].get(name, math.nan), old)
                    if change > worst[column][0]:
                        worst[column] = (change, f"{where} {name}")
            if "polarization" in mine and "polarization" in theirs:
                (p, _), (p_other, sigma) = mine["polarization"], theirs["polarization"]
                shift = abs(p - p_other) / sigma if sigma else (0.0 if p == p_other else math.inf)
                if shift > worst_p[0]:
                    worst_p = (shift, where)
        print(f"{s}: {len(moved)} operations changed outcome or lm_iter")
        for line in moved:
            print(line)
        print(f"{s}: {refit} fit records differ")
        for column, (change, where) in worst.items():
            at = f" ({where})" if where else ""
            print(f"{s}: largest relative change of {column} {change:.3g}{at}")
        if s == "op_c":
            shift, where = worst_p
            at = f" ({where})" if where else ""
            print(f"{s}: largest |delta P| {shift:.3g} sigma(P) of the other checkout{at}")
    return differ


def lines_of(out) -> list | str:
    """(branch, label, frequency, weight) of each line of a transition list,
    label by label, branch +1 first, read from its arrays; or the text of the
    exception the operation raised."""
    from vbodmr.spin_core import BRANCHES  # the package of --root, on sys.path by now

    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    rows = zip(out.labels, out.frequency_mhz.tolist(), out.dipole_weight.tolist())
    return [
        [branch, list(label), f[k], w[k]]
        for label, f, w in rows
        for k, branch in enumerate(BRANCHES)
    ]


def list_change(mine, theirs) -> tuple[float, float]:
    """Largest |delta f| and |delta weight| between two transition lists;
    inf when they do not hold the same lines in the same order."""
    if isinstance(mine, str) or isinstance(theirs, str) or len(mine) != len(theirs) or any(
        a[:2] != b[:2] for a, b in zip(mine, theirs)
    ):
        return math.inf, math.inf
    return (
        max(abs(a[2] - b[2]) for a, b in zip(mine, theirs)),
        max(abs(a[3] - b[3]) for a, b in zip(mine, theirs)),
    )


def compare_lists(records: list, other: list, other_root: str) -> int:
    """Per slot: the systems whose transition list changed against the
    other checkout, and the largest |delta f| and |delta weight|. Returns
    the number of lists that changed."""
    pairs = paired(records, other, other_root)
    differ = 0
    for s in SLOTS:
        changed = []
        worst_f = worst_w = 0.0
        for mine, theirs in pairs:
            if mine["slot"] != s or json.dumps(mine["lines"]) == json.dumps(theirs["lines"]):
                continue
            d_f, d_w = list_change(mine["lines"], theirs["lines"])
            changed.append(
                f"  round {mine['round']} {s} #{mine['k']}: |delta f| {d_f:.3g} MHz,"
                f" |delta weight| {d_w:.3g}"
            )
            worst_f, worst_w = max(worst_f, d_f), max(worst_w, d_w)
        total = sum(m["slot"] == s for m in records)
        print(f"{s}: {len(changed)} of {total} transition lists changed")
        for line in changed:
            print(line)
        print(f"{s}: largest |delta f| {worst_f:.3g} MHz, largest |delta weight| {worst_w:.3g}")
        differ += len(changed)
    return differ


def digest_lines(texts: list) -> list:
    """The sha256 lines of a pass: one per slot over its operations'
    (slot, text) pairs in run order, then one over all slots."""
    digest = hashlib.sha256()
    slot_digest = {s: hashlib.sha256() for s in SLOTS}
    for slot, text in texts:
        digest.update(text.encode())
        slot_digest[slot].update(text.encode())
    return [f"sha256 {s:4}  {slot_digest[s].hexdigest()}" for s in SLOTS] + [
        f"sha256 all   {digest.hexdigest()}"
    ]


def fit_pass(ops: bool) -> tuple[list, list]:
    """The fit_batch pass: every operation's record, and the lines of its
    slot table and digests. With ``ops``, prints one line per operation as
    it goes."""
    from workloads import FitBatch
    from vbodmr import fit

    # iterations of every lm_minimize call, kept or discarded, the residual
    # evaluations of all, the number of calls and the Jacobians asked for
    # (one per accepted point)
    all_runs = [0, 0, 0, 0]
    lm_minimize = fit.lm_minimize

    def counted_lm_minimize(problem, *a, **kw):
        def counted(p):
            all_runs[1] += 1
            res, jacobian = problem(p)

            def accepted():
                all_runs[3] += 1
                return jacobian()

            return res, accepted

        all_runs[2] += 1
        result = lm_minimize(counted, *a, **kw)
        all_runs[0] += result.iterations
        return result

    fit.lm_minimize = counted_lm_minimize

    batch = FitBatch(seed=0)  # round r reads corpus entry r
    batch.setup()
    failed = {s: 0 for s in SLOTS}
    iterations = {s: 0 for s in SLOTS}
    iterations_all = {s: 0 for s in SLOTS}
    runs = {s: 0 for s in SLOTS}
    evals = {s: 0 for s in SLOTS}
    rejected = {s: 0 for s in SLOTS}
    converged = {s: 0 for s in SLOTS}
    total = {s: 0 for s in SLOTS}
    cpu_s = {s: 0.0 for s in SLOTS}
    minflt = {s: 0 for s in SLOTS}
    records = []
    for r in range(batch.corpus_rounds):
        inputs = batch.inputs(r)
        for slot in SLOTS:
            before = list(all_runs)
            cpu, faults = time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            _, _, outputs = batch.run(slot, inputs[slot])
            cpu_s[slot] += time.process_time() - cpu
            minflt[slot] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            iterations_all[slot] += all_runs[0] - before[0]
            runs[slot] += all_runs[2] - before[2]
            evals[slot] += all_runs[1] - before[1]
            rejected[slot] += all_runs[1] - before[1] - (all_runs[3] - before[3])
            checks = batch.check(slot, inputs[slot], outputs)
            for k, (case, out, (reason, _hard)) in enumerate(zip(inputs[slot], outputs, checks)):
                record = fit_record(out)
                records.append(
                    {"round": r, "slot": slot, "k": k, "fit": record,
                     **op_record(out, reason, slot, case)}
                )
                res = None if isinstance(out, Exception) else out[0]
                total[slot] += 1
                failed[slot] += reason is not None
                if res is not None:
                    iterations[slot] += res.iterations
                    converged[slot] += res.converged
                if ops:
                    its, conv = ("-", "-") if res is None else (res.iterations, res.converged)
                    short = hashlib.sha256(record.encode()).hexdigest()[:12]
                    print(f"{r:2d} {slot} {k} it={its} conv={conv} {short} {reason or 'ok'}")
    table = [
        f"{'slot':5} {'ops':>4} {'failed':>6} {'lm_iter':>7} {'lm_iter_all':>11}"
        f" {'runs':>5} {'evals':>6} {'rejected':>8} {'converged':>9}"
        f" {'cpu_s':>7} {'minflt':>8} {'us_eval':>7}"
    ]
    for s in SLOTS:
        table.append(
            f"{s:5} {total[s]:4d} {failed[s]:6d} {iterations[s]:7d}"
            f" {iterations_all[s]:11d} {runs[s]:5d} {evals[s]:6d}"
            f" {rejected[s]:8d} {converged[s]:9d} {cpu_s[s]:7.3f} {minflt[s]:8d}"
            f" {1e6 * cpu_s[s] / max(evals[s], 1):7.1f}"
        )
    table.append(f"all   {sum(total.values()):4d} {sum(failed.values()):6d}")
    return records, table + digest_lines([(m["slot"], m["fit"]) for m in records])


def sweep_pass() -> tuple[list, list]:
    """The hamiltonian_sweep pass: every operation's transition list, and
    the lines of its slot table and digests."""
    from workloads import HamiltonianSweep

    sweep = HamiltonianSweep(seed=0)  # round r reads corpus entry r
    sweep.setup()
    total = {s: 0 for s in SLOTS}
    failed = {s: 0 for s in SLOTS}
    records = []
    for r in range(sweep.corpus_rounds):
        inputs = sweep.inputs(r)
        for slot in SLOTS:
            _, _, outputs = sweep.run(slot, inputs[slot])
            checks = sweep.check(slot, inputs[slot], outputs)
            for k, (out, (reason, _hard)) in enumerate(zip(outputs, checks)):
                records.append({"round": r, "slot": slot, "k": k, "lines": lines_of(out)})
                total[slot] += 1
                failed[slot] += reason is not None
    table = [f"{'slot':5} {'ops':>4} {'failed':>6}"]
    table += [f"{s:5} {total[s]:4d} {failed[s]:6d}" for s in SLOTS]
    return records, table + digest_lines([(m["slot"], json.dumps(m["lines"])) for m in records])


def records_of(other_root: str) -> dict:
    """Both passes' records on the checkout OTHER_ROOT, from a child
    process; when the child fails, its last error lines and exit status 2."""
    child = [sys.executable, str(Path(__file__).resolve()), "--root", other_root, "--records"]
    done = subprocess.run(child, capture_output=True, text=True)
    if done.returncode:
        print(f"the pass on {other_root} failed with status {done.returncode}:", file=sys.stderr)
        print(*done.stderr.splitlines()[-5:], sep="\n", file=sys.stderr)
        sys.exit(2)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--root", default=str(Path(__file__).resolve().parent.parent),
        help="checkout whose src/ and bench/ to run (default: this one)",
    )
    parser.add_argument("--ops", action="store_true", help="print one line per fit operation")
    parser.add_argument(
        "--against", metavar="OTHER_ROOT",
        help="also run the checkout OTHER_ROOT and print what moved between the two",
    )
    parser.add_argument("--records", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if not (root / "bench" / "workloads.py").is_file():
        parser.error(f"{root} is not a checkout: it has no bench/workloads.py")
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    fits, fit_table = fit_pass(args.ops)
    lists, list_table = sweep_pass()
    if args.records:
        json.dump({"fits": fits, "lists": lists}, sys.stdout)
        return
    other_root = str(Path(args.against).resolve()) if args.against else None
    other = records_of(other_root) if other_root else None
    print(f"root {root}")
    print(*fit_table, sep="\n")
    print(f"src_lines {src_lines(root)}")
    print_trust(trust_columns(fits), str(root))
    differ = 0
    if other:
        print(f"src_lines {src_lines(Path(other_root))} ({other_root})")
        print_trust(trust_columns(other["fits"]), other_root)
        differ += compare(fits, other["fits"], other_root)
    print("hamiltonian_sweep")
    print(*list_table, sep="\n")
    if other:
        differ += compare_lists(lists, other["lists"], other_root)
    if differ:
        sys.exit(1)


if __name__ == "__main__":
    main()
