#!/usr/bin/env python3
"""One untimed pass of the hamiltonian_sweep benchmark corpus: a digest of
every full-mode transition list.

Runs each of the 36 rounds of the ``hamiltonian_sweep`` workload once, from
corpus entry 0, through ``bench/workloads.HamiltonianSweep`` and its own
check. Prints, per slot (op_a axial solves, op_b transverse dense solves
with nuclear Zeeman and quadrupole, op_c axial solves with nuclear Zeeman),
the operations, those that fail the check, and a sha256 over every
transition list: branch, nuclear label, frequency and weight of each line,
in list order, or the exception the operation raised. Then it prints that
sha256 per slot and over all slots. Two checkouts print the same digest only
when every transition list is bit-identical.

With ``--against OTHER`` it runs the same pass on the checkout OTHER (in a
child process) and prints, per slot, each system whose list changed, with
its largest |delta f| (MHz) and |delta weight|, and the largest of both over
the slot; a list whose branches or labels differ, or that raised on one side
only, counts as changed by inf. A list counts as changed when its JSON
text, the one the digest hashes, differs. It exits with status 1, as ``cmp``
does, when any list changed; 0 when none did.

    python3 scripts/sweep_pass.py                  # this checkout
    python3 scripts/sweep_pass.py --root OTHER     # another checkout
    python3 scripts/sweep_pass.py --against OTHER  # this checkout against OTHER
"""

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

SLOTS = ("op_a", "op_b", "op_c")


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


def compare(records: list, other: list, other_root: str) -> int:
    """Per slot: the systems whose transition list changed against the
    other checkout, and the largest |delta f| and |delta weight|. Returns
    the number of lists that changed."""
    print(f"against {other_root}")
    if [(m["round"], m["slot"], m["k"]) for m in records] != [
        (t["round"], t["slot"], t["k"]) for t in other
    ]:
        raise SystemExit("the two checkouts ran different operations")
    differ = 0
    for s in SLOTS:
        changed = []
        worst_f = worst_w = 0.0
        for mine, theirs in zip(records, other):
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=str(Path(__file__).resolve().parent.parent),
        help="checkout whose src/ and bench/ to run (default: this one)",
    )
    parser.add_argument(
        "--against", metavar="OTHER_ROOT",
        help="also run the checkout OTHER_ROOT and print the lists that changed between the two",
    )
    parser.add_argument("--records", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from workloads import HamiltonianSweep

    sweep = HamiltonianSweep(seed=0)  # round r reads corpus entry r
    sweep.setup()
    total = {s: 0 for s in SLOTS}
    failed = {s: 0 for s in SLOTS}
    digest = hashlib.sha256()
    slot_digest = {s: hashlib.sha256() for s in SLOTS}
    records = []
    for r in range(sweep.corpus_rounds):
        inputs = sweep.inputs(r)
        for slot in SLOTS:
            _, _, outputs = sweep.run(slot, inputs[slot])
            checks = sweep.check(slot, inputs[slot], outputs)
            for k, (out, (reason, _hard)) in enumerate(zip(outputs, checks)):
                lines = lines_of(out)
                records.append({"round": r, "slot": slot, "k": k, "lines": lines})
                text = json.dumps(lines).encode()
                digest.update(text)
                slot_digest[slot].update(text)
                total[slot] += 1
                failed[slot] += reason is not None
    if args.records:
        json.dump(records, sys.stdout)
        return
    print(f"root {root}")
    print(f"{'slot':5} {'ops':>4} {'failed':>6}")
    for s in SLOTS:
        print(f"{s:5} {total[s]:4d} {failed[s]:6d}")
    for s in SLOTS:
        print(f"sha256 {s:4}  {slot_digest[s].hexdigest()}")
    print(f"sha256 all   {digest.hexdigest()}")
    if args.against:
        other_root = str(Path(args.against).resolve())
        child = [sys.executable, str(Path(__file__).resolve()), "--root", other_root, "--records"]
        other = json.loads(subprocess.run(child, capture_output=True, text=True, check=True).stdout)
        if compare(records, other, other_root):
            sys.exit(1)


if __name__ == "__main__":
    main()
