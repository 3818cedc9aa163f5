#!/usr/bin/env python3
"""The seeded CLI fuzz of ``tests/test_cli.py`` over any range of cases.

Runs cases ``--seed`` to ``--seed + --n - 1`` of ``fuzz_case``, each through
``fuzz_run`` (the verb run twice in-process, in a fresh temporary directory,
and checked against the CLI contract: a documented exit code, one prefixed
stderr line per failure, a strict JSON report on exit 0 or 3, the same
outcome both times). File descriptor 1 is redirected to a temporary file
around each case, and C's stdio buffers are flushed before it is restored,
so a write below Python (a LAPACK error message, say) is a violation too:
the contract leaves stdout to the ``wrote`` line, which the in-process runs
capture at the Python level. An exception a case raises is a violation.

Prints each violating case with its verb, what it drew and the violation,
then one summary line, and exits 1 if any case violated the contract.

    python3 scripts/fuzz_cli.py                       # cases 0-659, the suite's
    python3 scripts/fuzz_cli.py --n 20000 --seed 0    # cases 0-19999
"""

import argparse
import contextlib
import ctypes
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fd1_writes(run):
    """``run()``'s result and the bytes written to file descriptor 1 while it
    ran, C stdio buffers included."""
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes, fflush.restype = [ctypes.c_void_p], ctypes.c_int
    sys.stdout.flush()
    saved = os.dup(1)
    with tempfile.TemporaryFile() as sink:
        os.dup2(sink.fileno(), 1)
        try:
            result = run()
        finally:
            sys.stdout.flush()
            fflush(None)  # NULL: every C output stream
            os.dup2(saved, 1)
            os.close(saved)
        sink.seek(0)
        return result, sink.read()


def violations(first: int, n: int):
    """(case, verb, drawn kinds, violation) of each case in [first, first + n)
    that breaks the contract."""
    from test_cli import fuzz_case, fuzz_run

    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for case in range(first, first + n):
            verb, config_text, data, kinds = fuzz_case(case)
            try:
                (_, violation), written = fd1_writes(
                    lambda: fuzz_run(Path(tmp), verb, config_text, data)
                )
            except Exception as exc:  # any exception breaks the contract
                violation, written = f"raised {exc!r}", b""
            if written:
                violation = violation or f"wrote to fd 1: {written[:80]!r}"
            if violation:
                yield case, verb, kinds, violation


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--n", type=int, default=None, help="cases to run (default: the suite's)")
    parser.add_argument("--seed", type=int, default=0, help="first case number (default: 0)")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_cli import FUZZ_CASES

    n = FUZZ_CASES if args.n is None else args.n
    if n < 1 or args.seed < 0:
        parser.error("--n must be >= 1 and --seed >= 0")
    found = 0
    for case, verb, kinds, violation in violations(args.seed, n):
        found += 1
        print(f"case {case} ({verb}, {', '.join(kinds)}): {violation}", flush=True)
    print(f"cases {args.seed}-{args.seed + n - 1}: {found} violating")
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main()
