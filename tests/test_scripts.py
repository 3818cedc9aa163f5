"""Smoke tests of the experiment scripts: each runs as its own process on the
package in ``src`` and prints a line of its table (a regular expression).
``corpus_pass.py`` runs this checkout against itself, through its child
process, and its trust columns are checked against a hand count."""

import ast
import ctypes
import functools
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name, args, expected",
    [
        # the mixed row prints both fitted couplings, a14/a15, and the converged flag
        (
            "isotope_spectra.py",
            ("--out", "{tmp}"),
            r"hB14\+15N( +[\d.]+){3} +\d+\.\d/\d+\.\d +[\d.]+ +True",
        ),
        ("sensitivity_comparison.py", (), "sensitivity gain 15N over 14N:"),
        ("polarization_sweep.py", ("--steps", "2"), "target  estimate"),
        # one run of stages.py serves the next two cases, one per table.
        # hamiltonian_sweep: the dtype of each slot's matrices and the route
        # of their eigensolves, then four stage times and their total per
        # slot, in microseconds per solve, each median/min over the passes:
        # axial slots are real and solved as m_S blocks, transverse ones dense
        (
            "stages.py",
            ("--rounds", "1", "--passes", "1"),
            r"op_a +4 +float64 +blocks( +\d+\.\d/\d+\.\d){5}\n"
            r"op_b +4 +complex128 +dense( +\d+\.\d/\d+\.\d){5}\n"
            r"op_c +4 +float64 +blocks( +\d+\.\d/\d+\.\d){5}\n",
        ),
        # fit_batch: the fits and LM points of each fit kind, then four stage
        # times in microseconds, each median/min over the passes: one residual
        # point, one Jacobian, one replayed LM run, one whole fit
        (
            "stages.py",
            ("--rounds", "1", "--passes", "1"),
            r"fixed 0 +1 +\d+( +\d+\.\d/\d+\.\d){4}\nfixed 1 +1 +\d+( +\d+\.\d/\d+\.\d){4}\n"
            r"fixed 0\.6 +1 +\d+( +\d+\.\d/\d+\.\d){4}\nfree +1 +\d+( +\d+\.\d/\d+\.\d){4}\n",
        ),
        # one run of this checkout against itself serves the next two cases:
        # every fit of the fit_batch corpus runs; no digest or failure count is
        # pinned, so a legitimate change to the fits keeps this passing
        (
            "corpus_pass.py",
            ("--against", "{root}"),
            r"\nall +200 +\d+\n(.|\n)*sha256 all +[0-9a-f]{64}",
        ),
        # every full-mode solve of the hamiltonian_sweep corpus passes its check
        (
            "corpus_pass.py",
            ("--against", "{root}"),
            r"\nhamiltonian_sweep\n(.|\n)*\nop_b +144 +0\n(.|\n)*sha256 all +[0-9a-f]{64}",
        ),
    ],
    ids=["isotope_spectra", "sensitivity_comparison", "polarization_sweep", "solve_stages",
         "fit_stages", "corpus_pass", "sweep_pass"],
)
def test_script_runs(tmp_path, name, args, expected):
    done = run_script(name, *(a.format(tmp=tmp_path, root=ROOT) for a in args))
    assert done.returncode == 0, done.stderr
    assert re.search(expected, done.stdout), done.stdout


@functools.cache
def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script once per argument list; a repeated call returns the first run."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )


def test_corpus_pass_against_itself_exits_0():
    # both corpora run here and in the --records child, and every record
    # matches (the run that test_script_runs[corpus_pass] reads)
    done = run_script("corpus_pass.py", "--against", str(ROOT))
    assert done.returncode == 0, done.stderr
    fits, lists = done.stdout.split("\nhamiltonian_sweep\n")
    for slot in ("op_a", "op_b", "op_c"):
        assert f"{slot}: 0 fit records differ" in fits
        assert f"{slot}: 0 of 144 transition lists changed" in lists


def test_corpus_pass_against_a_directory_that_is_not_a_checkout_exits_2(tmp_path):
    # a child that fails is trouble (2, as cmp has it), not a difference (1)
    done = run_script("corpus_pass.py", "--against", str(tmp_path))
    assert done.returncode == 2 and done.stdout == ""
    assert f"{tmp_path} is not a checkout" in done.stderr
    assert "Traceback" not in done.stderr


def test_stages_refuses_a_directory_that_is_not_a_checkout(tmp_path):
    # a usage error (2, argparse's status), before any table starts
    done = run_script("stages.py", "--root", str(tmp_path))
    assert done.returncode == 2 and done.stdout == ""
    assert f"{tmp_path} is not a checkout: it has no bench/workloads.py" in done.stderr
    assert "Traceback" not in done.stderr


def test_stages_help_prints_each_example_on_its_own_line():
    # the help keeps the docstring's line breaks (RawDescriptionHelpFormatter)
    doc = ast.get_docstring(ast.parse((ROOT / "scripts" / "stages.py").read_text()))
    examples = [line.strip() for line in doc.splitlines() if line.lstrip().startswith("python3 ")]
    assert len(examples) == 3
    done = run_script("stages.py", "--help")
    assert done.returncode == 0, done.stderr
    printed = [line.strip() for line in done.stdout.splitlines()]
    for example in examples:
        assert example in printed, done.stdout


def test_fuzz_cli_runs_a_case_range():
    # cases 8500-8519 of the seeded fuzz, fd 1 watched; LAPACK wrote to it
    # in case 8511 until the flat-line chi^2 rule refused its 1e308 ratio
    done = run_script("fuzz_cli.py", "--n", "20", "--seed", "8500")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["cases 8500-8519: 0 violating"]


def test_fuzz_cli_counts_a_write_below_python_as_a_violation(monkeypatch):
    # a C stdio write, as LAPACK's error handler makes it, in a case that
    # otherwise keeps the contract; with no line break it stays in C's
    # buffer until the script flushes it
    fuzz_cli = load_script("fuzz_cli")
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    import test_cli

    printf = ctypes.CDLL(None).printf
    printf.argtypes, printf.restype = [ctypes.c_char_p], ctypes.c_int

    def writing(tmp_path, verb, config_text, data):
        printf(b" ** below Python")
        return 0, None

    monkeypatch.setattr(test_cli, "fuzz_run", writing)
    found = [(case, violation) for case, _, _, violation in fuzz_cli.violations(3, 2)]
    assert found == [(case, "wrote to fd 1: b' ** below Python'") for case in (3, 4)]


def load_script(name: str):
    """A script of ``scripts/`` as a module, its ``main`` not run."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_pass_trust_columns_match_a_hand_count(monkeypatch):
    # the first three rounds of the fit_batch corpus, counted by hand from
    # the fits' values and sigmas against their truths
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    corpus_pass = load_script("corpus_pass")
    from workloads import FitBatch

    batch = FitBatch(seed=0)
    batch.setup()
    records = []
    for r in range(3):
        inputs = batch.inputs(r)
        for slot in corpus_pass.SLOTS:
            _, _, outputs = batch.run(slot, inputs[slot])
            checks = batch.check(slot, inputs[slot], outputs)
            for k, (case, out, (reason, _)) in enumerate(zip(inputs[slot], outputs, checks)):
                record = corpus_pass.op_record(out, reason, slot, case)
                records.append({"round": r, "slot": slot, "k": k, **record})
    table = corpus_pass.trust_columns(records)
    assert list(table) == ["op_a p15=0", "op_a p15=1", "op_a p15=0.6", "op_b", "op_c"]
    assert all(row["fits"] == 3 for row in table.values())
    counts = {
        kind: {c: v for c, v in row.items() if v is not None and "rms" not in c}
        for kind, row in table.items()
    }
    assert counts == {
        "op_a p15=0": {"fits": 3, "a14 off": 0},
        "op_a p15=1": {"fits": 3, "a15 off": 0},
        # round 0 is the one mixed fit more than 2 MHz off: a14 25.949 vs
        # 45.257, a15 80.260 vs 64.851
        "op_a p15=0.6": {"fits": 3, "a14 off": 1, "a15 off": 1, "either off": 1},
        # p15 0.591, 0.562 and 0.688 against 0.6, none on a bound; couplings
        # within 1.9 MHz (a15 63.647 vs 65.523 the farthest)
        "op_b": {
            "fits": 3, "a14 off": 0, "a15 off": 0, "either off": 0, "p15 at bound": 0, "p15 off": 0
        },
        # |P - target| 0.011, 0.002 and 0.0006
        "op_c": {"fits": 3, "P off": 0},
    }
    z = {
        kind: {c: round(v, 2) for c, v in row.items() if v is not None and "rms" in c}
        for kind, row in table.items()
    }
    assert z == {
        # (45.217 - 45.549) / 0.404, (41.880 - 42.478) / 0.372, (43.852 - 43.753) / 0.348
        "op_a p15=0": {"rms z a14": 1.06},
        "op_a p15=1": {"rms z a15": 1.60},
        # (25.949 - 45.257) / 1.418, (46.756 - 45.811) / 1.706, (46.115 - 45.925) / 1.417
        "op_a p15=0.6": {"rms z a14": 7.87, "rms z a15": 4.19},
        # p15: (0.591 - 0.6) / 0.033, (0.562 - 0.6) / 0.031, (0.688 - 0.6) / 0.056
        "op_b": {"rms z a14": 0.53, "rms z a15": 1.16, "rms z p15": 1.15},
        "op_c": {"rms z P": 0.51},
    }


def test_corpus_pass_compare_counts_every_operation_that_differs(capsys):
    # synthetic records: --against exits 1 on a nonzero count, as cmp does
    corpus_pass = load_script("corpus_pass")
    records = [
        {"round": r, "slot": slot, "k": 0, "failed": False, "lm_iter": 5,
         "values": {"a14": 44.0}, "sigmas": {"a14": 0.4}, "fit": f"fit {r} {slot}"}
        for r in range(2) for slot in corpus_pass.SLOTS
    ]
    other = [dict(m) for m in records]
    assert corpus_pass.compare(records, other, "other") == 0
    capsys.readouterr()
    other[0] = {**other[0], "fit": "the same values, another diagnostic"}
    other[1] = {**other[1], "lm_iter": 6}
    other[4] = {**other[4], "failed": True, "fit": "a fit that moved"}
    assert corpus_pass.compare(records, other, "other") == 3
    out = capsys.readouterr().out
    assert "op_a: 1 fit records differ" in out and "op_b: 2 operations changed outcome" in out
    assert "op_b: 1 fit records differ" in out and "op_c: 0 fit records differ" in out
    with pytest.raises(SystemExit, match="different operations"):
        corpus_pass.compare(records, other[:-1], "other")


def test_corpus_pass_compare_lists_counts_every_list_that_differs(capsys):
    corpus_pass = load_script("corpus_pass")
    line = [-1, [1.0, 0.0, -1.0], 2870.0, 0.5]
    records = [
        {"round": r, "slot": slot, "k": 0, "lines": [list(line)]}
        for r in range(2) for slot in corpus_pass.SLOTS
    ]
    other = [dict(m) for m in records]
    assert corpus_pass.compare_lists(records, other, "other") == 0
    capsys.readouterr()
    # a frequency one ulp off, a zero whose sign differs (equal as numbers),
    # and an operation that raised on one side only
    other[0] = {**other[0], "lines": [[-1, [1.0, 0.0, -1.0], 2870.0000000000005, 0.5]]}
    other[2] = {**other[2], "lines": [[-1, [1.0, -0.0, -1.0], 2870.0, 0.5]]}
    other[5] = {**other[5], "lines": "LinAlgError: did not converge"}
    assert corpus_pass.compare_lists(records, other, "other") == 3
    out = capsys.readouterr().out
    assert "op_a: 1 of 2 transition lists changed" in out
    assert "op_c: 2 of 2 transition lists changed" in out


def test_benchmark_tracer_self_test_passes(monkeypatch):
    # the self-test fits at fixed p15: a public spectrum function called
    # under that fit's residual counts as a forward-model call and fails it.
    # The free-p15 path is guarded by the test below
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import worker

    try:
        absent = worker.tracer_self_test()
    except SystemExit as exc:
        pytest.fail(str(exc))
    # the benchmark still names the two deleted per-configuration curves
    assert set(absent) <= {"spectrum.config_lines", "spectrum.config_spectrum"}


def test_cli_import_loads_every_traced_layer(monkeypatch):
    # the tracer wraps only the modules loaded when it installs, and the
    # self-test and traced_cli.py install it right after `import vbodmr.cli`:
    # a layer the CLI stops importing drops out of the trace. A fresh process,
    # so no other test's imports can hide it
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracer

    script = "import sys, vbodmr.cli; print(' '.join(m for m in sys.modules if 'vbodmr' in m))"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert done.returncode == 0, done.stderr
    assert {f"vbodmr.{layer}" for layer in tracer.LAYERS} <= set(done.stdout.split())


def test_traced_free_p15_fit_counts_one_forward_call_per_residual(monkeypatch):
    # the benchmark's tracer around one free-p15 fit, as the self-test runs
    # its fixed-p15 one: each residual evaluation makes one spectrum-layer
    # call (its lorentzian), and no public function besides
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import numpy as np
    import tracer
    import worker

    import vbodmr.cli  # noqa: F401  (loads every layer module)
    from vbodmr import fit, spectrum

    model = spectrum.SpectrumModel(2308.0, 0.11, 51.0, 43.0, 64.0, 0.6)
    grid = spectrum.default_grid(model.f_center, points=101)
    y = spectrum.mixture_spectrum(model, grid).values
    y = y + np.random.default_rng(0).normal(0.0, 0.002, y.size)
    t = tracer.Tracer()
    t.install(worker.NAMED_FUNCTIONS)
    try:
        t.enabled = True
        fit.fit_physical(fit.MeasuredSpectrum(grid, y), p15_mode="free")
        t.enabled = False
    finally:
        t.uninstall()
    assert t.model_evals > 0
    assert t.forward_calls_under_lm() == t.model_evals
