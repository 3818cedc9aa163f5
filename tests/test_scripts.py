"""Smoke tests of the experiment scripts: each runs as its own process on the
package in ``src`` and prints a line of its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name, args, expected",
    [
        # the only caller of fit_physical(freeze=...) with couplings set on the initial guess
        ("isotope_spectra.py", ("--out", "{tmp}"), "hB14+15N"),
        ("sensitivity_comparison.py", (), "sensitivity gain 15N over 14N:"),
        ("polarization_sweep.py", ("--steps", "2"), "target  estimate"),
    ],
    ids=["isotope_spectra", "sensitivity_comparison", "polarization_sweep"],
)
def test_script_runs(tmp_path, name, args, expected):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
