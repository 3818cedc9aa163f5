import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vbodmr import cli, fit, spectrum, validate
from vbodmr.cli import IngestError, SchemaError, ingest_csv, validate_config
from vbodmr.constants import NATURAL_B10_FRACTION
from vbodmr.fit import MeasuredSpectrum
from vbodmr.spectrum import SpectrumModel, default_grid, mixture_spectrum
from vbodmr.spin_core import IsotopeSpecies


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_curve_csv(tmp_path, name="measured.csv", rows=801, with_sigma=False):
    model = SpectrumModel(
        f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=64.0, p15=1.0
    )
    grid = default_grid(2308.0, points=rows)
    curve = mixture_spectrum(model, grid)
    path = tmp_path / name
    header = "frequency_mhz,ratio,sigma" if with_sigma else "frequency_mhz,ratio"
    lines = [header]
    for f, v in zip(curve.frequencies, curve.values):
        lines.append(f"{float(f)!r},{float(v)!r}" + (",0.002" if with_sigma else ""))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# --- ingestion -----------------------------------------------------------------

def test_ingest_well_formed(tmp_path):
    path = write_curve_csv(tmp_path, rows=801)
    meas = ingest_csv(path)
    assert meas.n_samples == 801
    assert meas.sigmas is None


def test_ingest_with_sigma_column(tmp_path):
    path = write_curve_csv(tmp_path, rows=101, with_sigma=True)
    meas = ingest_csv(path)
    assert meas.sigmas is not None
    assert np.all(meas.sigmas == 0.002)


def test_ingest_header_only_fails(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("frequency_mhz,ratio\n", encoding="utf-8")
    with pytest.raises(IngestError, match="insufficient samples"):
        ingest_csv(path)


def test_ingest_sorts_unsorted_rows(tmp_path):
    path = tmp_path / "unsorted.csv"
    rows = ["frequency_mhz,ratio"] + [f"{f},1.0" for f in (5, 3, 8, 1, 7, 2, 6, 4)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    meas = ingest_csv(path)
    assert np.array_equal(meas.frequencies, np.arange(1.0, 9.0))


def test_ingest_reports_malformed_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["frequency_mhz,ratio"] + [f"{f},1.0" for f in range(8)]
    rows[4] = "3,not_a_number"  # header is line 1, so this is file line 5
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(IngestError, match=":5:"):
        ingest_csv(path)


def test_ingest_rejects_duplicates_and_bad_header(tmp_path):
    path = tmp_path / "dup.csv"
    rows = ["frequency_mhz,ratio"] + [f"{f},1.0" for f in (1, 2, 2, 3, 4, 5, 6, 7)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(IngestError, match="duplicate"):
        ingest_csv(path)
    path2 = tmp_path / "hdr.csv"
    path2.write_text("freq,ratio\n1,1\n", encoding="utf-8")
    with pytest.raises(IngestError, match="header"):
        ingest_csv(path2)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(IngestError, match="not found"):
        ingest_csv(tmp_path / "nope.csv")


def test_ingest_unreadable_path_is_an_ingest_error(tmp_path):
    with pytest.raises(IngestError, match="cannot open"):
        ingest_csv(tmp_path)


@pytest.mark.parametrize(
    "bad_row",
    ["3,nan", "3,inf", "nan,1.0", "3,1.0,-inf"],
    ids=["nan_ratio", "inf_ratio", "nan_frequency", "inf_sigma"],
)
def test_fit_rejects_non_finite_cell_with_line_number(tmp_path, capsys, bad_row):
    path = tmp_path / "bad.csv"
    width = bad_row.count(",") + 1
    header = "frequency_mhz,ratio,sigma" if width == 3 else "frequency_mhz,ratio"
    rows = [header] + [f"{f},1.0" + (",0.01" if width == 3 else "") for f in range(10)]
    rows[4] = bad_row  # header is line 1, so this is file line 5
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = write_config(tmp_path, {"fit": {"input_csv": str(path)}})
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", config, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{path}:5: non-finite" in err
    assert not out.exists()


def test_fit_rejects_non_utf8_csv_naming_the_path(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    rows = [b"frequency_mhz,ratio"] + [f"{f},1.0".encode() for f in range(10)]
    rows[-1] = b"9,1.0 \xe9"
    path.write_bytes(b"\n".join(rows) + b"\n")
    with pytest.raises(IngestError, match="not UTF-8"):
        ingest_csv(path)
    config = write_config(tmp_path, {"fit": {"input_csv": str(path)}})
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", config, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ingestion error: ")
    assert f"{path}: not UTF-8 text" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_ingest_accepts_utf8_byte_order_mark(tmp_path):
    plain = write_curve_csv(tmp_path, rows=101)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    meas = ingest_csv(bom)
    assert np.array_equal(meas.frequencies, ingest_csv(plain).frequencies)
    assert np.array_equal(meas.ratios, ingest_csv(plain).ratios)
    # offsets of undecodable bytes still count the mark
    bad = tmp_path / "bom_latin1.csv"
    bad.write_bytes(b"\xef\xbb\xbffrequency_mhz,ratio\n1,1.0 \xe9\n")
    with pytest.raises(IngestError, match="offset 29"):
        ingest_csv(bad)


# (newline, data lines, the samples they give): what a spreadsheet or a
# script writes and Python's float() takes, each accepted as it was row by row
ACCEPTED_ROWS = {
    "crlf": ("\r\n", ["1,0.9"], [(1.0, 0.9)]),
    "lone_cr": ("\r", ["1,0.9"], [(1.0, 0.9)]),
    "blank_lines": ("\n", ["", "1,0.9", " \t", ""], [(1.0, 0.9)]),
    "spaces": ("\n", [" 1 ,\t0.9 "], [(1.0, 0.9)]),
    "nbsp": ("\n", ["\xa01,0.9\xa0"], [(1.0, 0.9)]),
    "underscores": ("\n", ["1_000,0.9_5"], [(1000.0, 0.95)]),
    "signs_exponents": ("\n", ["+1e0,-.5E-1"], [(1.0, -0.05)]),
    "quoted": ("\n", ['"1","0.9"'], [(1.0, 0.9)]),
    "quoted_across_lines": ("\n", ['"', '1', '",0.9'], [(1.0, 0.9)]),
}


def csv_text(newline: str, lines) -> str:
    """A frequency_mhz,ratio CSV of ``lines`` after eight good rows, 20-27 MHz."""
    rows = ["frequency_mhz,ratio"] + [f"{20 + k},1.0" for k in range(8)] + list(lines)
    return newline.join(rows) + newline


@pytest.mark.parametrize("newline, lines, samples", ACCEPTED_ROWS.values(), ids=list(ACCEPTED_ROWS))
def test_ingest_accepts_what_float_takes_in_any_line_layout(tmp_path, newline, lines, samples):
    path = tmp_path / "layout.csv"
    path.write_bytes(b"\xef\xbb\xbf" + csv_text(newline, lines).encode())
    meas = ingest_csv(path)
    expected = sorted([(20.0 + k, 1.0) for k in range(8)] + samples)
    assert meas.frequencies.tolist() == [f for f, _ in expected]
    assert meas.ratios.tolist() == [r for _, r in expected]


# (newline, data lines, message after "<path>:"): the first refused line by
# its number, the header and blank lines counted; a record that spans lines
# (a quoted cell may) by the line where it ends
REFUSED_ROWS = {
    "three_cells": ("\n", ["1,0.9,3"], "10: expected 2 cells, got 3"),
    "one_cell": ("\n", ["1"], "10: expected 2 cells, got 1"),
    "empty_cell": ("\n", ["1, ,"], "10: expected 2 cells, got 3"),
    "hex": ("\n", ["0x10,0.9"], "10: malformed numeric cell"),
    "double_underscore": ("\n", ["1__0,0.9"], "10: malformed numeric cell"),
    "comma_in_quotes": ("\n", ['"1,5",0.9'], "10: malformed numeric cell"),
    "nan": ("\n", ["1,nan"], "10: non-finite numeric cell"),
    "minus_infinity": ("\n", ["-Infinity,0.9"], "10: non-finite numeric cell"),
    "overflow": ("\n", ["1,1e999"], "10: non-finite numeric cell"),
    "after_blank_crlf": ("\r\n", ["", "", "1,x"], "12: malformed numeric cell"),
    "first_of_two": ("\n", ["1,inf", "2,x"], "10: non-finite numeric cell"),
    "width_before_value": ("\n", ["1,0.9,3", "2,inf"], "10: expected 2 cells, got 3"),
    "malformed_before_non_finite": ("\n", ["1,x", "2,inf"], "10: malformed numeric cell"),
    "non_finite_before_width": ("\n", ["1,inf", "2,0.9,3"], "10: non-finite numeric cell"),
    "malformed_before_width": ("\n", ["1,x", "2"], "10: malformed numeric cell"),
    "after_a_spanning_cell": ("\n", ['"1', '",1.0', "2,x"], "12: malformed numeric cell"),
    "spanning_and_refused": ("\n", ['"1', 'x",1.0'], "11: malformed numeric cell"),
    "unterminated_quote": ("\n", ['"1,0.9', "2,0.9"], "11: expected 2 cells, got 1"),
}


@pytest.mark.parametrize("newline, lines, message", REFUSED_ROWS.values(), ids=list(REFUSED_ROWS))
def test_ingest_names_the_first_refused_line(tmp_path, capsys, newline, lines, message):
    path = tmp_path / "refused.csv"
    path.write_text(csv_text(newline, lines), encoding="utf-8", newline="")
    with pytest.raises(IngestError) as exc:
        ingest_csv(path)
    assert str(exc.value) == f"{path}:{message}"
    config = write_config(tmp_path, {"fit": {"input_csv": str(path)}})
    assert cli.main(["fit", "--config", config, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"ingestion error: {path}:{message}\n"


# a cell one character over the csv reader's field limit
OVERSIZED = "9" * (csv.field_size_limit() + 1)
LIMIT = f"field larger than field limit ({csv.field_size_limit()})"
# (CSV text, message after "<path>:"): the reader's refusal is named by its
# line, after any row refused before it
OVERSIZED_CELLS = {
    "header": (f"frequency_mhz,{OVERSIZED}\n1,1.0\n", f"1: {LIMIT}"),
    "data": (csv_text("\n", [f"1,{OVERSIZED}", "2,0.9"]), f"10: {LIMIT}"),
    "refused_row_first": (csv_text("\n", ["1,x", f"2,{OVERSIZED}"]), "10: malformed numeric cell"),
    "non_finite_row_first": (
        csv_text("\n", ["1,inf", f"2,{OVERSIZED}"]), "10: non-finite numeric cell"
    ),
    "oversized_row_first": (csv_text("\n", [f"1,{OVERSIZED}", "2,x"]), f"10: {LIMIT}"),
    "after_a_spanning_cell": (csv_text("\n", ['"1', '",1.0', f"2,{OVERSIZED}"]), f"12: {LIMIT}"),
}


@pytest.mark.parametrize("text, message", OVERSIZED_CELLS.values(), ids=list(OVERSIZED_CELLS))
def test_ingest_names_the_line_of_a_cell_over_the_field_limit(tmp_path, capsys, text, message):
    path = tmp_path / "oversized.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(IngestError) as exc:
        ingest_csv(path)
    assert str(exc.value) == f"{path}:{message}"
    config = write_config(tmp_path, {"fit": {"input_csv": str(path)}})
    assert cli.main(["fit", "--config", config, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"ingestion error: {path}:{message}\n"


TEN = [2300.0 + 2.5 * k for k in range(10)]
# (frequencies, sigmas or None, refused): the sample rules at their edges
SAMPLE_SETS = {
    "ten": (TEN, None, False),
    "ten_with_sigmas": (TEN, [0.002] * 10, False),
    "unsorted": (TEN[5:] + TEN[:5], [0.001 * (k + 1) for k in range(10)], False),
    "eight": (TEN[:8], None, False),
    "seven": (TEN[:7], None, True),
    "none": ([], None, True),
    "duplicate": (TEN[:9] + [TEN[4]], None, True),
    "near_duplicate": (TEN[:9] + [TEN[4] + 1e-10], None, True),
    "just_apart": (TEN[:9] + [TEN[4] + 1e-6], None, False),
    "zero_sigma": (TEN, [0.002] * 9 + [0.0], True),
    "negative_sigma": (TEN, [-0.002] + [0.002] * 9, True),
}


@pytest.mark.parametrize(
    "frequencies, sigmas, refused", list(SAMPLE_SETS.values()), ids=list(SAMPLE_SETS)
)
def test_ingest_refuses_exactly_what_measured_spectrum_refuses(
    tmp_path, frequencies, sigmas, refused
):
    ratios = [1.0 - 0.001 * k for k in range(len(frequencies))]
    columns = [frequencies, ratios] + ([sigmas] if sigmas is not None else [])
    path = tmp_path / "samples.csv"
    lines = ["frequency_mhz,ratio" + (",sigma" if sigmas is not None else "")]
    lines += [",".join(repr(float(v)) for v in cells) for cells in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        expected = MeasuredSpectrum(*(np.array(c, dtype=float) for c in columns))
    except ValueError as exc:
        assert refused
        with pytest.raises(IngestError, match=re.escape(f"{path}: {exc}")):
            ingest_csv(path)
        return
    assert not refused
    meas = ingest_csv(path)
    assert np.array_equal(meas.frequencies, expected.frequencies)
    assert np.array_equal(meas.ratios, expected.ratios)
    assert (meas.sigmas is None) == (expected.sigmas is None)
    assert sigmas is None or np.array_equal(meas.sigmas, expected.sigmas)


# --- schema --------------------------------------------------------------------

def test_schema_rejects_unknown_keys_exhaustively():
    config = {
        "simulate": {
            "model": {
                "f_center_mhz": 2308.0,
                "contrast": 0.1,
                "linewidth_mhz": 50.0,
                "p15": 1.0,
                "typo_key": 1,
            },
            "bogus": True,
        },
        "mystery": 3,
    }
    with pytest.raises(SchemaError) as err:
        validate_config(config, "simulate")
    text = str(err.value)
    assert "mystery" in text and "bogus" in text and "typo_key" in text


def test_schema_requires_command_block():
    with pytest.raises(SchemaError, match="missing required key 'fit'"):
        validate_config({"simulate": {}}, "fit")
    # another verb's block is not checked, but must be an object
    with pytest.raises(SchemaError, match="key 'simulate' has wrong type list"):
        validate_config({"fit": {"input_csv": "x.csv"}, "simulate": []}, "fit")


def test_schema_type_checks():
    config = {
        "simulate": {
            "model": {
                "f_center_mhz": "not a number",
                "contrast": 0.1,
                "linewidth_mhz": 50.0,
                "p15": 1.0,
            }
        }
    }
    with pytest.raises(SchemaError, match="wrong type"):
        validate_config(config, "simulate")


def test_schema_rejects_bool_p15(tmp_path, capsys):
    with pytest.raises(SchemaError, match="'fit.p15' has wrong type bool"):
        validate_config({"fit": {"input_csv": "x.csv", "p15": True}}, "fit")
    config = write_config(tmp_path, {"fit": {"input_csv": "x.csv", "p15": True}})
    assert cli.main(["fit", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "config error: key 'fit.p15' has wrong type bool" in capsys.readouterr().err


def test_schema_rejects_bool_seed(tmp_path, capsys):
    with pytest.raises(SchemaError, match="key 'seed' has wrong type bool"):
        validate_config({"validate": {}, "seed": True}, "validate")
    with pytest.raises(SchemaError, match="key 'seed' must be a nonnegative integer"):
        validate_config({"validate": {}, "seed": -1}, "validate")
    config = write_config(tmp_path, {"validate": {}, "seed": True})
    assert cli.main(["validate", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "key 'seed' has wrong type bool" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, block, key, type_name",
    [
        ("raman", {"points": [{"nitrogen_frac_15": 0.5, "boron_frac_10": {}}]},
         "raman.points[0].boron_frac_10", "dict"),
        ("raman", {"points": [{"nitrogen_frac_15": 0.5}, {"nitrogen_frac_15": None}]},
         "raman.points[1].nitrogen_frac_15", "NoneType"),
        ("polarization", {"areas": {"-1.5": True}, "m_max": 1.5},
         "polarization.areas.-1.5", "bool"),
        ("polarization", {"areas": {"-1.5": 1.0, "1.5": [2.0]}, "m_max": 1.5},
         "polarization.areas.1.5", "list"),
    ],
)
def test_non_number_in_free_form_block_is_a_schema_error(
    tmp_path, capsys, command, block, key, type_name
):
    config = write_config(tmp_path, {command: block})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: key '{key}' has wrong type {type_name}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_negative_seed_flag_is_a_schema_error(tmp_path, capsys, command):
    config = write_config(tmp_path, {command: SIM_BLOCK if command == "simulate" else {}})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out), "--seed=-1"]) == 1
    err = "config error: option '--seed' must be a nonnegative integer\n"
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


def test_polarization_input_csv_is_an_unknown_key(tmp_path, capsys):
    # a quartet spectrum reaches P through fit alone; the old config is
    # refused before its input file is read
    config = write_config(tmp_path, {"polarization": {"input_csv": str(tmp_path / "absent.csv")}})
    out = tmp_path / "out"
    assert cli.main(["polarization", "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: unknown key 'polarization.input_csv'\n"
        "config error: missing required key 'polarization.areas'\n"
        "config error: missing required key 'polarization.m_max'\n"
    )
    assert not out.exists()


def test_polarization_area_key_beyond_m_max_exits_1(tmp_path, capsys):
    # |m_tot| > m_max would put P outside [-1, 1]: here 7.5 / 1.5 = 5
    config = write_config(tmp_path, {"polarization": {"areas": {"7.5": 1.0}, "m_max": 1.5}})
    out = tmp_path / "out"
    assert cli.main(["polarization", "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: area key m_tot = 7.5 lies outside [-m_max, m_max], m_max = 1.5\n"
    )
    assert not out.exists()


# --- simulate ------------------------------------------------------------------

SIM_BLOCK = {
    "model": {
        "f_center_mhz": 2308.0,
        "contrast": 0.11,
        "linewidth_mhz": 51.0,
        "a15_mhz": -64.0,
        "p15": 1.0,
    },
    "noise_sigma": 0.002,
}


def test_simulate_deterministic_outputs(tmp_path):
    config = write_config(tmp_path, {"simulate": SIM_BLOCK, "seed": 42})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["simulate", "--config", config, "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["simulate", "--config", config, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
    assert (out1 / "simulate.json").read_bytes() == (out2 / "simulate.json").read_bytes()
    report = json.loads((out1 / "simulate.json").read_text())
    assert report["schema_version"] == "1"
    assert report["model"]["binomial_fractions"] == [0.0, 0.0, 0.0, 1.0]


# a value for every key of the key table, none of them a default
MODEL_VALUES = {
    "f_center_mhz": 2301.5,
    "contrast": 0.0731,
    "linewidth_mhz": 47.25,
    "a14_mhz": 41.5,
    "a15_mhz": -66.5,
    "p15": 0.37,
}


def test_simulate_echoes_each_model_key_with_its_value():
    assert set(MODEL_VALUES) == set(cli.MODEL_FIELDS)
    block = validate_config({"simulate": {"model": MODEL_VALUES}}, "simulate")
    report, _ = cli.cmd_simulate(block, seed=0)
    assert {key: report["model"][key] for key in cli.MODEL_FIELDS} == MODEL_VALUES


@pytest.mark.parametrize("key", list(cli.MODEL_FIELDS))
def test_fit_init_key_reaches_the_fit_as_its_field(tmp_path, monkeypatch, key):
    class Reached(Exception):
        pass

    def fit_physical(meas, init, p15_mode):
        raise Reached(meas, init)

    monkeypatch.setattr(fit, "fit_physical", fit_physical)
    csv_path = write_curve_csv(tmp_path, rows=101)
    config = {"fit": {"input_csv": str(csv_path), "p15": "free", "init": {key: MODEL_VALUES[key]}}}
    with pytest.raises(Reached) as reached:
        cli.cmd_fit(validate_config(config, "fit"), seed=0)
    meas, init = reached.value.args
    start = fit.initial_physical_guess(meas, 0.5, branch=-1)
    # exactly the named field moved off the data's own start
    assert getattr(start, cli.MODEL_FIELDS[key]) != MODEL_VALUES[key]
    assert init == replace(start, **{cli.MODEL_FIELDS[key]: MODEL_VALUES[key]})


def test_simulate_rejects_bad_p15(tmp_path, capsys):
    block = {"model": dict(SIM_BLOCK["model"], p15=1.5)}
    config = write_config(tmp_path, {"simulate": block})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("sigma", [-0.002, float("nan")])
def test_simulate_rejects_bad_noise_sigma(tmp_path, capsys, sigma):
    config = write_config(tmp_path, {"simulate": dict(SIM_BLOCK, noise_sigma=sigma)})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 1
    # json writes NaN as a bare token, which the config parser rejects
    expected = (
        "config error: non-finite number NaN (numbers must be finite)\n"
        if np.isnan(sigma)
        else "config error: simulate.noise_sigma must be a finite number >= 0\n"
    )
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_unwritable_out_dir_exits_1_with_one_line(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    config = write_config(tmp_path, {"raman": {"points": [{"nitrogen_frac_15": 0.5}]}})
    assert cli.main(["raman", "--config", config, "--out", str(blocker / "x"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_simulate_unknown_key_aborts_before_writing(tmp_path):
    config = write_config(tmp_path, {"simulate": dict(SIM_BLOCK, wrong=1)})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 1
    assert not out.exists()


# --- fit -----------------------------------------------------------------------

def test_fit_round_trip_via_cli(tmp_path):
    sim_config = write_config(
        tmp_path, {"simulate": SIM_BLOCK, "seed": 7}, name="sim.json"
    )
    out = tmp_path / "sim_out"
    assert cli.main(["simulate", "--config", sim_config, "--out", str(out), "--quiet"]) == 0
    fit_config = write_config(
        tmp_path,
        {
            "fit": {
                "input_csv": str(out / "curve.csv"),
                "model": "physical",
                "p15": 1.0,
                "d_gs_mhz": 3466.0,
            }
        },
        name="fit.json",
    )
    fit_out = tmp_path / "fit_out"
    assert cli.main(["fit", "--config", fit_config, "--out", str(fit_out), "--quiet"]) == 0
    report = json.loads((fit_out / "fit.json").read_text())
    assert report["fit"]["converged"] is True
    assert report["fit"]["params"]["a15"]["value"] == pytest.approx(64.0, abs=2.0)
    assert report["derived"]["field_mt"] == pytest.approx((3466.0 - 2308.0) / 28.0, abs=0.2)


def test_upper_branch_fit_reports_its_field(tmp_path):
    sim_block = dict(SIM_BLOCK, model=dict(SIM_BLOCK["model"], f_center_mhz=4616.0, branch=1))
    sim_config = write_config(tmp_path, {"simulate": sim_block, "seed": 7}, name="sim.json")
    out = tmp_path / "sim_out"
    assert cli.main(["simulate", "--config", sim_config, "--out", str(out), "--quiet"]) == 0
    fit_block = {"input_csv": str(out / "curve.csv"), "p15": 1.0, "branch": 1, "d_gs_mhz": 3466}
    fit_config = write_config(tmp_path, {"fit": fit_block}, name="fit.json")
    fit_out = tmp_path / "fit_out"
    assert cli.main(["fit", "--config", fit_config, "--out", str(fit_out), "--quiet"]) == 0
    derived = json.loads((fit_out / "fit.json").read_text())["derived"]
    assert derived["field_mt"] == pytest.approx((4616.0 - 3466.0) / 28.0, abs=0.2)


@pytest.mark.parametrize("branch, f_center", [(-1, 2308.0), (1, 4616.0)])
def test_polarized_quartet_reads_its_polarization_and_field_on_either_branch(
    tmp_path, branch, f_center
):
    # a pure 15N quartet at P = 0.2: the upper branch's lines run from
    # m_tot = +3/2 at low frequency, so ascending order maps to descending m_tot
    model = dict(
        SIM_BLOCK["model"], f_center_mhz=f_center, branch=branch, linewidth_mhz=20.0,
        polarization=0.2,
    )
    sim_config = write_config(
        tmp_path, {"simulate": dict(SIM_BLOCK, model=model), "seed": 9}, name="sim.json"
    )
    out = tmp_path / "sim_out"
    assert cli.main(["simulate", "--config", sim_config, "--out", str(out), "--quiet"]) == 0
    fit_block = {
        "input_csv": str(out / "curve.csv"), "model": "free_lorentzians", "polarization": True,
        "branch": branch, "d_gs_mhz": 3466.0,
    }
    fit_config = write_config(tmp_path, {"fit": fit_block}, name="fit.json")
    fit_out = tmp_path / "fit_out"
    assert cli.main(["fit", "--config", fit_config, "--out", str(fit_out), "--quiet"]) == 0
    derived = json.loads((fit_out / "fit.json").read_text())["derived"]
    assert derived["polarization"] == pytest.approx(0.2, abs=0.02)
    order = "-3/2..+3/2" if branch == -1 else "+3/2..-3/2"
    assert derived["m_tot_assignment"] == f"ascending frequency -> m_tot {order}"
    assert derived["field_mt"] == pytest.approx(abs(f_center - 3466.0) / 28.0, abs=0.2)


def test_fit_from_a_zero_coupling_start_via_cli(tmp_path):
    # a start on the symmetry plane a14 = 0, where the a14 gradient vanishes
    sim_block = dict(SIM_BLOCK, model=dict(SIM_BLOCK["model"], p15=0.6, a14_mhz=44.0))
    sim_config = write_config(tmp_path, {"simulate": sim_block, "seed": 5}, name="sim.json")
    out = tmp_path / "sim_out"
    assert cli.main(["simulate", "--config", sim_config, "--out", str(out), "--quiet"]) == 0
    fit_config = write_config(
        tmp_path,
        {"fit": {"input_csv": str(out / "curve.csv"), "p15": 0.6, "init": {"a14_mhz": 0}}},
        name="fit.json",
    )
    fit_out = tmp_path / "fit_out"
    assert cli.main(["fit", "--config", fit_config, "--out", str(fit_out), "--quiet"]) == 0
    report = json.loads((fit_out / "fit.json").read_text())
    assert report["fit"]["converged"] is True
    assert report["fit"]["residual_rms"] <= 1.2 * 0.002
    assert report["fit"]["params"]["a14"]["value"] == pytest.approx(44.0, abs=2.0)


def test_fit_quartet_polarization_report(tmp_path):
    sim_block = {
        "model": dict(SIM_BLOCK["model"], polarization=0.16),
        "noise_sigma": 0.002,
    }
    sim_config = write_config(tmp_path, {"simulate": sim_block, "seed": 3}, name="s.json")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", sim_config, "--out", str(out), "--quiet"]) == 0
    fit_config = write_config(
        tmp_path,
        {
            "fit": {
                "input_csv": str(out / "curve.csv"),
                "model": "free_lorentzians",
                "n_lines": 4,
                "polarization": True,
            }
        },
        name="f.json",
    )
    fit_out = tmp_path / "fout"
    assert cli.main(["fit", "--config", fit_config, "--out", str(fit_out), "--quiet"]) == 0
    report = json.loads((fit_out / "fit.json").read_text())
    assert "polarization" in report["derived"]
    assert report["derived"]["polarization"] == pytest.approx(0.16, abs=0.02)
    assert 0.0 < report["derived"]["polarization_sigma"] < 0.05
    assert report["derived"]["m_tot_assignment"]


def test_quartet_reports_do_not_depend_on_the_seed(tmp_path):
    # the one projected start of a quartet fit is fixed, so --seed moves no report
    sim_block = {"model": dict(SIM_BLOCK["model"], polarization=0.16), "noise_sigma": 0.002}
    sim_config = write_config(tmp_path, {"simulate": sim_block, "seed": 3}, name="s.json")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", sim_config, "--out", str(out), "--quiet"]) == 0
    block = {"input_csv": str(out / "curve.csv"), "model": "free_lorentzians", "polarization": True}
    config = write_config(tmp_path, {"fit": block}, name="fit.json")
    reports = []
    for seed in ("0", "7"):
        run_out = tmp_path / f"fit_{seed}"
        argv = ["fit", "--config", config, "--out", str(run_out), "--seed", seed, "--quiet"]
        assert cli.main(argv) == 0
        reports.append((run_out / "fit.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "command, block",
    [
        ("fit", {"model": "free_lorentzians", "n_lines": 5, "polarization": True}),
    ],
)
def test_polarization_needs_four_lines(tmp_path, capsys, command, block):
    csv_path = write_curve_csv(tmp_path, rows=201)
    config = write_config(tmp_path, {command: dict(block, input_csv=str(csv_path))})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
    assert f"{command}.n_lines must be 4" in capsys.readouterr().err
    assert not out.exists()


def unread(key, model="free_lorentzians"):
    return f"key 'fit.{key}' is read only by model '{model}'"


INIT_P15_UNREAD = "key 'fit.init.p15' is read only when fit.p15 is 'free'"


@pytest.mark.parametrize(
    "block, problems",
    [
        ({"model": "free_lorentzians", "p15": 1.0}, [unread("p15", "physical")]),
        ({"model": "free_lorentzians", "init": {"a15_mhz": 64.0}}, [unread("init", "physical")]),
        (
            {"model": "free_lorentzians", "p15": "free", "init": {"p15": 0.5}},
            [unread("p15", "physical"), unread("init", "physical")],
        ),
        ({"p15": 1.0, "n_lines": 4}, [unread("n_lines")]),
        ({"model": "physical", "polarization": False}, [unread("polarization")]),
        (
            {"p15": 1.0, "polarization": True, "n_lines": 9},
            [unread("n_lines"), unread("polarization")],
        ),
        ({"p15": 1.0, "init": {"p15": 0.5}}, [INIT_P15_UNREAD]),
        ({"init": {"p15": 0.5}}, [INIT_P15_UNREAD]),
    ],
)
def test_fit_refuses_a_key_its_model_does_not_read(tmp_path, capsys, block, problems):
    # each config fits a readable spectrum once its unread keys are dropped
    csv_path = write_curve_csv(tmp_path, rows=201)
    config = write_config(tmp_path, {"fit": dict(block, input_csv=str(csv_path))})
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", config, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr() == ("", "".join(f"config error: {p}\n" for p in problems))
    assert not out.exists()


@pytest.mark.parametrize(
    "block, problems",
    [
        ({"model": "bogus"}, ["fit.model must be 'physical' or 'free_lorentzians'"]),
        ({"p15": "fre"}, ["fit.p15 must be a number or 'free'"]),
        (
            {"model": "free_lorentzians", "n_lines": 3, "polarization": True},
            ["fit.n_lines must be 4 for polarization (15N quartet)"],
        ),
        ({"n_lines": 3, "polarization": True}, [unread("n_lines"), unread("polarization")]),
        # values the fit itself would refuse only after reading the input
        ({"p15": 1.5}, ["fit.p15 must lie in [0, 1]"]),
        ({"p15": 1.0, "branch": 7}, ["fit.branch must be +1 or -1"]),
        ({"model": "free_lorentzians", "n_lines": 0}, ["fit.n_lines must be >= 1"]),
        # an init value outside the fit's box (fit.PHYSICAL_BOUNDS)
        ({"init": {"contrast": 0}}, ["fit.init.contrast must lie in [1e-06, 0.999999]"]),
        ({"init": {"linewidth_mhz": 0.0}}, ["fit.init.linewidth_mhz must lie in [1e-06, inf]"]),
        ({"p15": "free", "init": {"p15": 1.5}}, ["fit.init.p15 must lie in [0, 1]"]),
        # the quartet reads its branch too
        ({"model": "free_lorentzians", "branch": 0}, ["fit.branch must be +1 or -1"]),
    ],
)
def test_fit_config_error_comes_before_reading_the_input(tmp_path, capsys, block, problems):
    # an absent input file would exit 2 had it been read
    config = write_config(tmp_path, {"fit": dict(block, input_csv=str(tmp_path / "missing.csv"))})
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "".join(f"config error: {p}\n" for p in problems))
    assert not out.exists()


def test_simulate_strong_polarization_on_pure_sample(tmp_path):
    # representable on the quartet ladder even though it would not be on #0
    block = {"model": dict(SIM_BLOCK["model"], polarization=0.3)}
    config = write_config(tmp_path, {"simulate": block})
    out = tmp_path / "pol_out"
    assert cli.main(["simulate", "--config", config, "--out", str(out), "--quiet"]) == 0
    assert (out / "curve.csv").exists()


def test_fit_missing_input_exits_2_without_output(tmp_path):
    fit_config = write_config(
        tmp_path, {"fit": {"input_csv": str(tmp_path / "absent.csv"), "p15": 1.0}}
    )
    out = tmp_path / "never"
    assert cli.main(["fit", "--config", fit_config, "--out", str(out)]) == 2
    assert not out.exists()


def test_fit_nonconvergence_exits_3_with_partial_report(tmp_path, monkeypatch):
    from vbodmr.fit import FitResult

    def fake_fit(meas, init=None, p15_mode=("fixed", 0.0), **kwargs):
        return FitResult(
            names=("f_center",),
            values={"f_center": 0.0},
            sigmas={"f_center": 0.0},
            covariance=np.zeros((1, 1)),
            residual_norm=1.0,
            iterations=500,
            converged=False,
        )

    monkeypatch.setattr(cli.fitmod, "fit_physical", fake_fit)
    csv_path = write_curve_csv(tmp_path)
    fit_config = write_config(
        tmp_path, {"fit": {"input_csv": str(csv_path), "p15": 1.0}}
    )
    out = tmp_path / "partial"
    assert cli.main(["fit", "--config", fit_config, "--out", str(out), "--quiet"]) == 3
    report = json.loads((out / "fit.json").read_text())
    assert report["fit"]["converged"] is False


def test_polarization_nonconvergence_exits_3_with_partial_report(tmp_path, monkeypatch):
    from vbodmr.fit import FitResult

    names = ["f_first", "spacing"] + [f"depth_{k}" for k in range(1, 5)]
    names += [f"width_{k}" for k in range(1, 5)]

    def fake_fit(meas, n_lines, **kwargs):
        return FitResult(
            names=tuple(names),
            values=dict(zip(names, (2212.0, 64.0, 0.01, 0.03, 0.03, 0.01) + (50.0,) * 4)),
            sigmas={n: 0.0 for n in names},
            covariance=np.zeros((10, 10)),
            residual_norm=1.0,
            iterations=500,
            converged=False,
        )

    monkeypatch.setattr(cli.fitmod, "fit_free_lorentzians", fake_fit)
    csv_path = write_curve_csv(tmp_path)
    block = {"input_csv": str(csv_path), "model": "free_lorentzians", "polarization": True}
    config = write_config(tmp_path, {"fit": block})
    out = tmp_path / "partial"
    assert cli.main(["fit", "--config", config, "--out", str(out), "--quiet"]) == 3
    report = json.loads((out / "fit.json").read_text())
    assert report["fit"]["converged"] is False
    assert report["derived"]["polarization"] == 0.0


def test_quartet_fit_on_pure_noise_exits_3(tmp_path):
    # no lines at all: the start beats the flat line only by what noise
    # gives, so the fit is returned there, not converged
    diagnostics = quartet_fit_of_noise(tmp_path, 5)["fit"]["diagnostics"]
    assert [d for d in diagnostics if d.startswith("no lines: chi^2 only")]


def test_quartet_fit_finding_no_lines_exits_3(tmp_path):
    # a second noise draw ends the same way
    diagnostics = quartet_fit_of_noise(tmp_path, 1)["fit"]["diagnostics"]
    assert [d for d in diagnostics if d.startswith("no lines: chi^2 only")]


def test_quartet_fit_with_no_line_area_writes_null_p(tmp_path):
    # noise seed 3 projects every depth of the start negative: it is
    # returned with every depth 0, so P is undefined and written as null
    report = quartet_fit_of_noise(tmp_path, 3)
    assert [d for d in report["fit"]["diagnostics"] if d.startswith("no lines: chi^2 only")]
    derived = report["derived"]
    assert derived["polarization"] is None and derived["polarization_sigma"] is None
    assert set(derived["areas_by_m_tot"].values()) == {0.0}


@pytest.mark.parametrize("n_lines, polarization", [(4, True), (3, False)])
def test_free_fit_report_derives_line_centers_and_areas(tmp_path, n_lines, polarization):
    # line k (from 0) lies at f_first + k * spacing with area depth * width
    block = {
        "input_csv": str(write_curve_csv(tmp_path)),
        "model": "free_lorentzians",
        "n_lines": n_lines,
        "polarization": polarization,
    }
    config = write_config(tmp_path, {"fit": block})
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", config, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "fit.json").read_text())
    value = {n: p["value"] for n, p in report["fit"]["params"].items()}
    derived = report["derived"]
    assert derived["line_centers_mhz"] == [
        value["f_first"] + k * value["spacing"] for k in range(n_lines)
    ]
    assert derived["line_areas"] == [
        value[f"depth_{k}"] * value[f"width_{k}"] for k in range(1, n_lines + 1)
    ]
    if polarization:
        by_m = sorted(derived["areas_by_m_tot"].items(), key=lambda item: float(item[0]))
        assert [a for _, a in by_m] == derived["line_areas"]
    else:
        assert "areas_by_m_tot" not in derived


def quartet_fit_of_noise(tmp_path, seed):
    """Run a quartet fit with polarization of 1 + noise through ``fit``; it
    exits 3 with a report that says not converged. Returns the report."""
    grid = default_grid(2308.0)
    noise = 1.0 + np.random.default_rng(seed).normal(0.0, 0.002, grid.size)
    csv_path = tmp_path / "noise.csv"
    rows = [f"{float(f)!r},{float(v)!r}" for f, v in zip(grid, noise)]
    csv_path.write_text("\n".join(["frequency_mhz,ratio"] + rows) + "\n", encoding="utf-8")
    block = {"input_csv": str(csv_path), "model": "free_lorentzians", "polarization": True}
    config = write_config(tmp_path, {"fit": block})
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", config, "--out", str(out), "--quiet"]) == 3
    report = json.loads((out / "fit.json").read_text())
    assert report["fit"]["converged"] is False
    return report


def test_runtime_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    from vbodmr.spin_core import CharacterAmbiguityError

    # the exit-1 handler, which catches RuntimeError, comes last; none of
    # these may be caught by it
    for handled in (SchemaError, IngestError):
        assert not issubclass(handled, RuntimeError)

    def ambiguous(block, seed):
        raise CharacterAmbiguityError("no eigenstate has m_S character above 0.5")

    monkeypatch.setitem(cli.COMMANDS, "validate", ambiguous)
    assert cli.main(["validate", "--out", str(tmp_path / "val"), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: no eigenstate has m_S character above 0.5\n"


# --- outputs of every verb ----------------------------------------------------------

SENS_MODEL = {"f_center_mhz": 2308.0, "contrast": 0.1, "linewidth_mhz": 50.0, "p15": 1.0}


@pytest.mark.parametrize(
    "command, block, files",
    [
        ("simulate", SIM_BLOCK, {"curve.csv", "simulate.json"}),
        ("fit", {"p15": 1.0}, {"fit.json"}),
        (
            "sensitivity",
            {"model_a": SENS_MODEL, "model_b": dict(SENS_MODEL, p15=0.0)},
            {"slope_a.csv", "slope_b.csv", "sensitivity.json"},
        ),
        ("polarization", {"areas": {"-1.5": 1.0, "1.5": 2.0}, "m_max": 1.5}, {"polarization.json"}),
        ("raman", {"points": [{"nitrogen_frac_15": 0.5}]}, {"raman.json"}),
        ("validate", {}, {"validate.json"}),
    ],
)
def test_each_verb_writes_its_files_and_one_wrote_line(tmp_path, capsys, command, block, files):
    if command == "fit":
        block = dict(block, input_csv=str(write_curve_csv(tmp_path)))
    config = write_config(tmp_path, {command: block})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == files
    report = json.loads((out / f"{command}.json").read_text())
    assert report["command"] == command and report["schema_version"] == cli.SCHEMA_VERSION
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {out / f'{command}.json'}"
    groups = [f"{g['name']}: pass" for g in report.get("groups", [])]
    assert lines[1:] == groups


@pytest.mark.parametrize(
    "contrast, message",
    [
        # no contrast: the raw slope of model_a is 0 and the gain undefined
        (0, "zero slope; sensitivity ratio undefined"),
        # a subnormal contrast: the gain overflows and the report is not JSON
        (1e-310, "Out of range float values are not JSON compliant: inf"),
    ],
)
def test_verb_failing_after_its_curves_are_built_writes_nothing(
    tmp_path, capsys, contrast, message
):
    block = {
        "model_a": dict(SENS_MODEL, contrast=contrast),
        "model_b": SENS_MODEL,
        "normalization": "raw",
    }
    config = write_config(tmp_path, {"sensitivity": block})
    out = tmp_path / "out"
    assert cli.main(["sensitivity", "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# --- other commands --------------------------------------------------------------

def test_sensitivity_command(tmp_path):
    model = {
        "f_center_mhz": 2308.0,
        "contrast": 0.1,
        "linewidth_mhz": 50.0,
        "a14_mhz": 43.0,
        "a15_mhz": 64.0,
    }
    config = write_config(
        tmp_path,
        {
            "sensitivity": {
                "model_a": dict(model, p15=1.0),
                "model_b": dict(model, p15=0.0),
                "normalization": "per_contrast",
            }
        },
    )
    out = tmp_path / "sens"
    assert cli.main(["sensitivity", "--config", config, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "sensitivity.json").read_text())
    gain = report["max_slope_a_per_mhz"] / report["max_slope_b_per_mhz"]
    assert gain == pytest.approx(1.8, abs=0.05)
    assert (out / "slope_a.csv").exists() and (out / "slope_b.csv").exists()
    header = (out / "slope_a.csv").read_text().splitlines()[0]
    assert header == "frequency_mhz,slope_per_mhz"


def test_polarization_command_with_areas(tmp_path):
    config = write_config(
        tmp_path,
        {
            "polarization": {
                "areas": {"-1.5": 1.0, "-0.5": 3.0, "0.5": 3.8, "1.5": 1.6},
                "m_max": 1.5,
            }
        },
    )
    out = tmp_path / "pol"
    assert cli.main(["polarization", "--config", config, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "polarization.json").read_text())
    assert report["polarization"] == pytest.approx(1.3 / 14.1, abs=1e-12)
    assert report["polarization_sigma"] is None
    # explicit areas have no frequencies to assign m_tot by
    assert "m_tot_assignment" not in report


def test_raman_command(tmp_path):
    config = write_config(
        tmp_path,
        {
            "raman": {
                "points": [
                    {"nitrogen_frac_15": 0.0},
                    {"nitrogen_frac_15": 0.6},
                    {"nitrogen_frac_15": 1.0, "boron_frac_10": 0.199},
                ]
            }
        },
    )
    out = tmp_path / "raman"
    assert cli.main(["raman", "--config", config, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "raman.json").read_text())
    shifts = [p["shift_cm1"] for p in report["points"]]
    # a point without boron_frac_10 has natural boron
    assert [p["boron_frac_10"] for p in report["points"]] == [NATURAL_B10_FRACTION] * 3
    assert shifts[0] == pytest.approx(1364.6, abs=0.1)
    assert shifts[2] == pytest.approx(1345.0, abs=0.1)
    assert shifts[0] > shifts[1] > shifts[2]


def test_raman_reports_every_bad_point(tmp_path, capsys):
    points = [7, {"nitrogen_frac_15": 0.5, "boron": 0.2}, {"nitrogen_frac_15": "0.5"}]
    config = write_config(tmp_path, {"raman": {"points": points}})
    out = tmp_path / "out"
    assert cli.main(["raman", "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "",
        "config error: raman.points[0] must be an object\n"
        "config error: unknown key 'raman.points[1].boron'\n"
        "config error: key 'raman.points[2].nitrogen_frac_15' has wrong type str\n",
    )
    assert not out.exists()


# --- validate ----------------------------------------------------------------------

def test_validate_default_passes(tmp_path):
    out = tmp_path / "val"
    assert cli.main(["validate", "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "validate.json").read_text())
    assert report["passed"] is True
    assert {g["name"] for g in report["groups"]} == {
        "eigensolver",
        "ladder",
        "oracle_equivalence",
        "slope_ratio",
    }


def test_validate_does_not_read_the_seed(tmp_path, monkeypatch):
    # the oracle draws come from validate.ORACLE_SEED: a self-check whose
    # report does not move with --seed
    seeds = []
    generator = random.Random

    def recorded(seed=None):
        seeds.append(seed)
        return generator(seed)

    monkeypatch.setattr(validate.random, "Random", recorded)
    outs = [tmp_path / "default", tmp_path / "seed7"]
    assert cli.main(["validate", "--out", str(outs[0]), "--quiet"]) == 0
    assert cli.main(["validate", "--out", str(outs[1]), "--seed", "7", "--quiet"]) == 0
    assert seeds == [validate.ORACLE_SEED] * 2 == [1, 1]
    assert (outs[0] / "validate.json").read_bytes() == (outs[1] / "validate.json").read_bytes()


def test_validate_does_not_load_numpy_random(tmp_path):
    # the oracle draws come from the standard library's generator, so a
    # validate process never pays numpy.random's import
    script = textwrap.dedent(f"""
        import sys
        from vbodmr import cli
        assert cli.main(["validate", "--out", {str(tmp_path / "val")!r}, "--quiet"]) == 0
        print("numpy.random" in sys.modules)
    """)
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_validate_injected_wrong_ladder_fails(tmp_path, monkeypatch):
    # a wrong brute-force row for configuration #0 (8 where 7 belongs)
    wrong = {**validate.brute_force_ladder_table(), 0: [1, 3, 6, 8, 6, 3, 1]}
    monkeypatch.setattr(validate, "brute_force_ladder_table", lambda: wrong)
    out = tmp_path / "val"
    assert cli.main(["validate", "--out", str(out), "--quiet"]) == 1
    report = json.loads((out / "validate.json").read_text())
    assert report["passed"] is False
    ladder = next(g for g in report["groups"] if g["name"] == "ladder")
    assert ladder["passed"] is False
    assert ladder["mismatches"] == [
        {"n15_count": 0, "computed": [1, 3, 6, 7, 6, 3, 1], "expected": [1, 3, 6, 8, 6, 3, 1]}
    ]


def test_ladder_group_guards_the_grouping_of_the_line_table(monkeypatch):
    # one state of configuration #0 moved from an m_tot = 0 group of the
    # line table to an m_tot = 1 group: the line weights of W would carry
    # it, and the brute-force ladder sees it
    keys, counts = spectrum._line_groups()
    moved = counts.copy()
    m_tot = keys.sum(axis=1)
    moved[np.flatnonzero((m_tot == 0.0) & (counts[:, 0] > 0))[0], 0] -= 1
    moved[np.flatnonzero((m_tot == 1.0) & (counts[:, 0] > 0))[0], 0] += 1
    monkeypatch.setattr(spectrum, "_line_groups", lambda: (keys, moved))
    group = validate.check_ladder()
    assert group["passed"] is False
    assert group["mismatches"] == [
        {"n15_count": 0, "computed": [1, 3, 6, 6, 7, 3, 1], "expected": [1, 3, 6, 7, 6, 3, 1]}
    ]


def test_config_key_given_twice_is_a_schema_error(tmp_path, capsys):
    # json.loads keeps the last of two equal keys: the second area for
    # m_tot = 1.5 would silently replace the first
    config = tmp_path / "config.json"
    config.write_text(
        '{"polarization": {"m_max": 1.5, "areas": {"-1.5": 1.0, "1.5": 2.0, "1.5": 3.0}}}'
    )
    out = tmp_path / "pol"
    assert cli.main(["polarization", "--config", str(config), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == 'config error: key "1.5" is given more than once\n'
    assert not out.exists()


def test_validate_tightened_eigen_tolerance_reports_residual(tmp_path, monkeypatch):
    monkeypatch.setattr(validate, "DEFAULT_EIGEN_TOLERANCE", 1e-18)
    out = tmp_path / "val"
    assert cli.main(["validate", "--out", str(out), "--quiet"]) == 1
    report = json.loads((out / "validate.json").read_text())
    assert report["passed"] is False
    eig = next(g for g in report["groups"] if g["name"] == "eigensolver")
    assert eig["passed"] is False
    assert eig["measured_residual"] > 1e-18
    assert eig["tolerance"] == 1e-18


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("validate", "eigensolver_tolerance", 1e-9),
        ("validate", "ladder_table", {"0": [1, 3, 6, 7, 6, 3, 1]}),
        ("validate", "oracle_draws", 25),
        ("validate", "slope_ratio_bounds", [1.75, 1.85]),
        ("polarization", "n_lines", 4),
    ],
)
def test_removed_settings_are_unknown_keys(tmp_path, capsys, command, key, value):
    # the self-check's thresholds and tables are fixed, and a quartet has
    # four lines: none of these is a setting, even at its old default
    base = {"areas": {"1.5": 1.0}, "m_max": 1.5} if command == "polarization" else {}
    config = write_config(tmp_path, {command: {**base, key: value}})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: unknown key '{command}.{key}'\n"
    assert not out.exists()


def test_eigensolver_group_solves_the_full_hamiltonian_of_each_isotope_pattern(monkeypatch):
    # the group tests vbodmr's Hamiltonian and eigensolver together, on
    # systems whose off-diagonal terms are as large as the hyperfine tensor
    seen = []
    real = validate.build_full_hamiltonian

    def recording(sys_):
        h = real(sys_)
        n15 = sum(site.species is IsotopeSpecies.N15 for site in sys_.sites)
        seen.append((n15, np.abs(h.entries - np.diag(np.diag(h.entries))).max()))
        return h

    monkeypatch.setattr(validate, "build_full_hamiltonian", recording)
    group = validate.check_eigensolver()
    assert group["passed"] and 0.0 < group["measured_residual"] <= 1e-12
    assert [n15 for n15, _ in seen] == [0, 1, 2, 3]
    assert min(off for _, off in seen) > 10.0


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        cli.main(["no_such_command"])
    assert err.value.code == 1


# --- runaway and non-finite inputs -------------------------------------------------

@pytest.mark.parametrize(
    "command, raw, line",
    [
        # json's decoder recurses once per nesting level
        ("validate", "[" * 200_000 + "]" * 200_000, "error: maximum recursion depth exceeded"),
        # 10**15 grid points would ask for 7.11 PiB; the cap refuses them
        # before anything is allocated
        (
            "simulate",
            json.dumps(
                {"simulate": {"model": SIM_BLOCK["model"],
                              "grid": {"start_mhz": 2000.0, "stop_mhz": 2600.0, "points": 10**15}}}
            ),
            f"config error: grid.points must be <= {cli.MAX_GRID_POINTS}",
        ),
        (
            "polarization",
            json.dumps({"polarization": {"areas": {"1": 1e308, "0.5": 1e308}, "m_max": 1.5}}),
            "error: intermediate overflow",
        ),
    ],
    ids=["recursion", "memory", "overflow"],
)
def test_runaway_input_exits_1_with_one_line(tmp_path, capsys, command, raw, line):
    config = tmp_path / "config.json"
    config.write_text(raw, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, line",
    [
        # two JSON integers beyond 64 bits that round to the same float span
        # no grid; NumPy once made them an object array and raised
        (
            {"start_mhz": 10**30, "stop_mhz": 10**30 + 1, "points": 101},
            "config error: grid.stop_mhz must exceed grid.start_mhz",
        ),
        (
            {"start_mhz": 2000, "stop_mhz": 10**400, "points": 101},
            "error: int too large to convert to float",
        ),
        # NumPy's linspace once raised IndexError at this count
        (
            {"start_mhz": 2000.0, "stop_mhz": 2600.0, "points": 2**63 - 1},
            f"config error: grid.points must be <= {cli.MAX_GRID_POINTS}",
        ),
    ],
    ids=["integer_bounds_1e30", "integer_bound_1e400", "points_2_63_minus_1"],
)
@pytest.mark.parametrize("command", ["simulate", "sensitivity"])
def test_grid_out_of_range_exits_1_with_one_line(tmp_path, capsys, command, grid, line):
    if command == "simulate":
        block = {"model": SIM_BLOCK["model"], "grid": grid}
    else:
        block = {"model_a": SENS_MODEL, "model_b": {**SENS_MODEL, "p15": 0.0}, "grid": grid}
    config = write_config(tmp_path, {command: block})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, raw, token",
    [
        ("simulate", '{"simulate": {"model": {"f_center_mhz": 2308.0, "contrast": 0.1,'
         ' "linewidth_mhz": 50.0, "p15": 1.0, "a14_mhz": NaN}}}', "NaN"),
        ("sensitivity", '{"sensitivity": {"model_a": {"f_center_mhz": 2308.0, "contrast": 0.1,'
         ' "linewidth_mhz": 50.0, "p15": 1.0, "a15_mhz": -Infinity}, "model_b":'
         ' {"f_center_mhz": 2308.0, "contrast": 0.1, "linewidth_mhz": 50.0, "p15": 0.0}}}',
         "-Infinity"),
        ("polarization", '{"polarization": {"areas": {"0.5": 1e400}, "m_max": 1.5}}', "1e400"),
    ],
    ids=["nan-coupling", "infinite-coupling", "overflowing-literal"],
)
def test_non_finite_config_number_is_a_schema_error(tmp_path, capsys, command, raw, token):
    config = tmp_path / "config.json"
    config.write_text(raw, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"config error: non-finite number {token} (numbers must be finite)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("key", ["nan", "inf", "-Infinity"])
def test_non_finite_area_key_is_a_schema_error(tmp_path, capsys, key):
    config = write_config(
        tmp_path, {"polarization": {"areas": {key: 1.0, "0.5": 2.0}, "m_max": 1.5}}
    )
    out = tmp_path / "out"
    assert cli.main(["polarization", "--config", config, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "config error: polarization.areas keys must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, block, what",
    [
        # (FWHM/2)^2 overflows, so every Lorentzian is inf/inf
        ("simulate", {"model": dict(SIM_BLOCK["model"], linewidth_mhz=1e308)}, "simulated curve"),
        # (FWHM/2)^2 overflows at the smallest such width, so L = inf/inf in
        # the slope; below it the slope is finite (test_analysis)
        (
            "sensitivity",
            {"model_a": dict(SIM_BLOCK["model"], linewidth_mhz=1e155),
             "model_b": dict(SIM_BLOCK["model"], p15=0.0)},
            "slope curve of model_a",
        ),
        # (FWHM/2)^2 overflows in the slope
        (
            "sensitivity",
            {"model_a": dict(SIM_BLOCK["model"], linewidth_mhz=1e308),
             "model_b": dict(SIM_BLOCK["model"], p15=0.0)},
            "slope curve of model_a",
        ),
    ],
)
def test_non_finite_curve_is_refused(tmp_path, capsys, command, block, what):
    config = write_config(tmp_path, {command: block})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"error: {what} is not finite: the model is out of floating-point range\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, block",
    [
        ("fit", {"model": "free_lorentzians", "n_lines": 6}),
        ("fit", {"model": "free_lorentzians", "polarization": True}),
    ],
)
def test_free_lorentzians_outnumbering_the_samples_exit_1(tmp_path, capsys, command, block):
    csv_path = write_curve_csv(tmp_path, rows=9)
    config = write_config(tmp_path, {command: dict(block, input_csv=str(csv_path))})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
    n = block.get("n_lines", 4)
    assert capsys.readouterr().err == (
        f"error: {n} free Lorentzians have {2 + 2 * n} parameters, more than the 9 samples\n"
    )
    assert not out.exists()


# --- property: any config or CSV ends in a documented exit code ---------------------

# numbers at the edges of float range; json writes the non-finite ones as
# the tokens NaN, Infinity and -Infinity
EXTREME = st.sampled_from(
    [0, -0.0, -1, 5e-324, 1e-300, 1e308, -1e308, 2**63, 10**400, math.nan, math.inf, -math.inf]
)
JUNK = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.floats() | EXTREME,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# keys that set the runtime keep a small size (the oversized ones have
# their own example tests above); other types of junk still reach them
SIZE_KEYS = {"points": 2001, "n_lines": 8}

MODEL = st.fixed_dictionaries(
    {
        "f_center_mhz": st.floats(2200.0, 2400.0),
        "contrast": st.floats(0.01, 0.3),
        "linewidth_mhz": st.floats(20.0, 100.0),
        "p15": st.floats(0.0, 1.0),
    },
    optional={
        "a14_mhz": st.floats(-100.0, 100.0),
        "a15_mhz": st.floats(-100.0, 100.0),
        "branch": st.sampled_from([-1, 1]),
        "polarization": st.floats(-0.3, 0.3),
    },
)
GRID = st.fixed_dictionaries(
    {
        "start_mhz": st.floats(2000.0, 2300.0),
        "stop_mhz": st.floats(2300.0, 2600.0),
        "points": st.integers(2, SIZE_KEYS["points"]),
    }
)
INIT = st.fixed_dictionaries(
    {},
    optional={
        "f_center_mhz": st.floats(2200.0, 2400.0),
        "contrast": st.floats(0.0, 0.3),
        "linewidth_mhz": st.floats(1.0, 100.0),
        "a14_mhz": st.floats(-100.0, 100.0),
        "a15_mhz": st.floats(-100.0, 100.0),
        "p15": st.floats(0.0, 1.0),
    },
)
M_TOT = st.sampled_from(["-1.5", "-0.5", "0.5", "1.5"])


def _init_p15_only_when_free(block: dict) -> dict:
    """A physical fit block without the init.p15 that a fixed p15 leaves unread."""
    if block.get("p15") == "free" or "init" not in block:
        return block
    return dict(block, init={k: v for k, v in block["init"].items() if k != "p15"})


def verb_blocks(csv_path: str) -> dict:
    """Schema-shaped blocks of every verb, valid before perturbation."""
    n_lines = st.integers(1, SIZE_KEYS["n_lines"])
    fit_common = {
        "branch": st.sampled_from([-1, 1]),
        "d_gs_mhz": st.floats(3000.0, 4000.0),
        "sample_id": st.text(max_size=4),
    }
    return {
        "simulate": st.fixed_dictionaries(
            {"model": MODEL}, optional={"grid": GRID, "noise_sigma": st.floats(0.0, 0.01)}
        ),
        # each fit block holds the keys of one fit model only
        "fit": st.fixed_dictionaries(
            {"input_csv": st.just(csv_path)},
            optional={
                "model": st.just("physical"),
                "p15": st.floats(0.0, 1.0) | st.just("free"),
                "init": INIT,
                **fit_common,
            },
        ).map(_init_p15_only_when_free)
        | st.fixed_dictionaries(
            {"input_csv": st.just(csv_path), "model": st.just("free_lorentzians")},
            optional={"n_lines": n_lines, "polarization": st.booleans(), **fit_common},
        ),
        "sensitivity": st.fixed_dictionaries(
            {"model_a": MODEL, "model_b": MODEL},
            optional={"normalization": st.sampled_from(["raw", "per_contrast"]), "grid": GRID},
        ),
        "polarization": st.fixed_dictionaries(
            {
                "areas": st.dictionaries(M_TOT, st.floats(0.0, 10.0), min_size=1, max_size=4),
                "m_max": st.just(1.5),
            }
        ),
        "raman": st.fixed_dictionaries(
            {
                "points": st.lists(
                    st.fixed_dictionaries(
                        {"nitrogen_frac_15": st.floats(0.0, 1.0)},
                        optional={"boron_frac_10": st.floats(0.0, 1.0)},
                    ),
                    max_size=3,
                )
            }
        ),
        "validate": st.just({}),
    }


def _blocks(config: dict) -> list[dict]:
    """``config`` and every object nested in it."""
    found = [config]
    for value in config.values():
        if isinstance(value, dict):
            found += _blocks(value)
    return found


@st.composite
def perturbed(draw, config: dict) -> dict:
    """``config`` with one to three keys, at any depth, deleted, set to junk
    or an extreme number, or added."""
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(1, 3))):
        slots = [(block, key) for block in _blocks(config) for key in [*block, "unknown"]]
        block, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["delete", "junk", "extreme"]))
        if action == "delete":
            block.pop(key, None)
        elif key in SIZE_KEYS:
            block[key] = draw(st.integers(-2, SIZE_KEYS[key]) | st.booleans() | st.floats())
        else:
            block[key] = draw(JUNK if action == "junk" else EXTREME)
    return config


@st.composite
def mangled_csv(draw) -> bytes:
    """A 15N quartet spectrum as CSV bytes: in half of the draws intact, so
    that a fit runs, in the others with rows and cells broken."""
    intact = draw(st.booleans())
    broken_n = st.integers(0, 9) | st.integers(10, 24) | st.integers(10, 24)
    n = draw(st.integers(24, 96) if intact else broken_n)
    model = SpectrumModel(f_center=2300.0, contrast=0.1, linewidth=40.0, a14=43.0, a15=64.0, p15=1.0)
    grid = np.linspace(2100.0, 2500.0, max(n, 1))
    values = mixture_spectrum(model, grid).values
    sigma = draw(st.booleans())
    rows = [[repr(float(f)), repr(float(v))] + ["0.002"] * sigma for f, v in zip(grid[:n], values)]
    for _ in range(draw(st.integers(0, 2)) if rows and not intact else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        action = draw(st.sampled_from(["cell", "drop", "extra", "duplicate"]))
        if action == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(["", "abc", "nan", "-inf", "1e400", "1e308", "-0", " 2 "])
            )
        elif action == "drop" and len(row) > 1:
            row.pop()
        elif action == "extra":
            row.append("1")
        else:
            rows.append(list(row))
    good = "frequency_mhz,ratio" + ",sigma" * sigma
    headers = [good, good, "frequency_mhz,ratio", "f,r", ""]
    header = good if intact else draw(st.sampled_from(headers))
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    prefix = b"" if intact else draw(st.sampled_from([b"", b"", b"\xef\xbb\xbf", b"\xe9"]))
    return prefix + text.encode("utf-8")


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in a report")


@pytest.mark.parametrize("verb", sorted(cli.COMMANDS))
@settings(
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_cli_ends_in_a_documented_exit_code(verb, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv_path = tmp / "input.csv"
        if verb == "fit":
            csv_path.write_bytes(data.draw(mangled_csv(), label="csv"))
        block = data.draw(verb_blocks(str(csv_path))[verb], label="block")
        config = {verb: block, "seed": 3}
        # one in five configs as valid, three with broken keys, one not an object
        kind = data.draw(st.sampled_from(["valid", "broken", "broken", "broken", "junk"]))
        if kind == "broken":
            config = data.draw(perturbed(config), label="config")
        elif kind == "junk":
            config = data.draw(JUNK.filter(lambda v: not isinstance(v, dict)), label="config")
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([verb, "--config", str(config_path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        for report in out.glob("*.json"):
            json.loads(report.read_text(encoding="utf-8"), parse_constant=_reject_constant)


# --- seeded fuzz: mutated configs and CSVs keep the CLI contract --------------------

# the edge values a mutated config leaf takes; json writes each as itself
FUZZ_EDGES = [
    0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, 2**53 + 1, 2**63 - 1, 2**63,
    10**30, 10**400, True, False, None, "", [], {},
]
FUZZ_CSV_DAMAGE = ("bom", "cr", "nul", "quote", "short row", "long row", "oversized cell")
# the spectra of a fit case's CSV: the valid quartet, and two that read but
# hold no line, so a free-Lorentzian fit of them exits 3
FUZZ_CSV_BODIES = ("quartet", "flat", "noise")
FUZZ_CASES = 300
# the stderr prefixes of a nonzero exit, as the README's exit codes list them
STDERR_PREFIXES = ("config error: ", "ingestion error: ", "error: ", "fit error: ")


def fuzz_bases(csv_path: str) -> dict:
    """One valid config per verb, and per fit model, every optional key set."""
    model = {
        "f_center_mhz": 2308.0, "contrast": 0.11, "linewidth_mhz": 51.0, "a14_mhz": 43.0,
        "a15_mhz": 64.0, "p15": 0.6, "branch": -1, "polarization": 0.1,
    }
    grid = {"start_mhz": 2100.0, "stop_mhz": 2500.0, "points": 401}
    fit_common = {
        "input_csv": csv_path, "branch": -1, "d_gs_mhz": 3478.0, "sample_id": "s1",
        "field_mt": 20.0, "laser_power_mw": 1.0,
    }
    blocks = {
        "simulate": {"model": model, "grid": grid, "noise_sigma": 0.002},
        "fit physical": {**fit_common, "model": "physical", "p15": 1.0, "init": {"a15_mhz": 60.0}},
        "fit free_lorentzians": {
            **fit_common, "model": "free_lorentzians", "n_lines": 4, "polarization": True
        },
        "sensitivity": {
            "model_a": model, "model_b": dict(model, p15=0.0), "normalization": "raw", "grid": grid
        },
        "polarization": {"areas": {"-1.5": 1.0, "-0.5": 2.0, "0.5": 3.0, "1.5": 4.0}, "m_max": 1.5},
        "raman": {"points": [{"nitrogen_frac_15": 0.5, "boron_frac_10": 0.2}]},
        "validate": {},
    }
    return {name: {name.split()[0]: block, "seed": 3} for name, block in blocks.items()}


def fuzz_csv(body: str = "quartet") -> str:
    """81 rows of one of ``FUZZ_CSV_BODIES``: a noisy 15N quartet (the CSV
    of every base config), the flat line y = 1, or noise about it alone."""
    model = SpectrumModel(f_center=2308.0, contrast=0.11, linewidth=40.0, a14=43.0, a15=64.0, p15=1.0)
    grid = np.linspace(2100.0, 2500.0, 81)
    noise = np.random.default_rng(0).normal(0.0, 0.002, 81)
    if body == "quartet":
        values = mixture_spectrum(model, grid).values + noise
    elif body == "noise":
        values = 1.0 + noise
    else:
        values = np.ones(81)
    rows = (f"{f!r},{v!r}\n" for f, v in zip(grid.tolist(), values.tolist()))
    return "".join(["frequency_mhz,ratio\n", *rows])


def leaves(node, path=()) -> list:
    """The paths of every value of ``node`` that is not a nonempty object or array."""
    if isinstance(node, (dict, list)) and node:
        keys = node if isinstance(node, dict) else range(len(node))
        return [leaf for key in keys for leaf in leaves(node[key], (*path, key))]
    return [path]


def damage_csv(rng: random.Random, text: str, damage: str) -> str:
    """``text`` with one ``damage`` at a place that ``rng`` draws."""
    if damage == "bom":
        return "\ufeff" + text
    at = rng.randrange(len(text))
    if damage in ("cr", "nul", "quote"):
        return text[:at] + {"cr": "\r", "nul": "\0", "quote": '"'}[damage] + text[at:]
    lines = text.split("\n")
    k = rng.randrange(1, len(lines) - 1)  # a data row; the last split is empty
    cells = lines[k].split(",")
    if damage == "short row":
        cells.pop()
    elif damage == "long row":
        cells.append("1")
    else:
        cells[rng.randrange(len(cells))] = "9" * (csv.field_size_limit() + 1)
    lines[k] = ",".join(cells)
    return "\n".join(lines)


def fuzz_case(case: int, csv_path: str) -> tuple[str, dict, str]:
    """Case ``case`` of the fuzz: its verb, its config and its CSV text. A fit
    case, in half of the draws, reads one of ``FUZZ_CSV_BODIES`` with up to
    two damages; every other case replaces one to three leaves of its config
    with edge values."""
    rng = random.Random(case)
    bases = fuzz_bases(csv_path)
    name = rng.choice(sorted(bases))
    verb, config, text = name.split()[0], bases[name], fuzz_csv()
    if verb == "fit" and rng.random() < 0.5:
        text = fuzz_csv(rng.choice(FUZZ_CSV_BODIES))
        for damage in rng.sample(FUZZ_CSV_DAMAGE, rng.randint(0, 2)):
            text = damage_csv(rng, text, damage)
        return verb, config, text
    paths = leaves(config)
    for path in rng.sample(paths, rng.randint(1, min(3, len(paths)))):
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(rng.choice(FUZZ_EDGES))
    return verb, config, text


def run_fuzz_case(verb: str, config_path: Path, out: Path) -> tuple:
    """Exit code, stdout, stderr and written files of one in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([verb, "--config", str(config_path), "--out", str(out)])
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, stdout.getvalue(), stderr.getvalue(), files


def contract_violation(verb: str, code, stderr: str, files: dict) -> str | None:
    """What in one run breaks the CLI contract, or None."""
    if code not in (0, 1, 2, 3):
        return f"exit code {code!r}"
    lines = stderr.splitlines()
    if code and not lines:
        return f"exit {code} with no stderr line"
    in_usage = False
    for line in lines:
        # argparse's usage may wrap onto indented lines
        in_usage = line.startswith("usage: ") or (in_usage and line.startswith(" "))
        if not in_usage and not line.startswith(STDERR_PREFIXES):
            return f"undocumented stderr line {line!r}"
    if code in (0, 3):  # 3: a fit that did not converge, with its partial report
        try:
            json.loads(files[f"{verb}.json"], parse_constant=_reject_constant)
        except (KeyError, ValueError) as exc:
            return f"exit {code} without a strict JSON report: {exc!r}"
    return None


def test_seeded_fuzz_keeps_the_cli_contract(tmp_path):
    # FUZZ_CASES seeded cases, each run twice: any exception fails the test,
    # and a case that breaks the contract is named by its number
    csv_path = tmp_path / "input.csv"
    codes = set()
    for case in range(FUZZ_CASES):
        verb, config, text = fuzz_case(case, str(csv_path))
        csv_path.write_bytes(text.encode("utf-8"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        runs = []
        for _ in range(2):  # into the same directory, so stdout names the same path
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            runs.append(run_fuzz_case(verb, config_path, tmp_path / "out"))
        code, _, stderr, files = runs[0]
        violation = contract_violation(verb, code, stderr, files)
        assert violation is None, f"case {case} ({verb}): {violation}"
        assert runs[1] == runs[0], f"case {case} differs when repeated"
        codes.add(code)
    # the mutations reach past the schema: some cases run, some are refused,
    # and some fits run to a partial report
    assert {0, 1, 2, 3} <= codes


def test_fuzz_cases_are_a_function_of_their_number(tmp_path):
    csv_path = tmp_path / "input.csv"
    cases = [fuzz_case(c, str(csv_path)) for c in range(20)]
    assert cases == [fuzz_case(c, str(csv_path)) for c in range(20)]
    # every base config runs before it is mutated, on the intact CSV
    csv_path.write_text(fuzz_csv(), encoding="utf-8")
    for name, config in fuzz_bases(str(csv_path)).items():
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / name.replace(" ", "_")
        code, _, stderr, _ = run_fuzz_case(name.split()[0], config_path, out)
        assert code == 0, (name, stderr)
