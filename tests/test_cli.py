import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vbodmr import cli, validate
from vbodmr.cli import IngestError, SchemaError, ingest_csv, validate_config
from vbodmr.spectrum import SpectrumModel, default_grid, mixture_spectrum


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
    assert meas.metadata["rows"] == 801
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
    with pytest.raises(SchemaError, match="missing 'fit' block"):
        validate_config({"simulate": {}}, "fit")


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
    with pytest.raises(SchemaError, match="key 'seed' must be a nonnegative integer"):
        validate_config({"validate": {}, "seed": True}, "validate")
    config = write_config(tmp_path, {"validate": {}, "seed": True})
    assert cli.main(["validate", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "key 'seed' must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, block, key, type_name",
    [
        ("raman", {"points": [{"nitrogen_frac_15": 0.5, "boron_frac_10": {}}]},
         "raman.points[0].boron_frac_10", "dict"),
        ("raman", {"points": [{"nitrogen_frac_15": 0.5}, {"nitrogen_frac_15": None}]},
         "raman.points[1].nitrogen_frac_15", "NoneType"),
        ("validate", {"slope_ratio_bounds": [1.0, None]},
         "validate.slope_ratio_bounds[1]", "NoneType"),
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
    assert report["derived"]["m_tot_assignment"]


@pytest.mark.parametrize(
    "command, block",
    [
        ("fit", {"model": "free_lorentzians", "n_lines": 5, "polarization": True}),
        ("polarization", {"n_lines": 3}),
    ],
)
def test_polarization_needs_four_lines(tmp_path, capsys, command, block):
    csv_path = write_curve_csv(tmp_path, rows=201)
    config = write_config(tmp_path, {command: dict(block, input_csv=str(csv_path))})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
    assert f"{command}.n_lines must be 4" in capsys.readouterr().err
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
    assert shifts[0] == pytest.approx(1364.6, abs=0.1)
    assert shifts[2] == pytest.approx(1345.0, abs=0.1)
    assert shifts[0] > shifts[1] > shifts[2]


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


def test_validate_injected_wrong_ladder_fails(tmp_path):
    config = write_config(
        tmp_path,
        {"validate": {"ladder_table": {"0": [1, 3, 6, 8, 6, 3, 1]}}},
    )
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", config, "--out", str(out), "--quiet"]) == 1
    report = json.loads((out / "validate.json").read_text())
    ladder = next(g for g in report["groups"] if g["name"] == "ladder")
    assert ladder["passed"] is False
    assert ladder["mismatches"]


def test_validate_tightened_eigen_tolerance_reports_residual(tmp_path):
    config = write_config(tmp_path, {"validate": {"eigensolver_tolerance": 1e-18}})
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", config, "--out", str(out), "--quiet"]) == 1
    report = json.loads((out / "validate.json").read_text())
    eig = next(g for g in report["groups"] if g["name"] == "eigensolver")
    assert eig["passed"] is False
    assert eig["measured_residual"] > 1e-18
    assert eig["tolerance"] == 1e-18


@pytest.mark.parametrize("draws", [0, -1])
def test_validate_rejects_nonpositive_oracle_draws(tmp_path, capsys, draws):
    config = write_config(tmp_path, {"validate": {"oracle_draws": draws}})
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", config, "--out", str(out), "--quiet"]) == 1
    assert "validate.oracle_draws must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("draws", [0, -1])
def test_oracle_equivalence_requires_a_draw(draws):
    with pytest.raises(ValueError, match="draws must be >= 1"):
        validate.check_oracle_equivalence(draws)


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        cli.main(["no_such_command"])
    assert err.value.code == 1


# --- runaway and non-finite inputs -------------------------------------------------

@pytest.mark.parametrize(
    "command, raw, message",
    [
        # json's decoder recurses once per nesting level
        ("validate", "[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
        # 10**15 grid points ask for 7.11 PiB, beyond the address space, so
        # the allocation fails at once
        (
            "simulate",
            json.dumps(
                {"simulate": {"model": SIM_BLOCK["model"],
                              "grid": {"start_mhz": 2000.0, "stop_mhz": 2600.0, "points": 10**15}}}
            ),
            "Unable to allocate",
        ),
        (
            "polarization",
            json.dumps({"polarization": {"areas": {"1": 1e308, "0.5": 1e308}, "m_max": 1.5}}),
            "overflow",
        ),
    ],
    ids=["recursion", "memory", "overflow"],
)
def test_runaway_input_exits_1_with_one_line(tmp_path, capsys, command, raw, message):
    config = tmp_path / "config.json"
    config.write_text(raw, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
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
        ("validate", '{"validate": {"ladder_table": {"0": [1e400]}}}', "1e400"),
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
        # 2 (FWHM/2)^2 u overflows in the slope
        (
            "sensitivity",
            {"model_a": dict(SIM_BLOCK["model"], linewidth_mhz=1e154),
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


def test_report_with_a_non_finite_value_is_not_written(tmp_path, capsys):
    # the one area over a subnormal m_max gives polarization = inf
    config = write_config(tmp_path, {"polarization": {"areas": {"1.5": 1.0}, "m_max": 5e-324}})
    out = tmp_path / "out"
    assert cli.main(["polarization", "--config", config, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Out of range float values") and err.count("\n") == 1
    assert not (out / "polarization.json").exists()


@pytest.mark.parametrize(
    "command, block",
    [
        ("fit", {"model": "free_lorentzians", "n_lines": 6}),
        ("polarization", {}),
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
SIZE_KEYS = {"points": 2001, "n_lines": 8, "oracle_draws": 2}

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


def verb_blocks(csv_path: str) -> dict:
    """Schema-shaped blocks of every verb, valid before perturbation."""
    n_lines = st.integers(1, SIZE_KEYS["n_lines"])
    return {
        "simulate": st.fixed_dictionaries(
            {"model": MODEL}, optional={"grid": GRID, "noise_sigma": st.floats(0.0, 0.01)}
        ),
        "fit": st.fixed_dictionaries(
            {"input_csv": st.just(csv_path)},
            optional={
                "model": st.sampled_from(["physical", "free_lorentzians"]),
                "branch": st.sampled_from([-1, 1]),
                "p15": st.floats(0.0, 1.0) | st.just("free"),
                "init": INIT,
                "n_lines": n_lines,
                "d_gs_mhz": st.floats(3000.0, 4000.0),
                "polarization": st.booleans(),
                "sample_id": st.text(max_size=4),
            },
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
        )
        | st.fixed_dictionaries({"input_csv": st.just(csv_path)}, optional={"n_lines": n_lines}),
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
        "validate": st.fixed_dictionaries(
            {},
            optional={
                "eigensolver_tolerance": st.floats(1e-15, 1e-6),
                "ladder_table": st.dictionaries(
                    st.sampled_from(["0", "3"]), st.lists(st.integers(0, 8), max_size=8), max_size=2
                ),
                "oracle_draws": st.integers(1, SIZE_KEYS["oracle_draws"]),
                "slope_ratio_bounds": st.lists(st.floats(1.0, 3.0), min_size=2, max_size=2),
            },
        ),
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
    """A 15N quartet spectrum as CSV bytes, with rows and cells broken."""
    n = draw(st.integers(0, 9) | st.integers(10, 24) | st.integers(10, 24))
    model = SpectrumModel(f_center=2300.0, contrast=0.1, linewidth=40.0, a14=43.0, a15=64.0, p15=1.0)
    grid = np.linspace(2100.0, 2500.0, max(n, 1))
    values = mixture_spectrum(model, grid).values
    sigma = draw(st.booleans())
    rows = [[repr(float(f)), repr(float(v))] + ["0.002"] * sigma for f, v in zip(grid[:n], values)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
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
    header = draw(st.sampled_from([good, good, "frequency_mhz,ratio", "f,r", ""]))
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    return draw(st.sampled_from([b"", b"", b"\xef\xbb\xbf", b"\xe9"])) + text.encode("utf-8")


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
        if verb in ("fit", "polarization"):
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
