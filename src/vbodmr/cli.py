"""Command-line front end.

Verbs: simulate | fit | sensitivity | polarization | raman | validate.
Each reads a strict JSON config (unknown keys abort before anything is
written), writes JSON reports plus plot-ready CSV into the output directory,
and exits with 0 on success, 1 on a validation or schema error, 2 on an
ingestion error, 3 on fit non-convergence. Numbers must be finite: a NaN,
an infinity or an overflowing literal in the config is a schema error, a
model whose curve is not finite is refused, and reports are strict JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, fit as fitmod, spectrum, validate as validatemod
from .constants import A14_DEFAULT_MHZ, A15_DEFAULT_MHZ, NATURAL_B10_FRACTION
from .spectrum import Curve, Populations, SpectrumModel, enumerate_ladder

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_INGEST = 2
EXIT_NONCONVERGED = 3

DUPLICATE_FREQ_TOL_MHZ = 1e-9


class SchemaError(Exception):
    """Config file violates the schema; carries every violation found."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class IngestError(Exception):
    pass


class NonConvergenceError(Exception):
    def __init__(self, message: str, report_path: Path):
        super().__init__(message)
        self.report_path = report_path


# --- config schema -----------------------------------------------------------

_NUM = (int, float)

MODEL_SCHEMA = {
    "f_center_mhz": (_NUM, True),
    "contrast": (_NUM, True),
    "linewidth_mhz": (_NUM, True),
    "p15": (_NUM, True),
    "a14_mhz": (_NUM, False),
    "a15_mhz": (_NUM, False),
    "branch": (int, False),
    "polarization": (_NUM, False),
}

GRID_SCHEMA = {
    "start_mhz": (_NUM, True),
    "stop_mhz": (_NUM, True),
    "points": (int, True),
}

INIT_SCHEMA = {
    "f_center_mhz": (_NUM, False),
    "contrast": (_NUM, False),
    "linewidth_mhz": (_NUM, False),
    "a14_mhz": (_NUM, False),
    "a15_mhz": (_NUM, False),
    "p15": (_NUM, False),
}

COMMAND_SCHEMAS = {
    "simulate": {
        "model": (dict, True, MODEL_SCHEMA),
        "grid": (dict, False, GRID_SCHEMA),
        "noise_sigma": (_NUM, False),
    },
    "fit": {
        "input_csv": (str, True),
        "model": (str, False),          # "physical" (default) or "free_lorentzians"
        "branch": (int, False),
        "p15": ((int, float, str), False),  # number or "free"
        "init": (dict, False, INIT_SCHEMA),
        "n_lines": (int, False),
        "d_gs_mhz": (_NUM, False),
        "polarization": (bool, False),
        "sample_id": (str, False),
        "field_mt": (_NUM, False),
        "laser_power_mw": (_NUM, False),
    },
    "sensitivity": {
        "model_a": (dict, True, MODEL_SCHEMA),
        "model_b": (dict, True, MODEL_SCHEMA),
        "normalization": (str, False),
        "grid": (dict, False, GRID_SCHEMA),
    },
    "polarization": {
        "areas": (dict, False),
        "m_max": (_NUM, False),
        "input_csv": (str, False),
        "n_lines": (int, False),
    },
    "raman": {
        "points": (list, True),
    },
    "validate": {
        "eigensolver_tolerance": (_NUM, False),
        "ladder_table": (dict, False),
        "oracle_draws": (int, False),
        "slope_ratio_bounds": (list, False),
    },
}

TOP_LEVEL_KEYS = set(COMMAND_SCHEMAS) | {"out_dir", "seed"}


def _check_block(block: dict, schema: dict, path: str, problems: list[str]) -> None:
    for key in block:
        if key not in schema:
            problems.append(f"unknown key '{path}{key}'")
    for key, rule in schema.items():
        expected, required = rule[0], rule[1]
        if key not in block:
            if required:
                problems.append(f"missing required key '{path}{key}'")
            continue
        value = block[key]
        if expected is bool:
            ok = isinstance(value, bool)
        else:
            ok = isinstance(value, expected) and not isinstance(value, bool)
        if not ok:
            problems.append(f"key '{path}{key}' has wrong type {type(value).__name__}")
        elif len(rule) > 2 and isinstance(value, dict):
            _check_block(value, rule[2], f"{path}{key}.", problems)


def validate_config(config: dict, command: str) -> dict:
    """Strict schema check; returns the command block or raises SchemaError."""
    problems: list[str] = []
    if not isinstance(config, dict):
        raise SchemaError(["config root must be a JSON object"])
    for key in config:
        if key not in TOP_LEVEL_KEYS:
            problems.append(f"unknown key '{key}'")
    block = config.get(command)
    if block is None:
        problems.append(f"missing '{command}' block")
    elif not isinstance(block, dict):
        problems.append(f"'{command}' block must be an object")
    else:
        _check_block(block, COMMAND_SCHEMAS[command], f"{command}.", problems)
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        problems.append("key 'seed' must be a nonnegative integer")
    if "out_dir" in config and not isinstance(config["out_dir"], str):
        problems.append("key 'out_dir' must be a string")
    if problems:
        raise SchemaError(problems)
    return block


def _finite_float(text: str) -> float:
    """A JSON float literal or constant (NaN, Infinity) as a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError([f"non-finite number {text} (numbers must be finite)"])
    return value


def _number(value, key: str) -> float:
    """A JSON number inside a free-form block (list, map) as float."""
    if isinstance(value, bool) or not isinstance(value, _NUM):
        raise SchemaError([f"key '{key}' has wrong type {type(value).__name__}"])
    return float(value)


# --- ingestion ---------------------------------------------------------------

def ingest_csv(path) -> fitmod.MeasuredSpectrum:
    """Read a spectrum CSV with header frequency_mhz,ratio[,sigma].

    Rows are sorted by frequency; duplicate frequencies are rejected, and
    malformed or non-finite cells are rejected with the offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"input file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # spreadsheet "CSV UTF-8" exports start with a byte-order mark;
            # dropping it after decoding keeps error offsets file-relative
            text = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text (invalid byte at offset {exc.start})") from None
    except OSError as exc:
        raise IngestError(f"cannot open input file: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if header not in (["frequency_mhz", "ratio"], ["frequency_mhz", "ratio", "sigma"]):
        raise IngestError(
            f"{path}: header must be 'frequency_mhz,ratio' or "
            f"'frequency_mhz,ratio,sigma', got {','.join(header)!r}"
        )
    has_sigma = len(header) == 3
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise IngestError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        try:
            values = tuple(float(cell) for cell in row)
        except ValueError:
            raise IngestError(f"{path}:{lineno}: malformed numeric cell") from None
        if not all(math.isfinite(v) for v in values):
            raise IngestError(f"{path}:{lineno}: non-finite numeric cell")
        rows.append(values)
    if len(rows) < 8:
        raise IngestError(f"{path}: insufficient samples ({len(rows)} rows, need >= 8)")
    rows.sort(key=lambda t: t[0])
    freqs = np.array([r[0] for r in rows])
    if np.any(np.diff(freqs) <= DUPLICATE_FREQ_TOL_MHZ):
        raise IngestError(f"{path}: duplicate frequencies within {DUPLICATE_FREQ_TOL_MHZ} MHz")
    ratios = np.array([r[1] for r in rows])
    sigmas = np.array([r[2] for r in rows]) if has_sigma else None
    try:
        return fitmod.MeasuredSpectrum(
            freqs,
            ratios,
            sigmas,
            metadata={
                "source": str(path),
                "rows": len(rows),
                "f_min_mhz": float(freqs[0]),
                "f_max_mhz": float(freqs[-1]),
            },
        )
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None


# --- helpers -----------------------------------------------------------------

def _model_from_block(block: dict) -> SpectrumModel:
    branch = block.get("branch", -1)
    populations = None
    if "polarization" in block:
        pol = float(block["polarization"])
        fractions = spectrum.binomial_fractions(float(block["p15"]))
        # a strong tilt may not be representable on every ladder, so only
        # configurations that actually enter the mixture are built
        populations = {
            n: Populations.with_polarization(enumerate_ladder(n), pol)
            for n in range(4)
            if fractions[n] > 0.0
        }
    return SpectrumModel(
        f_center=float(block["f_center_mhz"]),
        contrast=float(block["contrast"]),
        linewidth=float(block["linewidth_mhz"]),
        a14=float(block.get("a14_mhz", A14_DEFAULT_MHZ)),
        a15=float(block.get("a15_mhz", A15_DEFAULT_MHZ)),
        p15=float(block["p15"]),
        branch=branch,
        populations=populations,
    )


def _require_quartet(block: dict, command: str) -> None:
    """Polarization from line areas maps exactly four lines to m_tot."""
    if block.get("n_lines", 4) != 4:
        raise SchemaError([f"{command}.n_lines must be 4 for polarization (15N quartet)"])


def _grid_from_block(block: dict | None, f_center: float) -> np.ndarray:
    if block is None:
        return spectrum.default_grid(f_center)
    points = block["points"]
    if points < 2:
        raise SchemaError(["grid.points must be >= 2"])
    if block["stop_mhz"] <= block["start_mhz"]:
        raise SchemaError(["grid.stop_mhz must exceed grid.start_mhz"])
    return np.linspace(block["start_mhz"], block["stop_mhz"], points)


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _require_finite(curve: Curve, what: str) -> None:
    if not np.all(np.isfinite(curve.values)):
        raise ValueError(f"{what} is not finite: the model is out of floating-point range")


def _model_echo(model: SpectrumModel) -> dict:
    return {
        "f_center_mhz": model.f_center,
        "contrast": model.contrast,
        "linewidth_mhz": model.linewidth,
        "a14_mhz": model.a14,
        "a15_mhz": model.a15,
        "p15": model.p15,
        "branch": model.branch,
        "binomial_fractions": list(spectrum.binomial_fractions(model.p15)),
    }


# --- commands ----------------------------------------------------------------

def cmd_simulate(block: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    noise_sigma = block.get("noise_sigma")
    if noise_sigma is not None and not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise SchemaError(["simulate.noise_sigma must be a finite number >= 0"])
    model = _model_from_block(block["model"])
    grid = _grid_from_block(block.get("grid"), model.f_center)
    curve = spectrum.mixture_spectrum(model, grid)
    values = curve.values
    if noise_sigma is not None:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, float(noise_sigma), values.size)
        curve = Curve(grid, values)
    _require_finite(curve, "simulated curve")
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "curve.csv"
    curve.to_csv(curve_path)
    report = {
        "command": "simulate",
        "model": _model_echo(model),
        "grid": {
            "start_mhz": float(grid[0]),
            "stop_mhz": float(grid[-1]),
            "points": int(grid.size),
        },
        "noise_sigma": noise_sigma,
        "seed": seed,
        "outputs": {"curve_csv": curve_path.name},
    }
    if "polarization" in block["model"]:
        report["model"]["polarization"] = block["model"]["polarization"]
    _write_json(out_dir / "simulate.json", report)
    if not quiet:
        print(f"wrote {curve_path}")
    return EXIT_OK


def cmd_fit(block: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    meas = ingest_csv(block["input_csv"])
    for key in ("sample_id", "field_mt", "laser_power_mw"):
        if key in block:
            meas.metadata[key] = block[key]
    mode = block.get("model", "physical")
    if mode not in ("physical", "free_lorentzians"):
        raise SchemaError(["fit.model must be 'physical' or 'free_lorentzians'"])
    if mode == "free_lorentzians" and block.get("polarization"):
        _require_quartet(block, "fit")

    report: dict = {"command": "fit", "input": meas.metadata, "mode": mode}
    derived: dict = {}

    if mode == "physical":
        p15_cfg = block.get("p15", 0.0)
        if isinstance(p15_cfg, str):
            if p15_cfg != "free":
                raise SchemaError(["fit.p15 must be a number or 'free'"])
            p15_mode = "free"
            p15_for_init = 0.5
        else:
            p15_mode = ("fixed", float(p15_cfg))
            p15_for_init = float(p15_cfg)
        init = fitmod.initial_physical_guess(meas, p15_for_init, branch=block.get("branch", -1))
        overrides = block.get("init", {})
        if overrides:
            init = SpectrumModel(
                f_center=overrides.get("f_center_mhz", init.f_center),
                contrast=overrides.get("contrast", init.contrast),
                linewidth=overrides.get("linewidth_mhz", init.linewidth),
                a14=overrides.get("a14_mhz", init.a14),
                a15=overrides.get("a15_mhz", init.a15),
                p15=overrides.get("p15", init.p15),
                branch=init.branch,
            )
        result = fitmod.fit_physical(meas, init=init, p15_mode=p15_mode)
        report["fit"] = result.to_json_dict()
        if "d_gs_mhz" in block and "f_center" in result.values:
            try:
                derived["field_mt"] = analysis.field_from_center(
                    float(block["d_gs_mhz"]), result.values["f_center"]
                )
            except ValueError as exc:
                derived["field_mt_error"] = str(exc)
    else:
        n_lines = block.get("n_lines", 4)
        result = fitmod.fit_free_lorentzians(meas, n_lines, seed=seed)
        report["fit"] = result.to_json_dict()
        model = fitmod.free_model_from_result(result, n_lines)
        derived["line_centers_mhz"] = list(model.centers)
        derived["line_areas"] = list(model.areas)
        if block.get("polarization"):
            pol = analysis.polarization_from_quartet_fit(result)
            derived["polarization"] = pol.polarization
            derived["areas_by_m_tot"] = {str(m): a for m, a in sorted(pol.areas.items())}
            derived["m_tot_assignment"] = "ascending frequency -> m_tot -3/2..+3/2"
        if "d_gs_mhz" in block:
            center = model.centers[0] + 0.5 * (n_lines - 1) * result.values["spacing"]
            try:
                derived["field_mt"] = analysis.field_from_center(float(block["d_gs_mhz"]), center)
            except ValueError as exc:
                derived["field_mt_error"] = str(exc)

    report["derived"] = derived
    report_path = out_dir / "fit.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(report_path, report)
    if not quiet:
        print(f"wrote {report_path}")
    if not result.converged:
        raise NonConvergenceError("fit did not converge; partial report written", report_path)
    return EXIT_OK


def cmd_sensitivity(block: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    normalization = block.get("normalization", "per_contrast")
    model_a = _model_from_block(block["model_a"])
    model_b = _model_from_block(block["model_b"])
    grid_block = block.get("grid")
    grid_a = _grid_from_block(grid_block, model_a.f_center)
    grid_b = _grid_from_block(grid_block, model_b.f_center)
    report_a = analysis.spectral_slope(model_a, grid_a, normalization)
    report_b = analysis.spectral_slope(model_b, grid_b, normalization)
    _require_finite(report_a.slope_curve, "slope curve of model_a")
    _require_finite(report_b.slope_curve, "slope curve of model_b")
    out_dir.mkdir(parents=True, exist_ok=True)
    report_a.slope_curve.to_csv(out_dir / "slope_a.csv", value_name="slope_per_mhz")
    report_b.slope_curve.to_csv(out_dir / "slope_b.csv", value_name="slope_per_mhz")
    _write_json(
        out_dir / "sensitivity.json",
        {
            "command": "sensitivity",
            "normalization": normalization,
            "model_a": _model_echo(model_a),
            "model_b": _model_echo(model_b),
            "max_slope_a_per_mhz": report_a.max_slope,
            "max_slope_b_per_mhz": report_b.max_slope,
            "eta_a_over_eta_b": analysis.relative_sensitivity(report_a, report_b),
            "outputs": {"slope_a_csv": "slope_a.csv", "slope_b_csv": "slope_b.csv"},
        },
    )
    if not quiet:
        print(f"wrote {out_dir / 'sensitivity.json'}")
    return EXIT_OK


def cmd_polarization(block: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    report: dict = {"command": "polarization"}
    if "areas" in block:
        if "m_max" not in block:
            raise SchemaError(["polarization.m_max is required with explicit areas"])
        try:
            areas = {
                float(k): _number(v, f"polarization.areas.{k}") for k, v in block["areas"].items()
            }
        except ValueError:
            raise SchemaError(["polarization.areas keys must be numeric"]) from None
        if not all(math.isfinite(m) for m in areas):
            raise SchemaError(["polarization.areas keys must be finite"])
        pol = analysis.polarization_from_areas(areas, float(block["m_max"]))
    elif "input_csv" in block:
        _require_quartet(block, "polarization")
        meas = ingest_csv(block["input_csv"])
        result = fitmod.fit_free_lorentzians(meas, 4, seed=seed)
        pol = analysis.polarization_from_quartet_fit(result)
        report["fit"] = result.to_json_dict()
    else:
        raise SchemaError(["polarization needs either 'areas' + 'm_max' or 'input_csv'"])
    report["polarization"] = pol.polarization
    report["m_max"] = pol.m_max
    report["areas_by_m_tot"] = {str(m): a for m, a in sorted(pol.areas.items())}
    report["m_tot_assignment"] = "ascending frequency -> m_tot -3/2..+3/2"
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "polarization.json", report)
    if not quiet:
        print(f"wrote {out_dir / 'polarization.json'}")
    return EXIT_OK


def cmd_raman(block: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    points = []
    for k, entry in enumerate(block["points"]):
        if not isinstance(entry, dict):
            raise SchemaError([f"raman.points[{k}] must be an object"])
        unknown = set(entry) - {"nitrogen_frac_15", "boron_frac_10"}
        if unknown:
            raise SchemaError([f"unknown key 'raman.points[{k}].{u}'" for u in sorted(unknown)])
        if "nitrogen_frac_15" not in entry:
            raise SchemaError([f"missing required key 'raman.points[{k}].nitrogen_frac_15'"])
        where = f"raman.points[{k}]"
        point = analysis.raman_point(
            _number(entry["nitrogen_frac_15"], f"{where}.nitrogen_frac_15"),
            _number(entry.get("boron_frac_10", NATURAL_B10_FRACTION), f"{where}.boron_frac_10"),
        )
        points.append(
            {
                "nitrogen_frac_15": point.nitrogen_frac_15,
                "boron_frac_10": point.boron_frac_10,
                "reduced_mass": point.reduced_mass,
                "shift_cm1": point.shift_cm1,
            }
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "raman.json", {"command": "raman", "points": points})
    if not quiet:
        print(f"wrote {out_dir / 'raman.json'}")
    return EXIT_OK


def cmd_validate(block: dict, out_dir: Path, seed: int, quiet: bool) -> int:
    kwargs: dict = {}
    if "eigensolver_tolerance" in block:
        kwargs["eigensolver_tolerance"] = float(block["eigensolver_tolerance"])
    if "ladder_table" in block:
        try:
            kwargs["ladder_table"] = {
                int(k): [int(x) for x in v] for k, v in block["ladder_table"].items()
            }
        except (TypeError, ValueError):
            raise SchemaError(["validate.ladder_table must map n15_count to integer lists"]) from None
    if "oracle_draws" in block:
        if block["oracle_draws"] < 1:
            raise SchemaError(["validate.oracle_draws must be >= 1"])
        kwargs["oracle_draws"] = block["oracle_draws"]
    if "slope_ratio_bounds" in block:
        bounds = block["slope_ratio_bounds"]
        if len(bounds) != 2:
            raise SchemaError(["validate.slope_ratio_bounds must be [low, high]"])
        kwargs["slope_ratio_bounds"] = tuple(
            _number(b, f"validate.slope_ratio_bounds[{i}]") for i, b in enumerate(bounds)
        )
    report = validatemod.run_validation(seed=seed, **kwargs)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "validate.json", {"command": "validate", **report})
    if not quiet:
        for group in report["groups"]:
            print(f"{group['name']}: {'pass' if group['passed'] else 'FAIL'}")
    return EXIT_OK if report["passed"] else EXIT_SCHEMA


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "sensitivity": cmd_sensitivity,
    "polarization": cmd_polarization,
    "raman": cmd_raman,
    "validate": cmd_validate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are schema errors (exit 1)
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_SCHEMA)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON run config")
    common.add_argument("--out", help="output directory (overrides config out_dir)")
    common.add_argument("--seed", type=int, help="seed for synthetic noise / draws")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser = _Parser(prog="vbodmr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                raw = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                raise SchemaError([f"cannot read config: {exc}"]) from None
            try:
                config = json.loads(raw, parse_constant=_finite_float, parse_float=_finite_float)
            except json.JSONDecodeError as exc:
                raise SchemaError([f"config is not valid JSON: {exc}"]) from None
        elif args.command == "validate":
            config = {"validate": {}}
        else:
            raise SchemaError(["--config is required for this command"])
        block = validate_config(config, args.command)
        out_dir = Path(args.out or config.get("out_dir", "."))
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        # results are checked for finiteness instead; a floating-point
        # warning would only add lines to stderr
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](block, out_dir, int(seed), args.quiet)
    except SchemaError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, RecursionError, MemoryError, OverflowError) as exc:
        # deep JSON nesting, arrays beyond the address space, float overflow
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except IngestError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NonConvergenceError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    raise SystemExit(main())
