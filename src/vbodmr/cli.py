"""Command-line front end.

Verbs: simulate | fit | sensitivity | polarization | raman | validate.
Each reads a strict JSON config: a key that is unknown, or that the chosen
``fit`` model does not read (``FIT_MODEL_KEYS``; ``init.p15`` only with
``p15: "free"``), and a ``fit`` p15, branch, n_lines or init value out of
its range (``fit.PHYSICAL_BOUNDS`` for init) abort before any file is read
or written. A verb builds a JSON report plus plot-ready CSV curves; ``main``
alone writes them into the output directory, nothing unless the whole report
was built, and prints one ``wrote <out>/<verb>.json`` line. It exits with 0
on success, 1 on a validation or schema error, 2 on an ingestion error, 3 on
fit non-convergence (``fit`` writes its report first). ``--seed`` obeys the
rule of the config ``seed``: a nonnegative integer. ``polarization`` takes
``areas`` + ``m_max``; the polarization of a measured 15N quartet comes from
``fit`` with ``free_lorentzians`` and ``polarization``. Numbers must be
finite: a NaN, an infinity or an overflowing literal in the config is a
schema error, a model whose curve is not finite is refused, and reports are
strict JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import analysis, fit as fitmod, spectrum, validate as validatemod
from .constants import A14_DEFAULT_MHZ, A15_DEFAULT_MHZ
from .spectrum import Curve, Populations, SpectrumModel, enumerate_ladder

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_INGEST = 2
EXIT_NONCONVERGED = 3


class SchemaError(Exception):
    """Config file violates the schema; carries every violation found."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class IngestError(Exception):
    pass


# --- config schema -----------------------------------------------------------

_NUM = (int, float)

# the config key of each numeric SpectrumModel field, and the keys a model
# may leave out, with their values
MODEL_FIELDS = {
    "f_center_mhz": "f_center",
    "contrast": "contrast",
    "linewidth_mhz": "linewidth",
    "a14_mhz": "a14",
    "a15_mhz": "a15",
    "p15": "p15",
}
MODEL_DEFAULTS = {"a14_mhz": A14_DEFAULT_MHZ, "a15_mhz": A15_DEFAULT_MHZ}

MODEL_SCHEMA = {
    **{key: (_NUM, key not in MODEL_DEFAULTS) for key in MODEL_FIELDS},
    "branch": (int, False),
    "polarization": (_NUM, False),
}

GRID_SCHEMA = {
    "start_mhz": (_NUM, True),
    "stop_mhz": (_NUM, True),
    "points": (int, True),
}
# a 25-line forward-model pass then needs about 20 MB per (lines x grid) buffer
MAX_GRID_POINTS = 100_000

INIT_SCHEMA = {key: (_NUM, False) for key in MODEL_FIELDS}

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
        "areas": (dict, True),
        "m_max": (_NUM, True),
    },
    "raman": {
        "points": (list, True, {"nitrogen_frac_15": (_NUM, True), "boron_frac_10": (_NUM, False)}),
    },
    "validate": {},
}

# the ``fit`` keys that only one fit model reads; the other model refuses them
FIT_MODEL_KEYS = {
    "physical": ("p15", "init"),
    "free_lorentzians": ("n_lines", "polarization"),
}


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
        elif len(rule) > 2:  # an object of that schema, or a list of such objects
            nested = {"": value} if expected is dict else {f"[{k}]": e for k, e in enumerate(value)}
            for at, entry in nested.items():
                if isinstance(entry, dict):
                    _check_block(entry, rule[2], f"{path}{key}{at}.", problems)
                else:
                    problems.append(f"{path}{key}{at} must be an object")


def validate_config(config: dict, command: str) -> dict:
    """Strict schema check of the command's block, the other verbs' blocks (as
    objects), out_dir and seed; returns the command block or raises SchemaError."""
    if not isinstance(config, dict):
        raise SchemaError(["config root must be a JSON object"])
    schema = {verb: (dict, False) for verb in COMMAND_SCHEMAS}
    schema[command] = (dict, True, COMMAND_SCHEMAS[command])
    schema.update(out_dir=(str, False), seed=(int, False))
    problems: list[str] = []
    _check_block(config, schema, "", problems)
    if isinstance(config.get("seed"), int) and config["seed"] < 0:
        problems.append("key 'seed' must be a nonnegative integer")
    if problems:
        raise SchemaError(problems)
    return config[command]


def _finite_float(text: str) -> float:
    """A JSON float literal or constant (NaN, Infinity) as a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError([f"non-finite number {text} (numbers must be finite)"])
    return value


def _distinct_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; json.loads alone would keep
    the last of two equal keys without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = dict.fromkeys(k for k in keys if keys.count(k) > 1)
        raise SchemaError([f"key {json.dumps(k)} is given more than once" for k in repeated])
    return obj


def _number(value, key: str) -> float:
    """A JSON number inside a free-form block (the polarization areas) as float."""
    if isinstance(value, bool) or not isinstance(value, _NUM):
        raise SchemaError([f"key '{key}' has wrong type {type(value).__name__}"])
    return float(value)


# --- ingestion ---------------------------------------------------------------

def ingest_csv(path) -> fitmod.MeasuredSpectrum:
    """Read a spectrum CSV with header frequency_mhz,ratio[,sigma].

    One pass judges each row as the reader yields it: a blank row is
    skipped, and the first row with the wrong cell count or a malformed,
    non-finite or oversized cell (over ``csv.field_size_limit``) is refused
    with the reader's line number, the line where its record ends. The
    sample rules are ``MeasuredSpectrum``'s, and its refusals name the path.
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
    values = []
    try:
        header = [h.strip() for h in next(reader)]
        if header not in (["frequency_mhz", "ratio"], ["frequency_mhz", "ratio", "sigma"]):
            raise IngestError(
                f"{path}: header must be 'frequency_mhz,ratio' or "
                f"'frequency_mhz,ratio,sigma', got {','.join(header)!r}"
            )
        for row in reader:
            if len(row) < 2 and not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(row)}")
            try:
                cells = [float(cell) for cell in row]
            except ValueError:
                raise ValueError("malformed numeric cell") from None
            if not all(map(math.isfinite, cells)):
                raise ValueError("non-finite numeric cell")
            values += cells
    except StopIteration:
        raise IngestError(f"{path}: empty file") from None
    except (ValueError, csv.Error) as exc:
        raise IngestError(f"{path}:{reader.line_num}: {exc}") from None
    freqs, ratios, *sigmas = np.array(values).reshape(-1, len(header)).T
    try:
        return fitmod.MeasuredSpectrum(freqs, ratios, *sigmas)
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None


# --- helpers -----------------------------------------------------------------

def _model_from_block(block: dict) -> SpectrumModel:
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
    values = {**MODEL_DEFAULTS, **block}
    return SpectrumModel(
        **{field: float(values[key]) for key, field in MODEL_FIELDS.items()},
        branch=block.get("branch", -1),
        populations=populations,
    )


def _grid_from_block(block: dict | None, f_center: float) -> np.ndarray:
    if block is None:
        return spectrum.default_grid(f_center)
    points = block["points"]
    if points < 2:
        raise SchemaError(["grid.points must be >= 2"])
    if points > MAX_GRID_POINTS:
        raise SchemaError([f"grid.points must be <= {MAX_GRID_POINTS}"])
    # an integer bound beyond float range raises OverflowError here
    start, stop = float(block["start_mhz"]), float(block["stop_mhz"])
    if stop <= start:
        raise SchemaError(["grid.stop_mhz must exceed grid.start_mhz"])
    return np.linspace(start, stop, points)


def _require_finite(curve: Curve, what: str) -> None:
    if not np.all(np.isfinite(curve.values)):
        raise ValueError(f"{what} is not finite: the model is out of floating-point range")


def _model_echo(model: SpectrumModel) -> dict:
    return {
        **{key: getattr(model, field) for key, field in MODEL_FIELDS.items()},
        "branch": model.branch,
        "binomial_fractions": list(spectrum.binomial_fractions(model.p15)),
    }


# --- commands ----------------------------------------------------------------
# Each verb maps its config block and seed to (report, curves) and does no
# I/O; ``curves`` maps a CSV name to the curve and its value column.

def cmd_simulate(block: dict, seed: int) -> tuple[dict, dict]:
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
    report = {
        "model": _model_echo(model),
        "grid": {
            "start_mhz": float(grid[0]),
            "stop_mhz": float(grid[-1]),
            "points": int(grid.size),
        },
        "noise_sigma": noise_sigma,
        "seed": seed,
        "outputs": {"curve_csv": "curve.csv"},
    }
    if "polarization" in block["model"]:
        report["model"]["polarization"] = block["model"]["polarization"]
    return report, {"curve.csv": (curve, "ratio")}


def cmd_fit(block: dict, seed: int) -> tuple[dict, dict]:
    mode = block.get("model", "physical")
    if mode not in FIT_MODEL_KEYS:
        raise SchemaError(["fit.model must be 'physical' or 'free_lorentzians'"])
    (other,) = set(FIT_MODEL_KEYS) - {mode}
    unread = [key for key in FIT_MODEL_KEYS[other] if key in block]
    problems = [f"key 'fit.{key}' is read only by model '{other}'" for key in unread]
    p15 = block.get("p15", 0.0)
    branch = block.get("branch", -1)
    if branch not in (1, -1):
        problems.append("fit.branch must be +1 or -1")
    if mode == "physical":
        if isinstance(p15, str) and p15 != "free":
            problems.append("fit.p15 must be a number or 'free'")
        elif not (isinstance(p15, str) or 0.0 <= p15 <= 1.0):
            problems.append("fit.p15 must lie in [0, 1]")
        if "p15" in block.get("init", {}) and p15 != "free":
            problems.append("key 'fit.init.p15' is read only when fit.p15 is 'free'")
        for key, value in block.get("init", {}).items():
            low, high = fitmod.PHYSICAL_BOUNDS[MODEL_FIELDS[key]]
            if not low <= value <= high:
                problems.append(f"fit.init.{key} must lie in [{low:g}, {high:g}]")
    elif block.get("n_lines", 4) < 1:
        problems.append("fit.n_lines must be >= 1")
    elif block.get("polarization") and block.get("n_lines", 4) != 4:
        # polarization from line areas maps exactly four lines to m_tot
        problems.append("fit.n_lines must be 4 for polarization (15N quartet)")
    if problems:
        raise SchemaError(problems)
    meas = ingest_csv(block["input_csv"])
    input_block = {
        "source": str(Path(block["input_csv"])),
        "rows": meas.n_samples,
        "f_min_mhz": float(meas.frequencies[0]),
        "f_max_mhz": float(meas.frequencies[-1]),
        **{k: block[k] for k in ("sample_id", "field_mt", "laser_power_mw") if k in block},
    }
    derived: dict = {}
    if mode == "physical":
        p15_mode = "free" if p15 == "free" else ("fixed", float(p15))
        p15_for_init = 0.5 if p15 == "free" else float(p15)
        init = fitmod.initial_physical_guess(meas, p15_for_init, branch=branch)
        overrides = {MODEL_FIELDS[key]: v for key, v in block.get("init", {}).items()}
        init = replace(init, **overrides)
        result = fitmod.fit_physical(meas, init=init, p15_mode=p15_mode)
        center = result.values["f_center"]
    else:
        n_lines = block.get("n_lines", 4)
        result = fitmod.fit_free_lorentzians(meas, n_lines)
        v = result.values
        centers = [v["f_first"] + k * v["spacing"] for k in range(n_lines)]
        derived["line_centers_mhz"] = centers
        derived["line_areas"] = [v[f"depth_{k}"] * v[f"width_{k}"] for k in range(1, n_lines + 1)]
        if block.get("polarization"):
            order = "-3/2..+3/2" if branch == -1 else "+3/2..-3/2"
            derived.update(
                _polarization_keys(_quartet_polarization(result, branch)),
                m_tot_assignment=f"ascending frequency -> m_tot {order}",
            )
        center = centers[0] + 0.5 * (n_lines - 1) * v["spacing"]
    if "d_gs_mhz" in block:
        try:
            derived["field_mt"] = analysis.field_from_center(block["d_gs_mhz"], center, branch)
        except ValueError as exc:
            derived["field_mt_error"] = str(exc)
    fit = result.to_json_dict()
    return {"input": input_block, "mode": mode, "fit": fit, "derived": derived}, {}


def cmd_sensitivity(block: dict, seed: int) -> tuple[dict, dict]:
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
    report = {
        "normalization": normalization,
        "model_a": _model_echo(model_a),
        "model_b": _model_echo(model_b),
        "max_slope_a_per_mhz": report_a.max_slope,
        "max_slope_b_per_mhz": report_b.max_slope,
        "eta_a_over_eta_b": analysis.relative_sensitivity(report_a, report_b),
        "outputs": {"slope_a_csv": "slope_a.csv", "slope_b_csv": "slope_b.csv"},
    }
    curves = {
        "slope_a.csv": (report_a.slope_curve, "slope_per_mhz"),
        "slope_b.csv": (report_b.slope_curve, "slope_per_mhz"),
    }
    return report, curves


def _quartet_polarization(result: fitmod.FitResult, branch: int) -> analysis.PolarizationReport:
    """The ``branch`` quartet fit's polarization report; P is None when the
    fit has no line area (every depth 0, as a fit that found no lines may end)."""
    areas = analysis.quartet_areas(result, branch)
    if any(areas.values()):
        return analysis.polarization_from_quartet_fit(result, branch)
    return analysis.PolarizationReport(areas, polarization=None, m_max=analysis.QUARTET_M_MAX)


def _polarization_keys(pol: analysis.PolarizationReport) -> dict:
    """The report keys of a polarization estimate, as ``fit`` and
    ``polarization`` write them."""
    return {
        "polarization": pol.polarization,
        "polarization_sigma": pol.sigma,
        "areas_by_m_tot": {str(m): a for m, a in sorted(pol.areas.items())},
    }


def cmd_polarization(block: dict, seed: int) -> tuple[dict, dict]:
    try:
        areas = {float(k): _number(v, f"polarization.areas.{k}") for k, v in block["areas"].items()}
    except ValueError:
        raise SchemaError(["polarization.areas keys must be numeric"]) from None
    if not all(math.isfinite(m) for m in areas):
        raise SchemaError(["polarization.areas keys must be finite"])
    pol = analysis.polarization_from_areas(areas, float(block["m_max"]))
    return {**_polarization_keys(pol), "m_max": pol.m_max}, {}


def cmd_raman(block: dict, seed: int) -> tuple[dict, dict]:
    # the entry keys are raman_point's parameters; it holds the natural-10B default
    points = [
        asdict(analysis.raman_point(**{key: float(v) for key, v in entry.items()}))
        for entry in block["points"]
    ]
    return {"points": points}, {}


def cmd_validate(block: dict, seed: int) -> tuple[dict, dict]:
    return validatemod.run_validation(), {}


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
    common.add_argument("--seed", type=int, help="nonnegative seed for simulate's noise")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser = _Parser(prog="vbodmr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _write_report(command: str, out_dir: Path, report: dict, curves: dict, quiet: bool) -> int:
    """Write the curves, then ``<command>.json``, into ``out_dir`` (the report
    is serialized first, so one that is not strict JSON writes nothing) and
    return the exit code; a fit that did not converge also gets a stderr line."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command, **report}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (curve, value_name) in curves.items():
        curve.to_csv(out_dir / name, value_name=value_name)
    report_path = out_dir / f"{command}.json"
    report_path.write_text(text + "\n", encoding="utf-8")
    if not quiet:
        print(f"wrote {report_path}")
        for group in report.get("groups", []):
            print(f"{group['name']}: {'pass' if group['passed'] else 'FAIL'}")
    if "fit" in report and not report["fit"]["converged"]:
        print("fit error: fit did not converge; partial report written", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK if report.get("passed", True) else EXIT_SCHEMA


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                raw = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                raise SchemaError([f"cannot read config: {exc}"]) from None
            try:
                config = json.loads(
                    raw,
                    object_pairs_hook=_distinct_keys,
                    parse_constant=_finite_float,
                    parse_float=_finite_float,
                )
            except json.JSONDecodeError as exc:
                raise SchemaError([f"config is not valid JSON: {exc}"]) from None
        elif args.command == "validate":
            config = {"validate": {}}
        else:
            raise SchemaError(["--config is required for this command"])
        block = validate_config(config, args.command)
        out_dir = Path(args.out or config.get("out_dir", "."))
        seed = config.get("seed", 0) if args.seed is None else args.seed
        if seed < 0:  # the config seed has passed the same rule above
            raise SchemaError(["option '--seed' must be a nonnegative integer"])
        # results are checked for finiteness instead; a floating-point
        # warning would only add lines to stderr
        with np.errstate(all="ignore"):
            report, curves = COMMANDS[args.command](block, seed)
        return _write_report(args.command, out_dir, report, curves, args.quiet)
    except SchemaError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_SCHEMA
    except IngestError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (ValueError, RecursionError, MemoryError, OverflowError, OSError, RuntimeError) as exc:
        # deep JSON nesting, arrays beyond the address space, float overflow,
        # an unwritable output directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
