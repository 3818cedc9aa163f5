"""What the benchmark measures: workloads, metrics and their bounds.

``SPEC`` is written verbatim to ``BENCHMARK.json`` by ``run.py --workload
all``. Every workload reports every metric, so the per-workload operation
classes share three slots, ``op_a``/``op_b``/``op_c``; ``CLASS_NAMES`` maps
each slot to the operation it stands for on each workload.
"""

WORKLOADS = ("fit_batch", "hamiltonian_sweep", "cli_session")
SLOTS = ("op_a", "op_b", "op_c")

# Per workload and slot: (what one item is, the report name of the class).
# A name ending in _per_s is printed as a wall-time rate of operations, one
# ending in _s as the median wall time of one operation.
CLASS_NAMES = {
    "fit_batch": {
        "op_a": ("fixed-p15 fit triple (14N, 15N, mixed 0.6) + derived", "fixed_p15_fits_per_s"),
        "op_b": ("free-p15 fit (mixed 0.6) + derived", "free_p15_fits_per_s"),
        "op_c": ("4-Lorentzian quartet fit + polarization", "lorentzian_fits_per_s"),
    },
    "hamiltonian_sweep": {
        "op_a": ("axial full-mode sweep over 4 isotope patterns", "axial_solves_per_s"),
        "op_b": ("transverse full-mode sweep over 4 isotope patterns", "transverse_solves_per_s"),
        "op_c": ("axial sweep with nuclear Zeeman over 4 isotope patterns", "axial_nz_solves_per_s"),
    },
    "cli_session": {
        "op_a": ("python -m vbodmr.cli simulate", "cli_simulate_s"),
        "op_b": ("python -m vbodmr.cli fit", "cli_fit_s"),
        "op_c": ("python -m vbodmr.cli validate", "cli_validate_s"),
    },
}

# Traced runs do a fixed number of rounds, so per-layer counts repeat exactly
# for a given seed; sized to take about half of --seconds at the seed commit.
TRACE_ROUNDS_PER_S = {"fit_batch": 0.5, "hamiltonian_sweep": 0.3, "cli_session": 0.08}

NOISE_SIGMA = 0.002

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 20,
    "workloads": [
        {
            "name": "fit_batch",
            "why": "spectrum+fit only. op_a fixed-p15 fits (p15-keyed cache hits), "
            "op_b free-p15 fit (misses), op_c 4-Lorentzian quartet (bypasses "
            "mixture_spectrum: the control)",
        },
        {
            "name": "hamiltonian_sweep",
            "why": "spin_core only, 4 isotope patterns. op_a/op_c axial solves without/with "
            "nuclear Zeeman (kron-bound), op_b transverse dense solves (eigensolve-bound)",
        },
        {
            "name": "cli_session",
            "why": "fresh python -m vbodmr.cli processes: op_a simulate, op_b fit, op_c "
            "validate; the only workload that pays interpreter start and import",
        },
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "op_a_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_b_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_c_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in (
            ("spin_core.spin_matrices.calls", "count", "lower"),
            ("spin_core.build_full_hamiltonian.calls", "count", "lower"),
            ("spin_core.build_full_hamiltonian.self_ms", "ms", "lower"),
            ("spin_core.eigen_hermitian.calls", "count", "lower"),
            ("spin_core.eigen_hermitian.self_ms", "ms", "lower"),
            ("spin_core.transition_frequencies.calls", "count", "lower"),
            ("spin_core.transition_frequencies.self_ms", "ms", "lower"),
            ("spectrum.config_lines.calls", "count", "lower"),
            ("spectrum.config_lines.self_ms", "ms", "lower"),
            ("spectrum.config_spectrum.calls", "count", "lower"),
            ("spectrum.config_spectrum.self_ms", "ms", "lower"),
            ("spectrum.mixture_spectrum.calls", "count", "lower"),
            ("spectrum.mixture_spectrum.self_ms", "ms", "lower"),
            ("spectrum.lorentzian.calls", "count", "lower"),
            ("spectrum.lorentzian.points", "count", "lower"),
            ("spectrum.lorentzian.self_ms", "ms", "lower"),
            ("fit.lm_minimize.calls", "count", "lower"),
            ("fit.lm_minimize.self_ms", "ms", "lower"),
            ("fit.lm_iterations", "count", "lower"),
            ("fit.model_evals", "count", "lower"),
            ("fit.model_evals_per_iteration", "ratio", "lower"),
            ("fit.converged_ratio", "ratio", "higher"),
            ("fit.fit_physical.self_ms", "ms", "lower"),
            ("fit.fit_free_lorentzians.self_ms", "ms", "lower"),
            ("analysis.spectral_slope.self_ms", "ms", "lower"),
            ("analysis.polarization_from_quartet_fit.self_ms", "ms", "lower"),
            ("validate.check_eigensolver.ms", "ms", "lower"),
            ("validate.check_ladder.ms", "ms", "lower"),
            ("validate.check_oracle_equivalence.ms", "ms", "lower"),
            ("validate.check_slope_ratio.ms", "ms", "lower"),
            ("cli.import_s", "s", "lower"),
            ("cli.ingest_csv.self_ms", "ms", "lower"),
            ("cli.main.self_ms", "ms", "lower"),
            ("trace.op_a_overhead_pct", "%", "lower"),
            ("trace.op_b_overhead_pct", "%", "lower"),
            ("trace.op_c_overhead_pct", "%", "lower"),
            ("trace.top_level_share_pct", "%", "higher"),
            ("trace.spans", "count", "lower"),
            ("trace.absent_functions", "count", "lower"),
        )
    ],
}

# Functions the per-layer metrics name. Any of them that a later version of
# the package no longer defines is reported as absent instead of failing.
NAMED_FUNCTIONS = sorted(
    {
        m["name"].rsplit(".", 1)[0]
        for m in SPEC["per_layer"]
        if m["name"].endswith((".calls", ".self_ms", ".ms"))
    }
)
