"""Span tracer installed around the public functions of the vbodmr modules.

The package is not edited: ``install`` replaces every module-level binding of
a public vbodmr function (and module-level dict entries such as the CLI
command table) with a wrapper that records a span (name, start, end, parent)
while the tracer is enabled. Spans stay in memory until ``summary``.
``fit.lm_minimize`` additionally counts residual evaluations, LM iterations
and converged runs.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

LAYERS = ("spin_core", "spectrum", "fit", "analysis", "validate", "cli")


def _layer_functions(module) -> dict[str, object]:
    layer = module.__name__.rsplit(".", 1)[-1]
    return {
        f"{layer}.{name}": obj
        for name, obj in vars(module).items()
        if callable(obj)
        and not isinstance(obj, type)
        and not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
    }


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.enabled = False
        self.model_evals = 0
        self.lm_iterations = 0
        self.lm_runs = 0
        self.lm_converged = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self, expected: list[str]) -> list[str]:
        """Wrap every public function of the vbodmr layer modules in every
        loaded vbodmr module that binds it. Returns the ``expected`` names
        that no layer defines (absent)."""
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"vbodmr.{layer}")
            if module is None:
                continue
            for qualname, fn in _layer_functions(module).items():
                originals[id(fn)] = (qualname, fn)
        wrappers = {
            key: self._wrap_lm(fn) if qualname == "fit.lm_minimize" else self._wrap(qualname, fn)
            for key, (qualname, fn) in originals.items()
        }
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "vbodmr" or modname.startswith("vbodmr.")):
                continue
            # ids are unique here: ``originals`` keeps every wrapped function alive
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if id(item) in wrappers:
                            self._patched.append((value, key, item))
                            value[key] = wrappers[id(item)]
        defined = {qualname for qualname, _ in originals.values()}
        return [name for name in expected if name not in defined]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, qualname: str, fn):
        nid = self._name_id(qualname)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def _wrap_lm(self, fn):
        spanned = self._wrap("fit.lm_minimize", fn)
        tracer = self

        def lm_minimize(residual_fn, *args, **kwargs):
            if not tracer.enabled:
                return fn(residual_fn, *args, **kwargs)

            def counted(p):
                tracer.model_evals += 1
                return residual_fn(p)

            result = spanned(counted, *args, **kwargs)
            tracer.lm_runs += 1
            tracer.lm_iterations += int(getattr(result, "iterations", 0))
            tracer.lm_converged += bool(getattr(result, "converged", False))
            return result

        lm_minimize.__wrapped__ = fn
        return lm_minimize

    # --- results ------------------------------------------------------------

    def _arrays(self):
        n = len(self.span_name)
        names = np.frombuffer(self.span_name, dtype=np.int32, count=n).copy()
        parents = np.frombuffer(self.span_parent, dtype=np.int32, count=n).copy()
        dur = np.frombuffer(self.span_end, count=n) - np.frombuffer(self.span_start, count=n)
        return names, parents, dur

    def forward_calls_under_lm(self) -> int:
        """Spans of the spectrum layer whose direct parent is an LM run."""
        if "fit.lm_minimize" not in self._ids:
            return 0
        names, parents, _ = self._arrays()
        spectrum_ids = [i for i, n in enumerate(self.names) if n.startswith("spectrum.")]
        has_parent = parents >= 0
        parent_name = np.full(names.size, -1)
        parent_name[has_parent] = names[parents[has_parent]]
        return int(
            np.count_nonzero(
                np.isin(names, spectrum_ids) & (parent_name == self._ids["fit.lm_minimize"])
            )
        )

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus run-wide counters.
        Self time is a span's duration minus that of its direct children."""
        names, parents, dur = self._arrays()
        child = parents >= 0
        child_time = np.bincount(parents[child], weights=dur[child], minlength=names.size)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            "functions": {
                name: [int(calls[i]), float(total[i]), float(own[i])]
                for i, name in enumerate(self.names)
            },
            "top_level_s": float(dur[~child].sum()),
            "spans": int(names.size),
            "model_evals": self.model_evals,
            "lm_iterations": self.lm_iterations,
            "lm_runs": self.lm_runs,
            "lm_converged": self.lm_converged,
        }


def merge(summaries: list[dict]) -> dict:
    """Sum tracer summaries, e.g. of several traced CLI processes."""
    out = {"functions": {}, "top_level_s": 0.0, "spans": 0, "model_evals": 0,
           "lm_iterations": 0, "lm_runs": 0, "lm_converged": 0}
    for s in summaries:
        for name, values in s["functions"].items():
            acc = out["functions"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for key in ("top_level_s", "spans", "model_evals", "lm_iterations", "lm_runs", "lm_converged"):
            out[key] += s[key]
    return out
