"""Span wrappers around the public functions of each ``sepdyn`` module.

Nothing in ``sepdyn`` is edited: each function is replaced, in every loaded
``sepdyn`` module that holds a reference to it, by a wrapper that records a
span. Replacing it only in its home module would miss callers that imported
the name (``propagators`` calls ``partially_reduced`` through its own
global). A target that a later refactor removed is reported as missing, and
so is every metric that depends on it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from spans import SpanRecorder, percentile, self_times, summarize

# (span name, module, attribute path, kind). "span" records a span per call;
# "count" only counts calls (Ket and ComponentState are built too often for
# a span each); "run" also starts a new run id; the other kinds add counters
# read from the call's arguments or result. A dataclass's validation is
# reached through its __post_init__, which its generated __init__ calls.
TARGETS = [
    ("cli.run_file", "cli", "_run_file", "run"),
    ("cli.build_hamiltonian", "cli", "build_hamiltonian", "span"),
    ("cli.execute", "cli", "execute", "span"),
    ("cli.diagnostics", "cli", "_diagnostic_columns", "span"),
    ("cli.write_csv", "cli", "write_csv", "write_csv"),
    ("propagators.step", "propagators", "lie_trotter_step", "span"),
    ("propagators.step", "propagators", "strang_step", "span"),
    ("propagators.sse_component_flow", "propagators", "sse_component_flow", "span"),
    ("propagators.hermitian_expm_apply", "propagators", "hermitian_expm_apply", "span"),
    ("propagators.evolve", "propagators", "evolve", "span"),
    ("propagators.se_evolve", "propagators", "se_evolve", "span"),
    ("propagators.states_on_grid", "propagators", "HermitianPropagator.states_on_grid",
     "span"),
    ("reduced.partially_reduced", "reduced", "partially_reduced", "span"),
    ("reduced.contract_reduced", "reduced", "contract_reduced", "span"),
    ("states.Ket", "states", "Ket.__post_init__", "count"),
    ("states.ComponentState", "states", "ComponentState.__post_init__", "count"),
    ("states.tensor_product", "states", "tensor_product", "span"),
    ("hamiltonians.HermitianOperator", "hamiltonians", "HermitianOperator.__post_init__",
     "span"),
    ("variational.del_step", "variational", "del_step", "span"),
    ("variational.newton_solve", "variational", "newton_solve", "newton"),
    ("variational.initial_step", "variational", "initial_step", "span"),
    ("bea.rk_integrate", "bea", "rk_integrate", "rk"),
    ("analysis.rate_of_change_nuclear", "analysis", "rate_of_change_nuclear", "span"),
    ("analysis.reduced_density_series", "analysis", "reduced_density_series", "span"),
    ("analysis.purity_series", "analysis", "purity_series", "span"),
]

MODULES = ("cli", "propagators", "reduced", "states", "hamiltonians", "variational",
           "bea", "analysis")


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


def _replace_everywhere(original, replacement):
    """Point every sepdyn module global and step-map entry at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "sepdyn" or name.startswith("sepdyn.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict) and attr != "__builtins__":
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def install(recorder: SpanRecorder, targets=TARGETS) -> list[str]:
    """Wrap every target; returns the span names whose target is missing."""
    missing = []
    for span_name, module_name, path, kind in targets:
        module = importlib.import_module(f"sepdyn.{module_name}")
        owner, original = _resolve(module, path)
        if original is None:
            missing.append(span_name)
            continue
        wrapper = _make_wrapper(recorder, span_name, original, kind)
        if owner is module:
            _replace_everywhere(original, wrapper)
        else:
            setattr(owner, path.split(".")[-1], wrapper)
    return missing


def _make_wrapper(recorder: SpanRecorder, name: str, original, kind: str):
    if kind == "count":
        return recorder.counted(name, original)
    if kind == "run":
        return recorder.wrap(name, original, new_run=True)
    if kind == "write_csv":
        def count_bytes(args, kwargs, result):
            recorder.counts["cli.write_csv.bytes"] += Path(args[0]).stat().st_size
        return recorder.wrap(name, original, after=count_bytes)
    if kind == "newton":
        spanned = recorder.wrap(name, original)

        def newton(residual, *args, **kwargs):
            evals = 0

            def counted(y):
                nonlocal evals
                evals += 1
                return residual(y)

            try:
                solution, iterations = spanned(
                    recorder.wrap("variational.residual", counted), *args, **kwargs)
            finally:
                recorder.counts["variational.newton_solve.residual_evals"] += evals
            # Per-iteration work of converged solves: every evaluation after
            # the first (which only tests the initial guess).
            recorder.counts["variational.newton_solve.iters"] += iterations
            recorder.counts["converged_evals_after_first"] += evals - 1
            return solution, iterations
        return newton
    if kind == "rk":
        def read_stats(args, kwargs, result):
            recorder.counts["bea.rk.steps"] += result.steps
            recorder.counts["bea.rk.rejected"] += result.rejected
            recorder.counts["bea.rk.rhs_evals"] += result.rhs_evals
        spanned = recorder.wrap(name, original, after=read_stats)

        def rk(rhs, *args, **kwargs):
            return spanned(recorder.wrap("bea.rhs", rhs), *args, **kwargs)
        return rk
    return recorder.wrap(name, original)


# Metrics read from a callable passed into a wrapped function, or from its
# result, are missing when that function is: (metric prefix, its target).
_RIDES_ON = {"variational.residual": "variational.newton_solve",
             "bea.rk": "bea.rk_integrate", "bea.rhs": "bea.rk_integrate"}


def _needs(metric: str) -> str | None:
    """The span name whose target a metric needs, or None."""
    if metric.startswith(("layers.", "trace.")):
        return None
    span = metric.rsplit(".", 1)[0]
    return _RIDES_ON.get(span, span)


def layer_metrics(recorder: SpanRecorder, missing: list[str], wanted: list[str]) -> dict:
    """Value of every wanted per-layer metric this process can compute.

    Metrics that need a missing target are left out. ``trace.*`` metrics
    need the process wall time and are filled in by the caller.
    """
    table = summarize(recorder.names, recorder.starts, recorder.ends, recorder.parents)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
    counts = recorder.counts
    newton = table.get("variational.newton_solve", empty)
    iters = counts["variational.newton_solve.iters"]
    derived = {
        "cli.write_csv.bytes": counts["cli.write_csv.bytes"],
        "variational.newton_solve.iters": iters,
        "variational.newton_solve.iters_per_call":
            iters / newton["calls"] if newton["calls"] else 0.0,
        "variational.newton_solve.residual_evals":
            counts["variational.newton_solve.residual_evals"],
        "variational.newton_solve.residual_evals_per_iter":
            counts["converged_evals_after_first"] / iters if iters else 0.0,
        "bea.rk.steps": counts["bea.rk.steps"],
        "bea.rk.rejected": counts["bea.rk.rejected"],
        "bea.rk.rhs_evals": counts["bea.rk.rhs_evals"],
    }
    selfs = self_times(recorder.starts, recorder.ends, recorder.parents)
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, value in zip(recorder.names, selfs):
        module_self[name.split(".")[0]] += value
    for module, value in module_self.items():
        derived[f"layers.{module}.self_s"] = value

    out = {}
    for metric in wanted:
        if metric.startswith("trace.") or _needs(metric) in missing:
            continue
        if metric in derived:
            out[metric] = derived[metric]
            continue
        span, stat = metric.rsplit(".", 1)
        if stat == "calls" and span in ("states.Ket", "states.ComponentState"):
            out[metric] = counts[span]
            continue
        entry = table.get(span, empty)
        if stat in ("p50_us", "p99_us"):
            q = 50.0 if stat == "p50_us" else 99.0
            out[metric] = percentile(entry["durations"], q) * 1e6
        else:
            out[metric] = entry[stat]
    return out
