"""Spans around rgflow's public functions, recorded from outside the package.

``Tracer.install`` replaces each public function of the layer modules
(``potential``, ``flow``, ``spectral``, ``curvature``, ``phi4``), plus
``FlowMeasure.__post_init__`` and the two runner entry points, with a
wrapper that records a span.  The wrapper is bound wherever the original
was: in its defining module and in every ``rgflow`` module that imported
it by name, so calls made inside the package are traced too.  Spans stay
in memory as ``[name, start, end, parent, work, note]`` and are written out
by the caller when the sample ends.  ``covariance`` is not traced.

``layer_metrics`` folds one sample's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

LAYER_MODULES = ("potential", "flow", "spectral", "curvature", "phi4")
RUNNER_FUNCTIONS = ("run_experiment", "emit_report")

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("potential.renormalized_derivatives.calls", "count", "lower"),
    ("potential.renormalized_derivatives.self_s", "s", "lower"),
    ("potential.renormalized_derivatives.points", "count", "lower"),
    ("potential.renormalized_derivatives.single_point_frac", "ratio", "lower"),
    ("potential.renormalized_value.calls", "count", "lower"),
    ("potential.renormalized_value.self_s", "s", "lower"),
    ("potential.renormalized_value.points", "count", "lower"),
    ("flow.semigroup_apply.calls", "count", "lower"),
    ("flow.semigroup_apply.self_s", "s", "lower"),
    ("flow.semigroup_apply.points", "count", "lower"),
    ("flow.flow_measure.calls", "count", "lower"),
    ("flow.flow_measure.self_s", "s", "lower"),
    ("flow.flow_measure.nodes", "count", "lower"),
    ("spectral.build_generator.calls", "count", "lower"),
    ("spectral.build_generator.self_s", "s", "lower"),
    ("spectral.build_generator.nodes", "count", "lower"),
    ("spectral.spectrum.calls", "count", "lower"),
    ("spectral.spectrum.self_s", "s", "lower"),
    ("spectral.spectrum.nodes", "count", "lower"),
    ("curvature.multiscale_margin.calls", "count", "lower"),
    ("curvature.multiscale_margin.self_s", "s", "lower"),
    ("curvature.alpha_prime.calls", "count", "lower"),
    ("curvature.alpha_prime.self_s", "s", "lower"),
    ("curvature.derivative_calls_per_rate", "ratio", "lower"),
    ("phi4.lattice_moments.calls", "count", "lower"),
    ("phi4.lattice_moments.self_s", "s", "lower"),
    ("phi4.lattice_moments.points", "count", "lower"),
    ("phi4.susceptibility.calls", "count", "lower"),
    ("phi4.susceptibility.distinct_t_frac", "ratio", "higher"),
    ("phi4.metropolis_moments.calls", "count", "lower"),
    ("phi4.metropolis_moments.self_s", "s", "lower"),
    ("phi4.metropolis_moments.site_updates", "count", "lower"),
    ("phi4.metropolis_moments.site_updates_per_s", "1/s", "higher"),
    ("phi4.metropolis_moments.failed", "count", "lower"),
    ("phi4.mcmc.rel_stderr", "ratio", "lower"),
    ("setup.scipy_s", "s", "lower"),
    ("setup.rgflow_s", "s", "lower"),
    ("runner.run_experiment.self_s", "s", "lower"),
    ("runner.emit_report.busy_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.named_self_frac", "ratio", "higher"),
]


# -- work counts from argument shapes ------------------------------------

def _smoothing_points(a):
    """Quadrature point evaluations: batch size x tensor rule size."""
    from rgflow.potential import DEFAULT_ORDER

    V0 = a["V0"]
    shape = np.shape(a["x"])
    m = int(shape[0]) if len(shape) >= 2 else 1
    if V0.form in ("zero", "quadratic") and a.get("method") != "quadrature":
        return 0, {"single": m == 1}
    order = a["q"].order if a["q"] is not None else DEFAULT_ORDER
    return m * order ** min(V0.dimension, 3), {"single": m == 1}


def _semigroup_points(a):
    from rgflow.potential import DEFAULT_ORDER

    f = a["f"]
    order = a["q"].order if a["q"] is not None else DEFAULT_ORDER
    return int(f.values.size) * order ** f.box.dim, None


def _grid_nodes(shape) -> int:
    return int(math.prod(shape))


def _lattice_points(a):
    n = a["model"].n_sites
    return a["order"] ** n + (a["order"] + 16) ** n, None


def _site_updates(a):
    n = a["model"].n_sites
    return (a["burnin"] + a["n_measure_sweeps"]) * n, None


def _susceptibility_note(a):
    return 0, {"t": float(a["t"])}


WORK = {
    "potential.renormalized_derivatives": _smoothing_points,
    "potential.renormalized_value": _smoothing_points,
    "flow.semigroup_apply": _semigroup_points,
    "flow.flow_measure": lambda a: (_grid_nodes(a["self"].grid_shape), None),
    "spectral.build_generator":
        lambda a: (_grid_nodes(a["flow_measure"].grid_shape), None),
    "spectral.spectrum": lambda a: (int(a["gen"].n_nodes), None),
    "phi4.lattice_moments": _lattice_points,
    "phi4.metropolis_moments": _site_updates,
    "phi4.susceptibility": _susceptibility_note,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work_fn = WORK.get(name)
        sig = inspect.signature(fn) if work_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work, note = 0, None
            if work_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                work, note = work_fn(bound.arguments)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, work, note]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = dict(note or {}, failed=True)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "phi4.susceptibility" and out.method == "mcmc":
                span[5]["rel_stderr"] = out.stderr / max(abs(out.value), 1e-300)
            return out

        return traced

    def install(self) -> "Tracer":
        wrappers = {}   # id(original) -> (original, wrapper)
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"rgflow.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        runner = importlib.import_module("rgflow.runner")
        for attr in RUNNER_FUNCTIONS:
            obj = getattr(runner, attr)
            wrappers[id(obj)] = (obj, self._wrap(f"runner.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "rgflow" and not modname.startswith("rgflow."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        flow_measure = importlib.import_module("rgflow.flow").FlowMeasure
        flow_measure.__post_init__ = self._wrap("flow.flow_measure",
                                                flow_measure.__post_init__)
        return self


# -- folding spans into metrics --------------------------------------------

def _ancestors(spans, idx):
    parent = spans[idx][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans, run_s: float) -> dict:
    """Per-layer metrics of one traced sample (setup and trace-health
    metrics are filled in by the caller)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, busy, self_s, work = {}, {}, {}, {}
    covered = 0.0
    for i, (name, start, end, parent, w, _) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        work[name] = work.get(name, 0) + w
        if not name.startswith("runner.") and not any(
                not a.startswith("runner.") for a in _ancestors(spans, i)):
            covered += dur

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for key in ("potential.renormalized_derivatives",
                "potential.renormalized_value", "flow.semigroup_apply",
                "flow.flow_measure", "spectral.build_generator",
                "spectral.spectrum", "curvature.multiscale_margin",
                "curvature.alpha_prime", "phi4.lattice_moments",
                "phi4.metropolis_moments"):
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
    for key, stat in (("potential.renormalized_derivatives", "points"),
                      ("potential.renormalized_value", "points"),
                      ("flow.semigroup_apply", "points"),
                      ("phi4.lattice_moments", "points"),
                      ("flow.flow_measure", "nodes"),
                      ("spectral.build_generator", "nodes"),
                      ("spectral.spectrum", "nodes"),
                      ("phi4.metropolis_moments", "site_updates")):
        out[f"{key}.{stat}"] = work.get(key, 0)

    deriv = [i for i, s in enumerate(spans)
             if s[0] == "potential.renormalized_derivatives"]
    out["potential.renormalized_derivatives.single_point_frac"] = frac(
        sum(1 for i in deriv if spans[i][5]["single"]), len(deriv))
    rates = ("curvature.multiscale_margin", "curvature.alpha_prime")
    in_rate = sum(1 for i in deriv
                  if any(a in rates for a in _ancestors(spans, i)))
    out["curvature.derivative_calls_per_rate"] = frac(
        in_rate, sum(calls.get(r, 0) for r in rates))

    chis = [s[5] for s in spans if s[0] == "phi4.susceptibility"]
    out["phi4.susceptibility.calls"] = len(chis)
    out["phi4.susceptibility.distinct_t_frac"] = frac(
        len({c["t"] for c in chis}), len(chis))
    mcmc = [s for s in spans if s[0] == "phi4.metropolis_moments"]
    out["phi4.metropolis_moments.site_updates_per_s"] = frac(
        sum(s[4] for s in mcmc if not (s[5] or {}).get("failed")),
        sum(s[2] - s[1] for s in mcmc if not (s[5] or {}).get("failed")))
    out["phi4.metropolis_moments.failed"] = sum(
        1 for s in mcmc if (s[5] or {}).get("failed"))
    out["phi4.mcmc.rel_stderr"] = max(
        (c["rel_stderr"] for c in chis if "rel_stderr" in c), default=0.0)

    out["runner.run_experiment.self_s"] = self_s.get("runner.run_experiment", 0.0)
    out["runner.emit_report.busy_s"] = busy.get("runner.emit_report", 0.0)
    out["trace.coverage_frac"] = frac(covered, run_s)
    # share of run_s in the self time of the layers reported above
    out["trace.named_self_frac"] = frac(sum(
        v for k, v in out.items()
        if k.endswith(".self_s") and not k.startswith("runner.")), run_s)
    return out
