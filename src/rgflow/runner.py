"""Config-driven experiment orchestration and machine-readable reports.

The model a run executes (schedule, V0 and the phi4 model) is built by
``config.config_from_text``; this module only reads it from the
``ExperimentConfig``.  Checks declared in the config are executed in
``KNOWN_CHECKS`` order; shared artifacts (curvature schedules, spectral traces)
are computed once and reused.  Reports are emitted as one flat CSV plus a
1:1 JSON-lines mirror, with numbers at 17 significant digits; two runs with
the same config and seed produce byte-identical files.  Wall-clock time
lives only in the run summary on stdout, never in the data files.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import __version__, curvature as curvature_mod, phi4 as phi4_mod
from .config import KNOWN_CHECKS, SPECTRAL_CHECKS, ExperimentConfig
from .errors import NonConvergenceError
from .flow import (Box, GridFunction, _map_scales, conservation_check,
                   default_box, default_sample_points, heatflow_harness,
                   make_flow_measure)
from .potential import _CLOSED_FORMS, QuadratureRule


@dataclass
class RunReport:
    statuses: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    wallclock: float = 0.0
    version: str = __version__
    config_echo: str = ""
    max_k: int = 1

    @property
    def worst_status(self) -> str:
        order = {"pass": 0, "unconverged": 1, "fail": 2}
        worst = "pass"
        for st in self.statuses.values():
            if order[st] > order[worst]:
                worst = st
        return worst


class _Context:
    """Lazy shared artifacts for one experiment run."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.schedule, self.V0 = cfg.schedule, cfg.V0
        self.phi4_model = cfg.phi4_model
        self.options = opts = cfg.options
        dim, box = self.V0.dimension, opts["disc.box_halfwidth"]
        self.quad = QuadratureRule(order=opts["disc.quadrature_order"])
        self.box = default_box(self.schedule) if box is None else Box.cube(box, dim)

    # -- shared artifacts --------------------------------------------------

    @cached_property
    def samples(self):
        if self.V0.form in _CLOSED_FORMS:
            return np.zeros((1, self.V0.dimension))
        fm0 = make_flow_measure(self.schedule, self.V0, 0.0,
                                self.options["disc.grid_points"], box=self.box,
                                q=self.quad)
        return default_sample_points(fm0, seed=self.cfg.seed)

    def schedule_t_grid(self):
        count, t_max = self.options["curvature.count"], self.options["t_grid.max"]
        if self.schedule.kind == "pauli-villars":
            base = curvature_mod.pv_t_grid(t_max, count)
        else:
            base = np.linspace(0.0, t_max, count)
        return np.unique(np.concatenate([base, self.cfg.t_grid()]))

    @cached_property
    def sampled_curvature(self):
        """The rate schedule sampled on the default set."""
        return curvature_mod.build_schedule(
            self.schedule, self.V0, self.schedule_t_grid(), self.samples,
            self.quad)

    @cached_property
    def lattice(self):
        """``phi4_schedules`` at the rate time of each schedule grid node."""
        grid = self.sampled_curvature.t_grid
        return phi4_mod.phi4_schedules(
            self.phi4_model,
            [curvature_mod.rate_time(grid, i) for i in range(len(grid))])

    @cached_property
    def curvature(self):
        """The certified rate schedule.  It differs from the sampled one for
        lattice models only, whose certified lambda' comes from
        ``phi4_schedules`` (alpha' is sampled either way).
        """
        curv = self.sampled_curvature
        if self.phi4_model is None:
            return curv
        return curvature_mod.integrate_schedules(
            (curv.t_grid, self.lattice["lambda_prime"], curv.alpha_prime))

    @cached_property
    def flow_measures(self):
        """Flow measures on the spectral t grid."""
        return _map_scales(
            lambda t: make_flow_measure(self.schedule, self.V0, float(t),
                                        self.options["disc.grid_points"],
                                        box=self.box, q=self.quad),
            self.cfg.t_grid())

    @cached_property
    def spectral_trace(self):
        """Spectra of the flow generators on the spectral t grid."""
        from .spectral import build_generator, spectrum
        return [spectrum(build_generator(fm), k=self.options["spectrum.k"], refine=True)
                for fm in self.flow_measures]


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _spectrum_row(t, res, detail: str) -> dict:
    return dict(section="spectrum", check="spectrum", t=float(t),
                converged=res.converged, detail=detail,
                **{f"mu_{i}": float(mu) for i, mu in enumerate(res.eigenvalues)})


def _margin_rows(report: RunReport, check: str, margins) -> str:
    for m in margins:
        report.rows.append(dict(section="margin", check=check, s=m.s, t=m.t,
                                k=m.k, margin=m.margin, tolerance=m.tolerance))
    return "pass" if all(m.ok for m in margins) else "fail"


def _check_spectrum(ctx: _Context, report: RunReport):
    from .spectral import build_generator, spectrum
    results = ctx.spectral_trace
    for t, res in zip(ctx.cfg.t_grid(), results):
        report.rows.append(_spectrum_row(t, res, "weighted"))
    if ctx.V0.form == "zero":
        # metric discrepancy reporting: unweighted constants alongside
        for t, fm in zip(ctx.cfg.t_grid(), ctx.flow_measures):
            gen = build_generator(fm, cprime=np.eye(ctx.V0.dimension))
            report.rows.append(_spectrum_row(
                t, spectrum(gen, k=1, refine=False), "unweighted"))
    return "pass" if all(res.converged for res in results) else "unconverged"


def _check_criterion(ctx: _Context, report: RunReport):
    curv = ctx.curvature
    sampled = ctx.sampled_curvature.lambda_prime
    tol = ctx.options["criterion.tolerance"]
    ok = True
    for i, t in enumerate(curv.t_grid):
        row = dict(section="schedule", check="criterion", t=float(t),
                   lambda_prime=float(curv.lambda_prime[i]),
                   alpha_prime=float(curv.alpha_prime[i]),
                   lambda_int=float(curv.lambda_integral[i]),
                   alpha_int=float(curv.alpha_integral[i]),
                   samples_used=len(ctx.samples))
        if ctx.phi4_model is not None:
            row.update({k: float(ctx.lattice[k][i])
                        for k in ("chi", "chi_stderr", "sigma_min")},
                       margin=sampled[i] - curv.lambda_prime[i], tolerance=tol)
            ok = ok and (sampled[i] >= curv.lambda_prime[i] - tol)
        report.rows.append(row)
    return "pass" if ok else "fail"


def _check_theorem(ctx: _Context, report: RunReport):
    tol = ctx.options["theorem.tolerance"]
    trace = [(float(t), res.poincare_constant)
             for t, res in zip(ctx.cfg.t_grid(), ctx.spectral_trace)]
    margins = curvature_mod.theorem_margin(trace, ctx.curvature,
                                           tol_total=tol)
    return _margin_rows(report, "theorem", margins)


def _check_higher_k(ctx: _Context, report: RunReport):
    tol = ctx.options["theorem.tolerance"]
    traces = {kk: [(float(t), res.eigenvalue(kk))
                   for t, res in zip(ctx.cfg.t_grid(), ctx.spectral_trace)]
              for kk in range(1, ctx.options["spectrum.k"] + 1)}
    margins = curvature_mod.higher_eigenvalue_margin(traces, ctx.curvature,
                                                     tol_total=tol)
    return _margin_rows(report, "higher-k", margins)


def _check_intertwining(ctx: _Context, report: RunReport):
    tol = ctx.options["intertwining.tolerance"]
    times = ctx.options["intertwining.times"]
    xs = ctx.box.axes((ctx.options["disc.grid_points"],))[0]
    rng = np.random.default_rng(ctx.cfg.seed)
    bumps = []
    for _ in range(ctx.options["intertwining.bumps"]):
        center, width = rng.uniform(-1.5, 1.5), rng.uniform(0.6, 1.2)
        bumps.append((center, GridFunction(
            ctx.box, np.exp(-(xs - center) ** 2 / (2 * width**2)))))
    # all bumps share one V_t pass per time; viols[b, i]: bump b, time i
    viols = np.array([curvature_mod.intertwining_check(
        ctx.schedule, ctx.V0, [F for _, F in bumps], t, ctx.curvature, ctx.quad)
        for t in times]).T
    for b, ((center, _), row) in enumerate(zip(bumps, viols)):
        for t, viol in zip(times, row):
            report.rows.append(dict(section="margin", check="intertwining", t=t, k=b,
                                    margin=viol, tolerance=tol,
                                    detail=f"bump center={center:.3f}"))
    return "pass" if np.all(viols <= tol) else "fail"


def _check_variance(ctx: _Context, report: RunReport):
    gaussian = ctx.V0.form == "zero"
    tol, t_max = ctx.options["variance.tolerance"], ctx.options["variance.t_max"]
    xs = ctx.box.axes((ctx.options["disc.grid_points"],))[0]
    F = GridFunction(ctx.box, xs.copy() if gaussian else np.exp(-xs**2))
    tail_bound = {}
    if gaussian:
        curv = ctx.curvature
        tail_bound = dict(lambda_at_T=curv.lambda_prime_at(curv.t_grid[-1]) * t_max,
                          lambda_prime_floor=float(np.min(curv.lambda_prime)))
    rep = conservation_check(ctx.schedule, ctx.V0, F, t_max,
                             ctx.options["variance.count"], ctx.quad, **tail_bound)
    report.rows.append(dict(
        section="margin", check="variance", margin=rep.relative_mismatch,
        tolerance=tol, value=rep.variance,
        detail=f"integral={rep.integral:.12g} tail={rep.tail_estimate:.3g} "
               f"cons_dev={rep.conservation_max_dev:.3g}"))
    ok = rep.relative_mismatch <= tol and rep.tail_ok \
        and rep.conservation_max_dev <= 1e-6
    return "pass" if ok else "fail"


def _check_phi4_identity(ctx: _Context, report: RunReport):
    tol = ctx.options["phi4.identity_tolerance"]
    n_samp = ctx.options["phi4.identity_samples"]
    rng = np.random.default_rng(ctx.cfg.seed)
    phis = rng.normal(0.0, 1.0, size=(n_samp, ctx.phi4_model.n_sites))
    ok = True
    for t in ctx.options["phi4.identity_times"]:
        err = phi4_mod.hessian_identity_check(ctx.phi4_model, t, phis)
        report.rows.append(dict(section="margin", check="phi4-identity",
                                t=t, margin=err, tolerance=tol,
                                detail=f"{n_samp} seeded samples"))
        ok = ok and err <= tol
    return "pass" if ok else "fail"


def _check_heatflow(ctx: _Context, report: RunReport):
    opts = ctx.options
    (x, dens), tol = opts["heatflow.input"], opts["heatflow.tolerance"]
    s_grid = np.linspace(0.0, opts["heatflow.s_max"], opts["heatflow.s_count"])
    rep = heatflow_harness(x, dens, s_grid, monotone_tol=tol)
    for s, cp in zip(rep.s_grid, rep.poincare):
        report.rows.append(dict(section="margin", check="heatflow", s=float(s),
                                value=float(cp),
                                detail=f"log_concave={rep.log_concave_input}"))
    report.rows.append(dict(section="margin", check="heatflow",
                            margin=-rep.worst_drop, tolerance=tol,
                            value=rep.two_sided_margin,
                            detail="worst monotonicity drop; value = "
                                   "two-sided convolution margin"))
    ok = (rep.monotone or not rep.log_concave_input) \
        and rep.two_sided_margin >= -tol
    return "pass" if ok else "fail"


_CHECKS = {
    "criterion": _check_criterion,
    "spectrum": _check_spectrum,
    "theorem": _check_theorem,
    "higher-k": _check_higher_k,
    "intertwining": _check_intertwining,
    "variance": _check_variance,
    "phi4-identity": _check_phi4_identity,
    "heatflow": _check_heatflow,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute the configured checks; module errors mark a check failed
    without aborting independent checks."""
    start = time.perf_counter()
    report = RunReport(config_echo=cfg.raw_text)
    ctx = _Context(cfg)
    if any(c in cfg.checks for c in SPECTRAL_CHECKS):
        report.max_k = cfg.options["spectrum.k"]
    for name in (c for c in KNOWN_CHECKS if c in cfg.checks):
        try:
            report.statuses[name] = _CHECKS[name](ctx, report)
        except NonConvergenceError as exc:
            report.statuses[name] = "unconverged"
            report.errors[name] = str(exc)
        except Exception as exc:  # noqa: BLE001 - attach to the owning check
            report.statuses[name] = "fail"
            report.errors[name] = f"{type(exc).__name__}: {exc}"
    for name, status in report.statuses.items():
        report.rows.append(dict(section="status", check=name, status=status,
                                detail=report.errors.get(name, "")))
    report.wallclock = time.perf_counter() - start
    return report


def report_header(report: RunReport) -> list[str]:
    mu_cols = [f"mu_{i}" for i in range(report.max_k + 1)]
    return (["section", "check", "status", "t", "s", "k",
             "lambda_prime", "alpha_prime", "lambda_int", "alpha_int",
             "samples_used", "chi", "chi_stderr", "sigma_min"]
            + mu_cols
            + ["converged", "margin", "tolerance", "value", "detail"])


def emit_report(report: RunReport, out_dir: str) -> list[str]:
    """Write results.csv / results.jsonl / config.echo under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    header = report_header(report)
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # the minimal quoting leaves a bare "\r" unquoted, which readers
        # take for a line end; such rows are written fully quoted
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in report.rows:
            cells = [_fmt(row.get(col, "")) for col in header]
            (quoted if any("\r" in c for c in cells) else writer).writerow(cells)
    jsonl_path = os.path.join(out_dir, "results.jsonl")
    with open(jsonl_path, "w", encoding="utf-8", newline="\n") as fh:
        for row in report.rows:
            cells = {col: _fmt(row.get(col, "")) for col in header}
            fh.write(json.dumps(cells, separators=(",", ":"),
                                ensure_ascii=False) + "\n")
    echo_path = os.path.join(out_dir, "config.echo")
    with open(echo_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.config_echo)
    return [csv_path, jsonl_path, echo_path]
