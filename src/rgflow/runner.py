"""Config-driven experiment orchestration and machine-readable reports.

Checks declared in the config are executed in dependency order; shared
artifacts (curvature schedules, spectral traces) are computed once and
reused.  Reports are emitted as one flat CSV plus a 1:1 JSON-lines mirror,
with numbers at 17 significant digits; two runs with the same config and
seed produce byte-identical files.  Wall-clock time lives only in the run
summary on stdout, never in the data files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import __version__, curvature as curvature_mod, phi4 as phi4_mod
from .config import ExperimentConfig
from .covariance import RESIDUAL_FLOOR, make_schedule, schedule_from_table_file
from .errors import ConfigError, NonConvergenceError
from .flow import (Box, GridFunction, _map_scales, conservation_check,
                   default_box, default_sample_points, graded_t_grid,
                   heatflow_harness, make_flow_measure)
from .potential import PotentialDescriptor, QuadratureRule
from .spectral import build_generator, spectrum

CHECK_ORDER = ("criterion", "spectrum", "theorem", "higher-k", "intertwining",
               "variance", "phi4-identity", "heatflow")


@dataclass
class RunReport:
    statuses: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
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
        self.model_kind = cfg.model["kind"]
        self.phi4_model = None
        self.schedule, self.V0 = self._build_model()
        dim = self.V0.dimension
        self.quad = QuadratureRule.for_dimension(dim, order=cfg.quadrature_order)
        if cfg.box_halfwidth is not None:
            self.box = Box.cube(cfg.box_halfwidth, dim)
        else:
            self.box = default_box(self.schedule)
        self.spectrum_k = int(cfg.option("spectrum.k", 3))
        self._chi = {}

    def _build_model(self):
        cfg = self.cfg
        m = cfg.model
        kind = m["kind"]
        if kind == "phi4":
            if "a_matrix" not in m:
                raise ConfigError("phi4 model requires model.a_matrix")
            model = phi4_mod.Phi4Model(
                np.array(m["a_matrix"], dtype=float), float(m.get("g", 1.0)),
                float(m.get("nu", 0.0)), np.atleast_1d(m.get("h", 0.0)))
            self.phi4_model = model
            if cfg.schedule["kind"] != "pauli-villars":
                raise ConfigError("phi4 models use the pauli-villars schedule")
            return model.schedule(), model.potential()

        sched = self._build_schedule()
        if kind == "gaussian":
            return sched, PotentialDescriptor.zero(sched.dim)
        if kind == "quadratic":
            if "b_matrix" not in m:
                raise ConfigError("quadratic model requires model.b_matrix")
            v0 = PotentialDescriptor.quadratic(np.array(m["b_matrix"], dtype=float))
            if v0.dimension != sched.dim:
                raise ConfigError("model and schedule dimensions disagree")
            return sched, v0
        # custom-poly
        v0 = PotentialDescriptor.quartic(
            np.atleast_1d(m.get("g", 0.0)), np.atleast_1d(m.get("nu", 0.0)),
            np.atleast_1d(m.get("h", 0.0)), dimension=sched.dim,
            form="polynomial")
        return sched, v0

    def _build_schedule(self):
        s = self.cfg.schedule
        kind = s["kind"]
        if kind == "custom-table":
            if "table" not in s:
                raise ConfigError("custom-table schedule requires schedule.table")
            return schedule_from_table_file(s["table"])
        c_inf = s.get("c_infinity")
        aux = s.get("a_matrix")
        if c_inf is None and aux is None:
            raise ConfigError(
                "schedule requires schedule.c_infinity or schedule.a_matrix")
        if kind == "pauli-villars" and c_inf is None:
            return make_schedule(kind, aux=np.array(aux, dtype=float))
        return make_schedule(kind, c_infinity=np.array(c_inf, dtype=float))

    # -- shared artifacts --------------------------------------------------

    @cached_property
    def samples(self):
        if self.V0.form in ("zero", "quadratic"):
            return np.zeros((1, self.V0.dimension))
        fm0 = make_flow_measure(self.schedule, self.V0, 0.0,
                                self.cfg.grid_points, box=self.box, q=self.quad)
        return default_sample_points(fm0, seed=self.cfg.seed)

    def chi(self, t: float):
        """Susceptibility estimate of the phi4 model at t, computed once per t."""
        if t not in self._chi:
            self._chi[t] = phi4_mod.susceptibility(self.phi4_model, t)
        return self._chi[t]

    def schedule_t_grid(self):
        cfg = self.cfg
        count = int(cfg.option("curvature.count", 60))
        t_max = cfg.t_max
        if self.schedule.kind == "pauli-villars":
            base = curvature_mod.pv_t_grid(t_max, count)
        else:
            base = np.linspace(0.0, t_max, count)
        extra = cfg.t_grid()
        return np.unique(np.concatenate([base, extra[extra <= t_max + 1e-12]]))

    @cached_property
    def sampled_curvature(self):
        """The rate schedule sampled on the default set."""
        return curvature_mod.build_schedule(
            self.schedule, self.V0, self.schedule_t_grid(), self.samples,
            self.quad, sample_spec=f"default sample set, seed {self.cfg.seed}")

    @cached_property
    def curvature(self):
        """The certified rate schedule.  It differs from the sampled one for
        lattice models only, whose certified lambda' is 1/t - chi_t/t^2
        (alpha' is sampled either way).
        """
        curv = self.sampled_curvature
        if self.phi4_model is None:
            return curv
        grid = curv.t_grid
        times = [curvature_mod.rate_time(grid, i) for i in range(len(grid))]
        lp = [1.0 / t - self.chi(t).value / t**2 for t in times]
        return curvature_mod.integrate_schedules(
            (grid, lp, curv.alpha_prime), sample_spec=curv.sample_spec)

    @cached_property
    def flow_measures(self):
        """Flow measures on the spectral t grid."""
        return _map_scales(
            lambda t: make_flow_measure(self.schedule, self.V0, float(t),
                                        self.cfg.grid_points, box=self.box,
                                        q=self.quad),
            self.cfg.t_grid(), self.V0)

    @cached_property
    def spectral_trace(self):
        """Spectra of the flow generators on the spectral t grid."""
        return [spectrum(build_generator(fm), k=self.spectrum_k, refine=True)
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
    results = ctx.spectral_trace
    for t, res in zip(ctx.cfg.t_grid(), results):
        report.rows.append(_spectrum_row(t, res, "weighted"))
    if ctx.model_kind == "gaussian":
        # metric discrepancy reporting: unweighted constants alongside
        for t, fm in zip(ctx.cfg.t_grid(), ctx.flow_measures):
            gen = build_generator(fm, cprime=np.eye(ctx.V0.dimension))
            report.rows.append(_spectrum_row(
                t, spectrum(gen, k=1, refine=False), "unweighted"))
    return "pass" if all(res.converged for res in results) else "unconverged"


def _check_criterion(ctx: _Context, report: RunReport):
    curv = ctx.curvature
    sampled = ctx.sampled_curvature.lambda_prime
    tol = float(ctx.cfg.option("criterion.tolerance", 1e-6))
    report.tolerances["criterion"] = tol
    ok = True
    for i, t in enumerate(curv.t_grid):
        te = curvature_mod.rate_time(curv.t_grid, i)
        row = dict(section="schedule", check="criterion", t=float(t),
                   lambda_prime=float(curv.lambda_prime[i]),
                   alpha_prime=float(curv.alpha_prime[i]),
                   lambda_int=float(curv.lambda_integral[i]),
                   alpha_int=float(curv.alpha_integral[i]),
                   samples_used=len(ctx.samples))
        if ctx.phi4_model is not None:
            est = ctx.chi(te)
            sig = phi4_mod.tilted_covariance(ctx.phi4_model, te,
                                             np.zeros(ctx.V0.dimension))
            row["chi"] = float(est.value)
            row["chi_stderr"] = float(est.stderr)
            row["sigma_min"] = float(np.linalg.eigvalsh(sig.value)[0])
            row["margin"] = sampled[i] - curv.lambda_prime[i]
            row["tolerance"] = tol
            ok = ok and (sampled[i] >= curv.lambda_prime[i] - tol)
        report.rows.append(row)
    return "pass" if ok else "fail"


def _check_theorem(ctx: _Context, report: RunReport):
    tol = float(ctx.cfg.option("theorem.tolerance", curvature_mod.TOL_TOTAL))
    report.tolerances["theorem"] = tol
    trace = [(float(t), res.poincare_constant)
             for t, res in zip(ctx.cfg.t_grid(), ctx.spectral_trace)]
    margins = curvature_mod.theorem_margin(trace, ctx.curvature,
                                           tol_total=tol)
    return _margin_rows(report, "theorem", margins)


def _check_higher_k(ctx: _Context, report: RunReport):
    tol = float(ctx.cfg.option("theorem.tolerance", curvature_mod.TOL_TOTAL))
    report.tolerances["higher-k"] = tol
    traces = {kk: [(float(t), res.eigenvalue(kk))
                   for t, res in zip(ctx.cfg.t_grid(), ctx.spectral_trace)]
              for kk in range(1, ctx.spectrum_k + 1)}
    margins = curvature_mod.higher_eigenvalue_margin(traces, ctx.curvature,
                                                     tol_total=tol)
    return _margin_rows(report, "higher-k", margins)


def _check_intertwining(ctx: _Context, report: RunReport):
    times = ctx.cfg.option("intertwining.times", [0.5, 1.0, 2.0])
    n_bumps = int(ctx.cfg.option("intertwining.bumps", 3))
    tol = float(ctx.cfg.option("intertwining.tolerance", 1e-6 + 1e-4))
    report.tolerances["intertwining"] = tol
    curv = ctx.curvature
    xs = ctx.box.axes((ctx.cfg.grid_points,))[0]
    rng = np.random.default_rng(ctx.cfg.seed)
    ok = True
    for b in range(n_bumps):
        center = rng.uniform(-1.5, 1.5)
        width = rng.uniform(0.6, 1.2)
        F = GridFunction(ctx.box, np.exp(-(xs - center) ** 2 / (2 * width**2)),
                         tag=f"bump{b}")
        for t in times:
            viol = curvature_mod.intertwining_check(ctx.schedule, ctx.V0, F,
                                                    float(t), curv, ctx.quad)
            report.rows.append(dict(section="margin", check="intertwining",
                                    t=float(t), k=b, margin=viol,
                                    tolerance=tol,
                                    detail=f"bump center={center:.3f}"))
            ok = ok and viol <= tol
    return "pass" if ok else "fail"


def _variance_t_max(schedule, t_max: float) -> float:
    """``t_max``, or the largest smaller time at which C_inf - C_t stays 100x
    above the floor of ``residual_inverse`` (found by bisection)."""

    def holds(t):
        c, _, _ = schedule.eval(t)
        gap = np.linalg.eigvalsh(schedule.c_infinity - c)[0]
        return gap >= 100.0 * RESIDUAL_FLOOR

    if holds(t_max):
        return t_max
    lo, hi = 0.0, t_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def _check_variance(ctx: _Context, report: RunReport):
    gaussian = ctx.V0.form == "zero"
    tol = float(ctx.cfg.option("variance.tolerance",
                               1e-6 if gaussian else 1e-3))
    t_max = ctx.cfg.option("variance.t_max")
    t_max = (_variance_t_max(ctx.schedule, 20.0 if gaussian else 30.0)
             if t_max is None else float(t_max))
    count = int(ctx.cfg.option("variance.count", 2600 if gaussian else 380))
    report.tolerances["variance"] = tol
    xs = ctx.box.axes((ctx.cfg.grid_points,))[0]
    F = GridFunction(ctx.box, xs.copy() if gaussian else np.exp(-xs**2),
                     tag="variance test function")
    tg = graded_t_grid(t_max, count, growth=3.0 if gaussian else 3.5)
    if gaussian:
        curv = ctx.curvature
        rep = conservation_check(
            ctx.schedule, ctx.V0, F, tg, ctx.quad,
            lambda_at_T=curv.lambda_prime_at(curv.t_grid[-1]) * t_max,
            lambda_prime_floor=float(np.min(curv.lambda_prime)))
    else:
        rep = conservation_check(ctx.schedule, ctx.V0, F, tg, ctx.quad)
    report.rows.append(dict(
        section="margin", check="variance", margin=rep.relative_mismatch,
        tolerance=tol, value=rep.variance,
        detail=f"integral={rep.integral:.12g} tail={rep.tail_estimate:.3g} "
               f"cons_dev={rep.conservation_max_dev:.3g}"))
    ok = rep.relative_mismatch <= tol and rep.tail_ok \
        and rep.conservation_max_dev <= 1e-6
    return "pass" if ok else "fail"


def _check_phi4_identity(ctx: _Context, report: RunReport):
    if ctx.phi4_model is None:
        raise ConfigError("phi4-identity check requires a phi4 model")
    tol = float(ctx.cfg.option("phi4.identity_tolerance", 1e-5))
    report.tolerances["phi4-identity"] = tol
    times = ctx.cfg.option("phi4.identity_times", [0.5, 1.0, 2.0])
    n_samp = int(ctx.cfg.option("phi4.identity_samples", 10))
    rng = np.random.default_rng(ctx.cfg.seed)
    phis = rng.normal(0.0, 1.0, size=(n_samp, ctx.phi4_model.n_sites))
    ok = True
    for t in times:
        err = phi4_mod.hessian_identity_check(ctx.phi4_model, float(t), phis)
        report.rows.append(dict(section="margin", check="phi4-identity",
                                t=float(t), margin=err, tolerance=tol,
                                detail=f"{n_samp} seeded samples"))
        ok = ok and err <= tol
    return "pass" if ok else "fail"


def _check_heatflow(ctx: _Context, report: RunReport):
    source = ctx.cfg.option("heatflow.input", "uniform")
    s_max = float(ctx.cfg.option("heatflow.s_max", 2.0))
    s_count = int(ctx.cfg.option("heatflow.s_count", 9))
    tol = float(ctx.cfg.option("heatflow.tolerance", 1e-4))
    report.tolerances["heatflow"] = tol
    if source == "uniform":
        x = np.linspace(-1.0, 1.0, 2001)
        dens = np.full_like(x, 0.5)
    elif source == "gaussian":
        x = np.linspace(-9.0, 9.0, 1801)
        dens = np.exp(-x**2 / 2) / math.sqrt(2 * math.pi)
    else:
        from .flow import load_density_table
        x, dens = load_density_table(str(source))
    rep = heatflow_harness(x, dens, np.linspace(0.0, s_max, s_count),
                           monotone_tol=tol)
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
    "spectrum": _check_spectrum,
    "criterion": _check_criterion,
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
    if any(c in cfg.checks for c in ("spectrum", "theorem", "higher-k")):
        report.max_k = ctx.spectrum_k
    ordered = [c for c in CHECK_ORDER if c in cfg.checks]
    for name in ordered:
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


def emit_report(report: RunReport, out_dir: str,
                formats=("csv", "json-lines")) -> list[str]:
    """Write results.csv / results.jsonl / config.echo under ``out_dir``."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot write reports under {out_dir!r}: {exc}") from exc
    header = report_header(report)
    written = []
    if "csv" in formats:
        path = os.path.join(out_dir, "results.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            # the minimal quoting leaves a bare "\r" unquoted, which readers
            # take for a line end; such rows are written fully quoted
            quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow(header)
            for row in report.rows:
                cells = [_fmt(row.get(col, "")) for col in header]
                (quoted if any("\r" in c for c in cells) else writer).writerow(cells)
        written.append(path)
    if "json-lines" in formats:
        path = os.path.join(out_dir, "results.jsonl")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in report.rows:
                cells = {col: _fmt(row.get(col, "")) for col in header}
                fh.write(json.dumps(cells, separators=(",", ":"),
                                    ensure_ascii=False) + "\n")
        written.append(path)
    echo_path = os.path.join(out_dir, "config.echo")
    with open(echo_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.config_echo)
    written.append(echo_path)
    return written
