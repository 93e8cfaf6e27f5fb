"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one line ``[acceptance] <name>: PASS/FAIL <figures>`` so a
plain ``pytest -s tests/test_acceptance.py`` doubles as the certification
run.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from rgflow import make_schedule
from rgflow.config import config_from_text
from rgflow.curvature import (build_schedule, integrate_schedules,
                              higher_eigenvalue_margin, intertwining_check,
                              poincare_upper_bound, pv_t_grid, rate_time,
                              theorem_margin)
from rgflow.flow import (GridFunction, conservation_check, default_box,
                         default_sample_points, heatflow_harness,
                         make_flow_measure)
from rgflow.phi4 import Phi4Model, hessian_identity_check, phi4_schedules, susceptibility
from rgflow.potential import (PotentialDescriptor, QuadratureRule,
                              renormalized_derivatives, renormalized_value)
from rgflow.runner import emit_report, run_experiment
from rgflow.spectral import build_generator, spectrum
from rgflow import oracles


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def dwell():
    """Single-site double-well quartic instance used by criteria 4 to 9."""
    model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    sched, V0 = model.schedule(), model.potential()
    q = QuadratureRule(order=80)
    box = default_box(sched)
    return model, sched, V0, q, box


def _lattice_curvature(model, grid, samples, q):
    """The certified schedule of a lattice model, as the runner composes it:
    lambda'_t = 1/t - chi_t/t^2 at each node's rate time, alpha' sampled."""
    sampled = build_schedule(model.schedule(), model.potential(), grid,
                             samples, q)
    lam = [1.0 / t - susceptibility(model, t).value / t**2
           for t in (rate_time(grid, i) for i in range(len(grid)))]
    return integrate_schedules((grid, lam, sampled.alpha_prime))


@pytest.fixture(scope="module")
def dwell_curvature(dwell):
    model, sched, V0, q, box = dwell
    fm0 = make_flow_measure(sched, V0, 0.0, 513, box=box, q=q)
    samples = default_sample_points(fm0, seed=77)
    grid = np.unique(np.concatenate([pv_t_grid(3.0, 50),
                                     np.geomspace(0.05, 3.0, 8)]))
    return _lattice_curvature(model, grid, samples, q)


def test_criterion_01_gaussian_equality_chain():
    start = time.perf_counter()
    sched = make_schedule("heat-kernel", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.zero(1)
    q = QuadratureRule(order=40)
    box = default_box(sched)
    t_grid = np.arange(0.0, 2.0 + 1e-12, 0.25)

    trace = []
    cp_dev = 0.0
    for t in t_grid:
        fm = make_flow_measure(sched, V0, float(t), 513, box=box, q=q)
        res = spectrum(build_generator(fm, trim=False), k=1, refine=False)
        trace.append((float(t), res.poincare_constant))
        cp_dev = max(cp_dev, abs(res.poincare_constant - 1.0))

    sampled = build_schedule(sched, V0, t_grid, np.zeros((1, 1)), q)
    lam_dev = float(np.max(np.abs(sampled.lambda_prime[1:] - 0.5)))
    alp_dev = float(np.max(np.abs(sampled.alpha_prime[1:] - 1.0)))
    curv = integrate_schedules((t_grid, np.full(len(t_grid), 0.5),
                                np.ones(len(t_grid))))
    margins = theorem_margin(trace, curv)
    margin_dev = max(abs(m.margin) for m in margins)
    elapsed = time.perf_counter() - start
    ok = (cp_dev <= 1e-3 and lam_dev <= 1e-8 and alp_dev <= 1e-8
          and margin_dev <= 2e-3)
    _report("01 gaussian equality chain", ok,
            f"|CP-1|={cp_dev:.2e} |lam'-0.5|={lam_dev:.1e} "
            f"|alp'-1|={alp_dev:.1e} |margin|={margin_dev:.2e} "
            f"runtime={elapsed:.1f}s")


def test_criterion_02_ou_spectrum_oracle():
    sched = make_schedule("heat-kernel", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.zero(1)
    q = QuadratureRule(order=40)
    fm = make_flow_measure(sched, V0, 0.0, 1025, box=default_box(sched), q=q)
    res = spectrum(build_generator(fm, trim=False), k=4, refine=True)
    want = oracles.ou_spectrum(4)[1:]
    rel = np.max(np.abs(res.eigenvalues[1:] - want) / want)
    ok = rel <= 3e-3 and res.converged
    _report("02 OU spectrum oracle", ok,
            f"max rel err={rel:.2e}, richardson={res.richardson_change:.2e}")


def test_criterion_03_quadratic_closed_form():
    # x^2/2 written as a quartic runs the quadrature kernel of every run
    V0 = PotentialDescriptor.quartic(0.0, 1.0, 0.0, dimension=1)
    q = QuadratureRule(order=40)
    want_v, want_g, want_h = oracles.gaussian_smoothed_quadratic(1.0, 1.0, 1.0)
    got_v = renormalized_value(V0, [[1.0]], [1.0], q)
    got_g, got_h = renormalized_derivatives(V0, [[1.0]], [1.0], q)
    dev = max(abs(got_v - want_v), abs(got_g[0] - want_g),
              abs(got_h[0, 0] - want_h))
    ok = dev <= 1e-8
    _report("03 quadratic closed form", ok,
            f"value={got_v:.6f} (want 0.59657), max dev={dev:.2e}")


def test_criterion_04_hessian_identity():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(20240601)
    ring3 = 2.5 * np.eye(3) - 0.5 * (np.ones((3, 3)) - np.eye(3))
    for a_matrix in (np.array([[1.0]]), np.array([[2.0, -1.0], [-1.0, 2.0]]),
                     ring3):
        n = a_matrix.shape[0]
        model = Phi4Model(a_matrix, 1.0, 0.0, np.zeros(n))
        phis = rng.normal(0.0, 1.0, size=(10, n))
        for t in (0.5, 1.0, 2.0):
            worst = max(worst, hessian_identity_check(model, t, phis))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5
    _report("04 hessian identity", ok,
            f"max rel err={worst:.2e}, runtime={elapsed:.1f}s")


def test_criterion_05_criterion_certification():
    start = time.perf_counter()
    worst = math.inf
    for a_matrix in (np.array([[1.0]]), np.array([[2.0, -1.0], [-1.0, 2.0]])):
        n = a_matrix.shape[0]
        model = Phi4Model(a_matrix, 1.0, 0.0, np.zeros(n))
        sched, V0 = model.schedule(), model.potential()
        q = QuadratureRule(order=40 if n == 2 else 80)
        axes = [np.linspace(-3.5, 3.5, 9 if n == 2 else 17)] * n
        samples = np.stack(np.meshgrid(*axes, indexing="ij"),
                           axis=-1).reshape(-1, n)
        sch = phi4_schedules(model, [0.5, 1.0, 2.0])
        sampled = build_schedule(sched, V0, [0.0, 0.5, 1.0, 2.0], samples, q)
        worst = min(worst, float(np.min(sampled.lambda_prime[1:]
                                        - sch["lambda_prime"])))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-6 and elapsed < 120.0
    _report("05 multiscale criterion certification", ok,
            f"worst margin-over-formula={worst:.2e}, runtime={elapsed:.1f}s")


def test_criterion_06_main_theorem_desk_scale(dwell, dwell_curvature):
    start = time.perf_counter()
    model, sched, V0, q, box = dwell
    t_grid = np.geomspace(0.05, 3.0, 8)
    traces = {k: [] for k in (1, 2, 3)}
    cp_trace = []
    unconverged = 0
    for t in t_grid:
        fm = make_flow_measure(sched, V0, float(t), 513, box=box, q=q)
        res = spectrum(build_generator(fm), k=3, refine=True)
        unconverged += 0 if res.converged else 1
        cp_trace.append((float(t), res.poincare_constant))
        for k in (1, 2, 3):
            traces[k].append((float(t), res.eigenvalue(k)))
    margins = theorem_margin(cp_trace, dwell_curvature, tol_total=1e-4)
    worst = min(m.margin for m in margins)
    hk = higher_eigenvalue_margin(traces, dwell_curvature, tol_total=1e-4)
    worst_k = min(m.margin for m in hk)
    elapsed = time.perf_counter() - start
    ok = (worst >= -1e-4 and worst_k >= -1e-4 and unconverged == 0
          and elapsed < 300.0)
    _report("06 main theorem desk scale", ok,
            f"worst CP margin={worst:.4f}, worst k<=3 margin={worst_k:.4f}, "
            f"runtime={elapsed:.1f}s")


def test_criterion_07_intertwining(dwell, dwell_curvature):
    model, sched, V0, q, box = dwell
    xs = box.axes((513,))[0]
    rng = np.random.default_rng(5)
    bumps = []
    for _ in range(3):
        center = rng.uniform(-1.5, 1.5)
        width = rng.uniform(0.6, 1.2)
        bumps.append(GridFunction(box, np.exp(-(xs - center) ** 2
                                              / (2 * width**2))))
    worst = max(max(intertwining_check(sched, V0, bumps, t, dwell_curvature, q))
                for t in (0.5, 1.0, 2.0))
    ok = worst <= 1e-6 + 1e-4
    _report("07 intertwining bound", ok, f"max violation={worst:.2e}")


def test_criterion_08_variance_decomposition(dwell):
    sched_g = make_schedule("heat-kernel", c_infinity=[[1.0]])
    V0_g = PotentialDescriptor.zero(1)
    qg = QuadratureRule(order=40)
    box = default_box(sched_g)
    xs = box.axes((513,))[0]
    rep_g = conservation_check(sched_g, V0_g, GridFunction(box, xs.copy()),
                               20.0, 32, qg,
                               lambda_at_T=10.0, lambda_prime_floor=0.5)

    model, sched, V0, q, box4 = dwell
    xs4 = box4.axes((513,))[0]
    rep_p = conservation_check(sched, V0, GridFunction(box4, np.exp(-xs4**2)),
                               30.0, 32, q)
    ok = (rep_g.relative_mismatch <= 1e-6
          and rep_p.relative_mismatch <= 1e-3
          and rep_p.tail_estimate < 1e-4 and rep_p.tail_ok)
    _report("08 variance decomposition", ok,
            f"gaussian mismatch={rep_g.relative_mismatch:.2e}, "
            f"phi4 mismatch={rep_p.relative_mismatch:.2e}, "
            f"phi4 tail={rep_p.tail_estimate:.2e}")


def test_criterion_09_poincare_upper_bound(dwell):
    # gaussian chain
    worst = math.inf
    details = []
    t = np.linspace(0.0, 40.0, 4001)
    curv_g = integrate_schedules((t, np.full(len(t), 0.5), np.ones(len(t))))
    sched_g = make_schedule("heat-kernel", c_infinity=[[1.0]])
    V0_g = PotentialDescriptor.zero(1)
    qg = QuadratureRule(order=40)
    box_g = default_box(sched_g)
    for s in (0.0, 0.5, 1.0):
        fm = make_flow_measure(sched_g, V0_g, s, 513, box=box_g, q=qg)
        cp = spectrum(build_generator(fm, cprime=np.eye(1), trim=False), k=1,
                      refine=False).poincare_constant
        _, cps, _ = sched_g.eval(s)
        bound = poincare_upper_bound(curv_g, float(np.max(np.abs(cps))), s)
        worst = min(worst, bound - cp)
        details.append(f"g s={s}: {cp:.4f}<={bound:.4f}")

    model, sched, V0, q, box = dwell
    fm0 = make_flow_measure(sched, V0, 0.0, 513, box=box, q=q)
    samples = default_sample_points(fm0, seed=77)
    curv_p = _lattice_curvature(model, pv_t_grid(60.0, 400), samples, q)
    for s in (0.0, 0.5, 1.0):
        fm = make_flow_measure(sched, V0, s, 513, box=box, q=q)
        cp = spectrum(build_generator(fm, cprime=np.eye(1)), k=1,
                      refine=False).poincare_constant
        _, cps, _ = sched.eval(s)
        bound = poincare_upper_bound(curv_p, float(np.max(np.abs(cps))), s)
        worst = min(worst, bound - cp)
        details.append(f"p s={s}: {cp:.4f}<={bound:.4f}")
    ok = worst >= -1e-6
    _report("09 integrated Poincare bound", ok,
            f"worst slack={worst:.2e}; " + "; ".join(details))


def test_criterion_10_heatflow_harness():
    x = np.linspace(-1.0, 1.0, 2001)
    rep_u = heatflow_harness(x, np.full_like(x, 0.5),
                             np.linspace(0.0, 2.0, 9), grid_points=1025)
    xg = np.linspace(-9.0, 9.0, 1801)
    dens = np.exp(-xg**2 / 2) / math.sqrt(2 * math.pi)
    rep_g = heatflow_harness(xg, dens, np.linspace(0.0, 2.0, 5),
                             grid_points=1025)
    want = 1.0 + rep_g.s_grid
    rel = np.max(np.abs(rep_g.poincare - want) / want)
    ok = (rep_u.log_concave_input and rep_u.monotone
          and rep_u.worst_drop <= 1e-4 and rel <= 2e-3)
    _report("10 heat-flow harness", ok,
            f"uniform worst drop={rep_u.worst_drop:.1e}, "
            f"gaussian CP rel err={rel:.2e}")


CRITERION6_CFG = """\
model.kind = phi4
model.a_matrix = [[1.0]]
model.g = 1.0
model.nu = -1.0
model.h = [0.0]
schedule.kind = pauli-villars
t_grid.min = 0.05
t_grid.max = 3.0
t_grid.count = 8
t_grid.spacing = log
disc.grid_points = 513
disc.quadrature_order = 80
checks = [criterion, spectrum, theorem, higher-k]
seed = 20240601
output = unused
"""


def test_criterion_12_determinism(tmp_path):
    cfg = config_from_text(CRITERION6_CFG)
    rep1 = run_experiment(cfg)
    files1 = emit_report(rep1, str(tmp_path / "run1"))
    rep2 = run_experiment(cfg)
    files2 = emit_report(rep2, str(tmp_path / "run2"))
    same = all(open(a, "rb").read() == open(b, "rb").read()
               for a, b in zip(files1, files2))
    statuses_ok = all(v == "pass" for v in rep1.statuses.values())
    ok = same and statuses_ok
    _report("12 determinism", ok,
            f"byte-identical={same}, statuses={rep1.statuses}")
