import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rgflow import make_schedule
from rgflow.curvature import (alpha_prime, build_schedule,
                              integrate_schedules, intertwining_check,
                              multiscale_margin, higher_eigenvalue_margin,
                              poincare_upper_bound, pv_t_grid, theorem_margin)
from rgflow.flow import GridFunction, default_box
from rgflow.potential import PotentialDescriptor, QuadratureRule
from rgflow import oracles

SAMPLES_1D = np.linspace(-4.0, 4.0, 9).reshape(-1, 1)


@pytest.fixture(scope="module")
def gauss():
    sched = make_schedule("heat-kernel", c_infinity=[[1.0]])
    return sched, PotentialDescriptor.zero(1), QuadratureRule(order=40, dimension=1)


def test_heat_kernel_rates_flat_potential(gauss):
    sched, V0, q = gauss
    for t in (0.1, 1.0, 3.0):
        assert_allclose(multiscale_margin(sched, V0, t, SAMPLES_1D, q), 0.5,
                        atol=1e-12)
        assert_allclose(alpha_prime(sched, V0, t, SAMPLES_1D, q), 1.0,
                        atol=1e-12)


def test_pauli_villars_rates_flat_potential():
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.zero(1)
    q = QuadratureRule(order=40, dimension=1)
    for t in (0.5, 1.0, 2.0):
        facts = oracles.pauli_villars_facts(1.0, t)
        assert_allclose(multiscale_margin(sched, V0, t, SAMPLES_1D, q),
                        facts["lambda_prime"], atol=1e-12)
        assert_allclose(alpha_prime(sched, V0, t, SAMPLES_1D, q),
                        facts["alpha_prime"], atol=1e-12)


def test_admissibility_of_extracted_rate():
    # plugging the extracted rate back leaves the criterion matrix PSD
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=80, dimension=1)
    t = 0.8
    lam = multiscale_margin(sched, V0, t, SAMPLES_1D, q)
    c, cp, cpp = sched.eval(t)
    from rgflow.potential import renormalized_derivatives
    _, hess = renormalized_derivatives(V0, c, SAMPLES_1D, q)
    for hm in hess:
        crit = cp @ hm @ cp - 0.5 * cpp - lam * cp
        assert np.linalg.eigvalsh(crit)[0] >= -1e-8


def test_alpha_sup_monotone_in_sample_set():
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, 0.0, 0.0, dimension=1)
    q = QuadratureRule(order=60, dimension=1)
    small = np.linspace(-1, 1, 5).reshape(-1, 1)
    large = np.linspace(-3, 3, 17).reshape(-1, 1)
    a_small = alpha_prime(sched, V0, 1.0, small, q, refine=False)
    a_large = alpha_prime(sched, V0, 1.0, large, q, refine=False)
    assert a_large >= a_small - 1e-12


def test_empty_samples_rejected(gauss):
    sched, V0, q = gauss
    with pytest.raises(ValueError, match="nonempty"):
        multiscale_margin(sched, V0, 1.0, np.zeros((0, 1)), q)


def test_integrate_constant_rate():
    t = np.linspace(0.0, 2.0, 5)
    curv = integrate_schedules((t, np.full(5, 0.5), np.ones(5)))
    assert_allclose(curv.lambda_at(2.0), 1.0, atol=1e-12)
    assert curv.lambda_prime[0] == 0.5
    assert curv.alpha_integral[0] == 0.0
    # integrals consistent with trapezoid of the prime arrays
    assert_allclose(np.diff(curv.lambda_integral),
                    0.25 * (curv.lambda_prime[1:] + curv.lambda_prime[:-1]),
                    atol=1e-12)


def test_integrate_pv_rate_log_closed_form():
    t = np.linspace(0.0, 1.0, 4001)
    lp = 1.0 / (t + 1.0)
    curv = integrate_schedules((t, lp, lp))
    assert abs(curv.lambda_at(1.0) - math.log(2.0)) < 1e-7


def test_integrate_alpha_formula_closed_form():
    # alpha'(t) = 1/(t+1) + t + 1 for the mass-1 regularized flat chain;
    # integral over [0,1] is ln 2 + 3/2
    t = np.linspace(0.0, 1.0, 4001)
    ap = 1.0 / (t + 1.0) + t + 1.0
    curv = integrate_schedules((t, ap, ap))
    assert abs(curv.alpha_at(1.0) - (math.log(2.0) + 1.5)) < 1e-6


def test_integrate_rejects_nonmonotone_grid():
    with pytest.raises(ValueError, match="increasing"):
        integrate_schedules((np.array([0.0, 1.0, 0.5]), np.ones(3), np.ones(3)))


def test_integrate_rejects_late_start():
    with pytest.raises(ValueError, match="start at 0"):
        integrate_schedules((np.array([0.5, 1.0]), np.ones(2), np.ones(2)))


def test_pv_t_grid_shape():
    g = pv_t_grid(3.0, 40)
    assert g[0] == 0.0
    assert g[1] == pytest.approx(1e-4)
    assert g[-1] == pytest.approx(3.0)


def _gauss_curv(tmax=2.0, n=9):
    t = np.linspace(0.0, tmax, n)
    return integrate_schedules((t, np.full(n, 0.5), np.ones(n)))


def test_theorem_margin_gaussian_equality():
    curv = _gauss_curv()
    trace = [(t, 1.0) for t in curv.t_grid]
    margins = theorem_margin(trace, curv)
    assert len(margins) == 36
    assert max(abs(m.margin) for m in margins) < 1e-12
    assert all(m.ok for m in margins)


def test_theorem_margin_degenerate_pair():
    curv = _gauss_curv()
    trace = [(t, 1.0) for t in curv.t_grid]
    margins = theorem_margin(trace, curv, pairs=[(0.5, 0.5)])
    assert margins[0].margin == 0.0


def test_theorem_margin_missing_point_rejected():
    curv = _gauss_curv()
    with pytest.raises(ValueError, match="not on the spectral trace"):
        theorem_margin([(0.0, 1.0)], curv, pairs=[(0.0, 0.7)])


def test_higher_eigenvalue_margins_ou_chain():
    # eigenvalues mu_k = k at every t for the weighted Gaussian chain:
    # margins coincide for every k with the k=1 margin
    curv = _gauss_curv()
    traces = {k: [(t, float(k)) for t in curv.t_grid] for k in (1, 2, 3)}
    margins = higher_eigenvalue_margin(traces, curv)
    by_k = {}
    for m in margins:
        by_k.setdefault((m.s, m.t), set()).add(round(m.margin, 12))
    for vals in by_k.values():
        assert len(vals) == 1
    assert all(m.ok for m in margins)


def test_poincare_upper_bound_gaussian_tight():
    t = np.linspace(0.0, 40.0, 4001)
    curv = integrate_schedules((t, np.full(len(t), 0.5), np.ones(len(t))))
    bound0 = poincare_upper_bound(curv, 1.0, 0.0)
    assert abs(bound0 - 1.0) < 1e-4
    bound1 = poincare_upper_bound(curv, math.exp(-1.0), 1.0)
    assert bound1 < bound0
    assert abs(bound1 - math.exp(-1.0)) < 1e-4


def test_poincare_upper_bound_divergent_floor():
    t = np.linspace(0.0, 2.0, 9)
    curv = integrate_schedules((t, np.linspace(0.5, -0.1, 9), np.ones(9)))
    with pytest.raises(ValueError, match="divergent"):
        poincare_upper_bound(curv, 1.0, 0.0)


def test_intertwining_gaussian_identity_function(gauss):
    sched, V0, q = gauss
    box = default_box(sched)
    xs = box.axes((513,))[0]
    curv = _gauss_curv(tmax=3.0, n=31)
    F = GridFunction(box, xs.copy())
    for t in (0.5, 1.5):
        v = intertwining_check(sched, V0, F, t, curv, q)
        assert abs(v) < 1e-9  # equality case
    Fc = GridFunction(box, np.ones_like(xs))
    # constant functions: both sides vanish
    v = intertwining_check(sched, V0, Fc, 1.0, curv, q)
    assert abs(v) < 1e-12


def test_intertwining_evaluates_potential_once(monkeypatch):
    import rgflow.flow as flow_mod

    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=40, dimension=1)
    box = default_box(sched)
    xs = box.axes((129,))[0]
    F = GridFunction(box, np.exp(-xs**2))
    calls = []
    real = flow_mod._tilted_log_weights

    def spy(V0, pts, logw):
        calls.append(pts.shape[:2])
        return real(V0, pts, logw)

    monkeypatch.setattr(flow_mod, "_tilted_log_weights", spy)
    monkeypatch.setattr(flow_mod, "renormalized_value", None)
    intertwining_check(sched, V0, F, 1.0, _gauss_curv(tmax=3.0, n=31), q)
    # V_t, P_{0,t}F and P_{0,t}|grad F|^2 from one pass over nodes x shifts
    assert calls == [(129, q.order)]


def test_build_schedule_with_override(gauss):
    sched, V0, q = gauss
    grid = np.linspace(0.0, 1.0, 5)
    curv = build_schedule(sched, V0, grid, SAMPLES_1D, q,
                          lambda_prime_override=lambda t: 0.5,
                          sample_spec="flat chain")
    assert_allclose(curv.lambda_prime, 0.5)
    assert_allclose(curv.alpha_prime, 1.0)
    assert curv.sample_spec == "flat chain"
    assert curv.refinement_ok


def test_lemma_pair_margins_quartic_flow():
    from rgflow.phi4 import Phi4Model, susceptibility
    from rgflow.spectral import rayleigh_flow_trace

    model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    sched, V0 = model.schedule(), model.potential()
    q = QuadratureRule(order=80, dimension=1)
    box = default_box(sched)
    xs = box.axes((513,))[0]
    phi0 = GridFunction(box, xs * np.exp(-xs**2 / 4.0))
    t_grid = np.linspace(0.05, 2.5, 9)
    trace = rayleigh_flow_trace(sched, V0, phi0, t_grid, q)

    grid = pv_t_grid(2.5, 40)
    curv = build_schedule(
        sched, V0, grid, SAMPLES_1D, q,
        lambda_prime_override=lambda t: 1.0 / t
        - susceptibility(model, t).value / t**2)
    margins = higher_eigenvalue_margin({0: trace}, curv, tol_total=1e-6 + 1e-3)
    assert len(margins) == 36
    assert all(m.margin >= -m.tolerance for m in margins)


class _FixedRates:
    """A schedule stand-in returning fixed (C, C', C'') at every time."""

    def __init__(self, cp, cpp):
        self.mats = (np.eye(len(cp)), np.asarray(cp), np.asarray(cpp))

    def eval(self, t):
        return self.mats


def _random_sym(rng, shape):
    m = rng.standard_normal(shape)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _per_point_lambda(cp, cpp, hess):
    """Reference: one generalized scipy eigensolve per point on range(C')."""
    from scipy.linalg import eigh

    wb, ub = np.linalg.eigh(cp)
    basis = ub[:, wb > 1e-12 * max(wb[-1], 1e-300)]
    out = []
    for h in hess:
        g_r = basis.T @ (cp @ h @ cp - 0.5 * cpp) @ basis
        b_r = basis.T @ cp @ basis
        out.append(eigh(0.5 * (g_r + g_r.T), 0.5 * (b_r + b_r.T),
                        eigvals_only=True)[0])
    return np.array(out)


@pytest.mark.parametrize("case", ["d1", "d2", "d3", "rank-deficient"])
def test_batched_lambda_rates_match_per_point_generalized_eigh(case):
    from rgflow.curvature import _lambda_rates

    rng = np.random.default_rng(7)
    if case == "rank-deficient":
        cp, d = np.diag([1.0, 0.0]), 2
    else:
        d = int(case[1])
        root = rng.standard_normal((d, d))
        cp = root @ root.T + 0.1 * np.eye(d)
    cpp = _random_sym(rng, (d, d))
    hess = _random_sym(rng, (50, d, d))
    got = _lambda_rates(_FixedRates(cp, cpp), 1.0)(hess)
    want = _per_point_lambda(cp, cpp, hess)
    assert got.shape == (50,)
    assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_lambda_rates_reject_zero_mobility():
    from rgflow.curvature import _lambda_rates

    with pytest.raises(ValueError, match="numerically zero"):
        _lambda_rates(_FixedRates(np.zeros((2, 2)), np.eye(2)), 1.0)


def _rugged(xs):
    """A nonconvex test function on a batch (k, d) -> (k,)."""
    xs = np.atleast_2d(xs)
    return np.sum(xs**2 - np.cos(3.0 * xs), axis=1) + 0.3 * xs[:, 0]


@pytest.mark.parametrize("maximize", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_compass_search_never_less_extreme_than_start(d, maximize):
    from rgflow.curvature import _compass_search

    sign = -1.0 if maximize else 1.0
    rng = np.random.default_rng(d)
    for x0 in rng.uniform(-2.0, 2.0, size=(10, d)):
        f0 = float(_rugged(x0)[0])
        got = _compass_search(_rugged, x0, f0, maximize, step0=0.5,
                              bounds=(-2.0 * np.ones(d), 2.0 * np.ones(d)))
        assert sign * got <= sign * f0


def test_compass_search_scores_one_clamped_batch_per_sweep():
    from rgflow.curvature import _REFINE_STEPS, _compass_search

    lo, hi = np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 2.0])
    batches = []

    def fun(xs):
        batches.append(xs.copy())
        return _rugged(xs)

    x0 = np.array([0.9, 0.0, 0.1])
    _compass_search(fun, x0, float(_rugged(x0)[0]), False, step0=0.8,
                    bounds=(lo, hi))
    assert len(batches) == _REFINE_STEPS
    for xs in batches:
        assert xs.shape == (6, 3)
        assert np.all(xs >= lo) and np.all(xs <= hi)
    # the first sweep steps +/- 0.8 along each axis from x0, clamped
    want = np.clip(x0 + 0.8 * np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                                        [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
                   lo, hi)
    assert_allclose(batches[0], want, rtol=0, atol=0)


def test_compass_search_is_deterministic_and_moves_to_the_best_trial():
    from rgflow.curvature import _compass_search

    def run():
        trace = []

        def fun(xs):
            trace.append(xs.copy())
            return _rugged(xs)

        x0 = np.array([1.3, -0.7])
        return _compass_search(fun, x0, float(_rugged(x0)[0]), False,
                               step0=0.5), trace

    (a, ta), (b, tb) = run(), run()
    assert a == b
    assert all(np.array_equal(x, y) for x, y in zip(ta, tb))
    # each sweep is centred on the best point seen so far
    best = np.array([1.3, -0.7])
    for prev, nxt in zip(ta, ta[1:]):
        vals = _rugged(prev)
        if vals.min() < _rugged(best)[0]:
            best = prev[int(np.argmin(vals))]
        centre = 0.5 * (nxt[0] + nxt[1])
        assert_allclose(centre, best, rtol=0, atol=1e-15)
    assert a == pytest.approx(float(np.min(_rugged(best))))


def test_build_schedule_factors_shifts_once_per_rate_time(monkeypatch):
    import rgflow.curvature as curvature_mod

    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=40, dimension=1)
    calls = []
    real = curvature_mod._gaussian_shifts

    def spy(c, d, q):
        calls.append(float(np.atleast_2d(c)[0, 0]))
        return real(c, d, q)

    monkeypatch.setattr(curvature_mod, "_gaussian_shifts", spy)
    grid = pv_t_grid(2.0, 5)
    build_schedule(sched, V0, grid, SAMPLES_1D, q)
    times = sorted({float(t) for t in grid if t > 0})
    assert sorted(calls) == sorted(float(sched.eval(t)[0][0, 0])
                                   for t in times)
