import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rgflow import make_schedule
from rgflow.curvature import (build_schedule, integrate_schedules,
                              intertwining_check, higher_eigenvalue_margin,
                              poincare_upper_bound, pv_t_grid, rate_time,
                              theorem_margin)
from rgflow.flow import GridFunction, default_box
from rgflow.potential import PotentialDescriptor, QuadratureRule
from rgflow import oracles

SAMPLES_1D = np.linspace(-4.0, 4.0, 9).reshape(-1, 1)


@pytest.fixture(scope="module")
def gauss():
    sched = make_schedule("heat-kernel", c_infinity=[[1.0]])
    return sched, PotentialDescriptor.zero(1), QuadratureRule(order=40)


def test_heat_kernel_rates_flat_potential(gauss):
    sched, V0, q = gauss
    curv = build_schedule(sched, V0, [0.0, 0.1, 1.0, 3.0], SAMPLES_1D, q)
    assert_allclose(curv.lambda_prime[1:], 0.5, atol=1e-12)
    assert_allclose(curv.alpha_prime[1:], 1.0, atol=1e-12)


def test_pauli_villars_rates_flat_potential():
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.zero(1)
    q = QuadratureRule(order=40)
    curv = build_schedule(sched, V0, [0.0, 0.5, 1.0, 2.0], SAMPLES_1D, q)
    for i, t in enumerate((0.5, 1.0, 2.0), start=1):
        facts = oracles.pauli_villars_facts(1.0, t)
        assert_allclose(curv.lambda_prime[i], facts["lambda_prime"], atol=1e-12)
        assert_allclose(curv.alpha_prime[i], facts["alpha_prime"], atol=1e-12)


def test_admissibility_of_extracted_rate():
    # plugging the extracted rate back leaves the criterion matrix PSD
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=80)
    t = 0.8
    lam = build_schedule(sched, V0, [0.0, t], SAMPLES_1D, q).lambda_prime[1]
    c, cp, cpp = sched.eval(t)
    from rgflow.potential import renormalized_derivatives
    _, hess = renormalized_derivatives(V0, c, SAMPLES_1D, q)
    for hm in hess:
        crit = cp @ hm @ cp - 0.5 * cpp - lam * cp
        assert np.linalg.eigvalsh(crit)[0] >= -1e-8


def test_alpha_sup_monotone_in_sample_set():
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, 0.0, 0.0, dimension=1)
    q = QuadratureRule(order=60)
    small = np.linspace(-1, 1, 5).reshape(-1, 1)
    large = np.linspace(-3, 3, 17).reshape(-1, 1)
    a_small = build_schedule(sched, V0, [0.0, 1.0], small, q).alpha_prime[1]
    a_large = build_schedule(sched, V0, [0.0, 1.0], large, q).alpha_prime[1]
    assert a_large >= a_small - 1e-12


def test_empty_samples_rejected(gauss):
    sched, V0, q = gauss
    with pytest.raises(ValueError, match="nonempty"):
        build_schedule(sched, V0, [0.0, 1.0], np.zeros((0, 1)), q)


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
        (v,) = intertwining_check(sched, V0, [F], t, curv, q)
        assert abs(v) < 1e-9  # equality case
    Fc = GridFunction(box, np.ones_like(xs))
    # constant functions: both sides vanish
    (v,) = intertwining_check(sched, V0, [Fc], 1.0, curv, q)
    assert abs(v) < 1e-12


def test_intertwining_evaluates_potential_once(monkeypatch):
    import rgflow.flow as flow_mod

    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=40)
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
    intertwining_check(sched, V0, [F], 1.0, _gauss_curv(tmax=3.0, n=31), q)
    # V_t, P_{0,t}F and P_{0,t}|grad F|^2 from one pass over nodes x shifts
    assert calls == [(129, q.order)]


def test_build_schedule_with_override(gauss):
    sched, V0, q = gauss
    grid = np.linspace(0.0, 1.0, 5)
    sampled = build_schedule(sched, V0, grid, SAMPLES_1D, q)
    assert_allclose(sampled.lambda_prime, 0.5)
    assert_allclose(sampled.alpha_prime, 1.0)
    # a certified lambda' overrides the sampled one; alpha' stays sampled
    curv = integrate_schedules((grid, np.full(5, 0.25), sampled.alpha_prime))
    assert_allclose(curv.lambda_integral, 0.25 * grid)
    assert_allclose(curv.alpha_integral, grid)


def test_lemma_pair_margins_quartic_flow():
    from rgflow.phi4 import Phi4Model, susceptibility
    from rgflow.spectral import rayleigh_flow_trace

    model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    sched, V0 = model.schedule(), model.potential()
    q = QuadratureRule(order=80)
    box = default_box(sched)
    xs = box.axes((513,))[0]
    phi0 = GridFunction(box, xs * np.exp(-xs**2 / 4.0))
    t_grid = np.linspace(0.05, 2.5, 9)
    trace = rayleigh_flow_trace(sched, V0, phi0, t_grid, q)

    grid = pv_t_grid(2.5, 40)
    sampled = build_schedule(sched, V0, grid, SAMPLES_1D, q)
    lam = [1.0 / t - susceptibility(model, t).value / t**2
           for t in (rate_time(grid, i) for i in range(len(grid)))]
    curv = integrate_schedules((grid, lam, sampled.alpha_prime))
    margins = higher_eigenvalue_margin({0: trace}, curv, tol_total=1e-6 + 1e-3)
    assert len(margins) == 36
    assert all(m.margin >= -m.tolerance for m in margins)


class _FixedRates:
    """A schedule stand-in returning fixed (C, C', C'') at every time."""

    def __init__(self, cp, cpp):
        self.mats = (np.eye(len(cp)), np.asarray(cp), np.asarray(cpp))

    def eval(self, t):
        return self.mats

    def residual_inverse(self, t):
        return 2.0 * np.eye(len(self.mats[0]))


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


def _per_point_alpha(cp, hmat, hess):
    """Reference: one eigensolve per point of sqrt(C')(H + hmat)sqrt(C')."""
    w, u = np.linalg.eigh(cp)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
    return np.array([np.linalg.eigvalsh(root @ (h + hmat) @ root)[-1]
                     for h in hess])


@pytest.mark.parametrize("case", ["d1", "d2", "d3", "rank-deficient"])
def test_batched_lambda_rates_match_per_point_generalized_eigh(case):
    from rgflow.curvature import _congruence_rates, _rate_form

    rng = np.random.default_rng(7)
    if case == "rank-deficient":
        cp, d = np.diag([1.0, 0.0]), 2
    else:
        d = int(case[1])
        root = rng.standard_normal((d, d))
        cp = root @ root.T + 0.1 * np.eye(d)
    cpp = _random_sym(rng, (d, d))
    hess = _random_sym(rng, (50, d, d))
    sched = _FixedRates(cp, cpp)
    # three searches: lambda' and alpha' on the same Hessians, and lambda'
    # on others; with a rank-deficient C' the two kinds' P differ in shape
    # and take separate stacked solves
    other = _random_sym(rng, (50, d, d))
    rates = _congruence_rates([_rate_form(sched, 1.0, "lambda"),
                               _rate_form(sched, 1.0, "alpha"),
                               _rate_form(sched, 1.0, "lambda")])
    got = rates(np.stack([hess, hess, other]))
    assert got.shape == (3, 50)
    assert_allclose(got[0], _per_point_lambda(cp, cpp, hess), rtol=1e-12,
                    atol=0.0)
    assert_allclose(got[1], _per_point_alpha(cp, 2.0 * np.eye(d), hess),
                    rtol=1e-12, atol=1e-14)
    assert_allclose(got[2], _per_point_lambda(cp, cpp, other), rtol=1e-12,
                    atol=0.0)


def test_lambda_rates_reject_zero_mobility():
    from rgflow.curvature import _rate_form

    with pytest.raises(ValueError, match="numerically zero"):
        _rate_form(_FixedRates(np.zeros((2, 2)), np.eye(2)), 1.0, "lambda")


def _rugged(xs):
    """A nonconvex test function on a batch (k, d) -> (k,)."""
    xs = np.atleast_2d(xs)
    return np.sum(xs**2 - np.cos(3.0 * xs), axis=1) + 0.3 * xs[:, 0]


def _rugged_searches(trials):
    """``_rugged`` on the (S, 2d, d) trials of S searches -> (S, 2d)."""
    return _rugged(trials.reshape(-1, trials.shape[-1])).reshape(
        trials.shape[:2])


@pytest.mark.parametrize("maximize", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_compass_search_never_less_extreme_than_start(d, maximize):
    from rgflow.curvature import _compass_search

    sign = -1.0 if maximize else 1.0
    rng = np.random.default_rng(d)
    x0 = rng.uniform(-2.0, 2.0, size=(10, d))
    f0 = _rugged(x0)
    got = _compass_search(_rugged_searches, x0, f0, maximize, step0=0.5,
                          bounds=(-2.0 * np.ones(d), 2.0 * np.ones(d)))
    assert got.shape == (10,)
    assert np.all(sign * got <= sign * f0)


def test_compass_search_scores_one_clamped_batch_per_sweep():
    from rgflow.curvature import _REFINE_STEPS, _compass_search

    lo, hi = np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 2.0])
    batches = []

    def fun(trials):
        batches.append(trials.copy())
        return _rugged_searches(trials)

    # two searches in lockstep, one minimizing and one maximizing
    x0 = np.array([[0.9, 0.0, 0.1], [-0.3, 0.2, 1.5]])
    _compass_search(fun, x0, _rugged(x0), np.array([False, True]), step0=0.8,
                    bounds=(lo, hi))
    assert len(batches) == _REFINE_STEPS
    for trials in batches:
        assert trials.shape == (2, 6, 3)
        assert np.all(trials >= lo) and np.all(trials <= hi)
    # the first sweep steps +/- 0.8 along each axis from each x0, clamped
    steps = 0.8 * np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                            [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    for i in range(2):
        assert_allclose(batches[0][i], np.clip(x0[i] + steps, lo, hi),
                        rtol=0, atol=0)


def _scalar_compass(fun, x0, f0, maximize, step0, bounds=None):
    """One compass search at a time, as a plain loop: the reference for the
    lockstep form.  It moves on an improvement beyond ``_MOVE_RTOL`` of the
    best value, as the lockstep form does."""
    from rgflow.curvature import _MOVE_RTOL, _REFINE_STEPS

    sign = -1.0 if maximize else 1.0
    directions = np.repeat(np.eye(len(x0)), 2, axis=0)
    directions[1::2] *= -1.0
    x, best, step = np.array(x0, dtype=float), sign * f0, step0
    for _ in range(_REFINE_STEPS):
        trials = x + step * directions
        if bounds is not None:
            trials = np.clip(trials, bounds[0], bounds[1])
        vals = sign * fun(trials)
        j = int(np.argmin(vals))
        if vals[j] < best - _MOVE_RTOL * abs(best):
            best, x = float(vals[j]), trials[j]
        else:
            step *= 0.5
    return sign * best


def test_compass_search_is_deterministic_and_moves_to_the_best_trial():
    from rgflow.curvature import _compass_search

    def run():
        trace = []

        def fun(trials):
            trace.append(trials.copy())
            return _rugged_searches(trials)

        x0 = np.array([[1.3, -0.7]])
        return _compass_search(fun, x0, _rugged(x0), False, step0=0.5,
                               bounds=(np.full(2, -np.inf),
                                       np.full(2, np.inf))), trace

    (a, ta), (b, tb) = run(), run()
    assert np.array_equal(a, b)
    assert all(np.array_equal(x, y) for x, y in zip(ta, tb))
    # each sweep is centred on the best point seen so far
    best = np.array([1.3, -0.7])
    for prev, nxt in zip(ta, ta[1:]):
        vals = _rugged(prev[0])
        if vals.min() < _rugged(best)[0]:
            best = prev[0][int(np.argmin(vals))]
        centre = 0.5 * (nxt[0][0] + nxt[0][1])
        assert_allclose(centre, best, rtol=0, atol=1e-15)
    assert a[0] == pytest.approx(float(np.min(_rugged(best))))


def test_lockstep_searches_equal_one_search_at_a_time():
    from rgflow.curvature import _compass_search

    rng = np.random.default_rng(5)
    x0 = rng.uniform(-2.0, 2.0, size=(8, 2))
    maximize = np.arange(8) % 2 == 1
    bounds = (-2.0 * np.ones(2), 2.0 * np.ones(2))
    got = _compass_search(_rugged_searches, x0, _rugged(x0), maximize,
                          step0=0.7, bounds=bounds)
    want = [_scalar_compass(_rugged, x, float(_rugged(x)[0]), bool(mx), 0.7,
                            bounds) for x, mx in zip(x0, maximize)]
    assert np.array_equal(got, want)


def _per_time_rates(sched, V0, t, samples, q):
    """Reference for ``build_schedule``: (lambda', alpha') at one time, one
    search per rate, per-point scipy eigensolves on the single-covariance
    derivative path."""
    from rgflow.potential import renormalized_derivatives

    c, cp, cpp = sched.eval(t)
    hmat = sched.residual_inverse(t)

    def hess(xs):
        return renormalized_derivatives(V0, c, xs, q)[1]

    bounds = (samples.min(axis=0), samples.max(axis=0))
    step0 = float(np.max(np.abs(samples))) / 8.0
    out = []
    for rate, maximize in (
            (lambda xs: _per_point_lambda(cp, cpp, hess(xs)), False),
            (lambda xs: _per_point_alpha(cp, hmat, hess(xs)), True)):
        vals = rate(samples)
        i = int(np.argmax(vals) if maximize else np.argmin(vals))
        best = float(vals[i])
        if V0.form not in ("zero", "quadratic"):
            best = _scalar_compass(rate, samples[i], best, maximize, step0,
                                   bounds)
        out.append(best)
    return out


def _rank_deficient_mobility_schedule(angle):
    """2-D custom table with C' = R diag(c'(t), 0) R^T: one direction never
    moves.  At angle 0 a separable V0 gives a separable V_t, flat along the
    still axis, so compass trials there tie with the best value up to
    round-off; a rotation R keeps V_t from separating."""
    t = np.linspace(0.0, 3.0, 31)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])

    def table(first, second):
        diag = np.zeros((len(t), 2, 2))
        diag[:, 0, 0], diag[:, 1, 1] = first, second
        return rot @ diag @ rot.T

    return make_schedule(
        "custom-table", c_infinity=rot @ np.diag([1.6, 0.5]) @ rot.T,
        table=(t, table(0.4 + t / (1.0 + t), 0.3),
               table(1.0 / (1.0 + t) ** 2, 0.0),
               table(-2.0 / (1.0 + t) ** 3, 0.0)))


def _lockstep_case(case):
    from rgflow.phi4 import Phi4Model

    if case == "dwell":
        model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
        return (model.schedule(), model.potential(),
                QuadratureRule(order=80), SAMPLES_1D,
                pv_t_grid(3.0, 6))
    samples_2d = np.stack(np.meshgrid(np.linspace(-2, 2, 4),
                                      np.linspace(-1.5, 2.5, 4)),
                          -1).reshape(-1, 2)
    if case == "plaquette":
        model = Phi4Model([[2.0, -1.0], [-1.0, 2.0]], 1.0, -1.0, [0.0, 0.0])
        return (model.schedule(), model.potential(),
                QuadratureRule(order=12), samples_2d,
                pv_t_grid(3.0, 3))
    if case == "quadratic":
        return (make_schedule("heat-kernel", c_infinity=[[1.0, 0.2],
                                                         [0.2, 0.8]]),
                PotentialDescriptor.quadratic([[0.7, 0.1], [0.1, 0.4]]),
                QuadratureRule(order=12), samples_2d,
                np.linspace(0.0, 2.0, 4))
    return (_rank_deficient_mobility_schedule(
                0.0 if case == "rank-deficient-unrotated" else 0.5),
            PotentialDescriptor.quartic(1.0, -0.5, [0.0, 0.1], dimension=2),
            QuadratureRule(order=12), samples_2d,
            np.linspace(0.0, 2.0, 4))


@pytest.mark.parametrize("case", ["dwell", "plaquette", "quadratic",
                                  "rank-deficient",
                                  "rank-deficient-unrotated"])
def test_lockstep_schedule_matches_one_search_per_time(case):
    from rgflow.curvature import rate_time

    sched, V0, q, samples, grid = _lockstep_case(case)
    curv = build_schedule(sched, V0, grid, samples, q)
    for i in range(len(grid)):
        want = _per_time_rates(sched, V0, rate_time(grid, i), samples, q)
        assert_allclose([curv.lambda_prime[i], curv.alpha_prime[i]], want,
                        rtol=1e-10, atol=0.0)


def test_stacked_shifts_serve_every_covariance_in_one_kernel_call():
    from rgflow.curvature import _stacked_shifts
    from rgflow.potential import (_gaussian_shifts, _monomial_basis,
                                  _tilted_derivatives)

    rng = np.random.default_rng(3)
    V0 = PotentialDescriptor.quartic([1.0, 0.7], [-1.0, 0.4], [0.0, 0.2],
                                     dimension=2)
    q = QuadratureRule(order=10)
    # the rank-1 covariance has 10 nodes, padded to the others' 100
    covs = [np.array([[0.5, 0.1], [0.1, 0.3]]), np.diag([0.8, 0.0]),
            0.2 * np.eye(2)]
    xs = rng.uniform(-2.0, 2.0, size=(len(covs), 14, 2))
    z, logw = _stacked_shifts(covs, 2, q)
    grads, hess = _tilted_derivatives(V0, _monomial_basis(z), logw, xs)
    for i, c in enumerate(covs):
        zi, lwi = _gaussian_shifts(c, 2, q)
        want_g, want_h = _tilted_derivatives(V0, _monomial_basis(zi[None]),
                                             lwi[None], xs[i][None])
        assert_allclose(grads[i], want_g[0], rtol=1e-12, atol=1e-13)
        assert_allclose(hess[i], want_h[0], rtol=1e-12, atol=1e-13)


def _spy_kernel_batches(monkeypatch):
    """Record the rows per time of every derivative-kernel batch that
    ``build_schedule`` makes, and how often it builds a monomial basis."""
    import rgflow.curvature as curvature_mod

    batches, bases = [], []
    real, real_basis = (curvature_mod._tilted_derivatives,
                        curvature_mod._monomial_basis)

    def spy(V0, basis, logw, xb):
        assert len(xb) == len(basis) == len(logw)
        batches.append(np.full(len(xb), xb.shape[1]))
        return real(V0, basis, logw, xb)

    def basis_spy(z):
        bases.append(z.shape)
        return real_basis(z)

    monkeypatch.setattr(curvature_mod, "_tilted_derivatives", spy)
    monkeypatch.setattr(curvature_mod, "_monomial_basis", basis_spy)
    return batches, bases


def test_lockstep_schedule_scores_one_kernel_batch_per_sweep(monkeypatch):
    import rgflow.curvature as curvature_mod

    sched, V0, q, samples, grid = _lockstep_case("plaquette")
    batches, _ = _spy_kernel_batches(monkeypatch)
    build_schedule(sched, V0, grid, samples, q)
    times = len(grid) - 1          # t = 0 reuses the next time's rates
    assert len(batches) == 1 + curvature_mod._REFINE_STEPS
    # every sample at every time, then 2d trials per time for both rates
    assert np.array_equal(batches[0], np.full(times, len(samples)))
    for rows in batches[1:]:
        assert np.array_equal(rows, np.full(times, 2 * 2 * V0.dimension))


@pytest.mark.parametrize("case", ["dwell", "plaquette"])
def test_build_schedule_builds_the_monomial_basis_once(monkeypatch, case):
    sched, V0, q, samples, grid = _lockstep_case(case)
    batches, bases = _spy_kernel_batches(monkeypatch)
    build_schedule(sched, V0, grid, samples, q)
    # one basis for every rate time, shared by the sample batch and sweeps
    assert len(bases) == 1
    assert bases[0][0] == len(batches[0]) == len(grid) - 1


def test_build_schedule_factors_shifts_once_per_rate_time(monkeypatch):
    import rgflow.curvature as curvature_mod

    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=40)
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
