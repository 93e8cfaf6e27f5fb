import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rgflow import make_schedule
from rgflow.flow import (Box, GridFunction, _graded_legendre_rule,
                         conservation_check, default_box,
                         default_sample_points, heatflow_harness,
                         load_density_table, make_flow_measure,
                         semigroup_apply)
from rgflow.potential import (PotentialDescriptor, QuadratureRule,
                              renormalized_value)
from rgflow import oracles


@pytest.fixture(scope="module")
def gauss_chain():
    sched = make_schedule("heat-kernel", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.zero(1)
    q = QuadratureRule(order=40)
    return sched, V0, q, default_box(sched)


@pytest.fixture(scope="module")
def dwell_chain():
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=160)
    return sched, V0, q, default_box(sched)


def test_log_density_gaussian_values(gauss_chain):
    sched, V0, q, box = gauss_chain
    fm = make_flow_measure(sched, V0, 1.0, 513, box=box, q=q)
    xs = box.axes(fm.grid_shape)[0]
    assert xs[256] == 0.0 and xs[288] == 1.0
    assert fm.log_density_grid[256] == 0.0
    got = fm.log_density_grid[288]
    assert_allclose(got, -math.e / 2.0, rtol=1e-12)


def test_log_density_composes_with_potential_oracle():
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -0.5, 0.0, dimension=1)
    q = QuadratureRule(order=120)
    t = 0.5
    fm = make_flow_measure(sched, V0, t, 513, q=q)
    # the node nearest 1.3 of the 513-node [-8, 8] box
    x = fm.box.axes(fm.grid_shape)[0][298]
    assert x == 1.3125
    c, _, _ = sched.eval(t)
    v_t = oracles.quartic_site_value(1.0, -0.5, 0.0, c[0, 0], x)
    prec = 1.0 / (1.0 - c[0, 0])
    want = -0.5 * prec * x * x - v_t
    got = fm.log_density_grid[298]
    assert abs(got - want) < 1e-8


def test_log_density_rejects_exhausted_time(gauss_chain):
    sched, V0, q, box = gauss_chain
    with pytest.raises(ValueError, match="flow time too large"):
        make_flow_measure(sched, V0, 60.0, 513, box=box, q=q)


def _tail_mass_estimate(fm) -> float:
    """Gaussian tail bound on the mass of the flow measure ``fm`` outside
    its box.

    Uses the dominating Gaussian factor and the grid minimum of V_t as a
    proxy for its global minimum (valid when the box is generously sized).
    """
    prec = fm.schedule.residual_inverse(fm.t)
    cov = np.linalg.inv(prec)
    sig = np.sqrt(np.diag(cov))
    hw = fm.box.halfwidths()
    # 2 P(Z > a) = erfc(a / sqrt 2) per axis
    tail_prob = float(sum(math.erfc(hw[k] / sig[k] / math.sqrt(2.0))
                          for k in range(fm.box.dim)))
    d = fm.box.dim
    log_gauss_norm = 0.5 * d * math.log(2.0 * math.pi) \
        + 0.5 * float(np.linalg.slogdet(cov)[1])
    v_min = float(np.min(fm.v_grid))
    if tail_prob == 0.0:
        return 0.0
    log_out = -v_min + log_gauss_norm + math.log(tail_prob)
    return math.exp(log_out - fm.log_normalizer)


def test_flow_measure_normalization_and_tail(dwell_chain):
    sched, V0, q, box = dwell_chain
    fm = make_flow_measure(sched, V0, 0.5, 513, box=box, q=q)
    # normalized density integrates to 1 against an independent refinement
    fine = make_flow_measure(sched, V0, 0.5, 1025, box=box, q=q)
    mass = float(np.sum(fine.box.trapezoid_weights(fine.grid_shape)
                        * np.exp(fine.log_density_grid - fm.log_normalizer)))
    assert abs(mass - 1.0) < 1e-6
    assert _tail_mass_estimate(fm) < 1e-6


def test_gaussian_second_moment_decreases(gauss_chain):
    sched, V0, q, box = gauss_chain
    r2 = box.axes((513,))[0] ** 2
    moments = [make_flow_measure(sched, V0, t, 513, box=box, q=q).expectation(r2)
               for t in (1.0, 1.5, 2.0, 3.0)]
    assert all(b <= a + 1e-12 for a, b in zip(moments, moments[1:]))
    # closed form: variance exp(-t)
    assert_allclose(moments[0], math.exp(-1.0), atol=1e-8)


def test_semigroup_unitality(gauss_chain, dwell_chain):
    for sched, V0, q, box in (gauss_chain, dwell_chain):
        ones = GridFunction(box, np.ones(513))
        out = semigroup_apply(sched, V0, 0.0, 1.0, ones, q)
        assert np.max(np.abs(out.values - 1.0)) < 1e-8


def test_semigroup_preserves_identity_function(gauss_chain):
    sched, V0, q, box = gauss_chain
    xs = box.axes((513,))[0]
    out = semigroup_apply(sched, V0, 0.0, 1.5, GridFunction(box, xs.copy()), q)
    assert np.max(np.abs(out.values - xs)) < 1e-10


def test_semigroup_positivity(dwell_chain):
    sched, V0, q, box = dwell_chain
    xs = box.axes((513,))[0]
    bump = GridFunction(box, np.exp(-xs**2))
    out = semigroup_apply(sched, V0, 0.0, 2.0, bump, q)
    assert out.values.min() >= -1e-10


def test_semigroup_composition_property(gauss_chain):
    sched, V0, _, box = gauss_chain
    q = QuadratureRule(order=60)
    xs = box.axes((1025,))[0]
    rng = np.random.default_rng(42)
    funcs = [np.exp(-xs**2 / 2.0), xs * np.exp(-xs**2 / 3.0),
             np.cos(xs) * np.exp(-xs**2 / 2.5)]
    triples = [tuple(sorted(rng.uniform(0.05, 2.0, 3))) for _ in range(5)]
    worst = 0.0
    for vals in funcs:
        f = GridFunction(box, vals)
        for s, u, t in triples:
            inner = semigroup_apply(sched, V0, s, u, f, q)
            two = semigroup_apply(sched, V0, u, t, inner, q)
            one = semigroup_apply(sched, V0, s, t, f, q)
            worst = max(worst, float(np.max(np.abs(two.values - one.values))))
    assert worst < 1e-6


def test_semigroup_composition_quartic():
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=120)
    box = default_box(sched)
    xs = box.axes((1025,))[0]
    f = GridFunction(box, np.exp(-xs**2 / 2.0))
    inner = semigroup_apply(sched, V0, 0.3, 0.9, f, q)
    two = semigroup_apply(sched, V0, 0.9, 1.8, inner, q)
    one = semigroup_apply(sched, V0, 0.3, 1.8, f, q)
    assert np.max(np.abs(two.values - one.values)) < 1e-6


def test_semigroup_rejects_reversed_times(gauss_chain):
    sched, V0, q, box = gauss_chain
    f = GridFunction(box, np.ones(513))
    with pytest.raises(ValueError, match="s <= t"):
        semigroup_apply(sched, V0, 1.0, 0.5, f, q)


def test_semigroup_rejects_kernel_wider_than_box(gauss_chain):
    sched, V0, q, _ = gauss_chain
    small = Box((-2.0,), (2.0,))
    f = GridFunction(small, np.ones(65))
    with pytest.raises(ValueError, match="larger box"):
        semigroup_apply(sched, V0, 0.0, 2.0, f, q)


def _count_kernel_passes(monkeypatch):
    """Spy on the V0 kernel of every V_t pass: the flow module's semigroup
    passes and the pass of ``renormalized_value``.

    Returns {shift spread: [rows, rule size]}; the spread of the shifts
    z_q identifies the covariance, hence the scale.
    """
    import rgflow.flow as flow_mod
    import rgflow.potential as potential_mod

    passes = {}
    real_kernel = potential_mod._tilted_log_weights

    def kernel_spy(V0, pts, logw):
        key = round(float(np.ptp(pts[0, :, 0])), 9)
        rows, size = passes.setdefault(key, [0, pts.shape[1]])
        assert size == pts.shape[1]
        passes[key][0] = rows + pts.shape[0]
        return real_kernel(V0, pts, logw)

    for mod in (flow_mod, potential_mod):
        monkeypatch.setattr(mod, "_tilted_log_weights", kernel_spy)
    return passes


def test_conservation_evaluates_potential_once_per_time(dwell_chain,
                                                        monkeypatch):
    sched, V0, q, box = dwell_chain
    xs = box.axes((129,))[0]
    F = GridFunction(box, np.exp(-xs**2))
    passes = _count_kernel_passes(monkeypatch)
    count = 4
    conservation_check(sched, V0, F, 2.0, count, q)
    # one V0 pass over nodes x shifts per scale: V_t and P_{0,t}F share it;
    # and one at t = 0 for nu_0
    assert len(passes) == count + 1
    assert passes.pop(0.0) == [129, 1]
    assert all(p == [129, q.order] for p in passes.values())


def test_flow_measure_semigroup_rejects_other_grid(gauss_chain):
    sched, V0, q, box = gauss_chain
    wider = Box.cube(2.0 * box.hi[0], 1)
    for f in (GridFunction(box, np.ones(257)),
              GridFunction(wider, np.ones(513))):
        with pytest.raises(ValueError, match="flow measure lives on"):
            make_flow_measure(sched, V0, 1.0, 513, box=box, q=q, carry=(f,))
    xs = box.axes((513,))[0]
    fm = make_flow_measure(sched, V0, 1.0, 513, box=box, q=q,
                           carry=(GridFunction(box, xs.copy()),))
    want = semigroup_apply(sched, V0, 0.0, 1.0, GridFunction(box, xs.copy()), q)
    assert np.array_equal(fm.transported[0].values, want.values)


def test_conservation_constant_function(gauss_chain):
    sched, V0, q, box = gauss_chain
    F = GridFunction(box, np.ones(513))
    rep = conservation_check(sched, V0, F, 2.0, 9, q,
                             lambda_at_T=1.0, lambda_prime_floor=0.5)
    assert abs(rep.variance) < 1e-14
    assert np.max(np.abs(rep.integrand)) < 1e-14


def test_conservation_gaussian_linear(gauss_chain):
    sched, V0, q, box = gauss_chain
    xs = box.axes((513,))[0]
    F = GridFunction(box, xs.copy())
    rep = conservation_check(sched, V0, F, 20.0, 32, q,
                             lambda_at_T=10.0, lambda_prime_floor=0.5)
    assert_allclose(rep.variance, 1.0, atol=1e-9)
    # integrand is exp(-t) pointwise
    assert_allclose(rep.integrand, np.exp(-rep.t_nodes), atol=1e-9)
    assert rep.relative_mismatch <= 1e-8
    assert rep.conservation_max_dev < 1e-9
    assert rep.tail_ok


def test_graded_legendre_rule_integrates_an_exponential():
    t, w = _graded_legendre_rule(20.0, 32)
    assert np.all(np.diff(t) > 0) and 0.0 < t[0] and t[-1] < 20.0
    exact = -math.expm1(-20.0)
    assert abs(w @ np.exp(-t) - exact) <= 1e-12 * exact


def test_heatflow_gaussian_input_closed_form():
    x = np.linspace(-9, 9, 1801)
    dens = np.exp(-x**2 / 2) / math.sqrt(2 * math.pi)
    rep = heatflow_harness(x, dens, np.linspace(0, 2, 5), grid_points=1025)
    want = np.array([oracles.heatflow_gaussian_poincare(s)
                     for s in rep.s_grid])
    assert np.max(np.abs(rep.poincare - want) / want) < 2e-3
    assert rep.log_concave_input
    assert rep.monotone
    assert rep.two_sided_margin >= -1e-4


def test_heatflow_uniform_nondecreasing():
    x = np.linspace(-1, 1, 2001)
    rep = heatflow_harness(x, np.full_like(x, 0.5), np.linspace(0, 2, 9),
                           grid_points=1025)
    assert rep.log_concave_input
    assert rep.monotone
    assert_allclose(rep.poincare[0], 4.0 / math.pi**2, rtol=1e-4)


def test_heatflow_bimodal_contract():
    # not log-concave: harness still returns a trace, no monotonicity claim
    x = np.linspace(-6, 6, 2401)
    dens = 0.5 * (np.exp(-(x - 2.5) ** 2 / 0.32)
                  + np.exp(-(x + 2.5) ** 2 / 0.32)) / math.sqrt(0.32 * math.pi)
    rep = heatflow_harness(x, dens, np.linspace(0, 1, 5), grid_points=1025)
    assert not rep.log_concave_input
    assert len(rep.poincare) == 5
    assert np.all(np.isfinite(rep.poincare))


def test_heatflow_normalizes_with_warning():
    x = np.linspace(-1, 1, 1001)
    with pytest.warns(UserWarning, match="integrates to 3.4; normalizing"):
        heatflow_harness(x, np.full_like(x, 1.7), np.array([0.0, 0.5]),
                         grid_points=257)
    # a normalized table passes without the warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heatflow_harness(x, np.full_like(x, 0.5), np.array([0.0, 0.5]),
                         grid_points=257)


def test_density_table_roundtrip(tmp_path):
    path = tmp_path / "dens.txt"
    x = np.linspace(-1, 1, 11)
    d = 0.5 * np.ones(11)
    np.savetxt(path, np.column_stack([x, d]), header="x density")
    x2, d2 = load_density_table(path)
    assert_allclose(x2, x)
    assert_allclose(d2, d)


def test_density_table_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.txt"
    x = np.array([0.0, 0.1, 0.3])
    np.savetxt(path, np.column_stack([x, np.ones(3)]))
    with pytest.raises(ValueError, match="uniform"):
        load_density_table(path)


def test_default_sample_points_deterministic(dwell_chain):
    sched, V0, q, box = dwell_chain
    fm = make_flow_measure(sched, V0, 0.2, 257, box=box, q=q)
    a = default_sample_points(fm, seed=7)
    b = default_sample_points(fm, seed=7)
    assert_allclose(a, b)
    assert a.shape == (17 + 100, 1)
    # the mass box is well inside the truncation box for this model
    assert np.max(np.abs(a)) < 6.0


def test_semigroup_unitality_2d():
    sched = make_schedule("heat-kernel", c_infinity=np.diag([1.0, 0.8]))
    V0 = PotentialDescriptor.quartic(0.5, 0.0, [0.0, 0.0], dimension=2)
    q = QuadratureRule(order=14)
    box = default_box(sched)
    ones = GridFunction(box, np.ones((33, 33)))
    out = semigroup_apply(sched, V0, 0.0, 0.8, ones, q)
    assert np.max(np.abs(out.values - 1.0)) < 1e-6


def _nested_p0t(sched, V0, t, f, q):
    """P_{0,t}f by the two-quadrature formula, in one unchunked batch:
    exp(V_t(x)) sum_q w_q exp(-V_0(x + z_q)) f(x + z_q), with V_t and V_0
    each from ``renormalized_value`` and z_q the shifts of C_t - C_0."""
    from rgflow.potential import _gaussian_shifts

    nodes = f.box.nodes(f.shape)
    d = f.box.dim
    c0, _, _ = sched.eval(0.0)
    ct, _, _ = sched.eval(t)
    z, logw = _gaussian_shifts(ct - c0, d, q)
    v_t = renormalized_value(V0, ct, nodes, q)
    pts = nodes[:, None, :] + z[None, :, :]
    flat = pts.reshape(-1, d)
    le = logw[None, :] - np.atleast_1d(
        renormalized_value(V0, c0, flat, q)).reshape(pts.shape[:2])
    shift = np.max(le, axis=1)
    fv = np.asarray(f.interpolator()(flat)).reshape(le.shape)
    out = np.exp(v_t + shift) * np.einsum("mq,mq->m",
                                          np.exp(le - shift[:, None]), fv)
    return out.reshape(f.shape)


@pytest.mark.parametrize("dim", [1, 2])
def test_shared_pass_matches_nested_formula_bitwise(dim, monkeypatch):
    import rgflow.potential as potential_mod

    if dim == 1:
        sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
        V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.3, dimension=1)
        q, shape = QuadratureRule(order=80), (257,)
    else:
        sched = make_schedule("pauli-villars",
                              c_infinity=[[1.0, 0.3], [0.3, 0.8]])
        V0 = PotentialDescriptor.quartic(1.0, -1.0, [0.0, 0.2], dimension=2)
        q, shape = QuadratureRule(order=12), (33, 33)
    box = default_box(sched)
    nodes = box.nodes(shape)
    F = GridFunction(box, np.exp(-np.sum(nodes**2, axis=1)).reshape(shape))
    G = GridFunction(box, np.cos(nodes[:, 0]).reshape(shape))
    # several chunks per pass, with a short last one
    monkeypatch.setattr(potential_mod, "_PASS_NODES", 37 * q.order ** dim)
    for t in (0.1, 1.0, 2.5):
        fm = make_flow_measure(sched, V0, t, shape, box=box, q=q,
                               carry=(F, G))
        ct, _, _ = sched.eval(t)
        assert np.array_equal(fm.v_grid.ravel(),
                              renormalized_value(V0, ct, nodes, q))
        for f, image in zip((F, G), fm.transported):
            assert np.array_equal(image.values, _nested_p0t(sched, V0, t, f, q))
        assert np.array_equal(fm.transported[0].values,
                              semigroup_apply(sched, V0, 0.0, t, F, q).values)


def test_shared_pass_preserves_constants():
    # P_{0,t}1 = exp(V_t + max le) sum exp(le - max le) = 1 up to the
    # round-off of exp(V_t + max le), of order eps |V_t(x)|
    cases = [
        (make_schedule("pauli-villars", c_infinity=[[1.0]]),
         PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1),
         QuadratureRule(order=80), (513,)),
        (make_schedule("pauli-villars", c_infinity=[[1.0, 0.3], [0.3, 0.8]]),
         PotentialDescriptor.quartic(1.0, -1.0, [0.0, 0.2], dimension=2),
         QuadratureRule(order=20), (41, 41)),
    ]
    for sched, V0, q, shape in cases:
        box = default_box(sched)
        ones = GridFunction(box, np.ones(shape))
        for t in (0.05, 1.0, 3.0):
            fm = make_flow_measure(sched, V0, t, shape, box=box, q=q,
                                   carry=(ones,))
            dev = np.abs(fm.transported[0].values - 1.0)
            assert np.all(dev <= 1e-14 * np.maximum(1.0, np.abs(fm.v_grid)))


def test_custom_table_with_nonzero_origin_reads_v0_from_its_grid(
        monkeypatch):
    t_nodes = np.linspace(0.0, 2.0, 9)
    c = 0.2 + t_nodes / (1.0 + t_nodes)       # C_0 = 0.2, not 0
    cp = 1.0 / (1.0 + t_nodes) ** 2
    cpp = -2.0 / (1.0 + t_nodes) ** 3
    sched = make_schedule("custom-table", c_infinity=[[1.5]],
                          table=(t_nodes, c[:, None, None], cp[:, None, None],
                                 cpp[:, None, None]))
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=40)
    box = default_box(sched)
    xs = box.axes((129,))[0]
    F = GridFunction(box, np.exp(-xs**2))
    ones = GridFunction(box, np.ones(129))
    passes = _count_kernel_passes(monkeypatch)
    fm = make_flow_measure(sched, V0, 1.0, 129, box=box, q=q, carry=(F, ones))
    # one V0 pass each for V_1 and V_0; P_{0,1} reads V_0 through the
    # interpolant of the scale-0 grid, so it evaluates V0 nowhere
    assert list(passes.values()) == [[129, q.order]] * 2
    assert np.max(np.abs(fm.transported[1].values - 1.0)) <= 1e-14
    want = _nested_p0t(sched, V0, 1.0, F, QuadratureRule(order=160))
    assert np.max(np.abs(fm.transported[0].values - want)) < 1e-5


def test_variance_audit_builds_v0_once_where_c0_is_nonzero(monkeypatch):
    from rgflow.potential import _gaussian_shifts

    # a table reads C_t at its nearest time: fine enough that no rule node
    # snaps back to t = 0
    t_nodes = np.linspace(0.0, 2.0, 81)
    c = 0.2 + t_nodes / (1.0 + t_nodes)       # C_0 = 0.2, not 0
    cp = 1.0 / (1.0 + t_nodes) ** 2
    cpp = -2.0 / (1.0 + t_nodes) ** 3
    sched = make_schedule("custom-table", c_infinity=[[1.5]],
                          table=(t_nodes, c[:, None, None], cp[:, None, None],
                                 cpp[:, None, None]))
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=40)
    box = default_box(sched)
    xs = box.axes((129,))[0]
    F = GridFunction(box, np.exp(-xs**2))
    passes = _count_kernel_passes(monkeypatch)
    conservation_check(sched, V0, F, 2.0, 4, q)
    z0, _ = _gaussian_shifts([[0.2]], 1, q)
    # one V0 pass over the grid for V_0; every P_{0,t} reads it from there
    assert passes.pop(round(float(np.ptp(z0[:, 0])), 9)) == [129, q.order]
    # and one for each later V_t
    assert list(passes.values()) == [[129, q.order]] * 4


def test_semigroup_is_markov_at_every_s_on_the_plaquette():
    from rgflow.phi4 import Phi4Model

    model = Phi4Model(np.array([[2.0, -1.0], [-1.0, 2.0]]), 1.0, -1.0,
                      np.zeros(2))
    sched, V0 = model.schedule(), model.potential()
    box = default_box(sched)
    ones = GridFunction(box, np.ones((21, 21)))
    out = semigroup_apply(sched, V0, 0.3, 0.9, ones,
                          QuadratureRule(order=12))
    assert np.max(np.abs(out.values - 1.0)) <= 1e-12
    q = QuadratureRule(order=20)
    nodes = box.nodes((41, 41))
    f = GridFunction(box, np.exp(-np.sum(nodes**2, axis=1) / 2.0)
                     .reshape(41, 41))
    inner = semigroup_apply(sched, V0, 0.3, 0.9, f, q)
    two = semigroup_apply(sched, V0, 0.9, 1.8, inner, q)
    one = semigroup_apply(sched, V0, 0.3, 1.8, f, q)
    assert np.max(np.abs(two.values - one.values)) < 1e-3


def _traced_peak(build):
    import tracemalloc

    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_dimensional_flow_measure_bounds_memory():
    from rgflow.phi4 import Phi4Model

    model = Phi4Model(np.array([[2.0, -1.0], [-1.0, 2.0]]), 1.0, -1.0,
                      np.zeros(2))
    sched, V0 = model.schedule(), model.potential()
    q = QuadratureRule(order=40)
    fm, peak = _traced_peak(lambda: make_flow_measure(sched, V0, 1.0, 65, q=q))
    # 65^2 nodes x 1600 shifts in one batch peaked at 471 MB; chunked to
    # 2e6 evaluation nodes it stays near 140 MB
    assert peak < 200 * 2**20
    nodes = fm.box.nodes(fm.grid_shape)
    rows = np.r_[0:40, 2100:2140, 4185:4225]
    ct, _, _ = sched.eval(1.0)
    assert np.array_equal(fm.v_grid.ravel()[rows],
                          renormalized_value(V0, ct, nodes[rows], q))


def _use_cores(monkeypatch, count):
    import rgflow.flow as flow_mod
    import rgflow.potential as potential_mod

    # the pass sizes its chunks by the cores, ``_map_scales`` its workers
    for mod in (flow_mod, potential_mod):
        monkeypatch.setattr(mod, "_usable_cores", lambda: count)


def test_grid_pass_is_bitwise_equal_at_two_chunk_budgets(monkeypatch):
    import rgflow.flow as flow_mod
    import rgflow.potential as potential_mod

    sched = make_schedule("pauli-villars", c_infinity=[[1.0, 0.3], [0.3, 0.8]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, [0.0, 0.2], dimension=2)
    q, shape = QuadratureRule(order=12), (33, 33)
    box = default_box(sched)
    nodes = box.nodes(shape)
    F = GridFunction(box, np.exp(-np.sum(nodes**2, axis=1)).reshape(shape))
    monkeypatch.setattr(potential_mod, "_PASS_NODES", 100 * q.order ** 2)
    rows = []
    real = flow_mod._tilted_log_weights

    def spy(V0, pts, logw):
        rows.append(pts.shape[0])
        return real(V0, pts, logw)

    monkeypatch.setattr(flow_mod, "_tilted_log_weights", spy)
    built = []
    for cores in (1, 3):
        _use_cores(monkeypatch, cores)
        rows.clear()
        built.append(make_flow_measure(sched, V0, 1.0, shape, box=box, q=q,
                                       carry=(F,)))
        # each chunk holds one worker's share of the in-flight budget
        assert max(rows) == 100 // cores and sum(rows) == nodes.shape[0]
    one, three = built
    assert np.array_equal(one.v_grid, three.v_grid)
    assert np.array_equal(one.transported[0].values,
                          three.transported[0].values)


def test_parallel_scales_share_the_pass_memory_budget(monkeypatch):
    import tracemalloc

    import rgflow.potential as potential_mod
    from rgflow.flow import _map_scales
    from rgflow.phi4 import Phi4Model

    model = Phi4Model(np.array([[2.0, -1.0], [-1.0, 2.0]]), 1.0, -1.0,
                      np.zeros(2))
    sched, V0 = model.schedule(), model.potential()
    q = QuadratureRule(order=20)
    box = default_box(sched)
    # a 41^2 grid passes in five chunks serially, nine per worker on 2
    # cores; either way a chunk's arrays live on while the next is built
    monkeypatch.setattr(potential_mod, "_PASS_NODES", 400 * q.order ** 2)

    def build(t):
        return make_flow_measure(sched, V0, t, 41, box=box, q=q)

    peaks, grids = {}, {}
    for cores in (1, 2):
        _use_cores(monkeypatch, cores)
        tracemalloc.start()
        try:
            measures = _map_scales(build, (0.1, 0.5, 1.0, 2.0), V0)
            peaks[cores] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grids[cores] = [fm.v_grid for fm in measures]
    assert peaks[2] <= 1.1 * peaks[1]
    assert all(np.array_equal(a, b) for a, b in zip(grids[1], grids[2]))


def test_conservation_builds_one_interpolant(dwell_chain, monkeypatch):
    import time

    import rgflow._stencils as stencils

    sched, V0, q, box = dwell_chain
    xs = box.axes((129,))[0]
    F = GridFunction(box, np.exp(-xs**2))
    real = stencils.spline_coefficients
    built = []

    def spy(axes, values):
        built.append(np.shape(values))
        time.sleep(0.05)  # holds open the check-then-act of interpolator()
        return real(axes, values)

    monkeypatch.setattr(stencils, "spline_coefficients", spy)
    _use_cores(monkeypatch, 4)
    conservation_check(sched, V0, F, 2.0, 8, q)
    assert built == [(129,)]


_SPLINE_BOXES = {1: Box((-3.0,), (2.5,)),
                 2: Box((-3.0, -2.5), (3.0, 3.5)),
                 3: Box((-3.0, -2.5, -1.0), (3.0, 3.5, 1.5))}
_SPLINE_SHAPES = {1: (65,), 2: (41, 37), 3: (21, 17, 9)}


def _smooth_grid_function(dim, shape=None):
    box = _SPLINE_BOXES[dim]
    shape = shape or _SPLINE_SHAPES[dim]
    nodes = box.nodes(shape)
    vals = np.exp(-0.5 * np.sum(nodes**2, axis=1)) * np.cos(nodes[:, 0]
                                                             + 0.3)
    return GridFunction(box, vals.reshape(shape)), nodes


def _points_in(box, n, rng, pad=0.0):
    lo, hi = np.asarray(box.lo) - pad, np.asarray(box.hi) + pad
    return rng.uniform(lo, hi, size=(n, box.dim))


@pytest.mark.parametrize("dim", [2, 3])
def test_interpolator_returns_the_node_values(dim):
    f, nodes = _smooth_grid_function(dim)
    out = f.interpolator()(nodes)
    assert out.shape == (len(nodes),)
    assert np.max(np.abs(out - f.values.ravel())) <= 1e-12


def test_interpolator_is_the_not_a_knot_spline_in_2d():
    from scipy.interpolate import RectBivariateSpline

    f, _ = _smooth_grid_function(2)
    xs, ys = f.box.axes(f.shape)
    exact = RectBivariateSpline(xs, ys, f.values, kx=3, ky=3, s=0)
    pts = _points_in(f.box, 5000, np.random.default_rng(4))
    want = exact.ev(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(f.interpolator()(pts) - want)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 65])
def test_interpolator_is_cubic_spline_in_1d(n):
    from scipy.interpolate import CubicSpline

    f, _ = _smooth_grid_function(1, (n,))
    spline = CubicSpline(f.box.axes(f.shape)[0], f.values, extrapolate=True)
    # inside the box, then up to one box width beyond either end
    rng = np.random.default_rng(n)
    for pad in (0.0, 5.5):
        pts = _points_in(f.box, 2000, rng, pad)
        assert_allclose(f.interpolator()(pts), spline(pts[:, 0]),
                        rtol=0, atol=1e-13)


def test_interpolator_reads_short_axes_as_lines_and_parabolas():
    # a 2-node axis is linear and a 3-node axis quadratic, as CubicSpline
    # is on such a grid, so a product of both is reproduced everywhere
    box = Box((-1.0, 0.0), (2.0, 1.5))
    nodes = box.nodes((3, 2))

    def poly(p):
        return (1.0 + p[:, 0] - 0.7 * p[:, 0]**2) * (0.4 - 2.0 * p[:, 1])

    f = GridFunction(box, poly(nodes).reshape(3, 2))
    pts = _points_in(box, 500, np.random.default_rng(2), pad=1.0)
    assert_allclose(f.interpolator()(pts), poly(pts), rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        GridFunction(Box((0.0,), (1.0,)), np.ones(1)).interpolator()


@pytest.mark.parametrize("dim", [2, 3])
def test_interpolator_extrapolates_with_the_end_cubic(dim):
    # not-a-knot ends reproduce cubics, and off the box each axis follows
    # its end cell's cubic, so a tensor cubic is exact everywhere
    box = _SPLINE_BOXES[dim]
    shape = _SPLINE_SHAPES[dim]

    def cubic(p):
        return np.prod(0.3 + p - 0.2 * p**2 + 0.05 * p**3, axis=1)

    f = GridFunction(box, cubic(box.nodes(shape)).reshape(shape))
    pts = _points_in(box, 2000, np.random.default_rng(dim), pad=1.5)
    assert_allclose(f.interpolator()(pts), cubic(pts), rtol=1e-10,
                    atol=1e-10)


def test_semigroup_leaves_scipy_interpolate_unloaded():
    import subprocess
    import sys

    code = """
import sys
import numpy as np
from rgflow import make_schedule
from rgflow.flow import (GridFunction, conservation_check, default_box,
                         semigroup_apply)
from rgflow.phi4 import Phi4Model
from rgflow.potential import PotentialDescriptor, QuadratureRule

sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
box = default_box(sched)
xs = box.axes((65,))[0]
conservation_check(sched, V0, GridFunction(box, np.exp(-xs**2)), 1.0, 3,
                   QuadratureRule(order=20))
model = Phi4Model(np.array([[2.0, -1.0], [-1.0, 2.0]]), 1.0, -1.0,
                  np.zeros(2))
box = default_box(model.schedule())
f = GridFunction(box, np.exp(-np.sum(box.nodes((21, 21))**2, axis=1))
                 .reshape(21, 21))
semigroup_apply(model.schedule(), model.potential(), 0.3, 0.9, f,
                QuadratureRule(order=8))
print("scipy.interpolate" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("V0", [
    PotentialDescriptor.quadratic([[0.7]]),
    PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1),
], ids=["quadratic-serial", "quartic-pooled"])
def test_parallel_scales_raise_the_serial_failure(V0, monkeypatch):
    # C_inf - C_t = exp(-t) falls below 1e-12 past t = 27.63, so the last
    # three nodes of the 32-node rule on [0, 30] all fail; the first of them
    # in t order must be raised
    sched = make_schedule("heat-kernel", c_infinity=[[1.0]])
    q = QuadratureRule(order=40)
    box = default_box(sched)
    xs = box.axes((129,))[0]
    F = GridFunction(box, np.exp(-xs**2))
    messages = []
    for cores in (1, 4):
        _use_cores(monkeypatch, cores)
        with pytest.raises(ValueError, match=r"at t=28\.374553") as err:
            conservation_check(sched, V0, F, 30.0, 32, q)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_parallel_scales_match_serial_bitwise_under_stress(dwell_chain,
                                                           monkeypatch):
    import dataclasses
    import sys
    import threading

    from rgflow.flow import _map_scales

    sched, V0, q, box = dwell_chain
    xs = box.axes((129,))[0]
    F = GridFunction(box, np.exp(-xs**2))
    def run():
        rep = conservation_check(sched, V0, F, 3.0, 24, q)
        measures = _map_scales(
            lambda t: make_flow_measure(sched, V0, t, 129, box=box, q=q),
            rep.t_nodes[:8], V0)
        return rep, [fm.v_grid for fm in measures]

    _use_cores(monkeypatch, 1)
    want_rep, want_grids = run()
    # more workers than cores, and a thread switch every microsecond
    _use_cores(monkeypatch, 4)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: got.append(run()),
                                  daemon=True)
        worker.start()
        worker.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(got) == 1
    rep, grids = got[0]
    for f in dataclasses.fields(rep):
        assert (np.asarray(getattr(rep, f.name)).tobytes()
                == np.asarray(getattr(want_rep, f.name)).tobytes()), f.name
    assert all(np.array_equal(a, b) for a, b in zip(grids, want_grids))
