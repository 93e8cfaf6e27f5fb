import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from rgflow import oracles, potential
from rgflow.errors import QuadratureOverflowError
from rgflow.potential import (PotentialDescriptor, QuadratureRule,
                              _logsumexp_rows, renormalized_derivatives,
                              renormalized_value)

GAUSS_MOMENTS = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0}


@pytest.mark.parametrize("degree", sorted(GAUSS_MOMENTS))
def test_quadrature_monomial_exactness(degree):
    q = QuadratureRule(order=4)  # exact through degree 7
    nodes, logw = q.rule(1)
    got = float(np.exp(logw) @ nodes[:, 0] ** degree)
    assert_allclose(got, GAUSS_MOMENTS[degree], atol=1e-12)


def test_quadrature_tensor_mixed_moment():
    q = QuadratureRule(order=5)
    nodes, logw = q.rule(2)
    w = np.exp(logw)
    assert_allclose(w @ (nodes[:, 0] ** 2 * nodes[:, 1] ** 4), 3.0, atol=1e-12)
    assert_allclose(w.sum(), 1.0, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_quadrature_exactness_property(k):
    q = QuadratureRule(order=8)
    nodes, logw = q.rule(1)
    got = float(np.exp(logw) @ nodes[:, 0] ** k)
    assert abs(got - GAUSS_MOMENTS[k]) < 1e-10


def test_tensor_rule_is_the_outer_sum_of_the_1d_rule(monkeypatch):
    calls = []
    hermegauss = np.polynomial.hermite_e.hermegauss
    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss",
                        lambda order: calls.append(order) or hermegauss(order))
    potential._hermite_rule.cache_clear()
    potential._hermite_tensor.cache_clear()
    for order in (5, 20, 40):
        z, lw = potential._hermite_rule(order)
        for dim in (1, 2, 3):
            nodes, logw = potential._hermite_tensor(order, dim)
            grids = np.meshgrid(*([z] * dim), indexing="ij")
            assert np.array_equal(nodes, np.stack([g.ravel() for g in grids], axis=-1))
            total = sum(np.ix_(*([lw] * dim)))     # axis 0 first, as the rule adds
            assert np.array_equal(logw, total.ravel())
    assert calls == [5, 20, 40]   # one 1-D rule per order, shared by every dim
    assert not z.flags.writeable and not lw.flags.writeable


def test_quadrature_rejects_high_dimension():
    # a rule is its order; the tensor cap is raised where a grid is built
    q = QuadratureRule(order=10)
    assert [f.name for f in dataclasses.fields(q)] == ["order"]
    assert q.rule(3)[0].shape == (1000, 3)
    with pytest.raises(ValueError, match="capped at dimension 3, got 4"):
        q.rule(4)
    V0 = PotentialDescriptor.quartic(1.0, 0.0, dimension=4)
    for smooth in (renormalized_value, renormalized_derivatives):
        with pytest.raises(ValueError, match="capped"):
            smooth(V0, np.eye(4), np.zeros(4))
    with pytest.raises(ValueError, match="order must be >= 1"):
        QuadratureRule(order=0)


def test_smoothed_value_memory_does_not_grow_with_the_batch():
    # V_t on points runs the chunked pass of the flow measures; one
    # (m, 1600, 2) array of 8,000 points would peak near 780 MB
    V0 = PotentialDescriptor.quartic(1.0, -1.0, [0.0, 0.2], dimension=2)
    c = np.array([[1.0, 0.3], [0.3, 0.8]])
    q = QuadratureRule(order=40)
    rng = np.random.default_rng(3)
    peaks = []
    for m in (2000, 8000):
        x = rng.uniform(-2.0, 2.0, (m, 2))
        tracemalloc.start()
        try:
            v = renormalized_value(V0, c, x, q)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(v[:5], [renormalized_value(V0, c, p, q)
                                      for p in x[:5]])
    assert peaks[1] <= 1.25 * peaks[0]


def test_zero_potential_smooths_to_zero():
    V0 = PotentialDescriptor.zero(2)
    q = QuadratureRule(order=12)
    c = np.array([[0.8, 0.1], [0.1, 0.5]])
    assert renormalized_value(V0, c, [0.3, -1.2], q) == 0.0
    g, h = renormalized_derivatives(V0, c, [0.3, -1.2], q)
    assert_allclose(g, 0.0)
    assert_allclose(h, 0.0)


def test_quadratic_value_matches_oracle_both_paths():
    # x^2/2 by the closed form of the quadratic and by the quartic kernel
    q = QuadratureRule(order=40)
    want, wg, wh = oracles.gaussian_smoothed_quadratic(1.0, 1.0, 1.0)
    for V0 in (PotentialDescriptor.quadratic([[1.0]]),
               PotentialDescriptor.quartic(0.0, 1.0, 0.0, dimension=1)):
        got = renormalized_value(V0, [[1.0]], [1.0], q)
        assert_allclose(got, want, atol=1e-10)
        g, h = renormalized_derivatives(V0, [[1.0]], [1.0], q)
        assert_allclose(g[0], wg, atol=1e-10)
        assert_allclose(h[0, 0], wh, atol=1e-10)


def test_zero_covariance_returns_base_potential():
    V0 = PotentialDescriptor.quartic(1.0, -0.3, 0.2, dimension=1)
    q = QuadratureRule(order=24)
    x = np.array([1.7])
    got = renormalized_value(V0, [[0.0]], x, q)
    assert_allclose(got, V0.value(x), rtol=1e-14)


def test_quartic_value_matches_adaptive_oracle():
    V0 = PotentialDescriptor.quartic(1.0, 0.0, 0.0, dimension=1)
    q = QuadratureRule(order=80)
    got = renormalized_value(V0, [[0.5]], [0.0], q)
    want = oracles.quartic_site_value(1.0, 0.0, 0.0, 0.5, 0.0)
    assert abs(got - want) < 1e-8


def test_quartic_hessian_matches_tilted_identity_oracle():
    # hess V_t = 1/c - var/c^2 for the single-site tilted measure
    c = 0.5
    V0 = PotentialDescriptor.quartic(1.0, 0.0, 0.0, dimension=1)
    q = QuadratureRule(order=80)
    _, h = renormalized_derivatives(V0, [[c]], [0.7], q)
    _, var = oracles.quartic_site_moments(1.0, 0.0, 0.0, c, 0.7)
    assert abs(h[0, 0] - (1.0 / c - var / c**2)) < 1e-6


def test_convexity_preserved_for_quadratic_base():
    # a convex quartic (g, nu >= 0) stays convex under Gaussian smoothing
    # (Prekopa), here under a covariance with off-diagonal terms
    V0 = PotentialDescriptor.quartic([1.0, 0.5], [0.3, 0.0], [0.2, -0.1])
    q = QuadratureRule(order=60)
    rng = np.random.default_rng(3)
    for c_scale in (0.0, 0.3, 2.0):
        c = c_scale * np.array([[1.0, 0.6], [0.6, 0.8]])
        xs = rng.uniform(-3, 3, size=(20, 2))
        _, hess = renormalized_derivatives(V0, c, xs, q)
        for hm in hess:
            assert np.linalg.eigvalsh(hm)[0] >= -1e-10


def test_order_doubling_stability():
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    xs = np.linspace(-3.0, 3.0, 11).reshape(-1, 1)
    v1 = renormalized_value(V0, [[0.5]], xs, QuadratureRule(order=80))
    v2 = renormalized_value(V0, [[0.5]], xs, QuadratureRule(order=160))
    assert np.max(np.abs(v1 - v2)) < 1e-8


def test_tilted_hessian_matches_finite_differences():
    V0 = PotentialDescriptor.quartic(0.8, -0.5, 0.1, dimension=1)
    q = QuadratureRule(order=80)
    c = [[0.6]]
    rng = np.random.default_rng(11)
    for x in rng.uniform(-2, 2, size=4):
        _, h = renormalized_derivatives(V0, c, [x], q)
        eps = 1e-3
        vp = renormalized_value(V0, c, [x + eps], q)
        v0 = renormalized_value(V0, c, [x], q)
        vm = renormalized_value(V0, c, [x - eps], q)
        fd = (vp - 2 * v0 + vm) / eps**2
        assert abs(h[0, 0] - fd) / max(abs(fd), 1e-12) < 1e-5


def test_gradient_matches_finite_differences_2d():
    V0 = PotentialDescriptor.quartic([1.0, 0.5], [0.2, -0.1], [0.0, 0.3],
                                     dimension=2)
    q = QuadratureRule(order=24)
    c = np.array([[0.5, 0.1], [0.1, 0.4]])
    x = np.array([0.4, -0.8])
    g, _ = renormalized_derivatives(V0, c, x, q)
    eps = 1e-5
    for k in range(2):
        e = np.zeros(2)
        e[k] = eps
        fd = (renormalized_value(V0, c, x + e, q)
              - renormalized_value(V0, c, x - e, q)) / (2 * eps)
        assert abs(g[k] - fd) < 1e-6


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_reports_exponent():
    V0 = PotentialDescriptor.quartic(1.0, 0.0, 0.0, dimension=1)
    q = QuadratureRule(order=8)
    with pytest.raises(QuadratureOverflowError, match="order"):
        renormalized_value(V0, [[1.0]], [1e100], q)


def test_dimension_mismatch_rejected():
    V0 = PotentialDescriptor.quartic(1.0, 0.0, 0.0, dimension=2)
    with pytest.raises(ValueError, match="dimension"):
        V0.value([1.0, 2.0, 3.0])


def test_quartic_requires_nonnegative_coefficient():
    with pytest.raises(ValueError, match="nonnegative"):
        PotentialDescriptor.quartic(-1.0, 0.0, 0.0, dimension=1)


def _reference_derivatives(V0, c, x, q):
    """Tilted moments of the quartic ``V0`` straight from its value and
    its gradient g x^3 + nu x - h and Hessian diag(3 g x^2 + nu) on the
    Gaussian-shift rule, node by node, without the moment kernel."""
    from rgflow.potential import _gaussian_shifts

    xb = np.atleast_2d(np.asarray(x, dtype=float))
    m, d = xb.shape
    z, logw = _gaussian_shifts(c, d, q)
    flat = (xb[:, None, :] + z[None, :, :]).reshape(-1, d)
    le = logw[None, :] - V0.value(flat).reshape(m, -1)
    wts = np.exp(le - le.max(axis=1, keepdims=True))
    wts /= wts.sum(axis=1, keepdims=True)
    gv = (V0.g * flat**3 + V0.nu * flat - V0.h).reshape(m, -1, d)
    hv = np.zeros((len(flat), d, d))
    hv[:, np.arange(d), np.arange(d)] = 3.0 * V0.g * flat**2 + V0.nu
    hv = hv.reshape(m, -1, d, d)
    gbar = np.einsum("mq,mqi->mi", wts, gv)
    centered = gv - gbar[:, None, :]
    hess = (np.einsum("mq,mqij->mij", wts, hv)
            - np.einsum("mq,mqi,mqj->mij", wts, centered, centered))
    return gbar, hess


@pytest.mark.parametrize("case", ["d1", "d2", "d3", "rank-deficient"])
@pytest.mark.parametrize("batch", [1, 300])
def test_fused_derivatives_match_descriptor_reference(case, batch):
    rng = np.random.default_rng(19)
    if case == "rank-deficient":
        d, c = 2, np.diag([1.0, 0.0])
    else:
        d = int(case[1])
        root = rng.standard_normal((d, d))
        c = root @ root.T / d + 0.1 * np.eye(d)
    V0 = PotentialDescriptor.quartic(rng.uniform(0.5, 1.5, d),
                                     rng.uniform(-1.0, 1.0, d),
                                     rng.uniform(-0.5, 0.5, d),
                                     dimension=d)
    q = QuadratureRule(order=16 if d == 3 else 40)
    xs = rng.uniform(-2.0, 2.0, size=(batch, d))
    x = xs[0] if batch == 1 else xs
    got_g, got_h = renormalized_derivatives(V0, c, x, q)
    want_g, want_h = _reference_derivatives(V0, c, xs, q)
    if batch == 1:
        assert got_g.shape == (d,) and got_h.shape == (d, d)
    assert_allclose(np.reshape(got_g, want_g.shape), want_g, rtol=1e-12,
                    atol=1e-12 * np.abs(want_g).max())
    assert_allclose(np.reshape(got_h, want_h.shape), want_h, rtol=1e-12,
                    atol=1e-12 * np.abs(want_h).max())


def _row_relative_error(got, want):
    """Worst |got - want| of each row over the largest |want| of that row."""
    got, want = (np.reshape(a, (len(want), -1)) for a in (got, want))
    return np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_moment_kernel_matches_direct_sums_on_a_stress_set(d):
    # The kernel takes the covariance from raw moments of the shift, which
    # cancel where the tilted shift sits far from 0: large |x|, large C.
    # Bound: 1e-8 of the row maximum.  Measured worst over d = 1, 2, 3:
    # 1.5e-10 (gradients 2.9e-13).
    from rgflow.curvature import _stacked_shifts
    from rgflow.potential import _monomial_basis, _tilted_derivatives

    rng = np.random.default_rng(29 + d)
    V0 = PotentialDescriptor.quartic(rng.uniform(0.5, 1.5, d),
                                     rng.uniform(-1.0, 1.0, d),
                                     rng.choice([-1.0, 1.0], d)
                                     * rng.uniform(0.2, 0.6, d),
                                     dimension=d)
    root = rng.standard_normal((d, d))
    full = root @ root.T
    full *= 10.0 / np.linalg.eigvalsh(full)[-1]      # C <= 10 I, reached
    u = rng.standard_normal(d)
    deficient = (8.0 * np.outer(u, u) / (u @ u) if d > 1
                 else np.zeros((1, 1)))
    # three covariances in one call, the padded rule between the others
    covs = [full, deficient, 0.05 * np.eye(d)]
    q = QuadratureRule(order=12 if d == 3 else 40)
    xs = rng.uniform(-5.0, 5.0, size=(len(covs), 24, d))
    xs[:, 0] = 5.0
    xs[:, 1] = -5.0
    z, logw = _stacked_shifts(covs, d, q)
    assert np.isneginf(logw[1]).any()
    grads, hess = _tilted_derivatives(V0, _monomial_basis(z), logw, xs)
    for i, c in enumerate(covs):
        want_g, want_h = _reference_derivatives(V0, c, xs[i], q)
        assert np.all(_row_relative_error(grads[i], want_g) <= 1e-8)
        assert np.all(_row_relative_error(hess[i], want_h) <= 1e-8)


@pytest.mark.parametrize("padded", [False, True], ids=["plaquette", "padded"])
def test_weight_floor_keeps_every_bit_of_plain_exp(monkeypatch, padded):
    # The kernel gives a weight of exactly 0 to every shifted log-weight
    # below its floor (-700) instead of exponentiating it.  The batch reaches
    # past exp's underflow to 0 (below -745.13) and into its subnormal band
    # (-745.13, -708.40).  The reference is the same kernel with the floor
    # at -inf, so that every weight goes through np.exp, the padding's -inf
    # log-weights included.
    from rgflow.curvature import _stacked_shifts
    from rgflow.phi4 import Phi4Model

    model = Phi4Model([[2.0, -1.0], [-1.0, 2.0]], 1.0, -1.0, [0.0, 0.0])
    sched, V0 = model.schedule(), model.potential()
    covs = [sched.eval(t)[0] for t in (0.5, 1.0)]
    if padded:
        covs.insert(1, np.diag([0.8, 0.0]))    # 40 nodes, padded to 1600
    z, logw = _stacked_shifts(covs, 2, QuadratureRule(order=40))
    axis = np.linspace(-2.0, 2.0, 9)
    xs = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(1, -1, 2)
    xs = np.repeat(xs, len(covs), axis=0)
    assert np.isneginf(logw).any() == padded
    # the shifted log-weights, from V0 itself
    pts = xs[:, :, None, :] + z[:, None, :, :]
    le = logw[:, None, :] - V0.value(pts.reshape(-1, 2)).reshape(pts.shape[:3])
    le -= np.max(le, axis=-1, keepdims=True)
    assert np.any(le < -745.2)
    assert np.any((le > -745.1) & (le < -708.5))

    basis = potential._monomial_basis(z)
    got = potential._tilted_derivatives(V0, basis, logw, xs)
    monkeypatch.setattr(potential, "_WEIGHT_FLOOR", -np.inf)
    want = potential._tilted_derivatives(V0, basis, logw, xs)
    for g, w in zip(got, want):
        assert np.all(np.isfinite(w))
        assert np.array_equal(g, w)


@pytest.mark.parametrize("c", [
    np.array([[0.8, 0.3], [0.3, 0.6]]),
    np.array([[0.8, 0.3, 0.1], [0.3, 0.6, 0.2], [0.1, 0.2, 0.5]]),
    np.diag([1.0, 0.0]),
], ids=["d2", "d3", "rank-deficient"])
def test_fused_kernel_matches_quadratic_closed_form(c):
    # quartic(0, nu) is the quadratic diag(nu)/2: the quadrature of the fused
    # kernel against the exact smoothed quadratic
    d = len(c)
    nu = np.array([1.0, 0.7, 1.3])[:d]
    q = QuadratureRule(order=32)
    xs = np.random.default_rng(3).uniform(-2.0, 2.0, size=(6, d))
    quartic = PotentialDescriptor.quartic(0.0, nu, dimension=d)
    exact = PotentialDescriptor.quadratic(np.diag(nu))
    assert_allclose(renormalized_value(quartic, c, xs, q),
                    renormalized_value(exact, c, xs), rtol=0, atol=1e-10)
    for got, want in zip(renormalized_derivatives(quartic, c, xs, q),
                         renormalized_derivatives(exact, c, xs)):
        assert_allclose(got, want, rtol=0, atol=1e-10)


def test_derivative_batches_bound_memory_by_evaluation_nodes():
    import tracemalloc

    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=3)
    q = QuadratureRule(order=40)      # 64,000 shifts per point
    xs = np.random.default_rng(5).uniform(-1.0, 1.0, size=(12, 3))
    c = 0.3 * np.eye(3)
    renormalized_derivatives(V0, c, xs[:1], q)     # warm the cached rule
    tracemalloc.start()
    try:
        renormalized_derivatives(V0, c, xs, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one Hessian stack of shape (12, 64000, 3, 3) alone would be 55 MB
    assert peak < 60e6


def _same_bits(a, b):
    """Equal bit for bit, with any NaN matching any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


_LSE_ENTRIES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-40.0, max_value=40.0),
    st.sampled_from([-np.inf, np.inf, 0.0, -0.0, 1e-300, 700.0, -745.0]))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda rows: st.integers(min_value=1, max_value=40).flatmap(
        lambda cols: st.lists(_LSE_ENTRIES, min_size=rows * cols,
                              max_size=rows * cols).map(
            lambda xs: np.array(xs).reshape(rows, cols)))))
def test_logsumexp_rows_matches_scipy_bitwise(a):
    from scipy.special import logsumexp

    with np.errstate(all="ignore"):
        want = logsumexp(a, axis=1)
    assert _same_bits(_logsumexp_rows(a), want)


@pytest.mark.parametrize("a", [
    np.array([[1.5, 1.5, 1.5, -2.0], [3.0, -1.0, 3.0, 3.0]]),    # tied maxima
    np.array([[-np.inf, 0.3, -np.inf], [-np.inf, -np.inf, -np.inf]]),
    np.array([[2.5], [-np.inf], [-700.25], [1e300]]),              # one column
    np.array([[1e300, -1e300, 1e300], [-745.1, -745.2, -1000.0],
              [709.7, 709.8, 1.0], [1e-320, -1e-320, 0.0]]),
    np.random.default_rng(5).normal(scale=200.0, size=(513, 80)),
])
def test_logsumexp_rows_fixed_cases_match_scipy_bitwise(a):
    from scipy.special import logsumexp

    with np.errstate(all="ignore"):
        want = logsumexp(a, axis=1)
    assert _same_bits(_logsumexp_rows(a), want)
