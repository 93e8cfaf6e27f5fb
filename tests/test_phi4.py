import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson
from scipy.signal import lfilter

from rgflow import oracles, phi4, potential
from rgflow.curvature import build_schedule
from rgflow.errors import NonConvergenceError
from rgflow.phi4 import (Phi4Model, _chi_of, _integrated_autocorr,
                         hessian_identity_check, lattice_moments,
                         metropolis_moments, phi4_schedules, susceptibility,
                         tilted_covariance)
from rgflow.potential import QuadratureRule

A_NN = np.array([[2.0, -1.0], [-1.0, 2.0]])


def test_model_validation():
    with pytest.raises(ValueError, match="positive-definite"):
        Phi4Model([[1.0, 2.0], [2.0, 1.0]], 1.0, 0.0, [0.0, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        Phi4Model([[1.0]], -0.5, 0.0, [0.0])
    with pytest.raises(ValueError, match="positive-definite"):
        Phi4Model([[1.0]], 0.0, -2.0, [0.0])


def test_gaussian_susceptibility_closed_form():
    m = Phi4Model([[1.0]], 0.0, 0.0, [0.0])
    for t in (0.5, 1.0, 2.0):
        got = susceptibility(m, t).value
        assert_allclose(got, t / (t + 1.0), atol=1e-12)


def test_gaussian_susceptibility_2x2_row_sum():
    m = Phi4Model(A_NN, 0.0, 0.0, [0.0, 0.0])
    est = susceptibility(m, 1.0)
    # covariance (A + I)^{-1} = (1/8)[[3,1],[1,3]]; row sum 1/2
    assert_allclose(est.value, 0.5, atol=1e-12)
    assert est.stderr == 0.0
    assert est.method == "quadrature"


def test_quartic_susceptibility_vs_adaptive_oracle():
    m = Phi4Model([[1.0]], 1.0, 0.0, [0.0])
    got = susceptibility(m, 1.0).value
    _, cov = oracles.quartic_lattice_moments([[2.0]], 1.0, 0.0, [0.0])
    assert abs(got - cov[0, 0]) < 1e-8


def test_mcmc_agrees_with_quadrature_within_three_stderr():
    m = Phi4Model([[1.0]], 1.0, 0.0, [0.0])
    quad = susceptibility(m, 1.0).value
    # chi_1 as susceptibility(method="mcmc") takes it, on a shorter chain
    mc = _chi_of(metropolis_moments(m, 1.0, [0.0], seed=2024,
                                    n_measure_sweeps=40_000))
    assert mc.method == "mcmc"
    assert mc.stderr > 0
    assert abs(mc.value - quad) <= 3.0 * mc.stderr


def test_mcmc_nonconvergence_raises():
    m = Phi4Model([[1.0]], 1.0, 0.0, [0.0])
    with pytest.raises(NonConvergenceError, match="effective sample size"):
        metropolis_moments(m, mass_shift=1.0, field=[0.0], seed=1,
                           n_measure_sweeps=500, burnin=200)


def _ring(n_sites):
    """A = 2.5 I - (S + S^T)/2 on a periodic ring."""
    shift = np.roll(np.eye(n_sites), 1, axis=1)
    return 2.5 * np.eye(n_sites) - 0.5 * (shift + shift.T)


def test_batched_mcmc_ring3_agrees_with_quadrature():
    m = Phi4Model(_ring(3), 1.0, -1.0, np.zeros(3))
    # chi_1 as susceptibility() takes it, on a coarser rule for speed
    quad = _chi_of(lattice_moments(m, 1.0, np.zeros(3), order=64))
    mc = susceptibility(m, 1.0, method="mcmc", seed=11)
    assert quad.tau is None and quad.acceptance is None
    assert abs(mc.value - quad.value) <= 3.0 * mc.stderr
    assert mc.n_samples >= 1000
    assert 1.0 <= mc.tau < 3.0
    assert mc.acceptance > 0.8


A3 = np.array([[2.0, -0.7, 0.0], [-0.7, 2.5, 0.4], [0.0, 0.4, 1.8]])


@pytest.mark.parametrize("mass_shift", [0.5, 2.0])
def test_three_site_gaussian_moments_match_the_closed_form(mass_shift, monkeypatch):
    # distinct couplings and a zero a_13 catch an i/j mix-up in the pair terms
    _assert_gaussian_moments(A3, 0.3, mass_shift, np.array([0.2, -0.1, 0.35]),
                             monkeypatch)


def _assert_gaussian_moments(a, nu, mass_shift, field, monkeypatch):
    """lattice_moments of the g = 0 model with coupling a against the
    covariance (a + nu + mass_shift)^{-1}, and the mean of its two
    ``_ring_moments`` calls (orders p and p + 4) against that times field."""
    ring_moments, means = phi4._ring_moments, []

    def spy(*args):
        mean, cov = ring_moments(*args)
        means.append(mean)
        return mean, cov

    monkeypatch.setattr(phi4, "_ring_moments", spy)
    est = lattice_moments(Phi4Model(a, 0.0, nu, np.zeros(len(a))),
                          mass_shift, field)
    exact = np.linalg.inv(a + (nu + mass_shift) * np.eye(len(a)))
    assert est.converged
    assert np.max(np.abs(est.value - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert len(means) == 2
    assert np.max(np.abs(means[-1] - exact @ field)) <= 1e-12 * np.max(
        np.abs(exact @ field))


def test_gaussian_ring_of_64_sites_matches_the_closed_form(monkeypatch):
    # the closing bond (63, 0) and a diagonal and field that vary by site
    rng = np.random.default_rng(64)
    a = _ring(64) + np.diag(rng.uniform(-0.5, 0.5, 64))
    _assert_gaussian_moments(a, 0.3, 1.0, rng.normal(size=64), monkeypatch)


def test_gaussian_open_chain_matches_the_closed_form(monkeypatch):
    # four sites in site order with distinct bonds and no closing bond
    a = np.diag([2.0, 2.5, 1.8, 2.2]) + np.diag([-0.7, 0.4, -0.6], 1)
    _assert_gaussian_moments(a + np.triu(a, 1).T, 0.3, 0.5,
                             np.array([0.2, -0.1, 0.35, 0.5]), monkeypatch)


def test_lattice_moments_rejects_a_bond_off_the_site_ring():
    a = _ring(4)
    a[0, 2] = a[2, 0] = -0.3
    with pytest.raises(ValueError, match=r"sites \(0, 2\)"):
        lattice_moments(Phi4Model(a, 1.0, -1.0, np.zeros(4)), 1.0, np.zeros(4))


def test_ring16_quadrature_chi_matches_the_transfer_kernel_oracle():
    m = Phi4Model(_ring(16), 1.0, -1.0, np.zeros(16))
    est = susceptibility(m, 1.0, method="quadrature")
    want = oracles.ring_chi(16, 2.5, 1.0, -1.0, 0.5, 1.0)
    assert est.converged
    assert abs(est.value - want) <= 1e-12 * want


def test_ring_chi_oracle_matches_the_gaussian_closed_form():
    # g = 0: chi = 1 / (diag - 2 bond + nu + 1/t) = 1 / 3.2
    assert abs(oracles.ring_chi(16, 2.5, 0.0, 0.7, 0.5, 1.0) - 0.3125) <= 1e-14


def test_lanczos_breakdown_is_unconverged(monkeypatch):
    # on 3 trapezoid nodes the ends sit where u is 60 above its minimum, so
    # the dwell site's weight sits on the middle node and beta_1 is 0
    monkeypatch.setattr(phi4, "_SITE_NODES", 3)
    model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    with pytest.raises(NonConvergenceError, match="site 0: Lanczos broke down"):
        lattice_moments(model, 1.0, [0.0])


# Independent references: order-200 Gauss-Hermite on the p^3 tensor grid
# about a reference Gaussian sized from the site marginals (1.6 marginal
# standard deviations wide), reweighted by the ring's action; order 240
# agrees with them to 1.4e-15.
@pytest.mark.parametrize("t, chi", [(0.5, 0.3145623499897326),
                                    (1.0, 0.42815125659405984),
                                    (2.0, 0.5158116870939261)])
def test_ring3_quadrature_chi_is_pinned(t, chi):
    m = Phi4Model(_ring(3), 1.0, -1.0, np.zeros(3))
    est = susceptibility(m, t, method="quadrature")
    assert est.converged
    assert abs(est.value - chi) <= 1e-13 * chi


def test_three_site_moments_request_no_tensor_rule(monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice_moments built a tensor rule")

    monkeypatch.setattr(potential, "_hermite_tensor", refuse)
    m = Phi4Model(_ring(3), 1.0, -1.0, np.zeros(3))
    est = lattice_moments(m, 1.0, np.zeros(3))
    assert est.converged and est.value.shape == (3, 3)


@pytest.mark.parametrize("mass_shift, field, name", [
    (1.0, [np.inf, 0.0], "field"),
    (1.0, [0.0, np.nan], "field"),
    (np.inf, [0.0, 0.0], "mass_shift"),
    (np.nan, [0.0, 0.0], "mass_shift"),
])
def test_lattice_moments_rejects_non_finite_inputs(mass_shift, field, name):
    m = Phi4Model(A_NN, 1.0, 0.0, [0.0, 0.0])
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        lattice_moments(m, mass_shift, field)


def test_batched_mcmc_is_a_pure_function_of_the_seed():
    m = Phi4Model(_ring(3), 1.0, -1.0, np.zeros(3))
    runs = [_chi_of(metropolis_moments(m, 1.0, np.zeros(3), seed=seed,
                                       n_measure_sweeps=20_000))
            for seed in (5, 5, 6)]
    assert runs[0].value == runs[1].value
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].value != runs[2].value


@pytest.mark.parametrize("n_sites", [8, 16])
def test_batched_mcmc_gaussian_ring_matches_closed_form(n_sites):
    a = _ring(n_sites)
    m = Phi4Model(a, 0.0, -1.0, np.zeros(n_sites))
    t = 1.0
    exact = np.max(np.linalg.inv(
        a + (-1.0 + 1.0 / t) * np.eye(n_sites)).sum(axis=1))
    for seed in range(10):
        mc = susceptibility(m, t, method="mcmc", seed=seed)
        assert mc.method == "mcmc"
        assert abs(mc.value - exact) <= 3.0 * mc.stderr


@pytest.mark.parametrize("a, classes", [
    (_ring(3), [[0], [1], [2]]),
    (_ring(16), [list(range(0, 16, 2)), list(range(1, 16, 2))]),
    (A3 + 0.1, [[0], [1], [2]]),
    (np.diag([1.0, 2.0, 3.0, 4.0]), [[0, 1, 2, 3]]),
], ids=["ring3", "ring16", "dense", "diagonal"])
def test_colour_classes_of_the_coupling_graph(a, classes):
    off = a - np.diag(np.diag(a))
    assert phi4._colour_classes(off) == classes


def test_mcmc_short_burnin_raises():
    # plenty of measured samples, but 10 burn-in sweeps per chain < 20 tau
    m = Phi4Model([[1.0]], 1.0, 0.0, [0.0])
    with pytest.raises(NonConvergenceError, match="burn-in"):
        metropolis_moments(m, mass_shift=1.0, field=[0.0], seed=1,
                           n_measure_sweeps=128_000, burnin=640)


def test_wolff_window_recovers_ar1_autocorrelation_time():
    rho = 0.8
    rng = np.random.default_rng(7)
    x = lfilter([1.0], [1.0, -rho], rng.standard_normal((16, 20_000)), axis=1)
    tau = _integrated_autocorr(x)
    assert abs(tau - (1 + rho) / (1 - rho)) <= 0.1 * (1 + rho) / (1 - rho)


def _direct_wolff_tau(x):
    """Wolff's windowed tau from autocovariances summed lag by lag, no FFT."""
    chains, m = x.shape
    total = chains * m
    dev = x - x.mean()
    w_max = m // 2
    gamma = np.array([np.sum(dev[:, :m - k] * dev[:, k:]) / (total - chains * k)
                      for k in range(w_max + 1)])
    for w in range(1, w_max + 1):
        tau_int = 0.5 + gamma[1:w + 1].sum() / gamma[0]
        tau_w = (1.5 / np.log((2 * tau_int + 1) / (2 * tau_int - 1))
                 if tau_int > 0.5 else 1e-300)
        if np.exp(-w / tau_w) - tau_w / np.sqrt(w * total) < 0:
            break
    c_f = gamma[0] + 2.0 * gamma[1:w + 1].sum()
    return c_f * (1.0 + (2 * w + 1) / total) / (gamma[0] + c_f / total)


def test_wolff_window_matches_a_direct_lag_sum():
    # 937 sweeps: 2m = 2 x 937 with 937 prime, padded to a power of two;
    # tau near 40 draws the window out to lags that a short pad would wrap
    rng = np.random.default_rng(5)
    x = lfilter([1.0], [1.0, -0.97], rng.standard_normal((8, 937)), axis=1)
    assert_allclose(_integrated_autocorr(x), _direct_wolff_tau(x), rtol=1e-12)


def _class_rows(model):
    """(off(A), the colour classes, the row slice of each class in class
    order, the sites in class order) of ``metropolis_moments``."""
    a = model.a_matrix
    off = a - np.diag(np.diag(a))
    classes = phi4._colour_classes(off)
    bounds = np.cumsum([0] + [len(c) for c in classes])
    return off, classes, list(map(slice, bounds[:-1], bounds[1:])), \
        np.concatenate(classes)


def _reference_walk(model, mass_shift, seed, n_measure_sweeps, burnin):
    """``metropolis_moments``'s random walk at the model's field with the
    state kept in site order and each colour class updated by one expression
    per step (no buffers, no row permutation): the chain the in-place class
    sweep must reproduce to the bit.  Row r of each random draw belongs to
    the r-th site in class order.  Returns (samples, accepted per site)."""
    n = model.n_sites
    eta = model.h
    rng = np.random.default_rng(seed)
    chains = phi4._MCMC_CHAINS
    n_burn, n_meas = burnin // chains, n_measure_sweeps // chains
    a = model.a_matrix
    half_mass = 0.5 * (np.diag(a) + model.nu + mass_shift)
    quarter_g = 0.25 * model.g
    off, classes, rows, order = _class_rows(model)
    coupling = off[np.ix_(order, order)]        # summed in class order
    phi = np.empty((n, chains))
    phi[order] = rng.standard_normal((n, chains)) * 0.5
    scale = np.full(n, 1.0)                     # per site

    def advance(sweeps, record=None):
        step = scale[order, None] * rng.standard_normal((sweeps, n, chains))
        u = rng.random((sweeps, n, chains))
        accepted = np.zeros(n)
        for s in range(sweeps):
            for sites, r in zip(classes, rows):
                old = phi[sites]
                d = step[s, r]
                new = old + d
                both = new + old
                de = d * (both * (half_mass[sites, None]
                                  + quarter_g * (new * new + old * old))
                          + (coupling[r] @ phi[order] - eta[sites, None]))
                take = u[s, r] < np.exp(-np.maximum(de, 0.0))
                phi[sites] = np.where(take, new, old)
                accepted[sites] += np.count_nonzero(take, axis=1)
            if record is not None:
                record[s] = phi
        return accepted

    block = -(-phi4._MCMC_TUNE_TRIALS // chains)
    for start in range(0, n_burn, block):
        sweeps = min(block, n_burn - start)
        rate = advance(sweeps) / (sweeps * chains)
        scale *= np.exp(rate - phi4._MCMC_TARGET_ACCEPT)
    samples = np.empty((n_meas, n, chains))
    accepted = np.zeros(n)
    for start in range(0, n_meas, block):
        sweeps = min(block, n_meas - start)
        accepted += advance(sweeps, samples[start:start + sweeps])
    return samples, accepted


def _reference_independence(model, mass_shift, seed, n_measure_sweeps,
                            burnin):
    """``metropolis_moments``'s independence update at the model's field,
    site by site in class order with the state kept in site order: site i
    takes its field b, its mode y* (``_site_minimum``), kappa/2 = sqrt(((m2
    + g y*^2)/2)^2 + g/2) and the proposal y = y* + z/sqrt(kappa/2), z ~
    N(0, 1/2), and keeps y when log U < u(x) - u(y) + kappa ((y - y*)^2 -
    (x - y*)^2)/2.  The chains start from phi = 0 at their conditional
    modes, one site at a time.  Row r of each random draw belongs to the
    r-th site in class order.  Returns (samples, accepted per site)."""
    n, g = model.n_sites, model.g
    rng = np.random.default_rng(seed)
    chains = phi4._MCMC_CHAINS
    n_burn, n_meas = burnin // chains, n_measure_sweeps // chains
    mass = np.diag(model.a_matrix) + model.nu + mass_shift
    off, _, _, order = _class_rows(model)
    phi = np.zeros((n, chains))

    def field(i):
        return model.h[i] - off[i] @ phi

    for i in order:
        phi[i] = phi4._site_minimum(g, mass[i], field(i))

    def advance(sweeps, record=None):
        z = rng.standard_normal((sweeps, n, chains)) * math.sqrt(0.5)
        log_u = np.log(rng.random((sweeps, n, chains)))
        accepted = np.zeros(n)
        for s in range(sweeps):
            for r, i in enumerate(order):
                x, b = phi[i], field(i)
                mode = phi4._site_minimum(g, mass[i], b)
                curv = 0.5 * mass[i] + 0.5 * g * mode * mode
                half_kappa = np.sqrt(curv * curv + 0.5 * g)
                y = mode + z[s, r] / np.sqrt(half_kappa)
                ratio = ((x + y) * (0.5 * mass[i] + 0.25 * g * (x * x + y * y))
                         - b - half_kappa * ((x + y) - (mode + mode))) * (x - y)
                take = log_u[s, r] < ratio
                phi[i] = np.where(take, y, x)
                accepted[i] += np.count_nonzero(take)
            if record is not None:
                record[s] = phi
        return accepted

    block = phi4._MCMC_DRAW_SWEEPS
    for start in range(0, n_burn, block):
        advance(min(block, n_burn - start))
    samples = np.empty((n_meas, n, chains))
    accepted = np.zeros(n)
    for start in range(0, n_meas, block):
        sweeps = min(block, n_meas - start)
        accepted += advance(sweeps, samples[start:start + sweeps])
    return samples, accepted


def _reference_estimate(samples, accepted):
    """(cov, stderr, acceptance, tau) of site-order samples, as
    ``metropolis_moments`` takes them."""
    n_meas, n, chains = samples.shape
    n_kept = n_meas * chains
    series = samples.transpose(2, 0, 1)
    tau = max(_integrated_autocorr(series.sum(axis=2)),
              _integrated_autocorr((series**2).sum(axis=2)))
    dev = series - series.reshape(-1, n).mean(axis=0)
    s1 = dev.sum(axis=1)
    s2 = np.einsum("csi,csj->cij", dev, dev)
    t1, t2 = s1.sum(axis=0), s2.sum(axis=0)

    def cov_from(sum1, sum2, count):
        shift = sum1 / count
        return (sum2 - count * shift[..., :, None] * shift[..., None, :]) / (count - 1)

    cov = cov_from(t1, t2, n_kept)
    cov_jack = cov_from(t1 - s1, t2 - s2, n_kept - n_meas)
    stderr = float(np.max(np.sqrt(
        (chains - 1) * np.mean((cov_jack - cov_jack.mean(0)) ** 2, axis=0))))
    return cov, stderr, float(accepted.sum() / (n_kept * n)), tau


@pytest.mark.parametrize("model, mass_shift, sweeps", [
    (Phi4Model(_ring(3), 1.0, -1.0, np.zeros(3)), 1.0, (200, 200)),
    (Phi4Model(_ring(4), 1.0, -1.0, [0.3, 0.0, -0.2, 0.1]), 1.0, (200, 200)),
    # class order 0 2 4 1 3 5 is not its own inverse, as 0 2 1 3 is
    (Phi4Model(_ring(6), 1.0, -1.0, [0.3, 0.0, -0.2, 0.1, 0.0, 0.5]), 1.0,
     (200, 200)),
    (Phi4Model([[1.5]], 1.0, -0.5, [0.7]), 0.8, (200, 200)),
    # each class {0, 2} and {1, 3} holds two site masses, so two parts
    (Phi4Model(_ring(4) + np.diag([0.0, 0.3, 0.2, -0.2]), 1.0, -1.0,
               [0.3, 0.0, -0.2, 0.1]), 1.0, (200, 200)),
    # m2 = -1.5 on every site: the random walk, whose tau here is near 57
    (Phi4Model(_ring(4), 1.0, -5.0, [0.3, 0.0, -0.2, 0.1]), 1.0, (1280, 320)),
], ids=["ring3", "ring4-classes", "ring6-classes", "one-site-field",
        "ring4-site-masses", "ring4-double-well-walk"])
def test_in_place_sweep_is_the_reference_chain_to_the_bit(model, mass_shift,
                                                          sweeps):
    burnin, n_measure = (k * phi4._MCMC_CHAINS for k in sweeps)
    mass = np.diag(model.a_matrix) + model.nu + mass_shift
    reference = (_reference_independence if np.all(mass > 0)
                 else _reference_walk)
    cov, stderr, acceptance, tau = _reference_estimate(*reference(
        model, mass_shift, seed=17, n_measure_sweeps=n_measure, burnin=burnin))
    est = metropolis_moments(model, mass_shift=mass_shift, field=model.h,
                             seed=17, n_measure_sweeps=n_measure, burnin=burnin)
    assert np.array_equal(est.value, cov)
    assert est.stderr == stderr
    assert est.acceptance == acceptance
    assert_allclose(est.tau, tau, rtol=1e-12)


def _mcmc_z(model, mass_shift, field, seeds):
    """(z of each seed's Metropolis covariance entry [0, 0] against the
    quadrature one, in its stated stderr, and the estimates) at the default
    budgets."""
    want = lattice_moments(model, mass_shift, field).value[0, 0]
    ests = [metropolis_moments(model, mass_shift, field, seed=seed)
            for seed in seeds]
    return np.array([(e.value[0, 0] - want) / e.stderr for e in ests]), ests


@pytest.mark.parametrize("model, mass_shift, field", [
    (Phi4Model([[1.0]], 1.0, 0.0, [0.0]), 1.0, [0.0]),
    (Phi4Model([[1.5]], 1.0, -0.5, [0.7]), 0.8, [0.7]),
    # the dwell site at t = 3: m2 = 1/3
    (Phi4Model([[1.0]], 1.0, -1.0, [0.0]), 1.0 / 3.0, [0.0]),
], ids=["one-site", "one-site-field", "dwell-t3"])
def test_mcmc_stderr_is_calibrated_against_quadrature(model, mass_shift,
                                                      field):
    # over 20 seeds the z scores of a calibrated stderr have rms near 1: a
    # stderr that is too small or too large by a third shows
    z, ests = _mcmc_z(model, mass_shift, field, range(20))
    assert 0.7 <= math.sqrt(np.mean(z * z)) <= 1.3
    assert all(e.acceptance > 0.8 for e in ests)


def test_mcmc_chi_on_convex_lattices_is_within_three_stderr():
    # 10 seeds on ring3 at each of the benchmark's three times, 40 on each
    # of two tilted sites; any NonConvergenceError fails the test
    ring3 = Phi4Model(_ring(3), 1.0, -1.0, np.zeros(3))
    for t in (0.5, 1.0, 2.0):
        want = susceptibility(ring3, t).value
        for seed in range(10):
            mc = susceptibility(ring3, t, method="mcmc", seed=seed)
            assert abs(mc.value - want) <= 3.0 * mc.stderr
            assert mc.tau <= 2.5 and mc.n_samples >= 8000
    # y* = 1 and 1.85: a proposal of precision u''(y*) is too narrow on the
    # side toward 0, and its chains stick there: on these seeds three trip
    # the burn-in guard at h = 3 and one reads z = -4.1 at h = 10
    for h in (3.0, 10.0):
        tilted = Phi4Model([[1.0]], 1.0, 0.0, [h])
        z, _ = _mcmc_z(tilted, 1.0, tilted.h, range(40))
        assert np.all(np.abs(z) <= 3.0)


def test_double_well_mcmc_takes_the_walk_budgets():
    # m2 = -3: the random walk, whose tau near 11 needs 20 tau = 220 burn-in
    # sweeps per chain, more than the 128 of the default budgets
    m = Phi4Model([[1.0]], 1.0, -5.0, [0.0])
    mc = susceptibility(m, 1.0, method="mcmc", seed=4)
    assert mc.converged and mc.n_samples >= 1000
    assert abs(mc.value - susceptibility(m, 1.0).value) <= 3.0 * mc.stderr
    with pytest.raises(NonConvergenceError, match="burn-in"):
        metropolis_moments(m, 1.0, [0.0], seed=4)


@pytest.mark.parametrize("g", [0.0, 1e-6, 1.0, 1e4])
@pytest.mark.parametrize("m2", [1e-3, 1.0, 100.0])
def test_site_minimum_of_an_array_is_the_scalar_one_to_the_bit(g, m2):
    eta = np.array([0.0, 1e-4, -1e-4, 0.3, -0.3, 1e3, -1e3])
    scalar = [phi4._site_minimum(g, m2, e) for e in eta]
    assert np.array_equal(phi4._site_minimum(g, m2, eta), scalar)
    # as the sampler passes it: sites by chains
    grid = np.tile(eta, (2, 3))
    assert np.array_equal(phi4._site_minimum(g, m2, grid), np.tile(scalar, (2, 3)))


def test_tilted_covariance_gaussian_is_schedule_covariance():
    m = Phi4Model([[1.0]], 0.0, 0.0, [0.0])
    sched = m.schedule()
    for t in (0.5, 2.0):
        c, _, _ = sched.eval(t)
        for phi in ([0.0], [1.3], [-0.4]):
            got = tilted_covariance(m, t, phi).value
            assert np.max(np.abs(got - c)) < 1e-12


def test_tilted_covariance_symmetric_point_is_second_moment():
    m = Phi4Model([[1.0]], 1.0, 0.0, [0.0])
    got = tilted_covariance(m, 1.0, [0.0]).value[0, 0]
    mean, cov = oracles.quartic_lattice_moments([[2.0]], 1.0, 0.0, [0.0])
    assert abs(mean[0]) < 1e-12
    assert abs(got - cov[0, 0]) < 1e-9


def test_tilted_covariance_2d_vs_dense_oracle():
    m = Phi4Model(A_NN, 1.0, 0.0, [0.0, 0.0])
    phi = np.array([0.3, -0.2])
    got = tilted_covariance(m, 1.0, phi).value
    field = (A_NN + np.eye(2)) @ phi
    _, cov = oracles.quartic_lattice_moments(A_NN, 1.0, 1.0, field, tol=1e-10)
    assert np.max(np.abs(got - cov)) < 1e-6


def test_schedules_gaussian_closed_forms():
    m = Phi4Model([[1.0]], 0.0, 0.0, [0.0])
    out = phi4_schedules(m, [1.0])
    assert_allclose(out["lambda_prime"][0], 0.5, atol=1e-12)
    assert_allclose(out["alpha_prime_formula"][0], 2.5, atol=1e-10)
    # g = 0: Sigma_t(phi) = (A + nu + 1/t)^{-1} at every phi
    sigma = tilted_covariance(m, 1.0, [0.9]).value[0, 0]
    assert_allclose(out["sigma_inf"][0], sigma, atol=1e-12)
    assert_allclose(out["sigma_min"][0], sigma, atol=1e-12)
    # exact corrective rate is dominated by the formula
    exact = build_schedule(m.schedule(), m.potential(), [0.0, 1.0],
                           np.zeros((1, 1)),
                           QuadratureRule(order=40)).alpha_prime[1]
    assert_allclose(exact, 0.5, atol=1e-12)
    assert out["alpha_prime_formula"][0] >= exact - 1e-8


def test_gaussian_reduction_matches_schedule_closed_forms():
    m = Phi4Model([[1.0]], 0.0, 0.0, [0.0])
    for t in (0.3, 1.0, 4.0):
        facts = oracles.pauli_villars_facts(1.0, t)
        chi = susceptibility(m, t).value
        sig = tilted_covariance(m, t, [0.9]).value[0, 0]
        lam = 1.0 / t - chi / t**2
        assert abs(chi - facts["chi"]) < 1e-10
        assert abs(sig - facts["chi"]) < 1e-10
        assert abs(lam - facts["lambda_prime"]) < 1e-10
        # formula with Sigma = C_t reduces to the closed form
        assert abs((1.0 / t - sig / t**2 + 1.0 * (t + 1.0))
                   - facts["alpha_prime_formula"]) < 1e-10


def test_bound_domination_quartic():
    m = Phi4Model([[1.0]], 1.0, 0.0, [0.0])
    sched, V0 = m.schedule(), m.potential()
    q = QuadratureRule(order=60)
    samples = np.linspace(-3, 3, 9).reshape(-1, 1)
    out = phi4_schedules(m, [0.5, 1.0, 2.0])
    exact = build_schedule(sched, V0, [0.0, 0.5, 1.0, 2.0], samples,
                           q).alpha_prime[1:]
    assert np.all(out["alpha_prime_formula"] >= exact - 1e-8)


def test_schedule_rate_is_admissible():
    m = Phi4Model([[1.0]], 1.0, 0.0, [0.0])
    sched, V0 = m.schedule(), m.potential()
    q = QuadratureRule(order=60)
    samples = np.linspace(-4, 4, 17).reshape(-1, 1)
    out = phi4_schedules(m, [1.0])
    margin = build_schedule(sched, V0, [0.0, 1.0], samples, q).lambda_prime[1]
    assert margin >= out["lambda_prime"][0] - 1e-6


@pytest.mark.parametrize("a_matrix", [[[1.0]], A_NN.tolist()])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_tilted_sigma_min_has_no_positive_floor(a_matrix, t):
    # the tilted measure concentrates as |phi| grows, so for g > 0
    # inf_phi lambda_min(Sigma_t(phi)) is 0 and is not attained
    m = Phi4Model(a_matrix, 1.0, -1.0, np.zeros(len(a_matrix)))
    sig = []
    for size in (0.0, 10.0, 100.0, 1000.0):
        est = tilted_covariance(m, t, np.full(m.n_sites, size))
        assert est.converged
        sig.append(np.linalg.eigvalsh(est.value)[0])
    assert all(b < a for a, b in zip(sig, sig[1:]))
    assert sig[-1] < 1e-2


@pytest.mark.parametrize("a_matrix, want", [([[1.0]], [3.5, 3.5]),
                                            (A_NN.tolist(), [9.5, 21.5])])
def test_alpha_prime_formula_takes_the_zero_infimum(a_matrix, want):
    # g > 0: alpha' <= 1/t + lambda_max(A) (t lambda_max(A) + 1)
    m = Phi4Model(a_matrix, 1.0, -1.0, np.zeros(len(a_matrix)))
    out = phi4_schedules(m, [0.5, 2.0])
    assert np.array_equal(out["sigma_inf"], [0.0, 0.0])
    assert_allclose(out["alpha_prime_formula"], want, rtol=1e-14)


def _count_shifted_moments(monkeypatch, converged=True):
    """Record (t, field) of every moments pass; flag each estimate
    unconverged unless ``converged``."""
    import dataclasses

    calls = []
    real = phi4._shifted_moments

    def counting(model, t, field, *args, **kwargs):
        calls.append((t, tuple(field.tolist())))
        est = real(model, t, field, *args, **kwargs)
        return est if converged else dataclasses.replace(est, converged=False)

    monkeypatch.setattr(phi4, "_shifted_moments", counting)
    return calls


def test_schedules_read_each_distinct_time_once_per_field(monkeypatch):
    # chi_t and lambda'_t from the zero-field moments, sigma_min from the
    # moments at the model's field h, each taken once per distinct time
    m = Phi4Model(A_NN, 1.0, -1.0, [0.25, -0.5])
    calls = _count_shifted_moments(monkeypatch)
    out = phi4_schedules(m, [1.0, 0.5, 1.0])
    assert sorted(calls) == [(0.5, (0.0, 0.0)), (0.5, (0.25, -0.5)),
                             (1.0, (0.0, 0.0)), (1.0, (0.25, -0.5))]
    monkeypatch.undo()
    for i, t in enumerate([1.0, 0.5, 1.0]):
        chi = susceptibility(m, t)
        sigma = np.linalg.eigvalsh(tilted_covariance(m, t, [0.0, 0.0]).value)[0]
        assert out["chi"][i] == chi.value
        assert out["chi_stderr"][i] == chi.stderr
        assert out["lambda_prime"][i] == 1.0 / t - chi.value / t**2
        assert out["sigma_min"][i] == sigma
        assert out["sigma_inf"][i] == 0.0


def test_schedules_reject_an_unconverged_estimate(monkeypatch):
    # an estimate flagged unconverged raises instead of being read
    _count_shifted_moments(monkeypatch, converged=False)
    with pytest.raises(NonConvergenceError,
                       match=r"^lattice moments at t = 0\.5 did not converge$"):
        phi4_schedules(Phi4Model([[1.0]], 1.0, -1.0, [0.0]), [0.5, 2.0])


def test_susceptibility_nondecreasing_in_t():
    m = Phi4Model([[1.0]], 1.0, -0.5, [0.0])
    chis = [susceptibility(m, t).value for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a - 1e-12 for a, b in zip(chis, chis[1:]))


def test_hessian_identity_gaussian_exact():
    m = Phi4Model([[1.0]], 0.0, 0.0, [0.0])
    err = hessian_identity_check(m, 1.0, [[0.0], [0.7]])
    assert err < 1e-9


@pytest.mark.parametrize("a_matrix,phis", [
    (np.array([[1.0]]), [[0.0], [0.9]]),
    (A_NN, [[0.0, 0.0], [0.4, -0.7]]),
])
def test_hessian_identity_quartic(a_matrix, phis):
    m = Phi4Model(a_matrix, 1.0, 0.0, np.zeros(a_matrix.shape[0]))
    err = hessian_identity_check(m, 1.0, phis)
    assert err <= 1e-5


def test_hessian_identity_takes_the_rates_hessian(monkeypatch):
    # a 1e-3 bias in the kernel every sampled rate comes from shows in the check
    kernel = potential._tilted_derivatives

    def biased(*args):
        grads, hess = kernel(*args)
        return grads, hess * (1.0 + 1e-3)

    monkeypatch.setattr(potential, "_tilted_derivatives", biased)
    m = Phi4Model(A_NN, 1.0, 0.0, np.zeros(2))
    assert hessian_identity_check(m, 1.0, [[0.0, 0.0], [0.4, -0.7]]) > 1e-4


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_hessian_identity_ring3(t):
    m = Phi4Model(_ring(3), 1.0, -1.0, np.zeros(3))
    phis = np.random.default_rng(5).normal(0.0, 1.0, size=(4, 3))
    assert hessian_identity_check(m, t, phis) <= 1e-5


@pytest.mark.parametrize("t", [3e-6, 1e-6])
def test_chi_at_large_mass_shift_matches_the_oracle(t):
    # the marginal is about sqrt(t) wide: the site window must shrink too
    m = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    _, var = oracles.quartic_site_moments(1.0, -1.0, 0.0, t / (1.0 + t), 0.0)
    assert abs(susceptibility(m, t).value - var) <= 1e-10 * var


@pytest.mark.parametrize("phi", [2.0, 3.0])
def test_tilted_marginal_at_large_mass_shift_matches_the_oracle(phi):
    # the tilt (1 + 1/t) phi puts a marginal about sqrt(t) wide near phi
    t = 1e-6
    m = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    _, var = oracles.quartic_site_moments(1.0, -1.0, 0.0, t / (1.0 + t), phi)
    got = tilted_covariance(m, t, [phi]).value[0, 0]
    assert abs(got - var) <= 1e-8 * var


def test_strong_field_matches_both_oracles():
    # h = 1e3 at t = 0.5: the site action has its minimum near 9.93, and
    # the marginal there is about 0.06 wide
    m = Phi4Model([[1.0]], 1.0, -1.0, [1e3])
    mean, var = oracles.quartic_site_moments(1.0, -1.0, 1e3, 1.0 / 3.0, 0.0)
    lattice_mean, lattice_cov = oracles.quartic_lattice_moments(
        [[1.0]], 1.0, 1.0, [1e3])
    assert abs(lattice_mean[0] - mean) <= 1e-12 * mean
    assert abs(lattice_cov[0, 0] - var) <= 1e-10 * var
    got = tilted_covariance(m, 0.5, [0.0]).value[0, 0]
    assert abs(got - var) <= 1e-10 * var


@pytest.mark.parametrize("h", [1e3, 30.0, 3.0])
def test_tilted_double_well_matches_the_oracle(h):
    # m2 = 1 - 5 + 2 < 0: the window centres on the well the tilt favours
    m = Phi4Model([[1.0]], 1.0, -5.0, [h])
    est = tilted_covariance(m, 0.5, [0.0])
    _, cov = oracles.quartic_lattice_moments([[1.0]], 1.0, -3.0, [h])
    assert est.converged
    assert abs(est.value[0, 0] - cov[0, 0]) <= 1e-10 * cov[0, 0]


def _double_well_variance(h):
    """Variance of exp(-(-y^2 + y^4/4 - h y)), the site of
    Phi4Model([[1]], 1, -5, [h]) at mass shift 2, by a dense trapezoid over
    both wells."""
    y = np.linspace(-8.0, 8.0, 400_001)
    s = -y**2 + 0.25 * y**4 - h * y
    w = np.exp(-(s - s.min()))
    mean = np.trapezoid(y * w, y) / np.trapezoid(w, y)
    return np.trapezoid((y - mean) ** 2 * w, y) / np.trapezoid(w, y)


@pytest.mark.parametrize("h", [0.0, 0.3])
def test_weakly_tilted_double_well_matches_a_dense_trapezoid(h):
    # both wells carry weight: the site rule must resolve the pair
    est = tilted_covariance(Phi4Model([[1.0]], 1.0, -5.0, [h]), 0.5, [0.0])
    want = _double_well_variance(h)
    assert est.converged
    assert abs(est.value[0, 0] - want) <= 1e-10 * want


@pytest.mark.parametrize("t", np.geomspace(0.05, 3.0, 8).tolist())
def test_dwell_chi_matches_the_oracle(t):
    # the README dwell t grid; at 0.93, 1.67 and 3 the reweighted order-112
    # Gauss-Hermite rule was off by 7.6e-9 to 3.7e-7
    m = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    _, cov = oracles.quartic_lattice_moments([[1.0]], 1.0, -1.0 + 1.0 / t,
                                             [0.0], tol=1e-13)
    est = susceptibility(m, t)
    assert est.converged
    assert abs(est.value - cov[0, 0]) <= 1e-12 * cov[0, 0]


@pytest.mark.parametrize("eta", [0.0, 0.4, -2.0])
def test_site_minimum_at_zero_site_mass(eta):
    # m2 = 0: g y^3 = eta, so y = cbrt(eta / g), and 0 at eta = 0
    y = phi4._site_minimum(2.0, 0.0, eta)
    assert math.isfinite(y)
    assert abs(y - np.cbrt(eta / 2.0)) <= 1e-15 * max(1.0, abs(y))


def _wide_double_well_variance(eta, g=0.01, m2=-20.0):
    """Variance of exp(-(m2 y^2/2 + g y^4/4 - eta y)), the site of
    Phi4Model([[1]], g, m2 - 2, [0]) at mass shift 1, by a dense trapezoid
    over both wells: at the defaults they sit at +-44.7, each about 0.16
    wide."""
    span = 1.35 * math.sqrt(-m2 / g)
    y = np.linspace(-span, span, 2_000_001)
    s = 0.5 * m2 * y**2 + 0.25 * g * y**4 - eta * y
    w = np.exp(-(s - s.min()))
    mean = np.trapezoid(y * w, y) / np.trapezoid(w, y)
    return np.trapezoid((y - mean) ** 2 * w, y) / np.trapezoid(w, y)


@pytest.mark.parametrize("nodes, resolved", [(21, False), (41, True)])
def test_site_trapezoid_halving_flags_an_unresolved_window(nodes, resolved,
                                                           monkeypatch):
    # on 21 nodes per interval the variances of the two wells at +-44.7
    # (eta = 0.3) and of the dwell site are 5.4e-7 and 5.2e-7 off, which the
    # order drift (2e-14) cannot see; their variances move by 0.22 and 9e-3
    # from the even-indexed nodes to all.  On 41 nodes they move by 5e-7
    monkeypatch.setattr(phi4, "_SITE_NODES", nodes)
    _, dwell = oracles.quartic_lattice_moments([[1.0]], 1.0, 0.0, [0.0],
                                               tol=1e-13)
    for model, eta, want in (
            (Phi4Model([[1.0]], 0.01, -22.0, [0.0]), 0.3,
             _wide_double_well_variance(0.3)),
            (Phi4Model([[1.0]], 1.0, -1.0, [0.0]), 0.0, dwell[0, 0])):
        est = lattice_moments(model, 1.0, [eta])
        assert est.converged is resolved
        if resolved:
            assert abs(est.value[0, 0] - want) <= 1e-11 * want


@pytest.mark.parametrize("g, nu, eta", [(0.01, -22.0, 0.3), (0.001, -21.0, 0.0)])
def test_site_trapezoid_matches_a_dense_reference(g, nu, eta):
    # narrow wells far apart (at +-44.7 and at +-138): 601 nodes on one
    # window over the latter pair read chi 3.2e-4 low, so each well takes
    # its own 601
    est = lattice_moments(Phi4Model([[1.0]], g, nu, [0.0]), 1.0, [eta])
    want = _wide_double_well_variance(eta, g, nu + 2.0)
    assert est.converged
    assert abs(est.value[0, 0] - want) <= 1e-11 * want


# Narrow wells far apart, which one window over both hides between its
# nodes: at +-424, +-4,472 and +-990, 0.07 to 0.17 wide.  References:
# 50-digit mpmath quad of exp(-(u - min u)) times 1, y - y_k and
# (y - y_k - mean_k)^2 over each basin of the site action u (split at its
# local maximum and about its minimum y_k)
@pytest.mark.parametrize("g, nu, eta, variance", [
    (1e-4, -20.0, 0.0, 179999.944444392995),
    (1e-6, -22.0, 2e-4, 9816256.47336139607),
    (1e-4, -100.0, 1 / 989.95, 411575.179000728941),
])
def test_narrow_far_wells_are_pinned(g, nu, eta, variance):
    est = lattice_moments(Phi4Model([[1.0]], g, nu, [0.0]), 1.0, [eta])
    assert est.converged
    assert abs(est.value[0, 0] - variance) <= 1e-9 * variance


def test_site_far_from_zero_keeps_its_variance_digits():
    # mean 9,899.5 and standard deviation 0.071: moments taken of absolute
    # nodes lost digits (6.9e-12 off).  Reference: 50-digit mpmath quad of
    # exp(-(u - u(y*))) times 1, y and (y - mean)^2 over [y* - 2, y* + 2],
    # y* = 9899.5459566 the mode of u = g y^4/4 + m2 y^2/2 - eta y
    est = lattice_moments(Phi4Model([[1.0]], 1e-6, -100.0, [0.0]), 1.0,
                          [10.0])
    want = 0.0051019619346461238349
    assert est.converged
    assert abs(est.value[0, 0] - want) <= 1e-13 * want


def _site_variance(g, m2, eta):
    """Variance of exp(-u), u = g y^4/4 + m2 y^2/2 - eta y with g > 0, by
    Simpson's rule on 40,001 nodes over each basin of u: about its minimum
    y_k, out to where u - u(y_k) passes 80 or to the local maximum, and
    weighted by exp(min u - u(y_k)), that lift taken exactly in rationals
    (a basin lifted past 100 is left out).  Simpson, not the trapezoid:
    y exp(-u) is not flat at the barrier."""
    crit = np.roots([g, 0.0, m2, -eta])
    crit = np.sort(crit[np.abs(crit.imag) <= 1e-9 * np.abs(crit)].real)
    basins = [(crit[0], -math.inf, math.inf)] if len(crit) == 1 else [
        (crit[0], -math.inf, crit[1]), (crit[2], crit[1], math.inf)]
    lifts = [Fraction(g) * Fraction(y) ** 4 / 4 + Fraction(m2) * Fraction(y) ** 2 / 2
             - Fraction(eta) * Fraction(y) for y, _, _ in basins]
    lifts = [float(lift - min(lifts)) for lift in lifts]
    parts = []
    for (y, lo, hi), lift in zip(basins, lifts):
        if lift > 100.0:
            continue

        def rise(e, y=y):                        # u(y + e) - u(y)
            return (0.5 * (m2 + 3.0 * g * y * y)
                    + (g * y + 0.25 * g * e) * e) * e * e

        ends = []
        for side, wall in ((-1.0, lo), (1.0, hi)):
            s = 1.0 / max(math.sqrt(abs(m2 + 3.0 * g * y * y)), g ** 0.25)
            while rise(side * s) <= 80.0 and s < abs(wall - y):
                s *= 2.0
            ends.append(side * min(s, abs(wall - y)))
        e = np.linspace(*ends, 40_001)
        w = np.exp(-lift - rise(e))
        z = simpson(w, x=e)
        mean = simpson(w * e, x=e) / z
        parts.append((z, y + mean, simpson(w * (e - mean) ** 2, x=e) / z))
    z, mean, var = np.array(parts).T
    centre = z @ mean / z.sum()
    return z @ (var + (mean - centre) ** 2) / z.sum()


def test_site_sweep_converges_to_the_dense_reference_or_raises():
    # one-site models over a grid of g, m2 = nu + 2 and both signs of eta:
    # a converged variance must hold to 1e-9, and no error but
    # NonConvergenceError may escape
    bad = []
    for g, nu, eta in itertools.product(
            [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4],
            [-100.0, -20.0, -3.0, -2.0, -1.0, 1.0, 100.0],
            [0.0, 1e-4, -1e-4, 0.3, -0.3, 10.0, -10.0, 1e3, -1e3]):
        try:
            est = lattice_moments(Phi4Model([[1.0]], g, nu, [0.0]), 1.0, [eta])
        except NonConvergenceError:
            continue
        want = _site_variance(g, nu + 2.0, eta)
        if not (est.converged and abs(est.value[0, 0] - want) <= 1e-9 * want):
            bad.append((g, nu, eta, est.converged, est.value[0, 0], want))
    assert not bad


def _strong_field_site_variance(h):
    """Variance of exp(-(1.5 y^2 + y^4/4 - h y)), the site of
    Phi4Model([[1]], 1, 0, [h]) at mass shift 2, by a dense trapezoid
    about its mean: mean 46.4 and variance 1.5e-4 at h = 1e5."""
    centre = np.roots([1.0, 0.0, 3.0, -h]).real.max()
    y = np.linspace(centre - 0.5, centre + 0.5, 200_001)
    s = 1.5 * y**2 + 0.25 * y**4 - h * y
    w = np.exp(-(s - s.min()))
    mean = np.trapezoid(y * w, y) / np.trapezoid(w, y)
    return np.trapezoid((y - mean) ** 2 * w, y) / np.trapezoid(w, y)


def test_oracle_variance_of_a_strongly_tilted_site():
    # m2 - m1^2 cancels seven digits of m2 = 2152; moments about the mean
    # do not
    want = _strong_field_site_variance(1e5)
    _, cov = oracles.quartic_lattice_moments([[1.0]], 1.0, 2.0, [1e5])
    assert abs(cov[0, 0] - want) <= 1e-8 * want


def test_strongly_tilted_site_converges():
    # a mean of 46.4 and a standard deviation of 0.012: the drift test
    # must judge the means against the latter
    est = lattice_moments(Phi4Model([[1.0]], 1.0, 0.0, [1e5]), 2.0, [1e5])
    want = _strong_field_site_variance(1e5)
    assert est.converged
    assert abs(est.value[0, 0] - want) <= 1e-8 * want


def test_susceptibility_rejects_zero_time():
    m = Phi4Model([[1.0]], 1.0, 0.0, [0.0])
    with pytest.raises(ValueError, match="t > 0"):
        susceptibility(m, 0.0)


def test_quadrature_order_convergence_flag():
    m = Phi4Model([[1.0]], 1.0, 0.0, [0.0])
    est = susceptibility(m, 1.0)
    assert est.converged
    assert est.stderr == 0.0
