import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rgflow import make_schedule
from rgflow.flow import GridFunction, default_box, make_flow_measure
from rgflow.potential import PotentialDescriptor, QuadratureRule
from rgflow.spectral import (build_generator, build_generator_from_density,
                             rayleigh_flow_trace, rayleigh_quotient, spectrum)
from rgflow import oracles


@pytest.fixture(scope="module")
def ou_setup():
    sched = make_schedule("heat-kernel", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.zero(1)
    q = QuadratureRule(order=40, dimension=1)
    box = default_box(sched)
    fm = make_flow_measure(sched, V0, 0.0, 1025, box=box, q=q)
    return sched, V0, q, box, fm


@pytest.fixture(scope="module")
def ou_gen(ou_setup):
    _, _, _, _, fm = ou_setup
    return build_generator(fm, trim=False)


def test_ou_spectrum_matches_ladder(ou_gen):
    res = spectrum(ou_gen, k=4, refine=True)
    want = oracles.ou_spectrum(4)
    assert res.eigenvalues[0] <= 1e-8
    assert np.max(np.abs(res.eigenvalues[1:] - want[1:]) / want[1:]) < 3e-3
    assert res.converged
    assert_allclose(res.poincare_constant, 1.0, atol=1e-6)


def test_generator_weighted_symmetry_and_kernel(ou_gen):
    rng = np.random.default_rng(0)
    n = ou_gen.n_nodes
    for _ in range(4):
        f, g = rng.standard_normal(n), rng.standard_normal(n)
        lf = ou_gen.apply(f).reshape(-1)
        lg = ou_gen.apply(g).reshape(-1)
        lhs = float((ou_gen.mass * lf) @ g)
        rhs = float((ou_gen.mass * lg) @ f)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale
    const = np.ones(n)
    norm_e = np.max(np.abs(ou_gen.stiffness.data)) * n
    assert np.linalg.norm(ou_gen.stiffness @ const) <= 1e-10 * norm_e
    # positive semidefinite Rayleigh quotients
    rng = np.random.default_rng(1)
    for _ in range(4):
        f = rng.standard_normal(n)
        assert ou_gen.dirichlet_form(f, f) >= -1e-10


def test_eigenvectors_weighted_orthonormal(ou_gen):
    res = spectrum(ou_gen, k=3, refine=False)
    for i, vi in enumerate(res.eigenvectors):
        for j, vj in enumerate(res.eigenvectors):
            ip = ou_gen.weighted_inner(vi.values, vj.values)
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-8


def test_standard_gaussian_unweighted_poincare_is_one(ou_setup):
    _, _, _, _, fm = ou_setup
    gen = build_generator(fm, cprime=np.eye(1), trim=False)
    res = spectrum(gen, k=1, refine=False)
    assert_allclose(res.poincare_constant, 1.0, atol=1e-6)


def test_weighted_constant_stays_one_along_flow(ou_setup):
    sched, V0, q, box, _ = ou_setup
    for t in (0.5, 1.0, 2.0):
        fm = make_flow_measure(sched, V0, t, 513, box=box, q=q)
        res = spectrum(build_generator(fm), k=1, refine=False)
        assert abs(res.poincare_constant - 1.0) < 1e-4


def test_weighted_vs_unweighted_discrepancy_flagged(ou_setup):
    # the two metrics answer different questions; both are reported
    sched, V0, q, box, _ = ou_setup
    t = 1.0
    fm = make_flow_measure(sched, V0, t, 513, box=box, q=q)
    weighted = spectrum(build_generator(fm), k=1, refine=False).poincare_constant
    unweighted = spectrum(build_generator(fm, cprime=np.eye(1)), k=1,
                          refine=False).poincare_constant
    assert_allclose(weighted, 1.0, atol=1e-4)
    assert_allclose(unweighted, math.exp(-t), rtol=1e-3)
    assert abs(weighted - unweighted) > 0.5  # the flagged discrepancy


def test_double_well_fine_grid_oracle():
    sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, dimension=1)
    q = QuadratureRule(order=80, dimension=1)
    box = default_box(sched)
    fm_fine = make_flow_measure(sched, V0, 0.0, 4097, box=box, q=q)
    cp_fine = spectrum(build_generator(fm_fine), k=1,
                       refine=False).poincare_constant
    fm = make_flow_measure(sched, V0, 0.0, 513, box=box, q=q)
    cp = spectrum(build_generator(fm), k=1, refine=False).poincare_constant
    assert abs(cp - cp_fine) / cp_fine < 5e-3


def test_eigenvalue_convergence_order(ou_setup):
    sched, V0, q, box, _ = ou_setup
    errs = []
    for n in (129, 257, 513):
        fm = make_flow_measure(sched, V0, 0.0, n, box=box, q=q)
        res = spectrum(build_generator(fm, trim=False), k=2, refine=False)
        errs.append(abs(res.eigenvalues[2] - 2.0))
    order1 = math.log(errs[0] / errs[1]) / math.log(2.0)
    order2 = math.log(errs[1] / errs[2]) / math.log(2.0)
    assert min(order1, order2) >= 1.8


def test_generator_annihilates_constants(ou_gen):
    out = ou_gen.apply(np.ones(ou_gen.n_nodes))
    assert np.max(np.abs(out)) < 1e-10


def test_underflow_box_rejected():
    sched = make_schedule("heat-kernel", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.zero(1)
    q = QuadratureRule(order=40, dimension=1)
    from rgflow.flow import Box
    fm = make_flow_measure(sched, V0, 0.0, 513, box=Box((-300.0,), (300.0,)), q=q)
    with pytest.raises(ValueError, match="box too large"):
        build_generator(fm)


def test_rayleigh_quotient_contracts(ou_gen):
    res = spectrum(ou_gen, k=2, refine=False)
    mu1, mu2 = res.eigenvalues[1], res.eigenvalues[2]
    r1 = rayleigh_quotient(ou_gen, res.eigenvectors[1])
    assert abs(r1 - mu1) < 1e-8
    combo = res.eigenvectors[1].values + res.eigenvectors[2].values
    rc = rayleigh_quotient(ou_gen, combo)
    assert abs(rc - 0.5 * (mu1 + mu2)) < 1e-6
    xs = ou_gen.box.axes(ou_gen.grid_shape)[0]
    assert abs(rayleigh_quotient(ou_gen, xs.copy()) - 1.0) < 1e-6
    with pytest.raises(ValueError, match="degenerate"):
        rayleigh_quotient(ou_gen, np.ones(ou_gen.n_nodes))


def test_rayleigh_lower_bound(ou_gen):
    rng = np.random.default_rng(5)
    res = spectrum(ou_gen, k=1, refine=False)
    xs = ou_gen.box.axes(ou_gen.grid_shape)[0]
    for _ in range(5):
        f = np.exp(-xs**2 / rng.uniform(1.5, 4.0)) * rng.standard_normal() \
            + xs * rng.standard_normal()
        assert rayleigh_quotient(ou_gen, f) >= res.eigenvalues[1] - 1e-8


def test_rayleigh_flow_trace_gaussian_is_constant(ou_setup):
    sched, V0, q, box, _ = ou_setup
    xs = box.axes((513,))[0]
    phi0 = GridFunction(box, xs.copy())
    trace = rayleigh_flow_trace(sched, V0, phi0, np.linspace(0.0, 2.0, 5), q)
    for _, r in trace:
        assert abs(r - 1.0) < 1e-6


def test_rayleigh_flow_trace_rejects_constant(ou_setup):
    sched, V0, q, box, _ = ou_setup
    phi0 = GridFunction(box, np.ones(513))
    with pytest.raises(ValueError, match="degenerate"):
        rayleigh_flow_trace(sched, V0, phi0, np.linspace(0.0, 1.0, 3), q)


def test_cauchy_schwarz_slack(ou_gen):
    xs = ou_gen.box.axes(ou_gen.grid_shape)[0]
    for f in (np.exp(-xs**2 / 2), xs * np.exp(-xs**2 / 3), np.tanh(xs)):
        f = f - ou_gen.weighted_mean(f)
        energy = ou_gen.dirichlet_form(f, f)
        lf = ou_gen.apply(f)
        slack = (ou_gen.weighted_inner(f, f)
                 * ou_gen.weighted_inner(lf, lf)) - energy**2
        assert slack >= -1e-10 * max(energy**2, 1.0)


def test_integrated_bochner_identity(ou_gen):
    res = spectrum(ou_gen, k=2, refine=False)
    for k in (1, 2):
        phi = res.eigenvectors[k].values
        mu = res.eigenvalues[k]
        lphi = ou_gen.apply(phi)
        lhs = ou_gen.weighted_inner(lphi, lphi)
        rhs = mu**2 * ou_gen.weighted_inner(phi, phi)
        assert abs(lhs - rhs) / rhs < 1e-6


def test_spectrum_rejects_bad_k(ou_gen):
    with pytest.raises(ValueError, match="k must be"):
        spectrum(ou_gen, k=0)


def test_tabulated_density_generator_neumann_laplacian():
    from rgflow.flow import Box
    box = Box((-1.0,), (1.0,))
    w = np.full(401, 0.5)
    gen = build_generator_from_density(box, w)
    res = spectrum(gen, k=1, refine=False)
    # Neumann eigenvalue (pi/2)^2 on [-1, 1]
    assert_allclose(res.eigenvalues[1], (math.pi / 2.0) ** 2, rtol=1e-4)


def test_2d_gaussian_degenerate_cluster():
    # planar standard Gaussian: eigenvalues 0, 1, 1; the pair is a cluster
    sched = make_schedule("heat-kernel", c_infinity=np.eye(2))
    V0 = PotentialDescriptor.zero(2)
    q = QuadratureRule(order=16, dimension=2)
    box = default_box(sched)
    fm = make_flow_measure(sched, V0, 0.0, (65, 65), box=box, q=q)
    gen = build_generator(fm, trim=False)
    res = spectrum(gen, k=2, refine=False)
    assert res.eigenvalues[0] <= 1e-8
    assert np.max(np.abs(res.eigenvalues[1:] - 1.0)) < 5e-3
    assert [1, 2] in res.clusters


def test_1d_tridiagonal_solve_matches_dense_pencil():
    from rgflow.phi4 import Phi4Model
    from rgflow.spectral import _DENSE_CUTOFF

    # the Richardson refine grid of the 513-node dwell spectrum
    model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    q = QuadratureRule(order=80, dimension=1)
    fm = make_flow_measure(model.schedule(), model.potential(), 0.5, 513, q=q)
    gen = build_generator(fm).refiner()
    assert gen.n_nodes > _DENSE_CUTOFF
    res = spectrum(gen, k=3, refine=False)

    dinv = 1.0 / np.sqrt(gen.mass)
    b = dinv[:, None] * gen.stiffness.toarray() * dinv[None, :]
    want = np.linalg.eigh(0.5 * (b + b.T))[0][:4]
    assert_allclose(res.eigenvalues, want, rtol=1e-10, atol=1e-10 * want[1])
    vecs = np.stack([v.values.reshape(-1) for v in res.eigenvectors], axis=1)
    gram = vecs.T @ (gen.mass[:, None] * vecs)
    assert_allclose(gram, np.eye(4), atol=1e-10)


def test_arpack_nonconvergence_maps_to_nonconvergence_error(monkeypatch):
    import scipy.sparse.linalg as spla

    from rgflow.errors import NonConvergenceError
    from rgflow.flow import Box

    box = Box((-3.0, -3.0), (3.0, 3.0))
    xs = box.axes((25, 25))
    w = np.exp(-0.5 * (xs[0][:, None] ** 2 + xs[1][None, :] ** 2))
    gen = build_generator_from_density(box, w)
    assert gen.n_nodes > 600  # past the dense cutoff: the ARPACK branch

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(NonConvergenceError, match="ARPACK"):
        spectrum(gen, k=2, refine=False)


def test_singular_shift_invert_factor_maps_to_nonconvergence_error():
    from rgflow.errors import NonConvergenceError
    from rgflow.phi4 import Phi4Model

    # plaquette phi4 on a 65^2 default box: 48 nodes keep zero mass after
    # trimming, and SuperLU finds the shifted pencil exactly singular
    model = Phi4Model([[2.0, -1.0], [-1.0, 2.0]], 1.0, -1.0, [0.0, 0.0])
    sched = model.schedule()
    q = QuadratureRule(order=40, dimension=2)
    fm = make_flow_measure(sched, model.potential(), 0.05, 65,
                           box=default_box(sched), q=q)
    gen = build_generator(fm)
    assert np.count_nonzero(gen.mass == 0.0) > 0
    with np.errstate(divide="ignore"), \
            pytest.raises(NonConvergenceError, match="SuperLU"):
        spectrum(gen, k=3, refine=False)


def test_near_zero_mass_pencil_that_loses_the_kernel_raises():
    from rgflow.errors import NonConvergenceError
    from rgflow.phi4 import Phi4Model

    # plaquette phi4 on a 65^2 default box at t = 0.387: no zero-mass node,
    # but tiny masses blow up the pencil's diagonal; mu_0 came out near 1.5e15
    model = Phi4Model([[2.0, -1.0], [-1.0, 2.0]], 1.0, -1.0, [0.0, 0.0])
    sched = model.schedule()
    q = QuadratureRule(order=40, dimension=2)
    fm = make_flow_measure(sched, model.potential(), 0.387, 65,
                           box=default_box(sched), q=q)
    gen = build_generator(fm)
    assert np.count_nonzero(gen.mass == 0.0) == 0
    with pytest.raises(NonConvergenceError, match="kernel"):
        spectrum(gen, k=3, refine=False)


def test_shift_invert_solve_has_finite_restart_cap(monkeypatch):
    import scipy.sparse.linalg as spla

    from rgflow.flow import Box

    box = Box((-3.0, -3.0), (3.0, 3.0))
    xs = box.axes((25, 25))
    w = np.exp(-0.5 * (xs[0][:, None] ** 2 + xs[1][None, :] ** 2))
    gen = build_generator_from_density(box, w)
    seen = []
    real = spla.eigsh

    def spy(*args, **kwargs):
        seen.append(kwargs.get("maxiter"))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    spectrum(gen, k=2, refine=False)
    assert len(seen) == 1
    assert seen[0] is not None and 0 < seen[0] <= 1000


def test_stalling_shift_invert_solve_ends_as_nonconvergence():
    from rgflow.errors import NonConvergenceError
    from rgflow.phi4 import Phi4Model

    # without a restart cap this solve ran for more than 10 minutes
    model = Phi4Model([[1.5, -0.5], [-0.5, 1.5]], 1.0, -1.0, [0.0, 0.0])
    sched = model.schedule()
    q = QuadratureRule(order=40, dimension=2)
    fm = make_flow_measure(sched, model.potential(), 0.1, 97,
                           box=default_box(sched), q=q)
    with pytest.raises(NonConvergenceError, match="ARPACK"):
        spectrum(build_generator(fm), k=3, refine=False)
