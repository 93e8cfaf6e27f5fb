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
    q = QuadratureRule(order=40)
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
        lf = -(ou_gen.stiffness @ f) / ou_gen.mass
        lg = -(ou_gen.stiffness @ g) / ou_gen.mass
        lhs = float((ou_gen.mass * lf) @ g)
        rhs = float((ou_gen.mass * lg) @ f)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale
    const = np.ones(n)
    stiffness = ou_gen.stiffness
    norm_e = np.max(np.abs(np.concatenate([stiffness.diag, stiffness.off]))) * n
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
    q = QuadratureRule(order=80)
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
    out = -(ou_gen.stiffness @ np.ones(ou_gen.n_nodes)) / ou_gen.mass
    assert np.max(np.abs(out)) < 1e-10


def test_underflow_box_rejected():
    from rgflow.errors import QuadratureOverflowError

    sched = make_schedule("heat-kernel", c_infinity=[[1.0]])
    V0 = PotentialDescriptor.zero(1)
    q = QuadratureRule(order=40)
    from rgflow.flow import Box
    fm = make_flow_measure(sched, V0, 0.0, 513, box=Box((-300.0,), (300.0,)), q=q)
    with pytest.raises(QuadratureOverflowError, match="box too large"):
        build_generator(fm)


@pytest.mark.parametrize("half_width, window", [(12.0, 31), (13.0, 29)])
def test_underflow_share_is_counted_on_the_trimmed_window(half_width, window):
    # plaquette phi4 at t = 0.5 on 33^2 nodes: more than a fifth of the
    # grid's weights underflow (27.4 % and 37.5 %), but the trim cuts most
    # of them off, and in the window the generator is assembled on 19.4 %
    # and 19.0 % do
    from rgflow import spectral
    from rgflow.flow import Box
    from rgflow.phi4 import Phi4Model

    model = Phi4Model([[2.0, -1.0], [-1.0, 2.0]], 1.0, -1.0, [0.0, 0.0])
    fm = make_flow_measure(model.schedule(), model.potential(), 0.5, 33,
                           box=Box.cube(half_width, 2), q=QuadratureRule(order=20))
    log_w = fm.log_density_grid
    assert np.mean(np.exp(log_w - np.max(log_w)) == 0.0) > spectral._UNDERFLOW_FRAC
    gen = build_generator(fm)
    assert gen.grid_shape == (window, window)
    assert 0.0 < np.mean(gen.mass == 0.0) <= spectral._UNDERFLOW_FRAC


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
        lf = -(ou_gen.stiffness @ f) / ou_gen.mass
        slack = (ou_gen.weighted_inner(f, f)
                 * ou_gen.weighted_inner(lf, lf)) - energy**2
        assert slack >= -1e-10 * max(energy**2, 1.0)


def test_integrated_bochner_identity(ou_gen):
    res = spectrum(ou_gen, k=2, refine=False)
    for k in (1, 2):
        phi = res.eigenvectors[k].values
        mu = res.eigenvalues[k]
        lphi = -(ou_gen.stiffness @ phi) / ou_gen.mass
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
    q = QuadratureRule(order=16)
    box = default_box(sched)
    fm = make_flow_measure(sched, V0, 0.0, (65, 65), box=box, q=q)
    gen = build_generator(fm, trim=False)
    res = spectrum(gen, k=2, refine=False)
    assert res.eigenvalues[0] <= 1e-8
    assert np.max(np.abs(res.eigenvalues[1:] - 1.0)) < 5e-3


def test_1d_tridiagonal_solve_matches_dense_pencil():
    from rgflow.phi4 import Phi4Model
    from rgflow.spectral import _DENSE_CUTOFF

    # the Richardson refine grid of the 513-node dwell spectrum
    model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    q = QuadratureRule(order=80)
    fm = make_flow_measure(model.schedule(), model.potential(), 0.5, 513, q=q)
    gen = build_generator(fm).refiner()
    assert gen.n_nodes > _DENSE_CUTOFF
    res = spectrum(gen, k=3, refine=False)

    dinv = 1.0 / np.sqrt(gen.mass)
    e = gen.stiffness
    dense = np.diag(e.diag) + np.diag(e.off, 1) + np.diag(e.off, -1)
    b = dinv[:, None] * dense * dinv[None, :]
    want = np.linalg.eigh(0.5 * (b + b.T))[0][:4]
    assert_allclose(res.eigenvalues, want, rtol=1e-10, atol=1e-10 * want[1])
    vecs = np.stack([v.values.reshape(-1) for v in res.eigenvectors], axis=1)
    gram = vecs.T @ (gen.mass[:, None] * vecs)
    assert_allclose(gram, np.eye(4), atol=1e-10)


def _sparse_pencil(gen):
    """The symmetrized B = M^{-1/2} E M^{-1/2} of a 1-D generator as a
    scipy.sparse CSR matrix, built as sparse D @ E @ D and 0.5 * (b + b.T)."""
    import scipy.sparse as sp

    e = gen.stiffness
    e = sp.diags([e.diag, e.off, e.off], [0, -1, 1], format="csr")
    dinv = 1.0 / np.sqrt(gen.mass)
    b = sp.diags(dinv) @ e @ sp.diags(dinv)
    return 0.5 * (b + b.T)


def _dwell_generator(t, n):
    """Generator of the README dwell model (order 80) at scale t, n nodes."""
    from rgflow.phi4 import Phi4Model

    model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    q = QuadratureRule(order=80)
    fm = make_flow_measure(model.schedule(), model.potential(), float(t), n,
                           q=q)
    return build_generator(fm)


@pytest.mark.parametrize("t", np.geomspace(0.05, 3.0, 8)[[0, 4, 7]],
                         ids=lambda t: f"t={t:.3g}")
def test_1d_solve_has_the_bits_of_dense_eigh_without_a_dense_matrix(
        monkeypatch, t):
    import scipy.sparse as sp

    # the README dwell model, 513 nodes, order 80, at scales of its t grid
    gen = _dwell_generator(t, 513)
    dinv = 1.0 / np.sqrt(gen.mass)
    want_vals, want_vecs = np.linalg.eigh(_sparse_pencil(gen).toarray())

    dense = []
    with monkeypatch.context() as m:
        def spy(name, original):
            def wrapper(*args, **kwargs):
                dense.append(name)
                return original(*args, **kwargs)
            return wrapper
        m.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix,
                    sp.dia_matrix):
            m.setattr(cls, "toarray", spy("toarray", cls.toarray))
        res = spectrum(gen, k=3, refine=False)
    assert dense == []

    assert np.array_equal(res.eigenvalues, want_vals[:4])
    vecs = np.stack([v.values.reshape(-1) for v in res.eigenvectors], axis=1)
    want = dinv[:, None] * want_vecs[:, :4]
    signs = np.sign(np.sum(want * vecs * gen.mass[:, None], axis=0))
    assert_allclose(vecs, want * signs, rtol=0, atol=1e-10)
    gram = vecs.T @ (gen.mass[:, None] * vecs)
    assert_allclose(gram, np.eye(4), atol=1e-10)


@pytest.mark.parametrize("n", [601, 1025])
def test_selected_index_solve_has_the_bits_of_eigh_tridiagonal(n):
    from scipy.linalg import eigh_tridiagonal

    from rgflow.spectral import _DENSE_CUTOFF

    # past the dense cut-off: dstebz + dstein, not dstevd
    gen = _dwell_generator(0.5, n)
    assert gen.n_nodes > _DENSE_CUTOFF
    b = _sparse_pencil(gen)
    want_vals, want_vecs = eigh_tridiagonal(b.diagonal(), b.diagonal(1),
                                            select="i", select_range=(0, 3))
    res = spectrum(gen, k=3, refine=False)

    assert np.array_equal(res.eigenvalues, want_vals)
    vecs = np.stack([v.values.reshape(-1) for v in res.eigenvectors], axis=1)
    want = (1.0 / np.sqrt(gen.mass))[:, None] * want_vecs
    signs = np.sign(np.sum(want * vecs, axis=0))
    assert np.all(signs != 0)
    assert np.array_equal(vecs, want * signs)


def test_refiner_rebuilds_the_trimmed_box_at_twice_the_resolution():
    from rgflow.flow import Box, FlowMeasure
    from rgflow.phi4 import Phi4Model

    # the dwell measure on a box wide enough for its log weight to span
    # more than TRIM_LOG, so build_generator trims it
    model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
    sched, V0 = model.schedule(), model.potential()
    q = QuadratureRule(order=80)
    fm = make_flow_measure(sched, V0, 0.5, 513, box=Box.cube(16.0, 1), q=q)
    gen = build_generator(fm)
    assert gen.box != fm.box and gen.grid_shape[0] < 513
    fine = gen.refiner()
    shape = (2 * (gen.grid_shape[0] - 1) + 1,)
    assert fine.box == gen.box and fine.grid_shape == shape
    want = build_generator(FlowMeasure(sched, V0, 0.5, gen.box, shape, q),
                           trim=False)
    assert np.array_equal(fine.mass, want.mass)
    assert np.array_equal(fine.stiffness.diag, want.stiffness.diag)
    assert np.array_equal(fine.stiffness.off, want.stiffness.off)


def _trimmed_quartic_measure(dim):
    """A quartic flow measure on a box wide enough, along some axis, for
    build_generator to trim it."""
    from rgflow.flow import Box
    from rgflow.phi4 import Phi4Model

    if dim == 1:
        model = Phi4Model([[1.0]], 1.0, -1.0, [0.0])
        sched, V0, q, n = model.schedule(), model.potential(), 80, 513
        box = Box.cube(16.0, 1)
    else:
        sched = make_schedule("pauli-villars", c_infinity=[[1.0, 0.0],
                                                           [0.0, 0.2]])
        V0 = PotentialDescriptor.quartic(1.0, -1.0, [0.0, 0.2], dimension=2)
        q, n, box = 12, 33, Box.cube(8.0, 2)
    return make_flow_measure(sched, V0, 0.5, n, box=box,
                             q=QuadratureRule(order=q))


@pytest.mark.parametrize("dim", [1, 2])
def test_refine_evaluates_v_t_at_its_new_nodes_only(monkeypatch, dim):
    import rgflow.spectral as spectral_mod

    fm = _trimmed_quartic_measure(dim)
    gen = build_generator(fm)
    assert gen.box != fm.box
    passes, densities = [], []
    real_value, real_density = (spectral_mod.renormalized_value,
                                spectral_mod._log_density)

    def value_spy(V0, c, x, q):
        passes.append(np.array(x))
        return real_value(V0, c, x, q)

    def density_spy(schedule, t, nodes, v):
        densities.append(v.copy())
        return real_density(schedule, t, nodes, v)

    monkeypatch.setattr(spectral_mod, "renormalized_value", value_spy)
    monkeypatch.setattr(spectral_mod, "_log_density", density_spy)
    fine = gen.refiner()
    coarse = gen.grid_shape
    assert fine.grid_shape == tuple(2 * m - 1 for m in coarse)
    # one pass, over exactly the nodes with an odd index on some axis
    (points,) = passes
    assert len(points) == fine.n_nodes - gen.n_nodes
    nodes = gen.box.nodes(fine.grid_shape)
    odd = np.any(np.indices(fine.grid_shape).reshape(dim, -1) % 2 == 1, axis=0)
    assert np.array_equal(points, nodes[odd])
    # the coarse nodes carry the measure's own V_t, bit for bit
    (v,) = densities
    window = spectral_mod._trim_window(fm.log_density_grid, spectral_mod.TRIM_LOG)
    keep = (slice(None, None, 2),) * dim
    assert np.array_equal(v.reshape(fine.grid_shape)[keep], fm.v_grid[window])


def test_arpack_nonconvergence_maps_to_nonconvergence_error(monkeypatch):
    import scipy.sparse.linalg as spla

    from rgflow.errors import NonConvergenceError
    from rgflow.flow import Box

    box = Box((-3.0, -3.0), (3.0, 3.0))
    xs = box.axes((25, 25))
    w = np.exp(-0.5 * (xs[0][:, None] ** 2 + xs[1][None, :] ** 2))
    gen = build_generator_from_density(box, w)

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(NonConvergenceError, match="ARPACK"):
        spectrum(gen, k=2, refine=False)


def _gaussian_density_generator(shape):
    from rgflow.flow import Box

    box = Box((-3.0,) * len(shape), (3.0,) * len(shape))
    xs = np.meshgrid(*box.axes(shape), indexing="ij")
    return build_generator_from_density(
        box, np.exp(-0.5 * sum(x ** 2 for x in xs)))


def _dstebz_info(d, e, *args):
    n = len(d)
    return 0, np.zeros(n), np.zeros(n, np.int32), np.zeros(n, np.int32), 2


# rgflow's LAPACK binding (``rgflow.spectral._flapack``)
@pytest.mark.parametrize("shape, target, fake, match", [
    ((301,), "rgflow.spectral._flapack.dstevd",
     lambda d, e: (d, np.eye(len(d)), 7), "dstevd"),
    ((701,), "rgflow.spectral._flapack.dstebz", _dstebz_info,
     r"selected-index tridiagonal solve \(dstebz\) failed"),
    ((701,), "rgflow.spectral._flapack.dstein",
     lambda d, e, w, iblock, isplit: (np.zeros((len(d), len(w))), 1),
     r"selected-index tridiagonal solve \(dstein\) failed"),
], ids=["dstevd-info", "dstebz-info", "dstein-info"])
def test_solver_breakdown_maps_to_nonconvergence_error(
        monkeypatch, shape, target, fake, match):
    from rgflow.errors import NonConvergenceError

    gen = _gaussian_density_generator(shape)
    monkeypatch.setattr(target, fake)
    with pytest.raises(NonConvergenceError, match=match):
        spectrum(gen, k=2, refine=False)


@pytest.mark.parametrize("n", [301, 701])
def test_non_finite_1d_pencil_maps_to_nonconvergence_error(n):
    from rgflow.errors import NonConvergenceError
    from rgflow.flow import Box

    # a finite density builds a finite pencil; a nan put into the built
    # mass is stopped before any solver sees it
    gen = _gaussian_density_generator((n,))
    gen.mass[n // 2] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonConvergenceError, match="non-finite"):
            spectrum(gen, k=2, refine=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_density_values_are_rejected(bad):
    from rgflow.flow import Box

    box = Box((-3.0,), (3.0,))
    w = np.exp(-0.5 * box.axes((101,))[0] ** 2)
    w[50] = bad
    with pytest.raises(ValueError, match="density values must be finite"):
        build_generator_from_density(box, w)


def test_perturbed_ground_vector_from_the_1d_solve_is_rejected(monkeypatch):
    from rgflow import spectral
    from rgflow.errors import NonConvergenceError

    # the whole-spectrum solve, then inverse iteration past the cut-off;
    # both return the eigenvectors second to last
    for shape, name in (((301,), "dstevd"), ((701,), "dstein")):
        gen = _gaussian_density_generator(shape)
        solve = getattr(spectral._flapack, name)

        def perturbed(*args, solve=solve):
            out = list(solve(*args))
            vecs = out[-2]
            ground = vecs[:, 0] + 1e-3 * vecs[:, 1]
            vecs[:, 0] = ground / np.linalg.norm(ground)
            return tuple(out)

        with monkeypatch.context() as m:
            m.setattr(spectral._flapack, name, perturbed)
            with pytest.raises(NonConvergenceError, match="residuals|kernel"):
                spectrum(gen, k=2, refine=False)


def test_singular_shift_invert_factor_maps_to_nonconvergence_error():
    from rgflow.errors import NonConvergenceError
    from rgflow.phi4 import Phi4Model

    # plaquette phi4 on a 65^2 default box: 48 nodes keep zero mass after
    # trimming, and SuperLU would find the shifted pencil exactly singular;
    # the pencil is refused before it is formed
    model = Phi4Model([[2.0, -1.0], [-1.0, 2.0]], 1.0, -1.0, [0.0, 0.0])
    sched = model.schedule()
    q = QuadratureRule(order=40)
    fm = make_flow_measure(sched, model.potential(), 0.05, 65,
                           box=default_box(sched), q=q)
    gen = build_generator(fm)
    assert np.count_nonzero(gen.mass == 0.0) > 0
    with pytest.raises(NonConvergenceError, match="zero or non-finite lumped mass"):
        spectrum(gen, k=3, refine=False)


def test_no_zero_mass_pencil_reaches_the_2d_eigensolver(monkeypatch):
    import scipy.sparse.linalg as spla

    from rgflow.errors import NonConvergenceError

    # a 33^2 heat-kernel Gaussian with 108 zero-mass nodes at t = 0.1975:
    # SuperLU found its pencil exactly singular, and in a long-lived
    # process the factorization crashed the interpreter
    sched = make_schedule("heat-kernel",
                          c_infinity=[[0.9427, 1.05], [1.05, 1.81]])
    fm = make_flow_measure(sched, PotentialDescriptor.zero(2), 0.1975, 33,
                           box=default_box(sched), q=QuadratureRule(order=12))
    gen = build_generator(fm)
    assert np.count_nonzero(gen.mass == 0.0) > 0

    def refuse(*args, **kwargs):
        pytest.fail("eigsh was called on a pencil with a zero-mass node")

    monkeypatch.setattr(spla, "eigsh", refuse)
    with pytest.raises(NonConvergenceError, match="lumped mass"):
        spectrum(gen, k=1, refine=False)


def test_perturbed_ground_vector_from_the_2d_solve_is_rejected(monkeypatch):
    import scipy.sparse.linalg as spla

    from rgflow.errors import NonConvergenceError

    gen = _gaussian_density_generator((25, 25))
    real = spla.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        ground = np.argmin(vals)
        tilted = vecs[:, ground] + 1e-3 * vecs[:, np.argsort(vals)[1]]
        vecs[:, ground] = tilted / np.linalg.norm(tilted)
        return vals, vecs

    monkeypatch.setattr(spla, "eigsh", perturbed)
    with pytest.raises(NonConvergenceError, match="residuals|kernel"):
        spectrum(gen, k=2, refine=False)


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


# Plaquette pencils whose tiny masses put up to 1e34 on the diagonal of B:
# shifted by -1e-3 mean(diag B), the 65^2 solve at t = 0.387 lost the kernel
# (mu_0 near 1.5e15) and the 97^2 one at t = 0.1 ran into the restart cap
# (more than 10 minutes without one).  mu_fine is mu_1 of the same pencil
# on 129^2.
@pytest.mark.parametrize("a_matrix, t, n, mu_fine", [
    ([[2.0, -1.0], [-1.0, 2.0]], 0.387, 65, 0.84013),
    ([[1.5, -0.5], [-0.5, 1.5]], 0.1, 97, 1.14152),
], ids=["lost-kernel-65", "stalled-97"])
def test_stiff_plaquette_pencils_converge(a_matrix, t, n, mu_fine):
    from rgflow.phi4 import Phi4Model

    model = Phi4Model(a_matrix, 1.0, -1.0, [0.0, 0.0])
    sched = model.schedule()
    q = QuadratureRule(order=40)
    fm = make_flow_measure(sched, model.potential(), t, n,
                           box=default_box(sched), q=q)
    gen = build_generator(fm)
    assert 0.0 < np.min(gen.mass) < 1e-30 * np.max(gen.mass)
    res = spectrum(gen, k=3, refine=False)
    assert abs(res.eigenvalues[0]) <= 1e-12
    assert np.max(res.residuals) <= 1e-12
    assert abs(res.eigenvalues[1] - mu_fine) <= 1e-2 * mu_fine


@pytest.mark.parametrize("t", [0.1, 0.5])
def test_2d_gaussian_converges_on_small_grids(t):
    # heat-kernel Gaussian: mu_1 = 1 / lambda_max(C_inf) at every t
    c_inf = np.array([[1.0, 0.3], [0.3, 0.8]])
    sched = make_schedule("heat-kernel", c_infinity=c_inf)
    mu_1 = 1.0 / np.linalg.eigvalsh(c_inf)[-1]
    q = QuadratureRule(order=20)
    errors = []
    for n in (15, 21):
        fm = make_flow_measure(sched, PotentialDescriptor.zero(2), t, n,
                               box=default_box(sched), q=q)
        res = spectrum(build_generator(fm), k=3, refine=False)
        assert abs(res.eigenvalues[0]) <= 1e-14
        errors.append(abs(res.eigenvalues[1] - mu_1))
    assert errors[1] < errors[0] < 0.2 * mu_1


@pytest.mark.parametrize("shape, k", [((2, 2), 1), ((2, 2), 2), ((3, 3), 6),
                                      ((3, 3), 7)],
                         ids=["2x2-k1", "2x2-k2", "3x3-k6", "3x3-k7"])
def test_smallest_2d_pencils_take_one_eigsh_call(monkeypatch, shape, k):
    import scipy.sparse.linalg as spla

    gen = _gaussian_density_generator(shape)
    calls = []
    real = spla.eigsh

    def spy(*args, **kwargs):
        calls.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    res = spectrum(gen, k=k, refine=False)
    assert calls == [k + 1]
    dinv = 1.0 / np.sqrt(gen.mass)
    want = np.linalg.eigvalsh(dinv[:, None] * gen.stiffness.toarray() * dinv)
    assert_allclose(res.eigenvalues, want[:k + 1], rtol=0, atol=1e-10 * want[-1])
