"""Self-adjoint discretization of the flow generator and its spectrum.

The generator of the flow measure nu_t (script-L) is, in divergence form,

    L f = (1/w) div( C_t' w grad f )

with w the flow-measure density: the carre du champ is |grad f|^2_{C_t'}
and nu_t is its reversible measure.

Assembly uses Q1 finite elements with 2^d-point Gauss quadrature per cell and
a lumped (trapezoid) weighted mass matrix, which makes the discrete operator
exactly symmetric in the w-weighted inner product, keeps constants in the
kernel to machine precision, and converges at second order in the mesh.
Boundary conditions are natural zero-flux (reflecting) on the truncated box.

Eigenpairs come from the structure of the operator.  In 1-D it is
tridiagonal, held as its two diagonals (``Tridiagonal``), and no dense or
sparse matrix is built: up to ``_DENSE_CUTOFF`` nodes LAPACK's
divide-and-conquer ``dstevd`` solves it whole.  That gives the bits of dense
``eigh`` (``dsyevd``), which on an already tridiagonal matrix reduces with
identity reflectors and then runs the same ``dstedc``.  Above the cut-off
bisection (``dstebz``) and inverse iteration (``dstein``) return only the
k+1 wanted pairs, as ``scipy.linalg.eigh_tridiagonal(select="i")`` does.
The cut-off stays because that solver lands on other round-off in
the kernel eigenvalue mu_0 (0 in exact arithmetic), and reference spectra
hold mu_0 to 0.3 % relative; it can go once mu_0 is judged against an
absolute floor.  In 2-D every grid takes shift-invert Lanczos (ARPACK) with
a deterministic start vector, shifted below mu_0 = 0 by a tenth of the
smallest Rayleigh quotient of the centred coordinate functions, an upper
bound on mu_1 that the pencil sets itself.  A solver breakdown raises
NonConvergenceError, every solve is residual-verified, and the spectrum
carries a Richardson consistency check under mesh halving.  The refine
mesh is the trimmed coarse mesh plus the midpoints between its nodes.  Its
coarse nodes keep the flow measure's own V_t, and one
``renormalized_value`` pass evaluates V_t at the new nodes only: n - 1 of
2n - 1 in 1-D, (2n - 1)^2 - n^2 in 2-D.  Its log weight is the flow
measure's own formula, ``flow._log_density``.  Each refiner call builds
the refine mesh on the calling thread, when ``spectrum`` asks for it.

This is the one module of a run that imports scipy.  In 1-D it loads only
scipy's compiled LAPACK wrappers (``scipy.linalg._flapack``) and no scipy
Python package; the 2-D assembly and solves import ``scipy.sparse``.
``import rgflow`` does not load this module: its names resolve there on
first access, and a config whose checks solve an eigenproblem
(``spectrum``, ``theorem``, ``higher-k``, ``heatflow``) imports it while it
is parsed.  ``rgflow oracle`` loads ``scipy.integrate`` through ``oracles``
instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import NonConvergenceError, QuadratureOverflowError
from .flow import (Box, FlowMeasure, GridFunction, _log_density,
                   integrate_grid)
from .potential import DEFAULT_RULE, QuadratureRule, renormalized_value

# Nodes whose log weight falls this far below the maximum are trimmed off the
# box before assembly; exp(-570) is comfortably inside float range.
TRIM_LOG = 570.0

# Largest share of nodes whose weight may underflow to zero.
_UNDERFLOW_FRAC = 0.2

_DENSE_CUTOFF = 600
_EIG_RESIDUAL_RTOL = 1e-10
# Largest misalignment 1 - |cos| accepted between the ground eigenvector and
# the known kernel direction.
_KERNEL_TOL = 1e-6
# Restart cap of shift-invert Lanczos: healthy pencils need about two.
_ARPACK_MAXITER = 100
_RICHARDSON_RTOL = 5e-3

_GAUSS_1D = (0.5 * (1.0 - 1.0 / math.sqrt(3.0)), 0.5 * (1.0 + 1.0 / math.sqrt(3.0)))


def _load_flapack():
    """scipy's compiled LAPACK wrappers, the module behind
    ``scipy.linalg.lapack``, loaded from its file.

    ``import scipy.linalg`` runs the package's ``__init__``, which loads
    about 150 scipy modules (and with them numpy.f2py and numpy.testing)
    that a 1-D solve never calls; it needs three routines of this one
    extension.  The module is registered under its own name, so a later
    ``import scipy.linalg`` reuses it and ``scipy.linalg.lapack.dstevd`` is
    the routine called here.  Loaded here first, the package attribute
    ``scipy.linalg._flapack`` stays unset; ``from scipy.linalg import
    _flapack`` still finds the module.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    roots = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(root, "linalg") for root in roots])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix held as its diagonal and off-diagonal;
    ``@`` applies it to one vector."""

    diag: np.ndarray
    off: np.ndarray

    def __matmul__(self, v):
        # summed per row as a CSR product is: lower, diagonal, upper
        v = np.asarray(v, dtype=float)
        out = self.diag * v
        out[1:] = self.off * v[:-1] + out[1:]
        out[:-1] += self.off * v[1:]
        return out


@dataclass
class GeneratorDiscretization:
    """Assembled divergence-form generator at one scale: the stiffness E
    and the lumped weighted mass M of the pencil (E, M), whose generator
    is L = -M^{-1} E, with the forms that read them."""

    t: float
    box: Box
    grid_shape: tuple
    stiffness: object = field(repr=False)  # Tridiagonal in 1-D, CSR in 2-D
    mass: np.ndarray = field(repr=False)  # lumped weighted mass, diagonal
    # () -> the generator on the halved mesh; its V_t is the coarse one at
    # the coarse nodes and one renormalized_value pass at the midpoints
    refiner: object = None

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.grid_shape))

    def dirichlet_form(self, f, g) -> float:
        fv = np.asarray(f, dtype=float).reshape(-1)
        gv = np.asarray(g, dtype=float).reshape(-1)
        return float(fv @ (self.stiffness @ gv))

    def weighted_inner(self, f, g) -> float:
        fv = np.asarray(f, dtype=float).reshape(-1)
        gv = np.asarray(g, dtype=float).reshape(-1)
        return float(fv @ (self.mass * gv))

    def weighted_mean(self, f) -> float:
        fv = np.asarray(f, dtype=float).reshape(-1)
        return float((self.mass @ fv) / self.mass.sum())


def _trim_window(log_w: np.ndarray, threshold: float) -> tuple:
    """Smallest axis-aligned index window containing {log_w >= max - threshold}."""
    return _bounding_window(log_w >= np.max(log_w) - threshold)


def _bounding_window(keep: np.ndarray) -> tuple:
    """Smallest axis-aligned index window containing every True of ``keep``."""
    slices = []
    for axis in range(keep.ndim):
        other = tuple(i for i in range(keep.ndim) if i != axis)
        line = np.any(keep, axis=other)
        idx = np.nonzero(line)[0]
        slices.append(slice(int(idx[0]), int(idx[-1]) + 1))
    return tuple(slices)


def _assemble(box: Box, shape: tuple, w: np.ndarray, a_matrix: np.ndarray):
    """Q1 stiffness (full Gauss) and lumped weighted mass on a tensor grid."""
    d = box.dim
    h = box.spacing(shape)
    mass = (box.trapezoid_weights(shape) * w).reshape(-1)

    if d == 1:
        n = shape[0]
        a = float(a_matrix[0, 0])
        wbar = 0.5 * (w[:-1] + w[1:])
        k = a * wbar / h[0]
        diag = np.zeros(n)
        diag[:-1] += k
        diag[1:] += k
        return Tridiagonal(diag, -k), mass

    if d == 2:
        import scipy.sparse as sp

        nx, ny = shape
        hx, hy = h
        corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
        gps = [(u, v) for u in _GAUSS_1D for v in _GAUSS_1D]
        bmats = []
        nvals = []
        for (u, v) in gps:
            bx = np.array([-(1 - v), (1 - v), -v, v]) / hx
            by = np.array([-(1 - u), -u, (1 - u), u]) / hy
            bmats.append(np.stack([bx, by]))          # (2, 4)
            nvals.append(np.array([(1 - u) * (1 - v), u * (1 - v),
                                   (1 - u) * v, u * v]))
        area = hx * hy

        ci, cj = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
        ci, cj = ci.ravel(), cj.ravel()
        glob = np.stack([(ci + di) * ny + (cj + dj) for (di, dj) in corners],
                        axis=-1)                       # (ncell, 4)
        wc = np.stack([w[ci + di, cj + dj] for (di, dj) in corners], axis=-1)

        kvals = np.zeros((len(ci), 4, 4))
        for bmat, nval in zip(bmats, nvals):
            local = bmat.T @ a_matrix @ bmat           # (4, 4)
            wgp = wc @ nval                            # (ncell,)
            kvals += (0.25 * area) * wgp[:, None, None] * local[None, :, :]

        rows = np.repeat(glob, 4, axis=-1).ravel()
        cols = np.tile(glob, (1, 4)).ravel()
        e = sp.coo_matrix((kvals.ravel(), (rows, cols)),
                          shape=(nx * ny, nx * ny)).tocsr()
        return e, mass

    raise ValueError("grid eigenproblems are implemented for d <= 2")


def _generator(t: float, box: Box, w: np.ndarray, mobility: np.ndarray,
               refiner) -> GeneratorDiscretization:
    """Generator of the weight ``w``, normalized over the box, with the
    carre du champ |grad f|^2 in ``mobility``."""
    w = w / integrate_grid(box, w)
    e, mass = _assemble(box, w.shape, w, mobility)
    return GeneratorDiscretization(t=t, box=box, grid_shape=w.shape,
                                   stiffness=e, mass=mass, refiner=refiner)


def _weights(log_w: np.ndarray, window: tuple = ()) -> np.ndarray:
    """exp(log_w - max log_w) on the index ``window`` of the grid, which
    holds the maximum (the whole grid by default).

    Refused when, along some axis, more than _UNDERFLOW_FRAC of the grid's
    nodes lie beyond the last weight above zero (the box is too large for
    its nodes), or when more than _UNDERFLOW_FRAC of the window's own nodes
    underflow to zero.  Nodes that the window leaves out count only for
    the first.
    """
    raw_w = np.exp(log_w - np.max(log_w))
    live = _bounding_window(raw_w > 0.0)
    for axis, sl in enumerate(live):
        frac = 1.0 - (sl.stop - sl.start) / raw_w.shape[axis]
        if frac > _UNDERFLOW_FRAC:
            raise QuadratureOverflowError(
                f"box too large / resolution too coarse: {100 * frac:.1f}% of "
                f"the nodes along axis {axis} lie beyond the last weight that "
                f"does not underflow")
    raw_w = raw_w[window]
    frac = float(np.count_nonzero(raw_w == 0.0)) / raw_w.size
    if frac > _UNDERFLOW_FRAC:
        raise QuadratureOverflowError(
            f"box too large / resolution too coarse: weight underflows at "
            f"{100 * frac:.1f}% of nodes")
    return raw_w


def _refined(fm: FlowMeasure, box: Box, v_coarse: np.ndarray,
             cprime: np.ndarray) -> GeneratorDiscretization:
    """Generator of fm's measure on ``box`` at half the mesh width of the
    coarse mesh that carries V_t as ``v_coarse``.

    The fine mesh is the coarse one plus the midpoints between its nodes.
    Coarse nodes keep their V_t; one ``renormalized_value`` pass gives it
    at the new nodes only.
    """
    shape = tuple(2 * n - 1 for n in v_coarse.shape)
    nodes = box.nodes(shape)
    coarse = (slice(None, None, 2),) * box.dim
    v = np.empty(shape)
    v[coarse] = v_coarse
    new = np.ones(shape, dtype=bool)
    new[coarse] = False
    new = new.reshape(-1)
    v = v.reshape(-1)
    ct, _, _ = fm.schedule.eval(fm.t)
    v[new] = renormalized_value(fm.V0, ct, nodes[new], fm.quad)
    log_w = _log_density(fm.schedule, fm.t, nodes, v).reshape(shape)
    return _generator(fm.t, box, _weights(log_w), cprime, None)


def build_generator(flow_measure: FlowMeasure, cprime=None,
                    trim: bool = True) -> GeneratorDiscretization:
    """Assemble the generator of the flow measure at fm.t (mobility C_t'
    unless ``cprime`` is given) on the box trimmed to within TRIM_LOG of
    the largest log weight; the refiner halves the mesh of that box."""
    fm = flow_measure
    if cprime is None:
        _, cprime, _ = fm.schedule.eval(fm.t)
    cprime = np.atleast_2d(np.asarray(cprime, dtype=float))

    log_w = fm.log_density_grid
    box, shape = fm.box, fm.grid_shape
    window = (slice(None),) * box.dim
    if trim:
        window = _trim_window(log_w, TRIM_LOG)
        if any(sl.stop - sl.start < shape[k] for k, sl in enumerate(window)):
            axes = box.axes(shape)
            box = Box(tuple(axes[k][window[k].start] for k in range(box.dim)),
                      tuple(axes[k][window[k].stop - 1] for k in range(box.dim)))

    refiner = partial(_refined, fm, box, fm.v_grid[window], cprime)
    return _generator(fm.t, box, _weights(log_w, window), cprime, refiner)


def build_generator_from_density(box: Box,
                                 w_values: np.ndarray) -> GeneratorDiscretization:
    """Generator for a tabulated density (no analytic potential attached),
    with the standard carre du champ |grad f|^2 and no mesh refiner."""
    w_values = np.asarray(w_values, dtype=float)
    if not np.all(np.isfinite(w_values)):
        raise ValueError("density values must be finite")
    if np.any(w_values < 0):
        raise ValueError("density values must be nonnegative")
    floor = np.max(w_values) * 1e-290
    return _generator(0.0, box, np.maximum(w_values, floor), np.eye(box.dim), None)


@dataclass
class SpectralResult:
    t: float
    eigenvalues: np.ndarray          # mu_0 <= ... <= mu_k of -L
    eigenvectors: list               # GridFunctions, w-orthonormal
    poincare_constant: float         # 1 / mu_1
    residuals: np.ndarray
    converged: bool
    richardson_change: float | None

    def eigenvalue(self, k: int) -> float:
        return float(self.eigenvalues[k])


def _check_info(info: int, solve: str):
    if info != 0:
        raise NonConvergenceError(f"{solve} failed: info = {info}")


def _tridiagonal_pairs(b: Tridiagonal, k: int, whole: bool):
    """(k+1) smallest eigenpairs of a symmetric tridiagonal B by LAPACK:
    ``dstevd`` on the whole spectrum, else ``dstebz`` + ``dstein`` on the
    wanted index range."""
    if not (np.all(np.isfinite(b.diag)) and np.all(np.isfinite(b.off))):
        raise NonConvergenceError("tridiagonal pencil has non-finite entries")
    if whole:
        # dstevd runs the dstedc that dense eigh runs after its (here
        # exact) tridiagonal reduction
        vals, vecs, info = _flapack.dstevd(b.diag, b.off)
        _check_info(info, "tridiagonal divide-and-conquer (dstevd)")
        return vals[:k + 1], vecs[:, :k + 1]
    # eigh_tridiagonal(select="i", select_range=(0, k)), call for call
    m, w, iblock, isplit, info = _flapack.dstebz(
        b.diag, b.off, 2, 0.0, 1.0, 1, k + 1, 0.0, "B")
    _check_info(info, "selected-index tridiagonal solve (dstebz)")
    vecs, info = _flapack.dstein(b.diag, b.off, w[:m], iblock, isplit)
    _check_info(info, "selected-index tridiagonal solve (dstein)")
    order = np.argsort(w[:m])
    return w[:m][order], vecs[:, order]


def _smallest_pairs(gen: GeneratorDiscretization, k: int):
    """(k+1) smallest eigenpairs of the pencil (E, diag(mass))."""
    n = gen.n_nodes
    # a node without mass puts inf into M^{-1/2}, which no solver may see
    massless = np.count_nonzero(~(gen.mass > 0))
    if massless:
        raise NonConvergenceError(
            f"{massless} of {n} nodes have zero or non-finite lumped mass; "
            "the grid cannot resolve the measure")
    dinv = 1.0 / np.sqrt(gen.mass)

    if gen.box.dim == 1:
        # B = M^{-1/2} E M^{-1/2}, symmetrized, in the order of operations
        # of the sparse 0.5 * (D @ E @ D + (D @ E @ D).T), D = M^{-1/2}
        e = gen.stiffness
        b = Tridiagonal((dinv * e.diag) * dinv,
                        0.5 * ((dinv[:-1] * e.off) * dinv[1:]
                               + (dinv[1:] * e.off) * dinv[:-1]))
        norm_b = float(np.max(
            Tridiagonal(np.abs(b.diag), np.abs(b.off)) @ np.ones(n)))
        vals, vecs = _tridiagonal_pairs(
            b, k, n <= _DENSE_CUTOFF or k + 2 >= n - 1)
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        b = sp.diags(dinv) @ gen.stiffness @ sp.diags(dinv)
        b = 0.5 * (b + b.T)
        if not np.all(np.isfinite(b.data)):
            raise NonConvergenceError("2-D pencil has non-finite entries")
        norm_b = float(np.max(np.abs(b).sum(axis=1)))
        # each centred coordinate's Rayleigh quotient bounds mu_1 from above,
        # so a tenth of the smallest, below 0, sits next to mu_0 = 0 on the
        # scale of the low spectrum, however large B's diagonal grows
        try:
            bound = min(rayleigh_quotient(gen, x) for x in np.meshgrid(
                *gen.box.axes(gen.grid_shape), indexing="ij"))
        except ValueError as exc:
            raise NonConvergenceError(
                f"no shift for the 2-D eigensolve: {exc}") from exc
        v0 = np.random.default_rng(90210).standard_normal(n)
        try:
            vals, vecs = spla.eigsh(b.tocsc(), k=k + 1, sigma=-0.1 * bound,
                                    which="LM", mode="normal", v0=v0,
                                    maxiter=_ARPACK_MAXITER)
        except RuntimeError as exc:
            # ArpackNoConvergence, or SuperLU finding the shifted pencil
            # singular
            raise NonConvergenceError(
                "shift-invert eigsh failed in the SuperLU factorization "
                f"or the ARPACK iteration: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    residuals = np.array([
        np.linalg.norm(b @ vecs[:, i] - vals[i] * vecs[:, i])
        for i in range(k + 1)])
    if np.any(residuals > _EIG_RESIDUAL_RTOL * max(norm_b, 1e-300)):
        raise NonConvergenceError(
            "eigensolver residuals exceed tolerance: "
            + ", ".join(f"{r:.3e}" for r in residuals)
            + f" against {_EIG_RESIDUAL_RTOL:.1e} * |A| = "
            f"{_EIG_RESIDUAL_RTOL * norm_b:.3e}")
    # -L is conservative: constants span its kernel, so the ground state of
    # the symmetrized pencil is sqrt(mass) with mu_0 = 0 exactly
    kernel = np.sqrt(gen.mass)
    overlap = abs(kernel @ vecs[:, 0]) / (
        np.linalg.norm(kernel) * np.linalg.norm(vecs[:, 0]))
    if overlap < 1.0 - _KERNEL_TOL:
        raise NonConvergenceError(
            f"eigensolver lost the kernel: the ground eigenvector (mu_0 = "
            f"{vals[0]:.3e}, mu_1 = {vals[1]:.3e}) has overlap {overlap:.3e} "
            f"with sqrt(mass), below 1 - {_KERNEL_TOL:.0e}")

    # back to the weighted problem; w-orthonormal by construction
    wvecs = dinv[:, None] * vecs
    for i in range(wvecs.shape[1]):
        col = wvecs[:, i]
        nz = np.nonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))[0]
        if len(nz) and col[nz[0]] < 0:
            wvecs[:, i] = -col
    return vals, wvecs, residuals


def spectrum(gen: GeneratorDiscretization, k: int,
             refine: bool = True) -> SpectralResult:
    """Smallest k+1 eigenpairs of -L in the w-weighted problem."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k + 1 >= gen.n_nodes:
        raise ValueError("k + 1 must be below the number of grid nodes")
    vals, wvecs, residuals = _smallest_pairs(gen, k)

    richardson = None
    converged = True
    if refine and gen.refiner is not None:
        fine = gen.refiner()
        fvals, _, _ = _smallest_pairs(fine, 1)
        richardson = abs(fvals[1] - vals[1]) / max(abs(vals[1]), 1e-300)
        converged = richardson <= _RICHARDSON_RTOL

    vecs = [GridFunction(gen.box, wvecs[:, i].reshape(gen.grid_shape))
            for i in range(k + 1)]
    return SpectralResult(
        t=gen.t, eigenvalues=vals, eigenvectors=vecs,
        poincare_constant=1.0 / float(vals[1]), residuals=residuals,
        converged=converged, richardson_change=richardson)


def rayleigh_quotient(gen: GeneratorDiscretization, phi) -> float:
    """Weighted Dirichlet energy over variance, after recentering phi."""
    values = phi.values if isinstance(phi, GridFunction) else np.asarray(phi)
    flat = values.reshape(-1).astype(float)
    flat = flat - gen.weighted_mean(flat)
    denom = gen.weighted_inner(flat, flat) / gen.mass.sum()
    if denom <= 1e-14:
        raise ValueError("degenerate test function: zero variance after centering")
    return gen.dirichlet_form(flat, flat) / gen.weighted_inner(flat, flat)


def rayleigh_flow_trace(schedule, V0, phi0: GridFunction, t_grid,
                        q: QuadratureRule = DEFAULT_RULE) -> list:
    """(t, R_phi(t)) along the flow, with phi_t = P_{0,t} phi0."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    out = []
    for t in t_grid:
        carry = (phi0,) if t > 0 else ()
        fm = FlowMeasure(schedule, V0, float(t), phi0.box, phi0.shape, q,
                         carry=carry)
        phi_t = fm.transported[0] if carry else phi0
        gen = build_generator(fm, trim=False)
        out.append((float(t), rayleigh_quotient(gen, phi_t)))
    return out
