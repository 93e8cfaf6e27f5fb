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
tridiagonal, and no dense matrix is built: up to ``_DENSE_CUTOFF`` nodes
LAPACK's divide-and-conquer ``dstevd`` solves it whole.  That gives the bits
of dense ``eigh`` (``dsyevd``), which on an already tridiagonal matrix
reduces with identity reflectors and then runs the same ``dstedc``.  Above
the cut-off a selected-index tridiagonal solve returns only the k+1 wanted
pairs.  The cut-off stays because that solver lands on other round-off in
the kernel eigenvalue mu_0 (0 in exact arithmetic), and reference spectra
hold mu_0 to 0.3 % relative; it can go once mu_0 is judged against an
absolute floor.  In 2-D small grids take a dense symmetric solve and larger
ones shift-invert Lanczos (ARPACK) with a deterministic start vector.  A
solver breakdown raises NonConvergenceError, every solve is
residual-verified, and the spectrum carries a Richardson consistency check
under mesh halving.

This is the one module of a run that imports scipy.  ``import rgflow`` does
not load it: its names resolve there on first access, and a config whose
checks solve an eigenproblem (``spectrum``, ``theorem``, ``higher-k``,
``heatflow``) imports it while it is parsed.  ``rgflow oracle`` loads
``scipy.integrate`` through ``oracles`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonConvergenceError, QuadratureOverflowError
from .flow import Box, FlowMeasure, GridFunction, integrate_grid
from .potential import QuadratureRule

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


@dataclass
class GeneratorDiscretization:
    """Assembled divergence-form generator at one scale."""

    t: float
    box: Box
    grid_shape: tuple
    stiffness: sp.csr_matrix = field(repr=False)
    mass: np.ndarray = field(repr=False)  # lumped weighted mass, diagonal
    refiner: object = None        # () -> GeneratorDiscretization on halved mesh

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.grid_shape))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Generator action L f = -M^{-1} E f on node values."""
        flat = np.asarray(values, dtype=float).reshape(-1)
        return (-(self.stiffness @ flat) / self.mass).reshape(self.grid_shape)

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
    keep = log_w >= np.max(log_w) - threshold
    slices = []
    for axis in range(log_w.ndim):
        other = tuple(i for i in range(log_w.ndim) if i != axis)
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
        e = sp.diags([diag, -k, -k], [0, -1, 1], format="csr")
        return e, mass

    if d == 2:
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
    raw_w = np.exp(log_w - np.max(log_w))
    frac_zero = float(np.count_nonzero(raw_w == 0.0)) / raw_w.size
    if frac_zero > _UNDERFLOW_FRAC:
        raise QuadratureOverflowError(
            f"box too large / resolution too coarse: weight underflows at "
            f"{100 * frac_zero:.1f}% of nodes")

    box, shape = fm.box, fm.grid_shape
    if trim:
        window = _trim_window(log_w, TRIM_LOG)
        if any(sl.stop - sl.start < shape[k] for k, sl in enumerate(window)):
            axes = box.axes(shape)
            box = Box(tuple(axes[k][window[k].start] for k in range(box.dim)),
                      tuple(axes[k][window[k].stop - 1] for k in range(box.dim)))
            shape = tuple(sl.stop - sl.start for sl in window)
            # the window holds the maximum, so raw_w slices exactly
            raw_w = raw_w[window]

    def refiner():
        fine = FlowMeasure(fm.schedule, fm.V0, fm.t, box,
                           tuple(2 * (n - 1) + 1 for n in shape), fm.quad)
        return build_generator(fine, cprime=cprime, trim=False)

    return _generator(fm.t, box, raw_w, cprime, refiner)


def build_generator_from_density(box: Box,
                                 w_values: np.ndarray) -> GeneratorDiscretization:
    """Generator for a tabulated density (no analytic potential attached),
    with the standard carre du champ |grad f|^2 and no mesh refiner."""
    w_values = np.asarray(w_values, dtype=float)
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
    clusters: list

    def eigenvalue(self, k: int) -> float:
        return float(self.eigenvalues[k])


def _smallest_pairs(gen: GeneratorDiscretization, k: int):
    """(k+1) smallest eigenpairs of the pencil (E, diag(mass))."""
    n = gen.n_nodes
    dinv = 1.0 / np.sqrt(gen.mass)
    b = sp.diags(dinv) @ gen.stiffness @ sp.diags(dinv)
    b = 0.5 * (b + b.T)

    if n <= _DENSE_CUTOFF or k + 2 >= n - 1:
        if gen.box.dim == 1:
            # the 1-D operator is tridiagonal: dstevd runs the dstedc that
            # dense eigh runs after its (here exact) tridiagonal reduction
            vals, vecs, info = la.lapack.dstevd(b.diagonal(), b.diagonal(1))
            if info != 0:
                raise NonConvergenceError(
                    f"tridiagonal divide-and-conquer (dstevd) failed: "
                    f"info = {info}")
        else:
            try:
                vals, vecs = np.linalg.eigh(b.toarray())
            except np.linalg.LinAlgError as exc:
                raise NonConvergenceError(f"dense eigh failed: {exc}") from exc
        vals, vecs = vals[:k + 1], vecs[:, :k + 1]
    elif gen.box.dim == 1:
        try:
            vals, vecs = la.eigh_tridiagonal(b.diagonal(), b.diagonal(1),
                                             select="i", select_range=(0, k))
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(
                f"selected-index tridiagonal solve failed: {exc}") from exc
    else:
        scale = float(np.mean(b.diagonal()))
        v0 = np.random.default_rng(90210).standard_normal(n)
        try:
            vals, vecs = spla.eigsh(b.tocsc(), k=k + 1,
                                    sigma=-1e-3 * max(scale, 1e-12),
                                    which="LM", mode="normal", v0=v0,
                                    maxiter=_ARPACK_MAXITER)
        except RuntimeError as exc:
            # ArpackNoConvergence, or SuperLU finding the shifted pencil singular
            raise NonConvergenceError(
                "shift-invert eigsh failed in the SuperLU factorization or "
                f"the ARPACK iteration: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    norm_b = float(np.max(np.abs(b).sum(axis=1)))
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

    scale = max(float(vals[-1]), 1.0)
    clusters = []
    current = [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] <= 1e-6 * scale:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)

    vecs = [GridFunction(gen.box, wvecs[:, i].reshape(gen.grid_shape))
            for i in range(k + 1)]
    return SpectralResult(
        t=gen.t, eigenvalues=vals, eigenvectors=vecs,
        poincare_constant=1.0 / float(vals[1]), residuals=residuals,
        converged=converged, richardson_change=richardson, clusters=clusters)


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
                        q=None) -> list:
    """(t, R_phi(t)) along the flow, with phi_t = P_{0,t} phi0."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    q = q or QuadratureRule.for_dimension(V0.dimension)
    out = []
    for t in t_grid:
        carry = (phi0,) if t > 0 else ()
        fm = FlowMeasure(schedule, V0, float(t), phi0.box, phi0.shape, q,
                         carry=carry)
        phi_t = fm.transported[0] if carry else phi0
        gen = build_generator(fm, trim=False)
        out.append((float(t), rayleigh_quotient(gen, phi_t)))
    return out
