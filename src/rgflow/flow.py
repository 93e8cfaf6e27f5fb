"""Flow measures, the scale-to-scale semigroup, and the heat-flow harness.

The flow measure at scale t has unnormalized log density

    -1/2 <x, (C_inf - C_t)^{-1} x> - V_t(x)

on a truncated box; the normalizing constant is absorbed numerically.  The
semigroup P_{s,t} maps functions at scale s to scale t through

    P_{s,t} f = exp(V_t) * gaussian_{C_t - C_s} conv (f exp(-V_s)),

computed here by Gauss-Hermite quadrature against the kernel, reading f
between grid nodes through its not-a-knot tensor cubic spline
(``GridFunction.interpolator``, built in ``_stencils``).  The spline is
exact at the nodes; off the box it extrapolates with the end cubic.  In
1-D it is the spline of ``CubicSpline`` with its default ends, bit for
bit.  Exactly, exp(-V_t) is the kernel's convolution of exp(-V_s), so at
every s P_{s,t}f is the expectation of f(x + z) under the weights
w_q exp(-V_s(x + z_q)) of the kernel's rule, normalized by their own sum:
P_{s,t}1 = 1 by construction.  V_s is V0 itself where C_s = 0 and
otherwise the spline of V_s on the scale-s grid.  Where C_0 = 0 (every
built-in schedule) the kernel of P_{0,t} is C_t itself and the normalizer
is exp(-V_t), so a flow measure built with ``carry`` produces P_{0,t} of
the carried functions in the same chunked pass that builds V_t, one V0
evaluation per node and shift.  That pass is ``potential._grid_pass``;
without carried functions a measure reads V_t from ``renormalized_value``,
which runs the same pass.
Grids are plain tensor products; trapezoid quadrature over the box is
spectrally accurate because every integrand decays to numerical zero
before the boundary.

Scales do not depend on one another, so the variance decomposition and the
runner's spectral t grid build their flow measures on all usable cores
(``_map_scales``): a measure spends its time in numpy kernels that release
the GIL, and the grid passes in flight share one memory budget.  Results
are byte-identical to a serial build.  Eigensolves stay serial, for two
reasons.  The merges of LAPACK's tridiagonal divide-and-conquer call BLAS
``gemm``, whose bits depend on the BLAS thread count (eigenvectors of 1-D
pencils of 200-600 nodes differ at round-off between one and two threads),
so a solve inside the pool could move the kernel eigenvalue mu_0.  And the
pool would not speed them up: scipy's ``dstevd`` wrapper holds the GIL,
and on 2 cores the 24 solves of the flow-1d benchmark's 513-node pencils
took 0.34 s in turn and 0.31 s on two threads.  The passes in the pool call
BLAS on d x d matrices only.  Generators and their Richardson refine meshes
are built serially too: building them in the pool before the solves saved
3.5 % of flow-1d's run time, no more than its run-to-run spread, and held
one fine mesh per scale (``BENCH_41.json``).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import partial

import numpy as np
# loaded with the package, not on first access inside a run; np.unique (here,
# in curvature and in runner) reads np.ma.is_masked
import numpy.ma  # noqa: F401
import numpy.polynomial.legendre  # noqa: F401
import numpy.random  # noqa: F401

from . import _stencils
from .covariance import CovarianceSchedule
from .potential import (_CLOSED_FORMS, DEFAULT_RULE, PotentialDescriptor,
                        QuadratureRule, _gaussian_shifts, _grid_pass,
                        _tilted_log_weights, _usable_cores, renormalized_value)

BOX_HALFWIDTH_SIGMAS = 8.0

# Kernel-vs-box guard: the convolution kernel must fit inside the box with
# this many standard deviations to spare.
_KERNEL_SIGMAS = 6.0

# Tail tolerance of the variance audit.  Default sample set: tensor points
# per axis, seeded uniform points, mass left outside the sampled sub-box.
_TAIL_TOL = 1e-4
_SAMPLE_GRID = 17
_SAMPLE_RANDOM = 100
_SAMPLE_MASS_TOL = 1e-6


@dataclass(frozen=True)
class Box:
    """Axis-aligned product domain."""

    lo: tuple
    hi: tuple

    @staticmethod
    def cube(halfwidth: float, dim: int) -> "Box":
        return Box(lo=(-float(halfwidth),) * dim, hi=(float(halfwidth),) * dim)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def axes(self, shape) -> list[np.ndarray]:
        return [np.linspace(self.lo[k], self.hi[k], shape[k])
                for k in range(self.dim)]

    def spacing(self, shape) -> np.ndarray:
        return np.array([(self.hi[k] - self.lo[k]) / (shape[k] - 1)
                         for k in range(self.dim)])

    def halfwidths(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.hi) - np.asarray(self.lo))

    def nodes(self, shape) -> np.ndarray:
        """All grid nodes, shape (prod(shape), dim), row-major."""
        grids = np.meshgrid(*self.axes(shape), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def trapezoid_weights(self, shape) -> np.ndarray:
        out = np.ones(shape)
        for k, h in enumerate(self.spacing(shape)):
            w = np.full(shape[k], h)
            w[0] = w[-1] = 0.5 * h
            sl = [None] * self.dim
            sl[k] = slice(None)
            out = out * w[tuple(sl)]
        return out


@dataclass
class GridFunction:
    """Values tabulated on a tensor grid over a box. Immutable by convention."""

    box: Box
    values: np.ndarray
    _interp: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != self.box.dim:
            raise ValueError(
                f"values rank {self.values.ndim} != box dimension {self.box.dim}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function has non-finite node values")

    @property
    def shape(self):
        return self.values.shape

    def spacing(self) -> np.ndarray:
        return self.box.spacing(self.shape)

    def interpolator(self):
        """The not-a-knot tensor cubic spline through the node values, as
        a map from points (N, d) to values (N,); built on first use and
        kept with the grid function.

        It is exact at the nodes, and in 1-D it is ``CubicSpline``'s
        spline to the last bit.  Points off the box extrapolate with the
        cubic of the nearest end cell along each axis.  An axis of two
        nodes is linear and one of three quadratic.
        """
        if self._interp is None:
            axes = self.box.axes(self.shape)
            coef = _stencils.spline_coefficients(axes, self.values)
            self._interp = partial(_stencils.spline_values, axes, coef)
        return self._interp

    def gradient(self) -> np.ndarray:
        return _stencils.gradient(self.values, self.spacing())


def _map_scales(fn, items) -> list:
    """``[fn(item) for item in items]`` on one thread pool.

    Each item is one scale, and ``fn`` builds or reads its flow measure;
    keep eigensolves out of ``fn`` (see the module docstring).  The pool
    has one worker per usable core, at most one per item.  Results come
    back in input order, and the first failure in input order cancels the
    scales not yet started and is raised unchanged, as a serial loop would
    raise it.
    """
    from concurrent.futures import ThreadPoolExecutor

    workers = max(1, min(len(items), _usable_cores()))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def integrate_grid(box: Box, values: np.ndarray) -> float:
    return float(np.sum(box.trapezoid_weights(values.shape) * values))


def default_box(schedule: CovarianceSchedule) -> Box:
    """Box sized from the dominating Gaussian factor at t = 0.

    One box serves every later scale because the Gaussian part only shrinks
    along the flow.
    """
    c, _, _ = schedule.eval(0.0)
    resid = schedule.c_infinity - c
    sigma = math.sqrt(max(np.linalg.eigvalsh(resid)[-1], 1e-300))
    return Box.cube(BOX_HALFWIDTH_SIGMAS * sigma, schedule.dim)


def _transport(schedule, V0, q, s: float, t: float, box: Box, shape,
               fs: tuple, v_s: GridFunction | None = None) -> tuple:
    """P_{s,t} of the grid functions ``fs`` on (box, shape), in one pass.

    Exactly, exp(-V_t) = gamma_{C_t - C_s} conv exp(-V_s), so P_{s,t}f(x) is
    the expectation of f(x + z) under the weights softmax_q(log w_q -
    V_s(x + z_q)) of the kernel C_t - C_s: a Markov kernel at every s.  V_s
    is V0 where C_s = 0; otherwise it is read through the spline of the
    flow measure at s on the same grid and rule, or of ``v_s``, its
    V_s grid, when the caller already holds it.  Returns (v,
    images): where C_s = 0, v is V_t on the nodes from the same pass, the
    -logsumexp of its log-weights; otherwise, or where the kernel has
    numerically zero width and P_{s,t} is the identity, v is None.
    """
    if s > t:
        raise ValueError(f"semigroup requires s <= t, got s={s}, t={t}")
    for f in fs:
        if f.box != box or f.shape != tuple(shape):
            raise ValueError(f"input grid {f.box}, {f.shape}: the flow "
                             f"measure lives on {box}, {shape}")
    cs, _, _ = schedule.eval(s)
    ct, _, _ = schedule.eval(t)
    kernel = ct - cs
    kw = np.linalg.eigvalsh(0.5 * (kernel + kernel.T))
    if kw[0] < -1e-10 * max(1.0, kw[-1]):
        raise ValueError("C_t - C_s is not positive-semidefinite")
    if kw[-1] <= 1e-14:
        return None, tuple(GridFunction(box, f.values.copy()) for f in fs)
    reach = _KERNEL_SIGMAS * math.sqrt(kw[-1])
    halfwidth = float(np.min(box.halfwidths()))
    if reach > halfwidth:
        raise ValueError(
            f"convolution kernel ({reach:.2f} at {_KERNEL_SIGMAS} sigma) wider "
            f"than box halfwidth {halfwidth:.2f}; use a larger box")
    if np.any(cs):
        if v_s is None:
            v_s = GridFunction(box, FlowMeasure(schedule, V0, s, box, shape,
                                                q).v_grid)
        v_at = v_s.interpolator()

        def tilt(pts, logw):
            return logw[None, :] - np.asarray(
                v_at(pts.reshape(-1, box.dim))).reshape(pts.shape[:2])
    else:
        tilt = partial(_tilted_log_weights, V0)
    v, images = _grid_pass(box.nodes(shape),
                           _gaussian_shifts(kernel, box.dim, q), tilt, fs)
    return (None if np.any(cs) else v,
            tuple(GridFunction(box, img.reshape(shape)) for img in images))


def _log_density(schedule: CovarianceSchedule, t: float, nodes: np.ndarray,
                v: np.ndarray) -> np.ndarray:
    """Unnormalized log density -1/2 <x, (C_inf - C_t)^{-1} x> - V_t(x) of
    the flow measure at the points ``nodes`` (N, d), given V_t there as
    ``v`` (N,)."""
    prec = schedule.residual_inverse(t)
    quadform = 0.5 * np.einsum("mi,ij,mj->m", nodes, prec, nodes)
    return -quadform - v


@dataclass
class FlowMeasure:
    """The flow measure at one scale, materialized on a truncated grid.

    Carries V_t and the unnormalized log density on the nodes, the log
    normalizer over the box, and the schedule, potential and quadrature
    rule it was built with.  Everything else is read from these grids: the
    normalized ``density`` and trapezoid ``expectation``s over the box.

    ``carry`` takes grid functions at scale 0 on the measure's grid;
    ``transported`` then holds P_{0,t} of each, in order, from one pass
    (see ``_transport``).  Where C_0 = 0 that pass also gives V_t.
    """

    schedule: CovarianceSchedule
    V0: PotentialDescriptor
    t: float
    box: Box
    grid_shape: tuple
    quad: QuadratureRule
    carry: InitVar[tuple] = ()
    v_grid: np.ndarray = field(init=False, repr=False)
    log_density_grid: np.ndarray = field(init=False, repr=False)
    log_normalizer: float = field(init=False)
    transported: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, carry=()):
        nodes = self.box.nodes(self.grid_shape)
        ct, _, _ = self.schedule.eval(self.t)
        v, self.transported = None, ()
        if carry:
            v, self.transported = _transport(
                self.schedule, self.V0, self.quad, 0.0, self.t, self.box,
                self.grid_shape, tuple(carry))
        # a closed form needs no pass, and its value replaces the pass's
        if v is None or self.V0.form in _CLOSED_FORMS:
            v = renormalized_value(self.V0, ct, nodes, self.quad)
        self.v_grid = v.reshape(self.grid_shape)
        self.log_density_grid = _log_density(
            self.schedule, self.t, nodes, v).reshape(self.grid_shape)
        shift = float(np.max(self.log_density_grid))
        w = self.box.trapezoid_weights(self.grid_shape)
        self.log_normalizer = shift + math.log(
            float(np.sum(w * np.exp(self.log_density_grid - shift))))

    @property
    def density(self) -> GridFunction:
        """Normalized density values on the grid."""
        return GridFunction(self.box,
                            np.exp(self.log_density_grid - self.log_normalizer))

    def expectation(self, values: np.ndarray) -> float:
        w = self.box.trapezoid_weights(self.grid_shape)
        dens = np.exp(self.log_density_grid - self.log_normalizer)
        return float(np.sum(w * dens * values))


def make_flow_measure(schedule, V0, t, grid_shape, box=None,
                      q: QuadratureRule = DEFAULT_RULE,
                      carry: tuple = ()) -> FlowMeasure:
    if box is None:
        box = default_box(schedule)
    if isinstance(grid_shape, int):
        grid_shape = (grid_shape,) * box.dim
    return FlowMeasure(schedule, V0, t, box, tuple(grid_shape), q, carry=carry)


def semigroup_apply(schedule, V0, s: float, t: float, f: GridFunction,
                    q: QuadratureRule = DEFAULT_RULE) -> GridFunction:
    """Apply P_{s,t} to a grid function, returning values on the same grid.

    One rule at every s (see ``_transport``): where C_s != 0, V_s is read
    from the flow measure at s on f's grid; V_t is never built.
    """
    return _transport(schedule, V0, q, s, t, f.box, f.shape, (f,))[1][0]


@dataclass
class VarianceDecompositionReport:
    variance: float
    integral: float
    tail_estimate: float
    relative_mismatch: float
    conservation_max_dev: float
    integrand: np.ndarray
    t_nodes: np.ndarray
    weights: np.ndarray
    tail_ok: bool


def _graded_legendre_rule(t_max: float, count: int) -> tuple:
    """Nodes and weights on [0, t_max] of the ``count``-node Gauss-Legendre
    rule in the graded variable u in [0, 1], t = t_max (e^{gu} - 1)/(e^g - 1)
    with g = 3, so that nodes crowd near t = 0: the weights carry dt/du."""
    u, w = np.polynomial.legendre.leggauss(count)
    u = 0.5 * (u + 1.0)
    g = 3.0
    scale = t_max / math.expm1(g)
    return scale * np.expm1(g * u), 0.5 * w * scale * g * np.exp(g * u)


def conservation_check(schedule, V0, F: GridFunction, t_max: float,
                       count: int, q: QuadratureRule = DEFAULT_RULE,
                       lambda_at_T: float | None = None,
                       lambda_prime_floor: float | None = None
                       ) -> VarianceDecompositionReport:
    """Variance decomposition audit along the flow.

    Checks Var_{nu_0}(F) against the time integral of the weighted Dirichlet
    energies of P_{0,t}F, plus conservation of E_{nu_t}[P_{0,t}F] at every
    node.  The infinite upper limit is truncated at T = ``t_max``, and
    [0, T] is integrated by the ``count``-node Gauss-Legendre rule in the
    graded variable u in [0, 1], t = T (e^{gu} - 1)/(e^g - 1) with
    g = 3: the weights are the Legendre weights times dt/du.  The
    integrands decay like exp(-c t), smooth in u, so the rule converges
    spectrally (Golub & Welsch, Math. Comp. 23 (1969) 221).  The tail
    beyond T is bounded with the curvature data when supplied and by the
    empirical decay rate of the integrand over the last five nodes
    otherwise.
    """
    if not t_max > 0 or count < 2:
        raise ValueError(f"need t_max > 0 and at least two nodes, got "
                         f"t_max={t_max}, count={count}")
    shape = F.shape
    t_nodes, weights = _graded_legendre_rule(t_max, count)

    m0 = make_flow_measure(schedule, V0, 0.0, shape, box=F.box, q=q)
    mean0 = m0.expectation(F.values)
    var0 = m0.expectation(F.values**2) - mean0**2

    # built here, once: the scales share F's interpolant and only read it
    F.interpolator()
    # Where C_0 = 0, V_t and P_{0,t}F come out of one pass per scale.
    # Otherwise P_{0,t} reads V_0 from m0's grid rather than rebuild it.
    v0 = None
    if np.any(schedule.eval(0.0)[0]):
        v0 = GridFunction(F.box, m0.v_grid)
        v0.interpolator()

    def scale(t):
        if v0 is None:
            mt = make_flow_measure(schedule, V0, t, shape, box=F.box, q=q,
                                   carry=(F,))
            phi, = mt.transported
        else:
            mt = make_flow_measure(schedule, V0, t, shape, box=F.box, q=q)
            phi, = _transport(schedule, V0, q, 0.0, t, F.box, shape, (F,),
                              v0)[1]
        _, cp, _ = schedule.eval(t)
        grad = phi.gradient()
        energy = np.einsum("...i,ij,...j->...", grad, cp, grad)
        return mt.expectation(energy), abs(mt.expectation(phi.values) - mean0)

    integrand = np.empty(count)
    cons_dev = 0.0
    for i, (energy, dev) in enumerate(_map_scales(scale, t_nodes)):
        integrand[i] = energy
        cons_dev = max(cons_dev, dev)

    integral = float(integrand @ weights)

    if lambda_at_T is not None and lambda_prime_floor is not None:
        if lambda_prime_floor <= 0:
            raise ValueError("bound divergent: lambda-prime floor <= 0")
        _, cpT, _ = schedule.eval(t_max)
        gradF = F.gradient()
        sup_grad2 = float(np.max(np.sum(gradF**2, axis=-1)))
        radius = float(np.max(np.abs(np.linalg.eigvalsh(cpT))))
        tail = radius * math.exp(-2.0 * lambda_at_T) * sup_grad2 \
            / (2.0 * lambda_prime_floor)
    else:
        # empirical decay: fit the log slope of the last integrand values
        tailpts = integrand[-5:]
        ts = t_nodes[-5:]
        pos = tailpts > 0
        if pos.sum() >= 2:
            slope = np.polyfit(ts[pos], np.log(tailpts[pos]), 1)[0]
            tail = integrand[-1] / (-slope) if slope < 0 else math.inf
        else:
            tail = 0.0
        if not math.isfinite(tail):
            tail = math.inf

    tail_ok = tail <= _TAIL_TOL
    mismatch = abs(var0 - integral) / max(abs(var0), 1e-300)
    return VarianceDecompositionReport(
        variance=var0, integral=integral, tail_estimate=tail,
        relative_mismatch=mismatch, conservation_max_dev=cons_dev,
        integrand=integrand, t_nodes=t_nodes, weights=weights,
        tail_ok=tail_ok)


def load_density_table(path):
    """Two-column text table (x, density) of finite numbers, uniform
    strictly increasing x, and a nonnegative density with some positive
    entry."""
    data = np.loadtxt(path, comments="#")
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("density table must have exactly two columns")
    if not np.all(np.isfinite(data)):
        raise ValueError("density table entries must be finite")
    x, dens = data[:, 0], data[:, 1]
    if np.any(dens < 0):
        raise ValueError("density table has negative entries")
    if not np.any(dens > 0):
        raise ValueError("density table has no positive mass")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("density table x must be strictly increasing")
    if np.max(np.abs(dx - dx[0])) > 1e-8 * dx[0]:
        raise ValueError("density table requires uniform spacing")
    return x, dens


@dataclass
class HeatflowReport:
    s_grid: np.ndarray
    poincare: np.ndarray
    log_concave_input: bool
    monotone: bool
    worst_drop: float
    two_sided_margin: float


def _discrete_log_concave(density: np.ndarray) -> bool:
    pos = density > 0
    if not np.all(pos[np.argmax(pos):len(pos) - np.argmax(pos[::-1])]):
        return False
    logd = np.log(density[pos])
    if len(logd) < 3:
        return True
    mid = 0.5 * (logd[:-2] + logd[2:])
    scale = max(1.0, float(np.max(np.abs(logd))))
    return bool(np.all(logd[1:-1] >= mid - 1e-9 * scale))


def heatflow_harness(x_nodes, density, s_grid, grid_points: int = 2049,
                     monotone_tol: float = 1e-4) -> HeatflowReport:
    """Poincare constant of mu0 convolved with gaussian_s, per s.

    Uses the standard (unweighted) carre du champ.  If the input density is
    log-concave by the discrete midpoint test, the trace is checked for
    monotonicity within ``monotone_tol``.  Also reports the two-sided margin
    C_P(mu0) - (C_P(mu0 * gamma_1) - 1), which is nonnegative for any input.
    """
    import warnings

    from .spectral import build_generator_from_density, spectrum

    x_nodes = np.asarray(x_nodes, dtype=float)
    density = np.asarray(density, dtype=float)
    if np.any(density < 0):
        raise ValueError("density table has negative entries")
    table_box = Box((x_nodes[0],), (x_nodes[-1],))
    total = integrate_grid(table_box, density)
    if abs(total - 1.0) > 1e-8:
        warnings.warn(f"input density integrates to {total:.6g}; normalizing",
                      stacklevel=2)
        density = density / total

    log_concave = _discrete_log_concave(density)
    s_grid = np.asarray(s_grid, dtype=float)
    s_eval = np.unique(np.concatenate([s_grid, [0.0, 1.0]]))

    table_w = table_box.trapezoid_weights(density.shape)

    def poincare_at(s: float) -> float:
        if s == 0.0:
            box = table_box
            ys = box.axes((grid_points,))[0]
            w = np.interp(ys, x_nodes, density)
        else:
            pad = BOX_HALFWIDTH_SIGMAS * math.sqrt(s)
            box = Box((x_nodes[0] - pad,), (x_nodes[-1] + pad,))
            ys = box.axes((grid_points,))[0]
            sd = math.sqrt(s)
            y = (ys[:, None] - x_nodes[None, :]) / sd
            kern = np.exp(-y**2 / 2.0) / math.sqrt(2.0 * math.pi) / sd
            w = kern @ (table_w * density)
        gen = build_generator_from_density(box, w)
        return spectrum(gen, k=1, refine=False).poincare_constant

    values = {s: poincare_at(s) for s in s_eval}
    trace = np.array([values[s] for s in s_grid])
    drops = np.diff(trace)
    worst_drop = float(-np.min(drops)) if len(drops) else 0.0
    monotone = worst_drop <= monotone_tol
    two_sided = values[0.0] - (values[1.0] - 1.0)
    return HeatflowReport(
        s_grid=s_grid, poincare=trace, log_concave_input=log_concave,
        monotone=monotone, worst_drop=worst_drop,
        two_sided_margin=float(two_sided))


def default_sample_points(measure: FlowMeasure, seed: int = 1234) -> np.ndarray:
    """Sample set standing in for "for all x" quantifiers.

    Tensor grid over the sub-box holding all but ``_SAMPLE_MASS_TOL`` of the
    measure, plus seeded uniform points in the same sub-box.
    """
    dens = measure.density.values
    w = measure.box.trapezoid_weights(measure.grid_shape)
    axes = measure.box.axes(measure.grid_shape)
    lims = []
    for k in range(measure.box.dim):
        other = tuple(i for i in range(measure.box.dim) if i != k)
        marg = np.sum(dens * w, axis=other)
        cum = np.cumsum(marg)
        cum /= cum[-1]
        lo_i = int(np.searchsorted(cum, 0.5 * _SAMPLE_MASS_TOL))
        hi_i = int(np.searchsorted(cum, 1.0 - 0.5 * _SAMPLE_MASS_TOL))
        lims.append((axes[k][max(lo_i - 1, 0)],
                     axes[k][min(hi_i + 1, len(axes[k]) - 1)]))
    grids = np.meshgrid(*[np.linspace(lo, hi, _SAMPLE_GRID) for lo, hi in lims],
                        indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    rng = np.random.default_rng(seed)
    rand = np.column_stack([rng.uniform(lo, hi, _SAMPLE_RANDOM) for lo, hi in lims])
    return np.vstack([pts, rand])
