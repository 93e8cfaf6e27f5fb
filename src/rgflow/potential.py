"""Renormalized potentials V_t = -log(gaussian_C * exp(-V0)) and derivatives.

The base potential V0 comes in three forms: zero, quadratic (1/2 <x, Bx>),
and the per-coordinate quartic sum_i (g_i/4 x_i^4 + nu_i/2 x_i^2 - h_i x_i),
which is also the lattice phi^4 site sum.  Smoothing by a Gaussian of
covariance C has an exact closed form for the zero and quadratic forms; the
quartic is smoothed with tensorized Gauss-Hermite quadrature restricted to
the range of C, stabilized in log space.

Gradient and Hessian of the smoothed potential are tilted moments: with
rho(z) proportional to exp(-V0(x+z)) gamma_C(dz),

    grad V_t(x) = E_rho[grad V0(x+z)]
    hess V_t(x) = E_rho[hess V0(x+z)] - Cov_rho(grad V0(x+z)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# numpy loads this submodule on first access; import it with the package so
# that a run does not pay for it inside its first timed call
import numpy.polynomial.hermite_e  # noqa: F401

from .errors import QuadratureOverflowError

# Forms whose smoothed value and derivatives have exact closed forms.
_CLOSED_FORMS = ("zero", "quadratic")

DEFAULT_ORDER = 40
MAX_TENSOR_DIM = 3

# Relative eigenvalue cutoff below which a covariance direction is treated as
# degenerate and dropped from the quadrature (convolution on range(C) only).
_RANK_RTOL = 1e-13

# Evaluation nodes (points x Gaussian shifts) per batch in the tilted-moment
# derivatives: 32 points of a 40^2 rule, 400 KB per array of a batch.
# Batches 8x that size made rate extraction 1.3x (1-D, order 80) to 1.6x
# (2-D, order 40) slower on 2 cores, and once every rate time shares one
# call they set the peak memory of a 1-D run.
_DERIVATIVE_NODES = 32 * 1600


@dataclass(frozen=True)
class PotentialDescriptor:
    """Base potential V0: its form, its finite coefficients and its value.

    ``g``/``nu``/``h`` are per-coordinate arrays for the quartic form;
    ``b_matrix`` is the symmetric matrix of the quadratic form.  ``value``
    accepts a single point ``(d,)`` or a batch ``(m, d)``.
    """

    form: str
    dimension: int
    b_matrix: np.ndarray | None = None
    g: np.ndarray | None = None
    nu: np.ndarray | None = None
    h: np.ndarray | None = None

    @staticmethod
    def zero(dimension: int) -> "PotentialDescriptor":
        return PotentialDescriptor(form="zero", dimension=int(dimension))

    @staticmethod
    def quadratic(b_matrix) -> "PotentialDescriptor":
        b = np.atleast_2d(np.asarray(b_matrix, dtype=float))
        if not np.all(np.isfinite(b)):
            raise ValueError(f"quadratic b_matrix must be finite, got {b.tolist()}")
        if not np.allclose(b, b.T, atol=1e-12 * max(1.0, np.abs(b).max())):
            raise ValueError("quadratic coefficient matrix must be symmetric")
        return PotentialDescriptor(form="quadratic", dimension=b.shape[0],
                                   b_matrix=0.5 * (b + b.T))

    @staticmethod
    def quartic(g, nu, h=None, dimension=None) -> "PotentialDescriptor":
        """Per-coordinate quartic family g/4 x^4 + nu/2 x^2 - h x."""
        g = np.atleast_1d(np.asarray(g, dtype=float))
        nu = np.atleast_1d(np.asarray(nu, dtype=float))
        if dimension is None:
            dimension = max(len(g), len(nu), 0 if h is None else len(np.atleast_1d(h)))
        g = np.broadcast_to(g, (dimension,)).copy()
        nu = np.broadcast_to(nu, (dimension,)).copy()
        h = np.zeros(dimension) if h is None else np.broadcast_to(
            np.atleast_1d(np.asarray(h, dtype=float)), (dimension,)).copy()
        for name, v in (("g", g), ("nu", nu), ("h", h)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"quartic {name} must be finite, got {v.tolist()}")
        if np.any(g < 0):
            raise ValueError("quartic g must be nonnegative for integrability")
        return PotentialDescriptor("phi4-site-sum", dimension, g=g, nu=nu, h=h)

    def value(self, x) -> np.ndarray | float:
        x, single = _as_batch(x, self.dimension)
        if self.form == "zero":
            out = np.zeros(x.shape[0])
        elif self.form == "quadratic":
            out = 0.5 * np.einsum("mi,ij,mj->m", x, self.b_matrix, x)
        else:
            # stays x**4: it feeds V_t, whose mu_0 round-off the benchmark gate pins
            out = np.sum(0.25 * self.g * x**4 + 0.5 * self.nu * x**2 - self.h * x,
                         axis=-1)
        return out[0] if single else out


def _as_batch(x, d):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
        return x, True
    if x.ndim == 1:
        if len(x) != d:
            raise ValueError(f"point has dimension {len(x)}, potential expects {d}")
        return x.reshape(1, d), True
    if x.shape[-1] != d:
        raise ValueError(f"batch has dimension {x.shape[-1]}, potential expects {d}")
    return x, False


@lru_cache(maxsize=64)
def _hermite_tensor(order: int, dim: int):
    nodes1, w1 = np.polynomial.hermite_e.hermegauss(order)
    w1 = w1 / np.sqrt(2.0 * np.pi)  # standard normal expectation weights
    if dim == 0:
        return np.zeros((1, 0)), np.array([0.0])
    grids = np.meshgrid(*([nodes1] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    logw = np.zeros(nodes.shape[0])
    lw1 = np.log(w1)
    for axis in range(dim):
        grid = np.meshgrid(*([lw1] * dim), indexing="ij")[axis]
        logw += grid.ravel()
    return nodes, logw


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss-Hermite rule for expectations against the standard normal.

    Exact for per-axis polynomials of degree <= 2*order - 1.  Tensor grids
    are capped at dimension 3; higher dimensions go through sampling paths
    elsewhere.
    """

    order: int = DEFAULT_ORDER
    dimension: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("quadrature order must be >= 1")
        if self.dimension > MAX_TENSOR_DIM:
            raise ValueError(
                f"tensor quadrature capped at dimension {MAX_TENSOR_DIM}, "
                f"got {self.dimension}")

    def rule(self, dim: int | None = None):
        """(nodes, log-weights) for a standard normal in ``dim`` axes."""
        dim = self.dimension if dim is None else dim
        if dim > MAX_TENSOR_DIM:
            raise ValueError(f"tensor quadrature capped at dimension {MAX_TENSOR_DIM}")
        return _hermite_tensor(self.order, dim)

    @staticmethod
    def for_dimension(dimension: int, order: int = DEFAULT_ORDER) -> "QuadratureRule":
        """Default rule for a potential on R^dimension: the tensor grid is
        capped at MAX_TENSOR_DIM axes."""
        return QuadratureRule(order=order, dimension=min(dimension, MAX_TENSOR_DIM))


def _gaussian_shifts(c, d, q: QuadratureRule):
    """Quadrature rule for z ~ gamma_C on R^d: nodes z (Q, d), log-weights.

    C is factored on its range, so degenerate directions carry no nodes.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.shape != (d, d):
        raise ValueError(f"covariance has shape {c.shape}, expected {(d, d)}")
    w, u = np.linalg.eigh(0.5 * (c + c.T))
    if w[0] < -1e-10 * max(1.0, w[-1]):
        raise ValueError(f"covariance not positive-semidefinite: eigenvalue {w[0]:.3e}")
    keep = w > _RANK_RTOL * max(w[-1], 1e-300)
    L = u[:, keep] * np.sqrt(w[keep]) if np.any(keep) else np.zeros((d, 0))
    nodes, logw = q.rule(L.shape[1])
    return nodes @ L.T, logw


def renormalized_value(V0: PotentialDescriptor, c, x, q: QuadratureRule | None = None):
    """Smoothed potential -log E_{z~gamma_C}[exp(-V0(x+z))] at x.

    Zero and quadratic V0 take their closed form, the quartic takes
    quadrature.  Batched over x.
    """
    if V0.form in _CLOSED_FORMS:
        return _closed_form_value(V0, c, x)
    q = q or QuadratureRule.for_dimension(V0.dimension)

    xb, single = _as_batch(x, V0.dimension)
    z, logw = _gaussian_shifts(c, V0.dimension, q)
    pts = xb[:, None, :] + z[None, :, :]
    out = _smoothed_value(_tilted_log_weights(V0, pts, logw))
    return float(out[0]) if single else out


def _tilted_log_weights(V0: PotentialDescriptor, pts: np.ndarray,
                        logw: np.ndarray) -> np.ndarray:
    """log w_q - V0(x + z_q) on the points ``pts`` (m, Q, d) = x + z_q.

    These are the log-weights of the tilted measure rho: their
    -logsumexp over q is V_t(x), and P_{0,t} is the expectation under the
    normalized weights.  The one kernel that meets V0 with a Gauss-Hermite
    rule on the V_t path.
    """
    m, Q, d = pts.shape
    return logw[None, :] - V0.value(pts.reshape(-1, d)).reshape(m, Q)


def _smoothed_value(le: np.ndarray) -> np.ndarray:
    """V_t = -logsumexp of the tilted log-weights ``le`` (m, Q), per row."""
    total = _logsumexp_rows(le)
    if not np.all(np.isfinite(total)):
        raise QuadratureOverflowError(
            "quadrature overflow: all weights underflowed (max exponent "
            f"{float(np.max(le)):.6g}); increase the quadrature order")
    return -total


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log sum_q exp(a[:, q]) for each row of a 2-D array.

    Follows ``scipy.special.logsumexp(a, axis=1)`` operation by operation,
    so the two agree bit for bit: the m entries tied at the row maximum are
    set aside, s is the sum of exp(a - max) over the rest, and the result is
    log1p(s / m) + log(m) + max.  A row where that is not finite takes
    log(sum(exp(a))) instead.
    """
    a_max = np.max(a, axis=1, keepdims=True)
    top = a == a_max
    m = np.count_nonzero(top, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(a - a_max)
        e[top] = 0.0
        out = np.log1p(np.sum(e, axis=1) / m) + np.log(m) + a_max[:, 0]
        bad = ~np.isfinite(out)
        if np.any(bad):
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


def _smoothed_quadratic(V0, c):
    """(B (I + C B)^{-1}, log det(I + C B)) for the quadratic form 1/2 <x, Bx>."""
    b = V0.b_matrix
    c = np.atleast_2d(np.asarray(c, dtype=float))
    mmat = np.eye(V0.dimension) + c @ b
    heff = np.linalg.solve(mmat.T, b.T).T  # B (I + C B)^{-1}, symmetric
    heff = 0.5 * (heff + heff.T)
    sign, logdet = np.linalg.slogdet(mmat)
    if sign <= 0:
        raise ValueError("I + C B is not positive; quadratic form not integrable")
    return heff, logdet


def _closed_form_value(V0, c, x):
    x, single = _as_batch(x, V0.dimension)
    if V0.form == "zero":
        out = np.zeros(x.shape[0])
        return float(out[0]) if single else out
    heff, logdet = _smoothed_quadratic(V0, c)
    out = 0.5 * np.einsum("mi,ij,mj->m", x, heff, x) + 0.5 * logdet
    return float(out[0]) if single else out


def _closed_form_derivatives(V0, c, x):
    x, single = _as_batch(x, V0.dimension)
    d = V0.dimension
    if V0.form == "zero":
        g = np.zeros((x.shape[0], d))
        h = np.zeros((x.shape[0], d, d))
    else:
        heff, _ = _smoothed_quadratic(V0, c)
        g = x @ heff
        h = np.broadcast_to(heff, (x.shape[0], d, d)).copy()
    return (g[0], h[0]) if single else (g, h)


def renormalized_derivatives(V0: PotentialDescriptor, c, x,
                             q: QuadratureRule | None = None):
    """Gradient and Hessian of the smoothed potential at x (batched).

    Zero and quadratic V0 take their closed form, the quartic takes
    quadrature.  Returns ``(grad, hess)`` with shapes ``(d,), (d, d)`` for
    a single point and ``(m, d), (m, d, d)`` for a batch.
    """
    if V0.form in _CLOSED_FORMS:
        return _closed_form_derivatives(V0, c, x)
    q = q or QuadratureRule.for_dimension(V0.dimension)

    xb, single = _as_batch(x, V0.dimension)
    grads, hesss = _tilted_derivatives(
        V0, _gaussian_shifts(c, V0.dimension, q), xb)
    if single:
        return grads[0], hesss[0]
    return grads, hesss


def _tilted_derivatives(V0: PotentialDescriptor, shifts, xb: np.ndarray,
                        which: np.ndarray | None = None):
    """Tilted-moment gradient and Hessian of the quartic ``V0`` at a batch
    ``xb`` (m, d), for the Gaussian shifts ``(z, logw)`` of one covariance
    (``_gaussian_shifts``).

    With ``which`` (m,), the shifts are those of T covariances stacked as
    ``(T, Q, d)`` and ``(T, Q)``, and row i reads covariance ``which[i]``:
    each chunk gathers the shifts of its own rows, so one call serves many
    scales in the memory of one.  Nodes are held axis by axis,
    ``(d, points, Q)``, and each axis takes one fused pass with scalar
    coefficients and products only (no libm pow): x^2 once, the value, the
    gradient in place, and E[hess V0] as the weighted mean of the diagonal
    3 g x^2 + nu.  Float overflow inside the loop is not warned about: any
    non-finite result raises QuadratureOverflowError at the end.
    """
    z, logw = shifts
    m, d = xb.shape
    diag = np.arange(d)
    grads = np.empty((m, d))
    hesss = np.empty((m, d, d))
    Q = z.shape[-2]
    chunk = max(1, _DERIVATIVE_NODES // Q)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, chunk):
            rows = slice(start, start + chunk)
            xc = xb[rows]
            mm = len(xc)
            at = slice(None) if which is None else which[rows]
            x = np.empty((d, mm, Q))
            for k in range(d):
                np.add(xc[:, k, None], z[at, ..., k], out=x[k])
            # fused instead of V0.value, which keeps x**4 (see there)
            x2 = x * x
            value = np.zeros((mm, Q))
            for k, (g, nu, h) in enumerate(zip(V0.g, V0.nu, V0.h)):
                terms = x2[k] * (0.25 * g)
                terms += 0.5 * nu
                terms *= x[k]
                terms -= h
                terms *= x[k]
                value += terms
            del terms
            le = np.subtract(logw[at], value, out=value)
            mshift = np.max(le, axis=1, keepdims=True)
            if not np.all(np.isfinite(mshift)):
                raise QuadratureOverflowError(
                    "quadrature overflow in derivatives; increase the order")
            le -= mshift
            wts = np.exp(le, out=le)
            wts /= wts.sum(axis=1, keepdims=True)
            mean_diag = 3.0 * V0.g * _weighted_sum(wts, x2).T + V0.nu
            gv = x2
            for k, (g, nu, h) in enumerate(zip(V0.g, V0.nu, V0.h)):
                gv[k] *= g
                gv[k] += nu
                gv[k] *= x[k]
                gv[k] -= h
            del x
            gbar = _weighted_sum(wts, gv)
            gv -= gbar[:, :, None]
            cov = (gv * wts).transpose(1, 0, 2) @ gv.transpose(1, 2, 0)
            grads[rows] = gbar.T
            np.negative(cov, out=hesss[rows])
            hesss[rows, diag, diag] += mean_diag
    if not (np.all(np.isfinite(grads)) and np.all(np.isfinite(hesss))):
        raise QuadratureOverflowError(
            "quadrature overflow in derivatives: non-finite gradient or "
            "Hessian; the potential is too large for double precision")
    return grads, hesss


def _weighted_sum(wts: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_q wts[p, q] a[..., p, q] as one batch of dot products."""
    return (a[..., None, :] @ wts[..., None])[..., 0, 0]
