"""Renormalized potentials V_t = -log(gaussian_C * exp(-V0)) and derivatives.

The base potential V0 comes in three forms: zero, quadratic (1/2 <x, Bx>),
and the per-coordinate quartic sum_i (g_i/4 x_i^4 + nu_i/2 x_i^2 - h_i x_i),
which is also the lattice phi^4 site sum.  Smoothing by a Gaussian of
covariance C has an exact closed form for the zero and quadratic forms; the
quartic is smoothed with tensorized Gauss-Hermite quadrature restricted to
the range of C, stabilized in log space.  A rule is its order
(``QuadratureRule``), and ``DEFAULT_RULE`` is the rule of every call that
names none.  V_t on points, a flow measure's grid nodes among them, comes
from one chunked pass (``_grid_pass``), which also carries the semigroup's
images of grid functions when the flow asks for them.

Gradient and Hessian of the smoothed potential are tilted moments: with
rho(z) proportional to exp(-V0(x+z)) gamma_C(dz),

    grad V_t(x) = E_rho[grad V0(x+z)]
    hess V_t(x) = E_rho[hess V0(x+z)] - Cov_rho(grad V0(x+z)).

For the quartic, V0(x+z) - V0(x) and grad V0(x+z) are polynomials in the
shift z with coefficients that depend on x alone.  So the log-weights of a
batch are one matrix product of those coefficients with the powers of the
rule's nodes, and every moment the derivatives need is one more product of
the weights with a monomial basis of the nodes, built once per covariance.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache, partial

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

# Evaluation nodes (points x Gaussian shifts) in flight at once in a V_t
# pass: each chunk of ``_grid_pass`` gets _PASS_NODES // _usable_cores(), so
# the workers of ``flow._map_scales`` together stay within one serial pass's
# memory.
_PASS_NODES = 2_000_000

# Evaluation nodes (points x Gaussian shifts) per chunk of the tilted-moment
# derivatives: 24 points of a 40^2 rule.  Both limits were measured on 2
# cores.  With 32 such points the moment product (32 x 1600 @ 1600 x 21)
# was large enough for OpenBLAS to run it on 2 threads, and after the
# machine had idled for 15 s each such product took 3 to 5 ms instead of
# 0.07 ms, so a lone plaquette run was 0.8 s slower.  Chunks of 87,000
# nodes raised the peak memory of the dwell benchmark by 2.7 MB.
_DERIVATIVE_NODES = 24 * 1600

# Shifted log-weight below which a tilted-moment weight is taken as exactly
# 0 rather than exponentiated (``_tilted_derivatives``): just above the
# -708.4 where exp's results turn subnormal.
_WEIGHT_FLOOR = -700.0


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
            # Stays x**4, although (x*x)*(x*x) is cheaper: it feeds V_t, and
            # the benchmark gate pins the round-off of mu_0.  With numpy
            # 2.4.6 on an AVX-512 core x**4 takes 2.6 ns an element where
            # x >= 0 and 116 ns where x < 0 (a scalar loop), and its bits
            # differ from libm's pow in about 5 % of elements, so the gated
            # mu_0 cells may depend on numpy's CPU dispatch.
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
def _hermite_rule(order: int):
    """1-D Gauss-Hermite (nodes, log-weights) for the standard normal."""
    nodes, w = np.polynomial.hermite_e.hermegauss(order)
    logw = np.log(w / np.sqrt(2.0 * np.pi))
    nodes.flags.writeable = logw.flags.writeable = False
    return nodes, logw


@lru_cache(maxsize=64)
def _hermite_tensor(order: int, dim: int):
    if dim == 0:
        return np.zeros((1, 0)), np.array([0.0])
    nodes1, lw1 = _hermite_rule(order)
    grids = np.meshgrid(*([nodes1] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    logw = np.zeros(nodes.shape[0])
    for grid in np.meshgrid(*([lw1] * dim), indexing="ij"):
        logw += grid.ravel()
    return nodes, logw


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss-Hermite rule for expectations against the standard normal.

    The rule is its order: ``rule(dim)`` builds the tensor grid on ``dim``
    axes, exact for per-axis polynomials of degree <= 2*order - 1.  Grids are
    capped at MAX_TENSOR_DIM axes; higher dimensions go through sampling
    paths elsewhere.
    """

    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("quadrature order must be >= 1")

    def rule(self, dim: int):
        """(nodes, log-weights) for a standard normal in ``dim`` axes."""
        if dim > MAX_TENSOR_DIM:
            raise ValueError(f"tensor quadrature capped at dimension "
                             f"{MAX_TENSOR_DIM}, got {dim}")
        return _hermite_tensor(self.order, dim)


# The rule every smoothing call takes when none is given.
DEFAULT_RULE = QuadratureRule()


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


def renormalized_value(V0: PotentialDescriptor, c, x,
                       q: QuadratureRule = DEFAULT_RULE):
    """Smoothed potential -log E_{z~gamma_C}[exp(-V0(x+z))] at x.

    Zero and quadratic V0 take their closed form, the quartic takes
    quadrature in one chunked pass (``_grid_pass``).  Batched over x.
    """
    if V0.form in _CLOSED_FORMS:
        return _closed_form_value(V0, c, x)
    xb, single = _as_batch(x, V0.dimension)
    v, _ = _grid_pass(xb, _gaussian_shifts(c, V0.dimension, q),
                      partial(_tilted_log_weights, V0), ())
    return float(v[0]) if single else v


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _grid_pass(nodes: np.ndarray, shifts, tilt, fs) -> tuple:
    """One chunked pass over nodes x Gaussian shifts ``(z, logw)``.

    Per chunk of nodes, ``tilt(pts, logw)`` gives the integrand log-weights
    le = logw - V_s(x + z) on pts = x + z.  Each node gets
    v = -logsumexp(le), and each grid function f in ``fs`` becomes the
    expectation of f(x + z) under the normalized weights,
    P f = exp(v + max le) sum_q exp(le - max le) f(x + z_q).
    A chunk holds _PASS_NODES // _usable_cores() evaluation nodes, nodes x
    shifts.  Returns (v, [P f values per function]).
    """
    z, logw = shifts
    n, d = nodes.shape
    v = np.empty(n)
    interps = [f.interpolator() for f in fs]
    images = [np.empty(n) for _ in fs]
    chunk = max(1, _PASS_NODES // _usable_cores() // max(len(z), 1))
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        pts = nodes[rows, None, :] + z[None, :, :]
        le = tilt(pts, logw)
        v[rows] = _smoothed_value(le)
        if interps:
            shift = np.max(le, axis=1)
            wts = np.exp(le - shift[:, None])
            scale = np.exp(v[rows] + shift)
            for image, interp in zip(images, interps):
                fv = np.asarray(interp(pts.reshape(-1, d))).reshape(le.shape)
                image[rows] = scale * np.einsum("mq,mq->m", wts, fv)
                del fv
            del wts
        # released before the next chunk is built
        del pts, le
    return v, images


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
    log1p(s / m) + log(m) + max.  That is finite wherever the row maximum
    is.  Where the maximum is +inf, -inf or nan, the result is that same
    value, and so is log(sum(exp(a))) of the row: no row needs a fallback.
    """
    a_max = np.max(a, axis=1, keepdims=True)
    top = a == a_max
    m = np.count_nonzero(top, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(a - a_max)
        e[top] = 0.0
        return np.log1p(np.sum(e, axis=1) / m) + np.log(m) + a_max[:, 0]


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
                             q: QuadratureRule = DEFAULT_RULE):
    """Gradient and Hessian of the smoothed potential at x (batched).

    Zero and quadratic V0 take their closed form, the quartic takes
    quadrature.  Returns ``(grad, hess)`` with shapes ``(d,), (d, d)`` for
    a single point and ``(m, d), (m, d, d)`` for a batch.
    """
    if V0.form in _CLOSED_FORMS:
        return _closed_form_derivatives(V0, c, x)
    xb, single = _as_batch(x, V0.dimension)
    z, logw = _gaussian_shifts(c, V0.dimension, q)
    grads, hesss = _tilted_derivatives(V0, _monomial_basis(z[None]),
                                       logw[None], xb[None])
    if single:
        return grads[0, 0], hesss[0, 0]
    return grads[0], hesss[0]


def _monomial_basis(z: np.ndarray) -> np.ndarray:
    """The monomials of stacked Gaussian shifts ``z`` (T, Q, d) that every
    tilted moment of the quartic needs, as one array (T, K, Q).

    Row p*d + k holds z_k^(p+1) for p < 6, so rows [:4d] are the powers of
    the log-weights; then come z_k^i z_l^j for k < l and i, j <= 3.  K is
    6d + 9 d(d-1)/2: 6, 21 and 45 for d = 1, 2 and 3.  Each block is written
    in place from the one before.
    """
    T, Q, d = z.shape
    basis = np.empty((T, 6 * d + 9 * (d * (d - 1) // 2), Q))
    basis[:, :d] = z.transpose(0, 2, 1)
    for p in range(1, 6):
        np.multiply(basis[:, (p - 1) * d:p * d], basis[:, :d],
                    out=basis[:, p * d:(p + 1) * d])
    row = 6 * d
    for k, l in itertools.combinations(range(d), 2):
        for i in range(3):
            np.multiply(basis[:, i * d + k, None], basis[:, l:3 * d:d],
                        out=basis[:, row:row + 3])
            row += 3
    return basis


def _tilted_derivatives(V0: PotentialDescriptor, basis: np.ndarray,
                        logw: np.ndarray, xb: np.ndarray):
    """Tilted-moment gradient and Hessian of the quartic ``V0`` at points
    ``xb`` (T, r, d), row block t under the Gaussian rule of covariance t:
    its monomial basis ``basis[t]`` (``_monomial_basis``) and log-weights
    ``logw[t]``.  Returns arrays (T, r, d) and (T, r, d, d).

    Per axis the quartic is a polynomial in the shift, v(x + z) - v(x) =
    sum_{j<=4} c_j(x) z^j with c = (v'(x), v''(x)/2, g x, g/4).  So one
    product of the coefficients (rows, 4d) with the powers (4d, Q) gives the
    log-weights, and one product of the weights (rows, Q) with the basis
    (Q, K) gives every moment: E z_k^j for j <= 6 and E z_k^i z_l^j for
    i, j <= 3.  Rows go through the products in chunks of
    ``_DERIVATIVE_NODES`` evaluation nodes, several times to a chunk when a
    time has few rows.  The gradient is v'(x) + a . (E z, E z^2, E z^3) with
    a = (v''(x), 3 g x, g), and the Hessian diag(E v''(x + z)) minus the
    covariance of a . (z, z^2, z^3), which leaves v'(x) out; both are
    assembled once for the whole batch.

    The covariance comes from raw moments, so it cancels where the tilted
    shift sits far from 0.  Against direct per-node sums, the worst Hessian
    error relative to its row maximum was 1.3e-12 for |x| <= 2 and C <= I,
    and 2e-10 for |x| <= 5 and C up to 10 I.  Float overflow is not warned
    about: any non-finite result raises QuadratureOverflowError.

    The log-weights of each row are shifted to a maximum of 0, and every
    shifted log-weight below ``_WEIGHT_FLOOR`` (-700) gets a weight of
    exactly 0; only the others go through exp.  That keeps exp off its
    slow paths: below -708.4 its result is subnormal, below -745.1 it is
    0.  With numpy 2.4.6 on an AVX-512 core, 1 M results took 0.75 ms when
    normal, 14 ms when 0 and 108 ms when subnormal, and a (400 x 1600) @
    (1600 x 21) moment product took 0.5 ms on normal weights and 48 ms on
    subnormal ones.  The bits hold: a dropped weight is below e^-700 of a
    row whose largest weight is 1, so it cannot move a sum whose ulp is
    about 2^-52 of that.  A nan fails ``< floor``, so it still reaches the
    non-finite check, and the -inf padding of a lower-rank rule still
    weighs 0.  At the benchmark's seed, the share of weights below -708.4
    is 5.32 % of 7.03 M in the plaquette run (0.26 % subnormal) and 8.29 %
    of 1.06 M in the dwell run (0.24 % subnormal).
    """
    T, r, d = xb.shape
    K, Q = basis.shape[1:]
    g = V0.g
    x2 = xb * xb
    slope = (g * x2 + V0.nu) * xb - V0.h                    # v'(x)
    a1 = 3.0 * g * x2 + V0.nu                               # v''(x)
    a2 = 3.0 * g * xb
    coef = -np.concatenate([slope, 0.5 * a1, g * xb,
                            np.broadcast_to(0.25 * g, xb.shape)], axis=-1)
    mom = np.empty((T, r, K))
    cap = max(1, _DERIVATIVE_NODES // Q)
    rows = min(r, cap) or 1
    times = cap // rows
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, T, times):
            ts = slice(t0, t0 + times)
            for r0 in range(0, r, rows):
                rs = slice(r0, r0 + rows)
                le = coef[ts, rs] @ basis[ts, :4 * d]
                le += logw[ts, None, :]
                top = np.max(le, axis=-1, keepdims=True)
                if not np.all(np.isfinite(top)):
                    raise QuadratureOverflowError(
                        "quadrature overflow in derivatives; increase the order")
                le -= top
                low = le < _WEIGHT_FLOOR
                wts = np.exp(le, out=le, where=~low)
                wts[low] = 0.0
                mom[ts, rs] = wts @ basis[ts].transpose(0, 2, 1)
                mom[ts, rs] /= wts.sum(axis=-1, keepdims=True)
        e1, e2, e3, e4, e5, e6 = (mom[..., p * d:(p + 1) * d] for p in range(6))
        mean = a1 * e1 + a2 * e2 + g * e3
        # E (a . (z, z^2, z^3))^2, axis by axis
        square = (a1 * a1 * e2 + 2.0 * a1 * a2 * e3
                  + (a2 * a2 + 2.0 * g * a1) * e4 + 2.0 * g * a2 * e5
                  + g * g * e6)
        hess = mean[..., :, None] * mean[..., None, :]
        diag = np.arange(d)
        hess[..., diag, diag] += a1 + 2.0 * a2 * e1 + 3.0 * g * e2 - square
        a = np.stack([a1, a2, np.broadcast_to(g, xb.shape)], axis=-1)
        row = 6 * d
        for k, l in itertools.combinations(range(d), 2):
            cross = mom[..., row:row + 9].reshape(mom.shape[:-1] + (3, 3))
            s = np.einsum("...i,...ij,...j->...", a[..., k, :], cross,
                          a[..., l, :])
            hess[..., k, l] -= s
            hess[..., l, k] -= s
            row += 9
        grads = slope + mean
    if not (np.all(np.isfinite(grads)) and np.all(np.isfinite(hess))):
        raise QuadratureOverflowError(
            "quadrature overflow in derivatives: non-finite gradient or "
            "Hessian; the potential is too large for double precision")
    return grads, hess
