"""Finite-difference stencils and cubic splines on uniform tensor grids.

Fourth-order central differences in the interior, second-order one-sided
closures at the edges.  Callers that need the high-order accuracy restrict
attention to an interior mask (see ``interior_mask``).

The not-a-knot tensor cubic spline (``spline_coefficients``,
``spline_values``) interpolates grid functions between nodes: one
tridiagonal sweep per axis builds a coefficient tensor per cell, and
evaluation finds a point's cell by index arithmetic.
"""

from __future__ import annotations

import numpy as np


def diff1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative along ``axis``, 4th order in the interior."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    n = f.shape[0]
    if n < 5:
        out[:] = np.gradient(f, h, axis=0)
        return np.moveaxis(out, 0, axis)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[1] = (f[2] - f[0]) / (2.0 * h)
    out[-2] = (f[-1] - f[-3]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def gradient(values: np.ndarray, spacing) -> np.ndarray:
    """Stacked gradient, shape ``values.shape + (d,)``."""
    spacing = np.atleast_1d(spacing)
    return np.stack([diff1(values, spacing[a], a) for a in range(values.ndim)],
                    axis=-1)


def interior_mask(shape, margin: int = 4) -> np.ndarray:
    """Boolean mask of nodes at least ``margin`` layers away from every face."""
    mask = np.ones(shape, dtype=bool)
    for axis, n in enumerate(shape):
        m = min(margin, max((n - 1) // 2, 0))
        sl = [slice(None)] * len(shape)
        sl[axis] = slice(0, m)
        mask[tuple(sl)] = False
        sl[axis] = slice(n - m, n)
        mask[tuple(sl)] = False
    return mask


# Points evaluated per block by ``spline_values``: bounds its temporaries
# (a few arrays of this length per axis) whatever the batch size.
_SPLINE_BLOCK = 1 << 15


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic coefficients (4, n - 1, M) of the not-a-knot spline through
    each column of y (n, M) at the uniform nodes x, highest power first.

    Node slopes come from one tridiagonal sweep, vectorised over the
    columns.  Operation for operation this is ``CubicSpline`` with its
    default not-a-knot ends: the same system, eliminated in LAPACK
    ``gtsv``'s order (a uniform grid needs no row interchange), and the
    same Hermite coefficients, so the 1-D spline is bitwise the same.  Two
    nodes give the line and three the parabola through them.
    """
    n = len(x)
    if n < 2:
        raise ValueError("a spline needs at least 2 nodes per axis")
    dx = np.diff(x)[:, None]
    slope = np.diff(y, axis=0) / dx
    if n == 2:
        s = slope[[0, 0]]
    elif n == 3:
        mid = (dx[1] * slope[0] + dx[0] * slope[1]) / (dx[0] + dx[1])
        s = np.stack((2 * slope[0] - mid, mid, 2 * slope[1] - mid))
    else:
        h = dx[:, 0]
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        diag = np.concatenate(([h[1]], 2 * (h[:-1] + h[1:]), [h[-2]]))
        upper = np.concatenate(([d0], h[:-1]))
        lower = np.concatenate((h[1:], [d1]))
        s = np.empty_like(y)
        s[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0]
                + dx[0] * dx[0] * slope[1]) / d0
        s[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        s[-1] = (dx[-1] * dx[-1] * slope[-2]
                 + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        for i in range(n - 1):
            fact = lower[i] / diag[i]
            diag[i + 1] -= fact * upper[i]
            s[i + 1] -= fact * s[i]
        s[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def spline_coefficients(axes, values) -> np.ndarray:
    """Tensor not-a-knot cubic spline through ``values`` on the grid
    ``axes`` (uniform nodes per axis).

    Returns c of shape (4,) * d + cells, cells = (n_k - 1 per axis), so
    that on cell (i_0, ...) the spline is the sum over a of
    c[a, i] prod_k s_k ** (3 - a_k), s_k = x_k - axes[k][i_k].  The 1-D
    coefficient map is linear, so applying it along each axis in turn
    gives the tensor-product interpolant.
    """
    c = np.asarray(values, dtype=float)
    d = c.ndim
    for k, x in enumerate(axes):
        front = np.moveaxis(c, k, 0)
        r = _not_a_knot(np.asarray(x, dtype=float),
                        front.reshape(len(x), -1))
        r = r.reshape((4, len(x) - 1) + front.shape[1:])
        # cell axis back in place, coefficient axis last
        c = np.moveaxis(r, (0, 1), (-1, k))
    return np.ascontiguousarray(np.moveaxis(c, range(d, 2 * d), range(d)))


def _cell_values(rows, cell, powers):
    """Sum over a of rows[a].take(cell) prod_k s_k ** (3 - a_k), in
    ``PPoly``'s order per axis: c3 + c2 s + c1 s^2 + c0 s^3."""
    if not powers:
        return rows.take(cell)
    (s, s2, s3), inner = powers[0], powers[1:]
    acc = _cell_values(rows[3], cell, inner)
    acc += _cell_values(rows[2], cell, inner) * s
    acc += _cell_values(rows[1], cell, inner) * s2
    acc += _cell_values(rows[0], cell, inner) * s3
    return acc


def spline_values(axes, coef: np.ndarray, pts) -> np.ndarray:
    """The spline of ``spline_coefficients(axes, ...)`` at pts (N, d).

    A point's cell on each axis is floor((x - lo) / h), corrected by one
    step against the nodes so that axes[k][i] <= x < axes[k][i + 1] exactly
    and clipped to the end cells: points off the box extrapolate with the
    end cubic.
    """
    pts = np.asarray(pts, dtype=float)
    d = len(axes)
    rows = coef.reshape(coef.shape[:d] + (-1,))
    out = np.empty(len(pts))
    for start in range(0, len(pts), _SPLINE_BLOCK):
        block = pts[start:start + _SPLINE_BLOCK]
        cell, powers = 0, []
        for k, x in enumerate(axes):
            last = len(x) - 2
            u = block[:, k]
            i = np.clip(np.floor((u - x[0]) * (last + 1) / (x[-1] - x[0])),
                        0, last).astype(np.intp)
            i -= (u < x.take(i)) & (i > 0)
            i += (u >= x.take(i + 1)) & (i < last)
            s = u - x.take(i)
            s2 = s * s
            powers.append((s, s2, s2 * s))
            cell = cell * (last + 1) + i
        out[start:start + len(block)] = _cell_values(rows, cell, powers)
    return out
