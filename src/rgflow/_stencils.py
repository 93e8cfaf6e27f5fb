"""Finite-difference stencils on uniform tensor grids.

Fourth-order central differences in the interior, second-order one-sided
closures at the edges.  Callers that need the high-order accuracy restrict
attention to an interior mask (see ``interior_mask``).
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
