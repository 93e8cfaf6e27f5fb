"""Multiscale curvature schedules and certification of the flow inequalities.

Two per-scale rates drive everything:

* lambda'_t: the largest admissible constant in the matrix inequality
  C' hess(V_t) C' >= C''/2 + lambda'_t C', extracted per sample point as the
  smallest generalized eigenvalue of (C' hess(V_t) C' - C''/2) against C' and
  minimized over the sample set (then refined by local descent);
* alpha'_t: the largest eigenvalue of sqrt(C') (hess V_t +
  (C_inf - C_t)^{-1}) sqrt(C'), maximized over the sample set (then refined
  by local ascent).

Rates are batched per scale: the Gaussian shifts of C_t are factored once,
one Hessian batch on the sample set feeds both rates, C' is factored once,
and each rate is one stacked eigenvalue solve over all sample points.  The
local refinement is a compass search whose sweeps each score their 2d trial
points as one batch.

Their integrals feed the quasi-monotonicity margins for the Poincare
constant, for higher eigenvalues, for the semigroup-vs-gradient commutation
bound, and for the integrated Poincare upper bound.  Pointwise quantifiers
over R^d are replaced by the documented sample sets; the reports always carry
the raw margins, never clipped values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _stencils
from .covariance import CovarianceSchedule
from .flow import FlowMeasure, GridFunction
from .potential import (PotentialDescriptor, QuadratureRule, _gaussian_shifts,
                        _tilted_derivatives, renormalized_derivatives)

# Pauli-Villars schedules start at this cutoff; the bounded t -> 0+ limit of
# the rates is used on [0, t0].
PV_T0 = 1e-4

# Default total slack for the inequality margins: eigensolver + quadrature +
# schedule-integration contributions.
TOLERANCE_BUDGET = {"eigensolver": 5e-5, "quadrature": 2.5e-5, "integration": 2.5e-5}
TOL_TOTAL = float(sum(TOLERANCE_BUDGET.values()))

_REFINE_STEPS = 20

# The factor-2 coarsening check allows 3x this gap in the lambda' integral.
_REFINEMENT_TOL = 1e-4
# Boundary cells left out of the intertwining comparison.
_INTERTWINING_MARGIN_CELLS = 4


@dataclass(frozen=True)
class CurvatureSchedule:
    """Sampled rates and their cumulative integrals along the flow."""

    t_grid: np.ndarray
    lambda_prime: np.ndarray
    alpha_prime: np.ndarray
    lambda_integral: np.ndarray
    alpha_integral: np.ndarray
    sample_spec: str = ""
    refinement_ok: bool = True

    def lambda_at(self, t: float) -> float:
        return float(np.interp(t, self.t_grid, self.lambda_integral))

    def alpha_at(self, t: float) -> float:
        return float(np.interp(t, self.t_grid, self.alpha_integral))

    def lambda_prime_at(self, t: float) -> float:
        return float(np.interp(t, self.t_grid, self.lambda_prime))


def _sym_eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetrized matrix in a stack."""
    return np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))


def _lambda_rates(schedule: CovarianceSchedule, t: float):
    """Per-point lambda'_t rates for a Hessian stack (m, d, d) -> (m,): the
    smallest eigenvalue of G x = mu C' x on range(C'), G = C' H C' - C''/2.
    """
    _, cp, cpp = schedule.eval(t)
    w, u = np.linalg.eigh(cp)
    keep = w > 1e-12 * max(w[-1], 1e-300)
    if not np.any(keep):
        raise ValueError("mobility matrix is numerically zero")
    s = u[:, keep] / np.sqrt(w[keep])
    return lambda hess: _sym_eigvalsh(s.T @ (cp @ hess @ cp - 0.5 * cpp) @ s)[:, 0]


def _alpha_rates(schedule: CovarianceSchedule, t: float):
    """Per-point alpha'_t rates for a Hessian stack (m, d, d) -> (m,)."""
    _, cp, _ = schedule.eval(t)
    hmat = schedule.residual_inverse(t)
    w, u = np.linalg.eigh(cp)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T  # PSD square root
    return lambda hess: _sym_eigvalsh(root @ (hess + hmat) @ root)[:, -1]


def _compass_search(fun, x0: np.ndarray, f0: float, maximize: bool,
                    step0: float, bounds=None,
                    steps: int = _REFINE_STEPS) -> float:
    """Gradient-free local refinement from ``x0`` (where ``fun`` is ``f0``);
    returns the refined extremal value.

    Compass search (Kolda, Lewis, Torczon, SIAM Rev. 45 (2003) 385): each
    sweep scores the 2d trials x +/- step e_k as one batch, ``fun`` mapping
    a (2d, d) batch to its values.  It moves to the best trial if that one
    strictly improves and otherwise halves the step, so the result is never
    less extreme than ``f0``.  Trial points are clamped to ``bounds`` (the
    sampled box) when given: the sample set stands in for the
    x-quantifier, and quadrature accuracy degrades for points far outside
    the mass region.
    """
    sign = -1.0 if maximize else 1.0
    x = np.array(x0, dtype=float)
    # x + step e_0, x - step e_0, x + step e_1, ...
    directions = np.repeat(np.eye(len(x)), 2, axis=0)
    directions[1::2] *= -1.0
    best = sign * f0
    step = step0
    for _ in range(steps):
        trials = x + step * directions
        if bounds is not None:
            trials = np.clip(trials, bounds[0], bounds[1])
        vals = sign * np.asarray(fun(trials), dtype=float)
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, x = float(vals[j]), trials[j]
        else:
            step *= 0.5
    return sign * best


def _sampled_rates(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                   t: float, x_samples, q: QuadratureRule | None, refine: bool,
                   kinds=("lambda", "alpha")) -> list[float]:
    """Extremal rates at t over the sample set, one per entry of ``kinds``.

    The Gaussian shifts of C_t are factored once, and all kinds share one
    Hessian batch on the samples.  The lambda' rate is minimized and the
    alpha' rate maximized; each is then refined by a batched compass search
    from its extremal sample (``_compass_search``), one Hessian batch of 2d
    trial points per sweep.
    """
    x_samples = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if x_samples.size == 0:
        raise ValueError("x_samples must be nonempty")
    q = q or QuadratureRule.for_dimension(V0.dimension)
    c, _, _ = schedule.eval(t)
    closed_form = V0.form in ("zero", "quadratic")
    if closed_form:
        _, hess = renormalized_derivatives(V0, c, x_samples, q)
    else:
        shifts = _gaussian_shifts(c, V0.dimension, q)
        _, hess = _tilted_derivatives(V0, shifts, x_samples)
    span = float(np.max(np.abs(x_samples))) or 1.0
    bounds = (x_samples.min(axis=0), x_samples.max(axis=0))
    out = []
    for kind in kinds:
        maximize = kind == "alpha"
        rates = (_alpha_rates if maximize else _lambda_rates)(schedule, t)
        vals = rates(hess)
        i = int(np.argmax(vals) if maximize else np.argmin(vals))
        best = float(vals[i])
        if refine and not closed_form:

            def batch_rates(xs, rates=rates):
                return rates(_tilted_derivatives(V0, shifts, xs)[1])

            refined = _compass_search(batch_rates, x_samples[i], best,
                                      maximize, step0=span / 8.0,
                                      bounds=bounds)
            best = max(best, refined) if maximize else min(best, refined)
        out.append(best)
    return out


def multiscale_margin(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                      t: float, x_samples, q: QuadratureRule | None = None,
                      refine: bool = True) -> float:
    """Largest admissible lambda'_t over the sample set.

    Minimizes, over x, the smallest generalized eigenvalue of
    (C' hess V_t(x) C' - C''/2) against C'.  The sampled minimum is an upper
    bound for the true infimum; local descent from the worst sample tightens
    it.
    """
    return _sampled_rates(schedule, V0, t, x_samples, q, refine, ("lambda",))[0]


def alpha_prime(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                t: float, x_samples, q: QuadratureRule | None = None,
                refine: bool = True) -> float:
    """Largest eigenvalue of sqrt(C')(hess V_t + (C_inf - C_t)^{-1})sqrt(C').

    Maximized over the sample set; the sampled supremum is reported as a
    lower bound on the true one.
    """
    return _sampled_rates(schedule, V0, t, x_samples, q, refine, ("alpha",))[0]


def integrate_schedules(prime_samples, sample_spec: str = "") -> CurvatureSchedule:
    """Cumulative trapezoid integration of sampled (lambda', alpha').

    ``prime_samples`` is (t_grid, lambda_prime, alpha_prime) with t_grid
    starting at 0.  Pauli-Villars rate arrays should already carry the t0
    cutoff node (see ``pv_t_grid``).  A factor-2 coarsening check flags
    under-resolved grids.
    """
    t_grid, lp, ap = (np.asarray(x, dtype=float) for x in prime_samples)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must hold at least two times")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if abs(t_grid[0]) > PV_T0:
        raise ValueError(f"t_grid must start at 0 (or below {PV_T0}), "
                         f"got {t_grid[0]}")
    lam = _cumulative_trapezoid(lp, t_grid)
    alp = _cumulative_trapezoid(ap, t_grid)
    idx = list(range(0, len(t_grid), 2))
    if idx[-1] != len(t_grid) - 1:
        idx.append(len(t_grid) - 1)
    lam_coarse = np.trapezoid(lp[idx], t_grid[idx])
    ok = abs(lam_coarse - lam[-1]) <= 3.0 * _REFINEMENT_TOL
    return CurvatureSchedule(
        t_grid=t_grid, lambda_prime=lp, alpha_prime=ap,
        lambda_integral=lam, alpha_integral=alp,
        sample_spec=sample_spec, refinement_ok=bool(ok))


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over t from 0, summed in scipy's order."""
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])


def pv_t_grid(t_max: float, count: int, t0: float = PV_T0) -> np.ndarray:
    """Log-spaced grid [t0, t_max] with the origin prepended.

    Rates at the origin are taken as their bounded t -> 0+ limits, which at
    this cutoff equal the t0 values to the stated integration tolerance.
    """
    return np.concatenate([[0.0], np.geomspace(t0, t_max, count)])


def rate_time(t_grid, i: int) -> float:
    """Time at which the rates of grid node i are taken.

    Nodes at t <= 0 use the next grid time: the bounded t -> 0+ limit.
    """
    t = float(t_grid[i])
    return t if t > 0 else float(t_grid[min(i + 1, len(t_grid) - 1)])


def build_schedule(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                   t_grid, x_samples, q: QuadratureRule | None = None,
                   lambda_prime_override=None, sample_spec: str = "",
                   refine: bool = True) -> CurvatureSchedule:
    """Evaluate both rates over a time grid and integrate them.

    Without an override, both rates at each rate time come from one Hessian
    batch on the sample set.  ``lambda_prime_override`` substitutes an
    externally certified rate (e.g. the susceptibility formula for lattice
    quartic models).  A t = 0 node reuses the next grid time's rates
    (``rate_time``); each distinct rate time is evaluated once.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    lp = np.empty(len(t_grid))
    ap = np.empty(len(t_grid))
    rates = {}
    for i in range(len(t_grid)):
        te = rate_time(t_grid, i)
        if te not in rates:
            if lambda_prime_override is None:
                rates[te] = _sampled_rates(schedule, V0, te, x_samples, q, refine)
            else:
                rates[te] = (float(lambda_prime_override(te)),
                             alpha_prime(schedule, V0, te, x_samples, q,
                                         refine=refine))
        lp[i], ap[i] = rates[te]
    return integrate_schedules((t_grid, lp, ap), sample_spec=sample_spec)


@dataclass(frozen=True)
class PairMargin:
    s: float
    t: float
    k: int
    margin: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.margin >= -self.tolerance


def _all_pairs(times):
    times = list(times)
    return [(s, t) for i, s in enumerate(times) for t in times[i + 1:] if s < t]


def _exponent_change(curv: CurvatureSchedule, s: float, t: float) -> float:
    """(alpha_t - alpha_s) - 2(lambda_t - lambda_s), shared by every margin."""
    return ((curv.alpha_at(t) - curv.alpha_at(s))
            - 2.0 * (curv.lambda_at(t) - curv.lambda_at(s)))


def theorem_margin(spectral_trace, curv: CurvatureSchedule, pairs=None,
                   tol_total: float = TOL_TOTAL) -> list[PairMargin]:
    """Quasi-monotonicity margins for the Poincare constant.

    ``spectral_trace`` is a sequence of (t, C_P(nu_t)).  The margin for a
    pair s < t is (alpha_t - alpha_s) - 2(lambda_t - lambda_s)
    + log C_P(nu_t) - log C_P(nu_s); the certified inequality asks for
    margin >= -tol_total.  Margins are reported as computed, never clipped.
    """
    trace = {float(t): float(cp) for t, cp in spectral_trace}
    if pairs is None:
        pairs = _all_pairs(sorted(trace))
    out = []
    for s, t in pairs:
        if s > t:
            raise ValueError(f"pair requires s <= t, got ({s}, {t})")
        if s not in trace or t not in trace:
            raise ValueError(f"pair ({s}, {t}) not on the spectral trace grid")
        margin = (_exponent_change(curv, s, t)
                  + math.log(trace[t]) - math.log(trace[s]))
        out.append(PairMargin(s=s, t=t, k=1, margin=margin, tolerance=tol_total))
    return out


def higher_eigenvalue_margin(spectral_traces: dict, curv: CurvatureSchedule,
                             pairs=None,
                             tol_total: float = TOL_TOTAL) -> list[PairMargin]:
    """Margins for the k-th nonzero eigenvalues, one list entry per (pair, k).

    ``spectral_traces`` maps k -> sequence of (t, lambda_k(nu_t)); the margin
    is (alpha_t - alpha_s) - 2(lambda_t - lambda_s) + log lambda_k(nu_s)
    - log lambda_k(nu_t) >= -tol_total.  A Rayleigh trace (t, R(t)) under
    k = 0 gives the quasi-decay margins of the trace over all grid pairs.
    """
    out = []
    for k, trace_seq in sorted(spectral_traces.items()):
        trace = {float(t): float(v) for t, v in trace_seq}
        kp = pairs if pairs is not None else _all_pairs(sorted(trace))
        for s, t in kp:
            if s not in trace or t not in trace:
                raise ValueError(f"pair ({s}, {t}) not on the k={k} trace grid")
            margin = (_exponent_change(curv, s, t)
                      + math.log(trace[s]) - math.log(trace[t]))
            out.append(PairMargin(s=s, t=t, k=k, margin=margin,
                                  tolerance=tol_total))
    return out


def poincare_upper_bound(curv: CurvatureSchedule, c_prime_radius_s: float,
                         s: float, t_max: float | None = None) -> float:
    """Integrated bound |C_s'| (int_s^T exp(-2 lambda_t) dt + tail).

    The tail uses the smallest rate over the second half of the schedule as
    a positive floor; a nonpositive floor means the bound diverges.
    """
    t = curv.t_grid
    if t_max is None:
        t_max = float(t[-1])
    mask = (t >= s - 1e-12) & (t <= t_max + 1e-12)
    if mask.sum() < 2:
        raise ValueError("schedule grid too coarse between s and T")
    tt = t[mask]
    lam_s = curv.lambda_at(s)
    integrand = np.exp(-2.0 * (curv.lambda_integral[mask] - lam_s))
    integral = float(np.trapezoid(integrand, tt))
    tail_region = curv.lambda_prime[mask][len(tt) // 2:]
    floor = float(np.min(tail_region))
    if floor <= 0.0:
        raise ValueError("bound divergent: lambda-prime floor <= 0 on the tail")
    tail = float(integrand[-1]) / (2.0 * floor)
    return float(c_prime_radius_s) * (integral + tail)


def intertwining_check(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                       F: GridFunction, t: float, curv: CurvatureSchedule,
                       q: QuadratureRule | None = None) -> float:
    """Max violation of the gradient-semigroup commutation bound at time t.

    Computes max over interior nodes of |grad P_{0,t}F|^2_{C_t'} -
    |C_0'| exp(-2 lambda_t) P_{0,t}(|grad F|^2); nonpositive up to tolerance
    when the curvature schedule is admissible.
    """
    q = q or QuadratureRule.for_dimension(V0.dimension)
    _, cp, _ = schedule.eval(t)
    grad_f = F.gradient()
    sq = F.with_values(np.sum(grad_f**2, axis=-1), tag="|grad F|^2")
    phi, rhs_fn = FlowMeasure(schedule, V0, t, F.box, F.shape, q,
                              carry=(F, sq)).transported
    grad_phi = phi.gradient()
    lhs = np.einsum("...i,ij,...j->...", grad_phi, cp, grad_phi)
    factor = schedule.c0_prime_radius * math.exp(-2.0 * curv.lambda_at(t))
    interior = _stencils.interior_mask(F.shape, _INTERTWINING_MARGIN_CELLS)
    violation = lhs[interior] - factor * rhs_fn.values[interior]
    return float(np.max(violation))

