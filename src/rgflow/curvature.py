"""Multiscale curvature schedules and certification of the flow inequalities.

Two per-scale rates drive everything:

* lambda'_t: the largest admissible constant in the matrix inequality
  C' hess(V_t) C' >= C''/2 + lambda'_t C', extracted per sample point as the
  smallest generalized eigenvalue of (C' hess(V_t) C' - C''/2) against C' and
  minimized over the sample set (then refined by local descent);
* alpha'_t: the largest eigenvalue of sqrt(C') (hess V_t +
  (C_inf - C_t)^{-1}) sqrt(C'), maximized over the sample set (then refined
  by local ascent).

Rates are extracted for every scale at once.  Each (rate, time) pair is one
search, and all searches run in lockstep: the Gaussian shifts of each C_t
are factored once, one Hessian batch covers every sample point at every
time, and each sweep of the compass-search refinement scores the 2d trial
points of every search as one more batch.  Both rates are eigenvalues of a
congruence P^T hess(V_t) P + K with per-time P and K, so each batch takes one
stacked eigenvalue solve per shape of P.

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
from .potential import (_CLOSED_FORMS, PotentialDescriptor, QuadratureRule,
                        _gaussian_shifts, _tilted_derivatives,
                        renormalized_derivatives)

# Pauli-Villars schedules start at this cutoff; the bounded t -> 0+ limit of
# the rates is used on [0, t0].
PV_T0 = 1e-4

# Default total slack for the inequality margins: eigensolver + quadrature +
# schedule-integration contributions.
TOLERANCE_BUDGET = {"eigensolver": 5e-5, "quadrature": 2.5e-5, "integration": 2.5e-5}
TOL_TOTAL = float(sum(TOLERANCE_BUDGET.values()))

_REFINE_STEPS = 20
# A compass search moves only on an improvement beyond this share of its
# best value: smaller gains are round-off, and following them would make
# the refined rate depend on the order of summation.
_MOVE_RTOL = 64 * np.finfo(float).eps

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


def _rate_form(schedule: CovarianceSchedule, t: float, kind: str):
    """(P, K, pick) of one rate at t: its value at a Hessian H is eigenvalue
    ``pick`` (ascending) of the symmetrized congruence P^T H P + K.

    lambda': P = C' S and K = -S^T C'' S / 2, with S spanning range(C') and
    S^T C' S = I, so the eigenvalues are those of G x = mu C' x on range(C'),
    G = C' H C' - C''/2; pick the smallest.  alpha': P = sqrt(C') and
    K = sqrt(C')(C_inf - C_t)^{-1}sqrt(C'); pick the largest.
    """
    _, cp, cpp = schedule.eval(t)
    w, u = np.linalg.eigh(cp)
    if kind == "alpha":
        root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T  # PSD square root
        return root, root @ schedule.residual_inverse(t) @ root, len(w) - 1
    keep = w > 1e-12 * max(w[-1], 1e-300)
    if not np.any(keep):
        raise ValueError("mobility matrix is numerically zero")
    s = u[:, keep] / np.sqrt(w[keep])
    return cp @ s, -0.5 * (s.T @ cpp @ s), 0


def _congruence_rates(forms):
    """Rates of S searches, one ``_rate_form`` each, as a map from a Hessian
    stack (S, n, d, d) to values (S, n).

    Searches are grouped by the shape of P (a rank-deficient C' gives the
    lambda' form fewer columns), and each group is one stacked congruence
    and one ``eigvalsh``.
    """
    groups = {}
    for i, (p, _, _) in enumerate(forms):
        groups.setdefault(p.shape, []).append(i)
    stacks = [(np.array(idx),
               np.stack([forms[i][0] for i in idx])[:, None],
               np.stack([forms[i][1] for i in idx])[:, None],
               np.array([forms[i][2] for i in idx])[:, None, None])
              for idx in groups.values()]

    def rates(hess):
        out = np.empty(hess.shape[:2])
        for idx, p, k, pick in stacks:
            m = np.swapaxes(p, -1, -2) @ hess[idx] @ p + k
            ev = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))
            out[idx] = np.take_along_axis(ev, pick, axis=2)[..., 0]
        return out

    return rates


def _compass_search(fun, x0, f0, maximize, step0: float, bounds=None,
                    steps: int = _REFINE_STEPS) -> np.ndarray:
    """Gradient-free local refinement of S searches in lockstep; returns the
    refined extremal value of each, shape (S,).

    Search i starts at ``x0[i]`` (x0 is (S, d)), where its objective is
    ``f0[i]``; ``maximize`` is one flag for all searches or one per search.
    Compass search (Kolda, Lewis, Torczon, SIAM Rev. 45 (2003) 385): each
    sweep scores the trials x_i +/- step_i e_k of every search as one batch,
    ``fun`` mapping (S, 2d, d) trials to (S, 2d) values.  A search moves to
    its best trial if that one improves by more than ``_MOVE_RTOL`` of the
    best value and otherwise halves its step, so no result is less extreme
    than its ``f0``.  Trial points are clamped to ``bounds`` (the sampled
    box) when given: the sample set stands in for the x-quantifier, and
    quadrature accuracy degrades for points far outside the mass region.
    """
    x = np.array(x0, dtype=float)
    n, d = x.shape
    sign = np.where(np.broadcast_to(maximize, (n,)), -1.0, 1.0)
    # x + step e_0, x - step e_0, x + step e_1, ...
    directions = np.repeat(np.eye(d), 2, axis=0)
    directions[1::2] *= -1.0
    best = sign * np.asarray(f0, dtype=float)
    step = np.full(n, float(step0))
    rows = np.arange(n)
    for _ in range(steps):
        trials = x[:, None, :] + step[:, None, None] * directions
        if bounds is not None:
            trials = np.clip(trials, bounds[0], bounds[1])
        vals = sign[:, None] * np.asarray(fun(trials), dtype=float)
        j = np.argmin(vals, axis=1)
        top = vals[rows, j]
        better = top < best - _MOVE_RTOL * np.abs(best)
        best = np.where(better, top, best)
        x[better] = trials[rows, j][better]
        step = np.where(better, step, 0.5 * step)
    return sign * best


def _stacked_shifts(covs, d: int, q: QuadratureRule):
    """Gaussian rules of several covariances as nodes (T, Q, d) and
    log-weights (T, Q).  A rule of lower rank has fewer nodes; it is padded
    with nodes of weight zero (log-weight -inf), which add nothing."""
    rules = [_gaussian_shifts(c, d, q) for c in covs]
    size = max(len(logw) for _, logw in rules)
    z = np.zeros((len(rules), size, d))
    logw = np.full((len(rules), size), -np.inf)
    for i, (zi, lwi) in enumerate(rules):
        z[i, :len(lwi)] = zi
        logw[i, :len(lwi)] = lwi
    return z, logw


def _extremal_rates(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                    times, kinds, x_samples,
                    q: QuadratureRule | None) -> np.ndarray:
    """Extremal rates over the sample set, shape (len(kinds), len(times)).

    The lambda' rate is minimized and the alpha' rate maximized.  Every
    (kind, time) pair is one search, and all of them run in lockstep: the
    Gaussian shifts of each C_t are factored once, one Hessian batch covers
    every sample at every time, and each compass-search sweep
    (``_compass_search``) from the extremal samples is one more batch of the
    2d trials of every search.  Each row of a batch reads the shifts of its
    own time.  Closed-form potentials have x-independent Hessians, so they
    take no sweeps.
    """
    x_samples = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if x_samples.size == 0:
        raise ValueError("x_samples must be nonempty")
    q = q or QuadratureRule.for_dimension(V0.dimension)
    d = V0.dimension
    covs = [schedule.eval(t)[0] for t in times]
    closed_form = V0.form in _CLOSED_FORMS
    if closed_form:
        fixed = np.stack([renormalized_derivatives(V0, c, np.zeros(d), q)[1]
                          for c in covs])

        def hessians(xs, which):
            return fixed[which]
    else:
        shifts = _stacked_shifts(covs, d, q)

        def hessians(xs, which):
            return _tilted_derivatives(V0, shifts, xs, which)[1]

    searches = [(i, kind) for kind in kinds for i in range(len(times))]
    which = np.array([i for i, _ in searches])
    maximize = np.array([kind == "alpha" for _, kind in searches])
    rates = _congruence_rates([_rate_form(schedule, times[i], kind)
                               for i, kind in searches])
    m = len(x_samples)
    hess = hessians(np.tile(x_samples, (len(times), 1)),
                    np.repeat(np.arange(len(times)), m))
    vals = rates(hess.reshape(len(times), m, d, d)[which])
    start = np.where(maximize, np.argmax(vals, axis=1),
                     np.argmin(vals, axis=1))

    def score(trials):
        n = trials.shape[1]
        h = hessians(trials.reshape(-1, d), np.repeat(which, n))
        return rates(h.reshape(len(searches), n, d, d))

    span = float(np.max(np.abs(x_samples))) or 1.0
    best = _compass_search(
        score, x_samples[start], vals[np.arange(len(searches)), start],
        maximize, step0=span / 8.0,
        bounds=(x_samples.min(axis=0), x_samples.max(axis=0)),
        steps=0 if closed_form else _REFINE_STEPS)
    return best.reshape(len(kinds), len(times))


def multiscale_margin(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                      t: float, x_samples,
                      q: QuadratureRule | None = None) -> float:
    """Largest admissible lambda'_t over the sample set.

    Minimizes, over x, the smallest generalized eigenvalue of
    (C' hess V_t(x) C' - C''/2) against C'.  The sampled minimum is an upper
    bound for the true infimum; local descent from the worst sample tightens
    it.
    """
    return float(_extremal_rates(schedule, V0, [t], ("lambda",), x_samples,
                                 q)[0, 0])


def alpha_prime(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                t: float, x_samples,
                q: QuadratureRule | None = None) -> float:
    """Largest eigenvalue of sqrt(C')(hess V_t + (C_inf - C_t)^{-1})sqrt(C').

    Maximized over the sample set; the sampled supremum is reported as a
    lower bound on the true one.
    """
    return float(_extremal_rates(schedule, V0, [t], ("alpha",), x_samples,
                                 q)[0, 0])


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


def pv_t_grid(t_max: float, count: int) -> np.ndarray:
    """Log-spaced grid [PV_T0, t_max] with the origin prepended.

    Rates at the origin are taken as their bounded t -> 0+ limits, which at
    the cutoff PV_T0 equal the PV_T0 values to the stated integration
    tolerance.
    """
    return np.concatenate([[0.0], np.geomspace(PV_T0, t_max, count)])


def rate_time(t_grid, i: int) -> float:
    """Time at which the rates of grid node i are taken.

    Nodes at t <= 0 use the next grid time: the bounded t -> 0+ limit.
    """
    t = float(t_grid[i])
    return t if t > 0 else float(t_grid[min(i + 1, len(t_grid) - 1)])


def build_schedule(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                   t_grid, x_samples, q: QuadratureRule | None = None,
                   lambda_prime_override=None,
                   sample_spec: str = "") -> CurvatureSchedule:
    """Evaluate both rates over a time grid and integrate them.

    A t = 0 node reuses the next grid time's rates (``rate_time``), and
    each distinct rate time is evaluated once.  The rates of every rate
    time come out of one lockstep extraction (``_extremal_rates``): one
    Hessian batch on the sample set at all times, then one batch per
    compass-search sweep for all times and both rates, so the derivative
    kernel runs 1 + ``_REFINE_STEPS`` times whatever the grid.
    ``lambda_prime_override`` substitutes an externally certified rate
    (e.g. the susceptibility formula for lattice quartic models), and then
    only alpha' is extracted.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    times, at = np.unique([rate_time(t_grid, i) for i in range(len(t_grid))],
                          return_inverse=True)
    kinds = ("lambda", "alpha") if lambda_prime_override is None else ("alpha",)
    rates = _extremal_rates(schedule, V0, times, kinds, x_samples, q)
    lam = rates[0] if lambda_prime_override is None else np.array(
        [float(lambda_prime_override(te)) for te in times])
    lp, ap = lam[at], rates[-1][at]
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
    """Every pair s < t of the sorted distinct ``times``."""
    return [(s, t) for i, s in enumerate(times) for t in times[i + 1:]]


def _exponent_change(curv: CurvatureSchedule, s: float, t: float) -> float:
    """(alpha_t - alpha_s) - 2(lambda_t - lambda_s), shared by every margin."""
    return ((curv.alpha_at(t) - curv.alpha_at(s))
            - 2.0 * (curv.lambda_at(t) - curv.lambda_at(s)))


def theorem_margin(spectral_trace, curv: CurvatureSchedule,
                   tol_total: float = TOL_TOTAL) -> list[PairMargin]:
    """Quasi-monotonicity margins for the Poincare constant, one per pair
    s < t of trace times.

    ``spectral_trace`` is a sequence of (t, C_P(nu_t)).  The margin for
    every pair s < t is (alpha_t - alpha_s) - 2(lambda_t - lambda_s)
    + log C_P(nu_t) - log C_P(nu_s); the certified inequality asks for
    margin >= -tol_total.  Margins are reported as computed, never clipped.
    """
    trace = {float(t): float(cp) for t, cp in spectral_trace}
    out = []
    for s, t in _all_pairs(sorted(trace)):
        margin = (_exponent_change(curv, s, t)
                  + math.log(trace[t]) - math.log(trace[s]))
        out.append(PairMargin(s=s, t=t, k=1, margin=margin, tolerance=tol_total))
    return out


def higher_eigenvalue_margin(spectral_traces: dict, curv: CurvatureSchedule,
                             tol_total: float = TOL_TOTAL) -> list[PairMargin]:
    """Margins for the k-th nonzero eigenvalues, one list entry per (pair, k),
    for every pair s < t of the times of trace k.

    ``spectral_traces`` maps k -> sequence of (t, lambda_k(nu_t)); the margin
    is (alpha_t - alpha_s) - 2(lambda_t - lambda_s) + log lambda_k(nu_s)
    - log lambda_k(nu_t) >= -tol_total.  A Rayleigh trace (t, R(t)) under
    k = 0 gives the quasi-decay margins of the trace over all grid pairs.
    """
    out = []
    for k, trace_seq in sorted(spectral_traces.items()):
        trace = {float(t): float(v) for t, v in trace_seq}
        for s, t in _all_pairs(sorted(trace)):
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
    sq = GridFunction(F.box, np.sum(grad_f**2, axis=-1))
    phi, rhs_fn = FlowMeasure(schedule, V0, t, F.box, F.shape, q,
                              carry=(F, sq)).transported
    grad_phi = phi.gradient()
    lhs = np.einsum("...i,ij,...j->...", grad_phi, cp, grad_phi)
    factor = schedule.c0_prime_radius * math.exp(-2.0 * curv.lambda_at(t))
    interior = _stencils.interior_mask(F.shape, _INTERTWINING_MARGIN_CELLS)
    violation = lhs[interior] - factor * rhs_fn.values[interior]
    return float(np.max(violation))

