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
are factored once into one monomial basis, one Hessian batch covers every
sample point at every time, and each sweep of the compass-search
refinement scores the 2d trial points of every search as one more batch.
Both rates are eigenvalues of a congruence P^T hess(V_t) P + K with
per-time P and K, so each batch takes one stacked eigenvalue solve per
shape of P.

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
from .errors import NonConvergenceError
from .flow import FlowMeasure, GridFunction
from .potential import (_CLOSED_FORMS, PotentialDescriptor, QuadratureRule,
                        _gaussian_shifts, _monomial_basis,
                        _tilted_derivatives, renormalized_derivatives)

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


def _compass_search(fun, x0, f0, maximize, step0: float, bounds,
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
    box): the sample set stands in for the x-quantifier, and quadrature
    accuracy degrades for points far outside the mass region.
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
        trials = np.clip(x[:, None, :] + step[:, None, None] * directions,
                         bounds[0], bounds[1])
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
                    times, x_samples, q: QuadratureRule) -> np.ndarray:
    """Extremal rates over the sample set, shape (2, len(times)): row 0 the
    minimized lambda', row 1 the maximized alpha'.

    Every (time, rate) pair is one search, and all of them run in lockstep:
    the Gaussian shifts of each C_t are factored once and their monomial
    basis (``_monomial_basis``) is built once, one Hessian batch covers
    every sample at every time, and each compass-search sweep
    (``_compass_search``) from the extremal samples is one more batch of the
    2d trials of every search.  Searches go time-major, so the rows of one
    time reach the kernel as one block.  Closed-form potentials have
    x-independent Hessians, so they take no sweeps.
    """
    x_samples = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if x_samples.size == 0:
        raise ValueError("x_samples must be nonempty")
    d = V0.dimension
    covs = [schedule.eval(t)[0] for t in times]
    closed_form = V0.form in _CLOSED_FORMS
    if closed_form:
        fixed = np.stack([renormalized_derivatives(V0, c, np.zeros(d), q)[1]
                          for c in covs])

        def hessians(xs):
            return np.broadcast_to(fixed[:, None], xs.shape[:2] + (d, d))
    else:
        z, logw = _stacked_shifts(covs, d, q)
        basis = _monomial_basis(z)

        def hessians(xs):
            return _tilted_derivatives(V0, basis, logw, xs)[1]

    searches = [(i, kind) for i in range(len(times))
                for kind in ("lambda", "alpha")]
    which = np.array([i for i, _ in searches])
    maximize = np.array([kind == "alpha" for _, kind in searches])
    rates = _congruence_rates([_rate_form(schedule, times[i], kind)
                               for i, kind in searches])
    hess = hessians(np.broadcast_to(x_samples, (len(times),) + x_samples.shape))
    vals = rates(hess[which])
    start = np.where(maximize, np.argmax(vals, axis=1),
                     np.argmin(vals, axis=1))

    def score(trials):
        n = trials.shape[1]
        h = hessians(trials.reshape(len(times), 2 * n, d))
        return rates(h.reshape(len(searches), n, d, d))

    span = float(np.max(np.abs(x_samples))) or 1.0
    best = _compass_search(
        score, x_samples[start], vals[np.arange(len(searches)), start],
        maximize, step0=span / 8.0,
        bounds=(x_samples.min(axis=0), x_samples.max(axis=0)),
        steps=0 if closed_form else _REFINE_STEPS)
    return best.reshape(len(times), 2).T


def integrate_schedules(prime_samples) -> CurvatureSchedule:
    """Cumulative trapezoid integration of sampled (lambda', alpha').

    ``prime_samples`` is (t_grid, lambda_prime, alpha_prime) with t_grid
    starting at 0.  Pauli-Villars rate arrays should already carry the t0
    cutoff node (see ``pv_t_grid``).  Nothing here estimates the
    integration error.
    """
    t_grid, lp, ap = (np.asarray(x, dtype=float) for x in prime_samples)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must hold at least two times")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if abs(t_grid[0]) > PV_T0:
        raise ValueError(f"t_grid must start at 0 (or below {PV_T0}), "
                         f"got {t_grid[0]}")
    return CurvatureSchedule(
        t_grid=t_grid, lambda_prime=lp, alpha_prime=ap,
        lambda_integral=_cumulative_trapezoid(lp, t_grid),
        alpha_integral=_cumulative_trapezoid(ap, t_grid))


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
                   t_grid, x_samples, q: QuadratureRule) -> CurvatureSchedule:
    """Evaluate both rates over a time grid and integrate them.

    A t = 0 node reuses the next grid time's rates (``rate_time``), and
    each distinct rate time is evaluated once.  The rates of every rate
    time come out of one lockstep extraction (``_extremal_rates``): one
    Hessian batch on the sample set at all times, then one batch per
    compass-search sweep for all times and both rates, so the derivative
    kernel runs 1 + ``_REFINE_STEPS`` times whatever the grid.  A certified
    rate from elsewhere (1/t - chi_t/t^2 for lattice models) replaces the
    sampled lambda' through ``integrate_schedules``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    times, at = np.unique([rate_time(t_grid, i) for i in range(len(t_grid))],
                          return_inverse=True)
    lam, alp = _extremal_rates(schedule, V0, times, x_samples, q)
    return integrate_schedules((t_grid, lam[at], alp[at]))


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


def _pair_margins(trace_seq, curv: CurvatureSchedule, k: int,
                  tol_total: float, decay: bool) -> list[PairMargin]:
    """(alpha_t - alpha_s) - 2(lambda_t - lambda_s) + log v_t - log v_s for
    every pair s < t of the times of the trace (t, v); ``decay`` swaps v_t
    and v_s."""
    trace = {float(t): float(v) for t, v in trace_seq}
    times = sorted(trace)
    out = []
    for i, s in enumerate(times):
        for t in times[i + 1:]:
            up, down = (s, t) if decay else (t, s)
            margin = ((curv.alpha_at(t) - curv.alpha_at(s))
                      - 2.0 * (curv.lambda_at(t) - curv.lambda_at(s))
                      + math.log(trace[up]) - math.log(trace[down]))
            out.append(PairMargin(s, t, k, margin, tol_total))
    return out


def theorem_margin(spectral_trace, curv: CurvatureSchedule,
                   tol_total: float = TOL_TOTAL) -> list[PairMargin]:
    """Quasi-monotonicity margins for the Poincare constant, one per pair
    s < t of trace times.

    ``spectral_trace`` is a sequence of (t, C_P(nu_t)).  The margin for
    every pair s < t is (alpha_t - alpha_s) - 2(lambda_t - lambda_s)
    + log C_P(nu_t) - log C_P(nu_s); the certified inequality asks for
    margin >= -tol_total.  Margins are reported as computed, never clipped.
    """
    return _pair_margins(spectral_trace, curv, 1, tol_total, decay=False)


def higher_eigenvalue_margin(spectral_traces: dict, curv: CurvatureSchedule,
                             tol_total: float = TOL_TOTAL) -> list[PairMargin]:
    """Margins for the k-th nonzero eigenvalues, one list entry per (pair, k),
    for every pair s < t of the times of trace k.

    ``spectral_traces`` maps k -> sequence of (t, lambda_k(nu_t)); the margin
    is (alpha_t - alpha_s) - 2(lambda_t - lambda_s) + log lambda_k(nu_s)
    - log lambda_k(nu_t) >= -tol_total.  A Rayleigh trace (t, R(t)) under
    k = 0 gives the quasi-decay margins of the trace over all grid pairs.
    """
    return [m for k, trace_seq in sorted(spectral_traces.items())
            for m in _pair_margins(trace_seq, curv, k, tol_total, decay=True)]


def poincare_upper_bound(curv: CurvatureSchedule, c_prime_radius_s: float,
                         s: float) -> float:
    """Integrated bound |C_s'| (int_s^T exp(-2 lambda_t) dt + tail), T the
    end of the schedule's grid.

    The tail uses the smallest rate over the second half of [s, T] as a
    positive floor; a nonpositive floor means the bound diverges.
    """
    t = curv.t_grid
    mask = t >= s - 1e-12
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
                       fs, t: float, curv: CurvatureSchedule,
                       q: QuadratureRule) -> list[float]:
    """Max violation of the gradient-semigroup commutation bound at time t,
    one per grid function of ``fs``.

    Computes max over interior nodes of |grad P_{0,t}F|^2_{C_t'} -
    |C_0'| exp(-2 lambda_t) P_{0,t}(|grad F|^2); nonpositive up to tolerance
    when the curvature schedule is admissible.  V_t and the P_{0,t} images
    of every F and |grad F|^2 come from one flow-measure pass.  A rate
    integral lambda_t so negative that exp(-2 lambda_t) is not finite
    raises ``NonConvergenceError``.
    """
    lam = curv.lambda_at(t)
    if not -2.0 * lam < math.log(np.finfo(float).max):  # a nan fails too
        raise NonConvergenceError(
            f"intertwining factor exp(-2 lambda_t) is not finite at t={t:g}: "
            f"lambda_t = {lam:.6g}")
    factor = schedule.c0_prime_radius * math.exp(-2.0 * lam)
    _, cp, _ = schedule.eval(t)
    carry = []
    for F in fs:
        carry += [F, GridFunction(F.box, np.sum(F.gradient()**2, axis=-1))]
    box, shape = carry[0].box, carry[0].shape
    images = FlowMeasure(schedule, V0, t, box, shape, q,
                         carry=tuple(carry)).transported
    interior = _stencils.interior_mask(shape, _INTERTWINING_MARGIN_CELLS)
    out = []
    for phi, rhs_fn in zip(images[::2], images[1::2]):
        grad_phi = phi.gradient()
        lhs = np.einsum("...i,ij,...j->...", grad_phi, cp, grad_phi)
        out.append(float(np.max(lhs[interior] - factor * rhs_fn.values[interior])))
    return out
