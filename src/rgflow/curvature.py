"""Multiscale curvature schedules and certification of the flow inequalities.

Two per-scale rates drive everything:

* lambda'_t: the largest admissible constant in the matrix inequality
  C' hess(V_t) C' >= C''/2 + lambda'_t C', extracted per sample point as the
  smallest generalized eigenvalue of (C' hess(V_t) C' - C''/2) against C' and
  minimized over the sample set (then refined by local descent);
* alpha'_t: the largest eigenvalue of sqrt(C') (hess V_t +
  (C_inf - C_t)^{-1}) sqrt(C'), maximized over the sample set (then refined
  by local ascent).

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
from scipy.linalg import eigh as dense_eigh

from . import _stencils
from .covariance import CovarianceSchedule
from .flow import GridFunction, semigroup_apply
from .potential import PotentialDescriptor, QuadratureRule, renormalized_derivatives

# Pauli-Villars schedules start at this cutoff; the bounded t -> 0+ limit of
# the rates is used on [0, t0].
PV_T0 = 1e-4

# Default total slack for the inequality margins: eigensolver + quadrature +
# schedule-integration contributions.
TOLERANCE_BUDGET = {"eigensolver": 5e-5, "quadrature": 2.5e-5, "integration": 2.5e-5}
TOL_TOTAL = float(sum(TOLERANCE_BUDGET.values()))

_REFINE_STEPS = 20


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

    def alpha_prime_at(self, t: float) -> float:
        return float(np.interp(t, self.t_grid, self.alpha_prime))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.T


def _min_gen_eig(g: np.ndarray, b: np.ndarray) -> float:
    """Smallest eigenvalue of G x = mu B x, restricted to range(B)."""
    wb, ub = np.linalg.eigh(b)
    keep = wb > 1e-12 * max(wb[-1], 1e-300)
    if not np.any(keep):
        raise ValueError("mobility matrix is numerically zero")
    basis = ub[:, keep]
    g_r = basis.T @ g @ basis
    b_r = np.diag(wb[keep])
    return float(dense_eigh(0.5 * (g_r + g_r.T), b_r, eigvals_only=True)[0])


def _coordinate_refine(fun, x0: np.ndarray, maximize: bool, step0: float,
                       bounds=None, steps: int = _REFINE_STEPS) -> float:
    """Gradient-free local refinement; returns the refined extremal value.

    Trial points are clamped to ``bounds`` (the sampled box): the sample set
    stands in for the x-quantifier, and quadrature accuracy degrades for
    points far outside the mass region.
    """
    sign = -1.0 if maximize else 1.0
    x = x0.copy()
    best = sign * fun(x)
    step = step0
    for _ in range(steps):
        improved = False
        for k in range(len(x)):
            for delta in (step, -step):
                trial = x.copy()
                trial[k] += delta
                if bounds is not None:
                    trial = np.clip(trial, bounds[0], bounds[1])
                val = sign * fun(trial)
                if val < best:
                    best, x = val, trial
                    improved = True
        if not improved:
            step *= 0.5
    return sign * best


def multiscale_margin(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                      t: float, x_samples, q: QuadratureRule | None = None,
                      refine: bool = True) -> float:
    """Largest admissible lambda'_t over the sample set.

    Minimizes, over x, the smallest generalized eigenvalue of
    (C' hess V_t(x) C' - C''/2) against C'.  The sampled minimum is an upper
    bound for the true infimum; local descent from the worst sample tightens
    it.
    """
    x_samples = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if x_samples.size == 0:
        raise ValueError("x_samples must be nonempty")
    q = q or QuadratureRule.for_dimension(V0.dimension)
    c, cp, cpp = schedule.eval(t)

    def lam_at(hess_v: np.ndarray) -> float:
        g = cp @ hess_v @ cp - 0.5 * cpp
        return _min_gen_eig(g, cp)

    _, hess = renormalized_derivatives(V0, c, x_samples, q)
    vals = np.array([lam_at(hess[i]) for i in range(len(x_samples))])
    best = float(np.min(vals))
    if refine and V0.form not in ("zero", "quadratic"):
        x_star = x_samples[int(np.argmin(vals))]
        span = float(np.max(np.abs(x_samples))) or 1.0

        def pointwise(x):
            _, hv = renormalized_derivatives(V0, c, x.reshape(1, -1), q)
            return lam_at(hv[0])

        bounds = (x_samples.min(axis=0), x_samples.max(axis=0))
        best = min(best, _coordinate_refine(pointwise, x_star, maximize=False,
                                            step0=span / 8.0, bounds=bounds))
    return best


def alpha_prime(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                t: float, x_samples, q: QuadratureRule | None = None,
                refine: bool = True) -> float:
    """Largest eigenvalue of sqrt(C')(hess V_t + (C_inf - C_t)^{-1})sqrt(C').

    Maximized over the sample set; the sampled supremum is reported as a
    lower bound on the true one.
    """
    x_samples = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if x_samples.size == 0:
        raise ValueError("x_samples must be nonempty")
    q = q or QuadratureRule.for_dimension(V0.dimension)
    c, cp, _ = schedule.eval(t)
    hmat = schedule.residual_inverse(t)
    root = _psd_sqrt(cp)

    def alp_at(hess_v: np.ndarray) -> float:
        s = root @ (hess_v + hmat) @ root
        return float(np.linalg.eigvalsh(0.5 * (s + s.T))[-1])

    _, hess = renormalized_derivatives(V0, c, x_samples, q)
    vals = np.array([alp_at(hess[i]) for i in range(len(x_samples))])
    best = float(np.max(vals))
    if refine and V0.form not in ("zero", "quadratic"):
        x_star = x_samples[int(np.argmax(vals))]
        span = float(np.max(np.abs(x_samples))) or 1.0

        def pointwise(x):
            _, hv = renormalized_derivatives(V0, c, x.reshape(1, -1), q)
            return alp_at(hv[0])

        bounds = (x_samples.min(axis=0), x_samples.max(axis=0))
        best = max(best, _coordinate_refine(pointwise, x_star, maximize=True,
                                            step0=span / 8.0, bounds=bounds))
    return best


def integrate_schedules(prime_samples, sample_spec: str = "",
                        refinement_tol: float = 1e-4) -> CurvatureSchedule:
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
    ok = abs(lam_coarse - lam[-1]) <= 3.0 * refinement_tol
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


def build_schedule(schedule: CovarianceSchedule, V0: PotentialDescriptor,
                   t_grid, x_samples, q: QuadratureRule | None = None,
                   lambda_prime_override=None, sample_spec: str = "",
                   refine: bool = True) -> CurvatureSchedule:
    """Evaluate both rates over a time grid and integrate them.

    ``lambda_prime_override`` substitutes an externally certified rate
    (e.g. the susceptibility formula for lattice quartic models); t = 0
    entries reuse the first positive time's rates as the bounded limit.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    lp = np.empty(len(t_grid))
    ap = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        te = float(t) if t > 0 else float(t_grid[min(i + 1, len(t_grid) - 1)])
        if lambda_prime_override is not None:
            lp[i] = float(lambda_prime_override(te))
        else:
            lp[i] = multiscale_margin(schedule, V0, te, x_samples, q,
                                      refine=refine)
        ap[i] = alpha_prime(schedule, V0, te, x_samples, q, refine=refine)
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
        margin = ((curv.alpha_at(t) - curv.alpha_at(s))
                  - 2.0 * (curv.lambda_at(t) - curv.lambda_at(s))
                  + math.log(trace[t]) - math.log(trace[s]))
        out.append(PairMargin(s=s, t=t, k=1, margin=margin, tolerance=tol_total))
    return out


def higher_eigenvalue_margin(spectral_traces: dict, curv: CurvatureSchedule,
                             pairs=None,
                             tol_total: float = TOL_TOTAL) -> list[PairMargin]:
    """Margins for the k-th nonzero eigenvalues, one list entry per (pair, k).

    ``spectral_traces`` maps k -> sequence of (t, lambda_k(nu_t)); the margin
    is (alpha_t - alpha_s) - 2(lambda_t - lambda_s) + log lambda_k(nu_s)
    - log lambda_k(nu_t) >= -tol_total.
    """
    out = []
    for k, trace_seq in sorted(spectral_traces.items()):
        trace = {float(t): float(v) for t, v in trace_seq}
        kp = pairs if pairs is not None else _all_pairs(sorted(trace))
        for s, t in kp:
            if s not in trace or t not in trace:
                raise ValueError(f"pair ({s}, {t}) not on the k={k} trace grid")
            margin = ((curv.alpha_at(t) - curv.alpha_at(s))
                      - 2.0 * (curv.lambda_at(t) - curv.lambda_at(s))
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
                       q: QuadratureRule | None = None,
                       margin_cells: int = 4) -> float:
    """Max violation of the gradient-semigroup commutation bound at time t.

    Computes max over interior nodes of |grad P_{0,t}F|^2_{C_t'} -
    |C_0'| exp(-2 lambda_t) P_{0,t}(|grad F|^2); nonpositive up to tolerance
    when the curvature schedule is admissible.
    """
    q = q or QuadratureRule.for_dimension(V0.dimension)
    _, cp, _ = schedule.eval(t)
    phi = semigroup_apply(schedule, V0, 0.0, t, F, q)
    grad_phi = phi.gradient()
    lhs = np.einsum("...i,ij,...j->...", grad_phi, cp, grad_phi)

    grad_f = F.gradient()
    sq = F.with_values(np.sum(grad_f**2, axis=-1), tag="|grad F|^2")
    rhs_fn = semigroup_apply(schedule, V0, 0.0, t, sq, q)
    factor = schedule.c0_prime_radius * math.exp(-2.0 * curv.lambda_at(t))
    interior = _stencils.interior_mask(F.shape, margin_cells)
    violation = lhs[interior] - factor * rhs_fn.values[interior]
    return float(np.max(violation))


def lemma_pair_margins(trace, curv: CurvatureSchedule,
                       tol_total: float = TOL_TOTAL) -> list[PairMargin]:
    """Quasi-decay margins of a Rayleigh trace over all grid pairs s < t.

    margin(s, t) = (alpha_t - alpha_s) - 2(lambda_t - lambda_s)
    + log R(s) - log R(t); nonnegative up to tolerance when the schedule is
    admissible.
    """
    ts = [float(t) for t, _ in trace]
    rs = {float(t): float(r) for t, r in trace}
    out = []
    for s, t in _all_pairs(sorted(ts)):
        margin = ((curv.alpha_at(t) - curv.alpha_at(s))
                  - 2.0 * (curv.lambda_at(t) - curv.lambda_at(s))
                  + math.log(rs[s]) - math.log(rs[t]))
        out.append(PairMargin(s=s, t=t, k=0, margin=margin,
                              tolerance=tol_total))
    return out


def rayleigh_trace_margins(trace, curv: CurvatureSchedule,
                           allowance: float = 1e-3) -> np.ndarray:
    """Discrete log-derivative of a Rayleigh trace against alpha' - 2 lambda'.

    Returns d/dt log R - (alpha'_t - 2 lambda'_t) at interior grid times;
    entries above ``allowance`` violate the differential inequality.
    """
    ts = np.array([t for t, _ in trace], dtype=float)
    rs = np.array([r for _, r in trace], dtype=float)
    if np.any(rs <= 0):
        raise ValueError("Rayleigh trace must be positive")
    dlog = (np.log(rs[2:]) - np.log(rs[:-2])) / (ts[2:] - ts[:-2])
    mids = ts[1:-1]
    bound = np.array([curv.alpha_prime_at(t) - 2.0 * curv.lambda_prime_at(t)
                      for t in mids])
    return dlog - bound
