"""Lattice quartic (phi^4) models: susceptibility, tilted covariance, rates.

A model on a finite site set is the probability density on R^n

    exp( -(phi, A phi)/2 - sum_x (g phi_x^4/4 + nu phi_x^2/2) + (h, phi) ) / Z

with A symmetric positive-definite and g > 0.  Under the mass
regularization C_t = (A + 1/t)^{-1} the admissible curvature rate has the
closed form lambda'_t = 1/t - chi_t/t^2, with chi_t the susceptibility of
the mass-shifted zero-field measure, and the corrective rate is bounded by

    alpha'_t <= 1/t - inf_phi lambda_min(Sigma_t(phi))/t^2
               + lambda_max(A) (t lambda_max(A) + 1),

where Sigma_t(phi) is the covariance of the measure with mass shift 1/t and
external field C_t^{-1} phi.  Moments are computed by importance-weighted
tensor Gauss-Hermite quadrature for n <= 3 and by seeded single-site
random-walk Metropolis otherwise (always available for cross-checks).  The
Metropolis path advances a fixed batch of independent chains together in
numpy, all drawn from one generator seeded by ``seed``; the sweep budget is
split evenly across the chains, and the error bars are a jackknife over
whole chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
# loaded with the package, not on first access inside a run
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .covariance import CovarianceSchedule, make_schedule
from .curvature import _compass_search
from .errors import NonConvergenceError
from .potential import MAX_TENSOR_DIM, PotentialDescriptor, QuadratureRule

QUADRATURE_MAX_SITES = MAX_TENSOR_DIM

_MCMC_BURNIN = 100_000
_MCMC_CHAINS = 64
_MCMC_TARGET_ACCEPT = 0.4
_MCMC_TUNE_TRIALS = 500      # pooled trials per site between scale updates
_MCMC_MIN_ESS = 1000
_MCMC_BURNIN_TAUS = 20
_WOLFF_S = 1.5

# Quadrature reference widths in marginal std devs; compass-search sweeps for
# the infimum of lambda_min(Sigma_t); finite-difference step of the identity
# check.
_WIDTH_FACTOR = 1.6
_DESCENT_STEPS = 12
_FD_STEP = 1e-3


@dataclass(frozen=True)
class Phi4Model:
    """Quartic lattice model parameters."""

    a_matrix: np.ndarray
    g: float
    nu: float
    h: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        object.__setattr__(self, "a_matrix", 0.5 * (a + a.T))
        object.__setattr__(self, "h", np.broadcast_to(
            np.atleast_1d(np.asarray(self.h, dtype=float)), (a.shape[0],)).copy())
        if not np.allclose(a, a.T, atol=1e-10 * max(1.0, np.abs(a).max())):
            raise ValueError("coupling matrix A must be symmetric")
        w = np.linalg.eigvalsh(self.a_matrix)
        if w[0] <= 0:
            raise ValueError(
                f"coupling matrix A must be positive-definite; eigenvalue {w[0]:.3e}")
        if self.g < 0:
            raise ValueError("quartic coupling g must be nonnegative")
        if self.g == 0 and w[0] + self.nu <= 0:
            # g = 0 admitted for the Gaussian-reduction checks only
            raise ValueError("g = 0 requires A + nu to stay positive-definite")

    @property
    def n_sites(self) -> int:
        return self.a_matrix.shape[0]

    def potential(self) -> PotentialDescriptor:
        """The non-Gaussian part as a per-site quartic descriptor."""
        return PotentialDescriptor.quartic(self.g, self.nu, self.h,
                                           dimension=self.n_sites)

    def schedule(self) -> CovarianceSchedule:
        """Mass-regularized covariance decomposition with C_inf = A^{-1}."""
        return make_schedule("pauli-villars", aux=self.a_matrix)

    def action(self, phi: np.ndarray, mass_shift: float = 0.0,
               field=None) -> np.ndarray:
        """S(phi) with optional extra mass and external field; batched."""
        phi = np.atleast_2d(np.asarray(phi, dtype=float))
        eta = self.h if field is None else np.asarray(field, dtype=float)
        quad = 0.5 * np.einsum("mi,ij,mj->m", phi, self.a_matrix, phi)
        local = np.sum(0.25 * self.g * phi**4
                       + 0.5 * (self.nu + mass_shift) * phi**2, axis=-1)
        return quad + local - phi @ eta


@dataclass
class MomentEstimate:
    value: object               # scalar or matrix
    stderr: float
    method: str                 # "quadrature" | "mcmc"
    seed: int | None = None
    n_samples: int = 0          # effective sample size for "mcmc"
    converged: bool = True
    tau: float | None = None    # integrated autocorrelation time, sweeps
    acceptance: float | None = None

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def _marginal_scale(model: Phi4Model, mass_shift: float, eta: np.ndarray):
    """Per-site reference center and width from the 1D marginal actions."""
    n = model.n_sites
    centers = np.empty(n)
    widths = np.empty(n)
    for i in range(n):
        aii = model.a_matrix[i, i]
        m2 = aii + model.nu + mass_shift

        def u(y, i=i, m2=m2):
            return 0.25 * model.g * y**4 + 0.5 * m2 * y**2 - eta[i] * y

        if model.g > 0:
            span = (60.0 / model.g) ** 0.25 + 3.0 * abs(eta[i]) / max(aii, 0.1) + 3.0
        else:
            if m2 <= 0:
                raise ValueError("g = 0 marginal requires a positive mass")
            span = 10.0 / math.sqrt(m2) + 3.0 * abs(eta[i]) / m2
        ys = np.linspace(-span, span, 1601)
        uy = u(ys)
        uy -= uy.min()
        w = np.exp(-uy)
        w /= np.trapezoid(w, ys)
        mean = np.trapezoid(ys * w, ys)
        var = np.trapezoid((ys - mean) ** 2 * w, ys)
        centers[i] = mean
        widths[i] = math.sqrt(max(var, 1e-12))
    return centers, widths


def lattice_moments(model: Phi4Model, mass_shift: float = 0.0, field=None,
                    order: int = 96) -> MomentEstimate:
    """Covariance of the lattice measure with extra mass ``mass_shift`` and
    external field ``field`` (``model.h`` when None).

    Importance-weighted tensor Gauss-Hermite against a diagonal reference
    Gaussian sized from the 1D marginals; deterministic.  Returns the
    order+16 covariance as a "quadrature" estimate with stderr 0, and
    ``converged`` when the means and covariances at order and order+16
    agree to 1e-8 of the largest covariance entry.
    """
    n = model.n_sites
    if n > QUADRATURE_MAX_SITES:
        raise ValueError(
            f"quadrature path supports n <= {QUADRATURE_MAX_SITES} sites")
    eta = model.h if field is None else np.broadcast_to(
        np.atleast_1d(np.asarray(field, dtype=float)), (n,))
    centers, widths = _marginal_scale(model, mass_shift, eta)
    widths = widths * _WIDTH_FACTOR

    def moments_at(p: int):
        # standard-normal weights; their constant factor cancels below
        z, logw = QuadratureRule(order=p, dimension=n).rule()
        phi = centers[None, :] + z * widths[None, :]
        # remove the reference Gaussian, reweight by the true action
        log_ref = -0.5 * np.sum(z**2, axis=-1)
        le = logw - model.action(phi, mass_shift, eta) - log_ref
        le -= le.max()
        wts = np.exp(le)
        wts /= wts.sum()
        mean = wts @ phi
        centered = phi - mean
        cov = (centered * wts[:, None]).T @ centered
        return mean, 0.5 * (cov + cov.T)

    mean, cov = moments_at(order)
    mean2, cov2 = moments_at(order + 16)
    scale = max(float(np.max(np.abs(cov))), 1e-300)
    drift = max(float(np.max(np.abs(cov - cov2))),
                float(np.max(np.abs(mean - mean2)))) / scale
    return MomentEstimate(value=cov2, stderr=0.0, method="quadrature",
                          converged=drift <= 1e-8)


def metropolis_moments(model: Phi4Model, mass_shift: float = 0.0, field=None,
                       seed: int = 0, n_measure_sweeps: int = 60_000,
                       burnin: int = _MCMC_BURNIN) -> MomentEstimate:
    """Single-site random-walk Metropolis covariance with stderr, for the
    measure with extra mass ``mass_shift`` and external field ``field``
    (``model.h`` when None).

    ``_MCMC_CHAINS`` independent chains advance together, one vectorized
    step per site; ``burnin`` and ``n_measure_sweeps`` are the total sweep
    budgets, split evenly across the chains.  Proposal scales are tuned
    toward 0.4 acceptance, pooled over the chains, during burn-in only.
    A proposal old + d with energy change de is accepted when
    u < exp(-de), u uniform on [0, 1): every downhill move is taken and a
    NaN change is rejected.  de is built in place in one buffer with its
    leading factor d replaced by -d, so the buffer holds -de to the bit
    and exp is taken of it directly.
    Every measured sweep is kept: the stderr of the covariance entries is a
    jackknife over whole chains, which are independent, and tau (Wolff's
    automatic window on the chain-averaged autocorrelation of the slower of
    the total field and sum phi^2) sets ess = samples / tau.  Raises
    NonConvergenceError when ess < 1000 or a chain's burn-in is shorter than
    20 tau.  Returns an "mcmc" estimate of the covariance whose stderr is
    the largest entry stderr, with ``n_samples`` = ess, ``tau`` and the
    measured pooled ``acceptance``.
    """
    n = model.n_sites
    eta = model.h if field is None else np.broadcast_to(
        np.atleast_1d(np.asarray(field, dtype=float)), (n,))
    rng = np.random.default_rng(seed)
    chains = _MCMC_CHAINS
    n_burn, n_meas = burnin // chains, n_measure_sweeps // chains
    a = model.a_matrix
    off = a - np.diag(np.diag(a))
    half_mass = 0.5 * (np.diag(a) + model.nu + mass_shift)
    quarter_g = 0.25 * model.g

    phi = rng.standard_normal((n, chains)) * 0.5    # row i: site i of each chain
    scale = np.full(n, 1.0)
    # per site: its row of phi, its row of off(A), (a_ii + nu + mass)/2, eta_i
    sites = list(zip(phi, off, half_mass.tolist(), eta.tolist()))

    def advance(sweeps, record=None):
        """Run ``sweeps`` sweeps of every chain; accepted moves per site."""
        step = scale[:, None] * rng.standard_normal((sweeps, n, chains))
        u = rng.random((sweeps, n, chains))
        back = -step
        take = np.empty((sweeps, n, chains), dtype=bool)
        new, w, tmp = np.empty((3, chains))
        add, mul = np.add, np.multiply     # at 64 chains, call overhead is the cost
        with np.errstate(over="ignore"):     # exp(-de) = inf accepts
            for s in range(sweeps):
                for (old, off_i, hm, eta_i), d, nd, u_i, take_i in zip(
                        sites, step[s], back[s], u[s], take[s]):
                    # site energy (a_ii + m2) v^2/2 + g v^4/4 + v (other - eta_i);
                    # w = (-d) (both (hm + g (new^2 + old^2)/4) + other - eta_i)
                    add(old, d, new)
                    mul(new, new, w)
                    mul(old, old, tmp)
                    add(w, tmp, w)
                    mul(w, quarter_g, w)
                    add(w, hm, w)
                    add(new, old, tmp)
                    mul(w, tmp, w)
                    other = off_i @ phi
                    if eta_i:                   # x - 0.0 is x, to the bit
                        other -= eta_i
                    add(w, other, w)
                    mul(w, nd, w)
                    np.exp(w, w)
                    np.less(u_i, w, take_i)
                    np.copyto(old, new, where=take_i)
                if record is not None:
                    record[s] = phi
        return np.count_nonzero(take, axis=(0, 2))

    block = -(-_MCMC_TUNE_TRIALS // chains)
    for start in range(0, n_burn, block):
        sweeps = min(block, n_burn - start)
        rate = advance(sweeps) / (sweeps * chains)
        scale *= np.exp(rate - _MCMC_TARGET_ACCEPT)

    samples = np.empty((n_meas, n, chains))
    accepted = np.zeros(n)
    for start in range(0, n_meas, block):
        sweeps = min(block, n_meas - start)
        accepted += advance(sweeps, samples[start:start + sweeps])
    n_kept = n_meas * chains

    series = samples.transpose(2, 0, 1)          # (chains, sweeps, sites)
    tau = max(_integrated_autocorr(series.sum(axis=2)),
              _integrated_autocorr((series**2).sum(axis=2))) \
        if n_meas > 1 else math.inf
    ess = n_kept / tau
    if ess < _MCMC_MIN_ESS:
        raise NonConvergenceError(
            f"MCMC effective sample size {ess:.0f} < {_MCMC_MIN_ESS} "
            f"(tau = {tau:.1f}, sweeps = {n_measure_sweeps}); run longer")
    if n_burn < _MCMC_BURNIN_TAUS * tau:
        raise NonConvergenceError(
            f"MCMC burn-in of {n_burn} sweeps per chain is shorter than "
            f"{_MCMC_BURNIN_TAUS} tau = {_MCMC_BURNIN_TAUS * tau:.0f} sweeps "
            f"(burnin = {burnin}); run longer")

    # per-chain sums about the pooled mean; the jackknife leaves out one chain
    center = series.reshape(-1, n).mean(axis=0)
    dev = series - center
    s1 = dev.sum(axis=1)                                   # (chains, sites)
    s2 = np.einsum("csi,csj->cij", dev, dev)
    t1, t2 = s1.sum(axis=0), s2.sum(axis=0)

    def cov_from(sum1, sum2, count):
        shift = sum1 / count
        return (sum2 - count * shift[..., :, None] * shift[..., None, :]) / (count - 1)

    cov = cov_from(t1, t2, n_kept)
    cov_jack = cov_from(t1 - s1, t2 - s2, n_kept - n_meas)
    stderr = float(np.max(np.sqrt(
        (chains - 1) * np.mean((cov_jack - cov_jack.mean(0)) ** 2, axis=0))))
    acceptance = float(accepted.sum() / (n_kept * n))
    return MomentEstimate(value=cov, stderr=stderr, method="mcmc", seed=seed,
                          n_samples=int(ess), tau=tau, acceptance=acceptance)


def _integrated_autocorr(x: np.ndarray) -> float:
    """Integrated autocorrelation time 1 + 2 sum_t rho(t) of the series
    ``x`` (one row per independent chain), with U. Wolff's automatic window
    (Comput. Phys. Commun. 156 (2004) 143, S = 1.5) on the autocorrelation
    averaged over the chains, bias-corrected for the window.  The summed
    autocovariance is one inverse FFT of the chains' power spectra summed,
    each chain zero-padded from m sweeps to the first power of two at or
    above 2m - 1: any length from 2m - 1 up keeps the lags below m free of
    wrap-around, and a power of two keeps the transform fast where 2m has a
    large prime factor."""
    chains, m = x.shape
    total = chains * m
    dev = x - x.mean()
    size = 1 << (2 * m - 2).bit_length()
    f = np.fft.rfft(dev, n=size, axis=1)
    acov = np.fft.irfft((f * np.conj(f)).sum(axis=0), n=size)[:m]
    w_max = m // 2
    if acov[0] <= 0 or w_max < 1:
        return 1.0
    gamma = acov[:w_max + 1] / (total - chains * np.arange(w_max + 1))
    windows = np.arange(1, w_max + 1)
    tau_int = 0.5 + np.cumsum(gamma[1:]) / gamma[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau_w = np.where(tau_int > 0.5, _WOLFF_S / np.log(
            (2 * tau_int + 1) / (2 * tau_int - 1)), 1e-300)
        g = np.exp(-windows / tau_w) - tau_w / np.sqrt(windows * total)
    below = np.nonzero(g < 0)[0]
    w = int(windows[below[0]] if len(below) else w_max)
    c_f = gamma[0] + 2.0 * gamma[1:w + 1].sum()
    # Wolff's bias correction: every Gamma(t) gains C_F / N
    return float(c_f * (1.0 + (2 * w + 1) / total) / (gamma[0] + c_f / total))


def _shifted_moments(model: Phi4Model, t: float, field, order: int = 96,
                     method: str = "auto", seed: int = 0,
                     n_measure_sweeps: int = 60_000) -> MomentEstimate:
    """Covariance of the model with mass shift 1/t and external ``field``
    (which replaces ``model.h``), by quadrature (n <= 3 sites under "auto")
    or Metropolis."""
    if method == "quadrature" or (
            method == "auto" and model.n_sites <= QUADRATURE_MAX_SITES):
        return lattice_moments(model, mass_shift=1.0 / t, field=field,
                               order=order)
    return metropolis_moments(model, mass_shift=1.0 / t, field=field,
                              seed=seed, n_measure_sweeps=n_measure_sweeps)


def susceptibility(model: Phi4Model, t: float, order: int = 96,
                   method: str = "auto", seed: int = 0,
                   n_measure_sweeps: int = 60_000) -> MomentEstimate:
    """chi_t: max over sites of covariance row sums of the mass-shifted,
    zero-field measure."""
    if t <= 0:
        raise ValueError("susceptibility requires t > 0")
    return _chi_of(_shifted_moments(model, t, np.zeros(model.n_sites), order,
                                    method, seed, n_measure_sweeps))


def _chi_of(est: MomentEstimate) -> MomentEstimate:
    """chi from a covariance estimate: the largest row sum, with n_sites
    times the largest entry stderr as its stderr."""
    return replace(est, value=float(np.max(np.sum(est.value, axis=1))),
                   stderr=len(est.value) * est.stderr)


def tilted_covariance(model: Phi4Model, t: float, phi, order: int = 96,
                      method: str = "auto", seed: int = 0) -> MomentEstimate:
    """Covariance of the measure with mass shift 1/t and field C_t^{-1} phi."""
    if t <= 0:
        raise ValueError("tilted covariance requires t > 0")
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    field = (model.a_matrix + np.eye(model.n_sites) / t) @ phi + model.h
    return _shifted_moments(model, t, field, order, method, seed)


def phi4_schedules(model: Phi4Model, t_grid, phi_samples, order: int = 96):
    """Certified rate lambda'_t = 1/t - chi_t/t^2 and the alpha' formula.

    The infimum of lambda_min(Sigma_t(phi)) over phi is approximated from
    the sample set plus a compass search (``curvature._compass_search``)
    from the worst sample, the searches of all times in lockstep, each sweep
    mapping ``sig_min`` over the 2n trial fields of every time; since the
    sampled inf is an upper bound for the true one, the reported alpha'
    formula errs upward (conservative for the monotonicity exponent).
    Returns a dict of arrays: lambda_prime, alpha_prime_formula, chi,
    sigma_min.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    phi_samples = np.atleast_2d(np.asarray(phi_samples, dtype=float))
    amax = float(np.linalg.eigvalsh(model.a_matrix)[-1])
    chi = np.array([susceptibility(model, t, order=order).value
                    for t in t_grid])

    def sig_min(t, phis):
        return np.array([np.linalg.eigvalsh(
            tilted_covariance(model, t, phi, order=order).value)[0]
            for phi in phis])

    vals = np.array([sig_min(t, phi_samples) for t in t_grid])
    start = np.argmin(vals, axis=1)
    step = max(float(np.max(np.abs(phi_samples))), 1.0) / 4.0
    best = _compass_search(
        lambda trials: np.array([sig_min(t, tr)
                                 for t, tr in zip(t_grid, trials)]),
        phi_samples[start], vals[np.arange(len(t_grid)), start],
        maximize=False, step0=step, steps=_DESCENT_STEPS)
    return {"lambda_prime": 1.0 / t_grid - chi / t_grid**2,
            "alpha_prime_formula": (1.0 / t_grid - best / t_grid**2
                                    + amax * (t_grid * amax + 1.0)),
            "chi": chi, "sigma_min": best}


def hessian_identity_check(model: Phi4Model, t: float, phi_samples,
                           order: int = 96) -> float:
    """Max relative error of hess V_t = C^{-1} - C^{-1} Sigma_t(phi) C^{-1}.

    The right side uses the tilted covariance; the left side is a central
    finite-difference Hessian of the smoothed potential value, so the two
    routes share no differentiation machinery.
    """
    if model.n_sites > QUADRATURE_MAX_SITES:
        raise ValueError("identity check runs on the quadrature path (n <= 3)")
    from .potential import renormalized_value

    phi_samples = np.atleast_2d(np.asarray(phi_samples, dtype=float))
    sched = model.schedule()
    c, _, _ = sched.eval(t)
    cinv = np.linalg.inv(c)
    V0 = model.potential()
    q = QuadratureRule(order=min(order, 60 if model.n_sites >= 2 else order),
                       dimension=model.n_sites)
    n = model.n_sites
    worst = 0.0
    for phi in phi_samples:
        sigma = tilted_covariance(model, t, phi, order=order).value
        rhs = cinv - cinv @ sigma @ cinv

        lhs = np.empty((n, n))
        base = phi.copy()
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    pts = np.array([base + _FD_STEP * _unit(n, i),
                                    base,
                                    base - _FD_STEP * _unit(n, i)])
                    v = renormalized_value(V0, c, pts, q)
                    lhs[i, i] = (v[0] - 2 * v[1] + v[2]) / _FD_STEP**2
                else:
                    ei, ej = _unit(n, i), _unit(n, j)
                    pts = np.array([base + _FD_STEP * (ei + ej),
                                    base + _FD_STEP * (ei - ej),
                                    base - _FD_STEP * (ei - ej),
                                    base - _FD_STEP * (ei + ej)])
                    v = renormalized_value(V0, c, pts, q)
                    val = (v[0] - v[1] - v[2] + v[3]) / (4 * _FD_STEP**2)
                    lhs[i, j] = lhs[j, i] = val
        # ambient scale C^{-1}: both sides are differences of such terms
        scale = max(float(np.max(np.abs(rhs))),
                    1e-6 * float(np.max(np.abs(cinv))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e
