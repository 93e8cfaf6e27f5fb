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
external field C_t^{-1} phi.  For g > 0 that measure concentrates as |phi|
grows, so the infimum is 0 and the bound reads 1/t + lambda_max(A)
(t lambda_max(A) + 1).  By quadrature, moments are traces of transfer
matrices around the site ring on the sites' own Gauss rules (A coupling
ring neighbours only); past 3 sites, and for cross-checks, from seeded
single-site Metropolis-Hastings: each site drawn from a Gaussian fitted to
its own conditional action, or from a mixture of two, one on each well,
where that action is a double well.  Each estimator sets its own budget
(quadrature order, sweeps), and ``_shifted_moments`` alone picks between
them.  The Metropolis path advances a fixed batch of 256 independent chains
together in numpy, from one generator seeded by ``seed``, with one
vectorized step per colour class of the coupling graph (sites that share no
coupling move together); the sweep budget is split evenly across the
chains, and the error bars are a jackknife over whole chains.
``hessian_identity_check`` ties the two estimators the certificate rests on:
the tilted-moment Hessian every sampled rate is taken from, and the lattice
covariance behind chi_t, through hess V_t = C^{-1} - C^{-1} Sigma_t C^{-1}.
``phi4_schedules`` is the one route from lattice moments to the values a
run reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
# loaded with the package, not on first access inside a run
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .covariance import CovarianceSchedule, make_schedule
from .errors import NonConvergenceError
from .potential import (MAX_TENSOR_DIM, PotentialDescriptor, QuadratureRule,
                        renormalized_derivatives)

QUADRATURE_MAX_SITES = MAX_TENSOR_DIM

_MCMC_BURNIN = 32_768          # 128 sweeps per chain
_MCMC_MEASURE = 16_384         # 64 sweeps per chain
# for a call with a site of m2 <= 0: coupled wells flip together, and tau
# near 15 to 17 sweeps on a 4-ring at nu = -4 puts 20 tau past 128 sweeps
_MCMC_WELLS_BURNIN = 100_000
_MCMC_WELLS_MEASURE = 60_000
# 256, not 512: at 512 a chain keeps 64 burn-in sweeps of the default
# budget, against 20 tau = 88 at the largest tau seen on a 16-ring with
# m2 = 0.5 (4.4)
_MCMC_CHAINS = 256
_MCMC_DRAW_SWEEPS = 32         # sweeps of the independence update per draw
_MCMC_MIN_ESS = 1000
_MCMC_BURNIN_TAUS = 20
_WOLFF_S = 1.5
_DRIFT_TOL = 1e-8           # relative drift of a converged quadrature estimate
_SITE_NODES = 601           # trapezoid nodes on each interval of a site
_LANCZOS_ROUNDOFF = 1e-12   # a Lanczos beta at round-off, in window units


@dataclass(frozen=True)
class Phi4Model:
    """Quartic lattice model parameters."""

    a_matrix: np.ndarray
    g: float
    nu: float
    h: np.ndarray

    def __post_init__(self):
        for name in ("a_matrix", "g", "nu", "h"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value.tolist()}")
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


@dataclass
class MomentEstimate:
    value: object               # scalar or matrix
    stderr: float
    method: str                 # "quadrature" | "mcmc"
    n_samples: int = 0          # effective sample size for "mcmc"
    converged: bool = True
    tau: float | None = None    # integrated autocorrelation time, sweeps
    acceptance: float | None = None

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def _site_minimum(g: float, m2: float, eta):
    """The global minimum of the site action g y^4/4 + m2 y^2/2 - eta y: the
    real root of g y^3 + m2 y = eta of least action, for m2 > 0 the only
    one.  Cardano's y = u - v, with u v = m2/(3g) and u^3 - v^3 = eta/g, is
    taken as (eta/g) / (u^2 + u v + v^2), whose terms are all positive.  For
    m2 <= 0 (a double well) it is the outermost root on eta's side: with
    r^3 = (-m2/(3g))^(3/2) and half = |eta|/(2g), Cardano's u + r^2/u where
    half > r^3 (one real root), else the largest of three roots,
    2 r cos(acos(half/r^3)/3), with half/r^3 read as 0 where both vanish.
    ``eta`` may be an array (``m2`` stays a scalar); each entry then has the
    bits of the scalar call."""
    if g == 0:
        return eta / m2
    p3 = m2 / (3.0 * g)
    half = np.abs(eta) / (2.0 * g)
    if m2 > 0:
        u = np.cbrt(half + np.sqrt(half * half + p3**3))
        v = p3 / u
        return (eta / g) / (u * u + p3 + v * v)
    r3 = (-p3) ** 1.5
    with np.errstate(invalid="ignore", divide="ignore"):   # the form not taken
        u = np.cbrt(half + np.sqrt(half * half - r3 * r3))
        three = 2.0 * math.sqrt(-p3) * np.cos(
            np.arccos(half / r3 if r3 else 0.0) / 3.0)
        return np.copysign(np.where(half > r3, u - p3 / u, three), eta)


def _far_well(g: float, m2: float, mode):
    """The offset c from the global minimum ``mode`` (``_site_minimum``) of
    the site action u(y) = m2 y^2/2 + g y^4/4 - eta y to its other local
    minimum mode + c, the far outer root of u' = g y^3 + m2 y - eta: the
    roots of u' sum to 0, so c = -(3 mode + sign(mode) sqrt(9 mode^2 - 4
    u''(mode)/g))/2.  NaN where u' has one real root."""
    curv = m2 + 3.0 * g * mode * mode
    return -0.5 * (3.0 * mode + np.copysign(
        np.sqrt(9.0 * mode * mode - 4.0 * curv / g), mode))


def _site_rules(model: Phi4Model, mass_shift: float, eta, orders):
    """[(modes, offsets, log-weights)] of the Gauss rules of the site
    measures exp(-u_i), u_i = m2 y^2/2 + g y^4/4 - eta_i y, m2 = a_ii + nu
    + mass_shift, for each p in ``orders``: the (n,) site modes, and the
    nodes' (n, p) offsets from them and their log-weights.  Lanczos
    (discretized Stieltjes, Gautschi, SIAM J. Sci. Stat. Comput. 3 (1982)
    289) in (y - mode)/half-width on 601 trapezoid nodes on each interval
    where u_i is within 60 of its minimum (two where a barrier over 60 parts
    a second well), then Golub-Welsch (Math. Comp. 23 (1969) 221) on p x p
    Jacobi blocks; and the largest relative change delta of a site variance
    from each interval's even-indexed nodes to all, the trapezoid's own
    error estimate.  Raises NonConvergenceError when a Lanczos beta falls to
    round-off: the trapezoid then holds the site's weight on fewer nodes
    than the order needs."""
    n, g, steps = model.n_sites, model.g, max(orders)
    jacobi = np.zeros((n, steps + 1, steps + 1))   # the last row is unread
    modes, halves = np.empty(n), np.empty(n)
    halving = 0.0
    for i in range(n):
        m2 = model.a_matrix[i, i] + model.nu + mass_shift
        if g == 0 and m2 <= 0:
            raise ValueError("g = 0 marginal requires a positive mass")
        mode = _site_minimum(g, m2, eta[i])
        curv = m2 + 3.0 * g * mode * mode
        # the ends are the real roots of u(mode + d) - u(mode) = 60; a pair
        # of conjugate roots shares |imag|, so both are kept or both dropped
        ends = np.roots([0.25 * g, g * mode, 0.5 * curv, 0.0, -60.0])
        ends = np.sort(ends.real[np.abs(ends.imag) <= 1e-9 * np.abs(ends)])
        modes[i], halves[i] = mode, 0.5 * (ends[-1] - ends[0])
        x, q = np.empty((2, len(ends) // 2, _SITE_NODES))
        for k, (lo, hi) in enumerate(ends.reshape(-1, 2)):
            # a second well's rise is taken about its own minimum mode + c (about
            # the mode, g d^4 cancels); the roots of u' multiply to eta/g, so
            # its lift u(mode + c) - u(mode) subtracts no two large terms
            c = lift = 0.0
            if not lo <= 0.0 <= hi:
                c = _far_well(g, m2, mode)
                lift = c**3 * eta[i] / (4.0 * mode * (mode + c))
            y = mode + c
            e = np.linspace(lo - c, hi - c, _SITE_NODES)
            rise = lift + (0.5 * (m2 + 3.0 * g * y * y)
                           + (g * y + 0.25 * g * e) * e) * e * e
            x[k] = (c + e) / halves[i]
            q[k] = math.sqrt(e[1] - e[0]) * np.exp(-0.5 * rise)  # sqrt of the weight
        q[:, [0, -1]] *= math.sqrt(0.5)
        q /= math.sqrt(np.sum(q * q))
        x2, w2 = x[:, ::2], (q * q)[:, ::2]
        w2 = w2 / np.sum(w2)
        d2 = x2 - np.sum(w2 * x2)
        var2 = np.sum(w2 * d2 * d2)
        prev, beta = q, 0.0
        for j in range(steps):
            v = x * q - beta * prev
            alpha = np.vdot(v, q)
            v -= alpha * q
            beta = math.sqrt(np.vdot(v, v))
            if beta <= _LANCZOS_ROUNDOFF:
                raise NonConvergenceError(
                    f"site {i}: Lanczos broke down at step {j + 1} of "
                    f"{steps}: its trapezoid holds the weight on too "
                    "few nodes")
            jacobi[i, j, j], jacobi[i, j + 1, j] = alpha, beta
            prev, q = q, v / beta
        # beta_0^2 is the variance on all nodes
        halving = max(halving, abs(float(var2 / jacobi[i, 1, 0] ** 2) - 1.0))
    rules = []
    for p in orders:
        nodes, vecs = np.linalg.eigh(jacobi[:, :p, :p])
        w = vecs[:, 0] ** 2
        # mean and variance back to alpha_0, beta_0^2 from eigh's round-off
        c = nodes - np.sum(w * nodes, axis=1, keepdims=True)
        c *= jacobi[:, 1:2, 0] / np.sqrt(np.sum(w * c * c, axis=1, keepdims=True))
        with np.errstate(divide="ignore"):    # a weight that underflows to 0
            logw = np.log(w)
        rules.append((modes, halves[:, None] * (jacobi[:, :1, 0] + c), logw))
    return rules, halving


def lattice_moments(model: Phi4Model, mass_shift: float, field,
                    order: int = 12) -> MomentEstimate:
    """Covariance of the lattice measure with extra mass ``mass_shift`` and
    external field ``field`` in place of ``model.h``, by ``_ring_moments``
    on the sites' own Gauss rules (``_site_rules``) at order and order+4;
    A must couple neighbours on the site ring only (ValueError otherwise).

    Returns the order+4 covariance as a "quadrature" estimate with stderr
    0, and ``converged`` when the covariances at the two orders agree to
    1e-8 of the largest covariance entry, the means to 1e-8 of its square
    root, the widest marginal standard deviation, and each site trapezoid
    passes its halving test (``_site_rules``): for an analytic integrand
    its error squares when h halves, so the relative change delta of a
    site variance from the even-indexed nodes to all must have
    delta^2 <= 1e-8.
    """
    n = model.n_sites
    for i, j in zip(*np.nonzero(np.triu(model.a_matrix, 1))):
        if j - i not in (1, n - 1):
            raise ValueError(f"A couples sites ({i}, {j}), which are not "
                             f"neighbours on the site ring 0, 1, ..., {n - 1}")
    eta = np.broadcast_to(np.asarray(field, dtype=float), (n,))
    for name, value in (("mass_shift", mass_shift), ("field", eta)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()}")
    rules, halving = _site_rules(model, mass_shift, eta, (order, order + 4))
    (mean, cov), (mean2, cov2) = [_ring_moments(model.a_matrix, *r) for r in rules]
    scale = max(float(np.max(np.abs(cov))), 1e-300)
    drift = max(float(np.max(np.abs(cov - cov2))) / scale,
                float(np.max(np.abs(mean - mean2))) / math.sqrt(scale),
                halving * halving)
    return MomentEstimate(value=cov2, stderr=0.0, method="quadrature",
                          converged=drift <= _DRIFT_TOL)


def _ring_moments(a: np.ndarray, mode: np.ndarray, offset: np.ndarray,
                  site: np.ndarray):
    """Mean and covariance on site nodes phi[i] = mode[i] + offset[i] and
    log-weights site[i] by transfer matrices around the site ring
    (Scalapino, Sears and Ferrell, Phys. Rev. B 6 (1972) 3409):
    K_k = exp((site_k + site_{k+1})/2 - a_{k,k+1} phi_k phi_{k+1}),
    k + 1 mod n, the closing bond for n >= 3 only.  The pair
    marginal of i < j is M_ij * (R_j L_i)^T and site i's is diag(R_i L_i),
    with M_ij = K_i..K_{j-1}, R_j = K_j..K_{n-1} and L_i = K_0..K_{i-1}, each
    product over its largest entry, a scale the normalization cancels.  The
    moments are taken of the offsets, which keep their digits where a mode
    is far larger than its site's spread."""
    n, p = offset.shape
    phi = mode[:, None] + offset
    right = np.arange(1, n + 1) % n
    # for n = 2 the closing bond is bond 0 again, and n = 1 has none
    bond = np.append(np.diag(a, 1), a[0, -1] if n >= 3 else 0.0)
    le = (0.5 * (site[:, :, None] + site[right, None, :])
          - bond[:, None, None] * phi[:, :, None] * phi[right, None, :])
    k = np.exp(le - le.max(axis=(1, 2), keepdims=True))

    def unit(m):
        return m / m.max(axis=(-2, -1), keepdims=True)

    left, rest = np.empty_like(k), np.empty_like(k)
    left[0], rest[-1] = np.eye(p), k[-1]
    for i in range(1, n):
        left[i] = unit(left[i - 1] @ k[i - 1])
        rest[-1 - i] = unit(k[-1 - i] @ rest[-i])
    marginal = np.einsum("ikl,ilk->ik", rest, left)
    marginal /= marginal.sum(axis=1, keepdims=True)
    shift = np.einsum("ik,ik->i", marginal, offset)
    c = offset - shift[:, None]
    cov = np.diag(np.einsum("ik,ik->i", marginal, c * c))
    seg = k[:-1]
    for d in range(1, n):               # the pairs (i, i + d)
        if d > 1:
            seg = unit(seg[:-1] @ k[d - 1:-1])
        pair = seg * (rest[d:] @ left[:n - d]).transpose(0, 2, 1)
        i = np.arange(n - d)
        cov[i, i + d] = cov[i + d, i] = (
            (c[:n - d, None, :] @ pair @ c[d:, :, None])[:, 0, 0]
            / pair.sum(axis=(1, 2)))
    return mode + shift, cov


def _colour_classes(off: np.ndarray) -> list[list[int]]:
    """Greedy colouring, in site order, of the graph whose edges are the
    nonzero entries of ``off``: each site takes the least colour that none of
    its lower-numbered neighbours has.  Returns the sites of each colour in
    site order, colour by colour."""
    colour = []
    for i in range(len(off)):
        taken = {colour[j] for j in np.flatnonzero(off[i, :i])}
        c = 0
        while c in taken:
            c += 1
        colour.append(c)
    return [[i for i, c in enumerate(colour) if c == k]
            for k in range(max(colour) + 1)]


def metropolis_moments(model: Phi4Model, mass_shift: float, field,
                       seed: int = 0, n_measure_sweeps: int = _MCMC_MEASURE,
                       burnin: int = _MCMC_BURNIN) -> MomentEstimate:
    """Single-site Metropolis-Hastings covariance with stderr, for the
    measure with extra mass ``mass_shift`` and external field ``field`` in
    place of ``model.h``.

    ``_MCMC_CHAINS`` independent chains advance together; ``burnin`` and
    ``n_measure_sweeps`` are the total sweep budgets, split evenly across the
    chains.  A sweep is one vectorized step per colour class of the coupling
    graph (``_colour_classes`` of off(A)), the classes in colour order: the
    sites of a class share no coupling, so their proposals are independent
    and the class step is the sequential update of its sites.  The sites
    are stored class by class, so each class is a contiguous block of rows.

    A class step is an independence update (``_independence_chains``;
    Tierney, Ann. Statist. 22 (1994) 1701) of each site's conditional action
    u(y) = m2 y^2/2 + g y^4/4 - b y, with m2 = a_ii + nu + mass_shift and b =
    eta_i - (off(A) phi)_i.  Where u has one well, as it has wherever m2 >
    0: y = y* + xi/sqrt(kappa), xi standard normal, accepted by the
    Metropolis-Hastings ratio of that Gaussian proposal.  y* is the minimum
    of u (``_site_minimum``) and kappa = sqrt(s^2 + 2g), with s = m2 + g y*^2
    the least secant curvature 2 (u(y) - u(y*))/(y - y*)^2 over all y.  So
    the proposal is nowhere much narrower than the site, and the 2g term
    keeps it from growing wide where the site is flat (m2 -> 0): its weight
    exp(-u)/q never exceeds e^2 times its value at the mode (the supremum
    over 20,000 random m2, g and y*), so no state holds a chain for long.
    Taken from u''(y*) = m2 + 3 g y*^2 instead, kappa leaves the proposal
    too narrow on the side of a tilted site toward 0, where chains stick.
    Where u has two wells (m2 <= 0 and |b| small), a one-mode proposal
    misses one, and y is drawn from a mixture of two Gaussians, one on each
    well (``_two_well_move``).  The chains start at their conditional modes
    after one class pass from phi = 0, and nothing is tuned.  The default
    budgets, 128 burn-in and 64 measured sweeps per chain, are sized to
    it.

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
    eta = np.broadcast_to(np.asarray(field, dtype=float), (n,))
    rng = np.random.default_rng(seed)
    chains = _MCMC_CHAINS
    n_burn, n_meas = burnin // chains, n_measure_sweeps // chains
    a = model.a_matrix
    off = a - np.diag(np.diag(a))
    classes = _colour_classes(off)
    order = np.concatenate(classes)
    off = off[np.ix_(order, order)]               # rows and columns by class
    m2 = (np.diag(a) + model.nu + mass_shift)[order]
    bounds = np.cumsum([0] + [len(c) for c in classes])
    samples, accepted = _independence_chains(rng, off, eta[order], m2, model.g,
                                             bounds, n_burn, n_meas)
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
    row = np.argsort(order)                      # the row of each site
    return MomentEstimate(value=cov[np.ix_(row, row)], stderr=stderr,
                          method="mcmc", n_samples=int(ess), tau=tau,
                          acceptance=acceptance)


def _independence_chains(rng, off, eta, m2, g, bounds, n_burn, n_meas):
    """(samples, accepted moves per row) of ``metropolis_moments``'s
    independence update, rows by class.  A class step splits its rows where
    m2 changes, so each part passes ``_site_minimum`` one scalar mass; parts
    of a class share no coupling, so this is still the sequential update of
    its sites.  With b = eta - off(A) phi, y* the minimum of u(y) = m2 y^2/2
    + g y^4/4 - b y and kappa/2 = sqrt(((m2 + g y*^2)/2)^2 + g/2), a part
    with m2 > 0 proposes y = y* + z/sqrt(kappa/2) from z ~ N(0, 1/2),
    accepted when log U < u(x) - u(y) + kappa ((y - y*)^2 - (x - y*)^2)/2 =
    (x - y) ((x + y)(m2/2 + g (x^2 + y^2)/4) - b - kappa (x + y - 2 y*)/2),
    U uniform on [0, 1): a NaN ratio is rejected.  A part with m2 <= 0
    takes ``_two_well_move``, whose component choices are drawn only in a
    call with such a part."""
    n, chains = len(m2), _MCMC_CHAINS
    phi = np.zeros((n, chains))
    cuts = sorted(set(bounds.tolist())
                  | set((np.flatnonzero(np.diff(m2)) + 1).tolist()))
    # per part: its rows, of phi and of -off(A), its mass, m2/2 at full
    # width (an add of equal shapes is the cheaper call), and its eta_i as
    # a column when any is set
    parts = [(rows, phi[rows], -off[rows], m2[rows.start],
              np.full((rows.stop - rows.start, chains), 0.5 * m2[rows.start]),
              eta[rows, None] if eta[rows].any() else None)
             for rows in map(slice, cuts[:-1], cuts[1:])]
    quarter_g, half_g = (np.full((1, chains), c * g) for c in (0.25, 0.5))
    wells = bool(np.any(m2 <= 0))

    def field(neg_off, eta_c):
        b = neg_off @ phi
        if eta_c is not None:
            b += eta_c
        return b

    for _, x, neg_off, mass, _, eta_c in parts:   # start at the modes
        x[...] = _site_minimum(g, mass, field(neg_off, eta_c))

    def advance(sweeps, record=None):
        """Run ``sweeps`` sweeps of every chain; accepted moves per row."""
        z = rng.standard_normal((sweeps, n, chains))
        z *= math.sqrt(0.5)
        with np.errstate(divide="ignore"):        # log 0 = -inf accepts
            log_u = np.log(rng.random((sweeps, n, chains)))
            log_v = np.log(rng.random((sweeps, n, chains))) if wells else None
        take = np.empty((sweeps, n, chains), dtype=bool)
        for s in range(sweeps):
            z_s, log_u_s, take_s = z[s], log_u[s], take[s]
            for rows, x, neg_off, mass, half_mass, eta_c in parts:
                b = field(neg_off, eta_c)
                mode = _site_minimum(g, mass, b)
                half_s = half_mass + half_g * mode * mode   # (m2 + g y*^2)/2
                half_kappa = np.sqrt(half_s * half_s + half_g)
                if mass > 0:
                    y = mode + z_s[rows] / np.sqrt(half_kappa)
                    both = x + y
                    ratio = (both * (half_mass + quarter_g * (x * x + y * y))
                             - b - half_kappa * (both - (mode + mode))
                             ) * (x - y)
                else:
                    y, ratio = _two_well_move(g, mass, b, mode, half_kappa, x,
                                              z_s[rows], log_v[s, rows])
                take_c = take_s[rows]
                np.less(log_u_s[rows], ratio, take_c)
                np.putmask(x, take_c, y)
            if record is not None:
                record[s] = phi
        return np.count_nonzero(take, axis=(0, 2))

    block = _MCMC_DRAW_SWEEPS
    for start in range(0, n_burn, block):
        advance(min(block, n_burn - start))
    samples = np.empty((n_meas, n, chains))
    accepted = np.zeros(n)
    for start in range(0, n_meas, block):
        sweeps = min(block, n_meas - start)
        accepted += advance(sweeps, samples[start:start + sweeps])
    return samples, accepted


def _two_well_move(g, m2, b, mode, half_kappa, x, z, log_v):
    """(proposal, log Metropolis-Hastings ratio) of the independence update
    of sites with mass m2 <= 0 in fields b, from states x, N(0, 1/2) draws
    z and log uniforms log_v.  Where u(y) = m2 y^2/2 + g y^4/4 - b y has a
    second well y2 (``_far_well``), the proposal is drawn from a mixture of
    Gaussians of precision kappa_k = u''(y_k)/2 about y1 = mode and y2,
    weighted by exp(-u(y_k))/sqrt(kappa_k): from y2 when log_v <
    -log(1 + exp(u(y2) - u(y1)) sqrt(kappa_2/kappa_1)).  With log q(y) =
    log(exp(-kappa_1 (y - y1)^2/2) + exp(-(u(y2) - u(y1)) - kappa_2 (y -
    y2)^2/2)), the ratio is u(x) - u(y) + log q(x) - log q(y).  Where u has
    one well the far weight is 0 and kappa_1 the secant ``half_kappa``
    times 2: the update of a part with m2 > 0."""
    with np.errstate(invalid="ignore", divide="ignore"):   # NaN: one well
        c = _far_well(g, m2, mode)
        far = mode + c
        # u(y2) - u(y1), in ``_site_rules``'s form
        lift = c * c * c * b / (4.0 * mode * far)
    half_far = 0.25 * m2 + 0.75 * g * far * far          # u''(y2)/4
    two = half_far > 0
    half_near = np.where(two, 0.25 * m2 + 0.75 * g * mode * mode, half_kappa)
    far = np.where(two, far, mode)
    half_far = np.where(two, half_far, half_near)
    lift = np.where(two, lift, np.inf)
    at_far = log_v < -np.logaddexp(
        0.0, lift + 0.5 * np.log(half_far / half_near))
    y = (np.where(at_far, far, mode)
         + z / np.sqrt(np.where(at_far, half_far, half_near)))

    def log_q(v):
        return np.logaddexp(-half_near * (v - mode) ** 2,
                            -lift - half_far * (v - far) ** 2)

    ratio = ((x + y) * (0.5 * m2 + 0.25 * g * (x * x + y * y)) - b) * (x - y)
    return y, ratio + log_q(x) - log_q(y)


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


def _shifted_moments(model: Phi4Model, t: float, field, method: str = "auto",
                     seed: int = 0) -> MomentEstimate:
    """Covariance of the model with mass shift 1/t and external ``field``
    (which replaces ``model.h``), by quadrature (rings of any length; under
    "auto" n <= 3 sites) or Metropolis from ``seed``, each at its own budget:
    ``metropolis_moments``'s defaults where every site mass a_ii + nu + 1/t
    is positive, else 100,000 burn-in and 60,000 measured sweeps, for the
    wells of coupled sites flip together."""
    if method == "quadrature" or (
            method == "auto" and model.n_sites <= QUADRATURE_MAX_SITES):
        return lattice_moments(model, 1.0 / t, field)
    wells = np.any(np.diag(model.a_matrix) + model.nu + 1.0 / t <= 0)
    budgets = (dict(n_measure_sweeps=_MCMC_WELLS_MEASURE,
                    burnin=_MCMC_WELLS_BURNIN) if wells else {})
    return metropolis_moments(model, 1.0 / t, field, seed=seed, **budgets)


def susceptibility(model: Phi4Model, t: float, method: str = "auto",
                   seed: int = 0) -> MomentEstimate:
    """chi_t: max over sites of covariance row sums of the mass-shifted,
    zero-field measure."""
    if t <= 0:
        raise ValueError("susceptibility requires t > 0")
    return _chi_of(_shifted_moments(model, t, np.zeros(model.n_sites), method,
                                    seed))


def _chi_of(est: MomentEstimate) -> MomentEstimate:
    """chi from a covariance estimate: the largest row sum, with n_sites
    times the largest entry stderr as its stderr."""
    return replace(est, value=float(np.max(np.sum(est.value, axis=1))),
                   stderr=len(est.value) * est.stderr)


def tilted_covariance(model: Phi4Model, t: float, phi) -> MomentEstimate:
    """Covariance of the measure with mass shift 1/t and field C_t^{-1} phi."""
    if t <= 0:
        raise ValueError("tilted covariance requires t > 0")
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    field = (model.a_matrix + np.eye(model.n_sites) / t) @ phi + model.h
    return _shifted_moments(model, t, field)


def phi4_schedules(model: Phi4Model, t_grid):
    """The lattice values a run reports, at each time of ``t_grid``, as a
    dict of arrays.  Each distinct time takes the zero-field moments with
    mass shift 1/t once, for chi, chi_stderr (``_chi_of``) and lambda_prime
    = 1/t - chi/t^2, and those at the model's field h once (one pass where
    h = 0), for sigma_min = lambda_min(Sigma_t(0)).  In closed form:
    sigma_inf = inf_phi lambda_min(Sigma_t(phi)), which is 0 for g > 0 and
    1/(lambda_max(A) + nu + 1/t) for g = 0, where Sigma_t(phi) =
    (A + nu + 1/t)^{-1} at every phi; and alpha_prime_formula, the alpha'
    bound 1/t - sigma_inf/t^2 + lambda_max(A) (t lambda_max(A) + 1).
    Raises NonConvergenceError on an estimate flagged unconverged.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise ValueError("phi4_schedules requires t > 0")
    times, at = np.unique(t_grid, return_inverse=True)
    fields = [np.zeros(model.n_sites)] + ([model.h] if model.h.any() else [])
    rows = []
    for t in times.tolist():
        ests = [_shifted_moments(model, t, f) for f in fields]
        if not all(est.converged for est in ests):
            raise NonConvergenceError(f"lattice moments at t = {t:.6g} did not converge")
        chi = _chi_of(ests[0])
        rows.append((chi.value, chi.stderr, 1.0 / t - chi.value / t**2,
                     np.linalg.eigvalsh(ests[-1].value)[0]))
    chi, chi_stderr, lambda_prime, sigma_min = np.array(rows)[at].T
    amax = float(np.linalg.eigvalsh(model.a_matrix)[-1])
    sigma_inf = (np.zeros_like(t_grid) if model.g > 0
                 else 1.0 / (amax + model.nu + 1.0 / t_grid))
    return {"chi": chi, "chi_stderr": chi_stderr, "lambda_prime": lambda_prime,
            "sigma_min": sigma_min, "sigma_inf": sigma_inf,
            "alpha_prime_formula": (1.0 / t_grid - sigma_inf / t_grid**2
                                    + amax * (t_grid * amax + 1.0))}


def hessian_identity_check(model: Phi4Model, t: float, phi_samples) -> float:
    """Max relative error of hess V_t = C^{-1} - C^{-1} Sigma_t(phi) C^{-1}.

    The left side is the tilted-moment Hessian of
    ``renormalized_derivatives``, the kernel every sampled rate of
    ``build_schedule`` is taken from, on a 96-node rule for one site and a
    60^n-node rule for two or three, all samples in one batch.  The right
    side uses the lattice covariance of ``tilted_covariance``, the estimator
    behind chi_t and the certified lambda'.
    """
    if model.n_sites > QUADRATURE_MAX_SITES:
        raise ValueError("identity check runs on the quadrature path (n <= 3)")
    phi_samples = np.atleast_2d(np.asarray(phi_samples, dtype=float))
    c, _, _ = model.schedule().eval(t)
    cinv = np.linalg.inv(c)
    q = QuadratureRule(order=96 if model.n_sites == 1 else 60)
    _, lhs = renormalized_derivatives(model.potential(), c, phi_samples, q)
    worst = 0.0
    for phi, hess in zip(phi_samples, lhs):
        sigma = tilted_covariance(model, t, phi).value
        rhs = cinv - cinv @ sigma @ cinv
        # ambient scale C^{-1}: both sides are differences of such terms
        scale = max(float(np.max(np.abs(rhs))),
                    1e-6 * float(np.max(np.abs(cinv))))
        worst = max(worst, float(np.max(np.abs(hess - rhs))) / scale)
    return worst
