"""Independent brute-force oracles used to pin expected values in tests.

Everything here deliberately avoids the production code paths: smoothed
potentials are integrated with adaptive quadrature (scipy.integrate.quad),
Gaussian facts come from closed forms, a ring's susceptibility comes from
one eigendecomposition of a trapezoid transfer kernel, and the
harmonic-oscillator spectrum is the textbook ladder.  The CLI ``oracle``
subcommand evaluates the same functions and writes their reference values
to disk.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, optimize


def gaussian_smoothed_quadratic(beta: float, c: float, x: float):
    """Value/gradient/Hessian of -log(gamma_c * exp(-beta y^2/2)) at x.

    Closed form: V(x) = beta x^2 / (2 (1 + beta c)) + log(1 + beta c) / 2.
    """
    den = 1.0 + beta * c
    value = beta * x * x / (2.0 * den) + 0.5 * math.log(den)
    grad = beta * x / den
    hess = beta / den
    return value, grad, hess


def _site_window(g: float, nu: float, h: float, c: float, x: float):
    """The integrand exp(-(E(y) - E(y*))), with E(y) = V0(y) + (y - x)^2 /
    (2c) and V0(y) = g y^4/4 + nu y^2/2 - h y, the ends of the window
    y* +- 14 sqrt(c) it is integrated over, and E(y*): window and shift sit
    on the minimum y* of E, however far a strong field h moves it from x.

    E' is a cubic and y* one of its roots; no real y has E(y) < E(y*), so
    y* is the real part of a root with the smallest E.
    """
    def neg_exponent(y):
        return (0.25 * g * y**4 + 0.5 * nu * y**2 - h * y
                + (y - x) ** 2 / (2.0 * c))

    centre = min(np.roots([g, 0.0, nu + 1.0 / c, -(h + x / c)]).real,
                 key=neg_exponent)
    shift = float(neg_exponent(centre))
    reach = 14.0 * math.sqrt(c)
    return (lambda y: math.exp(-(neg_exponent(y) - shift)),
            centre - reach, centre + reach, shift)


def quartic_site_value(g: float, nu: float, h: float, c: float, x: float,
                       tol: float = 1e-12) -> float:
    """-log E_{z~N(0,c)}[exp(-V0(x+z))] by adaptive quadrature, 1D.

    V0(y) = g y^4/4 + nu y^2/2 - h y.  The integrand is shifted by its
    maximum exponent before integrating so the result is stable for large x.
    """
    if c <= 0:
        return 0.25 * g * x**4 + 0.5 * nu * x**2 - h * x
    integrand, lo, hi, shift = _site_window(g, nu, h, c, x)
    total, _ = integrate.quad(integrand, lo, hi,
                              epsabs=tol, epsrel=tol, limit=400)
    return -(math.log(total) - math.log(math.sqrt(2.0 * math.pi) * math.sqrt(c))
             - shift)


def quartic_site_moments(g: float, nu: float, h: float, c: float, x: float,
                         tol: float = 1e-12):
    """Mean and variance of psi ~ exp(-V0(psi)) N(psi; x, c) by adaptive quad."""
    integrand, lo, hi, _ = _site_window(g, nu, h, c, x)

    def moment(power):
        val, _ = integrate.quad(lambda y: y**power * integrand(y), lo, hi,
                                epsabs=tol, epsrel=tol, limit=400)
        return val

    z0 = moment(0)
    m1 = moment(1) / z0
    m2 = moment(2) / z0
    return m1, m2 - m1 * m1


def quartic_lattice_moments(a_matrix, g: float, nu: float, h, tol: float = 1e-10):
    """Mean vector and covariance of exp(-S) on R^n, n <= 2, by nested quad.

    S(phi) = phi.A phi/2 + sum(g phi^4/4 + nu phi^2/2) - h.phi.  Slow and
    simple on purpose; this is the reference for the site Gauss rules and
    transfer matrices of ``phi4.lattice_moments``.
    The covariance comes from second moments about a first-pass mean, not
    from m2 - m1^2, which cancels where a strong field puts the mean many
    standard deviations from 0.
    """
    a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    n = a.shape[0]
    if n > 2:
        raise ValueError("nested-quad oracle implemented for n <= 2 only")
    h = np.broadcast_to(np.atleast_1d(np.asarray(h, dtype=float)), (n,))

    def action(phi):
        phi = np.asarray(phi)
        return (0.5 * phi @ a @ phi
                + np.sum(0.25 * g * phi**4 + 0.5 * nu * phi**2) - h @ phi)

    # the window spans reach around the minimum of S, found from the best
    # node of a grid that also reaches the tilt
    reach = 1.5 * (abs(40.0 / max(g, 1e-9))) ** 0.25 + 4.0
    axis = np.linspace(-1.0, 1.0, 2001 if n == 1 else 201) * (
        reach + 3.0 * np.max(np.abs(h)))
    centre = optimize.minimize(
        action, min(itertools.product(axis, repeat=n), key=action)).x
    shift = action(centre)
    lo, hi = centre - reach, centre + reach
    if n == 1:
        def mom(p, about=0.0):
            f = lambda y: (y - about)**p * math.exp(-(action([y]) - shift))
            return integrate.quad(f, lo[0], hi[0], epsabs=tol, epsrel=tol,
                                  limit=300)[0]

        z0 = mom(0)
        m1 = mom(1) / z0
        return np.array([m1]), np.array([[mom(2, m1) / z0]])

    def mom(pu, pv, about=(0.0, 0.0)):
        f = lambda v, u: ((u - about[0])**pu * (v - about[1])**pv
                          * math.exp(-(action([u, v]) - shift)))
        return integrate.dblquad(f, lo[0], hi[0], lo[1], hi[1],
                                 epsabs=tol, epsrel=tol)[0]

    z0 = mom(0, 0)
    m = np.array([mom(1, 0), mom(0, 1)]) / z0
    cross = mom(1, 1, m)
    s = np.array([[mom(2, 0, m), cross], [cross, mom(0, 2, m)]]) / z0
    return m, s


def ring_chi(n: int, diag: float, g: float, nu: float, bond: float,
             t: float) -> float:
    """chi_t of the uniform n-site ring at zero field: the row sum
    sum_j <phi_0 phi_j> of the measure exp(-sum_x u(phi_x) + bond sum_x
    phi_x phi_{x+1}), x + 1 mod n, with u(y) = (diag + nu + 1/t) y^2/2 +
    g y^4/4, i.e. A = diag - bond (S + S^T) for n >= 3.

    The transfer kernel T(x, y) = h exp(-(u(x) + u(y))/2 + bond x y), h the
    node spacing, is the 400-node trapezoid rule on [-6, 6], so the site
    weight must lie well inside that window.  With one eigendecomposition
    of T, chi = sum_j Tr(D T^j D T^(n-j)) / Tr T^n, D = diag(x), each
    eigenvalue divided by the largest so that no power overflows.
    """
    x = np.linspace(-6.0, 6.0, 400)
    u = 0.5 * (diag + nu + 1.0 / t) * x**2 + 0.25 * g * x**4
    kernel = (x[1] - x[0]) * np.exp(-0.5 * (u[:, None] + u[None, :])
                                    + bond * np.outer(x, x))
    lam, vec = np.linalg.eigh(kernel)
    d2 = (vec.T @ (x[:, None] * vec)) ** 2
    power = (lam / lam[-1]) ** np.arange(n + 1)[:, None]
    return float(sum(power[n - j] @ d2 @ power[j] for j in range(n))
                 / power[n].sum())


def ou_spectrum(k: int) -> np.ndarray:
    """Eigenvalues 0, 1, ..., k of the unit Ornstein-Uhlenbeck generator."""
    return np.arange(k + 1, dtype=float)


def gaussian_chain_facts(t: float) -> dict:
    """Closed-form facts for the V0 = 0, C_inf = 1 heat-kernel chain."""
    return {
        "c": 1.0 - math.exp(-t),
        "c_prime": math.exp(-t),
        "c_second": -math.exp(-t),
        "lambda_prime": 0.5,
        "alpha_prime": 1.0,
        "poincare_weighted": 1.0,
        "poincare_unweighted": math.exp(-t),
        "nu_variance": math.exp(-t),
        "variance_integrand": math.exp(-t),
    }


def pauli_villars_facts(a: float, t: float) -> dict:
    """Closed-form facts for the scalar mass-a regularized Gaussian chain."""
    den = t * a + 1.0
    return {
        "c": t / den,
        "c_prime": 1.0 / den**2,
        "c_second": -2.0 * a / den**3,
        "chi": t / den,
        "lambda_prime": a / den,
        "alpha_prime": a / den,
        "alpha_prime_formula": 1.0 / t - 1.0 / (t * den) + a * den,
        "residual_inverse": a * den,
    }


def heatflow_gaussian_poincare(s: float) -> float:
    """Poincare constant of gamma * gamma_s: the variance 1 + s."""
    return 1.0 + s


ORACLE_TABLE = (
    ("smoothed-quadratic-value", lambda: gaussian_smoothed_quadratic(1.0, 1.0, 1.0)[0]),
    ("smoothed-quadratic-grad", lambda: gaussian_smoothed_quadratic(1.0, 1.0, 1.0)[1]),
    ("smoothed-quadratic-hess", lambda: gaussian_smoothed_quadratic(1.0, 1.0, 1.0)[2]),
    ("quartic-value-g1-t1-x0", lambda: quartic_site_value(1.0, 0.0, 0.0, 0.5, 0.0)),
    ("quartic-sigma-g1-t1-x0.7",
     lambda: quartic_site_moments(1.0, 0.0, 0.0, 0.5, 0.7)[1]),
    ("ou-mu-4", lambda: float(ou_spectrum(4)[4])),
    ("gaussian-chain-cp-weighted", lambda: gaussian_chain_facts(1.0)["poincare_weighted"]),
    ("pv-chi-a1-t1", lambda: pauli_villars_facts(1.0, 1.0)["chi"]),
    ("pv-lambda-prime-a1-t1", lambda: pauli_villars_facts(1.0, 1.0)["lambda_prime"]),
    ("heatflow-gaussian-cp-s2", lambda: heatflow_gaussian_poincare(2.0)),
    ("ring16-chi-t1", lambda: ring_chi(16, 2.5, 1.0, -1.0, 0.5, 1.0)),
)


def run_all() -> list[tuple[str, float]]:
    """Evaluate every registered oracle; used by the CLI ``oracle`` command."""
    return [(name, float(fn())) for name, fn in ORACLE_TABLE]
