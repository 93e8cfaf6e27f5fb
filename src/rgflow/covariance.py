"""Covariance decompositions t -> (C_t, C_t', C_t'') on R^d.

A covariance decomposition is a continuous, nondecreasing (in quadratic-form
order) path of symmetric positive-semidefinite matrices running from C_0 = 0
to a positive-definite limit C_inf.  Two analytic families are built in:

* ``heat-kernel``:    C_t = C_inf - C_inf expm(-t C_inf^{-1})
* ``pauli-villars``:  C_t = (A + 1/t)^{-1} with A = C_inf^{-1}

plus tabulated user schedules loaded from columnar text files.  Both built-in
families are evaluated through the eigendecomposition of C_inf, so every
returned matrix is exactly symmetric and the three outputs commute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KINDS = ("heat-kernel", "pauli-villars", "custom-table")

# Snap tolerance for custom-table queries, relative to the local node gap.
_TABLE_SNAP_RTOL = 1e-9

# Smallest eigenvalue of C_inf - C_t that ``residual_inverse`` accepts.
RESIDUAL_FLOOR = 1e-12


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _check_spd(m: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate finiteness, symmetry and positive-definiteness; return
    (eigvals, eigvecs)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite, got {m.tolist()}")
    asym = np.max(np.abs(m - m.T))
    scale = max(np.max(np.abs(m)), 1.0)
    if asym > 1e-10 * scale:
        raise ValueError(f"{name} is not symmetric: max |M - M^T| = {asym:.3e}")
    w, u = np.linalg.eigh(_sym(m))
    if w[0] <= 0.0:
        raise ValueError(
            f"{name} is not positive-definite: smallest eigenvalue {w[0]:.6e}"
        )
    return w, u


@dataclass(frozen=True)
class CovarianceSchedule:
    """Evaluates (C_t, C_t', C_t'') for one covariance decomposition.

    Immutable after construction; safe for concurrent reads.  For the
    built-in kinds the fields ``_eigvals``/``_eigvecs`` hold the spectral
    data of C_inf and all evaluations are scalar functions of those
    eigenvalues.  Custom tables snap queries to the nearest sampled node
    and never extrapolate.
    """

    kind: str
    c_infinity: np.ndarray
    table: tuple | None = None  # (t_nodes, C, Cp, Cpp) arrays for custom kind
    _eigvals: np.ndarray = field(default=None, repr=False)
    _eigvecs: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.c_infinity.shape[0]

    def eval(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (C_t, C_t', C_t'') at a single time t >= 0."""
        t = float(t)
        if t < 0.0:
            raise ValueError(f"flow time must be nonnegative, got t={t}")
        if self.kind == "heat-kernel":
            return self._eval_heat(t)
        if self.kind == "pauli-villars":
            return self._eval_pv(t)
        return self._eval_table(t)

    def _recompose(self, c, cp, cpp):
        u = self._eigvecs
        mk = lambda d: _sym((u * d) @ u.T)
        return mk(c), mk(cp), mk(cpp)

    def _eval_heat(self, t):
        w = self._eigvals
        decay = np.exp(-t / w)
        return self._recompose(w * (1.0 - decay), decay, -decay / w)

    def _eval_pv(self, t):
        a = 1.0 / self._eigvals  # eigenvalues of A = C_inf^{-1}
        if t == 0.0:
            # limits: C -> 0, C' -> I, C'' -> -2A
            return self._recompose(np.zeros_like(a), np.ones_like(a), -2.0 * a)
        den = t * a + 1.0
        return self._recompose(t / den, 1.0 / den**2, -2.0 * a / den**3)

    def _eval_table(self, t):
        t_nodes, c, cp, cpp = self.table
        lo, hi = t_nodes[0], t_nodes[-1]
        gap = max(hi - lo, abs(hi), 1.0)
        if t < lo - _TABLE_SNAP_RTOL * gap or t > hi + _TABLE_SNAP_RTOL * gap:
            raise ValueError(
                f"t={t} outside table range [{lo}, {hi}] (no extrapolation)"
            )
        i = int(np.argmin(np.abs(t_nodes - t)))
        return c[i].copy(), cp[i].copy(), cpp[i].copy()

    @property
    def c0_prime_radius(self) -> float:
        """Spectral radius |C_0'| of the initial mobility (limit at t=0+)."""
        if self.kind in ("heat-kernel", "pauli-villars"):
            return 1.0
        i = int(np.argmin(self.table[0]))
        return float(np.max(np.abs(np.linalg.eigvalsh(self.table[1][i]))))

    def residual_inverse(self, t: float) -> np.ndarray:
        """(C_inf - C_t)^{-1}, rejecting times where it is numerically singular."""
        c, _, _ = self.eval(t)
        diff = _sym(self.c_infinity - c)
        w, u = np.linalg.eigh(diff)
        if w[0] < RESIDUAL_FLOOR:
            raise ValueError(
                "flow time too large for this resolution: "
                f"C_inf - C_t has eigenvalue {w[0]:.3e} < {RESIDUAL_FLOOR:.0e} "
                f"at t={t}"
            )
        return _sym((u / w) @ u.T)

    def residual_horizon(self, t_max: float) -> float:
        """``t_max``, or the largest smaller time at which C_inf - C_t stays
        100x above the floor of ``residual_inverse`` (found by bisection)."""

        def holds(t):
            c, _, _ = self.eval(t)
            gap = np.linalg.eigvalsh(self.c_infinity - c)[0]
            return gap >= 100.0 * RESIDUAL_FLOOR

        if holds(t_max):
            return t_max
        lo, hi = 0.0, t_max
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if holds(mid) else (lo, mid)
        return lo


def make_schedule(kind: str, c_infinity=None, aux=None, table=None) -> CovarianceSchedule:
    """Construct a covariance decomposition.

    ``aux`` is only meaningful for ``pauli-villars``: if given it must equal
    C_inf^{-1} (it is the mass matrix of the regularization).  Exactly one of
    ``c_infinity``/``aux`` must be supplied in that case.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {KINDS}")

    if kind == "pauli-villars" and c_infinity is None and aux is not None:
        wa, ua = _check_spd(np.asarray(aux, dtype=float), "aux (mass matrix)")
        c_infinity = _sym((ua / wa) @ ua.T)
        aux = None

    if c_infinity is None:
        raise ValueError("c_infinity is required")
    c_infinity = np.atleast_2d(np.asarray(c_infinity, dtype=float))
    w, u = _check_spd(c_infinity, "c_infinity")
    c_infinity = _sym(c_infinity)

    if kind == "pauli-villars" and aux is not None:
        a_given = np.atleast_2d(np.asarray(aux, dtype=float))
        a_implied = _sym((u / w) @ u.T)
        if not np.allclose(a_given, a_implied, rtol=1e-8, atol=1e-10):
            raise ValueError("aux must equal c_infinity^{-1} for pauli-villars")

    if kind == "custom-table":
        if table is None:
            raise ValueError("custom-table schedules require table data")
        table = _validate_table(table, c_infinity)
    else:
        table = None

    return CovarianceSchedule(
        kind=kind, c_infinity=c_infinity, table=table, _eigvals=w, _eigvecs=u
    )


def _validate_table(table, c_infinity):
    t_nodes, c, cp, cpp = (np.asarray(x, dtype=float) for x in table)
    for name, arr in (("t", t_nodes), ("c", c), ("cp", cp), ("cpp", cpp)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"table {name!r} entries must be finite")
    order = np.argsort(t_nodes)
    t_nodes, c, cp, cpp = t_nodes[order], c[order], cp[order], cpp[order]
    if t_nodes[0] < 0:
        raise ValueError("table times must be nonnegative")
    if len(t_nodes) > 1 and np.min(np.diff(t_nodes)) <= 0:
        raise ValueError("table times must be strictly increasing")
    for name, arr in (("c", c), ("cp", cp), ("cpp", cpp)):
        if arr.shape[1:] != c_infinity.shape:
            raise ValueError(f"table block {name!r} has shape {arr.shape[1:]}, "
                             f"expected {c_infinity.shape}")
    prev = None
    for i, t in enumerate(t_nodes):
        if np.linalg.eigvalsh(_sym(cp[i]))[0] < -1e-10:
            raise ValueError(f"table C' at t={t} is not positive-semidefinite")
        if prev is not None and np.linalg.eigvalsh(_sym(c[i] - prev))[0] < -1e-10:
            raise ValueError(f"table C is not nondecreasing at t={t}")
        prev = c[i]
    return (t_nodes, c, cp, cpp)


def write_table(path, t_nodes, c, cp, cpp) -> None:
    """Write a custom schedule table in the columnar text format."""
    t_nodes = np.asarray(t_nodes, dtype=float)
    c, cp, cpp = (np.asarray(x, dtype=float) for x in (c, cp, cpp))
    d = c.shape[-1]
    names = ["t"]
    for prefix in ("c", "cp", "cpp"):
        names += [f"{prefix}[{i},{j}]" for i in range(d) for j in range(d)]
    rows = np.column_stack(
        [t_nodes] + [x.reshape(len(t_nodes), d * d) for x in (c, cp, cpp)]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# covariance schedule table, row-major blocks\n")
        fh.write(" ".join(names) + "\n")
        for row in rows:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_table(path):
    """Read a columnar table ``t c[i,j]... cp[i,j]... cpp[i,j]...``.

    UTF-8, ``#`` starts a comment, header row gives the column layout.
    Returns (t_nodes, C, Cp, Cpp) with matrices reshaped row-major.
    """
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                header = line.split()
                continue
            rows.append([float(tok) for tok in line.split()])
    if header is None or not rows:
        raise ValueError(f"table file {path!r} has no header or no data rows")
    ncol = len(header)
    if header[0] != "t" or (ncol - 1) % 3 != 0:
        raise ValueError("table header must be 't' followed by c/cp/cpp blocks")
    d2 = (ncol - 1) // 3
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise ValueError(f"table blocks of {d2} entries are not square matrices")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != ncol:
        raise ValueError("table rows do not match the header width")
    t_nodes = data[:, 0]
    blocks = [data[:, 1 + k * d2: 1 + (k + 1) * d2].reshape(-1, d, d) for k in range(3)]
    return (t_nodes, *blocks)


def schedule_from_table_file(path, c_infinity=None) -> CovarianceSchedule:
    """Load a custom-table schedule; C_inf defaults to the last sampled C."""
    table = load_table(path)
    if c_infinity is None:
        c_infinity = table[1][-1]
    return make_schedule("custom-table", c_infinity=c_infinity, table=table)
