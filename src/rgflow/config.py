"""Flat key-value experiment configuration and the model it describes.

The config format is a plain text file of ``key = value`` lines with dotted
keys, ``#`` comments, scalars (an integer, else a float, else a string;
there are no booleans), bracketed lists, and matrices as lists of row lists:

    model.kind = phi4
    model.g = 1.0
    model.a_matrix = [[1.0]]
    schedule.kind = pauli-villars
    t_grid.min = 0.05
    t_grid.max = 3.0
    t_grid.count = 8
    t_grid.spacing = log
    checks = [spectrum, theorem]
    seed = 20240601
    output = runs/demo

``config_from_text`` also builds the model: the covariance schedule, the
base potential V0 and, for ``phi4``, the lattice model.  This is the only
place a config becomes a model, so ``rgflow validate`` builds exactly what
``rgflow run`` executes, and a config the constructors reject fails with a
``ConfigError`` before any compute starts.  A config whose checks solve an
eigenproblem (``EIGEN_CHECKS``) also loads its solvers here: a 1-D one loads
``rgflow.spectral`` and with it only scipy's compiled LAPACK, a 2-D one
also ``scipy.sparse``.  Other configs run without scipy.  A run whose scales
go to threads (``flow._map_scales``) loads the thread pool here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .covariance import CovarianceSchedule, make_schedule, schedule_from_table_file
from .curvature import TOL_TOTAL
from .errors import ConfigError
from .flow import _KERNEL_SIGMAS, load_density_table
from .phi4 import Phi4Model
from .potential import _CLOSED_FORMS, MAX_TENSOR_DIM, PotentialDescriptor

# in run order, which is the order of a report's rows
KNOWN_CHECKS = ("criterion", "spectrum", "theorem", "higher-k", "intertwining",
                "variance", "phi4-identity", "heatflow")
MODEL_KINDS = ("gaussian", "quadratic", "phi4", "custom-poly")

# Largest model dimension per check: grid eigenproblems d <= 2, tensor
# quadrature d <= 3, 1-D grid functions d = 1.
CHECK_MAX_DIM = {"spectrum": 2, "theorem": 2, "higher-k": 2,
                 "criterion": MAX_TENSOR_DIM, "phi4-identity": MAX_TENSOR_DIM,
                 "intertwining": 1, "variance": 1}
SPECTRAL_CHECKS = ("spectrum", "theorem", "higher-k")
# Checks that solve an eigenproblem; ``heatflow_harness`` calls ``spectrum``.
EIGEN_CHECKS = SPECTRAL_CHECKS + ("heatflow",)
# Most grid nodes, disc.grid_points^d, that one flow measure may hold.  The
# 3-site sample measure on 129^3 (2.1e6 nodes) peaks at 205 MB RSS, about
# 80 bytes a node over the interpreter's 39 MB; this budget keeps a measure
# near half a GB, where the default 513^3 would take about 11 GB.
NODE_BUDGET = 2**22


# An option's domain: its text, and the value as the runner reads it, or None.
_Rule = NamedTuple("_Rule", [("domain", str), ("typed", Callable)])


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _count(low: int, high: float = math.inf) -> _Rule:
    domain = f"an integer >= {low}" if high == math.inf else f"an integer in [{low}, {high}]"
    return _Rule(domain, lambda v: int(v)
                 if _finite(v) and v == int(v) and low <= v <= high else None)


def _density_input(v):
    """The heat-flow input density as nodes and values (x, density): a
    built-in one, or the table at path ``v``, read here so that a missing or
    malformed table fails validation."""
    if v == "uniform":
        x = np.linspace(-1.0, 1.0, 2001)
        return x, np.full_like(x, 0.5)
    if v == "gaussian":
        x = np.linspace(-9.0, 9.0, 1801)
        return x, np.exp(-x**2 / 2) / math.sqrt(2 * math.pi)
    return load_density_table(str(v))


_NUMBER = _Rule("a number", lambda v: float(v) if _finite(v) else None)
_POSITIVE = _Rule("a number > 0", lambda v: float(v) if _finite(v) and v > 0 else None)
_TIMES = _Rule("a non-empty list of numbers > 0",
               lambda v: [float(t) for t in v] if isinstance(v, list) and v
               and all(_finite(t) and t > 0 for t in v) else None)

# Every optional key: its default and its domain.  A None default depends on
# the model.  ``config_from_text`` resolves ``variance.t_max`` and
# ``variance.tolerance`` from the form of V0; an unset
# ``disc.box_halfwidth`` means the schedule's default box.
# ``variance.count`` is capped because its Gauss-Legendre rule solves a
# dense count x count eigenproblem.
OPTIONS = {
    "t_grid.min": (0.05, _Rule("a number >= 0",
                               lambda v: float(v) if _finite(v) and v >= 0 else None)),
    "t_grid.max": (2.0, _NUMBER),
    "t_grid.count": (8, _count(2)),
    "t_grid.spacing": ("log", _Rule("lin or log", lambda v: v if v in ("lin", "log") else None)),
    "disc.box_halfwidth": (None, _POSITIVE),
    "disc.grid_points": (513, _count(2)),
    "disc.quadrature_order": (80, _count(1)),
    "output": ("rgflow-out", _Rule("a path", str)),
    "spectrum.k": (3, _count(1)),
    "criterion.tolerance": (1e-6, _NUMBER),
    "curvature.count": (60, _count(1)),
    "theorem.tolerance": (TOL_TOTAL, _NUMBER),
    "intertwining.times": ([0.5, 1.0, 2.0], _TIMES),
    "intertwining.bumps": (3, _count(1)),
    "intertwining.tolerance": (1.01e-4, _NUMBER),
    "variance.tolerance": (None, _NUMBER),
    "variance.t_max": (None, _POSITIVE),
    "variance.count": (32, _count(2, 256)),
    "phi4.identity_tolerance": (1e-5, _NUMBER),
    "phi4.identity_times": ([0.5, 1.0, 2.0], _TIMES),
    "phi4.identity_samples": (10, _count(1)),
    "heatflow.input": ("uniform", _Rule("uniform, gaussian or a density table path",
                                        _density_input)),
    "heatflow.s_max": (2.0, _POSITIVE),
    "heatflow.s_count": (9, _count(2)),
    "heatflow.tolerance": (1e-4, _NUMBER),
}


def _parse_scalar(tok: str):
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok.strip("\"'")


def _parse_value(text: str):
    text = text.strip()
    if not text.startswith("["):
        return _parse_scalar(text)
    # bracketed list, possibly nested one level (matrix rows)
    depth = 0
    items: list = []
    buf = ""
    for ch in text:
        if ch == "[":
            depth += 1
            if depth == 1:
                continue
        elif ch == "]":
            depth -= 1
            if depth == 0:
                if buf.strip():
                    items.append(buf)
                buf = ""
                continue
        if ch == "," and depth == 1:
            items.append(buf)
            buf = ""
        else:
            buf += ch
    if depth != 0:
        raise ConfigError(f"unbalanced brackets in value {text!r}")
    out = []
    for item in items:
        item = item.strip()
        out.append(_parse_value(item) if item.startswith("[") else _parse_scalar(item))
    return out


def parse_config_text(text: str) -> dict:
    """Parse config text into a flat {dotted-key: value} dict."""
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = _parse_value(value)
    return entries


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    ``schedule``, ``V0`` and ``phi4_model`` (None unless ``model.kind`` is
    phi4) are built by ``config_from_text``; the runner only reads them.
    ``options`` holds every key of ``OPTIONS``, typed, with its default
    where the config does not set it.
    """

    schedule: CovarianceSchedule
    V0: PotentialDescriptor
    checks: list
    seed: int
    phi4_model: Phi4Model | None = None
    options: dict = field(default_factory=dict)
    raw_text: str = ""

    def t_grid(self) -> np.ndarray:
        opts = self.options
        space = np.geomspace if opts["t_grid.spacing"] == "log" else np.linspace
        return space(opts["t_grid.min"], opts["t_grid.max"], opts["t_grid.count"])


def _pop(entries: dict, key: str, default=None, required: bool = False):
    if key in entries:
        return entries.pop(key)
    if required:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _build_schedule(kind: str, entries: dict) -> CovarianceSchedule:
    if kind == "custom-table":
        return schedule_from_table_file(_pop(entries, "schedule.table", required=True))
    aux = _pop(entries, "schedule.a_matrix") if kind == "pauli-villars" else None
    return make_schedule(kind, c_infinity=_pop(entries, "schedule.c_infinity"),
                         aux=aux)


def _build_model(kind: str, sched_kind: str, entries: dict):
    """Pop the ``model.*``/``schedule.*`` keys of ``entries`` that the kinds
    read and build (schedule, V0, phi4_model) from them.

    A constructor's ValueError, TypeError or OSError comes back as a
    ConfigError with its message, and so does any ``model.*`` or
    ``schedule.*`` key left unread.
    """
    phi4_model = None
    try:
        if kind == "phi4":
            if sched_kind != "pauli-villars":
                raise ConfigError("phi4 models need schedule.kind = pauli-villars, "
                                  f"got {sched_kind!r}")
            phi4_model = Phi4Model(_pop(entries, "model.a_matrix", required=True),
                                   float(_pop(entries, "model.g", 1.0)),
                                   float(_pop(entries, "model.nu", 0.0)),
                                   _pop(entries, "model.h", 0.0))
            schedule, V0 = phi4_model.schedule(), phi4_model.potential()
        else:
            schedule = _build_schedule(sched_kind, entries)
            if kind == "gaussian":
                V0 = PotentialDescriptor.zero(schedule.dim)
            elif kind == "quadratic":
                V0 = PotentialDescriptor.quadratic(
                    _pop(entries, "model.b_matrix", required=True))
                if V0.dimension != schedule.dim:
                    raise ConfigError(
                        f"model.b_matrix has d = {V0.dimension} but the schedule "
                        f"has d = {schedule.dim}")
            else:  # custom-poly
                V0 = PotentialDescriptor.quartic(
                    _pop(entries, "model.g", 0.0), _pop(entries, "model.nu", 0.0),
                    _pop(entries, "model.h", 0.0), dimension=schedule.dim)
    except ConfigError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"cannot build the {kind} model on the {sched_kind} "
                          f"schedule: {exc}") from exc
    unread = [key for key in entries if key.startswith(("model.", "schedule."))]
    if unread:
        raise ConfigError(f"{', '.join(unread)} not read by a {kind} model "
                          f"on the {sched_kind} schedule")
    return schedule, V0, phi4_model


def _check_horizon(schedule: CovarianceSchedule, key: str, t: float | None,
                   default: float | None = None) -> float:
    """``t``, or ``default`` lowered by ``residual_horizon``, where
    ``residual_inverse`` accepts it; otherwise a ConfigError naming ``key``."""
    shown = f"{default:g} (the default)" if t is None else f"{t:g}"
    try:
        if t is None:
            t = schedule.residual_horizon(default)
        schedule.residual_inverse(t)
    except ValueError as exc:
        raise ConfigError(f"{key} must lie in the schedule's domain, got "
                          f"{shown}: {exc}") from exc
    return t


def config_from_text(text: str) -> ExperimentConfig:
    entries = parse_config_text(text)

    kind = _pop(entries, "model.kind", required=True)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model.kind {kind!r}; expected {MODEL_KINDS}")
    sched_kind = _pop(entries, "schedule.kind",
                      default="pauli-villars" if kind == "phi4" else "heat-kernel")
    schedule, V0, phi4_model = _build_model(kind, sched_kind, entries)

    checks = _pop(entries, "checks", default=[])
    if isinstance(checks, str):
        checks = [checks]
    dim = V0.dimension
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check {c!r}; expected subset of {KNOWN_CHECKS}")
        if c == "phi4-identity" and phi4_model is None:
            raise ConfigError(f"check 'phi4-identity' needs model.kind = phi4, "
                              f"got {kind!r}")
        limit = CHECK_MAX_DIM.get(c, dim)
        if dim > limit:
            need = "d = 1" if limit == 1 else f"d <= {limit}"
            raise ConfigError(f"check {c!r} needs {need}; the model has d = {dim}")

    seed = _pop(entries, "seed", required=True)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    unknown = ", ".join(repr(key) for key in entries if key not in OPTIONS)
    if unknown:
        raise ConfigError(f"unknown key {unknown}; optional keys are {', '.join(OPTIONS)}")
    options = {}
    for key, (default, rule) in OPTIONS.items():
        value = entries.get(key, default)
        try:
            options[key], reason = None if value is None else rule.typed(value), ""
        except (ValueError, OSError) as exc:  # an unreadable table
            options[key], reason = None, f": {exc}"
        if value is not None and options[key] is None:
            raise ConfigError(f"{key} must be {rule.domain}, got {value!r}{reason}")
    if options["t_grid.spacing"] == "log" and options["t_grid.min"] <= 0:
        raise ConfigError("log spacing requires t_grid.min > 0")
    if options["t_grid.max"] <= options["t_grid.min"]:
        raise ConfigError(f"t_grid.max must be above t_grid.min = "
                          f"{options['t_grid.min']}, got {options['t_grid.max']}")
    k, grid_points = options["spectrum.k"], options["disc.grid_points"]
    if any(c in SPECTRAL_CHECKS for c in checks) and grid_points <= k + 1:
        raise ConfigError(f"disc.grid_points must be above spectrum.k + 1 = {k + 1} "
                          f"for the spectral checks, got {grid_points}")
    # the spectral checks build flow measures on the grid, and so do
    # intertwining and variance (d = 1); every check but phi4-identity and
    # heatflow samples the rates of a V0 with no closed form on one
    grid_checks = set(checks) - {"phi4-identity", "heatflow"}
    if V0.form in _CLOSED_FORMS:
        grid_checks &= {*SPECTRAL_CHECKS, "intertwining", "variance"}
    if grid_checks and grid_points ** dim > NODE_BUDGET:
        raise ConfigError(f"disc.grid_points = {grid_points} puts {grid_points ** dim:,} "
                          f"nodes in a {dim}-D flow measure, above the budget of "
                          f"{NODE_BUDGET:,}")
    # the last time each check evaluates the schedule at must lie in its
    # domain: inside a table's range, with C_inf - C_t invertible there
    box, t_max = options["disc.box_halfwidth"], options["variance.t_max"]
    if any(c != "heatflow" for c in checks):
        _check_horizon(schedule, "t_grid.max", options["t_grid.max"])
    if "intertwining" in checks:
        _check_horizon(schedule, "intertwining.times", max(options["intertwining.times"]))
    if "variance" in checks:
        gaussian = V0.form == "zero"
        options["variance.t_max"] = _check_horizon(
            schedule, "variance.t_max", t_max, 20.0 if gaussian else 30.0)
        if options["variance.tolerance"] is None:
            options["variance.tolerance"] = 1e-6 if gaussian else 1e-3
    # intertwining and variance transport grid functions by P_{0,t}, whose
    # kernel C_t - C_0 must fit in the box (up to C_inf where variance.t_max
    # is not set)
    ends = ([max(options["intertwining.times"])] if "intertwining" in checks else []) + (
        [math.inf if t_max is None else t_max] if "variance" in checks else [])
    if box is not None and ends:
        c_end = schedule.c_infinity if max(ends) == math.inf else schedule.eval(max(ends))[0]
        reach = _KERNEL_SIGMAS * math.sqrt(max(
            np.linalg.eigvalsh(c_end - schedule.eval(0.0)[0])[-1], 0.0))
        if box < reach:
            raise ConfigError(f"disc.box_halfwidth must be at least {reach:.6g}, the "
                              f"{_KERNEL_SIGMAS:g}-sigma reach of P_(0,t) up to t = "
                              f"{max(ends):g}, got {box}")
    if any(c in EIGEN_CHECKS for c in checks):
        # the solvers load here, at set-up, not inside the first timed solve:
        # ``spectral`` loads scipy's compiled LAPACK, which is all a 1-D
        # eigenproblem (heatflow's always) needs; the 2-D generator is a
        # scipy.sparse matrix solved by its eigsh
        from . import spectral  # noqa: F401
        if V0.dimension == 2 and any(c in SPECTRAL_CHECKS for c in checks):
            import scipy.sparse.linalg  # noqa: F401
    # the thread pool that maps the scales of the spectral checks' flow
    # measures and of the variance audit loads at set-up too
    if any(c in SPECTRAL_CHECKS + ("variance",) for c in checks):
        import concurrent.futures.thread  # noqa: F401
    return ExperimentConfig(schedule=schedule, V0=V0, checks=list(checks),
                            seed=seed, phi4_model=phi4_model, options=options)


def load_config(path: str, seed_override: int | None = None,
                output_override: str | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = config_from_text(text)
    echo = text
    if seed_override is not None:
        if int(seed_override) < 0:
            raise ConfigError("seed override must be nonnegative")
        cfg.seed = int(seed_override)
        echo += f"\n# override\nseed = {cfg.seed}\n"
    if output_override is not None:
        cfg.options["output"] = output_override
        echo += f"output = {output_override}\n"
    cfg.raw_text = echo
    return cfg
