"""Flat key-value experiment configuration and the model it describes.

The config format is a plain text file of ``key = value`` lines with dotted
keys, ``#`` comments, typed scalars, bracketed lists, and matrices as lists
of row lists:

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
``ConfigError`` before any compute starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import CovarianceSchedule, make_schedule, schedule_from_table_file
from .errors import ConfigError
from .phi4 import Phi4Model
from .potential import MAX_TENSOR_DIM, PotentialDescriptor

KNOWN_CHECKS = ("spectrum", "theorem", "higher-k", "intertwining", "variance",
                "criterion", "phi4-identity", "heatflow")
# The per-check options the runner reads; any other key left after the
# model, schedule, t grid and discretization keys is an error.
CHECK_OPTIONS = ("spectrum.k", "criterion.tolerance", "curvature.count",
                 "theorem.tolerance", "intertwining.times",
                 "intertwining.bumps", "intertwining.tolerance",
                 "variance.tolerance", "variance.t_max", "variance.count",
                 "phi4.identity_tolerance", "phi4.identity_times",
                 "phi4.identity_samples", "heatflow.input", "heatflow.s_max",
                 "heatflow.s_count", "heatflow.tolerance")
# Options that count things: below 1, a check would pass with nothing to do.
COUNT_OPTIONS = ("spectrum.k", "intertwining.bumps", "curvature.count",
                 "variance.count", "phi4.identity_samples", "heatflow.s_count")
MODEL_KINDS = ("gaussian", "quadratic", "phi4", "custom-poly")
SPACINGS = ("lin", "log")

# Largest model dimension per check: grid eigenproblems d <= 2, tensor
# quadrature d <= 3, 1-D grid functions d = 1.
CHECK_MAX_DIM = {"spectrum": 2, "theorem": 2, "higher-k": 2,
                 "criterion": MAX_TENSOR_DIM, "phi4-identity": MAX_TENSOR_DIM,
                 "intertwining": 1, "variance": 1}
SPECTRAL_CHECKS = ("spectrum", "theorem", "higher-k")


def _parse_scalar(tok: str):
    tok = tok.strip()
    if tok.lower() in ("true", "false"):
        return tok.lower() == "true"
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
    """

    schedule: CovarianceSchedule
    V0: PotentialDescriptor
    t_min: float
    t_max: float
    t_count: int
    t_spacing: str
    checks: list
    seed: int
    output: str
    phi4_model: Phi4Model | None = None
    box_halfwidth: float | None = None
    grid_points: int = 513
    quadrature_order: int = 80
    options: dict = field(default_factory=dict)
    raw_text: str = ""

    def t_grid(self) -> np.ndarray:
        if self.t_spacing == "log":
            return np.geomspace(self.t_min, self.t_max, self.t_count)
        return np.linspace(self.t_min, self.t_max, self.t_count)

    def option(self, key: str, default=None):
        return self.options.get(key, default)


def _number(key: str, value, low: float, strict: bool = False):
    """``value``, or a ConfigError naming ``key`` unless it is a number at
    least ``low`` (above it when ``strict``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            value <= low if strict else value < low):
        raise ConfigError(f"{key} must be a number {'>' if strict else '>='} "
                          f"{low}, got {value!r}")
    return value


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


def config_from_text(text: str) -> ExperimentConfig:
    entries = parse_config_text(text)

    kind = _pop(entries, "model.kind", required=True)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model.kind {kind!r}; expected {MODEL_KINDS}")
    sched_kind = _pop(entries, "schedule.kind",
                      default="pauli-villars" if kind == "phi4" else "heat-kernel")
    schedule, V0, phi4_model = _build_model(kind, sched_kind, entries)

    t_min = float(_pop(entries, "t_grid.min", default=0.05))
    t_max = float(_pop(entries, "t_grid.max", default=2.0))
    t_count = int(_pop(entries, "t_grid.count", default=8))
    t_spacing = _pop(entries, "t_grid.spacing", default="log")
    if t_spacing not in SPACINGS:
        raise ConfigError(f"t_grid.spacing must be one of {SPACINGS}")
    if t_count < 2:
        raise ConfigError("t_grid.count must be >= 2")
    if t_min <= 0 and t_spacing == "log":
        raise ConfigError("log spacing requires t_grid.min > 0")
    if t_min < 0:
        raise ConfigError("t_grid.min must be >= 0: flow times are nonnegative")

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
    output = str(_pop(entries, "output", default="rgflow-out"))

    box_halfwidth = _pop(entries, "disc.box_halfwidth")
    if box_halfwidth is not None:
        box_halfwidth = float(_number("disc.box_halfwidth", box_halfwidth, 0,
                                      strict=True))
    grid_points = int(_pop(entries, "disc.grid_points", default=513))
    quadrature_order = int(_number(
        "disc.quadrature_order",
        _pop(entries, "disc.quadrature_order", default=80), 1))

    unknown = [key for key in entries if key not in CHECK_OPTIONS]
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))}; "
                          f"per-check options are {', '.join(CHECK_OPTIONS)}")
    options = dict(entries)
    for key in COUNT_OPTIONS:
        if key in options:
            _number(key, options[key], 1)
    k = options.get("spectrum.k", 3)
    if any(c in SPECTRAL_CHECKS for c in checks) and grid_points <= int(k) + 1:
        raise ConfigError(
            f"disc.grid_points must be above spectrum.k + 1 = {int(k) + 1} "
            f"for the spectral checks, got {grid_points}")
    return ExperimentConfig(
        schedule=schedule, V0=V0, t_min=t_min, t_max=t_max,
        t_count=t_count, t_spacing=t_spacing, checks=list(checks), seed=seed,
        output=output, phi4_model=phi4_model,
        box_halfwidth=box_halfwidth,
        grid_points=grid_points, quadrature_order=quadrature_order,
        options=options, raw_text="")


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
        cfg.output = output_override
        echo += f"output = {cfg.output}\n"
    cfg.raw_text = echo
    return cfg
