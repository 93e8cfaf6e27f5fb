"""Flat key-value experiment configuration.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

KNOWN_CHECKS = ("spectrum", "theorem", "higher-k", "intertwining", "variance",
                "criterion", "phi4-identity", "heatflow")
MODEL_KINDS = ("gaussian", "quadratic", "phi4", "custom-poly")
SPACINGS = ("lin", "log")

# Largest model dimension per check: grid eigenproblems d <= 2, tensor
# quadrature d <= 3, 1-D grid functions d = 1.
CHECK_MAX_DIM = {"spectrum": 2, "theorem": 2, "higher-k": 2, "criterion": 3,
                 "phi4-identity": 3, "intertwining": 1, "variance": 1}


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
    """Validated experiment description."""

    model: dict
    schedule: dict
    t_min: float
    t_max: float
    t_count: int
    t_spacing: str
    checks: list
    seed: int
    output: str
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


def _pop(entries: dict, key: str, default=None, required: bool = False):
    if key in entries:
        return entries.pop(key)
    if required:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _config_dimension(model: dict, schedule: dict) -> int | None:
    """Dimension of the configured model, or None when nothing fixes it."""
    for name in ("model.a_matrix", "model.b_matrix", "schedule.c_infinity",
                 "schedule.a_matrix"):
        section, key = name.split(".")
        value = (model if section == "model" else schedule).get(key)
        if value is not None:
            try:
                return np.atleast_2d(np.asarray(value, dtype=float)).shape[0]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name} is not a numeric matrix") from exc
    if schedule["kind"] == "custom-table" and "table" in schedule:
        from .covariance import load_table

        try:
            return load_table(schedule["table"])[1].shape[-1]
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load schedule.table: {exc}") from exc
    return None


def config_from_text(text: str) -> ExperimentConfig:
    entries = parse_config_text(text)

    kind = _pop(entries, "model.kind", required=True)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model.kind {kind!r}; expected {MODEL_KINDS}")
    model = {"kind": kind}
    for key in list(entries):
        if key.startswith("model."):
            model[key[len("model."):]] = entries.pop(key)

    sched_kind = _pop(entries, "schedule.kind",
                      default="pauli-villars" if kind == "phi4" else "heat-kernel")
    schedule = {"kind": sched_kind}
    for key in list(entries):
        if key.startswith("schedule."):
            schedule[key[len("schedule."):]] = entries.pop(key)

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
    dim = _config_dimension(model, schedule)
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check {c!r}; expected subset of {KNOWN_CHECKS}")
        limit = CHECK_MAX_DIM.get(c)
        if None not in (dim, limit) and dim > limit:
            need = "d = 1" if limit == 1 else f"d <= {limit}"
            raise ConfigError(f"check {c!r} needs {need}; the model has d = {dim}")

    seed = _pop(entries, "seed", required=True)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    output = str(_pop(entries, "output", default="rgflow-out"))

    box_halfwidth = _pop(entries, "disc.box_halfwidth")
    grid_points = int(_pop(entries, "disc.grid_points", default=513))
    quadrature_order = int(_pop(entries, "disc.quadrature_order", default=80))

    options = dict(entries)  # remaining dotted keys are per-check options
    k = options.get("spectrum.k", 1)
    if not isinstance(k, (int, float)) or int(k) < 1:
        raise ConfigError(f"spectrum.k must be a number >= 1, got {k!r}")
    return ExperimentConfig(
        model=model, schedule=schedule, t_min=t_min, t_max=t_max,
        t_count=t_count, t_spacing=t_spacing, checks=list(checks), seed=seed,
        output=output,
        box_halfwidth=None if box_halfwidth is None else float(box_halfwidth),
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
