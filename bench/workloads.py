"""The four benchmark workloads and the inputs each one builds from a seed.

Three workloads are ``rgflow run`` configs; the seed becomes the config
``seed`` (it draws the 100 uniform points of the default sample set).  The
fourth calls ``phi4.susceptibility(..., method="mcmc")`` through the Python
API; the seed becomes the Metropolis seed.
"""

from __future__ import annotations

import os

DEFAULT_SEED = 20240601

# The README config verbatim, apart from the seed.
DWELL = """\
model.kind = phi4
model.a_matrix = [[1.0]]
model.g = 1.0
model.nu = -1.0
model.h = [0.0]
schedule.kind = pauli-villars
t_grid.min = 0.05
t_grid.max = 3.0
t_grid.count = 8
t_grid.spacing = log
disc.grid_points = 513
disc.quadrature_order = 80
checks = [criterion, spectrum, theorem, higher-k]
"""

# 2-site phi^4: every rate evaluation runs a 40^2 = 1600-node rule over the
# 17^2 + 100 = 389 sample points.  The scales are cut to 9 curvature times
# (6 Pauli-Villars times, the origin and the 3-point t grid, sharing t = 3)
# so that two fresh-process samples fit in one benchmark run.
PLAQUETTE = """\
model.kind = phi4
model.a_matrix = [[2.0, -1.0], [-1.0, 2.0]]
model.g = 1.0
model.nu = -1.0
model.h = [0.0, 0.0]
schedule.kind = pauli-villars
t_grid.min = 0.05
t_grid.max = 3.0
t_grid.count = 3
t_grid.spacing = log
disc.grid_points = 97
disc.quadrature_order = 40
curvature.count = 6
checks = [criterion]
"""

# The dwell model over 24 scales with no curvature work: batched smoothing
# inside the semigroup and flow measures, plus one 1-D eigensolve per scale.
FLOW_1D = DWELL.replace("t_grid.count = 8", "t_grid.count = 24").replace(
    "checks = [criterion, spectrum, theorem, higher-k]",
    "checks = [spectrum, variance]")

CONFIGS = {"dwell": DWELL, "plaquette": PLAQUETTE, "flow-1d": FLOW_1D}

RING3_TIMES = (0.5, 1.0, 2.0)
MCMC = "ring3-mcmc"

WORKLOADS = ("dwell", "plaquette", "flow-1d", MCMC)


def write_config(name: str, seed: int, work_dir: str) -> str:
    path = os.path.join(work_dir, f"{name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CONFIGS[name] + f"seed = {int(seed)}\n")
    return path


def ring3_model():
    """A = 2.5 I - (S + S^T)/2 on a periodic 3-site ring, g = 1, nu = -1."""
    import numpy as np
    from rgflow.phi4 import Phi4Model

    shift = np.roll(np.eye(3), 1, axis=1)
    a = 2.5 * np.eye(3) - 0.5 * (shift + shift.T)
    return Phi4Model(a, 1.0, -1.0, np.zeros(3))
