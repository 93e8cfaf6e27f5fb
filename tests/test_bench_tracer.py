"""The benchmark's tracer (``bench/spans.py``) binds rgflow functions and
their parameters by name.  A rename that it no longer finds makes a layer
metric read 0 instead of failing, so this test runs a small traced config
and requires the layers it binds by parameter (``V0``, ``x`` and ``q`` of
the smoothing calls among them) to count work, the smoothed values of the
config's flow measures among them.  It makes the Metropolis and
quadrature ``susceptibility`` calls of the ring3-mcmc child too."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CFG = """\
model.kind = phi4
model.a_matrix = [[1.0]]
model.g = 1.0
model.nu = -1.0
model.h = [0.0]
schedule.kind = pauli-villars
t_grid.min = 0.5
t_grid.max = 2.0
t_grid.count = 2
t_grid.spacing = log
disc.grid_points = 129
disc.quadrature_order = 40
curvature.count = 4
checks = [criterion, spectrum]
seed = 1
"""

SCRIPT = """\
import json, sys, time
sys.path.insert(0, "bench")
import spans
tracer = spans.Tracer().install()
from rgflow import phi4
from rgflow.config import config_from_text
from rgflow.runner import run_experiment
start = time.perf_counter()
report = run_experiment(config_from_text(sys.stdin.read()))
config = spans.layer_metrics(list(tracer.spans), time.perf_counter() - start)
dwell = phi4.Phi4Model([[1.0]], 1.0, -1.0, [0.0])
phi4.lattice_moments(dwell, mass_shift=1.0, field=[0.0], order=40)
# the calls of the benchmark's ring3-mcmc child
phi4.susceptibility(dwell, 1.0, method="mcmc", seed=1)
phi4.susceptibility(dwell, 1.0, method="quadrature")
from rgflow import (flow, make_schedule, PotentialDescriptor, QuadratureRule,
                    renormalized_derivatives, renormalized_value)
sched = make_schedule("pauli-villars", c_infinity=[[1.0]])
box = flow.default_box(sched)
V0 = PotentialDescriptor.quartic(1.0, -1.0, 0.0, 1)
q = QuadratureRule(order=40)
flow.semigroup_apply(sched, V0, 0.3, 0.9, flow.GridFunction(box, [1.0] * 129), q)
renormalized_value(V0, [[0.5]], [[0.1], [0.2]], q)
renormalized_derivatives(V0, [[0.5]], [[0.1], [0.2]], q)
metrics = spans.layer_metrics(tracer.spans, time.perf_counter() - start)
print(json.dumps({"errors": report.errors, "config": config,
                  "metrics": metrics}))
"""


def test_tracer_counts_work_in_the_layers_it_binds_by_parameter():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", SCRIPT], input=CFG, cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["errors"] == {}
    metrics = out["metrics"]
    for key in ("flow.flow_measure.nodes", "spectral.build_generator.nodes",
                "spectral.spectrum.nodes", "phi4.lattice_moments.points",
                "phi4.metropolis_moments.site_updates",
                "phi4.susceptibility.calls",
                "flow.semigroup_apply.points",
                "potential.renormalized_value.points",
                "potential.renormalized_derivatives.points"):
        assert metrics[key] > 0, key
    # every V_t of the config's flow measures goes through the smoothing
    # call, so the config alone counts its points
    assert out["config"]["potential.renormalized_value.points"] > 0
