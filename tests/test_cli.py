import csv
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rgflow.config import OPTIONS, config_from_text, load_config, parse_config_text
from rgflow.errors import ConfigError
from rgflow.runner import RunReport, emit_report, report_header, run_experiment

GAUSS_CFG = """\
model.kind = gaussian
schedule.kind = heat-kernel
schedule.c_infinity = [[1.0]]
t_grid.min = 0.5
t_grid.max = 2.0
t_grid.count = 5
t_grid.spacing = lin
disc.grid_points = 257
disc.quadrature_order = 40
checks = [spectrum, theorem]
spectrum.k = 2
seed = 11
output = {out}
"""


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "rgflow.cli", *args],
                          capture_output=True, text=True)


def _csv_rows(path):
    """The rows of a results.csv as dicts, with the file closed."""
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_parse_types():
    entries = parse_config_text(
        "a = 1\nb = 2.5\nc = true\nd = hello\ne = [1, 2]\nf = [[1.0, 0.0], [0.0, 2.0]]\n")
    assert entries["a"] == 1 and isinstance(entries["a"], int)
    assert entries["b"] == 2.5
    assert entries["c"] == "true"  # no booleans: no config key takes one
    assert entries["d"] == "hello"
    assert entries["e"] == [1, 2]
    assert entries["f"] == [[1.0, 0.0], [0.0, 2.0]]


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("not a config line\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_unknown_check_rejected_before_compute():
    text = GAUSS_CFG.format(out="x") .replace("[spectrum, theorem]", "[bogus]")
    with pytest.raises(ConfigError, match="unknown check"):
        config_from_text(text)


def test_missing_seed_rejected():
    text = "\n".join(line for line in GAUSS_CFG.format(out="x").splitlines()
                     if not line.startswith("seed"))
    with pytest.raises(ConfigError, match="seed"):
        config_from_text(text)


def test_t_grid_count_minimum():
    with pytest.raises(ConfigError, match="count"):
        config_from_text(GAUSS_CFG.format(out="x")
                         .replace("t_grid.count = 5", "t_grid.count = 1"))


def test_validate_subcommand(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(GAUSS_CFG.format(out=tmp_path / "out"))
    res = _run_cli("validate", str(cfg))
    assert res.returncode == 0
    assert "config ok" in res.stdout

    bad = tmp_path / "bad.cfg"
    bad.write_text("model.kind = nonsense\nseed = 1\n")
    res = _run_cli("validate", str(bad))
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_empty_checks_header_only(tmp_path):
    text = GAUSS_CFG.format(out=tmp_path / "out").replace(
        "checks = [spectrum, theorem]", "checks = []")
    cfg = config_from_text(text)
    report = run_experiment(cfg)
    files = emit_report(report, str(tmp_path / "out"))
    lines = pathlib.Path(files[0]).read_text().splitlines()
    assert len(lines) == 1  # header only
    assert lines[0].startswith("section,check,status")


def test_theorem_pair_combinatorics(tmp_path):
    cfg = config_from_text(GAUSS_CFG.format(out=tmp_path / "out"))
    report = run_experiment(cfg)
    pair_rows = [r for r in report.rows
                 if r.get("check") == "theorem" and r.get("section") == "margin"]
    assert len(pair_rows) == 10  # C(5, 2) ordered pairs with s < t
    assert report.statuses["theorem"] == "pass"


def test_gaussian_margins_near_zero(tmp_path):
    cfg = config_from_text(GAUSS_CFG.format(out=tmp_path / "out"))
    report = run_experiment(cfg)
    margins = [abs(r["margin"]) for r in report.rows
               if r.get("check") == "theorem" and r.get("section") == "margin"]
    assert max(margins) < 2e-3


def test_run_deterministic_outputs(tmp_path):
    cfg_path = tmp_path / "a.cfg"
    cfg_path.write_text(GAUSS_CFG.format(out=tmp_path / "out1"))
    res1 = _run_cli("run", str(cfg_path))
    assert res1.returncode == 0, res1.stderr
    res2 = _run_cli("run", str(cfg_path), "--out", str(tmp_path / "out2"))
    assert res2.returncode == 0
    a = (tmp_path / "out1" / "results.csv").read_bytes()
    b = (tmp_path / "out2" / "results.csv").read_bytes()
    assert a == b
    aj = (tmp_path / "out1" / "results.jsonl").read_bytes()
    bj = (tmp_path / "out2" / "results.jsonl").read_bytes()
    assert aj == bj


def test_failing_check_exit_code(tmp_path):
    # an impossible tolerance forces margin failures -> exit 1
    text = GAUSS_CFG.format(out=tmp_path / "out") + "theorem.tolerance = -1.0\n"
    cfg_path = tmp_path / "fail.cfg"
    cfg_path.write_text(text)
    res = _run_cli("run", str(cfg_path))
    assert res.returncode == 1
    assert "theorem: fail" in res.stdout


SMALL_T_DWELL = """\
model.kind = phi4
model.a_matrix = [[1.0]]
model.g = 1.0
model.nu = -1.0
model.h = [0.0]
schedule.kind = pauli-villars
t_grid.min = 1e-6
t_grid.max = 3.0
t_grid.count = 4
t_grid.spacing = log
disc.grid_points = 129
disc.quadrature_order = 80
checks = [criterion]
seed = 20240601
output = {out}
"""


def test_criterion_passes_down_to_a_mass_shift_of_1e6(tmp_path):
    # at t = 1e-6 the lattice marginal is 1e-3 wide; chi_t must resolve it
    cfg_path = tmp_path / "small_t.cfg"
    cfg_path.write_text(SMALL_T_DWELL.format(out=tmp_path / "out"))
    res = _run_cli("run", str(cfg_path))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "criterion: pass" in res.stdout


def test_module_error_attaches_to_check(tmp_path, monkeypatch):
    # an error raised in a check's module is attached to that check while
    # the other checks finish
    import rgflow.runner as runner_mod

    def broken(*args, **kwargs):
        raise ValueError("density table has negative entries")

    monkeypatch.setattr(runner_mod, "heatflow_harness", broken)
    text = GAUSS_CFG.format(out=tmp_path / "out").replace(
        "checks = [spectrum, theorem]", "checks = [spectrum, heatflow]")
    report = run_experiment(config_from_text(text))
    assert report.statuses == {"spectrum": "pass", "heatflow": "fail"}
    assert list(report.errors) == ["heatflow"]
    assert report.errors["heatflow"] == ("ValueError: density table has "
                                         "negative entries")


def test_malformed_density_table_rejected(tmp_path):
    table = tmp_path / "three-columns.tab"
    np.savetxt(table, np.ones((5, 3)))
    text = GAUSS_CFG.format(out="x") + f"heatflow.input = {table}\n"
    with pytest.raises(ConfigError, match="heatflow.input must be .* exactly "
                                          "two columns"):
        config_from_text(text)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_density_table_rejected(tmp_path, bad):
    x = np.linspace(-3.0, 3.0, 61)
    dens = np.exp(-x ** 2 / 2)
    dens[30] = float(bad)
    table = tmp_path / "density.tab"
    np.savetxt(table, np.column_stack([x, dens]))
    text = GAUSS_CFG.format(out="x") + f"heatflow.input = {table}\n"
    with pytest.raises(ConfigError, match="heatflow.input must be .* entries "
                                          "must be finite"):
        config_from_text(text)


def _assert_table_stops_at_validate(tmp_path, dens, message):
    """A [heatflow] config reading ``dens`` as its table stops at validate
    and at run, before any compute, with exit 2 naming its key."""
    x = np.linspace(-3.0, 3.0, 61)
    table = tmp_path / "density.tab"
    np.savetxt(table, np.column_stack([x, dens]))
    text = GAUSS_CFG.format(out=tmp_path / "out").replace(
        "checks = [spectrum, theorem]", "checks = [heatflow]")
    cfg_path = tmp_path / "density.cfg"
    cfg_path.write_text(text + f"heatflow.input = {table}\n")
    with pytest.raises(ConfigError, match=f"heatflow.input must be .* {message}"):
        config_from_text(cfg_path.read_text())
    for command in ("validate", "run"):
        res = _run_cli(command, str(cfg_path))
        assert res.returncode == 2
        assert "heatflow.input" in res.stdout + res.stderr
    assert not (tmp_path / "out").exists()


def test_zero_mass_density_table_rejected_at_validate(tmp_path):
    # a table with no mass cannot be normalized
    _assert_table_stops_at_validate(tmp_path, np.zeros(61), "no positive mass")


def test_negative_density_table_rejected_at_validate(tmp_path):
    # a density cannot be negative: one bad entry would otherwise fail the
    # heatflow run after validate passed it
    dens = np.exp(-np.linspace(-3.0, 3.0, 61) ** 2 / 2) / np.sqrt(2.0 * np.pi)
    dens[40] = -0.1
    _assert_table_stops_at_validate(tmp_path, dens, "negative entries")


def test_oracle_subcommand(tmp_path):
    res = _run_cli("oracle", "--out", str(tmp_path))
    assert res.returncode == 0
    lines = (tmp_path / "oracle_values.csv").read_text().splitlines()
    assert lines[0] == "oracle,value"
    values = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert abs(values["smoothed-quadratic-value"] - 0.5965735902799727) < 1e-12
    assert values["ou-mu-4"] == 4.0
    assert abs(values["ring16-chi-t1"] - 0.4288545792590158) <= 1e-12


def test_seed_override_changes_echo(tmp_path):
    cfg_path = tmp_path / "a.cfg"
    cfg_path.write_text(GAUSS_CFG.format(out=tmp_path / "out1"))
    cfg = load_config(str(cfg_path), seed_override=99)
    assert cfg.seed == 99
    assert "seed = 99" in cfg.raw_text


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(detail=st.text())
@example(detail='residuals 1e-3, 2e-3 against "tol"')
@example(detail="\r")
@example(detail="a\r\nb\n")
def test_reports_round_trip_any_detail(tmp_path, detail):
    report = RunReport(config_echo="seed = 1\n")
    report.rows.append({"section": "status", "check": "spectrum",
                        "status": "fail", "margin": -0.5, "detail": detail})
    header = report_header(report)
    csv_path, jsonl_path, _ = emit_report(report, str(tmp_path / "out"))

    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) == 2 and len(rows[1]) == len(header)
    assert dict(zip(header, rows[1]))["detail"] == detail
    assert dict(zip(header, rows[1]))["margin"] == "-0.5"

    with open(jsonl_path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == "" and len(lines) == 2
    cells = json.loads(lines[0])
    assert list(cells) == header
    assert cells["detail"] == detail and cells["status"] == "fail"


# Prints the modules loaded so far that are scipy or one of its submodules.
_PRINT_SCIPY = ("print(' '.join(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.'))))")


def _python(code, stdin=None):
    res = subprocess.run([sys.executable, "-c", code], input=stdin,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_cli_import_skips_unused_scipy_and_oracles():
    for module in ("rgflow", "rgflow.cli"):
        assert _python(f"import sys, {module}; {_PRINT_SCIPY}; "
                       "print('rgflow.oracles' in sys.modules)") == "\nFalse\n"


CRITERION_1D = """\
model.kind = phi4
model.a_matrix = [[1.0]]
model.g = 1.0
model.nu = -1.0
schedule.kind = pauli-villars
t_grid.min = 0.5
t_grid.max = 2.0
t_grid.count = 3
disc.grid_points = 129
disc.quadrature_order = 80
curvature.count = 4
checks = [criterion]
seed = 3
"""


def test_criterion_run_imports_no_module_of_numpy_or_scipy():
    """Every numpy submodule a criterion run and a Metropolis chi_t use is
    loaded with the package, and scipy not at all: nothing is imported
    inside the timed region."""
    code = f"""
import sys, tempfile
from rgflow.config import config_from_text
from rgflow.phi4 import susceptibility
from rgflow.runner import emit_report, run_experiment

cfg = config_from_text(sys.stdin.read())
before = set(sys.modules)
report = run_experiment(cfg)
emit_report(report, tempfile.mkdtemp())
est = susceptibility(cfg.phi4_model, 1.0, method="mcmc", seed=5)
print(report.statuses["criterion"], est.method)
print(' '.join(sorted(m for m in set(sys.modules) - before
                      if m.startswith(("numpy.", "scipy")))))
{_PRINT_SCIPY}
"""
    assert _python(code, stdin=CRITERION_1D) == "pass mcmc\n\n\n"


# Prints whether rgflow.spectral is loaded, then the scipy modules loaded.
_PRINT_SOLVERS = "print('rgflow.spectral' in sys.modules)\n" + _PRINT_SCIPY


@pytest.mark.parametrize("checks, loaded", [
    ("spectrum", True), ("theorem", True), ("higher-k", True),
    ("heatflow", True),
    ("criterion, variance, intertwining, phi4-identity", False),
])
def test_config_loads_spectral_only_for_an_eigenproblem(checks, loaded):
    """A config that will solve a 1-D eigenproblem pays for its solver when
    it is parsed, inside set-up, and that solver is scipy's compiled LAPACK
    alone: no scipy.linalg, no scipy.sparse.  Any other config leaves scipy
    unloaded."""
    text = CRITERION_1D.replace("checks = [criterion]", f"checks = [{checks}]")
    code = ("import sys\nfrom rgflow.config import config_from_text\n"
            "config_from_text(sys.stdin.read())\n" + _PRINT_SOLVERS)
    want = "scipy.linalg._flapack" if loaded else ""
    assert _python(code, stdin=text) == f"{loaded}\n{want}\n"


def test_config_loads_scipy_sparse_for_a_2d_eigenproblem():
    """A 2-D generator is a scipy.sparse matrix solved by eigsh: the config
    loads both while it is parsed, so the run imports nothing."""
    text = (CRITERION_1D.replace("[[1.0]]", "[[2.0, -1.0], [-1.0, 2.0]]")
            .replace("checks = [criterion]", "checks = [spectrum]"))
    code = ("import sys\nfrom rgflow.config import config_from_text\n"
            "config_from_text(sys.stdin.read())\n"
            "print('rgflow.spectral' in sys.modules, "
            "'scipy.sparse.linalg' in sys.modules)")
    assert _python(code, stdin=text) == "True True\n"


def test_1d_eigenproblem_run_loads_only_the_lapack_extension_of_scipy():
    """A 1-D spectral run imports no module inside the timed region (the
    solver and, on more than one core, the scale map's thread pool load at
    set-up), and the only scipy module it ever loads is the compiled LAPACK
    wrapper."""
    text = (CRITERION_1D.replace("checks = [criterion]",
                                 "checks = [spectrum, theorem, higher-k]"))
    code = f"""
import sys, tempfile
from rgflow.config import config_from_text
from rgflow.runner import emit_report, run_experiment

cfg = config_from_text(sys.stdin.read())
before = set(sys.modules)
report = run_experiment(cfg)
emit_report(report, tempfile.mkdtemp())
print(sorted(set(report.statuses.values())))
print(' '.join(sorted(set(sys.modules) - before)))
{_PRINT_SCIPY}
"""
    assert _python(code, stdin=text) == "['pass']\n\nscipy.linalg._flapack\n"


@pytest.mark.parametrize("first", ["rgflow", "scipy"])
def test_lapack_loader_shares_its_module_with_scipy_linalg(first):
    """Loaded before or after scipy.linalg, rgflow calls the very routines
    of scipy.linalg.lapack, and scipy's own solvers still run."""
    imports = ["import rgflow.spectral as spectral",
               "import scipy.linalg, scipy.sparse, scipy.sparse.linalg"]
    code = "\n".join(imports if first == "rgflow" else imports[::-1]) + """
import numpy as np
from scipy.linalg import _flapack
from rgflow.flow import Box

assert _flapack is spectral._flapack
for name in ("dstevd", "dstebz", "dstein"):
    assert getattr(scipy.linalg.lapack, name) is getattr(spectral._flapack, name)
d, e = np.arange(1.0, 9.0), np.ones(7)
vals = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 2))[0]
a = scipy.sparse.diags([e, d, e], [-1, 0, 1], format="csc")
ref = np.linalg.eigvalsh(a.toarray())
assert np.allclose(vals, ref[:3])
mu = scipy.sparse.linalg.eigsh(a, k=2, sigma=0.0, which="LM")[0]
assert np.allclose(np.sort(mu), ref[:2])
box = Box((-3.0,), (3.0,))
w = np.exp(-0.5 * box.axes((129,))[0] ** 2)
res = spectral.spectrum(spectral.build_generator_from_density(box, w), k=2,
                        refine=False)
print(round(float(res.eigenvalues[1]), 1))
"""
    assert _python(code) == "1.0\n"


def _schedule_rate_times(report):
    from rgflow.curvature import rate_time

    grid = [r["t"] for r in report.rows if r["section"] == "schedule"]
    return {rate_time(grid, i) for i in range(len(grid))}


def _count_moments_passes(monkeypatch):
    """Record (t, field) of every lattice-moments pass the runner makes."""
    import rgflow.phi4 as phi4_mod

    calls = []
    real = phi4_mod._shifted_moments

    def counting(model, t, field, *args, **kwargs):
        calls.append((t, tuple(field.tolist())))
        return real(model, t, field, *args, **kwargs)

    monkeypatch.setattr(phi4_mod, "_shifted_moments", counting)
    return calls


def test_criterion_computes_chi_once_per_t(monkeypatch):
    import rgflow.curvature as curvature_mod

    calls = _count_moments_passes(monkeypatch)
    batches = []
    real_derivatives = curvature_mod._tilted_derivatives

    def counting_derivatives(V0, basis, logw, xb):
        # rows per rate time: block t of xb reads the rule of time t
        assert len(xb) == len(basis) == len(logw)
        batches.append(np.full(len(xb), xb.shape[1]))
        return real_derivatives(V0, basis, logw, xb)

    monkeypatch.setattr(curvature_mod, "_tilted_derivatives",
                        counting_derivatives)
    report = run_experiment(config_from_text(CRITERION_1D))
    assert report.statuses["criterion"] == "pass"
    # one moments pass per distinct (t, field); h = 0, so chi_t and
    # sigma_min share the zero-field pass at every rate time
    assert len(calls) == len(set(calls)) > 0
    assert {field for _, field in calls} == {(0.0,)}
    assert {t for t, _ in calls} == _schedule_rate_times(report)
    # one Hessian batch on the full sample set at every distinct rate time,
    # then one batch per compass-search sweep holding the 2d trials of both
    # rates at every rate time
    (n_samples,) = {r["samples_used"] for r in report.rows
                    if r["section"] == "schedule"}
    times = len(calls)
    assert len(batches) == 1 + curvature_mod._REFINE_STEPS
    assert np.array_equal(batches[0], np.full(times, n_samples))
    for rows in batches[1:]:
        assert np.array_equal(rows, np.full(times, 2 * 2))   # d = 1


def test_criterion_computes_sigma_min_once_per_rate_time(monkeypatch):
    calls = _count_moments_passes(monkeypatch)
    # with h != 0 sigma_min's field (h) differs from chi_t's (zero)
    report = run_experiment(config_from_text(CRITERION_1D + "model.h = [0.25]\n"))
    assert report.statuses["criterion"] == "pass"
    # the t = 0 row reads the rates of its neighbour: one row more than times
    rows = [r for r in report.rows if r["section"] == "schedule"]
    times = _schedule_rate_times(report)
    assert len(rows) == len(times) + 1
    assert len(calls) == len(set(calls))
    assert sorted(t for t, field in calls if field == (0.25,)) == sorted(times)
    assert sorted(t for t, field in calls if field == (0.0,)) == sorted(times)


def test_intertwining_builds_v_t_once_per_time(monkeypatch):
    import rgflow.flow as flow_mod
    import rgflow.potential as potential_mod

    passes = {}
    real = potential_mod._tilted_log_weights

    def spy(V0, pts, logw):
        # the spread of the shifts z_q identifies the scale
        key = round(float(np.ptp(pts[0, :, 0])), 9)
        passes[key] = passes.get(key, 0) + pts.shape[0]
        return real(V0, pts, logw)

    # the semigroup's passes and the pass of ``renormalized_value``
    for mod in (flow_mod, potential_mod):
        monkeypatch.setattr(mod, "_tilted_log_weights", spy)
    report = run_experiment(config_from_text(CRITERION_1D.replace(
        "checks = [criterion]", "checks = [intertwining]")))
    assert report.statuses["intertwining"] == "pass"
    rows = [(r["k"], r["t"]) for r in report.rows if r["section"] == "margin"]
    # rows stay bump-major: every bump at every time
    assert rows == [(b, t) for b in range(3) for t in (0.5, 1.0, 2.0)]
    # the t = 0 measure of the default sample set, then one pass over the
    # 129 nodes per intertwining time that serves all three bumps
    assert passes.pop(0.0) == 129
    assert sorted(passes.values()) == [129, 129, 129]


def test_spectral_trace_raises_the_first_error_in_t_order(monkeypatch):
    import rgflow.spectral as spectral_mod
    from rgflow.errors import NonConvergenceError, QuadratureOverflowError

    cfg = config_from_text(SWEEP_BASE.replace("t_grid.count = 3",
                                              "t_grid.count = 4")
                           + "checks = [spectrum]\n")
    ts = cfg.t_grid()
    real_pairs, real_refined = spectral_mod._smallest_pairs, spectral_mod._refined

    def pairs(gen, k):
        # the coarse generator is the one with a refiner
        if gen.t == ts[1] and gen.refiner is not None:
            raise NonConvergenceError("coarse solve at scale 1")
        return real_pairs(gen, k)

    def refined(fm, *args):
        if fm.t == ts[3]:
            raise QuadratureOverflowError("refine pass at scale 3")
        return real_refined(fm, *args)

    monkeypatch.setattr(spectral_mod, "_refined", refined)
    details = []
    for solve in (real_pairs, pairs):
        monkeypatch.setattr(spectral_mod, "_smallest_pairs", solve)
        report = run_experiment(cfg)
        assert report.statuses["spectrum"] == "unconverged"
        details.append(report.errors["spectrum"])
    # scale 3's refine error waits for scale 1's solve, as in t order
    assert details == ["refine pass at scale 3", "coarse solve at scale 1"]


PHI4_RING4 = """\
model.kind = phi4
model.a_matrix = [[2.5, -0.5, 0.0, -0.5], [-0.5, 2.5, -0.5, 0.0], [0.0, -0.5, 2.5, -0.5], [-0.5, 0.0, -0.5, 2.5]]
model.g = 1.0
model.nu = -1.0
checks = [criterion, spectrum]
seed = 1
output = {out}
"""

PHI4_PAIR = """\
model.kind = phi4
model.a_matrix = [[2.0, -1.0], [-1.0, 2.0]]
model.g = 1.0
model.nu = -1.0
checks = [intertwining]
seed = 1
output = {out}
"""


RING3_CRITERION = """\
model.kind = phi4
model.a_matrix = [[2.5, -0.5, -0.5], [-0.5, 2.5, -0.5], [-0.5, -0.5, 2.5]]
model.g = 1.0
model.nu = -1.0
checks = [criterion]
seed = 20240601
"""


def test_validate_rejects_grids_past_the_node_budget(tmp_path, capsys):
    # validate only: the default 513^3 sample measure would take about 11 GB
    from rgflow import cli

    path = tmp_path / "ring3.cfg"
    path.write_text(RING3_CRITERION)
    assert cli.main(["validate", str(path)]) == 2
    assert "disc.grid_points = 513 puts 135,005,697 nodes" in capsys.readouterr().err
    for n in (33, 129):
        path.write_text(RING3_CRITERION + f"disc.grid_points = {n}\n")
        assert cli.main(["validate", str(path)]) == 0
    # a closed-form V0 samples no measure: its rates need no grid
    path.write_text("model.kind = gaussian\nschedule.c_infinity = "
                    "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]\n"
                    "checks = [criterion]\nseed = 1\n")
    assert cli.main(["validate", str(path)]) == 0


@pytest.mark.parametrize("command", ["validate", "run"])
def test_dimension_limits_rejected_before_compute(tmp_path, command):
    ring = tmp_path / "ring4.cfg"
    ring.write_text(PHI4_RING4.format(out=tmp_path / "ring4"))
    res = _run_cli(command, str(ring))
    assert res.returncode == 2, res.stdout
    assert "'criterion' needs d <= 3" in res.stderr
    assert "d = 4" in res.stderr

    pair = tmp_path / "pair.cfg"
    pair.write_text(PHI4_PAIR.format(out=tmp_path / "pair"))
    res = _run_cli(command, str(pair))
    assert res.returncode == 2, res.stdout
    assert "'intertwining' needs d = 1" in res.stderr
    assert not (tmp_path / "pair").exists()


def test_dimension_limits_table():
    from rgflow.config import CHECK_MAX_DIM

    spectral = PHI4_PAIR.format(out="x").replace("[intertwining]",
                                                 "[spectrum, theorem, higher-k]")
    assert config_from_text(spectral).checks == ["spectrum", "theorem",
                                                 "higher-k"]
    # 129^3 nodes: within the node budget, which the default 513^3 is not
    three = spectral.replace("[[2.0, -1.0], [-1.0, 2.0]]",
                             "[[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]"
                             ) + "disc.grid_points = 129\n"
    for check, limit in CHECK_MAX_DIM.items():
        text = three.replace("[spectrum, theorem, higher-k]", f"[{check}]")
        if limit >= 3:
            config_from_text(text)
        else:
            with pytest.raises(ConfigError, match=f"{check}' needs d"):
                config_from_text(text)
    quad = GAUSS_CFG.format(out="x").replace("c_infinity = [[1.0]]",
                                             "c_infinity = [[1.0, 0.0], [0.0, 1.0]]")
    with pytest.raises(ConfigError, match="'variance' needs d = 1"):
        config_from_text(quad.replace("[spectrum, theorem]", "[variance]"))


MISSING_TABLE = pathlib.Path(__file__).parent / "no-such-density.txt"
UNEXECUTABLE = {
    "t_grid.min": GAUSS_CFG.replace("t_grid.min = 0.5", "t_grid.min = -0.5"),
    "seed": GAUSS_CFG.replace("checks = [spectrum, theorem]",
                              "checks = [criterion]").replace("seed = 11",
                                                              "seed = -1"),
    "spectrum.k": GAUSS_CFG.replace("spectrum.k = 2", "spectrum.k = 0"),
    # the default spectrum.k = 3 needs more than 4 nodes per axis
    "disc.grid_points": GAUSS_CFG.replace(
        "disc.grid_points = 257", "disc.grid_points = 4").replace(
        "checks = [spectrum, theorem]", "checks = [spectrum]").replace(
        "spectrum.k = 2\n", ""),
    "disc.quadrature_order": GAUSS_CFG.replace(
        "disc.quadrature_order = 40", "disc.quadrature_order = 0"),
    "disc.box_halfwidth": GAUSS_CFG.replace(
        "disc.grid_points = 257", "disc.grid_points = 257\n"
        "disc.box_halfwidth = -1"),
    # P_{0,2} of the heat kernel reaches 6 sqrt(1 - e^-2) = 5.58
    "disc.box_halfwidth=2": GAUSS_CFG.replace(
        "[spectrum, theorem]", "[intertwining]") + "disc.box_halfwidth = 2\n",
    "intertwining.times=[]": GAUSS_CFG + "intertwining.times = []\n",
    "intertwining.times=[0.0]": GAUSS_CFG + "intertwining.times = [0.0]\n",
    "intertwining.times=[-1.0]": GAUSS_CFG + "intertwining.times = [-1.0]\n",
    "phi4.identity_times=[]": GAUSS_CFG + "phi4.identity_times = []\n",
    "phi4.identity_times=[0.0]": GAUSS_CFG + "phi4.identity_times = [0.0]\n",
    "variance.count=1": GAUSS_CFG + "variance.count = 1\n",
    # Gauss-Legendre nodes come from a dense count x count eigenproblem
    "variance.count=1000000": GAUSS_CFG + "variance.count = 1000000\n",
    "heatflow.input=missing": GAUSS_CFG + f"heatflow.input = {MISSING_TABLE}\n",
    # a Python source is no two-column table
    "heatflow.input=malformed": GAUSS_CFG + f"heatflow.input = {__file__}\n",
    "variance.t_max=-1": GAUSS_CFG + "variance.t_max = -1\n",
    "heatflow.s_max=-1": GAUSS_CFG + "heatflow.s_max = -1\n",
    "heatflow.s_count=1": GAUSS_CFG + "heatflow.s_count = 1\n",
    "heatflow.tolerance=abc": GAUSS_CFG + "heatflow.tolerance = abc\n",
    "intertwining.bumps=2.7": GAUSS_CFG + "intertwining.bumps = 2.7\n",
    "disc.grid_points=65.7": GAUSS_CFG.replace(
        "disc.grid_points = 257", "disc.grid_points = 65.7"),
    "t_grid.count=2.9": GAUSS_CFG.replace("t_grid.count = 5", "t_grid.count = 2.9"),
    "t_grid.max": GAUSS_CFG.replace("t_grid.max = 2.0", "t_grid.max = 0.4"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key", sorted(UNEXECUTABLE))
def test_unexecutable_values_rejected_before_compute(tmp_path, key, command):
    path = tmp_path / "bad.cfg"
    path.write_text(UNEXECUTABLE[key].format(out=tmp_path / "out"))
    res = _run_cli(command, str(path))
    assert res.returncode == 2, res.stdout
    assert f"config error: {key.partition('=')[0]} must be" in res.stderr
    assert not (tmp_path / "out").exists()


COUNT_OPTIONS = {"intertwining.bumps": -2, "curvature.count": 0,
                 "variance.count": 0, "phi4.identity_samples": 0,
                 "heatflow.s_count": 0.5}


@pytest.mark.parametrize("key", sorted(COUNT_OPTIONS))
def test_count_options_below_one_rejected(key):
    text = GAUSS_CFG.format(out="x") + f"{key} = {COUNT_OPTIONS[key]}\n"
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        config_from_text(text)
    # a count of 1 is allowed where one point is enough
    one = GAUSS_CFG.format(out="x") + f"{key} = 1\n"
    if key in ("variance.count", "heatflow.s_count"):
        domain = OPTIONS[key][1].domain
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be {domain}")):
            config_from_text(one)
    else:
        config_from_text(one)


@pytest.mark.parametrize("key", ["spectrum.kk", "theorem.tolerence",
                                 "disc.quadrature_order_X", "sede"])
def test_unknown_keys_rejected(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        config_from_text(GAUSS_CFG.format(out="x") + f"{key} = 1\n")


def test_validate_names_an_unknown_key(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text(GAUSS_CFG.format(out=tmp_path / "out")
                    + "theorem.tolerence = 1e-3\n")
    res = _run_cli("validate", str(path))
    assert res.returncode == 2, res.stdout
    assert "config error: unknown key 'theorem.tolerence'" in res.stderr


def test_check_options_are_the_keys_the_runner_reads():
    import inspect
    import re

    import rgflow.cli as cli_mod
    import rgflow.runner as runner_mod
    from rgflow.config import OPTIONS, ExperimentConfig

    source = "".join(inspect.getsource(m)
                     for m in (runner_mod, cli_mod, ExperimentConfig))
    read = set(re.findall(r'opt(?:ion)?s\["([^"]+)"\]', source))
    assert read == set(OPTIONS)
    # the table holds every default: no reads with a fallback of their own
    assert not re.search(r"\.option\(|opt(?:ion)?s\.get\(", source)


def test_readme_lists_the_options_table():
    import pathlib

    from rgflow.config import OPTIONS, _parse_value

    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    table = readme.split("| option | default | domain |\n|---|---|---|\n")[1]
    rows = {}
    for line in table.split("\n\n")[0].splitlines():
        key, default, domain = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = (default, domain)
    assert list(rows) == list(OPTIONS)
    for key, (default, rule) in OPTIONS.items():
        cell, domain = rows[key]
        assert domain == rule.domain, key
        if default is None:  # resolved from the model: described in words
            assert "`" not in cell, key
        else:
            assert cell.startswith("`") and cell.endswith("`"), key
            assert _parse_value(cell.strip("`")) == default, key


def test_negative_seed_override_rejected(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text(GAUSS_CFG.format(out=tmp_path / "out"))
    res = _run_cli("run", str(path), "--seed", "-1")
    assert res.returncode == 2, res.stdout
    assert "config error: seed override must be nonnegative" in res.stderr
    assert not (tmp_path / "out").exists()


QUADRATIC_VARIANCE = """\
model.kind = quadratic
model.b_matrix = [[0.7]]
schedule.kind = heat-kernel
schedule.c_infinity = [[1.0]]
disc.grid_points = 257
checks = [variance]
seed = 1
"""


def test_variance_default_t_max_follows_the_schedule():
    # with C_inf = 1 the heat-kernel residual C_inf - C_t = exp(-t) reaches
    # the 1e-12 floor of residual_inverse near t = 27.6, below the old 30
    report = run_experiment(config_from_text(QUADRATIC_VARIANCE))
    assert "variance" not in report.errors
    (row,) = [r for r in report.rows
              if r["section"] == "margin" and r["check"] == "variance"]
    assert np.isfinite(row["margin"]) and row["margin"] < row["tolerance"]


def test_variance_default_t_max_keeps_the_old_value_where_it_holds():
    from rgflow.covariance import make_schedule

    heat = make_schedule("heat-kernel", c_infinity=[[1.0]])
    pv = make_schedule("pauli-villars", c_infinity=[[1.0]])
    assert heat.residual_horizon(20.0) == 20.0
    assert pv.residual_horizon(30.0) == 30.0
    t_max = heat.residual_horizon(30.0)
    # exp(-t) = 100 * 1e-12, up to the cancellation in 1 - C_t
    assert abs(t_max - 10.0 * np.log(10.0)) < 1e-5


PHI4_SITE = """\
model.kind = phi4
model.a_matrix = [[1.0]]
model.g = 1.0
model.nu = -1.0
checks = [criterion]
seed = 1
output = {out}
"""


@pytest.mark.parametrize("text, tolerance", [
    (GAUSS_CFG.replace("[spectrum, theorem]", "[variance]"), 1e-6),
    (PHI4_SITE.replace("[criterion]", "[variance]"), 1e-3),
], ids=["gaussian", "phi4"])
def test_variance_tolerance_default_is_resolved_at_parse(text, tolerance):
    # the runner reads the resolved value; a set key is kept as written
    text = text.format(out="x")
    assert config_from_text(text).options["variance.tolerance"] == tolerance
    set_text = text + "variance.tolerance = 0.5\n"
    assert config_from_text(set_text).options["variance.tolerance"] == 0.5


# Configs that cannot build the model they describe as written, with the
# text the error must name.
UNBUILDABLE = {
    "phi4-without-a-matrix": (
        PHI4_SITE.replace("model.a_matrix = [[1.0]]\n", ""),
        ["model.a_matrix"]),
    "phi4-on-heat-kernel": (
        PHI4_SITE + "schedule.kind = heat-kernel\n",
        ["schedule.kind = pauli-villars", "'heat-kernel'"]),
    "b-matrix-over-smaller-c-infinity": (
        QUADRATIC_VARIANCE.replace("[[0.7]]", "[[0.7, 0.0], [0.0, 0.7]]")
        .replace("checks = [variance]", "checks = [criterion]")
        + "output = {out}\n",
        ["model.b_matrix has d = 2", "the schedule has d = 1"]),
    "c-infinity-not-positive-definite": (
        GAUSS_CFG.replace("c_infinity = [[1.0]]", "c_infinity = [[-1.0]]"),
        ["c_infinity is not positive-definite"]),
    "negative-g": (
        PHI4_SITE.replace("model.g = 1.0", "model.g = -1"),
        ["coupling g must be nonnegative"]),
    "unknown-schedule-kind": (
        GAUSS_CFG.replace("schedule.kind = heat-kernel", "schedule.kind = wiggly"),
        ["unknown schedule kind 'wiggly'"]),
    "phi4-identity-on-gaussian": (
        GAUSS_CFG.replace("[spectrum, theorem]", "[spectrum, phi4-identity]"),
        ["'phi4-identity' needs model.kind = phi4", "'gaussian'"]),
    "pauli-villars-a-matrix-not-inverse": (
        GAUSS_CFG.replace("schedule.kind = heat-kernel",
                          "schedule.kind = pauli-villars\nschedule.a_matrix = [[2.0]]"),
        ["aux must equal c_infinity^{-1}"]),
    "unread-model-and-schedule-keys": (
        PHI4_SITE.replace("model.g = 1.0", "model.gg = 1.0")
        + "schedule.c_infinity = [[1.0]]\n",
        ["model.gg, schedule.c_infinity not read by a phi4 model"]),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(UNBUILDABLE))
def test_unbuildable_models_rejected_before_compute(tmp_path, case, command):
    text, names = UNBUILDABLE[case]
    path = tmp_path / "bad.cfg"
    path.write_text(text.format(out=tmp_path / "out"))
    res = _run_cli(command, str(path))
    assert res.returncode == 2, res.stdout + res.stderr
    assert res.stderr.startswith("config error: "), res.stderr
    for name in names:
        assert name in res.stderr
    assert not (tmp_path / "out").exists()


def test_unwritable_output_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("a regular file\n")
    path = tmp_path / "a.cfg"
    path.write_text(GAUSS_CFG.format(out=blocker / "out").replace(
        "checks = [spectrum, theorem]", "checks = []"))
    res = _run_cli("run", str(path))
    assert res.returncode == 2, res.stdout + res.stderr
    assert res.stderr.startswith(
        f"config error: cannot write reports under {str(blocker / 'out')!r}")
    assert "Traceback" not in res.stderr


def test_shipped_configs_validate():
    import importlib.util
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```\n(model\.kind = .*?)```", readme, re.S)
    assert len(blocks) == 1
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = blocks + [text + "seed = 1\n" for text in workloads.CONFIGS.values()]
    for text in texts:
        assert config_from_text(text).checks


def _bench_module(name, monkeypatch):
    """``bench/<name>.py`` as a module; its sibling imports resolve in
    ``bench/``."""
    import importlib.util

    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["dwell", "plaquette", "flow-1d"])
def test_bench_config_matches_its_reference(workload, tmp_path, monkeypatch):
    # the benchmark's correctness gate, run in process: every check passes
    # and results.csv is within the reference tolerances of bench/run.py
    workloads = _bench_module("workloads", monkeypatch)
    bench_run = _bench_module("run", monkeypatch)
    text = workloads.CONFIGS[workload] + f"seed = {workloads.DEFAULT_SEED}\n"
    report = run_experiment(config_from_text(text))
    assert set(report.statuses.values()) == {"pass"}, report.errors
    emit_report(report, str(tmp_path))
    with open(tmp_path / "results.csv", encoding="utf-8", newline="") as fh:
        got = fh.read()
    assert bench_run.compare_results(got, bench_run._reference(workload)) == []


# 1-site phi4 on 65 nodes at order 20: every check runs on it in about a
# second with no numerical breakdown.
SWEEP_BASE = """\
model.kind = phi4
model.a_matrix = [[1.0]]
model.g = 1.0
model.nu = -1.0
t_grid.min = 0.5
t_grid.max = 2.0
t_grid.count = 3
t_grid.spacing = lin
disc.grid_points = 65
disc.quadrature_order = 20
seed = 20240601
"""


@pytest.mark.parametrize("edit", ["model.g = 1e6", "disc.box_halfwidth = 1e4"])
def test_weight_underflow_ends_unconverged(tmp_path, edit):
    from rgflow import cli

    path = tmp_path / "a.cfg"
    path.write_text(SWEEP_BASE.replace("model.g = 1.0\n", "") + edit
                    + f"\nchecks = [spectrum]\noutput = {tmp_path / 'out'}\n")
    assert cli.main(["run", str(path)]) == 3
    (status,) = [r for r in _csv_rows(tmp_path / "out" / "results.csv")
                 if r["section"] == "status"]
    assert status["status"] == "unconverged"
    assert status["detail"].startswith("box too large / resolution too coarse")


def test_2d_gaussian_spectral_checks_exit_0(tmp_path):
    # every spectral check on an 81^2 heat-kernel Gaussian; its shift-invert
    # solves ended at ARPACK's restart cap when the shift followed diag B
    from rgflow import cli

    c_inf = [[1.0, 0.3], [0.3, 0.8]]
    path = tmp_path / "g2.cfg"
    path.write_text(GAUSS_CFG.format(out=tmp_path / "out")
                    .replace("[[1.0]]", str(c_inf))
                    .replace("t_grid.min = 0.5", "t_grid.min = 0.1")
                    .replace("t_grid.max = 2.0", "t_grid.max = 1.0")
                    .replace("t_grid.count = 5", "t_grid.count = 4")
                    .replace("t_grid.spacing = lin", "t_grid.spacing = log")
                    .replace("disc.grid_points = 257", "disc.grid_points = 81")
                    .replace("disc.quadrature_order = 40",
                             "disc.quadrature_order = 20")
                    .replace("[spectrum, theorem]", "[spectrum, theorem, higher-k]")
                    .replace("spectrum.k = 2", "spectrum.k = 3"))
    assert cli.main(["run", str(path)]) == 0
    rows = _csv_rows(tmp_path / "out" / "results.csv")
    first = next(r for r in rows if r["section"] == "spectrum")
    mu_1 = 1.0 / np.linalg.eigvalsh(c_inf)[-1]
    assert abs(float(first["mu_1"]) - mu_1) <= 1e-3 * mu_1


def test_degenerate_2d_shift_ends_unconverged(tmp_path):
    # a 9^2 Pauli-Villars quadratic: on the trimmed grid a centred
    # coordinate has no variance, so the 2-D shift has no Rayleigh bound;
    # that is a grid that cannot resolve the problem, not a failed check
    from rgflow import cli

    path = tmp_path / "pv.cfg"
    path.write_text(f"""\
model.kind = quadratic
model.b_matrix = [[1.242, -0.4274], [-0.4274, 0.2368]]
schedule.kind = pauli-villars
schedule.c_infinity = [[1.801, 0.02122], [0.02122, 0.7032]]
t_grid.min = 0.08011
t_grid.max = 4.75
t_grid.count = 5
t_grid.spacing = log
disc.grid_points = 9
disc.quadrature_order = 20
checks = [spectrum]
seed = 1
output = {tmp_path / 'out'}
""")
    assert cli.main(["run", str(path)]) == 3
    (status,) = [r for r in _csv_rows(tmp_path / "out" / "results.csv")
                 if r["section"] == "status"]
    assert status["status"] == "unconverged"
    assert "degenerate test function" in status["detail"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_coupling_ends_unconverged(tmp_path):
    # g = 1e200 overflows the tilted covariance of the Hessian: the run ends
    # unconverged, not as a fail judged on infinite margins
    from rgflow import cli

    path = tmp_path / "a.cfg"
    path.write_text(SWEEP_BASE.replace("model.g = 1.0", "model.g = 1e200")
                    + f"checks = [criterion]\noutput = {tmp_path / 'out'}\n")
    assert cli.main(["run", str(path)]) == 3
    rows = _csv_rows(tmp_path / "out" / "results.csv")
    (status,) = [r for r in rows if r["section"] == "status"]
    assert status["status"] == "unconverged"
    assert status["detail"].startswith("quadrature overflow in derivatives")
    assert all(r["section"] == "status" for r in rows)


def test_unconverged_lattice_moments_end_unconverged(tmp_path, monkeypatch):
    # an estimate flagged unconverged ends its check instead of being read
    import dataclasses

    import rgflow.phi4 as phi4_mod
    from rgflow import cli

    real = phi4_mod._shifted_moments

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(phi4_mod, "_shifted_moments", unconverged)
    path = tmp_path / "a.cfg"
    path.write_text(SWEEP_BASE
                    + f"checks = [criterion]\noutput = {tmp_path / 'out'}\n")
    assert cli.main(["run", str(path)]) == 3
    (status,) = [r for r in _csv_rows(tmp_path / "out" / "results.csv")
                 if r["section"] == "status"]
    assert status["status"] == "unconverged"
    assert re.fullmatch(r"lattice moments at t = \S+ did not converge",
                        status["detail"])


def test_lanczos_breakdown_ends_unconverged(tmp_path, monkeypatch):
    # on 3 trapezoid nodes the site weight sits on the middle one
    from rgflow import cli, phi4

    monkeypatch.setattr(phi4, "_SITE_NODES", 3)
    path = tmp_path / "a.cfg"
    path.write_text(SWEEP_BASE + "checks = [criterion]\n"
                    + f"output = {tmp_path / 'out'}\n")
    assert cli.main(["run", str(path)]) == 3
    (status,) = [r for r in _csv_rows(tmp_path / "out" / "results.csv")
                 if r["section"] == "status"]
    assert status["status"] == "unconverged"
    assert status["detail"].startswith("site 0: Lanczos broke down")


BOOLEAN_EDITS = {
    "seed": SWEEP_BASE.replace("seed = 20240601", "seed = true"),
    "model.g": SWEEP_BASE.replace("model.g = 1.0", "model.g = true"),
    "model.nu": SWEEP_BASE.replace("model.nu = -1.0", "model.nu = true"),
    "model.h": SWEEP_BASE + "model.h = [true]\n",
    "model.a_matrix": SWEEP_BASE.replace("model.a_matrix = [[1.0]]",
                                         "model.a_matrix = true"),
    "custom-poly model.g": GAUSS_CFG.replace(
        "model.kind = gaussian", "model.kind = custom-poly\nmodel.g = true"),
    "schedule.c_infinity": GAUSS_CFG.replace("[[1.0]]", "[[true]]"),
}


@pytest.mark.parametrize("edit", sorted(BOOLEAN_EDITS))
def test_boolean_values_rejected_at_validate(tmp_path, capsys, edit):
    # `true` is no number: it used to parse as a bool and build with 1.0
    from rgflow import cli

    path = tmp_path / "bool.cfg"
    path.write_text(BOOLEAN_EDITS[edit].format(out=tmp_path / "out"))
    assert cli.main(["validate", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


CUSTOM_POLY = GAUSS_CFG.replace("model.kind = gaussian", "model.kind = custom-poly")

# Non-finite model and schedule numbers, with the name of the field the
# error must give.
NON_FINITE_EDITS = {
    "phi4 model.g": (PHI4_SITE.replace("model.g = 1.0", "model.g = nan"), "g"),
    "phi4 model.nu": (PHI4_SITE.replace("model.nu = -1.0", "model.nu = inf"), "nu"),
    "phi4 model.h": (PHI4_SITE + "model.h = [nan]\n", "h"),
    "phi4 model.a_matrix": (PHI4_SITE.replace("[[1.0]]", "[[nan]]"), "a_matrix"),
    "custom-poly schedule.c_infinity": (CUSTOM_POLY.replace("[[1.0]]", "[[nan]]"),
                                        "c_infinity"),
    "custom-poly model.g": (CUSTOM_POLY + "model.g = nan\n", "g"),
    "custom-poly model.nu": (CUSTOM_POLY + "model.nu = -inf\n", "nu"),
    "quadratic model.b_matrix": (GAUSS_CFG.replace(
        "model.kind = gaussian", "model.kind = quadratic\nmodel.b_matrix = [[nan]]"),
        "b_matrix"),
    "custom-table row": (GAUSS_CFG.replace(
        "schedule.kind = heat-kernel\nschedule.c_infinity = [[1.0]]",
        "schedule.kind = custom-table\nschedule.table = {table}"), "table 'c' entries"),
}


@pytest.mark.parametrize("edit", sorted(NON_FINITE_EDITS))
def test_non_finite_numbers_rejected_at_validate(tmp_path, capsys, edit):
    # a sign or definiteness test alone lets nan through: every comparison
    # with nan is False
    from rgflow import cli
    from rgflow.covariance import write_table

    t = np.array([0.0, 0.5, 1.0, 2.0])
    c = -np.expm1(-t)[:, None, None]
    c[1] = np.nan
    write_table(tmp_path / "c.tab", t, c, np.exp(-t)[:, None, None],
                -np.exp(-t)[:, None, None])
    text, field = NON_FINITE_EDITS[edit]
    path = tmp_path / "nan.cfg"
    path.write_text(text.format(out=tmp_path / "out", table=tmp_path / "c.tab"))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: "), err
    assert re.search(rf"\b{field} must be finite", err), err


def _sweep_values(domain: str, tmp_path) -> list:
    """Config values to try for an option of ``domain``: its boundaries,
    values just outside it and a few inside."""
    if domain.startswith("an integer"):
        low = int(re.search(r"\d+", domain).group())
        return [low - 1, low, low + 1, low + 0.5, 12]
    table = tmp_path / "density.tab"
    xs = np.linspace(-4.0, 4.0, 161)
    dens = np.exp(-xs**4)
    np.savetxt(table, np.column_stack([xs, dens / np.trapezoid(dens, xs)]))
    return {
        "a number": [-1.0, 0.0, 1e-12, 1e3, "nan", "abc"],
        "a number > 0": [-1, 0, 1e-6, 0.5, 50.0],
        "a number >= 0": [-0.1, 0, 1e-6, 0.3, 1.9],
        "a non-empty list of numbers > 0": ["[]", "[0.0]", "[-1.0]", "[1e-3]",
                                            "[0.5]", "[1.0, 2.0]", "[50.0]"],
        "lin or log": ["lin", "log", "geo"],
        "a path": [tmp_path / "edited"],
        # a table that cannot be read is rejected by validate (see
        # UNEXECUTABLE)
        "uniform, gaussian or a density table path": ["uniform", "gaussian", table],
    }[domain]


# The check whose run an edit of a key's section exercises; the t_grid,
# disc and output keys serve every check.
SWEEP_OWNER = {"spectrum": "spectrum", "criterion": "criterion",
               "curvature": "criterion", "theorem": "theorem",
               "intertwining": "intertwining", "variance": "variance",
               "phi4": "phi4-identity", "heatflow": "heatflow"}


def _assert_edit_contract(tmp_path, capsys, text, name, check, out, edit):
    """Run the edited config ``text`` with ``checks = [check]`` and reports
    under ``out``: validate rejects it with exit 2, its message matching
    ``name``, or the run exits 0, 1 or 3 with parseable reports, no `pass`
    without a margin row and no Python exception reported as a `fail`."""
    from rgflow import cli

    path = tmp_path / "edit.cfg"
    path.write_text(text)
    capsys.readouterr()
    code = cli.main(["run", str(path)])
    if code == 2:
        assert re.search(name, capsys.readouterr().err), edit
        return
    assert code in (0, 1, 3), edit
    rows = _csv_rows(out / "results.csv")
    assert rows == [json.loads(line) for line in
                    (out / "results.jsonl").read_text().splitlines()], edit
    (status,) = [r for r in rows if r["section"] == "status"]
    assert status["check"] == check
    assert status["status"] != "fail" or status["detail"] == "", edit
    if status["status"] == "pass":
        assert any(r["margin"] or r["section"] == "spectrum"
                   for r in rows if r["section"] != "status"), edit


def test_seeded_single_key_sweep(tmp_path, capsys):
    """Two seeded edits of every option on SWEEP_BASE.  validate rejects an
    edit with exit 2, naming its key, or the run of the check the key
    belongs to exits 0, 1 or 3 with parseable reports, no `pass` without a
    margin row and no Python exception reported as a `fail`."""
    from rgflow.config import KNOWN_CHECKS, OPTIONS

    rng = np.random.default_rng(20240601)
    for n, (key, (_, rule)) in enumerate(OPTIONS.items()):
        values = _sweep_values(rule.domain, tmp_path)
        for m in rng.choice(len(values), size=min(2, len(values)), replace=False):
            value = values[m]
            check = SWEEP_OWNER.get(key.split(".")[0]) or rng.choice(KNOWN_CHECKS)
            out = tmp_path / f"out{n}-{m}"
            text = "".join(line + "\n" for line in SWEEP_BASE.splitlines()
                           if not line.startswith(key + " "))
            text += f"checks = [{check}]\n{key} = {value}\n"
            if key != "output":
                text += f"output = {out}\n"
            _assert_edit_contract(tmp_path, capsys, text, re.escape(key), check,
                                  value if key == "output" else out,
                                  f"{key} = {value} [{check}]")


# Values of the model and schedule numbers for test_seeded_number_sweep:
# non-finite ones, and finite ones on both sides of each sign condition.
NUMBER_SWEEP = {
    "model.g": (["nan", "inf", "-inf"], [-1.0, 0.0, 0.5, 2.0]),
    "model.nu": (["nan", "inf", "-inf"], [-3.0, 0.0, 2.0]),
    "model.h": (["[nan]", "[inf]", "-inf"], ["[-2.0]", 0.0, 1.5]),
    "schedule.c_infinity": (["[[nan]]", "[[inf]]", "[[-inf]]"],
                            ["[[-1.0]]", "[[0.0]]", "[[0.5]]", "[[2.0]]"]),
}
# SWEEP_BASE's model as a custom-poly V0 on the heat-kernel schedule.
SWEEP_POLY = SWEEP_BASE.replace(
    "model.kind = phi4\nmodel.a_matrix = [[1.0]]",
    "model.kind = custom-poly\nschedule.kind = heat-kernel\n"
    "schedule.c_infinity = [[1.0]]")


def test_seeded_number_sweep(tmp_path, capsys):
    """Every non-finite and two seeded finite edits of each model and
    schedule number, on the phi4 and the custom-poly form of SWEEP_BASE,
    under the contract of test_seeded_single_key_sweep; validate's message
    names the field, the key's last part."""
    rng = np.random.default_rng(20240601)
    # the checks that read the model; heatflow reads only its input density
    checks = ["spectrum", "theorem", "higher-k", "intertwining", "variance",
              "criterion"]
    for b, (base, base_checks) in enumerate(
            [(SWEEP_BASE, checks + ["phi4-identity"]), (SWEEP_POLY, checks)]):
        for n, (key, groups) in enumerate(NUMBER_SWEEP.items()):
            if key.startswith("schedule.") and base is SWEEP_BASE:
                continue  # C_inf of a phi4 model is A^{-1}
            non_finite, finite = groups
            picks = rng.choice(len(finite), size=2, replace=False)
            for m, value in enumerate(non_finite + [finite[i] for i in picks]):
                check = rng.choice(base_checks)
                out = tmp_path / f"out{b}-{n}-{m}"
                text = "".join(line + "\n" for line in base.splitlines()
                               if not line.startswith(key + " "))
                text += f"checks = [{check}]\n{key} = {value}\noutput = {out}\n"
                _assert_edit_contract(tmp_path, capsys, text,
                                      rf"\b{key.split('.')[-1]}\b", check, out,
                                      f"{key} = {value} [{check}]")


@pytest.mark.parametrize("edit", ["model.g = 1e6", "model.nu = 1e3",
                                  "model.h = 1e3"])
def test_intertwining_overflow_ends_unconverged(tmp_path, edit):
    # the sampled rates integrate to lambda_t below -355, where
    # exp(-2 lambda_t) overflows: no margin can be judged
    from rgflow import cli

    key = edit.partition(" =")[0]
    text = "".join(line + "\n" for line in SWEEP_POLY.splitlines()
                   if not line.startswith(key + " "))
    path = tmp_path / "a.cfg"
    path.write_text(text + f"{edit}\nchecks = [intertwining]\n"
                    f"output = {tmp_path / 'out'}\n")
    assert cli.main(["run", str(path)]) == 3
    rows = _csv_rows(tmp_path / "out" / "results.csv")
    (status,) = [r for r in rows if r["section"] == "status"]
    assert status["status"] == "unconverged"
    assert status["detail"].startswith(
        "intertwining factor exp(-2 lambda_t) is not finite at t=0.5")


def _short_table(tmp_path):
    """A custom table C_t = 1.3 (1 - e^-t) on [0, 2]; C_inf is its last row."""
    from rgflow.covariance import write_table

    t = np.linspace(0.0, 2.0, 41)
    decay = np.exp(-t)[:, None, None]
    path = tmp_path / "short.tab"
    write_table(path, t, 1.3 * (1.0 - decay), 1.3 * decay, -1.3 * decay)
    return path


SHORT_TABLE = GAUSS_CFG.replace(
    "schedule.kind = heat-kernel\nschedule.c_infinity = [[1.0]]",
    "schedule.kind = custom-table\nschedule.table = {table}").replace(
    "t_grid.max = 2.0", "t_grid.max = 1.5")

# Configs whose last time of some check lies outside the schedule's domain,
# with the key validate must name.
PAST_THE_SCHEDULE = {
    # C_inf - C_t = 1e-6 exp(-t / 1e-6) is exhausted long before t = 2
    "heat-kernel exhausted": (GAUSS_CFG.replace("[[1.0]]", "[[1e-6]]"),
                              "t_grid.max"),
    "table, box, late intertwining time": (
        SHORT_TABLE.replace("[spectrum, theorem]", "[intertwining]")
        + "disc.box_halfwidth = 8\nintertwining.times = [5.0]\n",
        "intertwining.times"),
    "table, late intertwining time": (
        SHORT_TABLE.replace("[spectrum, theorem]", "[spectrum, intertwining]")
        + "intertwining.times = [5.0]\n", "intertwining.times"),
    "table, spectra past its end": (
        SHORT_TABLE.replace("t_grid.max = 1.5", "t_grid.max = 3.0"),
        "t_grid.max"),
    # the default variance horizon of a Gaussian V0 is t = 20
    "table, default variance horizon": (
        SHORT_TABLE.replace("[spectrum, theorem]", "[variance]"),
        "variance.t_max"),
}


@pytest.mark.parametrize("case", sorted(PAST_THE_SCHEDULE))
def test_times_past_the_schedule_rejected_at_validate(tmp_path, capsys, case):
    from rgflow import cli

    text, key = PAST_THE_SCHEDULE[case]
    path = tmp_path / "late.cfg"
    path.write_text(text.format(out=tmp_path / "out",
                                table=_short_table(tmp_path)))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must lie in the schedule's "
                          "domain"), err


def test_times_inside_the_short_table_validate(tmp_path):
    text = SHORT_TABLE.replace("[spectrum, theorem]",
                               "[spectrum, intertwining, variance]")
    cfg = config_from_text(text.format(out=tmp_path / "out",
                                       table=_short_table(tmp_path))
                           + "intertwining.times = [1.5]\nvariance.t_max = 1.5\n")
    assert cfg.options["variance.t_max"] == 1.5
