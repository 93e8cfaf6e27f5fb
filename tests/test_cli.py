import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rgflow.config import config_from_text, load_config, parse_config_text
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


def test_parse_types():
    entries = parse_config_text(
        "a = 1\nb = 2.5\nc = true\nd = hello\ne = [1, 2]\nf = [[1.0, 0.0], [0.0, 2.0]]\n")
    assert entries["a"] == 1 and isinstance(entries["a"], int)
    assert entries["b"] == 2.5
    assert entries["c"] is True
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
    lines = open(files[0]).read().splitlines()
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
    a = open(tmp_path / "out1" / "results.csv", "rb").read()
    b = open(tmp_path / "out2" / "results.csv", "rb").read()
    assert a == b
    aj = open(tmp_path / "out1" / "results.jsonl", "rb").read()
    bj = open(tmp_path / "out2" / "results.jsonl", "rb").read()
    assert aj == bj


def test_failing_check_exit_code(tmp_path):
    # an impossible tolerance forces margin failures -> exit 1
    text = GAUSS_CFG.format(out=tmp_path / "out") + "theorem.tolerance = -1.0\n"
    cfg_path = tmp_path / "fail.cfg"
    cfg_path.write_text(text)
    res = _run_cli("run", str(cfg_path))
    assert res.returncode == 1
    assert "theorem: fail" in res.stdout


def test_module_error_attaches_to_check(tmp_path):
    # phi4-identity on a gaussian model is a config-level misuse the runner
    # must attach to the owning check while the rest of the run continues
    text = GAUSS_CFG.format(out=tmp_path / "out").replace(
        "checks = [spectrum, theorem]", "checks = [spectrum, phi4-identity]")
    cfg = config_from_text(text)
    report = run_experiment(cfg)
    assert report.statuses["spectrum"] == "pass"
    assert report.statuses["phi4-identity"] == "fail"
    assert "phi4" in report.errors["phi4-identity"]


def test_oracle_subcommand(tmp_path):
    res = _run_cli("oracle", "--out", str(tmp_path))
    assert res.returncode == 0
    lines = open(tmp_path / "oracle_values.csv").read().splitlines()
    assert lines[0] == "oracle,value"
    values = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert abs(values["smoothed-quadratic-value"] - 0.5965735902799727) < 1e-12
    assert values["ou-mu-4"] == 4.0


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


def test_cli_import_skips_unused_scipy_and_oracles():
    code = ("import sys, rgflow.cli; print(' '.join(m for m in "
            "('scipy.special', 'scipy.stats', 'scipy.integrate', "
            "'scipy.interpolate', 'rgflow.oracles') "
            "if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == ""


def test_criterion_computes_chi_once_per_t(monkeypatch):
    import rgflow.curvature as curvature_mod
    import rgflow.phi4 as phi4_mod

    calls = []
    real = phi4_mod.susceptibility

    def counting(model, t, *args, **kwargs):
        calls.append(t)
        return real(model, t, *args, **kwargs)

    batch_sizes = []
    real_derivatives = curvature_mod._tilted_derivatives

    def counting_derivatives(V0, shifts, xb):
        batch_sizes.append(len(xb))
        return real_derivatives(V0, shifts, xb)

    monkeypatch.setattr(phi4_mod, "susceptibility", counting)
    monkeypatch.setattr(curvature_mod, "_tilted_derivatives",
                        counting_derivatives)
    cfg = config_from_text("""\
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
""")
    report = run_experiment(cfg)
    assert report.statuses["criterion"] == "pass"
    assert len(calls) == len(set(calls)) > 0
    # one Hessian batch on the full sample set per distinct rate time; each
    # compass-search sweep of the refinement sends its 2d trials as one batch
    (n_samples,) = {r["samples_used"] for r in report.rows
                    if r["section"] == "schedule"}
    assert batch_sizes.count(n_samples) == len(set(calls))
    refine_batches = [b for b in batch_sizes if b != n_samples]
    assert refine_batches
    assert all(1 <= b <= 2 for b in refine_batches)  # 2d trials, d = 1


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
    three = spectral.replace("[[2.0, -1.0], [-1.0, 2.0]]",
                             "[[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]")
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


UNEXECUTABLE = {
    "t_grid.min": GAUSS_CFG.replace("t_grid.min = 0.5", "t_grid.min = -0.5"),
    "seed": GAUSS_CFG.replace("checks = [spectrum, theorem]",
                              "checks = [criterion]").replace("seed = 11",
                                                              "seed = -1"),
    "spectrum.k": GAUSS_CFG.replace("spectrum.k = 2", "spectrum.k = 0"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key", sorted(UNEXECUTABLE))
def test_unexecutable_values_rejected_before_compute(tmp_path, key, command):
    path = tmp_path / "bad.cfg"
    path.write_text(UNEXECUTABLE[key].format(out=tmp_path / "out"))
    res = _run_cli(command, str(path))
    assert res.returncode == 2, res.stdout
    assert f"config error: {key} must be" in res.stderr
    assert not (tmp_path / "out").exists()


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
    from rgflow.runner import _variance_t_max

    heat = make_schedule("heat-kernel", c_infinity=[[1.0]])
    pv = make_schedule("pauli-villars", c_infinity=[[1.0]])
    assert _variance_t_max(heat, 20.0) == 20.0
    assert _variance_t_max(pv, 30.0) == 30.0
    t_max = _variance_t_max(heat, 30.0)
    # exp(-t) = 100 * 1e-12, up to the cancellation in 1 - C_t
    assert abs(t_max - 10.0 * np.log(10.0)) < 1e-5
