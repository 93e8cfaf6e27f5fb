"""rgflow benchmark harness.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --record

Run from the root of a source checkout; rgflow is imported from ``src/``.
Every sample runs in a fresh single-process interpreter, one at a time in
a closed loop, with ``RGFLOW_WORKERS`` unset and BLAS threads capped at the
number of usable cores.  A run repeats samples until ``--seconds`` have
passed and at least ``MIN_SAMPLES`` were taken, then gates every output
(see ``gate``) and prints one JSON object as the last line of stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced
sample with ``--trace 1``.  ``--all`` runs every workload both ways and
prints each metric with its unit and ``fail_frac``.  ``--record`` rewrites
the reference outputs under ``bench/reference`` at the default seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
REFERENCE_DIR = os.path.join(HERE, "reference")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Config workloads need two outputs per run for the byte-identity gate;
# dwell samples are short and vary most within a run, so it takes three.
MIN_SAMPLES = {"dwell": 3, "plaquette": 2, "flow-1d": 2, workloads.MCMC: 1}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0          # a run must end within 180 s
MCMC_Z_MAX = 3.0

# Acceptance-suite tolerances for the numeric columns of results.csv:
# spectra to 0.3 %, equality chains to 1e-3; margins only need to clear
# their own tolerance column.
SPECTRUM_RTOL = 3e-3
VALUE_RTOL = 1e-3
VALUE_ATOL = 1e-9
VALUE_COLUMNS = ("lambda_prime", "alpha_prime", "lambda_int", "alpha_int",
                 "chi", "chi_stderr", "sigma_min", "value")
EXACT_COLUMNS = ("section", "check", "k", "samples_used", "status")
QUADRATURE_CHI_RTOL = 1e-5

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def blas_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RGFLOW_WORKERS"}
    env["PYTHONPATH"] = SRC
    for var in BLAS_VARS:
        env[var] = str(blas_cap())
    return env


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "blas_threads": blas_cap()}


class Runner:
    """Starts child processes for one benchmark invocation."""

    def __init__(self, work_dir: str, deadline: float):
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise HarnessError("run deadline passed")
        return left

    def child(self, mode: str, workload: str, seed: int,
              traced: bool = False) -> dict:
        self.count += 1
        path = os.path.join(self.work_dir, f"{mode}-{self.count}.json")
        spawn = time.monotonic_ns()
        cmd = [sys.executable, os.path.join(HERE, "child.py"), str(spawn),
               mode, workload, str(seed), self.work_dir, path,
               "1" if traced else "0"]
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{mode} sample of {workload} timed out") from exc
        if proc.returncode != 0:
            raise HarnessError(f"{mode} sample of {workload} exited "
                               f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def import_times(self) -> dict:
        """Self times summed per package from ``-X importtime``."""
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import rgflow.cli"],
                env=child_env(), cwd=ROOT, capture_output=True, text=True,
                timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise HarnessError("import-time probe timed out") from exc
        if proc.returncode != 0:
            raise HarnessError(f"import-time probe failed:\n{proc.stderr[-2000:]}")
        totals = {"scipy": 0.0, "rgflow": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us = float(fields[0])
            except ValueError:
                continue  # the column header line
            package = fields[2].strip().split(".")[0]
            if package in totals:
                totals[package] += self_us / 1e6
        return totals


def measure(runner: Runner, workload: str, seed: int, seconds: float,
            traced: bool) -> dict:
    """Samples for one run: untraced ones, plus traced ones when asked."""
    if traced:
        imports = runner.import_times()   # doubles as the warm-up start
    else:
        imports = None
        runner.child("setup", workload, seed)   # warm-up, discarded
    plain, with_spans = [], []
    start = time.monotonic()
    while True:
        plain.append(runner.child("sample", workload, seed))
        if traced:
            with_spans.append(runner.child("sample", workload, seed, True))
        elapsed = time.monotonic() - start
        # a traced run gates the traced outputs against the untraced ones
        wanted = 1 if traced else MIN_SAMPLES[workload]
        if len(plain) >= wanted and (
                elapsed >= seconds
                or elapsed * (1 + 1 / len(plain)) > DEADLINE_S / 2):
            break
    quadrature = None
    if workload == workloads.MCMC:
        quadrature = runner.child("quadrature", workload, seed)
    setups = [r["setup_s"] for r in plain + with_spans
              + ([quadrature] if quadrature else [])]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup", workload, seed)["setup_s"])
    return {"plain": plain, "traced": with_spans, "quadrature": quadrature,
            "setups": setups, "imports": imports}


# -- correctness gate --------------------------------------------------------

def _float(text: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):  # a missing or garbled cell
        return float("nan")


def _close(got: str, want: str, rtol: float, atol: float = 0.0) -> bool:
    if got == "" or want == "":
        return got == want
    w = float(want)
    return abs(_float(got) - w) <= rtol * abs(w) + atol


def compare_results(text: str, ref_text: str) -> list[str]:
    """Problems of one results.csv against the recorded reference."""
    rows = list(csv.DictReader(io.StringIO(text)))
    ref = list(csv.DictReader(io.StringIO(ref_text)))
    header = text.split("\n", 1)[0]
    if header != ref_text.split("\n", 1)[0]:
        return [f"header differs: {header!r}"]
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    problems = []
    for i, (row, want) in enumerate(zip(rows, ref), start=2):
        bad = [c for c in EXACT_COLUMNS if row[c] != want[c]]
        bad += [c for c in ("t", "s") if not _close(row[c], want[c], 1e-12)]
        bad += [c for c in row if c.startswith("mu_")
                and not _close(row[c], want[c], SPECTRUM_RTOL)]
        bad += [c for c in VALUE_COLUMNS
                if not _close(row[c], want[c], VALUE_RTOL, VALUE_ATOL)]
        if row["converged"] not in ("", "true") or \
                (row["converged"] == "") != (want["converged"] == ""):
            bad.append("converged")
        if (row["margin"] == "") != (want["margin"] == "") or (
                row["tolerance"] != ""
                and not _float(row["margin"]) >= -_float(row["tolerance"])):
            bad.append("margin")
        if bad:
            problems.append(f"line {i} ({row['section']}/{row['check']}): "
                            + ", ".join(bad))
    return problems


def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _reference(workload: str) -> str:
    return _read(os.path.join(REFERENCE_DIR, f"{workload}.csv"))


def gate(workload: str, m: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every output of one run.

    Config workloads: each check status is one operation, failed unless
    ``pass``; each sample's output is one operation, failed when
    results.csv leaves the reference tolerances or results.csv/.jsonl are
    not byte-identical to the first sample's.  ring3-mcmc: each quadrature
    chi_t is one operation against the reference, and each MCMC chi_t one
    operation, failed on an error, on |chi_mcmc - chi_quad| > 3 stderr, or
    when it differs from the first sample's value.
    """
    attempted, failed, problems = 0, 0, []
    samples = m["plain"] + m["traced"]
    if workload == workloads.MCMC:
        ref = {float(r["t"]): float(r["chi"]) for r in
               csv.DictReader(io.StringIO(_reference(workload)))}
        quad = {c["t"]: c["chi"] for c in m["quadrature"]["chis"]}
        for t, chi in quad.items():
            attempted += 1
            if abs(chi - ref[t]) > QUADRATURE_CHI_RTOL * abs(ref[t]):
                failed += 1
                problems.append(f"quadrature chi_{t} = {chi!r}, "
                                f"reference {ref[t]!r}")
        first = {}
        for s in samples:
            for c in s["chis"]:
                attempted += 1
                t = c["t"]
                if "error" in c:
                    failed += 1
                    problems.append(f"mcmc chi_{t}: {c['error']}")
                    continue
                z = (c["chi"] - quad[t]) / c["stderr"] if c["stderr"] else \
                    float("inf")
                first.setdefault(t, c["chi"])
                if abs(z) > MCMC_Z_MAX or c["chi"] != first[t]:
                    failed += 1
                    problems.append(f"mcmc chi_{t} = {c['chi']!r} "
                                    f"(z = {z:+.2f}, first {first[t]!r})")
        return attempted, failed, problems

    ref = _reference(workload)
    first = None
    for s in samples:
        for name, status in s["statuses"].items():
            attempted += 1
            if status != "pass":
                failed += 1
                problems.append(f"check {name}: {status} "
                                f"{s['errors'].get(name, '')}".rstrip())
        attempted += 1
        out = (_read(os.path.join(s["out_dir"], "results.csv")),
               _read(os.path.join(s["out_dir"], "results.jsonl")))
        found = compare_results(out[0], ref)
        first = first or out
        if out != first:
            found.append("results differ from the first sample's bytes")
        if found:
            failed += 1
            problems.extend(found)
    return attempted, failed, problems


# -- metrics -------------------------------------------------------------------

def end_to_end(m: dict) -> dict:
    plain = m["plain"]
    values = {"setup_s": statistics.median(m["setups"]),
              "run_s": statistics.median(s["run_s"] for s in plain),
              "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain)}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(m: dict) -> dict:
    traced = [spans.layer_metrics(s["spans"], s["run_s"]) for s in m["traced"]]
    values = {}
    for name in traced[0]:
        got = [t[name] for t in traced]
        # counts repeat exactly; keep them whole numbers
        values[name] = got[0] if len(set(got)) == 1 else statistics.median(got)
    values["setup.scipy_s"] = m["imports"]["scipy"]
    values["setup.rgflow_s"] = m["imports"]["rgflow"]
    values["trace.overhead_frac"] = (
        statistics.median(s["run_s"] for s in m["traced"])
        / statistics.median(s["run_s"] for s in m["plain"]) - 1.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spans.PER_LAYER}


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        runner = Runner(work_dir, time.monotonic() + DEADLINE_S)
        m = measure(runner, workload, seed, seconds, traced)
        attempted, failed, problems = gate(workload, m)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": per_layer(m) if traced else end_to_end(m),
            "problems": problems, "samples": len(m["plain"]),
            "traced_samples": len(m["traced"]),
            "setup_samples": len(m["setups"]),
            "raw": {"run_s": [s["run_s"] for s in m["plain"]],
                    "setup_s": m["setups"]}}


def summary_lines(workload: str, res: dict) -> list[str]:
    lines = [f"{workload} {name} {v['value']:.6g} {v['unit']}"
             for name, v in res["metrics"].items()]
    lines.append(f"{workload} fail_frac {res['failed'] / res['attempted']:.6g} "
                 f"ratio ({res['failed']} of {res['attempted']} operations)")
    lines.append(f"{workload} samples: {res['samples']} untraced, "
                 f"{res['traced_samples']} traced, {res['setup_samples']} set-up")
    for key in ("run_s", "setup_s"):
        lines.append(f"{workload} {key} samples: "
                     + " ".join(f"{v:.4g}" for v in res["raw"][key]))
    lines.extend(f"{workload} FAILED: {p}" for p in res["problems"])
    return lines


def record() -> None:
    """Rewrite the reference outputs from one sample at the default seed."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    try:
        runner = Runner(work_dir, time.monotonic() + 10 * DEADLINE_S)
        seed = workloads.DEFAULT_SEED
        for name in workloads.CONFIGS:
            s = runner.child("sample", name, seed)
            if any(v != "pass" for v in s["statuses"].values()):
                raise HarnessError(f"{name}: checks {s['statuses']}")
            shutil.copyfile(os.path.join(s["out_dir"], "results.csv"),
                            os.path.join(REFERENCE_DIR, f"{name}.csv"))
        q = runner.child("quadrature", workloads.MCMC, seed)
        with open(os.path.join(REFERENCE_DIR, f"{workloads.MCMC}.csv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write("t,chi\n")
            fh.writelines(f"{c['t']!r},{c['chi']!r}\n" for c in q["chis"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--all", action="store_true")
    p.add_argument("--record", action="store_true")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rgflow", "__init__.py")):
        print(f"no rgflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.record:
            record()
            return 0
        env = " ".join(f"{k}={v}" for k, v in environment().items())
        if args.all:
            print(f"# {env}")
            ok = True
            for name in workloads.WORKLOADS:
                for traced in (False, True):
                    res = run_once(name, args.seed, args.seconds, traced)
                    print("\n".join(summary_lines(name, res)), flush=True)
                    ok = ok and res["correct"]
            return 0 if ok else 1
        if args.workload is None:
            p.error("one of --workload, --all or --record is required")
        res = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(f"# {env}")
    print("\n".join(summary_lines(args.workload, res)))
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
