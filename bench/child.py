"""One benchmark sample in a fresh interpreter.

    python3 child.py SPAWN_NS MODE WORKLOAD SEED WORK_DIR RESULT_PATH TRACE

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before it started
this process; set-up time runs from then until ``rgflow.cli`` is imported
and the workload's inputs are built.  MODE is ``sample`` (set up, then run
the timed region), ``setup`` (set up only) or ``quadrature`` (set up, then
compute the quadrature chi_t that the ring3-mcmc gate compares against).
The result is written as JSON to RESULT_PATH.
"""

import sys
import time


def main(argv):
    spawn_ns = int(argv[1])
    mode, workload, seed, work_dir, result_path = argv[2:7]
    traced = argv[7] == "1"
    seed = int(seed)

    import rgflow.cli  # noqa: F401  - the program's own start-up
    import rgflow.config
    import workloads

    if workload == workloads.MCMC:
        model = workloads.ring3_model()
    else:
        cfg = rgflow.config.load_config(
            workloads.write_config(workload, seed, work_dir))
    result = {"setup_s": (time.monotonic_ns() - spawn_ns) / 1e9}

    if mode == "sample":
        tracer = None
        if traced:
            import spans
            tracer = spans.Tracer().install()
        import rgflow.phi4
        import rgflow.runner

        if workload == workloads.MCMC:
            chis = []
            start = time.perf_counter()
            for t in workloads.RING3_TIMES:
                try:
                    est = rgflow.phi4.susceptibility(model, t, method="mcmc",
                                                     seed=seed)
                    chis.append({"t": t, "chi": est.value,
                                 "stderr": est.stderr})
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    chis.append({"t": t, "error": f"{type(exc).__name__}: {exc}"})
            result["run_s"] = time.perf_counter() - start
            result["chis"] = chis
        else:
            out_dir = result_path + ".out"
            start = time.perf_counter()
            report = rgflow.runner.run_experiment(cfg)
            rgflow.runner.emit_report(report, out_dir)
            result["run_s"] = time.perf_counter() - start
            result["statuses"] = report.statuses
            result["errors"] = report.errors
            result["out_dir"] = out_dir

        import resource
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
    elif mode == "quadrature":
        import rgflow.phi4
        result["chis"] = [
            {"t": t, "chi": rgflow.phi4.susceptibility(
                model, t, method="quadrature").value}
            for t in workloads.RING3_TIMES]

    import json
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
