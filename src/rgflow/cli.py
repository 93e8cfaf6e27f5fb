"""Command-line interface: run / validate / oracle subcommands.

Exit codes: 0 all checks pass, 1 any check fails, 2 configuration error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigError
from .runner import emit_report, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgflow",
        description="Renormalization-flow Poincare-constant laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the checks in a config file")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config", help="path to the experiment config")

    p_orc = sub.add_parser("oracle",
                           help="evaluate the brute-force reference oracles")
    p_orc.add_argument("--out", default=None,
                       help="directory for oracle_values.csv (default stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "validate":
        try:
            load_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print("config ok")
        return 0

    if args.command == "oracle":
        from .oracles import run_all as run_all_oracles

        lines = [f"{name},{value:.17g}" for name, value in run_all_oracles()]
        text = "oracle,value\n" + "\n".join(lines) + "\n"
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "oracle_values.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(path)
        else:
            print(text, end="")
        return 0

    # run
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          output_override=args.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(cfg)
    out_dir = cfg.options["output"]
    try:
        files = emit_report(report, out_dir)
    except OSError as exc:
        print(f"config error: cannot write reports under {out_dir!r}: {exc}",
              file=sys.stderr)
        return 2

    for name, status in report.statuses.items():
        note = report.errors.get(name, "")
        print(f"{name}: {status}" + (f" ({note})" if note else ""))
    print(f"wrote {', '.join(files)}")
    print(f"wallclock: {report.wallclock:.2f}s (rgflow {report.version})")
    worst = report.worst_status
    return {"pass": 0, "fail": 1, "unconverged": 3}[worst]


if __name__ == "__main__":
    sys.exit(main())
