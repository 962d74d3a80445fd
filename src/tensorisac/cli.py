"""Command-line entry point: run sweeps, check configs, emit plot data.

Subcommands
-----------
``run --config <file> [--out <dir>] [--trials N] [--seed S] [--noiseless]``
    Run the configured Monte Carlo sweep and write ``results.csv`` plus
    ``summary.csv``.  ``--out``/``--trials``/``--seed`` replace config values;
    ``--noiseless`` replaces the noise level with the exact sentinel
    (an ``es_n0`` sweep collapses to a single noiseless point).
``check --config <file>``
    Validate the config, including the identifiability inequalities for
    every sweep point, without running anything.
``plotdata --csv <file> [--out <dir>]``
    Copy the summary-row medians of a ``results.csv`` into per-metric text files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import emit_plot_data, load_config, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorisac",
        description="Monte Carlo driver for tensor-based sensing and communication receivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured sweep and write CSV artifacts")
    p_run.add_argument("--config", required=True, help="experiment config (JSON)")
    p_run.add_argument("--out", default=None, help="replaces the config's output_dir")
    p_run.add_argument("--trials", type=int, default=None, help="override trials per sweep point")
    p_run.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_run.add_argument("--noiseless", action="store_true", help="disable noise (exact-recovery mode)")

    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("--config", required=True, help="experiment config (JSON)")

    p_plot = sub.add_parser("plotdata", help="write per-metric plot files from the summary rows of a results CSV")
    p_plot.add_argument("--csv", required=True, help="results.csv produced by `run`")
    p_plot.add_argument("--out", default=None, help="output directory (default: next to the CSV)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            edits = {"trials": args.trials, "base_seed": args.seed, "output_dir": args.out}
            cfg = replace(load_config(args.config), **{k: v for k, v in edits.items() if v is not None})
            if args.noiseless:
                if cfg.sweep_variable == "es_n0":
                    cfg = replace(cfg, sweep_values=[float("inf")])
                else:
                    cfg = replace(cfg, es_n0_db=float("inf"))
            results_path, summary_path = run_sweep(cfg)
            print(results_path)
            print(summary_path)
        elif args.command == "check":
            load_config(args.config)
            print("config ok")
        elif args.command == "plotdata":
            for path in emit_plot_data(args.csv, out_dir=args.out):
                print(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
