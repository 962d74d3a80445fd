#!/usr/bin/env python3
"""Replay the sensing fits of an experiment config on fixed inputs.

Runs ``harness.run_trial`` for trials ``0 .. T-1`` of every grid point of a
config, in grid order, and records what each ``als_fit`` call returned.  A
trial's inputs depend only on the config, its base seed, the grid value and
the trial index, so two checkouts replay exactly the same fits, and a change
to the fit shows as a per-fit difference rather than as benchmark noise.

Prints one tab-separated row per fit (grid value, trial, iterations,
converged, final objective, ``nmse_ar``), then ``#`` lines with the totals:
iterations (total, p50, p90, max), capped fits, the geometric mean of the
nonzero ``nmse_ar`` values and the count of fits that read exactly zero.
With ``--against`` it also compares with a file this tool wrote for another
checkout: iteration totals, capped fits, the worst ratio of a fit's final
objective to the saved one and the range of those ratios, the count of
fits that end more than ``WORSE_REL`` (relative) above their saved
objective, the counts of fits whose iteration count or converged flag
differs, the largest relative ``nmse_ar`` difference and the count of fits
identical to the saved ones (iterations, convergence, objective and
``nmse_ar`` all exactly equal).  A change at rounding level leaves few fits
identical, so the counts and the largest differences say whether any fit
moved beyond it.  Run from the repository root::

    PYTHONPATH=src python3 tools/replay_als.py bench/configs/snr_sweep.json --trials 60 > parent.tsv
    PYTHONPATH=src python3 tools/replay_als.py bench/configs/snr_sweep.json --trials 60 --against parent.tsv

where the first command runs in the other checkout.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np

from tensorisac import harness
from tensorisac.exceptions import ConfigError

COLUMNS = ("sweep_value", "trial", "iters", "converged", "objective", "nmse_ar")

# A fit whose final objective exceeds the saved one by more than this
# fraction counts as worse than the saved fit.
WORSE_REL = 1e-5


def replay(cfg: harness.ExperimentConfig) -> list[tuple]:
    """One row ``COLUMNS`` per ``als_fit`` call of the config's trials."""
    fits = []
    fit = harness.als_fit

    def recording_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    rows = []
    with mock.patch.object(harness, "als_fit", recording_fit):
        for value in cfg.sweep_values:
            for trial in range(cfg.trials):
                record = harness.run_trial(cfg, value, trial)
                est = fits.pop()
                rows.append((value, trial, est.iters, est.converged, float(est.nmse_trace[-1]), record.nmse_ar))
    return rows


def read_rows(path: str) -> list[tuple]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            value, trial, iters, converged, objective, nmse_ar = line.split("\t")
            rows.append((float(value), int(trial), int(iters), converged == "true", float(objective), float(nmse_ar)))
    return rows


def summary(rows: list[tuple]) -> list[str]:
    iters = np.array([r[2] for r in rows])
    # A fit can recover a_rx exactly (m_r = 1 leaves only the pinned first
    # entry), so zeros are counted apart from the geometric mean.
    nonzero = [r[5] for r in rows if r[5] != 0.0]
    geomean = math.exp(sum(map(math.log, nonzero)) / len(nonzero)) if nonzero else math.nan
    return [
        f"# fits {len(rows)}",
        f"# iters total {iters.sum()} p50 {np.percentile(iters, 50):g} "
        f"p90 {np.percentile(iters, 90):g} max {iters.max()}",
        f"# capped {sum(not r[3] for r in rows)}",
        f"# nmse_ar geomean {geomean:.8g} over nonzero fits, exactly zero {len(rows) - len(nonzero)}",
    ]


def compare(rows: list[tuple], saved: list[tuple]) -> list[str]:
    if [r[:2] for r in rows] != [r[:2] for r in saved]:
        raise SystemExit("error: the saved file replays different fits")
    total, saved_total = sum(r[2] for r in rows), sum(r[2] for r in saved)
    pairs = list(zip(rows, saved))
    ratios = [r[4] / s[4] for r, s in pairs]
    worst = int(np.argmax(ratios))
    # Relative nmse_ar difference; a saved zero counts as 0 when matched exactly, else inf.
    nmse_rel = [abs(r[5] - s[5]) / abs(s[5]) if s[5] else (0.0 if r[5] == 0.0 else math.inf) for r, s in pairs]
    moved = int(np.argmax(nmse_rel))
    return [
        f"# against: iters total {saved_total} -> {total} ({100.0 * (total - saved_total) / saved_total:+.1f} %)",
        f"# against: capped {sum(not s[3] for s in saved)} -> {sum(not r[3] for r in rows)}",
        f"# against: worst objective ratio {ratios[worst]:.6f} "
        f"(sweep_value {rows[worst][0]:g}, trial {rows[worst][1]})",
        f"# against: objective ratio - 1 in [{min(ratios) - 1.0:.3g}, {max(ratios) - 1.0:.3g}]",
        f"# against: fits more than {WORSE_REL:g} above the saved objective {sum(q > 1.0 + WORSE_REL for q in ratios)}",
        f"# against: fits with a different iteration count {sum(r[2] != s[2] for r, s in pairs)}",
        f"# against: fits with a different converged flag {sum(r[3] != s[3] for r, s in pairs)}",
        f"# against: largest relative nmse_ar difference {nmse_rel[moved]:.3g} "
        f"(sweep_value {rows[moved][0]:g}, trial {rows[moved][1]})",
        f"# against: fits identical {sum(r[2:] == s[2:] for r, s in pairs)} of {len(rows)}",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="experiment config (JSON), e.g. bench/configs/snr_sweep.json")
    parser.add_argument("--trials", type=int, default=None, help="trials per grid point (default: from config)")
    parser.add_argument("--against", default=None, help="output of this tool for another checkout")
    args = parser.parse_args(argv)
    try:
        cfg = harness.load_config(args.config)
        if args.trials is not None:
            cfg = replace(cfg, trials=args.trials)
            cfg.validate()
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = replay(cfg)
    print("# " + "\t".join(COLUMNS))
    for value, trial, iters, converged, objective, nmse_ar in rows:
        print(f"{value!r}\t{trial}\t{iters}\t{'true' if converged else 'false'}\t{objective!r}\t{nmse_ar!r}")
    lines = summary(rows)
    if args.against:
        lines += compare(rows, read_rows(args.against))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
