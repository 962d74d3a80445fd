#!/usr/bin/env python3
"""Compare this checkout with another one: the same sensing fits, then interleaved sweep timings.

Imports this checkout's ``src/tensorisac`` and the package under
``PARENT_SRC`` (as ``tensorisac_parent``) in one process.  Fits: on one
config (``--trials`` replaces its trial count) each side runs
``harness.run_trial`` for trials ``0 .. T-1`` of every grid point and
records what its ``als_fit`` call returned.  A trial's inputs depend only
on the config, grid value and trial index, so a change to the fit shows
per fit, not as noise.  Prints per side the fits, their iterations, capped
fits and the geometric mean of the nonzero ``nmse_ar``; then ``# against:``
lines (iteration totals, objective ratios, fits more than ``WORSE_REL``
above the parent's objective, fits whose iteration count or converged flag
differs, the largest relative ``nmse_ar`` difference, identical fits) and a
``# moved:`` line per fit that differs in iterations or flag or ends more
than ``WORSE_REL`` above the parent.

Timings (``--steps S`` > 0): ``run_sweep`` + ``emit_plot_data`` (jobs
forced to 1) once per side and step after one untimed warm-up step, the
side that goes first alternating.  Both sides of step ``i`` use base seed
``base_seed + i``, so host drift cancels out of the per-step ratio.  Prints
one row per step, each side's median step time and trials/s, the median
and IQR of the ratio, the ratio of the summed times and the number of
steps whose artifacts are SHA-identical.  Run from the repository root::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/ab.py ../parent/src --config bench/configs/snr_sweep.json --trials 60 --steps 40
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import math
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tensorisac  # noqa: E402  (this checkout, from the path set above)

# A fit ending more than this fraction above the parent's objective is worse than the parent's.
WORSE_REL = 1e-5


def load_package(src: Path, name: str):
    """Import ``src/tensorisac`` under the module name ``name``."""
    init = src / "tensorisac" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def replay(package, cfg) -> list[tuple]:
    """One row (sweep value, trial, iterations, converged, final objective,
    ``nmse_ar``) per ``als_fit`` call of the config's trials."""
    fits = []
    fit = package.harness.als_fit

    def recording_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    rows = []
    with mock.patch.object(package.harness, "als_fit", recording_fit):
        for value in cfg.sweep_values:
            for trial in range(cfg.trials):
                record = package.harness.run_trial(cfg, value, trial)
                est = fits.pop()
                rows.append((value, trial, est.iters, est.converged, float(est.nmse_trace[-1]), record.nmse_ar))
    return rows


def summary(rows: list[tuple]) -> list[str]:
    iters = np.array([r[2] for r in rows])
    # With m_r = 1 a fit recovers a_rx (its pinned first entry) exactly; zeros are counted apart.
    nonzero = [r[5] for r in rows if r[5] != 0.0]
    geomean = math.exp(sum(map(math.log, nonzero)) / len(nonzero)) if nonzero else math.nan
    return [
        f"fits {len(rows)}",
        f"iters total {iters.sum()} p50 {np.percentile(iters, 50):g} p90 {np.percentile(iters, 90):g} max {iters.max()}",
        f"capped {sum(not r[3] for r in rows)}",
        f"nmse_ar geomean {geomean:.8g} over nonzero fits, exactly zero {len(rows) - len(nonzero)}",
    ]


def compare(rows: list[tuple], parent: list[tuple]) -> list[str]:
    """The ``# against:`` and ``# moved:`` lines of the change's rows against the parent's."""
    total, parent_total = sum(r[2] for r in rows), sum(p[2] for p in parent)
    pairs = list(zip(rows, parent))
    ratios = [r[4] / p[4] for r, p in pairs]
    worst = int(np.argmax(ratios))
    # Relative nmse_ar difference; a parent zero counts as 0 when matched exactly, else inf.
    nmse_rel = [abs(r[5] - p[5]) / abs(p[5]) if p[5] else (0.0 if r[5] == 0.0 else math.inf) for r, p in pairs]
    most = int(np.argmax(nmse_rel))
    return [
        f"# against: iters total {parent_total} -> {total} ({100.0 * (total - parent_total) / parent_total:+.1f} %)",
        f"# against: capped {sum(not p[3] for p in parent)} -> {sum(not r[3] for r in rows)}",
        f"# against: worst objective ratio {ratios[worst]:.6f} (sweep_value {rows[worst][0]:g}, trial {rows[worst][1]})",
        f"# against: objective ratio - 1 in [{min(ratios) - 1.0:.3g}, {max(ratios) - 1.0:.3g}]",
        f"# against: fits more than {WORSE_REL:g} above the parent's objective {sum(q > 1.0 + WORSE_REL for q in ratios)}",
        f"# against: fits with a different iteration count {sum(r[2] != p[2] for r, p in pairs)}",
        f"# against: fits with a different converged flag {sum(r[3] != p[3] for r, p in pairs)}",
        f"# against: largest relative nmse_ar difference {nmse_rel[most]:.3g} "
        f"(sweep_value {rows[most][0]:g}, trial {rows[most][1]})",
        f"# against: fits identical {sum(r[2:] == p[2:] for r, p in pairs)} of {len(rows)}",
    ] + [
        f"# moved: sweep_value {r[0]:g}, trial {r[1]}: iters {p[2]} -> {r[2]}, "
        f"converged {p[3]} -> {r[3]}, objective ratio - 1 {q - 1.0:.3g}"
        for (r, p), q in zip(pairs, ratios) if r[2] != p[2] or r[3] != p[3] or q > 1.0 + WORSE_REL
    ]


def time_steps(sides: dict, cfgs: dict, steps: int) -> None:
    """Time ``run_sweep`` + ``emit_plot_data`` per side and step, and hash each artifact by name."""
    times: dict[str, list[float]] = {"parent": [], "change": []}
    identical = 0
    print("# step\tparent_s\tchange_s\tratio\tidentical")
    with tempfile.TemporaryDirectory() as work:
        for step in range(-1, steps):
            timed = {}
            for name in ("parent", "change") if step % 2 == 0 else ("change", "parent"):
                cfg, out = replace(cfgs[name], base_seed=cfgs[name].base_seed + max(step, 0)), f"{work}/{name}{step}"
                start = time.perf_counter()
                results, summary_csv = sides[name].harness.run_sweep(cfg, out_dir=out)
                plots = sides[name].harness.emit_plot_data(results, out_dir=out)
                timed[name] = (time.perf_counter() - start, {
                    Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (results, summary_csv, *plots)})
            if step < 0:
                continue
            same = timed["parent"][1] == timed["change"][1]
            identical += same
            for name in times:
                times[name].append(timed[name][0])
            print(f"{step}\t{timed['parent'][0]:.6f}\t{timed['change'][0]:.6f}\t"
                  f"{timed['change'][0] / timed['parent'][0]:.4f}\t{'yes' if same else 'no'}")

    trials = len(cfgs["change"].sweep_values) * cfgs["change"].trials
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    for name in times:
        median = statistics.median(times[name])
        print(f"# {name}: median step {median:.4f} s, {trials / median:.1f} trials/s ({trials} trials per step)")
    print(f"# ratio change/parent: median {q2:.4f}, IQR [{q1:.4f}, {q3:.4f}], "
          f"summed times {sum(times['change']) / sum(times['parent']):.4f}")
    print(f"# artifacts SHA-identical in {identical} of {steps} steps")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the other checkout's src directory")
    parser.add_argument("--config", default=str(ROOT / "bench" / "configs" / "snr_sweep.json"),
                        help="experiment config (JSON); default: bench/configs/snr_sweep.json")
    parser.add_argument("--trials", type=int, default=None, help="trials per grid point (default: from config)")
    parser.add_argument("--steps", type=int, default=0, help="timed steps per side after the fits (default: 0)")
    args = parser.parse_args(argv)
    if args.steps < 0:
        parser.error("--steps must be at least 0")
    if not (args.parent_src / "tensorisac" / "__init__.py").is_file():
        parser.error(f"{args.parent_src} holds no tensorisac package")
    sides = {"parent": load_package(args.parent_src.resolve(), "tensorisac_parent"), "change": tensorisac}
    cfgs = {}
    for name, package in sides.items():
        try:
            cfg = package.harness.load_config(args.config)
            cfgs[name] = replace(cfg, trials=cfg.trials if args.trials is None else args.trials, jobs=1)
            cfgs[name].validate()
        except (package.exceptions.ConfigError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    rows = {name: replay(package, cfgs[name]) for name, package in sides.items()}
    for name in sides:
        print("\n".join(f"# {name}: {line}" for line in summary(rows[name])))
    print("\n".join(compare(rows["change"], rows["parent"])))
    if args.steps:
        time_steps(sides, cfgs, args.steps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
