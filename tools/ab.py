#!/usr/bin/env python3
"""Compare this checkout with another one: the same sensing fits and the same artifacts.

Imports this checkout's ``src/tensorisac`` and the package under
``PARENT_SRC`` (as ``tensorisac_parent``) in one process.  Each side runs
its own ``harness.run_sweep`` + ``emit_plot_data`` once on one config
(``--trials`` replaces its trial count, ``jobs`` is forced to 1), with its
``run_trial`` and ``als_fit`` wrapped so that every trial's record and fit
are kept.  A trial's inputs depend only on the config, grid value and
trial index, so a change to the fit shows per fit, not as noise.  Prints
per side the fits, their iterations, capped fits and the geometric mean of
the nonzero ``nmse_ar``; then ``# against:`` lines (iteration totals,
objective ratios, fits more than ``WORSE_REL`` above and below the
parent's objective, fits whose iteration count or converged flag differs,
the largest relative ``nmse_ar`` difference, identical fits, artifacts whose
SHA-256 is identical) and a ``# moved:`` line per fit that differs in
iterations or flag or ends more than ``WORSE_REL`` above the parent.

It times nothing: speed is measured by ``bench/run.py`` in both checkouts
(README).  Run from the repository root::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/ab.py ../parent/src --config bench/configs/snr_sweep.json --trials 60
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
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tensorisac  # noqa: E402  (this checkout, from the path set above)

# A fit ending more than this fraction above (below) the parent's objective is worse (better) than the parent's.
WORSE_REL = 1e-5


def load_package(src: Path, name: str):
    """Import ``src/tensorisac`` under the module name ``name``."""
    init = src / "tensorisac" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def replay(package, cfg, out: str) -> tuple[list[tuple], dict[str, str]]:
    """Run the config's sweep and its plot data once into ``out``.  Returns
    one row (sweep value, trial, iterations, converged, final objective,
    ``nmse_ar``) per trial and the SHA-256 of each artifact by file name."""
    harness, fits, rows = package.harness, [], []
    fit, trial = harness.als_fit, harness.run_trial

    def recording_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    def recording_trial(*args, **kwargs):
        record, est = trial(*args, **kwargs), fits.pop()
        rows.append((record.sweep_value, record.trial, est.iters, est.converged, float(est.nmse_trace[-1]),
                     record.nmse_ar))
        return record

    with mock.patch.object(harness, "als_fit", recording_fit), mock.patch.object(harness, "run_trial", recording_trial):
        results, summary_csv = harness.run_sweep(replace(cfg, jobs=1, output_dir=out))
        plots = harness.emit_plot_data(results, out_dir=out)
    return rows, {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                  for p in (results, summary_csv, *plots)}


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


def compare(rows: list[tuple], hashes: dict[str, str], parent: list[tuple], parent_hashes: dict[str, str]) -> list[str]:
    """The ``# against:`` and ``# moved:`` lines of the change's rows and
    artifact hashes against the parent's."""
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
        f"# against: fits more than {WORSE_REL:g} below the parent's objective {sum(q < 1.0 - WORSE_REL for q in ratios)}",
        f"# against: fits with a different iteration count {sum(r[2] != p[2] for r, p in pairs)}",
        f"# against: fits with a different converged flag {sum(r[3] != p[3] for r, p in pairs)}",
        f"# against: largest relative nmse_ar difference {nmse_rel[most]:.3g} "
        f"(sweep_value {rows[most][0]:g}, trial {rows[most][1]})",
        f"# against: fits identical {sum(r[2:] == p[2:] for r, p in pairs)} of {len(rows)}",
        f"# against: artifacts SHA-identical {sum(hashes.get(k) == v for k, v in parent_hashes.items())} "
        f"of {len(hashes.keys() | parent_hashes.keys())}",
    ] + [
        f"# moved: sweep_value {r[0]:g}, trial {r[1]}: iters {p[2]} -> {r[2]}, "
        f"converged {p[3]} -> {r[3]}, objective ratio - 1 {q - 1.0:.3g}"
        for (r, p), q in zip(pairs, ratios) if r[2] != p[2] or r[3] != p[3] or q > 1.0 + WORSE_REL
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the other checkout's src directory")
    parser.add_argument("--config", default=str(ROOT / "bench" / "configs" / "snr_sweep.json"),
                        help="experiment config (JSON); default: bench/configs/snr_sweep.json")
    parser.add_argument("--trials", type=int, default=None, help="trials per grid point (default: from config)")
    args = parser.parse_args(argv)
    if not (args.parent_src / "tensorisac" / "__init__.py").is_file():
        parser.error(f"{args.parent_src} holds no tensorisac package")
    sides = {"parent": load_package(args.parent_src.resolve(), "tensorisac_parent"), "change": tensorisac}
    cfgs = {}
    for name, package in sides.items():
        try:
            cfg = package.harness.load_config(args.config)
            cfgs[name] = replace(cfg, trials=cfg.trials if args.trials is None else args.trials)
            cfgs[name].validate()
        except (package.exceptions.ConfigError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory() as work:
        runs = {name: replay(package, cfgs[name], f"{work}/{name}") for name, package in sides.items()}
    for name in sides:
        print("\n".join(f"# {name}: {line}" for line in summary(runs[name][0])))
    print("\n".join(compare(*runs["change"], *runs["parent"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
