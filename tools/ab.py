#!/usr/bin/env python3
"""Compare this checkout with another one: the same sensing fits and the same artifacts.

Imports this checkout's ``src/tensorisac`` and the package under
``PARENT_SRC`` (as ``tensorisac_parent``) in one process, and fits the same
inputs on both sides.  By default each side runs its own
``harness.run_sweep`` + ``emit_plot_data`` once on one config (``--trials``
replaces its trial count, ``jobs`` is forced to 1), with its ``run_trial``
and ``als_fit`` wrapped so that every trial's fit is kept; a trial's inputs
depend only on the config, grid value and trial index.  With ``--shapes N``
each side instead fits ``N`` seeded random instances (``random_instances``:
shapes beyond the configs', the same tensors on both sides).

Either way each fit is one row (label, iterations, converged, final
objective, ``nmse_ar``), labelled ``sweep_value <v>, trial <t>`` or by its
shape and Es/N0.  Per side the tool prints the fits, their iterations,
capped fits and the geometric mean of the nonzero ``nmse_ar``; then
``# against:`` lines (iteration totals, objective ratios, fits more than
``WORSE_REL`` above and below the parent's objective, fits exact on both
sides, fits whose iteration count or converged flag differs, the largest
relative ``nmse_ar`` difference, identical fits) and a ``# moved:`` line
per fit whose iteration count or flag differs or whose objective is more
than ``WORSE_REL`` off the parent's.  Two fits whose objectives are both at
most ``EXACT`` are exact on both sides: their ratio is rounding noise, so
they count as neither above nor below.  A sweep also counts the artifacts
whose SHA-256 is identical.

It times nothing: speed is measured by ``bench/run.py`` in both checkouts
(README).  Run from the repository root::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/ab.py ../parent/src --config bench/configs/snr_sweep.json --trials 60
    python3 tools/ab.py ../parent/src --shapes 2500
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
# Objectives at or below this are exact fits: between two of them the ratio is rounding noise.
EXACT = 1e-20
# Seed of the random-shape instances of --shapes.
SHAPES_SEED = 20240


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
    one row (``sweep_value <v>, trial <t>``, iterations, converged, final
    objective, ``nmse_ar``) per trial and the SHA-256 of each artifact by
    file name."""
    harness, fits, rows = package.harness, [], []
    fit, trial = harness.als_fit, harness.run_trial

    def recording_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    def recording_trial(*args, **kwargs):
        record, est = trial(*args, **kwargs), fits.pop()
        rows.append((f"sweep_value {record.sweep_value:g}, trial {record.trial}", est.iters, est.converged,
                     float(est.nmse_trace[-1]), record.nmse_ar))
        return record

    with mock.patch.object(harness, "als_fit", recording_fit), mock.patch.object(harness, "run_trial", recording_trial):
        results, summary_csv = harness.run_sweep(replace(cfg, jobs=1, output_dir=out))
        plots = harness.emit_plot_data(results, out_dir=out)
    return rows, {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                  for p in (results, summary_csv, *plots)}


def summary(rows: list[tuple]) -> list[str]:
    iters = np.array([r[1] for r in rows])
    # A noiseless fit can recover a_rx to the last bit (k = 1 at +inf dB); zeros are counted apart.
    nonzero = [r[4] for r in rows if r[4] != 0.0]
    geomean = math.exp(sum(map(math.log, nonzero)) / len(nonzero)) if nonzero else math.nan
    return [
        f"fits {len(rows)}",
        f"iters total {iters.sum()} p50 {np.percentile(iters, 50):g} p90 {np.percentile(iters, 90):g} max {iters.max()}",
        f"capped {sum(not r[2] for r in rows)}",
        f"nmse_ar geomean {geomean:.8g} over nonzero fits, exactly zero {len(rows) - len(nonzero)}",
    ]


def objective_ratio(objective: float, parent: float) -> float:
    """The change's objective over the parent's: 1 where both fits are exact
    (at most ``EXACT``), inf where only the parent's objective is zero."""
    if max(objective, parent) <= EXACT:
        return 1.0
    return objective / parent if parent else math.inf


def compare(rows: list[tuple], parent: list[tuple]) -> list[str]:
    """The ``# against:`` and ``# moved:`` lines of the change's rows against
    the parent's.  Raises ``ValueError`` unless the rows pair up by label."""
    pairs = list(zip(rows, parent, strict=True))
    for r, p in pairs:
        if r[0] != p[0]:
            raise ValueError(f"row {r[0]!r} is paired with the parent's {p[0]!r}")
    total, parent_total = sum(r[1] for r in rows), sum(p[1] for p in parent)
    ratios = [objective_ratio(r[3], p[3]) for r, p in pairs]
    worst = int(np.argmax(ratios))
    # Relative nmse_ar difference; a parent zero counts as 0 when matched exactly, else inf.
    nmse_rel = [abs(r[4] - p[4]) / abs(p[4]) if p[4] else (0.0 if r[4] == 0.0 else math.inf) for r, p in pairs]
    most = int(np.argmax(nmse_rel))
    return [
        f"# against: iters total {parent_total} -> {total} ({100.0 * (total - parent_total) / parent_total:+.1f} %)",
        f"# against: capped {sum(not p[2] for p in parent)} -> {sum(not r[2] for r in rows)}",
        f"# against: worst objective ratio {ratios[worst]:.6f} ({rows[worst][0]})",
        f"# against: objective ratio - 1 in [{min(ratios) - 1.0:.3g}, {max(ratios) - 1.0:.3g}]",
        f"# against: fits more than {WORSE_REL:g} above the parent's objective {sum(q > 1.0 + WORSE_REL for q in ratios)}",
        f"# against: fits more than {WORSE_REL:g} below the parent's objective {sum(q < 1.0 - WORSE_REL for q in ratios)}",
        f"# against: fits exact on both sides (objective <= {EXACT:g}) {sum(max(r[3], p[3]) <= EXACT for r, p in pairs)}",
        f"# against: fits with a different iteration count {sum(r[1] != p[1] for r, p in pairs)}",
        f"# against: fits with a different converged flag {sum(r[2] != p[2] for r, p in pairs)}",
        f"# against: largest relative nmse_ar difference {nmse_rel[most]:.3g} ({rows[most][0]})",
        f"# against: fits identical {sum(r[1:] == p[1:] for r, p in pairs)} of {len(rows)}",
    ] + [
        f"# moved: {r[0]}: iters {p[1]} -> {r[1]}, converged {p[2]} -> {r[2]}, objective ratio - 1 {q - 1.0:.3g}"
        for (r, p), q in zip(pairs, ratios) if r[1:3] != p[1:3] or abs(q - 1.0) > WORSE_REL
    ]


def compare_artifacts(hashes: dict[str, str], parent: dict[str, str]) -> str:
    """The ``# against:`` line of the artifacts whose SHA-256 is the parent's, by file name."""
    return (f"# against: artifacts SHA-identical {sum(hashes.get(k) == v for k, v in parent.items())} "
            f"of {len(hashes.keys() | parent.keys())}")


def random_instances(count: int) -> list[tuple]:
    """``count`` fit instances ``(label, tensor, frame, k, a_rx)``, drawn from
    ``SHAPES_SEED`` by this checkout: ``m_r, m_t <= 4``, ``k <= min(m_r, m_t)``,
    ``max(2, m_t) <= n <= 6``, ``m_t <= p <= 8``, Es/N0 uniform in 0-40 dB,
    QPSK pilots and unit-std reflections.  Every such shape passes the
    identifiability gate."""
    sm, rng, instances = tensorisac.signal_model, np.random.default_rng(SHAPES_SEED), []
    for i in range(count):
        m_r, m_t = (int(v) for v in rng.integers(1, 5, size=2))
        k, n, p = int(rng.integers(1, min(m_r, m_t) + 1)), int(rng.integers(max(2, m_t), 7)), int(rng.integers(m_t, 9))
        snr_db = float(rng.uniform(0.0, 40.0))
        scene = sm.sample_scene(k=k, n=n, sigma=1.0, m_r=m_r, m_t=m_t, seed=[SHAPES_SEED, i, 0])
        frame = sm.sample_frame(p=p, m_t=m_t, n=n, order=4, seed=[SHAPES_SEED, i, 1])
        tensor = sm.add_noise(sm.sensing_forward(scene, frame), snr_db, seed=[SHAPES_SEED, i, 2])
        instances.append((f"m_r={m_r} m_t={m_t} k={k} n={n} p={p} {snr_db:.1f} dB", tensor, frame, k, scene.a_rx))
    return instances


def fit_instances(package, instances: list[tuple]) -> list[tuple]:
    """One row (label, iterations, converged, final objective, ``nmse_ar``)
    per instance, fitted by ``package``'s ``als_fit`` with its default
    config seeded by the instance index; ``nmse_ar`` as ``run_trial`` scores
    it, after ambiguity removal and alignment against the instance's ``a_rx``."""
    als, rows = package.sensing_als, []
    for i, (label, tensor, frame, k, a_rx) in enumerate(instances):
        est = als.als_fit(tensor, frame, k, als.AlsConfig(init_seed=i))
        a_rx_hat = als.remove_sensing_ambiguity(est).a_rx_hat
        nmse_ar = package.harness.nmse(a_rx_hat[:, list(als.align_permutation(a_rx_hat, a_rx))], a_rx)
        rows.append((label, est.iters, est.converged, float(est.nmse_trace[-1]), nmse_ar))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the other checkout's src directory")
    parser.add_argument("--config", default=None, help="experiment config (JSON); default: bench/configs/snr_sweep.json")
    parser.add_argument("--trials", type=int, default=None, help="trials per grid point (default: from config)")
    parser.add_argument("--shapes", type=int, default=None,
                        help="fit this many seeded random-shape instances instead of the config's sweep")
    args = parser.parse_args(argv)
    if not (args.parent_src / "tensorisac" / "__init__.py").is_file():
        parser.error(f"{args.parent_src} holds no tensorisac package")
    if args.shapes is not None and args.shapes < 1:
        parser.error(f"--shapes must be at least 1, got {args.shapes}")
    if args.shapes is not None and (args.config, args.trials) != (None, None):
        parser.error("--shapes fits no sweep: it takes neither --config nor --trials")
    sides = {"parent": load_package(args.parent_src.resolve(), "tensorisac_parent"), "change": tensorisac}
    extra = []
    if args.shapes is not None:
        instances = random_instances(args.shapes)
        rows = {name: fit_instances(package, instances) for name, package in sides.items()}
    else:
        config = ROOT / "bench" / "configs" / "snr_sweep.json" if args.config is None else args.config
        cfgs = {}
        for name, package in sides.items():
            try:
                cfg = package.harness.load_config(config)
                cfgs[name] = replace(cfg, trials=cfg.trials if args.trials is None else args.trials)
                cfgs[name].validate()
            except (package.exceptions.ConfigError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        with tempfile.TemporaryDirectory() as work:
            runs = {name: replay(package, cfgs[name], f"{work}/{name}") for name, package in sides.items()}
        rows = {name: run[0] for name, run in runs.items()}
        extra.append(compare_artifacts(runs["change"][1], runs["parent"][1]))
    for name in sides:
        print("\n".join(f"# {name}: {line}" for line in summary(rows[name])))
    print("\n".join(extra + compare(rows["change"], rows["parent"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
