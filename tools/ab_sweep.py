#!/usr/bin/env python3
"""Time this checkout's sweep against another checkout's, interleaved in one process.

Imports this checkout's ``src/tensorisac`` as ``tensorisac`` and the
package under ``PARENT_SRC`` as ``tensorisac_parent``, then runs
``run_sweep`` + ``emit_plot_data`` of a config (jobs forced to 1) once per
side and step, alternating which side goes first.  Both sides of step
``i`` use base seed ``base_seed + i``, so they run the same trials, and
host drift between separate processes cancels out of the per-step ratio.
One untimed step per side comes first, so that caches fill and lazy
set-up finishes outside the timings.

Prints one tab-separated row per step (parent seconds, change seconds,
change/parent ratio, whether the artifacts match), then ``#`` lines with
each side's median step time and trials/s, the median and interquartile
range of the ratio, the ratio of the summed times, and the number of
steps whose ``results.csv``, ``summary.csv`` and plot files are
SHA-identical between the sides.  Run from the repository root::

    python3 tools/ab_sweep.py ../parent/src --steps 40

where ``../parent`` is a checkout of the other commit.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tensorisac  # noqa: E402  (this checkout, from the path set above)


def load_package(src: Path, name: str):
    """Import ``src/tensorisac`` under the module name ``name``."""
    init = src / "tensorisac" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sweep_step(package, cfg, out: Path) -> tuple[float, dict[str, str]]:
    """Seconds for one ``run_sweep`` + ``emit_plot_data`` call, and the SHA-256 of each artifact by name."""
    start = time.perf_counter()
    results, summary = package.harness.run_sweep(cfg, out_dir=str(out))
    plots = package.harness.emit_plot_data(results, out_dir=str(out))
    elapsed = time.perf_counter() - start
    return elapsed, {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (results, summary, *plots)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the other checkout's src directory")
    parser.add_argument("--config", default=str(ROOT / "bench" / "configs" / "snr_sweep.json"),
                        help="experiment config (JSON); default: bench/configs/snr_sweep.json")
    parser.add_argument("--steps", type=int, default=40, help="timed steps per side (default: 40)")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if not (args.parent_src / "tensorisac" / "__init__.py").is_file():
        parser.error(f"{args.parent_src} holds no tensorisac package")
    sides = {"parent": load_package(args.parent_src.resolve(), "tensorisac_parent"), "change": tensorisac}
    cfgs = {name: replace(pkg.harness.load_config(args.config), jobs=1) for name, pkg in sides.items()}
    trials = len(cfgs["change"].sweep_values) * cfgs["change"].trials

    times: dict[str, list[float]] = {"parent": [], "change": []}
    identical = 0
    print("# step\tparent_s\tchange_s\tratio\tidentical")
    with tempfile.TemporaryDirectory() as work:
        for step in range(-1, args.steps):
            order = ("parent", "change") if step % 2 == 0 else ("change", "parent")
            timed = {}
            for name in order:
                cfg = replace(cfgs[name], base_seed=cfgs[name].base_seed + max(step, 0))
                timed[name] = sweep_step(sides[name], cfg, Path(work) / f"{name}{step}")
            if step < 0:
                continue
            same = timed["parent"][1] == timed["change"][1]
            identical += same
            for name in times:
                times[name].append(timed[name][0])
            print(f"{step}\t{timed['parent'][0]:.6f}\t{timed['change'][0]:.6f}\t"
                  f"{timed['change'][0] / timed['parent'][0]:.4f}\t{'yes' if same else 'no'}")

    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    for name in ("parent", "change"):
        median = statistics.median(times[name])
        print(f"# {name}: median step {median:.4f} s, {trials / median:.1f} trials/s ({trials} trials per step)")
    print(f"# ratio change/parent: median {q2:.4f}, IQR [{q1:.4f}, {q3:.4f}], "
          f"summed times {sum(times['change']) / sum(times['parent']):.4f}")
    print(f"# artifacts SHA-identical in {identical} of {args.steps} steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
