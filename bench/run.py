#!/usr/bin/env python3
"""Benchmark for tensorisac: sweep throughput, per-frame receiver latency and
a traced per-layer breakdown.

Run from the repository root::

    python3 bench/run.py --workload snr_sweep --seed 1 --seconds 30 --trace 0

Workloads (``bench/LAYERS.md`` holds the layer/metric table):

``snr_sweep``
    The default experiment with 10 trials per grid point
    (``bench/configs/snr_sweep.json``) through ``harness.run_sweep`` and
    ``harness.emit_plot_data``, the whole grid per call.  An operation is
    one trial.
``sense_frame``
    The per-frame sensing receiver called directly (``als_fit`` ->
    ``remove_sensing_ambiguity`` -> ``align_permutation`` ->
    ``extract_angles``) on 4x4 arrays, k=3, n=4, p=64 at 15 dB.

An operation fails if it raises.  An ALS fit that stops at ``max_iters``
still returns an estimate: it is counted apart (``als_capped_frac``,
``sensing_als.capped``), and its NMSE is in the quality figures.

With ``--trace 0`` the run is untraced and the last stdout line carries the
end-to-end metrics.  With ``--trace 1`` an untraced pass and a traced pass
run the same inputs; the last line carries the per-layer metrics and the
two passes must produce byte-identical outputs.  Lines starting with ``#``
before it record the environment and every figure by name and unit.

Exit status: 0 with a result line, 1 when an output check failed (the
result line then reads ``"correct": false``), other codes without a result
line when the package cannot be loaded or an argument is invalid.
"""

from __future__ import annotations

import os

# The benchmark is one process with one BLAS thread, so that it measures the
# same work on hosts with few, shared cores; the thread count must be fixed
# before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    from tensorisac import cli, comm_krf, harness, sensing_als, signal_model, tensor_ops
except ImportError as exc:
    sys.exit(f"error: cannot import tensorisac from {SRC}: {exc}")

LAYER_MODULES = {
    "cli": cli,
    "harness": harness,
    "signal_model": signal_model,
    "sensing_als": sensing_als,
    "tensor_ops": tensor_ops,
    "comm_krf": comm_krf,
}

SYNTH = ("sample_scene", "sample_frame", "build_comm_link", "sensing_forward", "comm_forward", "add_noise")

# Public functions wrapped by the traced pass, by defining module.
TRACED = (
    ("harness", ("run_sweep", "run_trial", "emit_plot_data")),
    ("sensing_als", (
        "als_fit", "build_right_factor", "estimate_rx_steering", "estimate_tx_steering",
        "estimate_reflections", "remove_sensing_ambiguity", "align_permutation", "extract_angles",
    )),
    ("tensor_ops", ("pinv", "kronecker", "row_diag", "khatri_rao", "best_rank_one")),
    ("signal_model", SYNTH),
    ("comm_krf", ("semi_blind_receive", "zf_benchmark")),
)

SETUP_REPEATS = 7         # fresh-process `tensorisac check` runs behind setup_s
ANGLE_HIT_DEG = 1.0       # an angle estimate within this many degrees is a hit

# On a shared machine the host speed changes from minute to minute with the
# load of other tenants, by more than the bounds the metrics need.
# Each pass therefore probes the host speed after every CAL_WINDOW_S of timed
# work: it times a fixed numpy/Python kernel that uses no tensorisac code
# CAL_PROBES times and keeps the fastest, as load only ever adds time.  The
# timings of a window are scaled by CAL_REF_S / (the median probe of that
# window and its CAL_SMOOTH neighbours on either side), which follows the
# host's drift within a pass while no single probe sways a window: they read
# as times on the host at its reference speed.  Raw timings are reported
# too.  A pass whose probe times spread (IQR / median) by more than
# CAL_SPREAD_WARN is flagged: the host changed speed within it, so its
# scaled figures are less trustworthy.
CAL_WINDOW_S = 0.5
CAL_PROBES = 3
CAL_SMOOTH = 2
CAL_REF_S = 0.008         # probe time on the reference host, quiet
CAL_SPREAD_WARN = 0.25

_cal_rng = np.random.default_rng(12345)
CAL_SMALL, CAL_TALL, CAL_WIDE = (
    _cal_rng.standard_normal(shape) + 1j * _cal_rng.standard_normal(shape)
    for shape in ((6, 4), (1024, 12), (8, 1024))
)


def calibration_seconds() -> float:
    """Probe the host speed: the fastest of CAL_PROBES runs of a kernel of
    small and tall pseudoinverses, Kronecker products of diagonals and a
    nearest-point search, the three kinds of work the workloads do."""
    times = []
    for _ in range(CAL_PROBES):
        start = time.perf_counter()
        for _ in range(80):
            np.linalg.pinv(CAL_SMALL)
            np.kron(np.diag(CAL_SMALL[0]), CAL_SMALL)
        for _ in range(2):
            np.linalg.pinv(CAL_TALL)
        np.abs(CAL_WIDE[:, :, None] - CAL_WIDE[:, None, :16]).argmin(axis=2)
        times.append(time.perf_counter() - start)
    return min(times)


# Operations every untraced run completes, whatever --seconds says, so that
# the quality figures cover the same inputs on every run with one seed.
MIN_OPS = {"snr_sweep": 630, "sense_frame": 600}


# --------------------------------- tracing --------------------------------- #

@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0
    times: list | None = None

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Count and time calls to named public functions while active.

    ``from .x import f`` copies the binding, so each function is replaced
    at every package module that binds it: the defining module catches
    direct calls, importing modules catch their own internal calls (for
    example ``sensing_als.pinv``).  A name no module defines any more is
    listed in ``absent`` and its figures read 0.  Every binding is restored
    on exit.  A span's self time excludes the time of traced calls made
    inside it.  ``after_call = (key, hook)`` runs ``hook(elapsed)`` after
    each call of ``key`` that returns; its time is kept out of every span,
    the enclosing ones included.
    """

    def __init__(self, targets, keep_times=()):
        self.targets = targets
        self.keep_times = set(keep_times)
        self.after_call: tuple[str, object] | None = None
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self.fits: list[tuple[int, bool]] = []
        self.pinv_elems = 0
        self._stack: list[float] = []
        self._paused = [0.0]        # total time spent in after_call hooks
        self._patches: list = []

    def __enter__(self) -> "Tracer":
        try:
            for layer, names in self.targets:
                home = LAYER_MODULES[layer]
                for name in names:
                    key = f"{layer}.{name}"
                    span = self.spans[key] = Span(times=[] if key in self.keep_times else None)
                    original = getattr(home, name, None)
                    if not callable(original):
                        self.absent.append(key)
                        continue
                    wrapper = self._wrap(key, span, original)
                    for module in LAYER_MODULES.values():
                        if module.__dict__.get(name) is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def _observe(self, key: str, args, result) -> None:
        if key == "sensing_als.als_fit":
            self.fits.append((int(result.iters), bool(result.converged)))
        elif key == "tensor_ops.pinv":
            self.pinv_elems += int(np.size(args[0]))

    def _wrap(self, key: str, span: Span, fn):
        stack, paused = self._stack, self._paused
        clock = time.perf_counter
        observe = self._observe if key in ("sensing_als.als_fit", "tensor_ops.pinv") else None
        hook = self.after_call[1] if self.after_call and self.after_call[0] == key else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            paused_before = paused[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start - (paused[0] - paused_before)
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.child += child
                if span.times is not None:
                    span.times.append(elapsed)
            if observe is not None:
                observe(key, args, result)
            if hook is not None:
                hook_start = clock()
                hook(elapsed)
                paused[0] += clock() - hook_start
            return result

        return traced


# -------------------------------- workloads -------------------------------- #

@dataclass
class Outcome:
    """What the measured operations produced, gathered outside the timed region."""

    ops: int = 0
    failed: int = 0                                # operations that raised
    capped: int = 0                                # ALS fits stopped at max_iters
    timed_s: float = 0.0
    op_ms: list = field(default_factory=list)
    win_s: list = field(default_factory=list)      # timed seconds per window
    win_ops: list = field(default_factory=list)    # len(op_ms) at each window's end
    cal_s: list = field(default_factory=list)      # host-speed probe after each window
    nmse: list = field(default_factory=list)
    ser_krf: list = field(default_factory=list)
    ser_zf: list = field(default_factory=list)
    angle_hits: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def window_scales(self) -> list[float]:
        """Factors that turn each window's raw times into reference-speed times."""
        k = CAL_SMOOTH
        return [CAL_REF_S / statistics.median(self.cal_s[max(0, i - k):i + k + 1]) for i in range(len(self.cal_s))]

    @property
    def scaled_s(self) -> float:
        return sum(w * scale for w, scale in zip(self.win_s, self.window_scales()))

    def scaled_op_ms(self) -> list[float]:
        scaled, start = [], 0
        for end, scale in zip(self.win_ops, self.window_scales()):
            scaled += [t * scale for t in self.op_ms[start:end]]
            start = end
        return scaled


def op_seeds(seed: int, index: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, index]).generate_state(count)]


class SnrSweep:
    """One step is one ``run_sweep`` + ``emit_plot_data`` call over the
    config's whole grid and trial count."""

    name = "snr_sweep"

    def __init__(self, cfg, out_dir: Path):
        self.cfg = replace(cfg, jobs=1)
        self.out_dir = out_dir
        self.ops_per_step = len(cfg.sweep_values) * cfg.trials

    def step(self, seed: int, index: int):
        cfg = replace(self.cfg, base_seed=op_seeds(seed, index, 1)[0])
        out = str(self.out_dir / f"sweep{index:05d}")
        results, summary = harness.run_sweep(cfg, out_dir=out)
        plots = harness.emit_plot_data(results, out_dir=out)
        return results, summary, plots

    def evaluate(self, raw, outcome: Outcome) -> None:
        results, summary, plots = raw
        for path in (results, summary, *plots):
            with open(path, "rb") as fh:
                outcome.digest.update(fh.read())
        with open(results, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        trials = [r for r in rows if int(r["trial"]) >= 0]
        if len(trials) != self.ops_per_step or len(rows) != self.ops_per_step + len(self.cfg.sweep_values):
            outcome.problems.append(f"{results}: {len(trials)} trial rows, {len(rows)} rows")
        with open(summary, newline="", encoding="utf-8") as fh:
            if len(list(csv.reader(fh))) != 1 + len(self.cfg.sweep_values):
                outcome.problems.append(f"{summary}: wrong row count")
        for path in plots:
            with open(path, encoding="utf-8") as fh:
                if len(fh.read().splitlines()) != 1 + len(self.cfg.sweep_values):
                    outcome.problems.append(f"{path}: wrong line count")
        for row in trials:
            values = [float(v) for k, v in row.items() if k not in ("sweep_var", "converged")]
            if not all(math.isfinite(v) for v in values):
                outcome.problems.append(f"{results}: non-finite value in trial {row['trial']}")
            outcome.capped += row["converged"] != "true"
            outcome.nmse.append(float(row["nmse_ar"]))
            outcome.ser_krf.append(float(row["ser_krf"]))
            outcome.ser_zf.append(float(row["ser_zf"]))


class SenseFrame:
    """One step is one noisy sensing frame through the sensing receiver."""

    name = "sense_frame"
    ops_per_step = 1

    def __init__(self, cfg, out_dir: Path):
        self.cfg = cfg

    def step(self, seed: int, index: int):
        c = self.cfg
        scene_seed, frame_seed, noise_seed, init_seed = op_seeds(seed, index, 4)
        scene = signal_model.sample_scene(
            k=c.k, n=c.n, sigma=c.gamma_std, m_r=c.m_r, m_t=c.m_t,
            theta=c.sensing_aoa, phi=c.sensing_aod, seed=scene_seed,
        )
        frame = signal_model.sample_frame(p=c.p, m_t=c.m_t, n=c.n, order=c.constellation, seed=frame_seed)
        y = signal_model.add_noise(signal_model.sensing_forward(scene, frame), c.es_n0_db, seed=noise_seed)
        est = sensing_als.als_fit(y, frame, c.k, replace(c.als, init_seed=init_seed))
        est = sensing_als.remove_sensing_ambiguity(est)
        a_rx_true = scene.rx_steering()
        perm = list(sensing_als.align_permutation(est.a_rx_hat, a_rx_true))
        # One column at a time keeps each target's theta/phi pair together.
        theta = [sensing_als.extract_angles(est.a_rx_hat[:, [j]])[0] for j in perm]
        phi = [sensing_als.extract_angles(est.a_tx_hat[:, [j]])[0] for j in perm]
        return scene, a_rx_true, est, perm, np.array(theta), np.array(phi)

    def evaluate(self, raw, outcome: Outcome) -> None:
        scene, a_rx_true, est, perm, theta, phi = raw
        for arr in (est.a_rx_hat, est.a_tx_hat, est.gamma_hat, theta, phi):
            outcome.digest.update(np.ascontiguousarray(arr).tobytes())
        outcome.capped += not est.converged
        outcome.nmse.append(harness.nmse(est.a_rx_hat[:, perm], a_rx_true))
        err = np.concatenate([theta - scene.theta, phi - scene.phi])
        outcome.angle_hits.append(bool(np.all(np.abs(err) < ANGLE_HIT_DEG)))
        if not (np.all(np.isfinite(err)) and math.isfinite(outcome.nmse[-1])):
            outcome.problems.append("non-finite sensing estimate")


WORKLOADS = {w.name: w for w in (SnrSweep, SenseFrame)}


class HostProbe:
    """Close a window and probe the host speed after every CAL_WINDOW_S of
    timed work.  ``tick`` adds timed work; the probes' own time is kept in
    ``spent_s`` so that the caller can take it out of a timing that
    enclosed them."""

    def __init__(self, outcome: Outcome, timings):
        self.outcome = outcome
        self.timings = timings      # the operation timings taken so far
        self.window_s = 0.0
        self.ticked_s = 0.0
        self.spent_s = 0.0

    def tick(self, elapsed: float) -> None:
        self.window_s += elapsed
        self.ticked_s += elapsed
        if self.window_s >= CAL_WINDOW_S:
            self.close()

    def close(self) -> None:
        start = time.perf_counter()
        self.outcome.win_s.append(self.window_s)
        self.outcome.win_ops.append(len(self.timings()))
        self.outcome.cal_s.append(calibration_seconds())
        self.window_s = 0.0
        self.spent_s += time.perf_counter() - start


def run_pass(workload, seed: int, *, seconds: float = 0.0, min_ops: int = 1,
             steps: int | None = None, tracer: Tracer | None = None) -> tuple[Outcome, int]:
    """Run steps until ``seconds`` of timed work and ``min_ops`` operations
    are done, or exactly ``steps`` steps; only ``step`` is timed."""
    outcome = Outcome()
    trial_clock = None
    probe = HostProbe(outcome, lambda: outcome.op_ms)
    if isinstance(workload, SnrSweep):
        if tracer is None:
            # Untraced sweeps still need per-trial latency: one clock pair per
            # trial.  The output checks require one timing per operation, so a
            # sweep that stops calling run_trial fails instead of reading 0.
            trial_clock = Tracer([("harness", ("run_trial",))], keep_times={"harness.run_trial"})
            probe.timings = lambda: trial_clock.spans["harness.run_trial"].times
        # A sweep step lasts seconds, so the host is also probed between its
        # trials, as often as between the frames of the other workloads.
        (tracer or trial_clock).after_call = ("harness.run_trial", probe.tick)
    index = 0
    with tracer or trial_clock or contextlib.nullcontext():
        while (index < steps) if steps is not None else (outcome.timed_s < seconds or outcome.ops < min_ops):
            ticked, probe.spent_s = probe.ticked_s, 0.0
            start = time.perf_counter()
            try:
                raw = workload.step(seed, index)
            except Exception:
                raw, failure = None, traceback.format_exc()
            elapsed = time.perf_counter() - start - probe.spent_s
            if raw is None:
                sys.stderr.write(failure)
                outcome.failed += workload.ops_per_step
                outcome.digest.update(b"raised")
            outcome.timed_s += elapsed
            outcome.ops += workload.ops_per_step
            if trial_clock is None and workload.ops_per_step == 1:
                outcome.op_ms.append(1000.0 * elapsed)
            probe.tick(elapsed - (probe.ticked_s - ticked))   # the part not ticked within the step
            if raw is not None:
                workload.evaluate(raw, outcome)
            index += 1
        if probe.window_s > 0.0 or not outcome.cal_s:
            probe.close()
    if trial_clock is not None:
        outcome.op_ms = [1000.0 * t for t in probe.timings()]
        outcome.problems += [f"{key} is not called any more: trial latency is unmeasured" for key in trial_clock.absent]
    if tracer is None and len(outcome.op_ms) != outcome.ops:
        outcome.problems.append(f"{len(outcome.op_ms)} operation timings for {outcome.ops} operations")
    return outcome, index


# ------------------------------ output checks ------------------------------ #

def spot_checks(seed: int, comm_cfg) -> list[str]:
    """One noiseless frame per receiver, checked against exact recovery.

    The sensing frame is one of acceptance criterion 02's instances, fitted
    with its restart setting; it must reach a reconstruction error below
    1e-10.  The comm frame (m_u=8, m_t=4, n=8, p=256, 16-QAM, 3 paths) must
    decode with zero symbol errors.
    """
    problems = []
    s = seed % 20
    scene = signal_model.sample_scene(k=2, n=3, sigma=1.0, m_r=2, m_t=2,
                                      theta=[15.0, 27.0], phi=[-37.0, 65.0], seed=s)
    frame = signal_model.sample_frame(p=8, m_t=2, n=3, order=4, seed=s + 10_000)
    est = sensing_als.als_fit(signal_model.sensing_forward(scene, frame), frame, 2,
                              sensing_als.AlsConfig(init_seed=s, n_restarts=3))
    if not (est.converged and est.nmse_trace[-1] < 1e-10):
        problems.append(f"noiseless sensing spot frame {s}: reconstruction {est.nmse_trace[-1]:.3e}")

    c = comm_cfg
    link = signal_model.build_comm_link(c.comm_aoa, c.comm_aod, c.comm_gains, m_u=c.m_u, m_t=c.m_t)
    frame = signal_model.sample_frame(p=c.p, m_t=c.m_t, n=c.n, order=c.constellation, seed=s)
    y = signal_model.comm_forward(link, frame)
    comm = comm_krf.semi_blind_receive(y, frame.c, frame.s_data[0, :], c.constellation)
    s_zf = comm_krf.zf_benchmark(y, link.h, frame.c, c.constellation)
    for label, s_hat in (("semi-blind", comm.s_hat), ("zf", s_zf)):
        if harness.ser(s_hat, frame.s_data) != 0.0:
            problems.append(f"noiseless comm spot frame {s}: {label} SER is not 0")
    return problems


def setup_seconds(config: Path) -> tuple[float, float, list[str]]:
    """Median wall time of a fresh-process ``tensorisac check`` on ``config``,
    scaled to the reference host speed and raw."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "tensorisac.cli", "check", "--config", str(config)]
    times, probes, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        probes.append(calibration_seconds())
        if proc.returncode != 0 or proc.stdout.strip() != "config ok":
            problems.append(f"tensorisac check failed: {proc.stderr.strip()}")
    raw = statistics.median(times)
    return raw * CAL_REF_S / statistics.median(probes), raw, problems


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        numpy_blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        numpy_blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": numpy_blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "op_seeds": "numpy SeedSequence([seed, step index])",
    }


# --------------------------------- metrics --------------------------------- #

def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def spread(values) -> float:
    """(q3 - q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def end_to_end(outcome: Outcome, quality_ops: int, setup_s: float) -> dict:
    q = outcome.nmse[:quality_ops]
    op_ms = outcome.scaled_op_ms()
    return {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (outcome.ops / outcome.scaled_s, "1/s"),
        "frame_ms_p50": (percentile(op_ms, 50), "ms"),
        "frame_ms_p90": (percentile(op_ms, 90), "ms"),
        "nmse_geomean": (float(np.exp(np.mean(np.log(q)))) if q else math.nan, "ratio"),
    }


def raw_figures(outcome: Outcome) -> dict:
    """Unscaled timings of a pass, with the host-speed probe behind the
    scaled ones, so that a comparison can be checked against raw times."""
    return {
        "host.raw_trials_per_s": (outcome.ops / outcome.timed_s, "1/s"),
        "host.raw_frame_ms_p50": (percentile(outcome.op_ms, 50), "ms"),
        "host.raw_frame_ms_p90": (percentile(outcome.op_ms, 90), "ms"),
        "host.probe_ms_p50": (1000.0 * percentile(outcome.cal_s, 50), "ms"),
        "host.probe_spread": (spread(outcome.cal_s), "fraction"),
    }


def unbounded_figures(outcome: Outcome, quality_ops: int) -> dict:
    """Figures printed but not reported as metrics: raw timings, and accuracy
    figures that spread too much from seed to seed for a bound or can read
    exactly 0 on some workloads.  The accuracy figures cover the first
    ``quality_ops`` operations."""
    report = {
        **raw_figures(outcome),
        "nmse_at_median": (percentile(outcome.nmse[:quality_ops], 50), "ratio"),
        "als_capped_frac": (outcome.capped / outcome.ops, "1/op"),
    }
    if outcome.angle_hits:
        report["angle_hit_frac"] = (float(np.mean(outcome.angle_hits[:quality_ops])), "fraction")
    if outcome.ser_krf:
        report["ser_krf_mean"] = (float(np.mean(outcome.ser_krf[:quality_ops])), "fraction")
        report["ser_zf_mean"] = (float(np.mean(outcome.ser_zf[:quality_ops])), "fraction")
    return report


def per_layer(tracer: Tracer, traced: Outcome, plain: Outcome) -> dict:
    """Per-operation layer figures of the traced pass; times are scaled to the
    reference host speed like the end-to-end timings.  The ``host.*``
    figures are the untraced pass's raw timings and probe."""
    sp = tracer.spans
    ops = traced.ops
    iters = [it for it, _ in tracer.fits]
    speed = traced.scaled_s / traced.timed_s
    fit_s = sp["sensing_als.als_fit"].total * speed

    def per_op(*keys, attr="total"):
        value = sum(getattr(sp[k], attr) for k in keys) / ops
        return value if attr == "calls" else value * speed

    return {
        "sensing_als.fit_s": (per_op("sensing_als.als_fit"), "s/op"),
        "sensing_als.fit_calls": (per_op("sensing_als.als_fit", attr="calls"), "1/op"),
        "sensing_als.iters_total": (sum(iters) / ops, "1/op"),
        "sensing_als.iters_p50": (percentile(iters, 50) if iters else 0.0, "count"),
        "sensing_als.iters_p90": (percentile(iters, 90) if iters else 0.0, "count"),
        "sensing_als.iters_max": (float(max(iters, default=0)), "count"),
        "sensing_als.capped": (sum(not conv for _, conv in tracer.fits) / ops, "1/op"),
        "sensing_als.ms_per_iter": (1000.0 * fit_s / sum(iters) if iters else 0.0, "ms"),
        "sensing_als.rx_step_s": (per_op("sensing_als.estimate_rx_steering"), "s/op"),
        "sensing_als.tx_step_s": (per_op("sensing_als.estimate_tx_steering"), "s/op"),
        "sensing_als.refl_step_s": (per_op("sensing_als.estimate_reflections"), "s/op"),
        "sensing_als.right_factor_s": (per_op("sensing_als.build_right_factor"), "s/op"),
        "sensing_als.post_s": (per_op("sensing_als.remove_sensing_ambiguity", "sensing_als.align_permutation"), "s/op"),
        "sensing_als.angles_s": (per_op("sensing_als.extract_angles"), "s/op"),
        "tensor_ops.pinv_calls": (per_op("tensor_ops.pinv", attr="calls"), "1/op"),
        "tensor_ops.pinv_s": (per_op("tensor_ops.pinv"), "s/op"),
        "tensor_ops.pinv_mean_elems": (tracer.pinv_elems / sp["tensor_ops.pinv"].calls if sp["tensor_ops.pinv"].calls else 0.0, "count"),
        "tensor_ops.kronecker_calls": (per_op("tensor_ops.kronecker", attr="calls"), "1/op"),
        "tensor_ops.row_diag_calls": (per_op("tensor_ops.row_diag", attr="calls"), "1/op"),
        "tensor_ops.khatri_rao_calls": (per_op("tensor_ops.khatri_rao", attr="calls"), "1/op"),
        "tensor_ops.best_rank_one_calls": (per_op("tensor_ops.best_rank_one", attr="calls"), "1/op"),
        "tensor_ops.best_rank_one_s": (per_op("tensor_ops.best_rank_one"), "s/op"),
        "signal_model.synth_s": (per_op(*(f"signal_model.{n}" for n in SYNTH)), "s/op"),
        "signal_model.calls": (per_op(*(f"signal_model.{n}" for n in SYNTH), attr="calls"), "1/op"),
        "comm_krf.semi_blind_s": (per_op("comm_krf.semi_blind_receive"), "s/op"),
        "comm_krf.zf_s": (per_op("comm_krf.zf_benchmark"), "s/op"),
        "harness.trial_self_s": (per_op("harness.run_trial", attr="self_time"), "s/op"),
        "harness.artifacts_s": (per_op("harness.run_sweep") - per_op("harness.run_trial"), "s/op"),
        "harness.plotdata_s": (per_op("harness.emit_plot_data"), "s/op"),
        "trace.overhead_frac": (traced.scaled_s / plain.scaled_s - 1.0, "fraction"),
        **raw_figures(plain),
    }


# ----------------------------------- run ----------------------------------- #

def probe_warning(label: str, outcome: Outcome) -> list[str]:
    value = spread(outcome.cal_s)
    if value <= CAL_SPREAD_WARN:
        return []
    return [f"warning: {label} host-speed probe spread {value:.3f} is above {CAL_SPREAD_WARN}; "
            "the host changed speed during the pass, so its scaled timings are less trustworthy"]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: list


def measure(name: str, seed: int, seconds: float, trace: bool, min_ops: int | None = None) -> Result:
    """Run one workload and return its checked metrics.

    ``min_ops`` overrides the workload's operation floor (``MIN_OPS``).
    """
    cfg = harness.load_config(str(CONFIGS / f"{name}.json"))
    report = [f"env {json.dumps(environment(seed))}", f"workload {name}: {json.dumps(vars(cfg), default=str)}"]
    problems = spot_checks(seed, harness.load_config(str(CONFIGS / "comm_spot.json")))
    setup_s, raw_setup_s, setup_problems = setup_seconds(CONFIGS / f"{name}.json")
    problems += setup_problems
    floor = MIN_OPS[name] if min_ops is None else min_ops
    work = WORK / f"{name}-{os.getpid()}"
    try:
        plain_wl = WORKLOADS[name](cfg, work / "plain")
        plain, steps = run_pass(plain_wl, seed, seconds=seconds / 3 if trace else seconds,
                                min_ops=1 if trace else floor)
        quality_ops = min(floor, plain.ops)
        problems += plain.problems
        metrics = end_to_end(plain, quality_ops, setup_s)
        figures = {**metrics, "host.raw_setup_s": (raw_setup_s, "s"), **unbounded_figures(plain, quality_ops)}
        report.append(f"untraced: {plain.ops} ops in {plain.timed_s:.3f} s ({plain.scaled_s:.3f} s scaled), {plain.failed} failed, "
                      f"{plain.capped} ALS fits capped at max_iters, quality over the first {quality_ops} ops")
        report += probe_warning("untraced", plain)
        report += [f"{key} = {value!r} {unit}" for key, (value, unit) in figures.items()]
        attempted, failed = plain.ops, plain.failed
        if trace:
            tracer = Tracer(TRACED)
            traced, _ = run_pass(WORKLOADS[name](cfg, work / "traced"), seed, steps=steps, tracer=tracer)
            problems += traced.problems
            identical = traced.digest.digest() == plain.digest.digest()
            if not identical:
                problems.append("traced outputs differ from untraced outputs")
            metrics = per_layer(tracer, traced, plain)
            report.append(f"traced: {traced.ops} ops in {traced.timed_s:.3f} s ({traced.scaled_s:.3f} s scaled), outputs "
                          f"{'byte-identical to' if identical else 'differ from'} the untraced pass")
            report += probe_warning("traced", traced)
            report += [f"absent (reads 0): {key}" for key in tracer.absent]
            report += [f"{key} = {value!r} {unit}" for key, (value, unit) in metrics.items()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for key, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{key} is not finite")
    report += [f"check failed: {p}" for p in problems]
    return Result(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics={key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        report=report,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.report:
        print(f"# {line}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
