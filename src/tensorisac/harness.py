"""Monte Carlo experiment harness: configuration, metrics, sweeps, CSV output.

A sweep varies one quantity (``es_n0`` in dB, or one of the dimensions
``n``, ``p``, ``m_u``) over a sorted grid and runs a fixed number of
independent trials per grid point.  Every trial seeds its own generators
from ``(base_seed, sweep value, trial index)``, so results are reproducible
run to run and independent of execution order; trials may therefore be
dispatched to worker processes without affecting output.  A pool starts all
its workers at once, so its size is the smallest of ``jobs``, ``os.cpu_count()``
and the number of ``TASK_CHUNK``-trial chunks; when that is 1, none is opened.

Artifacts per sweep:

* ``results.csv``: one row per trial, with the fields of
  :class:`MetricsRecord` as columns in field order (``CSV_COLUMNS``:
  ``sweep_var, sweep_value, trial, seed, converged``, then the metric
  columns ``METRIC_COLUMNS``), followed by one summary row per grid point
  (``trial`` = -1, metric columns hold the across-trial median,
  ``converged`` holds the count of converged trials).
* ``summary.csv``: per grid point, median and mean of every metric column.

Floats are written with 17 significant digits, so reruns with the same
config are byte-identical.  ``ExperimentConfig.validate`` builds each grid
point once (a :class:`GridPoint`: config, sweep value, comm link) and its
trials all read it; a point's medians and means are one reduction each.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from .comm_krf import semi_blind_receive, zf_channel_energy, zf_detect
from .exceptions import ConfigError
from .sensing_als import (
    ALIGN_MAX_COLUMNS,
    AlsConfig,
    align_permutation,
    als_fit,
    check_identifiability,
    extract_angles,
    remove_sensing_ambiguity,
)
from .signal_model import (
    CommLink, add_noise, build_comm_link, comm_forward, krst_code, noise_variance, qam_constellation, sample_frame,
    sample_scene, sensing_forward,
)

__all__ = [
    "ExperimentConfig",
    "GridPoint",
    "MetricsRecord",
    "load_config",
    "default_config",
    "nmse",
    "ser",
    "run_trial",
    "run_sweep",
    "emit_plot_data",
    "CSV_COLUMNS",
    "METRIC_COLUMNS",
]

SWEEP_VARIABLES = ("es_n0", "n", "p", "m_u")
DIMS = ("m_t", "m_r", "m_u", "p", "n", "k", "l")
ANGLES = ("sensing_aoa", "sensing_aod", "comm_aoa", "comm_aod")
SYMBOL_ATOL = 1e-9  # two symbols closer than this are the same constellation point
# Reflection std range: the energy of the sensing tensor and the fit's normal
# equations square it, and stay below the largest double (1.8e308) with a
# margin of about 1e108 for the tensor's size and the Gaussian tail.  Below
# the floor the squares leave the normal doubles (from 2.2e-308): at 1e-160
# nmse_gamma reads inf, at 1e-200 every trial fails.
GAMMA_STD_MIN, GAMMA_STD_MAX = 1e-100, 1e100
# Nonzero path gain magnitudes, alike: at 1e-155 the noiseless ser_zf read 0.625.
COMM_GAIN_MIN, COMM_GAIN_MAX = GAMMA_STD_MIN, GAMMA_STD_MAX
# Noise variance N0 per link: at most NOISE_MAX * min(1, signal power), the
# power being gamma_std**2 or the smallest channel column energy.  The sensing
# tensor's energy overflowed from N0 ~ 1e307, nmse_gamma and nmse_h (about N0
# over the power) from a ratio of ~ 1e308: a 1e58 margin.
NOISE_MAX = 1e250
# Trials per task sent to a worker process when jobs > 1.
TASK_CHUNK = 16


# ------------------------------ configuration ------------------------------ #

@dataclass
class ExperimentConfig:
    """Experiment description, judged by :meth:`validate`; each field's annotation names its parser."""

    m_t: int = 2
    m_r: int = 2
    m_u: int = 2
    p: int = 8
    n: int = 3
    k: int = 2
    l: int = 1
    sensing_aoa: list[float] = field(default_factory=lambda: [15.0, 27.0])
    sensing_aod: list[float] = field(default_factory=lambda: [-37.0, 65.0])
    comm_aoa: list[float] = field(default_factory=lambda: [78.0])
    comm_aod: list[float] = field(default_factory=lambda: [25.0])
    comm_gains: list[complex] = field(default_factory=lambda: [1.0 + 0.0j])
    constellation: int = 4
    gamma_std: float = 1.0
    sweep_variable: str = "es_n0"
    sweep_values: list[float] = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    es_n0_db: float = 10.0
    trials: int = 100
    base_seed: int = 20240721
    als: AlsConfig = field(default_factory=AlsConfig)
    output_dir: str = "results"
    jobs: int = 1

    def validate(self) -> list[GridPoint]:
        """Build the grid points, in grid order, that :func:`run_sweep` runs.

        Raises :class:`ConfigError` naming every violated requirement: the one check of values,
        for loaded and in-code configs alike, NaN and infinities included.  Types come first: an
        integer field must hold an integer (not a boolean), any other field must pass the file
        parser of its annotation (``_PARSERS``).  Each point is then built and judged by the
        functions its trials rely on (``check_identifiability``, ``krst_code``, ``build_comm_link``,
        ``zf_channel_energy``, ``noise_variance``), by each link's noise floor (``NOISE_MAX``) and
        by ``p >= 2`` (the SERs score symbol rows ``1 .. p-1``); the first error is reported."""
        ints = {f.name: getattr(self, f.name) for f in fields(self) if f.type == "int"}
        wrong_types = [f"{name} must be an integer, got {v!r}" for name, v in ints.items()
                       if isinstance(v, bool) or not isinstance(v, numbers.Integral)]
        for f in fields(self):
            if f.type != "int" and f.type in _PARSERS:
                try:
                    _PARSERS[f.type](getattr(self, f.name))
                except (TypeError, ValueError, OverflowError) as exc:
                    wrong_types.append(f"{f.name}: {exc}")
        if wrong_types:
            raise ConfigError("; ".join(wrong_types))
        problems = [f"{name} must be at least 1" for name in DIMS + ("trials", "jobs") if ints[name] < 1]
        if self.k > ALIGN_MAX_COLUMNS:
            problems.append(f"k must be at most {ALIGN_MAX_COLUMNS}, the exhaustive alignment's column cap")
        if len(self.sensing_aoa) != self.k or len(self.sensing_aod) != self.k:
            problems.append("sensing angle lists must have one entry per target (k)")
        if len(self.comm_aoa) != self.l or len(self.comm_aod) != self.l:
            problems.append("comm angle lists must have one entry per path (l)")
        if len(self.comm_gains) != self.l:
            problems.append("comm_gains must have one entry per path (l)")
        for name in ANGLES:
            outside = [a for a in getattr(self, name) if not -90.0 < a < 90.0]
            problems += [f"{name}: angle {a} outside the open interval (-90, 90)" for a in outside]
        try:
            qam_constellation(self.constellation)
        except ValueError as exc:
            problems.append(str(exc))
        if not 0 < self.gamma_std < math.inf:
            problems.append("gamma_std must be positive and finite")
        elif self.gamma_std > GAMMA_STD_MAX:
            problems.append(f"gamma_std must be at most {GAMMA_STD_MAX:g}, or the sensing tensor overflows")
        elif self.gamma_std < GAMMA_STD_MIN:
            problems.append(f"gamma_std must be at least {GAMMA_STD_MIN:g}, or its squares underflow")
        # Restates noise_variance's NaN/-inf rule to name the field among all problems; overflow is judged per point.
        if not (math.isfinite(self.es_n0_db) or self.es_n0_db == math.inf):
            problems.append("es_n0_db must be finite or +inf")
        if not all(map(cmath.isfinite, self.comm_gains)):
            problems.append("comm_gains must be finite")
        elif not all(g == 0.0 or COMM_GAIN_MIN <= abs(g) <= COMM_GAIN_MAX for g in self.comm_gains):
            problems.append(f"nonzero comm_gains magnitudes must lie in [{COMM_GAIN_MIN:g}, {COMM_GAIN_MAX:g}], "
                            "or the comm link's squares underflow or overflow")
        if self.base_seed < 0:
            problems.append("base_seed must be non-negative")
        if not self.output_dir:
            # run_sweep would fail in os.makedirs("") after validating.
            problems.append("output_dir must be a non-empty path")
        if not isinstance(self.als, AlsConfig):
            problems.append(f"als must be an AlsConfig, got {type(self.als).__name__}")
        if self.sweep_variable not in SWEEP_VARIABLES:
            problems.append(f"sweep variable must be one of {SWEEP_VARIABLES}")
        values = list(self.sweep_values)
        noise_sweep = self.sweep_variable == "es_n0"
        non_finite = [v for v in values if not (math.isfinite(v) or (noise_sweep and v == math.inf))]
        keys = [_sweep_key(v) for v in values]
        if not values:
            problems.append("sweep values must be non-empty")
        elif non_finite:
            rule = "finite or +inf" if noise_sweep else "finite"
            problems.append(f"sweep values must be {rule} when sweeping {self.sweep_variable}: {non_finite}")
        elif None in keys:
            unkeyed = [v for v, key in zip(values, keys) if key is None]
            problems.append(f"sweep values must lie in about [-2.8e8, 1.15e12) to have a seed key: {unkeyed}")
        elif any(a >= b for a, b in pairwise(keys)):
            # Two values with one seed key would run the same draws.
            problems.append("sweep values must be sorted strictly ascending, at least 1e-6 apart")
        elif not noise_sweep:
            problems += [f"sweep.values: {v!r} is not an integer" for v in values if v != int(v)]
        if problems:
            raise ConfigError("; ".join(problems))
        points = []
        for value in values:
            swept = {"es_n0_db": float(value)} if noise_sweep else {self.sweep_variable: int(value)}
            pt = replace(self, **swept)
            try:
                check_identifiability(pt.m_r, pt.m_t, pt.p, pt.n, pt.k)
                krst_code(pt.n, pt.m_t)
                link = build_comm_link(pt.comm_aoa, pt.comm_aod, pt.comm_gains, m_u=pt.m_u, m_t=pt.m_t)
                comm_power = zf_channel_energy(link.h).min()
                n0 = noise_variance(pt.es_n0_db)
                for name, signal in (("sensing", pt.gamma_std**2), ("comm", comm_power)):
                    if n0 > NOISE_MAX * min(signal, 1.0):
                        raise ValueError(f"{name} link noise variance {n0:.3g} exceeds {NOISE_MAX:g} * "
                                         f"min(1, signal power {signal:.3g}), so it overflows")
                if pt.p < 2:
                    raise ValueError("p must be at least 2: SER scores symbol rows 1..p-1, "
                                     "since row 0 is the semi-blind receiver's known reference")
            except ValueError as exc:
                raise ConfigError(f"sweep point {self.sweep_variable}={value}: {exc}") from exc
            points.append(GridPoint(pt, value, link))
        return points


class GridPoint(NamedTuple):
    """A sweep point as :meth:`ExperimentConfig.validate` builds it for its trials: the config
    with the swept quantity set, the sweep value and the comm link."""

    cfg: ExperimentConfig
    value: float
    link: CommLink


def _int(value) -> int:
    """``int(value)``, unless ``value`` is a string, a boolean or a fractional number."""
    if isinstance(value, (str, bool)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    """``float(value)``, unless ``value`` is a string or a boolean."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"could not convert {value!r} to a number")
    return float(value)


def _str(value) -> str:
    """``value``, unless it is not a string (``null`` and numbers included)."""
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _floats(values) -> list[float]:
    if isinstance(values, str):
        raise ValueError(f"expected a list of numbers, got {values!r}")
    return [_float(v) for v in values]


def _as_gain(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"complex gain must be [re, im], got {value!r}")
        return complex(_float(value[0]), _float(value[1]))
    return value if isinstance(value, complex) else complex(_float(value), 0.0)


# Field annotation -> parser of a file value; validate runs the same parsers,
# "int" excepted (its in-code rule is stricter), on a config built in code.
# A parser checks the type only; AlsConfig and validate judge the values.
_PARSERS = {"int": _int, "float": _float, "str": _str, "list[float]": _floats,
            "list[complex]": lambda gains: [_as_gain(g) for g in gains]}
# Field name -> annotation, for the fields of ExperimentConfig and AlsConfig.
_FIELD_TYPES = {f.name: f.type for cls in (ExperimentConfig, AlsConfig) for f in fields(cls)}
# File key -> field; a nested object maps each subkey the same way.
_SCHEMA = {
    "dims": {name: name for name in DIMS},
    "angles": {name: name for name in ANGLES},
    "sweep": {"variable": "sweep_variable", "values": "sweep_values"},
    "als": {f.name: f.name for f in fields(AlsConfig)},
    **{name: name for name in ("comm_gains", "constellation", "gamma_std", "es_n0_db", "trials", "base_seed",
                               "output_dir", "jobs")},
}


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment file.

    Every key of ``_SCHEMA`` (README describes each one) is optional.  One
    pass in file order parses each value by its field's annotation
    (``_PARSERS``), checking JSON types only, and reports the first error
    with its key (``dims.p: ...``): an unknown key, a string or a boolean
    where a number is due, a non-string where a string is due, anything but
    a whole number (NaN and infinities included) in an integer key, or a
    value that does not parse.  The values are then judged as in a config
    built in code, by :class:`AlsConfig` (``als section: ...``) and
    :meth:`ExperimentConfig.validate`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in raw.items():
        spec = _SCHEMA[key]
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object")
            bad = set(value) - set(spec)
            if bad:
                raise ConfigError(f"unknown keys under {key}: {sorted(bad)}")
            entries = [(f"{key}.{sub}", spec[sub], v) for sub, v in value.items()]
        else:
            entries = [(key, spec, value)]
        parsed = {}
        for name, target, v in entries:
            try:
                parsed[target] = _PARSERS[_FIELD_TYPES[target]](v)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        if key == "als":
            try:
                parsed = {"als": AlsConfig(**parsed)}
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"als section: {exc}") from exc
        kwargs.update(parsed)
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def default_config() -> ExperimentConfig:
    """The reference experiment: 2x2 arrays, 2 targets, 3 slots, 8 symbols, 4-QAM."""
    cfg = ExperimentConfig()
    cfg.validate()
    return cfg


# --------------------------------- metrics --------------------------------- #

def nmse(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Normalized squared error ``|x_hat - x_true|_F^2 / |x_true|_F^2``."""
    x_hat = np.asarray(x_hat)
    x_true = np.asarray(x_true)
    if x_hat.shape != x_true.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_true.shape}")
    denom = np.vdot(x_true, x_true).real
    if denom == 0.0:
        raise ValueError("nmse undefined for an all-zero reference")
    diff = x_hat - x_true
    return float(np.vdot(diff, diff).real / denom)


def ser(s_hat: np.ndarray, s_true: np.ndarray) -> float:
    """Fraction of entries whose detected symbol differs from the truth."""
    s_hat = np.asarray(s_hat)
    s_true = np.asarray(s_true)
    if s_hat.shape != s_true.shape:
        raise ValueError(f"shape mismatch: {s_hat.shape} vs {s_true.shape}")
    if s_true.size == 0:
        raise ValueError("no symbols to score")
    return np.count_nonzero(np.abs(s_hat - s_true) > SYMBOL_ATOL) / s_true.size


@dataclass
class MetricsRecord:
    """One ``results.csv`` row; the field order is the column order."""

    sweep_var: str
    sweep_value: float
    trial: int
    seed: int
    converged: bool
    als_iters: int
    nmse_ar: float
    nmse_at: float
    nmse_gamma: float
    angle_rmse_deg: float
    nmse_h: float
    ser_krf: float
    ser_zf: float


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))
# The per-trial metrics: every column after ``converged``.
METRIC_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("converged") + 1 :]


# ------------------------------- trial driver ------------------------------- #

def _sweep_key(value: float) -> int | None:
    """Seed key of a grid value: its micro-units offset by 2**48, in [0, 2**60) for
    a finite value, 2**60 for +inf (the noiseless sentinel), None if out of range."""
    if value == math.inf:
        return 2**60
    micro = float(value) * 1e6
    return int(round(micro)) + 2**48 if -(2**48) <= micro < 2**60 - 2**48 else None


def _trial_seeds(base_seed: int, sweep_value: float, trial: int) -> np.ndarray:
    ss = np.random.SeedSequence([int(base_seed), _sweep_key(sweep_value), int(trial)])
    return ss.generate_state(5, dtype=np.uint32)


def run_trial(point: GridPoint, trial: int) -> MetricsRecord:
    """One independent trial at a grid point (config, sweep value, comm link) from ``validate``.

    Draws scene, frame and noise from seeds derived from
    ``(base_seed, sweep value, trial index)``; runs the sensing pipeline
    (fit, ambiguity removal, permutation alignment, angle extraction) and
    the communication pipeline (semi-blind receiver and the perfect-CSI
    benchmark); returns the metric record.  Both SERs score symbol rows
    ``1 .. p-1``: row 0 is the semi-blind receiver's known reference.  A fit
    that hits the iteration cap is recorded with ``converged=False``, not
    dropped.
    """
    pt, sweep_value, link = point
    scene_seed, frame_seed, sens_noise_seed, comm_noise_seed, init_seed = (
        int(s) for s in _trial_seeds(pt.base_seed, sweep_value, trial)
    )

    scene = sample_scene(
        k=pt.k, n=pt.n, sigma=pt.gamma_std, m_r=pt.m_r, m_t=pt.m_t,
        theta=pt.sensing_aoa, phi=pt.sensing_aod, seed=scene_seed,
    )
    frame = sample_frame(p=pt.p, m_t=pt.m_t, n=pt.n, order=pt.constellation, seed=frame_seed)

    y_sens = add_noise(sensing_forward(scene, frame), pt.es_n0_db, seed=sens_noise_seed)
    y_comm = add_noise(comm_forward(link, frame), pt.es_n0_db, seed=comm_noise_seed)

    est = remove_sensing_ambiguity(als_fit(y_sens, frame, pt.k, replace(pt.als, init_seed=init_seed)))
    perm = list(align_permutation(est.a_rx_hat, scene.a_rx))
    a_rx_hat, a_tx_hat, gamma_hat = est.a_rx_hat[:, perm], est.a_tx_hat[:, perm], est.gamma_hat[:, perm]
    angle_err = np.concatenate([extract_angles(a_rx_hat) - scene.theta, extract_angles(a_tx_hat) - scene.phi])

    comm = semi_blind_receive(y_comm, frame.c, frame.s_data[0, :], pt.constellation)

    return MetricsRecord(
        sweep_var=pt.sweep_variable,
        sweep_value=float(sweep_value),
        trial=trial,
        seed=scene_seed,
        converged=est.converged,
        als_iters=est.iters,
        nmse_ar=nmse(a_rx_hat, scene.a_rx),
        nmse_at=nmse(a_tx_hat, scene.a_tx),
        nmse_gamma=nmse(gamma_hat, scene.gamma),
        angle_rmse_deg=math.sqrt((angle_err**2).sum() / angle_err.size),
        nmse_h=nmse(comm.h_hat, link.h),
        ser_krf=ser(comm.s_hat[1:], frame.s_data[1:]),
        ser_zf=ser(zf_detect(comm.q, link.h, pt.constellation)[1:], frame.s_data[1:]),
    )


# ------------------------------- sweep driver ------------------------------- #

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: str, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def run_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> tuple[str, str]:
    """Run all grid points and trials; write ``results.csv`` and ``summary.csv``.

    Returns the two file paths, in ``cfg.output_dir``.  A given ``out_dir`` replaces ``output_dir``
    before :meth:`ExperimentConfig.validate` judges the config; only ``bench/run.py`` passes it,
    and it goes with ROADMAP items 1a and 8.  ``run_trial`` runs once per ``(point, trial)`` task,
    on the points ``validate`` returns.  Trials are independent; when the capped worker count (see
    above) exceeds 1, they go to a worker pool.  Records come back in task order on the ascending
    grid, so the rows are sorted by (grid point, trial) and the artifacts do not depend on ``jobs``.
    """
    if out_dir is not None:
        cfg = replace(cfg, output_dir=out_dir)
    points = cfg.validate()
    os.makedirs(cfg.output_dir, exist_ok=True)

    tasks = [(point, trial) for point in points for trial in range(cfg.trials)]
    workers = min(cfg.jobs, os.cpu_count() or 1, -(-len(tasks) // TASK_CHUNK))
    if workers > 1:
        # Imported here, so that importing the package skips the ~25 ms the pool module takes.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_trial, *zip(*tasks), chunksize=TASK_CHUNK))
    else:
        records = [run_trial(*task) for task in tasks]

    data_rows = [[_fmt(getattr(rec, col)) for col in CSV_COLUMNS] for rec in records]

    summary_rows, wide_rows = [], []
    for i, value in enumerate(cfg.sweep_values):
        group = records[i * cfg.trials : (i + 1) * cfg.trials]
        # Rows are contiguous, so each reduces as a per-metric list would.
        table = np.array([[getattr(r, m) for r in group] for m in METRIC_COLUMNS], dtype=float)
        stats = np.stack([np.median(table, axis=1), np.mean(table, axis=1)], axis=1)  # metric x (median, mean)
        n_conv = sum(1 for r in group if r.converged)
        head = [cfg.sweep_variable, _fmt(float(value))]
        summary_rows.append(head + ["-1", "0", str(n_conv)] + [_fmt(x) for x in stats[:, 0].tolist()])
        wide_rows.append(head + [str(len(group)), str(n_conv)] + [_fmt(x) for x in stats.ravel().tolist()])

    results_path = os.path.join(cfg.output_dir, "results.csv")
    _write_csv(results_path, [list(CSV_COLUMNS)] + data_rows + summary_rows)

    summary_header = ["sweep_var", "sweep_value", "n_trials", "n_converged"]
    for m in METRIC_COLUMNS:
        summary_header.extend([f"median_{m}", f"mean_{m}"])
    summary_path = os.path.join(cfg.output_dir, "summary.csv")
    _write_csv(summary_path, [summary_header] + wide_rows)
    return results_path, summary_path


# -------------------------------- plot data -------------------------------- #

def emit_plot_data(csv_path: str, out_dir: str | None = None) -> list[str]:
    """Write one two-column text file per metric from a ``results.csv``.

    Each file holds one ``sweep_value median_<metric>`` line per summary row (``trial`` = -1),
    in file order: the medians :func:`run_sweep` wrote.  Trial rows are not read.  The files go
    to ``out_dir``, by default the CSV's directory.  Raises ``ValueError`` for an ``out_dir`` that
    is empty or not a string (before the CSV is read), a wrong header, no summary row, summary
    rows without one shared sweep variable from ``SWEEP_VARIABLES``, or a cell that is not a number.
    """
    if out_dir is None:
        out_dir = os.path.dirname(os.path.abspath(csv_path))
    else:
        try:
            _str(out_dir)
        except ValueError as exc:
            raise ValueError(f"out_dir: {exc}") from None
        if not out_dir:
            raise ValueError("out_dir must be a non-empty path")
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None or list(reader.fieldnames) != list(CSV_COLUMNS):
            raise ValueError(f"{csv_path} does not have the expected column header")
        rows = [row for row in reader if int(row["trial"]) == -1]
    sweep_vars = {row["sweep_var"] for row in rows}
    if len(sweep_vars) != 1 or sweep_vars - set(SWEEP_VARIABLES):
        raise ValueError(f"{csv_path}: the summary rows (trial = -1) must share one sweep variable "
                         f"from {SWEEP_VARIABLES}, found {sorted(sweep_vars)}")
    (sweep_var,) = sweep_vars
    points = [(float(row["sweep_value"]), [float(row[m]) for m in METRIC_COLUMNS]) for row in rows]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, metric in enumerate(METRIC_COLUMNS):
        lines = [f"# {sweep_var} median_{metric}"] + [f"{value:.17g} {medians[i]:.17g}" for value, medians in points]
        path = os.path.join(out_dir, f"{metric}_vs_{sweep_var}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths
