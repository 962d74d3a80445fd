"""Monte Carlo experiment harness: configuration, metrics, sweeps, CSV output.

A sweep varies one quantity (``es_n0`` in dB, or one of the dimensions
``n``, ``p``, ``m_u``) over a sorted grid and runs a fixed number of
independent trials per grid point.  Every trial seeds its own generators
from ``(base_seed, sweep value, trial index)``, so results are reproducible
run to run and independent of execution order; trials may therefore be
dispatched to worker processes (``jobs`` > 1) without affecting output.

Artifacts per sweep:

* ``results.csv``: one row per trial, with the fields of
  :class:`MetricsRecord` as columns in field order (``CSV_COLUMNS``:
  ``sweep_var, sweep_value, trial, seed, converged``, then the metric
  columns ``METRIC_COLUMNS``), followed by one summary row per grid point
  (``trial`` = -1, metric columns hold the across-trial median,
  ``converged`` holds the count of converged trials).
* ``summary.csv``: per grid point, median and mean of every metric column.

Floats are written with 17 significant digits and rows are sorted before
writing, so reruns with the same config are byte-identical.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .comm_krf import semi_blind_receive, zf_benchmark, zf_channel_energy
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
    add_noise, build_comm_link, comm_forward, krst_code, qam_constellation, sample_frame, sample_scene,
    sensing_forward,
)

__all__ = [
    "ExperimentConfig",
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
INTEGERS = DIMS + ("constellation", "trials", "base_seed", "jobs")
ANGLES = ("sensing_aoa", "sensing_aod", "comm_aoa", "comm_aod")
SYMBOL_ATOL = 1e-9  # two symbols closer than this are the same constellation point


# ------------------------------ configuration ------------------------------ #

@dataclass
class ExperimentConfig:
    """Validated experiment description; ``_SCHEMA`` maps the file keys to its fields."""

    m_t: int = 2
    m_r: int = 2
    m_u: int = 2
    p: int = 8
    n: int = 3
    k: int = 2
    l: int = 1
    sensing_aoa: list = field(default_factory=lambda: [15.0, 27.0])
    sensing_aod: list = field(default_factory=lambda: [-37.0, 65.0])
    comm_aoa: list = field(default_factory=lambda: [78.0])
    comm_aod: list = field(default_factory=lambda: [25.0])
    comm_gains: list = field(default_factory=lambda: [1.0 + 0.0j])
    constellation: int = 4
    gamma_std: float = 1.0
    sweep_variable: str = "es_n0"
    sweep_values: list = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    es_n0_db: float = 10.0
    trials: int = 100
    base_seed: int = 20240721
    als: AlsConfig = field(default_factory=AlsConfig)
    output_dir: str = "results"
    jobs: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming every violated requirement: the
        one check of values, for loaded and in-code configs alike, NaN and
        infinities included.  Each sweep point is then judged by the functions
        its trials call (``check_identifiability``, ``krst_code``,
        ``build_comm_link``, ``zf_channel_energy``); the first error is reported."""
        ints = {name: getattr(self, name) for name in INTEGERS}
        not_ints = [f"{name} must be an integer, got {v!r}" for name, v in ints.items()
                    if isinstance(v, bool) or not isinstance(v, numbers.Integral)]
        if not_ints:
            raise ConfigError("; ".join(not_ints))
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
        if not (math.isfinite(self.es_n0_db) or self.es_n0_db == math.inf):
            problems.append("es_n0_db must be finite or +inf")
        if not all(map(cmath.isfinite, self.comm_gains)):
            problems.append("comm_gains must be finite")
        if self.base_seed < 0:
            problems.append("base_seed must be non-negative")
        if self.sweep_variable not in SWEEP_VARIABLES:
            problems.append(f"sweep variable must be one of {SWEEP_VARIABLES}")
        values = list(self.sweep_values)
        noise_sweep = self.sweep_variable == "es_n0"
        non_finite = [v for v in values if not (math.isfinite(v) or (noise_sweep and v == math.inf))]
        if not values:
            problems.append("sweep values must be non-empty")
        elif non_finite:
            rule = "finite or +inf" if noise_sweep else "finite"
            problems.append(f"sweep values must be {rule} when sweeping {self.sweep_variable}: {non_finite}")
        elif any(a >= b for a, b in zip(values, values[1:])):
            problems.append("sweep values must be sorted strictly ascending")
        elif not noise_sweep:
            problems += [f"sweep.values: {v!r} is not an integer" for v in values if v != int(v)]
        if problems:
            raise ConfigError("; ".join(problems))
        for value in values:
            pt = apply_sweep(self, value)
            try:
                check_identifiability(pt.m_r, pt.m_t, pt.p, pt.n, pt.k).require()
                krst_code(pt.n, pt.m_t)
                link = build_comm_link(pt.comm_aoa, pt.comm_aod, pt.comm_gains, m_u=pt.m_u, m_t=pt.m_t)
                zf_channel_energy(link.h)
            except ValueError as exc:
                raise ConfigError(f"sweep point {self.sweep_variable}={value}: {exc}") from exc


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
    return complex(_float(value), 0.0)


# File key -> (ExperimentConfig field, parser); a nested object maps each
# subkey the same way.  A parser checks the JSON type only; the values are
# judged by ExperimentConfig.validate and, for the ``als`` subkeys (the
# AlsConfig fields, parsed by their type), by AlsConfig.
_SCHEMA = {
    "dims": {name: (name, _int) for name in DIMS},
    "angles": {name: (name, _floats) for name in ANGLES},
    "comm_gains": ("comm_gains", lambda gains: [_as_gain(g) for g in gains]),
    "constellation": ("constellation", _int),
    "gamma_std": ("gamma_std", _float),
    "sweep": {"variable": ("sweep_variable", _str), "values": ("sweep_values", _floats)},
    "es_n0_db": ("es_n0_db", _float),
    "trials": ("trials", _int),
    "base_seed": ("base_seed", _int),
    "als": {f.name: (f.name, _int if f.type == "int" else _float) for f in fields(AlsConfig)},
    "output_dir": ("output_dir", _str),
    "jobs": ("jobs", _int),
}


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment file.

    The keys are those of ``_SCHEMA`` (README describes each one), and
    every key is optional.  Parsing checks JSON types only, each error
    naming its key (``dims.p: ...``): unknown keys, a string or a boolean
    where a number is due, a non-string where a string is due, anything
    but a whole number (NaN and infinities included) in an integer key,
    and values that do not parse are rejected.  The values are then judged
    as in a config built in code, by :class:`AlsConfig` (``als section:
    ...``) and :meth:`ExperimentConfig.validate`, before anything runs.
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
    for key, spec in _SCHEMA.items():
        if isinstance(spec, dict) and key in raw:
            if not isinstance(raw[key], dict):
                raise ConfigError(f"{key} must be an object")
            bad = set(raw[key]) - set(spec)
            if bad:
                raise ConfigError(f"unknown keys under {key}: {sorted(bad)}")

    kwargs: dict = {}
    for key, spec in _SCHEMA.items():
        if key not in raw:
            continue
        if isinstance(spec, dict):
            entries = [(f"{key}.{sub}", value, spec[sub]) for sub, value in raw[key].items()]
        else:
            entries = [(key, raw[key], spec)]
        parsed = {}
        for name, value, (target, parse) in entries:
            try:
                parsed[target] = parse(value)
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


def apply_sweep(cfg: ExperimentConfig, value: float) -> ExperimentConfig:
    """Config for one grid point: the swept quantity replaced by ``value``."""
    if cfg.sweep_variable == "es_n0":
        return replace(cfg, es_n0_db=float(value))
    return replace(cfg, **{cfg.sweep_variable: int(value)})


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
    return float(np.mean(np.abs(s_hat - s_true) > SYMBOL_ATOL))


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

def _sweep_key(value: float) -> int:
    if math.isinf(value):
        return 2**60
    return int(round(float(value) * 1e6)) + 2**48


def _trial_seeds(base_seed: int, sweep_value: float, trial: int) -> np.ndarray:
    ss = np.random.SeedSequence([int(base_seed), _sweep_key(sweep_value), int(trial)])
    return ss.generate_state(5, dtype=np.uint32)


def run_trial(cfg: ExperimentConfig, sweep_value: float, trial: int) -> MetricsRecord:
    """One independent trial at one grid point.

    Draws scene, frame and noise from seeds derived from
    ``(base_seed, sweep value, trial index)``; runs the sensing pipeline
    (fit, ambiguity removal, permutation alignment, angle extraction) and
    the communication pipeline (semi-blind receiver and the perfect-CSI
    benchmark); returns the metric record.  A fit that hits the iteration
    cap is recorded with ``converged=False``, not dropped.
    """
    pt = apply_sweep(cfg, sweep_value)
    scene_seed, frame_seed, sens_noise_seed, comm_noise_seed, init_seed = (
        int(s) for s in _trial_seeds(cfg.base_seed, sweep_value, trial)
    )

    scene = sample_scene(
        k=pt.k, n=pt.n, sigma=pt.gamma_std, m_r=pt.m_r, m_t=pt.m_t,
        theta=pt.sensing_aoa, phi=pt.sensing_aod, seed=scene_seed,
    )
    frame = sample_frame(p=pt.p, m_t=pt.m_t, n=pt.n, order=pt.constellation, seed=frame_seed)
    link = build_comm_link(pt.comm_aoa, pt.comm_aod, pt.comm_gains, m_u=pt.m_u, m_t=pt.m_t)

    y_sens = add_noise(sensing_forward(scene, frame), pt.es_n0_db, seed=sens_noise_seed)
    y_comm = add_noise(comm_forward(link, frame), pt.es_n0_db, seed=comm_noise_seed)

    est = als_fit(y_sens, frame, pt.k, replace(pt.als, init_seed=init_seed))
    est = remove_sensing_ambiguity(est)
    a_rx_true = scene.rx_steering()
    a_tx_true = scene.tx_steering()
    perm = list(align_permutation(est.a_rx_hat, a_rx_true))
    # Angles are extracted one column at a time, so each target keeps its
    # own (theta, phi) pair through the alignment permutation.
    theta_hat = [extract_angles(est.a_rx_hat[:, [j]])[0] for j in perm]
    phi_hat = [extract_angles(est.a_tx_hat[:, [j]])[0] for j in perm]
    angle_err = np.concatenate([theta_hat - scene.theta, phi_hat - scene.phi])

    comm = semi_blind_receive(y_comm, frame.c, frame.s_data[0, :], pt.constellation)
    s_zf = zf_benchmark(y_comm, link.h, frame.c, pt.constellation)

    return MetricsRecord(
        sweep_var=cfg.sweep_variable,
        sweep_value=float(sweep_value),
        trial=trial,
        seed=scene_seed,
        converged=est.converged,
        als_iters=est.iters,
        nmse_ar=nmse(est.a_rx_hat[:, perm], a_rx_true),
        nmse_at=nmse(est.a_tx_hat[:, perm], a_tx_true),
        nmse_gamma=nmse(est.gamma_hat[:, perm], scene.gamma),
        angle_rmse_deg=float(np.sqrt(np.mean(angle_err**2))),
        nmse_h=nmse(comm.h_hat, link.h),
        ser_krf=ser(comm.s_hat, frame.s_data),
        ser_zf=ser(s_zf, frame.s_data),
    )


# ------------------------------- sweep driver ------------------------------- #

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: str, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def run_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> tuple[str, str]:
    """Run all grid points and trials; write ``results.csv`` and ``summary.csv``.

    Returns the two file paths.  Trials are independent; with
    ``cfg.jobs > 1`` they are dispatched to worker processes.  Records come
    back in task order on the ascending grid, so the rows are sorted by
    (grid point, trial) and the artifacts do not depend on ``jobs``.
    """
    cfg.validate()
    out = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)

    tasks = [(cfg, value, trial) for value in cfg.sweep_values for trial in range(cfg.trials)]
    if cfg.jobs > 1:
        # Imported here, so that importing the package skips the ~25 ms the pool module takes.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(run_trial, *zip(*tasks), chunksize=16))
    else:
        records = [run_trial(*task) for task in tasks]

    data_rows = [[_fmt(getattr(rec, col)) for col in CSV_COLUMNS] for rec in records]

    summary_rows, wide_rows = [], []
    for i, value in enumerate(cfg.sweep_values):
        group = records[i * cfg.trials : (i + 1) * cfg.trials]
        med = {m: float(np.median([getattr(r, m) for r in group])) for m in METRIC_COLUMNS}
        avg = {m: float(np.mean([getattr(r, m) for r in group])) for m in METRIC_COLUMNS}
        n_conv = sum(1 for r in group if r.converged)
        summary_rows.append(
            [cfg.sweep_variable, _fmt(float(value)), "-1", "0", str(n_conv)]
            + [_fmt(med[m]) for m in METRIC_COLUMNS]
        )
        wide = [cfg.sweep_variable, _fmt(float(value)), str(len(group)), str(n_conv)]
        for m in METRIC_COLUMNS:
            wide.extend([_fmt(med[m]), _fmt(avg[m])])
        wide_rows.append(wide)

    results_path = os.path.join(out, "results.csv")
    _write_csv(results_path, [list(CSV_COLUMNS)] + data_rows + summary_rows)

    summary_header = ["sweep_var", "sweep_value", "n_trials", "n_converged"]
    for m in METRIC_COLUMNS:
        summary_header.extend([f"median_{m}", f"mean_{m}"])
    summary_path = os.path.join(out, "summary.csv")
    _write_csv(summary_path, [summary_header] + wide_rows)
    return results_path, summary_path


# -------------------------------- plot data -------------------------------- #

def emit_plot_data(csv_path: str, out_dir: str | None = None) -> list[str]:
    """Write one two-column text file per metric from a ``results.csv``.

    Each file holds ``sweep_value  median_<metric>`` pairs recomputed from
    the per-trial rows (summary rows are ignored), ready for any plotting
    tool.  A metric with no finite values yields a header-only file.
    """
    out = out_dir if out_dir is not None else os.path.dirname(os.path.abspath(csv_path))
    os.makedirs(out, exist_ok=True)
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or list(reader.fieldnames) != list(CSV_COLUMNS):
            raise ValueError(f"{csv_path} does not have the expected column header")
        rows = [row for row in reader if int(row["trial"]) >= 0]
    sweep_var = rows[0]["sweep_var"] if rows else "sweep"

    def _parse(cell: str) -> float:
        try:
            return float(cell)
        except (TypeError, ValueError):
            return math.nan

    values = sorted({float(row["sweep_value"]) for row in rows})
    paths = []
    for metric in METRIC_COLUMNS:
        lines = [f"# {sweep_var} median_{metric}"]
        for value in values:
            samples = [
                _parse(row[metric])
                for row in rows
                if float(row["sweep_value"]) == value and math.isfinite(_parse(row[metric]))
            ]
            if samples:
                lines.append(f"{value:.17g} {float(np.median(samples)):.17g}")
        path = os.path.join(out, f"{metric}_vs_{sweep_var}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths
