"""Unit tests for configuration, metrics, the trial driver, and artifacts."""

import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from tensorisac import harness
from tensorisac.exceptions import ConfigError
from tensorisac.harness import (
    CSV_COLUMNS,
    METRIC_COLUMNS,
    ExperimentConfig,
    default_config,
    emit_plot_data,
    load_config,
    nmse,
    run_sweep,
    run_trial,
    ser,
)
from tensorisac.sensing_als import AlsConfig, SensingEstimate
from tensorisac.signal_model import build_steering_matrix

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs", "default_experiment.json")


def write_config(tmp_path, **overrides):
    with open(CONFIG_PATH, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for key, value in overrides.items():
        if isinstance(value, dict) and key in raw:
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestMetrics:
    def test_nmse_zero_for_identical(self):
        x = np.array([[1 + 2j, 3.0], [0.5j, -1.0]])
        assert nmse(x, x) == 0.0

    def test_nmse_doubling_gives_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert abs(nmse(2 * x, x) - 1.0) < 1e-12

    def test_nmse_matches_sum_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        b = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        num = sum(abs(a[i, j] - b[i, j]) ** 2 for i in range(4) for j in range(5))
        den = sum(abs(b[i, j]) ** 2 for i in range(4) for j in range(5))
        assert abs(nmse(a, b) - num / den) < 1e-12

    def test_nmse_guards(self):
        with pytest.raises(ValueError):
            nmse(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            nmse(np.ones((2, 2)), np.zeros((2, 2)))

    def test_ser_cases(self):
        x = np.arange(16, dtype=complex).reshape(4, 4) + 1.0
        assert ser(x, x) == 0.0
        y = x.copy()
        y[0, 0] += 1.0
        assert ser(y, x) == 1 / 16
        assert ser(x + 5.0, x) == 1.0
        with pytest.raises(ValueError):
            ser(x, x[:2])


# k = 9 on otherwise identifiable dimensions: more columns than align_permutation tries.
K9_DIMS = {"m_r": 4, "m_t": 4, "m_u": 4, "p": 8, "n": 9, "k": 9}
K9_ANGLES = {"sensing_aoa": [float(a) for a in range(-40, 50, 10)],
             "sensing_aod": [float(a) for a in range(-45, 45, 10)]}


class TestConfig:
    def test_default_file_loads(self):
        cfg = load_config(CONFIG_PATH)
        assert cfg.m_t == 2 and cfg.m_r == 2 and cfg.m_u == 2
        assert cfg.p == 8 and cfg.n == 3 and cfg.k == 2 and cfg.l == 1
        assert cfg.sensing_aoa == [15.0, 27.0]
        assert cfg.sensing_aod == [-37.0, 65.0]
        assert cfg.comm_aoa == [78.0] and cfg.comm_aod == [25.0]
        assert cfg.constellation == 4
        assert cfg.sweep_values == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, typo_key=1)
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_config(tmp_path, dims={"m_x": 3})
        with pytest.raises(ConfigError, match="m_x"):
            load_config(path)

    def test_identifiability_violation_named(self, tmp_path):
        # one receive antenna and one pilot: n*p*m_r = 3 < m_t*k = 4
        path = write_config(tmp_path, dims={"p": 1, "m_r": 1})
        with pytest.raises(ConfigError, match=r"n\*p\*m_r"):
            load_config(path)

    def test_code_needs_enough_slots(self, tmp_path):
        path = write_config(tmp_path, dims={"n": 1})
        with pytest.raises(ConfigError, match="n >= m_t"):
            load_config(path)

    def test_benchmark_needs_enough_antennas(self, tmp_path):
        path = write_config(tmp_path, dims={"m_u": 1})
        with pytest.raises(ConfigError, match="m_u >= m_t"):
            load_config(path)

    def test_unsorted_sweep_rejected(self, tmp_path):
        # [10, 10] used to run both points with the same seeds, so summary.csv
        # counted each trial twice.
        for values in ([10.0, 0.0], [10.0, 10.0]):
            path = write_config(tmp_path, sweep={"values": values})
            with pytest.raises(ConfigError, match="sorted"):
                load_config(path)

    def test_sweep_point_validated_not_just_base(self, tmp_path):
        # base dims fine, but the m_u sweep dips below m_t
        path = write_config(tmp_path, sweep={"variable": "m_u", "values": [1.0, 2.0]})
        with pytest.raises(ConfigError, match="m_u >= m_t"):
            load_config(path)

    @pytest.mark.parametrize("variable, values, message", [
        # These used to raise a bare ValueError from validate(), not a ConfigError.
        ("p", [0, 8], "sweep point p=0.0: p must be at least 1, got 0"),
        ("n", [-1, 4], "sweep point n=-1.0: n must be at least 1, got -1"),
        # This used to be reported as "benchmark needs m_u >= m_t: -1 < 2".
        ("m_u", [-1, 2], "sweep point m_u=-1.0: array needs at least one element, got -1"),
        ("n", [1, 4], "sweep point n=1.0: slot code needs n >= m_t: 1 < 2"),
        ("m_u", [1, 4], "sweep point m_u=1.0: benchmark needs m_u >= m_t: 1 < 2"),
    ])
    def test_sweep_point_reports_the_rule_its_trial_breaks(self, tmp_path, variable, values, message):
        path = write_config(tmp_path, sweep={"variable": variable, "values": values})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_check_accepts_exactly_what_the_first_trial_runs(self):
        # validate() raises ConfigError, and nothing else, exactly when some
        # sweep point's first trial raises.  Every shape runs at one noise level.
        cases = [
            {"m_r": m_r, "m_t": m_t, "m_u": m_u, "p": p, "n": n, "k": k, "sweep_values": [10.0],
             "sensing_aoa": [15.0, 27.0, -50.0][:k], "sensing_aod": [-37.0, 65.0, 5.0][:k]}
            for m_r, m_t, m_u, p, n, k in itertools.product(range(4), repeat=6)
        ]
        cases += [{"sweep_variable": var, "sweep_values": [float(v), 4.0]}
                  for var in ("n", "p", "m_u") for v in (-1, 0, 1, 2)]
        cases.append({"p": 3.0})
        mismatches = []
        for changes in cases:
            cfg = replace(default_config(), **changes, als=AlsConfig(max_iters=20))
            try:
                cfg.validate()
                rejected = False
            except ConfigError:
                rejected = True
            try:
                for value in cfg.sweep_values:
                    run_trial(cfg, value, 0)
                failed = False
            except Exception:
                failed = True
            if rejected != failed:
                mismatches.append((changes, rejected))
        assert mismatches == []

    @pytest.mark.parametrize("changes, message", [
        # validate() is the one check of these values, whether the config
        # was loaded from a file or built in code.
        ({"gamma_std": math.nan}, "gamma_std must be positive and finite"),
        ({"gamma_std": math.inf}, "gamma_std must be positive and finite"),
        ({"es_n0_db": math.nan}, "es_n0_db must be finite or +inf"),
        ({"es_n0_db": -math.inf}, "es_n0_db must be finite or +inf"),
        ({"comm_gains": [complex(math.nan, 0.0)]}, "comm_gains must be finite"),
        ({"sweep_values": [0.0, math.nan]}, "sweep values must be finite or +inf when sweeping es_n0"),
        # Each of these used to pass validate() and then fail the first trial.
        ({"constellation": 8}, "QAM order must be a square (4, 16, 64, ...), got 8"),
        ({**K9_DIMS, **K9_ANGLES}, "k must be at most 8"),
        ({"comm_gains": [0j]}, "sweep point es_n0=0.0: channel has a zero column"),
        ({"base_seed": -1}, "base_seed must be non-negative"),
        ({"constellation": -4}, "QAM order must be a square (4, 16, 64, ...), got -4"),
        # An integer setting made in code must be an integer: NaN used to end
        # validate() in a bare ValueError, 3.0 in the first trial's TypeError,
        # and 2.5 trials or 1.5 jobs passed.
        ({"p": math.nan}, "p must be an integer, got nan"),
        ({"p": 3.0}, "p must be an integer, got 3.0"),
        ({"n": 3.0}, "n must be an integer, got 3.0"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"jobs": 1.5}, "jobs must be an integer, got 1.5"),
        ({"k": True}, "k must be an integer, got True"),
        ({"constellation": 4.0}, "constellation must be an integer, got 4.0"),
        ({"base_seed": "7"}, "base_seed must be an integer, got '7'"),
    ])
    def test_validate_rejects_non_finite_values_set_in_code(self, changes, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            replace(default_config(), **changes).validate()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_angle_out_of_range_rejected(self, tmp_path):
        path = write_config(tmp_path, angles={"sensing_aoa": [95.0, 27.0]})
        with pytest.raises(ConfigError, match="-90, 90"):
            load_config(path)

    @pytest.mark.parametrize("overrides, message", [
        ({"dims": {"p": "x"}}, r"^dims\.p: 'x' is not an integer$"),
        ({"trials": None}, r"^trials: int\(\) argument"),
        ({"angles": {"comm_aod": 5}}, r"^angles\.comm_aod: 'int' object is not iterable"),
        ({"sweep": {"values": ["a"]}}, r"^sweep\.values: could not convert"),
        ({"comm_gains": [[1.0, 0.0, 2.0]]}, r"^comm_gains: complex gain must be \[re, im\]"),
        ({"gamma_std": "wide"}, r"^gamma_std: could not convert"),
        ({"output_dir": None}, r"^output_dir: None is not a string$"),
        ({"output_dir": 5}, r"^output_dir: 5 is not a string$"),
        ({"output_dir": ["a"]}, r"^output_dir: \['a'\] is not a string$"),
        ({"sweep": {"variable": 5}}, r"^sweep\.variable: 5 is not a string$"),
        # Python's json reads NaN and Infinity; each of these loaded and then
        # capped or crashed fits mid-run.  The parsers pass them on, and
        # AlsConfig or validate() rejects them, naming the field.
        ({"als": {"tol": math.nan}}, r"^als section: tol must be positive and finite, got nan$"),
        ({"als": {"tol": math.inf}}, r"^als section: tol must be positive and finite, got inf$"),
        ({"als": {"rcond": math.nan}}, r"^als section: rcond must be nonnegative and finite, got nan$"),
        ({"gamma_std": math.nan}, r"^gamma_std must be positive and finite$"),
        ({"gamma_std": math.inf}, r"^gamma_std must be positive and finite$"),
        ({"sweep": {"variable": "n", "values": [3, 4]}, "es_n0_db": math.nan},
         r"^es_n0_db must be finite or \+inf$"),
        ({"es_n0_db": -math.inf}, r"^es_n0_db must be finite or \+inf$"),
        ({"comm_gains": [math.nan]}, r"^comm_gains must be finite$"),
        ({"comm_gains": [[1.0, math.inf]]}, r"^comm_gains must be finite$"),
        ({"sweep": {"values": [math.nan]}}, r"^sweep values must be finite or \+inf when sweeping es_n0: \[nan\]$"),
        ({"sweep": {"values": [-math.inf]}}, r"^sweep values must be finite or \+inf when sweeping es_n0: \[-inf\]$"),
        ({"angles": {"sensing_aoa": [math.nan, 27.0]}},
         r"^sensing_aoa: angle nan outside the open interval \(-90, 90\)$"),
        ({"sweep": {"variable": "n", "values": [3, math.inf]}},
         r"^sweep values must be finite when sweeping n: \[inf\]$"),
        # used to load and then run the 3.5 point with n = 3
        ({"sweep": {"variable": "n", "values": [3.5, 4]}}, r"^sweep\.values: 3\.5 is not an integer$"),
    ])
    def test_unparsable_value_names_its_key(self, tmp_path, overrides, message):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize("overrides, key", [
        ({"trials": 3.7}, "trials"),
        ({"dims": {"p": 8.5}}, "dims.p"),
        ({"constellation": 16.5}, "constellation"),
        ({"base_seed": 1.5}, "base_seed"),
        ({"jobs": 1.25}, "jobs"),
        ({"als": {"max_iters": 3.5}}, "als.max_iters"),
        ({"trials": float("inf")}, "trials"),
    ])
    def test_non_integral_integer_rejected(self, tmp_path, overrides, key):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: .* is not an integer$"):
            load_config(path)

    @pytest.mark.parametrize("overrides, key", [
        # Each of these loaded as a number before the parsers checked JSON types.
        ({"angles": {"sensing_aoa": "15"}}, "angles.sensing_aoa"),   # was [1.0, 5.0]
        ({"angles": {"sensing_aoa": ["15", "27"]}}, "angles.sensing_aoa"),
        ({"angles": {"comm_aod": [True]}}, "angles.comm_aod"),
        ({"sweep": {"values": "0123"}}, "sweep.values"),             # was [0, 1, 2, 3]
        ({"sweep": {"values": [False, True]}}, "sweep.values"),
        ({"comm_gains": [["1", "0"]]}, "comm_gains"),
        ({"comm_gains": [True]}, "comm_gains"),
        ({"trials": True}, "trials"),
        ({"gamma_std": True}, "gamma_std"),
        ({"es_n0_db": "10"}, "es_n0_db"),
        ({"constellation": "4"}, "constellation"),
        ({"base_seed": "7"}, "base_seed"),
        ({"jobs": True}, "jobs"),
        ({"dims": {"p": "16"}}, "dims.p"),
        ({"dims": {"l": True}}, "dims.l"),
        ({"als": {"max_iters": "50"}}, "als.max_iters"),
        ({"als": {"n_restarts": True}}, "als.n_restarts"),
        ({"als": {"tol": "1e-7"}}, "als.tol"),
        ({"als": {"rcond": False}}, "als.rcond"),
        ({"als": {"rcond": math.inf}}, "als section"),        # AlsConfig: rcond must be ... finite
        ({"als": {"init_seed": math.nan}}, "als.init_seed"),
        ({"trials": math.nan}, "trials"),
        ({"sweep": {"values": [0.0, math.nan]}}, "sweep values must be finite or +inf when sweeping es_n0"),
    ])
    def test_strings_and_booleans_rejected_where_numbers_are_due(self, tmp_path, overrides, key):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            load_config(path)

    def test_positive_infinity_is_the_noiseless_sentinel(self, tmp_path):
        cfg = load_config(write_config(tmp_path, sweep={"values": [10.0, math.inf]}))
        assert cfg.sweep_values == [10.0, math.inf]
        cfg = load_config(write_config(tmp_path, sweep={"variable": "n", "values": [3, 4]}, es_n0_db=math.inf))
        assert cfg.es_n0_db == math.inf
        replace(default_config(), es_n0_db=math.inf, sweep_values=[0.0, math.inf]).validate()

    def test_integral_float_accepted_as_int(self, tmp_path):
        cfg = load_config(write_config(tmp_path, trials=3.0, dims={"p": 16.0}))
        assert cfg.trials == 3 and type(cfg.trials) is int
        assert cfg.p == 16 and type(cfg.p) is int
        cfg = load_config(write_config(tmp_path, sweep={"variable": "n", "values": [3.0, 4.0]}))
        assert cfg.sweep_values == [3.0, 4.0]

    def test_als_values_parsed_by_field_type(self, tmp_path):
        # Newly accepted: 50.0 becomes the int 50 rather than reaching range().
        cfg = load_config(write_config(tmp_path, als={"max_iters": 50.0, "n_restarts": 2.0, "tol": 1}))
        assert (cfg.als.max_iters, cfg.als.n_restarts, cfg.als.tol) == (50, 2, 1.0)
        assert type(cfg.als.max_iters) is int and type(cfg.als.n_restarts) is int and type(cfg.als.tol) is float
        # Newly rejected: "abc" used to load silently.
        for als, message in (
            ({"init_seed": "abc"}, r"^als\.init_seed: 'abc' is not an integer$"),
            ({"tol": "abc"}, r"^als\.tol: could not convert"),
            ({"rcond": [1e-12]}, r"^als\.rcond: float\(\) argument"),
        ):
            with pytest.raises(ConfigError, match=message):
                load_config(write_config(tmp_path, als=als))

    def test_every_key_round_trips(self, tmp_path):
        raw = {
            "dims": {"m_t": 3, "m_r": 4, "m_u": 5, "p": 9, "n": 4, "k": 3, "l": 2},
            "angles": {
                "sensing_aoa": [10, 20.5, 30],
                "sensing_aod": [-10, -20, 40],
                "comm_aoa": [5, 50],
                "comm_aod": [-5, 15],
            },
            "comm_gains": [[0.5, 0.25], 2],
            "constellation": 16,
            "gamma_std": 0.5,
            "sweep": {"variable": "p", "values": [9, 12]},
            "es_n0_db": 12.5,
            "trials": 7,
            "base_seed": 11,
            "als": {"max_iters": 50, "tol": 1e-8, "rcond": 1e-10, "init_seed": 3, "n_restarts": 2},
            "output_dir": "elsewhere",
            "jobs": 2,
        }
        path = tmp_path / "every_key.json"
        path.write_text(json.dumps(raw))
        expected = ExperimentConfig(
            m_t=3, m_r=4, m_u=5, p=9, n=4, k=3, l=2,
            sensing_aoa=[10.0, 20.5, 30.0], sensing_aod=[-10.0, -20.0, 40.0],
            comm_aoa=[5.0, 50.0], comm_aod=[-5.0, 15.0], comm_gains=[0.5 + 0.25j, 2 + 0j],
            constellation=16, gamma_std=0.5, sweep_variable="p", sweep_values=[9.0, 12.0],
            es_n0_db=12.5, trials=7, base_seed=11,
            als=AlsConfig(max_iters=50, tol=1e-8, rcond=1e-10, init_seed=3, n_restarts=2),
            output_dir="elsewhere", jobs=2,
        )
        assert load_config(str(path)) == expected
        # Every field is set away from its default, so a key that loads
        # into the wrong field, or not at all, fails the comparison above.
        for cfg, default in ((expected, ExperimentConfig()), (expected.als, AlsConfig())):
            for f in fields(cfg):
                assert getattr(cfg, f.name) != getattr(default, f.name), f.name


class TestRunTrial:
    def test_deterministic(self):
        cfg = default_config()
        a = run_trial(cfg, 10.0, 3)
        b = run_trial(cfg, 10.0, 3)
        assert a == b

    def test_noiseless_record(self):
        cfg = default_config()
        rec = run_trial(cfg, float("inf"), 0)
        assert rec.converged
        assert rec.nmse_ar < 1e-8 and rec.nmse_at < 1e-8 and rec.nmse_gamma < 1e-8
        assert rec.nmse_h < 1e-8
        assert rec.ser_krf == 0.0 and rec.ser_zf == 0.0

    def test_metric_ranges(self):
        cfg = default_config()
        rec = run_trial(cfg, 5.0, 1)
        assert rec.nmse_ar >= 0 and rec.nmse_at >= 0 and rec.nmse_gamma >= 0
        assert 0 <= rec.ser_krf <= 1 and 0 <= rec.ser_zf <= 1
        assert rec.angle_rmse_deg >= 0
        assert rec.als_iters >= 1

    def test_different_trials_differ(self):
        cfg = default_config()
        assert run_trial(cfg, 10.0, 0) != run_trial(cfg, 10.0, 1)

    @pytest.mark.parametrize("theta, phi, expected", [
        # columns swapped together: each target keeps its pair, no error
        ([27.0, 15.0], [65.0, -37.0], 0.0),
        # the departure angles of the two targets swapped: sorting theta
        # and phi separately would report 0, pairing reports the swap
        ([15.0, 27.0], [65.0, -37.0], 102.0 / math.sqrt(2.0)),
    ])
    def test_angle_error_pairs_each_target(self, monkeypatch, theta, phi, expected):
        cfg = default_config()  # targets at (15, -37) and (27, 65) degrees
        fixed = SensingEstimate(
            a_rx_hat=build_steering_matrix(theta, cfg.m_r),
            a_tx_hat=build_steering_matrix(phi, cfg.m_t),
            gamma_hat=np.ones((cfg.n, 2), dtype=complex),
            nmse_trace=[0.0],
            converged=True,
            iters=1,
        )
        monkeypatch.setattr(harness, "als_fit", lambda *args: fixed)
        rec = run_trial(cfg, 20.0, 0)
        assert abs(rec.angle_rmse_deg - expected) < 1e-5


class TestRunSweep:
    def sweep_cfg(self, out, trials=3):
        return replace(
            default_config(),
            sweep_values=[0.0, 10.0],
            trials=trials,
            output_dir=str(out),
        )

    def test_row_counts_and_columns(self, tmp_path):
        cfg = self.sweep_cfg(tmp_path / "out")
        results_path, summary_path = run_sweep(cfg)
        with open(results_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        data = [r for r in rows[1:] if int(r[2]) >= 0]
        summaries = [r for r in rows[1:] if int(r[2]) == -1]
        assert len(data) == 6  # 2 grid points x 3 trials
        assert len(summaries) == 2
        assert os.path.exists(summary_path)

    def test_summary_matches_recomputation(self, tmp_path):
        cfg = self.sweep_cfg(tmp_path / "out")
        results_path, summary_path = run_sweep(cfg)
        with open(results_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for value in (0.0, 10.0):
            data = [r for r in rows if float(r["sweep_value"]) == value and int(r["trial"]) >= 0]
            summary = [r for r in rows if float(r["sweep_value"]) == value and int(r["trial"]) == -1]
            assert len(summary) == 1
            for metric in METRIC_COLUMNS:
                med = float(np.median([float(r[metric]) for r in data]))
                assert abs(float(summary[0][metric]) - med) <= 1e-12 * max(1.0, abs(med))
        with open(summary_path, newline="") as fh:
            wide = list(csv.DictReader(fh))
        for row in wide:
            value = float(row["sweep_value"])
            data = [r for r in rows if float(r["sweep_value"]) == value and int(r["trial"]) >= 0]
            for metric in METRIC_COLUMNS:
                med = float(np.median([float(r[metric]) for r in data]))
                avg = float(np.mean([float(r[metric]) for r in data]))
                assert abs(float(row[f"median_{metric}"]) - med) <= 1e-12 * max(1.0, abs(med))
                assert abs(float(row[f"mean_{metric}"]) - avg) <= 1e-12 * max(1.0, abs(avg))

    def test_rerun_byte_identical(self, tmp_path):
        cfg_a = self.sweep_cfg(tmp_path / "a")
        cfg_b = self.sweep_cfg(tmp_path / "b")
        paths_a = run_sweep(cfg_a)
        paths_b = run_sweep(cfg_b)
        for pa, pb in zip(paths_a, paths_b):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = replace(self.sweep_cfg(tmp_path / "s", trials=2), jobs=1)
        parallel = replace(self.sweep_cfg(tmp_path / "p", trials=2), jobs=2)
        pa = run_sweep(serial)
        pb = run_sweep(parallel)
        for x, y in zip(pa, pb):
            with open(x, "rb") as fx, open(y, "rb") as fy:
                assert fx.read() == fy.read()


class TestEmitPlotData:
    def test_files_match_reaggregation(self, tmp_path):
        cfg = replace(default_config(), sweep_values=[0.0, 10.0], trials=3,
                      output_dir=str(tmp_path / "out"))
        results_path, _ = run_sweep(cfg)
        paths = emit_plot_data(results_path)
        assert len(paths) == len(METRIC_COLUMNS)
        with open(results_path, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if int(r["trial"]) >= 0]
        for metric, path in zip(METRIC_COLUMNS, paths):
            assert os.path.basename(path) == f"{metric}_vs_es_n0.txt"
            lines = [l for l in open(path).read().splitlines() if l and not l.startswith("#")]
            assert len(lines) == 2
            for line in lines:
                value, agg = (float(tok) for tok in line.split())
                med = np.median([float(r[metric]) for r in rows
                                 if float(r["sweep_value"]) == value])
                assert abs(agg - med) <= 1e-12 * max(1.0, abs(med))

    def test_empty_metric_column_gives_header_only(self, tmp_path):
        path = tmp_path / "results.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerow(["es_n0", "0", "0", "1", "true", "5",
                             "0.1", "0.1", "0.1", "0.5", "0.1", "", ""])
        paths = emit_plot_data(str(path), out_dir=str(tmp_path))
        ser_file = [p for p in paths if "ser_krf" in p][0]
        content = open(ser_file).read().splitlines()
        assert content == ["# es_n0 median_ser_krf"]

    def test_creates_missing_output_dir(self, tmp_path):
        path = tmp_path / "results.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerow(["es_n0", "0", "0", "1", "true", "5",
                             "0.1", "0.1", "0.1", "0.5", "0.1", "0.25", "0.125"])
        out = tmp_path / "not" / "yet" / "there"
        paths = emit_plot_data(str(path), out_dir=str(out))
        assert all(os.path.dirname(p) == str(out) for p in paths)
        assert all(os.path.exists(p) for p in paths)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            emit_plot_data(str(path))


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tensorisac.cli", *args],
            capture_output=True, text=True, timeout=300,
        )

    def test_check_ok(self):
        proc = self.run_cli("check", "--config", CONFIG_PATH)
        assert proc.returncode == 0
        assert "config ok" in proc.stdout

    def test_check_bad_config(self, tmp_path):
        path = write_config(tmp_path, dims={"m_u": 1})
        proc = self.run_cli("check", "--config", path)
        assert proc.returncode == 2
        assert "m_u >= m_t" in proc.stderr
        path = write_config(tmp_path, sweep={"variable": "n", "values": [3.5, 4]})
        proc = self.run_cli("check", "--config", path)
        assert proc.returncode == 2
        assert "sweep.values: 3.5 is not an integer" in proc.stderr
        # Each of these used to say "config ok" and then fail the first trial.
        for overrides, message in (
            ({"constellation": 8}, "QAM order must be a square"),
            ({"dims": K9_DIMS, "angles": K9_ANGLES}, "k must be at most 8"),
            ({"comm_gains": [[0, 0]]}, "channel has a zero column"),
            ({"base_seed": -1}, "base_seed must be non-negative"),
            ({"sweep": {"variable": "p", "values": [0, 8]}}, "sweep point p=0.0: p must be at least 1"),
        ):
            proc = self.run_cli("check", "--config", write_config(tmp_path, **overrides))
            assert proc.returncode == 2 and message in proc.stderr, (overrides, proc.stderr)

    def test_run_and_plotdata(self, tmp_path):
        config = write_config(tmp_path, sweep={"values": [0.0, 10.0]}, trials=2)
        out = tmp_path / "artifacts"
        # run_sweep validates the overridden config before writing anything
        proc = self.run_cli("run", "--config", config, "--out", str(out), "--trials", "0")
        assert proc.returncode == 2
        assert "trials must be at least 1" in proc.stderr and not out.exists()
        # A negative seed used to pass validation and fail in numpy at the first trial.
        proc = self.run_cli("run", "--config", config, "--out", str(out), "--seed", "-1")
        assert proc.returncode == 2
        assert "error: base_seed must be non-negative" in proc.stderr and not out.exists()
        proc = self.run_cli("run", "--config", config, "--out", str(out), "--trials", "2")
        assert proc.returncode == 0, proc.stderr
        results = out / "results.csv"
        assert results.exists() and (out / "summary.csv").exists()
        proc = self.run_cli("plotdata", "--csv", str(results))
        assert proc.returncode == 0, proc.stderr
        assert (out / "ser_krf_vs_es_n0.txt").exists()
        # gamma_std 1e200 overflows the sensing tensor; als_fit used to end the run in a traceback.
        huge = write_config(tmp_path, sweep={"values": [10.0]}, trials=1, gamma_std=1e200)
        proc = self.run_cli("run", "--config", huge, "--out", str(tmp_path / "huge"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot fit a tensor whose energy is"), proc.stderr

    def test_run_with_integral_float_als_key(self, tmp_path):
        config = write_config(tmp_path, sweep={"values": [10.0]}, trials=1, als={"max_iters": 50.0})
        assert self.run_cli("check", "--config", config).returncode == 0
        proc = self.run_cli("run", "--config", config, "--out", str(tmp_path / "artifacts"))
        assert proc.returncode == 0, proc.stderr

    def test_run_noiseless_flag(self, tmp_path):
        config = write_config(tmp_path, trials=1)
        out = tmp_path / "artifacts"
        proc = self.run_cli("run", "--config", config, "--out", str(out),
                            "--trials", "1", "--noiseless")
        assert proc.returncode == 0, proc.stderr
        with open(out / "results.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if int(r["trial"]) >= 0]
        assert len(rows) == 1
        assert math.isinf(float(rows[0]["sweep_value"]))
        assert float(rows[0]["ser_krf"]) == 0.0

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path, sweep={"values": [10.0]}, trials=1)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        pa = self.run_cli("run", "--config", config, "--out", str(out_a), "--seed", "1")
        pb = self.run_cli("run", "--config", config, "--out", str(out_b), "--seed", "2")
        assert pa.returncode == 0 and pb.returncode == 0
        assert (out_a / "results.csv").read_text() != (out_b / "results.csv").read_text()


class TestReplayTool:
    """``tools/replay_als.py`` reports the fits ``run_trial`` makes and
    compares a run with a saved one."""

    TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "replay_als.py")

    def run_tool(self, *args, config=CONFIG_PATH, trials="1"):
        proc = subprocess.run([sys.executable, self.TOOL, config, "--trials", trials, *args],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_rows_match_run_trial_and_compare_with_saved_run(self, tmp_path):
        out = self.run_tool()
        rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
        cfg = default_config()
        assert len(rows) == len(cfg.sweep_values)
        for row, value in zip(rows, cfg.sweep_values):
            record = run_trial(cfg, value, 0)
            assert (float(row[0]), int(row[1]), int(row[2])) == (value, 0, record.als_iters)
            assert (row[3], float(row[5])) == (str(record.converged).lower(), record.nmse_ar)
        saved = tmp_path / "saved.tsv"
        saved.write_text(out)
        against = self.run_tool("--against", str(saved)).splitlines()
        total = sum(int(row[2]) for row in rows)
        assert f"# against: iters total {total} -> {total} (+0.0 %)" in against
        assert any(line.startswith("# against: worst objective ratio 1.000000 ") for line in against)

    def test_totals_printed_when_a_fit_reads_exactly_zero(self, tmp_path):
        # With one receive antenna the normalized a_rx estimate is all ones
        # up to rounding, as is the truth, so some fits read nmse_ar = 0.
        config = write_config(tmp_path, dims={"m_r": 1, "m_t": 2, "n": 2, "k": 3, "p": 8},
                              angles={"sensing_aoa": [15.0, 27.0, 40.0], "sensing_aod": [-37.0, 65.0, 5.0]},
                              sweep={"variable": "es_n0", "values": [10.0]})
        lines = self.run_tool(config=config, trials="3").splitlines()
        rows = [line.split("\t") for line in lines if not line.startswith("#")]
        zeros = sum(float(row[5]) == 0.0 for row in rows)
        assert len(rows) == 3 and zeros > 0
        assert lines[-1].endswith(f" over nonzero fits, exactly zero {zeros}")
