"""Unit tests for configuration, metrics, the trial driver, and artifacts."""

import concurrent.futures
import csv
import hashlib
import importlib.util
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from tensorisac import comm_krf, harness
from tensorisac.exceptions import ConfigError
from tensorisac.harness import (
    CSV_COLUMNS,
    METRIC_COLUMNS,
    ExperimentConfig,
    GridPoint,
    default_config,
    emit_plot_data,
    load_config,
    nmse,
    run_sweep,
    run_trial,
    ser,
)
from tensorisac.sensing_als import AlsConfig, SensingEstimate
from tensorisac.comm_krf import semi_blind_receive, zf_benchmark, zf_channel_energy
from tensorisac.signal_model import add_noise, build_comm_link, build_steering_matrix, comm_forward, sample_frame

from helpers import grid_point

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
        # a p = 1 block has no symbol besides the reference row
        with pytest.raises(ValueError, match="no symbols to score"):
            ser(x[1:1], x[1:1])


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

    @pytest.mark.parametrize("overrides, message", [
        ({"dims": 5}, r"^dims must be an object$"),
        ({"als": []}, r"^als must be an object$"),
        ({"dims": {"m_x": 3}}, r"^unknown keys under dims: \['m_x'\]$"),
        ({"b": 1, "a": 2}, r"^unknown keys: \['a', 'b'\]$"),
    ])
    def test_malformed_structure_rejected(self, tmp_path, overrides, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(overrides))
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: top level must be an object$"):
            load_config(str(path))

    def test_identifiability_violation_named(self, tmp_path):
        # one receive antenna and one pilot: n*p*m_r = 3 < m_t*k = 4
        path = write_config(tmp_path, dims={"p": 1, "m_r": 1})
        with pytest.raises(ConfigError, match=r"n\*p\*m_r"):
            load_config(path)

    def test_code_needs_enough_slots(self, tmp_path):
        path = write_config(tmp_path, dims={"n": 1})
        with pytest.raises(ConfigError, match="n >= m_t"):
            load_config(path)

    def test_single_antenna_user_loads(self, tmp_path):
        # It used to be rejected with "benchmark needs m_u >= m_t": ZF needs no
        # more receive than transmit antennas behind the orthonormal code.
        cfg = load_config(write_config(tmp_path, dims={"m_u": 1}))
        assert cfg.m_u == 1 < cfg.m_t
        assert all(point.link.h.shape == (1, cfg.m_t) for point in cfg.validate())

    def test_comm_link_rejects_exactly_the_codes_with_too_few_slots(self):
        # The end-to-end form of criterion 06's comm claim: of the shapes with
        # m_u, m_t and n in 1..4, validate() rejects exactly those with n < m_t.
        for m_u, m_t, n in itertools.product(range(1, 5), repeat=3):
            cfg = replace(default_config(), m_u=m_u, m_t=m_t, n=n)
            if n >= m_t:
                cfg.validate()
            else:
                with pytest.raises(ConfigError, match=rf": slot code needs n >= m_t: {n} < {m_t}$"):
                    cfg.validate()

    def test_unsorted_sweep_rejected(self, tmp_path):
        # [10, 10] used to run both points with the same seeds, so summary.csv
        # counted each trial twice; 10.0000001 has the seed key of 10.0.
        for values in ([10.0, 0.0], [10.0, 10.0], [10.0, 10.0000001]):
            path = write_config(tmp_path, sweep={"values": values})
            with pytest.raises(ConfigError, match="sorted strictly ascending, at least 1e-6 apart"):
                load_config(path)
        load_config(write_config(tmp_path, sweep={"values": [10.0, 10.000001]}))

    def test_sweep_point_validated_not_just_base(self, tmp_path):
        # base dims fine, but the n sweep dips below m_t
        path = write_config(tmp_path, sweep={"variable": "n", "values": [1.0, 3.0]})
        with pytest.raises(ConfigError, match="n >= m_t"):
            load_config(path)

    @pytest.mark.parametrize("variable, values, message", [
        # These used to raise a bare ValueError from validate(), not a ConfigError.
        ("p", [0, 8], "sweep point p=0.0: p must be at least 1, got 0"),
        ("n", [-1, 4], "sweep point n=-1.0: n must be at least 1, got -1"),
        # This used to be reported as "benchmark needs m_u >= m_t: -1 < 2".
        ("m_u", [-1, 2], "sweep point m_u=-1.0: array needs at least one element, got -1"),
        ("n", [1, 4], "sweep point n=1.0: slot code needs n >= m_t: 1 < 2"),
        # With one symbol row there is no unknown symbol to score.
        ("p", [1, 8], "sweep point p=1.0: p must be at least 2: SER scores symbol rows 1..p-1, "
                      "since row 0 is the semi-blind receiver's known reference"),
        # This used to pass and then fail every trial with an OverflowError.
        ("es_n0", [-3100.0, 0.0], "sweep point es_n0=-3100.0: noise variance 10 ** (3100.0 / 10) overflows"),
    ])
    def test_sweep_point_reports_the_rule_its_trial_breaks(self, tmp_path, variable, values, message):
        path = write_config(tmp_path, sweep={"variable": variable, "values": values})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_empty_output_dir_rejected(self, tmp_path, monkeypatch):
        # It used to pass, and run_sweep then raised FileNotFoundError in os.makedirs("").
        message = "^output_dir must be a non-empty path$"
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, output_dir=""))
        with pytest.raises(ConfigError, match=message):
            replace(default_config(), output_dir="").validate()
        with pytest.raises(ConfigError, match=message):
            run_sweep(replace(default_config(), output_dir="", trials=1))
        # run_sweep's out_dir replaces output_dir and meets the same rules: it used to bypass
        # validate, so "" failed in os.makedirs("") and 5 reached os.makedirs unchecked.
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        cfg = replace(default_config(), trials=1)
        for out_dir, rule in (("", message), (5, "^output_dir: 5 is not a string$")):
            with pytest.raises(ConfigError, match=rule):
                run_sweep(cfg, out_dir=out_dir)
        assert calls == [] and list(work.iterdir()) == []

    def test_largest_gamma_std_runs_with_finite_metrics(self):
        # Just below the bound a trial at every grid point runs, and every
        # metric is finite; above it validate() rejects the value.
        cfg = replace(default_config(), gamma_std=math.nextafter(harness.GAMMA_STD_MAX, 0.0))
        for point in cfg.validate():
            record = run_trial(point, 0)
            assert all(math.isfinite(getattr(record, name)) for name in METRIC_COLUMNS), record
        with pytest.raises(ConfigError, match="^gamma_std must be at most 1e"):
            replace(cfg, gamma_std=math.nextafter(harness.GAMMA_STD_MAX, math.inf)).validate()

    def test_smallest_gamma_std_runs_with_finite_metrics(self):
        # Just above the floor a trial at every grid point runs, and every
        # metric is finite; below it validate() rejects the value.  At 1e-160
        # nmse_gamma used to read inf, at 1e-200 every trial failed.
        cfg = replace(default_config(), gamma_std=math.nextafter(harness.GAMMA_STD_MIN, math.inf))
        for point in cfg.validate():
            record = run_trial(point, 0)
            assert all(math.isfinite(getattr(record, name)) for name in METRIC_COLUMNS), record
        for below in (math.nextafter(harness.GAMMA_STD_MIN, 0.0), 1e-160, 1e-200):
            with pytest.raises(ConfigError, match="^gamma_std must be at least 1e-100, or its squares underflow$"):
                replace(cfg, gamma_std=below).validate()

    @pytest.mark.parametrize("gain, message", [
        (math.nextafter(harness.COMM_GAIN_MIN, math.inf), None),
        (math.nextafter(harness.COMM_GAIN_MAX, 0.0), None),
        (math.nextafter(harness.COMM_GAIN_MIN, 0.0), "nonzero comm_gains magnitudes must lie in [1e-100, 1e+100]"),
        (1e-155, "nonzero comm_gains magnitudes must lie in [1e-100, 1e+100]"),
        (1j * math.nextafter(harness.COMM_GAIN_MAX, math.inf), "nonzero comm_gains magnitudes must lie in [1e-100, 1e+100]"),
        (1e155, "nonzero comm_gains magnitudes must lie in [1e-100, 1e+100]"),
    ])
    def test_comm_gain_range(self, gain, message):
        # Inside the range a trial at every grid point, noiseless included,
        # runs with finite metrics, and the perfect-CSI benchmark is exact
        # without noise.  At 1e-155 the noiseless ser_zf used to read 0.625.
        cfg = replace(default_config(), comm_gains=[gain], sweep_values=[0.0, 30.0, math.inf])
        if message is not None:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                cfg.validate()
            return
        points = cfg.validate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = [run_trial(point, 0) for point in points]
        for record in records:
            assert all(math.isfinite(getattr(record, name)) for name in METRIC_COLUMNS), record
        assert records[-1].ser_zf == 0.0 and records[-1].ser_krf == 0.0

    @pytest.mark.parametrize("changes, link", [
        ({"gamma_std": harness.GAMMA_STD_MIN}, "sensing"),  # N0 relative to the reflections
        ({}, "sensing"),                                   # N0 itself
        ({"comm_gains": [harness.COMM_GAIN_MIN]}, "comm"),  # N0 relative to the channel
    ])
    def test_noise_floor_per_link(self, changes, link):
        # Just inside a link's noise floor a trial runs with finite metrics;
        # just outside it validate() names the link.  With gamma_std 1e-100
        # at -2000 dB nmse_gamma used to read inf, with gamma_std 1 at
        # -3070 dB the fit met an infinite tensor energy, and with a gain of
        # 1e-100 at -1100 dB nmse_h read inf.
        cfg = replace(default_config(), **changes)
        energy = zf_channel_energy(build_comm_link(
            cfg.comm_aoa, cfg.comm_aod, cfg.comm_gains, m_u=cfg.m_u, m_t=cfg.m_t).h).min()
        signal = cfg.gamma_std**2 if link == "sensing" else energy
        edge_db = -10.0 * math.log10(harness.NOISE_MAX * min(signal, 1.0))
        (point,) = replace(cfg, sweep_values=[edge_db + 0.01]).validate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run_trial(point, 0)
        assert all(math.isfinite(getattr(record, name)) for name in METRIC_COLUMNS), record
        outside = replace(cfg, sweep_values=[edge_db - 0.01])
        with pytest.raises(ConfigError, match=f"^sweep point es_n0={re.escape(str(edge_db - 0.01))}: "
                                              f"{link} link noise variance .* so it overflows$"):
            outside.validate()

    def test_check_accepts_exactly_what_the_first_trial_runs(self):
        # validate() raises ConfigError, and nothing else, exactly when some
        # sweep point's first trial raises.  Every shape runs at one noise
        # level.  Each point is built here as validate() would build it, so
        # that a rejected config still shows whether its trials would run.
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
                    noise = cfg.sweep_variable == "es_n0"
                    pt = replace(cfg, **({"es_n0_db": value} if noise else {cfg.sweep_variable: int(value)}))
                    link = build_comm_link(pt.comm_aoa, pt.comm_aod, pt.comm_gains, m_u=pt.m_u, m_t=pt.m_t)
                    run_trial(GridPoint(pt, value, link), 0)
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
        ({"es_n0_db": -3100.0, "sweep_variable": "n", "sweep_values": [3, 4]},
         "sweep point n=3: noise variance 10 ** (3100.0 / 10) overflows"),
        # A seed key out of range used to end validate() in a bare
        # OverflowError, or to reach the +inf sentinel's key.
        ({"sweep_values": [0.0, 1e303]}, "to have a seed key: [1e+303]"),
        ({"sweep_values": [-1e303, 0.0]}, "to have a seed key: [-1e+303]"),
        ({"sweep_variable": "n", "sweep_values": [3, 1e303]}, "to have a seed key: [1e+303]"),
        ({"sweep_values": [0.0, 1.2e12, math.inf]}, "to have a seed key: [1200000000000.0]"),
        # A finite reflection std can still overflow the sensing tensor.
        ({"gamma_std": 1e200}, "gamma_std must be at most 1e+100, or the sensing tensor overflows"),
        # Each of these used to pass and then write an infinite NMSE, fail
        # every trial, or read ser_zf 0.625 without noise.
        ({"gamma_std": 1e-100, "sweep_values": [-2000.0]}, "sweep point es_n0=-2000.0: sensing link noise"),
        ({"sweep_values": [-3070.0]}, "sweep point es_n0=-3070.0: sensing link noise"),
        ({"comm_gains": [1e-150], "sweep_values": [-100.0]}, "nonzero comm_gains magnitudes must lie in"),
        ({"comm_gains": [1e-155], "sweep_values": [math.inf]}, "nonzero comm_gains magnitudes must lie in"),
        # These too used to pass validate() and then fail the first trial, in replace().
        ({"als": None}, "als must be an AlsConfig, got NoneType"),
        ({"als": {"max_iters": 5}}, "als must be an AlsConfig, got dict"),
        # A field that is not an integer is judged by the file parser of its
        # annotation: each of these ended validate() in a bare TypeError, or
        # passed and then failed the run or ran a target at 1 degree.
        ({"gamma_std": "1"}, "gamma_std: could not convert '1' to a number"),
        ({"es_n0_db": "10"}, "es_n0_db: could not convert '10' to a number"),
        ({"sensing_aoa": None}, "sensing_aoa: 'NoneType' object is not iterable"),
        ({"sweep_values": "abc"}, "sweep_values: expected a list of numbers, got 'abc'"),
        ({"comm_gains": ["x"]}, "comm_gains: could not convert 'x' to a number"),
        ({"output_dir": None}, "output_dir: None is not a string"),
        ({"sensing_aod": [True, 3.0]}, "sensing_aod: could not convert True to a number"),
    ])
    def test_validate_rejects_non_finite_values_set_in_code(self, changes, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            replace(default_config(), **changes).validate()

    def test_seed_keys_of_finite_values_stay_below_the_noiseless_sentinel(self):
        noiseless = harness._sweep_key(math.inf)
        for edge in ((2**60 - 2**48) / 1e6, -(2**48) / 1e6):
            for value in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                key = harness._sweep_key(value)
                assert key is None or 0 <= key < noiseless, (value, key)
        assert harness._sweep_key(1.15e12) == 1.15e18 + 2**48 < noiseless
        assert harness._sweep_key(1.16e12) is None

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
        # a negative seed used to alias a large one through a 63-bit mask
        ({"als": {"init_seed": -1}}, r"^als section: init_seed must be a non-negative integer, got -1$"),
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
        a = run_trial(grid_point(cfg, 10.0), 3)
        b = run_trial(grid_point(cfg, 10.0), 3)
        assert a == b

    def test_noiseless_record(self):
        cfg = default_config()
        rec = run_trial(grid_point(cfg, math.inf), 0)
        assert rec.converged
        assert rec.nmse_ar < 1e-8 and rec.nmse_at < 1e-8 and rec.nmse_gamma < 1e-8
        assert rec.nmse_h < 1e-8
        assert rec.ser_krf == 0.0 and rec.ser_zf == 0.0

    def test_metric_ranges(self):
        cfg = default_config()
        rec = run_trial(grid_point(cfg, 5.0), 1)
        assert rec.nmse_ar >= 0 and rec.nmse_at >= 0 and rec.nmse_gamma >= 0
        assert 0 <= rec.ser_krf <= 1 and 0 <= rec.ser_zf <= 1
        assert rec.angle_rmse_deg >= 0
        assert rec.als_iters >= 1

    def test_different_trials_differ(self):
        cfg = default_config()
        point = grid_point(cfg, 10.0)
        assert run_trial(point, 0) != run_trial(point, 1)

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
        )
        monkeypatch.setattr(harness, "als_fit", lambda *args: fixed)
        rec = run_trial(grid_point(cfg, 20.0), 0)
        assert abs(rec.angle_rmse_deg - expected) < 1e-5

    def test_each_point_builds_its_link_once(self, tmp_path, monkeypatch):
        # A 2-point x 3-trial sweep builds one comm link per point, not one
        # per trial nor one per validate() call, and a point's trials all see it.
        cfg = replace(default_config(), sweep_values=[0.0, 10.0], trials=3, output_dir=str(tmp_path))
        built, seen = [], []
        build, trial = harness.build_comm_link, harness.run_trial
        monkeypatch.setattr(harness, "build_comm_link", lambda *a, **kw: built.append(build(*a, **kw)) or built[-1])
        monkeypatch.setattr(harness, "run_trial", lambda point, t: seen.append(point.link) or trial(point, t))
        run_sweep(cfg)
        assert len(built) == 2 and built[0] is not built[1]
        assert len(seen) == 6 and all(link is built[i // 3] for i, link in enumerate(seen))

    @pytest.mark.parametrize("constellation", [4, 16])  # 16-QAM decisions also depend on the ZF scale
    def test_comm_path_matches_public_receivers(self, monkeypatch, constellation):
        cfg = replace(default_config(), constellation=constellation)
        projections = []
        project = comm_krf.estimate_symbol_channel_product
        monkeypatch.setattr(comm_krf, "estimate_symbol_channel_product",
                            lambda *args: projections.append(args) or project(*args))
        for value, trial in [(0.0, 0), (0.0, 1), (10.0, 2), (math.inf, 3)]:
            projections.clear()
            rec = run_trial(grid_point(cfg, value), trial)
            assert len(projections) == 1  # one code projection, so one orthonormality check
            _, frame_seed, _, comm_noise_seed, _ = (int(s) for s in harness._trial_seeds(cfg.base_seed, value, trial))
            frame = sample_frame(p=cfg.p, m_t=cfg.m_t, n=cfg.n, order=cfg.constellation, seed=frame_seed)
            link = build_comm_link(cfg.comm_aoa, cfg.comm_aod, cfg.comm_gains, m_u=cfg.m_u, m_t=cfg.m_t)
            y = add_noise(comm_forward(link, frame), value, seed=comm_noise_seed)
            est = semi_blind_receive(y, frame.c, frame.s_data[0, :], cfg.constellation)
            s_zf = zf_benchmark(y, link.h, frame.c, cfg.constellation)
            # Row 0 is the known reference, so both receivers are scored on rows 1..p-1.
            assert np.array_equal(est.s_hat[0], frame.s_data[0])
            assert (rec.ser_krf, rec.ser_zf, rec.nmse_h) == (
                ser(est.s_hat[1:], frame.s_data[1:]), ser(s_zf[1:], frame.s_data[1:]), nmse(est.h_hat, link.h))
            if value == 0.0:
                assert rec.ser_krf > 0 and rec.ser_zf > 0

    def test_ser_counts_symbol_errors_outside_the_reference_row(self):
        # Over rows 1..p-1, (p-1)*m_t*ser is a whole number of errors; over
        # all p rows it is a multiple of (p-1)/p.
        cfg = default_config()
        counts = [(cfg.p - 1) * cfg.m_t * getattr(run_trial(grid_point(cfg, 0.0), trial), name)
                  for trial in range(4) for name in ("ser_krf", "ser_zf")]
        assert all(abs(c - round(c)) < 1e-9 for c in counts), counts
        assert any(c > 0 for c in counts)


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

    def test_noiseless_user_antenna_sweep_decodes_exactly(self, tmp_path):
        # m_u = 1 < m_t used to be rejected; without noise every trial decodes exactly.
        cfg = replace(self.sweep_cfg(tmp_path / "out", trials=2), es_n0_db=math.inf,
                      sweep_variable="m_u", sweep_values=[1.0, 2.0, 4.0])
        results_path, _ = run_sweep(cfg)
        with open(results_path, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if int(r["trial"]) >= 0]
        assert [float(r["sweep_value"]) for r in rows] == [1.0, 1.0, 2.0, 2.0, 4.0, 4.0]
        assert all(float(r["ser_krf"]) == 0.0 and float(r["ser_zf"]) == 0.0 for r in rows)

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

    def test_parallel_jobs_match_serial(self, tmp_path, monkeypatch):
        # 2 grid points x 9 trials make 2 chunks, so jobs=2 on 2 CPUs opens a
        # real pool of 2 workers.
        opened = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = replace(self.sweep_cfg(tmp_path / "s", trials=9), jobs=1)
        parallel = replace(self.sweep_cfg(tmp_path / "p", trials=9), jobs=2)
        pa = run_sweep(serial)
        pb = run_sweep(parallel)
        assert opened == [2]
        for x, y in zip(pa, pb):
            with open(x, "rb") as fx, open(y, "rb") as fy:
                assert fx.read() == fy.read()

    def test_worker_pool_is_capped(self, tmp_path, monkeypatch):
        # The pool starts every worker it is given at its first submit.  A
        # stand-in that runs the tasks in this process records the count
        # asked for and starts no process.
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        serial = run_sweep(self.sweep_cfg(tmp_path / "serial", trials=1))
        tiny = run_sweep(replace(self.sweep_cfg(tmp_path / "tiny", trials=1), jobs=100000))
        for x, y in zip(serial, tiny):
            with open(x, "rb") as fx, open(y, "rb") as fy:
                assert fx.read() == fy.read()
        # 2 grid points x 17 trials make 3 chunks of harness.TASK_CHUNK = 16.
        # A cap of 1 (the 2-trial sweep above, or no known CPU count) opens no pool.
        for cpus, jobs in ((2, 100000), (64, 100000), (64, 2), (None, 100000)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            run_sweep(replace(self.sweep_cfg(tmp_path / f"{cpus}-{jobs}", trials=17), jobs=jobs))
        assert asked == [2, 3, 2]


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

    TRIAL_ROW = ["es_n0", "0", "0", "1", "true", "5", "0.1", "0.1", "0.1", "0.5", "0.1", "0.25", "0.125"]
    SUMMARY_ROW = ["es_n0", "0", "-1", "0", "1", "5", "0.1", "0.1", "0.1", "0.5", "0.1", "0.25", "0.125"]

    @staticmethod
    def write_results(path, *rows):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([CSV_COLUMNS, *rows])

    @pytest.mark.parametrize("rows, message", [
        ([TRIAL_ROW], r"must share one sweep variable .*, found \[\]$"),
        ([["../x"] + SUMMARY_ROW[1:]], r"found \['../x'\]$"),
        ([SUMMARY_ROW, ["n", "3"] + SUMMARY_ROW[2:]], r"found \['es_n0', 'n'\]$"),
        ([SUMMARY_ROW[:-1] + ["abc"]], "could not convert string to float: 'abc'"),
        ([SUMMARY_ROW[:-1]], "could not convert string to float: ''"),
    ], ids=["no-summary-rows", "path-in-sweep-var", "mixed-sweep-vars", "non-numeric-median", "short-row"])
    def test_rejects_what_run_sweep_does_not_write(self, tmp_path, rows, message):
        path = tmp_path / "results.csv"
        self.write_results(path, *rows)
        out = tmp_path / "plots"
        with pytest.raises(ValueError, match=message):
            emit_plot_data(str(path), out_dir=str(out))
        assert not out.exists()

    def test_creates_missing_output_dir(self, tmp_path):
        path = tmp_path / "results.csv"
        self.write_results(path, self.TRIAL_ROW, self.SUMMARY_ROW)
        out = tmp_path / "not" / "yet" / "there"
        paths = emit_plot_data(str(path), out_dir=str(out))
        assert all(os.path.dirname(p) == str(out) for p in paths)
        assert all(os.path.exists(p) for p in paths)
        # An empty out_dir is rejected before the CSV is read; it used to fail in os.makedirs("").
        with pytest.raises(ValueError, match="^out_dir must be a non-empty path$"):
            emit_plot_data(str(tmp_path / "missing.csv"), out_dir="")
        # So is one that is not a string; it used to fail in os.makedirs with a TypeError.
        for bad in (5, b"x", ["a"]):
            with pytest.raises(ValueError, match=f"^out_dir: {re.escape(repr(bad))} is not a string$"):
                emit_plot_data(str(tmp_path / "missing.csv"), out_dir=bad)

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

    def test_check_draws_nothing(self):
        # Validating judges the noise level by its rule alone: it used to draw
        # an empty noise tensor, which imported numpy.random (about 13 ms).
        config = os.path.join(os.path.dirname(__file__), "..", "bench", "configs", "snr_sweep.json")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "tensorisac.cli", "check", "--config", config],
            capture_output=True, text=True, timeout=300,
        )
        assert (proc.returncode, proc.stdout) == (0, "config ok\n"), proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert {"numpy", "tensorisac.harness"} <= imported
        assert not any(name == "numpy.random" or name.startswith("numpy.random.") for name in imported)

    def test_check_bounds_the_qam_order(self, tmp_path):
        proc = self.run_cli("check", "--config", write_config(tmp_path, constellation=2**44))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: QAM order must be at most 4096, got 17592186044416\n"
        proc = self.run_cli("check", "--config", write_config(tmp_path, constellation=4096))
        assert (proc.returncode, proc.stdout) == (0, "config ok\n")

    def test_check_bad_config(self, tmp_path):
        path = write_config(tmp_path, dims={"n": 1})
        proc = self.run_cli("check", "--config", path)
        assert proc.returncode == 2
        assert "slot code needs n >= m_t: 1 < 2" in proc.stderr
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
            ({"sweep": {"values": [-3100.0, 0.0]}}, "noise variance 10 ** (3100.0 / 10) overflows"),
            ({"sweep": {"values": [0.0, 1e303]}}, "to have a seed key: [1e+303]"),
            ({"gamma_std": 1e200}, "gamma_std must be at most 1e+100"),
            ({"gamma_std": 1e-160}, "gamma_std must be at least 1e-100"),
            ({"gamma_std": 1e-200}, "gamma_std must be at least 1e-100"),
            ({"output_dir": ""}, "output_dir must be a non-empty path"),
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
        # --out replaces output_dir and meets its rules; "" used to fail in os.makedirs("").
        proc = self.run_cli("run", "--config", config, "--out", "")
        assert proc.returncode == 2
        assert "error: output_dir must be a non-empty path" in proc.stderr, proc.stderr
        proc = self.run_cli("run", "--config", config, "--out", str(out), "--trials", "2")
        assert proc.returncode == 0, proc.stderr
        results = out / "results.csv"
        assert results.exists() and (out / "summary.csv").exists()
        proc = self.run_cli("plotdata", "--csv", str(results))
        assert proc.returncode == 0, proc.stderr
        assert (out / "ser_krf_vs_es_n0.txt").exists()
        proc = self.run_cli("plotdata", "--csv", str(results), "--out", "")
        assert proc.returncode == 2
        assert "out_dir" in proc.stderr, proc.stderr
        # Plot data copies the summary rows; a CSV without them is rejected.
        trials_only = tmp_path / "trials_only.csv"
        trials_only.write_text("".join(l for l in results.read_text().splitlines(True) if ",-1," not in l))
        proc = self.run_cli("plotdata", "--csv", str(trials_only))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "found []" in proc.stderr, proc.stderr
        # gamma_std 1e200 overflows the sensing tensor; it used to pass check
        # and fail every trial in als_fit, and is now rejected before any trial.
        huge = write_config(tmp_path, sweep={"values": [10.0]}, trials=1, gamma_std=1e200)
        proc = self.run_cli("run", "--config", huge, "--out", str(tmp_path / "huge"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: gamma_std must be at most 1e+100"), proc.stderr
        assert not (tmp_path / "huge").exists()

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


AB_TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "ab.py")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture(scope="module")
def ab():
    """``tools/ab.py`` as a module.  Importing it pins BLAS to one thread in
    ``os.environ``; that is kept out of the processes other tests start."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec = importlib.util.spec_from_file_location("ab_tool", AB_TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


class TestReplayTool:
    """``tools/ab.py`` keeps the fits and artifacts of one sweep per checkout
    and compares them fit by fit and file by file."""

    # (sweep value, trial, iterations, converged, final objective, nmse_ar)
    ROWS = [(0.0, 0, 5, True, 0.25, 0.01), (0.0, 1, 7, True, 0.125, 0.04),
            (10.0, 0, 4, True, 0.0625, 0.02), (10.0, 1, 9, False, 0.03125, 0.02)]
    HASHES = {"results.csv": "0a", "summary.csv": "0b"}

    def test_rows_match_run_trial(self, ab, tmp_path):
        cfg = replace(default_config(), trials=2)
        rows, hashes = ab.replay(ab.tensorisac, cfg, str(tmp_path))
        assert [row[:2] for row in rows] == [(value, trial) for value in cfg.sweep_values for trial in range(2)]
        for value, trial, iters, converged, objective, nmse_ar in rows:
            record = run_trial(grid_point(cfg, value), trial)
            assert (iters, converged, nmse_ar) == (record.als_iters, record.converged, record.nmse_ar)
            assert 0.0 < objective < 1.0
        # One hash per artifact of the sweep, each of the file it names.
        assert sorted(hashes) == sorted(path.name for path in tmp_path.iterdir())
        assert len(hashes) == 2 + len(METRIC_COLUMNS)
        for name, digest in hashes.items():
            assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    def test_summary_and_compare_of_identical_rows(self, ab):
        assert ab.summary(self.ROWS) == [
            "fits 4",
            "iters total 25 p50 6 p90 8.4 max 9",
            "capped 1",
            "nmse_ar geomean 0.02 over nonzero fits, exactly zero 0",
        ]
        assert ab.compare(self.ROWS, self.HASHES, self.ROWS, self.HASHES) == [
            "# against: iters total 25 -> 25 (+0.0 %)",
            "# against: capped 1 -> 1",
            "# against: worst objective ratio 1.000000 (sweep_value 0, trial 0)",
            "# against: objective ratio - 1 in [0, 0]",
            "# against: fits more than 1e-05 above the parent's objective 0",
            "# against: fits more than 1e-05 below the parent's objective 0",
            "# against: fits with a different iteration count 0",
            "# against: fits with a different converged flag 0",
            "# against: largest relative nmse_ar difference 0 (sweep_value 0, trial 0)",
            "# against: fits identical 4 of 4",
            "# against: artifacts SHA-identical 2 of 2",
        ]

    def test_compare_counts_artifacts_by_name(self, ab):
        # A file with another hash, or on one side only, is not identical.
        parent = {**self.HASHES, "summary.csv": "1b", "plot.txt": "0c"}
        assert "# against: artifacts SHA-identical 1 of 3" in ab.compare(self.ROWS, self.HASHES, self.ROWS, parent)
        assert "# against: artifacts SHA-identical 1 of 3" in ab.compare(self.ROWS, parent, self.ROWS, self.HASHES)

    def test_compare_counts_objectives_that_moved(self, ab):
        # One parent objective one ulp higher: that fit alone is no longer
        # identical, and it ended lower, so it did not move.
        parent = list(self.ROWS)
        parent[0] = (*parent[0][:4], math.nextafter(parent[0][4], math.inf), parent[0][5])
        lines = ab.compare(self.ROWS, self.HASHES, parent, self.HASHES)
        assert "# against: fits identical 3 of 4" in lines
        assert "# against: fits more than 1e-05 above the parent's objective 0" in lines
        assert "# against: fits more than 1e-05 below the parent's objective 0" in lines
        assert not [line for line in lines if line.startswith("# moved:")]
        # Against parent objectives twice as large, every fit ends below its parent's.
        parent = [(*row[:4], row[4] * 2, row[5]) for row in self.ROWS]
        lines = ab.compare(self.ROWS, self.HASHES, parent, self.HASHES)
        assert "# against: fits more than 1e-05 above the parent's objective 0" in lines
        assert "# against: fits more than 1e-05 below the parent's objective 4" in lines
        # With one parent objective only 5e-6 above this run's, three are counted.
        parent[1] = (*parent[1][:4], self.ROWS[1][4] * (1 + 5e-6), parent[1][5])
        assert "# against: fits more than 1e-05 below the parent's objective 3" in ab.compare(
            self.ROWS, self.HASHES, parent, self.HASHES)
        # Against parent objectives half as large, every fit ends above its parent's.
        parent = [(*row[:4], row[4] / 2, row[5]) for row in self.ROWS]
        lines = ab.compare(self.ROWS, self.HASHES, parent, self.HASHES)
        assert "# against: fits more than 1e-05 above the parent's objective 4" in lines
        assert "# against: fits more than 1e-05 below the parent's objective 0" in lines
        assert "# against: objective ratio - 1 in [1, 1]" in lines
        assert lines[-4:] == [
            f"# moved: sweep_value {v:g}, trial {t}: iters {i} -> {i}, converged {c} -> {c}, objective ratio - 1 1"
            for v, t, i, c, _, _ in self.ROWS
        ]

    def test_counts_fits_whose_iterations_flag_or_nmse_differ(self, ab):
        # Parent fit 0 took one more iteration, fit 1 has the other flag and
        # fit 2 an nmse_ar 0.1 % above this run's.
        parent = list(self.ROWS)
        parent[0] = (*parent[0][:2], parent[0][2] + 1, *parent[0][3:])
        parent[1] = (*parent[1][:3], not parent[1][3], *parent[1][4:])
        parent[2] = (*parent[2][:5], parent[2][5] * 1.001)
        lines = ab.compare(self.ROWS, self.HASHES, parent, self.HASHES)
        assert "# against: iters total 26 -> 25 (-3.8 %)" in lines
        assert "# against: capped 2 -> 1" in lines
        assert "# against: fits with a different iteration count 1" in lines
        assert "# against: fits with a different converged flag 1" in lines
        line = next(line for line in lines if line.startswith("# against: largest relative nmse_ar difference "))
        assert line.endswith("(sweep_value 10, trial 0)")
        assert float(line.split()[6]) == pytest.approx(0.001 / 1.001, rel=1e-3)  # printed to 3 digits
        assert "# against: fits identical 1 of 4" in lines
        assert [line for line in lines if line.startswith("# moved:")] == [
            "# moved: sweep_value 0, trial 0: iters 6 -> 5, converged True -> True, objective ratio - 1 0",
            "# moved: sweep_value 0, trial 1: iters 7 -> 7, converged False -> True, objective ratio - 1 0",
        ]

    def test_totals_printed_when_a_fit_reads_exactly_zero(self, ab, tmp_path):
        # With one receive antenna the normalized a_rx estimate is the pinned
        # entry 1, as is the truth, so fits read nmse_ar = 0.
        config = write_config(tmp_path, dims={"m_r": 1, "m_t": 2, "n": 3, "k": 1, "p": 8},
                              angles={"sensing_aoa": [15.0], "sensing_aod": [-37.0]},
                              sweep={"variable": "es_n0", "values": [10.0]}, trials=3)
        rows, _ = ab.replay(ab.tensorisac, load_config(config), str(tmp_path / "out"))
        zeros = sum(row[5] == 0.0 for row in rows)
        assert len(rows) == 3 and zeros > 0
        assert ab.summary(rows)[-1].endswith(f" over nonzero fits, exactly zero {zeros}")
        # A zero matched exactly differs by 0; a parent zero the change misses, by inf.
        zero = [(*self.ROWS[0][:5], 0.0)]
        lines = ab.compare(zero, {}, zero, {})
        assert "# against: largest relative nmse_ar difference 0 (sweep_value 0, trial 0)" in lines
        lines = ab.compare(self.ROWS[:1], {}, zero, {})
        assert "# against: largest relative nmse_ar difference inf (sweep_value 0, trial 0)" in lines
        assert ab.summary(zero)[-1] == "nmse_ar geomean nan over nonzero fits, exactly zero 1"

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trial_count_override_validated(self, trials):
        proc = subprocess.run([sys.executable, AB_TOOL, SRC, "--config", CONFIG_PATH, "--trials", trials],
                              capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: trials must be at least 1\n"


class TestAbSweepTool:
    """``tools/ab.py`` run end to end against another checkout: one sweep per
    side, its fits and its artifacts compared."""

    def run_tool(self, parent_src, *args):
        proc = subprocess.run([sys.executable, AB_TOOL, str(parent_src), "--config", CONFIG_PATH, "--trials", "1", *args],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def copy_with(self, tmp_path, module, old, new):
        """A copy of ``src`` with ``old`` replaced by ``new`` in ``tensorisac/<module>.py``."""
        copy = tmp_path / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "tensorisac" / f"{module}.py"
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
        return copy

    def test_repo_against_itself_and_against_a_changed_copy(self, tmp_path):
        values, artifacts = default_config().sweep_values, 2 + len(METRIC_COLUMNS)
        out = self.run_tool(SRC)
        for side in ("parent", "change"):
            assert f"# {side}: fits {len(values)}" in out
        assert f"# against: fits identical {len(values)} of {len(values)}" in out
        assert f"# against: artifacts SHA-identical {artifacts} of {artifacts}" in out
        assert not [line for line in out if line.startswith("# moved:")]
        assert all(line.startswith("#") for line in out)  # nothing is timed
        # A copy that writes 16 significant digits fits alike, but its artifacts differ.
        out = self.run_tool(self.copy_with(tmp_path, "harness", ':.17g}"', ':.16g}"'))
        assert f"# against: fits identical {len(values)} of {len(values)}" in out
        (line,) = [line for line in out if line.startswith("# against: artifacts SHA-identical ")]
        same = re.fullmatch(rf"# against: artifacts SHA-identical (\d+) of {artifacts}", line)
        assert same and int(same.group(1)) < artifacts

    def test_every_fit_that_moves_is_listed(self, tmp_path):
        # Without the closed-form start every fit takes other steps.
        values = default_config().sweep_values
        out = self.run_tool(self.copy_with(tmp_path, "sensing_als", "if restart == 0 and closed_form:", "if False:"))
        assert f"# against: fits identical 0 of {len(values)}" in out
        assert f"# against: fits with a different iteration count {len(values)}" in out
        moved = [line for line in out if line.startswith("# moved:")]
        assert [line.split(",")[0] for line in moved] == [f"# moved: sweep_value {v:g}" for v in values]

    def test_timing_option_is_gone(self):
        # Speed is measured by bench/run.py; the tool has no timer.
        proc = subprocess.run([sys.executable, AB_TOOL, SRC, "--steps", "2"],
                              capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "error: unrecognized arguments: --steps 2" in proc.stderr
