"""Unit tests for configuration, metrics, the trial driver, and artifacts."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from tensorisac import harness
from tensorisac.exceptions import ConfigError
from tensorisac.harness import (
    CSV_COLUMNS,
    METRIC_COLUMNS,
    default_config,
    emit_plot_data,
    load_config,
    nmse,
    run_sweep,
    run_trial,
    ser,
)
from tensorisac.sensing_als import SensingEstimate
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
        path = write_config(tmp_path, sweep={"values": [10.0, 0.0]})
        with pytest.raises(ConfigError, match="sorted"):
            load_config(path)

    def test_sweep_point_validated_not_just_base(self, tmp_path):
        # base dims fine, but the m_u sweep dips below m_t
        path = write_config(tmp_path, sweep={"variable": "m_u", "values": [1.0, 2.0]})
        with pytest.raises(ConfigError, match="m_u >= m_t"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_angle_out_of_range_rejected(self, tmp_path):
        path = write_config(tmp_path, angles={"sensing_aoa": [95.0, 27.0]})
        with pytest.raises(ConfigError, match="-90, 90"):
            load_config(path)


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

    def test_run_and_plotdata(self, tmp_path):
        config = write_config(tmp_path, sweep={"values": [0.0, 10.0]}, trials=2)
        out = tmp_path / "artifacts"
        proc = self.run_cli("run", "--config", config, "--out", str(out), "--trials", "2")
        assert proc.returncode == 0, proc.stderr
        results = out / "results.csv"
        assert results.exists() and (out / "summary.csv").exists()
        proc = self.run_cli("plotdata", "--csv", str(results))
        assert proc.returncode == 0, proc.stderr
        assert (out / "ser_krf_vs_es_n0.txt").exists()

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
