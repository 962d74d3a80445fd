"""Unit tests for the semi-blind communication receiver."""

import math

import numpy as np
import pytest

from tensorisac.exceptions import IdentifiabilityError
from tensorisac.comm_krf import (
    detect_symbols,
    estimate_symbol_channel_product,
    krf_factorize,
    remove_scaling,
    semi_blind_receive,
    zf_benchmark,
    zf_channel_energy,
    zf_detect,
)
from tensorisac.signal_model import (
    add_noise,
    build_comm_link,
    comm_forward,
    qam_constellation,
    sample_frame,
)
from tensorisac.tensor_ops import khatri_rao, unvec

from helpers import rebuild_comm_tensor


def comm_instance(seed, m_u=2, m_t=2, p=8, n=3, noise_db=None):
    frame = sample_frame(p=p, m_t=m_t, n=n, order=4, seed=seed)
    link = build_comm_link([78.0], [25.0], [1.0 + 0.0j], m_u=m_u, m_t=m_t)
    y = comm_forward(link, frame)
    if noise_db is not None:
        y = add_noise(y, noise_db, seed=seed + 1)
    return frame, link, y


class TestCodeProjection:
    def test_equals_khatri_rao_product(self):
        for seed in range(5):
            frame, link, y = comm_instance(seed)
            q = estimate_symbol_channel_product(y, frame.c)
            q_true = khatri_rao(frame.s_data, link.h)
            assert np.abs(q - q_true).max() < 1e-12

    def test_rectangular_dims(self):
        frame, link, y = comm_instance(3, m_u=4, m_t=3, p=6, n=5)
        q = estimate_symbol_channel_product(y, frame.c)
        assert q.shape == (4 * 6, 3)
        assert np.abs(q - khatri_rao(frame.s_data, link.h)).max() < 1e-12

    def test_non_orthonormal_code_rejected(self):
        frame, link, y = comm_instance(1)
        bad_code = frame.c * 1.001
        with pytest.raises(ValueError):
            estimate_symbol_channel_product(y, bad_code)

    def test_too_few_slots_rejected(self):
        frame, link, y = comm_instance(1)
        with pytest.raises(IdentifiabilityError):
            estimate_symbol_channel_product(y[:, :, :1], frame.c[:1, :])


class TestKrfFactorize:
    def test_product_preserved_per_column(self):
        rng = np.random.default_rng(70)
        m_u, p, m_t = 3, 5, 4
        s = rng.standard_normal((p, m_t)) + 1j * rng.standard_normal((p, m_t))
        h = rng.standard_normal((m_u, m_t)) + 1j * rng.standard_normal((m_u, m_t))
        q = khatri_rao(s, h)
        s_hat, h_hat = krf_factorize(q, m_u=m_u, p=p)
        assert np.abs(khatri_rao(s_hat, h_hat) - q).max() < 1e-12

    def test_residual_is_second_singular_value(self):
        rng = np.random.default_rng(71)
        q = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        s_hat, h_hat = krf_factorize(q, m_u=2, p=3)
        for m in range(2):
            block = q[:, m].reshape(3, 2).T  # m_u x p, column-major pairing
            s2 = np.linalg.svd(block, compute_uv=False)[1:]
            resid = np.linalg.norm(np.kron(s_hat[:, m], h_hat[:, m]) - q[:, m])
            assert abs(resid - np.linalg.norm(s2)) < 1e-10


class TestScalingRemoval:
    def test_reference_row_restored(self):
        rng = np.random.default_rng(72)
        frame, link, y = comm_instance(9)
        q = estimate_symbol_channel_product(y, frame.c)
        s, h = krf_factorize(q, m_u=2, p=8)
        s2, h2 = remove_scaling(s, h, frame.s_data[0, :])
        assert np.abs(s2[0, :] - frame.s_data[0, :]).max() < 1e-12

    def test_product_invariant(self):
        rng = np.random.default_rng(73)
        s = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        ref = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s2, h2 = remove_scaling(s, h, ref)
        assert np.abs(khatri_rao(s2, h2) - khatri_rao(s, h)).max() < 1e-12

    def test_zero_pivot_rejected(self):
        s = np.zeros((2, 2), dtype=complex)
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            remove_scaling(s, h, np.ones(2, dtype=complex))

    def test_zero_reference_rejected(self):
        rng = np.random.default_rng(74)
        s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            remove_scaling(s, h, np.zeros(2, dtype=complex))


class TestDetection:
    def test_idempotent(self):
        rng = np.random.default_rng(75)
        soft = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        once = detect_symbols(soft, 4)
        twice = detect_symbols(once, 4)
        assert np.array_equal(once, twice)

    def test_outputs_on_grid(self):
        rng = np.random.default_rng(76)
        soft = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
        hard = detect_symbols(soft, 16)
        pts = qam_constellation(16)
        dists = np.min(np.abs(hard.reshape(-1, 1) - pts.reshape(1, -1)), axis=1)
        assert dists.max() < 1e-12


class TestEndToEnd:
    def test_noiseless_pipeline_exact(self):
        for seed in range(5):
            frame, link, y = comm_instance(seed + 20)
            est = semi_blind_receive(y, frame.c, frame.s_data[0, :], 4)
            assert np.abs(est.s_hat - frame.s_data).max() < 1e-10
            assert np.abs(est.h_hat - link.h).max() < 1e-10
            assert np.abs(est.s_soft - frame.s_data).max() < 1e-10

    def test_reconstruction_from_estimates(self):
        frame, link, y = comm_instance(33)
        est = semi_blind_receive(y, frame.c, frame.s_data[0, :], 4)
        rebuilt = rebuild_comm_tensor(est.h_hat, frame.c, est.s_hat)
        assert np.abs(rebuilt - y).max() < 1e-10

    def test_moderate_noise_low_error(self):
        errs = 0
        total = 0
        for seed in range(10):
            frame, link, y = comm_instance(seed + 50, noise_db=15.0)
            est = semi_blind_receive(y, frame.c, frame.s_data[0, :], 4)
            errs += np.sum(np.abs(est.s_hat - frame.s_data) > 1e-9)
            total += frame.s_data.size
        assert errs / total < 0.05


class TestZfBenchmark:
    def test_noiseless_exact(self):
        frame, link, y = comm_instance(90)
        s = zf_benchmark(y, link.h, frame.c, 4)
        assert np.array_equal(s, detect_symbols(frame.s_data, 4))

    @pytest.mark.parametrize("m_u, m_t, noise_db", [(2, 2, -5.0), (4, 3, -10.0), (5, 2, -12.0),
                                                    (1, 2, 0.0), (2, 3, -5.0)])
    def test_matches_per_stream_loop(self, m_u, m_t, noise_db):
        # Reference: the separated block of stream m is unvec(q[:, m], m_u, p);
        # combine it with the conjugated true channel column, one stream at a time.
        frame, link, y = comm_instance(93, m_u=m_u, m_t=m_t, n=m_t + 1, noise_db=noise_db)
        p = frame.s_data.shape[0]
        q = estimate_symbol_channel_product(y, frame.c)
        s_soft = np.empty((p, m_t), dtype=complex)
        for m in range(m_t):
            block = unvec(q[:, m], m_u, p)
            s_soft[:, m] = link.h[:, m].conj() @ block / np.vdot(link.h[:, m], link.h[:, m]).real
        expected = detect_symbols(s_soft, 4)
        assert np.mean(expected != detect_symbols(frame.s_data, 4)) > 0  # noise flips decisions
        assert np.array_equal(zf_benchmark(y, link.h, frame.c, 4), expected)

    @pytest.mark.parametrize("order", [4, 16])
    @pytest.mark.parametrize("es_n0_db", [0.0, 5.0])
    def test_ser_matches_closed_form(self, order, es_n0_db):
        # With an orthonormal code, stream m reaches the detector with noise
        # variance N0 / ||h_m||^2, so each entry is a square-QAM decision at
        # SNR ||h_m||^2 / N0 with a closed-form error rate.
        # The default comm link, and the same link to a single-antenna user (m_u < m_t).
        trials, p, m_t, n = 400, 8, 2, 3

        def q_func(x):
            return 0.5 * math.erfc(x / math.sqrt(2.0))

        n0 = 10.0 ** (-es_n0_db / 10.0)
        for m_u in (2, 1):
            link = build_comm_link([78.0], [25.0], [1.0 + 0.0j], m_u=m_u, m_t=m_t)
            errors = 0
            for t in range(trials):
                frame = sample_frame(p=p, m_t=m_t, n=n, order=order, seed=7 * t + order)
                y = add_noise(comm_forward(link, frame), es_n0_db, seed=7 * t + order + 1)
                errors += np.count_nonzero(zf_benchmark(y, link.h, frame.c, order) != detect_symbols(frame.s_data, order))
            measured = errors / (trials * p * m_t)
            per_stream = [
                1.0 - (1.0 - 2.0 * (1.0 - 1.0 / math.sqrt(order))
                       * q_func(math.sqrt(3.0 * energy / ((order - 1) * n0)))) ** 2
                for energy in np.sum(np.abs(link.h) ** 2, axis=0)
            ]
            expected = float(np.mean(per_stream))
            se = math.sqrt(sum(r * (1.0 - r) for r in per_stream) * trials * p) / (trials * p * m_t)
            assert abs(measured - expected) < 4.0 * se, (m_u, measured, expected, se)

    def test_fewer_user_antennas_decode(self):
        # These used to raise "benchmark needs m_u >= m_t".  The orthonormal code
        # separates the streams, so ZF is the per-stream matched filter for any
        # m_u; both receivers are exact without noise.
        for m_u, m_t in ((1, 2), (1, 3), (2, 3)):
            frame, link, y = comm_instance(91, m_u=m_u, m_t=m_t, n=m_t + 1)
            want = detect_symbols(frame.s_data, 4)
            assert np.array_equal(zf_benchmark(y, link.h, frame.c, 4), want)
            est = semi_blind_receive(y, frame.c, frame.s_data[0, :], 4)
            assert np.array_equal(est.s_hat, want)
            assert np.array_equal(zf_detect(est.q, link.h, 4), want)

    def test_channel_and_code_column_counts_must_match(self):
        # This used to fail inside numpy: "cannot reshape array of size 64 into shape (3,8,4)".
        frame, link, y = comm_instance(94, m_u=4, m_t=2)
        h_wide = build_comm_link([78.0], [25.0], [1.0 + 0.0j], m_u=4, m_t=3).h
        with pytest.raises(ValueError, match=r"channel must be 4 x 2 \(receive antennas x code columns\), got \(4, 3\)"):
            zf_benchmark(y, h_wide, frame.c, 4)
        q = estimate_symbol_channel_product(y, frame.c)
        for h in (h_wide, link.h[:3, :]):
            with pytest.raises(ValueError, match=rf"projection of shape \(32, 2\) does not fit a {h.shape[0]} x {h.shape[1]}"):
                zf_detect(q, h, 4)

    def test_zero_channel_column_rejected(self):
        frame, link, y = comm_instance(92)
        h_bad = link.h.copy()
        h_bad[:, 0] = 0.0
        with pytest.raises(ValueError):
            zf_benchmark(y, h_bad, frame.c, 4)
        # zf_detect used to divide this stream by its zero energy.
        q = estimate_symbol_channel_product(y, frame.c)
        with pytest.raises(ValueError, match="^channel has a zero column; that stream is unobservable$"):
            zf_detect(q, h_bad, 4)

    def test_detect_derives_the_channel_energies(self):
        # Same decisions as the least-squares rule with the energies
        # zf_channel_energy states, on a channel whose columns differ in energy.
        frame = sample_frame(p=8, m_t=2, n=3, order=16, seed=95)
        link = build_comm_link([10.0, -50.0], [5.0, 60.0], [0.7 - 0.2j, 1.1 + 0.4j], m_u=3, m_t=2)
        y = add_noise(comm_forward(link, frame), 5.0, seed=96)
        q = estimate_symbol_channel_product(y, frame.c)
        energy = zf_channel_energy(link.h)
        assert energy[0] != energy[1]
        soft = np.stack([link.h[:, m].conj() @ unvec(q[:, m], 3, 8) for m in range(2)], axis=1) / energy
        assert np.array_equal(zf_detect(q, link.h, 16), detect_symbols(soft, 16))
