"""Unit tests for steering vectors, codes, constellations, and tensor synthesis."""

import numpy as np
import pytest

from tensorisac.exceptions import IdentifiabilityError
from tensorisac.signal_model import (
    CommLink,
    SensingScene,
    TransmitFrame,
    add_noise,
    build_comm_link,
    build_steering_matrix,
    comm_forward,
    krst_code,
    qam_constellation,
    qam_demodulate,
    qam_modulate,
    sample_frame,
    sample_scene,
    sensing_forward,
    steering_vector,
)

from helpers import oracle_comm_forward, oracle_sensing_forward


class TestSteering:
    def test_broadside_is_all_ones(self):
        assert np.allclose(steering_vector(0.0, 5), np.ones(5), atol=0, rtol=0)

    def test_analytic_entries(self):
        theta = 30.0
        a = steering_vector(theta, 4)
        expected = np.exp(1j * np.pi * np.arange(4) * np.sin(np.deg2rad(theta)))
        assert np.abs(a - expected).max() < 1e-15

    def test_single_antenna(self):
        assert np.array_equal(steering_vector(47.0, 1), np.ones(1, dtype=complex))

    def test_unit_magnitude_entries(self):
        a = steering_vector(-63.0, 8)
        assert np.abs(np.abs(a) - 1).max() < 1e-15

    @pytest.mark.parametrize("bad", [-90.0, 90.0, 120.0, -91.5])
    def test_angle_range_gate(self, bad):
        with pytest.raises(ValueError):
            steering_vector(bad, 4)

    def test_matrix_columns_are_steering_vectors(self):
        angles = [15.0, 27.0, -44.0]
        a = build_steering_matrix(angles, 3)
        assert a.shape == (3, 3)
        for j, ang in enumerate(angles):
            assert np.array_equal(a[:, j], steering_vector(ang, 3))


class TestKrstCode:
    @pytest.mark.parametrize("n,m_t", [(2, 2), (3, 2), (4, 4), (8, 3), (16, 2)])
    def test_gram_is_identity(self, n, m_t):
        c = krst_code(n, m_t)
        assert c.shape == (n, m_t)
        assert np.abs(c.T @ c.conj() - np.eye(m_t)).max() < 1e-12

    def test_entry_magnitudes(self):
        c = krst_code(4, 3)
        assert np.abs(np.abs(c) - 1 / 2).max() < 1e-12

    def test_too_few_slots_rejected(self):
        with pytest.raises(IdentifiabilityError, match=r"^slot code needs n >= m_t: 2 < 3$"):
            krst_code(2, 3)

    @pytest.mark.parametrize("n,m_t", [(3, 2), (4, 4), (5, 3)])
    def test_cached_read_only_dft_columns(self, n, m_t):
        c = krst_code(n, m_t)
        assert krst_code(n, m_t) is c
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 0.0
        for i in range(n):
            for j in range(m_t):
                assert abs(c[i, j] - np.exp(-2j * np.pi * i * j / n) / np.sqrt(n)) < 1e-15
        # every frame shares the cached code
        assert sample_frame(p=4, m_t=m_t, n=n, order=4, seed=3).c is c


class TestQam:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        pts = qam_constellation(order)
        assert pts.size == order
        assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12

    def test_four_qam_points(self):
        pts = qam_constellation(4)
        expected = np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]) / np.sqrt(2)
        assert np.abs(np.sort_complex(pts) - np.sort_complex(expected)).max() < 1e-12

    @pytest.mark.parametrize("bad", [0, 2, 8, 32, -4, -1])
    def test_non_square_orders_rejected(self, bad):
        # A negative order is judged by the QAM rule, not by isqrt.
        with pytest.raises(ValueError, match=r"^QAM order must be a square \(4, 16, 64, \.\.\.\), got "):
            qam_constellation(bad)

    def test_modulate_demodulate_roundtrip(self):
        for order in (4, 16):
            idx = np.arange(order)
            syms = qam_modulate(idx, order)
            assert np.array_equal(qam_demodulate(syms, order), idx)

    def test_demodulate_nearest_neighbour(self):
        rng = np.random.default_rng(3)
        pts = qam_constellation(16)
        idx = rng.integers(0, 16, size=200)
        noisy = pts[idx] + 0.05 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        assert np.array_equal(qam_demodulate(noisy, 16), idx)

    def test_demodulate_tie_breaks_to_lowest_index(self):
        pts = qam_constellation(4)
        mid = (pts[0] + pts[1]) / 2  # equidistant from indices 0 and 1
        assert qam_demodulate(np.array([mid]), 4)[0] == 0

    def test_modulate_range_gate(self):
        with pytest.raises(ValueError):
            qam_modulate(np.array([4]), 4)
        with pytest.raises(ValueError):
            qam_modulate(np.array([-1]), 4)


class TestSceneAndFrame:
    def test_sample_scene_fixed_angles(self):
        scene = sample_scene(k=2, n=3, sigma=1.0, m_r=2, m_t=2,
                             theta=[15.0, 27.0], phi=[-37.0, 65.0], seed=5)
        assert np.array_equal(scene.theta, [15.0, 27.0])
        assert np.array_equal(scene.phi, [-37.0, 65.0])
        assert scene.gamma.shape == (3, 2)
        assert scene.rx_steering().shape == (2, 2)
        assert scene.tx_steering().shape == (2, 2)

    def test_sample_scene_deterministic(self):
        a = sample_scene(k=2, n=4, sigma=1.0, m_r=3, m_t=2, seed=42)
        b = sample_scene(k=2, n=4, sigma=1.0, m_r=3, m_t=2, seed=42)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.phi, b.phi)

    def test_sample_scene_sector_draw(self):
        scene = sample_scene(k=6, n=2, sigma=1.0, m_r=2, m_t=2, sector=(-30.0, 30.0), seed=9)
        assert np.all(np.abs(scene.theta) <= 30.0)
        assert np.all(np.abs(scene.phi) <= 30.0)

    def test_gamma_variance(self):
        scene = sample_scene(k=100, n=500, sigma=2.0, m_r=2, m_t=2, seed=17)
        measured = np.mean(np.abs(scene.gamma) ** 2)
        assert abs(measured - 4.0) / 4.0 < 0.02

    def test_scene_validation(self):
        gamma = np.zeros((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            SensingScene(theta=np.array([95.0, 10.0]), phi=np.array([0.0, 5.0]),
                         gamma=gamma, m_r=2, m_t=2)
        with pytest.raises(ValueError):
            SensingScene(theta=np.array([10.0]), phi=np.array([0.0, 5.0]),
                         gamma=gamma, m_r=2, m_t=2)
        with pytest.raises(ValueError, match="at least one element, got 0"):
            SensingScene(theta=[10.0, 20.0], phi=[0.0, 5.0], gamma=gamma, m_r=2, m_t=0)

    def test_scene_derives_read_only_steering(self):
        scene = SensingScene(theta=[10.0, -40.0], phi=[5.0, 60.0],
                             gamma=np.ones((3, 2), dtype=complex), m_r=3, m_t=2)
        assert np.array_equal(scene.a_rx, build_steering_matrix([10.0, -40.0], 3))
        assert np.array_equal(scene.a_tx, build_steering_matrix([5.0, 60.0], 2))
        assert scene.rx_steering() is scene.a_rx and scene.tx_steering() is scene.a_tx
        with pytest.raises(ValueError):
            scene.a_rx[0, 0] = 0.0
        # derived, never passed in, so they cannot disagree with the angles
        with pytest.raises(TypeError):
            SensingScene(theta=[10.0], phi=[5.0], gamma=np.ones((3, 1)), m_r=3, m_t=2, a_rx=np.ones((3, 1)))

    def test_sample_frame_contents(self):
        frame = sample_frame(p=8, m_t=2, n=3, order=4, seed=2)
        assert frame.s_pilot.shape == (8, 2)
        assert frame.s_data.shape == (8, 2)
        assert frame.c.shape == (3, 2)
        pts = qam_constellation(4)
        for block in (frame.s_pilot, frame.s_data):
            dists = np.min(np.abs(block.reshape(-1, 1) - pts.reshape(1, -1)), axis=1)
            assert dists.max() < 1e-12

    def test_sample_frame_deterministic(self):
        a = sample_frame(p=4, m_t=2, n=3, order=16, seed=8)
        b = sample_frame(p=4, m_t=2, n=3, order=16, seed=8)
        assert np.array_equal(a.s_pilot, b.s_pilot)
        assert np.array_equal(a.s_data, b.s_data)

    @pytest.mark.parametrize("order", [4, 16])
    def test_frame_symbols_derive_from_indices(self, order):
        pilot_idx = np.arange(6).reshape(3, 2) % order
        data_idx = (np.arange(6).reshape(3, 2) * 5 + 1) % order
        frame = TransmitFrame(pilot_idx, data_idx, n=4, constellation=order)
        assert np.array_equal(frame.s_pilot, qam_constellation(order)[pilot_idx])
        assert np.array_equal(frame.s_data, qam_constellation(order)[data_idx])
        assert frame.c is krst_code(4, 2)
        for bad in (order, -1):
            with pytest.raises(ValueError, match="outside"):
                TransmitFrame(pilot_idx, np.full((3, 2), bad), n=4, constellation=order)
        with pytest.raises(ValueError, match="same shape"):
            TransmitFrame(pilot_idx, data_idx[:2], n=4, constellation=order)

    def test_build_comm_link_channel(self):
        link = build_comm_link([78.0], [25.0], [1.0 + 0.0j], m_u=2, m_t=2)
        expected = np.outer(steering_vector(78.0, 2), steering_vector(25.0, 2))
        assert np.abs(link.h - expected).max() < 1e-12

    def test_build_comm_link_multipath(self):
        gains = [0.7 - 0.2j, 1.1 + 0.4j]
        link = build_comm_link([10.0, -50.0], [5.0, 60.0], gains, m_u=4, m_t=3)
        expected = sum(
            g * np.outer(steering_vector(aoa, 4), steering_vector(aod, 3))
            for g, aoa, aod in zip(gains, [10.0, -50.0], [5.0, 60.0])
        )
        assert np.abs(link.h - expected).max() < 1e-12

    def test_comm_link_derives_h(self):
        gains = [0.7 - 0.2j, 1.1 + 0.4j]
        link = CommLink(theta_ue=[10.0, -50.0], phi_ue=[5.0, 60.0], gains=gains, m_u=4, m_t=3)
        a_u = np.column_stack([steering_vector(a, 4) for a in (10.0, -50.0)])
        a_t = np.column_stack([steering_vector(a, 3) for a in (5.0, 60.0)])
        assert np.abs(link.h - a_u @ np.diag(gains) @ a_t.T).max() < 1e-12
        # h is derived, never passed in, so it cannot disagree with the paths
        with pytest.raises(TypeError):
            CommLink(theta_ue=[10.0], phi_ue=[5.0], gains=[1.0], m_u=4, m_t=3, h=np.ones((4, 3)))


class TestForwardModels:
    def test_sensing_forward_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            k = int(rng.integers(1, 3))
            m_r = int(rng.integers(1, 4))
            m_t = int(rng.integers(1, 4))
            n = int(rng.integers(m_t, m_t + 4))
            p = int(rng.integers(2, 9))
            scene = sample_scene(k=k, n=n, sigma=1.0, m_r=m_r, m_t=m_t, seed=int(rng.integers(1 << 31)))
            frame = sample_frame(p=p, m_t=m_t, n=n, order=4, seed=int(rng.integers(1 << 31)))
            y = sensing_forward(scene, frame)
            ref = oracle_sensing_forward(scene, frame)
            assert np.abs(y - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())

    def test_comm_forward_matches_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            m_t = int(rng.integers(1, 4))
            n = int(rng.integers(m_t, m_t + 3))
            m_u = int(rng.integers(1, 5))
            p = int(rng.integers(2, 9))
            frame = sample_frame(p=p, m_t=m_t, n=n, order=4, seed=int(rng.integers(1 << 31)))
            link = build_comm_link([20.0], [-10.0], [1.0 + 0.5j], m_u=m_u, m_t=m_t)
            y = comm_forward(link, frame)
            ref = oracle_comm_forward(link, frame)
            assert np.abs(y - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())

    def test_sensing_forward_slot_mismatch(self):
        scene = sample_scene(k=2, n=4, sigma=1.0, m_r=2, m_t=2, seed=0)
        frame = sample_frame(p=8, m_t=2, n=3, order=4, seed=0)
        with pytest.raises(ValueError):
            sensing_forward(scene, frame)


class TestNoise:
    def test_noiseless_sentinel_returns_copy(self):
        t = np.ones((2, 3, 4), dtype=complex)
        out = add_noise(t, float("inf"), seed=1)
        assert np.array_equal(out, t)
        assert out is not t

    def test_negative_infinity_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.ones((1, 1, 1), dtype=complex), float("-inf"))

    def test_deterministic_under_seed(self):
        t = np.zeros((2, 3, 4), dtype=complex)
        a = add_noise(t, 10.0, seed=33)
        b = add_noise(t, 10.0, seed=33)
        assert np.array_equal(a, b)

    def test_empirical_variance_at_10db(self):
        t = np.zeros((100, 100, 10), dtype=complex)
        noisy = add_noise(t, 10.0, seed=3)
        n0 = 10 ** (-1.0)
        measured = np.mean(np.abs(noisy) ** 2)
        assert abs(measured - n0) / n0 < 0.02

    def test_real_imag_parts_balanced(self):
        t = np.zeros((50, 50, 8), dtype=complex)
        noisy = add_noise(t, 0.0, seed=4)
        assert abs(np.var(noisy.real) - 0.5) < 0.02
        assert abs(np.var(noisy.imag) - 0.5) < 0.02
