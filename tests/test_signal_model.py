"""Unit tests for steering vectors, codes, constellations, and tensor synthesis."""

import numpy as np
import pytest

from tensorisac import signal_model
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
    noise_variance,
    qam_constellation,
    qam_demodulate,
    qam_modulate,
    sample_frame,
    sample_scene,
    sensing_forward,
)

from helpers import oracle_comm_forward, oracle_sensing_forward


class TestSteering:
    def test_broadside_is_all_ones(self):
        assert np.allclose(build_steering_matrix([0.0], 5), np.ones((5, 1)), atol=0, rtol=0)

    def test_analytic_entries(self):
        theta = 30.0
        a = build_steering_matrix([theta], 4)[:, 0]
        expected = np.exp(1j * np.pi * np.arange(4) * np.sin(np.deg2rad(theta)))
        assert np.abs(a - expected).max() < 1e-15

    def test_single_antenna(self):
        assert np.array_equal(build_steering_matrix([47.0], 1), np.ones((1, 1), dtype=complex))

    def test_unit_magnitude_entries(self):
        a = build_steering_matrix([-63.0], 8)
        assert np.abs(np.abs(a) - 1).max() < 1e-15

    @pytest.mark.parametrize("bad", [-90.0, 90.0, 120.0, -91.5])
    def test_angle_range_gate(self, bad):
        with pytest.raises(ValueError):
            build_steering_matrix([bad], 4)

    def test_matrix_columns_are_steering_vectors(self):
        angles = [15.0, 27.0, -44.0]
        a = build_steering_matrix(angles, 3)
        assert a.shape == (3, 3)
        for j, ang in enumerate(angles):
            assert np.array_equal(a[:, [j]], build_steering_matrix([ang], 3))


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

    @pytest.mark.parametrize("n,m_t", [(3, 2), (4, 4), (5, 3), (1, 1), (8, 8), (64, 4), (257, 5)])
    def test_cached_read_only_dft_columns(self, n, m_t):
        c = krst_code(n, m_t)
        assert krst_code(n, m_t) is c
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 0.0
        # bit-identical to the first m_t columns of the full scaled DFT matrix
        idx = np.arange(n)
        assert np.array_equal(c, (np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n))[:, :m_t])
        # every frame shares the cached code
        assert sample_frame(p=4, m_t=m_t, n=n, order=4, seed=3).c is c

    def test_large_n_builds_only_the_code_columns(self):
        # The full n x n DFT matrix would take 40 GB here; the code is n x m_t.
        n, m_t = 50_000, 3
        c = krst_code(n, m_t)
        assert c.shape == (n, m_t)
        rows = np.array([0, 1, 12_345, n - 1])
        want = np.exp(-2j * np.pi * np.outer(rows, np.arange(m_t)) / n) / np.sqrt(n)
        assert np.array_equal(c[rows], want)


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

    def test_order_bounded_at_4096(self):
        assert qam_constellation(4096).size == 4096
        with pytest.raises(ValueError, match=r"^QAM order must be at most 4096, got 17592186044416$"):
            qam_constellation(2**44)

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
        assert scene.a_rx.shape == (2, 2)
        assert scene.a_tx.shape == (2, 2)

    def test_sample_scene_deterministic(self):
        a = sample_scene(k=2, n=4, sigma=1.0, m_r=3, m_t=2, seed=42)
        b = sample_scene(k=2, n=4, sigma=1.0, m_r=3, m_t=2, seed=42)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.phi, b.phi)

    def test_sample_scene_sector_draw(self):
        # Drawn angles are uniform in [-80, 80) degrees: theta's k draws come
        # first, then phi's, from the scene's generator.
        scene = sample_scene(k=500, n=2, sigma=1.0, m_r=2, m_t=2, seed=9)
        want = np.random.default_rng(9).uniform(-80.0, 80.0, 1000)
        assert np.array_equal(np.concatenate([scene.theta, scene.phi]), want)
        assert -80.0 <= want.min() < -79.0 and 79.0 < want.max() < 80.0

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
        # NaN used to pass the sign check and draw NaN reflections.
        for sigma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^sigma must be positive and finite$"):
                sample_scene(k=1, n=1, sigma=sigma, m_r=2, m_t=2)

    def test_scene_derives_read_only_steering(self):
        scene = SensingScene(theta=[10.0, -40.0], phi=[5.0, 60.0],
                             gamma=np.ones((3, 2), dtype=complex), m_r=3, m_t=2)
        assert np.array_equal(scene.a_rx, build_steering_matrix([10.0, -40.0], 3))
        assert np.array_equal(scene.a_tx, build_steering_matrix([5.0, 60.0], 2))
        assert scene.rx_steering() is scene.a_rx
        with pytest.raises(ValueError):
            scene.a_rx[0, 0] = 0.0
        # derived, never passed in, so they cannot disagree with the angles
        with pytest.raises(TypeError):
            SensingScene(theta=[10.0], phi=[5.0], gamma=np.ones((3, 1)), m_r=3, m_t=2, a_rx=np.ones((3, 1)))

    def test_scenes_share_the_steering_of_equal_angles(self):
        signal_model._steering.cache_clear()
        fixed = [sample_scene(k=2, n=3, sigma=1.0, m_r=3, m_t=2, theta=[10.0, -40.0], phi=[5.0, 60.0], seed=s)
                 for s in range(3)]
        assert all(s.a_rx is fixed[0].a_rx and s.a_tx is fixed[0].a_tx for s in fixed)
        assert signal_model._steering.cache_info().misses == 2
        # a different array size, a drawn scene, and angles equal as floats but
        # not as bits (0.0 and -0.0) each get their own steering, equal to a fresh build
        others = [
            sample_scene(k=2, n=3, sigma=1.0, m_r=4, m_t=2, theta=[10.0, -40.0], phi=[5.0, 60.0], seed=0),
            sample_scene(k=2, n=3, sigma=1.0, m_r=3, m_t=2, seed=1),
            sample_scene(k=2, n=3, sigma=1.0, m_r=3, m_t=2, theta=[0.0, -40.0], phi=[5.0, 60.0], seed=0),
            sample_scene(k=2, n=3, sigma=1.0, m_r=3, m_t=2, theta=[-0.0, -40.0], phi=[5.0, 60.0], seed=0),
        ]
        for scene in fixed[:1] + others:
            for got, angles, m in ((scene.a_rx, scene.theta, scene.m_r), (scene.a_tx, scene.phi, scene.m_t)):
                fresh = build_steering_matrix(angles, m)
                assert got.tobytes() == fresh.tobytes() and got.shape == fresh.shape
                assert not got.flags.writeable
        assert others[2].a_rx is not others[3].a_rx
        assert signal_model._steering.cache_info().maxsize is not None

    def test_sample_frame_contents(self):
        frame = sample_frame(p=8, m_t=2, n=3, order=4, seed=2)
        assert frame.s_data.shape == (8, 2)
        assert frame.c.shape == (3, 2)
        pts = qam_constellation(4)
        dists = np.min(np.abs(frame.s_data.reshape(-1, 1) - pts.reshape(1, -1)), axis=1)
        assert dists.max() < 1e-12

    def test_sample_frame_deterministic(self):
        a = sample_frame(p=4, m_t=2, n=3, order=16, seed=8)
        b = sample_frame(p=4, m_t=2, n=3, order=16, seed=8)
        assert np.array_equal(a.s_data, b.s_data)

    @pytest.mark.parametrize("p,m_t,order,seed", [(8, 2, 4, 0), (3, 4, 16, 41), (64, 4, 4, 7)])
    def test_sample_frame_is_one_block_from_the_first_draw(self, p, m_t, order, seed):
        frame = sample_frame(p=p, m_t=m_t, n=m_t + 1, order=order, seed=seed)
        want = np.random.default_rng(seed).integers(0, order, (p, m_t))
        assert np.array_equal(frame.data_idx, want)

    @pytest.mark.parametrize("order", [4, 16])
    def test_frame_symbols_derive_from_indices(self, order):
        data_idx = (np.arange(6).reshape(3, 2) * 5 + 1) % order
        frame = TransmitFrame(data_idx, n=4, constellation=order)
        assert np.array_equal(frame.s_data, qam_constellation(order)[data_idx])
        assert frame.c is krst_code(4, 2)
        for bad in (order, -1):
            with pytest.raises(ValueError, match="outside"):
                TransmitFrame(np.full((3, 2), bad), n=4, constellation=order)

    def test_build_comm_link_channel(self):
        link = build_comm_link([78.0], [25.0], [1.0 + 0.0j], m_u=2, m_t=2)
        expected = np.outer(build_steering_matrix([78.0], 2), build_steering_matrix([25.0], 2))
        assert np.abs(link.h - expected).max() < 1e-12

    def test_build_comm_link_multipath(self):
        gains = [0.7 - 0.2j, 1.1 + 0.4j]
        link = build_comm_link([10.0, -50.0], [5.0, 60.0], gains, m_u=4, m_t=3)
        expected = sum(
            g * np.outer(build_steering_matrix([aoa], 4), build_steering_matrix([aod], 3))
            for g, aoa, aod in zip(gains, [10.0, -50.0], [5.0, 60.0])
        )
        assert np.abs(link.h - expected).max() < 1e-12

    def test_comm_link_derives_h(self):
        gains = [0.7 - 0.2j, 1.1 + 0.4j]
        link = CommLink(theta_ue=[10.0, -50.0], phi_ue=[5.0, 60.0], gains=gains, m_u=4, m_t=3)
        a_u = build_steering_matrix([10.0, -50.0], 4)
        a_t = build_steering_matrix([5.0, 60.0], 3)
        assert np.abs(link.h - a_u @ np.diag(gains) @ a_t.T).max() < 1e-12
        with pytest.raises(ValueError):
            link.h[0, 0] = 0.0
        # h is derived, never passed in, so it cannot disagree with the paths
        with pytest.raises(TypeError):
            CommLink(theta_ue=[10.0], phi_ue=[5.0], gains=[1.0], m_u=4, m_t=3, h=np.ones((4, 3)))
        # A non-finite gain used to give an all-NaN channel.
        for gain in (float("nan"), complex(1.0, float("inf"))):
            with pytest.raises(ValueError, match="^path gains must be finite$"):
                build_comm_link([10.0], [20.0], [gain], m_u=2, m_t=2)


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

    @pytest.mark.parametrize("m,m_t,n,p,seed", [(2, 2, 3, 8, 0), (3, 4, 5, 6, 17)])
    def test_both_receivers_see_one_transmitted_block(self, m, m_t, n, p, seed):
        # One scatterer with unit reflection in every slot and one path with
        # unit gain on the same angles give the same channel; the two tensors
        # then agree only if both are built from the same symbol block.
        frame = sample_frame(p=p, m_t=m_t, n=n, order=4, seed=seed)
        scene = SensingScene(theta=[20.0], phi=[-35.0], gamma=np.ones((n, 1)), m_r=m, m_t=m_t)
        link = build_comm_link([20.0], [-35.0], [1.0], m_u=m, m_t=m_t)
        y_sens = sensing_forward(scene, frame)
        assert np.abs(y_sens - comm_forward(link, frame)).max() < 1e-12 * np.abs(y_sens).max()
        ref = oracle_sensing_forward(scene, frame)
        assert np.abs(ref - oracle_comm_forward(link, frame)).max() < 1e-12 * np.abs(ref).max()

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
        with pytest.raises(ValueError, match=r"^es_n0_db = -inf is not a valid noise level$"):
            noise_variance(float("-inf"))
        with pytest.raises(ValueError, match=r"^es_n0_db = -inf is not a valid noise level$"):
            add_noise(np.ones((1, 1, 1), dtype=complex), float("-inf"))

    def test_nan_rejected(self):
        # add_noise used to return an all-NaN tensor here.
        with pytest.raises(ValueError, match=r"^es_n0_db = nan is not a valid noise level$"):
            noise_variance(float("nan"))
        with pytest.raises(ValueError, match=r"^es_n0_db = nan is not a valid noise level$"):
            add_noise(np.ones(2), float("nan"))

    def test_overflow_rejected(self):
        for apply in (noise_variance, lambda db: add_noise(np.ones(2), db)):
            with pytest.raises(ValueError, match=r"^noise variance 10 \*\* \(3100\.0 / 10\) overflows$"):
                apply(-3100.0)

    def test_variance_is_the_es_n0_rule(self):
        assert noise_variance(float("inf")) == 0.0
        assert noise_variance(0.0) == 1.0
        assert noise_variance(10.0) == 0.1
        assert noise_variance(-3000.0) == 1e300

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
