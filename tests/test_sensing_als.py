"""Unit tests for the alternating-least-squares sensing receiver."""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from tensorisac.exceptions import IdentifiabilityError
from tensorisac.sensing_als import (
    AlsConfig,
    align_permutation,
    als_fit,
    build_right_factor,
    check_identifiability,
    estimate_reflections,
    estimate_rx_steering,
    estimate_tx_steering,
    extract_angles,
    remove_sensing_ambiguity,
    SensingEstimate,
    _random_factors,
)
from tensorisac.signal_model import (
    add_noise,
    build_steering_matrix,
    sample_frame,
    sample_scene,
    sensing_forward,
    steering_vector,
)
from tensorisac.tensor_ops import unfold1_flat

from helpers import (
    oracle_als_sweeps,
    oracle_reflection_step,
    oracle_right_factor,
    oracle_rx_step,
    oracle_tx_step,
    rebuild_sensing_tensor,
)


def reference_instance(seed, noise_db=None):
    scene = sample_scene(k=2, n=3, sigma=1.0, m_r=2, m_t=2,
                         theta=[15.0, 27.0], phi=[-37.0, 65.0], seed=seed)
    frame = sample_frame(p=8, m_t=2, n=3, order=4, seed=seed + 1)
    y = sensing_forward(scene, frame)
    if noise_db is not None:
        y = add_noise(y, noise_db, seed=seed + 2)
    return scene, frame, y


class TestIdentifiability:
    def test_default_dimensions_pass(self):
        report = check_identifiability(m_r=2, m_t=2, p=8, n=3, k=2)
        assert report.ok and report.violations == []

    def test_each_inequality_reported(self):
        # n*p < k
        rep = check_identifiability(m_r=6, m_t=1, p=1, n=1, k=2)
        assert not rep.ok and any("n*p" in v for v in rep.violations)
        # n*p*m_r < m_t*k
        rep = check_identifiability(m_r=1, m_t=6, p=2, n=2, k=2)
        assert not rep.ok and any("n*p*m_r" in v for v in rep.violations)
        # p*m_r < k
        rep = check_identifiability(m_r=1, m_t=1, p=2, n=4, k=3)
        assert not rep.ok and any("p*m_r" in v for v in rep.violations)

    def test_als_fit_rejects_unidentifiable(self):
        scene = sample_scene(k=2, n=3, sigma=1.0, m_r=2, m_t=2, seed=0)
        frame = sample_frame(p=8, m_t=2, n=3, order=4, seed=0)
        y = sensing_forward(scene, frame)
        with pytest.raises(IdentifiabilityError):
            als_fit(y[:1, :1, :], replace_frame_pilots(frame, 1), 3)


def replace_frame_pilots(frame, p):
    from dataclasses import replace as dc_replace

    return dc_replace(frame, s_pilot=frame.s_pilot[:p, :], s_data=frame.s_data[:p, :])


class TestLeastSquaresSteps:
    """Each ALS step is an exact LS solve: with the other factors at truth
    and noiseless data, one step recovers the remaining factor."""

    def setup_method(self):
        self.scene, self.frame, self.y = reference_instance(seed=100)
        self.a_rx = self.scene.rx_steering()
        self.a_tx = self.scene.tx_steering()

    def test_right_factor_block_structure(self):
        right = build_right_factor(self.scene.gamma, self.a_tx, self.frame.c, self.frame.s_pilot)
        n, p = self.frame.c.shape[0], self.frame.s_pilot.shape[0]
        assert right.shape == (2, n * p)
        for slot in range(n):
            block = (
                np.diag(self.scene.gamma[slot])
                @ self.a_tx.T
                @ np.diag(self.frame.c[slot])
                @ self.frame.s_pilot.T
            )
            assert np.abs(right[:, slot * p:(slot + 1) * p] - block).max() < 1e-14

    def test_rx_step_exact(self):
        right = build_right_factor(self.scene.gamma, self.a_tx, self.frame.c, self.frame.s_pilot)
        est = estimate_rx_steering(unfold1_flat(self.y), right)
        assert np.abs(est - self.a_rx).max() < 1e-10

    def test_tx_step_exact(self):
        est = estimate_tx_steering(self.y, self.a_rx, self.scene.gamma,
                                   self.frame.c, self.frame.s_pilot)
        assert np.abs(est - self.a_tx).max() < 1e-10

    def test_reflection_step_exact(self):
        est = estimate_reflections(self.y, self.a_rx, self.a_tx,
                                   self.frame.c, self.frame.s_pilot)
        assert np.abs(est - self.scene.gamma).max() < 1e-10


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestVectorizedSteps:
    """The broadcast step functions match per-slot diag/kron/pinv oracles
    at random (non-truth) factors on noisy data."""

    @pytest.mark.parametrize("m_r, m_t, k, n, p", [(2, 2, 2, 3, 8), (4, 4, 3, 4, 64)])
    def test_steps_match_per_slot_oracles(self, m_r, m_t, k, n, p):
        rng = np.random.default_rng(m_t * 100 + p)
        frame = sample_frame(p=p, m_t=m_t, n=n, order=4, seed=p)
        y = random_complex(rng, m_r, p, n)
        a_rx, a_tx, gamma = random_complex(rng, m_r, k), random_complex(rng, m_t, k), random_complex(rng, n, k)
        c, s = frame.c, frame.s_pilot
        right = build_right_factor(gamma, a_tx, c, s)
        pairs = [
            (right, oracle_right_factor(gamma, a_tx, c, s)),
            (estimate_rx_steering(unfold1_flat(y), right), oracle_rx_step(unfold1_flat(y), right)),
            (estimate_tx_steering(y, a_rx, gamma, c, s), oracle_tx_step(y, a_rx, gamma, c, s)),
            (estimate_reflections(y, a_rx, a_tx, c, s), oracle_reflection_step(y, a_rx, a_tx, c, s)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def parallel_pilot_columns(frame):
    """The frame with its last pilot column made parallel to the first (still on the QAM grid)."""
    pilots = frame.s_pilot.copy()
    pilots[:, -1] = 1j * pilots[:, 0]
    return replace(frame, s_pilot=pilots)


def uncompressed_error(y, est, frame):
    rebuilt = rebuild_sensing_tensor(est.a_rx_hat, est.a_tx_hat, est.gamma_hat, frame.c, frame.s_pilot)
    return np.vdot(y - rebuilt, y - rebuilt).real / np.vdot(y, y).real


class TestPilotCompression:
    """als_fit solves on the pilot-compressed tensor; its error trace is still
    the error on the full tensor, and shapes the compression cannot serve
    are fitted uncompressed."""

    @pytest.mark.parametrize("m_r, m_t, k, n, p, parallel", [
        (2, 2, 2, 3, 8, False), (4, 4, 3, 4, 64, False), (2, 3, 2, 3, 8, True),
    ])
    def test_first_sweeps_match_uncompressed_oracle(self, m_r, m_t, k, n, p, parallel):
        # Extrapolation starts at the third iteration, so two iterations
        # are two plain sweeps from the seeded random start.
        scene = sample_scene(k=k, n=n, sigma=1.0, m_r=m_r, m_t=m_t, seed=p)
        frame = sample_frame(p=p, m_t=m_t, n=n, order=4, seed=p + 1)
        if parallel:
            frame = parallel_pilot_columns(frame)
        y = add_noise(sensing_forward(scene, frame), 10.0, seed=p + 2)
        est = als_fit(y, frame, k, AlsConfig(init_seed=p, max_iters=2))
        rng = np.random.default_rng(np.random.SeedSequence([p, 0]))
        start = _random_factors(rng, m_r, m_t, n, k)
        want = oracle_als_sweeps(y, frame.c, frame.s_pilot, *start, sweeps=2)
        for got, ref in zip((est.a_rx_hat, est.a_tx_hat, est.gamma_hat), want):
            assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_final_error_is_uncompressed_error(self):
        scene = sample_scene(k=3, n=4, sigma=1.0, m_r=4, m_t=4, seed=3)
        frame = sample_frame(p=64, m_t=4, n=4, order=4, seed=4)
        y = add_noise(sensing_forward(scene, frame), 15.0, seed=5)
        est = als_fit(y, frame, 3, AlsConfig(init_seed=6))
        direct = uncompressed_error(y, est, frame)
        assert abs(est.nmse_trace[-1] - direct) <= 1e-12 * direct

    @pytest.mark.parametrize("m_r, m_t, k, n, p, parallel", [
        (1, 2, 3, 2, 8, False),   # compressed to p=2 it would fail n*p*m_r >= m_t*k
        (2, 2, 2, 3, 2, False),   # p <= m_t: nothing to compress
        (2, 4, 2, 4, 3, False),
        (2, 3, 2, 3, 8, True),    # two parallel pilot columns
    ])
    def test_edge_shapes_fit(self, m_r, m_t, k, n, p, parallel):
        assert check_identifiability(m_r, m_t, p, n, k).ok
        scene = sample_scene(k=k, n=n, sigma=1.0, m_r=m_r, m_t=m_t, seed=8)
        frame = sample_frame(p=p, m_t=m_t, n=n, order=4, seed=9)
        if parallel:
            frame = parallel_pilot_columns(frame)
        y = add_noise(sensing_forward(scene, frame), 20.0, seed=10)
        est = als_fit(y, frame, k, AlsConfig(init_seed=11, max_iters=200))
        assert np.all(np.diff(est.nmse_trace) <= 1e-9)
        direct = uncompressed_error(y, est, frame)
        assert abs(est.nmse_trace[-1] - direct) <= 1e-12 * direct


class TestAlsFit:
    def test_noiseless_convergence_and_recovery(self):
        scene, frame, y = reference_instance(seed=7)
        est = als_fit(y, frame, 2, AlsConfig(init_seed=7))
        assert est.converged
        assert est.nmse_trace[-1] < 1e-10
        # reconstruction from raw (ambiguous) factors already matches
        rebuilt = rebuild_sensing_tensor(est.a_rx_hat, est.a_tx_hat, est.gamma_hat,
                                         frame.c, frame.s_pilot)
        rel = (np.linalg.norm((rebuilt - y).ravel()) / np.linalg.norm(y.ravel())) ** 2
        assert rel < 1e-10  # squared normalized error, same metric as the trace

    def test_trace_monotone_nonincreasing_noisy(self):
        scene, frame, y = reference_instance(seed=31, noise_db=10.0)
        est = als_fit(y, frame, 2, AlsConfig(init_seed=3))
        trace = np.asarray(est.nmse_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_restarts_deterministic_and_best(self):
        scene, frame, y = reference_instance(seed=12, noise_db=5.0)
        a = als_fit(y, frame, 2, AlsConfig(init_seed=5, n_restarts=3))
        b = als_fit(y, frame, 2, AlsConfig(init_seed=5, n_restarts=3))
        assert np.array_equal(a.a_rx_hat, b.a_rx_hat)
        assert a.nmse_trace[-1] == b.nmse_trace[-1]
        single = als_fit(y, frame, 2, AlsConfig(init_seed=5, n_restarts=1))
        assert a.nmse_trace[-1] <= single.nmse_trace[-1] + 1e-15

    def test_iteration_cap_reported(self):
        scene, frame, y = reference_instance(seed=2, noise_db=0.0)
        est = als_fit(y, frame, 2, AlsConfig(max_iters=3, init_seed=1))
        assert not est.converged
        assert est.iters == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlsConfig(max_iters=0)
        with pytest.raises(ValueError):
            AlsConfig(tol=-1.0)
        with pytest.raises(ValueError):
            AlsConfig(n_restarts=0)


class TestAmbiguityRemoval:
    def test_first_rows_pinned_and_reconstruction_invariant(self):
        scene, frame, y = reference_instance(seed=40)
        est = als_fit(y, frame, 2, AlsConfig(init_seed=11))
        fixed = remove_sensing_ambiguity(est)
        assert np.abs(fixed.a_rx_hat[0, :] - 1).max() < 1e-12
        assert np.abs(fixed.a_tx_hat[0, :] - 1).max() < 1e-12
        before = rebuild_sensing_tensor(est.a_rx_hat, est.a_tx_hat, est.gamma_hat,
                                        frame.c, frame.s_pilot)
        after = rebuild_sensing_tensor(fixed.a_rx_hat, fixed.a_tx_hat, fixed.gamma_hat,
                                       frame.c, frame.s_pilot)
        assert np.abs(before - after).max() < 1e-12 * np.abs(before).max()

    def test_zero_pivot_rejected(self):
        est = SensingEstimate(
            a_rx_hat=np.array([[0.0 + 0j, 1.0], [1.0, 1.0]]),
            a_tx_hat=np.ones((2, 2), dtype=complex),
            gamma_hat=np.ones((3, 2), dtype=complex),
            nmse_trace=[0.0],
            converged=True,
            iters=1,
        )
        with pytest.raises(ValueError):
            remove_sensing_ambiguity(est)


class TestAlignment:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_recovers_random_permutation_and_scaling(self, k):
        rng = np.random.default_rng(50 + k)
        true = rng.standard_normal((6, k)) + 1j * rng.standard_normal((6, k))
        perm = rng.permutation(k)
        scales = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        est = true[:, perm] * scales
        found = align_permutation(est, true)
        assert np.array_equal(np.asarray(found), np.argsort(perm))
        aligned = est[:, list(found)]
        for j in range(k):
            corr = abs(np.vdot(aligned[:, j], true[:, j]))
            corr /= np.linalg.norm(aligned[:, j]) * np.linalg.norm(true[:, j])
            assert corr > 1 - 1e-12

    def test_identity_when_already_aligned(self):
        rng = np.random.default_rng(60)
        true = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert align_permutation(true, true) == (0, 1, 2)


class TestAngleExtraction:
    def test_exact_on_clean_columns(self):
        angles = [-37.0, 15.0, 27.0, 65.0]
        a = build_steering_matrix(angles, 6)
        got = extract_angles(a)
        assert np.abs(got - np.array(angles)).max() < 1e-5

    def test_scale_and_phase_invariance(self):
        a = steering_vector(27.0, 4) * (3.0 * np.exp(1j * np.pi / 7))
        got = extract_angles(a.reshape(-1, 1))
        assert abs(got[0] - 27.0) < 1e-5

    def test_output_sorted(self):
        a = build_steering_matrix([50.0, -20.0, 10.0], 5)
        got = extract_angles(a)
        assert np.all(np.diff(got) >= 0)

    def test_two_element_array(self):
        a = build_steering_matrix([15.0, 27.0], 2)
        got = extract_angles(a)
        assert np.abs(got - np.array([15.0, 27.0])).max() < 1e-5
