"""Unit tests for the tensor/linear-algebra kernels."""

import numpy as np
import pytest

from tensorisac.tensor_ops import (
    best_rank_one,
    khatri_rao,
    kronecker,
    pinv,
    unfold1_flat,
    unfold3_tall,
    unvec,
    vec,
)

from helpers import (
    oracle_khatri_rao,
    oracle_unfold1_flat,
    oracle_unfold3_tall,
    penrose_deviation,
    random_matrix_with_condition,
)


def random_tensor(rng, d1, d2, d3):
    return rng.standard_normal((d1, d2, d3)) + 1j * rng.standard_normal((d1, d2, d3))


class TestUnfoldings:
    @pytest.mark.parametrize("dims", [(2, 8, 3), (1, 1, 1), (3, 4, 5), (4, 2, 6)])
    def test_unfold1_matches_index_oracle(self, dims):
        rng = np.random.default_rng(sum(dims))
        t = random_tensor(rng, *dims)
        assert np.array_equal(unfold1_flat(t), oracle_unfold1_flat(t))

    @pytest.mark.parametrize("dims", [(2, 8, 3), (1, 1, 1), (3, 4, 5), (4, 2, 6)])
    def test_unfold3_matches_index_oracle(self, dims):
        rng = np.random.default_rng(100 + sum(dims))
        t = random_tensor(rng, *dims)
        assert np.array_equal(unfold3_tall(t), oracle_unfold3_tall(t))

    def test_unfold1_is_slice_concatenation(self):
        rng = np.random.default_rng(7)
        t = random_tensor(rng, 2, 5, 3)
        expected = np.hstack([t[:, :, n] for n in range(3)])
        assert np.array_equal(unfold1_flat(t), expected)

    def test_unfold3_columns_are_vec_of_slices(self):
        rng = np.random.default_rng(8)
        t = random_tensor(rng, 3, 4, 2)
        u = unfold3_tall(t)
        for n in range(2):
            assert np.array_equal(u[:, n], vec(t[:, :, n]))


class TestVec:
    def test_vec_is_column_stacking(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(m), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_vec_unvec_roundtrip(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert np.array_equal(unvec(vec(m), 4, 6), m)

    def test_unvec_size_mismatch(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(7), 2, 3)

    def test_vec_outer_product_is_kron(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert np.abs(vec(np.outer(a, b)) - np.kron(b, a)).max() < 1e-15


class TestProducts:
    def test_kronecker_block_structure(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.eye(2)
        expected = np.array(
            [
                [1.0, 0.0, 2.0, 0.0],
                [0.0, 1.0, 0.0, 2.0],
                [3.0, 0.0, 4.0, 0.0],
                [0.0, 3.0, 0.0, 4.0],
            ]
        )
        assert np.array_equal(kronecker(a, b), expected)

    def test_khatri_rao_matches_per_column_kron(self):
        rng = np.random.default_rng(11)
        for ra, rb, c in [(2, 3, 4), (1, 5, 2), (4, 4, 1), (3, 2, 8)]:
            a = rng.standard_normal((ra, c)) + 1j * rng.standard_normal((ra, c))
            b = rng.standard_normal((rb, c)) + 1j * rng.standard_normal((rb, c))
            assert np.array_equal(khatri_rao(a, b), oracle_khatri_rao(a, b))

    def test_khatri_rao_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_khatri_rao_gram_identity(self):
        # (A kr B)^H (A kr B) == (A^H A) * (B^H B) elementwise
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        kr = khatri_rao(a, b)
        lhs = kr.conj().T @ kr
        rhs = (a.conj().T @ a) * (b.conj().T @ b)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestPinv:
    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6)])
    def test_penrose_identities(self, shape):
        rng = np.random.default_rng(13)
        for cond in (1.0, 1e2, 1e5):
            m = random_matrix_with_condition(rng, *shape, cond=cond)
            assert penrose_deviation(m, pinv(m)) < 1e-10

    def test_exact_inverse_for_square_nonsingular(self):
        rng = np.random.default_rng(14)
        m = random_matrix_with_condition(rng, 4, 4, cond=10.0)
        assert np.abs(pinv(m) @ m - np.eye(4)).max() < 1e-12

    def test_rank_deficient_gives_minimum_norm_solution(self):
        col = np.array([[1.0], [2.0]])
        m = np.hstack([col, col])  # rank one
        mp = pinv(m)
        assert penrose_deviation(m, mp) < 1e-12

    @pytest.mark.parametrize("rcond", [1e-12, 0.0, 1e-3])
    def test_bitwise_equal_to_numpy_pinv(self, rcond):
        rng = np.random.default_rng(18)
        col = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        inputs = [
            rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6)),
            rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4)),
            rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2)),  # stacked
            np.hstack([col, 2j * col, col]),  # rank one
            np.zeros((3, 2), dtype=complex),
            rng.standard_normal((4, 3)),  # real
        ]
        for m in inputs:
            assert np.array_equal(pinv(m, rcond), np.linalg.pinv(m, rcond=rcond))


class TestBestRankOne:
    def test_exact_on_rank_one_input(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        m = np.outer(a, b)
        u, v, sigma = best_rank_one(m)
        assert np.abs(sigma * np.outer(u, v.conj()) - m).max() < 1e-12

    def test_residual_equals_second_singular_value(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            u, v, sigma = best_rank_one(m)
            resid = np.linalg.norm(m - sigma * np.outer(u, v.conj()), ord="fro")
            s = np.linalg.svd(m, compute_uv=False)
            assert abs(resid - np.linalg.norm(s[1:])) < 1e-10
            assert abs(sigma - s[0]) < 1e-10

    def test_unit_norm_factors_and_phase_convention(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        u, v, sigma = best_rank_one(m)
        assert abs(np.linalg.norm(u) - 1) < 1e-12
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert sigma > 0
        lead = u[np.flatnonzero(np.abs(u) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            best_rank_one(np.zeros((3, 3), dtype=complex))
        for idx in (0, 1, -1):  # first, inside and last in a stack
            stack = np.ones((3, 2, 2), dtype=complex)
            stack[idx] = 0.0
            with pytest.raises(ValueError, match="all-zero"):
                best_rank_one(stack)
        for shape in ((3, 0), (0, 3), (2, 0, 3)):
            with pytest.raises(ValueError, match="empty matrix"):
                best_rank_one(np.zeros(shape, dtype=complex))

    def test_tiny_and_subnormal_matrices_accepted(self):
        # The zero check is on the largest singular value; LAPACK scales tiny
        # inputs, so nothing that is not all zero reads zero.
        rng = np.random.default_rng(18)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        u, v, sigma = best_rank_one(m)
        u_tiny, v_tiny, sigma_tiny = best_rank_one(1e-300 * m)
        assert np.allclose(u_tiny, u, atol=1e-12) and np.allclose(v_tiny, v, atol=1e-12)
        assert abs(sigma_tiny / (1e-300 * sigma) - 1.0) < 1e-12
        with_zero, with_subnormal = m.copy(), m.copy()
        with_zero[0, 0], with_subnormal[0, 0] = 0.0, 1e-320
        for got, want in zip(best_rank_one(with_subnormal), best_rank_one(with_zero)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-15)
        only_subnormal = np.zeros((3, 4), dtype=complex)
        only_subnormal[1, 2] = 5e-324j
        u, v, sigma = best_rank_one(only_subnormal)
        assert sigma == 5e-324
        assert np.array_equal(u, [0, 1, 0]) and np.array_equal(np.abs(v), [0, 0, 1, 0])

    def test_stack_equals_per_matrix_loop(self):
        rng = np.random.default_rng(19)
        stack = rng.standard_normal((2, 4, 3, 5)) + 1j * rng.standard_normal((2, 4, 3, 5))
        stack[0, 1, 0, :] = 0.0  # u's first entry is zero: the phase pivot moves on
        u, v, sigma = best_rank_one(stack)
        assert u.shape == (2, 4, 3) and v.shape == (2, 4, 5) and sigma.shape == (2, 4)
        for idx in np.ndindex(2, 4):
            want = best_rank_one(stack[idx])
            for got, ref in zip((u[idx], v[idx], sigma[idx]), want):
                assert np.array_equal(got, ref)
        assert abs(u[0, 1, 0]) < 1e-12 and abs(u[0, 1, 1].imag) < 1e-12 and u[0, 1, 1].real > 0
