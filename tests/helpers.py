"""Independent brute-force oracles used across the test modules.

Everything here is written as plain index loops and elementwise sums so a
disagreement with the library always points at the library, not at a shared
shortcut.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_sensing_forward(scene, frame) -> np.ndarray:
    """Elementwise-sum synthesis of the sensing tensor."""
    a_rx, a_tx = scene.a_rx, scene.a_tx
    m_r, k = a_rx.shape
    p = frame.s_data.shape[0]
    n = frame.c.shape[0]
    out = np.zeros((m_r, p, n), dtype=complex)
    for i in range(m_r):
        for q in range(p):
            for slot in range(n):
                acc = 0.0 + 0.0j
                for tgt in range(k):
                    for ant in range(a_tx.shape[0]):
                        acc += (
                            a_rx[i, tgt]
                            * scene.gamma[slot, tgt]
                            * a_tx[ant, tgt]
                            * frame.c[slot, ant]
                            * frame.s_data[q, ant]
                        )
                out[i, q, slot] = acc
    return out


def oracle_comm_forward(link, frame) -> np.ndarray:
    """Elementwise-sum synthesis of the communication tensor."""
    m_u, m_t = link.h.shape
    p = frame.s_data.shape[0]
    n = frame.c.shape[0]
    out = np.zeros((m_u, p, n), dtype=complex)
    for i in range(m_u):
        for q in range(p):
            for slot in range(n):
                acc = 0.0 + 0.0j
                for ant in range(m_t):
                    acc += link.h[i, ant] * frame.c[slot, ant] * frame.s_data[q, ant]
                out[i, q, slot] = acc
    return out


def oracle_khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-by-column Kronecker products."""
    cols = [np.kron(a[:, j], b[:, j]) for j in range(a.shape[1])]
    return np.stack(cols, axis=1)


def oracle_unfold1_flat(t: np.ndarray) -> np.ndarray:
    """Slice-concatenation unfolding done entry by entry."""
    d1, d2, d3 = t.shape
    out = np.zeros((d1, d3 * d2), dtype=t.dtype)
    for i in range(d1):
        for q in range(d2):
            for slot in range(d3):
                out[i, slot * d2 + q] = t[i, q, slot]
    return out


def oracle_unfold3_tall(t: np.ndarray) -> np.ndarray:
    """Column-stacked-slice unfolding done entry by entry."""
    d1, d2, d3 = t.shape
    out = np.zeros((d1 * d2, d3), dtype=t.dtype)
    for i in range(d1):
        for q in range(d2):
            for slot in range(d3):
                out[q * d1 + i, slot] = t[i, q, slot]
    return out


def penrose_deviation(m: np.ndarray, mp: np.ndarray) -> float:
    """Largest relative violation of the four Moore-Penrose identities.

    The first two identities are normalized by the scale of their fixed
    point (``m`` and ``mp``); the two Hermitian-projector identities are
    already O(1).
    """
    return max(
        np.abs(m @ mp @ m - m).max() / np.abs(m).max(),
        np.abs(mp @ m @ mp - mp).max() / np.abs(mp).max(),
        np.abs((m @ mp).conj().T - m @ mp).max(),
        np.abs((mp @ m).conj().T - mp @ m).max(),
    )


def random_matrix_with_condition(rng: np.random.Generator, rows: int, cols: int, cond: float) -> np.ndarray:
    """Random complex matrix with the prescribed 2-norm condition number."""
    r = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, r)) + 1j * rng.standard_normal((cols, r)))
    if r == 1:
        s = np.array([1.0])
    else:
        s = np.geomspace(1.0, 1.0 / cond, r)
    return (u * s) @ v.conj().T


def rebuild_sensing_tensor(a_rx, a_tx, gamma, code, pilots) -> np.ndarray:
    """Slice-product synthesis from explicit factors (alignment-free oracle)."""
    n = code.shape[0]
    slices = [
        a_rx @ np.diag(gamma[slot]) @ a_tx.T @ np.diag(code[slot]) @ pilots.T
        for slot in range(n)
    ]
    return np.stack(slices, axis=2)


def rebuild_comm_tensor(h, code, s_data) -> np.ndarray:
    """Slice-product synthesis of the communication tensor from factors."""
    n = code.shape[0]
    slices = [h @ np.diag(code[slot]) @ s_data.T for slot in range(n)]
    return np.stack(slices, axis=2)


def oracle_right_factor(gamma, a_tx, code, pilots) -> np.ndarray:
    """Slot-by-slot blocks ``diag(gamma_n) a_tx^T diag(c_n) S^T``, concatenated."""
    blocks = [
        np.diag(gamma[slot]) @ a_tx.T @ np.diag(code[slot]) @ pilots.T
        for slot in range(code.shape[0])
    ]
    return np.concatenate(blocks, axis=1)


def oracle_rx_step(y1, right, rcond=1e-12) -> np.ndarray:
    return y1 @ np.linalg.pinv(right, rcond=rcond)


def _column_stack(m: np.ndarray) -> np.ndarray:
    return m.reshape(-1, order="F")


def oracle_tx_step(tensor, a_rx, gamma, code, pilots, rcond=1e-12) -> np.ndarray:
    """Stacked per-slot Kronecker systems solved for ``vec(a_tx^T)``."""
    n = code.shape[0]
    system = np.concatenate([
        np.kron(pilots @ np.diag(code[slot]), a_rx @ np.diag(gamma[slot]))
        for slot in range(n)
    ])
    rhs = np.concatenate([_column_stack(tensor[:, :, slot]) for slot in range(n)])
    k, m_t = a_rx.shape[1], code.shape[1]
    return (np.linalg.pinv(system, rcond=rcond) @ rhs).reshape(k, m_t, order="F").T


def oracle_reflection_step(tensor, a_rx, a_tx, code, pilots, rcond=1e-12) -> np.ndarray:
    """One Khatri-Rao system per slot, solved for that slot's reflections."""
    rows = []
    for slot in range(code.shape[0]):
        g = pilots @ np.diag(code[slot]) @ a_tx
        basis = oracle_khatri_rao(g, a_rx)
        rows.append(np.linalg.pinv(basis, rcond=rcond) @ _column_stack(tensor[:, :, slot]))
    return np.array(rows)


def oracle_als_sweeps(tensor, code, pilots, a_rx, a_tx, gamma, sweeps, rcond=1e-12):
    """Plain ALS sweeps (rx, tx, reflections) on the uncompressed tensor."""
    y1 = oracle_unfold1_flat(tensor)
    for _ in range(sweeps):
        a_rx = oracle_rx_step(y1, oracle_right_factor(gamma, a_tx, code, pilots), rcond)
        a_tx = oracle_tx_step(tensor, a_rx, gamma, code, pilots, rcond)
        gamma = oracle_reflection_step(tensor, a_rx, a_tx, code, pilots, rcond)
    return a_rx, a_tx, gamma


def oracle_extract_angles(a_hat, grid_step=0.1) -> np.ndarray:
    """Grid scan plus golden-section refinement of the normalized correlation
    ``|a(angle)^H col| / (|a(angle)| |col|)``, with every steering vector
    built by ``build_steering_matrix`` one angle at a time; angles in column
    order."""
    from tensorisac.signal_model import build_steering_matrix

    def correlation(angle, col):
        a = build_steering_matrix([angle], col.size)[:, 0]
        return abs(np.vdot(a, col)) / (np.linalg.norm(a) * np.linalg.norm(col))

    a_hat = np.asarray(a_hat)
    grid = np.linspace(-89.9, 89.9, max(2, int(round(179.8 / grid_step)) + 1))
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    angles = []
    for j in range(a_hat.shape[1]):
        col = a_hat[:, j]
        center = grid[int(np.argmax([correlation(g, col) for g in grid]))]
        lo = max(center - grid_step, -89.999)
        hi = min(center + grid_step, 89.999)
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        f1, f2 = correlation(x1, col), correlation(x2, col)
        for _ in range(60):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = correlation(x2, col)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = correlation(x1, col)
            if hi - lo < 1e-9:
                break
        angles.append(0.5 * (lo + hi))
    return np.asarray(angles)


def oracle_als_fixed_schedule(tensor, frame, num_targets, init_seed=0, max_iters=1000, tol=1e-6, rcond=1e-12):
    """Error trace of restart 0 of ``als_fit`` with the fixed extrapolation
    step ``it ** (1/3)`` that preceded the adaptive schedule.

    Built from the package's start and step functions, on the uncompressed
    tensor (the pilot-mode compression leaves every update unchanged), so it
    is a reference for the schedule alone.
    """
    from tensorisac.sensing_als import (
        FLOOR_DELTA,
        build_right_factor,
        estimate_reflections,
        estimate_rx_steering,
        estimate_tx_steering,
        gevd_start,
    )
    from tensorisac.tensor_ops import unfold1_flat, unfold3_tall

    t = np.asarray(tensor, dtype=complex)
    code, pilots = frame.c, frame.s_data
    x = pilots * code[:, None, :]
    y1, y_vec = unfold1_flat(t), unfold3_tall(t).T
    y_energy = np.vdot(t, t).real

    def error(a_rx, right):
        resid = y1 - a_rx @ right
        return np.vdot(resid, resid).real / y_energy

    rng = np.random.default_rng(np.random.SeedSequence([init_seed, 0]))
    a_rx, a_tx, gamma = gevd_start(t, x, num_targets, rng, rcond)
    right = build_right_factor(gamma, x @ a_tx)
    trace, prev_err = [], np.inf
    for it in range(1, max_iters + 1):
        old = (a_rx, a_tx, gamma)
        a_rx = estimate_rx_steering(y1, right, rcond)
        a_tx = estimate_tx_steering(y_vec, x, a_rx, gamma, rcond)
        g = x @ a_tx
        gamma = estimate_reflections(y_vec, a_rx, g, rcond)
        right = build_right_factor(gamma, g)
        err = error(a_rx, right)
        if it > 2:
            step = it ** (1.0 / 3.0)
            new = [o + step * (f - o) for o, f in zip(old, (a_rx, a_tx, gamma))]
            right_x = build_right_factor(new[2], x @ new[1])
            err_x = error(new[0], right_x)
            if err_x < err:
                (a_rx, a_tx, gamma), right, err = new, right_x, err_x
        trace.append(err)
        if abs(err - prev_err) < tol * prev_err + FLOOR_DELTA:
            break
        prev_err = err
    return trace


def oracle_gevd_start(tensor, x, num_targets, rng, rcond=1e-12):
    """``einsum`` formulation of ``sensing_als.gevd_start``, the closed-form
    start before it moved to batched matrix products: the same gate, the
    same random draws and the same SVD-family calls, contracted index by
    index on the ``(m_r, m_t, n)`` slice stack ``M``."""
    from tensorisac.sensing_als import _random_factors
    from tensorisac.tensor_ops import best_rank_one, pinv

    tensor = np.asarray(tensor)
    m_r = tensor.shape[0]
    n_slots, p, m_t = x.shape
    k = num_targets
    if k > min(m_r, m_t) or n_slots < 2 or p < m_t:
        return _random_factors(rng, m_r, m_t, n_slots, k)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    if np.any(s[:, -1] <= rcond * s[:, 0]):
        return _random_factors(rng, m_r, m_t, n_slots, k)
    m = np.einsum("ipn,npr,nrt->itn", tensor, u.conj(), vh.conj() / s[:, :, None])
    u1 = np.linalg.svd(m.reshape(m_r, m_t * n_slots), full_matrices=False)[0][:, :k]
    u2 = np.linalg.svd(m.transpose(1, 0, 2).reshape(m_t, m_r * n_slots), full_matrices=False)[0][:, :k]
    core = np.einsum("ik,itn,tl->nkl", u1.conj(), m, u2.conj())
    weights = rng.standard_normal((2, n_slots)) + 1j * rng.standard_normal((2, n_slots))
    g_a, g_b = np.einsum("wn,nkl->wkl", weights, core)
    a_rx = u1 @ np.linalg.eig(np.linalg.solve(g_b.T, g_a.T).T)[1]
    left, right, sigma = best_rank_one(np.einsum("ki,itn->ktn", pinv(a_rx, rcond), m))
    return a_rx, left.T, (sigma[:, None] * right.conj()).T


def golden_section_angles(a_hat, grid_step=0.1, clip=89.999):
    """Grid scan plus golden-section search on ``|a(angle)^H col|`` down to a
    1e-9 degree bracket, the refinement ``extract_angles`` used before its
    Newton steps.  Comparing ``|S|`` near a flat peak, it is limited by
    rounding to a few 1e-6 degrees.  Angles in column order."""
    a_hat = np.asarray(a_hat)
    m = a_hat.shape[0]
    grid = np.linspace(-89.9, 89.9, int(round(179.8 / grid_step)) + 1)
    manifold_h = np.exp(1j * np.pi * np.outer(np.sin(np.deg2rad(grid)), np.arange(m))).conj()
    centers = grid[np.argmax(np.abs(manifold_h @ a_hat), axis=0)]

    def correlation(angle, coeffs):
        phase = math.pi * math.sin(math.radians(angle))
        z = complex(math.cos(phase), -math.sin(phase))
        acc = 0j
        for c in coeffs:
            acc = acc * z + c
        return abs(acc)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    angles = []
    for j, center in enumerate(centers):
        lo, hi = max(center - grid_step, -clip), min(center + grid_step, clip)
        coeffs = a_hat[::-1, j].tolist()
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        f1, f2 = correlation(x1, coeffs), correlation(x2, coeffs)
        while hi - lo >= 1e-9:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = correlation(x2, coeffs)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = correlation(x1, coeffs)
        angles.append(0.5 * (lo + hi))
    return np.asarray(angles)
