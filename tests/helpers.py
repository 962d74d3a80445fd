"""Independent brute-force oracles used across the test modules.

Everything here is written as plain index loops and elementwise sums so a
disagreement with the library always points at the library, not at a shared
shortcut.
"""

from __future__ import annotations

import numpy as np


def oracle_sensing_forward(scene, frame) -> np.ndarray:
    """Elementwise-sum synthesis of the sensing tensor."""
    a_rx = scene.rx_steering()
    a_tx = scene.tx_steering()
    m_r, k = a_rx.shape
    p = frame.s_pilot.shape[0]
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
                            * frame.s_pilot[q, ant]
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
