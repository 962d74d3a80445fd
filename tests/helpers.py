"""Independent oracles used across the test modules.

Most are plain index loops, elementwise sums or per-slot and ``einsum``
formulations, so a disagreement with the library points at the library,
not at a shared shortcut.  ``paper_als_fit`` and its step functions are the
paper's alternating-least-squares fit, the reference the library's
Levenberg-Marquardt fit is judged against.
"""

from __future__ import annotations

import math
from dataclasses import replace

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


def build_right_factor(gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Right factor of the flat 1-mode unfolding.

    ``g[n] = X_n @ a_tx`` with ``X_n = pilots @ diag(code[n])``.  Block ``n``
    is ``diag(gamma[n]) @ g[n].T``, so the flat unfolding of the sensing
    tensor equals ``a_rx @ build_right_factor(gamma, g)``.
    """
    blocks = g * gamma[:, None, :]
    return blocks.transpose(2, 0, 1).reshape(blocks.shape[2], -1)


def estimate_tx_steering(y_vec, x, a_rx, gamma, rcond=1e-12) -> np.ndarray:
    """Least-squares update of the transmit steering matrix.

    ``y_vec[n] = vec(Y_n)`` (``unfold3_tall(tensor).T``) and
    ``x[n] = X_n = pilots @ diag(code[n])``.  Column-stacking each slice gives
    ``vec(Y_n) = kron(X_n, a_rx @ diag(gamma[n])) @ vec(a_tx.T)``; the slot
    blocks are stacked into one system, and ``lstsq`` returns its minimum-norm
    least-squares solution with the ``rcond`` cutoff.
    """
    n_slots, p, m_t = x.shape
    m_r, k = a_rx.shape
    right = a_rx * gamma[:, None, :]
    stacked = (x[:, :, None, :, None] * right[:, None, :, None, :]).reshape(n_slots * p * m_r, m_t * k)
    return np.linalg.lstsq(stacked, y_vec.reshape(-1), rcond=rcond)[0].reshape(m_t, k)


def estimate_reflections(y_vec, a_rx, g, rcond=1e-12) -> np.ndarray:
    """Least-squares update of the reflection matrix, one slot row at a time.

    Slice ``n`` satisfies ``vec(Y_n) = khatri_rao(g[n], a_rx) @ gamma[n]``
    with ``g[n] = X_n @ a_tx`` and ``y_vec[n] = vec(Y_n)``; all slots are one
    stacked ``pinv`` solve, minimum-norm with the ``rcond`` cutoff.
    """
    from tensorisac.tensor_ops import pinv

    n_slots, p, k = g.shape
    m_r = a_rx.shape[0]
    basis = (g[:, :, None, :] * a_rx).reshape(n_slots, p * m_r, k)
    return (pinv(basis, rcond) @ y_vec[:, :, None])[:, :, 0]


# Extrapolation schedule of paper_als_fit, step ``it ** (1 / power)``: each
# restart starts at START_POWER; an accepted step lowers ``power`` by
# POWER_DOWN, not below MIN_POWER, and REJECTIONS rejected steps in a row
# raise it by POWER_UP.
START_POWER, MIN_POWER, POWER_DOWN, POWER_UP, REJECTIONS = 3.0, 1.5, 0.5, 1.0, 4


def pinv_unmix(tensor, x, rcond=1e-12):
    """Slices ``M_n = Y_n @ pinv(x[n]).T`` of an ``(m_r, p, n)`` tensor, one
    ``np.linalg.pinv`` per slot, stacked ``(n, m_r, m_t)``: the input of
    ``sensing_als.gevd_start``.  ``None`` when some slot's pilot system
    ``x[n]`` (``(n, p, m_t)``) has rank below ``m_t`` at the ``rcond`` cutoff,
    where the slices cannot be unmixed and the fit starts at random."""
    if any(np.linalg.matrix_rank(xn, rtol=rcond) < xn.shape[1] for xn in x):
        return None
    return np.stack([tensor[:, :, n] @ np.linalg.pinv(xn, rcond=rcond).T for n, xn in enumerate(x)])


def paper_als_fit(tensor, frame, num_targets, cfg=None):
    """The paper's alternating-least-squares fit: the reference ``als_fit``
    is judged against.

    Same objective, pilot-mode compression, starts (from the slices that
    :func:`pinv_unmix` unmixes), restarts, stopping rule and
    ``SensingEstimate`` as ``als_fit``; each iteration solves the three
    exact LS sub-steps in turn (receive steering, transmit steering,
    reflections; minimum-norm SVD solves with the ``rcond`` cutoff), then
    tries an extrapolated step ``it ** (1 / power)`` along the sweep,
    kept only when it strictly lowers the error, with ``power`` adapting
    as the constants above say.
    """
    from tensorisac.sensing_als import (
        FLOOR_DELTA,
        AlsConfig,
        SensingEstimate,
        _random_factors,
        estimate_rx_steering,
        gevd_start,
    )
    from tensorisac.tensor_ops import unfold1_flat, unfold3_tall

    cfg = AlsConfig() if cfg is None else cfg
    t = np.asarray(tensor, dtype=complex)
    m_r, p, n_slots = t.shape
    code, pilots = frame.c, frame.s_data
    m_t = code.shape[1]
    y_energy = np.vdot(t, t).real
    u = np.linalg.svd(pilots, full_matrices=False)[0]
    slots = t.transpose(2, 0, 1)
    z = slots @ u.conj()
    resid = slots - z @ u.T
    t, pilots, outside = z.transpose(1, 2, 0), u.conj().T @ pilots, np.vdot(resid, resid).real
    x = pilots * code[:, None, :]
    y1 = unfold1_flat(t)
    y_vec = unfold3_tall(t).T

    def error(a_rx, right):
        resid = y1 - a_rx @ right
        return (np.vdot(resid, resid).real + outside) / y_energy

    # The closed-form start needs the model's gate and slices that unmix, as in als_fit.
    unmixed = pinv_unmix(t, x, cfg.rcond) if num_targets <= min(m_r, m_t) and n_slots >= 2 else None
    best = None
    for restart in range(cfg.n_restarts):
        if restart == 0 and unmixed is not None:
            a_rx, a_tx, gamma = gevd_start(unmixed, num_targets, cfg.rcond)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([int(cfg.init_seed), restart]))
            a_rx, a_tx, gamma = _random_factors(rng, m_r, m_t, n_slots, num_targets)
        trace, converged, prev_err = [], False, np.inf
        right = build_right_factor(gamma, x @ a_tx)
        power, rejected = START_POWER, 0
        for it in range(1, cfg.max_iters + 1):
            old = (a_rx, a_tx, gamma)
            a_rx = estimate_rx_steering(y1, right, cfg.rcond)
            a_tx = estimate_tx_steering(y_vec, x, a_rx, gamma, cfg.rcond)
            g = x @ a_tx
            gamma = estimate_reflections(y_vec, a_rx, g, cfg.rcond)
            right = build_right_factor(gamma, g)
            err = error(a_rx, right)
            if it > 2:
                step = it ** (1.0 / power)
                a_rx_x, a_tx_x, gamma_x = (o + step * (f - o) for o, f in zip(old, (a_rx, a_tx, gamma)))
                right_x = build_right_factor(gamma_x, x @ a_tx_x)
                err_x = error(a_rx_x, right_x)
                if err_x < err:
                    a_rx, a_tx, gamma, right, err = a_rx_x, a_tx_x, gamma_x, right_x, err_x
                    power, rejected = max(power - POWER_DOWN, MIN_POWER), 0
                else:
                    rejected += 1
                    if rejected == REJECTIONS:
                        power, rejected = power + POWER_UP, 0
            trace.append(err)
            if abs(err - prev_err) < cfg.tol * prev_err + FLOOR_DELTA:
                converged = True
                break
            prev_err = err
        if best is None or trace[-1] < best.nmse_trace[-1]:
            best = SensingEstimate(a_rx, a_tx, gamma, trace, converged)
    return best


def oracle_lm_steps(tensor, frame, start, steps, damping_start=1e-3):
    """Parameters after ``steps`` accepted Levenberg-Marquardt steps on the
    uncompressed tensor, from ``start = (a_rx, a_tx, gamma)``.

    The Jacobian of every slice entry ``Y_n[i, q]`` is contracted index by
    index with ``einsum``; the damping follows Nielsen's rule as ``als_fit``
    does (start at ``damping_start`` times the largest diagonal entry of
    ``J^H J``; after an accepted step scale by ``max(1/3, 1 - (2 rho - 1)^3)``;
    after a rejected one by 2, 4, 8, ...).  ``als_fit``'s damping floor is
    not reached in a few steps, so it is left out.
    """
    y = np.asarray(tensor).transpose(2, 0, 1)  # y[n] = Y_n
    code, pilots = frame.c, frame.s_data
    shapes = [f.shape for f in start]
    sizes = np.cumsum([f.size for f in start])[:-1]

    def model(theta):
        a_rx, a_tx, gamma = (v.reshape(s) for v, s in zip(np.split(theta, sizes), shapes))
        return np.einsum("ij,nj,tj,nt,qt->niq", a_rx, gamma, a_tx, code, pilots)

    def jacobian(theta):
        a_rx, a_tx, gamma = (v.reshape(s) for v, s in zip(np.split(theta, sizes), shapes))
        g = np.einsum("qt,nt,tj->nqj", pilots, code, a_tx)
        blocks = (
            np.einsum("ia,nj,nqj->niqaj", np.eye(a_rx.shape[0]), gamma, g),
            np.einsum("ij,nj,qt,nt->niqtj", a_rx, gamma, pilots, code),
            np.einsum("nm,ij,nqj->niqmj", np.eye(gamma.shape[0]), a_rx, g),
        )
        return np.concatenate([b.reshape(y.size, -1) for b in blocks], axis=1)

    theta = np.concatenate([np.ravel(f) for f in start])
    resid = (y - model(theta)).ravel()
    mu, nu = None, 2.0
    for _ in range(steps):
        jac = jacobian(theta)
        normal, grad = jac.conj().T @ jac, jac.conj().T @ resid
        if mu is None:
            mu = damping_start * normal.diagonal().real.max()
        while True:
            step = np.linalg.solve(normal + mu * np.eye(theta.size), grad)
            new_resid = (y - model(theta + step)).ravel()
            drop = np.vdot(resid, resid).real - np.vdot(new_resid, new_resid).real
            if drop > 0:
                rho = drop / (np.vdot(step, grad).real + mu * np.vdot(step, step).real)
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
                nu = 2.0
                theta, resid = theta + step, new_resid
                break
            mu *= nu
            nu *= 2.0
    return tuple(v.reshape(s) for v, s in zip(np.split(theta, sizes), shapes))


def oracle_gevd_start(tensor, x, num_targets, rcond=1e-12):
    """``einsum`` formulation of ``sensing_als.gevd_start``, the closed-form
    start before it moved to batched matrix products: the same gate, the
    principal slot-mode pencil and the same SVD-family calls, contracted
    index by index on the ``(m_r, m_t, n)`` slice stack ``M``.  ``None``
    where the gate fails, so ``als_fit`` starts at random."""
    from tensorisac.tensor_ops import pinv

    tensor = np.asarray(tensor)
    m_r = tensor.shape[0]
    n_slots, p, m_t = x.shape
    k = num_targets
    if k > min(m_r, m_t) or n_slots < 2 or p < m_t:
        return None
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    if np.any(s[:, -1] <= rcond * s[:, 0]):
        return None
    m = np.einsum("ipn,npr,nrt->itn", tensor, u.conj(), vh.conj() / s[:, :, None])
    u1 = np.linalg.svd(m.reshape(m_r, m_t * n_slots), full_matrices=False)[0][:, :k]
    u2 = np.linalg.svd(m.transpose(1, 0, 2).reshape(m_t, m_r * n_slots), full_matrices=False)[0][:, :k]
    core = np.einsum("ik,itn,tl->nkl", u1.conj(), m, u2.conj())
    weights = np.linalg.svd(core.reshape(n_slots, k * k), full_matrices=True)[0][:, :2]
    g_b, g_a = np.einsum("nw,nkl->wkl", weights.conj(), core)
    a_rx = u1 @ np.linalg.eig(np.linalg.solve(g_b.T, g_a.T).T)[1]
    left, sigma, right_h = np.linalg.svd(np.einsum("ki,itn->ktn", pinv(a_rx, rcond), m), full_matrices=False)
    return a_rx, np.einsum("kt->tk", left[:, :, 0]), np.einsum("k,kn->nk", sigma[:, 0], right_h[:, 0, :])


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


def grid_point(cfg, value):
    """The grid point of ``cfg`` at sweep value ``value``, as ``validate`` builds it."""
    return replace(cfg, sweep_values=[value]).validate()[0]
