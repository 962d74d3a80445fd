"""Semi-blind receiver for the communication link, plus a perfect-CSI benchmark.

The user-terminal tensor has frontal slices ``Y[:, :, n] = h @ diag(c[n]) @ s.T``.
Because the code ``c`` is column orthonormal, multiplying the tall unfolding
by ``conj(c)`` collapses the slot dimension and leaves the column-wise
Kronecker (Khatri-Rao) product of the symbol matrix and the channel.  Each
of its columns is the vectorization of a rank-one matrix, so channel and
symbols are recovered column by column from a best rank-one approximation;
a known first symbol row then fixes the bilinear scale.  Each frame is
projected once: :func:`zf_detect` reuses the projection the receiver returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import IdentifiabilityError
from .signal_model import qam_constellation, qam_demodulate
from .tensor_ops import unfold3_tall

__all__ = [
    "CommEstimate",
    "estimate_symbol_channel_product",
    "krf_factorize",
    "remove_scaling",
    "detect_symbols",
    "semi_blind_receive",
    "zf_detect",
    "zf_benchmark",
]

ORTHONORMAL_ATOL = 1e-9  # largest entry of |code.T @ conj(code) - I| an orthonormal code may show


@dataclass
class CommEstimate:
    """Output of the semi-blind pipeline: soft/hard symbols, channel, code projection ``q``."""

    s_soft: np.ndarray
    s_hat: np.ndarray
    h_hat: np.ndarray
    q: np.ndarray


def estimate_symbol_channel_product(tensor: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Least-squares estimate of ``khatri_rao(s, h)`` from the received tensor.

    Right-multiplying the tall unfolding by ``conj(code)`` inverts the slot
    weighting exactly because the code is column orthonormal.  Requires at
    least as many slots as transmit antennas; a code failing
    ``code.T @ conj(code) == I`` by more than ``ORTHONORMAL_ATOL`` is rejected.
    """
    t = np.asarray(tensor)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    code = np.asarray(code)
    m_u, p, n_slots = t.shape
    if code.ndim != 2 or code.shape[0] != n_slots:
        raise ValueError("code must have one row per tensor slot")
    m_t = code.shape[1]
    if n_slots < m_t:
        raise IdentifiabilityError(
            f"code projection needs n >= m_t: {n_slots} < {m_t}"
        )
    gram_err = np.max(np.abs(code.T @ code.conj() - np.eye(m_t)))
    if gram_err > ORTHONORMAL_ATOL:
        raise ValueError(
            f"code matrix is not column orthonormal (max deviation {gram_err:.3e})"
        )
    return unfold3_tall(t) @ code.conj()


def krf_factorize(q: np.ndarray, m_u: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a Khatri-Rao product ``q ~ khatri_rao(s, h)`` into its factors.

    Column ``m`` of ``q`` reshapes to the rank-one matrix
    ``h[:, m] @ s[:, m].T``; its leading singular triple gives both columns
    with the singular value split evenly between them.  Returns ``(s, h)``
    with shapes ``p x m_t`` and ``m_u x m_t``; each pair is unique up to one
    complex scale per column.
    """
    q = np.asarray(q)
    if q.ndim != 2:
        raise ValueError("expected a matrix of stacked columns")
    if q.shape[0] != m_u * p:
        raise ValueError(f"rows {q.shape[0]} != m_u*p = {m_u * p}")
    # blocks[m] = unvec(q[:, m], m_u, p), all columns split in one call
    blocks = q.T.reshape(q.shape[1], p, m_u).swapaxes(1, 2)
    u, sigma, vh = np.linalg.svd(blocks, full_matrices=False)
    root = np.sqrt(sigma[:, :1])
    return (root * vh[:, 0, :]).T, (root * u[:, :, 0]).T


def remove_scaling(s: np.ndarray, h: np.ndarray, reference_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix the per-column scale of a KRF result from a known first symbol row.

    Column ``m`` of ``s`` is scaled so its first entry equals
    ``reference_row[m]``; ``h`` absorbs the inverse so the product
    ``khatri_rao(s, h)`` is untouched.
    """
    s = np.asarray(s)
    h = np.asarray(h)
    ref = np.asarray(reference_row).reshape(-1)
    if ref.size != s.shape[1]:
        raise ValueError("reference row length must match the column count")
    pivots = s[0, :]
    if np.any(pivots == 0.0):
        raise ValueError("cannot rescale: estimated first symbol row has a zero entry")
    if np.any(ref == 0.0):
        raise ValueError("cannot rescale: reference row has a zero entry")
    lam = ref / pivots
    return s * lam[None, :], h / lam[None, :]


def detect_symbols(s_soft: np.ndarray, order: int) -> np.ndarray:
    """Hard-decide every entry to the nearest constellation point.

    Ties resolve to the smallest constellation index.
    """
    points = qam_constellation(order)
    return points[qam_demodulate(s_soft, order)]


def semi_blind_receive(
    tensor: np.ndarray,
    code: np.ndarray,
    reference_row: np.ndarray,
    order: int,
) -> CommEstimate:
    """Full semi-blind pipeline: code projection, KRF, rescaling, detection."""
    t = np.asarray(tensor)
    m_u, p, _ = t.shape
    q = estimate_symbol_channel_product(t, code)
    s, h = krf_factorize(q, m_u, p)
    s, h = remove_scaling(s, h, reference_row)
    return CommEstimate(s_soft=s, s_hat=detect_symbols(s, order), h_hat=h, q=q)


def zf_channel_energy(h: np.ndarray) -> np.ndarray:
    """The benchmark's channel rule: squared norm of each channel column.

    Needs no zero column (``ValueError``), since the stream such a column
    carries is unobservable; any ``m_u >= 1`` will do (:func:`zf_detect`).
    """
    col_energy = np.sum(np.abs(h) ** 2, axis=0)
    if np.any(col_energy == 0.0):
        raise ValueError("channel has a zero column; that stream is unobservable")
    return col_energy


def zf_detect(q: np.ndarray, h_true: np.ndarray, order: int) -> np.ndarray:
    """Perfect-CSI decisions from a code projection ``q``, each stream solved by least
    squares against its true channel column; the channel must pass :func:`zf_channel_energy`.
    The code is column orthonormal, so the ZF solution ``diag(1/||h_m||^2) (C ⊙ H)^H`` is this
    per-stream matched filter and exists for any ``m_u >= 1``, fewer than ``m_t`` included."""
    m_u, m_t = h_true.shape
    if q.shape[1] != m_t or q.shape[0] % m_u:
        raise ValueError(f"projection of shape {q.shape} does not fit a {m_u} x {m_t} channel")
    col_energy = zf_channel_energy(h_true)
    # Stream m: unvec(q[:, m], m_u, p).T @ conj(h_true[:, m]), all streams at once.
    combined = q.T.reshape(m_t, -1, m_u) @ h_true.T.conj()[:, :, None]
    return detect_symbols(combined[:, :, 0].T / col_energy, order)


def zf_benchmark(tensor: np.ndarray, h_true: np.ndarray, code: np.ndarray, order: int) -> np.ndarray:
    """Symbol decisions with perfect channel knowledge, as a lower benchmark.

    Decodes the slot code exactly like the semi-blind path, then calls
    :func:`zf_detect`.  No ``src/`` caller: it stays only for ``bench/run.py``'s spot check,
    which ``bench/test_bench.py`` runs, and goes with ROADMAP items 1a and 8.
    """
    q = estimate_symbol_channel_product(tensor, code)
    h_true = np.asarray(h_true)
    m_u, m_t = np.shape(tensor)[0], q.shape[1]
    if h_true.shape != (m_u, m_t):
        raise ValueError(f"channel must be {m_u} x {m_t} (receive antennas x code columns), got {h_true.shape}")
    return zf_detect(q, h_true, order)
