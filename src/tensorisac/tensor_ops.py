"""Dense complex matrix / third-order tensor kernel shared by both receivers.

Conventions used throughout the package:

* A third-order tensor is a complex ``numpy.ndarray`` of shape
  ``(d1, d2, d3)`` indexed ``(i, p, n)``.  Fixing the last index gives the
  ``n``-th frontal slice, a ``d1 x d2`` matrix.
* ``vec`` stacks columns (first index runs fastest).  Under this convention
  ``vec(a @ b.T) == kron(b, a)`` for column vectors ``a``, ``b``, which is
  what ties the stacked least-squares systems in the receivers to the
  per-slice matrix equations.
* Both unfoldings are defined by index maps, not by memory layout:
  ``unfold1_flat`` places slice ``n`` in columns ``n*d2 .. (n+1)*d2 - 1``,
  and ``unfold3_tall`` puts entry ``(i, p, n)`` in row ``i + d1*p`` of
  column ``n`` (the column-stacked slice).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "unfold1_flat",
    "unfold3_tall",
    "vec",
    "unvec",
    "kronecker",
    "khatri_rao",
    "pinv",
    "best_rank_one",
]


def _require_tensor3(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    return t


def unfold1_flat(tensor: np.ndarray) -> np.ndarray:
    """Flat 1-mode unfolding ``[Y_0  Y_1  ...  Y_{d3-1}]`` of shape ``d1 x (d3*d2)``.

    Column ``n*d2 + p`` holds ``tensor[:, p, n]``.
    """
    t = _require_tensor3(tensor)
    d1, d2, d3 = t.shape
    return np.moveaxis(t, 2, 1).reshape(d1, d3 * d2)


def unfold3_tall(tensor: np.ndarray) -> np.ndarray:
    """Tall 3-mode unfolding of shape ``(d2*d1) x d3``.

    Column ``n`` is ``vec(tensor[:, :, n])``, i.e. row ``i + d1*p`` holds
    entry ``(i, p, n)``.
    """
    t = _require_tensor3(tensor)
    d1, d2, d3 = t.shape
    return t.reshape(d1 * d2, d3, order="F")


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector (first index runs fastest)."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"vec expects a matrix, got ndim={m.ndim}")
    return m.reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Invert :func:`vec`: reshape a length ``rows*cols`` vector to a matrix."""
    v = np.asarray(v).reshape(-1)
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with ``kronecker(a, b)[i*rb + k, j*cb + l] = a[i, j] * b[k, l]``."""
    return np.kron(np.asarray(a), np.asarray(b))


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column counts."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    # (i, j, k) -> row i*rows_b + j, matching np.kron on each column exactly.
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def pinv(m: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD, of a matrix or of each matrix in
    a stack ``(..., rows, cols)``.

    Singular values at or below ``rcond`` times the largest singular value
    are treated as zero.  The arithmetic is ``numpy.linalg.pinv``'s, bit for
    bit, without its argument handling.  Raises
    ``numpy.linalg.LinAlgError`` if the SVD fails to converge.
    """
    u, s, vh = np.linalg.svd(np.conj(m), full_matrices=False)
    # LAPACK returns the singular values in descending order, so the first
    # is the largest; a dropped value gets 1/inf = 0.
    s_inv = 1.0 / np.where(s > rcond * s[..., :1], s, np.inf)
    return vh.swapaxes(-1, -2) @ (s_inv[..., None] * u.swapaxes(-1, -2))


def best_rank_one(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Best rank-one approximation ``sigma * outer(u, conj(v))`` of a matrix,
    or of each matrix in a stack ``(..., rows, cols)``.

    Returns ``(u, v, sigma)``: unit-norm ``u`` of shape ``(..., rows)``,
    unit-norm ``v`` of shape ``(..., cols)`` and the largest singular value
    ``sigma`` of shape ``(...)`` (a scalar for one matrix).  Each pair is
    rotated so the first entry of ``u`` whose magnitude exceeds 1e-12 is
    real and nonnegative, which makes the output deterministic across
    backends.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"best_rank_one expects a matrix or a stack of matrices, got ndim={m.ndim}")
    if 0 in m.shape[-2:]:
        raise ValueError(f"best_rank_one is undefined for an empty matrix, got shape {m.shape}")
    u_full, s, vh = np.linalg.svd(m, full_matrices=False)
    sigma = s[..., 0]
    # Only an all-zero matrix has a zero largest singular value.
    if not np.all(sigma > 0.0):
        raise ValueError("best_rank_one is undefined for an all-zero matrix")
    u = u_full[..., 0]
    v = vh[..., 0, :].conj()
    # u has unit norm, so some entry exceeds 1e-12 in magnitude.
    flat = u.reshape(-1, u.shape[-1])
    lead = flat[np.arange(flat.shape[0]), np.argmax(np.abs(flat) > 1e-12, axis=-1)].reshape(u.shape[:-1] + (1,))
    phase = (lead / np.abs(lead)).conj()
    return u * phase, v * phase, sigma
