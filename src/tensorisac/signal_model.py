"""Physical-layer generators for the bistatic sensing / communication downlink.

A base station with ``m_t`` transmit antennas sends, in each of ``n`` time
slots, the same block of ``p`` symbol vectors weighted by one row of a
column-orthonormal space-time code.  Two receivers observe the frame:

* a sensing array with ``m_r`` antennas collecting echoes from ``k`` point
  scatterers, each described by a departure angle, an arrival angle and one
  complex reflection coefficient per slot, and
* a user terminal with ``m_u`` antennas behind a flat-fading multipath
  channel.

A frame (:class:`TransmitFrame`) is its QAM indices, slot count and QAM
order; its symbols and code are derived from them once.  Both observations
are third-order tensors (antennas x symbols x slots); the builders below
produce them slice by slice.  Arrays are uniform linear with half-wavelength
spacing, so a steering vector has entries ``exp(1j * pi * i * sin(angle))``
and its first entry is always one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from .exceptions import IdentifiabilityError

__all__ = [
    "SensingScene",
    "CommLink",
    "TransmitFrame",
    "steering_vector",
    "build_steering_matrix",
    "krst_code",
    "qam_constellation",
    "qam_modulate",
    "qam_demodulate",
    "sample_scene",
    "sample_frame",
    "build_comm_link",
    "sensing_forward",
    "comm_forward",
    "add_noise",
]


# ----------------------------- array geometry ----------------------------- #

def steering_vector(angle_deg: float, m: int) -> np.ndarray:
    """Steering vector of one angle: the single column of :func:`build_steering_matrix`."""
    return build_steering_matrix([angle_deg], m)[:, 0]


def build_steering_matrix(angles_deg, m: int) -> np.ndarray:
    """Steering vectors of a half-wavelength uniform linear array with ``m >= 1``
    elements, one column per angle (degrees, strictly inside (-90, 90)):
    entries ``exp(1j * pi * i * sin(angle))``, first row all ones.
    """
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    if angles.size == 0:
        raise ValueError("need at least one angle")
    outside = angles[~((-90.0 < angles) & (angles < 90.0))]
    if outside.size:
        raise ValueError(f"angle {outside[0]} deg outside the open interval (-90, 90)")
    if m < 1:
        raise ValueError(f"array needs at least one element, got {m}")
    return np.exp(1j * np.pi * np.arange(m)[:, None] * np.sin(np.deg2rad(angles)))


# ------------------------------ code matrix ------------------------------- #

@lru_cache(maxsize=None)
def krst_code(n: int, m_t: int) -> np.ndarray:
    """Column-orthonormal space-time code: first ``m_t`` columns of the
    ``n x n`` DFT matrix scaled by ``1/sqrt(n)``, so ``c.T @ c.conj() == I``
    (read-only, shared).
    """
    if n < m_t:
        raise IdentifiabilityError(f"slot code needs n >= m_t: {n} < {m_t}")
    idx = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(idx, idx) / n)
    code = w[:, :m_t] / np.sqrt(n)
    code.setflags(write=False)
    return code


# ------------------------------ constellation ------------------------------ #

@lru_cache(maxsize=None)
def qam_constellation(order: int) -> np.ndarray:
    """Unit-average-energy square QAM constellation indexed 0..order-1 (read-only, shared)."""
    if order < 4 or isqrt(order) ** 2 != order:
        raise ValueError(f"QAM order must be a square (4, 16, 64, ...), got {order}")
    side = isqrt(order)
    levels = 2.0 * np.arange(side) - (side - 1)
    scale = np.sqrt(2.0 * (order - 1) / 3.0)
    idx = np.arange(order)
    points = (levels[idx // side] + 1j * levels[idx % side]) / scale
    points.setflags(write=False)
    return points


def qam_modulate(indices, order: int) -> np.ndarray:
    """Map integer constellation indices to unit-average-energy QAM symbols."""
    points = qam_constellation(order)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= order):
        raise ValueError(f"indices outside 0..{order - 1}")
    return points[idx]


def qam_demodulate(symbols, order: int) -> np.ndarray:
    """Nearest-neighbour hard decision back to constellation indices.

    Distance ties resolve to the smallest index, so the decision is
    deterministic even exactly on the decision boundary.
    """
    points = qam_constellation(order)
    sym = np.asarray(symbols, dtype=complex)
    dist = np.abs(sym.reshape(-1)[None, :] - points[:, None])
    return np.argmin(dist, axis=0).reshape(sym.shape)


# -------------------------------- key data -------------------------------- #

@dataclass
class SensingScene:
    """Scatterer geometry and per-slot reflections seen by the sensing array.

    ``theta`` are arrival angles at the sensing receiver, ``phi`` departure
    angles at the transmitter, both in degrees; ``gamma`` is the
    ``n_slots x k`` complex reflection matrix.  The steering matrices
    ``a_rx`` (``m_r x k``) and ``a_tx`` (``m_t x k``) are derived from the
    angles once, by :func:`build_steering_matrix`, and are read-only.
    """

    theta: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    m_r: int
    m_t: int
    a_rx: np.ndarray = field(init=False)
    a_tx: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        self.gamma = np.atleast_2d(np.asarray(self.gamma, dtype=complex))
        k = self.theta.size
        if self.phi.size != k:
            raise ValueError("theta and phi must list one angle per scatterer")
        if self.gamma.shape[1] != k:
            raise ValueError(
                f"gamma has {self.gamma.shape[1]} columns but the scene has {k} scatterers"
            )
        self.a_rx = build_steering_matrix(self.theta, self.m_r)
        self.a_tx = build_steering_matrix(self.phi, self.m_t)
        self.a_rx.setflags(write=False)
        self.a_tx.setflags(write=False)

    def rx_steering(self) -> np.ndarray:
        return self.a_rx

    def tx_steering(self) -> np.ndarray:
        return self.a_tx


@dataclass
class CommLink:
    """Flat-fading multipath channel between base station and user terminal.

    The ``m_u x m_t`` channel ``h = A_u diag(gains) A_t^T`` is derived from
    the path angles and gains, so it cannot disagree with them.
    """

    theta_ue: np.ndarray
    phi_ue: np.ndarray
    gains: np.ndarray
    m_u: int
    m_t: int
    h: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.theta_ue = np.atleast_1d(np.asarray(self.theta_ue, dtype=float))
        self.phi_ue = np.atleast_1d(np.asarray(self.phi_ue, dtype=float))
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        n_paths = self.theta_ue.size
        if self.phi_ue.size != n_paths or self.gains.size != n_paths:
            raise ValueError("theta_ue, phi_ue and gains must list one value per path")
        self.h = (
            build_steering_matrix(self.theta_ue, self.m_u)
            @ np.diag(self.gains)
            @ build_steering_matrix(self.phi_ue, self.m_t).T
        )


def build_comm_link(theta_ue, phi_ue, gains, m_u: int, m_t: int) -> CommLink:
    """Assemble a :class:`CommLink` from path angles and gains."""
    return CommLink(theta_ue=theta_ue, phi_ue=phi_ue, gains=gains, m_u=m_u, m_t=m_t)


@dataclass
class TransmitFrame:
    """One transmitted frame: pilot block, data block and the slot code.

    Built from the ``p x m_t`` pilot and data QAM indices, the slot count
    ``n`` and the QAM order, it derives the symbol matrices ``s_pilot`` and
    ``s_data`` and the shared ``n x m_t`` code ``c = krst_code(n, m_t)``, so
    it cannot hold off-grid symbols or a non-orthonormal code.
    """

    pilot_idx: np.ndarray
    data_idx: np.ndarray
    n: int
    constellation: int
    s_pilot: np.ndarray = field(init=False)
    s_data: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.pilot_idx = np.atleast_2d(np.asarray(self.pilot_idx))
        self.data_idx = np.atleast_2d(np.asarray(self.data_idx))
        if self.pilot_idx.shape != self.data_idx.shape:
            raise ValueError("pilot and data blocks must have the same shape")
        self.s_pilot = qam_modulate(self.pilot_idx, self.constellation)
        self.s_data = qam_modulate(self.data_idx, self.constellation)
        self.c = krst_code(self.n, self.pilot_idx.shape[1])


# -------------------------------- samplers -------------------------------- #

def sample_scene(
    k: int,
    n: int,
    sigma: float,
    m_r: int,
    m_t: int,
    theta=None,
    phi=None,
    sector: tuple[float, float] = (-80.0, 80.0),
    seed=None,
) -> SensingScene:
    """Draw a random scene: fixed angle lists if given, otherwise uniform in
    ``sector``; reflections i.i.d. circular complex Gaussian with std ``sigma``.
    """
    if k < 1 or n < 1:
        raise ValueError("need at least one scatterer and one slot")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = sector
    theta = rng.uniform(lo, hi, k) if theta is None else np.asarray(theta, dtype=float)
    phi = rng.uniform(lo, hi, k) if phi is None else np.asarray(phi, dtype=float)
    gamma = sigma / np.sqrt(2.0) * (
        rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    )
    return SensingScene(theta=theta, phi=phi, gamma=gamma, m_r=m_r, m_t=m_t)


def sample_frame(p: int, m_t: int, n: int, order: int = 4, seed=None) -> TransmitFrame:
    """Draw a random frame: uniform QAM pilot and data blocks plus the code."""
    if p < 1:
        raise ValueError("need at least one symbol per block")
    rng = np.random.default_rng(seed)
    pilot_idx = rng.integers(0, order, (p, m_t))
    data_idx = rng.integers(0, order, (p, m_t))
    return TransmitFrame(pilot_idx, data_idx, n, order)


# ------------------------------ forward model ------------------------------ #

def sensing_forward(scene: SensingScene, frame: TransmitFrame) -> np.ndarray:
    """Noise-free sensing tensor of shape ``(m_r, p, n)``.

    Slice ``n`` is ``A_rx @ diag(gamma[n]) @ A_tx.T @ diag(c[n]) @ s_pilot.T``:
    every scatterer scales the pilot block by its slot reflection, seen
    through the transmit and receive array responses.
    """
    if scene.gamma.shape[0] != frame.c.shape[0]:
        raise ValueError("scene and frame disagree on the number of slots")
    if scene.m_t != frame.c.shape[1]:
        raise ValueError("scene and frame disagree on the transmit antenna count")
    # All slots at once as (n, m_r, p), multiplied in the order of the slice product.
    slices = ((scene.a_rx * scene.gamma[:, None, :]) @ scene.a_tx.T * frame.c[:, None, :]) @ frame.s_pilot.T
    return np.ascontiguousarray(slices.transpose(1, 2, 0))


def comm_forward(link: CommLink, frame: TransmitFrame) -> np.ndarray:
    """Noise-free user-terminal tensor of shape ``(m_u, p, n)``.

    Slice ``n`` is ``h @ diag(c[n]) @ s_data.T``.
    """
    if link.m_t != frame.c.shape[1]:
        raise ValueError("link and frame disagree on the transmit antenna count")
    slices = (link.h * frame.c[:, None, :]) @ frame.s_data.T
    return np.ascontiguousarray(slices.transpose(1, 2, 0))


def add_noise(tensor: np.ndarray, es_n0_db: float, seed=None) -> np.ndarray:
    """Add i.i.d. circular complex Gaussian noise at the given Es/N0.

    Symbol energy is 1 by construction, so the per-entry noise variance is
    ``10 ** (-es_n0_db / 10)``.  ``es_n0_db = inf`` is the noiseless
    sentinel and returns the tensor unchanged.
    """
    t = np.asarray(tensor, dtype=complex)
    if np.isinf(es_n0_db):
        if es_n0_db < 0:
            raise ValueError("es_n0_db = -inf is not a valid noise level")
        return t.copy()
    n0 = 10.0 ** (-es_n0_db / 10.0)
    rng = np.random.default_rng(seed)
    noise = np.sqrt(n0 / 2.0) * (
        rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
    )
    return t + noise
