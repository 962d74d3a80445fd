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
from math import inf, isnan, isqrt

import numpy as np

from .exceptions import IdentifiabilityError

__all__ = [
    "SensingScene",
    "CommLink",
    "TransmitFrame",
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
    "noise_variance",
    "add_noise",
]


# ----------------------------- array geometry ----------------------------- #

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


@lru_cache(maxsize=64)
def _steering(angles: bytes, m: int) -> np.ndarray:
    """Shared read-only :func:`build_steering_matrix` of float64 angles, keyed by their exact bytes."""
    steering = build_steering_matrix(np.frombuffer(angles), m)
    steering.setflags(write=False)
    return steering


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
    code = np.exp(-2j * np.pi * np.outer(idx, idx[:m_t]) / n) / np.sqrt(n)
    code.setflags(write=False)
    return code


# ------------------------------ constellation ------------------------------ #

QAM_ORDER_MAX = 4096  # Wi-Fi 7's, the largest square QAM in use; each order builds and caches that many points


@lru_cache(maxsize=None)
def qam_constellation(order: int) -> np.ndarray:
    """Unit-average-energy square QAM constellation indexed 0..order-1 (read-only, shared)."""
    if order < 4 or isqrt(order) ** 2 != order:
        raise ValueError(f"QAM order must be a square (4, 16, 64, ...), got {order}")
    if order > QAM_ORDER_MAX:
        raise ValueError(f"QAM order must be at most {QAM_ORDER_MAX}, got {order}")
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
    angles by :func:`build_steering_matrix`, once per distinct angles, read-only.
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
        self.a_rx, self.a_tx = _steering(self.theta.tobytes(), self.m_r), _steering(self.phi.tobytes(), self.m_t)

    def rx_steering(self) -> np.ndarray:
        """``a_rx``.  No ``src/`` caller: it stays only for ``bench/run.py``'s ``SenseFrame.step``,
        which ``bench/test_bench.py`` runs, and goes with ROADMAP items 1a and 8."""
        return self.a_rx


@dataclass
class CommLink:
    """Flat-fading multipath channel between base station and user terminal.

    The ``m_u x m_t`` channel ``h = A_u diag(gains) A_t^T`` is derived from
    the path angles and gains, so it cannot disagree with them; read-only.
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
        if not np.all(np.isfinite(self.gains)):
            raise ValueError("path gains must be finite")
        self.h = (
            build_steering_matrix(self.theta_ue, self.m_u)
            @ np.diag(self.gains)
            @ build_steering_matrix(self.phi_ue, self.m_t).T
        )
        self.h.setflags(write=False)


def build_comm_link(theta_ue, phi_ue, gains, m_u: int, m_t: int) -> CommLink:
    """Assemble a :class:`CommLink` from path angles and gains."""
    return CommLink(theta_ue=theta_ue, phi_ue=phi_ue, gains=gains, m_u=m_u, m_t=m_t)


@dataclass
class TransmitFrame:
    """One transmitted frame: the symbol block and the slot code.

    Built from the ``p x m_t`` QAM indices, the slot count ``n`` and the QAM
    order, it derives the symbol matrix ``s_data`` and the shared
    ``n x m_t`` code ``c = krst_code(n, m_t)``, so it cannot hold off-grid
    symbols or a non-orthonormal code.  Both receivers see this one block:
    the sensing receiver knows it, the user terminal detects it.
    """

    data_idx: np.ndarray
    n: int
    constellation: int
    s_data: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.data_idx = np.atleast_2d(np.asarray(self.data_idx))
        self.s_data = qam_modulate(self.data_idx, self.constellation)
        self.c = krst_code(self.n, self.data_idx.shape[1])


# -------------------------------- samplers -------------------------------- #

def sample_scene(
    k: int,
    n: int,
    sigma: float,
    m_r: int,
    m_t: int,
    theta=None,
    phi=None,
    seed=None,
) -> SensingScene:
    """Draw a random scene: fixed angle lists if given, otherwise uniform in
    [-80, 80) degrees; reflections i.i.d. circular complex Gaussian with std
    ``sigma``.
    """
    if k < 1 or n < 1:
        raise ValueError("need at least one scatterer and one slot")
    if not 0 < sigma < inf:
        raise ValueError("sigma must be positive and finite")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-80.0, 80.0, k) if theta is None else np.asarray(theta, dtype=float)
    phi = rng.uniform(-80.0, 80.0, k) if phi is None else np.asarray(phi, dtype=float)
    gamma = sigma / np.sqrt(2.0) * (
        rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    )
    return SensingScene(theta=theta, phi=phi, gamma=gamma, m_r=m_r, m_t=m_t)


def sample_frame(p: int, m_t: int, n: int, order: int = 4, seed=None) -> TransmitFrame:
    """Draw a random frame: one uniform QAM symbol block plus the code."""
    if p < 1:
        raise ValueError("need at least one symbol per block")
    return TransmitFrame(np.random.default_rng(seed).integers(0, order, (p, m_t)), n, order)


# ------------------------------ forward model ------------------------------ #

def _coded_slices(g: np.ndarray, frame: TransmitFrame) -> np.ndarray:
    """Slices ``g[n] @ diag(c[n]) @ s_data.T`` of a channel ``g`` (one matrix, or
    one per slot), all slots at once, as an ``(m, p, n)`` tensor."""
    slices = (g * frame.c[:, None, :]) @ frame.s_data.T
    return np.ascontiguousarray(slices.transpose(1, 2, 0))


def sensing_forward(scene: SensingScene, frame: TransmitFrame) -> np.ndarray:
    """Noise-free sensing tensor of shape ``(m_r, p, n)``.

    Slice ``n`` is ``A_rx @ diag(gamma[n]) @ A_tx.T @ diag(c[n]) @ s_data.T``:
    every scatterer scales the transmitted block by its slot reflection, seen
    through the transmit and receive array responses.
    """
    if scene.gamma.shape[0] != frame.c.shape[0]:
        raise ValueError("scene and frame disagree on the number of slots")
    if scene.m_t != frame.c.shape[1]:
        raise ValueError("scene and frame disagree on the transmit antenna count")
    return _coded_slices((scene.a_rx * scene.gamma[:, None, :]) @ scene.a_tx.T, frame)


def comm_forward(link: CommLink, frame: TransmitFrame) -> np.ndarray:
    """Noise-free user-terminal tensor of shape ``(m_u, p, n)``.

    Slice ``n`` is ``h @ diag(c[n]) @ s_data.T``.
    """
    if link.m_t != frame.c.shape[1]:
        raise ValueError("link and frame disagree on the transmit antenna count")
    return _coded_slices(link.h, frame)


def noise_variance(es_n0_db: float) -> float:
    """Per-entry noise variance N0 ``= 10 ** (-es_n0_db / 10)``, symbol energy being 1 by
    construction: 0.0 at the noiseless sentinel ``inf``.  NaN, ``-inf`` and an Es/N0 at
    which N0 overflows (below about -3082.5 dB) raise ``ValueError``."""
    es_n0_db = float(es_n0_db)
    if isnan(es_n0_db) or es_n0_db == -inf:
        raise ValueError(f"es_n0_db = {es_n0_db} is not a valid noise level")
    try:
        return 10.0 ** (-es_n0_db / 10.0)
    except OverflowError:
        raise ValueError(f"noise variance 10 ** ({-es_n0_db} / 10) overflows") from None


def add_noise(tensor: np.ndarray, es_n0_db: float, seed=None) -> np.ndarray:
    """Add i.i.d. circular complex Gaussian noise of variance ``noise_variance(es_n0_db)`` per
    entry; at variance 0 (the sentinel ``inf``) return a copy of the tensor, drawing nothing."""
    n0 = noise_variance(es_n0_db)
    t = np.asarray(tensor, dtype=complex)
    if n0 == 0.0:
        return t.copy()
    # Both parts in one call: the stream of two calls, real part first.
    re, im = np.random.default_rng(seed).standard_normal((2, *t.shape))
    return t + np.sqrt(n0 / 2.0) * (re + 1j * im)
