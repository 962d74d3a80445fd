"""Alternating-least-squares receiver for the bistatic sensing link.

The sensing tensor has frontal slices
``Y[:, :, n] = A_rx @ diag(gamma[n]) @ A_tx.T @ diag(code[n]) @ pilots.T``
with known ``code`` and ``pilots``.  The receiver alternates exact
least-squares updates of the receive steering matrix, the transmit steering
matrix and the reflection matrix, always using the freshest estimates of
the other two blocks, until the normalized squared reconstruction error
stops changing.  Every update is one SVD-based pseudoinverse solve over all
slots (the per-slot reflection systems as one stack).

Before iterating, :func:`als_fit` compresses the pilot mode (Bro & Andersson,
1998): for ``Z_n = Y_n conj(U)``, ``U`` the left singular vectors of the
pilots ``S``, ``||Y_n - M S^T||^2 = ||Z_n - M (U^H S)^T||^2 + ||Y_n - Z_n U^T||^2``
for every ``M``, and the last term is constant.  So every update (min-norm
solution and ``rcond`` cutoff included, as the systems keep their singular
values) is the same on ``Z`` with pilots ``U^H S``; the constant is added back
to the error.  Skipped when ``p <= m_t`` or when ``Z`` fails the gate below.

Plain alternating updates crawl through long plateaus when steering columns
are strongly correlated (closely spaced angles on a small array), so after
every sweep the iterate is extrapolated along the last step and the longer
step is kept only when it lowers the error.  This keeps the error trace
non-increasing while cutting iteration counts by several times.

Convergence is declared when the error change between consecutive
iterations falls below ``tol`` relative to the current error; an absolute
anchor far below double-precision resolution lets exact fits terminate once
the error sits at the numerical floor instead of cycling on rounding noise.

With known pilots and code the factors are unique up to a common column
permutation and two diagonal column scalings that cancel between the
blocks; the per-slot scalar freedom of the general trilinear model
collapses into those scalings and needs no separate treatment.
:func:`remove_sensing_ambiguity` pins both scalings by normalizing the
first array element of each steering column to one, which is exact for
physical steering vectors because their first entry is one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import permutations

import numpy as np

from .exceptions import AlsDivergenceError, IdentifiabilityError
from .signal_model import TransmitFrame, steering_vector
from .tensor_ops import pinv, unfold1_flat, unfold3_tall

__all__ = [
    "AlsConfig",
    "IdentifiabilityReport",
    "SensingEstimate",
    "check_identifiability",
    "build_right_factor",
    "estimate_rx_steering",
    "estimate_tx_steering",
    "estimate_reflections",
    "als_fit",
    "remove_sensing_ambiguity",
    "align_permutation",
    "extract_angles",
]


# Absolute stopping anchor: once the normalized error changes by less than
# this per iteration the fit is exact for every practical purpose (the value
# sits ten orders below the tightest exact-recovery requirement), so runs at
# the double-precision floor terminate instead of cycling on rounding noise.
FLOOR_DELTA = 1e-20


@dataclass
class AlsConfig:
    """Knobs for :func:`als_fit`.

    ``tol`` bounds the relative change of the normalized squared
    reconstruction error between consecutive iterations; ``rcond`` is the
    relative singular-value cutoff of every pseudoinverse; ``n_restarts``
    independent random initializations are run and the best final error
    kept.
    """

    max_iters: int = 1000
    tol: float = 1e-6
    rcond: float = 1e-12
    init_seed: int = 0
    n_restarts: int = 1

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.rcond < 0:
            raise ValueError("rcond must be nonnegative")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be at least 1")


@dataclass
class IdentifiabilityReport:
    """Outcome of the dimension gate; ``violations`` names each failed inequality."""

    ok: bool
    violations: list[str] = field(default_factory=list)


@dataclass
class SensingEstimate:
    """Factor estimates plus the per-iteration error trace of the winning restart."""

    a_rx_hat: np.ndarray
    a_tx_hat: np.ndarray
    gamma_hat: np.ndarray
    nmse_trace: list[float]
    converged: bool
    iters: int


def check_identifiability(m_r: int, m_t: int, p: int, n: int, k: int) -> IdentifiabilityReport:
    """Dimension gate for unique least-squares recovery of all three factors.

    The receive-steering step needs ``n*p >= k``, the stacked
    transmit-steering step needs ``n*p*m_r >= m_t*k`` and the per-slot
    reflection step needs ``p*m_r >= k``.
    """
    for name, value in (("m_r", m_r), ("m_t", m_t), ("p", p), ("n", n), ("k", k)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    violations = []
    if n * p < k:
        violations.append(f"n*p >= k fails: {n}*{p} = {n * p} < {k}")
    if n * p * m_r < m_t * k:
        violations.append(f"n*p*m_r >= m_t*k fails: {n * p * m_r} < {m_t * k}")
    if p * m_r < k:
        violations.append(f"p*m_r >= k fails: {p * m_r} < {k}")
    return IdentifiabilityReport(ok=not violations, violations=violations)


def build_right_factor(gamma: np.ndarray, a_tx: np.ndarray, code: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Right factor of the flat 1-mode unfolding.

    Block ``n`` is ``diag(gamma[n]) @ a_tx.T @ diag(code[n]) @ pilots.T``,
    so the flat unfolding of the sensing tensor equals
    ``a_rx @ build_right_factor(...)``.
    """
    blocks = pilots @ (np.asarray(code)[:, :, None] * a_tx) * np.asarray(gamma)[:, None, :]
    return blocks.transpose(2, 0, 1).reshape(blocks.shape[2], -1)


def estimate_rx_steering(y1: np.ndarray, right_factor: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Least-squares update of the receive steering matrix from the flat unfolding."""
    y1 = np.asarray(y1)
    right_factor = np.asarray(right_factor)
    if y1.ndim != 2 or right_factor.ndim != 2 or y1.shape[1] != right_factor.shape[1]:
        raise ValueError(
            f"incompatible shapes {y1.shape} and {right_factor.shape} for the flat system"
        )
    return y1 @ pinv(right_factor, rcond)


def estimate_tx_steering(
    tensor: np.ndarray,
    a_rx: np.ndarray,
    gamma: np.ndarray,
    code: np.ndarray,
    pilots: np.ndarray,
    rcond: float = 1e-12,
) -> np.ndarray:
    """Least-squares update of the transmit steering matrix.

    Column-stacking each slice gives
    ``vec(Y_n) = kron(pilots @ diag(code[n]), a_rx @ diag(gamma[n])) @ vec(a_tx.T)``;
    the slot blocks are stacked into one tall system and solved jointly.
    """
    t = np.asarray(tensor)
    m_r, p, n_slots = t.shape
    m_t = np.asarray(code).shape[1]
    k = np.asarray(a_rx).shape[1]
    if n_slots * p * m_r < m_t * k:
        raise IdentifiabilityError(
            f"n*p*m_r >= m_t*k fails: {n_slots * p * m_r} < {m_t * k}"
        )
    left = pilots * np.asarray(code)[:, None, :]
    right = a_rx * np.asarray(gamma)[:, None, :]
    stacked = (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(n_slots * p * m_r, m_t * k)
    return (pinv(stacked, rcond) @ unfold3_tall(t).T.reshape(-1)).reshape(m_t, k)


def estimate_reflections(
    tensor: np.ndarray,
    a_rx: np.ndarray,
    a_tx: np.ndarray,
    code: np.ndarray,
    pilots: np.ndarray,
    rcond: float = 1e-12,
) -> np.ndarray:
    """Least-squares update of the reflection matrix, one slot row at a time.

    Slice ``n`` satisfies ``vec(Y_n) = khatri_rao(g_n, a_rx) @ gamma[n]``
    with ``g_n = pilots @ diag(code[n]) @ a_tx``; all slots are one stacked solve.
    """
    t = np.asarray(tensor)
    m_r, p, n_slots = t.shape
    k = np.asarray(a_rx).shape[1]
    if p * m_r < k:
        raise IdentifiabilityError(f"p*m_r >= k fails: {p * m_r} < {k}")
    g = pilots @ (np.asarray(code)[:, :, None] * a_tx)
    basis = (g[:, :, None, :] * a_rx).reshape(n_slots, p * m_r, k)
    return (pinv(basis, rcond) @ unfold3_tall(t).T[:, :, None])[:, :, 0]


def _random_factors(rng: np.random.Generator, m_r: int, m_t: int, n: int, k: int):
    def cn(rows, cols):
        return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)

    return cn(m_r, k), cn(m_t, k), cn(n, k)


def als_fit(
    tensor: np.ndarray,
    frame: TransmitFrame,
    num_targets: int,
    cfg: AlsConfig = AlsConfig(),
) -> SensingEstimate:
    """Fit the three sensing factors by alternating least squares.

    Runs ``cfg.n_restarts`` independent random initializations and returns
    the restart with the smallest final normalized squared reconstruction
    error.  Within a restart, each iteration solves the three exact LS
    subproblems in turn, then tries an extrapolated step along the sweep
    direction (kept only if it lowers the error).  The iteration stops once
    ``|e_i - e_{i-1}| < tol * e_{i-1} + FLOOR_DELTA`` or after
    ``cfg.max_iters`` iterations (reported as ``converged=False``).

    Raises
    ------
    IdentifiabilityError
        If the tensor dimensions do not satisfy the recovery inequalities.
    AlsDivergenceError
        If the reconstruction error turns non-finite.
    """
    t = np.asarray(tensor, dtype=complex)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    m_r, p, n_slots = t.shape
    code = frame.c
    pilots = frame.s_pilot
    m_t = code.shape[1]
    if code.shape[0] != n_slots:
        raise ValueError("frame and tensor disagree on the number of slots")
    if pilots.shape[0] != p:
        raise ValueError("frame and tensor disagree on the symbols per slot")
    report = check_identifiability(m_r, m_t, p, n_slots, num_targets)
    if not report.ok:
        raise IdentifiabilityError("; ".join(report.violations))

    y_energy = np.vdot(t, t).real
    if y_energy == 0.0:
        raise ValueError("cannot fit an all-zero tensor")
    outside = 0.0  # ||Y - Z U^T||^2 of the pilot-mode compression, fixed for all factors
    if p > m_t and check_identifiability(m_r, m_t, m_t, n_slots, num_targets).ok:
        u = np.linalg.svd(pilots, full_matrices=False)[0]
        z = np.einsum("ipn,pr->irn", t, u.conj())
        resid = t - np.einsum("irn,pr->ipn", z, u)
        t, pilots, outside = z, u.conj().T @ pilots, np.vdot(resid, resid).real
    y1 = unfold1_flat(t)

    best: SensingEstimate | None = None
    for restart in range(cfg.n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence([int(cfg.init_seed) & (2**63 - 1), restart]))
        a_rx, a_tx, gamma = _random_factors(rng, m_r, m_t, n_slots, num_targets)
        trace: list[float] = []
        converged = False
        prev_err = np.inf
        right = build_right_factor(gamma, a_tx, code, pilots)
        for it in range(1, cfg.max_iters + 1):
            old = (a_rx, a_tx, gamma)
            a_rx = estimate_rx_steering(y1, right, cfg.rcond)
            a_tx = estimate_tx_steering(t, a_rx, gamma, code, pilots, cfg.rcond)
            gamma = estimate_reflections(t, a_rx, a_tx, code, pilots, cfg.rcond)
            right = build_right_factor(gamma, a_tx, code, pilots)
            resid = y1 - a_rx @ right
            err = (np.vdot(resid, resid).real + outside) / y_energy
            if it > 2:
                # Extrapolate along the sweep direction; the longer step is
                # kept only when it strictly lowers the error, so the trace
                # stays non-increasing.
                step = it ** (1.0 / 3.0)
                a_rx_x = old[0] + step * (a_rx - old[0])
                a_tx_x = old[1] + step * (a_tx - old[1])
                gamma_x = old[2] + step * (gamma - old[2])
                right_x = build_right_factor(gamma_x, a_tx_x, code, pilots)
                resid_x = y1 - a_rx_x @ right_x
                err_x = (np.vdot(resid_x, resid_x).real + outside) / y_energy
                if err_x < err:
                    a_rx, a_tx, gamma, right, err = a_rx_x, a_tx_x, gamma_x, right_x, err_x
            if not np.isfinite(err):
                raise AlsDivergenceError(f"non-finite reconstruction error at iteration {it}")
            trace.append(err)
            if abs(err - prev_err) < cfg.tol * prev_err + FLOOR_DELTA:
                converged = True
                break
            prev_err = err
        est = SensingEstimate(
            a_rx_hat=a_rx,
            a_tx_hat=a_tx,
            gamma_hat=gamma,
            nmse_trace=trace,
            converged=converged,
            iters=len(trace),
        )
        if best is None or trace[-1] < best.nmse_trace[-1]:
            best = est
    assert best is not None
    return best


def remove_sensing_ambiguity(est: SensingEstimate) -> SensingEstimate:
    """Pin the column-scaling ambiguities using the known array geometry.

    The fit is invariant under two diagonal column scalings (one between
    the receive steering matrix and the reflections, one between the
    transmit steering matrix and the reflections), so a random start leaves
    both estimates arbitrarily scaled.  Every physical steering vector has
    first entry one; dividing each steering column by its own first entry
    and multiplying the matching reflection column by both pivots restores
    the physical normalization of all three factors while leaving every
    reconstructed slice unchanged.
    """
    rx_row = est.a_rx_hat[0, :]
    tx_row = est.a_tx_hat[0, :]
    if np.any(np.abs(rx_row) == 0.0) or np.any(np.abs(tx_row) == 0.0):
        raise ValueError("a steering estimate has a zero first-row entry")
    return replace(
        est,
        a_rx_hat=est.a_rx_hat / rx_row[None, :],
        a_tx_hat=est.a_tx_hat / tx_row[None, :],
        gamma_hat=est.gamma_hat * (rx_row * tx_row)[None, :],
    )


def align_permutation(est_cols: np.ndarray, true_cols: np.ndarray) -> tuple[int, ...]:
    """Best column permutation of ``est_cols`` against ``true_cols``.

    Exhaustively maximizes the sum of normalized column correlations
    ``|est_i^H true_j| / (|est_i| |true_j|)``; feasible because the column
    count is capped at 8.  Returns ``perm`` such that ``est_cols[:, perm]``
    lines up with ``true_cols``.
    """
    est = np.asarray(est_cols)
    true = np.asarray(true_cols)
    if est.ndim != 2 or true.ndim != 2 or est.shape[1] != true.shape[1]:
        raise ValueError("column counts must match")
    k = true.shape[1]
    if k > 8:
        raise ValueError(f"exhaustive alignment capped at 8 columns, got {k}")
    est_norm = np.linalg.norm(est, axis=0)
    true_norm = np.linalg.norm(true, axis=0)
    denom = np.outer(est_norm, true_norm)
    denom[denom == 0.0] = 1.0
    corr = np.abs(est.conj().T @ true) / denom
    best_perm = None
    best_score = -np.inf
    for perm in permutations(range(k)):
        score = sum(corr[perm[j], j] for j in range(k))
        if score > best_score:
            best_score = score
            best_perm = perm
    assert best_perm is not None
    return best_perm


def _column_correlation(angle_deg: float, col: np.ndarray) -> float:
    a = steering_vector(angle_deg, col.size)
    return abs(np.vdot(a, col)) / (np.linalg.norm(a) * np.linalg.norm(col))


def extract_angles(a_hat: np.ndarray, grid_step: float = 0.1) -> np.ndarray:
    """Per-column angle estimates from a steering-matrix estimate.

    Scans a uniform grid over [-89.9, 89.9] degrees for the angle whose
    steering vector best correlates with each column (scale and phase
    invariant), then refines inside the winning grid cell with a
    golden-section search.  Returns the angles sorted ascending.
    """
    a = np.asarray(a_hat)
    if a.ndim != 2:
        raise ValueError("expected a steering-matrix estimate")
    m = a.shape[0]
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    npts = max(2, int(round(179.8 / grid_step)) + 1)
    grid = np.linspace(-89.9, 89.9, npts)
    manifold = np.exp(1j * np.pi * np.outer(np.arange(m), np.sin(np.deg2rad(grid))))
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    corr = np.abs(manifold.conj().T @ a) / (np.sqrt(m) * norms[None, :])

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    angles = []
    for j in range(a.shape[1]):
        center = grid[int(np.argmax(corr[:, j]))]
        lo = max(center - grid_step, -89.999)
        hi = min(center + grid_step, 89.999)
        col = a[:, j]
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1 = _column_correlation(x1, col)
        f2 = _column_correlation(x2, col)
        for _ in range(60):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = _column_correlation(x2, col)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = _column_correlation(x1, col)
            if hi - lo < 1e-9:
                break
        angles.append(0.5 * (lo + hi))
    return np.sort(np.asarray(angles))
