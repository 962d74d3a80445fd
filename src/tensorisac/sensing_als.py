"""Alternating-least-squares receiver for the bistatic sensing link.

The sensing tensor has frontal slices
``Y[:, :, n] = A_rx @ diag(gamma[n]) @ A_tx.T @ diag(code[n]) @ pilots.T``
with known ``code`` and ``pilots`` (the frame's transmitted block
``s_data``, which the sensing link knows).  The receiver alternates exact
least-squares updates of the receive steering matrix, the transmit steering
matrix and the reflection matrix, always using the freshest estimates of
the other two blocks, until the normalized squared reconstruction error
stops changing.  Every update is one SVD-based least-squares solve over all
slots, on operands (the pilot systems ``X_n = pilots @ diag(code[n])`` and the
unfoldings of the tensor) built once per fit: ``numpy.linalg.lstsq`` (LAPACK
gelsd) for the transmit steering matrix, and :func:`~tensorisac.tensor_ops.pinv`
for the receive steering matrix and for the per-slot reflection systems as
one stack, which ``lstsq`` does not take.  Both solvers treat singular values
at or below ``rcond`` times the largest as zero and return the minimum-norm
solution, so they agree to rounding.

Before iterating, :func:`als_fit` compresses the pilot mode (Bro & Andersson,
1998): for ``Z_n = Y_n conj(U)``, ``U`` the left singular vectors of the
pilots ``S``, ``||Y_n - M S^T||^2 = ||Z_n - M (U^H S)^T||^2 + ||Y_n - Z_n U^T||^2``
for every ``M``, and the last term is constant.  So every update (min-norm
solution and ``rcond`` cutoff included, as the systems keep their nonzero
singular values) is the same on ``Z`` with pilots ``U^H S``; the constant is
added back to the error.  This holds for every shape, also where a compressed
system has fewer rows than unknowns, so every fit is compressed, and the
identifiability gate is checked once, on the caller's dimensions.

The first restart starts from a closed-form estimate (:func:`gevd_start`):
once the pilots are inverted slot by slot, every slice is
``A_rx diag(gamma[n]) A_tx^T``, and when ``k <= min(m_r, m_t)`` simultaneous
diagonalization of two random slice combinations recovers all three factors,
exactly on noiseless data.  ALS then refines that estimate to the
least-squares fit.  Where the closed form does not apply, and for every
further restart, the start is seeded random.

Plain alternating updates crawl through long plateaus when steering columns
are strongly correlated (closely spaced angles on a small array), so from the
third sweep on the iterate is extrapolated along the last sweep by the factor
``it ** (1 / power)``, kept only when it strictly lowers the error, so the
error trace stays non-increasing.  ``power`` adapts within a restart:
accepted steps lower it, so steps lengthen while they pay off on a plateau,
and a run of rejections raises it again.  On the default sweep this takes a
third fewer iterations than a fixed ``it ** (1/3)``, and the final errors of
the two agree within 0.1 % on 999 fits in 1 000.

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

:func:`extract_angles` scans a ``GRID_STEP`` grid for the steering vector
best correlated with a column, then takes safeguarded Newton steps on the
slope of the squared correlation in ``u = pi * sin(angle)`` inside the
winning grid cell, about three per column.  They end at the stationary
point, so on two-element columns the result is the closed-form maximizer
``asin(arg(c_1 / c_0) / pi)`` to about 1e-10 degrees; a search that compares
correlation values instead stops up to a few 1e-6 degrees away, where
rounding makes the values near a flat peak equal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations

import numpy as np

from .exceptions import AlsDivergenceError, IdentifiabilityError
from .signal_model import TransmitFrame, build_steering_matrix
from .tensor_ops import best_rank_one, pinv, unfold1_flat, unfold3_tall

__all__ = [
    "AlsConfig",
    "SensingEstimate",
    "check_identifiability",
    "build_right_factor",
    "estimate_rx_steering",
    "estimate_tx_steering",
    "estimate_reflections",
    "gevd_start",
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

# Extrapolation schedule of :func:`als_fit`, step ``it ** (1 / power)``: each
# restart starts at START_POWER; an accepted step lowers ``power`` by
# POWER_DOWN, not below MIN_POWER (lower stops some fits early on a plateau),
# and REJECTIONS rejected steps in a row raise it by POWER_UP.
START_POWER, MIN_POWER, POWER_DOWN, POWER_UP, REJECTIONS = 3.0, 1.5, 0.5, 1.0, 4

# extract_angles: grid spacing and largest returned magnitude in degrees, the
# angle change in radians that ends the Newton refinement (about three steps;
# a bisection down to it about forty), and a cap on the steps.
GRID_STEP = 0.1
ANGLE_CLIP = 89.999
ANGLE_TOL = 1e-12
MAX_REFINE_STEPS = 100

# align_permutation tries all k! column orders, so it takes at most this many
# columns; ExperimentConfig.validate caps k with it.
ALIGN_MAX_COLUMNS = 8


@dataclass
class AlsConfig:
    """Knobs for :func:`als_fit`.

    ``tol`` bounds the relative change of the normalized squared
    reconstruction error between consecutive iterations; ``rcond`` is the
    relative singular-value cutoff of every SVD-based least-squares solve
    (singular values at or below ``rcond`` times the largest count as zero).
    ``rcond = 0`` keeps every nonzero singular value, so on an exactly
    singular system it inverts a rounding-noise singular value and gives a
    noise-dominated solution.  ``n_restarts``
    fits are run and the best final error kept: restart 0 starts from
    :func:`gevd_start` (or its seeded random fallback), every further
    restart from an independent random start.  ``init_seed`` seeds the
    random numbers of every restart: the slice weights of the closed-form
    start and the random starts.  The extrapolation schedule is fixed by
    module constants (``START_POWER`` ...), not configured here.
    """

    max_iters: int = 1000
    tol: float = 1e-6
    rcond: float = 1e-12
    init_seed: int = 0
    n_restarts: int = 1

    def __post_init__(self) -> None:
        for name in ("max_iters", "n_restarts"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        # Written so that NaN fails both comparisons.
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if not 0.0 <= self.rcond < math.inf:
            raise ValueError(f"rcond must be nonnegative and finite, got {self.rcond!r}")


@dataclass
class SensingEstimate:
    """Factor estimates plus the per-iteration error trace of the winning restart."""

    a_rx_hat: np.ndarray
    a_tx_hat: np.ndarray
    gamma_hat: np.ndarray
    nmse_trace: list[float]
    converged: bool

    @property
    def iters(self) -> int:
        """Iterations run by the winning restart: one error per iteration."""
        return len(self.nmse_trace)


def check_identifiability(m_r: int, m_t: int, p: int, n: int, k: int) -> None:
    """Dimension gate for unique least-squares recovery of all three factors.

    Counted on the uncompressed tensor, the receive-steering system needs
    ``n*p >= k`` rows, the stacked transmit-steering system ``n*p*m_r >= m_t*k``
    and each per-slot reflection system ``p*m_r >= k``.  Raises
    :class:`IdentifiabilityError` naming every failed inequality, joined by
    ``"; "``.  :func:`als_fit` checks them once; the step functions solve
    whatever system they get.
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
    if violations:
        raise IdentifiabilityError("; ".join(violations))


def build_right_factor(gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Right factor of the flat 1-mode unfolding.

    ``g[n] = X_n @ a_tx`` with ``X_n = pilots @ diag(code[n])``.  Block ``n``
    is ``diag(gamma[n]) @ g[n].T``, so the flat unfolding of the sensing
    tensor equals ``a_rx @ build_right_factor(gamma, g)``.
    """
    blocks = g * gamma[:, None, :]
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
    y_vec: np.ndarray,
    x: np.ndarray,
    a_rx: np.ndarray,
    gamma: np.ndarray,
    rcond: float = 1e-12,
) -> np.ndarray:
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


def estimate_reflections(y_vec: np.ndarray, a_rx: np.ndarray, g: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Least-squares update of the reflection matrix, one slot row at a time.

    Slice ``n`` satisfies ``vec(Y_n) = khatri_rao(g[n], a_rx) @ gamma[n]``
    with ``g[n] = X_n @ a_tx`` and ``y_vec[n] = vec(Y_n)``; all slots are one
    stacked ``pinv`` solve, minimum-norm with the ``rcond`` cutoff.
    """
    n_slots, p, k = g.shape
    m_r = a_rx.shape[0]
    basis = (g[:, :, None, :] * a_rx).reshape(n_slots, p * m_r, k)
    return (pinv(basis, rcond) @ y_vec[:, :, None])[:, :, 0]


def _random_factors(rng: np.random.Generator, m_r: int, m_t: int, n: int, k: int):
    def cn(rows, cols):
        return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)

    return cn(m_r, k), cn(m_t, k), cn(n, k)


def gevd_start(
    tensor: np.ndarray,
    x: np.ndarray,
    num_targets: int,
    rng: np.random.Generator,
    rcond: float = 1e-12,
):
    """Closed-form start ``(a_rx, a_tx, gamma)`` by simultaneous diagonalization.

    With ``x[n] = X_n = pilots @ diag(code[n])`` of full column rank, each slot gives
    ``M_n = Y_n @ pinv(X_n).T = A_rx diag(gamma[n]) A_tx^T``.  Projected onto
    the leading ``k`` left singular vectors ``U_1``, ``U_2`` of the mode-1 and
    mode-2 unfoldings of ``M``, the slices become ``B diag(gamma[n]) C^T`` with
    ``B = U_1^H A_rx``, so for two random combinations ``G_a``, ``G_b`` of them
    the eigenvectors of ``G_a G_b^{-1}`` are the columns of ``B`` (Leurgans,
    Ross & Abel, 1993; the GEVD start of De Lathauwer, 2006).  Row ``j`` of
    ``pinv(A_rx) M_n`` is ``gamma[n, j] A_tx[:, j]^T``, a rank-one matrix over
    the slots that :func:`best_rank_one` splits.  Exact on noiseless data.

    Falls back to the seeded random start when the model does not allow it:
    ``k > min(m_r, m_t)``, fewer than two slots, or a slot whose pilot system
    ``X_n`` has rank below ``m_t`` (fewer pilots than transmit antennas,
    parallel pilot columns, a zero code entry).  The fallback draws the same
    numbers from ``rng`` as the random start would.
    """
    tensor = np.asarray(tensor)
    m_r = tensor.shape[0]
    n_slots, p, m_t = x.shape
    k = num_targets
    if k > min(m_r, m_t) or n_slots < 2 or p < m_t:
        return _random_factors(rng, m_r, m_t, n_slots, k)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    if np.any(s[:, -1] <= rcond * s[:, 0]):
        return _random_factors(rng, m_r, m_t, n_slots, k)
    # slices[n] = Y_n conj(U_n) diag(1/s_n) conj(Vh_n), i.e. Y_n @ pinv(X_n).T
    slices = tensor.transpose(2, 0, 1) @ (u.conj() @ (vh.conj() / s[:, :, None]))
    u1 = np.linalg.svd(slices.transpose(1, 2, 0).reshape(m_r, m_t * n_slots), full_matrices=False)[0][:, :k]
    u2 = np.linalg.svd(slices.transpose(2, 1, 0).reshape(m_t, m_r * n_slots), full_matrices=False)[0][:, :k]
    core = u1.conj().T @ slices @ u2.conj()
    weights = rng.standard_normal((2, n_slots)) + 1j * rng.standard_normal((2, n_slots))
    g_a, g_b = (weights @ core.reshape(n_slots, k * k)).reshape(2, k, k)
    a_rx = u1 @ np.linalg.eig(np.linalg.solve(g_b.T, g_a.T).T)[1]
    left, right, sigma = best_rank_one((pinv(a_rx, rcond) @ slices).transpose(1, 2, 0))
    return a_rx, left.T, (sigma[:, None] * right.conj()).T


def als_fit(
    tensor: np.ndarray,
    frame: TransmitFrame,
    num_targets: int,
    cfg: AlsConfig = AlsConfig(),
) -> SensingEstimate:
    """Fit the three sensing factors by alternating least squares.

    Runs ``cfg.n_restarts`` restarts, the first from the closed-form
    :func:`gevd_start`, the others from seeded random factors, and returns
    the restart with the smallest final normalized squared reconstruction
    error, so more restarts never raise it.  Within a restart, each iteration solves the three exact LS
    subproblems in turn, then tries an extrapolated step along the sweep
    direction (kept only if it lowers the error).  The iteration stops once
    ``|e_i - e_{i-1}| < tol * e_{i-1} + FLOOR_DELTA`` or after
    ``cfg.max_iters`` iterations (reported as ``converged=False``).

    Raises
    ------
    IdentifiabilityError
        If the tensor dimensions do not satisfy the recovery inequalities.
    ValueError
        If the tensor is all zero or its energy is not finite.
    AlsDivergenceError
        If the reconstruction error turns non-finite.
    """
    t = np.asarray(tensor, dtype=complex)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    m_r, p, n_slots = t.shape
    code = frame.c
    pilots = frame.s_data
    m_t = code.shape[1]
    if code.shape[0] != n_slots:
        raise ValueError("frame and tensor disagree on the number of slots")
    if pilots.shape[0] != p:
        raise ValueError("frame and tensor disagree on the symbols per slot")
    check_identifiability(m_r, m_t, p, n_slots, num_targets)

    y_energy = np.vdot(t, t).real
    if not math.isfinite(y_energy):
        raise ValueError(f"cannot fit a tensor whose energy is {y_energy}: non-finite or overflowing entries")
    if y_energy == 0.0:
        raise ValueError("cannot fit an all-zero tensor")
    # Pilot-mode compression (module docstring); outside = ||Y - Z U^T||^2 for all factors.
    u = np.linalg.svd(pilots, full_matrices=False)[0]
    slots = t.transpose(2, 0, 1)  # slots[n] = Y_n
    z = slots @ u.conj()
    resid = slots - z @ u.T
    t, pilots, outside = z.transpose(1, 2, 0), u.conj().T @ pilots, np.vdot(resid, resid).real
    # Loop-invariant operands: the pilot systems X_n = pilots @ diag(code[n])
    # of all slots, and the two unfoldings the sub-steps solve against.
    x = pilots * code[:, None, :]
    y1 = unfold1_flat(t)
    y_vec = unfold3_tall(t).T

    def error(a_rx, right):
        resid = y1 - a_rx @ right
        return (np.vdot(resid, resid).real + outside) / y_energy

    best: SensingEstimate | None = None
    for restart in range(cfg.n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence([int(cfg.init_seed) & (2**63 - 1), restart]))
        if restart == 0:
            a_rx, a_tx, gamma = gevd_start(t, x, num_targets, rng, cfg.rcond)
        else:
            a_rx, a_tx, gamma = _random_factors(rng, m_r, m_t, n_slots, num_targets)
        trace: list[float] = []
        converged = False
        prev_err = np.inf
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
                # Extrapolate along the sweep; the longer step is kept only
                # when it strictly lowers the error (module docstring).
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
            if not np.isfinite(err):
                raise AlsDivergenceError(f"non-finite reconstruction error at iteration {it}")
            trace.append(err)
            if abs(err - prev_err) < cfg.tol * prev_err + FLOOR_DELTA:
                converged = True
                break
            prev_err = err
        if best is None or trace[-1] < best.nmse_trace[-1]:
            best = SensingEstimate(a_rx, a_tx, gamma, trace, converged)
    assert best is not None
    return best


def remove_sensing_ambiguity(est: SensingEstimate) -> SensingEstimate:
    """Pin the column-scaling ambiguities using the known array geometry.

    The fit is invariant under two diagonal column scalings (one between
    the receive steering matrix and the reflections, one between the
    transmit steering matrix and the reflections), so the fit leaves both
    estimates with the arbitrary column scaling of its start, closed-form
    or random.  Every physical steering vector has
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
    count is capped at ``ALIGN_MAX_COLUMNS``.  Returns ``perm`` such that
    ``est_cols[:, perm]`` lines up with ``true_cols``.
    """
    est = np.asarray(est_cols)
    true = np.asarray(true_cols)
    if est.ndim != 2 or true.ndim != 2 or est.shape[1] != true.shape[1]:
        raise ValueError("column counts must match")
    k = true.shape[1]
    if k > ALIGN_MAX_COLUMNS:
        raise ValueError(f"exhaustive alignment capped at {ALIGN_MAX_COLUMNS} columns, got {k}")
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


@lru_cache(maxsize=16)
def _scan_grid(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid angles and the conjugated steering vectors on them, one per row;
    shared between calls, so both arrays are read-only."""
    grid = np.linspace(-89.9, 89.9, int(round(179.8 / GRID_STEP)) + 1)
    manifold_h = build_steering_matrix(grid, m).T.conj()
    grid.flags.writeable = False
    manifold_h.flags.writeable = False
    return grid, manifold_h


def _refine(center: float, coeffs: list[complex]) -> float:
    """Angle in degrees of the correlation peak within ``GRID_STEP`` of ``center``.

    ``S(u) = a(u)^H col`` is the polynomial ``P`` of the column (``coeffs``,
    last entry first) in ``z = exp(-j*u)``, ``u = pi * sin(angle)``, so
    ``S' = -j z P'`` and ``S'' = -z P' - z^2 P''``; one Horner pass gives
    ``P``, ``P'`` and ``P''/2``.  Newton steps on the slope of ``|S|^2 / 2``
    stay inside the bracket that the slope signs narrow; a step that leaves
    it, or one where the curvature is not negative, becomes a bisection.
    """
    lo = math.pi * math.sin(math.radians(max(center - GRID_STEP, -ANGLE_CLIP)))
    hi = math.pi * math.sin(math.radians(min(center + GRID_STEP, ANGLE_CLIP)))
    u = math.pi * math.sin(math.radians(center))
    for _ in range(MAX_REFINE_STEPS):
        z = complex(math.cos(u), -math.sin(u))
        p = d1 = d2 = 0j
        for c in coeffs:
            d2 = d2 * z + d1
            d1 = d1 * z + p
            p = p * z + c
        s1 = -1j * z * d1
        slope = (p.conjugate() * s1).real
        curvature = abs(s1) ** 2 - (p.conjugate() * z * (d1 + 2.0 * z * d2)).real
        if slope > 0.0:
            lo = u
        else:
            hi = u
        new = u - slope / curvature if curvature < 0.0 else math.inf
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        # d(angle) = du / (pi * cos(angle)) = du / sqrt(pi^2 - u^2)
        done = abs(new - u) <= ANGLE_TOL * math.sqrt(math.pi**2 - new * new)
        u = new
        if done:
            break
    return math.degrees(math.asin(u / math.pi))


def extract_angles(a_hat: np.ndarray) -> np.ndarray:
    """Per-column angle estimates from a steering-matrix estimate.

    Scans a uniform ``GRID_STEP`` grid over [-89.9, 89.9] degrees for the
    angle whose steering vector best correlates with each column (scale and
    phase invariant), then refines inside the winning grid cell, clipped to
    +-ANGLE_CLIP degrees, by safeguarded Newton steps on the slope of the
    squared correlation (:func:`_refine`) until a step moves the angle by
    at most ANGLE_TOL radians.  Returns one angle per column, in column order.
    """
    a = np.asarray(a_hat)
    if a.ndim != 2:
        raise ValueError("expected a steering-matrix estimate")
    grid, manifold_h = _scan_grid(a.shape[0])
    # The correlation's normalization by both norms is constant per column,
    # so it changes neither the grid winner nor the refinement.
    centers = grid[np.argmax(np.abs(manifold_h @ a), axis=0)].tolist()
    return np.array([_refine(center, a[::-1, j].tolist()) for j, center in enumerate(centers)])
