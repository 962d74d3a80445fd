"""Least-squares receiver for the bistatic sensing link.

The sensing tensor has frontal slices
``Y[:, :, n] = A_rx @ diag(gamma[n]) @ A_tx.T @ diag(code[n]) @ pilots.T``
with known ``code`` and ``pilots`` (the frame's transmitted block
``s_data``, which the sensing link knows).  The receiver is the paper's
least-squares fit of the receive steering matrix, the transmit steering
matrix and the reflection matrix.  The paper solves it by alternating
least squares; here it is solved by Levenberg-Marquardt (damped
Gauss-Newton over all three blocks at once, the most robust fitter of
small, ill-conditioned PARAFAC problems in Tomasi & Bro, 2006), which
reaches the same objective in a fraction of the iterations.  The
alternating fit is kept in the tests as the reference the fit is judged
against.

Before iterating, :func:`als_fit` compresses the pilot mode (Bro & Andersson,
1998): for ``Z_n = Y_n conj(U)``, ``U`` the left singular vectors of the
pilots ``S``, ``||Y_n - M S^T||^2 = ||Z_n - M (U^H S)^T||^2 + ||Y_n - Z_n U^T||^2``
for every ``M``, and the last term is constant.  So the objective on ``Z``
with pilots ``U^H S`` differs from the full one by a constant, which is
added back to the error, and its gradient and Gauss-Newton matrix are the
full ones: every step is the same.  This holds for every shape, so every
fit is compressed, and the identifiability gate is checked once, on the
caller's dimensions.

Each iteration solves the damped normal equations
``(J^H J + mu I) delta = J^H r`` for the residual ``r`` of the compressed
slices ``Z_n ~ (A_rx diag(gamma[n])) (X_n A_tx)^T``, ``X_n = (U^H S)
diag(code[n])``, and ``J`` the Jacobian of the model in the entries of the
three blocks.  The model is holomorphic in them, so the complex normal
equations give the Gauss-Newton step.  A step is kept only when it
strictly lowers the error, so the error trace decreases strictly; ``mu``
follows Nielsen's rule (Madsen, Nielsen & Tingleff, 2004): it starts at
``DAMPING_START`` times the largest diagonal entry of ``J^H J``, shrinks
after a step that the quadratic model predicted well and doubles, then
quadruples, ... after each rejected one; it never falls below
``DAMPING_FLOOR`` times that entry.  Once the damped step falls to the
rounding of the parameters (``||delta|| <= eps ||theta||``), it cannot
change them, so the iteration records the unchanged error and the stopping
rule below ends the fit; this is how exact fits end at the numerical floor.
The two column scalings below leave ``J^H J`` singular; the damping keeps
the system solvable, and ``J^H r`` has no component along them.

``J`` is mostly zero: entry ``M_n[i, q]`` depends on ``a_rx`` only through
row ``i`` and on ``gamma`` only through row ``n``.  :func:`als_fit` allocates
it once per call as a zero buffer and every iteration overwrites only its
three blocks that can be nonzero, through writable views of the buffer,
from the products ``a_rx * gamma`` and ``x @ a_tx`` that the residual of
the current iterate already formed.

The first restart starts from a closed-form estimate (:func:`gevd_start`).
The compression's SVD ``S = U diag(s) Vh`` also inverts every slot's pilot
system ``S diag(code[n])`` when the pilots have full column rank (every code
entry has modulus ``1/sqrt(n)``): ``Z_n diag(1/s) conj(Vh) diag(1/code[n])`` is the
unmixed slice ``A_rx diag(gamma[n]) A_tx^T``.  When ``k <= min(m_r, m_t)``
and there are at least two slots, simultaneous diagonalization of the two
principal slot-mode combinations of the unmixed slices (a DTLD-style
pencil) recovers all three factors, exactly on noiseless data, and draws no
random numbers.  The iteration then refines that estimate to the
least-squares fit.  Where the closed form does not apply, and for every
further restart, the start is seeded random.

Convergence is declared when the error change between consecutive
iterations falls below ``tol`` relative to the previous error; an absolute
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
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .exceptions import AlsDivergenceError, IdentifiabilityError
from .signal_model import TransmitFrame, build_steering_matrix
from .tensor_ops import pinv

__all__ = [
    "AlsConfig",
    "SensingEstimate",
    "check_identifiability",
    "estimate_rx_steering",
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

# Levenberg-Marquardt damping of :func:`als_fit` (Nielsen's rule): each
# restart starts at DAMPING_START times the largest diagonal entry of J^H J,
# and the damping never falls below DAMPING_FLOOR times it, which keeps the
# damped matrix positive definite although J^H J is singular (the column
# scalings) and its rounding errors are a few eps times that entry.
DAMPING_START, DAMPING_FLOOR = 1e-3, 1e-9
EPS = np.finfo(float).eps

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
    reconstruction error between consecutive iterations.  ``rcond`` affects
    only the closed-form start: it is the relative singular-value cutoff
    (singular values at or below ``rcond`` times the largest count as zero)
    of the pilot-rank test in :func:`als_fit` that decides whether the start
    applies, and of the pseudoinverse in :func:`gevd_start`.
    ``n_restarts`` fits are run and the best final error kept:
    restart 0 starts from :func:`gevd_start` (or its seeded random
    fallback), every further restart from an independent random start.
    ``init_seed`` (a non-negative integer) seeds the random starts: restart
    0 where the closed form does not apply, and every further restart; the
    closed-form start draws nothing.  The damping is fixed by the module
    constant ``DAMPING_START``, not configured here.
    """

    max_iters: int = 1000
    tol: float = 1e-6
    rcond: float = 1e-12
    init_seed: int = 0
    n_restarts: int = 1

    def __post_init__(self) -> None:
        for name in ("max_iters", "n_restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if isinstance(self.init_seed, bool) or not isinstance(self.init_seed, numbers.Integral) or self.init_seed < 0:
            raise ValueError(f"init_seed must be a non-negative integer, got {self.init_seed!r}")
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


def estimate_rx_steering(y1: np.ndarray, right_factor: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Least-squares receive steering matrix ``y1 @ pinv(right_factor)`` for a
    flat unfolding ``y1 ~ a_rx @ right_factor``: the receive step of the
    alternating fit.  No ``src/`` caller: it stays only for ``bench/run.py``'s tracer and
    ``bench/test_bench.py``'s hook test, and goes with ROADMAP items 1a and 8."""
    y1 = np.asarray(y1)
    right_factor = np.asarray(right_factor)
    if y1.ndim != 2 or right_factor.ndim != 2 or y1.shape[1] != right_factor.shape[1]:
        raise ValueError(
            f"incompatible shapes {y1.shape} and {right_factor.shape} for the flat system"
        )
    return y1 @ pinv(right_factor, rcond)


def _random_factors(rng: np.random.Generator, m_r: int, m_t: int, n: int, k: int):
    def cn(rows, cols):
        return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)

    return cn(m_r, k), cn(m_t, k), cn(n, k)


def gevd_start(slices: np.ndarray, num_targets: int, rcond: float = 1e-12):
    """Closed-form start ``(a_rx, a_tx, gamma)`` by simultaneous diagonalization.

    ``slices`` is the ``(n, m_r, m_t)`` stack of unmixed slices
    ``M_n = A_rx diag(gamma[n]) A_tx^T``, the sensing slices with the pilot
    system of each slot inverted (:func:`als_fit` forms them).  Projected
    onto the leading ``k`` left singular vectors ``U_1``, ``U_2`` of the
    mode-1 and mode-2 unfoldings of ``M``, the slices become
    ``B diag(gamma[n]) C^T`` with ``B = U_1^H A_rx``.  The two principal
    slot-mode combinations of them, ``G_b`` then ``G_a`` (the leading left
    singular vectors of the ``n x k^2`` slot unfolding; ``G_a`` is zero for
    ``k = 1``), complete the Tucker compression in the slot mode and drop
    its noise-only directions; the eigenvectors of ``G_a G_b^{-1}`` are the
    columns of ``B`` (Leurgans, Ross & Abel, 1993; the DTLD pencil of
    Sanchez & Kowalski, 1990).  Row ``j`` of ``pinv(A_rx) M_n`` is
    ``gamma[n, j] A_tx[:, j]^T``, a rank-one matrix over the slots that its
    leading singular triple splits.  Exact on noiseless data; it draws no
    random numbers.

    Raises ``ValueError`` outside the model, ``k > min(m_r, m_t)`` or fewer
    than two slots; :func:`als_fit` starts at random there.  ``rcond`` is
    the cutoff of the pseudoinverse of the recovered ``A_rx``, whose
    eigenvector basis can be singular on degenerate slices.
    """
    n_slots, m_r, m_t = slices.shape
    k = num_targets
    if k > min(m_r, m_t) or n_slots < 2:
        raise ValueError(f"gevd_start needs k <= min(m_r, m_t) and two slots, got k={k}, {m_r}x{m_t}, {n_slots} slots")
    u1 = np.linalg.svd(slices.transpose(1, 2, 0).reshape(m_r, m_t * n_slots), full_matrices=False)[0][:, :k]
    u2 = np.linalg.svd(slices.transpose(2, 1, 0).reshape(m_t, m_r * n_slots), full_matrices=False)[0][:, :k]
    core = (u1.conj().T @ slices @ u2.conj()).reshape(n_slots, k * k)
    # full_matrices: a second combination exists also for k = 1.
    weights = np.linalg.svd(core, full_matrices=True)[0][:, :2].conj().T
    g_b, g_a = (weights @ core).reshape(2, k, k)
    a_rx = u1 @ np.linalg.eig(np.linalg.solve(g_b.T, g_a.T).T)[1]
    left, sigma, right_h = np.linalg.svd((pinv(a_rx, rcond) @ slices).transpose(1, 2, 0), full_matrices=False)
    return a_rx, left[:, :, 0].T, (sigma[:, :1] * right_h[:, 0, :]).T


def _jacobian_blocks(jac: np.ndarray, n_slots: int, m_r: int, m_t: int, k: int):
    """Writable views ``(d_rx, d_tx, d_gamma)`` of the blocks of a Jacobian
    buffer ``jac`` that can be nonzero.  ``jac`` is the Jacobian of the slices
    ``M_n = (a_rx diag(gamma[n])) g[n]^T``, ``g[n] = x[n] @ a_tx``: row
    ``(n, i, q)`` (C order) is entry ``M_n[i, q]``, and the columns are the
    C-order entries of ``a_rx``, ``a_tx`` and ``gamma``.

    Each view has shape ``(n, m_r, r, k)`` except ``d_tx``, ``(n, m_r, r, m_t, k)``:
    entry ``M_n[i, q]`` depends on ``a_rx[i', j]`` only for ``i' = i`` and on
    ``gamma[n', j]`` only for ``n' = n``, so those two blocks are diagonals.
    """
    r = jac.shape[0] // (n_slots * m_r)
    rx_end, tx_end = m_r * k, (m_r + m_t) * k
    d_rx = np.einsum("nirik->nirk", jac[:, :rx_end].reshape(n_slots, m_r, r, m_r, k))
    d_tx = jac[:, rx_end:tx_end].reshape(n_slots, m_r, r, m_t, k)
    d_gamma = np.einsum("nirnk->nirk", jac[:, tx_end:].reshape(n_slots, m_r, r, n_slots, k))
    return d_rx, d_tx, d_gamma


def _fill_jacobian(blocks, a_rx: np.ndarray, gamma: np.ndarray, x: np.ndarray, a_gamma: np.ndarray, g: np.ndarray):
    """Overwrite the :func:`_jacobian_blocks` views with the derivatives at
    ``(a_rx, gamma)`` and ``g = x @ a_tx``, ``a_gamma = a_rx * gamma[:, None, :]``;
    every other entry of the buffer stays zero."""
    d_rx, d_tx, d_gamma = blocks
    np.multiply(gamma[:, None, None, :], g[:, None], out=d_rx)
    np.multiply(a_gamma[:, :, None, None, :], x[:, None, :, :, None], out=d_tx)
    np.multiply(a_rx[:, None, :], g[:, None], out=d_gamma)


def als_fit(
    tensor: np.ndarray,
    frame: TransmitFrame,
    num_targets: int,
    cfg: AlsConfig = AlsConfig(),
) -> SensingEstimate:
    """Fit the three sensing factors by least squares (Levenberg-Marquardt).

    Runs ``cfg.n_restarts`` restarts, the first from the closed-form
    :func:`gevd_start` where it applies (module docstring), the others from
    seeded random factors, and returns the restart with the smallest final
    normalized squared reconstruction error, so more restarts never raise it.  Within a restart, each iteration
    takes one damped Gauss-Newton step over all three blocks, retrying with
    more damping until the step strictly lowers the error (module docstring),
    and records the error.  The iteration stops once
    ``|e_i - e_{i-1}| < tol * e_{i-1} + FLOOR_DELTA`` or after
    ``cfg.max_iters`` iterations (reported as ``converged=False``).

    Raises
    ------
    IdentifiabilityError
        If the tensor dimensions do not satisfy the recovery inequalities.
    ValueError
        If the tensor is all zero or its energy is not finite.
    AlsDivergenceError
        If the reconstruction error of a start is not finite.
    """
    t = np.asarray(tensor, dtype=complex)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    m_r, p, n_slots = t.shape
    code = frame.c
    pilots = frame.s_data
    m_t = code.shape[1]
    k = num_targets
    if code.shape[0] != n_slots:
        raise ValueError("frame and tensor disagree on the number of slots")
    if pilots.shape[0] != p:
        raise ValueError("frame and tensor disagree on the symbols per slot")
    check_identifiability(m_r, m_t, p, n_slots, k)

    y_energy = np.vdot(t, t).real
    if not math.isfinite(y_energy):
        raise ValueError(f"cannot fit a tensor whose energy is {y_energy}: non-finite or overflowing entries")
    if y_energy == 0.0:
        raise ValueError("cannot fit an all-zero tensor")
    # Pilot-mode compression (module docstring); outside = ||Y - Z U^T||^2 for all factors.
    u, s, vh = np.linalg.svd(pilots, full_matrices=False)
    slots = t.transpose(2, 0, 1)  # slots[n] = Y_n
    z = slots @ u.conj()
    resid = slots - z @ u.T
    outside = np.vdot(resid, resid).real
    # x[n] = X_n = (U^H S) diag(code[n]), the compressed pilot system of slot n.
    x = (u.conj().T @ pilots) * code[:, None, :]
    # Inside the model (module docstring), pilots of full column rank make
    # every X_n invertible, so the closed-form start applies.
    closed_form = k <= min(m_r, m_t) and n_slots >= 2 and len(s) == m_t and s[-1] > cfg.rcond * s[0]
    rx_end, tx_end = m_r * k, (m_r + m_t) * k
    damping = np.eye((m_r + m_t + n_slots) * k)
    jac = np.zeros((n_slots * m_r * x.shape[1], damping.shape[0]), dtype=complex)
    # J^H is written into the transpose of a buffer shaped like J: the layout
    # jac.conj().T has, so J^H J and J^H r run the same BLAS calls.
    jac_h = np.empty_like(jac).T
    blocks = _jacobian_blocks(jac, n_slots, m_r, m_t, k)

    def unpack(theta):
        return theta[:rx_end].reshape(m_r, k), theta[rx_end:tx_end].reshape(m_t, k), theta[tx_end:].reshape(n_slots, k)

    def residual(theta):
        """Residual slices ``Z_n - M_n``, the products ``(a_rx * gamma, x @ a_tx)``
        that build them and the Jacobian, and the normalized error."""
        a_rx, a_tx, gamma = unpack(theta)
        a_gamma, g = a_rx * gamma[:, None, :], x @ a_tx
        r = z - a_gamma @ g.transpose(0, 2, 1)
        return r, (a_gamma, g), (np.vdot(r, r).real + outside) / y_energy

    best: SensingEstimate | None = None
    for restart in range(cfg.n_restarts):
        if restart == 0 and closed_form:
            # Z_n diag(1/s) conj(Vh) diag(1/code[n]) = A_rx diag(gamma[n]) A_tx^T
            start = gevd_start(z @ (vh.conj() / s[:, None]) / code[:, None, :], k, cfg.rcond)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([int(cfg.init_seed), restart]))
            start = _random_factors(rng, m_r, m_t, n_slots, k)
        theta = np.concatenate([f.ravel() for f in start])
        r, products, err = residual(theta)
        if not math.isfinite(err):
            raise AlsDivergenceError(f"non-finite reconstruction error at the start of restart {restart}")
        trace: list[float] = []
        converged = False
        prev_err = math.inf
        mu, nu = None, 2.0
        for _ in range(cfg.max_iters):
            a_rx, _, gamma = unpack(theta)
            _fill_jacobian(blocks, a_rx, gamma, x, *products)
            np.conjugate(jac.T, out=jac_h)
            normal = jac_h @ jac
            grad = jac_h @ r.reshape(-1)
            scale = normal.diagonal().real.max()
            mu = DAMPING_START * scale if mu is None else max(mu, DAMPING_FLOOR * scale)
            # Damp until the step lowers the error or can no longer change theta.
            while True:
                step = np.linalg.solve(normal + mu * damping, grad)
                step_sq = np.vdot(step, step).real
                if step_sq <= EPS**2 * np.vdot(theta, theta).real:
                    break
                trial = theta + step
                r_new, products_new, err_new = residual(trial)
                if err_new < err:
                    # Gain ratio: actual over predicted decrease of ||r||^2.
                    rho = (err - err_new) * y_energy / (np.vdot(step, grad).real + mu * step_sq)
                    mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
                    nu = 2.0
                    theta, r, products, err = trial, r_new, products_new, err_new
                    break
                mu *= nu
                nu *= 2.0
            trace.append(err)
            if abs(err - prev_err) < cfg.tol * prev_err + FLOOR_DELTA:
                converged = True
                break
            prev_err = err
        if best is None or trace[-1] < best.nmse_trace[-1]:
            best = SensingEstimate(*unpack(theta), trace, converged)
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
    return SensingEstimate(
        est.a_rx_hat / rx_row[None, :],
        est.a_tx_hat / tx_row[None, :],
        est.gamma_hat * (rx_row * tx_row)[None, :],
        est.nmse_trace,
        est.converged,
    )


@lru_cache(maxsize=ALIGN_MAX_COLUMNS)
def _permutation_table(k: int) -> np.ndarray:
    """All ``k!`` column orders of :func:`align_permutation`, one per column
    in ``itertools.permutations`` order, shape ``(k, k!)``; shared, read-only."""
    table = np.array(list(permutations(range(k))), dtype=np.intp).T
    table.flags.writeable = False
    return table


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
    table = _permutation_table(k)
    # Summed over the leading axis, each order's score adds its columns left
    # to right; argmax keeps the first of equal scores.
    scores = corr[table, np.arange(k)[:, None]].sum(axis=0)
    return tuple(table[:, np.argmax(scores)].tolist())


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
