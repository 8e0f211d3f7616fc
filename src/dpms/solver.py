"""Constrained least squares over sufficient statistics.

For a candidate model M the score is the squared-error loss
``min ||y - X beta||^2`` over ``{beta : beta_j = 0 for j not in M,
||beta||_1 <= radius}``.  The minimizer is found by projected gradient
descent on the quadratic ``yty - 2 b.beta + beta.A.beta`` (A = X'X,
b = X'y), with exact sort-based projection onto the l1 ball.  The step is
1/L with L the largest eigenvalue of the restricted A, computed exactly by
one batched symmetric eigensolve per model size.

Every restricted problem is embedded in the full coordinate space with the
excluded rows/columns zeroed: a zero start then keeps excluded coordinates
exactly zero through every gradient and projection step, so whole families
of masks are solved as one stacked batch with identical semantics to
one-at-a-time solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SufficientStats, member_matrix
from .enumeration import CandidateSet
from .errors import ConfigError, DataError, SolverError

__all__ = [
    "SolverConfig",
    "FitResult",
    "Fits",
    "project_l1",
    "fit_masks",
    "profile_neg2_loglik",
]

@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping rule for the projected gradient loop.

    The loop stops when the relative objective decrease falls below
    ``tolerance`` or after ``max_iterations`` steps.  Every step is 1/L,
    L the exact largest eigenvalue of the restricted X'X.
    """

    max_iterations: int = 10_000
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ConfigError(f"tolerance must be finite and >= 0, got {self.tolerance}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one constrained fit.

    beta is a full-length vector with exact zeros outside the mask and
    ``||beta||_1`` within round-off of the radius at most; neg2_loglik is
    the squared-error loss at beta (>= 0).
    """

    beta: np.ndarray
    neg2_loglik: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class Fits:
    """Every fit of one stacked solve, in family order.

    Row ``j`` of each read-only array belongs to candidate ``j``:
    ``beta`` (m, d), ``neg2_loglik``, ``iterations`` and ``converged``
    (m,).  Indexing and iteration build ``FitResult`` objects on demand.
    """

    beta: np.ndarray
    neg2_loglik: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    def __len__(self) -> int:
        return self.neg2_loglik.size

    def __getitem__(self, j) -> FitResult:
        return FitResult(
            self.beta[j], self.neg2_loglik[j].item(), self.iterations[j].item(),
            self.converged[j].item(),
        )

    def __iter__(self):
        return map(
            FitResult, self.beta, self.neg2_loglik.tolist(), self.iterations.tolist(),
            self.converged.tolist(),
        )


def project_l1(v, radius: float) -> np.ndarray:
    """Euclidean projection of a vector onto ``{u : ||u||_1 <= radius}``.

    Feasible input is returned unchanged (no drift on repeated calls);
    infeasible input is soft-thresholded at the exact level found by the
    sort-and-scan rule, so the output lands on the ball's surface.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DataError(f"project_l1 expects a vector, got shape {v.shape}")
    if not (math.isfinite(radius) and radius > 0):
        raise DataError(f"radius must be positive and finite, got {radius}")
    out = _project_rows(v[None, :].copy(), radius)
    return out[0]


def _project_rows(v: np.ndarray, radius: float) -> np.ndarray:
    """Row-wise l1-ball projection; rows already inside are untouched."""
    absv = np.abs(v)
    over = absv.sum(axis=1) > radius
    if not over.any():
        return v
    u = np.sort(absv[over], axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - radius
    ranks = np.arange(1, v.shape[1] + 1, dtype=np.float64)
    # Largest prefix where the sorted entry still exceeds the running
    # threshold; radius > 0 guarantees at least the first position.
    rho = np.sum(u * ranks > css, axis=1)
    theta = css[np.arange(len(rho)), rho - 1] / rho
    v[over] = np.sign(v[over]) * np.maximum(absv[over] - theta[:, None], 0.0)
    return v


def _masked_top_eigenvalue(a: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each restriction ``a[S, S]``, S a row of ``member``.

    Exact: masks are grouped by size k and each group's compact k x k
    restricted matrices go through one batched symmetric eigensolve.  The
    empty mask keeps 0.
    """
    sizes = member.sum(axis=1)
    lam = np.zeros(member.shape[0])
    for k in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == k)
        idx = np.nonzero(member[rows])[1].reshape(len(rows), int(k))
        sub = a[idx[:, :, None], idx[:, None, :]]
        lam[rows] = np.linalg.eigvalsh(sub)[:, -1]
    return np.maximum(lam, 0.0)


def _fit_batch(
    stats: SufficientStats,
    member: np.ndarray,
    radius: float,
    config: SolverConfig,
):
    """Solve every masked problem in ``member`` (m, d) jointly.

    Returns (beta (m, d), objective (m,), iterations (m,), converged (m,)).
    """
    a = stats.xtx
    yty = stats.yty
    m, d = member.shape
    bvec = member * stats.xty

    lam = _masked_top_eigenvalue(a, member)
    diag_scale = max(1.0, float(np.max(np.abs(np.diag(a)))))
    flat = lam <= 1e-14 * diag_scale
    # A numerically zero restricted matrix means the masked columns carry
    # no signal (PSD forces the matching X'y entries toward zero as well):
    # the zero fit is the answer and needs no iterations.
    step = np.where(flat, 0.0, 1.0 / np.where(flat, 1.0, lam))

    beta = np.zeros((m, d))
    obj = np.full(m, yty)
    iterations = np.zeros(m, dtype=np.int64)
    converged = flat.copy()

    for it in range(1, config.max_iterations + 1):
        grad = (beta @ a) * member - bvec
        cand = _project_rows(beta - step[:, None] * grad, radius)
        cand_w = (cand @ a) * member
        cand_obj = yty - 2.0 * np.einsum("ij,ij->i", cand, bvec) + np.einsum(
            "ij,ij->i", cand, cand_w
        )
        slack = 1e-9 * np.maximum(1.0, np.abs(obj))
        if np.any(cand_obj > obj + slack):
            raise SolverError(
                "projected gradient objective increased; step size rule broke"
            )
        decrease = obj - cand_obj
        just_done = (~converged) & (
            decrease <= config.tolerance * np.maximum(obj, 1e-300)
        )
        iterations[just_done] = it
        converged |= just_done
        beta, obj = cand, np.maximum(cand_obj, 0.0)
        if converged.all():
            break

    iterations[~converged] = config.max_iterations
    return beta, obj, iterations, converged


def fit_masks(
    stats: SufficientStats,
    models: CandidateSet,
    radius: float,
    config: SolverConfig | None = None,
) -> Fits:
    """Fit every model of the family against the same statistics in one
    stacked solve.  Output order matches family order."""
    if models.d != stats.d:
        raise DataError(f"candidate set is for d={models.d}, stats have d={stats.d}")
    if not (math.isfinite(radius) and radius > 0):
        raise DataError(f"radius must be positive and finite, got {radius}")
    config = config or SolverConfig()
    member = member_matrix(models.bits, stats.d)
    arrays = _fit_batch(stats, member, radius, config)
    for a in arrays:
        a.setflags(write=False)
    return Fits(*arrays)


def profile_neg2_loglik(losses, n_obs: int) -> np.ndarray:
    """Profile score ``n * log(loss / n)`` of each loss, the variance
    profiled out.  ``loss / n`` is floored at 1e-12, so a zero
    (interpolating) or tiny loss scores ``n * log(1e-12)``."""
    if n_obs < 1:
        raise DataError(f"n_obs must be >= 1, got {n_obs}")
    ratio = np.maximum(np.asarray(losses, dtype=np.float64) / n_obs, 1e-12)
    # math.log per element: numpy's log can differ from it in the last digit.
    return np.array([math.log(r) for r in ratio.tolist()]) * n_obs
