"""Constrained least squares over sufficient statistics, with certificates.

For a candidate model M the score is the squared-error loss
``min ||y - X beta||^2`` over ``{beta : beta_j = 0 for j not in M,
||beta||_1 <= radius}``, a quadratic ``yty - 2 b.beta + beta.A.beta``
(A = X'X, b = X'y) on the masked l1 ball.

Every fit is exact and certified by its Frank-Wolfe duality gap
``2 (g.beta + radius ||g||_inf)``, g = A beta - b on the mask, which bounds
how far the fit's loss sits above the constrained minimum:

1. Each group of masks of one size k goes through one batched
   normal-equation solve on its compact k x k restrictions.  A row whose
   solution lies in the ball with a gap of at most ``tau`` (a slack mask)
   is done.
2. The remaining rows (binding masks, and rank-deficient ones whose solve
   is singular) try one KKT candidate: the minimum on the sphere over the
   support and signs of their projected solution (zero when there is
   none), exact whenever that support is right.
3. Rows it does not settle follow the lasso path from zero out to the
   radius, one batched solve per breakpoint, which ends on the exact
   minimum; a path end that is certified as it is is done.  A join
   whose denominator is at round-off (a copy of an active column) is
   skipped, so identical columns stay on the path too.
4. What is left runs projected gradient with step 1/L, L the exact top
   eigenvalue of the restricted A, and a KKT candidate every few steps.
   A row still uncertified after ``_MAX_ITERATIONS`` steps, or whose gap
   has stopped falling, raises :class:`~dpms.errors.SolverError`; no
   uncertified loss is returned.

Step 1 is the first pass; steps 2-4 settle the rows they are given.
:func:`fit_masks` settles every row.  :func:`bound_masks` gives each mask
a certified loss interval and solves and settles masks on demand
(:class:`LossBounds`), so a selection settles only the masks its release
can depend on.  Where a first pass over the family costs more than a few
supersets, it bounds the unsolved masks from below by the supersets'
duality gaps instead, and a selection solves only the masks its release
can reach.  The supersets are settled with their bounds, or not at all.

``tau`` is ``_TOLERANCE * max(1, yty)`` plus a round-off allowance, a
small multiple of ``eps * d`` times the loss's scale ``yty + 2 R ||b||_inf
+ R^2 max A_jj``, below which no computed gap can be trusted.  With
``|x_ij| <= 1`` and ``|y_i| <= r`` both parts have public bounds;
:func:`loss_slack` adds them up, with the allowance doubled for the
round-off of the loss itself, and the selectors add it to their
sensitivities.

Every restricted problem is embedded in the full coordinate space with the
excluded rows/columns zeroed, so whole families of masks are solved as one
stacked batch with identical semantics to one-at-a-time solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SufficientStats, member_matrix
from .enumeration import CandidateSet
from .errors import DataError, SolverError

__all__ = [
    "FitResult",
    "Fits",
    "LossBounds",
    "bound_masks",
    "fit_masks",
    "loss_slack",
    "profile_neg2_loglik",
]

# A fit is accepted once its Frank-Wolfe duality gap is at most
# _TOLERANCE * max(1, yty) plus the round-off allowance, so its loss exceeds
# the constrained minimum by no more than that.  The selectors calibrate
# their noise to the same level (loss_slack), so it is fixed.
_TOLERANCE = 1e-10

# Projected-gradient steps a fit may take before SolverError.
_MAX_ITERATIONS = 10_000

# Projected-gradient steps between two KKT candidates of a binding row.
_POLISH_EVERY = 4

# Round-off allowance of a certificate, per coordinate and per unit of the
# loss's scale: the gap and the loss are sums of at most d products, each
# term bounded by that scale.
_ROUNDOFF = 64 * np.finfo(np.float64).eps

# A lasso-path join whose denominator 1 -+ (A w)_j is this close to 0 is
# round-off: the column copies an active one.
_JOIN_FLOOR = 1e-9

# A live row whose lowest gap has not fallen by 1% in this many steps has
# reached its round-off floor and cannot be certified.
_STALL_STEPS = 500

# bound_masks bounds a family by its supersets once a first pass over the
# family would solve more than this many unknowns per superset unknown,
# the first when the supersets keep their gap bounds, the second when they
# are settled with their bounds (measured with scripts/bench_routes.py).
_SUPERSET_COST = 15
_SETTLED_SUPERSET_COST = 40

# X'X is ill-conditioned above this condition number: the supersets' gap
# bounds stay loose, and they are settled with their bounds (measured in
# process on the "nearonehot" design of scripts/bench_routes.py, with its
# one-hot scale varied).
_ILL_CONDITIONED = 500.0


@dataclass(frozen=True)
class FitResult:
    """Outcome of one constrained fit.

    beta is a full-length vector with exact zeros outside the mask and
    ``||beta||_1`` within round-off of the radius at most; neg2_loglik is
    the squared-error loss at beta (>= 0).  iterations counts the
    projected-gradient steps the fit took (0 unless the exact solve, the
    KKT candidate and the lasso path all fell short), and converged is
    True: an uncertified fit raises instead.
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
    (m,).  Iteration builds ``FitResult`` objects on demand.  Every fit is
    settled, so ``Fits`` reads as a :class:`LossBounds` of points:
    ``lower`` and ``upper`` are both ``neg2_loglik``, and ``fits()`` is self.
    """

    beta: np.ndarray
    neg2_loglik: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    @property
    def lower(self) -> np.ndarray:
        return self.neg2_loglik

    upper = lower

    def fits(self) -> Fits:
        return self

    def __len__(self) -> int:
        return self.neg2_loglik.size

    def __iter__(self):
        return map(
            FitResult, self.beta, self.neg2_loglik.tolist(), self.iterations.tolist(),
            self.converged.tolist(),
        )


def _scale(stats: SufficientStats, radius: float) -> float:
    """Bound on every term of the loss and of the gap over the ball:
    ``yty + 2 R ||b||_inf + R^2 max A_jj``."""
    return (
        stats.yty
        + 2.0 * radius * float(np.max(np.abs(stats.xty), initial=0.0))
        + radius**2 * float(np.max(np.diag(stats.xtx), initial=0.0))
    )


def _tau(stats: SufficientStats, scale: float) -> float:
    """Certificate level of one dataset: the tolerance plus the round-off
    allowance on the loss's scale ``scale`` (:func:`_scale`)."""
    return _TOLERANCE * max(1.0, stats.yty) + _ROUNDOFF * stats.d * scale


def loss_slack(n_obs: int, d: int, response_bound: float, radius: float) -> float:
    """Public bound on how far a certified loss can sit from its minimum.

    With ``|x_ij| <= 1`` and ``|y_i| <= r``, ``yty <= n r^2``,
    ``|X'y|_j <= n r`` and ``(X'X)_jj <= n``, so a certificate level is at
    most ``_TOLERANCE * max(1, n r^2) + allowance * d * n (r + R)^2``.  The
    allowance is counted twice: once in the certificate, once for the
    round-off of the loss and of the gap themselves.
    """
    scale = n_obs * (response_bound + radius) ** 2
    return _TOLERANCE * max(1.0, n_obs * response_bound**2) + (
        2.0 * _ROUNDOFF * d * scale
    )


def _project_rows(v: np.ndarray, radius: float) -> np.ndarray:
    """Row-wise l1-ball projection; rows already inside are untouched."""
    absv = np.abs(v)
    over = absv.sum(axis=1) > radius
    if not over.any():
        return v
    u = np.sort(absv[over], axis=1)[:, ::-1]
    # s[k-1] = sum over j <= k of (u_j - u_k), a running sum of the
    # nonnegative terms m * (u_m - u_{m+1}): no large sum minus radius.
    ranks = np.arange(1, v.shape[1], dtype=np.float64)
    s = np.zeros(u.shape)
    np.cumsum(ranks * (u[:, :-1] - u[:, 1:]), axis=1, out=s[:, 1:])
    # The support is the largest prefix with s < radius; s[0] = 0 keeps
    # at least the first position.
    rho = np.sum(s < radius, axis=1)
    last = np.arange(len(rho)), rho - 1
    # Entry i of the support maps to (u_i - u_rho) + (radius - s_rho) / rho,
    # a sum of two nonnegative terms; the threshold itself is never formed.
    lift = (radius - s[last]) / rho
    w = np.sign(v[over]) * np.maximum((absv[over] - u[last][:, None]) + lift[:, None], 0.0)
    # Thresholding a large entry loses its low digits: rescale what
    # round-off leaves outside the ball onto its surface.
    l1 = np.abs(w).sum(axis=1)
    w[l1 > radius] *= (radius / l1[l1 > radius])[:, None]
    v[over] = w
    return v


def _size_groups(member: np.ndarray):
    """Rows of ``member`` grouped by size k > 0: yields each group's row
    indices and their (rows, k) column positions."""
    sizes = member.sum(axis=1)
    # Rows in order of size, ascending within a size, and the columns of
    # those rows in one read: each group is a contiguous run of both.
    order = np.argsort(sizes, kind="stable")
    columns = np.flatnonzero(member[order]) % member.shape[1]
    counts = np.bincount(sizes, minlength=1).tolist()
    row, column = counts[0], 0
    for k, count in enumerate(counts[1:], start=1):
        if count:
            yield order[row:row + count], columns[column:column + count * k].reshape(count, k)
            row, column = row + count, column + count * k


def _masked_top_eigenvalue(a: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each restriction ``a[S, S]``, S a row of ``member``.

    Exact: one batched symmetric eigensolve per mask size on the compact
    k x k restricted matrices.  The empty mask keeps 0.
    """
    lam = np.zeros(member.shape[0])
    for rows, idx in _size_groups(member):
        lam[rows] = np.linalg.eigvalsh(a[idx[:, :, None], idx[:, None, :]])[:, -1]
    return np.maximum(lam, 0.0)


def _masked_solve(a: np.ndarray, member: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``a[S, S] x = rhs[S]`` for each row's mask S, one batched
    solve per mask size; ``rhs`` is (m, d, c) and so is the answer, zero
    outside each mask.  A row whose restriction is singular comes back NaN.
    """
    out = np.zeros(rhs.shape)
    for rows, idx in _size_groups(member):
        sub = a[idx[:, :, None], idx[:, None, :]]
        out[rows[:, None], idx] = _solve_or_nan(sub, rhs[rows[:, None], idx])
    return out


def _solve_or_nan(sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        # One singular matrix fails the whole batch: solve the group one
        # matrix at a time and leave only the singular ones NaN.
        out = np.full(rhs.shape, np.nan)
        for i in range(len(sub)):
            try:
                out[i] = np.linalg.solve(sub[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _gap(grad: np.ndarray, beta: np.ndarray, radius: float) -> np.ndarray:
    """Frank-Wolfe gap of each row, ``grad`` the half gradient A beta - b
    on the mask: an upper bound on loss - min loss for feasible beta."""
    return 2.0 * (_rowdot(grad, beta) + radius * np.abs(grad).max(axis=1, initial=0.0))


def _certified(a, member, bvec, beta, radius, tau) -> np.ndarray:
    """Rows of ``beta`` that lie in the ball with a gap of at most ``tau``;
    a NaN row never does.  A row outside the ball by round-off only (up to
    1e-12 relative) is first scaled onto its surface, in place, and judged
    there, so no accepted fit overshoots the ball."""
    with np.errstate(invalid="ignore"):
        l1 = np.abs(beta).sum(axis=1)
        inside = l1 <= radius * (1.0 + 1e-12)
        over = inside & (l1 > radius)
        beta[over] *= (radius / l1[over])[:, None]
        return inside & (_gap((beta @ a) * member - bvec, beta, radius) <= tau)


def _kkt_candidates(a, bvec, beta, radius) -> np.ndarray:
    """The minimum over each row's current support S and signs s, on the
    sphere: the solution of ``A_S beta_S + mu s = b_S``, ``s.beta_S = R``,
    one batched bordered solve per support size.  It is the constrained
    minimum whenever S and s are right, and the border keeps it accurate
    when A_S is nearly singular along a direction s does not ignore.
    Singular systems and empty supports come back NaN."""
    signs = np.sign(beta)
    out = np.zeros(beta.shape)
    out[~signs.any(axis=1)] = np.nan
    for rows, idx in _size_groups(signs != 0.0):
        k = idx.shape[1]
        s = signs[rows[:, None], idx]
        kkt = np.zeros((len(rows), k + 1, k + 1))
        kkt[:, :k, :k] = a[idx[:, :, None], idx[:, None, :]]
        kkt[:, :k, k] = kkt[:, k, :k] = s
        rhs = np.concatenate([bvec[rows[:, None], idx], np.full((len(rows), 1), radius)], axis=1)
        out[rows[:, None], idx] = _solve_or_nan(kkt, rhs[:, :, None])[:, :k, 0]
    return out


def _homotopy(a, member, bvec, radius, max_steps):
    """The lasso path of each row from beta = 0 out to the l1 radius.

    Along the path the active set S with signs s keeps
    ``A_S beta_S = b_S - lam s``, lam the common size of the active
    correlations ``c = b - A beta``; beta moves along ``w = A_S^-1 s`` as
    lam falls.  A free coordinate joins when its correlation reaches
    ``+-lam`` and an active one leaves when it reaches zero.  A row stops on
    the sphere, or at lam = 0 (an interior minimum), exact up to the drift
    of the updates; a row whose system turns singular or that runs out of
    steps stops where it is, inside the ball.  Returns beta.
    """
    m, d = member.shape
    beta = np.zeros((m, d))
    lam = np.abs(bvec).max(axis=1, initial=0.0)
    active = np.zeros((m, d), dtype=bool)
    active[np.arange(m), np.abs(bvec).argmax(axis=1)] = True
    signs = np.where(active, np.sign(bvec), 0.0)
    # The sign a coordinate had when it left on the last step: it sits at
    # c = lam * sign, and must not rejoin with that sign on round-off.
    left = np.zeros((m, d))
    live = np.flatnonzero(lam > 0.0)
    for _ in range(max_steps):
        if not live.size:
            break
        r = np.arange(live.size)
        act, sg, bt, lm = active[live], signs[live], beta[live], lam[live]
        w = _masked_solve(a, act, sg[:, :, None])[:, :, 0]
        aw = (w @ a) * member[live]
        c = bvec[live] - (bt @ a) * member[live]
        free = (member[live] > 0) & ~act
        floor = 1e-12 * lm[:, None]
        # A join whose denominator is at round-off is a copy of an active
        # column (its correlation moves with lam exactly): joining it would
        # make the next system singular, and skipping it loses nothing.
        up_ok = free & (left[live] <= 0.0) & (np.abs(1.0 - aw) > _JOIN_FLOOR)
        down_ok = free & (left[live] >= 0.0) & (np.abs(1.0 + aw) > _JOIN_FLOOR)
        with np.errstate(invalid="ignore", divide="ignore"):
            up = (lm[:, None] - c) / (1.0 - aw)
            down = (lm[:, None] + c) / (1.0 + aw)
            up = np.where(up_ok & (up > floor), up, np.inf)
            down = np.where(down_ok & (down > floor), down, np.inf)
            drops = np.where(act & (-bt / w > floor), -bt / w, np.inf)
            to_sphere = (radius - _rowdot(sg, bt)) / _rowdot(sg, w)
        joins = np.minimum(up, down)
        j_join, j_drop = joins.argmin(axis=1), drops.argmin(axis=1)
        gamma = np.minimum(
            np.minimum(joins[r, j_join], drops[r, j_drop]), np.minimum(to_sphere, lm)
        )
        broken = ~np.isfinite(gamma) | ~np.isfinite(w).all(axis=1)
        gamma = np.where(broken, 0.0, gamma)
        beta[live] = bt + gamma[:, None] * np.nan_to_num(w)
        lam[live] = lm - gamma
        ends = broken | (gamma == to_sphere) | (gamma == lm)
        join = ~ends & (gamma == joins[r, j_join])
        drop = ~ends & ~join
        left[live] = 0.0
        jr, jj = live[join], j_join[join]
        active[jr, jj] = True
        signs[jr, jj] = np.where(up[join, jj] <= down[join, jj], 1.0, -1.0)
        dr, jd = live[drop], j_drop[drop]
        left[dr, jd] = signs[dr, jd]
        active[dr, jd] = False
        signs[dr, jd] = 0.0
        beta[dr, jd] = 0.0
        live = live[~ends]
    return beta


def _step_sizes(a: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Projected-gradient step 1/L of each row, L the exact top eigenvalue
    of its restricted A; 0 for a zero restriction, whose X'y entries are
    zero too, so its start is already the minimum."""
    lam = _masked_top_eigenvalue(a, member)
    return np.where(lam > 0.0, 1.0 / np.where(lam > 0.0, lam, 1.0), 0.0)


def _descend(a, yty, member, bvec, start, radius, tau):
    """Projected gradient from ``start`` until every row is certified.

    Rows leave the batch once their iterate, or the KKT candidate on its
    support taken at the start and every ``_POLISH_EVERY`` steps after, is
    certified; only rows still live after the first candidate pay for
    their step size.  A row that cannot move, or whose lowest gap has not
    fallen by 1% in ``_STALL_STEPS`` steps, raises at once.  Returns
    (beta, iterations).
    """
    m, d = member.shape
    beta_out = np.zeros((m, d))
    iterations = np.zeros(m, dtype=np.int64)
    live = np.arange(m)
    beta, mem, b, step = start, member, bvec, None
    obj = np.full(m, np.inf)
    best_gap, best_at = np.full(m, np.inf), np.zeros(m, dtype=np.int64)
    for it in range(_MAX_ITERATIONS + 1):
        grad = (beta @ a) * mem - b
        new_obj = yty + _rowdot(beta, grad - b)
        if np.any(new_obj > obj + 1e-9 * np.maximum(1.0, np.abs(obj))):
            raise SolverError("projected gradient objective increased; step size rule broke")
        gap = _gap(grad, beta, radius)
        done = gap <= tau
        if it % _POLISH_EVERY == 0:
            kkt = _kkt_candidates(a, b, beta, radius)
            polished = ~done & _certified(a, mem, b, kkt, radius, tau)
            beta[polished] = kkt[polished]
            done |= polished
        beta_out[live[done]] = beta[done]
        iterations[live[done]] = it
        falling = gap < 0.99 * best_gap
        best_gap[falling], best_at[falling] = gap[falling], it
        keep = ~done
        live, beta, mem, b, obj, grad, best_gap, best_at = (
            live[keep], beta[keep], mem[keep], b[keep], new_obj[keep], grad[keep],
            best_gap[keep], best_at[keep],
        )
        if not live.size:
            return beta_out, iterations
        if it == _MAX_ITERATIONS:
            break
        step = _step_sizes(a, mem) if step is None else step[keep]
        stuck = (step == 0.0) | (it - best_at >= _STALL_STEPS)
        if stuck.any():
            raise SolverError(
                f"{int(stuck.sum())} fit(s) stopped short of certification after {it} "
                f"projected-gradient steps (duality gap above {tau:.3g})"
            )
        beta = _project_rows(beta - step[:, None] * grad, radius)
    raise SolverError(
        f"{live.size} fit(s) not certified after {_MAX_ITERATIONS} projected-gradient "
        f"steps (duality gap above {tau:.3g})"
    )


def _objective(yty, a, member, bvec, beta) -> np.ndarray:
    """Loss of each row of ``beta``, floored at 0 against round-off."""
    obj = yty - 2.0 * _rowdot(beta, bvec) + _rowdot(beta, (beta @ a) * member)
    return np.maximum(obj, 0.0)


def _path_steps(d: int) -> int:
    """Breakpoints a lasso path may take at d columns: about one per
    column, and 4d + 8 leaves room for coordinates that leave and join
    again."""
    return 4 * d + 8


def _settle(a, yty, member, bvec, start, radius, tau):
    """Certified fits of the rows given, from their projected starts.

    Each row tries one KKT candidate on the support and signs of its start;
    rows it does not settle follow the lasso path, and only path ends that
    are not certified as they are run projected gradient.  Returns (beta,
    iterations).
    """
    beta = _kkt_candidates(a, bvec, start, radius)
    iterations = np.zeros(len(start), dtype=np.int64)
    rest = np.flatnonzero(~_certified(a, member, bvec, beta, radius, tau))
    if rest.size:
        path = _homotopy(a, member[rest], bvec[rest], radius, _path_steps(member.shape[1]))
        beta[rest] = path = _project_rows(path, radius)
        # Checked on a copy: a certified end keeps the exact bits that
        # projected gradient would return for it at step 0.
        slow = ~_certified(a, member[rest], bvec[rest], path.copy(), radius, tau)
        if slow.any():
            rows = rest[slow]
            beta[rows], iterations[rows] = _descend(
                a, yty, member[rows], bvec[rows], path[slow], radius, tau
            )
    return beta, iterations


def _first_pass(a, member, bvec, radius, tau):
    """One batched exact solve per model size.  Returns the solutions and
    the rows that are not slack (see :func:`_certified`), which start from
    their projected solution instead; singular ones, and those too large
    for the projection to resolve the radius, start from zero."""
    beta = _masked_solve(a, member, bvec[:, :, None])[:, :, 0]
    rest = np.flatnonzero(~_certified(a, member, bvec, beta, radius, tau))
    if rest.size:
        solved = np.abs(beta[rest]).sum(axis=1) < radius / np.finfo(np.float64).eps
        beta[rest] = _project_rows(np.where(solved[:, None], beta[rest], 0.0), radius)
    return beta, rest


class LossBounds:
    """Certified loss intervals of a family's fits, solved on demand.

    A mask's feasible set lies inside that of every superset of its
    columns, so a lower bound on a superset's loss bounds the mask's loss
    from below (Furnival & Wilson's leaps and bounds).  With ``supersets``,
    nothing in the family is solved at first: the d + 1 supersets {all
    columns} and {all but column j} get one exact solve as a batch of their
    own, whether or not the family holds them, and an unsolved mask M has
    the interval ``[lower_M, +inf)``, ``lower_M`` the largest ``f(x) -
    gap(x) - s`` over those supersets S of M.  ``gap`` is the Frank-Wolfe
    gap, so ``f(x) - gap(x)`` bounds S's minimum from below at any x on
    S's columns (Jaggi 2013), and ``s`` is the certificate level plus three
    round-off allowances, for the gap and for the two losses compared.  A
    binding superset takes the larger bound at its projected start and at
    one projected KKT candidate, not a certified fit.  With ``eager``, or
    when a binding superset's solve fails, the binding supersets are
    settled with the bounds instead (see :meth:`_superset_lower`); either
    way the supersets' bounds never change afterwards.
    Without ``supersets``, the intervals start from one first pass over the
    whole family, the one :meth:`fits` then reuses: a slack mask's interval
    is the point that fits() returns for it, and a binding mask's is
    ``[f(x) - gap(x) - s, f(x) + s]`` at its projected start x.

    :meth:`first_pass` solves given masks exactly, as a batch of their
    own: a slack mask's interval becomes ``[f - gap - s, f + s]`` at its
    certified fit, and a binding mask's the same at its projected start.
    :meth:`settle` narrows binding masks to width ``2 s`` around their
    certified fits.  Every interval holds the loss of any certified fit of
    the mask, whichever rows it was solved with; ``certified`` marks the
    intervals of certified fits, which a batch of their own cannot narrow.
    :meth:`fits` settles every mask as :func:`fit_masks` does, bit for
    bit, in one batch.  ``lower`` is ``upper`` once every interval is a
    point.  Nothing is solved before the intervals or the fits are first
    asked for.  ``scale`` is :func:`_scale` at ``radius``, which
    :func:`bound_masks` computes once for its overflow check.
    """

    def __init__(self, stats: SufficientStats, member: np.ndarray, radius: float, scale: float,
                 supersets: bool, eager: bool = False) -> None:
        self._stats, self._member, self._radius = stats, member, radius
        self._supersets, self._eager = supersets, eager
        self._tau = _tau(stats, scale)
        self._slack = self._tau + 3.0 * _ROUNDOFF * stats.d * scale
        self._beta: np.ndarray | None = None  # each solved mask's start or fit
        self._lower: np.ndarray | None = None
        self._upper = np.full(len(member), np.inf)
        self.certified = np.zeros(len(member), dtype=bool)
        self._family_pass: tuple[np.ndarray, np.ndarray] | None = None
        self._fits: Fits | None = None

    @property
    def lower(self) -> np.ndarray:
        if self._lower is None:
            if self._supersets:
                self._beta = np.zeros(self._member.shape)
                self._lower = self._superset_lower()
            else:
                self._family_interval()
        return self._lower

    @property
    def upper(self) -> np.ndarray:
        self.lower
        return self._upper

    def _superset_lower(self) -> np.ndarray:
        """Each mask's largest lower bound over the supersets {all columns}
        and {all but column j}, j not in the mask.

        A slack superset is bounded at its exact solve, and a binding one
        by the larger bound at its projected start and at one projected KKT
        candidate on that start's support and signs.  With ``eager``, or
        when a binding superset's solve failed (its start is zero, no bound
        worth keeping), the binding supersets are settled here instead, in
        one batch (the lasso path costs one batched step per breakpoint,
        whatever its number of rows), and bounded at their fits too.  The
        bound holds at any feasible point, so a superset that cannot be
        certified keeps the bound at its start.  No superset is settled
        later."""
        stats, radius, d = self._stats, self._radius, self._stats.d
        a = stats.xtx
        member = np.ones((d + 1, d), dtype=bool)
        member[np.arange(1, d + 1), np.arange(d)] = False
        bvec = member * stats.xty
        start, rows = _first_pass(a, member, bvec, radius, self._tau)
        bound = self._gap_bound(member, bvec, start)
        if rows.size and (self._eager or not start[rows].any(axis=1).all()):
            try:
                x = _settle(a, stats.yty, member[rows], bvec[rows], start[rows], radius,
                            self._tau)[0]
            except SolverError:
                rows = rows[:0]
        elif rows.size:
            x = _kkt_candidates(a, bvec[rows], start[rows], radius)
            found = np.isfinite(x).all(axis=1)
            rows, x = rows[found], _project_rows(x[found], radius)
        if rows.size:
            bound[rows] = np.maximum(bound[rows], self._gap_bound(member[rows], bvec[rows], x))
        # Reduced across the d rows of the transposed membership, which is
        # several times faster than across each mask's d columns.
        left_out = np.where(np.ascontiguousarray(self._member.T), -np.inf, bound[1:, None])
        return np.maximum(bound[0], left_out.max(axis=0, initial=-np.inf))

    def _gap_bound(self, member, bvec, beta) -> np.ndarray:
        """``f - gap - s`` at each row of ``beta`` (on its mask): a lower
        bound on the mask's loss, and so on that of each of its subsets."""
        a = self._stats.xtx
        gap = _gap((beta @ a) * member - bvec, beta, self._radius)
        return _objective(self._stats.yty, a, member, bvec, beta) - gap - self._slack

    def _bvec(self, rows) -> np.ndarray:
        return self._member[rows] * self._stats.xty

    def _loss(self, beta: np.ndarray, rows, bvec: np.ndarray) -> np.ndarray:
        stats = self._stats
        return _objective(stats.yty, stats.xtx, self._member[rows], bvec, beta)

    def _solve(self, rows, bvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _first_pass(self._stats.xtx, self._member[rows], bvec, self._radius, self._tau)

    def _settle(self, rows) -> tuple[np.ndarray, np.ndarray]:
        return _settle(
            self._stats.xtx, self._stats.yty, self._member[rows], self._bvec(rows),
            self._beta[rows], self._radius, self._tau,
        )

    def _family_interval(self) -> None:
        """The intervals of one first pass over the whole family.  It is
        the pass :meth:`fits` runs, so a slack mask's interval is the point
        that fits() returns; when every mask is slack, ``lower`` is
        ``upper``."""
        bvec = self._bvec(slice(None))
        self._family_pass = self._beta, rest = self._solve(slice(None), bvec)
        self._lower = self._upper = loss = self._loss(self._beta, slice(None), bvec)
        self.certified[:] = True
        if rest.size:
            x = self._beta[rest]
            gap = _gap((x @ self._stats.xtx) * self._member[rest] - bvec[rest], x, self._radius)
            self._lower, self._upper = loss.copy(), loss.copy()
            self._lower[rest] -= gap + self._slack
            self._upper[rest] += self._slack
            self.certified[rest] = False

    def first_pass(self, rows) -> None:
        """Solve ``rows`` (unsolved masks) exactly, as a batch of their own:
        slack ones are certified, binding ones get the interval at their
        projected start.  A slack row's gap is at most ``tau``, so only
        the binding rows' gaps are computed."""
        lower = self.lower
        bvec = self._bvec(rows)
        beta, rest = self._solve(rows, bvec)
        gap = np.full(len(beta), self._tau)
        grad = (beta[rest] @ self._stats.xtx) * self._member[rows][rest] - bvec[rest]
        gap[rest] = _gap(grad, beta[rest], self._radius)
        loss = self._loss(beta, rows, bvec)
        self._beta[rows] = beta
        lower[rows] = np.maximum(lower[rows], loss - gap - self._slack)
        self._upper[rows] = loss + self._slack
        slack = np.ones(len(beta), dtype=bool)
        slack[rest] = False
        self.certified[rows] = slack

    def settle(self, rows) -> None:
        """Narrow the intervals of ``rows`` (solved binding masks) to their
        certified fits, settled as a batch of their own."""
        lower = self.lower
        loss = self._loss(self._settle(rows)[0], rows, self._bvec(rows))
        lower[rows] = np.maximum(lower[rows], loss - self._slack)
        self._upper[rows] = loss + self._slack
        self.certified[rows] = True

    def fits(self) -> Fits:
        """Every fit settled, as :func:`fit_masks` returns them: one exact
        first pass over the whole family, then one settle of its binding
        masks."""
        if self._fits is None:
            bvec = self._bvec(slice(None))
            beta, rest = self._family_pass or self._solve(slice(None), bvec)
            self._beta = beta
            iterations = np.zeros(len(beta), dtype=np.int64)
            if rest.size:
                beta[rest], iterations[rest] = self._settle(rest)
            loss = self._loss(beta, slice(None), bvec)
            arrays = (beta, loss, iterations, np.ones(len(beta), dtype=bool))
            for array in arrays:
                array.setflags(write=False)
            self._fits = Fits(*arrays)
            self._lower = self._upper = loss
            self.certified[:] = True
        return self._fits


def _ill_conditioned(stats: SufficientStats) -> bool:
    """Whether X'X's condition number exceeds ``_ILL_CONDITIONED``; every
    superset's restriction has its eigenvalues between the extremes of
    X'X's (Cauchy interlacing)."""
    low, high = stats.eigenvalue_range
    return low * _ILL_CONDITIONED <= high


def bound_masks(stats: SufficientStats, models: CandidateSet, radius: float,
                eager: bool = False) -> LossBounds:
    """The loss bounds of a family, with no mask solved yet (see
    :class:`LossBounds`).  A first pass over the family solves one unknown
    per column of each mask.  Bounding by the d + 1 supersets solves their
    d unknowns each once, plus one KKT candidate, and leaves a select to
    first-pass a few masks; timed in process (``scripts/bench_routes.py``),
    that costs about as much as a first pass over ``_SUPERSET_COST = 15``
    times the supersets' ``(d + 1) d`` unknowns.  So the supersets bound
    the family when its model sizes add up to more: the full family from
    d = 9 on (24,576 unknowns against 2,340 at d = 12, but 1,024 against
    1,080 at d = 8), ``size<=4`` from d = 12 on, and ``size<=3`` only past
    d = 24 (3,820 against 6,300 at d = 20).

    Settling the binding supersets costs their lasso path, and then a
    first pass over ``_SETTLED_SUPERSET_COST = 40`` times their unknowns:
    the full family from d = 10 on, ``size<=4`` from d = 18 on.  The
    supersets are settled with their bounds, and that rule applies, when
    a caller passes ``eager`` (the exponential mechanism's select, which
    also solves every mask that can reach a row's smallest score), or
    when X'X is ill-conditioned (condition number above
    ``_ILL_CONDITIONED``, singular included), where the supersets' gap
    bounds stay loose and a select would first-pass many masks.
    Otherwise the supersets keep their gap bounds and are never
    settled.  A radius at which the loss's scale ``yty + 2 R ||b||_inf +
    R^2 max A_jj`` overflows raises DataError."""
    if models.d != stats.d:
        raise DataError(f"candidate set is for d={models.d}, stats have d={stats.d}")
    if not (math.isfinite(radius) and radius > 0):
        raise DataError(f"radius must be positive and finite, got {radius}")
    try:
        scale = _scale(stats, radius)
    except OverflowError:  # radius**2
        scale = math.inf
    if not math.isfinite(scale):
        raise DataError(f"radius {radius} overflows the scale of the loss")
    d = stats.d
    eager = eager or _ill_conditioned(stats)
    cost = _SETTLED_SUPERSET_COST if eager else _SUPERSET_COST
    supersets = int(models.sizes.sum()) > cost * (d + 1) * d
    return LossBounds(stats, member_matrix(models.bits, d), radius, scale, supersets, eager)


def fit_masks(stats: SufficientStats, models: CandidateSet, radius: float) -> Fits:
    """Fit every model of the family against the same statistics in one
    stacked solve.  Output order matches family order, and every fit is
    certified (see the module notes)."""
    return bound_masks(stats, models, radius).fits()


def profile_neg2_loglik(losses, n_obs: int) -> np.ndarray:
    """Profile score ``n * log(loss / n)`` of each loss, the variance
    profiled out.  ``loss / n`` is floored at 1e-12, so a zero
    (interpolating) or tiny loss scores ``n * log(1e-12)``."""
    if n_obs < 1:
        raise DataError(f"n_obs must be >= 1, got {n_obs}")
    ratio = np.maximum(np.asarray(losses, dtype=np.float64) / n_obs, 1e-12)
    # math.log per element: numpy's log can differ from it in the last digit.
    return np.array([math.log(r) for r in ratio.tolist()]) * n_obs
