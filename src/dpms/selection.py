"""Private model selection over a candidate family.

Two release paths share one shape: fit every candidate on the caller's
data, score it, and let a mechanism pick a winner.

* :func:`pcls_select` scores by penalized constrained squared error and
  pays ``epsilon`` of pure differential privacy.  The score's sensitivity
  is the global bound ``(r + R)**2`` on the exact loss, plus the public
  bound ``tau`` (:func:`~dpms.solver.loss_slack`) on how far a certified
  fit may sit from it; no dataset can exceed the sum.
* :func:`pcpl_select` scores by the penalized profile likelihood, whose
  global sensitivity is unbounded.  It spends ``epsilon`` measuring a
  data-dependent sensitivity proxy and ``epsilon`` selecting with it, for
  a total cost of ``(2 * epsilon, delta)``.  When the measured proxy
  is degenerate the winner is drawn uniformly instead; the report says so.

Both paths draw every noise variate from a caller-supplied
:class:`~dpms.mechanisms.RngStream`, so a fixed (seed, stream) pair replays
the exact selection byte for byte.  They share one array core,
:func:`_select_rows`, which runs one selection per row of a score matrix;
a single select is its one-row case, and the sweep harness releases a
whole (epsilon, delta, phi) grid per fit through it, one row per cell.
Each row's public noise law comes from one record, :func:`_calibration`:
the score width, the certificate slack, the epsilon of each stage and,
for pcpl, stage 1's safety margin; the ledger's ``epsilon_total`` is read
from it too.  The core re-decides nothing its neighbours own: the solver
says which fits are settled, the mechanisms map canonical ranks to
columns, and one budget rule (:func:`_check_budget`) serves a select and
a sweep grid alike.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import Dataset, ModelMask, _readonly, member_matrix, sufficient_stats
from .enumeration import CandidateSet
from .errors import ConfigError, _real
from .mechanisms import (
    PrivacyBudget,
    RngStream,
    _exact_keys,
    _gumbel_keys,
    _laplace_rows,
    _noisy_keys,
    _row_argmin,
    _uniform_rows,
)

# The list-based mechanisms, the one-stream Laplace draw and fit_masks
# stay importable from this module, where perfbench/bench_trace.py looks
# them up.
from .mechanisms import exponential_mechanism, noisy_argmin, sample_laplace  # noqa: F401
from .solver import Fits, LossBounds, bound_masks, loss_slack, profile_neg2_loglik
from .solver import fit_masks  # noqa: F401

__all__ = [
    "SelectionConfig",
    "SelectionReport",
    "pcls_select",
    "pcpl_select",
]

_ALGORITHMS = ("pcls", "pcpl")
_MECHANISMS = ("noisy_argmin", "exponential")


@dataclass(frozen=True)
class SelectionConfig:
    """Tuning parameters shared by both selection paths.

    radius
        L1 bound R on every candidate fit.  Larger values admit least
        squares itself (see ``dpms validate`` for a data-driven hint) but
        inflate the score sensitivity quadratically.
    penalty
        Complexity charge phi_n added per selected covariate.  Zero means
        pure goodness of fit; values around ``n * log(n) / n`` mimic BIC.
    budget
        Privacy budget of ONE mechanism invocation.  ``pcls_select``
        spends exactly ``budget.epsilon`` and requires ``delta == 0``;
        ``pcpl_select`` spends ``epsilon`` on each of its two stages,
        ``(2 * epsilon, delta)`` in all, and requires ``0 < delta < 1``.
    mechanism
        ``"noisy_argmin"`` adds Laplace noise to every score and takes the
        minimum; ``"exponential"`` samples from the softmax over negated
        scores.  Both satisfy the same budget.

    ``radius`` and ``penalty`` are stored as floats, so a report prints the
    same bytes whatever real type the caller passed.
    """

    radius: float
    penalty: float
    budget: PrivacyBudget
    mechanism: str = "noisy_argmin"

    def __post_init__(self) -> None:
        radius = _real("radius", self.radius)
        if not (math.isfinite(radius) and radius > 0):
            raise ConfigError(f"radius must be a positive finite float, got {self.radius}")
        penalty = _real("penalty", self.penalty)
        if not (math.isfinite(penalty) and penalty >= 0):
            raise ConfigError(f"penalty must be a nonnegative finite float, got {self.penalty}")
        if not isinstance(self.budget, PrivacyBudget):
            raise ConfigError(f"budget must be a PrivacyBudget, got {self.budget!r}")
        _check_mechanism(self.mechanism)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "penalty", penalty)


def _check_mechanism(mechanism: str) -> None:
    if mechanism not in _MECHANISMS:
        raise ConfigError(f"mechanism must be one of {_MECHANISMS}, got {mechanism!r}")


def _check_budget(algorithm: str, budget: PrivacyBudget) -> None:
    """The budget rule of each algorithm, on top of the budget's own.

    pcls spends a pure budget (delta = 0).  pcpl spends 2 * epsilon in
    all, which a finite epsilon must keep finite (epsilon <= max float /
    2, about 8.99e307; epsilon = inf is the noiseless limit), and spends
    its delta on stage 1's safety margin, which needs 0 < delta < 1.
    """
    epsilon, delta = budget.epsilon, budget.delta
    if algorithm == "pcpl" and math.isfinite(epsilon) and math.isinf(2.0 * epsilon):
        raise ConfigError(f"pcpl spends 2 * epsilon, which overflows for epsilon = {epsilon}")
    if algorithm == "pcls" and delta != 0.0:
        raise ConfigError(f"pcls spends a pure budget and needs delta == 0, got {delta}")
    if algorithm == "pcpl" and not 0.0 < delta < 1.0:
        raise ConfigError(f"pcpl needs delta strictly inside (0, 1), got {delta}")


def _check_penalty(penalty: float, d: int) -> None:
    """A score adds ``penalty * |model|`` with ``|model| <= d``, which
    must stay finite."""
    if math.isinf(penalty * d):
        raise ConfigError(f"penalty * d overflows for penalty = {penalty} and d = {d}")


class _Calibration(NamedTuple):
    """The public noise law of each row of a selection, fixed before any
    draw (see :func:`_calibration`)."""

    algorithm: str
    mechanism: str
    n_obs: int
    width: float  # (r + R)**2 + slack: how far one row swap moves a certified loss
    slack: float  # loss_slack(n, d, r, R): how far a certified loss sits from the exact one
    epsilon: np.ndarray  # each row's epsilon, spent by each stage (pcpl: both)
    epsilon_total: np.ndarray  # each row's spend: epsilon (pcls), 2 * epsilon (pcpl)
    margin: np.ndarray | None = None  # pcpl's log(1 / (2 * delta)) of each row


def _calibration(algorithm, mechanism, epsilons, deltas, bound, n_obs, d, radius) -> _Calibration:
    """The noise law of rows that spend ``(epsilons[i], deltas[i])`` on
    ``n_obs`` rows of ``d`` covariates with response bound ``bound`` and
    radius ``radius``.

    A single row contributes ``(y_i - x_i @ beta)**2`` to the loss, and with
    |y| <= r, |x| <= 1 (entrywise) and |beta|_1 <= R the residual magnitude
    is at most ``r + R``, so replacing it moves the exact loss by at most
    ``(r + R)**2``.  A certified fit may sit up to the public
    :func:`~dpms.solver.loss_slack` from the exact loss, which the width
    adds.  pcls selects with each row's epsilon.  pcpl spends the row's
    epsilon on stage 1, whose proxy carries the margin ``log(1 / (2 *
    delta))``, and the same epsilon again on selecting; both stages are
    noiseless when epsilon is infinite.  By sequential composition the
    ledger's ``epsilon_total`` is ``2 * epsilon``, and delta is spent once,
    by stage 1's margin.

    A width that overflows raises ConfigError, and so does a finite
    epsilon at which a Laplace scale of the record overflows: ``2 * width
    / epsilon`` for pcls's noisy argmin, stage 1's ``width / epsilon`` for
    pcpl.  pcls's exponential mechanism divides by ``2 * width``, which
    must stay finite too; its weights underflow to a uniform draw at a tiny
    epsilon instead.
    """
    epsilons = np.asarray(epsilons, dtype=np.float64)
    try:
        slack = loss_slack(n_obs, d, bound, radius)
        width = (bound + radius) ** 2 + slack
    except OverflowError:  # a float's ** 2
        width = math.inf
    if not math.isfinite(width):
        raise ConfigError(f"the score width (r + R)**2 overflows for r = {bound} and R = {radius}")
    # The scale is largest at the smallest epsilon; an infinite one draws
    # nothing.
    epsilon = float(epsilons.min())
    if algorithm == "pcpl" or mechanism == "noisy_argmin":
        factor = 1.0 if algorithm == "pcpl" else 2.0
        if math.isinf(factor * float(width) / epsilon):
            raise ConfigError(f"the Laplace scale {factor:g} * width / epsilon overflows for "
                              f"epsilon = {epsilon} and width = {width:.6g}")
    elif math.isfinite(epsilon) and math.isinf(2.0 * float(width)):
        raise ConfigError(f"the exponential mechanism's 2 * width overflows for r = {bound} "
                          f"and R = {radius}")
    if algorithm == "pcls":
        return _Calibration(algorithm, mechanism, n_obs, width, slack, epsilons, epsilons)
    # math.log, so that every row's margin has the bits of a one-budget call.
    margin = np.array([math.log(1.0 / (2.0 * x)) for x in deltas])
    return _Calibration(algorithm, mechanism, n_obs, width, slack, epsilons, 2.0 * epsilons, margin)


def _profile_sensitivity_value(min_loss: float, law: _Calibration, units) -> np.ndarray:
    """Noisy upper bounds on the profile score's local sensitivity, one
    per row of the pcpl record ``law``, each from the row's standard
    Laplace variate in ``units``.

    Starts from the deterministic bound ``n * w / (min_loss - w)`` with
    ``w`` the record's width and the certified minimum lowered by its
    slack.  It then perturbs the denominator with Laplace noise calibrated
    to ``w`` at the row's epsilon, plus the row's safety margin, so the
    released value is itself private and exceeds the true local
    sensitivity except with probability ``delta``.  An infinite epsilon
    adds neither, by an explicit test: ``w * (unit - margin)`` may
    overflow, and inf / inf is NaN.  A nonpositive denominator means the
    data fit too well for the bound to say anything; the sentinel ``inf``
    signals that.
    """
    width, epsilon = law.width, law.epsilon
    shift = np.where(np.isfinite(epsilon), width * (units - law.margin) / epsilon, 0.0)
    denominator = (min_loss - law.slack) - width + shift
    out = np.full(denominator.shape, np.inf)
    return np.divide(law.n_obs * width, denominator, out=out, where=denominator > 0.0)


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Everything a run releases, plus what only a debug report prints.

    ``g_of_d`` is ``None`` on the pure path, the released sensitivity
    proxy on the two-stage path, and ``math.inf`` when that proxy was
    degenerate (in which case ``fallback_uniform`` is True and the winner
    was drawn uniformly).

    Entry ``j`` of the read-only ``clean_scores`` and ``noisy_scores``
    scores candidate ``j`` of ``models``.  Neither is released: the budget
    pays for the winner's index alone (Report Noisy Max), and ``rng``
    rebuilds every draw.  ``noisy_scores`` is ``None`` when the winner came
    from the exponential mechanism or the uniform fallback, which have no
    per-candidate noisy score.  A select solves only the fits its release
    can depend on; ``settle_scores`` settles every fit and builds both
    arrays on first access.
    """

    chosen: ModelMask
    epsilon_total: float
    delta: float
    radius: float
    penalty: float
    response_bound: float
    response_bound_data_dependent: bool
    # Left out of repr(), so that printing or logging a report shows no
    # more than to_json() releases.
    rng: RngStream = field(repr=False)
    mechanism: str
    fallback_uniform: bool
    g_of_d: float | None
    models: CandidateSet
    settle_scores: Callable[[], tuple[np.ndarray, np.ndarray | None]] = field(repr=False)

    @cached_property
    def _scores(self) -> tuple[np.ndarray, np.ndarray | None]:
        return self.settle_scores()

    @property
    def clean_scores(self) -> np.ndarray:
        return self._scores[0]

    @property
    def noisy_scores(self) -> np.ndarray | None:
        return self._scores[1]

    def _ledger(self) -> tuple[dict, dict]:
        """The keys both reports print, split where the debug dump puts
        "seed", as earlier releases did."""
        head = {
            "chosen": list(self.chosen.indices()),
            "epsilon_total": self.epsilon_total if math.isfinite(self.epsilon_total) else "inf",
            "delta": self.delta,
            "R": self.radius,
            "phi_n": self.penalty,
            "r": self.response_bound,
            "r_data_dependent": self.response_bound_data_dependent,
        }
        tail: dict = {"mechanism": self.mechanism, "fallback_uniform": self.fallback_uniform}
        if self.g_of_d is not None:
            tail["g_of_d"] = None if math.isinf(self.g_of_d) else self.g_of_d
        return head, tail

    def to_json_dict(self) -> dict:
        """The release as a schema-stable dict.

        It holds the winner, the privacy ledger, the public family size
        ``n_models`` and a commitment to the key: ``key_sha256`` hashes the
        16-byte little-endian key, and ``stream_id`` is printed in clear.
        ``g_of_d`` appears only for two-stage runs; a degenerate proxy
        serializes as JSON null.  A noiseless run's infinite budget has no
        JSON number, so it serializes as the string "inf".
        """
        head, tail = self._ledger()
        key = self.rng.seed.to_bytes(16, "little")
        return {
            **head, **tail,
            "n_models": len(self.models),
            "key_sha256": hashlib.sha256(key).hexdigest(),
            "stream_id": self.rng.stream_id,
        }

    def to_json(self, include_clean_scores: bool = False) -> str:
        """The release as JSON text, or with ``include_clean_scores`` the
        NON-PRIVATE debug dump: the ledger, the ``[seed, stream_id]`` pair
        and every model's mask, noisy score and clean score.

        Both print what ``json.dumps(doc, indent=2, allow_nan=False)``
        prints, plus a final newline.  The dump writes its ``models`` array
        straight from the report's arrays in that layout, with no dict per
        model; a non-finite score raises json's ``ValueError``.
        """
        if not include_clean_scores:
            return json.dumps(self.to_json_dict(), indent=2, allow_nan=False) + "\n"
        head, tail = self._ledger()
        doc = {**head, "seed": [self.rng.seed, self.rng.stream_id], **tail}
        clean, noisy = self.clean_scores, self.noisy_scores
        # json's own error, naming the first entry it would have met.
        scores = clean if noisy is None else np.column_stack((noisy, clean))
        bad = scores[~np.isfinite(scores)]
        if bad.size:
            raise ValueError(f"Out of range float values are not JSON compliant: {float(bad[0])!r}")
        clean = map(repr, clean.tolist())
        noisy = itertools.repeat("null") if noisy is None else map(repr, noisy.tolist())
        # Every mask's 1-based indices, cut from one flat read of the
        # membership matrix; the d names are shared, not one str per entry.
        d, sizes = self.models.d, self.models.sizes
        names = [str(j + 1) for j in range(d)]
        columns = np.flatnonzero(member_matrix(self.models.bits, d)) % d
        labels = list(map(names.__getitem__, columns.tolist()))
        ends = np.cumsum(sizes).tolist()
        # The head's own text less its closing "\n}", then each record and
        # its separator, joined once; a family is never empty.
        out = [json.dumps(doc, indent=2, allow_nan=False)[:-2], ',\n  "models": [\n']
        for end, size, ns, cs in zip(ends, sizes.tolist(), noisy, clean):
            mask = ",\n        ".join(labels[end - size:end])
            mask = f"[\n        {mask}\n      ]" if size else "[]"
            out += (f'    {{\n      "mask": {mask},\n      "noisy_score": {ns},\n'
                    f'      "clean_score": {cs}\n    }}', ",\n")
        out[-1] = "\n  ]\n}\n"
        return "".join(out)


class _Picks(NamedTuple):
    """One private selection per row of a score matrix."""

    winners: np.ndarray  # winning column of each row
    fallback: np.ndarray  # True where pcpl's uniform fallback picked the winner
    g_of_d: np.ndarray | None  # pcpl's released sensitivity proxy of each row
    # (rows, keys(scores, base)) of each keyed group, its noise drawn; a
    # fallback row is in none
    keys: list[tuple[np.ndarray, Callable]]


def _score_matrix(algorithm: str, losses, n_obs: int, penalties, sizes: np.ndarray) -> np.ndarray:
    """Clean scores, one row per penalty phi: the constrained loss (pcls)
    or the profile score (pcpl) of each loss, plus ``phi * |model|``."""
    if algorithm == "pcls":
        base = losses
    else:
        base = profile_neg2_loglik(losses, n_obs)
    return base + np.asarray(penalties, dtype=np.float64)[:, None] * sizes


def _score_bounds(algorithm, fits, n_obs, penalties, sizes):
    """Lower and upper clean-score matrices: one matrix when every fit is
    settled.  Only pcls scores intervals: pcpl's proxy reads the smallest
    loss, which settles every fit first (see :func:`_select_rows`)."""
    lower, upper = fits.lower, fits.upper
    lo = _score_matrix(algorithm, lower, n_obs, penalties, sizes)
    if lower is upper:
        return lo, lo
    return lo, _score_matrix(algorithm, upper, n_obs, penalties, sizes)


def _mechanism_rows(law, fits, penalties, keys, models, clean=None):
    """Winning column of each row under the algorithm and mechanism of the
    record ``law``, with the rows' keys ``keys(scores, base)`` (see
    :mod:`~dpms.mechanisms`).
    ``clean``, when given, is the clean-score matrix of settled ``fits``
    under ``penalties``.

    A key is monotone in its clean score (and, for the exponential
    mechanism, in the row's smallest score), and so is its rounding, so
    bounds on the scores bound the keys.  A column whose key cannot reach
    the row's smallest upper key cannot win, and a row is decided once
    only one column can.  The noise does not depend on the scores, so it
    is drawn first.  Before any mask is solved, each row solves the one
    with its smallest lower key.  Then, while a row is undecided, the
    masks that can win it (and, for the exponential mechanism, those that
    can reach its smallest score) are solved.  Once all the masks that can
    win are solved, the binding ones among them are settled in a batch of
    their own, which narrows them to the certificate's width.  If that
    does not decide, the whole family is settled.  Either way the winner
    is the one that fully settled fits give, ties and all.
    """
    mechanism = law.mechanism
    pick = True
    while True:
        if clean is None:
            lo, hi = _score_bounds(law.algorithm, fits, law.n_obs, penalties, models.sizes)
        else:
            lo = hi = clean
        key_hi = keys(hi, lo)
        if lo is hi:
            break
        reach = keys(lo, hi) <= key_hi.min(axis=1, keepdims=True)
        undecided = reach.sum(axis=1) > 1
        if not undecided.any():
            break
        unsolved = np.isinf(fits.upper)
        if pick and unsolved.any():
            # Each row's smallest lower key among the unsolved masks; a
            # key's order within its row does not depend on the row's
            # smallest score.
            pick = False
            lower_keys = np.where(unsolved, keys(lo, lo), np.inf)
            fits.first_pass(np.unique(lower_keys[undecided].argmin(axis=1)))
            continue
        if mechanism == "exponential":
            # Every key moves with the row's smallest score: solve the
            # columns that can reach it too.
            reach |= lo <= hi.min(axis=1, keepdims=True)
        want = reach[undecided].any(axis=0)
        if (want & unsolved).any():
            fits.first_pass(np.flatnonzero(want & unsolved))
        elif (want & ~fits.certified).any():
            fits.settle(np.flatnonzero(want & ~fits.certified))
        else:
            fits.fits()
    return _row_argmin(key_hi, models)


def _select_rows(
    law: _Calibration,
    fits: Fits | LossBounds,
    penalties,
    models: CandidateSet,
    seed: int,
    stream_ids,
    clean: np.ndarray | None = None,
) -> _Picks:
    """The selection core: row ``i`` scores each candidate of ``models``
    with penalty ``penalties[i]``, runs the noise law of row ``i`` of
    ``law`` and is released under ``RngStream(seed, stream_ids[i])``.
    Each row is the release a single select with that penalty, budget and
    stream makes, bit for bit.

    ``fits`` holds one fit per candidate: settled :class:`Fits`, or
    :class:`LossBounds`, of which only the fits the release can depend on
    get solved.  Both read alike (``lower``, ``upper``, ``fits()``), so the
    solver alone says which fits are settled.  Every row runs the
    mechanism with its own sensitivity: the record's width for pcls, and
    for pcpl the proxy that stage 1 releases with the row's first Laplace
    word.  The rows fall into three groups.  A pcpl row with a finite
    epsilon whose proxy is degenerate falls back to a uniform pick.  A row
    with an infinite epsilon (the noiseless limit) draws no noise, never
    falls back and is keyed by its scores alone
    (:func:`~dpms.mechanisms._exact_keys`); this is the one place that
    decides it.  Every other row draws its mechanism's keys at its finite
    epsilon.  Every draw comes back in columns of ``models``, and each
    keyed group comes back with its keys, which a debug report evaluates
    at the settled scores.  A caller that holds the clean-score matrix of
    settled ``fits`` under ``penalties`` passes it as ``clean``, and it is
    not built again.
    """
    penalties = np.asarray(penalties, dtype=np.float64)
    rows, epsilon = len(stream_ids), law.epsilon
    if law.algorithm == "pcls":
        proxy, sensitivity = None, np.full(rows, law.width)
    else:
        # The smallest loss has the bits of the family's own batch only,
        # and any unsettled fit could hold it: the whole family is settled.
        min_loss = fits.fits().neg2_loglik.min()
        proxy = sensitivity = _profile_sensitivity_value(
            min_loss, law, _laplace_rows(seed, stream_ids)
        )
    exact = np.isinf(epsilon)
    fallback = np.isinf(sensitivity) & ~exact
    live = ~(exact | fallback)
    ids = np.asarray(stream_ids, dtype=np.uint64)
    winners = np.empty(rows, dtype=np.intp)
    if fallback.any():
        winners[fallback] = _uniform_rows(seed, ids[fallback].tolist(), models)
    groups = [(exact, _exact_keys)] if exact.any() else []
    if live.any():
        live_ids = ids[live].tolist()
        if law.mechanism == "noisy_argmin":
            scale = 2.0 * sensitivity[live, None] / epsilon[live, None]
            keys = _noisy_keys(scale, models, seed, live_ids)
        else:
            keys = _gumbel_keys(epsilon[live, None], sensitivity[live, None], models, seed,
                                live_ids)
        groups.append((live, keys))
    for group, keys in groups:
        winners[group] = _mechanism_rows(
            law, fits, penalties[group], keys, models, None if clean is None else clean[group]
        )
    return _Picks(winners, fallback, proxy, groups)


def _select(
    algorithm: str,
    dataset: Dataset,
    models: CandidateSet,
    config: SelectionConfig,
    rng: RngStream,
    fits: LossBounds | None = None,
) -> SelectionReport:
    """One row of the selection core, on ``fits`` or on the select's own
    loss bounds.  The record needs only n, r, d and the config, so the
    budget, the penalty and the noise law are checked before any work."""
    budget = config.budget
    _check_budget(algorithm, budget)
    _check_penalty(config.penalty, models.d)
    law = _calibration(
        algorithm, config.mechanism, [budget.epsilon], [budget.delta], dataset.response_bound,
        dataset.n, models.d, config.radius,
    )
    if fits is None:
        fits = bound_masks(sufficient_stats(dataset), models, config.radius)
    picks = _select_rows(law, fits, [config.penalty], models, rng.seed, [rng.stream_id])
    g_of_d = None if picks.g_of_d is None else float(picks.g_of_d[0])
    # Noisy argmin's keys are its noisy scores; a fallback row has none.
    keys = picks.keys[0][1] if picks.keys and config.mechanism == "noisy_argmin" else None

    def scores():
        # Only a debug report reads every score: settle every fit and
        # evaluate the release's own keys at the clean scores.
        clean = _score_matrix(algorithm, fits.fits().neg2_loglik, dataset.n, [config.penalty],
                              models.sizes)
        return _readonly(clean[0]), None if keys is None else _readonly(keys(clean, clean)[0])

    return SelectionReport(
        chosen=models[picks.winners[0]],
        epsilon_total=float(law.epsilon_total[0]),
        delta=budget.delta,
        radius=config.radius,
        penalty=config.penalty,
        response_bound=dataset.response_bound,
        response_bound_data_dependent=dataset.bound_is_data_dependent,
        rng=rng,
        mechanism=config.mechanism,
        fallback_uniform=bool(picks.fallback[0]),
        g_of_d=g_of_d,
        models=models,
        settle_scores=scores,
    )


def pcls_select(
    dataset: Dataset,
    models: CandidateSet,
    config: SelectionConfig,
    rng: RngStream,
) -> SelectionReport:
    """Pick a model by noisy penalized constrained squared error.

    Costs ``config.budget.epsilon`` of pure differential privacy (the
    budget must carry ``delta == 0``).  Scores are ``loss + penalty *
    |model|`` where the loss is the certified constrained residual sum of
    squares; both mechanisms are calibrated to the row-swap sensitivity
    ``(r + R)**2`` plus the public certificate slack ``loss_slack(n, d, r, R)``.
    The budget, the penalty and the noise law are checked before any work.
    """
    return _select("pcls", dataset, models, config, rng)


def _pcls_with_fits(dataset, models, fits, config, rng) -> SelectionReport:
    """:func:`pcls_select` on given loss bounds."""
    return _select("pcls", dataset, models, config, rng, fits)


def pcpl_select(
    dataset: Dataset,
    models: CandidateSet,
    config: SelectionConfig,
    rng: RngStream,
) -> SelectionReport:
    """Pick a model by noisy penalized profile likelihood, two-staged.

    Stage 1 privately releases a sensitivity proxy for the profile score;
    stage 2 runs the configured mechanism with it.  Each stage spends
    ``config.budget.epsilon``, for a total privacy cost of ``(2 *
    config.budget.epsilon, config.budget.delta)``; the budget, the penalty
    and the noise law are checked before any work.  A degenerate stage-1
    release (data that fit too well for the bound to hold) falls back to a
    uniform draw over the candidates, reported via ``fallback_uniform``.
    """
    return _select("pcpl", dataset, models, config, rng)


def _pcpl_with_fits(dataset, models, fits, config, rng) -> SelectionReport:
    """:func:`pcpl_select` on given loss bounds."""
    return _select("pcpl", dataset, models, config, rng, fits)
