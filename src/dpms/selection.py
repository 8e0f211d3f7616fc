"""Private model selection over a candidate family.

Two release paths share one shape: fit every candidate on the caller's
data, score it, and let a mechanism pick a winner.

* :func:`pcls_select` scores by penalized constrained squared error and
  pays ``epsilon`` of pure differential privacy.  The score's sensitivity
  is the global bound ``(r + R)**2``, which no dataset can exceed.
* :func:`pcpl_select` scores by the penalized profile likelihood, whose
  global sensitivity is unbounded.  It spends half its budget measuring a
  data-dependent sensitivity proxy and the other half selecting with it,
  for a total cost of ``(2 * epsilon, delta)``.  When the measured proxy
  is degenerate the winner is drawn uniformly instead; the report says so.

Both paths draw every noise variate from a caller-supplied
:class:`~dpms.mechanisms.RngStream`, so a fixed (seed, stream) pair replays
the exact selection byte for byte.  They share one array core,
:func:`_select_rows`, which runs one selection per row of a score matrix;
a single select is its one-row case, and the sweep harness scores a whole
penalty grid per fit through it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, ModelMask, _readonly, member_matrix, sufficient_stats
from .enumeration import CandidateSet
from .errors import ConfigError, DataError, _real
from .mechanisms import (
    PrivacyBudget,
    RngStream,
    _gumbel_argmin_rows,
    _laplace_rows,
    _noisy_argmin_rows,
    _uniform_rows,
)

# The list-based mechanisms and the one-stream Laplace draw stay
# importable from this module, where perfbench/bench_trace.py looks them up.
from .mechanisms import exponential_mechanism, noisy_argmin, sample_laplace  # noqa: F401
from .solver import Fits, fit_masks, profile_neg2_loglik

__all__ = [
    "SelectionConfig",
    "SelectionReport",
    "ls_sensitivity",
    "pcls_select",
    "pcpl_select",
]

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
        ``pcpl_select`` spends ``(2 * epsilon, delta)`` total and requires
        ``0 < delta < 1``.
    mechanism
        ``"noisy_argmin"`` adds Laplace noise to every score and takes the
        minimum; ``"exponential"`` samples from the softmax over negated
        scores.  Both satisfy the same budget.
    stage1_fraction
        Share of the total ``2 * epsilon`` budget that ``pcpl_select``
        spends on its sensitivity measurement.
    """

    radius: float
    penalty: float
    budget: PrivacyBudget
    mechanism: str = "noisy_argmin"
    stage1_fraction: float = 0.5

    def __post_init__(self) -> None:
        radius = _real("radius", self.radius)
        if not (math.isfinite(radius) and radius > 0):
            raise ConfigError(f"radius must be a positive finite float, got {self.radius}")
        penalty = _real("penalty", self.penalty)
        if not (math.isfinite(penalty) and penalty >= 0):
            raise ConfigError(f"penalty must be a nonnegative finite float, got {self.penalty}")
        if not isinstance(self.budget, PrivacyBudget):
            raise ConfigError(f"budget must be a PrivacyBudget, got {self.budget!r}")
        if self.mechanism not in _MECHANISMS:
            raise ConfigError(
                f"mechanism must be one of {_MECHANISMS}, got {self.mechanism!r}"
            )
        if not 0.0 < _real("stage1_fraction", self.stage1_fraction) < 1.0:
            raise ConfigError(
                f"stage1_fraction must lie strictly between 0 and 1, got {self.stage1_fraction}"
            )


def ls_sensitivity(response_bound: float, radius: float) -> float:
    """Worst-case change of the constrained squared error under one row swap.

    A single row contributes ``(y_i - x_i @ beta)**2`` to the loss, and with
    |y| <= r, |x| <= 1 (entrywise) and |beta|_1 <= R the residual magnitude
    is at most ``r + R``.  Replacing one row therefore moves the loss by at
    most ``(r + R)**2``, whatever the rest of the data looks like.
    """
    if not (math.isfinite(response_bound) and response_bound > 0):
        raise ConfigError(f"response_bound must be positive and finite, got {response_bound}")
    if not (math.isfinite(radius) and radius > 0):
        raise ConfigError(f"radius must be positive and finite, got {radius}")
    return (response_bound + radius) ** 2


def _check_delta(algorithm: str, delta: float) -> None:
    """pcls spends a pure budget (delta = 0); pcpl spends its delta on
    stage 1's safety margin, which needs 0 < delta < 1."""
    if algorithm == "pcls" and delta != 0.0:
        raise ConfigError(f"pcls spends a pure budget and needs delta == 0, got {delta}")
    if algorithm == "pcpl" and not 0.0 < delta < 1.0:
        raise ConfigError(f"pcpl needs delta strictly inside (0, 1), got {delta}")


def _profile_sensitivity_value(
    min_loss: float,
    n_obs: int,
    response_bound: float,
    radius: float,
    stage1_epsilon: float,
    delta: float,
    laplace_units,
) -> np.ndarray:
    """Noisy upper bounds on the profile score's local sensitivity, one
    per standard Laplace variate in the array ``laplace_units``.

    Starts from the deterministic bound ``n * w / (min_loss - w)`` with
    ``w = (r + R)**2``, then perturbs the denominator with calibrated
    Laplace noise plus a ``log(1 / (2 * delta))`` safety margin so the
    released value is itself private and exceeds the true local
    sensitivity except with probability ``delta``.  A nonpositive
    denominator means the data fit too well for the bound to say anything;
    the sentinel ``inf`` signals that.
    """
    units = np.asarray(laplace_units, dtype=np.float64)
    width = (response_bound + radius) ** 2
    shift = np.zeros(units.shape)
    if math.isfinite(stage1_epsilon):
        shift = width * (units - math.log(1.0 / (2.0 * delta))) / stage1_epsilon
    denominator = min_loss - width + shift
    out = np.full(units.shape, np.inf)
    return np.divide(n_obs * width, denominator, out=out, where=denominator > 0.0)


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Everything a run releases, plus replay metadata.

    ``g_of_d`` is ``None`` on the pure path, the released sensitivity
    proxy on the two-stage path, and ``math.inf`` when that proxy was
    degenerate (in which case ``fallback_uniform`` is True and the winner
    was drawn uniformly).

    Entry ``j`` of the read-only ``clean_scores`` and ``noisy_scores``
    scores candidate ``j`` of ``models``.  ``clean_scores`` are NOT
    privatized: they exist for debugging and for noiseless-agreement
    bookkeeping, and serialization drops them unless explicitly told
    otherwise.  ``noisy_scores`` is ``None`` when the winner came from the
    exponential mechanism or the uniform fallback, which have no
    per-candidate noisy score.
    """

    chosen: ModelMask
    epsilon_total: float
    delta: float
    radius: float
    penalty: float
    response_bound: float
    response_bound_data_dependent: bool
    rng: RngStream
    mechanism: str
    fallback_uniform: bool
    g_of_d: float | None
    models: CandidateSet
    clean_scores: np.ndarray
    noisy_scores: np.ndarray | None

    def to_json_dict(self, include_clean_scores: bool = False) -> dict:
        """Schema-stable dict.  Clean scores are redacted by default.

        ``g_of_d`` appears only for two-stage runs; a degenerate proxy
        serializes as JSON null.  ``seed`` is always the two-element pair
        ``[seed, stream_id]``.  A noiseless run's infinite budget has no
        JSON number, so it serializes as the string "inf".
        """
        out: dict = {
            "chosen": list(self.chosen.indices()),
            "epsilon_total": self.epsilon_total if math.isfinite(self.epsilon_total) else "inf",
            "delta": self.delta,
            "R": self.radius,
            "phi_n": self.penalty,
            "r": self.response_bound,
            "r_data_dependent": self.response_bound_data_dependent,
            "seed": [self.rng.seed, self.rng.stream_id],
            "mechanism": self.mechanism,
            "fallback_uniform": self.fallback_uniform,
        }
        if self.g_of_d is not None:
            out["g_of_d"] = None if math.isinf(self.g_of_d) else self.g_of_d
        # Every mask's 1-based indices, cut from one flat list of the
        # membership matrix's columns.
        columns = (np.nonzero(member_matrix(self.models.bits, self.models.d))[1] + 1).tolist()
        ends = np.cumsum(self.models.sizes).tolist()
        masks = [columns[end - size:end] for end, size in zip(ends, self.models.sizes.tolist())]
        noisy = [None] * len(masks) if self.noisy_scores is None else self.noisy_scores.tolist()
        rows = zip(masks, noisy, self.clean_scores.tolist())
        if include_clean_scores:
            out["models"] = [{"mask": m, "noisy_score": ns, "clean_score": cs} for m, ns, cs in rows]
        else:
            out["models"] = [{"mask": m, "noisy_score": ns} for m, ns, _ in rows]
        return out

    def to_json(self, include_clean_scores: bool = False) -> str:
        text = json.dumps(
            self.to_json_dict(include_clean_scores=include_clean_scores),
            indent=2,
            allow_nan=False,
        )
        return text + "\n"


class _Picks(NamedTuple):
    """One private selection per row of a score matrix."""

    winners: np.ndarray  # winning column of each row
    noisy: np.ndarray | None  # noisy scores (noisy_argmin only); NaN on fallback rows
    fallback: np.ndarray  # True where pcpl's uniform fallback picked the winner
    g_of_d: np.ndarray | None  # pcpl's released sensitivity proxy of each row


def _score_matrix(algorithm: str, fits: Fits, n_obs: int, penalties, sizes: np.ndarray) -> np.ndarray:
    """Clean scores, one row per penalty phi: the constrained loss (pcls)
    or the profile score (pcpl) of each fit, plus ``phi * |model|``."""
    if algorithm == "pcls":
        base = fits.neg2_loglik
    else:
        base = profile_neg2_loglik(fits.neg2_loglik, n_obs)
    return base + np.asarray(penalties, dtype=np.float64)[:, None] * sizes


def _stage_epsilons(config: SelectionConfig) -> tuple[float, float]:
    """pcpl's (stage 1, stage 2) split of its ``2 * epsilon`` budget;
    both are infinite in the noiseless limit."""
    if math.isinf(config.budget.epsilon):
        return math.inf, math.inf
    epsilon_total = 2.0 * config.budget.epsilon
    stage1_epsilon = epsilon_total * config.stage1_fraction
    return stage1_epsilon, epsilon_total - stage1_epsilon


def _mechanism_rows(clean, sensitivity, epsilon, mechanism, models, seed, stream_ids):
    sizes, bits = models.sizes, models.bits
    if mechanism == "noisy_argmin":
        scale = 0.0 if math.isinf(epsilon) else 2.0 * sensitivity / epsilon
        return _noisy_argmin_rows(clean, scale, sizes, bits, seed, stream_ids)
    winners, _keys = _gumbel_argmin_rows(clean, epsilon, sensitivity, sizes, bits, seed, stream_ids)
    # Softmax sampling has no per-candidate noisy score to report.
    return winners, None


def _select_rows(
    algorithm: str,
    fits: Fits,
    clean: np.ndarray,
    bound: float,
    n_obs: int,
    config: SelectionConfig,
    models: CandidateSet,
    seed: int,
    stream_ids,
) -> _Picks:
    """The selection core: row ``i`` of ``clean`` is released under
    ``RngStream(seed, stream_ids[i])``.

    Column ``j`` of ``clean`` scores candidate ``j`` of ``models``.
    ``config`` supplies the radius, budget, mechanism and stage-1 split;
    its penalty is already inside ``clean``.  Every row runs the configured
    mechanism with its own sensitivity: ``(r + R)**2`` for pcls, and for
    pcpl the proxy that stage 1 releases with the row's first Laplace
    word.  A pcpl row whose proxy is degenerate falls back to a uniform
    pick instead; its noiseless limit (epsilon = inf) never falls back.
    """
    if not np.isfinite(clean).all():
        raise DataError("candidate scores must be finite")
    rows = len(stream_ids)
    if algorithm == "pcls":
        epsilon, proxy = config.budget.epsilon, None
        sensitivity = np.full(rows, ls_sensitivity(bound, config.radius))
    else:
        stage1_epsilon, epsilon = _stage_epsilons(config)
        proxy = sensitivity = _profile_sensitivity_value(
            float(fits.neg2_loglik.min()), n_obs, bound, config.radius, stage1_epsilon,
            config.budget.delta, _laplace_rows(seed, stream_ids),
        )
    fallback = np.isinf(sensitivity) & math.isfinite(epsilon)
    kept = ~fallback
    winners = np.empty(rows, dtype=np.intp)
    kept_clean, kept_ids = clean, stream_ids
    if fallback.any():
        ids = np.asarray(stream_ids, dtype=np.uint64)
        winners[fallback] = _uniform_rows(seed, ids[fallback].tolist(), clean.shape[1])
        kept_clean, kept_ids = clean[kept], ids[kept].tolist()
    noisy = None
    if len(kept_ids):
        winners[kept], noisy = _mechanism_rows(
            kept_clean, sensitivity[kept, None], epsilon, config.mechanism, models, seed, kept_ids
        )
    if noisy is not None and fallback.any():
        # Fallback rows have no noisy scores.
        full = np.full(clean.shape, np.nan)
        full[kept] = noisy
        noisy = full
    return _Picks(winners, noisy, fallback, proxy)


def _select_with_fits(
    algorithm: str,
    dataset: Dataset,
    models: CandidateSet,
    fits: Fits,
    config: SelectionConfig,
    rng: RngStream,
) -> SelectionReport:
    # One row of the selection core, on fits that depend only on (data,
    # radius): the sweep harness reuses one batch of fits across its whole
    # penalty-by-budget grid.
    _check_delta(algorithm, config.budget.delta)
    clean = _score_matrix(algorithm, fits, dataset.n, [config.penalty], models.sizes)
    picks = _select_rows(
        algorithm, fits, clean, dataset.response_bound, dataset.n, config, models,
        rng.seed, [rng.stream_id],
    )
    if algorithm == "pcls":
        epsilon_total = config.budget.epsilon
        g_of_d = None
    else:
        # Sequential composition: the stages' epsilons add, and delta is
        # spent once, by stage 1's safety margin.
        stage1_epsilon, stage2_epsilon = _stage_epsilons(config)
        epsilon_total = stage1_epsilon + stage2_epsilon
        g_of_d = float(picks.g_of_d[0])
    fallback = bool(picks.fallback[0])
    return SelectionReport(
        chosen=models[picks.winners[0]],
        epsilon_total=epsilon_total,
        delta=config.budget.delta,
        radius=config.radius,
        penalty=config.penalty,
        response_bound=dataset.response_bound,
        response_bound_data_dependent=dataset.bound_is_data_dependent,
        rng=rng,
        mechanism=config.mechanism,
        fallback_uniform=fallback,
        g_of_d=g_of_d,
        models=models,
        clean_scores=_readonly(clean[0]),
        noisy_scores=None if picks.noisy is None or fallback else _readonly(picks.noisy[0]),
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
    |model|`` where the loss is the constrained residual sum of squares;
    both mechanisms are calibrated to the row-swap sensitivity
    ``(r + R)**2``.
    """
    stats = sufficient_stats(dataset)
    fits = fit_masks(stats, models, config.radius)
    return _pcls_with_fits(dataset, models, fits, config, rng)


def _pcls_with_fits(
    dataset: Dataset,
    models: CandidateSet,
    fits: Fits,
    config: SelectionConfig,
    rng: RngStream,
) -> SelectionReport:
    return _select_with_fits("pcls", dataset, models, fits, config, rng)


def pcpl_select(
    dataset: Dataset,
    models: CandidateSet,
    config: SelectionConfig,
    rng: RngStream,
) -> SelectionReport:
    """Pick a model by noisy penalized profile likelihood, two-staged.

    Stage 1 privately releases a sensitivity proxy for the profile score;
    stage 2 runs the configured mechanism with it.  Total privacy cost is
    ``(2 * config.budget.epsilon, config.budget.delta)``, split by
    ``config.stage1_fraction``.  A degenerate stage-1 release (data that
    fit too well for the bound to hold) falls back to a uniform draw over
    the candidates, reported via ``fallback_uniform``.
    """
    stats = sufficient_stats(dataset)
    fits = fit_masks(stats, models, config.radius)
    return _pcpl_with_fits(dataset, models, fits, config, rng)


def _pcpl_with_fits(
    dataset: Dataset,
    models: CandidateSet,
    fits: Fits,
    config: SelectionConfig,
    rng: RngStream,
) -> SelectionReport:
    return _select_with_fits("pcpl", dataset, models, fits, config, rng)
