"""Randomness plumbing and the private selection primitives.

Every noise variate of a selection comes from one keyed primitive:
SHAKE-256 (NIST FIPS 202) over the 16-byte little-endian seed and the
little-endian 64-bit words (stream_id, tag), read out as little-endian
64-bit words.  Distinct tags keep distinct consumers from sharing a draw,
and one read serves a whole row:

* the mechanisms work on score matrices, each row one release with its
  own stream and each column one candidate mask.  Row ``i`` reads one
  word per candidate, and word ``r`` goes to the candidate of rank ``r``
  in the family's canonical order (by size, then bit value).  Permuting a
  candidate list permutes the realized draws with it, exactly; a draw
  depends on its mask's rank within the public family, not on the list
  position.
* pcpl's stage-1 Laplace variates (:func:`_laplace_rows`) and its uniform
  fallback (:func:`_uniform_rows`) read the first word of each row's
  stream under their own tags; ``sample_laplace`` reads the first words
  of one stream's Laplace tag.

``RngStream.generator()``, a numpy Generator seeded from the same pair,
serves only synthetic data generation.  ``noisy_argmin`` and
``exponential_mechanism`` are the one-row case over a list of
candidates.  Every Laplace variate comes from one inverse-CDF transform of
a 64-bit integer k (k = 0 rejected): ``log(k / 2^63)`` on the lower half
and ``-log((2^64 - k) / 2^63)`` on the upper, computed from integers so
the tails lose no precision.  Exact score ties go to the smallest model,
then the smallest bit value, whatever the column order.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import ModelMask
from .enumeration import CandidateSet
from .errors import ConfigError, DataError, _integer, _real

__all__ = [
    "PrivacyBudget",
    "RngStream",
    "ScoredCandidate",
    "sample_laplace",
    "noisy_argmin",
    "exponential_mechanism",
]

_U64 = 1 << 64
_HALF = 1 << 63
_SEED_LIMIT = 1 << 128

# Domain-separation tags for keyed draws; distinct consumers never share
# a draw even on the same stream.
_TAG_ARGMIN = 1
_TAG_GUMBEL = 2
_TAG_FALLBACK = 3
_TAG_LAPLACE = 4

_STREAM_TAG = struct.Struct("<QQ")


@dataclass(frozen=True)
class RngStream:
    """A named, replayable randomness source.

    Identical (seed, stream_id) pairs reproduce every draw bit-for-bit;
    distinct stream_ids give statistically independent streams.  The seed
    is a 128-bit key, the stream id a 64-bit word.  Streams are cheap value
    objects: derive one per independent private release.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name, limit, width in (("seed", _SEED_LIMIT, 128), ("stream_id", _U64, 64)):
            v = getattr(self, name)
            k = _integer(name, v)
            if not 0 <= k < limit:
                raise ConfigError(f"{name} must be a {width}-bit non-negative integer, got {v}")
            object.__setattr__(self, name, k)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator; same stream, same sequence, every time."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, self.stream_id])
        )


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) pair; delta = 0 means pure epsilon-DP.

    epsilon = inf is the documented noiseless sentinel (exact, non-private
    output); finite epsilon must be positive.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        eps = _real("epsilon", self.epsilon)
        delta = _real("delta", self.delta)
        if math.isnan(eps) or eps <= 0:
            raise ConfigError(f"epsilon must be > 0 (or inf), got {self.epsilon}")
        if not 0.0 <= delta < 1.0:
            raise ConfigError(f"delta must be in [0, 1), got {self.delta}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate model, its (lower-is-better) score, and the Laplace
    scale already calibrated by the caller (2 * sensitivity / epsilon).
    A zero scale is the noiseless limit used by the epsilon = inf path."""

    mask: ModelMask
    score: float
    noise_scale: float

    def __post_init__(self) -> None:
        if not math.isfinite(float(self.score)):
            raise DataError(f"candidate score must be finite, got {self.score}")
        if not (math.isfinite(float(self.noise_scale)) and self.noise_scale >= 0):
            raise DataError(
                f"noise_scale must be finite and >= 0, got {self.noise_scale}"
            )


def _laplace_from_u64_array(k: np.ndarray) -> np.ndarray:
    """Standard Laplace variates from uniform 64-bit integers, all != 0."""
    small = k < np.uint64(_HALF)
    comp = np.bitwise_not(k) + np.uint64(1)  # 2^64 - k, exact for k >= 1
    arg = np.where(small, k, comp).astype(np.float64) / float(_HALF)
    return np.where(small, 1.0, -1.0) * np.log(arg)


def _gumbel_from_u64_array(k: np.ndarray) -> np.ndarray:
    """Standard Gumbel variates from uniform 64-bit integers, all != 0."""
    # u = k / 2^64; -log(u) via log1p of the exact complement so u -> 1
    # loses nothing.
    comp = np.bitwise_not(k) + np.uint64(1)
    e = -np.log1p(-(comp.astype(np.float64) / float(_U64)))
    return -np.log(e)


def _canonical_order(sizes: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Column positions of a family sorted by size, then by bit value."""
    return np.lexsort((bits, sizes))


def _xof_words(seed: int, stream_ids, tag: int, count: int) -> np.ndarray:
    """Uniform nonzero 64-bit words, ``count`` per stream, one read each.

    Row ``i`` holds the first ``count`` little-endian words of SHAKE-256
    over the 16-byte little-endian seed and the words (stream_ids[i], tag).
    A zero word (probability 2^-64) is rejected: the t-th zero of a row
    takes the t-th nonzero word read past the first ``count`` of the same
    stream.
    """
    key = seed.to_bytes(16, "little")
    shake = hashlib.shake_256
    pack = _STREAM_TAG.pack
    messages = [key + pack(sid, tag) for sid in stream_ids]
    raw = b"".join([shake(message).digest(8 * count) for message in messages])
    words = np.frombuffer(raw, dtype="<u8").reshape(len(messages), count)
    if words.all():
        return words
    words = words.copy()
    for i in np.flatnonzero(~words.all(axis=1)):
        zeros = np.flatnonzero(words[i] == 0)
        spare = np.empty(0, dtype=np.uint64)
        read = count
        while spare.size < zeros.size:
            read += zeros.size - spare.size
            tail = np.frombuffer(shake(messages[i]).digest(8 * read), dtype="<u8")[count:]
            spare = tail[tail != 0]
        words[i, zeros] = spare[:zeros.size]
    return words


def _keyed_u64_block(seed: int, stream_ids, tag: int, sizes, bits) -> np.ndarray:
    """Uniform nonzero 64-bit integers keyed by (stream, tag, candidate rank).

    Entry ``[i, j]`` is word ``r`` of row ``i``'s stream
    (:func:`_xof_words`), where ``r`` is column ``j``'s rank in the
    family's canonical order; reordering the columns reorders the entries
    with them.
    """
    order = _canonical_order(sizes, bits)
    words = _xof_words(seed, stream_ids, tag, len(order))
    out = np.empty(words.shape, dtype=np.uint64)
    out[:, order] = words
    return out


def _laplace_rows(seed: int, stream_ids) -> np.ndarray:
    """One standard Laplace variate per stream: the first word of its
    Laplace tag, the draw ``sample_laplace(RngStream(seed, sid), 1.0)``
    returns."""
    return _laplace_from_u64_array(_xof_words(seed, stream_ids, _TAG_LAPLACE, 1)[:, 0])


def _uniform_rows(seed: int, stream_ids, n: int) -> np.ndarray:
    """One index uniform on range(n) per stream, from the first word
    ``k`` of its fallback tag: ``min(int(k / 2^64 * n), n - 1)``."""
    u = _xof_words(seed, stream_ids, _TAG_FALLBACK, 1)[:, 0].astype(np.float64) / float(_U64)
    return np.minimum((u * n).astype(np.intp), n - 1)


def sample_laplace(rng: RngStream, scale: float, size: int | None = None):
    """Laplace(0, scale) draw(s) via the exact inverse CDF.

    The draws are the first words of the stream's Laplace tag, so the same
    stream always returns the same values.  Returns a float, or an ndarray
    of ``size`` draws when ``size`` (a non-negative integer) is given.
    """
    if not (math.isfinite(scale) and scale >= 0):
        raise ConfigError(f"scale must be finite and >= 0, got {scale}")
    if not isinstance(rng, RngStream):
        raise ConfigError(f"rng must be an RngStream, got {type(rng)!r}")
    if size is None:
        n = 1
    else:
        n = _integer("size", size)
        if n < 0:
            raise ConfigError(f"size must be non-negative, got {size}")
    words = _xof_words(rng.seed, [rng.stream_id], _TAG_LAPLACE, n)[0]
    z = _laplace_from_u64_array(words) * scale
    return float(z[0]) if size is None else z


def _candidate_family(candidates) -> tuple[list[ScoredCandidate], CandidateSet]:
    """The candidates as a list and their masks as a family; an empty
    list, mixed dimensions or a repeated mask raise DataError."""
    cands = list(candidates)
    if not cands:
        raise DataError("need at least one candidate")
    d = cands[0].mask.d
    if any(c.mask.d != d for c in cands):
        raise DataError("candidates mix masks of different dimensions")
    return cands, CandidateSet([c.mask.bits for c in cands], d)


def _row_argmin(keys: np.ndarray, sizes: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Column of the smallest key in each row of ``keys``.

    Exact ties go to the smallest model, then the smallest bit value, so
    the winner does not depend on the column order.
    """
    order = _canonical_order(sizes, bits)
    return order[np.argmin(keys[:, order], axis=1)]


def _noisy_argmin_rows(scores, scales, sizes, bits, seed: int, stream_ids):
    """Report-noisy-argmin on each row of a score matrix.

    Row ``i`` perturbs every score by its own Laplace draw keyed by
    ``(seed, stream_ids[i])`` and the column's canonical rank, scaled by
    ``scales``.  ``scores`` and ``scales`` broadcast against the
    (rows x masks) matrix; an all-zero scale is the noiseless limit and
    draws nothing.  Returns (winning column per row, noisy scores).
    """
    if np.any(scales):
        words = _keyed_u64_block(seed, stream_ids, _TAG_ARGMIN, sizes, bits)
        noisy = scores + scales * _laplace_from_u64_array(words)
    else:
        noisy = scores + np.zeros((len(stream_ids), len(bits)))
    return _row_argmin(noisy, sizes, bits), noisy


def _gumbel_argmin_rows(scores, epsilon: float, sensitivity, sizes, bits, seed: int, stream_ids):
    """Exponential-mechanism sample on each row of a score matrix.

    Row ``i`` draws one Gumbel variate per column keyed like
    :func:`_noisy_argmin_rows` (under its own tag) and returns the argmin
    of ``-(log-weight + Gumbel)``, an exact sample with probability
    proportional to ``exp(-epsilon * score / (2 * sensitivity))``.
    ``scores`` broadcasts against the (rows x masks) matrix and
    ``sensitivity`` may hold one value per row.  ``epsilon = inf`` keys by
    the scores themselves.  Returns (winning column per row, keys).
    """
    if math.isinf(epsilon):
        keys = scores + np.zeros((len(stream_ids), len(bits)))
    else:
        # Subtracting each row's minimum gives the best candidate the
        # weight exp(0) = 1: no normalization and no underflow.
        low = scores.min(axis=1, keepdims=True)
        logw = -epsilon * (scores - low) / (2.0 * sensitivity)
        words = _keyed_u64_block(seed, stream_ids, _TAG_GUMBEL, sizes, bits)
        keys = -(logw + _gumbel_from_u64_array(words))
    return _row_argmin(keys, sizes, bits), keys


def noisy_argmin(candidates, budget: PrivacyBudget, rng: RngStream):
    """Report-noisy-argmin: perturb each score by its own Laplace noise and
    return (chosen mask, realized noisy scores, in input order).

    Each candidate's ``noise_scale`` must already equal
    2 * sensitivity / epsilon; with per-candidate independent draws that
    makes the argmin epsilon-DP.  Draws are keyed by each mask's rank in
    the family's canonical order, so the same stream gives the same mask
    the same noise in any list order.
    """
    if budget.delta != 0.0:
        raise ConfigError("noisy_argmin is a pure-epsilon mechanism; delta must be 0")
    cands, family = _candidate_family(candidates)
    scores = np.array([[c.score for c in cands]], dtype=np.float64)
    scales = np.array([[c.noise_scale for c in cands]], dtype=np.float64)
    winners, noisy = _noisy_argmin_rows(
        scores, scales, family.sizes, family.bits, rng.seed, [rng.stream_id]
    )
    return cands[winners[0]].mask, noisy[0]


def exponential_mechanism(candidates, sensitivity: float, budget: PrivacyBudget, rng: RngStream):
    """Sample a mask with probability proportional to
    exp(-epsilon * score / (2 * sensitivity)); lower scores are better.

    Returns (chosen mask, realized sampling keys).  Keys are oriented so
    the chosen mask is their argmin, mirroring noisy_argmin's output
    contract.  Sampling uses per-candidate Gumbel draws keyed by canonical
    rank (argmax of log-weight + Gumbel is an exact softmax sample).
    """
    if budget.delta != 0.0:
        raise ConfigError("exponential_mechanism is a pure-epsilon mechanism; delta must be 0")
    if not (math.isfinite(sensitivity) and sensitivity > 0):
        raise ConfigError(f"sensitivity must be finite and > 0, got {sensitivity}")
    cands, family = _candidate_family(candidates)
    scores = np.array([[c.score for c in cands]], dtype=np.float64)
    winners, keys = _gumbel_argmin_rows(
        scores, budget.epsilon, sensitivity, family.sizes, family.bits, rng.seed, [rng.stream_id]
    )
    return cands[winners[0]].mask, keys[0]

