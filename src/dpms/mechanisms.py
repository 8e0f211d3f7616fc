"""Randomness plumbing and the private selection primitives.

Two kinds of draws, both deterministic functions of an (seed, stream_id)
pair:

* bulk sampling (``sample_laplace`` and dataset generation elsewhere)
  draws from ``RngStream.generator()``, a numpy Generator seeded from the
  pair;
* per-candidate noise inside the selection mechanisms is keyed by hashing
  (seed, stream_id, tag, mask bits), so a candidate's draw depends on the
  mask's content, never its list position.  Permuting a candidate list
  permutes the realized draws with it, exactly.

The mechanisms work on score matrices: each row is one release with its
own stream, each column one candidate mask.  ``noisy_argmin`` and
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
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .data import ModelMask
from .enumeration import CandidateSet
from .errors import ConfigError, DataError

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

# Domain-separation tags for keyed draws; distinct consumers never share
# a draw even on the same stream.
_TAG_ARGMIN = 1
_TAG_GUMBEL = 2
_TAG_FALLBACK = 3

# Keyed draws hashed between two conversions into the output array; bounds
# the digest list a large block holds at once.
_HASH_CHUNK = 1 << 16


@dataclass(frozen=True)
class RngStream:
    """A named, replayable randomness source.

    Identical (seed, stream_id) pairs reproduce every draw bit-for-bit;
    distinct stream_ids give statistically independent streams.  Streams
    are cheap value objects: derive one per independent private release.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            try:
                k = operator.index(v)
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {v!r}") from None
            if not 0 <= k < _U64:
                raise ConfigError(f"{name} must be a 64-bit non-negative integer, got {v}")
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
        eps = float(self.epsilon)
        delta = float(self.delta)
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


def _keyed_u64_block(seed: int, stream_ids, tag: int, bits) -> np.ndarray:
    """Uniform nonzero 64-bit integers keyed by (stream, tag, mask bits).

    Entry ``[i, j]`` is the first nonzero blake2b-64 digest of the
    little-endian words (seed, stream_ids[i], tag, bits[j], counter) for
    counter = 0, 1, ...  The three leading words are hashed once per row
    and the hash state copied per column; streaming the message in two
    parts gives the same digest as hashing it whole.
    """
    stream_ids = [int(s) for s in stream_ids]
    bits = [int(b) for b in bits]
    out = np.empty((len(stream_ids), len(bits)), dtype=np.uint64)
    suffixes = [struct.pack("<QQ", b, 0) for b in bits]
    rows_per_chunk = max(1, _HASH_CHUNK // len(bits))
    for lo in range(0, len(stream_ids), rows_per_chunk):
        digests = []
        append = digests.append
        for sid in stream_ids[lo:lo + rows_per_chunk]:
            copy = hashlib.blake2b(struct.pack("<QQQ", seed, sid, tag), digest_size=8).copy
            for suffix in suffixes:
                h = copy()
                h.update(suffix)
                append(h.digest())
        block = np.frombuffer(b"".join(digests), dtype="<u8")
        out[lo:lo + rows_per_chunk] = block.reshape(-1, len(bits))
    if not out.all():  # probability 2^-64 per entry
        for i, j in zip(*np.nonzero(out == 0)):
            counter, k = 0, 0
            while not k:
                counter += 1
                message = struct.pack("<QQQQQ", seed, stream_ids[i], tag, bits[j], counter)
                k = int.from_bytes(hashlib.blake2b(message, digest_size=8).digest(), "little")
            out[i, j] = k
    return out


def _uniform_index(rng: RngStream, n: int) -> int:
    """Index uniform on range(n), keyed to the stream's fallback tag."""
    u = int(_keyed_u64_block(rng.seed, [rng.stream_id], _TAG_FALLBACK, [0])[0, 0]) / _U64
    return min(int(u * n), n - 1)


def sample_laplace(rng: RngStream, scale: float, size: int | None = None):
    """Laplace(0, scale) draw(s) via the exact inverse CDF.

    Replayable: the same stream always returns the same values.  Returns a
    float, or an ndarray when ``size`` is given.
    """
    if not (math.isfinite(scale) and scale >= 0):
        raise ConfigError(f"scale must be finite and >= 0, got {scale}")
    if not isinstance(rng, RngStream):
        raise ConfigError(f"rng must be an RngStream, got {type(rng)!r}")
    gen = rng.generator()
    n = 1 if size is None else int(size)
    k = gen.integers(0, _U64, dtype=np.uint64, size=n)
    zero = k == 0
    while zero.any():  # u = 0 endpoint is rejected and redrawn
        k[zero] = gen.integers(0, _U64, dtype=np.uint64, size=int(zero.sum()))
        zero = k == 0
    z = _laplace_from_u64_array(k) * scale
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
    order = np.lexsort((bits, sizes))
    return order[np.argmin(keys[:, order], axis=1)]


def _noisy_argmin_rows(scores, scales, sizes, bits, seed: int, stream_ids):
    """Report-noisy-argmin on each row of a score matrix.

    Row ``i`` perturbs every score by its own Laplace draw keyed by
    ``(seed, stream_ids[i])`` and the column's mask bits, scaled by
    ``scales``.  ``scores`` and ``scales`` broadcast against the
    (rows x masks) matrix; an all-zero scale is the noiseless limit and
    draws nothing.  Returns (winning column per row, noisy scores).
    """
    if np.any(scales):
        words = _keyed_u64_block(seed, stream_ids, _TAG_ARGMIN, bits)
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
        words = _keyed_u64_block(seed, stream_ids, _TAG_GUMBEL, bits)
        keys = -(logw + _gumbel_from_u64_array(words))
    return _row_argmin(keys, sizes, bits), keys


def noisy_argmin(candidates, budget: PrivacyBudget, rng: RngStream):
    """Report-noisy-argmin: perturb each score by its own Laplace noise and
    return (chosen mask, realized noisy scores, in input order).

    Each candidate's ``noise_scale`` must already equal
    2 * sensitivity / epsilon; with per-candidate independent draws that
    makes the argmin epsilon-DP.  Draws are keyed by mask content, so the
    same stream gives the same mask the same noise in any list order.
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
    contract.  Sampling uses per-candidate Gumbel draws keyed by mask
    content (argmax of log-weight + Gumbel is an exact softmax sample).
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

