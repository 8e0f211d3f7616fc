"""Candidate model families.

Selection is only as good as the family it searches: if the model you hope
to find is not among the candidates, no mechanism will pick it.  Keeping
the family small also helps — every extra candidate is another noisy score
that can win by accident.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import _MAX_MASK_D, ModelMask
from .errors import ConfigError, DataError, _integer

__all__ = ["CandidateSet", "all_subsets", "from_explicit"]

# 2^24 masks is already a 16-million-model search; anything larger is
# almost certainly a mistake, not a plan.
_MAX_D = 24


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """An ordered, duplicate-free family of masks over d covariates.

    ``bits[j]`` is the bit-set of candidate ``j`` (the encoding of
    :class:`~dpms.data.ModelMask`) and ``sizes[j]`` its cardinality; both
    are read-only arrays.  Indexing and iteration build ``ModelMask``
    objects on demand.  ``canonical_order`` sorts the family by size, then
    by bit value, the order that keys its noise and breaks its ties.
    """

    bits: np.ndarray
    d: int
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.d <= _MAX_MASK_D:
            raise DataError(f"mask dimension must be in [1, {_MAX_MASK_D}], got {self.d}")
        bits = np.asarray(self.bits)
        if bits.dtype.kind not in "iu":
            # Python ints past int64 arrive as a float or object array.
            try:
                bits = np.array([operator.index(b) for b in self.bits], dtype=np.uint64)
            except (TypeError, OverflowError):
                raise DataError(f"mask bits must be integers in [0, 2^{self.d})") from None
        elif bits.dtype.kind == "i" and bits.size and bits.min() < 0:
            raise DataError(f"mask bits must be integers in [0, 2^{self.d})")
        bits = bits.astype(np.uint64)
        if not bits.size:
            raise DataError("candidate set must contain at least one model")
        if self.d < _MAX_MASK_D and np.any(bits >> np.uint64(self.d)):
            raise DataError(f"mask bits out of range for d={self.d} in candidate set")
        values, counts = np.unique(bits, return_counts=True)
        if counts.max() > 1:
            dup = ModelMask(int(values[np.argmax(counts > 1)]), self.d)
            raise DataError(f"duplicate mask {dup.indices()} in candidate set")
        bits.setflags(write=False)
        sizes = np.bitwise_count(bits).astype(np.int64)
        sizes.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "sizes", sizes)

    @cached_property
    def canonical_order(self) -> np.ndarray | None:
        """Positions of the candidates by size, then by bit value; None
        when the family is in that order already, as every
        :func:`all_subsets` family is.  Computed once per family."""
        sizes, bits = self.sizes, self.bits
        grows = sizes[1:] > sizes[:-1]
        if np.all(grows | ((sizes[1:] == sizes[:-1]) & (bits[1:] > bits[:-1]))):
            return None
        order = np.lexsort((bits, sizes))
        order.setflags(write=False)
        return order

    def __len__(self) -> int:
        return self.bits.size

    def __getitem__(self, i) -> ModelMask:
        return ModelMask(int(self.bits[i]), self.d)

    def __iter__(self):
        return (ModelMask(b, self.d) for b in self.bits.tolist())


def all_subsets(
    d: int, include_empty: bool = False, max_size: int | None = None
) -> CandidateSet:
    """Every subset of {1..d} up to ``max_size``, smallest models first.

    Order is deterministic: by cardinality, then by numeric bit value, so
    printed reports and frozen test expectations never shuffle.  ``d`` is
    capped at 24.
    """
    d = _integer("d", d)
    if not 1 <= d <= _MAX_D:
        raise ConfigError(f"d must be in [1, {_MAX_D}] for exhaustive enumeration, got {d}")
    cap = d if max_size is None else _integer("max_size", max_size)
    if not 0 <= cap <= d:
        raise ConfigError(f"max_size must be in [0, {d}], got {max_size}")
    if cap == 0 and not include_empty:
        raise ConfigError("max_size=0 without include_empty leaves no candidates")
    # Level k in value order from level k - 1: for each top bit t in turn,
    # the masks of level k - 1 below 2^t (a prefix), plus bit t.
    tops = np.uint64(1) << np.arange(d, dtype=np.uint64)
    levels = [np.zeros(1, dtype=np.uint64)]
    for _ in range(cap):
        prev = levels[-1]
        cuts = np.searchsorted(prev, tops)
        ends = np.cumsum(cuts)
        within = np.arange(ends[-1]) - np.repeat(ends - cuts, cuts)
        levels.append(prev[within] | np.repeat(tops, cuts))
    return CandidateSet(np.concatenate(levels[0 if include_empty else 1:]), d)


def from_explicit(index_sets, d: int) -> CandidateSet:
    """Build a family from 1-based index collections, in caller order.

    Later duplicates (same subset, any index order) collapse into the
    first occurrence.
    """
    bits = dict.fromkeys(ModelMask.from_indices(idx, d).bits for idx in index_sets)
    if not bits:
        raise DataError("no candidate models given")
    return CandidateSet(list(bits), d)
