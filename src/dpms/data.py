"""Bounded regression data and the sufficient statistics scoring runs on.

Everything downstream calibrates noise under two bounds: every design entry
satisfies ``|x[i, j]| <= 1`` and every response satisfies
``|y[i]| <= response_bound``.  :class:`Dataset` enforces both as hard
errors; :func:`standardize` builds conforming arrays from raw data under an
explicit policy.  :class:`SufficientStats` carries (X'X, X'y, y'y, n), which
is all the solver ever reads, so one pass over the data serves every
candidate model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

# Keyed noise draws hash a mask's bits as one 64-bit word, so a mask
# covers at most 64 covariates.
_MAX_MASK_D = 64

__all__ = [
    "ModelMask",
    "Dataset",
    "SufficientStats",
    "standardize",
    "sufficient_stats",
    "load_csv",
]


@dataclass(frozen=True)
class ModelMask:
    """A subset of the ``d`` covariates, stored as a bit-set.

    Bit ``j`` (0-based) set means covariate ``j + 1`` (1-based, the
    user-facing numbering) is in the model.  Equality and hashing depend
    only on (bits, d), so masks are order-free and usable as dict keys.
    """

    bits: int
    d: int

    def __post_init__(self) -> None:
        if not 1 <= self.d <= _MAX_MASK_D:
            raise DataError(f"mask dimension must be in [1, {_MAX_MASK_D}], got {self.d}")
        if not 0 <= self.bits < (1 << self.d):
            raise DataError(
                f"mask bits {self.bits} out of range for d={self.d}"
            )

    @classmethod
    def from_indices(cls, indices, d: int) -> "ModelMask":
        """Build a mask from 1-based covariate indices (duplicates fold)."""
        bits = 0
        for i in indices:
            i = int(i)
            if not 1 <= i <= d:
                raise DataError(f"covariate index {i} outside [1, {d}]")
            bits |= 1 << (i - 1)
        return cls(bits, d)

    @classmethod
    def full(cls, d: int) -> "ModelMask":
        return cls((1 << d) - 1, d)

    @classmethod
    def empty(cls, d: int) -> "ModelMask":
        return cls(0, d)

    @property
    def size(self) -> int:
        """Number of covariates in the model."""
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        """1-based covariate indices, ascending."""
        return tuple(j + 1 for j in range(self.d) if self.bits >> j & 1)

    def column_positions(self) -> np.ndarray:
        """0-based column positions into a design matrix, ascending."""
        return np.flatnonzero(self.member_row())

    def member_row(self) -> np.ndarray:
        """Boolean membership vector of length d."""
        return member_matrix([self.bits], self.d)[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelMask(d={self.d}, indices={self.indices()})"


def member_matrix(bits, d: int) -> np.ndarray:
    """Boolean (m, d) membership rows for a sequence of m bit-sets."""
    words = np.asarray(bits, dtype=np.uint64)
    return ((words[:, None] >> np.arange(d, dtype=np.uint64)) & 1).astype(bool)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """An (X, y) pair with certified bounds.

    Parameters
    ----------
    x : ndarray of shape (n, d)
        Design matrix; every entry must lie in [-1, 1].
    y : ndarray of shape (n,)
        Responses; every entry must satisfy ``|y[i]| <= response_bound``.
    response_bound : float
        The bound ``r`` the privacy calibration relies on.  Treat it as
        public when it truly is (a clipping threshold, a rescale target);
        when it was derived from the data itself, say so via
        ``bound_is_data_dependent`` so reports can flag it.
    bound_is_data_dependent : bool
        True when ``response_bound`` was computed from ``y`` (e.g. the
        default max|y|), which weakens the formal privacy statement.
    """

    x: np.ndarray
    y: np.ndarray
    response_bound: float
    bound_is_data_dependent: bool = False

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2:
            raise DataError(f"x must be 2-d (n, d), got shape {x.shape}")
        if y.ndim != 1:
            raise DataError(f"y must be 1-d (n,), got shape {y.shape}")
        n, d = x.shape
        if n < 1 or d < 1:
            raise DataError(f"need n >= 1 and d >= 1, got x shape {x.shape}")
        if y.shape[0] != n:
            raise DataError(
                f"x has {n} rows but y has {y.shape[0]} entries"
            )
        r = float(self.response_bound)
        if not np.isfinite(r) or r <= 0:
            raise DataError(f"response_bound must be positive and finite, got {r}")
        if not np.all(np.isfinite(x)):
            i, j = np.argwhere(~np.isfinite(x))[0]
            raise DataError(f"x[{i}, {j}] is not finite (row {i}, 0-based)")
        if not np.all(np.isfinite(y)):
            i = int(np.flatnonzero(~np.isfinite(y))[0])
            raise DataError(f"y[{i}] is not finite (row {i}, 0-based)")
        bad = np.abs(x) > 1.0
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(
                f"x[{i}, {j}] = {x[i, j]!r} outside [-1, 1] (row {i}, 0-based); "
                f"standardize first or fix the data"
            )
        bady = np.abs(y) > r
        if bady.any():
            i = int(np.flatnonzero(bady)[0])
            raise DataError(
                f"y[{i}] = {y[i]!r} outside [-{r}, {r}] (row {i}, 0-based); "
                f"standardize first or raise response_bound"
            )
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "response_bound", r)

    @classmethod
    def from_arrays(cls, x, y, response_bound: float | None = None) -> "Dataset":
        """Build a Dataset, defaulting the response bound to max|y|.

        The default is convenient but data-dependent; the resulting Dataset
        carries ``bound_is_data_dependent=True`` and every report built from
        it says so.
        """
        if response_bound is not None:
            return cls(x, y, float(response_bound))
        y = np.asarray(y, dtype=np.float64)
        r = float(np.max(np.abs(y))) if y.size else 0.0
        return cls(x, y, max(r, 1e-12), bound_is_data_dependent=True)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SufficientStats:
    """The quadratic-form summary (X'X, X'y, y'y, n) of a dataset.

    For any coefficient vector, ``||y - X b||^2 = yty - 2 b.xty + b.xtx.b``,
    so these four fields are the only thing the solver needs per candidate
    model.  ``xtx`` must be symmetric PSD.
    """

    xtx: np.ndarray
    xty: np.ndarray
    yty: float
    n: int

    def __post_init__(self) -> None:
        xtx = np.asarray(self.xtx, dtype=np.float64)
        xty = np.asarray(self.xty, dtype=np.float64)
        if xtx.ndim != 2 or xtx.shape[0] != xtx.shape[1]:
            raise DataError(f"xtx must be square, got shape {xtx.shape}")
        d = xtx.shape[0]
        if xty.shape != (d,):
            raise DataError(
                f"xty shape {xty.shape} does not match xtx dimension {d}"
            )
        if int(self.n) < 1:
            raise DataError(f"n must be >= 1, got {self.n}")
        if not (np.all(np.isfinite(xtx)) and np.all(np.isfinite(xty))):
            raise DataError("sufficient statistics must be finite")
        yty = float(self.yty)
        if not np.isfinite(yty) or yty < 0:
            raise DataError(f"yty must be finite and >= 0, got {yty}")
        scale = max(1.0, float(np.max(np.abs(xtx))))
        if not np.allclose(xtx, xtx.T, atol=1e-9 * scale, rtol=0.0):
            raise DataError("xtx is not symmetric")
        xtx = (xtx + xtx.T) / 2.0
        # PSD up to round-off; a clearly negative eigenvalue means the
        # matrix never came from a real design.
        if float(np.linalg.eigvalsh(xtx)[0]) < -1e-8 * scale:
            raise DataError("xtx is not positive semidefinite")
        object.__setattr__(self, "xtx", _readonly(xtx))
        object.__setattr__(self, "xty", _readonly(xty))
        object.__setattr__(self, "yty", yty)
        object.__setattr__(self, "n", int(self.n))

    @property
    def d(self) -> int:
        return self.xtx.shape[0]


def standardize(
    raw_x,
    raw_y,
    policy: str,
    response_bound: float | None = None,
    x_ranges=None,
    y_range=None,
) -> Dataset:
    """Map raw arrays into the bounded domain and build a Dataset.

    policy "clip"
        Truncate x into [-1, 1] and, when ``response_bound`` is given, y
        into [-r, r] with ``r = response_bound``.  Without it the bound
        is :meth:`Dataset.from_arrays`'s max|y| (flagged data-dependent
        on the result), which y already satisfies.
    policy "rescale"
        Affinely map each x column from a caller-supplied public range
        [lo, hi] onto [-1, 1], and y from ``y_range`` onto [-r, r] with
        ``r = response_bound or 1.0``.  Ranges are treated as public, so
        the bound is not flagged.  Raw values outside a supplied range
        land outside the bounds and fail Dataset validation (hard error).
    """
    x = np.array(raw_x, dtype=np.float64)
    y = np.array(raw_y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1:
        raise DataError(
            f"expected x (n, d) and y (n,), got shapes {x.shape} and {y.shape}"
        )
    if policy == "clip":
        np.clip(x, -1.0, 1.0, out=x)
        if response_bound is not None:
            np.clip(y, -response_bound, response_bound, out=y)
        return Dataset.from_arrays(x, y, response_bound)
    if policy == "rescale":
        if x_ranges is None or y_range is None:
            raise ConfigError(
                "policy 'rescale' needs x_ranges (one [lo, hi] per column) "
                "and y_range [lo, hi]"
            )
        ranges = np.asarray(x_ranges, dtype=np.float64)
        if ranges.shape != (x.shape[1], 2):
            raise ConfigError(
                f"x_ranges shape {ranges.shape} does not match "
                f"({x.shape[1]}, 2)"
            )
        lo, hi = ranges[:, 0], ranges[:, 1]
        ylo, yhi = (float(y_range[0]), float(y_range[1]))
        widths = hi - lo
        if np.any(widths <= 0) or yhi - ylo <= 0:
            raise DataError("rescale ranges must have positive width")
        r = 1.0 if response_bound is None else float(response_bound)
        x = 2.0 * (x - lo) / widths - 1.0
        y = r * (2.0 * (y - ylo) / (yhi - ylo) - 1.0)
        return Dataset(x, y, r)
    raise ConfigError(f"unknown standardize policy {policy!r}")


def sufficient_stats(dataset: Dataset) -> SufficientStats:
    """One pass over the data: X'X (symmetrized), X'y, y'y, n."""
    x, y = dataset.x, dataset.y
    xtx = x.T @ x
    xtx = (xtx + xtx.T) / 2.0
    return SufficientStats(xtx, x.T @ y, float(y @ y), dataset.n)


def load_csv(path, response: str, include_intercept: bool = True):
    """Read a delimited file into raw (x, y, names).

    The header row names the columns; ``response`` picks the y column and
    every other column becomes a covariate in file order.  With
    ``include_intercept`` an all-ones column named "intercept" is placed
    first and participates in model enumeration like any other covariate.
    Returns raw arrays: standardization/bounds are the caller's next step.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if response not in header:
            raise ConfigError(
                f"response column {response!r} not found; "
                f"available columns: {', '.join(header)}"
            )
        y_pos = header.index(response)
        cov_names = [h for i, h in enumerate(header) if i != y_pos]
        if not cov_names:
            raise DataError(f"{path} has no covariate columns besides {response!r}")
        xs: list[list[float]] = []
        ys: list[float] = []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(
                    f"data row {row_no} has {len(row)} cells, expected "
                    f"{len(header)}"
                )
            vals = []
            for cell, name in zip(row, header):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"non-numeric value {cell.strip()!r} at data row "
                        f"{row_no}, column {name!r}"
                    ) from None
            ys.append(vals[y_pos])
            del vals[y_pos]
            xs.append(vals)
    if not xs:
        raise DataError(f"{path} has a header but no data rows")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if include_intercept:
        x = np.hstack([np.ones((x.shape[0], 1)), x])
        cov_names = ["intercept"] + cov_names
    return x, y, cov_names
