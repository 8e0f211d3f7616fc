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
import io
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, _integer

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
            i = _integer("covariate index", i)
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
    """Boolean (m, d) membership rows for a sequence of m bit-sets: the
    first d bits of each word's little-endian bytes, low bit first."""
    words = np.asarray(bits, dtype="<u8").reshape(-1, 1).view(np.uint8)
    return np.unpackbits(words, axis=1, count=d, bitorder="little").view(bool)


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
    model.  ``xtx`` must be symmetric PSD; ``eigenvalue_range`` holds its
    smallest and largest eigenvalues.
    """

    xtx: np.ndarray
    xty: np.ndarray
    yty: float
    n: int
    eigenvalue_range: tuple[float, float] = field(init=False, repr=False, compare=False)

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
        if float(np.max(np.abs(xtx - xtx.T))) > 1e-9 * scale:
            raise DataError("xtx is not symmetric")
        xtx = (xtx + xtx.T) / 2.0
        # PSD up to round-off; a clearly negative eigenvalue means the
        # matrix never came from a real design.
        eig = np.linalg.eigvalsh(xtx)
        if float(eig[0]) < -1e-8 * scale:
            raise DataError("xtx is not positive semidefinite")
        object.__setattr__(self, "eigenvalue_range", (float(eig[0]), float(eig[-1])))
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
        try:
            ranges = np.array(x_ranges, dtype=np.float64)
            y_bounds = np.array(y_range, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"rescale ranges must hold numbers: {exc}") from None
        if ranges.shape != (x.shape[1], 2):
            raise ConfigError(
                f"x_ranges shape {ranges.shape} does not match "
                f"({x.shape[1]}, 2)"
            )
        if y_bounds.shape != (2,):
            raise ConfigError(f"y_range must be [lo, hi], got shape {y_bounds.shape}")
        if not (np.isfinite(ranges).all() and np.isfinite(y_bounds).all()):
            raise ConfigError("rescale ranges must be finite")
        lo, hi = ranges[:, 0], ranges[:, 1]
        ylo, yhi = y_bounds.tolist()
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
    every other column becomes a covariate in file order.  Names are
    stripped of surrounding spaces and must be distinct.  A leading UTF-8
    byte order mark is dropped, and rows may end in LF, CRLF or a bare CR.
    With ``include_intercept`` an all-ones column named "intercept" is
    placed first and participates in model enumeration like any other
    covariate, and no covariate of the file may take its name.  Returns
    raw arrays: standardization/bounds are the caller's next step.

    The file is read once, as bytes.  The body is read by one of two
    routes, each cell the same bits as ``float()`` of its text:
    :func:`_decimal_rows`, in place, for a plain body of unquoted
    decimals, and :func:`_parse_rows`, the csv rules, for the rest (quoted
    or padded cells, ``nan`` and ``inf``, every body where
    ``np.longdouble`` is not the x87 format) and for every error message.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        header, body_at = _header(raw, len(_BOM) if raw.startswith(_BOM) else 0)
        # Only the csv rules read text, and a body that is not ASCII is
        # never plain: decode it now, so that a bad byte is reported first.
        body = None if raw.isascii() or raw[body_at:].isascii() else raw[body_at:].decode()
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {_whole_file_error(raw, exc)}") from exc
    if header is None:
        raise DataError(f"{path} is empty")
    header = [h.strip() for h in header]
    first_seen: dict[str, int] = {}
    for col, name in enumerate(header, start=1):
        if name in first_seen:
            raise DataError(
                f"{path} names column {name!r} twice, at columns "
                f"{first_seen[name]} and {col}"
            )
        first_seen[name] = col
    if response not in first_seen:
        raise ConfigError(
            f"response column {response!r} not found; "
            f"available columns: {', '.join(header)}"
        )
    y_pos = first_seen[response] - 1
    cov_names = [h for i, h in enumerate(header) if i != y_pos]
    if not cov_names:
        raise DataError(f"{path} has no covariate columns besides {response!r}")
    if include_intercept and "intercept" in cov_names:
        raise DataError(
            f"{path} has a covariate named 'intercept', the name of the added intercept "
            "column; rename it, or pass --no-include-intercept"
        )
    cells = None if body is not None else _decimal_rows(raw, body_at, len(header))
    if cells is None:
        cells = _parse_rows(raw[body_at:].decode() if body is None else body, header)
    if not len(cells):
        raise DataError(f"{path} has a header but no data rows")
    y = cells[:, y_pos].copy()
    x = np.delete(cells, y_pos, axis=1)
    if include_intercept:
        x = np.hstack([np.ones((x.shape[0], 1)), x])
        cov_names = ["intercept"] + cov_names
    return x, y, cov_names


_BOM = b"\xef\xbb\xbf"
# One line and its end (LF, CRLF or a bare CR), or a last line with none.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _header(raw: bytes, start: int) -> tuple[list[str] | None, int]:
    """The first csv record of ``raw`` from byte ``start``, read from its
    lines decoded one at a time (a quoted name can stretch it over
    several), and the offset of the body that follows it."""
    end = start

    def lines():
        nonlocal end
        for line in _LINE.finditer(raw, start):
            end = line.end()
            yield line.group().decode()

    return next(csv.reader(lines()), None), end


def _whole_file_error(raw: bytes, exc: UnicodeDecodeError) -> Exception:
    """The error of decoding the whole file at once, whose position counts
    from the file's start (after a byte order mark); ``exc``, from a
    decode of one part, counts it from that part."""
    try:
        raw.decode("utf-8-sig")
    except UnicodeDecodeError as whole:
        return whole
    return exc


# The four ASCII separator controls: str.isspace() holds for them, but
# float() rejects them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# Leading or trailing spaces of a cell, the separators kept.
_SPACES = re.compile(rf"^[^\S{_SEPARATORS}]+|[^\S{_SEPARATORS}]+\Z")

# A plain body as integer text: dots dropped, and a cell's exponent read as
# one more integer after its significand.
_INT_TEXT = bytes.maketrans(b"\neE", b",,,")
# Plain bodies are parsed in blocks of about this many bytes, cut at line
# ends, so the per-byte temporaries stay small.
_BLOCK_BYTES = 1 << 16
# With at most 18 significant digits, a significand fits an int64.
_MAX_DIGITS = 18


def _x87_long_double() -> bool:
    """Whether ``np.longdouble`` is the x87 80-bit format: a 64-bit
    significand, with the integer bit explicit, in the first word."""
    probe = np.array([1.5], dtype=np.longdouble)
    return probe.itemsize == 16 and int(probe.view(np.uint64)[0]) == 0xC000000000000000


_LONG_DOUBLE_IS_X87 = _x87_long_double()
# 10^k for k = 0..27, each exact in a 64-bit significand (5^27 < 2^64).
_POW10 = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))


def _decimal_rows(text: bytes, start: int, width: int) -> np.ndarray | None:
    """The data rows of the plain body that starts at byte ``start`` of
    ``text``, read in place, as one (rows, width) array, each cell
    equal to ``float()`` of its text bit for bit; None when the body is not
    plain or a cell is not a decimal, and the csv rules must decide.

    A plain body holds only the ASCII bytes ``0-9 . , + - e E`` and line
    ends (LF or CRLF, no bare CR), and ``width`` cells on every line.  Each
    cell is an integer significand w (its digits, dot dropped) times 10^q,
    q its exponent less its fraction digits.  One int64 ``np.fromstring``
    call per block reads every w and exponent.  With |w| < 10^18 and
    |q| <= 27, both w and 10^q are exact in the x87 long double, so
    ``w * 10^q`` or ``w / 10^-q`` rounds once, to 64 bits (Clinger's fast
    path).  Rounding that again to 53 bits is correct unless the 64-bit
    result sits on a 53-bit midpoint, its low 11 bits ``0x400``.  Cells out
    of that range, with more than 18 significant digits, or on a midpoint
    take ``float()`` of their text.  Where ``np.longdouble`` is not the x87
    format this route is off, and the csv rules read every body.
    """
    if not _LONG_DOUBLE_IS_X87:
        return None
    if text.find(b"\r", start) >= 0:
        if text.count(b"\r", start) != text.count(b"\r\n", start):
            return None
        text, start = text[start:].replace(b"\r\n", b"\n"), 0
    a = np.frombuffer(text, dtype=np.uint8)
    if start == a.size:
        return None
    blocks = []
    lo = start
    while lo < a.size:
        hi = text.find(b"\n", lo + _BLOCK_BYTES) + 1 or a.size
        block = a[lo:hi]
        if block[-1] != 10:  # the last line, with no line end
            block = np.append(block, np.uint8(10))
        cells = _decimal_block(block, width)
        if cells is None:
            return None
        blocks.append(cells)
        lo = hi
    return np.concatenate(blocks).reshape(-1, width)


def _decimal_block(a: np.ndarray, width: int) -> np.ndarray | None:
    """The cells of the whole lines in bytes ``a``, each ending in LF, in
    reading order; None unless the block is plain, every line holds
    ``width`` cells and every cell is a decimal: ``[+-]``, digits with at
    most one dot, at least one digit, then optionally ``e`` or ``E``,
    ``[+-]`` and digits."""
    ends = np.flatnonzero((a == 44) | (a == 10))  # each cell's separator
    dots = np.flatnonzero(a == 46)
    n_signs = np.count_nonzero((a == 43) | (a == 45))
    n_exps = np.count_nonzero((a | 32) == 101)  # e or E
    if (np.count_nonzero(a - np.uint8(48) < 10) + ends.size + dots.size + n_signs + n_exps != a.size
            or ends.size % width):
        return None
    newline = a[ends] == 10
    if np.count_nonzero(newline) * width != ends.size or not newline[width - 1::width].all():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    first = a[starts]
    signed = (first == 43) | (first == 45)
    mantissa_end, exp_signs = ends, 0
    exps = exp_cell = ends[:0]
    if n_exps:
        exps = np.flatnonzero((a | 32) == 101)
        exp_cell = np.searchsorted(ends, exps)
        mantissa_end = ends.copy()
        mantissa_end[exp_cell] = exps
        exp_sign = a[exps + 1]
        exp_signed = (exp_sign == 43) | (exp_sign == 45)
        exp_digits = ends[exp_cell] - exps - 1 - exp_signed
        exp_signs = np.count_nonzero(exp_signed)
        if (np.any(exp_cell[1:] == exp_cell[:-1])
                or not 1 <= exp_digits.min() <= exp_digits.max() <= _MAX_DIGITS):
            return None
    digits = mantissa_end - starts - signed
    if dots.size == ends.size and np.all((dots >= starts) & (dots < mantissa_end)):
        dot_cell = slice(None)  # one dot in every cell, the usual case
    else:
        dot_cell = np.searchsorted(ends, dots)
        if np.any(dot_cell[1:] == dot_cell[:-1]) or np.any(dots >= mantissa_end[dot_cell]):
            return None
    digits[dot_cell] -= 1
    fraction = np.zeros(ends.size, dtype=np.int64)
    fraction[dot_cell] = mantissa_end[dot_cell] - dots - 1
    # A sign opens a cell or an exponent; counting both finds a stray one.
    if np.count_nonzero(signed) + exp_signs != n_signs or digits.min() < 1:
        return None
    text, long = a, _long_significands(a, starts + signed, digits)
    if long.size:
        # Zeroed in the integer text so that it cannot overflow; float()
        # reads the cell.
        text = a.copy()
        for i in long.tolist():
            text[starts[i]:mantissa_end[i]] = 48
    # One integer per significand, sign and all, and one more after it per
    # exponent.
    ints = np.fromstring(text.tobytes().translate(_INT_TEXT, b"."), dtype=np.int64, sep=",")
    q, w = -fraction, ints
    if exps.size:
        exp_at = exp_cell + np.arange(1, exps.size + 1)
        q[exp_cell] += ints[exp_at]
        w = np.delete(ints, exp_at)
    # 10^0 = 1 is exact, so each cell rounds once.
    exact = w.astype(np.longdouble) / _POW10[np.clip(-q, 0, 27)]
    if q.max() > 0:
        exact *= _POW10[np.clip(q, 0, 27)]
    slow = ((exact.view(np.uint64)[::2] & 0x7FF == 0x400)  # a 53-bit midpoint
            | (np.abs(q) > 27) | ((w == 0) & (first == 45)))  # -0 in w is 0
    slow[long] = True
    cells = exact.astype(np.float64)
    for i in np.flatnonzero(slow).tolist():
        try:
            cells[i] = float(a[starts[i]:ends[i]].tobytes())
        except ValueError:
            return None
    return cells


def _long_significands(a: np.ndarray, opens: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The cells whose significand may keep more than 18 digits once its
    leading zeros are dropped.  Cell ``i``'s significand opens at byte
    ``opens[i]`` of ``a`` and holds ``digits[i]`` digits and at most one
    dot, so its first ``digits[i] - 17`` bytes hold the ``digits[i] - 18``
    digits that must be zeros.  A cell counts as long unless those bytes
    are all zeros and dots, and without a look when more than 32 digits
    must be zeros."""
    many = np.flatnonzero(digits > _MAX_DIGITS)
    if not many.size:
        return many
    need = digits[many] - _MAX_DIGITS
    span = np.arange(min(need.max(), 32) + 1)
    window = a[np.minimum(opens[many, None] + span, a.size - 1)]
    zeros = ((window == 48) | (window == 46) | (span > need[:, None])).all(axis=1)
    return many[(need > 32) | ~zeros]


def _parse_rows(body: str, header: list[str]) -> np.ndarray:
    """The data rows by the csv rules, one ``float()`` per cell; a bad row
    raises a ``DataError`` that names it."""
    rows: list[list[float]] = []
    for row_no, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=1):
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
                    f"non-numeric value {_SPACES.sub('', cell)!r} at data row "
                    f"{row_no}, column {name!r}"
                ) from None
        rows.append(vals)
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
