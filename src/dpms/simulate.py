"""Monte Carlo harness: how often does private selection find the truth?

A sweep crosses sample size, constraint radius, penalty level, and privacy
budget, runs many replications per cell, and reports three proportions per
cell: exact recovery of the generating model, agreement with the noiseless
selector on the same data, and (two-stage only) how often the uniform
fallback fired.

A sweep is one pass: each replication range goes straight to its cell
counters (``_sweep_chunk``), the chunks of every sample size run through
one process pool, and the rows are the grid's cells in order.

Reproducibility contract: every random draw is keyed by a stream id that
hashes the cell coordinates and replication index under the template seed.
Rows come out byte-identical across runs, process pools, and chunkings.
The one exception is ``mean_runtime_ms``, which is wall-clock and therefore
only measured when explicitly requested; it stays 0.0 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import islice, product
from typing import NamedTuple, Sequence

import numpy as np

from .data import Dataset, ModelMask, sufficient_stats
from .enumeration import all_subsets
from .errors import ConfigError, _integer, _real, _values
from .mechanisms import PrivacyBudget, RngStream, _row_argmin
from .selection import _ALGORITHMS, _calibration, _check_budget, _check_mechanism
from .selection import _check_penalty, _score_matrix, _select_rows
from .solver import fit_masks

# The one-cell selections stay importable from this module, where
# perfbench/bench_trace.py looks them up.
from .selection import _pcls_with_fits, _pcpl_with_fits  # noqa: F401

__all__ = [
    "SyntheticSpec",
    "SweepGrid",
    "SweepRow",
    "SweepResult",
    "BUILTIN_MODELS",
    "generate",
    "default_phi_grid",
    "run_sweep",
]

# Coefficient vectors used throughout the reference experiments; the CLI
# exposes them as --model-id 1 and 2.  Model 2's smallest signal is weak
# on purpose.
BUILTIN_MODELS: dict[str, tuple[float, ...]] = {
    "1": (1.0, 1.0, 1.0, 0.0, 0.0, 0.0),
    "2": (1.5, 1.0, 0.5, 0.0, 0.0, 0.0),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Linear model with uniform covariates on [-1, 1] and Gaussian noise.

    ``rng.seed`` is the master seed for anything derived from this spec;
    the stream id distinguishes independent uses of the same seed.
    """

    n: int
    coefficients: tuple[float, ...]
    rng: RngStream
    noise_sd: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients",
            tuple(_real("coefficients", c) for c in _values("coefficients", self.coefficients)),
        )
        object.__setattr__(self, "noise_sd", _real("noise_sd", self.noise_sd))
        object.__setattr__(self, "n", _integer("n", self.n))
        if self.n < 1:
            raise ConfigError(f"n must be at least 1, got {self.n}")
        if not self.coefficients:
            raise ConfigError("coefficients must be non-empty")
        if not all(np.isfinite(self.coefficients)):
            raise ConfigError(f"coefficients must be finite, got {self.coefficients}")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ConfigError(f"noise_sd must be a nonnegative finite float, got {self.noise_sd}")
        if not isinstance(self.rng, RngStream):
            raise ConfigError("rng must be an RngStream")

    @property
    def d(self) -> int:
        return len(self.coefficients)


def generate(spec: SyntheticSpec) -> tuple[Dataset, ModelMask]:
    """Draw one dataset and return it with the generating mask.

    Draw order is fixed (covariate matrix first, then noise vector) so a
    stream replays identically.  The response bound is taken from the
    realized data, so the resulting Dataset is flagged data-dependent.
    """
    dataset = _draw(spec.rng, spec.n, np.asarray(spec.coefficients), spec.noise_sd)
    return dataset, _generating_mask(spec.coefficients)


def _draw(rng: RngStream, n: int, beta: np.ndarray, noise_sd: float) -> Dataset:
    """The dataset :func:`generate` draws, from already validated parts."""
    gen = rng.generator()
    x = gen.uniform(-1.0, 1.0, size=(n, len(beta)))
    noise = gen.normal(0.0, noise_sd, size=n)
    return Dataset.from_arrays(x, x @ beta + noise)


def _generating_mask(coefficients: tuple[float, ...]) -> ModelMask:
    """The covariates with a nonzero coefficient."""
    return ModelMask.from_indices(
        (i + 1 for i, c in enumerate(coefficients) if c != 0.0), len(coefficients)
    )


def default_phi_grid(n: int) -> tuple[float, ...]:
    """Zero plus 40 log-spaced penalty levels between 0.01 n and 0.5 n."""
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    return (0.0,) + tuple(float(v) for v in np.geomspace(0.01 * n, 0.5 * n, 40))


def _dedup(name: str, values: Sequence) -> tuple:
    out, seen = [], set()
    for v in values:
        if v in seen:
            warnings.warn(f"duplicate {name} value {v} in sweep grid, keeping first occurrence")
            continue
        seen.add(v)
        out.append(v)
    if not out:
        raise ConfigError(f"{name} must be non-empty")
    return tuple(out)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian experiment grid.

    ``phi_values=None`` substitutes :func:`default_phi_grid` per sample
    size.  Each (epsilon, delta) pair must make a :class:`PrivacyBudget`
    that passes the algorithm's budget rule, as a select's must: delta
    zero for pcls, inside (0, 1) for pcpl.  Duplicate axis values are
    dropped with a warning.
    """

    n_values: tuple[int, ...]
    radius_values: tuple[float, ...]
    epsilon_values: tuple[float, ...]
    phi_values: tuple[float, ...] | None = None
    delta_values: tuple[float, ...] = (0.0,)
    replications: int = 500
    algorithm: str = "pcls"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_values",
            _dedup("n", tuple(_integer("n", v) for v in _values("n_values", self.n_values))),
        )
        object.__setattr__(self, "replications", _integer("replications", self.replications))
        for name in ("radius", "epsilon", "delta", "phi"):
            values = getattr(self, f"{name}_values")
            if values is not None:
                object.__setattr__(
                    self, f"{name}_values",
                    _dedup(name, tuple(_real(name, v) for v in _values(f"{name}_values", values))),
                )
        if any(not (np.isfinite(p) and p >= 0) for p in self.phi_values or ()):
            raise ConfigError("phi values must be nonnegative and finite")
        if any(v < 1 for v in self.n_values):
            raise ConfigError("n values must be at least 1")
        if any(not (np.isfinite(v) and v > 0) for v in self.radius_values):
            raise ConfigError("radius values must be positive and finite")
        if self.replications < 1:
            raise ConfigError(f"replications must be at least 1, got {self.replications}")
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {_ALGORITHMS}, got {self.algorithm!r}")
        for epsilon, delta in product(self.epsilon_values, self.delta_values):
            _check_budget(self.algorithm, PrivacyBudget(epsilon, delta))

    def phis_for(self, n: int) -> tuple[float, ...]:
        return self.phi_values if self.phi_values is not None else default_phi_grid(n)


class SweepRow(NamedTuple):
    """One grid cell's aggregate results; field order matches the CSV."""

    n: int
    d: int
    model_id: str
    R: float
    phi: float
    epsilon: float
    delta: float
    algorithm: str
    replications: int
    prop_correct: float
    prop_agree: float
    fallback_rate: float
    mean_runtime_ms: float


CSV_COLUMNS = SweepRow._fields


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        """Deterministic CSV text (LF endings, repr-exact floats)."""
        lines = [",".join(CSV_COLUMNS)]
        lines += (",".join(map(str, row)) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # JSON has no literal for an infinite budget; spell it "inf" as
        # the CSV does.
        records = []
        for row in self.rows:
            record = row._asdict()
            if math.isinf(row.epsilon):
                record["epsilon"] = "inf"
            records.append(record)
        return json.dumps(records, indent=2, allow_nan=False) + "\n"


def _encode(*parts) -> bytes:
    """Typed, length-prefixed encoding of sweep coordinates.

    The explicit type tags keep e.g. the int 1 and the float 1.0 from
    colliding.  The encoding of a sequence of parts is the concatenation
    of the parts' encodings.
    """
    out = []
    for p in parts:
        if isinstance(p, str):
            raw = p.encode("utf-8")
            out.append(b"s" + struct.pack("<I", len(raw)) + raw)
        elif isinstance(p, bool):
            out.append(b"b" + struct.pack("<?", p))
        elif isinstance(p, int):
            out.append(b"i" + struct.pack("<q", p))
        elif isinstance(p, float):
            out.append(b"f" + struct.pack("<d", p))
        elif isinstance(p, tuple):
            out.append(b"(" + _stream_id(*p).to_bytes(8, "little") + b")")
        else:
            raise TypeError(f"unhashable sweep coordinate {p!r}")
    return b"".join(out)


def _id_of(encoded: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(encoded, digest_size=8).digest(), "little")


def _state_of(head: bytes):
    """The hash state of :func:`_id_of` after ``head``."""
    return hashlib.blake2b(head, digest_size=8)


def _ids_after(states, tail: bytes) -> list[int]:
    """``_id_of(head + tail)`` for each ``_state_of(head)`` of ``states``,
    which it leaves as they were: BLAKE2b absorbs its input as a stream."""
    digests = []
    for state in states:
        state = state.copy()
        state.update(tail)
        digests.append(state.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8").tolist()


def _stream_id(*parts) -> int:
    """64-bit stream id from typed, length-prefixed parts, so every
    (cell, replication, role) triple gets its own stream under a fixed
    master seed."""
    return _id_of(_encode(*parts))


def _sweep_chunk(
    grid: SweepGrid,
    template: SyntheticSpec,
    model_id: str,
    mechanism: str,
    measure_runtime: bool,
    n: int,
    phis: tuple[float, ...],
    rep_lo: int,
    rep_hi: int,
) -> np.ndarray:
    """Per-cell counters of replications ``rep_lo`` to ``rep_hi - 1`` at
    sample size ``n``, whose penalty grid is ``phis``.

    Each (replication, R) is fitted once, and one call of the selection
    core then releases every (epsilon, delta, phi) cell of it: one row per
    cell, in that order, each with its own penalty, budget and stream,
    keyed by the cell coordinates.  Each (replication, R) has its own
    calibration record, since r is each dataset's own max |y|.  The
    result is indexed [R, phi, epsilon, delta, k] and holds, for k = 0..3,
    the replications whose pick was correct, agreed with the noiseless
    pick and fell back, and the summed selection time in ms (a call's time
    shared evenly across its cells).  Counters are sums, so chunks merge
    into the same totals as a single pass.
    """
    models = all_subsets(template.d)
    seed = template.rng.seed
    beta = np.asarray(template.coefficients)
    coords_base = (model_id, template.coefficients, template.noise_sd, n)
    cells = list(product(grid.epsilon_values, grid.delta_values, phis))
    epsilons, deltas, penalties = (np.array(axis) for axis in zip(*cells))
    # Every stream id is _stream_id(*parts, rep): the hash of the parts'
    # encodings, absorbed once here, continued by the replication's own.
    data_state = _state_of(_encode("data", *coords_base))
    eps_codes, delta_codes, phi_codes = (
        [_encode(v) for v in axis] for axis in (grid.epsilon_values, grid.delta_values, phis)
    )
    cell_codes = [p + e + d for e, d, p in product(eps_codes, delta_codes, phi_codes)]
    head, tail = _encode("select", *coords_base), _encode(grid.algorithm, mechanism)
    select_states = []
    for radius in grid.radius_values:
        radius_head = head + _encode(radius)
        select_states.append([_state_of(radius_head + code + tail) for code in cell_codes])
    truth = _generating_mask(template.coefficients)
    hit = np.flatnonzero(models.bits == truth.bits)
    truth_column = int(hit[0]) if hit.size else -1
    # Counted in the order of the rows, [R, epsilon, delta, phi, k].
    counts = np.zeros((len(grid.radius_values), len(cells), 4))

    for rep in range(rep_lo, rep_hi):
        rep_code = _encode(rep)
        (data_id,) = _ids_after([data_state], rep_code)
        dataset = _draw(RngStream(seed, data_id), n, beta, template.noise_sd)
        stats = sufficient_stats(dataset)
        for i, radius in enumerate(grid.radius_values):
            # Before the fit, so that a width this r overflows is a usage error.
            law = _calibration(grid.algorithm, mechanism, epsilons, deltas, dataset.response_bound,
                               n, models.d, radius)
            fits = fit_masks(stats, models, radius)
            clean = _score_matrix(grid.algorithm, fits.neg2_loglik, n, penalties, models.sizes)
            stream_ids = _ids_after(select_states[i], rep_code)
            started = time.perf_counter() if measure_runtime else 0.0
            picks = _select_rows(law, fits, penalties, models, seed, stream_ids, clean)
            seconds = (time.perf_counter() - started) if measure_runtime else 0.0
            count = counts[i]
            count[:, 0] += picks.winners == truth_column
            count[:, 1] += picks.winners == _row_argmin(clean, models)
            count[:, 2] += picks.fallback
            count[:, 3] += 1000.0 * seconds / len(cells)
    axes = (grid.radius_values, grid.epsilon_values, grid.delta_values, phis)
    return counts.reshape(*map(len, axes), 4).transpose(0, 3, 1, 2, 4)


def run_sweep(
    grid: SweepGrid,
    template: SyntheticSpec,
    model_id: str = "",
    mechanism: str = "noisy_argmin",
    measure_runtime: bool = False,
    max_workers: int | None = None,
) -> SweepResult:
    """Run every cell of ``grid`` and aggregate per-cell proportions.

    ``template`` fixes the coefficient vector, noise level, and master
    seed; its own ``n`` and stream id are ignored in favor of per-cell
    derived streams.  Worker count is capped by ``max_workers`` and the
    CPU count; results do not depend on it.  A penalty whose ``phi * d``
    overflows is rejected before any data is drawn; the default grid's
    penalties stay below ``0.5 * n``.  So is a noise law that overflows at
    some (n, R) with r = 0, the smallest width any dataset gives; a larger
    r can still overflow it, which the replication's own record rejects.
    """
    _check_mechanism(mechanism)
    for phi in grid.phi_values or ():
        _check_penalty(phi, template.d)
    epsilons, deltas = zip(*product(grid.epsilon_values, grid.delta_values))
    for n, radius in product(grid.n_values, grid.radius_values):
        _calibration(grid.algorithm, mechanism, epsilons, deltas, 0.0, n, template.d, radius)
    workers = os.cpu_count() or 1
    if max_workers is not None:
        max_workers = _integer("max_workers", max_workers)
        if max_workers < 1:
            raise ConfigError(f"max_workers must be at least 1, got {max_workers}")
        workers = min(workers, max_workers)
    bounds = np.linspace(0, grid.replications, workers + 1).astype(int).tolist()
    spans = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    phis = [grid.phis_for(n) for n in grid.n_values]
    tasks = [(n, n_phis, lo, hi) for n, n_phis in zip(grid.n_values, phis) for lo, hi in spans]
    chunk = partial(_sweep_chunk, grid, template, model_id, mechanism, measure_runtime)
    if len(spans) == 1:
        partials = [chunk(*task) for task in tasks]
    else:
        # Imported lazily so single-worker runs never touch
        # multiprocessing (it is unavailable in some sandboxes).
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(chunk, *zip(*tasks)))

    reps = grid.replications
    chunks = iter(partials)
    middle = (grid.algorithm, reps)
    rows: list[SweepRow] = []
    for n, n_phis in zip(grid.n_values, phis):
        shares = (sum(islice(chunks, len(spans))) / reps).reshape(-1, 4).tolist()
        head = (n, template.d, model_id)
        cells = product(grid.radius_values, n_phis, grid.epsilon_values, grid.delta_values)
        rows += [SweepRow._make(head + cell + middle + tuple(cell_shares))
                 for cell, cell_shares in zip(cells, shares)]
    return SweepResult(tuple(rows))
