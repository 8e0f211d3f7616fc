"""Monte Carlo harness: how often does private selection find the truth?

A sweep crosses sample size, constraint radius, penalty level, and privacy
budget, runs many replications per cell, and reports three proportions per
cell: exact recovery of the generating model, agreement with the noiseless
selector on the same data, and (two-stage only) how often the uniform
fallback fired.

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
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .data import Dataset, ModelMask, sufficient_stats
from .enumeration import all_subsets
from .errors import ConfigError, _integer
from .mechanisms import PrivacyBudget, RngStream, _row_argmin
from .selection import SelectionConfig, _check_delta, _Picks, _score_matrix, _select_rows
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

_ALGORITHMS = ("pcls", "pcpl")

CSV_COLUMNS = (
    "n",
    "d",
    "model_id",
    "R",
    "phi",
    "epsilon",
    "delta",
    "algorithm",
    "replications",
    "prop_correct",
    "prop_agree",
    "fallback_rate",
    "mean_runtime_ms",
)


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
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
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
    gen = spec.rng.generator()
    x = gen.uniform(-1.0, 1.0, size=(spec.n, spec.d))
    noise = gen.normal(0.0, spec.noise_sd, size=spec.n)
    y = x @ np.asarray(spec.coefficients) + noise
    dataset = Dataset.from_arrays(x, y)
    truth = ModelMask.from_indices(
        (i + 1 for i, c in enumerate(spec.coefficients) if c != 0.0), spec.d
    )
    return dataset, truth


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
    size.  ``delta_values`` must be all zero for pcls and all inside
    (0, 1) for pcpl.  Duplicate axis values are dropped with a warning.
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
            self, "n_values", _dedup("n", tuple(_integer("n", v) for v in self.n_values))
        )
        object.__setattr__(self, "replications", _integer("replications", self.replications))
        for name in ("radius_values", "epsilon_values", "delta_values"):
            object.__setattr__(
                self, name, _dedup(name, tuple(float(v) for v in getattr(self, name)))
            )
        if self.phi_values is not None:
            object.__setattr__(
                self, "phi_values", _dedup("phi", tuple(float(v) for v in self.phi_values))
            )
            if any(not (np.isfinite(p) and p >= 0) for p in self.phi_values):
                raise ConfigError("phi values must be nonnegative and finite")
        if any(v < 1 for v in self.n_values):
            raise ConfigError("n values must be at least 1")
        if any(not (np.isfinite(v) and v > 0) for v in self.radius_values):
            raise ConfigError("radius values must be positive and finite")
        if any(np.isnan(v) or v <= 0 for v in self.epsilon_values):
            raise ConfigError("epsilon values must be positive (inf allowed)")
        if self.replications < 1:
            raise ConfigError(f"replications must be at least 1, got {self.replications}")
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {_ALGORITHMS}, got {self.algorithm!r}")
        for delta in self.delta_values:
            _check_delta(self.algorithm, delta)

    def phis_for(self, n: int) -> tuple[float, ...]:
        return self.phi_values if self.phi_values is not None else default_phi_grid(n)


@dataclass(frozen=True)
class SweepRow:
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


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        """Deterministic CSV text (LF endings, repr-exact floats)."""
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(
                ",".join(str(getattr(row, col)) for col in CSV_COLUMNS)
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # JSON has no literal for an infinite budget; spell it "inf" as
        # the CSV does.
        records = [
            {
                col: (
                    "inf"
                    if col == "epsilon" and math.isinf(getattr(row, col))
                    else getattr(row, col)
                )
                for col in CSV_COLUMNS
            }
            for row in self.rows
        ]
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


def _stream_id(*parts) -> int:
    """64-bit stream id from typed, length-prefixed parts, so every
    (cell, replication, role) triple gets its own stream under a fixed
    master seed."""
    return _id_of(_encode(*parts))


class _Block(NamedTuple):
    """One replication's picks at one (R, epsilon, delta), one row per phi."""

    rep: int
    cell: tuple[int, int, int]  # (R, epsilon, delta) positions in the grid
    truth: int  # column of the generating model, -1 if not a candidate
    picks: _Picks  # one row per phi
    noiseless: np.ndarray  # noiseless winning column per phi
    seconds: float  # selection wall time, when measured


def _sweep_blocks(grid, template, model_id, mechanism, n, rep_lo, rep_hi, measure_runtime):
    """Score each replication's phi x epsilon x delta grid as matrices.

    Each (replication, R) is fitted once; its clean scores form one
    (phi x model) matrix, whose noiseless winners are taken once per phi.
    Each (epsilon, delta) then runs the selection core on that matrix with
    one stream per phi, keyed by the cell coordinates.
    """
    models = all_subsets(template.d)
    phis = grid.phis_for(n)
    phi_codes = [_encode(phi) for phi in phis]
    seed = template.rng.seed
    coords_base = (model_id, template.coefficients, template.noise_sd, n)

    for rep in range(rep_lo, rep_hi):
        data_stream = RngStream(seed, _stream_id("data", *coords_base, rep))
        spec = replace(template, n=n, rng=data_stream)
        dataset, truth = generate(spec)
        stats = sufficient_stats(dataset)
        hit = np.flatnonzero(models.bits == truth.bits)
        truth_column = int(hit[0]) if hit.size else -1
        for i, R in enumerate(grid.radius_values):
            head = _encode("select", *coords_base, R)
            fits = fit_masks(stats, models, R)
            clean = _score_matrix(grid.algorithm, fits, dataset.n, phis, models.sizes)
            noiseless = _row_argmin(clean, models.sizes, models.bits)
            for k, eps in enumerate(grid.epsilon_values):
                for m, delta in enumerate(grid.delta_values):
                    config = SelectionConfig(
                        radius=R,
                        penalty=0.0,  # the penalties are rows of clean
                        budget=PrivacyBudget(eps, delta),
                        mechanism=mechanism,
                    )
                    # _stream_id("select", *coords_base, R, phi, eps, delta,
                    # algorithm, mechanism, rep), from pre-encoded parts.
                    tail = _encode(eps, delta, grid.algorithm, mechanism, rep)
                    stream_ids = [_id_of(head + code + tail) for code in phi_codes]
                    started = time.perf_counter() if measure_runtime else 0.0
                    picks = _select_rows(
                        grid.algorithm, fits, clean, dataset.response_bound, dataset.n,
                        config, models, seed, stream_ids,
                    )
                    elapsed = (time.perf_counter() - started) if measure_runtime else 0.0
                    yield _Block(rep, (i, k, m), truth_column, picks, noiseless, elapsed)


def _sweep_chunk(
    grid: SweepGrid,
    template: SyntheticSpec,
    model_id: str,
    mechanism: str,
    n: int,
    rep_lo: int,
    rep_hi: int,
    measure_runtime: bool,
) -> np.ndarray:
    """Accumulate per-cell counters over a contiguous replication range.

    Returns an array indexed [R, phi, epsilon, delta, k] that holds, for
    k = 0..3, the replications whose pick was correct, agreed with the
    noiseless pick and fell back, and the summed selection time in ms; a
    block's time is shared evenly across its phi cells.  Counters are
    order-independent sums, so chunked execution merges into the same
    totals as a single pass.
    """
    phis = grid.phis_for(n)
    counts = np.zeros(
        (len(grid.radius_values), len(phis), len(grid.epsilon_values),
         len(grid.delta_values), 4)
    )
    for block in _sweep_blocks(
        grid, template, model_id, mechanism, n, rep_lo, rep_hi, measure_runtime
    ):
        i, k, m = block.cell
        cell = counts[i, :, k, m]
        cell[:, 0] += block.picks.winners == block.truth
        cell[:, 1] += block.picks.winners == block.noiseless
        cell[:, 2] += block.picks.fallback
        cell[:, 3] += 1000.0 * block.seconds / len(phis)
    return counts


def _chunk_payloads(grid, template, model_id, mechanism, n, workers, measure):
    bounds = np.linspace(0, grid.replications, workers + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            yield (grid, template, model_id, mechanism, n, int(lo), int(hi), measure)


def _run_chunk(payload) -> np.ndarray:
    return _sweep_chunk(*payload)


def _resolve_workers(max_workers: int | None) -> int:
    cap = os.cpu_count() or 1
    if max_workers is not None:
        max_workers = _integer("max_workers", max_workers)
        if max_workers < 1:
            raise ConfigError(f"max_workers must be at least 1, got {max_workers}")
        cap = min(cap, max_workers)
    return cap


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
    CPU count; results do not depend on it.
    """
    workers = _resolve_workers(max_workers)
    d = template.d

    rows: list[SweepRow] = []
    for n in grid.n_values:
        payloads = list(
            _chunk_payloads(grid, template, model_id, mechanism, n, workers, measure_runtime)
        )
        if len(payloads) <= 1:
            partials = [_run_chunk(p) for p in payloads]
        else:
            # Imported lazily so single-worker runs never touch
            # multiprocessing (it is unavailable in some sandboxes).
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                partials = list(pool.map(_run_chunk, payloads))
        merged = sum(partials)
        reps = grid.replications
        for i, R in enumerate(grid.radius_values):
            for j, phi in enumerate(grid.phis_for(n)):
                for k, eps in enumerate(grid.epsilon_values):
                    for m, delta in enumerate(grid.delta_values):
                        correct, agree, fallback, runtime = merged[i, j, k, m].tolist()
                        rows.append(
                            SweepRow(
                                n=n,
                                d=d,
                                model_id=model_id,
                                R=R,
                                phi=phi,
                                epsilon=eps,
                                delta=delta,
                                algorithm=grid.algorithm,
                                replications=reps,
                                prop_correct=correct / reps,
                                prop_agree=agree / reps,
                                fallback_rate=fallback / reps,
                                mean_runtime_ms=runtime / reps,
                            )
                        )
    return SweepResult(tuple(rows))
