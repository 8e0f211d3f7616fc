#!/usr/bin/env python3
"""Print one sha256 over the released bytes of the checkout this script sits in.

    python3 scripts/release_digest.py --sweeps 40

The digest covers, in a fixed order:

* the release JSON and the ``--debug-unsafe`` JSON of a fixed grid of
  selects on synthetic data with d = 5: pcls and pcpl, noisy argmin and the
  exponential mechanism, epsilon in {0.5, 5, inf}, delta in {1e-6, 0.2}
  (pcpl; pcls spends delta = 0), R in {1, 3}, phi in {0, 3}, the canonical
  and the reversed family, a data-dependent and a public response bound,
  and n in {40, 300, 1000};
* the CSV of a sweep shaped like acceptance criterion 5 (model 1,
  n = 1000, R = 3.5, epsilon in {0.1, 5, 10}, the default penalty grid,
  4 replications, one worker) plus noiseless epsilon = inf cells, which
  the selection core releases in the same call as the finite ones, under
  each (algorithm, mechanism) pair, at master seeds 0 to ``--sweeps`` - 1;
  pcpl sweeps spend delta = 1e-6; each sweep runs again with 5
  replications on two workers, whose chunks of 2 and 3 replications (on a
  host with two CPUs or more) make a state that leaked from one
  replication, or one chunk, into the next show in the digest;
* the release JSON and the ``--debug-unsafe`` JSON of ``dpms select``,
  run in process through ``dpms.cli.main`` with pcls and pcpl, on one
  table written as a CSV file in each spelling the README lists: plain
  LF, BOM + CRLF, bare CR, no final line end, quoted cells, padded cells,
  a quoted header name over two lines, and exponent and integer cells;
* two large ``--debug-unsafe`` dumps: a pcls select over every subset of
  d = 10, the empty mask included, and ``dpms select`` (pcpl, through
  ``dpms.cli.main``) over every subset of d = 8 in reverse order, read
  from an ``@family.json`` file.

A change that keeps every released byte prints the parent's digest; run
the script in both checkouts and compare.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dpms  # noqa: E402
import dpms.cli  # noqa: E402

D = 5
BETA = (1.0, -0.8, 0.5, 0.0, 0.0)
# (replications, max_workers) of each sweep's runs.
SWEEP_RUNS = ((4, 1), (5, 2))
SWEEP_PAIRS = (
    ("pcls", "noisy_argmin"),
    ("pcls", "exponential"),
    ("pcpl", "noisy_argmin"),
    ("pcpl", "exponential"),
)


def _dataset(n: int, public: bool) -> dpms.Dataset:
    rng = np.random.default_rng([D, n])
    x = rng.uniform(-1.0, 1.0, (n, D))
    y = x @ np.asarray(BETA) + rng.normal(0.0, 1.0, n)
    if public:
        return dpms.Dataset(x, np.clip(y, -3.0, 3.0), 3.0)
    return dpms.Dataset.from_arrays(x, y)


def select_reports():
    """Release and debug JSON of every select of the grid, in order."""
    canonical = dpms.all_subsets(D)
    reversed_family = dpms.from_explicit([m.indices() for m in reversed(list(canonical))], D)
    datasets = {(n, public): _dataset(n, public)
                for n in (40, 300, 1000) for public in (False, True)}
    cases = itertools.product(
        ("pcls", "pcpl"), ("noisy_argmin", "exponential"), (0.5, 5.0, math.inf),
        (1e-6, 0.2), (1.0, 3.0), (0.0, 3.0), (False, True), (False, True), (40, 300, 1000),
    )
    for i, (algorithm, mechanism, eps, delta, radius, phi, reverse, public, n) in enumerate(cases):
        if algorithm == "pcls":
            if delta != 1e-6:
                continue
            delta = 0.0
        config = dpms.SelectionConfig(radius=radius, penalty=phi,
                                      budget=dpms.PrivacyBudget(eps, delta), mechanism=mechanism)
        select = dpms.pcls_select if algorithm == "pcls" else dpms.pcpl_select
        family = reversed_family if reverse else canonical
        report = select(datasets[n, public], family, config, dpms.RngStream(2**70 + 9, i))
        yield report.to_json()
        yield report.to_json(include_clean_scores=True)


def sweep_csvs(sweeps: int):
    """CSV of every c05-shaped sweep, by master seed, then pair, then run."""
    runs = itertools.product(range(sweeps), SWEEP_PAIRS, SWEEP_RUNS)
    for seed, (algorithm, mechanism), (replications, workers) in runs:
        grid = dpms.SweepGrid(
            n_values=(1000,), radius_values=(3.5,), epsilon_values=(0.1, 5.0, 10.0, math.inf),
            delta_values=(0.0,) if algorithm == "pcls" else (1e-6,),
            replications=replications, algorithm=algorithm,
        )
        template = dpms.SyntheticSpec(n=1000, coefficients=dpms.BUILTIN_MODELS["1"],
                                      rng=dpms.RngStream(seed, 0))
        result = dpms.run_sweep(grid, template, model_id="1", mechanism=mechanism,
                                max_workers=workers)
        yield result.to_csv()


def _csv_spellings() -> dict[str, bytes]:
    """One table of y and three covariates (integer y, so that an integer
    cell spells it exactly) in every spelling the README lists."""
    rng = np.random.default_rng([D, 7])
    x = rng.uniform(-1.0, 1.0, (60, 3))
    # + 0.0 turns -0.0 into 0.0, which the integer cell "0" spells.
    y = np.clip(np.round(x @ np.asarray(BETA[:3]) * 2.0 + rng.normal(0.0, 1.0, 60)), -3, 3) + 0.0
    rows = [[repr(float(v)) for v in (yi, *xi)] for yi, xi in zip(y, x)]

    def text(cells, header="y,a,b,c", eol="\n"):
        return eol.join([header, *(",".join(row) for row in cells)]) + eol

    plain = text(rows)
    return {
        "plain LF": plain.encode(),
        "BOM + CRLF": b"\xef\xbb\xbf" + text(rows, eol="\r\n").encode(),
        "bare CR": text(rows, eol="\r").encode(),
        "no final line end": plain[:-1].encode(),
        "quoted cells": text([[f'"{c}"' for c in row] for row in rows]).encode(),
        "padded cells": text([[f" {c}  " for c in row] for row in rows], " y , a,b ,c").encode(),
        "quoted header name over two lines": text(rows, 'y,a,"b\nb",c').encode(),
        "exponent and integer cells": text(
            [[str(int(yi)), *(f"{v:.16E}" for v in xi)] for yi, xi in zip(y, x)]).encode(),
    }


def cli_reports():
    """Release and debug JSON of ``dpms select`` on every CSV spelling,
    by spelling, then algorithm."""
    with tempfile.TemporaryDirectory() as tmp:
        for i, raw in enumerate(_csv_spellings().values()):
            path = Path(tmp) / f"{i}.csv"
            path.write_bytes(raw)
            for algorithm, delta in (("pcls", "0"), ("pcpl", "1e-6")):
                for debug in ([], ["--debug-unsafe"]):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = dpms.cli.main([
                            "select", "--input", str(path), "--response", "y", "--r", "3",
                            "--algorithm", algorithm, "--delta", delta, "--R", "2",
                            "--phi", "1", "--epsilon", "2", "--seed", str(2**70 + 11), *debug,
                        ])
                    if code != 0:
                        raise SystemExit(f"dpms select exited {code} on {path}")
                    yield out.getvalue()


def large_dumps():
    """The ``--debug-unsafe`` JSON of a d = 10 family in process, then of a
    reversed d = 8 family through the CLI."""
    rng = np.random.default_rng([10, 1])
    x = rng.uniform(-1.0, 1.0, (400, 10))
    y = x[:, :3] @ np.asarray(BETA[:3]) + rng.normal(0.0, 1.0, 400)
    config = dpms.SelectionConfig(radius=2.0, penalty=2.0, budget=dpms.PrivacyBudget(1.0))
    family = dpms.all_subsets(10, include_empty=True)
    report = dpms.pcls_select(dpms.Dataset.from_arrays(x, y), family, config,
                              dpms.RngStream(2**70 + 13, 0))
    yield report.to_json(include_clean_scores=True)
    family = [list(m.indices()) for m in reversed(list(dpms.all_subsets(8, include_empty=True)))]
    y = np.clip(x[:, :8] @ np.asarray(BETA + (0.0,) * 3) + rng.normal(0.0, 1.0, 400), -3.0, 3.0)
    with tempfile.TemporaryDirectory() as tmp:
        data, models = Path(tmp) / "data.csv", Path(tmp) / "family.json"
        rows = [",".join(repr(float(v)) for v in (yi, *xi)) for yi, xi in zip(y, x[:, :8])]
        data.write_text("\n".join(["y," + ",".join(f"x{j}" for j in range(8)), *rows]) + "\n")
        models.write_text(json.dumps(family))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dpms.cli.main([
                "select", "--input", str(data), "--response", "y", "--r", "3",
                "--no-include-intercept", "--models", f"@{models}", "--algorithm", "pcpl",
                "--delta", "1e-6", "--R", "2", "--phi", "1", "--epsilon", "2",
                "--seed", str(2**70 + 17), "--debug-unsafe",
            ])
        if code != 0:
            raise SystemExit(f"dpms select exited {code} on {data}")
        yield out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sweeps", type=int, default=40,
                        help="number of sweep master seeds (default 40)")
    args = parser.parse_args(argv)
    if args.sweeps < 0:
        parser.error("--sweeps must be at least 0")
    digest = hashlib.sha256()
    for text in itertools.chain(select_reports(), sweep_csvs(args.sweeps), cli_reports(),
                                large_dumps()):
        raw = text.encode("utf-8")
        # Length-prefixed, so no two sequences of texts hash alike.
        digest.update(len(raw).to_bytes(8, "little") + raw)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
