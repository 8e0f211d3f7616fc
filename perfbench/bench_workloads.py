"""The benchmark's workloads: inputs, one operation, and output checks.

Every workload is a closed loop with one client: the runner calls
``run_op`` again only after the previous call returned.  Inputs come from
the workload seed alone; dpms sees only the generated CSV or sweep
configuration.  Checks read only what a released report must keep
(``chosen``, ``epsilon_total``, ``delta``, ``fallback_uniform``), so they
hold for an index-only report too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os

import numpy as np

import dpms
import dpms.cli

# The data-generating model of the select workloads: y = 1.5 x1 + x2 +
# 0.5 x3 + N(0, 1) with every covariate uniform on [-1, 1].
SIGNAL = (1.5, 1.0, 0.5)
RADIUS = 2.5
PHI = 50.0
EPSILON = 1.0
DELTA = 1e-6
RESPONSE_BOUND = 4.0
# A fit's cost follows the slowest-converging mask, which depends on the
# data, so one dataset per run would make runs differ by their draw.  Each
# run cycles through this many datasets instead, about one per operation
# on select-full-d12, so its percentiles are taken over many draws.
DATASETS = 32

# A clean loss may sit above the exact minimum by the solver's stopping
# rule (relative decrease 1e-10 per step) and by round-off in the
# sufficient-statistics objective.  Together they stay near 1e-10 of the
# loss on these workloads, four orders of magnitude inside this gap.
LOSS_RTOL = 1e-6


def _capture(main, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in process and return (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class SelectWorkload:
    """One ``dpms select`` run per operation, in process, on a written CSV.

    Operation ``k`` reads dataset ``k % DATASETS`` and uses noise stream
    ``k`` under the workload seed, so a repeated operation must print the
    same report byte for byte.
    """

    root_span = "cli.main"
    selects_per_op = 1
    reps_per_op = 1

    def __init__(self, seed, workdir, *, covariates, n, models, cap, algorithm, mechanism):
        self.seed = seed
        self.n = n
        self.d = covariates + 1  # the intercept is a candidate covariate
        self.algorithm = algorithm
        self.flags = ["--models", models, "--algorithm", algorithm, "--mechanism", mechanism]
        if algorithm == "pcpl":
            self.flags += ["--delta", repr(DELTA)]
        header = ",".join([f"x{j + 1}" for j in range(covariates)] + ["y"])
        self.csv_paths = []
        for k in range(DATASETS):
            rng = np.random.default_rng([seed, covariates, k])
            x = rng.uniform(-1.0, 1.0, size=(n, covariates))
            y = x[:, : len(SIGNAL)] @ np.asarray(SIGNAL) + rng.normal(0.0, 1.0, size=n)
            path = os.path.join(workdir, f"input-{k}.csv")
            np.savetxt(path, np.column_stack([x, y]), fmt="%.17g",
                       delimiter=",", header=header, comments="")
            self.csv_paths.append(path)
            if k == 0:
                self.x, self.y = x, y  # the verification's reference data
        self.family = {
            combo
            for size in range(1, cap + 1)
            for combo in itertools.combinations(range(1, self.d + 1), size)
        }
        self.root = dpms.cli.main

    def argv(self, op_id: int, epsilon: str = repr(EPSILON)) -> list[str]:
        return [
            "select", "--input", self.csv_paths[op_id % DATASETS], "--response", "y", *self.flags,
            "--R", repr(RADIUS), "--phi", repr(PHI), "--epsilon", epsilon,
            "--standardize", "clip", "--r", repr(RESPONSE_BOUND),
            "--seed", str(self.seed), "--stream-id", str(op_id),
        ]

    def run_op(self, op_id: int, root):
        return _capture(root, self.argv(op_id))

    def check_op(self, out) -> str | None:
        """Reason the operation's output is wrong, or None."""
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if tuple(report["chosen"]) not in self.family:
            return f"chosen mask {report['chosen']} is not in the family"
        if self.algorithm == "pcls":
            spend, delta = EPSILON, 0.0
        else:
            spend, delta = 2.0 * EPSILON, DELTA
        if not (math.isclose(report["epsilon_total"], spend, rel_tol=1e-12)
                and math.isclose(report["delta"], delta, rel_tol=1e-12)):
            return (f"ledger ({report['epsilon_total']}, {report['delta']}) "
                    f"differs from the configured ({spend}, {delta})")
        fallback = report["fallback_uniform"]
        if not isinstance(fallback, bool) or (fallback and self.algorithm == "pcls"):
            return f"fallback_uniform is {fallback!r}"
        return None

    def same_output(self, a, b) -> bool:
        return a == b

    def verify(self) -> list[tuple[str, str | None]]:
        """Untimed noiseless run checked against a least-squares reference.

        With ``--epsilon inf --debug-unsafe`` the report lists every
        mask's clean score.  The clean loss of a mask can never fall below
        the unconstrained residual sum of squares, and equals it whenever
        the least-squares fit already lies inside the l1 ball.
        """
        code, text = _capture(dpms.cli.main, self.argv(0, "inf") + ["--debug-unsafe"])
        if code != 0:
            return [("noiseless run", f"exit code {code}")]
        models = json.loads(text)["models"]
        masks = {tuple(rec["mask"]) for rec in models}
        checks = [("family", None if masks == self.family and len(models) == len(self.family)
                   else f"report lists {len(models)} masks, expected {len(self.family)}")]
        x = np.column_stack([np.ones(self.n), np.clip(self.x, -1.0, 1.0)])
        y = np.clip(self.y, -RESPONSE_BOUND, RESPONSE_BOUND)
        worst = None
        for rec in models:
            mask = rec["mask"]
            score = rec["clean_score"] - PHI * len(mask)
            loss = score if self.algorithm == "pcls" else self.n * math.exp(score / self.n)
            cols = x[:, [j - 1 for j in mask]]
            beta = np.linalg.lstsq(cols, y, rcond=None)[0]
            rss = float(np.sum((y - cols @ beta) ** 2))
            tol = LOSS_RTOL * max(rss, 1.0)
            inside = float(np.abs(beta).sum()) <= RADIUS
            if loss < rss - tol or (inside and loss > rss + tol):
                worst = f"mask {mask}: clean loss {loss!r}, least squares {rss!r}, inside={inside}"
                break
        checks.append(("clean loss vs lstsq", worst))
        return checks

    def accuracy(self) -> float | None:
        return None


class SweepWorkload:
    """One ``dpms.run_sweep`` call per operation over a block of replications.

    The configuration is acceptance criterion 5: model 1, n = 1000,
    R = 3.5, epsilon in {0.1, 5, 10}, the default 41-point penalty grid,
    pcls with noisy argmin, one worker.  Operation ``k`` uses master seed
    ``(seed << 20) + k``, so every operation draws fresh replications.
    """

    root_span = "simulate.run_sweep"
    epsilons = (0.1, 5.0, 10.0)

    def __init__(self, seed, *, n, block):
        self.seed = seed
        self.n = n
        self.grid = dpms.SweepGrid(
            n_values=(n,), radius_values=(3.5,), epsilon_values=self.epsilons,
            replications=block, algorithm="pcls",
        )
        self.cells = len(self.grid.phis_for(n)) * len(self.epsilons)
        self.selects_per_op = block * self.cells
        self.reps_per_op = block
        self.correct_at_5: dict[float, int] = {}
        self.reps_done = 0
        self.root = dpms.run_sweep

    def template(self, op_id: int):
        return dpms.SyntheticSpec(
            n=self.n, coefficients=dpms.BUILTIN_MODELS["1"],
            rng=dpms.RngStream((self.seed << 20) + op_id, 0),
        )

    def run_op(self, op_id: int, root):
        return root(self.grid, self.template(op_id), model_id="1", max_workers=1)

    def check_op(self, out) -> str | None:
        rows = out.rows
        if len(rows) != self.cells:
            return f"{len(rows)} rows, expected {self.cells}"
        reps = self.grid.replications
        for row in rows:
            props = (row.prop_correct, row.prop_agree, row.fallback_rate)
            if row.replications != reps or not all(0.0 <= p <= 1.0 for p in props):
                return f"bad row {row}"
        for row in rows:
            if row.epsilon == 5.0:
                hits = round(row.prop_correct * reps)
                self.correct_at_5[row.phi] = self.correct_at_5.get(row.phi, 0) + hits
        self.reps_done += reps
        return None

    def same_output(self, a, b) -> bool:
        return a.to_csv() == b.to_csv()

    def verify(self) -> list[tuple[str, str | None]]:
        """Untimed: a small grid gives the same CSV on 1 and on nproc workers."""
        workers = os.cpu_count() or 1
        grid = dpms.SweepGrid(
            n_values=(200,), radius_values=(3.5,), epsilon_values=(5.0,),
            replications=2 * workers, algorithm="pcls",
        )
        template = self.template(0)
        one = dpms.run_sweep(grid, template, model_id="1", max_workers=1).to_csv()
        many = dpms.run_sweep(grid, template, model_id="1", max_workers=workers).to_csv()
        return [(f"sweep CSV 1 vs {workers} workers",
                 None if one == many else "CSV differs between worker counts")]

    def accuracy(self) -> float | None:
        """Best prop_correct over the penalty grid at epsilon 5."""
        if not self.reps_done:
            return None
        return max(self.correct_at_5.values()) / self.reps_done


def make_workload(name: str, seed: int, workdir: str, smoke: bool):
    """Build a workload by name; ``smoke`` shrinks it to run in seconds."""
    if name == "select-full-d12":
        return SelectWorkload(
            seed, workdir, covariates=3 if smoke else 11, n=200 if smoke else 1000,
            models="all-nonempty", cap=4 if smoke else 12,
            algorithm="pcls", mechanism="noisy_argmin",
        )
    if name == "select-sparse-d20-pcpl":
        return SelectWorkload(
            seed, workdir, covariates=4 if smoke else 19, n=200 if smoke else 1000,
            models="size<=3", cap=3, algorithm="pcpl", mechanism="exponential",
        )
    if name == "sweep-c05":
        return SweepWorkload(seed, n=200 if smoke else 1000, block=1 if smoke else 4)
    raise KeyError(name)
