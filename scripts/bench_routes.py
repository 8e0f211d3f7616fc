#!/usr/bin/env python3
"""Time ``pcls_select`` in process, parent against change, and write
``BENCH_routes.json``.

    python3 scripts/bench_routes.py --parent ../dpms-parent --change . --rounds 5

``bound_masks`` bounds a family by its d + 1 supersets {all columns} and
{all but column j} when the family's model sizes add up to more than
15 (d + 1) d, and otherwise starts from one first pass over the family
(see ``dpms.solver``).  A superset is bounded by its Frank-Wolfe gap at
its exact solve and at one KKT candidate, and never settled.  With the
exponential mechanism, or when X'X is ill-conditioned (condition number
above 500), the supersets are settled with their bounds instead, and
bound the family only above 40 (d + 1) d.  The workloads sit on both
sides of each rule: full families, size-capped ones up to d = 20, both
mechanisms, a collinear design (an intercept beside a full one-hot set,
so X'X is singular), a near-collinear one (X'X nonsingular, condition
number near 10^6) and a mid-conditioned one (condition number near 450,
just under the rule).

Each run imports one side's ``src/`` in a subprocess of its own and times
``--reps`` selects, cycling through 8 datasets and noise streams, five
times over; the run's value is the best of the five, in ms per select.
In the first round each side also counts, untimed, over the first
``COUNT_SELECTS`` selects: the family masks it first-passes, the
family rows it settles and the batches of supersets it settles, each
per select.  The counts are exact, so they tell apart workloads where
the two sides do different work from those where timing noise alone
differs.
Each round runs each side twice, in the order A B B A, and the side that
runs first alternates from one round to the next, so a drift of the
host's speed falls on both alike.  The output, in the working directory,
lists every run and each side's median over all its runs; the file is
rewritten after every round.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

SIDES = ("parent", "change")
DATASETS = 8
# Selects whose work each side counts in the first round.
COUNT_SELECTS = 160
RADIUS, PHI, EPSILON, RESPONSE_BOUND, N = 2.5, 50.0, 1.0, 4.0, 1000

# name: (design, covariates, size cap or None, mechanism).  "signal" is
# the benchmark's select data, y = 1.5 x1 + x2 + 0.5 x3 + N(0, 1) with
# x uniform on [-1, 1], beside an intercept; "onehot" adds a one-hot set
# of 6 levels (effects -0.8 .. 0.8), collinear with the intercept;
# "nearonehot" adds one of 4 levels (effects -0.6 .. 0.6) and scales each
# row's one-hot entry by 1 - u/100, u uniform, so X'X is nonsingular but
# ill-conditioned; "midonehot" scales it by 1 - 0.38 u, for a condition
# number near 450.
WORKLOADS = {
    "d4-full": ("signal", 3, None, "noisy_argmin"),
    "d8-full": ("signal", 7, None, "noisy_argmin"),
    "d9-full": ("signal", 8, None, "noisy_argmin"),
    "d10-full": ("signal", 9, None, "noisy_argmin"),
    "d11-full": ("signal", 10, None, "noisy_argmin"),
    "d12-full": ("signal", 11, None, "noisy_argmin"),
    "d9-full-exponential": ("signal", 8, None, "exponential"),
    "d12-full-exponential": ("signal", 11, None, "exponential"),
    "d12-size3": ("signal", 11, 3, "noisy_argmin"),
    "d12-size4": ("signal", 11, 4, "noisy_argmin"),
    "d16-size4": ("signal", 15, 4, "noisy_argmin"),
    "d16-size5": ("signal", 15, 5, "noisy_argmin"),
    "d20-size2": ("signal", 19, 2, "noisy_argmin"),
    "d20-size3": ("signal", 19, 3, "noisy_argmin"),
    "d20-size3-exponential": ("signal", 19, 3, "exponential"),
    "d20-size4": ("signal", 19, 4, "noisy_argmin"),
    "d12-size4-exponential": ("signal", 11, 4, "exponential"),
    "d20-size4-exponential": ("signal", 19, 4, "exponential"),
    "d20-size5": ("signal", 19, 5, "noisy_argmin"),
    "onehot-d10-full": ("onehot", 3, None, "noisy_argmin"),
    "onehot-d10-size3": ("onehot", 3, 3, "noisy_argmin"),
    "onehot-d12-full": ("onehot", 5, None, "noisy_argmin"),
    "nearonehot-d9-full": ("nearonehot", 4, None, "noisy_argmin"),
    "nearonehot-d9-full-exponential": ("nearonehot", 4, None, "exponential"),
    "nearonehot-d12-size4": ("nearonehot", 7, 4, "noisy_argmin"),
    "nearonehot-d12-size4-exponential": ("nearonehot", 7, 4, "exponential"),
    "nearonehot-d12-full": ("nearonehot", 7, None, "noisy_argmin"),
    "midonehot-d12-full": ("midonehot", 7, None, "noisy_argmin"),
    "midonehot-d12-size4": ("midonehot", 7, 4, "noisy_argmin"),
    "midonehot-d16-size4": ("midonehot", 11, 4, "noisy_argmin"),
    "midonehot-d16-size5": ("midonehot", 11, 5, "noisy_argmin"),
    "midonehot-d20-size4": ("midonehot", 15, 4, "noisy_argmin"),
    "midonehot-d20-size5": ("midonehot", 15, 5, "noisy_argmin"),
}

# The one-hot scale 1 - c u of each design that scales it.
ONEHOT_SCALE = {"nearonehot": 0.01, "midonehot": 0.38}


def _dataset(design: str, covariates: int, k: int):
    import numpy as np

    from dpms.data import standardize

    rng = np.random.default_rng([7, covariates, k])
    x = rng.uniform(-1.0, 1.0, size=(N, covariates))
    y = x[:, :3] @ np.array([1.5, 1.0, 0.5]) + rng.normal(0.0, 1.0, size=N)
    columns = [np.ones(N), x]
    if design != "signal":
        levels, effect = (6, 0.8) if design == "onehot" else (4, 0.6)
        level = rng.integers(0, levels, N)
        y = y + np.linspace(-effect, effect, levels)[level]
        onehot = np.eye(levels)[level]
        if design in ONEHOT_SCALE:
            onehot *= 1.0 - ONEHOT_SCALE[design] * rng.uniform(0.0, 1.0, (N, 1))
        columns.append(onehot)
    return standardize(np.column_stack(columns), y, "clip", response_bound=RESPONSE_BOUND)


def _counted(select, selects: int) -> dict:
    """Family masks first-passed, family rows settled and superset batches
    settled, per select, over ``selects`` calls of ``select``."""
    from dpms import solver

    counts = {"first_passed": 0, "settled": 0, "superset_settles": 0}
    in_supersets = []
    first_pass, settle = solver._first_pass, solver._settle

    def counted_first_pass(a, member, *rest):
        if not in_supersets:
            counts["first_passed"] += len(member)
        return first_pass(a, member, *rest)

    def counted_settle(a, yty, member, *rest):
        if in_supersets:
            counts["superset_settles"] += 1
        else:
            counts["settled"] += len(member)
        return settle(a, yty, member, *rest)

    def flagged(method):
        def wrapper(self):
            in_supersets.append(True)
            try:
                return method(self)
            finally:
                in_supersets.pop()
        return wrapper

    solver._first_pass, solver._settle = counted_first_pass, counted_settle
    # Earlier versions settle supersets part way through a select, in a
    # method of their own.
    for method in ("_superset_lower", "settle_supersets"):
        if hasattr(solver.LossBounds, method):
            setattr(solver.LossBounds, method, flagged(getattr(solver.LossBounds, method)))
    for _ in range(selects):
        select()
    return {key: round(value / selects, 4) for key, value in counts.items()}


def side_run(name: str, reps: int, count: bool = False) -> dict:
    """One side's run of one workload, in this process; with ``count``,
    the work of ``COUNT_SELECTS`` selects is counted after the timing."""
    from dpms import RngStream
    from dpms.data import sufficient_stats
    from dpms.enumeration import all_subsets
    from dpms.selection import PrivacyBudget, SelectionConfig, pcls_select
    from dpms.solver import bound_masks

    design, covariates, cap, mechanism = WORKLOADS[name]
    datasets = [_dataset(design, covariates, k) for k in range(DATASETS)]
    family = all_subsets(datasets[0].d, max_size=cap)
    config = SelectionConfig(radius=RADIUS, penalty=PHI, budget=PrivacyBudget(EPSILON),
                             mechanism=mechanism)
    ops = itertools.count()

    def select():
        op = next(ops)
        pcls_select(datasets[op % DATASETS], family, config, RngStream(7, op))

    for _ in range(DATASETS):
        select()
    best = min(timeit.repeat(select, number=reps, repeat=5)) / reps
    # A side without the choice of route or settle reads None.
    eager = {"eager": mechanism == "exponential"}
    if "eager" not in inspect.signature(bound_masks).parameters:
        eager = {}
    bounds = bound_masks(sufficient_stats(datasets[0]), family, RADIUS, **eager)
    result = {"ms_per_select": round(1e3 * best, 4), "models": len(family), "d": family.d,
              "supersets": getattr(bounds, "_supersets", None),
              "eager": getattr(bounds, "_eager", None)}
    if count:
        ops = itertools.count()
        result["per_select"] = _counted(select, COUNT_SELECTS)
    return result


def _route(result: dict) -> str:
    if not result["supersets"]:
        return "first pass"
    return "supersets, " + ("settled with the bounds" if result["eager"] else "gap bounds")


def _run(checkout: Path, name: str, reps: int, count: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--side-run", name, "--reps", str(reps)]
    if count:
        cmd.append("--count")
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{name} on {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--reps", type=int, default=20, help="selects per timed repeat")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--side-run", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side_run:
        print(json.dumps(side_run(args.side_run, args.reps, args.count)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    dirs = {"parent": args.parent, "change": args.change}
    names = args.workloads.split(",")
    runs = {name: {side: [] for side in SIDES} for name in names}
    counts: dict = {name: {} for name in names}
    doc: dict = {
        "method": (f"pcls_select in process, best of 5 repeats of {args.reps} selects "
                   f"per run, {args.rounds} rounds of two runs per side in the order A B B A, "
                   f"the first side alternating; n={N}, R={RADIUS}, "
                   f"phi={PHI}, epsilon={EPSILON}, r={RESPONSE_BOUND}, OMP_NUM_THREADS=1; "
                   f"work counted untimed over the first {COUNT_SELECTS} selects"),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    out = Path("BENCH_routes.json")
    for i in range(args.rounds):
        for name in names:
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order + order[::-1]:
                count = side not in counts[name]
                results[side] = _run(dirs[side], name, args.reps, count)
                runs[name][side].append(results[side]["ms_per_select"])
                if count:
                    counts[name][side] = results[side]["per_select"]
            median = {side: statistics.median(runs[name][side]) for side in SIDES}
            doc["workloads"][name] = {
                "models": results["change"]["models"],
                "d": results["change"]["d"],
                "change_route": _route(results["change"]),
                **{f"{side}_median_ms": round(median[side], 4) for side in SIDES},
                "change_over_parent": round(median["change"] / median["parent"], 3),
                "same_work": counts[name]["parent"] == counts[name]["change"],
                **{f"{side}_per_select": counts[name][side] for side in SIDES},
                **{f"{side}_runs_ms": runs[name][side] for side in SIDES},
            }
            print(f"round {i}: {name}: parent {runs[name]['parent'][-2:]} ms, "
                  f"change {runs[name]['change'][-2:]} ms", file=sys.stderr, flush=True)
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
