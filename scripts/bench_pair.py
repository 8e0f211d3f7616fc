#!/usr/bin/env python3
"""Benchmark a change against its parent and write ``BENCH_<label>.json``.

    python3 scripts/bench_pair.py --parent ../dpms-parent --change . --label report \\
        --seeds 1-3 --claim select-full-d12:selects_per_s --claim-seeds 11-20

Both arguments are checkouts of the repository; each side runs its own
``perfbench/run.py`` against its own ``src/``.  For every workload of the
change's ``BENCHMARK.json`` and every seed, the two sides run one after the
other, and the side that runs first alternates from one pair to the next,
so a drift of the host's speed falls on both sides alike.  Each pair runs
at ``--trace 0`` (end-to-end metrics) and at ``--trace 1`` (per-layer
metrics), for the ``run_seconds`` that ``BENCHMARK.json`` fixes.  A
``--claim`` adds one more series of pairs, at ``--trace 0``, for the one
metric a change claims to improve.

The output, in the working directory, follows ``BENCH_solver.json``: per
workload and metric, the median over the seeds of each side next to every
run's value; for the claim, both sides' runs, medians and quartiles, the
number of pairs the change won, and whether that meets the rule for
claiming a gain (``meets_rule``).  The file is rewritten after every
pair, so an interrupted session keeps what it measured.  Every run must
print ``correct: true``; ``all_runs_correct`` says whether they did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACES = (0, 1)


def _seeds(text: str) -> list[int]:
    """``"1,2,5"`` or ``"11-20"`` (inclusive) as a list of seeds."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--seeds", required=True, type=_seeds,
                        help="workload seeds of the paired runs, e.g. 1-3")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="end-to-end metric the change claims to improve")
    parser.add_argument("--claim-seeds", type=_seeds, default=_seeds("11-20"),
                        help="seeds of the claim's pairs (default 11-20)")
    parser.add_argument("--what", default="", help="one line on what the change does")
    args = parser.parse_args(argv)
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {getattr(args, side)} holds no perfbench/run.py")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its result line plus the environment it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    print(f"{checkout}: {workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}", file=sys.stderr, flush=True)
    return result


class Pairs:
    """Runs both sides in turn; the side that starts alternates per pair."""

    def __init__(self, parent: Path, change: Path, seconds: float) -> None:
        self.dirs = {"parent": parent, "change": change}
        self.seconds = seconds
        self.count = 0

    def run(self, workload: str, seed: int, trace: int) -> dict[str, dict]:
        order = SIDES if self.count % 2 == 0 else SIDES[::-1]
        self.count += 1
        return {side: run_once(self.dirs[side], workload, seed, self.seconds, trace)
                for side in order}


def _round(value: float):
    return int(value) if float(value).is_integer() else round(value, 4)


def _metrics(runs: dict[str, list[dict]]) -> dict:
    """Per metric: unit, each side's median and every run's value."""
    out = {}
    for name, first in runs["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        out[name] = {
            "unit": first["unit"],
            **{side: _round(statistics.median(values[side])) for side in SIDES},
            **{f"{side}_runs": [_round(v) for v in values[side]] for side in SIDES},
        }
    return out


def _correct(runs: dict[str, list[dict]]) -> bool:
    return all(r["correct"] and r["failed"] == 0 for side in SIDES for r in runs[side])


def claim_block(pairs: list[dict[str, dict]], metric: str, better: str) -> dict:
    """Both sides' runs, medians and quartiles, the pairs the change won,
    and ``meets_rule``: whether the change won at least nine tenths of the
    pairs (ties count for neither side) and its median beats the parent's
    by more than the parent's interquartile range."""
    value = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES}
    sign = 1.0 if better == "higher" else -1.0
    out: dict = {"unit": pairs[0]["parent"]["metrics"][metric]["unit"], "better": better}
    for side in SIDES:
        out[f"{side}_runs"] = [_round(v) for v in value[side]]
    median = {side: statistics.median(value[side]) for side in SIDES}
    spread = 0.0
    for side in SIDES:
        out[f"{side}_median"] = _round(median[side])
        if len(pairs) > 1:
            q1, _, q3 = statistics.quantiles(value[side], n=4, method="inclusive")
            out[f"{side}_quartiles"] = [_round(q1), _round(q3)]
            if side == "parent":
                spread = q3 - q1
    ratio = out["change_median"] / out["parent_median"]
    out["pairs_won"] = sum(sign * (c - p) > 0 for p, c in zip(value["parent"], value["change"]))
    out["pairs"] = len(pairs)
    out["gain"] = round(ratio - 1.0 if better == "higher" else 1.0 - ratio, 3)
    out["meets_rule"] = (
        10 * out["pairs_won"] >= 9 * len(pairs)
        and sign * (median["change"] - median["parent"]) > spread
    )
    out["all_runs_correct"] = _correct({side: [p[side] for p in pairs] for side in SIDES})
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    pairs = Pairs(args.parent, args.change, seconds)
    out = Path(f"BENCH_{args.label}.json")
    seeds = ",".join(map(str, args.seeds))
    run = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
    doc: dict = {
        "label": args.label,
        "what": args.what,
        "parent_commit": None,
        "change_commit": None,
        "method": {
            "end_to_end": f"{run} --trace 0, seeds {seeds}, parent checkout and change one "
                          "after the other, the side that runs first alternating per pair",
            "per_layer": f"{run} --trace 1, seeds {seeds}, alternating the same way",
            "statistic": "median over the seeds of each run's printed value; every run is listed",
        },
        "workloads": {},
    }

    def save(result: dict[str, dict]) -> None:
        env = dict(result["parent"]["env"])
        doc["parent_commit"] = env.pop("commit", None)
        doc["change_commit"] = result["change"]["env"].get("commit")
        doc["method"]["environment"] = env
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    for workload in (w["name"] for w in spec["workloads"]):
        runs = {trace: {side: [] for side in SIDES} for trace in TRACES}
        for seed in args.seeds:
            for trace in TRACES:
                result = pairs.run(workload, seed, trace)
                for side in SIDES:
                    runs[trace][side].append(result[side])
                entry = {"end_to_end": _metrics(runs[0])}
                if runs[1]["parent"]:
                    entry["per_layer"] = _metrics(runs[1])
                entry["all_runs_correct"] = all(_correct(r) for r in runs.values() if r["parent"])
                doc["workloads"][workload] = entry
                save(result)

    if args.claim:
        workload, _, metric = args.claim.partition(":")
        better = next((m["better"] for m in spec["end_to_end"] if m["name"] == metric), None)
        if better is None or workload not in doc["workloads"]:
            sys.exit(f"--claim {args.claim}: not an end-to-end metric and workload of BENCHMARK.json")
        claimed: list[dict[str, dict]] = []
        for seed in args.claim_seeds:
            claimed.append(pairs.run(workload, seed, 0))
            doc["claim"] = {
                "metric": metric,
                "workload": workload,
                "method": f"{len(args.claim_seeds)} pairs at seeds "
                          f"{','.join(map(str, args.claim_seeds))}, --seconds {seconds:g} "
                          "--trace 0, the side that runs first alternating per pair",
                **claim_block(claimed, metric, better),
            }
            save(claimed[-1])
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
