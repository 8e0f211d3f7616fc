#!/usr/bin/env python3
"""Run one workload of the dpms benchmark and print its metrics.

    python3 perfbench/run.py --workload select-full-d12 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, measured with nothing added to the
program; ``--trace 1`` reports per-layer metrics from spans recorded
around the calls between dpms modules, and writes the spans and a
per-layer self-time table under ``.perfbench_out/``.  ``--smoke`` shrinks
every workload so that a run takes seconds; the benchmark's tests use it.

The program is imported from ``src/`` of the checkout that holds this
directory; without it the benchmark exits with status 2.
"""

import os

# One BLAS thread, set before anything imports numpy, so that timings do
# not depend on how many cores happen to be idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DPMS_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_speed import NOMINAL_S, reference_seconds  # noqa: E402
from bench_trace import Recorder, layer_table, self_time_by_name  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("select-full-d12", "select-sparse-d20-pcpl", "sweep-c05")

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 11
# Every run times at least this many operations of each kind, however
# short --seconds is.
MIN_OPS = 3
# Width of the window of reference times that sets the speed of a time.
SPEED_WINDOW_S = 10.0
# Counts come from this many traced operations, which a seed fixes, so
# they repeat exactly on a rerun.
COUNT_OPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; finishes in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _git_commit() -> str:
    """The commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
    }


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters running ``import dpms.cli``, each
    with the reference time measured just before it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import dpms.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times, refs = [], []
    for _ in range(repeats):
        refs.append(reference_seconds())
        started = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - started)
    return times, refs


class Run:
    """Counts of one benchmark run: operations attempted, failures, checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, str | None]] = []

    def record(self, name: str, failure: str | None) -> None:
        self.attempted += 1
        self.failed += failure is not None
        self.checks.append((name, failure))
        if failure is not None:
            print(f"check failed: {name}: {failure}", file=sys.stderr)


def _attempt(run: Run, name: str, fn):
    """Call ``fn``; an exception or SystemExit counts as a failed check."""
    try:
        return fn()
    except (Exception, SystemExit) as exc:  # the program under test may raise anything
        traceback.print_exc(file=sys.stderr)
        run.record(name, f"raised {type(exc).__name__}: {exc}")
        return None


def timed_loop(workload, seconds: float, run: Run, recorder, warm_output):
    """Closed loop: the next operation starts when the previous returns.

    With a recorder, every input runs twice in a row, untraced and then
    traced; the traced output must equal the untraced one, and the pair
    gives the tracing overhead on identical work.  Returns the latencies of
    the untraced and traced operations that passed their checks, the ids
    of the traced operations, the reference time measured after each
    passing untraced operation of an untraced run, and the loop's wall time.
    """
    root = workload.root
    traced_root = recorder.wrap(workload.root_span, root) if recorder else None
    plain, traced, traced_ids, refs = [], [], [], []
    previous = None
    step = 0
    started = time.perf_counter()
    while True:
        enough = len(plain) >= MIN_OPS and (recorder is None or len(traced) >= MIN_OPS)
        if time.perf_counter() - started >= seconds and (enough or step >= 4 * MIN_OPS):
            break
        is_traced = recorder is not None and step % 2 == 1
        op_id = step // 2 if recorder is not None else step
        step += 1
        if is_traced:
            recorder.op = op_id
            traced_ids.append(op_id)
            recorder.install()
        try:
            t0 = time.perf_counter()
            out = workload.run_op(op_id, traced_root if is_traced else root)
            latency = time.perf_counter() - t0
        except (Exception, SystemExit) as exc:  # the program under test may raise anything
            traceback.print_exc(file=sys.stderr)
            run.record(f"op {op_id}", f"raised {type(exc).__name__}: {exc}")
            out = previous = None
        finally:
            if is_traced:
                recorder.uninstall()
        if out is None:
            continue
        if is_traced:
            same = previous is not None and workload.same_output(out, previous)
            failure = None if same else "traced output differs from the untraced output"
        else:
            failure = workload.check_op(out)
            if (failure is None and op_id == 0 and warm_output is not None
                    and not workload.same_output(out, warm_output)):
                failure = "repeated (seed, stream) operation gave a different output"
        run.record(f"op {op_id}", failure)
        previous = out if failure is None else None
        if failure is None:
            (traced if is_traced else plain).append(latency)
            if recorder is None:
                refs.append(reference_seconds())
    return plain, traced, traced_ids, refs, time.perf_counter() - started


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _scaled(times, refs):
    """Times rescaled to the speed at which the reference takes NOMINAL_S.

    Each time is scaled by the median of the reference times taken within
    about SPEED_WINDOW_S of it.  That follows the host's speed as it changes
    over tens of seconds, but not the jitter of single reference runs.
    """
    half = max(2, round(SPEED_WINDOW_S / 2 / statistics.median(times)))
    return [t * NOMINAL_S / statistics.median(refs[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]


def end_to_end(workload, setup, plain, refs, peak_rss_mb):
    """Timings at reference speed (see bench_speed) plus peak memory.

    Throughput is completed work over the summed operation times, so the
    reference runs between operations do not count against it.
    """
    ops = _scaled(plain, refs)
    busy = sum(ops)
    return {
        "setup_s": (statistics.median(_scaled(*setup)), "s"),
        "latency_ms_p50": (1000.0 * statistics.median(ops), "ms"),
        "latency_ms_p90": (1000.0 * _p90(ops), "ms"),
        "selects_per_s": (len(ops) * workload.selects_per_op / busy, "1/s"),
        "reps_per_s": (len(ops) * workload.reps_per_op / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(workload, recorder, plain, traced, traced_ids, run: Run):
    spans = recorder.spans
    ops = len(traced_ids)
    own = self_time_by_name(spans)
    counted = set(traced_ids[:COUNT_OPS])

    def ms_per_op(name):
        return 1000.0 * own.get(name, 0.0) / ops

    def infos(name, counted_only=True):
        return [s[5] for s in spans
                if s[0] == name and (not counted_only or s[4] in counted)]

    fits = infos("solver.fit_masks")
    iterations = sorted(i for fit in fits for i in fit["iterations"])
    models_fitted = sum(fit["models"] for fit in fits)
    families = infos("enumeration.all_subsets")
    selects = infos("selection.select")
    draws = sum(p["draws"] for p in infos("mechanisms.pick"))
    all_models = sum(f["models"] for f in infos("solver.fit_masks", False))
    all_draws = sum(p["draws"] for p in infos("mechanisms.pick", False))
    stage1 = [s[2] - s[1] for s in spans if s[0] == "mechanisms.stage1"]
    reps = ops * workload.reps_per_op
    is_sweep = workload.root_span == "simulate.run_sweep"
    roots = sum(s[2] - s[1] for s in spans if s[3] == -1)
    return {
        "cli.self_ms": (ms_per_op("cli.main"), "ms"),
        "data.load_csv_ms": (ms_per_op("data.load_csv"), "ms"),
        "data.standardize_ms": (ms_per_op("data.standardize"), "ms"),
        "data.stats_ms": (ms_per_op("data.sufficient_stats"), "ms"),
        "enumeration.family_ms": (ms_per_op("enumeration.all_subsets"), "ms"),
        "enumeration.models": (families[0]["models"] if families else 0, "count"),
        "enumeration.kept_share": (
            families[0]["models"] / 2 ** families[0]["d"] if families else 0.0, "share"),
        "solver.fit_ms": (ms_per_op("solver.fit_masks"), "ms"),
        "solver.fit_us_per_model": (
            1e6 * own.get("solver.fit_masks", 0.0) / all_models if all_models else 0.0, "us"),
        "solver.iterations_p50": (statistics.median(iterations) if iterations else 0, "count"),
        "solver.iterations_max": (iterations[-1] if iterations else 0, "count"),
        "solver.converged_share": (
            sum(f["converged"] for f in fits) / models_fitted if models_fitted else 0.0, "share"),
        "solver.models_fitted": (models_fitted / len(counted), "count"),
        "selection.self_ms": (ms_per_op("selection.select"), "ms"),
        "selection.fallback_share": (
            sum(s["fallback"] for s in selects) / len(selects) if selects else 0.0, "share"),
        "selection.report_json_ms": (ms_per_op("selection.report_json"), "ms"),
        "selection.report_bytes": (
            sum(j["bytes"] for j in infos("selection.report_json")) / len(counted), "bytes"),
        "mechanisms.pick_ms": (ms_per_op("mechanisms.pick"), "ms"),
        "mechanisms.pick_us_per_draw": (
            1e6 * own.get("mechanisms.pick", 0.0) / all_draws if all_draws else 0.0, "us"),
        "mechanisms.draws": (draws / len(counted), "count"),
        "mechanisms.stage1_us": (1e6 * statistics.fmean(stage1) if stage1 else 0.0, "us"),
        "simulate.self_ms_per_rep": (
            1000.0 * own.get("simulate.run_sweep", 0.0) / reps if is_sweep else 0.0, "ms"),
        "simulate.generate_ms_per_rep": (
            1000.0 * own.get("simulate.generate", 0.0) / reps if is_sweep else 0.0, "ms"),
        "simulate.selects_per_fit": (len(selects) / len(fits) if fits else 0.0, "count"),
        "simulate.accuracy_best": (workload.accuracy() or 0.0, "share"),
        "trace.overhead_share": (
            statistics.median(traced) / statistics.median(plain) - 1.0, "share"),
        "trace.unaccounted_share": (1.0 - roots / sum(traced) if traced else 0.0, "share"),
        "error_share": (run.failed / run.attempted, "share"),
    }


def write_trace(outdir: Path, recorder, traced_ids, traced) -> None:
    t0 = recorder.spans[0][1] if recorder.spans else 0.0
    with open(outdir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent, op, info in recorder.spans:
            info = {k: v for k, v in (info or {}).items() if k != "iterations"}
            fh.write(json.dumps([name, round(1e6 * (start - t0), 3), round(1e6 * (end - t0), 3),
                                 parent, op, info]) + "\n")
    table = layer_table(recorder.spans, len(traced_ids), sum(traced))
    (outdir / "layers.txt").write_text(table, encoding="utf-8")
    print(table, end="")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dpms" / "__init__.py").is_file():
        print(f"error: no dpms package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dpms

    if Path(dpms.__file__).resolve().parent != SRC / "dpms":
        print(f"error: imported dpms from {dpms.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from bench_workloads import make_workload

    outdir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    env = environment()
    (outdir / "env.json").write_text(json.dumps(env, indent=2) + "\n", encoding="utf-8")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env))

    setup = measure_setup(2 if args.smoke else SETUP_REPEATS)
    workload = make_workload(args.workload, args.seed, str(outdir), args.smoke)
    run = Run()
    warm = _attempt(run, "warm-up", lambda: workload.run_op(0, workload.root))
    if warm is not None:
        run.record("warm-up", workload.check_op(warm))
    for name, failure in _attempt(run, "verify", workload.verify) or ():
        run.record(name, failure)

    recorder = Recorder() if args.trace else None
    plain, traced, traced_ids, refs, loop_seconds = timed_loop(
        workload, args.seconds, run, recorder, warm)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for path in outdir.glob("input-*.csv"):
        path.unlink()

    if not plain or (recorder is not None and not traced):
        print("error: no operation passed its checks", file=sys.stderr)
        return 1
    if recorder is None:
        metrics = end_to_end(workload, setup, plain, refs, peak_rss_mb)
        print(f"raw wall time: setup {statistics.median(setup[0]):.6f} s, "
              f"latency p50 {1000.0 * statistics.median(plain):.3f} ms, "
              f"p90 {1000.0 * _p90(plain):.3f} ms; reference median "
              f"{1000.0 * statistics.median(refs):.4f} ms (nominal {1000.0 * NOMINAL_S:g} ms)")
    else:
        write_trace(outdir, recorder, traced_ids, traced)
        metrics = per_layer(workload, recorder, plain, traced, traced_ids, run)

    verified = [name for name, failure in run.checks if not name.startswith("op ")]
    print(f"checks: {run.attempted - run.failed}/{run.attempted} passed "
          f"({len(plain) + len(traced)} timed operations; untimed: {', '.join(verified)})")
    print(f"samples: {len(plain)} untraced, {len(traced)} traced, loop {loop_seconds:.3f} s")
    print(f"error_share: {run.failed / run.attempted:.6g} share ({run.failed}/{run.attempted})")
    if workload.accuracy() is not None:
        print(f"accuracy_best: {workload.accuracy():.6g} share "
              f"(best prop_correct at epsilon 5 over {workload.reps_done} replications)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>16.6f} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (outdir / "result.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
