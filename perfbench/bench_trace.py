"""Outside-in span recording for the dpms benchmark.

The traced run replaces the public names each dpms module binds from the
next (``dpms.cli.load_csv``, ``dpms.selection.fit_masks``, ...) with thin
wrappers that record a span around the call.  Nothing inside the package
changes: the wrappers sit at module boundaries only, so a layer's self time
is the time spent in its own code between calls into the next layer.

A span is ``[name, start, end, parent, op, info]``; ``parent`` is the
index of the enclosing span (-1 for an operation's root) and ``info``
holds the counts read from the call's return value.
"""

from __future__ import annotations

import functools
import importlib
import time


def _fit_info(args, out):
    return {
        "models": len(out),
        "iterations": [fit.iterations for fit in out],
        "converged": sum(fit.converged for fit in out),
    }


def _family_info(args, out):
    return {"models": len(out), "d": out.d}


def _pick_info(args, out):
    # One keyed draw per candidate; timed operations always use a finite
    # budget, so every candidate gets its draw.
    return {"draws": len(args[0])}


def _select_info(args, out):
    return {"fallback": bool(out.fallback_uniform)}


def _json_info(args, out):
    return {"bytes": len(out.encode("utf-8"))}


# (module, attribute, span name, counts taken from the return value).
# A dotted attribute names a method.
TARGETS = (
    ("dpms.cli", "load_csv", "data.load_csv", None),
    ("dpms.cli", "standardize", "data.standardize", None),
    ("dpms.cli", "all_subsets", "enumeration.all_subsets", _family_info),
    ("dpms.cli", "pcls_select", "selection.select", _select_info),
    ("dpms.cli", "pcpl_select", "selection.select", _select_info),
    ("dpms.selection", "sufficient_stats", "data.sufficient_stats", None),
    ("dpms.selection", "fit_masks", "solver.fit_masks", _fit_info),
    ("dpms.selection", "noisy_argmin", "mechanisms.pick", _pick_info),
    ("dpms.selection", "exponential_mechanism", "mechanisms.pick", _pick_info),
    ("dpms.selection", "sample_laplace", "mechanisms.stage1", None),
    ("dpms.selection", "SelectionReport.to_json", "selection.report_json", _json_info),
    ("dpms.simulate", "generate", "simulate.generate", None),
    ("dpms.simulate", "sufficient_stats", "data.sufficient_stats", None),
    ("dpms.simulate", "fit_masks", "solver.fit_masks", _fit_info),
    ("dpms.simulate", "all_subsets", "enumeration.all_subsets", _family_info),
    ("dpms.simulate", "_pcls_with_fits", "selection.select", _select_info),
    ("dpms.simulate", "_pcpl_with_fits", "selection.select", _select_info),
)

LAYERS = ("cli", "data", "enumeration", "solver", "selection", "mechanisms", "simulate")


class Recorder:
    """Holds every span of a run in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, out)
            return out

        return recorded

    def install(self) -> None:
        """Put a recording wrapper in place of every target name."""
        for module_name, attr, span_name, info in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(span_name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another in this single-threaded
    program, so their durations add without overlap.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [(span[2] - span[1]) - child[i] for i, span in enumerate(spans)]


def self_time_by_name(spans) -> dict[str, float]:
    """Total self time in seconds per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def layer_table(spans, op_count: int, op_seconds: float) -> str:
    """Per-layer self time per operation and share of operation time."""
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_time_by_name(spans).items():
        by_layer[name.split(".", 1)[0]] += seconds
    lines = [f"{'layer':<12} {'self ms/op':>12} {'share':>8}"]
    for layer, seconds in by_layer.items():
        share = seconds / op_seconds if op_seconds > 0 else 0.0
        lines.append(f"{layer:<12} {1000.0 * seconds / op_count:>12.4f} {share:>8.2%}")
    return "\n".join(lines) + "\n"
