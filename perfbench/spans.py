"""Outside-in spans around the package's layer boundaries.

Wrappers are installed from here at the module attributes that callers look
up (for example `replica.gap`, which the solver calls as `replica.gap(...)`),
so the package itself is unchanged. Spans are kept in memory and reduced to
per-layer figures at the end. A traced run executes on one thread, so spans
nest and the layers' self times partition the time spent inside `cli.main`.
Decoding and disorder weighting happen inside `replica.gap` itself and cannot
be separated from outside; they count as replica self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "solver", "replica", "model", "cluster", "duality")

# (module, attribute, layer). The module is where the caller looks the name
# up, which is not always where the function is defined.
HOOKS = (
    ("lossthreshold.cli", "main", "cli"),
    ("lossthreshold.solver", "solve_threshold", "solver"),
    ("lossthreshold.replica", "gap", "replica"),
    ("lossthreshold.replica", "gap_monte_carlo", "replica"),
    ("lossthreshold.replica", "log_partition_batch", "cluster"),
    ("lossthreshold.replica", "log_dual_partition_batch", "duality"),
    ("lossthreshold.model", "nishimori_coupling", "model"),
    ("lossthreshold.model", "disorder_distribution", "model"),
)


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _result_attrs(name: str, args: tuple, result) -> dict:
    """Counts read off a call's arguments and result at the boundary."""
    if name == "solve_threshold":
        attrs = {"iterations": result.iterations}
        if result.method == "monte-carlo":
            attrs["bracket_width"] = result.bracket[1] - result.bracket[0]
        return attrs
    if name in ("gap", "gap_monte_carlo"):
        return {"rows": result.terms}
    if name == "log_partition_batch":
        cluster, tau = args[0], args[1]
        return {"row_configs": len(tau) * cluster.config_count}
    return {}


class Tracer:
    """Collects spans from the wrappers it installs; `install` returns an undo."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(layer, name, stack[-1] if stack else None,
                        threading.get_ident(), time.perf_counter())
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.attrs = _result_attrs(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every hook that exists; returns a function that restores them.

        A hook whose attribute is missing is reported on stderr and skipped,
        so a refactor that moves a function loses that layer's figures instead
        of the whole run.
        """
        saved = []
        for module_name, attr, layer in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"perfbench: no {module_name}.{attr} to trace", file=sys.stderr)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, attr, fn))

        def restore():
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

        return restore


def layer_totals(spans: list[Span]) -> dict:
    """Per-layer calls, self time and counts; self times sum to the root wall.

    A layer's self time is its spans' durations minus the time their direct
    children cover. `calls` counts outermost spans of the layer, so a
    Monte Carlo gap (gap calling gap_monte_carlo) counts once.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    threads = {s.thread for s in spans}
    if len(threads) > 1:
        raise RuntimeError(f"spans came from {len(threads)} threads; trace with one worker")
    totals = {layer: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0} for layer in LAYERS}
    counts = {"iterations": 0, "rows": 0, "row_configs": 0, "bracket_width_max": 0.0}
    wall = 0.0
    for i, span in enumerate(spans):
        t = totals[span.layer]
        t["self_s"] += span.duration - child_time[i]
        if span.parent is None:
            wall += span.duration
        a = span.attrs
        if span.parent is None or spans[span.parent].layer != span.layer:
            t["calls"] += 1
            t["inclusive_s"] += span.duration
            counts["rows"] += a.get("rows", 0)
        counts["iterations"] += a.get("iterations", 0)
        counts["row_configs"] += a.get("row_configs", 0)
        counts["bracket_width_max"] = max(counts["bracket_width_max"], a.get("bracket_width", 0.0))
    return {"layers": totals, "counts": counts, "wall_s": wall}
