"""In-memory span recording around the program's public entry points.

A :class:`Tracer` replaces module attributes that callers look up at call
time (``rcmkf.filtering.kf_predict``, ``rcmkf.evaluation._stats_batch``, ...)
with wrappers that call through unchanged and record a span: name, start,
end, parent span and op id. Spans are recorded only while an op is open, so
calls the benchmark itself makes between ops leave no trace. The original
attributes are restored when the ``installed()`` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import Counter

# (module, attribute, span name). The module is the one the caller resolves
# the name in, so a function imported into several modules is wrapped in
# each caller's namespace under the same span name.
ENTRY_POINTS = (
    ("rcmkf.cli", "main", "cli.main"),
    ("rcmkf.cli", "load_config", "config.load_config"),
    ("rcmkf.cli", "run_ensemble", "montecarlo.run_ensemble"),
    ("rcmkf.cli", "rmse", "evaluation.rmse"),
    ("rcmkf.cli", "nees", "evaluation.nees"),
    ("rcmkf.cli", "consistency_sweep", "evaluation.consistency_sweep"),
    ("rcmkf.cli", "mc_moment_oracle", "conversion.mc_moment_oracle"),
    ("rcmkf.montecarlo", "run_single", "montecarlo.run_single"),
    ("rcmkf.montecarlo", "simulate_truth", "scenario.simulate_truth"),
    ("rcmkf.montecarlo", "synthesize_measurements", "scenario.synthesize_measurements"),
    ("rcmkf.montecarlo", "convert", "conversion.convert"),
    ("rcmkf.montecarlo", "run_filter", "filtering.run_filter"),
    ("rcmkf.filtering", "convert", "conversion.convert"),
    ("rcmkf.filtering", "kf_predict", "filtering.kf_predict"),
    ("rcmkf.filtering", "decorrelate", "filtering.decorrelate"),
    ("rcmkf.filtering", "kf_update_position", "filtering.kf_update_position"),
    ("rcmkf.filtering", "ekf_update_pseudo", "filtering.ekf_update_pseudo"),
    ("rcmkf.conversion", "unbiased_stats", "conversion.unbiased_stats"),
    ("rcmkf.conversion", "nested_stats", "conversion.nested_stats"),
    ("rcmkf.evaluation", "_stats_batch", "conversion.stats_batch"),
)

# Layer of a span name; ``config`` belongs to the ``cli`` layer.
LAYERS = ("scenario", "conversion", "filtering", "evaluation", "montecarlo", "cli")


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return "cli" if prefix == "config" else prefix


class Tracer:
    """Span and counter store for one benchmark run.

    ``spans`` holds ``[name, start_ns, end_ns, parent, op]`` lists; ``counts``
    holds event counts gathered at the same boundaries (scans filtered and
    skipped, items converted in batch, oracle draws, degenerate conversions).
    """

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, span in self.entry_points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def op_scope(self, op: int):
        """Record spans of calls made inside this block under op id ``op``."""
        self.op = op
        try:
            yield
        finally:
            self.op = None
            self._stack.clear()

    def _wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        return wrapper


def span_cost_s(calls: int = 10_000, rounds: int = 5) -> float:
    """Seconds a recording wrapper adds to one call: the median over
    ``rounds`` of ``calls`` wrapped and bare calls of a no-op function."""

    def noop():
        return None

    tracer = Tracer(entry_points=())
    wrapped = tracer._wrap(noop, "cli.noop")
    costs = []
    for _ in range(rounds):
        with tracer.op_scope(0):
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(max((t1 - t0) - (t2 - t1), 0.0) / calls)
        tracer.spans.clear()
    return statistics.median(costs)


def _count_run_filter(counts, run) -> None:
    counts["filtering.scans"] += len(run.beliefs)
    counts["filtering.scans_skipped"] += len(run.skipped_steps)


def _count_stats_batch(counts, result) -> None:
    counts["conversion.stats_batch.items"] += len(result[0])


def _count_oracle(counts, result) -> None:
    counts["conversion.mc_moment_oracle.draws"] += result.samples


_COUNTERS = {
    "filtering.run_filter": _count_run_filter,
    "conversion.stats_batch": _count_stats_batch,
    "conversion.mc_moment_oracle": _count_oracle,
}


def write_spans(path, spans, header: str) -> None:
    """Write spans as tab-separated lines under a ``#`` header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")
