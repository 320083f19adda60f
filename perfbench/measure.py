"""Metric arithmetic of the benchmark, kept free of I/O so it can be tested.

Every function here takes plain numbers or sequences and returns numbers;
the runner feeds them the op timings, the parsed CSV columns and the trace
spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Percentile reported as the op latency tail. It is fixed rather than
# derived from the op count: a run lasts a fixed time, so a faster commit
# runs more ops, and a count-derived percentile would score it and its
# parent at different points of the distribution. A run holds 19 to 79 ops,
# too few for ten beyond any percentile well above the median; p80 leaves
# 3 to 15, and its run-to-run spread stays near that of the median, where
# p90's is twice as wide.
TAIL_PERCENTILE = 80.0
# First estimation step scored by the time averages (the paper's criterion 3).
SCORE_FROM_STEP = 10


def latency_ms(times) -> tuple[float, float, int]:
    """Median and ``TAIL_PERCENTILE`` of op times (s) in ms, and the ops beyond the tail."""
    ms = 1e3 * np.asarray(times, dtype=float)
    p50, tail = np.percentile(ms, [50.0, TAIL_PERCENTILE])
    return float(p50), float(tail), int(np.count_nonzero(ms > tail))


def rescale(seconds: float, cal_before: float, cal_after: float, reference: float) -> float:
    """Wall time rescaled to a fixed machine speed.

    ``cal_before`` and ``cal_after`` are times of a fixed calibration kernel
    run just before and after the timed work; ``reference`` is the kernel's
    time at the reference speed. A machine running 20% slow during the work
    slows the kernel alike, and the ratio cancels it.
    """
    return seconds * reference / (0.5 * (cal_before + cal_after))


def time_average(steps, values, start: int = SCORE_FROM_STEP) -> float:
    """Mean of ``values`` over the steps at or after ``start``."""
    kept = [v for s, v in zip(steps, values) if s >= start]
    if not kept:
        raise ValueError(f"no steps at or after {start}")
    return sum(kept) / len(kept)


def log_dev(values, dof: int) -> float:
    """Mean of ``|ln(v / dof)|``: 0 when every average matches its dof.

    Consistency statistics (NEES, NES) average to their degrees of freedom
    when the filter or conversion reports honest covariances; the log makes
    over- and under-confidence by the same factor score the same.
    """
    vals = list(values)
    if not vals:
        raise ValueError("no values to score")
    if any(not v > 0 for v in vals):
        raise ValueError("consistency statistics must be positive")
    return sum(abs(math.log(v / dof)) for v in vals) / len(vals)


def nees_dev(steps, nees, dof: int, start: int = SCORE_FROM_STEP) -> float:
    """Time average over steps >= ``start`` of ``|ln(NEES_k / dof)|``."""
    return log_dev([v for s, v in zip(steps, nees) if s >= start], dof)


def nes_dev(avg_nes, dof: int) -> float:
    """Grid mean of ``|ln(avg NES / dof)|`` over a consistency sweep."""
    return log_dev(avg_nes, dof)


class OutputError(Exception):
    """An op's output files are missing, malformed or fail a check."""


@dataclass
class OpTally:
    """Attempted and failed op counts, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        """Count one op; ``reason`` is None for a success."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed_frac


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1. Children are clipped to their parent
    and their union is subtracted, so overlapping or stray children never
    drive a self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def rollup_kb(text: str) -> dict[str, int]:
    """The ``kB`` fields of a ``/proc/<pid>/smaps_rollup`` file."""
    fields = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if len(parts) == 2 and parts[1] == "kB":
            fields[key] = int(parts[0])
    return fields


def tree_memory_kb(parent: dict[str, int], children) -> int:
    """Resident memory of a process and its children, each page counted once.

    The parent counts its whole RSS. A forked child counts only its private
    pages: the pages it still shares with the parent after fork
    (copy-on-write) are already in the parent's RSS.
    """
    return parent["Rss"] + sum(c["Private_Clean"] + c["Private_Dirty"] for c in children)
