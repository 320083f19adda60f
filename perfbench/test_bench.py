"""Tests of the benchmark's own metric code.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

import measure
import tracing


def test_tail_percentile_does_not_depend_on_op_count():
    # a faster commit runs more ops in the same time; its tail must be read
    # at the same percentile as its parent's
    for n in (11, 20, 45, 200):
        times = [0.001 * (i + 1) for i in range(n)]
        p50, tail, beyond = measure.latency_ms(times)
        assert p50 == pytest.approx(1e3 * float(np.percentile(times, 50.0)))
        assert tail == pytest.approx(1e3 * float(np.percentile(times, measure.TAIL_PERCENTILE)))
        assert beyond == sum(1e3 * t > tail for t in times)
    # on 1..11 ms the percentile p lies at 1 + 10 p / 100 ms
    tail = measure.latency_ms([0.001 * (i + 1) for i in range(11)])[1]
    assert tail == pytest.approx(1.0 + measure.TAIL_PERCENTILE / 10.0)


def test_nees_dev_scores_steps_from_ten():
    steps = list(range(2, 12))
    nees = [1000.0] * 8 + [4.0 * math.e, 4.0 / math.e]  # steps 10 and 11 scored
    assert measure.nees_dev(steps, nees, 4) == pytest.approx(1.0)
    assert measure.nees_dev(steps, [4.0] * 10, 4) == 0.0


def test_nes_dev_is_symmetric_in_log():
    assert measure.nes_dev([3.0, 3.0], 3) == 0.0
    assert measure.nes_dev([6.0], 3) == pytest.approx(measure.nes_dev([1.5], 3))
    assert measure.nes_dev([6.0, 3.0], 3) == pytest.approx(math.log(2.0) / 2)
    with pytest.raises(ValueError):
        measure.nes_dev([3.0, 0.0], 3)


def test_rescale_cancels_machine_speed():
    # the machine runs at half speed: work and kernel both take twice as long
    assert measure.rescale(2.0, 0.02, 0.02, 0.01) == pytest.approx(1.0)
    # the kernel around the work is averaged
    assert measure.rescale(3.0, 0.01, 0.02, 0.01) == pytest.approx(2.0)


def test_time_average_uses_scored_steps_only():
    assert measure.time_average([8, 9, 10, 11], [100.0, 100.0, 1.0, 3.0]) == 2.0


def test_failure_counting():
    tally = measure.OpTally()
    for reason in (None, "exit status 1", None, "missing csv", None):
        tally.record(reason)
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.failed_frac == pytest.approx(0.4)
    assert tally.ok_frac == pytest.approx(0.6)
    assert tally.reasons == ["exit status 1", "missing csv"]
    assert measure.OpTally().failed_frac == 0.0


def test_self_times_of_nested_spans():
    # root [0, 100] with children [10, 30] and [40, 90]; the second has a
    # child [50, 60] of its own
    spans = [(0, 100, -1), (10, 30, 0), (40, 90, 0), (50, 60, 2)]
    assert measure.self_times(spans) == [30, 20, 40, 10]
    assert sum(measure.self_times(spans)) == 100


def test_self_times_clip_overlapping_and_stray_children():
    spans = [(0, 10, -1), (2, 6, 0), (4, 8, 0), (9, 15, 0)]
    # children cover [2, 8] and [9, 10] of the root
    assert measure.self_times(spans)[0] == 3


def test_tracer_records_nesting_and_restores(monkeypatch):
    import sys
    import types

    mod = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    mod.leaf, mod.outer = leaf, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = tracing.Tracer(
        entry_points=(("fake_layer", "outer", "cli.outer"), ("fake_layer", "leaf", "scenario.leaf"))
    )
    with tracer.installed():
        assert mod.outer(1) == 4  # outside an op: no spans
        with tracer.op_scope(7):
            assert mod.outer(1) == 4
    assert mod.leaf is leaf and mod.outer is outer
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("cli.outer", -1, 7), ("scenario.leaf", 0, 7)]
    selfs = measure.self_times([(s[1], s[2], s[3]) for s in tracer.spans])
    assert sum(selfs) == tracer.spans[0][2] - tracer.spans[0][1]
    assert tracing.layer_of("config.load_config") == "cli"


def test_tracer_counts_raised_errors_and_closes_spans(monkeypatch):
    import sys
    import types

    mod = types.ModuleType("fake_layer")

    def bad():
        raise ValueError("degenerate")

    mod.bad = bad
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = tracing.Tracer(entry_points=(("fake_layer", "bad", "conversion.convert"),))
    with tracer.installed(), tracer.op_scope(1):
        with pytest.raises(ValueError):
            mod.bad()
    assert tracer.counts["conversion.convert.raised.ValueError"] == 1
    (span,) = tracer.spans
    assert span[2] >= span[1] > 0


ROLLUP = """55d0-7ffd ---p 00000000 00:00 0                          [rollup]
Rss:              120000 kB
Pss:               90000 kB
Private_Clean:       500 kB
Private_Dirty:     40000 kB
"""


def test_tree_memory_counts_shared_pages_once():
    fields = measure.rollup_kb(ROLLUP)
    assert fields == {"Rss": 120000, "Pss": 90000, "Private_Clean": 500, "Private_Dirty": 40000}
    child = {"Rss": 110000, "Private_Clean": 100, "Private_Dirty": 30000}
    # the parent counts its whole RSS; each forked child only its private pages
    assert measure.tree_memory_kb(fields, []) == 120000
    assert measure.tree_memory_kb(fields, [child, child]) == 120000 + 2 * 30100


def test_span_cost_is_small_and_positive():
    cost = tracing.span_cost_s(calls=2000, rounds=3)
    assert 0.0 <= cost < 1e-4
