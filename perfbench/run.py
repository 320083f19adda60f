"""rcmkf benchmark: drives the ``rcmkf`` CLI in-process and reports metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload track_cv --seed 1 --seconds 15 --trace 0

Each op is one ``rcmkf.cli.main([...])`` call writing into a scratch
directory under ``.bench_tmp/``; the benchmark parses and checks the CSVs the
op wrote. Ops run back to back in one process (a closed loop with one
client) for ``--seconds`` seconds and at least ``MIN_OPS`` ops.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a traced run and writes its spans under
``.bench_out/``. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The program is imported from ``src/`` of the checkout; without
it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

import measure
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

# Timed ops per run at least, so that one op lies beyond the tail percentile.
MIN_OPS = 11
# Untraced/traced op pairs per traced run at least.
MIN_TRACE_PAIRS = 5
# Largest relative gap allowed between a traced op's self times, less the
# wrapper cost, and its untraced copy's op time, in the median over pairs.
# The wrappers cost a few percent more inside the program than on the no-op
# they are timed on (2 vCPUs: medians of 1.006 to 1.034); the median
# keeps a pair slowed by other load from failing the run.
SELF_SUM_TOLERANCE = 0.15
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPS = 4
# Calibration for set-up: a fresh interpreter that imports numpy, and its
# typical time on the machine the benchmark was defined on. Over 4-start
# blocks it cut the spread (IQR/median) of set-up medians from 0.14 to 0.08,
# where a kernel timed in this process widened it to 0.17.
BASELINE_START = "import numpy"
BASELINE_START_S = 0.19
QUALITY = ("rmse_u_m", "rmse_d_m", "nees_dev_u", "nees_dev_d", "nes_dev_u", "nes_dev_d")


def _scalar_kernel(
    eye=np.eye(4),
    start=np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1],
                    [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 1.5]]),
    v=np.arange(1.0, 5.0),
):
    # the small-matrix calls of a filter step: eigh, cholesky, solve, products
    p = start
    for _ in range(60):
        w, vecs = np.linalg.eigh(p)
        np.linalg.cholesky(p)
        np.linalg.solve(p + eye, eye[:, :2])
        p = vecs @ np.diag(np.maximum(w, 1e-9)) @ vecs.T
        p = 0.5 * (p + p.T) + 1e-3 * np.outer(v, v) / (1.0 + float(np.trace(p)))


def _vector_kernel(data=np.random.default_rng(0).standard_normal(1_000_000)):
    np.sort(data)
    np.sort(data)


# Calibration kernels, each with its typical time between ops on the machine
# the benchmark was defined on (2 vCPUs, Python 3.11, numpy 2.4) and the
# number of times it is timed at each op boundary (the median is used).
# "scalar" is many small numpy linear-algebra calls from Python, like the
# per-scan filter and the small-batch sweep; "vector" streams arrays larger
# than L2, like the oracle. On a shared machine both the ops and the kernels
# drift by 30% or more within a minute, while the ratio of the two moves far
# less. Over 25-op blocks of track_cv ops the scalar kernel left a spread
# (IQR/median) of the block medians of 0.08, where a loop of 3x3 solves
# left 0.12 and no rescaling 0.14. The short scalar kernel is timed four
# times, so that one interrupted timing does not rescale an op.
KERNELS = {"scalar": (_scalar_kernel, 3.3e-3, 4), "vector": (_vector_kernel, 20e-3, 1)}


class SpeedGauge:
    """Rescales wall times to the reference speed of a calibration kernel."""

    def __init__(self, kind: str):
        self.kernel, self.reference, self.reps = KERNELS[kind]
        self.last = self._time_kernel()
        self.samples = [self.last]

    def _time_kernel(self) -> float:
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def rescale(self, seconds: float) -> float:
        """Rescale ``seconds`` of work done since the previous call."""
        after = self._time_kernel()
        scaled = measure.rescale(seconds, self.last, after, self.reference)
        self.last = after
        self.samples.append(after)
        return scaled


def load_program():
    """Import ``rcmkf`` from this checkout's ``src/``, or exit with status 1."""
    if not (SRC / "rcmkf" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'rcmkf'}")
    sys.path.insert(0, str(SRC))
    import rcmkf.cli

    if Path(rcmkf.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported rcmkf from {rcmkf.cli.__file__}, not from {SRC}")
    return rcmkf.cli


class Runner:
    """Runs and checks ops of one workload inside a scratch directory."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out = work / "out"
        self.cfg = work / "config.yaml"
        self.tally = measure.OpTally()

    def make(self, index: int, jobs: int | None = None):
        return self.prepare(self.workload.op(self.seed, index, self.out, self.cfg, jobs))

    def prepare(self, op):
        if op.config is not None:
            self.cfg.write_text(op.config, encoding="utf-8")
        return op

    def run(self, op, *scopes):
        """Run one op inside ``scopes``; returns (seconds, quality or None)."""
        shutil.rmtree(self.out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            stack.enter_context(contextlib.redirect_stderr(err))
            for scope in scopes:
                stack.enter_context(scope)
            t0 = time.perf_counter()
            try:
                status = self.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejected the arguments
                status = exc.code
            seconds = time.perf_counter() - t0
        quality, reason = None, None
        if status != 0:
            reason = f"exit status {status}: {err.getvalue().strip()[:300]}"
        else:
            try:
                quality = op.check(self.out)
            except measure.OutputError as exc:
                reason = str(exc)
        self.tally.record(reason)
        return seconds, quality


def _closed_loop(seconds: float, min_ops: int, step) -> None:
    """Call ``step(index)`` back to back until time is up and min_ops are done."""
    index = 1
    start = time.perf_counter()
    while index <= min_ops or time.perf_counter() - start < seconds:
        step(index)
        index += 1


def _setup_seconds(config: Path | None) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the CLI and build the scenario.

    Returns the times rescaled to the reference speed and the raw times. A
    kernel timed in this process does not track a child's start-up, which
    reads files and loads modules on whichever core is free; a fresh
    interpreter that only imports numpy, started before and after each one,
    does. That start-up is outside the program: it loads nothing of rcmkf.
    """
    load = f"load_config({str(config)!r})" if config else "ExperimentConfig()"
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import rcmkf.cli; "
        "from rcmkf.config import ExperimentConfig, build_scenario, load_config; "
        f"build_scenario({load})"
    )

    def start(source: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", source], cwd=ROOT, check=True)
        return time.perf_counter() - t0

    scaled, raw = [], []
    before = start(BASELINE_START)
    for _ in range(SETUP_REPS):
        raw.append(start(code))
        after = start(BASELINE_START)
        scaled.append(measure.rescale(raw[-1], before, after, BASELINE_START_S))
        before = after
    return scaled, raw


class MemorySampler:
    """Samples, in a thread, the memory of this process and its live children.

    ``peak_kb`` is the largest :func:`measure.tree_memory_kb` seen, so the
    parent and its pool workers are added up at the same instant.
    """

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while True:
            parent = _rollup(os.getpid())
            children = [c for c in map(_rollup, _child_pids()) if c is not None]
            self.peak_kb = max(self.peak_kb, measure.tree_memory_kb(parent, children))
            if self._stop.wait(self.interval):
                return


def _rollup(pid: int) -> dict[str, int] | None:
    try:
        return measure.rollup_kb(Path(f"/proc/{pid}/smaps_rollup").read_text())
    except OSError:  # the child has exited
        return None


def _child_pids() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        with contextlib.suppress(OSError):
            pids += [int(p) for p in (task / "children").read_text().split()]
    return pids


def end_to_end(cli, workload, seed: int, seconds: float, work: Path):
    runner = Runner(cli, workload, seed, work)
    # The first op warms up lazy imports and allocations; it is not timed.
    # Its peak memory is the larger of this process's own peak RSS so far,
    # exact but blind to children, and the sampled peak of this process and
    # its pool workers together, which can miss a short-lived array.
    warm_up = runner.make(0)
    with MemorySampler() as memory:
        runner.run(warm_up)
    peak_mb = max(memory.peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0
    quality = {}
    for op in workload.reference_ops(runner.out, runner.cfg):
        quality.update(runner.run(runner.prepare(op))[1] or {})
    gauge = SpeedGauge(workload.speed_kernel)
    raw, times = [], []
    items = 0

    def step(index):
        nonlocal items
        op = runner.make(index)
        dt, checked = runner.run(op)
        raw.append(dt)
        times.append(gauge.rescale(dt))
        if checked is not None:
            items += op.items

    _closed_loop(seconds, MIN_OPS, step)
    if warm_up.config:
        runner.prepare(warm_up)  # set-up loads the workload's own config
    setup, setup_raw = _setup_seconds(runner.cfg if warm_up.config else None)

    p50, tail, beyond = measure.latency_ms(times)
    raw_p50, raw_tail, _ = measure.latency_ms(raw)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (items / sum(times), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": (runner.tally.ok_frac, "1"),
    }
    # a failed reference op leaves its metrics out; the run is then not correct
    metrics.update(
        (name, (quality[name], "m" if name.startswith("rmse") else "1"))
        for name in QUALITY if name in quality
    )
    notes = [
        f"{len(times)} timed ops; item = {workload.item}",
        f"op_tail_ms is p{measure.TAIL_PERCENTILE:g} on every workload ({beyond} ops beyond it)",
        f"times are rescaled to the reference speed of the {workload.speed_kernel} kernel; "
        f"unscaled: items_per_s {items / sum(raw):.6g}, "
        f"op_p50_ms {raw_p50:.6g}, op_tail_ms {raw_tail:.6g}; "
        f"kernel median {1e3 * statistics.median(gauge.samples):.4g} ms "
        f"(reference {1e3 * gauge.reference:.4g} ms)",
        f"failed_frac {runner.tally.failed_frac:.4g} "
        f"({runner.tally.failed} of {runner.tally.attempted} ops failed)",
        "peak_rss_mb: during the untimed first op, the larger of this process's peak RSS and "
        "the peak over 5 ms samples of its RSS plus its live children's private memory "
        f"({memory.peak_kb / 1024.0:.1f} MB sampled)",
        f"quality metrics score fixed-seed reference ops (simulate case {workload.case}, "
        "consistency), not the timed ops",
        "setup_s is rescaled to the reference speed of a fresh interpreter importing numpy; "
        "runs (s): " + ", ".join(f"{t:.3f}" for t in setup)
        + "; unscaled: " + ", ".join(f"{t:.3f}" for t in setup_raw),
    ]
    return runner.tally, metrics, notes


def per_layer(cli, workload, seed: int, seconds: float, work: Path):
    """Traced run: each op runs untraced and traced with jobs=1.

    The untraced copy gives the tracing overhead on identical inputs; on a
    pooled workload a third copy at the workload's jobs gives the pool
    speedup. Only ``run_ensemble`` is timed in the untraced copies.
    """
    runner = Runner(cli, workload, seed, work)
    runner.run(runner.make(0))
    tracer = tracing.Tracer()
    timer = tracing.Tracer(entry_points=(("rcmkf.cli", "run_ensemble", "ensemble"),))
    plain_ops: dict[int, float] = {}
    traced_ops: dict[int, float] = {}
    oracle_peaks: list[float] = []

    def step(index):
        op = runner.make(index, jobs=1)
        for traced in ((False, True) if index % 2 else (True, False)):
            if traced:
                traced_ops[index], _ = runner.run(
                    op, tracer.installed(), _oracle_memory(cli, oracle_peaks),
                    tracer.op_scope(index),
                )
            else:
                plain_ops[index], _ = runner.run(op, timer.installed(), timer.op_scope(index))
        if workload.jobs > 1:
            pooled = runner.make(index, jobs=workload.jobs)
            runner.run(pooled, timer.installed(), timer.op_scope(-index))

    _closed_loop(seconds, MIN_TRACE_PAIRS, step)
    metrics = _layer_metrics(tracer, traced_ops, oracle_peaks)
    # Pair medians: a pair slowed by other load moves neither figure.
    overhead_ratio = statistics.median(plain_ops[i] / traced_ops[i] for i in traced_ops)
    speedup = 0.0
    if workload.jobs > 1:
        walls = {True: 0.0, False: 0.0}
        for _, start, end, _, op in timer.spans:
            walls[op > 0] += end - start
        speedup = walls[True] / walls[False]
    metrics["montecarlo.pool_speedup"] = (speedup, "ratio")
    metrics["tracing.overhead_ratio"] = (overhead_ratio, "ratio")
    # The self times of a traced op add up to its root span by construction,
    # so they are checked against an independent time: the untraced copy's
    # op time, after taking off what the wrappers cost (timed on a no-op).
    span_cost = tracing.span_cost_s()
    root_s, n_spans = Counter(), Counter()
    for _, start, end, parent, op in tracer.spans:
        n_spans[op] += 1
        if parent < 0:
            root_s[op] += (end - start) / 1e9
    self_sum = statistics.median(
        (root_s[i] - n_spans[i] * span_cost) / plain_ops[i] for i in traced_ops
    )
    metrics["tracing.self_sum_frac"] = (self_sum, "ratio")
    if abs(1.0 - self_sum) > SELF_SUM_TOLERANCE:
        runner.tally.record(
            f"layer self times less wrapper cost are {self_sum:.4f} of the untraced op time "
            f"(tolerance {SELF_SUM_TOLERANCE})"
        )

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{workload.name}_seed{seed}.tsv"
    tracing.write_spans(spans_path, tracer.spans, json.dumps(_env(cli, seed), sort_keys=True))
    notes = [
        f"{len(traced_ops)} traced ops at jobs=1, each paired with an untraced copy",
        f"tracing overhead: traced / untraced items_per_s = {overhead_ratio:.4f} "
        "(median over pairs)",
        f"layer self times less wrapper cost ({1e9 * span_cost:.0f} ns per span, "
        f"{len(tracer.spans) / len(traced_ops):.0f} spans per op) = {self_sum:.4f} of the "
        "untraced op time (median over pairs)",
        f"montecarlo.pool_speedup: jobs=1 / jobs={workload.jobs} run_ensemble wall time"
        if workload.jobs > 1 else "montecarlo.pool_speedup is 0: this workload runs no pool",
        f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)",
    ]
    return runner.tally, metrics, notes


@contextlib.contextmanager
def _oracle_memory(cli, peaks: list):
    """Record the peak bytes allocated inside each oracle call, per batch draw.

    The figure is computed from the sizes of the arrays numpy allocates (as
    tracemalloc sees them), not measured memory traffic.
    """
    oracle = cli.mc_moment_oracle
    default_batch = inspect.signature(oracle).parameters["batch"].default

    def measured(m, noise, samples, rng, batch=default_batch):
        tracemalloc.start()
        try:
            result = oracle(m, noise, samples, rng, batch=batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append(peak / min(samples, batch))
        return result

    cli.mc_moment_oracle = measured
    try:
        yield
    finally:
        cli.mc_moment_oracle = oracle


US_PER_CALL = ("filtering.kf_predict", "filtering.decorrelate", "filtering.kf_update_position",
               "filtering.ekf_update_pseudo", "conversion.unbiased_stats",
               "conversion.nested_stats")
SELF_S = ("filtering.run_filter", "scenario.simulate_truth", "scenario.synthesize_measurements",
          "montecarlo.run_single", "montecarlo.run_ensemble", "evaluation.rmse",
          "evaluation.nees", "evaluation.consistency_sweep")


def _layer_metrics(tracer, traced_ops: dict[int, float], oracle_peaks: list[float]):
    """Per-layer metrics from the spans and counts of the traced ops."""
    spans = tracer.spans
    selfs = measure.self_times([(s[1], s[2], s[3]) for s in spans])
    calls, incl, own = {}, {}, {}
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for (name, start, end, _, _), self_ns in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start) / 1e9
        own[name] = own.get(name, 0.0) + self_ns / 1e9
        layer_self[tracing.layer_of(name)] += self_ns / 1e9
    n_ops = len(traced_ops)
    op_time = sum(selfs) / 1e9  # wall time of the traced ops' root spans
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in US_PER_CALL:
        m[f"{name}.us_per_call"] = (1e6 * ratio(incl.get(name, 0.0), calls.get(name, 0)), "us")
    for name in SELF_S:
        m[f"{name}.self_s"] = (own.get(name, 0.0) / n_ops, "s/op")
    scans, skipped = counts["filtering.scans"], counts["filtering.scans_skipped"]
    m["filtering.scans_skipped"] = (skipped / n_ops, "count/op")
    m["filtering.scans_updated_frac"] = (ratio(scans - skipped, scans), "1")
    m["conversion.convert.calls"] = (calls.get("conversion.convert", 0) / n_ops, "count/op")
    m["conversion.degenerate"] = (
        counts["conversion.convert.raised.DegenerateCovarianceError"] / n_ops, "count/op"
    )
    m["conversion.stats_batch.ns_per_item"] = (
        1e9 * ratio(incl.get("conversion.stats_batch", 0.0), counts["conversion.stats_batch.items"]),
        "ns",
    )
    m["conversion.mc_moment_oracle.ns_per_draw"] = (
        1e9 * ratio(incl.get("conversion.mc_moment_oracle", 0.0),
                    counts["conversion.mc_moment_oracle.draws"]),
        "ns",
    )
    m["conversion.mc_moment_oracle.bytes_per_draw"] = (
        statistics.median(oracle_peaks) if oracle_peaks else 0.0, "B",
    )
    m["cli.self_s"] = (own.get("cli.main", 0.0) / n_ops, "s/op")
    m["config.load_config.s"] = (incl.get("config.load_config", 0.0) / n_ops, "s/op")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_share"] = (layer_self[layer] / op_time, "1")
    return m


def _env(cli, seed: int) -> dict:
    import scipy

    batch = inspect.signature(cli.mc_moment_oracle).parameters["batch"].default
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        # computed from the shape, not measured: the oracle's (4, 4, batch)
        # float64 products array
        "oracle_products_bytes": 4 * 4 * 8 * batch,
    }


def _commit() -> str:
    """Commit of the checkout, when it is a git work tree; else "unknown"."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest() -> str:
    """Short hash of the program source, which identifies it without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rcmkf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cache_bytes(level: int) -> int | None:
    """Size of the CPU's unified or data cache at ``level``, if the OS reports it."""
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == str(level) \
                    and (index / "type").read_text().strip() != "Instruction":
                size = (index / "size").read_text().strip()
                return int(size.rstrip("KMG")) * {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
    except (OSError, ValueError):
        pass
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rcmkf benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli = load_program()
    import workloads  # imports rcmkf, so only after load_program

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(choose from {', '.join(workloads.WORKLOADS)})")
    TMP.mkdir(exist_ok=True)
    work = TMP / f"{workload.name}-{os.getpid()}"
    work.mkdir()
    os.environ["TMPDIR"] = str(work)
    try:
        run = per_layer if args.trace else end_to_end
        tally, metrics, notes = run(cli, workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}: {workload.why}")
    for note in notes:
        print(f"  {note}")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print("env " + json.dumps(_env(cli, args.seed), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
