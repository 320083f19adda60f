"""Tests for the run-batched Monte Carlo engine against the per-run path."""

import dataclasses
import importlib
import importlib.util
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

import rcmkf.conversion as conversion
from rcmkf import montecarlo
from rcmkf.conversion import ConversionMethod
from rcmkf.errors import DegenerateCovarianceError
from rcmkf.filtering import FilterVariant
from rcmkf.montecarlo import INIT_SCANS, _filter_chunk, _records, run_ensemble, run_single
from rcmkf.scenario import ManeuverSchedule, NoiseSpec, Scenario, cv_model, generate_case

VARIANTS = (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D)
RUNS = 8

# The batched engine converts a whole chunk through the array moment code
# and takes its filter products over stacked matrices; the per-run path
# converts scan by scan. The arithmetic is the same up to the order of a few
# sums, so estimates may differ in the last digits, amplified by the filter
# recursion: seen at <= 5e-9 m and <= 5e-12 relative on these scenarios.
EST_ATOL_M = 1e-6
COV_RTOL = 1e-8


def inline_3d(runs):
    return Scenario(
        model=cv_model(3),
        initial_state=np.array([30e3, 20e3, 5e3, 100.0, -50.0, 10.0]),
        maneuvers=ManeuverSchedule(),
        noise=NoiseSpec(100.0, math.radians(1.0), 2.0, rho=0.2, sigma_phi=math.radians(0.8)),
        steps=60,
        runs=runs,
        seed=5,
        name="scenario",
    )


SCENARIOS = {
    "case1": dataclasses.replace(generate_case(1), runs=RUNS),
    "case2": dataclasses.replace(generate_case(2), runs=RUNS),
    "inline3d": inline_3d(RUNS),
}


def assert_records_close(batched, single):
    assert batched.run_index == single.run_index
    np.testing.assert_array_equal(batched.truth, single.truth)
    np.testing.assert_array_equal(batched.measurements, single.measurements)
    for name in single.estimates:
        assert batched.skipped[name] == single.skipped[name]
        np.testing.assert_allclose(
            batched.estimates[name], single.estimates[name], rtol=0, atol=EST_ATOL_M
        )
        np.testing.assert_allclose(
            batched.position_errors[name], single.position_errors[name], rtol=0, atol=EST_ATOL_M
        )
        cov_b, cov_s = batched.covariances[name], single.covariances[name]
        scale = np.abs(cov_s).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(cov_b - cov_s) <= COV_RTOL * scale)


def assert_records_equal(a, b, names):
    np.testing.assert_array_equal(a.truth, b.truth)
    np.testing.assert_array_equal(a.measurements, b.measurements)
    for name in names:
        np.testing.assert_array_equal(a.estimates[name], b.estimates[name])
        np.testing.assert_array_equal(a.covariances[name], b.covariances[name])
        assert a.skipped[name] == b.skipped[name]


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_batched_engine_matches_per_run_path(key):
    sc = SCENARIOS[key]
    records = run_ensemble(sc, VARIANTS, seed=42)
    seeds = np.random.SeedSequence(42).spawn(sc.runs)
    assert [r.run_index for r in records] == list(range(sc.runs))
    for i, rec in enumerate(records):
        assert_records_close(rec, run_single(sc, VARIANTS, i, seeds[i]))
    # a run's record does not depend on the chunk it is filtered in
    chunked = [
        record
        for first, last in ((0, 1), (1, 4), (4, sc.runs))
        for record in _records(sc, VARIANTS, first, _filter_chunk(sc, VARIANTS, seeds[first:last]))
    ]
    for a, b in zip(records, chunked):
        assert a.run_index == b.run_index
        assert_records_equal(a, b, [v.name for v in VARIANTS])


def test_degenerate_scan_masks_only_its_own_run(monkeypatch):
    sc = SCENARIOS["case1"]
    base = run_ensemble(sc, VARIANTS, seed=9)
    run, step = 3, 10
    target = base[run].measurements[step, 0]  # its range singles out the (run, scan) pair
    real = conversion._moments

    def forced(method, rm, theta, phi, rdot, noise):
        mu, cov = real(method, rm, theta, phi, rdot, noise)
        if method is ConversionMethod.MEASUREMENT_CONDITIONED:
            cov[np.asarray(rm) == target] = -np.eye(4)  # indefinite beyond any tolerance
        return mu, cov

    monkeypatch.setattr(conversion, "_moments", forced)
    forced_records = run_ensemble(sc, VARIANTS, seed=9)
    for i, (a, b) in enumerate(zip(base, forced_records)):
        if i != run:
            assert_records_equal(a, b, [v.name for v in VARIANTS])
    hit_a, hit_b = base[run], forced_records[run]
    # only the measurement-conditioned variant reads the forced moments
    assert_records_equal(hit_a, hit_b, ["RCMKF_D"])
    assert hit_a.skipped["RCMKF_U"] == []
    assert hit_b.skipped["RCMKF_U"] == [step]
    k = step - INIT_SCANS
    np.testing.assert_array_equal(hit_b.estimates["RCMKF_U"][:k], hit_a.estimates["RCMKF_U"][:k])
    assert not np.array_equal(hit_b.estimates["RCMKF_U"][k], hit_a.estimates["RCMKF_U"][k])
    # the per-run path skips the same scan
    single = run_single(sc, VARIANTS, run, np.random.SeedSequence(9).spawn(sc.runs)[run])
    assert_records_close(hit_b, single)


def test_small_ensemble_runs_in_process(monkeypatch):
    sc = dataclasses.replace(generate_case(2), runs=12)
    serial = run_ensemble(sc, VARIANTS, jobs=1, seed=11)

    def no_pool(*args, **kwargs):
        raise AssertionError("a 12-run ensemble started a process pool")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    capped = run_ensemble(sc, VARIANTS, jobs=2, seed=11)
    assert [r.run_index for r in capped] == list(range(sc.runs))
    for a, b in zip(serial, capped):
        assert_records_equal(a, b, [v.name for v in VARIANTS])
        for v in VARIANTS:
            np.testing.assert_array_equal(a.position_errors[v.name], b.position_errors[v.name])


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must be forked to inherit the patched moment kernel",
)
def test_degenerate_initialization_scan_raises_through_pool(monkeypatch, two_workers):
    sc = SCENARIOS["case1"]
    run = RUNS - 1  # filtered by the second of the two workers
    target = run_ensemble(sc, VARIANTS, seed=9)[run].measurements[0, 0]
    real = conversion._moments

    def forced(method, rm, theta, phi, rdot, noise):
        mu, cov = real(method, rm, theta, phi, rdot, noise)
        cov[np.asarray(rm) == target] = -np.eye(4)  # indefinite beyond any tolerance
        return mu, cov

    monkeypatch.setattr(conversion, "_moments", forced)
    with pytest.raises(DegenerateCovarianceError, match="initialization scan"):
        run_ensemble(sc, VARIANTS, jobs=2, seed=9)
    assert two_workers == [2]


def _tracing_entry_points():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


@pytest.mark.parametrize("module_name, attr, span", _tracing_entry_points())
def test_benchmark_trace_hooks_resolve(module_name, attr, span):
    # the benchmark's tracer wraps these names and fails if one is missing
    assert callable(getattr(importlib.import_module(module_name), attr))
