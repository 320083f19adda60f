"""Tests for the run-batched Monte Carlo engine against the per-run path."""

import dataclasses
import importlib
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

import rcmkf.conversion as conversion
from rcmkf.config import generate_case
from rcmkf.conversion import ConversionMethod
from rcmkf.errors import DegenerateCovarianceError
from rcmkf.filtering import FilterVariant
from rcmkf.montecarlo import INIT_SCANS, Ensemble, _filter_chunk, run_ensemble, run_single
from rcmkf.scenario import DynamicModel, ManeuverSchedule, NoiseSpec, Scenario

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
        model=DynamicModel(3),
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


FIELDS = ("truth", "measurements", "means", "covs", "updated")


def join(parts):
    """The runs of several ensembles of one scenario, in order, as one."""
    arrays = (np.concatenate([getattr(e, f) for e in parts]) for f in FIELDS)
    return Ensemble(parts[0].scenario, parts[0].variants, *arrays)


def run_of(ens, i):
    """Run ``i`` of an ensemble as a one-run ensemble."""
    return Ensemble(ens.scenario, ens.variants, *(getattr(ens, f)[i : i + 1] for f in FIELDS))


def assert_ensembles_close(batched, single):
    assert (batched.scenario, batched.variants) == (single.scenario, single.variants)
    np.testing.assert_array_equal(batched.truth, single.truth)
    np.testing.assert_array_equal(batched.measurements, single.measurements)
    np.testing.assert_array_equal(batched.updated, single.updated)
    np.testing.assert_allclose(batched.means, single.means, rtol=0, atol=EST_ATOL_M)
    scale = np.abs(single.covs).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(batched.covs - single.covs) <= COV_RTOL * scale)


def assert_ensembles_equal(a, b):
    assert (a.scenario, a.variants) == (b.scenario, b.variants)
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f), err_msg=f)


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_batched_engine_matches_per_run_path(key):
    sc = dataclasses.replace(SCENARIOS[key], seed=42)
    ens = run_ensemble(sc, VARIANTS)
    seeds = np.random.SeedSequence(sc.seed).spawn(sc.runs)
    assert ens.variants == VARIANTS and len(ens.truth) == sc.runs
    assert_ensembles_close(ens, join([run_single(sc, VARIANTS, seed) for seed in seeds]))
    # a run's arrays do not depend on the chunk it is filtered in
    chunked = [
        _filter_chunk(sc, VARIANTS, seeds[first:last])
        for first, last in ((0, 1), (1, 4), (4, sc.runs))
    ]
    assert_ensembles_equal(ens, join(chunked))


@pytest.mark.parametrize("t", [0.1, 0.7, 1.3])
@pytest.mark.parametrize("key", ["case2", "inline3d"])
def test_per_run_filter_equals_its_batched_track_bit_for_bit(key, t):
    # off t = 1 a matrix-product prediction rounds a single track (BLAS
    # gemv) apart from a batch (gemm); a track must give the same bits either way
    base = SCENARIOS[key]
    sc = dataclasses.replace(base, runs=4, model=dataclasses.replace(base.model, t=t))
    seeds = np.random.SeedSequence(sc.seed).spawn(sc.runs)
    assert_ensembles_equal(
        _filter_chunk(sc, VARIANTS, seeds), join([run_single(sc, VARIANTS, seed) for seed in seeds])
    )


def test_degenerate_scan_masks_only_its_own_run(monkeypatch):
    sc = dataclasses.replace(SCENARIOS["case1"], seed=9)
    base = run_ensemble(sc, VARIANTS)
    run, step = 3, 10
    target = base.measurements[run, step, 0]  # its range singles out the (run, scan) pair
    real = conversion._moments

    def forced(methods, rm, theta, phi, rdot, noise, dim):
        conv, mu, cov = real(methods, rm, theta, phi, rdot, noise, dim)
        if ConversionMethod.MEASUREMENT_CONDITIONED in methods:
            k = list(methods).index(ConversionMethod.MEASUREMENT_CONDITIONED)
            # indefinite beyond any tolerance; the kernel's arrays are entries first
            cov[:, :, np.asarray(rm) == target, k] = -np.eye(dim + 1)[..., None]
        return conv, mu, cov

    monkeypatch.setattr(conversion, "_moments", forced)
    hit = run_ensemble(sc, VARIANTS)
    others = np.arange(sc.runs) != run
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(hit, f)[others], getattr(base, f)[others])
    # only the measurement-conditioned variant reads the forced moments
    u, d = VARIANTS.index(FilterVariant.RCMKF_U), VARIANTS.index(FilterVariant.RCMKF_D)
    for f in ("means", "covs", "updated"):
        np.testing.assert_array_equal(getattr(hit, f)[run, d], getattr(base, f)[run, d])
    k = step - INIT_SCANS
    assert base.updated.all()
    assert np.argwhere(~hit.updated).tolist() == [[run, u, k]]
    np.testing.assert_array_equal(hit.means[run, u, :k], base.means[run, u, :k])
    assert not np.array_equal(hit.means[run, u, k], base.means[run, u, k])
    # the per-run path skips the same scan
    single = run_single(sc, VARIANTS, np.random.SeedSequence(9).spawn(sc.runs)[run])
    assert_ensembles_close(run_of(hit, run), single)


def test_degenerate_initialization_scan_raises(monkeypatch):
    sc = dataclasses.replace(SCENARIOS["case1"], seed=9)
    run = RUNS - 1  # one bad run fails the whole ensemble, not just its own scans
    target = run_ensemble(sc, VARIANTS).measurements[run, 0, 0]
    real = conversion._moments

    def forced(methods, rm, theta, phi, rdot, noise, dim):
        conv, mu, cov = real(methods, rm, theta, phi, rdot, noise, dim)
        # indefinite beyond any tolerance; the kernel's arrays are entries first
        cov[:, :, np.asarray(rm) == target] = -np.eye(dim + 1)[..., None, None]
        return conv, mu, cov

    monkeypatch.setattr(conversion, "_moments", forced)
    with pytest.raises(DegenerateCovarianceError, match="initialization scan"):
        run_ensemble(sc, VARIANTS)


def test_ensemble_rejects_a_bad_layout():
    ens = run_ensemble(dataclasses.replace(SCENARIOS["case1"], seed=1), VARIANTS)
    arrays = {f: getattr(ens, f) for f in FIELDS}
    with pytest.raises(ValueError, match="distinct"):
        Ensemble(ens.scenario, (FilterVariant.RCMKF_U,) * 2, **arrays)
    for f in FIELDS[1:]:
        with pytest.raises(ValueError, match=f):
            Ensemble(ens.scenario, VARIANTS, **{**arrays, f: arrays[f][:-1]})
    with pytest.raises(ValueError, match="truth"):
        Ensemble(ens.scenario, VARIANTS, **{**arrays, "truth": arrays["truth"][:0]})


def test_run_ensemble_rejects_no_variants(monkeypatch):
    # the variants are checked before any run is simulated
    def simulate(*args):
        raise AssertionError("simulated a run for an ensemble without variants")

    monkeypatch.setattr("rcmkf.montecarlo._simulate_truths", simulate)
    scenario = dataclasses.replace(SCENARIOS["case1"], runs=2)
    with pytest.raises(ValueError, match="at least one filter variant"):
        run_ensemble(scenario, ())
    with pytest.raises(ValueError, match="distinct"):
        run_ensemble(scenario, (FilterVariant.RCMKF_D, FilterVariant.RCMKF_U, FilterVariant.RCMKF_D))


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing_entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


@pytest.mark.parametrize("module_name, attr, span", _tracing_entry_points())
def test_benchmark_trace_hooks_resolve(module_name, attr, span):
    # the benchmark's tracer wraps these names and fails if one is missing
    assert callable(getattr(importlib.import_module(module_name), attr))


def _benchmark_imports():
    """``(module, name)`` of every ``from rcmkf... import ...`` in the benchmark's sources.

    Source strings count too: the benchmark's setup subprocess imports from
    a ``-c`` string.
    """
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, names in re.findall(r"from (rcmkf[\w.]*) import ([\w, ]+)", path.read_text()):
            found.update((module, name.strip()) for name in names.split(","))
    return sorted(found)


def test_benchmark_imports_found():
    # the benchmark's workloads and its setup subprocess import from these modules
    modules = {module for module, _ in _benchmark_imports()}
    assert {"rcmkf.config", "rcmkf.conversion", "rcmkf.scenario"} <= modules


@pytest.mark.parametrize("module_name, attr", _benchmark_imports())
def test_benchmark_imports_resolve(module_name, attr):
    # the benchmark imports these names; a moved one fails setup or every op
    assert callable(getattr(importlib.import_module(module_name), attr))
