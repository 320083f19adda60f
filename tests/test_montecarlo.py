"""Tests for the run-batched Monte Carlo engine: chunking, the per-run API, a dense reference."""

import dataclasses
import hashlib
import importlib
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

import rcmkf.conversion as conversion
import rcmkf.montecarlo as montecarlo
from rcmkf.config import generate_case
from rcmkf.conversion import ConversionMethod, convert
from rcmkf.errors import DegenerateCovarianceError
from rcmkf.evaluation import nees
from rcmkf.filtering import FilterVariant, initialize_belief, run_filter
from rcmkf.montecarlo import INIT_SCANS, Ensemble, _filter_chunk, run_ensemble, run_single
from rcmkf.scenario import (
    DynamicModel,
    ManeuverSchedule,
    NoiseSpec,
    Scenario,
    simulate_truth,
    synthesize_measurements,
)
from test_filtering import _decorrelate_ref, _position_ref, _predict_ref, _pseudo_ref

VARIANTS = (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D)
RUNS = 8

# The dense reference below converts scan by scan with the public
# ``convert``, decorrelates with a solve and updates with explicit matrices
# in the expanded Joseph form; the engine takes its products entry by entry
# and its solves by elimination. The two agree up to rounding, amplified by
# the filter recursion: seen at <= 4e-9 m and <= 5e-12 relative on these
# scenarios.
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
    assert_ensembles_equal(ens, join([run_single(sc, VARIANTS, seed) for seed in seeds]))
    # a run's arrays do not depend on the chunk it is filtered in
    chunked = [
        _filter_chunk(sc, VARIANTS, seeds[first:last])
        for first, last in ((0, 1), (1, 4), (4, sc.runs))
    ]
    assert_ensembles_equal(ens, join(chunked))


def _per_run_stream(sc, seed):
    """One run's truth and measurement objects, drawn through the public per-run API."""
    rng = np.random.default_rng(seed)
    truth = simulate_truth(sc, rng)
    return truth, synthesize_measurements(truth, sc.noise, rng)


def _dense_track(sc, variant, measurements):
    """One variant's posteriors on one run, scan by scan with dense matrices."""
    p, zs = sc.dim, [convert(m, sc.noise, variant.method) for m in measurements]
    belief = initialize_belief(zs[0], zs[1], sc.model.t)
    mean, cov, means, covs = belief.mean, belief.cov, [], []
    for z in zs[INIT_SCANS:]:
        l_row, var, pseudo, debiased = _decorrelate_ref(z)
        predicted = _predict_ref(mean, cov, sc.model)
        mean, cov = _position_ref(*predicted, z.position - z.mu[:p], z.cov[:p, :p])
        mean, cov = _pseudo_ref(mean, cov, l_row, pseudo, debiased, var)
        means.append(mean)
        covs.append(cov)
    return np.array(means), np.array(covs)


# sha256 of the C-order bytes of ``means``, ``covs`` and ``updated`` at 8
# runs, seed 42. A change to the filter's arithmetic that should keep every
# bit (a faster kernel, say) must leave these as they are.
FROZEN_SHA256 = {
    "case1": (
        "c5e2cbe9e36c13abaf60bfc1b4a33ae4c7af0e8e5006fb00113d3ea6f1dfa82e",
        "47ce463b3e6d3bf6fb304ad8375eb5d61325dde1b49fe42a3651b119114d2927",
        "2580b8f4d43523776340a2895a99bcb943f42f6aa46ff7d35692ac7b2113aa8a",
    ),
    "case2": (
        "6533e345bb53667cd98d9a254d578d12c941dc4115a1de5a61ba495c960a6c0f",
        "e8be5dbc06ea66122d02f5a10d1a54360df13e02175762cbcafc78bb00da8712",
        "2580b8f4d43523776340a2895a99bcb943f42f6aa46ff7d35692ac7b2113aa8a",
    ),
    "inline3d": (
        "9fdd86bb6f068d9135e8ee6329554107732e0cb6086c6716b9d0ff58204ce37a",
        "b684135f6107995b4e0dc0052475162fe34f8051bcd90b84c044b92ccd79edbe",
        "06523179898681366f4ae1f0c5600459e978a214d62841fb8d7ced66935626f0",
    ),
}


@pytest.mark.parametrize("key", sorted(FROZEN_SHA256))
def test_engine_bytes_are_frozen(key):
    ens = run_ensemble(dataclasses.replace(SCENARIOS[key], seed=42), VARIANTS)
    digests = tuple(
        hashlib.sha256(np.ascontiguousarray(getattr(ens, f)).tobytes()).hexdigest()
        for f in ("means", "covs", "updated")
    )
    assert digests == FROZEN_SHA256[key]


@pytest.mark.parametrize("key", ["case1", "inline3d"])
def test_batched_engine_matches_a_dense_scalar_reference(key):
    sc = dataclasses.replace(SCENARIOS[key], runs=3, seed=42)
    ens = run_ensemble(sc, VARIANTS)
    seeds = np.random.SeedSequence(sc.seed).spawn(sc.runs)
    streams = [_per_run_stream(sc, seed) for seed in seeds]
    tracks = [[_dense_track(sc, v, meas) for v in VARIANTS] for _, meas in streams]
    ref = Ensemble(
        sc.name,
        VARIANTS,
        np.array([truth for truth, _ in streams]),
        np.array([[[m.r, m.theta, m.phi, m.rdot] for m in meas] for _, meas in streams]),
        np.array([[means for means, _ in run] for run in tracks]),
        np.array([[covs for _, covs in run] for run in tracks]),
        np.ones(ens.updated.shape, dtype=bool),
    )
    assert_ensembles_close(ens, ref)


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_run_filter_equals_the_engines_track_bit_for_bit(key):
    sc = dataclasses.replace(SCENARIOS[key], runs=3, seed=42)
    ens = run_ensemble(sc, VARIANTS)
    run = 1
    _, meas = _per_run_stream(sc, np.random.SeedSequence(sc.seed).spawn(sc.runs)[run])
    for v, variant in enumerate(VARIANTS):
        init = initialize_belief(
            convert(meas[0], sc.noise, variant.method),
            convert(meas[1], sc.noise, variant.method),
            sc.model.t,
        )
        track = run_filter(variant, meas[INIT_SCANS:], sc.noise, sc.model, init)
        assert track.skipped_steps == [] and ens.updated[run, v].all()
        np.testing.assert_array_equal([b.mean for b in track.beliefs], ens.means[run, v])
        np.testing.assert_array_equal([b.cov for b in track.beliefs], ens.covs[run, v])


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
    assert_ensembles_equal(run_of(hit, run), single)


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
    # both variants of the run fail at scan 0; the message names the first
    with pytest.raises(
        DegenerateCovarianceError,
        match=f"^initialization scan 0 of run {run}, variant {VARIANTS[0].name}: "
        "conversion covariance is indefinite beyond tolerance$",
    ):
        run_ensemble(sc, VARIANTS)


def _with_range(monkeypatch, run, scan, value):
    """Make the synthesized range of one (run, scan) pair ``value``."""
    synthesize = montecarlo._synthesize

    def patched(truths, noise, rngs):
        meas = synthesize(truths, noise, rngs)
        meas[run, scan, 0] = value
        return meas

    monkeypatch.setattr(montecarlo, "_synthesize", patched)


def test_a_non_positive_range_makes_only_its_own_scan_predict_only(monkeypatch):
    sc = dataclasses.replace(SCENARIOS["case1"], seed=9)
    base = run_ensemble(sc, VARIANTS)
    run, step = 3, 40
    _with_range(monkeypatch, run, step, -5e4)
    hit = run_ensemble(sc, VARIANTS)
    others = np.arange(sc.runs) != run
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(hit, f)[others], getattr(base, f)[others])
    k = step - INIT_SCANS
    assert base.updated.all()
    assert np.argwhere(~hit.updated).tolist() == [[run, v, k] for v in range(len(VARIANTS))]
    np.testing.assert_array_equal(hit.means[run, :, :k], base.means[run, :, :k])


@pytest.mark.parametrize("value", [-5e4, 0.0])
def test_run_filter_skips_a_non_positive_range_as_the_engine_does(monkeypatch, value):
    sc = dataclasses.replace(SCENARIOS["case1"], runs=3, seed=42)
    run, step = 1, 40
    _, meas = _per_run_stream(sc, np.random.SeedSequence(sc.seed).spawn(sc.runs)[run])
    meas[step] = dataclasses.replace(meas[step], r=value)
    _with_range(monkeypatch, run, step, value)
    ens = run_ensemble(sc, VARIANTS)
    for v, variant in enumerate(VARIANTS):
        init = initialize_belief(
            convert(meas[0], sc.noise, variant.method),
            convert(meas[1], sc.noise, variant.method),
            sc.model.t,
        )
        track = run_filter(variant, meas[INIT_SCANS:], sc.noise, sc.model, init)
        assert track.skipped_steps == [step]
        assert np.flatnonzero(~ens.updated[run, v]).tolist() == [step - INIT_SCANS]
        np.testing.assert_array_equal([b.mean for b in track.beliefs], ens.means[run, v])
        np.testing.assert_array_equal([b.cov for b in track.beliefs], ens.covs[run, v])


def test_a_non_positive_range_in_an_initialization_scan_raises(monkeypatch):
    sc = dataclasses.replace(SCENARIOS["case1"], seed=9)
    _with_range(monkeypatch, 3, 0, -5e4)
    with pytest.raises(
        DegenerateCovarianceError,
        match=f"^initialization scan 0 of run 3, variant {VARIANTS[0].name}: "
        "invalid measurement, range -50000 m is not positive$",
    ):
        run_ensemble(sc, VARIANTS)


def _turn(states, m):
    """States whose x-y position and x-y velocity are both multiplied by the 2x2 ``m``."""
    out = states.copy()
    dim = states.shape[-1] // 2
    for lo in (0, dim):
        out[..., lo : lo + 2] = states[..., lo : lo + 2] @ m.T
    return out


def _rotation(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]])


MIRROR = np.diag([1.0, -1.0])
# How far the un-rotated means may stray from the originals (m, and m/s for
# the velocity): seen at <= 2.78e-7 (case 1), 3.95e-6 (case 2) and 7.4e-9
# (3D) on these scenarios at 50 runs; the mirror gives the same bits.
INVARIANCE_ATOL = {"case1": 2.8e-7, "case2": 4.0e-6, "inline3d": 1e-7}
INVARIANCE_NEES_RTOL = 8.2e-10


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_the_pipeline_is_invariant_under_rotation_and_mirror_about_the_sensor(monkeypatch, key):
    # A turn about the sensor's vertical axis turns every estimate and keeps
    # every NEES: the bearings shift, or change sign, and the conversion
    # statistics and the constant-velocity model are equivariant.
    sc = dataclasses.replace(SCENARIOS[key], runs=50)
    base = run_ensemble(sc, VARIANTS)
    want = nees(base).nees
    simulate, synthesize = montecarlo._simulate_truths, montecarlo._synthesize

    def mirrored(truths, noise, rngs):
        # the same draws give the mirror of each measurement only if the
        # bearing's noise changes sign with the bearing
        meas = synthesize(_turn(truths, MIRROR), noise, rngs)
        meas[..., 1] *= -1
        return meas

    turns = [(_rotation(alpha), synthesize) for alpha in (0.7, 2.5, -1.9)] + [(MIRROR, mirrored)]
    for m, synthesis in turns:
        # the truths turned, then measured on the same generators
        def turned_truths(scenario, rngs, m=m):
            return _turn(simulate(scenario, rngs), m)

        monkeypatch.setattr(montecarlo, "_simulate_truths", turned_truths)
        monkeypatch.setattr(montecarlo, "_synthesize", synthesis)
        turned = run_ensemble(sc, VARIANTS)
        np.testing.assert_array_equal(turned.updated, base.updated)
        np.testing.assert_allclose(
            _turn(turned.means, m.T), base.means, rtol=0, atol=INVARIANCE_ATOL[key]
        )
        for name, got in nees(turned).nees.items():
            np.testing.assert_allclose(got, want[name], rtol=INVARIANCE_NEES_RTOL, atol=0)


def _scaled(sc, c):
    """``sc`` with every length, and so every speed and acceleration, times ``c``."""
    return dataclasses.replace(
        sc,
        model=dataclasses.replace(sc.model, accel_noise_std=c * sc.model.accel_noise_std),
        initial_state=c * sc.initial_state,
        maneuvers=ManeuverSchedule(tuple((s, c * a) for s, a in sc.maneuvers.entries)),
        noise=dataclasses.replace(
            sc.noise, sigma_r=c * sc.noise.sigma_r, sigma_rdot=c * sc.noise.sigma_rdot
        ),
    )


# At c = 3 the scaled pipeline rounds apart from the original: seen at
# <= 5.2e-11 of each state component's (and covariance entry's) largest
# magnitude and <= 6.1e-11 relative in NEES on these scenarios at 50 runs.
SCALE_RTOL = 1e-9


@pytest.mark.parametrize("c", [4.0, 0.25, 3.0])
@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_the_pipeline_is_invariant_under_a_range_scale(key, c):
    # with the same draws, the truth, the range and range-rate errors, the
    # conversion statistics and the process noise all scale with the
    # lengths, and the bearing does not: every mean scales by c, every
    # covariance by c^2, and every NEES stays; a power of two scales
    # without rounding, so exactly
    sc = dataclasses.replace(SCENARIOS[key], runs=50)
    base, scaled = run_ensemble(sc, VARIANTS), run_ensemble(_scaled(sc, c), VARIANTS)
    np.testing.assert_array_equal(scaled.updated, base.updated)
    rtol = 0.0 if math.frexp(c)[0] == 0.5 else SCALE_RTOL
    for got, want in ((scaled.means, c * base.means), (scaled.covs, c * c * base.covs)):
        scale = np.abs(want).max(axis=(0, 1, 2))  # of each state component or entry
        assert np.all(np.abs(got - want) <= rtol * scale)
    want = nees(base).nees
    for name, got in nees(scaled).nees.items():
        np.testing.assert_allclose(got, want[name], rtol=rtol, atol=0)


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
