"""Tests for truth generation and the radar measurement model."""

import dataclasses
import math

import numpy as np
import pytest

from rcmkf.config import generate_case
from rcmkf.errors import GeometryError
from rcmkf.scenario import (
    INIT_SCANS,
    DynamicModel,
    ManeuverSchedule,
    NoiseSpec,
    Scenario,
    SphericalMeasurement,
    _noise_matrix,
    _simulate_truths,
    _spherical,
    _synthesize,
    simulate_truth,
    synthesize_measurements,
)

NO_NOISE = NoiseSpec(0.0, 0.0, 0.0)


def noise_free_truth(initial, steps=3, t=1.0, maneuvers=()):
    """Truth of a scenario without process noise, one row per step."""
    initial = np.asarray(initial, dtype=float)
    sc = Scenario(
        model=DynamicModel(dim=len(initial) // 2, t=t, accel_noise_std=0.0),
        initial_state=initial,
        maneuvers=ManeuverSchedule.from_pairs(maneuvers),
        noise=NO_NOISE,
        steps=steps,
        runs=1,
        seed=0,
    )
    return simulate_truth(sc, np.random.default_rng(0))


def measurement_of(state, noise=NO_NOISE, seed=0):
    """The measurement of one state, synthesized with ``noise``."""
    return synthesize_measurements(np.asarray(state)[None], noise, np.random.default_rng(seed))[0]


def test_propagate_noise_free_cv():
    out = noise_free_truth([10.0, -5.0, 1.0, 1.0])[1]
    np.testing.assert_allclose(out, [11.0, -4.0, 1.0, 1.0])


def test_propagate_acceleration_gain():
    # position picks up a*T^2/2, velocity a*T
    out = noise_free_truth([100.0, 0.0, 0.0, 0.0], maneuvers=[(0, (5.0, 5.0))])[1]
    np.testing.assert_allclose(out, [102.5, 2.5, 5.0, 5.0])


def test_propagate_twice_is_linear():
    x = np.array([3.0, -2.0, 4.0, 7.0])
    out = noise_free_truth(x)[2]
    np.testing.assert_allclose(out[:2], x[:2] + 2.0 * x[2:])
    np.testing.assert_allclose(out[2:], x[2:])


def test_propagate_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match the model size"):
        dataclasses.replace(generate_case(1), initial_state=np.zeros(6))


def test_scenario_needs_more_steps_than_initialization():
    for steps in range(-1, INIT_SCANS + 1):
        with pytest.raises(ValueError, match=f"steps must be > {INIT_SCANS}"):
            dataclasses.replace(generate_case(1), steps=steps)
    assert dataclasses.replace(generate_case(1), steps=INIT_SCANS + 1).steps == 3


@pytest.mark.parametrize("std", [-1.0, -1e-300, math.nan, math.inf])
def test_cv_model_rejects_bad_process_noise(std):
    with pytest.raises(ValueError, match="acceleration noise std"):
        DynamicModel(dim=2, t=1.0, accel_noise_std=std)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_cv_model_rejects_bad_interval(t):
    with pytest.raises(ValueError, match="sampling interval must be positive and finite"):
        DynamicModel(dim=2, t=t)


@pytest.mark.parametrize("dim", [1, 4])
def test_cv_model_rejects_bad_dimension(dim):
    with pytest.raises(ValueError, match="dim must be 2 or 3"):
        DynamicModel(dim=dim)


def test_cv_model_replace_rebuilds_read_only_matrices():
    model = DynamicModel(dim=3, t=2.0, accel_noise_std=0.01)
    noisier = dataclasses.replace(model, accel_noise_std=0.5)
    assert (noisier.dim, noisier.t) == (3, 2.0)
    np.testing.assert_array_equal(noisier.phi, model.phi)
    np.testing.assert_array_equal(noisier.q, 0.25 * np.eye(3))
    g = noisier.gamma
    np.testing.assert_array_equal(noisier.process_noise_cov(), g @ noisier.q @ g.T)
    assert not np.array_equal(noisier.process_noise_cov(), model.process_noise_cov())
    for m in (model, noisier):
        for matrix in (m.phi, m.gamma, m.q, m.process_noise_cov()):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0


def test_measure_on_axis_3d():
    m = measurement_of(np.array([100.0, 0.0, 0.0, 10.0, 0.0, 0.0]))
    assert m.dim == 3
    assert m.r == pytest.approx(100.0)
    assert m.theta == pytest.approx(0.0)
    assert m.phi == pytest.approx(0.0)
    assert m.rdot == pytest.approx(10.0)


def test_measure_case1_geometry():
    m = measurement_of(np.array([80e3, 80e3, 200.0, 200.0]))
    assert m.r == pytest.approx(math.sqrt(2) * 80e3, abs=0.01)
    assert m.theta == pytest.approx(math.pi / 4)
    assert m.rdot == pytest.approx(math.sqrt(2) * 200.0, abs=1e-6)


def test_measure_additive_noise():
    noise = NoiseSpec(200.0, 0.01, 1.0, rho=0.3)
    state = np.array([80e3, 80e3, 200.0, 200.0])
    clean = measurement_of(state)
    noisy = measurement_of(state, noise, seed=5)
    dr, dth, dph, drd = _noise_matrix(noise, 1, np.random.default_rng(5))[:, 0]
    assert noisy.r - clean.r == pytest.approx(dr)
    assert noisy.theta - clean.theta == pytest.approx(dth)
    assert noisy.rdot - clean.rdot == pytest.approx(drd)
    assert dph == 0.0 and noisy.phi == 0.0  # a 2D radar reports no elevation


def test_measure_at_origin_fails():
    with pytest.raises(GeometryError):
        measurement_of(np.array([0.0, 0.0, 1.0, 1.0]), NoiseSpec(1.0, 0.01, 0.1))


def test_draw_measurement_noise_degenerate():
    draw = _noise_matrix(NoiseSpec(0.0, 0.0, 0.0, 0.0, 0.0), 1, np.random.default_rng(0))
    assert draw.shape == (4, 1)
    np.testing.assert_array_equal(draw, 0.0)


def test_draw_measurement_noise_moments():
    noise = NoiseSpec(sigma_r=200.0, sigma_theta=math.radians(2.5), sigma_rdot=1.0, rho=0.3)
    big = _noise_matrix(noise, 1_000_000, np.random.default_rng(7))
    corr = np.corrcoef(big[0], big[3])[0, 1]
    assert corr == pytest.approx(0.3, abs=0.01)
    assert big[1].std() == pytest.approx(math.radians(2.5), rel=0.01)
    # 3-sigma statistical bounds at the 1/sqrt(N) rate
    n = big.shape[1]
    assert abs(big[0].std() - 200.0) < 3 * 200.0 / math.sqrt(2 * n)
    assert abs(big[3].mean()) < 3 * 1.0 / math.sqrt(n)


def test_generate_case_1():
    sc = generate_case(1)
    assert sc.maneuvers.entries == ()
    assert sc.steps == 100 and sc.runs == 500
    assert sc.noise.sigma_r == 200.0 and sc.noise.rho == 0.3
    np.testing.assert_allclose(sc.initial_state, [80e3, 80e3, 200.0, 200.0])


def test_generate_case_2():
    sc = generate_case(2)
    starts = [s for s, _ in sc.maneuvers.entries]
    accels = [a[0] for _, a in sc.maneuvers.entries]
    assert starts == [31, 38, 49, 61, 65, 66, 81]
    assert accels == [5.0, -8.0, 10.0, 0.0, -10.0, -5.0, 0.0]
    for _, a in sc.maneuvers.entries:
        assert a[0] == a[1]  # same acceleration on both axes
    np.testing.assert_allclose(sc.initial_state, [80e3, 80e3, 0.0, 200.0])
    assert sc.noise.sigma_theta == pytest.approx(math.radians(2.5))


def test_generate_case_unknown():
    with pytest.raises(ValueError):
        generate_case(3)


def test_noise_free_propagation_invariants():
    x = np.array([1.0, 2.0, 3.0, -1.0, 0.5, 2.0])
    cur = noise_free_truth(x, steps=11, t=0.5)[10]
    np.testing.assert_array_equal(cur[3:], x[3:])
    np.testing.assert_allclose(cur[:3], x[:3] + 10 * 0.5 * x[3:], rtol=0, atol=1e-12)


def test_measure_convert_roundtrip():
    from rcmkf.conversion import convert

    state = np.array([12e3, -5e3, 2e3, 50.0, 10.0, -5.0])
    z = convert(measurement_of(state), NO_NOISE)
    np.testing.assert_allclose(z.position, state[:3], rtol=1e-9)
    assert z.pseudo == pytest.approx(state[:3] @ state[3:], rel=1e-9)  # r * rdot


def test_case2_truth_continuity():
    # noise-free generation: kinematics hold exactly across maneuver starts
    sc = generate_case(2)
    sc = dataclasses.replace(sc, model=DynamicModel(2, 1.0, 0.0))
    truth = simulate_truth(sc, np.random.default_rng(0))
    for k in range(sc.steps - 1):
        a = sc.maneuvers.accel_at(k, 2)
        np.testing.assert_allclose(truth[k + 1, 2:], truth[k, 2:] + a, atol=1e-9)
        np.testing.assert_allclose(
            truth[k + 1, :2], truth[k, :2] + truth[k, 2:] + 0.5 * a, atol=1e-9
        )


def test_maneuver_schedule_accel_at():
    sched = ManeuverSchedule.from_pairs([(5, (1.0, 0.0)), (10, (0.0, 0.0))])
    np.testing.assert_array_equal(sched.accel_at(0, 2), [0.0, 0.0])
    np.testing.assert_array_equal(sched.accel_at(5, 2), [1.0, 0.0])
    np.testing.assert_array_equal(sched.accel_at(9, 2), [1.0, 0.0])
    np.testing.assert_array_equal(sched.accel_at(10, 2), [0.0, 0.0])


def test_maneuver_schedule_must_be_sorted():
    with pytest.raises(ValueError):
        ManeuverSchedule.from_pairs([(10, (1.0, 1.0)), (5, (0.0, 0.0))])


def test_maneuver_schedule_rejects_a_negative_start():
    # the truth would apply it to the last steps, accel_at from step 0
    with pytest.raises(ValueError, match="start steps must be >= 0, got -3"):
        ManeuverSchedule.from_pairs([(-3, (5.0, 0.0)), (5, (0.0, 0.0))])
    ManeuverSchedule.from_pairs([(0, (5.0, 0.0))])


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        NoiseSpec(1.0, 0.1, 1.0, rho=1.5)


@pytest.mark.parametrize("field", ["sigma_r", "sigma_theta", "sigma_rdot", "rho", "sigma_phi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_noise_spec_rejects_non_finite(field, value):
    kwargs = dict(sigma_r=200.0, sigma_theta=0.01, sigma_rdot=1.0, rho=0.3, sigma_phi=0.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        NoiseSpec(**kwargs)


@pytest.mark.parametrize("field", ["r", "theta", "rdot", "phi"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spherical_measurement_rejects_non_finite(field, value):
    kwargs = dict(r=1000.0, theta=0.5, rdot=10.0, phi=0.1, dim=3)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SphericalMeasurement(**kwargs)


def scenario_3d(t, runs=3):
    return Scenario(
        model=DynamicModel(dim=3, t=t, accel_noise_std=0.5),
        initial_state=np.array([12e3, -5e3, 2e3, 50.0, 10.0, -5.0]),
        maneuvers=ManeuverSchedule.from_pairs([(4, (1.0, -2.0, 0.5)), (9, (0.0, 0.0, 0.0))]),
        noise=NoiseSpec(100.0, 0.01, 1.0, rho=0.4, sigma_phi=0.02),
        steps=40,
        runs=runs,
        seed=3,
    )


def ensemble_scenario(name, t):
    if name == "3d":
        return scenario_3d(t)
    case = generate_case(int(name[-1]))
    return dataclasses.replace(case, model=dataclasses.replace(case.model, t=t), runs=3)


def run_generators(scenario, runs=None):
    seeds = np.random.SeedSequence(scenario.seed).spawn(scenario.runs)
    return [np.random.default_rng(s) for s in seeds[:runs]]


def stepwise_truth(scenario, rng):
    """``x_{k+1} = phi x_k + gamma u_k + gamma w_k``, one step at a time."""
    model = scenario.model
    w = model.accel_noise_std * rng.standard_normal((scenario.steps - 1, model.dim))
    states = [np.array(scenario.initial_state, dtype=float)]
    for k in range(scenario.steps - 1):
        u = scenario.maneuvers.accel_at(k, model.dim)
        states.append(model.phi @ states[-1] + model.gamma @ u + model.gamma @ w[k])
    return np.array(states)


ENSEMBLES = [(name, t) for name in ("case1", "case2", "3d") for t in (0.1, 0.7, 1.0, 1.3)]


@pytest.mark.parametrize("name, t", ENSEMBLES)
def test_simulate_truths_equal_a_stepwise_loop(name, t):
    # the running sums add in the loop's order, so they keep its bits
    sc = ensemble_scenario(name, t)
    truths = _simulate_truths(sc, run_generators(sc))
    reference = [stepwise_truth(sc, rng) for rng in run_generators(sc)]
    np.testing.assert_array_equal(truths, reference)


@pytest.mark.parametrize("name, t", ENSEMBLES[::4])
def test_synthesize_equals_per_run_noise_draws(name, t):
    sc = ensemble_scenario(name, t)
    truths = _simulate_truths(sc, run_generators(sc))
    rows = _synthesize(truths, sc.noise, run_generators(sc))
    for truth, rng, got in zip(truths, run_generators(sc), rows):
        dr, dth, dph, drd = _noise_matrix(sc.noise, sc.steps, rng)
        r, theta, phi, rdot = _spherical(truth)
        if sc.dim == 3:
            phi = phi + dph
        np.testing.assert_array_equal(got, np.stack([r + dr, theta + dth, phi, rdot + drd], -1))


@pytest.mark.parametrize("name", ["case2", "3d"])
def test_a_runs_truth_and_rows_do_not_depend_on_the_other_runs(name):
    sc = ensemble_scenario(name, 1.0)
    rngs = run_generators(sc)
    truths = _simulate_truths(sc, rngs)
    rows = _synthesize(truths, sc.noise, rngs)
    for runs in (1, 2):
        few = run_generators(sc, runs)
        few_truths = _simulate_truths(sc, few)
        np.testing.assert_array_equal(few_truths, truths[:runs])
        np.testing.assert_array_equal(_synthesize(few_truths, sc.noise, few), rows[:runs])
