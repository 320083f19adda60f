"""Tests for truth generation and the radar measurement model."""

import dataclasses
import math

import numpy as np
import pytest

from rcmkf.errors import GeometryError
from rcmkf.scenario import (
    ManeuverSchedule,
    NoiseSpec,
    SphericalMeasurement,
    cv_model,
    draw_measurement_noise,
    generate_case,
    measure,
    propagate_truth,
    simulate_truth,
)


def test_propagate_noise_free_cv():
    model = cv_model(dim=2, t=1.0, accel_noise_std=0.0)
    out = propagate_truth(model, np.array([0.0, 0.0, 1.0, 1.0]))
    np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 1.0])


def test_propagate_acceleration_gain():
    # position picks up a*T^2/2, velocity a*T
    model = cv_model(dim=2, t=1.0)
    out = propagate_truth(model, np.zeros(4), accel=np.array([5.0, 5.0]))
    np.testing.assert_allclose(out, [2.5, 2.5, 5.0, 5.0])


def test_propagate_twice_is_linear():
    model = cv_model(dim=2, t=1.0, accel_noise_std=0.0)
    x = np.array([3.0, -2.0, 4.0, 7.0])
    out = propagate_truth(model, propagate_truth(model, x))
    np.testing.assert_allclose(out[:2], x[:2] + 2.0 * x[2:])
    np.testing.assert_allclose(out[2:], x[2:])


def test_propagate_dimension_mismatch():
    model = cv_model(dim=2)
    with pytest.raises(ValueError):
        propagate_truth(model, np.zeros(6))


def test_measure_on_axis_3d():
    m = measure(np.array([100.0, 0.0, 0.0, 10.0, 0.0, 0.0]), NoiseSpec(0.0, 0.0, 0.0))
    assert m.dim == 3
    assert m.r == pytest.approx(100.0)
    assert m.theta == pytest.approx(0.0)
    assert m.phi == pytest.approx(0.0)
    assert m.rdot == pytest.approx(10.0)


def test_measure_case1_geometry():
    m = measure(np.array([80e3, 80e3, 200.0, 200.0]), NoiseSpec(0.0, 0.0, 0.0))
    assert m.r == pytest.approx(math.sqrt(2) * 80e3, abs=0.01)
    assert m.theta == pytest.approx(math.pi / 4)
    assert m.rdot == pytest.approx(math.sqrt(2) * 200.0, abs=1e-6)


def test_measure_additive_noise():
    noise = NoiseSpec(200.0, 0.01, 1.0)
    clean = measure(np.array([80e3, 80e3, 200.0, 200.0]), noise)
    shifted = measure(np.array([80e3, 80e3, 200.0, 200.0]), noise, (noise.sigma_r, 0.0, 0.0, 0.0))
    assert shifted.r - clean.r == pytest.approx(noise.sigma_r)
    assert shifted.theta == clean.theta


def test_measure_at_origin_fails():
    with pytest.raises(GeometryError):
        measure(np.array([0.0, 0.0, 1.0, 1.0]), NoiseSpec(1.0, 0.01, 0.1))


def test_draw_measurement_noise_degenerate():
    rng = np.random.default_rng(0)
    assert draw_measurement_noise(NoiseSpec(0.0, 0.0, 0.0, 0.0, 0.0), rng) == (0.0, 0.0, 0.0, 0.0)


def test_draw_measurement_noise_moments():
    noise = NoiseSpec(sigma_r=200.0, sigma_theta=math.radians(2.5), sigma_rdot=1.0, rho=0.3)
    rng = np.random.default_rng(123)
    draws = np.array([draw_measurement_noise(noise, rng) for _ in range(1000)])
    # scalar path smoke check only; the million-draw moments use the matrix path
    assert abs(draws[:, 0].mean()) < 30.0

    from rcmkf.scenario import _noise_matrix

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
    model = cv_model(dim=3, t=0.5, accel_noise_std=0.0)
    x = np.array([1.0, 2.0, 3.0, -1.0, 0.5, 2.0])
    cur = x.copy()
    for _ in range(10):
        cur = propagate_truth(model, cur)
    np.testing.assert_array_equal(cur[3:], x[3:])
    np.testing.assert_allclose(cur[:3], x[:3] + 10 * 0.5 * x[3:], rtol=0, atol=1e-12)


def test_measure_convert_roundtrip():
    from rcmkf.conversion import convert_position

    state = np.array([12e3, -5e3, 2e3, 50.0, 10.0, -5.0])
    m = measure(state, NoiseSpec(0.0, 0.0, 0.0))
    pos = convert_position(m)
    np.testing.assert_allclose(pos, state[:3], rtol=1e-9)


def test_case2_truth_continuity():
    # noise-free generation: kinematics hold exactly across maneuver starts
    sc = generate_case(2)
    sc = dataclasses.replace(sc, model=cv_model(2, 1.0, 0.0))
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


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        NoiseSpec(1.0, 0.1, 1.0, rho=1.5)
    block = NoiseSpec(200.0, 0.01, 1.0, rho=0.3).range_block()
    assert block[0, 1] == pytest.approx(60.0)
    assert np.all(np.linalg.eigvalsh(block) >= 0)


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
