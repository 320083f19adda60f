"""Tests for decorrelation, the sequential KF/EKF stages and the filter loop."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcmkf.filtering as filtering
from rcmkf import scenario
from rcmkf.config import generate_case
from rcmkf.conversion import ConversionMethod, ConvertedMeasurement, _convert_batch, convert
from rcmkf.errors import DegenerateCovarianceError
from rcmkf.filtering import (
    FilterVariant,
    GaussianBelief,
    decorrelate,
    ekf_update_pseudo,
    filter_scans,
    initialize_belief,
    kf_predict,
    kf_update_position,
    pseudo_jacobian,
    quadratic_correction,
    run_filter,
)
from rcmkf.scenario import (
    DynamicModel,
    NoiseSpec,
    simulate_truth,
    synthesize_measurements,
)


def make_converted(cov, mu=None, position=None, pseudo=0.0, dim=None):
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0] - 1 if dim is None else dim
    return ConvertedMeasurement(
        position=np.zeros(d) if position is None else np.asarray(position, dtype=float),
        pseudo=pseudo,
        mu=np.zeros(d + 1) if mu is None else np.asarray(mu, dtype=float),
        cov=cov,
        dim=d,
    )


def random_spd(n, rng, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def test_decorrelate_uncorrelated_passthrough():
    cov = np.diag([4.0, 5.0, 7.0])
    d = decorrelate(make_converted(cov, position=[1.0, 2.0], pseudo=3.0))
    np.testing.assert_array_equal(d.l_row, 0.0)
    assert d.pseudo == 3.0
    assert d.var_pseudo == 7.0


def test_decorrelate_1d_analog():
    cov = np.array([[4.0, 2.0], [2.0, 3.0]])
    d = decorrelate(make_converted(cov, position=[0.0], pseudo=1.0, dim=1))
    assert d.l_row[0] == pytest.approx(-0.5)
    assert d.var_pseudo == pytest.approx(2.0)


def test_decorrelate_kills_cross_covariance():
    rng = np.random.default_rng(8)
    for _ in range(25):
        cov = random_spd(4, rng, scale=100.0)
        d = decorrelate(make_converted(cov))
        resid = cov[3, :3] + d.l_row @ cov[:3, :3]
        assert np.abs(resid).max() <= 1e-12 * np.abs(cov).max()
        # Schur complement is the transformed variance
        expect = cov[3, 3] - cov[3, :3] @ np.linalg.solve(cov[:3, :3], cov[3, :3])
        assert d.var_pseudo == pytest.approx(expect, rel=1e-10)


def test_decorrelate_rejects_fields_of_different_batches():
    # mu and cov of one item would broadcast over three positions and pseudos
    z = ConvertedMeasurement(
        position=np.zeros((3, 2)),
        pseudo=np.zeros(3),
        mu=np.zeros((1, 3)),
        cov=np.eye(3)[None],
        dim=2,
    )
    with pytest.raises(ValueError, match=r"measurement mu batch \(1,\) does not match"):
        decorrelate(z)
    with pytest.raises(ValueError, match=r"measurement cov batch \(1,\) does not match"):
        decorrelate(dataclasses.replace(z, mu=np.zeros((3, 3))))


def test_decorrelate_singular_position_block():
    cov = np.zeros((3, 3))
    cov[2, 2] = 1.0
    cov[2, 0] = cov[0, 2] = 0.5  # nonzero cross forces the solve
    with pytest.raises(DegenerateCovarianceError):
        decorrelate(make_converted(cov))


def _spread_covs(rng, k, count, spread):
    """Random ``(k, k)`` covariances, ill-conditioned by ``spread``, and their entry scales.

    ``spread`` is ``"scales"`` for ill-conditioning by the entries' scales
    (standard deviations over four decades on a random correlation
    structure, as position errors in m beside a pseudo error in m^2/s), or
    ``"eigenvalues"`` for eigenvalues over eight decades in a random basis.
    Of the ``count`` drawn, only those with condition numbers up to 1e8 are
    kept.
    """
    q = np.linalg.qr(rng.standard_normal((count, k, k)))[0]
    if spread == "scales":
        scale = 10.0 ** rng.uniform(-1.0, 3.0, (count, k))
        cov = (q * rng.uniform(0.2, 1.0, (count, 1, k))) @ q.swapaxes(1, 2)
        cov *= scale[:, :, None] * scale[:, None, :]
    else:
        scale = np.ones((count, k))
        cov = (q * 10.0 ** rng.uniform(0.0, 8.0, (count, 1, k))) @ q.swapaxes(1, 2)
    cov = 0.5 * (cov + cov.swapaxes(1, 2))
    cond = np.linalg.cond(cov)
    keep = cond <= 1e8
    assert cond[keep].max() > 5e7  # the draw reaches the stated conditioning
    return cov[keep], scale[keep]


def _joint_batch(rng, p, count, spread):
    """Random joint covariances (:func:`_spread_covs`) and conversions around them."""
    k = p + 1
    cov, scale = _spread_covs(rng, k, count, spread)
    m = len(cov)
    z = ConvertedMeasurement(
        position=rng.standard_normal((m, p)) * 10.0 * scale[:, :p],
        pseudo=rng.standard_normal(m) * 10.0 * scale[:, p],
        mu=rng.standard_normal((m, k)) * scale,
        cov=cov,
        dim=p,
    )
    return z


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_decorrelation_matches_a_solve(p):
    # the closed form against LAPACK solve, on covariances whose condition
    # numbers reach 1e8 through the scales of their entries
    z = _joint_batch(np.random.default_rng(40 + p), p, 2000, "scales")
    d = decorrelate(z)
    cov = z.cov
    l_row = -np.linalg.solve(cov[:, :p, :p], cov[:, p, :p, None])[..., 0]
    var = cov[:, p, p] + np.einsum("ni,ni->n", l_row, cov[:, p, :p])
    pseudo = np.einsum("ni,ni->n", l_row, z.position) + z.pseudo
    debiased = pseudo - (np.einsum("ni,ni->n", l_row, z.mu[:, :p]) + z.mu[:, p])
    assert np.all(np.abs(d.l_row - l_row).max(axis=-1) <= 1e-10 * np.abs(l_row).max(axis=-1))
    assert np.all(np.abs(d.var_pseudo - var) <= 1e-10 * var)
    assert np.all(np.abs(d.debiased_pseudo - debiased) <= 1e-10 * np.abs(debiased))


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_decorrelation_is_backward_stable(p):
    # with eigenvalues over eight decades in a random basis the solution
    # itself is ill-conditioned; the row still solves R_pp l = -R_pe to
    # rounding, as LAPACK's does (an adjugate over the determinant leaves
    # residuals up to 5e-5 of the terms here in 3D), and the variance is
    # the Schur complement of that row
    z = _joint_batch(np.random.default_rng(50 + p), p, 2000, "eigenvalues")
    d = decorrelate(z)
    r_pp, r_ep, r_ee = z.cov[:, :p, :p], z.cov[:, p, :p], z.cov[:, p, p]
    resid = np.einsum("nij,nj->ni", r_pp, d.l_row) + r_ep
    scale = np.abs(r_pp).max(axis=(1, 2)) * np.abs(d.l_row).max(axis=-1) + np.abs(r_ep).max(axis=-1)
    assert np.all(np.abs(resid).max(axis=-1) <= 1e-14 * scale)
    schur = r_ee + np.einsum("ni,ni->n", d.l_row, r_ep)
    assert np.all(np.abs(d.var_pseudo - schur) <= 1e-14 * (r_ee + np.abs(d.l_row * r_ep).sum(-1)))


@pytest.mark.parametrize("p", [2, 3])
def test_position_gain_is_backward_stable(p):
    # with the eigenvalues of P over eight decades in a random basis, the
    # gain still solves S K^T = H P to rounding (an adjugate over the
    # determinant leaves residuals up to 5e-6 of the terms here in 3D). With
    # R = 0, a zero prior mean and the unit innovation e_k, the posterior
    # mean is exactly row k of K^T.
    n = 2 * p
    cov, _ = _spread_covs(np.random.default_rng(60 + p), n, 2000, "eigenvalues")
    m = len(cov) * p  # item i * p + k takes the innovation e_k
    prior = GaussianBelief(np.zeros((m, n)), np.repeat(cov, p, axis=0))
    d = filtering.DecorrelatedMeasurement(
        cov_pos=np.zeros((m, p, p)),
        pseudo=np.zeros(m),
        var_pseudo=np.ones(m),
        l_row=np.zeros((m, p)),
        debiased_pos=np.tile(np.eye(p), (len(cov), 1)),
        debiased_pseudo=np.zeros(m),
        dim=p,
    )
    gain_t = kf_update_position(prior, d).mean.reshape(len(cov), p, n)
    s, hp = cov[:, :p, :p], cov[:, :p]
    resid = np.abs(s @ gain_t - hp).max(axis=(1, 2))
    scale = np.abs(s).max(axis=(1, 2)) * np.abs(gain_t).max(axis=(1, 2)) + np.abs(hp).max(axis=(1, 2))
    assert np.all(resid <= 1e-14 * scale)


def test_decorrelate_singular_block_valid_only_without_cross_row():
    # zero and rank-one position blocks, each with a zero and a nonzero cross
    # row; the closed form's division by a zero pivot warns nothing
    blocks = [np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2))]
    cross = [np.zeros(2), np.array([0.5, 0.0]), np.zeros(2), np.array([1.0, 1.0])]
    cov = np.zeros((4, 3, 3))
    cov[:, :2, :2], cov[:, 2, :2], cov[:, :2, 2], cov[:, 2, 2] = blocks, cross, cross, 4.0
    z = ConvertedMeasurement(np.ones((4, 2)), np.ones(4), np.zeros((4, 3)), cov, 2)
    rows = np.empty((filtering._layout(2).size, 4))
    ok = filtering._decorrelate(z, rows)
    np.testing.assert_array_equal(ok, [True, False, True, False])
    d = decorrelate(z[ok])
    np.testing.assert_array_equal(d.l_row, 0.0)
    np.testing.assert_array_equal(d.var_pseudo, 4.0)


def test_kf_predict_identity():
    # a target at rest, known exactly and without process noise, stays put
    model = DynamicModel(2, 1.0, 0.0)
    b = GaussianBelief(np.array([1.0, 2.0, 0.0, 0.0]), np.zeros((4, 4)))
    out = kf_predict(b, model)
    np.testing.assert_array_equal(out.mean, b.mean)
    np.testing.assert_array_equal(out.cov, b.cov)


def test_kf_predict_deterministic_cv():
    model = DynamicModel(2, 1.0, 0.0)
    out = kf_predict(GaussianBelief(np.array([0.0, 0.0, 1.0, 1.0]), np.zeros((4, 4))), model)
    np.testing.assert_allclose(out.mean, [1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(out.cov, np.zeros((4, 4)))


def test_kf_predict_additive_covariance():
    # P = I predicts phi phi^T + gamma q gamma^T; at t = 2 and std 0.5 per axis:
    # phi phi^T = [[5, 2], [2, 1]] (x) I and gamma q gamma^T = 0.25 [[4, 4], [4, 4]] (x) I
    model = DynamicModel(2, 2.0, 0.5)
    out = kf_predict(GaussianBelief(np.zeros(4), np.eye(4)), model)
    np.testing.assert_allclose(out.cov, np.kron([[6.0, 3.0], [3.0, 2.0]], np.eye(2)))


def test_kf_update_uninformative_measurement():
    prior = GaussianBelief(np.array([1.0, -1.0, 0.5, 0.2]), np.eye(4))
    d = decorrelate(
        make_converted(np.diag([1e12, 1e12, 1.0]), position=[500.0, -500.0], pseudo=0.0)
    )
    post = kf_update_position(prior, d)
    np.testing.assert_allclose(post.mean, prior.mean, atol=1e-6)
    np.testing.assert_allclose(post.cov, prior.cov, rtol=1e-6)


def test_kf_update_halving_gain():
    prior = GaussianBelief(np.array([2.0, 3.0, 1.0, 1.0]), np.eye(4))
    z = prior.mean[:2] + np.array([1.0, 0.0])
    d = decorrelate(make_converted(np.diag([1.0, 1.0, 1.0]), position=z, pseudo=0.0))
    post = kf_update_position(prior, d)
    np.testing.assert_allclose(post.mean, [2.5, 3.0, 1.0, 1.0], atol=1e-12)


def test_kf_update_bias_shift_invariance():
    rng = np.random.default_rng(2)
    prior = GaussianBelief(rng.standard_normal(4), random_spd(4, rng))
    cov = random_spd(3, rng)
    shift = np.array([10.0, -20.0])
    a = decorrelate(make_converted(cov, mu=[1.0, 2.0, 0.0], position=[5.0, 6.0]))
    b = decorrelate(
        make_converted(cov, mu=[1.0 + shift[0], 2.0 + shift[1], 0.0], position=[5.0 + shift[0], 6.0 + shift[1]])
    )
    pa = kf_update_position(prior, a)
    pb = kf_update_position(prior, b)
    np.testing.assert_allclose(pa.mean, pb.mean, atol=1e-10)
    np.testing.assert_allclose(pa.cov, pb.cov, atol=1e-10)


def test_kf_update_loewner_decrease():
    rng = np.random.default_rng(5)
    for _ in range(20):
        prior = GaussianBelief(rng.standard_normal(4), random_spd(4, rng, scale=10.0))
        d = decorrelate(make_converted(random_spd(3, rng), position=rng.standard_normal(2)))
        post = kf_update_position(prior, d)
        diff = prior.cov - post.cov
        assert np.linalg.eigvalsh(diff).min() >= -1e-9 * np.trace(prior.cov)
        np.testing.assert_allclose(post.cov, post.cov.T, atol=1e-12)


def test_pseudo_jacobian_direct_substitution():
    state = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    np.testing.assert_array_equal(pseudo_jacobian(state, np.zeros(3)), [4.0, 5.0, 6.0, 1.0, 2.0, 3.0])


def test_pseudo_jacobian_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = rng.choice([2, 3])
        state = rng.standard_normal(2 * p) * 100.0
        l_row = rng.standard_normal(p) * 10.0

        def h(x):
            return float(l_row @ x[:p]) + float(x[:p] @ x[p:])

        grad = pseudo_jacobian(state, l_row)
        for i in range(2 * p):
            step = 1e-4 * max(1.0, abs(state[i]))
            e = np.zeros(2 * p)
            e[i] = step
            fd = (h(state + e) - h(state - e)) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


def test_quadratic_correction_diagonal():
    p_diag = np.diag([1.0, 2.0, 3.0, 4.0])
    delta2, a_k = quadratic_correction(p_diag)
    assert delta2 == 0.0
    assert a_k == pytest.approx(1.0 * 3.0 + 2.0 * 4.0)


def test_quadratic_correction_matches_printed_index_pattern():
    rng = np.random.default_rng(13)
    # 6-state pattern
    P = random_spd(6, rng)
    delta2, a_k = quadratic_correction(P)
    assert delta2 == pytest.approx(2 * (P[0, 3] + P[1, 4] + P[2, 5]), rel=1e-12)
    expect = (
        P[0, 0] * P[3, 3] + P[1, 1] * P[4, 4] + P[2, 2] * P[5, 5]
        + 2 * P[0, 1] * P[3, 4] + 2 * P[0, 4] * P[1, 3] + 2 * P[0, 2] * P[3, 5]
        + 2 * P[0, 5] * P[2, 3] + 2 * P[1, 2] * P[4, 5] + 2 * P[1, 5] * P[2, 4]
        + P[0, 3] ** 2 + P[1, 4] ** 2 + P[2, 5] ** 2
    )
    assert a_k == pytest.approx(expect, rel=1e-12)
    # 4-state reduction drops every z-indexed term
    P4 = random_spd(4, rng)
    delta2, a_k = quadratic_correction(P4)
    assert delta2 == pytest.approx(2 * (P4[0, 2] + P4[1, 3]), rel=1e-12)
    expect4 = (
        P4[0, 0] * P4[2, 2] + P4[1, 1] * P4[3, 3]
        + 2 * P4[0, 1] * P4[2, 3] + 2 * P4[0, 3] * P4[1, 2]
        + P4[0, 2] ** 2 + P4[1, 3] ** 2
    )
    assert a_k == pytest.approx(expect4, rel=1e-12)


def test_quadratic_moment_identities_monte_carlo():
    rng = np.random.default_rng(31)
    for _ in range(3):
        p = 2
        x_hat = rng.standard_normal(2 * p) * 50.0
        P = random_spd(2 * p, rng, scale=4.0)
        l_row = rng.standard_normal(p) * 5.0
        n = 1_000_000
        chol = np.linalg.cholesky(P)
        X = x_hat[None, :] + (chol @ rng.standard_normal((2 * p, n))).T
        h = X[:, :p] @ l_row + np.einsum("ni,ni->n", X[:, :p], X[:, p:])
        h0 = float(l_row @ x_hat[:p]) + float(x_hat[:p] @ x_hat[p:])
        delta2, a_k = quadratic_correction(P)
        grad = pseudo_jacobian(x_hat, l_row)

        se_mean = h.std() / math.sqrt(n)
        assert abs(h.mean() - h0 - 0.5 * delta2) <= 3 * se_mean
        c = h - h.mean()
        var = c.var()
        se_var = math.sqrt(max((c**2).var(), 0.0) / n)
        assert abs(var - (grad @ P @ grad + a_k)) <= 3 * se_var


def test_ekf_update_nonpositive_innovation_variance():
    # zero predicted variance with a conflicting innovation is degenerate...
    b = GaussianBelief(np.zeros(4), np.zeros((4, 4)))
    d = decorrelate(make_converted(np.zeros((3, 3)), position=np.zeros(2), pseudo=5.0))
    with pytest.raises(DegenerateCovarianceError):
        ekf_update_pseudo(b, d)
    # ...while a consistent deterministic measurement is a no-op
    d0 = decorrelate(make_converted(np.zeros((3, 3)), position=np.zeros(2), pseudo=0.0))
    out = ekf_update_pseudo(b, d0)
    np.testing.assert_array_equal(out.mean, b.mean)


def test_run_filter_zero_noise_exact():
    sc = generate_case(1)
    sc = dataclasses.replace(
        sc, model=DynamicModel(2, 1.0, 0.0), noise=NoiseSpec(0.0, 0.0, 0.0, 0.0), runs=1
    )
    rng = np.random.default_rng(0)
    truth = simulate_truth(sc, rng)
    meas = synthesize_measurements(truth, sc.noise, rng)
    init = GaussianBelief(truth[1].copy(), np.eye(4))
    run = run_filter(FilterVariant.RCMKF_U, meas[2:], sc.noise, sc.model, init)
    for k, belief in enumerate(run.beliefs):
        err = np.linalg.norm(belief.mean[:2] - truth[k + 2, :2])
        assert err < 1e-6


def test_run_filter_variants_identical_under_identical_stats():
    # zero noise makes both variants' statistics coincide, so the shared
    # code path must produce bit-identical trajectories
    sc = dataclasses.replace(
        generate_case(1), model=DynamicModel(2, 1.0, 0.0), noise=NoiseSpec(0.0, 0.0, 0.0, 0.0)
    )
    rng = np.random.default_rng(1)
    truth = simulate_truth(sc, rng)
    meas = synthesize_measurements(truth, sc.noise, rng)
    init = GaussianBelief(truth[1].copy(), np.eye(4))
    run_u = run_filter(FilterVariant.RCMKF_U, meas[2:], sc.noise, sc.model, init)
    run_d = run_filter(FilterVariant.RCMKF_D, meas[2:], sc.noise, sc.model, init)
    for bu, bd in zip(run_u.beliefs, run_d.beliefs):
        np.testing.assert_array_equal(bu.mean, bd.mean)
        np.testing.assert_array_equal(bu.cov, bd.cov)


def test_run_filter_requires_measurements():
    with pytest.raises(ValueError):
        run_filter(
            FilterVariant.RCMKF_U,
            [],
            NoiseSpec(1.0, 0.01, 1.0),
            DynamicModel(2),
            GaussianBelief(np.zeros(4), np.eye(4)),
        )


def test_run_filter_attaches_step_to_update_errors():
    sc = generate_case(1)
    rng = np.random.default_rng(3)
    truth = simulate_truth(sc, rng)
    meas = synthesize_measurements(truth, sc.noise, rng)
    init = GaussianBelief(np.zeros(6), np.eye(6))  # 3D belief vs 2D stream
    with pytest.raises(ValueError, match="step 2"):
        run_filter(FilterVariant.RCMKF_U, meas[2:], sc.noise, DynamicModel(3), init)


def test_run_filter_skips_degenerate_conversions(monkeypatch):
    sc = generate_case(1)
    rng = np.random.default_rng(4)
    truth = simulate_truth(sc, rng)
    meas = synthesize_measurements(truth, sc.noise, rng)[:10]

    real_convert = convert

    def flaky(m, noise, method=ConversionMethod.MEASUREMENT_CONDITIONED):
        if m.step == 5:
            raise DegenerateCovarianceError("forced")
        return real_convert(m, noise, method)

    monkeypatch.setattr(filtering, "convert", flaky)
    init = initialize_belief(
        convert(meas[0], sc.noise), convert(meas[1], sc.noise), 1.0
    )
    run = run_filter(FilterVariant.RCMKF_U, meas[2:], sc.noise, sc.model, init)
    assert run.skipped_steps == [5]
    assert len(run.beliefs) == len(meas) - 2


def test_initialize_belief_static_target():
    cov = np.diag([4.0, 4.0, 1.0])
    z = make_converted(cov, position=[100.0, 200.0])
    belief = initialize_belief(z, z, 1.0)
    np.testing.assert_allclose(belief.mean, [100.0, 200.0, 0.0, 0.0])


def test_initialize_belief_recovers_cv_velocity():
    noise = NoiseSpec(0.0, 0.0, 0.0, 0.0)
    s0 = np.array([5e3, 6e3, 40.0, -25.0])
    s1 = s0.copy()
    s1[:2] += 0.5 * s0[2:]
    m0, m1 = synthesize_measurements(np.stack([s0, s1]), noise, np.random.default_rng(0))
    z0 = convert(m0, noise)
    z1 = convert(m1, noise)
    belief = initialize_belief(z0, z1, 0.5)
    np.testing.assert_allclose(belief.mean, s1, atol=1e-8)


def test_initialize_belief_covariance_blocks():
    rng = np.random.default_rng(6)
    r1 = random_spd(2, rng)
    r2 = random_spd(2, rng)
    z1 = make_converted(np.block([[r1, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]]))
    z2 = make_converted(np.block([[r2, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]]))
    t = 2.0
    belief = initialize_belief(z1, z2, t)
    np.testing.assert_allclose(belief.cov[:2, :2], r2)
    np.testing.assert_allclose(belief.cov[2:, 2:], (r1 + r2) / t**2)
    np.testing.assert_allclose(belief.cov[:2, 2:], r2 / t)


def test_initialize_belief_covariance_matches_sampling():
    # propagate measurement noise through the differencing map empirically
    noise = NoiseSpec(sigma_r=50.0, sigma_theta=0.05, sigma_rdot=2.0, rho=0.3)
    truth0 = np.array([8e3, 6e3, 30.0, 20.0])
    truth1 = truth0.copy()
    truth1[:2] += truth0[2:]
    n = 40_000
    # the standard normals of 2n one-column draws, (z0, z1) per sample
    std = np.random.default_rng(10).standard_normal((n, 2, 4))
    dr = noise.sigma_r * std[..., 0]
    dth = noise.sigma_theta * std[..., 1]
    drd = noise.sigma_rdot * (noise.rho * std[..., 0] + math.sqrt(1.0 - noise.rho**2) * std[..., 3])
    replay = np.random.default_rng(10)  # the first sample's two calls, one by one
    for k in range(2):
        np.testing.assert_array_equal(
            scenario._noise_matrix(noise, 1, replay)[:, 0], (dr[0, k], dth[0, k], 0.0, drd[0, k])
        )
    r, theta, _, rdot = scenario._spherical(np.stack([truth0, truth1]))
    meas = np.stack([r + dr, theta + dth, np.zeros((n, 2)), rdot + drd], axis=-1)
    z, ok = _convert_batch(meas, noise, [ConversionMethod.MEASUREMENT_CONDITIONED], 2)
    assert ok.all()
    errs = initialize_belief(z[:, 0, 0], z[:, 1, 0], 1.0).mean - truth1
    emp = np.cov(errs.T)
    # the hypothesized covariance at the noise-free measurements of the truths
    clean = NoiseSpec(0.0, 0.0, 0.0)
    m0, m1 = synthesize_measurements(np.stack([truth0, truth1]), clean, np.random.default_rng(0))
    z0 = convert(m0, noise)
    z1 = convert(m1, noise)
    hyp = initialize_belief(z0, z1, 1.0).cov
    np.testing.assert_allclose(emp, hyp, rtol=0.12, atol=0.12 * np.abs(hyp).max())


def test_initialize_belief_rejects_bad_interval():
    z = make_converted(np.eye(3))
    with pytest.raises(ValueError):
        initialize_belief(z, z, 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_initialize_belief_rejects_non_finite_interval(t):
    z = make_converted(np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        initialize_belief(z, z, t)


def test_posterior_covariances_stay_symmetric_psd():
    sc = generate_case(2)
    rng = np.random.default_rng(11)
    truth = simulate_truth(sc, rng)
    meas = synthesize_measurements(truth, sc.noise, rng)
    for variant in FilterVariant:
        init = initialize_belief(
            convert(meas[0], sc.noise, variant.method),
            convert(meas[1], sc.noise, variant.method),
            1.0,
        )
        run = run_filter(variant, meas[2:], sc.noise, sc.model, init)
        for belief in run.beliefs:
            np.testing.assert_allclose(belief.cov, belief.cov.T, atol=1e-9 * np.abs(belief.cov).max())
            assert np.linalg.eigvalsh(belief.cov).min() >= -1e-9 * np.trace(belief.cov)


# Dense textbook references for the three filter stages, one item at a time:
# explicit H, np.linalg.solve for the gain (lstsq, the minimum-norm limit,
# where S is exactly singular), the expanded Joseph form
# (I - K H) P (I - K H)^T + K R K^T, and the second-order EKF with an
# explicit h and traces.


def _predict_ref(mean, cov, model):
    q = model.gamma @ model.q @ model.gamma.T
    return model.phi @ mean, model.phi @ cov @ model.phi.T + q


def _position_ref(mean, cov, z, r):
    p = len(z)
    n = 2 * p
    h = np.hstack([np.eye(p), np.zeros((p, p))])
    s = h @ cov @ h.T + r
    if np.linalg.matrix_rank(s) < p:
        gain = np.linalg.lstsq(s, h @ cov, rcond=None)[0].T
    else:
        gain = np.linalg.solve(s, h @ cov).T
    i_kh = np.eye(n) - gain @ h
    return mean + gain @ (z - h @ mean), i_kh @ cov @ i_kh.T + gain @ r @ gain.T


def _pseudo_ref(mean, cov, l_row, pseudo, debiased, var):
    """Second-order EKF update; ``None`` when the update must raise."""
    p = len(l_row)
    pos, vel = mean[:p], mean[p:]
    h_val = l_row @ pos + pos @ vel
    h_row = np.concatenate([l_row + vel, pos])
    p_pv = cov[:p, p:]
    delta2 = 2.0 * np.trace(p_pv)
    a_k = np.trace(p_pv @ p_pv) + np.trace(cov[:p, :p] @ cov[p:, p:])
    s = h_row @ cov @ h_row + var + a_k
    innovation = debiased - h_val - 0.5 * delta2
    if s <= 0:
        if abs(innovation) > 1e-9 * max(abs(pseudo), abs(h_val), 1.0):
            return None
        return mean, cov
    gain = cov @ h_row / s
    i_kh = np.eye(2 * p) - np.outer(gain, h_row)
    return mean + gain * innovation, i_kh @ cov @ i_kh.T + (var + a_k) * np.outer(gain, gain)


def _random_cov(rng, n, scale):
    """SPD with eigenvalues in [1e-3, 1] * scale."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cov = (q * (scale * 10.0 ** rng.uniform(-3.0, 0.0, n))) @ q.T
    return 0.5 * (cov + cov.T)


# Item kinds: "spd" is a regular update; "singular" has an exactly singular
# position innovation covariance S (row and column 0 of P and R are zero),
# which takes the least-squares gain; "collapsed" has P = 0 and R = 0, so
# S = 0 and the pseudo update is a no-op; "conflict" is collapsed with an
# inconsistent pseudo-measurement, which must raise.
_STAGE_KINDS = ("spd", "spd", "singular", "collapsed", "conflict")


@st.composite
def _stage_batches(draw):
    p = draw(st.sampled_from([2, 3]))
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-2.0, 8.0))
    kinds = [draw(st.sampled_from(_STAGE_KINDS)) for _ in range(int(np.prod(shape)))]
    n = 2 * p
    means, covs, joints, positions, pseudos, mus = [], [], [], [], [], []
    for kind in kinds:
        mean = rng.standard_normal(n) * np.sqrt(scale)
        position = mean[:p] + rng.standard_normal(p) * np.sqrt(scale)
        mu = rng.standard_normal(p + 1) * 0.1 * np.sqrt(scale)
        if kind in ("collapsed", "conflict"):
            cov, joint = np.zeros((n, n)), np.zeros((p + 1, p + 1))
            mu[:] = 0.0
            pseudo = mean[:p] @ mean[p:] + (1.0 if kind == "conflict" else 0.0)
        else:
            cov = _random_cov(rng, n, scale)
            joint = _random_cov(rng, p + 1, scale)
            if kind == "singular":  # a zero position error, uncorrelated with eta
                cov[0, :] = cov[:, 0] = 0.0
                joint[0, :] = joint[:, 0] = 0.0
                joint[p, :p] = joint[:p, p] = 0.0
            pseudo = rng.standard_normal() * scale
        means.append(mean)
        covs.append(cov)
        joints.append(joint)
        positions.append(position)
        pseudos.append(pseudo)
        mus.append(mu)
    belief = GaussianBelief(np.reshape(means, shape + (n,)), np.reshape(covs, shape + (n, n)))
    z = ConvertedMeasurement(
        position=np.reshape(positions, shape + (p,)),
        pseudo=np.reshape(pseudos, shape),
        mu=np.reshape(mus, shape + (p + 1,)),
        cov=np.reshape(joints, shape + (p + 1, p + 1)),
        dim=p,
    )
    return belief, decorrelate(z), kinds


def _assert_close(got, ref, what):
    # every item to 1e-11 of its own largest reference entry; the stages stay
    # within about 6e-15 at the condition numbers drawn here (up to 1e3)
    tol = 1e-11 * max(np.abs(ref).max(), 1e-300)
    assert np.abs(got - ref).max() <= tol, what


@settings(max_examples=300, deadline=None)
@given(_stage_batches(), st.floats(0.1, 2.0), st.floats(0.0, 3.0))
def test_filter_stages_match_dense_references(batch, t, accel_std):
    belief, d, kinds = batch
    p = d.dim
    model = DynamicModel(p, t, accel_std)
    predicted = kf_predict(belief, model)
    position = kf_update_position(belief, d)
    conflict = "conflict" in kinds
    if conflict:
        with pytest.raises(DegenerateCovarianceError):
            ekf_update_pseudo(position, d)
    else:
        pseudo = ekf_update_pseudo(position, d)
    for i, kind in zip(np.ndindex(belief.mean.shape[:-1]), kinds):
        mean, cov = belief.mean[i], belief.cov[i]
        ref_mean, ref_cov = _predict_ref(mean, cov, model)
        _assert_close(predicted.mean[i], ref_mean, "predicted mean")
        _assert_close(predicted.cov[i], ref_cov, "predicted covariance")
        ref_mean, ref_cov = _position_ref(mean, cov, d.debiased_pos[i], d.cov_pos[i])
        _assert_close(position.mean[i], ref_mean, "position-updated mean")
        _assert_close(position.cov[i], ref_cov, "position-updated covariance")
        ref = _pseudo_ref(
            position.mean[i], position.cov[i],
            d.l_row[i], d.pseudo[i], d.debiased_pseudo[i], d.var_pseudo[i],
        )
        assert (ref is None) == (kind == "conflict")
        if conflict:
            continue
        _assert_close(pseudo.mean[i], ref[0], "pseudo-updated mean")
        _assert_close(pseudo.cov[i], ref[1], "pseudo-updated covariance")
        if kind == "collapsed":  # a consistent collapsed measurement is a no-op
            np.testing.assert_array_equal(pseudo.mean[i], position.mean[i])
            np.testing.assert_array_equal(pseudo.cov[i], position.cov[i])


def test_filter_scans_calls_each_stage_once_per_scan(monkeypatch):
    sc = generate_case(1)
    rngs = [np.random.default_rng(i) for i in range(3)]
    meas = scenario._synthesize(scenario._simulate_truths(sc, rngs), sc.noise, rngs)
    methods = [v.method for v in FilterVariant]
    z, ok = _convert_batch(meas.swapaxes(0, 1)[:12], sc.noise, methods, sc.dim)
    init = initialize_belief(z[0], z[1], sc.model.t)
    steps = np.arange(2, 12)
    calls = {}
    # the stage kernels: the loop runs them on its workspace, the public
    # stages on a fresh one
    for name in ("_predict", "_update_position", "_update_pseudo"):
        real = getattr(filtering, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(filtering, name, counting)
    assert ok.all()
    scans = len(steps)
    filter_scans(init, z[2:], ok[2:], steps, sc.model)
    assert calls == {"_predict": scans, "_update_position": scans, "_update_pseudo": scans}
    # a scan where only some tracks update is still one call per stage, and a
    # scan where none does is predict-only
    ok[4, 0] = False
    ok[6] = False
    calls.clear()
    filter_scans(init, z[2:], ok[2:], steps, sc.model)
    assert calls == {
        "_predict": scans,
        "_update_position": scans - 1,
        "_update_pseudo": scans - 1,
    }


def _scan_batch(rng, p, shape, scans):
    """Random beliefs and conversions for ``filter_scans``, with item 0 collapsed.

    Item 0 starts with a zero covariance and velocity and gets noise-free
    conversions of its position, so under a noiseless model its every
    pseudo update is a consistent collapsed (no-op) update.
    """
    n = 2 * p
    size = int(np.prod(shape))
    mean = rng.standard_normal((size, n)) * 1e3
    cov = np.array([_random_cov(rng, n, 1e4) for _ in range(size)])
    joint = np.array([[_random_cov(rng, p + 1, 1e3) for _ in range(size)] for _ in range(scans)])
    position = mean[:, :p] + rng.standard_normal((scans, size, p)) * 30.0
    pseudo = rng.standard_normal((scans, size)) * 1e4
    mu = rng.standard_normal((scans, size, p + 1))
    mean[0, p:], cov[0] = 0.0, 0.0
    joint[:, 0], position[:, 0], pseudo[:, 0], mu[:, 0] = 0.0, mean[0, :p], 0.0, 0.0
    init = GaussianBelief(mean.reshape(shape + (n,)), cov.reshape(shape + (n, n)))
    z = ConvertedMeasurement(
        position=position.reshape((scans,) + shape + (p,)),
        pseudo=pseudo.reshape((scans,) + shape),
        mu=mu.reshape((scans,) + shape + (p + 1,)),
        cov=joint.reshape((scans,) + shape + (p + 1, p + 1)),
        dim=p,
    )
    return init, z


@pytest.mark.parametrize("accel_std", [0.0, 2.0])
@pytest.mark.parametrize("p", [2, 3])
def test_filter_scans_equals_the_public_stages_scan_by_scan(monkeypatch, p, accel_std):
    rng = np.random.default_rng(p)
    shape, scans = (3, 2), 8
    init, z = _scan_batch(rng, p, shape, scans)
    ok = np.ones((scans,) + shape, dtype=bool)
    ok[2, 1, 0] = False  # a partial-update scan
    ok[5] = False  # a predict-only scan
    model = DynamicModel(p, 0.7, accel_std)
    made = []

    class RecordingWorkspace(filtering._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(filtering, "_Workspace", RecordingWorkspace)
    post, updated = filter_scans(init, z, ok, range(scans), model)
    np.testing.assert_array_equal(updated, ok)

    d = decorrelate(z)
    belief = init
    for k in range(scans):
        belief = kf_predict(belief, model)
        sel = ok[k]
        if sel.any():
            dk = d[k][sel]
            upd = ekf_update_pseudo(kf_update_position(belief[sel], dk), dk)
            belief.mean[sel], belief.cov[sel] = upd.mean, upd.cov
        assert post.mean[k].tobytes() == belief.mean.tobytes(), f"mean of scan {k}"
        assert post.cov[k].tobytes() == belief.cov.tobytes(), f"covariance of scan {k}"
    if accel_std == 0.0:  # item 0 took only collapsed updates
        np.testing.assert_array_equal(post.cov[:, 0, 0], 0.0)

    buffers = [b for ws in made for b in vars(ws).values() if isinstance(b, np.ndarray)]
    returned = [a[k] for a in (post.mean, post.cov) for k in range(scans)]
    for i, a in enumerate(returned):
        assert not any(np.shares_memory(a, b) for b in buffers)
        assert not any(np.shares_memory(a, b) for b in returned[i + 1 :])


@pytest.mark.parametrize("accel_std", [0.0, 2.0])
@pytest.mark.parametrize("p", [2, 3])
def test_filter_scans_gives_a_track_the_same_bits_alone(p, accel_std):
    # every kernel adds its terms in order, so no operation rounds a lone
    # track (whose entry axis is contiguous) apart from the same track in a
    # batch, on a partial-update scan and a predict-only scan too
    rng = np.random.default_rng(10 + p)
    shape, scans = (3, 2), 8
    init, z = _scan_batch(rng, p, shape, scans)
    ok = np.ones((scans,) + shape, dtype=bool)
    ok[2, 1, 0] = False  # a partial-update scan
    ok[5] = False  # a predict-only scan
    model = DynamicModel(p, 0.7, accel_std)
    post, updated = filter_scans(init, z, ok, range(scans), model)
    for i in np.ndindex(shape):
        key = (slice(None),) + i
        alone, alone_updated = filter_scans(init[i], z[key], ok[key], range(scans), model)
        np.testing.assert_array_equal(alone_updated, updated[key])
        assert alone.mean.tobytes() == post.mean[key].tobytes(), f"mean of track {i}"
        assert alone.cov.tobytes() == post.cov[key].tobytes(), f"covariance of track {i}"


def _small_scan_batch(shape=(2, 2), scans=4):
    init, z = _scan_batch(np.random.default_rng(0), 2, shape, scans)
    return init, z, np.ones((scans,) + shape, dtype=bool), DynamicModel(2, 1.0, 1.0)


def test_filter_scans_rejects_fewer_steps_than_scans():
    init, z, ok, model = _small_scan_batch()
    with pytest.raises(ValueError, match="3 step numbers for 4 scans"):
        filter_scans(init, z, ok, range(3), model)


def test_filter_scans_rejects_more_steps_than_scans():
    init, z, ok, model = _small_scan_batch()
    with pytest.raises(ValueError, match="5 step numbers for 4 scans"):
        filter_scans(init, z, ok, range(5), model)


def test_filter_scans_rejects_an_initial_batch_of_another_shape():
    init, z, ok, model = _small_scan_batch()
    with pytest.raises(ValueError, match=r"batch shape \(1, 2\)"):
        filter_scans(init[:1], z, ok, range(4), model)


@pytest.mark.parametrize("key", [np.s_[:, :, :1], np.s_[:1]], ids=["tracks", "scans"])
def test_filter_scans_rejects_measurements_of_another_batch_shape(key):
    # a batch that broadcasts against the mask would update tracks with
    # another track's (or scan's) measurements
    init, z, ok, model = _small_scan_batch()
    with pytest.raises(ValueError, match=r"does not match the mask's \(4, 2, 2\)"):
        filter_scans(init, z[key], ok, range(4), model)
