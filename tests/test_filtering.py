"""Tests for decorrelation, the sequential KF/EKF stages and the filter loop."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcmkf.conversion as conversion
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
    SphericalMeasurement,
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


def position_only(position):
    """Conversions of the positions ``(..., p)`` with a zero position block and cross row.

    Each decorrelates to a zero ``R``, ``debiased_pos = position``, ``var_pseudo
    = 1`` and zero ``l_row``, ``pseudo`` and ``debiased_pseudo``.
    """
    position = np.asarray(position, dtype=float)
    batch, p = position.shape[:-1], position.shape[-1]
    cov = np.zeros(batch + (p + 1, p + 1))
    cov[..., p, p] = 1.0
    return ConvertedMeasurement(position, np.zeros(batch), np.zeros(batch + (p + 1,)), cov, p)


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


@pytest.mark.parametrize("dim", [0, 4])
def test_decorrelate_rejects_a_position_dimension_without_a_layout(dim):
    with pytest.raises(ValueError, match="^position dimension must be 1, 2 or 3$"):
        decorrelate(make_converted(np.eye(dim + 1)))


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
    l_row, var, _, debiased = _decorrelate_ref(z)
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
    z = position_only(np.tile(np.eye(p), (len(cov), 1)))
    gain_t = kf_update_position(prior, z).mean.reshape(len(cov), p, n)
    s, hp = cov[:, :p, :p], cov[:, :p]
    resid = np.abs(s @ gain_t - hp).max(axis=(1, 2))
    scale = np.abs(s).max(axis=(1, 2)) * np.abs(gain_t).max(axis=(1, 2)) + np.abs(hp).max(axis=(1, 2))
    assert np.all(resid <= 1e-14 * scale)


def _singular_blocks():
    """Zero and rank-one position blocks, each with a zero and a nonzero cross row."""
    blocks = [np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2))]
    cross = [np.zeros(2), np.array([0.5, 0.0]), np.zeros(2), np.array([1.0, 1.0])]
    cov = np.zeros((4, 3, 3))
    cov[:, :2, :2], cov[:, 2, :2], cov[:, :2, 2], cov[:, 2, 2] = blocks, cross, cross, 4.0
    return ConvertedMeasurement(np.ones((4, 2)), np.ones(4), np.zeros((4, 3)), cov, 2)


def test_decorrelate_singular_block_valid_only_without_cross_row():
    # the closed form's division by a zero pivot warns nothing
    z = _singular_blocks()
    rows = np.empty((filtering._layout(2).kernel, 4))
    ok = filtering._decorrelate(z, rows)
    np.testing.assert_array_equal(ok, [True, False, True, False])
    d = decorrelate(z[ok])
    np.testing.assert_array_equal(d.l_row, 0.0)
    np.testing.assert_array_equal(d.var_pseudo, 4.0)


def test_a_stage_and_the_engine_refuse_the_same_conversion():
    # a singular position block with a nonzero cross row does not decorrelate:
    # each stage raises on it, and the engine leaves that track predict-only
    # in that scan while the valid tracks update
    z, rng = _singular_blocks(), np.random.default_rng(17)
    covs = np.stack([random_spd(4, rng) for _ in range(4)])
    prior = GaussianBelief(rng.standard_normal((4, 4)), covs)
    model = DynamicModel(2, 1.0, 0.5)
    for stage in kf_update_position, ekf_update_pseudo:
        for i in [1, 3], [1], [3]:
            with pytest.raises(DegenerateCovarianceError, match="singular position error covariance"):
                stage(prior[i], z[i])
    post, updated = filter_scans(prior, z[None], np.ones((1, 4), bool), [2], model)
    np.testing.assert_array_equal(updated, [[True, False, True, False]])
    predicted = kf_predict(prior, model)
    for i in 1, 3:
        assert post.mean[0, i].tobytes() == predicted.mean[i].tobytes()
        assert post.cov[0, i].tobytes() == predicted.cov[i].tobytes()
    for i in 0, 2:
        upd = ekf_update_pseudo(kf_update_position(predicted[i], z[i]), z[i])
        assert post.mean[0, i].tobytes() == upd.mean.tobytes()
        assert post.cov[0, i].tobytes() == upd.cov.tobytes()
        assert not np.array_equal(upd.mean, predicted.mean[i])


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
    z = make_converted(np.diag([1e12, 1e12, 1.0]), position=[500.0, -500.0], pseudo=0.0)
    post = kf_update_position(prior, z)
    np.testing.assert_allclose(post.mean, prior.mean, atol=1e-6)
    np.testing.assert_allclose(post.cov, prior.cov, rtol=1e-6)


def test_kf_update_halving_gain():
    prior = GaussianBelief(np.array([2.0, 3.0, 1.0, 1.0]), np.eye(4))
    position = prior.mean[:2] + np.array([1.0, 0.0])
    z = make_converted(np.diag([1.0, 1.0, 1.0]), position=position, pseudo=0.0)
    post = kf_update_position(prior, z)
    np.testing.assert_allclose(post.mean, [2.5, 3.0, 1.0, 1.0], atol=1e-12)


def test_kf_update_bias_shift_invariance():
    rng = np.random.default_rng(2)
    prior = GaussianBelief(rng.standard_normal(4), random_spd(4, rng))
    cov = random_spd(3, rng)
    shift = np.array([10.0, -20.0])
    a = make_converted(cov, mu=[1.0, 2.0, 0.0], position=[5.0, 6.0])
    b = make_converted(cov, mu=[1.0 + shift[0], 2.0 + shift[1], 0.0], position=[5.0 + shift[0], 6.0 + shift[1]])
    pa = kf_update_position(prior, a)
    pb = kf_update_position(prior, b)
    np.testing.assert_allclose(pa.mean, pb.mean, atol=1e-10)
    np.testing.assert_allclose(pa.cov, pb.cov, atol=1e-10)


def test_kf_update_loewner_decrease():
    rng = np.random.default_rng(5)
    for _ in range(20):
        prior = GaussianBelief(rng.standard_normal(4), random_spd(4, rng, scale=10.0))
        z = make_converted(random_spd(3, rng), position=rng.standard_normal(2))
        post = kf_update_position(prior, z)
        diff = prior.cov - post.cov
        assert np.linalg.eigvalsh(diff).min() >= -1e-9 * np.trace(prior.cov)
        np.testing.assert_allclose(post.cov, post.cov.T, atol=1e-12)


def _converted_batch(batch):
    """Identity-covariance conversions, one per item of ``batch``."""
    return ConvertedMeasurement(
        position=np.ones(batch + (2,)),
        pseudo=np.zeros(batch),
        mu=np.zeros(batch + (3,)),
        cov=np.broadcast_to(np.eye(3), batch + (3, 3)),
        dim=2,
    )


@pytest.mark.parametrize("stage", [kf_update_position, ekf_update_pseudo])
@pytest.mark.parametrize(
    "beliefs, measurements, message",
    [((3,), (), r"batch \(\) does not match the belief's \(3,\)"),
     ((3, 2), (2, 3), r"batch \(2, 3\) does not match the belief's \(3, 2\)")],
    ids=["one-for-three", "transposed"],
)
def test_update_stages_reject_measurements_of_another_batch(stage, beliefs, measurements, message):
    # broadcasting one measurement, or pairing by flat index, would update a
    # belief with another belief's measurement
    prior = GaussianBelief(np.zeros(beliefs + (4,)), np.broadcast_to(np.eye(4), beliefs + (4, 4)))
    with pytest.raises(ValueError, match=message):
        stage(prior, _converted_batch(measurements))
    post = stage(prior, _converted_batch(beliefs))
    assert post.mean.shape == beliefs + (4,)


@pytest.mark.parametrize("stage", [kf_update_position, ekf_update_pseudo])
@pytest.mark.parametrize("n", [5, 6])
def test_update_stages_reject_a_state_of_another_size(stage, n):
    # a 3D or an odd state against a 2D measurement
    prior = GaussianBelief(np.zeros(n), np.eye(n))
    with pytest.raises(ValueError, match=f"state of size {n} is not .* of dimension 2"):
        stage(prior, _converted_batch(()))


def test_kf_predict_rejects_a_belief_of_another_size():
    with pytest.raises(ValueError, match="state of size 6 is not .* of dimension 2"):
        kf_predict(GaussianBelief(np.zeros(6), np.eye(6)), DynamicModel(2))


@pytest.mark.parametrize(
    "cov, message",
    [(np.eye(3), "state of size 3 is not .* of dimension 1"),
     (np.zeros((3, 4)), r"covariance of shape \(3, 4\) is not 4 x 4")],
    ids=["odd", "not-square"],
)
def test_quadratic_correction_rejects_a_covariance_of_another_size(cov, message):
    with pytest.raises(ValueError, match=message):
        quadratic_correction(cov)


def _zero_track_outputs(entry, batch):
    """Each array ``entry`` returns for a ``batch`` without tracks, with its expected shape."""
    prior = GaussianBelief(np.zeros(batch + (4,)), np.zeros(batch + (4, 4)))
    if entry is decorrelate:
        d = decorrelate(_converted_batch(batch))
        return [(d.cov_pos, batch + (2, 2)), (d.pseudo, batch), (d.var_pseudo, batch),
                (d.l_row, batch + (2,)), (d.debiased_pos, batch + (2,)), (d.debiased_pseudo, batch)]
    if entry is quadratic_correction:
        return [(a, batch) for a in quadratic_correction(prior.cov)]
    if entry is filter_scans:  # two scans
        scans = (2,) + batch
        z = ConvertedMeasurement(np.ones(scans + (2,)), np.zeros(scans), np.zeros(scans + (3,)),
                                 np.broadcast_to(np.eye(3), scans + (3, 3)), 2)
        post, ok = filter_scans(prior, z, np.ones(scans, bool), [1, 2], DynamicModel(2))
        return [(post.mean, scans + (4,)), (post.cov, scans + (4, 4)), (ok, scans)]
    if entry is kf_predict:
        post = kf_predict(prior, DynamicModel(2))
    else:  # an update stage
        post = entry(prior, _converted_batch(batch))
    return [(post.mean, batch + (4,)), (post.cov, batch + (4, 4))]


@pytest.mark.parametrize("batch", [(0,), (3, 0)], ids=["0", "3x0"])
@pytest.mark.parametrize(
    "entry",
    [kf_predict, decorrelate, kf_update_position, quadratic_correction, ekf_update_pseudo, filter_scans],
)
def test_every_stage_returns_empty_outputs_for_no_tracks(entry, batch):
    # the pseudo update's variance check once raised numpy's "zero-size array"
    for got, shape in _zero_track_outputs(entry, batch):
        assert np.shape(got) == shape


def test_pseudo_jacobian_rejects_a_state_of_another_size():
    with pytest.raises(ValueError, match="state of size 5 is not .* of dimension 2"):
        pseudo_jacobian(np.arange(5.0), np.ones(2))


def test_position_gain_check_passes_finite_gains_whose_sum_overflows():
    # each track's gain rows hold 6e307 (finite, as is one track's sum), and
    # the sum over both tracks overflows: the scan goes item by item, which
    # changes nothing, and each track keeps the bits it has alone
    cov = np.eye(4)
    cov[:2, 2:] = cov[2:, :2] = 6e307 * np.eye(2)
    prior = GaussianBelief(np.zeros((2, 4)), np.stack([cov, cov]))
    z = position_only(np.ones((2, 2)))
    post = kf_update_position(prior, z)
    np.testing.assert_array_equal(post.mean[:, 2:], 6e307)
    for i in range(2):
        alone = kf_update_position(prior[i], z[i])
        assert alone.mean.tobytes() == post.mean[i].tobytes()
        np.testing.assert_array_equal(alone.cov, post.cov[i])


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
    z = make_converted(np.zeros((3, 3)), position=np.zeros(2), pseudo=5.0)
    with pytest.raises(DegenerateCovarianceError):
        ekf_update_pseudo(b, z)
    # ...while a consistent deterministic measurement is a no-op
    z0 = make_converted(np.zeros((3, 3)), position=np.zeros(2), pseudo=0.0)
    out = ekf_update_pseudo(b, z0)
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


def test_run_filter_rejects_a_stream_of_mixed_dimensionality():
    # converted as one batch, a 3D report would otherwise lose its elevation
    stream = [SphericalMeasurement(1e4, 0.5, 10.0, step=2, dim=2)]
    stream.append(SphericalMeasurement(1e4, 0.5, 10.0, phi=0.3, step=3, dim=3))
    belief = GaussianBelief(np.array([8775.0, 4794.0, 0.0, 0.0]), np.eye(4) * 1e4)
    with pytest.raises(ValueError, match="one dimensionality"):
        run_filter(FilterVariant.RCMKF_U, stream, NoiseSpec(100.0, 0.01, 2.0), DynamicModel(2), belief)


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

    target = next(m.r for m in meas if m.step == 5)  # its range singles out the scan
    real = conversion._moments

    def forced(methods, rm, theta, phi, rdot, noise, dim):
        conv, mu, cov = real(methods, rm, theta, phi, rdot, noise, dim)
        # indefinite beyond any tolerance; the kernel's arrays are entries first
        cov[:, :, np.asarray(rm) == target] = -np.eye(dim + 1)[..., None, None]
        return conv, mu, cov

    monkeypatch.setattr(conversion, "_moments", forced)
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


def test_initialize_belief_rejects_measurements_of_different_dimensions():
    with pytest.raises(ValueError, match="measurements must share dimensionality"):
        initialize_belief(make_converted(np.eye(3)), make_converted(np.eye(4)), 1.0)


def test_gaussian_belief_rejects_a_covariance_of_another_size():
    for mean, cov in (np.zeros(4), np.eye(3)), (1.0, np.eye(1)):  # a 0-d mean has no length
        with pytest.raises(ValueError, match="covariance shape does not match the state length"):
            GaussianBelief(mean, cov)


def test_initialize_belief_rejects_fields_of_different_batches():
    # the conversion that decorrelate rejects: mu and cov of one item beside
    # three positions and pseudos
    z = ConvertedMeasurement(
        position=np.zeros((3, 2)),
        pseudo=np.zeros(3),
        mu=np.zeros((1, 3)),
        cov=np.eye(3)[None],
        dim=2,
    )
    with pytest.raises(ValueError, match=r"measurement mu batch \(1,\) does not match"):
        initialize_belief(z, z, 1.0)
    z = dataclasses.replace(z, mu=np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"measurement cov batch \(1,\) does not match"):
        initialize_belief(z, z, 1.0)


def test_initialize_belief_rejects_measurements_of_different_batches():
    z1 = make_converted(np.eye(3)[None], mu=np.zeros((1, 3)), position=np.zeros((1, 2)),
                        pseudo=np.zeros(1), dim=2)
    z2 = make_converted(np.broadcast_to(np.eye(3), (3, 3, 3)), mu=np.zeros((3, 3)),
                        position=np.ones((3, 2)), pseudo=np.zeros(3), dim=2)
    message = r"batch \(3,\) does not match the first measurement's \(1,\)"
    with pytest.raises(ValueError, match=message):
        initialize_belief(z1, z2, 1.0)
    assert initialize_belief(z2, z2, 1.0).mean.shape == (3, 4)


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


def _decorrelate_ref(z):
    """``decorrelate`` by a solve: ``(l_row, var_pseudo, pseudo, debiased_pseudo)``."""
    p, cov = z.dim, z.cov
    l_row = -np.linalg.solve(cov[..., :p, :p], cov[..., p, :p, None])[..., 0]
    var = cov[..., p, p] + np.einsum("...i,...i->...", l_row, cov[..., p, :p])
    pseudo = np.einsum("...i,...i->...", l_row, z.position) + z.pseudo
    debiased = pseudo - (np.einsum("...i,...i->...", l_row, z.mu[..., :p]) + z.mu[..., p])
    return l_row, var, pseudo, debiased


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
    return belief, z, kinds


def _assert_close(got, ref, what):
    # every item to 1e-11 of its own largest reference entry; the stages stay
    # within about 6e-15 at the condition numbers drawn here (up to 1e3)
    tol = 1e-11 * max(np.abs(ref).max(), 1e-300)
    assert np.abs(got - ref).max() <= tol, what


@settings(max_examples=300, deadline=None)
@given(_stage_batches(), st.floats(0.1, 2.0), st.floats(0.0, 3.0))
def test_filter_stages_match_dense_references(batch, t, accel_std):
    belief, z, kinds = batch
    p, d = z.dim, decorrelate(z)
    model = DynamicModel(p, t, accel_std)
    predicted = kf_predict(belief, model)
    position = kf_update_position(belief, z)
    conflict = "conflict" in kinds
    if conflict:
        with pytest.raises(DegenerateCovarianceError):
            ekf_update_pseudo(position, z)
    else:
        pseudo = ekf_update_pseudo(position, z)
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

    # the stage kernels, bound to the loop's workspace
    class CountingWorkspace(filtering._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            for name in ("predict", "update_position", "update_pseudo"):

                def counting(*args, _real=getattr(self, name), _name=f"_{name}"):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _real(*args)

                setattr(self, name, counting)

    monkeypatch.setattr(filtering, "_Workspace", CountingWorkspace)
    assert ok.all()
    scans = len(steps)
    filter_scans(init, z[2:], ok[2:], steps, sc.model)
    assert calls == {"_predict": scans, "_update_position": scans, "_update_pseudo": scans}
    # a scan where only some tracks update, and one where none does, is still
    # one call per stage
    ok[4, 0] = False
    ok[6] = False
    calls.clear()
    filter_scans(init, z[2:], ok[2:], steps, sc.model)
    assert calls == {"_predict": scans, "_update_position": scans, "_update_pseudo": scans}


def _bound_calls(kernel):
    """The ``(f, args)`` calls of the lists a stage kernel closes over."""
    lists = [c.cell_contents for c in kernel.__closure__ if isinstance(c.cell_contents, list)]
    return [
        call for calls in lists if calls and all(
            isinstance(c, tuple) and len(c) == 2 and callable(c[0]) for c in calls
        ) for call in calls
    ]


def _off_the_fast_path(f, args) -> str | None:
    """Why the call ``f(*args)`` leaves numpy's equal-shape fast path, or None.

    A ufunc's and ``copyto``'s array operands must carry their output's
    shape (or be 0-d) and be C-contiguous; a ``take`` must read and write
    contiguous buffers.
    """
    if getattr(f, "__name__", None) == "take":
        arrays, out = [f.__self__, args[2]], None
    else:
        out, ins = (args[f.nin], args[: f.nin]) if isinstance(f, np.ufunc) else (args[0], args[1:])
        arrays = [out, *(a for a in ins if isinstance(a, np.ndarray))]  # copyto(dst, src)
    for a in arrays:
        if not a.flags.c_contiguous:
            return f"{f.__name__}: an operand of strides {a.strides} is not contiguous"
        if out is not None and a.ndim and a.shape != out.shape:
            return f"{f.__name__}: an operand of shape {a.shape} broadcasts to {out.shape}"
    return None


# The scan's call budget: the bound calls of predict, the position update and
# the pseudo update, per position dimension. A scan also makes 6 calls on its
# arguments and two checks (the module docstring lists them).
_BOUND_CALLS = {1: (7, 20, 30), 2: (7, 27, 37), 3: (7, 45, 47)}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_every_bound_kernel_call_takes_equal_shape_contiguous_operands(p):
    # a call that broadcasts a per-track row over a gain's rows, or reads a
    # strided view, costs about twice an equal-shape call of the same size
    ws = filtering._Workspace(5, 2 * p)
    stages = [_bound_calls(k) for k in (ws.predict, ws.update_position, ws.update_pseudo)]
    assert tuple(len(calls) for calls in stages) == _BOUND_CALLS[p]
    calls = [c for stage in stages for c in stage]
    assert {f for f, _ in calls} >= {np.add, np.subtract, np.multiply, np.divide, np.log}
    assert [why for why in (_off_the_fast_path(*c) for c in calls) if why] == []


_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.5, -2.0**-1022,
                     np.nextafter(2.0**1023, 0.0), -np.nextafter(2.0**1023, 0.0)])


def test_padding_identities_keep_every_bit():
    # the state column rides through calls on the covariance with these pads
    x = np.concatenate([_SPECIAL, np.random.default_rng(0).standard_normal(50) * 1e3])
    for got in (x + np.full_like(x, -0.0), x - np.zeros_like(x), x * np.ones_like(x),
                (x + x) * np.array(0.5)):
        assert got.tobytes() == x.tobytes()
    # (x + x) / 2 needs |x| < 2**1023, and adding +0.0 turns -0.0 into +0.0
    big = np.array([2.0**1023, -(2.0**1023)])
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal((big + big) * 0.5, [np.inf, -np.inf])
    assert (np.array([-0.0]) + 0.0).tobytes() == np.array([0.0]).tobytes()


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

    belief = init
    for k in range(scans):
        belief = kf_predict(belief, model)
        sel = ok[k]
        if sel.any():
            zk = z[k][sel]
            upd = ekf_update_pseudo(kf_update_position(belief[sel], zk), zk)
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


@pytest.mark.parametrize("p", [2, 3])
def test_workspace_pads_keep_their_identities(monkeypatch, p):
    # the tables read these constant rows as the state column's operands
    init, z = _scan_batch(np.random.default_rng(p), p, (3, 2), 4)
    made = []

    class RecordingWorkspace(filtering._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(filtering, "_Workspace", RecordingWorkspace)
    filter_scans(init, z, np.ones((4, 3, 2), dtype=bool), range(4), DynamicModel(p, 0.7, 2.0))
    (ws,) = made
    pads = {"a_pad": [-0.0], "x1": [-0.0, 1.0], "gather": [0.0], "h_cols": [0.0], "ag": [0.0],
            "mv": [0.0]}
    for name, values in pads.items():
        rows = getattr(ws, name)[-len(values) :]
        assert rows.tobytes() == np.repeat(values, ws.tracks).tobytes(), name
    assert ws.u[ws.lay.u_one].tobytes() == np.ones(ws.tracks).tobytes()


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


def test_filter_scans_rejects_a_model_of_another_size():
    init, z, ok, _ = _small_scan_batch()
    with pytest.raises(ValueError, match="step 0: a state of size 4 is not .* of dimension 3"):
        filter_scans(init, z, ok, range(4), DynamicModel(3))


def test_filter_scans_names_the_step_of_a_failing_update():
    # a NaN start in one track makes the first scan's innovation covariance
    # NaN, which no fallback can solve
    init, z, ok, model = _small_scan_batch()
    mean, cov = init.mean.copy(), init.cov.copy()
    mean[1, 0], cov[1, 0] = np.nan, np.nan
    with pytest.raises(
        DegenerateCovarianceError, match="^step 7: position innovation covariance is singular$"
    ):
        filter_scans(GaussianBelief(mean, cov), z, ok, range(7, 11), model)
