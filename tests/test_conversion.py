"""Tests for the conversion statistics against oracles and frozen values."""

import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmkf import conversion
from rcmkf.conversion import (
    ConversionMethod,
    _convert_batch,
    _finalize,
    convert,
    mc_moment_oracle,
    nested_stats,
    nested_stats_numeric,
    truth_conditioned_stats,
    unbiased_stats,
)
from rcmkf.errors import DegenerateCovarianceError
from rcmkf.evaluation import consistency_sweep
from rcmkf.scenario import NoiseSpec, SphericalMeasurement, _noise_matrix, _scale_noise

CASE_NOISE = NoiseSpec(sigma_r=200.0, sigma_theta=math.radians(2.5), sigma_rdot=1.0, rho=0.3)
NO_NOISE = NoiseSpec(0.0, 0.0, 0.0)


def sph(r, theta_deg, rdot, phi_deg=None):
    if phi_deg is None:
        return SphericalMeasurement(r=r, theta=math.radians(theta_deg), rdot=rdot, dim=2)
    return SphericalMeasurement(
        r=r, theta=math.radians(theta_deg), phi=math.radians(phi_deg), rdot=rdot, dim=3
    )


def test_convert_position_on_axis():
    pos = convert(sph(100.0, 0.0, 0.0, 0.0), NO_NOISE).position
    np.testing.assert_allclose(pos, [100.0, 0.0, 0.0], atol=1e-12)


def test_convert_position_45deg():
    pos = convert(sph(10000.0, 45.0, 0.0, 0.0), NO_NOISE).position
    np.testing.assert_allclose(pos[:2], [7071.0678, 7071.0678], atol=1e-3)
    assert pos[2] == pytest.approx(0.0, abs=1e-9)


def test_convert_position_pole():
    pos = convert(sph(5000.0, 30.0, 0.0, 90.0), NO_NOISE).position
    np.testing.assert_allclose(pos, [0.0, 0.0, 5000.0], atol=1e-8)


def test_convert_pseudo():
    assert convert(sph(10000.0, 0.0, 100.0), NO_NOISE).pseudo == pytest.approx(1e6)
    assert convert(sph(10000.0, 12.0, 0.0), NO_NOISE).pseudo == 0.0
    assert convert(sph(113137.08, 45.0, 282.84), NO_NOISE).pseudo == pytest.approx(
        3.1999e7, rel=1e-3
    )
    # a 2D conversion has no z row
    assert convert(sph(10000.0, 12.0, 5.0), CASE_NOISE).position.shape == (2,)


def attenuation(noise: NoiseSpec, r: float = 1e4):
    """The bearing attenuations ``(E[cos d], E[cos 2d])`` that ``unbiased_stats`` applies.

    At bearing 0 the 2D measurement-conditioned moments read them off
    directly: ``mu_x = r (1 - E[cos d])`` and ``R_yy = E[r^2] (1 - E[cos 2d]) / 2``.
    """
    mu, cov = unbiased_stats(sph(r, 0.0, 0.0), noise)
    return 1.0 - mu[0] / r, 1.0 - 2.0 * cov[1, 1] / (r**2 + noise.sigma_r**2)


def test_lambda_factors_closed_form():
    lam0, lam0_2 = attenuation(NoiseSpec(1.0, 0.0, 1.0))
    assert lam0 == 1.0
    assert lam0_2 == pytest.approx(1.0, abs=1e-12)

    lam, lam2 = attenuation(CASE_NOISE)
    assert lam == pytest.approx(0.9990482, abs=1e-6)
    assert lam2 == pytest.approx(lam**4, rel=1e-12)

    # monotone decreasing in sigma
    vals = [attenuation(NoiseSpec(1.0, s, 1.0))[0] for s in (0.0, 0.1, 0.3, 0.6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lambda_matches_sampled_expectation():
    sig = math.radians(2.5)
    draws = np.random.default_rng(5).standard_normal(10_000_000) * sig
    lam, _ = attenuation(NoiseSpec(1.0, sig, 1.0))
    assert np.cos(draws).mean() == pytest.approx(lam, abs=3 * sig**2 / math.sqrt(1e7))


def test_unbiased_stats_noiseless():
    mu, cov = unbiased_stats(sph(10000.0, 45.0, 100.0), NoiseSpec(0.0, 0.0, 0.0))
    np.testing.assert_array_equal(mu, 0.0)
    np.testing.assert_array_equal(cov, 0.0)


def test_unbiased_stats_pseudo_bias_value():
    # bias of the pseudo error is -rho*sigma_r*sigma_rdot under measurement conditioning
    mu, _ = unbiased_stats(sph(113137.0, 45.0, 282.8), CASE_NOISE)
    assert mu[-1] == pytest.approx(-60.0)


@pytest.mark.slow
def test_unbiased_stats_match_oracle_2d_point():
    # operating point with no correlation; errors compared entrywise to the
    # brute-force moments, near-zero entries on an absolute scale
    noise = NoiseSpec(sigma_r=100.0, sigma_theta=math.radians(10.0), sigma_rdot=5.0, rho=0.0)
    m = sph(10000.0, 45.0, 100.0)
    mu, cov = unbiased_stats(m, noise)
    est = mc_moment_oracle(m, noise, 10_000_000, np.random.default_rng(99))
    np.testing.assert_array_less(
        np.abs(mu - est.mean), 0.02 * np.abs(est.mean) + 3 * est.se_mean
    )
    np.testing.assert_array_less(
        np.abs(cov - est.cov), 0.02 * np.abs(est.cov) + 0.02 * np.abs(est.cov).max() + 1e-12
    )


def test_stats_symmetric_psd_grid():
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = SphericalMeasurement(
            r=float(rng.uniform(500, 2e5)),
            theta=float(rng.uniform(-math.pi, math.pi)),
            phi=float(rng.uniform(-1.2, 1.2)),
            rdot=float(rng.uniform(-300, 300)),
            dim=3,
        )
        noise = NoiseSpec(
            sigma_r=float(rng.uniform(0, 300)),
            sigma_theta=float(rng.uniform(0, 0.5)),
            sigma_phi=float(rng.uniform(0, 0.5)),
            sigma_rdot=float(rng.uniform(0, 10)),
            rho=float(rng.uniform(-0.95, 0.95)),
        )
        for stats in (unbiased_stats, nested_stats):
            _, cov = stats(m, noise)
            np.testing.assert_allclose(cov, cov.T, atol=1e-9 * max(1.0, np.abs(cov).max()))
            assert np.linalg.eigvalsh(cov).min() >= -1e-9 * np.trace(cov)


def test_3d_formulas_collapse_to_2d():
    noise2 = NoiseSpec(sigma_r=150.0, sigma_theta=0.2, sigma_rdot=4.0, rho=0.5, sigma_phi=0.0)
    m2 = SphericalMeasurement(r=30000.0, theta=1.1, rdot=-120.0, dim=2)
    m3 = SphericalMeasurement(r=30000.0, theta=1.1, phi=0.0, rdot=-120.0, dim=3)
    for stats in (unbiased_stats, nested_stats):
        mu2, cov2 = stats(m2, noise2)
        mu3, cov3 = stats(m3, noise2)
        scale = np.abs(cov3).max()
        assert abs(mu3[2]) <= 1e-12 * max(1.0, np.abs(mu3).max())
        np.testing.assert_allclose(cov3[2, :], 0.0, atol=1e-12 * scale)
        idx = np.array([0, 1, 3])
        np.testing.assert_allclose(mu2, mu3[idx], rtol=0, atol=1e-12 * max(1.0, np.abs(mu3).max()))
        np.testing.assert_allclose(cov2, cov3[np.ix_(idx, idx)], rtol=0, atol=1e-12 * scale)


@st.composite
def _moment_inputs(draw):
    """A small batch of (r, theta, phi, rdot) items and a noise level."""
    size = draw(st.integers(1, 6))

    def column(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    items = column(1.0, 2e5), column(-math.pi, math.pi), column(-1.5, 1.5), column(-500.0, 500.0)
    noise = NoiseSpec(
        sigma_r=draw(st.floats(0.0, 300.0)),
        sigma_theta=draw(st.floats(0.0, 0.5)),
        sigma_rdot=draw(st.floats(0.0, 10.0)),
        rho=draw(st.floats(-1.0, 1.0)),
        sigma_phi=draw(st.floats(0.0, 0.5)),
    )
    return items, noise


@settings(max_examples=200, deadline=None)
@given(_moment_inputs(), st.sampled_from([2, 3]))
def test_two_method_pass_equals_one_method_passes(inputs, dim):
    # sharing the trigonometry and the conditioned moment changes no bit
    items, noise = inputs
    if dim == 2:
        noise = dataclasses.replace(noise, sigma_phi=0.0)
    methods = list(ConversionMethod)
    ok, conv, mu, cov = conversion._stats_batch(methods, *items, noise, dim)
    for k, method in enumerate(methods):
        ok_k, conv_k, mu_k, cov_k = conversion._stats_batch([method], *items, noise, dim)
        np.testing.assert_array_equal(conv, conv_k)
        # the methods axis is last: after the items, in ok and the entries-first mu and cov
        for got, expected in ((ok, ok_k), (mu, mu_k), (cov, cov_k)):
            np.testing.assert_array_equal(got[..., k], expected[..., 0])


@settings(max_examples=200, deadline=None)
@given(_moment_inputs())
def test_2d_pass_equals_3d_kernel_at_zero_elevation(inputs):
    # the native (x, y, eta) statistics are the 3D ones at phi = 0 without the
    # z row/column, bit for bit
    (r, theta, _, rdot), noise = inputs
    noise = dataclasses.replace(noise, sigma_phi=0.0)
    methods = list(ConversionMethod)
    idx = conversion._IDX_2D
    conv2, mu2, cov2 = conversion._moments(methods, r, theta, 0.0, rdot, noise, 2)
    conv3, mu3, cov3 = conversion._moments(methods, r, theta, np.zeros_like(r), rdot, noise, 3)
    np.testing.assert_array_equal(conv2, conv3[idx])
    np.testing.assert_array_equal(mu2, mu3[idx])
    np.testing.assert_array_equal(cov2, cov3[idx[:, None], idx])


def test_2d_conversion_rejects_elevation_noise():
    # 2D synthesis draws no elevation noise, so statistics attenuated by one
    # would describe errors that never occur
    noise = dataclasses.replace(CASE_NOISE, sigma_phi=math.radians(1.0))
    m = sph(10000.0, 45.0, 100.0)
    message = "a 2D radar measures no elevation: sigma_phi must be 0"
    for stats in (unbiased_stats, nested_stats):
        with pytest.raises(ValueError, match=message):
            stats(m, noise)
    for method in ConversionMethod:
        with pytest.raises(ValueError, match=message):
            convert(m, noise, method)
    # the oracle would draw and apply that noise; it rejects it too
    with pytest.raises(ValueError, match=message):
        mc_moment_oracle(m, noise, 10_000, np.random.default_rng(0))
    # a 3D radar measures elevation and keeps its noise
    for stats in (unbiased_stats, nested_stats):
        assert stats(sph(10000.0, 45.0, 100.0, phi_deg=0.0), noise)[1].shape == (4, 4)


def test_nested_stats_noiseless():
    mu, cov = nested_stats(sph(10000.0, 45.0, 100.0), NoiseSpec(0.0, 0.0, 0.0))
    np.testing.assert_array_equal(mu, 0.0)
    np.testing.assert_array_equal(cov, 0.0)


def test_nested_small_noise_agrees_with_conditioned():
    # both constructions collapse as noise -> 0; compared at 1% of the
    # per-component error standard deviation (the natural scale of mu)
    noise = NoiseSpec(sigma_r=100.0, sigma_theta=math.radians(0.1), sigma_rdot=5.0, rho=0.3)
    m = sph(10000.0, 45.0, 100.0)
    mu_c, cov_c = unbiased_stats(m, noise)
    mu_a, _ = nested_stats(m, noise)
    scale = np.sqrt(np.diag(cov_c))
    np.testing.assert_array_less(np.abs(mu_a - mu_c), 0.01 * scale)


def test_nested_closed_form_matches_numeric_reference():
    noise = NoiseSpec(
        sigma_r=100.0,
        sigma_theta=math.radians(20.0),
        sigma_phi=math.radians(15.0),
        sigma_rdot=5.0,
        rho=0.6,
    )
    m = sph(10000.0, 30.0, 100.0, phi_deg=20.0)
    mu_c, cov_c = nested_stats(m, noise)
    mu_n, cov_n = nested_stats_numeric(m, noise, samples=1_000_000, rng=np.random.default_rng(17))
    np.testing.assert_allclose(mu_c, mu_n, rtol=0.005, atol=0.005 * np.abs(mu_n).max())
    np.testing.assert_allclose(cov_c, cov_n, rtol=0.005, atol=0.005 * np.abs(cov_n).max())


def test_nested_numeric_needs_enough_draws():
    with pytest.raises(ValueError):
        nested_stats_numeric(sph(1000.0, 0.0, 10.0), CASE_NOISE, samples=1000)


def test_truth_conditioned_stats_against_fixed_truth_sampling():
    noise = NoiseSpec(
        sigma_r=100.0,
        sigma_theta=math.radians(25.0),
        sigma_phi=math.radians(20.0),
        sigma_rdot=5.0,
        rho=0.7,
    )
    truth = sph(8000.0, 40.0, 80.0, phi_deg=15.0)
    mu_t, cov_t = truth_conditioned_stats(truth, noise)

    n = 2_000_000
    draws = _noise_matrix(noise, n, np.random.default_rng(21))
    from rcmkf.conversion import _cart

    errs = _cart(
        truth.r + draws[0], truth.theta + draws[1], truth.phi + draws[2], truth.rdot + draws[3]
    ) - _cart(truth.r, truth.theta, truth.phi, truth.rdot)[:, None]
    emp_mu = errs.mean(axis=1)
    emp_cov = np.cov(errs)
    se_mu = np.sqrt(np.diag(emp_cov) / n)
    np.testing.assert_array_less(np.abs(mu_t - emp_mu), 4 * se_mu)
    centered = errs - emp_mu[:, None]
    se_cov = np.sqrt(
        np.einsum("in,jn->ij", centered**2, centered**2) / n - (emp_cov * (n - 1) / n) ** 2
    ) / math.sqrt(n)
    np.testing.assert_array_less(np.abs(cov_t - emp_cov), 4 * se_cov + 1e-12)


def test_oracle_zero_noise_exact():
    for m in (sph(5000.0, 20.0, 50.0), sph(5000.0, 20.0, 50.0, phi_deg=30.0)):
        est = mc_moment_oracle(m, NoiseSpec(0.0, 0.0, 0.0), 20_000, np.random.default_rng(0))
        for got in (est.mean, est.cov, est.se_mean, est.se_cov):
            np.testing.assert_array_equal(got, 0.0)
        assert est.samples == 20_000


def _dense_oracle(m, noise, samples, rng, batch):
    """The oracle's algorithm written out on full arrays, as a reference.

    Per batch: draw ``(4, k)`` standard normals, scale them into
    (r, theta, phi, rdot) errors (range-rate through the Cholesky factor of
    the range/range-rate correlation), reconstruct the truths and take
    ``converted - cartesian(truth)``. The center is the mean of the first
    batch's errors; the sums run over whole batches.
    """
    r, theta, rdot = m.r, m.theta, m.rdot
    phi = m.phi if m.dim == 3 else 0.0
    converted = np.array(
        [r * np.cos(phi) * np.cos(theta), r * np.cos(phi) * np.sin(theta), r * np.sin(phi), r * rdot]
    )

    def errors(k):
        z = rng.standard_normal((4, k))
        rt = r - noise.sigma_r * z[0]
        tt = theta - noise.sigma_theta * z[1]
        pt = phi - noise.sigma_phi * z[2]
        dt = rdot - noise.sigma_rdot * (noise.rho * z[0] + math.sqrt(1.0 - noise.rho**2) * z[3])
        truth = np.array([rt * np.cos(pt) * np.cos(tt), rt * np.cos(pt) * np.sin(tt), rt * np.sin(pt), rt * dt])
        return converted[:, None] - truth

    blocks = [errors(min(batch, samples))]
    done = blocks[0].shape[1]
    while done < samples:
        blocks.append(errors(min(batch, samples - done)))
        done += blocks[-1].shape[1]
    center = blocks[0].mean(axis=1)
    centered = np.concatenate(blocks, axis=1) - center[:, None]
    n = centered.shape[1]
    mean_c = centered.sum(axis=1) / n
    sum_cc = centered @ centered.T
    cov = (sum_cc / n - np.outer(mean_c, mean_c)) * (n / (n - 1))
    var_prod = (centered**2) @ (centered**2).T / n - (sum_cc / n) ** 2
    se_cov = np.sqrt(np.maximum(var_prod, 0.0) / n)
    se_mean = np.sqrt(np.maximum(np.diag(cov), 0.0) / n)
    idx = [0, 1, 3] if m.dim == 2 else [0, 1, 2, 3]
    return center[idx] + mean_c[idx], cov[np.ix_(idx, idx)], se_mean[idx], se_cov[np.ix_(idx, idx)]


@pytest.mark.parametrize("samples, batch", [(25_001, 10_000), (150_000, 100_000), (20_000, 1_000_000)])
@pytest.mark.parametrize("rho", [0.0, 0.9])
@pytest.mark.parametrize("phi_deg", [None, 25.0])
def test_oracle_matches_dense_reference(samples, batch, rho, phi_deg):
    # same draws, same center, any batching: mean, cov and both standard
    # errors agree with full-array sums to rounding
    # a 2D radar (phi_deg None) measures no elevation, so draws no elevation noise
    sigma_phi = 0.0 if phi_deg is None else math.radians(8.0)
    noise = NoiseSpec(150.0, math.radians(12.0), 4.0, rho=rho, sigma_phi=sigma_phi)
    m = sph(20000.0, 60.0, -150.0, phi_deg=phi_deg)
    est = mc_moment_oracle(m, noise, samples, np.random.default_rng(31), batch=batch)
    ref = _dense_oracle(m, noise, samples, np.random.default_rng(31), batch)
    assert est.samples == samples
    for got, want in zip((est.mean, est.cov, est.se_mean, est.se_cov), ref):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


# Frozen oracle outputs at 200,003 draws (seed 7, the default batch): mean,
# cov, se_mean and se_cov at 17 significant digits, as the pipeline that
# split each block into tiles computed them.
FROZEN_ORACLE = {
    "2d": (
        [215.03149439685623, 375.35548231202318, -392.96490374938764],
        [
            [12661166.908772716, -7083727.8008511495, 1554177.2499568914],
            [-7083727.8008511495, 4478289.3637497108, 3504962.794706265],
            [1554177.2499568914, 3504962.794706265, 4742420293.0974998],
        ],
        [7.9564367005958783, 4.7319246562138195, 153.9861870081231],
        [
            [40166.012571697938, 21878.348752219372, 547537.4435407517],
            [21878.348752219372, 17646.996677957974, 327022.58224802517],
            [547537.4435407517, 327022.58224802517, 14962510.483737402],
        ],
    ),
    "3d": (
        [280.13817979838512, 487.50534546137612, 85.252316581676254, -392.96490374938764],
        [
            [10587744.793268437, -5146638.2739037517, -1400825.2993664788, 1537326.5571709697],
            [-5146638.2739037517, 4647205.4708113391, -2448829.6609447915, 3432370.1047408283],
            [-1400825.2993664788, -2448829.6609447915, 6289358.275238811, 977633.61973015044],
            [1537326.5571709697, 3432370.1047408283, 977633.61973015044, 4742420293.0974998],
        ],
        [7.2758456482661673, 4.8203401144394791, 5.6077018181603444, 153.9861870081231],
        [
            [33454.423509914479, 18849.358018959774, 18387.983910145627, 500662.74840972514],
            [18849.358018959774, 16149.571999014159, 13143.272749078858, 332527.49945980631],
            [18387.983910145627, 13143.272749078858, 19780.327764999936, 385559.54804257333],
            [500662.74840972514, 332527.49945980631, 385559.54804257333, 14962510.483737402],
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_ORACLE))
def test_oracle_bytes_frozen(case):
    # the oracle's outputs are pinned bit for bit: a reordered draw, error or
    # sum anywhere in its pipeline moves them
    phi_deg, sigma_phi = (None, 0.0) if case == "2d" else (25.0, math.radians(8.0))
    noise = NoiseSpec(150.0, math.radians(12.0), 4.0, rho=0.6, sigma_phi=sigma_phi)
    est = mc_moment_oracle(sph(20000.0, 60.0, -150.0, phi_deg=phi_deg), noise, 200_003, np.random.default_rng(7))
    assert est.samples == 200_003
    for got, expected in zip((est.mean, est.cov, est.se_mean, est.se_cov), FROZEN_ORACLE[case]):
        np.testing.assert_array_equal(got, expected)


def test_oracle_reported_se_scales_as_sqrt_n():
    noise = NoiseSpec(100.0, 0.2, 5.0, rho=0.3)
    m = sph(10000.0, 45.0, 100.0)
    a = mc_moment_oracle(m, noise, 50_000, np.random.default_rng(1))
    b = mc_moment_oracle(m, noise, 200_000, np.random.default_rng(2))
    ratio = a.se_mean / b.se_mean
    np.testing.assert_allclose(ratio, 2.0, rtol=0.25)


def test_oracle_settles_pseudo_bias_sign():
    # ground truth for the sign of the pseudo-error bias: negative when the
    # range / range-rate errors are positively correlated
    est = mc_moment_oracle(sph(113137.0, 45.0, 282.8), CASE_NOISE, 4_000_000, np.random.default_rng(4))
    assert est.mean[-1] < 0
    assert abs(est.mean[-1] - (-60.0)) < 3 * est.se_mean[-1]


@pytest.mark.parametrize("samples", [5000, 1.5e6, 20000.0, True, None])
def test_oracle_rejects_tiny_sample_counts(samples):
    with pytest.raises(ValueError, match="samples"):
        mc_moment_oracle(sph(1000.0, 0.0, 1.0), CASE_NOISE, samples, np.random.default_rng(0))


@pytest.mark.parametrize("batch", [0, -5, 2.5, 1e6, True, None])
def test_oracle_rejects_bad_batch(batch):
    with pytest.raises(ValueError, match="batch"):
        mc_moment_oracle(sph(1000.0, 0.0, 1.0), CASE_NOISE, 10_000, np.random.default_rng(0), batch=batch)


def test_oracle_peak_memory_is_one_draw_buffer():
    # at most two (4, block) float64 buffers of 32 B per draw, one being drawn
    # while the worker turns the other into errors, and a block's worth of
    # slack for the worker's scratch and sums
    rng = np.random.default_rng(0)
    block = 32 * conversion._ORACLE_BLOCK
    tracemalloc.start()
    try:
        mc_moment_oracle(sph(113137.0, 45.0, 282.8), CASE_NOISE, 1_200_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * block


def _serial_oracle(m, noise, samples, rng, batch):
    """The oracle's arithmetic on one thread, one block after another.

    The same draws, truths and errors, centered on the first batch's mean;
    each block's sum, product sum and squared-product sum is added in block
    order, so the result is a bitwise reference for the pipelined oracle.
    """
    r, theta, phi, rdot = m.r, m.theta, (m.phi if m.dim == 3 else 0.0), m.rdot
    measured = np.array([r, theta, phi, rdot])[:, None]
    converted = conversion._cart(r, theta, phi, rdot)[:, None]
    sum_c, sum_cc, sum_cc_sq = np.zeros(4), np.zeros((4, 4)), np.zeros((4, 4))
    n = 0
    while n < samples:
        k = min(batch, samples - n)
        z = _scale_noise(noise, rng.standard_normal((4, k)))
        e = converted - conversion._cart(*(measured - z))
        if n == 0:
            center = e.mean(axis=1)
        c = e - center[:, None]
        sq = c * c
        sum_c += c.sum(axis=1)
        sum_cc += c @ c.T
        sum_cc_sq += sq @ sq.T
        n += k
    mean_c = sum_c / n
    cov = (sum_cc / n - np.outer(mean_c, mean_c)) * (n / (n - 1))
    se_cov = np.sqrt(np.maximum(sum_cc_sq / n - (sum_cc / n) ** 2, 0.0) / n)
    se_mean = np.sqrt(np.maximum(np.diag(cov), 0.0) / n)
    idx = [0, 1, 3] if m.dim == 2 else [0, 1, 2, 3]
    return center[idx] + mean_c[idx], cov[np.ix_(idx, idx)], se_mean[idx], se_cov[np.ix_(idx, idx)]


@pytest.mark.parametrize(
    "phi_deg, batch, samples",
    [
        # blocks of 140000, 140000 and 20001 draws
        pytest.param(None, 140_000, 300_001, id="None"),
        pytest.param(25.0, 140_000, 300_001, id="25.0"),
        # the default blocks: four full ones and a partial fifth
        pytest.param(None, None, 300_001, id="None-default"),
        pytest.param(25.0, None, 300_001, id="25.0-default"),
        # one block, whose errors give the centre; then a last block of one
        # draw
        pytest.param(None, None, 65_536, id="None-default-65536"),
        pytest.param(25.0, None, 65_537, id="25.0-default-65537"),
    ],
)
@pytest.mark.parametrize("cpus", [1, 2])  # a ring of one buffer, and of two
def test_oracle_bytes_equal_the_serial_reference_off_the_calling_thread(
    monkeypatch, cpus, phi_deg, batch, samples
):
    sigma_phi = 0.0 if phi_deg is None else math.radians(8.0)
    noise = NoiseSpec(150.0, math.radians(12.0), 4.0, rho=0.6, sigma_phi=sigma_phi)
    m = sph(20000.0, 60.0, -150.0, phi_deg=phi_deg)
    block = batch or conversion._ORACLE_BLOCK
    want = [a.tobytes() for a in _serial_oracle(m, noise, samples, np.random.default_rng(5), block)]
    kwargs = {} if batch is None else {"batch": batch}
    cart = conversion._cart
    threads = set()

    def recording_cart(*args, **kwargs):
        if "out" in kwargs:  # a block's conversion, not the measurement's own
            threads.add(threading.get_ident())
        return cart(*args, **kwargs)

    monkeypatch.setattr(conversion, "_cart", recording_cart)
    monkeypatch.setattr(conversion, "_oracle_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so a shared-state slip would show
    try:
        est = mc_moment_oracle(m, noise, samples, np.random.default_rng(5), **kwargs)
    finally:
        sys.setswitchinterval(interval)
    assert est.samples == samples
    assert [a.tobytes() for a in (est.mean, est.cov, est.se_mean, est.se_cov)] == want
    # every block's errors run on the worker, none on the drawing caller
    assert threads and threading.get_ident() not in threads


@pytest.mark.parametrize(
    "fail_at, cpus, batch",
    # a ring of one buffer, and of two (as on any host with more than one CPU)
    # blocks of 140000 draws: a sub-tile of the first block, or of the second
    [pytest.param(f, c, 140_000, id=f"{f}-{c}") for c in (1, 3) for f in (4, 30)]
    # the default blocks, 8 sub-tiles each: the first block, whose errors
    # give the centre, or a later one
    + [pytest.param(f, c, None, id=f"{f}-{c}-default") for c in (1, 3) for f in (4, 30)],
)
def test_oracle_tile_error_propagates_and_leaves_no_thread(monkeypatch, fail_at, cpus, batch):
    calls = itertools.count(1)
    cart = conversion._cart
    error = RuntimeError("block failed")

    def failing_cart(*args, **kwargs):
        if next(calls) == fail_at:
            raise error
        return cart(*args, **kwargs)

    monkeypatch.setattr(conversion, "_cart", failing_cart)
    monkeypatch.setattr(conversion, "_oracle_cpus", lambda: cpus)
    before = threading.active_count()
    rng = np.random.default_rng(0)
    kwargs = {} if batch is None else {"batch": batch}
    with pytest.raises(RuntimeError) as info:
        mc_moment_oracle(sph(20000.0, 60.0, -150.0), CASE_NOISE, 300_001, rng, **kwargs)
    assert info.value is error
    assert threading.active_count() == before


@pytest.mark.parametrize("count, cpus", [(1, 1), (3, 3), (16, 16), (None, 1)])
def test_oracle_cpus_without_an_affinity_query(monkeypatch, count, cpus):
    # a platform without sched_getaffinity counts every CPU, at least one
    monkeypatch.delattr(conversion.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(conversion.os, "cpu_count", lambda: count)
    assert conversion._oracle_cpus() == cpus


def test_debias_correctness_under_reconstructed_truths():
    # mean of (converted - mu - cartesian(reconstructed truth)) is zero:
    # exactly the moment the measurement-conditioned mu is built to remove
    noise = NoiseSpec(100.0, math.radians(15.0), 5.0, rho=0.3, sigma_phi=math.radians(10.0))
    m = sph(20000.0, 60.0, -150.0, phi_deg=25.0)
    mu, _ = unbiased_stats(m, noise)
    est = mc_moment_oracle(m, noise, 1_000_000, np.random.default_rng(12))
    np.testing.assert_array_less(np.abs(est.mean - mu), 3 * est.se_mean)


def _entries_first(cov):
    """Entries-first ``(n, n) + items`` view of item-major ``items + (n, n)`` matrices."""
    return np.moveaxis(cov, (-2, -1), (0, 1))


def _item_major(cov):
    return np.moveaxis(cov, (0, 1), (-2, -1))


def test_finalize_flags_indefinite():
    bad = np.diag([1.0, 1.0, 1.0, -0.5])
    _, ok = _finalize(bad.copy())
    assert not ok
    # in a batch only the indefinite item is flagged
    _, ok = _finalize(_entries_first(np.stack([np.eye(4), bad])))
    np.testing.assert_array_equal(ok, [True, False])


def test_finalize_clamps_rounding_negatives():
    tiny = -1e-13
    cov = np.diag([1.0, 1.0, 1.0, tiny])
    fixed, ok = _finalize(cov)
    assert ok
    assert np.linalg.eigvalsh(fixed).min() >= 0.0


def _finalize_by_eigh(cov, psd_tol=1e-9, abs_scale=0.0):
    """Reference PSD guard on item-major ``(..., n, n)`` matrices: every
    finite item through ``eigh``, no screen.

    An item with a non-finite entry is flagged and never reaches ``eigh``.
    """
    finite = np.asarray(np.isfinite(cov).all(axis=(-2, -1)))
    ok = finite.copy()
    sub = cov[finite]
    w, v = np.linalg.eigh(sub)
    tol = psd_tol * np.maximum(np.trace(sub, axis1=-2, axis2=-1), 0.0)
    tol = tol + 1e-12 * np.broadcast_to(abs_scale, finite.shape)[finite]
    lowest = w[..., 0]
    ok[finite] = held = ~(lowest < -tol)
    rebuild = (lowest < 0) & held
    if np.any(rebuild):
        v, w = v[rebuild], np.maximum(w[rebuild], 0.0)
        fixed = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
        where = np.zeros(finite.shape, dtype=bool)
        where[finite] = rebuild
        cov = cov.copy()
        cov[where] = 0.5 * (fixed + np.swapaxes(fixed, -1, -2))
    return cov, ok


# Item kinds of the PSD-guard batches, by their lowest eigenvalue relative to
# the rest: "spd" items keep it above 1e-6 of the largest and must pass the
# screen; every other kind must reach eigh.
_ITEM_KINDS = ("spd", "near_singular", "zero", "clamp_band", "indefinite", "nan")


def _psd_item(kind, n, rng, scale):
    """One symmetric ``n x n`` item of ``kind`` (see ``_ITEM_KINDS``)."""
    eig = 10.0 ** rng.uniform(-6.0, 0.0, n)
    rest = eig[1:].sum()
    if kind == "near_singular":
        eig[0] = rest * 10.0 ** rng.uniform(-16.0, -9.0)
    elif kind == "clamp_band":
        eig[0] = -1e-13 * rest
    elif kind == "indefinite":
        eig[0] = -rest * 10.0 ** rng.uniform(-6.0, 0.0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * (scale * eig)) @ q.T
    a = 0.5 * (a + a.T)
    if kind == "zero":
        a = np.zeros((n, n))
    elif kind == "nan":
        i, j = rng.integers(0, n, 2)
        a[i, j] = a[j, i] = np.nan
    return a


@st.composite
def _psd_guard_batches(draw):
    dim = draw(st.sampled_from([2, 3]))
    kinds = draw(st.lists(st.sampled_from(_ITEM_KINDS), min_size=1, max_size=12))
    items = []
    for kind in kinds:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        items.append(_psd_item(kind, dim + 1, rng, 10.0 ** draw(st.floats(-6.0, 12.0))))
    cov = np.stack(items)
    exponents = draw(st.lists(st.floats(-3.0, 12.0), min_size=len(kinds), max_size=len(kinds)))
    abs_scale = 10.0 ** np.array(exponents)
    if draw(st.booleans()):  # a single item along no leading axis
        cov, abs_scale = cov[0], abs_scale[0]
        kinds = kinds[:1]
    return cov, abs_scale, kinds


def _counting_eigh(sent):
    real_eigh = np.linalg.eigh

    def counting_eigh(a):
        sent.append(int(np.prod(a.shape[:-2])))
        return real_eigh(a)

    return counting_eigh


@settings(max_examples=300, deadline=None)
@given(_psd_guard_batches())
def test_finalize_screen_matches_eigh_reference(batch):
    cov, abs_scale, kinds = batch
    sent = []
    expected = _finalize_by_eigh(cov, abs_scale=abs_scale)
    with mock.patch.object(np.linalg, "eigh", _counting_eigh(sent)):
        got_cov, got_ok = _finalize(_entries_first(cov.copy()), abs_scale=abs_scale)
    for g, e in zip((_item_major(got_cov), got_ok), expected):
        assert g.shape == e.shape and g.dtype == e.dtype
        assert g.tobytes() == e.tobytes()
    # only the finite items the screen cannot clear reach eigh
    assert sum(sent) == sum(kind not in ("spd", "nan") for kind in kinds)


def test_finalize_fallback_multi_axis_items():
    # entries-first items along (scans, runs, methods), as the filter converts
    # them: only the items that fail the screen change, each in its own slot,
    # and ok and the rebuilt matrices are the item-major reference's
    shape, n = (5, 4, 2), 4
    rng = np.random.default_rng(7)
    kinds = rng.choice(["spd", "clamp_band", "indefinite", "nan"], size=shape)
    kinds.flat[:4] = ["spd", "clamp_band", "indefinite", "nan"]  # at least one of each kind
    items = np.empty(shape + (n, n))
    for index in np.ndindex(shape):
        items[index] = _psd_item(kinds[index], n, rng, 10.0 ** rng.uniform(-3.0, 9.0))
    abs_scale = 10.0 ** rng.uniform(-3.0, 9.0, shape)
    ref_cov, ref_ok = _finalize_by_eigh(items, abs_scale=abs_scale)
    sent = []
    cov = np.ascontiguousarray(_entries_first(items))
    with mock.patch.object(np.linalg, "eigh", _counting_eigh(sent)):
        got, ok = _finalize(cov, abs_scale=abs_scale)
    assert got is cov  # rebuilt in place
    got = _item_major(got)
    np.testing.assert_array_equal(ok, ref_ok)
    np.testing.assert_array_equal(ok, (kinds == "spd") | (kinds == "clamp_band"))
    assert got.tobytes() == ref_cov.tobytes()
    changed = [got[index].tobytes() != items[index].tobytes() for index in np.ndindex(shape)]
    np.testing.assert_array_equal(np.reshape(changed, shape), kinds == "clamp_band")
    assert sent == [np.count_nonzero((kinds == "clamp_band") | (kinds == "indefinite"))]


def test_finalize_flags_non_finite_without_eigh():
    # a NaN or inf that eigh would pass through (or choke on) marks only its
    # own item invalid, and no such item is sent to eigh
    nan_diag = np.eye(4)
    nan_diag[3, 3] = np.nan
    nan_diag_2d = np.eye(3)
    nan_diag_2d[2, 2] = np.nan
    inf_diag = np.eye(4)
    inf_diag[0, 0] = np.inf
    nan_off = np.eye(4)
    nan_off[0, 1] = nan_off[1, 0] = np.nan
    with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh called")):
        assert not _finalize(nan_diag_2d)[1]
        assert not _finalize(inf_diag)[1]
        cov, ok = _finalize(_entries_first(np.stack([np.eye(4), nan_off, 2 * np.eye(4)])))
    np.testing.assert_array_equal(ok, [True, False, True])
    np.testing.assert_array_equal(cov[..., 0], np.eye(4))
    # a non-finite item beside an indefinite one: eigh sees only the latter
    indefinite = np.diag([1.0, 1.0, 1.0, -1.0])
    sent = []
    with mock.patch.object(np.linalg, "eigh", _counting_eigh(sent)):
        _, ok = _finalize(_entries_first(np.stack([nan_diag, indefinite])))
    np.testing.assert_array_equal(ok, [False, False])
    assert sent == [1]


def test_stats_raise_on_indefinite(monkeypatch):
    real = conversion._moments

    def forced(methods, rm, theta, phi, rdot, noise, dim):
        conv, mu, cov = real(methods, rm, theta, phi, rdot, noise, dim)
        cov[0, 0] = -cov[0, 0]  # indefinite beyond any tolerance
        return conv, mu, cov

    monkeypatch.setattr(conversion, "_moments", forced)
    m = sph(10000.0, 45.0, 100.0)
    indefinite = "^conversion covariance is indefinite beyond tolerance$"
    for stats in (unbiased_stats, nested_stats):
        with pytest.raises(DegenerateCovarianceError, match=indefinite):
            stats(m, CASE_NOISE)
    for method in ConversionMethod:
        with pytest.raises(DegenerateCovarianceError, match=indefinite):
            convert(m, CASE_NOISE, method)
        with pytest.raises(DegenerateCovarianceError, match=indefinite):
            consistency_sweep([method], m, CASE_NOISE, [1.0], 100, np.random.default_rng(0))


@pytest.mark.parametrize("r, shown", [(-5e4, "-50000"), (0.0, "0"), (-0.0, "-0")])
@pytest.mark.parametrize("method", list(ConversionMethod))
def test_convert_rejects_a_range_that_is_not_positive(r, shown, method):
    # as the ensemble engine does: such a scan is no measurement
    with pytest.raises(
        DegenerateCovarianceError, match=f"^invalid measurement, range {shown} m is not positive$"
    ):
        convert(sph(r, 40.0, 100.0), CASE_NOISE, method)


@pytest.mark.parametrize("r, shown", [(-5e4, "-50000"), (0.0, "0")])
@pytest.mark.parametrize(
    "moments",
    [
        unbiased_stats,
        nested_stats,
        lambda m, noise: mc_moment_oracle(m, noise, 10_000, np.random.default_rng(0)),
        truth_conditioned_stats,
        lambda m, noise: nested_stats_numeric(m, noise, samples=100_000),
        lambda m, noise: consistency_sweep(
            [ConversionMethod.MEASUREMENT_CONDITIONED], m, noise, [1.0], 100,
            np.random.default_rng(0),
        ),
    ],
    ids=[
        "unbiased_stats",
        "nested_stats",
        "mc_moment_oracle",
        "truth_conditioned_stats",
        "nested_stats_numeric",
        "consistency_sweep",
    ],
)
def test_point_moments_reject_a_range_that_is_not_positive(r, shown, moments):
    # the same words as convert's: such a measurement has no moments
    with pytest.raises(
        DegenerateCovarianceError, match=f"^invalid measurement, range {shown} m is not positive$"
    ):
        moments(sph(r, 40.0, 100.0), CASE_NOISE)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "noise",
    [
        CASE_NOISE,
        dataclasses.replace(CASE_NOISE, sigma_theta=0.0),
        NO_NOISE,
        dataclasses.replace(CASE_NOISE, sigma_theta=math.radians(30.0)),
    ],
    ids=["case1", "no_angle_noise", "noiseless", "angles_30deg"],
)
def test_convert_gives_a_row_the_bits_of_its_batch(dim, noise):
    # convert is _convert_batch on one row: without angle noise the position
    # block is rank-deficient, so the screen fails and eigh runs
    if dim == 3:
        noise = dataclasses.replace(noise, sigma_phi=noise.sigma_theta)
    rng = np.random.default_rng(7)
    batch = np.column_stack(
        [
            rng.uniform(1e3, 1e5, 64),
            rng.uniform(-math.pi, math.pi, 64),
            rng.uniform(-1.4, 1.4, 64) if dim == 3 else np.zeros(64),
            rng.uniform(-300.0, 300.0, 64),
        ]
    )
    batch[::9, 0] *= -1.0  # no measurement
    methods = list(ConversionMethod)
    z, ok = _convert_batch(batch, noise, methods, dim)
    assert not ok[::9].any()
    for i, (r, theta, phi, rdot) in enumerate(batch):
        m = SphericalMeasurement(r=r, theta=theta, phi=phi, rdot=rdot, dim=dim)
        for k, method in enumerate(methods):
            if not ok[i, k]:
                with pytest.raises(DegenerateCovarianceError):
                    convert(m, noise, method)
                continue
            one = convert(m, noise, method)
            for field in ("position", "pseudo", "mu", "cov"):
                expected = np.asarray(getattr(z[i, k], field))
                assert np.asarray(getattr(one, field)).tobytes() == expected.tobytes(), field


def test_convert_packages_fields():
    z = convert(sph(10000.0, 45.0, 100.0), CASE_NOISE, ConversionMethod.MEASUREMENT_CONDITIONED)
    assert z.dim == 2
    assert z.position.shape == (2,)
    assert z.mu.shape == (3,) and z.cov.shape == (3, 3)
    assert z.pseudo == pytest.approx(1e6)


# Closed-form statistics pinned at three operating points: a 3D point with
# elevation noise and range/range-rate correlation, the 2D benchmark geometry
# and a near-pole elevation. Each entry is (mu, cov) per statistic.
FROZEN = {
    "3d": (
        sph(20000.0, 60.0, -150.0, phi_deg=25.0),
        NoiseSpec(sigma_r=100.0, sigma_theta=math.radians(15.0), sigma_rdot=5.0, rho=0.3,
                  sigma_phi=math.radians(10.0)),
        {
            "unbiased": (
                [437.7027650906133, 758.1234277503271, 127.7614554968902, -150.0],
                [[16123485.128168061, -7680060.379908621, -2152520.2158637047, 646903.1328956916],
                 [-7680060.379908621, 7255315.2727024555, -3728274.3781950623, 1120469.093750819],
                 [-2152520.2158637047, -3728274.3781950623, 9743788.689656898, 624345.2834487824],
                 [646903.1328956916, 1120469.093750819, 624345.2834487824, 9325272500.0]],
            ),
            "nested": (
                [-416.5638415032535, -721.5097380797039, -125.83028131579209, 150.0],
                [[15280862.520315185, -6451570.515482426, -1957114.9514793009, 615660.8447829476],
                 [-6451570.515482426, 7831230.572695941, -3389822.5322148353, 1066355.8633948413],
                 [-1957114.9514793009, -3389822.5322148353, 9523075.524688646, 614908.012350098],
                 [615660.8447829476, 1066355.8633948413, 614908.012350098, 9325817500.0]],
            ),
            "truth": (
                [-437.7027650906133, -758.1234277503271, -127.7614554968902, 150.0],
                [[16123485.128168061, -7680060.379908621, -2152520.2158637047, 646903.1328956916],
                 [-7680060.379908621, 7255315.2727024555, -3728274.3781950623, 1120469.093750819],
                 [-2152520.2158637047, -3728274.3781950623, 9743788.689656898, 624345.2834487824],
                 [646903.1328956916, 1120469.093750819, 624345.2834487824, 9325272500.0]],
            ),
        },
    ),
    "2d": (
        sph(113137.0, 45.0, 282.8),
        CASE_NOISE,
        {
            "unbiased": (
                [76.11806247850421, 76.1180624785042, -60.0],
                [[12193086.888207436, -12130009.106036186, 12786610.556724131],
                 [-12130009.106036186, 12193086.888206482, 12786610.556724127],
                 [12786610.556724131, 12786610.556724127, 19838475201.0]],
            ),
            "nested": (
                [-76.04563793115456, -76.04563793115454, 60.0],
                [[12193124.929160118, -12083947.10265255, 12774444.397319214],
                 [-12083947.10265255, 12193124.929160118, 12774444.397319213],
                 [12774444.397319214, 12774444.397319213, 19838562401.0]],
            ),
            "truth": (
                [-76.11806247850421, -76.1180624785042, 0.0, 60.0],
                [[12193086.888207436, -12130009.106036186, 0.0, 12786610.556724131],
                 [-12130009.106036186, 12193086.888206482, 0.0, 12786610.556724127],
                 [0.0, 0.0, 0.0, 0.0],
                 [12786610.556724131, 12786610.556724127, 0.0, 19838475201.0]],
            ),
        },
    ),
    "pole": (
        sph(8000.0, -130.0, 40.0, phi_deg=89.5),
        NoiseSpec(sigma_r=50.0, sigma_theta=math.radians(30.0), sigma_rdot=2.0, rho=-0.6,
                  sigma_phi=math.radians(5.0)),
        {
            "unbiased": (
                [-5.897012132546859, -7.027785394534363, 30.40266297590106, 60.0],
                [[218225.26206244872, 137207.1080454238, 2344.5016571512097, 1851.4293033649305],
                 [137207.1080454238, 266611.8922492281, 2794.0682727530366, 2206.4475237193515],
                 [2344.5016571512097, 2794.0682727530366, 4359.377483263612, -378541.4042730298],
                 [1851.4293033649305, 2206.4475237193515, -378541.4042730298, 221613600.0]],
            ),
            "nested": (
                [5.122078162303979, 6.104255051474115, -30.287118336811975, -60.0],
                [[288674.7473771705, 53804.50641657521, 2013.3568805305404, 1608.1305906554917],
                 [53804.50641657521, 307649.11970705824, 2399.4252955465345, 1916.4954087743308],
                 [2013.3568805305404, 2399.4252955465345, 7982.150891825557, -377102.7661520312],
                 [1608.1305906554917, 1916.4954087743308, -377102.7661520312, 221640800.0]],
            ),
            "truth": (
                [5.897012132546859, 7.027785394534363, -30.40266297590106, -60.0],
                [[218225.26206244872, 137207.1080454238, 2344.5016571512097, 1851.4293033649305],
                 [137207.1080454238, 266611.8922492281, 2794.0682727530366, 2206.4475237193515],
                 [2344.5016571512097, 2794.0682727530366, 4359.377483263612, -378541.4042730298],
                 [1851.4293033649305, 2206.4475237193515, -378541.4042730298, 221613600.0]],
            ),
        },
    ),
}


@pytest.mark.parametrize("point", sorted(FROZEN))
def test_closed_forms_frozen(point):
    # an algebra slip moves entries far beyond rounding; the oracle and
    # numeric-reference tests are too loose (0.5-2%) to see small ones
    m, noise, expected = FROZEN[point]
    stats = {"unbiased": unbiased_stats, "nested": nested_stats, "truth": truth_conditioned_stats}
    for name, (mu_ref, cov_ref) in expected.items():
        mu, cov = stats[name](m, noise)
        mu_ref, cov_ref = np.array(mu_ref), np.array(cov_ref)
        np.testing.assert_allclose(mu, mu_ref, rtol=0, atol=1e-12 * np.abs(mu_ref).max(), err_msg=name)
        np.testing.assert_allclose(cov, cov_ref, rtol=0, atol=1e-12 * np.abs(cov_ref).max(), err_msg=name)
