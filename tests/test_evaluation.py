"""Tests for the NES/NEES statistics, chi-square bounds and ensemble RMSE."""

import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmkf import evaluation
from rcmkf.conversion import ConversionMethod, _cart, _stats_batch, mc_moment_oracle
from rcmkf.errors import DegenerateCovarianceError
from rcmkf.evaluation import (
    _chi2_quantile,
    _quad_form,
    chi_square_bounds,
    consistency_sweep,
    nees,
    nes,
    rmse,
)
from rcmkf.filtering import FilterVariant
from rcmkf.montecarlo import INIT_SCANS, Ensemble
from rcmkf.scenario import NoiseSpec, SphericalMeasurement, _noise_matrix

GEOMETRY = SphericalMeasurement(r=10000.0, theta=math.radians(45.0), rdot=100.0, dim=2)
SWEEP_NOISE = NoiseSpec(sigma_r=100.0, sigma_theta=0.0, sigma_rdot=5.0, rho=0.0)


def test_nes_perfect_compensation():
    errors = np.tile([1.0, 2.0, 3.0], (10, 1))
    assert nes(errors, np.array([1.0, 2.0, 3.0]), np.eye(3)) == 0.0


def test_nes_gaussian_mean_is_dimension():
    rng = np.random.default_rng(14)
    cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    mu = np.array([1.0, -2.0, 0.5])
    draws = rng.multivariate_normal(mu, cov, size=1_000_000)
    assert nes(draws, mu, cov) == pytest.approx(3.0, abs=0.01)
    # doubling the hypothesized covariance halves the statistic
    assert nes(draws, mu, 2 * cov) == pytest.approx(1.5, abs=0.005)


def test_nes_congruence_invariance():
    rng = np.random.default_rng(15)
    errors = rng.standard_normal((500, 3))
    mu = rng.standard_normal(3)
    cov = np.cov(errors.T) + np.eye(3)
    t = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    direct = nes(errors, mu, cov)
    transformed = nes((errors - mu) @ t.T + (t @ mu), t @ mu, t @ cov @ t.T)
    assert transformed == pytest.approx(direct, rel=1e-9)


def test_nes_singular_covariance():
    with pytest.raises(DegenerateCovarianceError):
        nes(np.ones((5, 2)), np.zeros(2), np.zeros((2, 2)))


def _entries_first(covs, e):
    """``_quad_form``'s entries-first views of item-major ``(..., d, d)`` and ``(..., d)``."""
    return np.moveaxis(covs, (-2, -1), (0, 1)), np.moveaxis(e, -1, 0)


def _quad_form_by_solve(covs, e):
    """Reference quadratic forms ``e^T covs^{-1} e`` through ``np.linalg.solve``."""
    covs, e = np.broadcast_to(covs, e.shape[:-1] + covs.shape[-2:]), np.asarray(e)
    return np.einsum("...d,...d->...", e, np.linalg.solve(covs, e[..., None])[..., 0])


# Leading axes of the kernel tests; "broadcast" is one covariance over N
# errors, as in ``nes``.
_LEADING = ((), (7,), (3, 5), "broadcast")


@st.composite
def _spd_batches(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    leading = draw(st.sampled_from(_LEADING))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-6.0, 12.0))
    cov_shape = () if leading == "broadcast" else leading
    err_shape = (9,) if leading == "broadcast" else leading
    q, _ = np.linalg.qr(rng.standard_normal(cov_shape + (n, n)))
    eig = scale * 10.0 ** rng.uniform(-2.0, 0.0, cov_shape + (1, n))
    covs = (q * eig) @ np.swapaxes(q, -1, -2)
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    e = math.sqrt(scale) * rng.standard_normal(err_shape + (n,))
    return covs, e


@settings(max_examples=300, deadline=None)
@given(_spd_batches())
def test_quad_form_matches_solve_reference(batch):
    covs, e = batch
    got = _quad_form(*_entries_first(covs, e), "covariance")
    expected = _quad_form_by_solve(covs, e)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(_spd_batches(), st.sampled_from(["zero", "repeated", "nan", "inf"]), st.data())
def test_quad_form_degenerate_covariance_raises(batch, kind, data):
    covs, e = batch
    covs = covs.copy()
    n = covs.shape[-1]
    # spoil one item of the batch; every other item stays positive definite
    item = tuple(data.draw(st.integers(0, size - 1)) for size in covs.shape[:-2])
    bad = covs[item]
    if kind == "zero":
        bad[...] = 0.0
    elif kind == "repeated":
        # row and column 1 copy row and column 0: exactly singular
        bad[1, :] = bad[0, :]
        bad[:, 1] = bad[:, 0]
    else:
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        bad[i, j] = bad[j, i] = np.nan if kind == "nan" else np.inf
    with pytest.raises(DegenerateCovarianceError):
        _quad_form(*_entries_first(covs, e), "covariance")
    if e.ndim == 2 and covs.ndim == 2:
        with pytest.raises(DegenerateCovarianceError):
            nes(e, np.zeros(n), covs)


def test_quad_form_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        _quad_form(np.eye(3), np.ones((2, 4)), "covariance")


def test_chi_square_bounds_reference_interval():
    lo, hi = chi_square_bounds(3, 1000, 0.001)
    assert lo == pytest.approx(2.76, abs=0.01)
    assert hi == pytest.approx(3.24, abs=0.01)


def test_chi_square_bounds_shrink_with_samples():
    lo, hi = chi_square_bounds(3, 1_000_000, 0.001)
    assert 2.99 < lo < 3.0 < hi < 3.01


def test_chi_square_bounds_brackets_one_sample():
    lo, hi = chi_square_bounds(1, 1, 0.01)
    assert lo < 1.0 < hi


def test_chi_square_bounds_validation():
    with pytest.raises(ValueError):
        chi_square_bounds(3, 1000, 0.7)
    with pytest.raises(ValueError):
        chi_square_bounds(0, 0, 0.001)


@pytest.mark.parametrize("tail", [1e-17, 1e-300])
def test_chi_square_bounds_finite_for_tiny_tails(tail):
    # 1 - tail rounds to 1 here, so the upper bound must come from Q = tail
    lo, hi = chi_square_bounds(3, 1000, tail)
    assert 0.0 < lo < 3.0 < hi < math.inf


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-12, max_value=0.5, exclude_max=True))
def test_chi2_quantile_closed_forms(p):
    # dof 2 is exponential with mean 2; dof 1 is a squared standard normal
    assert _chi2_quantile(2, p, False) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-12)
    assert _chi2_quantile(2, p, True) == pytest.approx(-2.0 * math.log(p), rel=1e-12)
    assert _chi2_quantile(1, p, True) == pytest.approx(NormalDist().inv_cdf(p / 2) ** 2, rel=1e-12)
    p = 2.0 * ((1.0 + p) / 2.0) - 1.0  # exact, so the closed form sees the same probability
    assert _chi2_quantile(1, p, False) == pytest.approx(
        NormalDist().inv_cdf((1.0 + p) / 2.0) ** 2, rel=1e-12
    )


def test_chi2_quantile_raises_when_a_fraction_does_not_converge(monkeypatch):
    monkeypatch.setattr(evaluation, "_MAX_TERMS", 3)
    for upper in (False, True):
        with pytest.raises(ArithmeticError):
            _chi2_quantile(3000, 0.001, upper)


@pytest.mark.parametrize(
    "dof, lower, upper",
    [
        (2000, 1810.2415818699533, 2201.156196586629),  # NEES, 4 states x 500 runs
        (3000, 2766.319481998526, 3245.078830702524),  # NES, 3 components x 1000 samples
        (6000, 5667.173440956863, 6344.225405905832),  # NES, 3 components x 2000 samples
    ],
)
def test_chi2_quantile_tabulated(dof, lower, upper):
    # scipy.stats.chi2.ppf(0.001, dof) and chi2.ppf(0.999, dof), scipy 1.17.1
    assert _chi2_quantile(dof, 0.001, False) == pytest.approx(lower, rel=1e-12)
    assert _chi2_quantile(dof, 0.001, True) == pytest.approx(upper, rel=1e-12)


def test_consistency_sweep_small_noise_both_inside():
    grid = np.array([0.1])
    rng = np.random.default_rng(np.random.SeedSequence(42))
    reports = consistency_sweep(tuple(ConversionMethod), GEOMETRY, SWEEP_NOISE, grid, 1000, rng)
    for rep in reports.values():
        assert bool(rep.inside[0])


def test_consistency_sweep_nested_exits_at_large_noise():
    grid = np.array([25.0])
    rng = np.random.default_rng(np.random.SeedSequence(42))
    nested = ConversionMethod.NESTED_CONDITIONING
    rep = consistency_sweep([nested], GEOMETRY, SWEEP_NOISE, grid, 1000, rng)[nested]
    assert not bool(rep.inside[0])
    assert rep.avg_nes[0] > rep.upper


def test_consistency_sweep_rejects_a_drawn_range_that_is_not_positive():
    # at 300 m with sigma_r 200 m, 129 of these 2000 draws have a range <= 0;
    # scored, they gave an in-band average NES of 2.85
    near = dataclasses.replace(GEOMETRY, r=300.0)
    noise = dataclasses.replace(SWEEP_NOISE, sigma_r=200.0)
    with pytest.raises(
        DegenerateCovarianceError,
        match=r"^sigma_theta 1 deg, 129 of 2000 draws: invalid measurement, "
        r"range -479\.884 m is not positive$",
    ):
        consistency_sweep(
            tuple(ConversionMethod), near, noise, np.array([1.0]), 2000, np.random.default_rng(0)
        )


def test_consistency_sweep_empty_grid():
    with pytest.raises(ValueError):
        consistency_sweep(
            [ConversionMethod.MEASUREMENT_CONDITIONED],
            GEOMETRY,
            SWEEP_NOISE,
            np.array([]),
            100,
            np.random.default_rng(0),
        )


def test_consistency_sweep_2d_elevation_noise():
    # a 2D radar measures no elevation, so its sweep takes no elevation noise
    noise = dataclasses.replace(SWEEP_NOISE, sigma_phi=math.radians(5.0))
    with pytest.raises(ValueError, match="sigma_phi must be 0"):
        consistency_sweep(
            [ConversionMethod.MEASUREMENT_CONDITIONED],
            GEOMETRY,
            noise,
            np.array([1.0]),
            100,
            np.random.default_rng(0),
        )


def test_consistency_sweep_shared_draw_equals_separate_sweeps():
    # one generator scoring both methods on each draw gives, bit for bit,
    # what one sweep per method on a fresh same-seed generator gives
    grid = np.array([0.5, 4.0, 20.0])
    methods = tuple(ConversionMethod)
    shared = consistency_sweep(
        methods, GEOMETRY, SWEEP_NOISE, grid, 400, np.random.default_rng(np.random.SeedSequence(3))
    )
    assert list(shared) == list(methods)
    for method in methods:
        rng = np.random.default_rng(np.random.SeedSequence(3))
        alone = consistency_sweep([method], GEOMETRY, SWEEP_NOISE, grid, 400, rng)[method]
        got = shared[method]
        assert got.method is method
        assert got.avg_nes.tobytes() == alone.avg_nes.tobytes()
        assert (got.lower, got.upper, got.samples) == (alone.lower, alone.upper, alone.samples)
        np.testing.assert_array_equal(got.inside, alone.inside)
        np.testing.assert_array_equal(got.sigma_theta_deg, grid)


def test_consistency_sweep_3d_matches_solve_reference():
    # a 3D radar scores 4-dim errors (x, y, z, eta) in 4x4 covariances
    geometry = SphericalMeasurement(
        r=20000.0, theta=math.radians(30.0), phi=math.radians(25.0), rdot=-80.0, dim=3
    )
    noise = NoiseSpec(
        sigma_r=50.0, sigma_theta=0.0, sigma_phi=math.radians(2.0), sigma_rdot=3.0, rho=0.4
    )
    grid = np.array([1.0, 10.0])
    samples = 300
    methods = tuple(ConversionMethod)
    got = consistency_sweep(
        methods, geometry, noise, grid, samples, np.random.default_rng(np.random.SeedSequence(8))
    )
    rng = np.random.default_rng(np.random.SeedSequence(8))
    truth = _cart(geometry.r, geometry.theta, geometry.phi, geometry.rdot)
    expected = {method: [] for method in methods}
    for sig_deg in grid:
        point = dataclasses.replace(noise, sigma_theta=math.radians(sig_deg))
        d = _noise_matrix(point, samples, rng)
        meas = (geometry.r + d[0], geometry.theta + d[1], geometry.phi + d[2], geometry.rdot + d[3])
        errors = _cart(*meas).T - truth
        for method in methods:
            ok, _, mus, covs = _stats_batch([method], *meas, point, 3)
            assert ok.all() and covs.shape == (4, 4, samples, 1)
            covs, mus = np.moveaxis(covs[..., 0], (0, 1), (-2, -1)), mus[..., 0].T
            expected[method].append(_quad_form_by_solve(covs, errors - mus).mean())
    lower, upper = chi_square_bounds(4, samples, 0.001)
    for method in methods:
        np.testing.assert_allclose(got[method].avg_nes, expected[method], rtol=1e-12, atol=0.0)
        assert (got[method].lower, got[method].upper) == (lower, upper)


# Frozen sweep outputs: each method's avg_nes at 17 significant digits, as
# the item-major kernel computed them before the entries-first layout.
FROZEN_SWEEPS = {
    "2d_default": (
        GEOMETRY,
        SWEEP_NOISE,
        [0.5, 1.0, 5.0, 15.0, 30.0],
        [3.0134617973916882, 2.8079054184638315, 2.9096807582950994, 3.0191733402939316,
         2.9746721177463904],
        [3.0134854078374831, 2.8066424755522776, 2.9193120363521472, 3.1104456707407562,
         3.4469705761098428],
    ),
    "3d": (
        SphericalMeasurement(
            r=20000.0, theta=math.radians(30.0), phi=math.radians(25.0), rdot=-80.0, dim=3
        ),
        NoiseSpec(
            sigma_r=50.0, sigma_theta=0.0, sigma_phi=math.radians(2.0), sigma_rdot=3.0, rho=0.4
        ),
        [1.0, 10.0, 25.0],
        [4.1211237704959869, 3.6465382504490877, 3.9935133801794627],
        [4.2342227457468686, 3.7735626216772946, 4.3255265370621521],
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_SWEEPS))
def test_consistency_sweep_bytes_frozen(case):
    # the sweep's outputs are pinned bit for bit: a reordered floating-point
    # operation anywhere in the conversion kernel or the NES moves them
    geometry, noise, grid, conditioned, nested = FROZEN_SWEEPS[case]
    got = consistency_sweep(
        tuple(ConversionMethod), geometry, noise, np.array(grid), 500, np.random.default_rng(2024)
    )
    for method, expected in zip(ConversionMethod, (conditioned, nested)):
        np.testing.assert_array_equal(got[method].avg_nes, expected)


def test_consistency_sweep_needs_a_method():
    with pytest.raises(ValueError):
        consistency_sweep([], GEOMETRY, SWEEP_NOISE, np.array([1.0]), 100, np.random.default_rng(0))


def test_harness_self_consistency_with_oracle_stats():
    # scoring draws from the oracle's own reconstruction model against the
    # oracle's estimated moments must land inside the acceptance interval;
    # the bounds assume near-Gaussian errors, so this runs at moderate noise
    noise = dataclasses.replace(SWEEP_NOISE, sigma_theta=math.radians(5.0))
    est = mc_moment_oracle(GEOMETRY, noise, 1_000_000, np.random.default_rng(20))
    n = 1000
    draws = _noise_matrix(noise, n, np.random.default_rng(21))
    conv = _cart(GEOMETRY.r, GEOMETRY.theta, 0.0, GEOMETRY.rdot)
    idx = np.array([0, 1, 3])
    errs = (conv[:, None] - _cart(
        GEOMETRY.r - draws[0], GEOMETRY.theta - draws[1], -draws[2], GEOMETRY.rdot - draws[3]
    ))[idx].T
    stat = nes(errs, est.mean, est.cov)
    lo, hi = chi_square_bounds(3, n, 0.001)
    assert lo <= stat <= hi


V = FilterVariant.RCMKF_U


def make_ensemble(truth, estimates, covs=None):
    """A one-variant ensemble of ``truth`` (runs, steps, n) and ``estimates``
    (runs, scans, n); the covariances default to identities."""
    n = truth.shape[-1]
    if covs is None:
        covs = np.broadcast_to(np.eye(n), estimates.shape + (n,))
    return Ensemble(
        scenario="test",
        variants=(V,),
        truth=truth,
        measurements=np.zeros(truth.shape[:2] + (4,)),
        means=estimates[:, None],
        covs=covs[:, None],
        updated=np.ones(estimates.shape[:2], dtype=bool)[:, None],
    )


def test_rmse_zero_for_exact_estimates():
    truth = np.cumsum(np.ones((1, 10, 4)), axis=1)
    rep = rmse(make_ensemble(truth, truth[:, INIT_SCANS:].copy()))
    np.testing.assert_array_equal(rep.rmse[V.name], 0.0)
    assert rep.steps[0] == 2 and len(rep.steps) == 8


def test_rmse_constant_offset():
    truth = np.zeros((1, 6, 4))
    offset = np.array([3.0, 4.0, 0.0, 0.0])
    rep = rmse(make_ensemble(truth, truth[:, INIT_SCANS:] + offset))
    np.testing.assert_allclose(rep.rmse[V.name], 5.0)


def test_rmse_permutation_invariant_and_monotone():
    rng = np.random.default_rng(16)
    truth = np.broadcast_to(rng.standard_normal((8, 4)), (5, 8, 4))
    est = truth[:, INIT_SCANS:] + rng.standard_normal((5, 6, 4))
    base = rmse(make_ensemble(truth, est)).rmse[V.name]
    shuffled = rmse(make_ensemble(truth[::-1], est[::-1])).rmse[V.name]
    np.testing.assert_allclose(base, shuffled, rtol=1e-12)  # summation-order slack

    inflated = truth[:, INIT_SCANS:] + 2 * (est - truth[:, INIT_SCANS:])
    np.testing.assert_array_less(base, rmse(make_ensemble(truth, inflated)).rmse[V.name] + 1e-15)


def test_rmse_length_mismatch():
    truth = np.zeros((2, 6, 4))
    with pytest.raises(ValueError):
        make_ensemble(truth, truth[:, 3:])  # estimates one scan short
    with pytest.raises(ValueError):
        make_ensemble(truth, truth[:1, INIT_SCANS:])  # estimates for one run of two


def test_rmse_and_nees_sum_runs_in_order():
    # the reports reduce over the run axis in one call; a loop that adds the
    # runs one by one is the reference, and the arithmetic is the same
    import rcmkf

    scenario = dataclasses.replace(rcmkf.generate_case(2), runs=6, seed=3)
    ens = rcmkf.run_ensemble(scenario)
    rmse_rep, nees_rep = rmse(ens), nees(ens)
    for v, variant in enumerate(ens.variants):
        sq = np.zeros(len(rmse_rep.steps))
        quad = np.zeros(len(nees_rep.steps))
        for run in range(len(ens.truth)):
            err = ens.means[run, v] - ens.truth[run, INIT_SCANS:]
            sq += np.sum(err[:, :2] ** 2, axis=1)
            quad += _quad_form(*_entries_first(ens.covs[run, v], err), "a filter covariance")
        np.testing.assert_array_equal(rmse_rep.rmse[variant.name], np.sqrt(sq / len(ens.truth)))
        np.testing.assert_array_equal(nees_rep.nees[variant.name], quad / len(ens.truth))


def test_case1_rmse_trace_decreases_then_flattens():
    import rcmkf

    scenario = dataclasses.replace(rcmkf.generate_case(1), runs=50, seed=6)
    ens = rcmkf.run_ensemble(scenario, (rcmkf.FilterVariant.RCMKF_U,))
    curve = rmse(ens).rmse["RCMKF_U"]
    early = curve[3:13].mean()
    late = curve[-20:].mean()
    assert late < early
    # flat tail: the last two decades differ far less than the initial drop
    prev = curve[-40:-20].mean()
    assert abs(prev - late) < 0.5 * (early - late)


def test_nees_consistent_synthetic_filter():
    rng = np.random.default_rng(17)
    steps, runs, n = 12, 200, 4
    cov = np.diag([4.0, 4.0, 1.0, 1.0])
    chol = np.linalg.cholesky(cov)
    truth = np.zeros((runs, steps, n))
    err = np.stack([(chol @ rng.standard_normal((n, steps - 2))).T for _ in range(runs)])
    covs = np.broadcast_to(cov, (runs, steps - 2, n, n))
    rep = nees(make_ensemble(truth, truth[:, INIT_SCANS:] + err, covs), tail=0.001)
    assert rep.lower < 4.0 < rep.upper
    assert np.all(rep.nees[V.name] > rep.lower) and np.all(rep.nees[V.name] < rep.upper)


# Per-step position RMSE and state NEES of an 8-run ensemble (seed 42) at a
# few steps, pinned before the ensemble engine moved to one array-backed
# result. rtol 1e-9: case 2 turns last-bit differences in the filter
# arithmetic into micrometre-level estimate differences.
FROZEN_STEPS = [2, 10, 40, 70, 99]
FROZEN_ENSEMBLE = {
    1: {
        "RCMKF_U": (
            [4366.642273653154, 1900.216606877551, 2094.6422481546606, 1641.1051805296775,
             1135.8941296553892],
            [3.386404653711016, 23.870720277367916, 114.38145661338376, 102.5511856910741,
             97.49531273668914],
        ),
        "RCMKF_D": (
            [4326.42261804855, 1825.082446139096, 1817.7142594013005, 1239.5713609993304,
             948.2035430237858],
            [3.6754232972113146, 12.939300865235396, 52.566654249226616, 62.59560171826079,
             79.0561207194292],
        ),
    },
    2: {
        "RCMKF_U": (
            [4388.632929635185, 1654.2502845630875, 11729.186626366689, 26771.750622777705,
             22607.69167797662],
            [3.384838692871868, 14.210660398361581, 18947.00274713795, 115145.01027011953,
             155106.56279209367],
        ),
        "RCMKF_D": (
            [4341.53602521349, 1597.1993186105901, 10843.713765736251, 28021.598988645175,
             24235.659738618982],
            [3.673924259136639, 10.47831989932049, 14773.410937575914, 119783.34933419141,
             171492.75638040056],
        ),
    },
}


@pytest.mark.parametrize("case", sorted(FROZEN_ENSEMBLE))
def test_ensemble_outputs_frozen(case):
    import rcmkf

    scenario = dataclasses.replace(rcmkf.generate_case(case), runs=8)  # seed 42
    variants = (rcmkf.FilterVariant.RCMKF_U, rcmkf.FilterVariant.RCMKF_D)
    ens = rcmkf.run_ensemble(scenario, variants)
    rmse_rep, nees_rep = rmse(ens), nees(ens)
    idx = np.searchsorted(rmse_rep.steps, FROZEN_STEPS)
    np.testing.assert_array_equal(rmse_rep.steps[idx], FROZEN_STEPS)
    np.testing.assert_array_equal(nees_rep.steps, rmse_rep.steps)
    for name, (rmse_ref, nees_ref) in FROZEN_ENSEMBLE[case].items():
        np.testing.assert_allclose(rmse_rep.rmse[name][idx], rmse_ref, rtol=1e-9, atol=0, err_msg=name)
        np.testing.assert_allclose(nees_rep.nees[name][idx], nees_ref, rtol=1e-9, atol=0, err_msg=name)
