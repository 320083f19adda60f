"""Statistical evaluation: NES/NEES consistency tests and ensemble RMSE.

The normalized-error-squared (NES) statistic averages the quadratic form of
errors in their hypothesized covariance; if the hypothesized first two
moments match the actual ones, the per-sample statistic behaves like a
chi-square variable with one degree of freedom per error component, and the
sample average over N realizations falls inside a chi-square acceptance
interval. The consistency sweep applies this to conversion errors with the
hypothesized (mu, R) evaluated at each realization's measured values,
sweeping the bearing noise level; at each noise level it draws and converts
the measurements once and scores that one draw under every conversion
method, so the methods are compared on identical errors.

NEES applies the same construction to filter state-estimate errors against
the filter's own covariance. It is an extra diagnostic of this library, not
part of the benchmark comparison.

Every quadratic form here, NES and NEES alike, comes from the batched LDL^T
kernel that also screens the conversion covariances (``conversion._ldl``);
a singular or non-finite covariance, which gives a zero or non-finite
pivot, raises :class:`DegenerateCovarianceError`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .conversion import _IDX_2D, ConversionMethod, _cart, _ldl, _raise_if_no_stats, _stats_batch
from .errors import DegenerateCovarianceError
from .montecarlo import INIT_SCANS, Ensemble
from .scenario import NoiseSpec, SphericalMeasurement, _noise_matrix

__all__ = [
    "NeesReport",
    "NesReport",
    "RmseReport",
    "chi_square_bounds",
    "consistency_sweep",
    "nees",
    "nes",
    "rmse",
]

_MAX_TERMS = 100_000  # series or continued-fraction terms; near the median, 9 sqrt(dof / 2) do


def _quad_form(covs: np.ndarray, e: np.ndarray, what: str) -> np.ndarray:
    """``e^T covs^{-1} e`` over the items, from the LDL^T kernel, entries first.

    ``covs`` is ``(d, d) + items`` and ``e`` is ``(d,) + items``, as
    ``conversion._ldl`` takes them; their item axes broadcast. Raises
    :class:`DegenerateCovarianceError` when a pivot is zero or non-finite,
    that is when a covariance is singular or has a non-finite entry.
    """
    if covs.shape[:2] != (e.shape[0],) * 2:
        raise ValueError(f"{what} of shape {covs.shape} does not fit errors of shape {e.shape}")
    pivots, _, quad = _ldl(covs, e)
    for d in pivots:
        if not np.all(np.isfinite(d) & (d != 0.0)):
            raise DegenerateCovarianceError(f"{what} is singular or not finite")
    return quad


def nes(errors, mu: np.ndarray, cov: np.ndarray) -> float:
    """Average normalized error squared under one hypothesized (mu, cov).

    ``errors`` is an (N, d) array or a sequence of d-vectors; the result is
    the mean of ``(e - mu)^T cov^{-1} (e - mu)``.
    """
    e = np.atleast_2d(np.asarray(errors, dtype=float)) - np.asarray(mu, dtype=float)
    return float(np.mean(_quad_form(np.asarray(cov, dtype=float), e.T, "hypothesized covariance")))


def _chi2_quantile(dof: int, tail: float, upper: bool) -> float:
    """The chi-square value with probability ``tail`` above it if ``upper``, else below it.

    Newton steps in ``y = log x`` on ``log F = log tail`` (concave in ``y``), F = Q(a, x) or
    P(a, x) at ``a = dof / 2``: P by series below ``a + 1``, Q by Lentz's continued fraction
    above (Numerical Recipes 6.2), where the complement is at least 0.08 for ``a >= 0.5``. The
    start is Wilson-Hilferty's (1931), for a lower tail at least ``(tail Gamma(a + 1))^(1/a)``,
    which is below the root. Solving Q = tail, not P = 1 - tail, keeps tails below 1e-16.
    """
    sign, a, w = (1.0 if upper else -1.0), dof / 2.0, 2.0 / (9.0 * dof)
    base = 1.0 - w - sign * NormalDist().inv_cdf(tail) * math.sqrt(w)
    y = math.log(a * base**3) if base > 0.0 else -math.inf
    if not upper:
        y = max(y, (math.log(tail) + math.lgamma(a + 1.0)) / a)
    for _ in range(50):
        x = math.exp(y)
        log_lead = a * y - x - math.lgamma(a)  # = log F + log |d log F / d log x|
        series = x < a + 1.0
        if series:
            term = f = 1.0 / a
            for n in range(1, _MAX_TERMS):
                term *= x / (a + n)
                f += term
                if term < f * 1e-16:
                    break
        else:
            b, c = x + 1.0 - a, 1e300
            d = f = 1.0 / b
            for n in range(1, _MAX_TERMS):
                an, b = n * (a - n), b + 2.0
                d = 1.0 / (an * d + b or 1e-300)
                c = b + an / c or 1e-300
                f *= d * c
                if abs(d * c - 1.0) < 1e-16:
                    break
        if n == _MAX_TERMS - 1:
            break
        log_f = log_lead + math.log(f)
        if series == upper:
            log_f = math.log1p(-math.exp(log_f))
        step = sign * (log_f - math.log(tail)) * math.exp(log_f - log_lead)
        y += step
        if abs(step) < 1e-10:
            return 2.0 * math.exp(y)
    raise ArithmeticError(f"chi-square quantile for dof {dof}, tail {tail} did not converge")


def chi_square_bounds(dof_per_sample: int, samples: int, tail: float) -> tuple[float, float]:
    """Acceptance interval for the average NES of ``samples`` realizations.

    The scaled average ``N * NES`` of jointly Gaussian, well-modeled errors
    is chi-square with ``d * N`` degrees of freedom, so the average lies
    between its quantiles with ``tail`` below and ``tail`` above, over ``N``,
    with probability ``1 - 2 * tail``.
    """
    dof = dof_per_sample * samples
    if dof < 1:
        raise ValueError("need at least one degree of freedom")
    if not 0.0 < tail < 0.5:
        raise ValueError("tail probability must lie in (0, 0.5)")
    return _chi2_quantile(dof, tail, False) / samples, _chi2_quantile(dof, tail, True) / samples


@dataclass(eq=False)
class NesReport:
    """Consistency sweep result for one conversion method."""

    method: ConversionMethod
    sigma_theta_deg: np.ndarray
    avg_nes: np.ndarray
    lower: float
    upper: float
    inside: np.ndarray
    samples: int


def consistency_sweep(
    methods: Sequence[ConversionMethod],
    geometry: SphericalMeasurement,
    noise_base: NoiseSpec,
    sigma_theta_deg: np.ndarray,
    samples: int,
    rng: np.random.Generator,
    tail: float = 0.001,
) -> dict[ConversionMethod, NesReport]:
    """Average NES of conversion errors across a bearing-noise sweep.

    ``geometry`` is the fixed true spherical point. For each grid value the
    bearing noise is set accordingly and ``samples`` noisy measurements are
    drawn and converted once; that one draw is then scored under every
    method in ``methods``, against the method's hypothesized moments
    evaluated at the measured values, which one moment pass gives for all
    the methods together, from the same bearing cosines and sines as the
    converted measurement. The error vector stacks the converted position
    components and the pseudo-measurement (d = 3 for a 2D radar, 4 in 3D),
    and each sample's NES comes from the LDL^T kernel the conversion's PSD
    screen uses, on the kernel's entries-first arrays. The draws do not
    depend on ``methods``, so a method's report equals the one a sweep of
    that method alone gives on a generator in the same state. Returns one :class:`NesReport` per
    method. Raises :class:`DegenerateCovarianceError` by the conversion's
    one rule (``conversion._raise_if_no_stats``) if the true range or a
    drawn one is not positive, naming the grid value and how many draws
    are, or if a hypothesized covariance is indefinite beyond rounding,
    and also if one is singular.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError("need at least one conversion method")
    grid = np.asarray(sigma_theta_deg, dtype=float)
    if grid.size == 0:
        raise ValueError("sweep grid must not be empty")
    _raise_if_no_stats(geometry.r)
    dim = geometry.dim
    idx = _IDX_2D if dim == 2 else np.arange(4)
    truth = _cart(geometry.r, geometry.theta, geometry.phi, geometry.rdot)[idx, None]
    lower, upper = chi_square_bounds(dim + 1, samples, tail)

    averages = {method: np.empty(grid.size) for method in methods}
    for i, sig_deg in enumerate(grid):
        noise = replace(noise_base, sigma_theta=np.deg2rad(sig_deg))
        draws = _noise_matrix(noise, samples, rng)
        rm = geometry.r + draws[0]
        low = rm.min()
        if not low > 0:  # a drawn range that is not positive is no measurement
            bad = np.count_nonzero(~(rm > 0))
            where = f"sigma_theta {sig_deg:g} deg, {bad} of {samples} draws: "
            _raise_if_no_stats(low, where=where)
        thm = geometry.theta + draws[1]
        phm = geometry.phi + draws[2]
        rdm = geometry.rdot + draws[3]
        ok, conv, mus, covs = _stats_batch(methods, rm, thm, phm, rdm, noise, dim)
        _raise_if_no_stats(geometry.r, ok)
        errors = conv - truth
        quad = _quad_form(covs, errors[..., None] - mus, "a per-sample covariance")
        for k, method in enumerate(methods):
            averages[method][i] = quad[:, k].mean()

    return {
        method: NesReport(
            method=method,
            sigma_theta_deg=grid,
            avg_nes=avg,
            lower=lower,
            upper=upper,
            inside=(avg >= lower) & (avg <= upper),
            samples=samples,
        )
        for method, avg in averages.items()
    }


@dataclass(eq=False)
class RmseReport:
    """Per-step position RMSE for each filter variant over an ensemble."""

    steps: np.ndarray
    rmse: dict[str, np.ndarray]


def rmse(ens: Ensemble) -> RmseReport:
    """Ensemble position RMSE per step.

    Scores each run against its own truth trajectory. Estimates start after
    the two scans consumed by two-point differencing initialization.
    """
    runs, steps, n = ens.truth.shape
    p = n // 2
    err = ens.means[..., :p] - ens.truth[:, None, INIT_SCANS:, :p]
    # the coordinates and then the runs are summed in order, as loops over
    # them would, whatever the memory layout of the means
    sq = err[..., 0] ** 2
    for i in range(1, p):
        sq = sq + err[..., i] ** 2
    mean_sq = np.sum(np.ascontiguousarray(sq), axis=0) / runs
    return RmseReport(
        steps=np.arange(INIT_SCANS, steps),
        rmse={v.name: np.sqrt(mean_sq[i]) for i, v in enumerate(ens.variants)},
    )


@dataclass(eq=False)
class NeesReport:
    """Average state-estimate NEES per step (library diagnostic)."""

    steps: np.ndarray
    nees: dict[str, np.ndarray]
    lower: float
    upper: float


def nees(ens: Ensemble, tail: float = 0.001) -> NeesReport:
    """Average normalized state-estimate error squared per step.

    Scores each run's full state error against the filter's reported
    covariance; a consistent filter stays inside the chi-square interval for
    ``n`` degrees of freedom per run.
    """
    runs, steps, n = ens.truth.shape
    lower, upper = chi_square_bounds(n, runs, tail)
    # one batched quadratic form over every (step, run, variant), on views in
    # the filter's own scan-major layout, entries first and (run, variant)
    # rows contiguous; the runs are then summed in order along axis 0, as a
    # loop over them would
    covs = ens.covs.transpose(3, 4, 2, 0, 1)
    err = ens.means.transpose(3, 2, 0, 1) - ens.truth[:, None, INIT_SCANS:].transpose(3, 2, 0, 1)
    quad = _quad_form(covs, err, "a filter covariance")
    avg = np.sum(np.ascontiguousarray(quad.transpose(1, 2, 0)), axis=0) / runs
    return NeesReport(
        steps=np.arange(INIT_SCANS, steps),
        nees={v.name: avg[i] for i, v in enumerate(ens.variants)},
        lower=lower,
        upper=upper,
    )
