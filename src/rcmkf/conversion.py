"""Spherical-to-Cartesian measurement conversion and its error statistics.

The radar reports ``(r, theta, phi, rdot)``. Position converts through the
exact trigonometric map; the range-rate enters through the pseudo-measurement
``eta = r * rdot``, which is quadratic (rather than strongly nonlinear) in
the Cartesian state. Two families of converted-error statistics are
provided:

* measurement-conditioned (``unbiased_stats``): mean and covariance of the
  conversion error conditioned directly on the noisy measurement, using the
  exact Gaussian attenuation factors ``E[cos(angle noise)] = exp(-sigma^2/2)``.
* nested-conditioning (``nested_stats``): the two-stage construction that
  first conditions on the ideal (noise-free) measurement and then averages
  that result over the noise distribution. ``nested_stats_numeric`` is the
  defining sample-average form and is the reference implementation; the
  closed form is algebraically reduced from it and validated against it.

``mc_moment_oracle`` estimates the measurement-conditioned moments by brute
force (reconstructing hypothetical truths ``Z_m - noise``) and is the ground
truth the closed forms are tested against. See FORMULA_NOTES.md for the
places where this implementation deviates from variants of these formulas
that circulate with typographical slips.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError
from .scenario import NoiseSpec, SphericalMeasurement, _noise_matrix

__all__ = [
    "ConversionMethod",
    "ConvertedMeasurement",
    "LambdaFactors",
    "OracleMoments",
    "convert",
    "convert_position",
    "convert_pseudo",
    "lambda_factors",
    "mc_moment_oracle",
    "nested_stats",
    "nested_stats_numeric",
    "truth_conditioned_stats",
    "unbiased_stats",
]

# Index map that drops the z row/column when collapsing 4-dim (x, y, z, eta)
# statistics to the 2D (x, y, eta) form.
_IDX_2D = np.array([0, 1, 3])


class ConversionMethod(enum.Enum):
    MEASUREMENT_CONDITIONED = "measurement_conditioned"
    NESTED_CONDITIONING = "nested_conditioning"


@dataclass(frozen=True)
class LambdaFactors:
    """Gaussian angle-noise attenuation factors.

    ``lam_theta = E[cos(theta noise)] = exp(-sigma_theta^2 / 2)`` and
    ``lam_theta2 = E[cos(2 * theta noise)] = exp(-2 sigma_theta^2)``
    (= ``lam_theta**4``), likewise for the elevation angle. All equal 1
    exactly when the corresponding sigma is zero.
    """

    lam_theta: float
    lam_theta2: float
    lam_phi: float
    lam_phi2: float


def lambda_factors(noise: NoiseSpec) -> LambdaFactors:
    """Closed-form attenuation factors for a noise spec."""
    return LambdaFactors(
        lam_theta=math.exp(-0.5 * noise.sigma_theta**2),
        lam_theta2=math.exp(-2.0 * noise.sigma_theta**2),
        lam_phi=math.exp(-0.5 * noise.sigma_phi**2),
        lam_phi2=math.exp(-2.0 * noise.sigma_phi**2),
    )


def convert_position(m: SphericalMeasurement) -> np.ndarray:
    """Cartesian position ``(x, y, z)`` of a spherical measurement.

    ``x = r cos(phi) cos(theta)``, ``y = r cos(phi) sin(theta)``,
    ``z = r sin(phi)``; for a 2D measurement phi is treated as zero and the
    returned z is 0.
    """
    phi = m.phi if m.dim == 3 else 0.0
    return _cart(m.r, m.theta, phi, m.rdot)[:3]


def convert_pseudo(m: SphericalMeasurement) -> float:
    """Pseudo-measurement ``eta = r * rdot`` (units m^2/s)."""
    return m.r * m.rdot


def _bcast(*vals):
    """Broadcast inputs to a common shape as float arrays (0-d stays 0-d)."""
    return np.broadcast_arrays(*[np.asarray(v, dtype=float) for v in vals])


def _cart(r, theta, phi, rdot):
    """Exact spherical -> (x, y, z, eta) map, broadcasting over arrays."""
    cp = np.cos(phi)
    return np.stack(
        [r * cp * np.cos(theta), r * cp * np.sin(theta), r * np.sin(phi), r * rdot]
    )


def _noiseless(noise: NoiseSpec) -> bool:
    return (
        noise.sigma_r == 0.0
        and noise.sigma_theta == 0.0
        and noise.sigma_phi == 0.0
        and noise.sigma_rdot == 0.0
    )


def _conditioned_moments(rm, theta, phi, rdot, noise: NoiseSpec):
    """Measurement-conditioned error mean/covariance, vectorized.

    Inputs broadcast; returns ``mu`` with shape ``(..., 4)`` and ``cov`` with
    shape ``(..., 4, 4)`` ordered (x, y, z, eta). The entries are the exact
    first two moments of ``converted(Z_m) - cartesian(Z_m - noise)`` over the
    noise distribution, evaluated at the measured values.
    """
    rm, theta, phi, rdot = _bcast(rm, theta, phi, rdot)
    if _noiseless(noise):
        # exact conversion: avoids rounding residue from cancelling r^2 terms
        return np.zeros(rm.shape + (4,)), np.zeros(rm.shape + (4, 4))
    lam = lambda_factors(noise)
    lt, lt2, lp, lp2 = lam.lam_theta, lam.lam_theta2, lam.lam_phi, lam.lam_phi2
    c = noise.rho * noise.sigma_r * noise.sigma_rdot

    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    c2t, s2t = np.cos(2 * theta), np.sin(2 * theta)
    c2p, s2p = np.cos(2 * phi), np.sin(2 * phi)
    r2s = rm**2 + noise.sigma_r**2
    zeros = np.zeros_like(rm)

    mu = np.stack(
        [
            rm * ct * cp * (1.0 - lt * lp),
            rm * st * cp * (1.0 - lt * lp),
            rm * sp * (1.0 - lp),
            zeros - c,
        ],
        axis=-1,
    )

    cov = np.empty(rm.shape + (4, 4))
    cov[..., 0, 0] = -(lt * lp * rm * ct * cp) ** 2 + 0.25 * r2s * (1 + lt2 * c2t) * (1 + lp2 * c2p)
    cov[..., 1, 1] = -(lt * lp * rm * st * cp) ** 2 + 0.25 * r2s * (1 - lt2 * c2t) * (1 + lp2 * c2p)
    cov[..., 2, 2] = -(lp * rm * sp) ** 2 + 0.5 * r2s * (1 - lp2 * c2p)
    cov[..., 0, 1] = -(lt * lp) ** 2 * rm**2 * st * ct * cp**2 + 0.25 * r2s * lt2 * s2t * (1 + lp2 * c2p)
    cov[..., 0, 2] = -lt * lp**2 * rm**2 * ct * sp * cp + 0.5 * r2s * lt * lp2 * ct * s2p
    cov[..., 1, 2] = -lt * lp**2 * rm**2 * st * sp * cp + 0.5 * r2s * lt * lp2 * st * s2p
    # Pseudo-measurement block; q is cov(range error, eta error) stripped of geometry.
    q = noise.sigma_r**2 * rdot + rm * c
    cov[..., 0, 3] = lt * lp * q * cp * ct
    cov[..., 1, 3] = lt * lp * q * cp * st
    cov[..., 2, 3] = lp * q * sp
    cov[..., 3, 3] = (
        rm**2 * noise.sigma_rdot**2
        + noise.sigma_r**2 * rdot**2
        + (1 + noise.rho**2) * noise.sigma_r**2 * noise.sigma_rdot**2
        + 2 * rm * rdot * c
    )
    _mirror_lower(cov)
    return mu, cov


def _truth_moments(r, theta, phi, rdot, noise: NoiseSpec):
    """Error mean/covariance conditioned on the ideal (true) measurement.

    The covariance has the same functional form as the measurement-conditioned
    one (the noise distribution is symmetric under sign flips), evaluated at
    the true values; the bias flips orientation: attenuation pulls the
    converted position toward the origin, and the range/range-rate error
    product contributes ``+rho sigma_r sigma_rdot`` to the pseudo error.
    """
    r, theta, phi, rdot = _bcast(r, theta, phi, rdot)
    lam = lambda_factors(noise)
    lt, lp = lam.lam_theta, lam.lam_phi
    c = noise.rho * noise.sigma_r * noise.sigma_rdot
    mu = np.stack(
        [
            r * np.cos(theta) * np.cos(phi) * (lt * lp - 1.0),
            r * np.sin(theta) * np.cos(phi) * (lt * lp - 1.0),
            r * np.sin(phi) * (lp - 1.0),
            np.zeros_like(r) + c,
        ],
        axis=-1,
    )
    _, cov = _conditioned_moments(r, theta, phi, rdot, noise)
    return mu, cov


def _nested_moments(rm, theta, phi, rdot, noise: NoiseSpec):
    """Closed-form two-stage (nested-conditioning) moments, vectorized.

    Obtained by averaging the truth-conditioned moments over reconstructed
    truths ``Z_m - noise`` using the Gaussian product identities; every
    attenuation factor therefore appears squared relative to the
    measurement-conditioned form, and the range variance enters twice.
    """
    rm, theta, phi, rdot = _bcast(rm, theta, phi, rdot)
    if _noiseless(noise):
        return np.zeros(rm.shape + (4,)), np.zeros(rm.shape + (4, 4))
    lam = lambda_factors(noise)
    lt, lt2, lp, lp2 = lam.lam_theta, lam.lam_theta2, lam.lam_phi, lam.lam_phi2
    sr2 = noise.sigma_r**2
    srd2 = noise.sigma_rdot**2
    c = noise.rho * noise.sigma_r * noise.sigma_rdot

    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    c2t, s2t = np.cos(2 * theta), np.sin(2 * theta)
    c2p, s2p = np.cos(2 * phi), np.sin(2 * phi)
    r2s = rm**2 + sr2
    r22s = rm**2 + 2 * sr2

    mu = np.stack(
        [
            lt * lp * (lt * lp - 1.0) * rm * ct * cp,
            lt * lp * (lt * lp - 1.0) * rm * st * cp,
            lp * (lp - 1.0) * rm * sp,
            np.zeros_like(rm) + c,
        ],
        axis=-1,
    )

    cov = np.empty(rm.shape + (4, 4))
    cov[..., 0, 0] = 0.25 * r22s * (1 + lt2**2 * c2t) * (1 + lp2**2 * c2p) \
        - 0.25 * (lt * lp) ** 2 * r2s * (1 + lt2 * c2t) * (1 + lp2 * c2p)
    cov[..., 1, 1] = 0.25 * r22s * (1 - lt2**2 * c2t) * (1 + lp2**2 * c2p) \
        - 0.25 * (lt * lp) ** 2 * r2s * (1 - lt2 * c2t) * (1 + lp2 * c2p)
    cov[..., 2, 2] = 0.5 * r22s * (1 - lp2**2 * c2p) - 0.5 * lp**2 * r2s * (1 - lp2 * c2p)
    cov[..., 0, 1] = 0.25 * r22s * lt2**2 * s2t * (1 + lp2**2 * c2p) \
        - 0.25 * (lt * lp) ** 2 * r2s * lt2 * s2t * (1 + lp2 * c2p)
    cov[..., 0, 2] = 0.5 * lt**2 * lp2**2 * r22s * ct * s2p - 0.5 * lt**2 * lp**2 * lp2 * r2s * ct * s2p
    cov[..., 1, 2] = 0.5 * lt**2 * lp2**2 * r22s * st * s2p - 0.5 * lt**2 * lp**2 * lp2 * r2s * st * s2p
    q = sr2 * rdot + rm * c
    cov[..., 0, 3] = lt**2 * lp**2 * q * cp * ct
    cov[..., 1, 3] = lt**2 * lp**2 * q * cp * st
    cov[..., 2, 3] = lp**2 * q * sp
    cov[..., 3, 3] = rm**2 * srd2 + rdot**2 * sr2 + 3 * (1 + noise.rho**2) * sr2 * srd2 \
        + 2 * c * rm * rdot
    _mirror_lower(cov)
    return mu, cov


def _mirror_lower(cov: np.ndarray) -> None:
    """Fill the strict lower triangle from the upper one, in place."""
    for i in range(1, 4):
        for j in range(i):
            cov[..., i, j] = cov[..., j, i]


def _finalize(
    mu: np.ndarray,
    cov: np.ndarray,
    dim: int,
    psd_tol: float = 1e-9,
    abs_scale=0.0,
    per_item: bool = False,
):
    """Collapse to the 2D form if needed and enforce positive semidefiniteness.

    Eigenvalues inside the rounding band are clamped to zero; anything more
    negative signals an invalid noise regime. ``abs_scale`` carries the
    magnitude of the cancelling assembly terms (about r^2), whose rounding
    residue is invisible to the trace-relative tolerance when the entries
    nearly vanish.

    By default an indefinite item raises :class:`DegenerateCovarianceError`
    and a clamp rebuilds every item of the batch from its eigenpairs. With
    ``per_item`` the items are independent measurements: ``abs_scale`` may
    be one value per item, only the items with a negative eigenvalue are
    rebuilt, and ``(mu, cov, ok)`` is returned with ``ok`` false where an
    item is indefinite instead of raising.
    """
    if dim == 2:
        mu = mu[..., _IDX_2D]
        cov = cov[..., _IDX_2D[:, None], _IDX_2D[None, :]]
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    w, v = np.linalg.eigh(cov)
    tol = psd_tol * np.maximum(np.trace(cov, axis1=-2, axis2=-1), 0.0) + 1e-12 * abs_scale
    lowest = w[..., 0]  # eigh returns the eigenvalues in ascending order
    ok = ~(lowest < -tol)
    if per_item:
        rebuild = (lowest < 0) & ok
        if np.any(rebuild):
            v, w = v[rebuild], np.maximum(w[rebuild], 0.0)
            fixed = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
            cov[rebuild] = 0.5 * (fixed + np.swapaxes(fixed, -1, -2))
        return mu, cov, ok
    if not np.all(ok):
        raise DegenerateCovarianceError(
            "assembled conversion covariance is indefinite beyond tolerance"
        )
    if np.any(lowest < 0):
        w = np.maximum(w, 0.0)
        cov = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
        cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    return mu, cov


def _assembly_scale(rm, noise: NoiseSpec) -> float:
    return float(np.max(np.asarray(rm) ** 2)) + noise.sigma_r**2


def _stats_batch(
    method: ConversionMethod, rm, theta, phi, rdot, noise: NoiseSpec, dim: int, per_item: bool = False
):
    """Vectorized (mu, cov) for a batch of measurements, already collapsed.

    The default treats the batch as one sample (the consistency sweep): one
    rounding tolerance from the largest range, and an indefinite item
    raises. ``per_item`` treats each item as its own measurement, as a
    filter does: each gets its own tolerance and ``(mu, cov, ok)`` flags the
    indefinite ones (see :func:`_finalize`).
    """
    if method is ConversionMethod.MEASUREMENT_CONDITIONED:
        mu, cov = _conditioned_moments(rm, theta, phi, rdot, noise)
    else:
        mu, cov = _nested_moments(rm, theta, phi, rdot, noise)
    scale = np.asarray(rm) ** 2 + noise.sigma_r**2 if per_item else _assembly_scale(rm, noise)
    return _finalize(mu, cov, dim, abs_scale=scale, per_item=per_item)


def unbiased_stats(m: SphericalMeasurement, noise: NoiseSpec):
    """Measurement-conditioned error mean and covariance of one conversion.

    Returns ``(mu, cov)`` of size 4 / 4x4 in 3D and 3 / 3x3 in 2D (the z
    row/column collapses exactly when ``phi = 0`` and ``sigma_phi = 0``).
    """
    phi = m.phi if m.dim == 3 else 0.0
    mu, cov = _conditioned_moments(m.r, m.theta, phi, m.rdot, noise)
    return _finalize(mu, cov, m.dim, abs_scale=_assembly_scale(m.r, noise))


def nested_stats(m: SphericalMeasurement, noise: NoiseSpec):
    """Nested-conditioning error mean and covariance (closed form).

    Same shape conventions as :func:`unbiased_stats`. The closed form is the
    analytic reduction of :func:`nested_stats_numeric` and agrees with it to
    well under half a percent per entry.
    """
    phi = m.phi if m.dim == 3 else 0.0
    mu, cov = _nested_moments(m.r, m.theta, phi, m.rdot, noise)
    return _finalize(mu, cov, m.dim, abs_scale=_assembly_scale(m.r, noise))


def truth_conditioned_stats(m: SphericalMeasurement, noise: NoiseSpec):
    """First-stage statistics: error moments conditioned on the ideal values.

    ``m`` is interpreted as the *true* spherical point. Returned in the full
    (x, y, z, eta) form regardless of ``dim``; used by the numeric nested
    reference and directly testable against a fixed-truth Monte Carlo.
    """
    phi = m.phi if m.dim == 3 else 0.0
    return _truth_moments(m.r, m.theta, phi, m.rdot, noise)


def nested_stats_numeric(
    m: SphericalMeasurement,
    noise: NoiseSpec,
    samples: int = 200_000,
    rng: np.random.Generator | None = None,
):
    """Reference two-stage statistics by explicit sample averaging.

    Draws noise vectors, reconstructs hypothetical truths ``Z_m - noise``,
    evaluates the truth-conditioned moments there and averages them. This is
    the defining form of the nested-conditioning construction; the closed
    form in :func:`nested_stats` must match it.
    """
    if samples < 100_000:
        raise ValueError("the nested reference needs at least 1e5 draws")
    rng = np.random.default_rng(0) if rng is None else rng
    phi = m.phi if m.dim == 3 else 0.0
    draws = _noise_matrix(noise, samples, rng)
    mu_t, cov_t = _truth_moments(
        m.r - draws[0], m.theta - draws[1], phi - draws[2], m.rdot - draws[3], noise
    )
    mu = mu_t.mean(axis=0)
    cov = cov_t.mean(axis=0)
    return _finalize(mu, cov, m.dim, abs_scale=_assembly_scale(m.r, noise))


@dataclass(frozen=True, eq=False)
class OracleMoments:
    """Brute-force moment estimates with per-entry standard errors."""

    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray
    se_cov: np.ndarray
    samples: int


def mc_moment_oracle(
    m: SphericalMeasurement,
    noise: NoiseSpec,
    samples: int,
    rng: np.random.Generator,
    batch: int = 1_000_000,
) -> OracleMoments:
    """Brute-force estimate of the measurement-conditioned moments.

    For each draw the hypothetical truth ``Z = Z_m - noise`` is reconstructed
    and the conversion error ``converted(Z_m) - cartesian(Z)`` accumulated;
    the sample mean and covariance estimate the measurement-conditioned
    moments under the diffuse-prior reading. Standard errors of the
    covariance entries come from the sample variance of the centered
    products. Results are deterministic given the generator state.
    """
    if samples < 10_000:
        raise ValueError("oracle needs at least 1e4 samples")
    phi = m.phi if m.dim == 3 else 0.0
    converted = _cart(m.r, m.theta, phi, m.rdot)

    # Pilot center keeps the accumulated products small; the recentering at
    # the end is exact for the mean and covariance.
    pilot = _noise_matrix(noise, min(batch, samples), rng)
    errs = converted[:, None] - _cart(
        m.r - pilot[0], m.theta - pilot[1], phi - pilot[2], m.rdot - pilot[3]
    )
    center = errs.mean(axis=1)

    n_done = 0
    sum_c = np.zeros(4)
    sum_cc = np.zeros((4, 4))
    sum_cc_sq = np.zeros((4, 4))

    def accumulate(block: np.ndarray) -> None:
        nonlocal n_done, sum_c, sum_cc, sum_cc_sq
        centered = block - center[:, None]
        sum_c += centered.sum(axis=1)
        sum_cc += centered @ centered.T
        prods = centered[:, None, :] * centered[None, :, :]
        sum_cc_sq += (prods**2).sum(axis=2)
        n_done += block.shape[1]

    accumulate(errs)
    while n_done < samples:
        k = min(batch, samples - n_done)
        d = _noise_matrix(noise, k, rng)
        block = converted[:, None] - _cart(m.r - d[0], m.theta - d[1], phi - d[2], m.rdot - d[3])
        accumulate(block)

    mean_c = sum_c / n_done
    mean = center + mean_c
    cov = (sum_cc / n_done - np.outer(mean_c, mean_c)) * (n_done / (n_done - 1))
    var_prod = sum_cc_sq / n_done - (sum_cc / n_done) ** 2
    se_cov = np.sqrt(np.maximum(var_prod, 0.0) / n_done)
    se_mean = np.sqrt(np.maximum(np.diag(cov), 0.0) / n_done)

    if m.dim == 2:
        idx = _IDX_2D
        mean, cov = mean[idx], cov[np.ix_(idx, idx)]
        se_mean, se_cov = se_mean[idx], se_cov[np.ix_(idx, idx)]
    return OracleMoments(mean=mean, cov=cov, se_mean=se_mean, se_cov=se_cov, samples=n_done)


@dataclass(frozen=True, eq=False)
class ConvertedMeasurement:
    """Cartesian position + pseudo-measurement with hypothesized error stats.

    ``mu``/``cov`` are the selected method's error mean and covariance for
    the stacked vector (position..., eta); their size is ``dim + 1``. A
    batch of conversions carries the same leading axes on every field and
    is indexed along them with ``z[key]``.
    """

    position: np.ndarray
    pseudo: float
    mu: np.ndarray
    cov: np.ndarray
    dim: int

    def __getitem__(self, key) -> "ConvertedMeasurement":
        return ConvertedMeasurement(
            self.position[key], self.pseudo[key], self.mu[key], self.cov[key], self.dim
        )


def convert(
    m: SphericalMeasurement,
    noise: NoiseSpec,
    method: ConversionMethod = ConversionMethod.MEASUREMENT_CONDITIONED,
) -> ConvertedMeasurement:
    """Convert one measurement and attach the method's error statistics."""
    stats = unbiased_stats if method is ConversionMethod.MEASUREMENT_CONDITIONED else nested_stats
    mu, cov = stats(m, noise)
    return ConvertedMeasurement(
        position=convert_position(m)[: m.dim],
        pseudo=convert_pseudo(m),
        mu=mu,
        cov=cov,
        dim=m.dim,
    )


def _convert_batch(meas: np.ndarray, noise: NoiseSpec, methods, dim: int):
    """Convert ``(..., 4)`` rows of ``(r, theta, phi, rdot)`` under several methods.

    Returns ``(z, ok)``: a :class:`ConvertedMeasurement` whose leading axes
    are ``meas.shape[:-1] + (len(methods),)``, and the mask of conversions
    whose statistics are positive semidefinite. Each item is finalized on
    its own, as :func:`convert` does one measurement, so an indefinite item
    flags only itself.
    """
    r, theta, phi, rdot = np.moveaxis(np.asarray(meas, dtype=float), -1, 0)
    if dim == 2:
        phi = np.zeros_like(r)
    cart = _cart(r, theta, phi, rdot)
    stats = [_stats_batch(m, r, theta, phi, rdot, noise, dim, per_item=True) for m in methods]
    shape = r.shape + (len(methods),)
    position = np.moveaxis(cart[:dim], 0, -1)
    z = ConvertedMeasurement(
        position=np.broadcast_to(position[..., None, :], shape + (dim,)),
        pseudo=np.broadcast_to(cart[3][..., None], shape),
        mu=np.stack([mu for mu, _, _ in stats], axis=-2),
        cov=np.stack([cov for _, cov, _ in stats], axis=-3),
        dim=dim,
    )
    return z, np.stack([ok for _, _, ok in stats], axis=-1)
