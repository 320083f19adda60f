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

Both closed forms (and the truth-conditioned first stage) come from one
kernel, ``_moments``, which derives every entry from the attenuated position
second moment ``E[p p^T]``. One pass computes the cosines and sines of the
bearing (and, in 3D only, of the elevation) once, and both the converted
vector (x, y, [z], eta) and every requested method's statistics are built
from them, in the radar's own dimension: (x, y, eta) and 3x3 for a 2D radar,
with no elevation terms. ``_finalize`` then enforces positive
semidefiniteness item by item: a vectorized LDL^T screen
passes the items that are certainly positive definite, and only the rest go
through an eigendecomposition that clamps rounding negatives and flags
indefinite items. Every conversion, one measurement or a batch, goes
through ``_stats_batch``. The screen's batched LDL^T elimination, ``_ldl``,
is the one elimination of the library, for every symmetric system: it also
gives the quadratic forms ``e^T C^{-1} e`` of the NES and NEES statistics
in ``rcmkf.evaluation``, and its multipliers and last pivot decorrelate the
filter's pseudo-measurement. Only the filter's gain runs its own copy of
these operations, in the same order: ``rcmkf.filtering._update_position``
binds them once on its workspace's buffers (that module says why the two
stay apart).

A single point has no conversion statistics when its range is not positive
(NaN included), which is no measurement, or else when a conversion
covariance of it is indefinite beyond rounding. ``_raise_if_no_stats`` is
the one wording of that rule, and every single-point entry raises
:class:`DegenerateCovarianceError` through it: ``convert``,
``unbiased_stats`` and ``nested_stats``; their references
``truth_conditioned_stats``, ``nested_stats_numeric`` and
``mc_moment_oracle``; and ``rcmkf.evaluation.consistency_sweep``, at its
true point. A batch flags such items in its ``ok`` mask instead.

The kernel works entries first: a batch of vectors is ``(d,) + items`` and
a batch of matrices ``(d, d) + items``, so each entry is one contiguous row
over the items. Item-major ``(..., d, d)`` arrays are built only where a
matrix product or LAPACK needs them: the filter's ``ConvertedMeasurement``,
the items ``_finalize`` sends to ``eigh``, and the single-measurement
functions.

``mc_moment_oracle`` estimates the measurement-conditioned moments by brute
force (reconstructing hypothetical truths ``Z_m - noise``) and is the ground
truth the closed forms are tested against. It is a pipeline whose one unit
of work is a block of draws: the calling thread only draws the next block
of standard normals, while one worker thread turns each drawn block, in
order, into its errors and product sums, which the caller adds in block
order. Its docstring states its memory. See FORMULA_NOTES.md for the
places where this implementation deviates from variants of these formulas
that circulate with typographical slips.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError
from .scenario import NoiseSpec, SphericalMeasurement, _check_dim, _check_no_2d_elevation
from .scenario import _noise_matrix, _scale_noise

__all__ = [
    "ConversionMethod",
    "ConvertedMeasurement",
    "OracleMoments",
    "convert",
    "mc_moment_oracle",
    "nested_stats",
    "nested_stats_numeric",
    "truth_conditioned_stats",
    "unbiased_stats",
]

# Index map that drops the z row/column of (x, y, z, eta) quantities, giving
# the 2D (x, y, eta) form of the oracle's tables and of the sweep's true point.
_IDX_2D = np.array([0, 1, 3])


class ConversionMethod(enum.Enum):
    MEASUREMENT_CONDITIONED = "measurement_conditioned"
    NESTED_CONDITIONING = "nested_conditioning"


def _fields(m: SphericalMeasurement):
    """``(r, theta, phi, rdot)`` of a measurement; phi is zero for a 2D radar."""
    return m.r, m.theta, m.phi, m.rdot


def _bcast(*vals):
    """Broadcast inputs to a common shape as float arrays (0-d stays 0-d)."""
    return np.broadcast_arrays(*[np.asarray(v, dtype=float) for v in vals])


def _cart(r, theta, phi, rdot, out=None):
    """Exact spherical -> (x, y, z, eta) map, broadcasting over arrays.

    Writes into ``out`` of shape ``(4,) + broadcast shape`` when given (it
    must not overlap the inputs) and returns it.
    """
    if out is None:
        out = np.empty((4,) + np.broadcast_shapes(*map(np.shape, (r, theta, phi, rdot))))
    x, y, z, eta = (out[i, ...] for i in range(4))
    rcp = np.multiply(r, np.cos(phi, out=z), out=z)
    np.multiply(rcp, np.cos(theta, out=x), out=x)
    np.multiply(rcp, np.sin(theta, out=y), out=y)
    np.multiply(r, np.sin(phi, out=z), out=z)
    np.multiply(r, rdot, out=eta)
    return out


def _noiseless(noise: NoiseSpec) -> bool:
    return (
        noise.sigma_r == 0.0
        and noise.sigma_theta == 0.0
        and noise.sigma_phi == 0.0
        and noise.sigma_rdot == 0.0
    )


# Upper-triangle entries of the position block by dimension, in the order
# :func:`_second_moment` returns them.
_PAIRS = {
    2: ((0, 0), (0, 1), (1, 1)),
    3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
}


def _second_moment(a, b, s, trig):
    """``E[p p^T]`` of the attenuated position, as its ``_PAIRS`` entries.

    ``p = r (cos phi cos theta, cos phi sin theta, sin phi)`` with Gaussian
    angle noise that attenuates the bearing cosines by ``a`` and the
    elevation cosines by ``b`` (so the doubled angles by ``a**4`` and
    ``b**4``), and ``s = E[r^2]``. ``trig`` holds the shared terms
    ``(cos theta, sin theta, cos 2theta, sin 2theta, cos 2phi, sin 2phi)``;
    without the last two it is the 2D form, ``phi = 0`` and ``b = 1``, where
    ``e`` below is exactly ``0.5 * s`` and only the (x, y) entries remain.
    """
    ct, st, c2t, s2t = trig[:4]
    a4c2t = a**4 * c2t
    if len(trig) == 4:
        e = 0.5 * s
        return e * (1.0 + a4c2t), e * (a**4 * s2t), e * (1.0 - a4c2t)
    c2p, s2p = trig[4:]
    b4c2p = b**4 * c2p
    e = 0.25 * s * (1.0 + b4c2p)
    h = (0.5 * a * b**4) * s * s2p
    return (
        e * (1.0 + a4c2t),
        e * (a**4 * s2t),
        h * ct,
        e * (1.0 - a4c2t),
        h * st,
        0.5 * s * (1.0 - b4c2p),
    )


def _moments(methods, rm, theta, phi, rdot, noise: NoiseSpec, dim: int):
    """Conversion and its error mean/covariance under each of ``methods``, vectorized.

    Inputs broadcast to the item shape ``items``. Returns ``(conv, mu,
    cov)`` entries first: the converted vector ``conv`` with shape ``(dim +
    1,) + items``, ``mu`` with shape ``(dim + 1,) + items + (len(methods),)``
    and ``cov`` with shape ``(dim + 1, dim + 1) + items + (len(methods),)``,
    ordered (x, y, z, eta) in 3D and (x, y, eta) in 2D, symmetric by
    construction. ``conv`` is :func:`_cart`'s map, from the same cosines
    and sines as the moments. The trigonometry, the attenuations and the
    conditioned second moment are computed once and shared by the methods.
    ``dim`` is 2 or 3 (``scenario._check_dim``). A 2D radar measures no
    elevation: ``phi`` is not read (no elevation trigonometry; ``r *
    cos(0)`` is exactly ``r``), and an elevation noise is rejected.

    With ``u`` the unit direction, ``d = (Lt Lp, Lt Lp, Lp)`` the
    attenuation of its components (2D: ``(Lt, Lt)``), ``D = diag(d)`` and
    ``S`` the attenuated second moment (:func:`_second_moment`), the
    position block is

    * measurement-conditioned: ``S(Lt, Lp, r^2 + s_r^2) - m m^T`` with
      ``m = r d*u``, the exact moments of ``converted(Z_m) -
      cartesian(Z_m - noise)`` evaluated at the measured values;
    * nested: ``S(Lt^2, Lp^2, r^2 + 2 s_r^2) - D S(Lt, Lp, r^2 + s_r^2) D``,
      the truth-conditioned moments averaged over the truths ``Z_m -
      noise``; the doubled noise squares every attenuation and counts the
      range variance twice.

    The pseudo column is ``d*q*u`` (nested: ``d^2*q*u``) and the eta variance
    carries ``(1 + rho^2) s_r^2 s_d^2`` once (nested: three times). The mean
    is ``r u*(1 - d)`` with ``-rho s_r s_d`` for eta (nested:
    ``r u*d*(d - 1)`` with ``+rho s_r s_d``).
    """
    _check_dim(dim)
    _check_no_2d_elevation(dim, "sigma_phi", noise.sigma_phi)
    rm, theta, phi, rdot = _bcast(rm, theta, phi, rdot)
    shape = rm.shape + (len(methods),)
    ct, st = np.cos(theta), np.sin(theta)
    conv = np.empty((dim + 1,) + rm.shape)
    if dim == 3:
        cp, sp = np.cos(phi), np.sin(phi)
        rcp = rm * cp
        np.multiply(rcp, ct, out=conv[0, ...])
        np.multiply(rcp, st, out=conv[1, ...])
        np.multiply(rm, sp, out=conv[2, ...])
    else:
        np.multiply(rm, ct, out=conv[0, ...])
        np.multiply(rm, st, out=conv[1, ...])
    np.multiply(rm, rdot, out=conv[dim, ...])
    if _noiseless(noise):
        # exact conversion: avoids rounding residue from cancelling r^2 terms
        return conv, np.zeros((dim + 1,) + shape), np.zeros((dim + 1, dim + 1) + shape)
    lt = math.exp(-0.5 * noise.sigma_theta**2)  # E[cos(bearing noise)]
    lp = math.exp(-0.5 * noise.sigma_phi**2)  # E[cos(elevation noise)]
    sr2, srd2 = noise.sigma_r**2, noise.sigma_rdot**2
    c = noise.rho * noise.sigma_r * noise.sigma_rdot

    trig = (ct, st, np.cos(2 * theta), np.sin(2 * theta))
    if dim == 3:
        trig += (np.cos(2 * phi), np.sin(2 * phi))
        u = (cp * ct, cp * st, sp)
        d = (lt * lp, lt * lp, lp)
        ru = [rm * ui for ui in u]
    else:
        u, d = (ct, st), (lt, lt)
        ru = conv[:2]  # r * cos(theta), r * sin(theta)
    rm2 = rm**2
    r2s = rm2 + sr2
    conditioned = _second_moment(lt, lp, r2s, trig)
    # Pseudo-measurement block; q is cov(range error, eta error) stripped of geometry.
    q = sr2 * rdot + rm * c
    eta_base = rm2 * srd2 + sr2 * rdot**2
    eta_cross = 2 * rm * rdot * c
    mu = np.empty((dim + 1,) + shape)
    cov = np.empty((dim + 1, dim + 1) + shape)
    for slot, method in enumerate(methods):
        mu_n, cov_n = mu[..., slot], cov[..., slot]
        # each entry's last operation writes into its slot: a separate strided
        # copy would cost more than the arithmetic
        if method is ConversionMethod.MEASUREMENT_CONDITIONED:
            m = [rm * di * ui for di, ui in zip(d, u)]
            for (i, j), s in zip(_PAIRS[dim], conditioned):
                np.subtract(s, m[i] * m[j], out=cov_n[i, j, ...])
            shrink, cross, k, eta_bias = [1.0 - di for di in d], d, 1.0, -c
        else:
            doubled = _second_moment(lt**2, lp**2, r2s + sr2, trig)
            for (i, j), s, s2 in zip(_PAIRS[dim], conditioned, doubled):
                np.subtract(s2, (d[i] * d[j]) * s, out=cov_n[i, j, ...])
            shrink, cross, k, eta_bias = [di * (di - 1.0) for di in d], [di**2 for di in d], 3.0, c
        for i in range(dim):
            np.multiply(ru[i], shrink[i], out=mu_n[i, ...])
            np.multiply(cross[i] * q, u[i], out=cov_n[i, dim, ...])
        mu_n[dim] = eta_bias
        np.add(eta_base + k * (1 + noise.rho**2) * sr2 * srd2, eta_cross, out=cov_n[dim, dim, ...])
    for i in range(1, dim + 1):  # the lower triangle mirrors the upper
        for j in range(i):
            cov[i, j] = cov[j, i]
    return conv, mu, cov


# Screen margin of ``_finalize``. An item whose shifted matrix
# ``A - margin * trace(A) * I`` has positive LDL^T pivots has its lowest
# eigenvalue above about ``margin * trace``, far above the ~1e-16 * |A|
# rounding of ``eigh``, so ``eigh`` would find no negative eigenvalue and
# leave it unchanged. Conversion covariances have a lowest eigenvalue of
# about 2e-6 of their trace.
_SCREEN_MARGIN = 1e-8
# Rounding band of the eigenvalue check in ``_finalize``, relative to the trace.
_PSD_TOL = 1e-9


def _factor(a: list, mult: list) -> None:
    """LDL^T elimination, without pivoting, of the lower triangle ``a[i][j]``, ``j <= i``.

    Column by column the multiplier ``L[i, k] = a[i][k] / a[k][k]`` goes
    into ``mult[i][k]`` and each later entry becomes the new array ``a[i][j]
    - L[i, k] a[j][k]``, so the diagonal ends as the pivots.
    """
    n = len(a)
    for k in range(n):
        for i in range(k + 1, n):
            mult[i][k] = a[i][k] / a[k][k]
            for j in range(k + 1, i + 1):
                a[i][j] = a[i][j] - mult[i][k] * a[j][k]


def _forward(mult: list, y: list) -> None:
    """``y <- L^-1 y`` for the multipliers of :func:`_factor`, in new arrays."""
    for k in range(len(y)):
        for i in range(k + 1, len(y)):
            y[i] = y[i] - mult[i][k] * y[k]


def _back(mult: list, x: list, tmp) -> None:
    """``x <- L^-T x`` in the leading ``len(x)`` columns, in place through the scratch ``tmp``."""
    for c in reversed(range(len(x))):
        for i in range(c + 1, len(x)):
            np.subtract(x[c], np.multiply(mult[i][c], x[i], out=tmp), out=x[c])


def _ldl(cov: np.ndarray, e: np.ndarray | None = None, shift=0.0):
    """Batched LDL^T elimination of symmetric matrices, entries first.

    ``cov`` is ``(n, n) + items``: ``cov[i, j]`` holds entry (i, j) of every
    item. Eliminates every item of ``cov - shift * I`` at once
    (:func:`_factor`; ``shift`` broadcasts against the items). Returns
    ``(pivots, mult, quad)``: the ``n`` pivots ``d_k``, each shaped like the
    items; the multipliers ``mult[i][k] = L[i, k]``, ``k < i``; and, given a
    right-hand side ``e`` (``(n,) + items``, broadcasting against the
    items), the quadratic form ``e^T (cov - shift * I)^{-1} e = sum_k
    (L^{-1} e)_k^2 / d_k``, else None. There is no pivoting and no check: a
    zero, negative or non-finite pivot is returned as computed, and the
    caller decides what it means.
    """
    n = cov.shape[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = [[cov[i, j] for j in range(i)] + [cov[i, i] - shift] for i in range(n)]
        mult = [[None] * i for i in range(n)]
        _factor(a, mult)
        pivots = [a[k][k] for k in range(n)]
        quad = None
        if e is not None:
            y = [e[i] for i in range(n)]
            _forward(mult, y)
            quad = y[0] ** 2 / pivots[0]
            for k in range(1, n):
                quad = quad + y[k] ** 2 / pivots[k]
    return pivots, mult, quad


def _trace(a: np.ndarray):
    """Trace of entries-first ``(n, n) + items`` matrices, summed in ``np.trace``'s order."""
    total = a[0, 0]
    for i in range(1, a.shape[0]):
        total = total + a[i, i]
    return total


def _screen_pd(cov: np.ndarray) -> np.ndarray:
    """Mask of the items of entries-first ``cov`` that are certainly positive definite.

    An item passes when every LDL^T pivot (:func:`_ldl`) of its shifted
    matrix ``cov - margin * trace(cov) * I`` is positive. A zero, singular,
    indefinite or non-finite item fails (NaN compares false).
    """
    with np.errstate(invalid="ignore", over="ignore"):
        shift = _SCREEN_MARGIN * _trace(cov)
    pivots, _, _ = _ldl(cov, shift=shift)
    passed = pivots[0] > 0
    for pivot in pivots[1:]:
        passed &= pivot > 0
    return passed


def _finalize(cov: np.ndarray, abs_scale=0.0):
    """Enforce positive semidefiniteness of every item of an entries-first batch.

    ``cov`` is ``(n, n) + items``, symmetric, and every item is its own
    measurement. Items that pass the positive-definiteness screen
    (:func:`_screen_pd`) are left unchanged with ``ok`` true, which is what
    the eigenvalue check below gives them. Only the others go, item-major,
    through ``eigh``: eigenvalues inside an item's rounding band are clamped
    to zero, and only the clamped items are rebuilt from their eigenpairs,
    written back into ``cov`` in place. ``abs_scale`` (one value, or one per
    item) carries the magnitude of the cancelling assembly terms (about
    r^2), whose rounding residue is invisible to the trace-relative
    tolerance when the entries nearly vanish. Returns ``(cov, ok)``; ``ok``
    has the items' shape and is false where an item has an eigenvalue below
    its band, which signals an invalid noise regime, or a non-finite entry
    (such items never reach ``eigh``).
    """
    fail = ~_screen_pd(cov)
    ok = np.ones(fail.shape, dtype=bool)
    if not np.any(fail):
        return cov, ok
    # a non-finite entry fails the screen; such an item is invalid and is
    # kept away from eigh, which would raise for the whole batch
    ok[fail] = np.isfinite(cov[:, :, fail]).all(axis=(0, 1))
    fail &= ok
    if not np.any(fail):
        return cov, ok
    sub = cov[:, :, fail]
    w, v = np.linalg.eigh(np.moveaxis(sub, (0, 1), (-2, -1)))
    tol = _PSD_TOL * np.maximum(_trace(sub), 0.0)
    tol = tol + 1e-12 * np.broadcast_to(abs_scale, fail.shape)[fail]
    lowest = w[..., 0]  # eigh returns the eigenvalues in ascending order
    ok[fail] = held = ~(lowest < -tol)
    rebuild = (lowest < 0) & held
    if np.any(rebuild):
        v, w = v[rebuild], np.maximum(w[rebuild], 0.0)
        fixed = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
        where = np.zeros(fail.shape, dtype=bool)
        where[fail] = rebuild
        cov[:, :, where] = np.moveaxis(0.5 * (fixed + np.swapaxes(fixed, -1, -2)), 0, -1)
    return cov, ok


def _raise_if_no_stats(r, ok=True, where: str = "") -> None:
    """The one rule for a point of range ``r`` that has no conversion statistics.

    Raises :class:`DegenerateCovarianceError`, its message led by ``where``,
    if ``r`` is not positive (NaN included), which is no measurement
    whatever ``ok`` says, or else if ``ok`` (the point's flags from
    :func:`_finalize`) holds a false.
    """
    if not r > 0:
        reason = f"invalid measurement, range {r:g} m is not positive"
    elif not np.all(ok):
        reason = "conversion covariance is indefinite beyond tolerance"
    else:
        return
    raise DegenerateCovarianceError(where + reason)


def _stats_batch(methods, rm, theta, phi, rdot, noise: NoiseSpec, dim: int):
    """Vectorized conversion and statistics of a batch of measurements under several methods.

    Returns ``(ok, conv, mu, cov)``. ``conv``, ``mu`` and ``cov`` are
    :func:`_moments`'s entries-first arrays, with ``cov`` finalized;
    ``ok``, of shape ``items + (len(methods),)``, is the one item-major
    result and comes first, so its length is the batch's. Each
    (measurement, method) item gets its own rounding tolerance and ``ok``
    flags the indefinite ones (see :func:`_finalize`). Raises ValueError
    for a 2D radar with an elevation noise.
    """
    conv, mu, cov = _moments(methods, rm, theta, phi, rdot, noise, dim)
    abs_scale = np.asarray(rm) ** 2 + noise.sigma_r**2
    cov, ok = _finalize(cov, abs_scale=abs_scale[..., None])
    return ok, conv, mu, cov


def unbiased_stats(m: SphericalMeasurement, noise: NoiseSpec):
    """Measurement-conditioned error mean and covariance of one conversion.

    Returns ``(mu, cov)`` of size 4 / 4x4 in 3D and 3 / 3x3 in 2D, where
    they are the 3D statistics at ``phi = 0`` without the z row/column.
    These are :func:`convert`'s ``mu`` and ``cov``, and it raises as
    :func:`convert` does.
    """
    z = convert(m, noise, ConversionMethod.MEASUREMENT_CONDITIONED)
    return z.mu, z.cov


def nested_stats(m: SphericalMeasurement, noise: NoiseSpec):
    """Nested-conditioning error mean and covariance (closed form).

    Same shape conventions and errors as :func:`unbiased_stats`: these are
    :func:`convert`'s ``mu`` and ``cov``. The closed form is the analytic
    reduction of :func:`nested_stats_numeric` and agrees with it to
    well under half a percent per entry.
    """
    z = convert(m, noise, ConversionMethod.NESTED_CONDITIONING)
    return z.mu, z.cov


def truth_conditioned_stats(m: SphericalMeasurement, noise: NoiseSpec):
    """First-stage statistics: error moments conditioned on the ideal values.

    ``m`` is interpreted as the *true* spherical point. The covariance has
    the measurement-conditioned form evaluated at the true values (the
    noise distribution is symmetric under sign flips) and the mean is its
    negative: attenuation pulls the converted position toward the origin,
    and the range/range-rate error product contributes
    ``+rho sigma_r sigma_rdot`` to the pseudo error. Returned in the full
    (x, y, z, eta) form regardless of ``dim``; a reference for the tests,
    directly checkable against a fixed-truth Monte Carlo. Raises
    :class:`DegenerateCovarianceError` for a true range that is not
    positive, by the module's one rule; no covariance is finalized here.
    """
    _raise_if_no_stats(m.r)
    _, mu, cov = _moments([ConversionMethod.MEASUREMENT_CONDITIONED], *_fields(m), noise, 3)
    return -mu[..., 0], cov[..., 0]


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
    form in :func:`nested_stats` must match it. Each entry is averaged along
    its contiguous row of draws (numpy's pairwise summation); a running sum
    over the draws one by one differs from it only by rounding, under 1e-13
    of the entry at 1e6 draws, far inside the average's sampling error.
    Raises :class:`DegenerateCovarianceError`, by the module's one rule,
    for a range that is not positive, before any draw, and for an averaged
    covariance indefinite beyond rounding.
    """
    if samples < 100_000:
        raise ValueError("the nested reference needs at least 1e5 draws")
    _raise_if_no_stats(m.r)
    rng = np.random.default_rng(0) if rng is None else rng
    r, theta, phi, rdot = _fields(m)
    draws = _noise_matrix(noise, samples, rng)
    _, mu_t, cov_t = _moments(
        [ConversionMethod.MEASUREMENT_CONDITIONED],
        r - draws[0], theta - draws[1], phi - draws[2], rdot - draws[3], noise, m.dim,
    )
    cov, ok = _finalize(cov_t[..., 0].mean(axis=-1), abs_scale=r**2 + noise.sigma_r**2)
    _raise_if_no_stats(r, ok)
    return -mu_t[..., 0].mean(axis=-1), cov


@dataclass(frozen=True, eq=False)
class OracleMoments:
    """Brute-force moment estimates with per-entry standard errors."""

    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray
    se_cov: np.ndarray
    samples: int


# Columns per oracle block, the default ``batch`` (see ``mc_moment_oracle``).
# Few enough blocks keep the per-allocation cost small where every allocation
# is traced (tracemalloc).
_ORACLE_BLOCK = 65_536
# Columns per step of a block's error pass: its truth scratch stays cache-sized.
# The pass is elementwise, so this size changes no bits.
_ORACLE_SUBTILE = 8_192


def mc_moment_oracle(
    m: SphericalMeasurement,
    noise: NoiseSpec,
    samples: int,
    rng: np.random.Generator,
    batch: int = _ORACLE_BLOCK,
) -> OracleMoments:
    """Brute-force estimate of the measurement-conditioned moments.

    For each draw the hypothetical truth ``Z = Z_m - noise`` is reconstructed
    and the conversion error ``converted(Z_m) - cartesian(Z)`` accumulated;
    the sample mean and covariance estimate the measurement-conditioned
    moments under the diffuse-prior reading. Standard errors of the
    covariance entries come from the sample variance of the centered
    products. Results are deterministic given the generator state.

    The draws come in blocks of ``batch`` (65,536 by default), each one
    ``(4, batch)`` float64 ``standard_normal`` call (about 32 B per draw,
    about 2 MB a block at the default) whose columns are overwritten by
    their errors. One worker thread turns each block, in order, into its
    errors and centered product sums, centered on block 0's mean error, so
    the calling thread only draws. The caller draws block k into one of two
    buffers while the worker sums block k - 1 in the other, and takes block
    k - 1's sums before it submits block k, so the sums are added in block
    order and no block is submitted after a failed one. The memory is at
    most these two buffers (about 4.2 MB at the default) and about 0.3 MB of
    worker scratch on any host, and the results are the same bits on any
    number of CPUs. Raises :class:`DegenerateCovarianceError` for a range
    that is not positive, by the module's one rule, and ValueError for a 2D
    radar with an elevation noise, as the closed forms do.
    """
    _check_no_2d_elevation(m.dim, "sigma_phi", noise.sigma_phi)
    for name, value, least in (("samples", samples, 10_000), ("batch", batch, 1)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"oracle {name} must be an integer >= {least}, got {value!r}")
    _raise_if_no_stats(m.r)
    r, theta, phi, rdot = _fields(m)
    measured = np.array([r, theta, phi, rdot])[:, None]
    converted = _cart(r, theta, phi, rdot)[:, None]

    def block_sums(block: np.ndarray, first: bool):
        """A block's errors, centered in place; their sum, product sum and squared-product sum."""
        nonlocal center
        scratch = np.empty((4, min(_ORACLE_SUBTILE, block.shape[1])))
        for lo in range(0, block.shape[1], _ORACLE_SUBTILE):
            sub = block[:, lo : lo + _ORACLE_SUBTILE]
            truth = scratch[:, : sub.shape[1]]
            np.subtract(measured, _scale_noise(noise, sub), out=truth)
            np.subtract(converted, _cart(*truth, out=sub), out=sub)
        if first:
            # Centering on the first block's mean keeps the accumulated products
            # small; the recentering at the end is exact for the mean and covariance.
            center = block.mean(axis=1)
        block -= center[:, None]
        sums = block.sum(axis=1), block @ block.T
        np.square(block, out=block)
        return *sums, block @ block.T

    from concurrent.futures import ThreadPoolExecutor  # here: the import costs ~5 ms

    # At most two buffers: the caller draws into one while the worker sums the other.
    ring = [np.empty(4 * min(batch, samples)) for _ in range(min(2, -(-samples // batch)))]
    # Block 0's mean error: the one worker runs the blocks in order, so block 0
    # sets it before any later block reads it.
    center = None
    parts = []  # each block's sum, product sum and squared-product sum, in block order
    with ThreadPoolExecutor(max_workers=1) as pool:
        running = None  # the future of the block the worker holds
        for k, lo in enumerate(range(0, samples, batch)):
            z = ring[k % len(ring)][: 4 * min(batch, samples - lo)].reshape(4, -1)
            rng.standard_normal(out=z)
            if running is not None:  # block k - 1's sums first: a failed block stops the run
                parts.append(running.result())
            running = pool.submit(block_sums, z, k == 0)
        parts.append(running.result())

    sum_c, sum_cc, sum_cc_sq = map(sum, zip(*parts))
    mean_c = sum_c / samples
    mean = center + mean_c
    cov = (sum_cc / samples - np.outer(mean_c, mean_c)) * (samples / (samples - 1))
    var_prod = sum_cc_sq / samples - (sum_cc / samples) ** 2
    se_cov = np.sqrt(np.maximum(var_prod, 0.0) / samples)
    se_mean = np.sqrt(np.maximum(np.diag(cov), 0.0) / samples)

    if m.dim == 2:
        idx = _IDX_2D
        mean, cov = mean[idx], cov[np.ix_(idx, idx)]
        se_mean, se_cov = se_mean[idx], se_cov[np.ix_(idx, idx)]
    return OracleMoments(mean=mean, cov=cov, se_mean=se_mean, se_cov=se_cov, samples=samples)


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
    """Convert one measurement and attach the method's error statistics.

    This is :func:`_convert_batch` on one row, and the row's ``ok`` decides:
    raises :class:`DegenerateCovarianceError` by the module's one rule, for
    a range that is not positive before an indefinite covariance, and
    ValueError for a 2D radar with an elevation noise.
    """
    z, ok = _convert_batch(np.array(_fields(m)), noise, [method], m.dim)
    _raise_if_no_stats(m.r, ok)
    return z[0]


def _convert_batch(meas: np.ndarray, noise: NoiseSpec, methods, dim: int):
    """Convert ``(..., 4)`` rows of ``(r, theta, phi, rdot)`` under several methods.

    Returns ``(z, ok)``: a :class:`ConvertedMeasurement` whose leading axes
    are ``meas.shape[:-1] + (len(methods),)``, and the mask of conversions
    whose range is positive and whose statistics are positive semidefinite.
    Each item is finalized on its own, so an indefinite item flags only
    itself.
    """
    r, theta, phi, rdot = np.moveaxis(np.asarray(meas, dtype=float), -1, 0)
    ok, conv, mu, cov = _stats_batch(methods, r, theta, phi, rdot, noise, dim)
    ok &= r[..., None] > 0  # a range <= 0 (or NaN) is no measurement, for every method
    shape = r.shape + (len(methods),)
    position = np.moveaxis(conv[:dim], 0, -1)
    # item-major views of the entries-first rows, which the filter reads back
    z = ConvertedMeasurement(
        position=np.broadcast_to(position[..., None, :], shape + (dim,)),
        pseudo=np.broadcast_to(conv[dim][..., None], shape),
        mu=np.moveaxis(mu, 0, -1),
        cov=np.moveaxis(cov, (0, 1), (-2, -1)),
        dim=dim,
    )
    return z, ok
