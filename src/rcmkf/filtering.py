"""Sequential filtering on converted measurements.

Each scan is processed in two stages. The converted position is linear in
the state and goes through a standard Kalman update. The pseudo-measurement
``eta = r * rdot`` is quadratic in the state; its error is first decorrelated
from the position errors (a Schur-complement / Cholesky step), then applied
through a second-order extended Kalman update linearized about the
position-updated estimate. Processing position first keeps the
linearization point as accurate as possible.

Covariance updates use the Joseph-stabilized form
``(I - K H) P (I - K H)^T + K R K^T``, which is algebraically identical to
``(I - K H) P`` at the optimal gain but keeps the result symmetric positive
semidefinite under rounding for any gain. It is evaluated in factored form:
with ``A = (I - K H) P = P - K (H P)``, the product is
``A - (A H^T - K R) K^T``, which needs no identity matrix and no ``n x n``
gain product. For the position update ``H = [I 0]``, so ``H P`` and
``A H^T`` are row and column slices, and the gain comes from
``K^T = S^{-1} (H P)`` with the ``2 x 2`` / ``3 x 3`` inverse of
``S = P_pp + R`` in closed form (adjugate over determinant); an item whose
determinant is not positive and finite falls back to a solve, or to the
minimum-norm least-squares gain when ``S`` is exactly singular. For the
scalar pseudo update the same product reads ``A - (A h - r g) g^T`` with
``A = P - g (P h)^T``. Every covariance-producing operation symmetrizes its
output.

The two pipeline variants differ only in where their conversion statistics
come from: RCMKF-U uses the measurement-conditioned moments, RCMKF-D the
nested-conditioning ones. The filter code path is shared.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .conversion import ConversionMethod, ConvertedMeasurement, convert
from .errors import DegenerateCovarianceError
from .scenario import DynamicModel, NoiseSpec, SphericalMeasurement, _mv

__all__ = [
    "DecorrelatedMeasurement",
    "FilterRun",
    "FilterVariant",
    "GaussianBelief",
    "decorrelate",
    "ekf_update_pseudo",
    "filter_scans",
    "initialize_belief",
    "kf_predict",
    "kf_update_position",
    "pseudo_jacobian",
    "quadratic_correction",
    "run_filter",
]


class FilterVariant(enum.Enum):
    """Pipeline selector; the value names the conversion-statistics source."""

    RCMKF_U = ConversionMethod.MEASUREMENT_CONDITIONED
    RCMKF_D = ConversionMethod.NESTED_CONDITIONING

    @property
    def method(self) -> ConversionMethod:
        return self.value


@dataclass(eq=False)
class GaussianBelief:
    """State estimate as mean and covariance.

    A batch of independent estimates carries leading axes on both fields
    (``mean`` ``(..., n)``, ``cov`` ``(..., n, n)``) and is indexed along
    them with ``belief[key]``; every stage below accepts such a batch.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        n = self.mean.shape[-1]
        if self.cov.shape != self.mean.shape + (n,):
            raise ValueError("covariance shape does not match the state length")

    def __getitem__(self, key) -> "GaussianBelief":
        return GaussianBelief(self.mean[key], self.cov[key])


@dataclass(frozen=True, eq=False)
class DecorrelatedMeasurement:
    """Position part plus a pseudo-measurement made uncorrelated with it.

    ``l_row`` is the decorrelation row: ``pseudo = l_row @ position + eta``,
    whose error variance ``var_pseudo`` is the Schur complement of the
    position block ``cov_pos`` in the joint error covariance.
    ``debiased_pos`` and ``debiased_pseudo`` are the position and ``pseudo``
    less their hypothesized error means, the bias-compensated values the
    updates compare with the prediction. Fields may carry leading batch
    axes, indexed with ``d[key]``.
    """

    cov_pos: np.ndarray
    pseudo: float
    var_pseudo: float
    l_row: np.ndarray
    debiased_pos: np.ndarray
    debiased_pseudo: float
    dim: int

    def __getitem__(self, key) -> "DecorrelatedMeasurement":
        return DecorrelatedMeasurement(
            self.cov_pos[key], self.pseudo[key], self.var_pseudo[key], self.l_row[key],
            self.debiased_pos[key], self.debiased_pseudo[key], self.dim,
        )


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, for any leading axes."""
    return (a * b).sum(axis=-1)


def _solve_each(a: np.ndarray, b: np.ndarray, fallback):
    """``solve(a, b)`` over the leading axes; an exactly singular item goes to
    ``fallback(a_i, b_i)`` instead of failing the whole batch."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + b.shape[-2:])
        for i in np.ndindex(out.shape[:-2]):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                out[i] = fallback(a[i], b[i])
        return out


def _decorrelate(z: ConvertedMeasurement) -> tuple[DecorrelatedMeasurement, np.ndarray]:
    """:func:`decorrelate` over any leading axes, with a per-item validity mask.

    An item is invalid when its position block is singular while the cross
    row is nonzero, or when its residual variance is negative beyond
    rounding; its fields are then meaningless.
    """
    p = z.dim
    r_pp = z.cov[..., :p, :p]
    r_ep = z.cov[..., p, :p]
    r_ee = z.cov[..., p, p]
    # a zero cross row needs no solve; a singular block elsewhere gives NaN
    l_row = -_solve_each(
        r_pp,
        r_ep[..., None],
        lambda a, b: np.zeros_like(b) if not np.any(b) else np.full_like(b, np.nan),
    )[..., 0]
    var_eps = r_ee + _dot(l_row, r_ep)
    ok = np.all(np.isfinite(l_row), axis=-1) & ~(var_eps <= -1e-9 * np.maximum(r_ee, 1.0))
    mu_pos = z.mu[..., :p]
    pseudo = _dot(l_row, z.position) + z.pseudo
    mu_pseudo = _dot(l_row, mu_pos) + z.mu[..., p]
    d = DecorrelatedMeasurement(
        cov_pos=r_pp,
        pseudo=pseudo,
        var_pseudo=np.maximum(var_eps, 0.0),
        l_row=l_row,
        debiased_pos=z.position - mu_pos,
        debiased_pseudo=pseudo - mu_pseudo,
        dim=p,
    )
    return d, ok


def decorrelate(z: ConvertedMeasurement) -> DecorrelatedMeasurement:
    """Remove the position/pseudo error correlation from a conversion.

    With the joint covariance split into position block ``R_pp``, cross row
    ``R_ep`` and scalar ``R_ee``, the row ``L = -R_ep @ inv(R_pp)`` makes the
    transformed pseudo error ``L @ pos_err + eta_err`` uncorrelated with the
    position errors; its variance is ``R_ee - R_ep inv(R_pp) R_ep^T``.
    Raises :class:`DegenerateCovarianceError` when the position block is
    singular or the residual variance is negative beyond rounding.
    """
    d, ok = _decorrelate(z)
    if not np.all(ok):
        raise DegenerateCovarianceError(
            "singular position error covariance or negative residual pseudo-measurement variance"
        )
    return d


def kf_predict(belief: GaussianBelief, model: DynamicModel) -> GaussianBelief:
    """Time update through the dynamic model (filters assume zero input)."""
    if belief.mean.shape[-1] != model.n:
        raise ValueError("belief size does not match the model")
    mean = belief.mean @ model.phi_t
    cov = _symmetrize(model.phi @ belief.cov @ model.phi_t + model.process_noise_cov())
    return GaussianBelief(mean, cov)


# Adjugates of 2x2 and 3x3 matrices on their row-major flattening. In 2D
# adj = s[_ADJ2_IDX] * _ADJ2_SIGN. In 3D each entry is a difference of two
# products, adj = f[0] - f[1] with f = s[_ADJ3_A] * s[_ADJ3_B]: entry (i, j)
# is the cofactor of (j, i), s[j+1, i+1] s[j+2, i+2] - s[j+1, i+2] s[j+2, i+1]
# with indices mod 3, whose cyclic order carries the sign.
_ADJ2_IDX = np.array([3, 1, 2, 0])
_ADJ2_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


def _cofactor_index(dj: int, di: int) -> np.ndarray:
    """Flat index of ``s[(j + dj) % 3, (i + di) % 3]`` for each adjugate entry (i, j)."""
    return np.array([3 * ((j + dj) % 3) + (i + di) % 3 for i in range(3) for j in range(3)])


_ADJ3_A = np.stack([_cofactor_index(1, 1), _cofactor_index(1, 2)])
_ADJ3_B = np.stack([_cofactor_index(2, 2), _cofactor_index(2, 1)])
# Indices exchanging the position and velocity halves of a state.
_BLOCK_SWAP = {p: np.r_[p : 2 * p, 0:p] for p in (1, 2, 3)}


def _solve_small(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``S^{-1} b`` over the leading axes for ``2 x 2`` or ``3 x 3`` ``S``.

    The inverse is the adjugate over the determinant. Items whose
    determinant is not positive and finite (singular, indefinite or
    non-finite ``S``) are solved one by one instead; an exactly singular
    one gets the minimum-norm least-squares solution.
    """
    p = s.shape[-1]
    flat = s.reshape(s.shape[:-2] + (p * p,))
    if p == 2:
        adj = flat.take(_ADJ2_IDX, axis=-1) * _ADJ2_SIGN
    elif p == 3:
        f = flat.take(_ADJ3_A, axis=-1) * flat.take(_ADJ3_B, axis=-1)
        adj = f[..., 0, :] - f[..., 1, :]
    else:
        raise ValueError("position dimension must be 2 or 3")
    det = (flat[..., :p] * adj[..., ::p]).sum(axis=-1)  # row 0 of s times column 0 of adj
    good = (det > 0) & (det < np.inf)
    if good.all():
        return (adj.reshape(s.shape) @ b) / det[..., None, None]
    out = (adj.reshape(s.shape) @ b) / np.where(good, det, 1.0)[..., None, None]
    bad = ~good
    out[bad] = _solve_each(s[bad], b[bad], lambda a, c: np.linalg.lstsq(a, c, rcond=None)[0])
    return out


def kf_update_position(belief: GaussianBelief, d: DecorrelatedMeasurement) -> GaussianBelief:
    """Linear measurement update with the converted position.

    The innovation is compensated for the hypothesized conversion bias:
    ``z - mu - H x``. Joseph form, in the factored product of the module
    docstring, keeps the covariance PSD.
    """
    n = belief.mean.shape[-1]
    p = d.dim
    if n != 2 * p:
        raise ValueError("measurement dimension does not match the belief")
    cov = belief.cov
    r = d.cov_pos
    hp = cov[..., :p, :]  # H P
    # exactly singular s happens in degenerate (noise-free) runs where the
    # covariance has collapsed; the minimum-norm gain P H^T s^+ is the
    # correct limit there
    gain_t = _solve_small(hp[..., :p] + r, hp)  # K^T, (..., p, n)
    if not np.isfinite(gain_t).all():
        raise DegenerateCovarianceError("position innovation covariance is singular")
    gain = gain_t.swapaxes(-1, -2)
    innovation = d.debiased_pos - belief.mean[..., :p]
    mean = belief.mean + (innovation[..., None, :] @ gain_t)[..., 0, :]
    a = cov - gain @ hp
    return GaussianBelief(mean, _symmetrize(a - (a[..., :p] - gain @ r) @ gain_t))


def pseudo_jacobian(state: np.ndarray, l_row: np.ndarray) -> np.ndarray:
    """Gradient of ``h(x) = l_row @ pos + pos @ vel`` at a state vector."""
    p = np.shape(l_row)[-1]
    h_row = np.asarray(state, dtype=float).take(_BLOCK_SWAP[p], axis=-1)  # (vel, pos)
    h_row[..., :p] += l_row
    return h_row


def quadratic_correction(cov: np.ndarray):
    """Second-order terms of the pseudo-measurement function.

    For ``h`` containing the quadratic form ``pos @ vel`` and a Gaussian
    state with covariance ``P`` split into position/velocity blocks,
    ``E[h] - h(mean) = tr(P_pv)`` (returned doubled as ``delta2`` so the
    mean correction is ``delta2 / 2``) and the variance beyond the
    linearized ``H P H^T`` term is ``tr(P_pv P_pv) + tr(P_pp P_vv)``.
    Both identities are exact for quadratic ``h``. By the symmetry of
    ``P`` the two traces are the sum of the elementwise product of the
    rows ``P[:p]`` with the block-swapped rows ``P[p:]``.
    """
    p = cov.shape[-1] // 2
    delta2 = 2.0 * cov[..., :p, p:].diagonal(0, -2, -1).sum(axis=-1)
    a_k = (cov[..., :p, :] * cov[..., p:, :].take(_BLOCK_SWAP[p], axis=-1)).sum(axis=(-2, -1))
    return delta2, a_k


def ekf_update_pseudo(belief: GaussianBelief, d: DecorrelatedMeasurement) -> GaussianBelief:
    """Second-order extended update with the decorrelated pseudo-measurement.

    Linearizes about the position-updated estimate; the innovation subtracts
    the hypothesized bias and the second-order mean correction, and the gain
    denominator carries the quadratic variance inflation on top of the
    residual measurement variance.
    """
    x = belief.mean
    cov = belief.cov
    n = x.shape[-1]
    p = d.dim
    if n != 2 * p:
        raise ValueError("measurement dimension does not match the belief")
    h_row = pseudo_jacobian(x, d.l_row)
    delta2, a_k = quadratic_correction(cov)
    ph = _mv(cov, h_row)
    r = d.var_pseudo + a_k
    s = _dot(h_row, ph) + r
    h_val = _dot(h_row[..., :p], x[..., :p])  # (l_row + vel) @ pos
    innovation = d.debiased_pseudo - h_val - 0.5 * delta2
    # the true variance is nonnegative for PSD inputs, so s <= 0 is a
    # collapsed (deterministic) measurement: a no-op when the innovation is
    # consistent, a genuine degeneracy otherwise
    collapsed = s <= 0
    any_collapsed = collapsed.any()
    if any_collapsed:
        scale = np.maximum(np.maximum(np.abs(d.pseudo), np.abs(h_val)), 1.0)
        if np.any(collapsed & (np.abs(innovation) > 1e-9 * scale)):
            raise DegenerateCovarianceError("pseudo-measurement innovation variance is not positive")
        s = np.where(collapsed, 1.0, s)
    gain = ph / s[..., None]
    mean = x + gain * innovation[..., None]
    a = cov - gain[..., :, None] * ph[..., None, :]
    m = _mv(a, h_row) - r[..., None] * gain
    new_cov = _symmetrize(a - m[..., :, None] * gain[..., None, :])
    if any_collapsed:
        mean = np.where(collapsed[..., None], x, mean)
        new_cov = np.where(collapsed[..., None, None], cov, new_cov)
    return GaussianBelief(mean, new_cov)


def initialize_belief(
    z1: ConvertedMeasurement, z2: ConvertedMeasurement, t: float
) -> GaussianBelief:
    """Two-point differencing start from consecutive converted positions.

    Position comes from the second (bias-compensated) measurement, velocity
    from the difference quotient; the covariance follows from propagating the
    two independent position error covariances through the differencing map.
    """
    if t <= 0:
        raise ValueError("sampling interval must be positive")
    if z1.dim != z2.dim:
        raise ValueError("measurements must share dimensionality")
    p = z1.dim
    pos1 = z1.position - z1.mu[..., :p]
    pos2 = z2.position - z2.mu[..., :p]
    mean = np.concatenate([pos2, (pos2 - pos1) / t], axis=-1)
    r1 = z1.cov[..., :p, :p]
    r2 = z2.cov[..., :p, :p]
    cov = np.block([[r2, r2 / t], [r2 / t, (r1 + r2) / t**2]])
    return GaussianBelief(mean, _symmetrize(cov))


def filter_scans(
    init: GaussianBelief,
    z: ConvertedMeasurement,
    ok: np.ndarray,
    steps,
    model: DynamicModel,
) -> tuple[GaussianBelief, np.ndarray]:
    """Run a batch of independent tracks through their scans in lockstep.

    ``z`` and ``ok`` carry leading axes ``(scans, *batch)``: the converted
    measurements and whether each conversion succeeded. ``init`` carries the
    leading axes ``batch``; ``steps`` numbers the scans for error messages.
    Per scan, every track is predicted, then the tracks whose conversion and
    decorrelation are valid take the position and pseudo updates; the
    others stay predict-only for that scan. A failing update raises with the
    step attached. Returns the post-update beliefs with leading axes
    ``(scans, *batch)`` and the mask of updated (scan, track) pairs.
    """
    d, valid = _decorrelate(z)
    ok = ok & valid
    per_scan = ok.reshape(len(ok), -1)
    every = per_scan.all(axis=1).tolist()
    some = per_scan.any(axis=1).tolist()
    means = np.empty(ok.shape + init.mean.shape[-1:])
    covs = np.empty(ok.shape + init.cov.shape[-2:])
    belief = init
    for k, step in enumerate(steps):
        belief = kf_predict(belief, model)
        try:
            if every[k]:
                dk = d[k]
                belief = ekf_update_pseudo(kf_update_position(belief, dk), dk)
            elif some[k]:
                sel = ok[k]
                dk = d[k][sel]
                post = ekf_update_pseudo(kf_update_position(belief[sel], dk), dk)
                belief.mean[sel] = post.mean
                belief.cov[sel] = post.cov
        except (DegenerateCovarianceError, ValueError) as exc:
            raise type(exc)(f"step {step}: {exc}") from exc
        means[k] = belief.mean
        covs[k] = belief.cov
    return GaussianBelief(means, covs), ok


@dataclass(eq=False)
class FilterRun:
    """Per-step posterior beliefs plus any skipped (predict-only) steps."""

    beliefs: list[GaussianBelief] = field(default_factory=list)
    skipped_steps: list[int] = field(default_factory=list)


def run_filter(
    variant: FilterVariant,
    measurements: Iterable[SphericalMeasurement],
    noise: NoiseSpec,
    model: DynamicModel,
    init: GaussianBelief,
) -> FilterRun:
    """Run one pipeline over a measurement stream.

    Per scan: predict, convert with the variant's statistics, decorrelate,
    position update, pseudo update; the post-pseudo belief is emitted. A
    degenerate conversion (indefinite statistics or singular position block)
    skips that scan's updates and records the step; other failures propagate
    with the step index attached. Filters never receive maneuver inputs.
    This is :func:`filter_scans` on a batch of one track.
    """
    zs, ok, steps = [], [], []
    for m in measurements:
        try:
            zs.append(convert(m, noise, variant.method))
            ok.append(True)
        except DegenerateCovarianceError:
            # placeholder statistics for a predict-only scan; never read
            p = m.dim
            zs.append(ConvertedMeasurement(np.zeros(p), 0.0, np.zeros(p + 1), np.eye(p + 1), p))
            ok.append(False)
        steps.append(m.step)
    if not zs:
        raise ValueError("run_filter needs at least one measurement")
    stacked = ConvertedMeasurement(
        position=np.array([z.position for z in zs]),
        pseudo=np.array([z.pseudo for z in zs]),
        mu=np.array([z.mu for z in zs]),
        cov=np.array([z.cov for z in zs]),
        dim=zs[0].dim,
    )
    post, updated = filter_scans(init, stacked, np.array(ok), steps, model)
    return FilterRun(
        beliefs=[post[k] for k in range(len(steps))],
        skipped_steps=[step for step, u in zip(steps, updated) if not u],
    )
