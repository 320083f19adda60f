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

Each stage is one kernel over a batch of tracks, run on a workspace that
preallocates every intermediate and makes its views once; each operation
writes with ``out=`` or in place. :func:`filter_scans` allocates one
workspace per call and reuses it for every scan: a scan's last operation
writes straight into its output, which the next predict reads. The public
stages run the same kernels on a fresh workspace. No operation rounds by
the batch shape, so a track gives the same bits alone or in any batch.

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
from .scenario import DynamicModel, NoiseSpec, SphericalMeasurement

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


class _Workspace:
    """Buffers of the stage kernels for one batch shape, and their views, made once.

    Predict writes ``x``, ``cov``; the position update reads them and writes
    ``x1``, ``cov1``, which the pseudo update reads; the rest hold temporaries.
    """

    def __init__(self, batch: tuple[int, ...], n: int):
        p = self.p = n // 2
        self.n = n

        def buf(*shape):
            return np.empty(batch + shape)

        self.x, self.cov, self.x1, self.cov1 = buf(n), buf(n, n), buf(n), buf(n, n)
        self.a, self.nn = buf(n, n), buf(n, n)
        self.x_pos, self.x_vel, self.x1_pos = self.x[..., :p], self.x[..., p:], self.x1[..., :p]
        self.hp, self.cov_pp = self.cov[..., :p, :], self.cov[..., :p, :p]  # H P, H P H^T
        self.a_pos = self.a[..., :p]
        self.s, self.adj, self.cof = buf(p, p), buf(p * p), buf(2, p * p)
        self.s_flat, self.adj_m = self.s.reshape(self.adj.shape), self.adj.reshape(self.s.shape)
        self.s_row0, self.adj_col0 = self.s_flat[..., :p], self.adj[..., ::p]
        self.det, self.terms, self.gain_t, self.kr = buf(), buf(p), buf(p, n), buf(n, p)
        self.det_m, self.gain = self.det[..., None, None], self.gain_t.swapaxes(-1, -2)
        self.innov, self.dx = buf(1, p), buf(1, n)
        self.innov_v, self.dx_v = self.innov[..., 0, :], self.dx[..., 0, :]
        # pseudo update: columns for matrix products, vectors for the rest
        self.h, self.ph, self.m = buf(n, 1), buf(n, 1), buf(n, 1)
        self.h_v, self.ph_v, self.m_v = self.h[..., 0], self.ph[..., 0], self.m[..., 0]
        self.h_pos, self.ph_row = self.h_v[..., :p], self.ph_v[..., None, :]
        self.pv_diag = self.cov1[..., :p, p:].diagonal(0, -2, -1)
        self.cov1_pos, self.cov1_vel = self.cov1[..., :p, :], self.cov1[..., p:, :]
        self.g, self.tn, self.swap = buf(n), buf(n), buf(p, n)
        self.g_col, self.g_row = self.g[..., :, None], self.g[..., None, :]
        self.trace, self.a_k, self.r, self.s1, self.h_val, self.innov1 = (buf() for _ in range(6))
        self.r_c, self.s1_c, self.innov1_c = (v[..., None] for v in (self.r, self.s1, self.innov1))


def _symmetrize(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.add(a, a.swapaxes(-1, -2), out=out)
    out *= 0.5
    return out


def _predict(ws: _Workspace, mean: np.ndarray, cov: np.ndarray, model: DynamicModel) -> None:
    """Time update of ``(mean, cov)`` into ``ws.x``, ``ws.cov``."""
    if mean.shape[-1] != model.n:
        raise ValueError("belief size does not match the model")
    # x' = (pos + t vel, vel) elementwise: a matrix product rounds by the
    # batch shape (BLAS gemv for a single track, gemm for a batch)
    vel = mean[..., ws.p :]
    np.multiply(vel, model.t, out=ws.x_pos)
    np.add(mean[..., : ws.p], ws.x_pos, out=ws.x_pos)
    ws.x_vel[...] = vel
    np.matmul(model.phi, cov, out=ws.a)
    np.matmul(ws.a, model.phi_t, out=ws.nn)
    ws.nn += model.process_noise_cov()
    _symmetrize(ws.nn, out=ws.cov)


def _update_position(ws: _Workspace, d: DecorrelatedMeasurement, key) -> None:
    """Update of ``ws.x``, ``ws.cov`` with ``d[key]``'s position into ``ws.x1``, ``ws.cov1``."""
    if 2 * d.dim != ws.n:
        raise ValueError("measurement dimension does not match the belief")
    r = d.cov_pos[key]
    np.add(ws.cov_pp, r, out=ws.s)
    if ws.p == 2:
        ws.s_flat.take(_ADJ2_IDX, -1, ws.adj, "clip")  # in-range indices: clip skips a copy
        ws.adj *= _ADJ2_SIGN
    elif ws.p == 3:
        ws.s_flat.take(_ADJ3_A, -1, ws.cof, "clip")
        ws.cof *= ws.s_flat.take(_ADJ3_B, -1)
        np.subtract(ws.cof[..., 0, :], ws.cof[..., 1, :], out=ws.adj)
    else:
        raise ValueError("position dimension must be 2 or 3")
    np.multiply(ws.s_row0, ws.adj_col0, out=ws.terms)
    np.add.reduce(ws.terms, -1, out=ws.det)
    np.matmul(ws.adj_m, ws.hp, out=ws.gain_t)
    if ws.det.min() > 0 and ws.det.max() < np.inf:  # NaN fails both
        ws.gain_t /= ws.det_m
    else:
        bad = ~((ws.det > 0) & (ws.det < np.inf))
        ws.gain_t /= np.where(bad, 1.0, ws.det)[..., None, None]
        # an exactly singular S comes from a collapsed (noise-free) covariance,
        # where the minimum-norm gain is the correct limit
        ws.gain_t[bad] = _solve_each(
            ws.s[bad], ws.hp[bad], lambda a, c: np.linalg.lstsq(a, c, rcond=None)[0]
        )
    if not (ws.gain_t.min() > -np.inf and ws.gain_t.max() < np.inf):
        raise DegenerateCovarianceError("position innovation covariance is singular")
    np.subtract(d.debiased_pos[key], ws.x_pos, out=ws.innov_v)
    np.matmul(ws.innov, ws.gain_t, out=ws.dx)
    np.add(ws.x, ws.dx_v, out=ws.x1)
    np.matmul(ws.gain, ws.hp, out=ws.a)
    np.subtract(ws.cov, ws.a, out=ws.a)  # A = P - K (H P)
    np.matmul(ws.gain, r, out=ws.kr)
    np.subtract(ws.a_pos, ws.kr, out=ws.kr)  # A H^T - K R
    np.matmul(ws.kr, ws.gain_t, out=ws.nn)
    np.subtract(ws.a, ws.nn, out=ws.nn)
    _symmetrize(ws.nn, out=ws.cov1)


def _quadratic(ws: _Workspace) -> None:
    """``tr(P_pv)`` into ``ws.trace`` and ``a_k`` into ``ws.a_k``, for ``P = ws.cov1``."""
    np.add.reduce(ws.pv_diag, -1, out=ws.trace)
    ws.cov1_vel.take(_BLOCK_SWAP[ws.p], -1, ws.swap, "clip")
    ws.swap *= ws.cov1_pos
    np.add.reduce(ws.swap, (-2, -1), out=ws.a_k)


def _update_pseudo(ws: _Workspace, d: DecorrelatedMeasurement, key, mean_out, cov_out) -> None:
    """Update of ``ws.x1``, ``ws.cov1`` with ``d[key]``'s pseudo into ``mean_out``, ``cov_out``."""
    if 2 * d.dim != ws.n:
        raise ValueError("measurement dimension does not match the belief")
    pseudo_jacobian(ws.x1, d.l_row[key], out=ws.h_v)
    _quadratic(ws)
    np.matmul(ws.cov1, ws.h, out=ws.ph)  # P h
    np.add(d.var_pseudo[key], ws.a_k, out=ws.r)
    np.multiply(ws.h_v, ws.ph_v, out=ws.tn)
    np.add.reduce(ws.tn, -1, out=ws.s1)
    ws.s1 += ws.r
    np.multiply(ws.h_pos, ws.x1_pos, out=ws.terms)
    np.add.reduce(ws.terms, -1, out=ws.h_val)  # (l_row + vel) @ pos
    # less the second-order mean correction delta2 / 2 = tr(P_pv)
    np.subtract(d.debiased_pseudo[key], ws.h_val, out=ws.innov1)
    ws.innov1 -= ws.trace
    # the true variance is nonnegative for PSD inputs, so s <= 0 is a
    # collapsed (deterministic) measurement: a no-op when the innovation is
    # consistent, a genuine degeneracy otherwise; NaN also takes this branch
    collapsed = None if ws.s1.min() > 0 else ws.s1 <= 0
    if collapsed is not None:
        scale = np.maximum(np.maximum(np.abs(d.pseudo[key]), np.abs(ws.h_val)), 1.0)
        if np.any(collapsed & (np.abs(ws.innov1) > 1e-9 * scale)):
            raise DegenerateCovarianceError("pseudo-measurement innovation variance is not positive")
        ws.s1[collapsed] = 1.0
    np.divide(ws.ph_v, ws.s1_c, out=ws.g)
    np.multiply(ws.g, ws.innov1_c, out=ws.tn)
    np.add(ws.x1, ws.tn, out=mean_out)
    np.multiply(ws.g_col, ws.ph_row, out=ws.a)
    np.subtract(ws.cov1, ws.a, out=ws.a)  # A = P - g (P h)^T
    np.matmul(ws.a, ws.h, out=ws.m)
    np.multiply(ws.r_c, ws.g, out=ws.tn)
    ws.m_v -= ws.tn  # A h - r g
    np.multiply(ws.m, ws.g_row, out=ws.nn)
    np.subtract(ws.a, ws.nn, out=ws.nn)
    _symmetrize(ws.nn, out=cov_out)
    if collapsed is not None:
        np.copyto(mean_out, ws.x1, where=collapsed[..., None])
        np.copyto(cov_out, ws.cov1, where=collapsed[..., None, None])


def kf_predict(belief: GaussianBelief, model: DynamicModel) -> GaussianBelief:
    """Time update through the dynamic model (filters assume zero input)."""
    ws = _Workspace(belief.mean.shape[:-1], belief.mean.shape[-1])
    _predict(ws, belief.mean, belief.cov, model)
    return GaussianBelief(ws.x, ws.cov)


def kf_update_position(belief: GaussianBelief, d: DecorrelatedMeasurement) -> GaussianBelief:
    """Linear measurement update with the converted position.

    The innovation is compensated for the hypothesized conversion bias:
    ``z - mu - H x``. Joseph form, in the factored product of the module
    docstring, keeps the covariance PSD.
    """
    ws = _Workspace(belief.mean.shape[:-1], belief.mean.shape[-1])
    ws.x[...], ws.cov[...] = belief.mean, belief.cov
    _update_position(ws, d, ...)
    return GaussianBelief(ws.x1, ws.cov1)


def pseudo_jacobian(state: np.ndarray, l_row: np.ndarray, out=None) -> np.ndarray:
    """Gradient of ``h(x) = l_row @ pos + pos @ vel`` at a state vector (into ``out``, if given)."""
    p = np.shape(l_row)[-1]
    h_row = np.asarray(state, dtype=float).take(_BLOCK_SWAP[p], -1, out, "clip")  # (vel, pos)
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
    cov = np.asarray(cov, dtype=float)
    ws = _Workspace(cov.shape[:-2], cov.shape[-1])
    ws.cov1[...] = cov
    _quadratic(ws)
    return 2.0 * ws.trace, ws.a_k


def ekf_update_pseudo(belief: GaussianBelief, d: DecorrelatedMeasurement) -> GaussianBelief:
    """Second-order extended update with the decorrelated pseudo-measurement.

    Linearizes about the position-updated estimate; the innovation subtracts
    the hypothesized bias and the second-order mean correction, and the gain
    denominator carries the quadratic variance inflation on top of the
    residual measurement variance.
    """
    ws = _Workspace(belief.mean.shape[:-1], belief.mean.shape[-1])
    ws.x1[...], ws.cov1[...] = belief.mean, belief.cov
    _update_pseudo(ws, d, ..., ws.x, ws.cov)
    return GaussianBelief(ws.x, ws.cov)


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
    ws = _Workspace(ok.shape[1:], init.mean.shape[-1])
    mean, cov = init.mean, init.cov
    for k, step in enumerate(steps):
        _predict(ws, mean, cov, model)
        mean, cov = means[k], covs[k]  # this scan's output, the next one's input
        try:
            if every[k]:
                _update_position(ws, d, k)
                _update_pseudo(ws, d, k, mean, cov)
                continue
            mean[...], cov[...] = ws.x, ws.cov
            if some[k]:
                sel = ok[k]
                dk, prior = d[k][sel], GaussianBelief(ws.x, ws.cov)[sel]
                post = ekf_update_pseudo(kf_update_position(prior, dk), dk)
                mean[sel], cov[sel] = post.mean, post.cov
        except (DegenerateCovarianceError, ValueError) as exc:
            raise type(exc)(f"step {step}: {exc}") from exc
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
