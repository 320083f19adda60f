"""Sequential filtering on converted measurements.

Each scan is processed in two stages. The converted position is linear in
the state and goes through a standard Kalman update. The pseudo-measurement
``eta = r * rdot`` is quadratic in the state; its error is first decorrelated
from the position errors (a Schur-complement / LDL^T step), then applied
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
``A H^T`` are row and column selections. The gain ``K^T = S^{-1} (H P)``
comes from one elimination, the LDL^T elimination of ``S = P_pp + R``
that also decorrelates the pseudo-measurement (``conversion._ldl``), with
forward substitution, pivot scaling and back substitution on the rows of
``H P``; an item whose pivots are not all positive and finite falls back
to a solve, or to the minimum-norm least-squares gain when ``S`` is
exactly singular. For the
scalar pseudo update the same product reads ``A - (A h - r g) g^T`` with
``A = P - g (P h)^T``. Every covariance-producing operation symmetrizes its
output.

Each stage is one kernel over a batch of tracks, entries first: a state is
``(n, tracks)`` and a covariance ``(n * n, tracks)``, one contiguous row
per matrix entry, so each operation is one numpy call over every track. A
small matrix product gathers the rows of its terms with ``take`` and the
module's index tables, multiplies them as rows and adds the terms in
order, one explicit add each: a reduction over the entries would round a
lone track apart from the same track in a batch, because numpy sums a
contiguous axis (a single track's) pairwise. No operation rounds by the
batch shape, so a track gives the same bits alone or in any batch. The
kernels run on a workspace that preallocates every intermediate and makes
its views once; each operation writes with ``out=`` or in place.

:func:`filter_scans` decorrelates every scan in one pass, into scan-major
rows ``(scans, entry, tracks)``, and reuses one workspace for every scan: a
scan's last operation writes straight into its output, which the next
predict reads. A scan in which only some tracks update runs the same
kernels on every track, the others on a neutral placeholder measurement,
and puts their prediction back. The public stages are thin wrappers that
run the same kernels on a fresh workspace.

The two pipeline variants differ only in where their conversion statistics
come from: RCMKF-U uses the measurement-conditioned moments, RCMKF-D the
nested-conditioning ones. The filter code path is shared.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .conversion import ConversionMethod, ConvertedMeasurement, convert
from .conversion import _back, _factor, _forward, _ldl
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


def _sum_rows(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` into ``out``, added in order.

    Explicit adds round alike for any number of tracks; a reduction over
    the entry axis would not, since numpy sums a contiguous axis (that of a
    single track) pairwise.
    """
    if len(terms) == 1:
        np.copyto(out, terms[0])
        return out
    np.add(terms[0], terms[1], out=out)
    for term in terms[2:]:
        out += term
    return out


# Indices exchanging the position and velocity halves of a state.
_BLOCK_SWAP = {p: np.r_[p : 2 * p, 0:p] for p in (1, 2, 3)}


def _product_index(rows: int, inner: int, cols: int, left, right) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of ``C[i, j] = sum_k L[i, k] R[k, j]`` on entries-first operands.

    ``left(i, k)`` and ``right(k, j)`` give the row of each operand's entry.
    Both tables are ``(inner, rows * cols)``: row ``k`` gathers the ``k``-th
    term of every entry of ``C``, row-major.
    """
    entries = [(i, j) for i in range(rows) for j in range(cols)]
    return (
        np.array([[left(i, k) for i, _ in entries] for k in range(inner)]),
        np.array([[right(k, j) for _, j in entries] for k in range(inner)]),
    )


class _Layout:
    """Entry rows of a decorrelated measurement, and the kernels' index tables, for one ``p``.

    A measurement's rows are the position block ``cov_pos`` of its error
    covariance (row-major), ``debiased_pos``, ``l_row``, then ``var_pseudo``,
    ``debiased_pseudo`` and ``pseudo``. ``neutral`` is the placeholder of a
    track that does not update: with ``R = I``, ``var_pseudo = 1`` and
    zeros elsewhere every update is finite and well-posed, and its result
    is discarded.
    """

    def __init__(self, p: int):
        n, q = 2 * p, p * p
        self.cov_pos, self.pos, self.l_row = slice(0, q), slice(q, q + p), slice(q + p, q + 2 * p)
        self.var, self.debiased, self.pseudo = q + 2 * p, q + 2 * p + 1, q + 2 * p + 2
        self.size = q + 2 * p + 3
        self.neutral = np.zeros(self.size)
        self.neutral[self.cov_pos] = np.eye(p).ravel()
        self.neutral[self.var] = 1.0
        square = [(i, j) for i in range(n) for j in range(n)]
        self.transpose = np.array([j * n + i for i, j in square])
        self.pp = np.array([i * n + j for i in range(p) for j in range(p)])  # H P H^T
        self.h_cols = np.array([i * n + j for i in range(n) for j in range(p)])  # A H^T
        # K (H P) and K R in one product on K^T and the rows of P followed by
        # those of R, where K[i, k] = K^T[k, i]
        khp = _product_index(n, p, n, lambda i, k: k * n + i, lambda k, j: k * n + j)
        kr = _product_index(n, p, p, lambda i, k: k * n + i, lambda k, j: n * n + k * p + j)
        self.khp_kr = tuple(np.concatenate(pair, axis=1) for pair in zip(khp, kr))
        self.krk = _product_index(n, p, n, lambda i, k: i * p + k, lambda k, j: k * n + j)
        self.dx = np.array([k for k in range(p) for _ in range(n)])  # innovation k of K^T[k, j]
        self.matvec = _product_index(n, n, 1, lambda i, k: i * n + k, lambda k, j: k)  # M v
        self.outer = (np.array([i for i, _ in square]), np.array([j for _, j in square]))
        # a_k's terms P[i, j] P[p + i, swap(j)], j-major: (2, n, p)
        swap = _BLOCK_SWAP[p]
        self.a_k = np.array(
            [[[i * n + j for i in range(p)] for j in range(n)],
             [[(p + i) * n + swap[j] for i in range(p)] for j in range(n)]]
        )
        self.trace = [i * n + p + i for i in range(p)]  # the diagonal of P_pv


@functools.cache
def _layout(p: int) -> _Layout:
    """The layout of position dimension ``p``, built on first use."""
    if p not in (1, 2, 3):
        raise ValueError("position dimension must be 1, 2 or 3")
    return _Layout(p)


def _decorrelate(z: ConvertedMeasurement, out: np.ndarray) -> np.ndarray:
    """:func:`decorrelate` of every item of ``z`` into the entry rows ``out``.

    ``out`` is ``(size,) + items`` in the row order of :class:`_Layout`; it
    may be a strided view. Returns the per-item validity mask.

    The row comes in closed form, for all items at once, from the one LDL^T
    elimination of the library, :func:`~rcmkf.conversion._ldl`, of each
    joint covariance: the last pivot is the Schur complement
    ``var_pseudo``, and back substitution with the multipliers ``L`` solves
    ``L_pp^T l = -L_p`` for ``l_row``, so that ``l^T = -R_ep R_pp^-1``. An
    item whose position pivots are not all positive and finite (a singular
    or indefinite block) falls back to a solve. An item is invalid when its
    position block is singular while the cross row is nonzero, or when its
    residual variance is negative beyond rounding; its rows are then
    meaningless.

    Every field of ``z`` must carry the leading axes ``items`` of ``out``
    and of the mask; a field that would only broadcast to them raises
    :class:`ValueError`, as it would pair items with other items' values.
    """
    p = z.dim
    lay = _layout(p)
    items = out.shape[1:]
    for name, shape in (
        ("position", np.shape(z.position)[:-1]),
        ("pseudo", np.shape(z.pseudo)),
        ("mu", np.shape(z.mu)[:-1]),
        ("cov", np.shape(z.cov)[:-2]),
    ):
        if shape != items:
            raise ValueError(f"measurement {name} batch {shape} does not match the mask's {items}")
    cov = np.moveaxis(np.asarray(z.cov, dtype=float), (-2, -1), (0, 1))
    mu = np.moveaxis(np.asarray(z.mu, dtype=float), -1, 0)
    position = np.moveaxis(np.asarray(z.position, dtype=float), -1, 0)
    r_ep, r_ee, l_row = cov[p, :p], cov[p, p], out[lay.l_row]
    np.copyto(out[lay.cov_pos].reshape((p, p) + items), cov[:p, :p])

    def dot(a, b):
        terms = a * b
        return _sum_rows(terms, np.empty(terms.shape[1:]))

    pivots, mult, _ = _ldl(cov)
    var_eps = np.asarray(pivots.pop())  # a new array: the last pivot
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l_rows = [np.negative(mult[p][c], out=l_row[c, ...]) for c in range(p)]
        _back(mult, l_rows, np.empty(items))
        # NaN fails both tests
        if r_ee.size and not all(d.min() > 0 and d.max() < np.inf for d in pivots):
            bad = ~np.logical_and.reduce([(d > 0) & (d < np.inf) for d in pivots])
            # a zero cross row needs no solve; a singular block elsewhere gives NaN
            l_row[..., bad] = -_solve_each(
                cov[:p, :p][..., bad].transpose(2, 0, 1),
                r_ep[..., bad].T[..., None],
                lambda a, b: np.zeros_like(b) if not np.any(b) else np.full_like(b, np.nan),
            )[..., 0].T
            var_eps[bad] = r_ee[bad] + dot(l_row[..., bad], r_ep[..., bad])
    ok = np.isfinite(l_row).all(axis=0) & ~(var_eps <= -1e-9 * np.maximum(r_ee, 1.0))
    np.maximum(var_eps, 0.0, out=out[lay.var, ...])
    np.subtract(position, mu[:p], out=out[lay.pos])
    pseudo = np.add(dot(l_row, position), z.pseudo, out=out[lay.pseudo, ...])
    np.subtract(pseudo, dot(l_row, mu[:p]) + mu[p], out=out[lay.debiased, ...])
    return ok


def decorrelate(z: ConvertedMeasurement) -> DecorrelatedMeasurement:
    """Remove the position/pseudo error correlation from a conversion.

    With the joint covariance split into position block ``R_pp``, cross row
    ``R_ep`` and scalar ``R_ee``, the row ``L = -R_ep @ inv(R_pp)`` makes the
    transformed pseudo error ``L @ pos_err + eta_err`` uncorrelated with the
    position errors; its variance is ``R_ee - R_ep inv(R_pp) R_ep^T``.
    Raises :class:`DegenerateCovarianceError` when the position block is
    singular or the residual variance is negative beyond rounding.
    """
    p, lay, items = z.dim, _layout(z.dim), np.shape(z.pseudo)
    rows = np.empty((lay.size,) + items)
    if not np.all(_decorrelate(z, rows)):
        raise DegenerateCovarianceError(
            "singular position error covariance or negative residual pseudo-measurement variance"
        )
    # item-major views of the entry rows
    return DecorrelatedMeasurement(
        cov_pos=np.moveaxis(rows[lay.cov_pos].reshape((p, p) + items), (0, 1), (-2, -1)),
        pseudo=rows[lay.pseudo],
        var_pseudo=rows[lay.var],
        l_row=np.moveaxis(rows[lay.l_row], 0, -1),
        debiased_pos=np.moveaxis(rows[lay.pos], 0, -1),
        debiased_pseudo=rows[lay.debiased],
        dim=p,
    )


_HALF = np.array(0.5)  # a 0-d array multiplies faster than a Python float


class _Workspace:
    """Entry-row buffers of the stage kernels for ``tracks`` tracks of size ``n``, made once.

    A state is ``(n, tracks)`` and a covariance ``(n * n, tracks)``, one
    contiguous row per entry (row-major). Predict writes ``x``, ``cov``; the
    position update reads them and writes ``x1``, ``cov1``, which the pseudo
    update reads; the rest hold temporaries. The views of all of them, and
    the lists of rows that get summed, are made here once.
    """

    def __init__(self, tracks: int, n: int):
        p = self.p = n // 2
        self.n = n
        lay = self.lay = _layout(p)
        pn, nn, q = p * n, n * n, p * p

        def buf(*shape):
            return np.empty(shape + (tracks,))

        def gathered(inner, entries):
            ga = buf(inner, entries)
            return ga, buf(inner, entries), list(ga)

        # the model's sampling interval and process noise rows, set by predict
        self.model, self.t, self.q = None, np.empty(()), buf(nn)
        self.x, self.x1, self.cov1, self.a, self.nn, self.tr = (
            buf(n), buf(n), buf(nn), buf(nn), buf(nn), buf(nn)
        )
        self.x_pos, self.x_vel, self.x1_pos, self.x1_vel = (
            self.x[:p], self.x[p:], self.x1[:p], self.x1[p:]
        )
        # P is followed by the rows of R, for the product K [H P | R]
        self.cov_r = buf(nn + q)
        self.cov, self.r = self.cov_r[:nn], self.cov_r[nn:]
        self.a_top, self.a_bottom, self.nn_top, self.nn_bottom, self.tr_top, self.tr_bottom = (
            self.a[:pn], self.a[pn:], self.nn[:pn], self.nn[pn:], self.tr[:pn], self.tr[pn:]
        )
        # position update: S, eliminated in place so that its diagonal ends as
        # the pivots, and the rows of K^T followed by the pivots' logarithms
        self.s, self.mult, self.s_tmp, self.gain_tmp = buf(q), buf(p, p), buf(), buf(n)
        self.s_lower = [[self.s[i * p + j] for j in range(i + 1)] for i in range(p)]
        self.mult_lower = [[self.mult[i, k] for k in range(i)] for i in range(p)]
        self.pivots, self.hp, self.gain_log = self.s[:: p + 1], self.cov[:pn], buf(pn + p)
        self.gain_t, self.log_pivots = self.gain_log[:pn], self.gain_log[pn:]
        self.gain_k, self.pivot_cols = self.gain_t.reshape(p, n, tracks), self.pivots[:, None]
        self.gain_rows = list(self.gain_k)
        self.innov, self.dx_terms, self.dx = buf(p), buf(p, n), buf(n)
        self.dx_rows, self.dx_sum = self.dx_terms.reshape(pn, tracks), list(self.dx_terms)
        self.khp_kr, self.h_cols = buf(nn + pn), buf(pn)
        self.khp, self.kr = self.khp_kr[:nn], self.khp_kr[nn:]
        self.g_khp_kr = gathered(p, nn + pn)
        self.g_krk = gathered(p, nn)
        # pseudo update
        self.h, self.ph, self.g, self.mv, self.tn = buf(n), buf(n), buf(n), buf(n), buf(n)
        self.h_pos, self.h_vel, self.tn_rows = self.h[:p], self.h[p:], list(self.tn)
        self.g_matvec, self.g_outer = gathered(n, n), (buf(nn), buf(nn))
        self.a_k_terms, self.a_k_rows = buf(2, n, p), buf(p)
        self.a_k_sum, self.a_k_rows_sum = list(self.a_k_terms[0]), list(self.a_k_rows)
        self.trace_rows = [self.cov1[i] for i in lay.trace]
        self.pos_terms = buf(p)
        self.pos_rows = list(self.pos_terms)
        self.trace, self.a_k, self.r_k, self.s1, self.h_val, self.innov1 = (
            buf() for _ in range(6)
        )


def _symmetrize_rows(ws: _Workspace, a: np.ndarray, out: np.ndarray) -> None:
    """``(a + a^T) / 2`` of covariance rows ``a`` into ``out``."""
    a.take(ws.lay.transpose, 0, ws.tr, "clip")
    np.add(a, ws.tr, out=out)
    out *= _HALF


def _product(a: np.ndarray, b: np.ndarray, index, gathered, out: np.ndarray) -> np.ndarray:
    """Small matrix products of entry rows: ``out[e] = sum_k a[ia[k, e]] b[ib[k, e]]``.

    ``index`` is ``(ia, ib)`` from :func:`_product_index`; ``gathered`` is
    two buffers that the terms are gathered into, and the list of the
    first one's rows. The terms are multiplied as rows and summed in order
    of ``k``.
    """
    ga, gb, terms = gathered
    a.take(index[0], 0, ga, "clip")  # in-range indices: clip skips a copy
    b.take(index[1], 0, gb, "clip")
    ga *= gb
    return _sum_rows(terms, out)


def _outer(ws: _Workspace, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows of ``u v^T`` for state rows ``u``, ``v``, in ``ws.g_outer[0]``."""
    gu, gv = ws.g_outer
    u.take(ws.lay.outer[0], 0, gu, "clip")
    v.take(ws.lay.outer[1], 0, gv, "clip")
    gu *= gv
    return gu


def _predict(ws: _Workspace, mean: np.ndarray, cov: np.ndarray, model: DynamicModel) -> None:
    """Time update of the rows ``mean`` ``(n, tracks)``, ``cov`` ``(n * n, tracks)``.

    Writes ``ws.x`` and ``ws.cov``.

    ``phi = [[I, t I], [0, I]]`` acts on rows: ``A = phi P`` adds ``t`` times
    the velocity rows to the position rows, and ``(A phi^T)^T = phi A^T``
    is the same step on the rows of ``A^T``.
    """
    if len(mean) != model.n:
        raise ValueError("belief size does not match the model")
    if model is not ws.model:
        ws.model, ws.t = model, np.array(model.t)
        ws.q[...] = model.process_noise_cov().reshape(-1, 1)
    p, t, pn = ws.p, ws.t, ws.p * ws.n
    np.multiply(mean[p:], t, out=ws.x_pos)
    np.add(mean[:p], ws.x_pos, out=ws.x_pos)
    ws.x_vel[...] = mean[p:]
    np.multiply(cov[pn:], t, out=ws.a_top)
    np.add(cov[:pn], ws.a_top, out=ws.a_top)
    ws.a_bottom[...] = cov[pn:]
    ws.a.take(ws.lay.transpose, 0, ws.tr, "clip")
    np.multiply(ws.tr_bottom, t, out=ws.nn_top)
    np.add(ws.tr_top, ws.nn_top, out=ws.nn_top)
    ws.nn_bottom[...] = ws.tr_bottom
    ws.nn += ws.q
    _symmetrize_rows(ws, ws.nn, ws.cov)


def _update_position(ws: _Workspace, m: np.ndarray) -> None:
    """Update of ``ws.x``, ``ws.cov`` with the position of the measurement rows ``m``.

    Writes ``ws.x1`` and ``ws.cov1``.
    """
    p, lay = ws.p, ws.lay
    if len(m) != lay.size:
        raise ValueError("measurement dimension does not match the belief")
    ws.r[...] = m[lay.cov_pos]
    ws.cov.take(lay.pp, 0, ws.s, "clip")
    ws.s += ws.r  # S = H P H^T + R
    # K^T = S^-1 (H P) = L^-T D^-1 L^-1 (H P) by the LDL^T elimination of S
    _factor(ws.s_lower, ws.mult_lower, ws.s_tmp)
    np.copyto(ws.gain_t, ws.hp)
    _forward(ws.mult_lower, ws.gain_rows, ws.gain_tmp)
    ws.gain_k /= ws.pivot_cols
    _back(ws.mult_lower, ws.gain_rows, ws.gain_tmp)
    # log d is finite exactly when the pivot d is positive and finite, so one
    # test passes the gain rows and the pivots together (NaN fails both)
    np.log(ws.pivots, out=ws.log_pivots)
    if not (ws.gain_log.min() > -np.inf and ws.gain_log.max() < np.inf):
        bad = ~np.isfinite(ws.log_pivots).all(axis=0)
        s = ws.cov.take(lay.pp, 0)[:, bad] + ws.r[:, bad]  # the elimination overwrote S
        # an exactly singular S comes from a collapsed (noise-free) covariance,
        # where the minimum-norm gain is the correct limit
        ws.gain_t[:, bad] = _solve_each(
            s.T.reshape(-1, p, p),
            ws.hp[:, bad].T.reshape(-1, p, ws.n),
            lambda a, c: np.linalg.lstsq(a, c, rcond=None)[0],
        ).reshape(-1, p * ws.n).T
        if not (ws.gain_t.min() > -np.inf and ws.gain_t.max() < np.inf):
            raise DegenerateCovarianceError("position innovation covariance is singular")
    np.subtract(m[lay.pos], ws.x_pos, out=ws.innov)
    ws.innov.take(lay.dx, 0, ws.dx_rows, "clip")
    ws.dx_rows *= ws.gain_t
    np.add(ws.x, _sum_rows(ws.dx_sum, ws.dx), out=ws.x1)
    _product(ws.gain_t, ws.cov_r, lay.khp_kr, ws.g_khp_kr, ws.khp_kr)  # K (H P), K R
    np.subtract(ws.cov, ws.khp, out=ws.a)  # A = P - K (H P)
    ws.a.take(lay.h_cols, 0, ws.h_cols, "clip")
    ws.h_cols -= ws.kr  # A H^T - K R
    _product(ws.h_cols, ws.gain_t, lay.krk, ws.g_krk, ws.nn)
    np.subtract(ws.a, ws.nn, out=ws.nn)
    _symmetrize_rows(ws, ws.nn, ws.cov1)


def _quadratic(ws: _Workspace) -> None:
    """``tr(P_pv)`` into ``ws.trace`` and ``a_k`` into ``ws.a_k``, for ``P = ws.cov1``."""
    _sum_rows(ws.trace_rows, ws.trace)
    ws.cov1.take(ws.lay.a_k, 0, ws.a_k_terms, "clip")
    ws.a_k_terms[0] *= ws.a_k_terms[1]
    _sum_rows(ws.a_k_sum, ws.a_k_rows)  # over j, then over i
    _sum_rows(ws.a_k_rows_sum, ws.a_k)


def _update_pseudo(
    ws: _Workspace, m: np.ndarray, mean_out: np.ndarray, cov_out: np.ndarray
) -> None:
    """Update of ``ws.x1``, ``ws.cov1`` with the pseudo of the rows ``m``.

    Writes ``mean_out`` and ``cov_out``.
    """
    lay = ws.lay
    np.add(ws.x1_vel, m[lay.l_row], out=ws.h_pos)  # h = (l_row + vel, pos)
    ws.h_vel[...] = ws.x1_pos
    _quadratic(ws)
    _product(ws.cov1, ws.h, lay.matvec, ws.g_matvec, ws.ph)  # P h
    np.add(m[lay.var], ws.a_k, out=ws.r_k)
    np.multiply(ws.h, ws.ph, out=ws.tn)
    _sum_rows(ws.tn_rows, ws.s1)
    ws.s1 += ws.r_k
    np.multiply(ws.h_pos, ws.x1_pos, out=ws.pos_terms)
    _sum_rows(ws.pos_rows, ws.h_val)  # (l_row + vel) @ pos
    # less the second-order mean correction delta2 / 2 = tr(P_pv)
    np.subtract(m[lay.debiased], ws.h_val, out=ws.innov1)
    ws.innov1 -= ws.trace
    # the true variance is nonnegative for PSD inputs, so s <= 0 is a
    # collapsed (deterministic) measurement: a no-op when the innovation is
    # consistent, a genuine degeneracy otherwise; NaN also takes this branch
    collapsed = None if ws.s1.min() > 0 else ws.s1 <= 0
    if collapsed is not None:
        scale = np.maximum(np.maximum(np.abs(m[lay.pseudo]), np.abs(ws.h_val)), 1.0)
        if np.any(collapsed & (np.abs(ws.innov1) > 1e-9 * scale)):
            raise DegenerateCovarianceError("pseudo-measurement innovation variance is not positive")
        ws.s1[collapsed] = 1.0
    np.divide(ws.ph, ws.s1, out=ws.g)
    np.multiply(ws.g, ws.innov1, out=ws.tn)
    np.add(ws.x1, ws.tn, out=mean_out)
    np.subtract(ws.cov1, _outer(ws, ws.g, ws.ph), out=ws.a)  # A = P - g (P h)^T
    _product(ws.a, ws.h, lay.matvec, ws.g_matvec, ws.mv)
    np.multiply(ws.r_k, ws.g, out=ws.tn)
    ws.mv -= ws.tn  # A h - r g
    np.subtract(ws.a, _outer(ws, ws.mv, ws.g), out=ws.nn)
    _symmetrize_rows(ws, ws.nn, cov_out)
    if collapsed is not None:
        np.copyto(mean_out, ws.x1, where=collapsed)
        np.copyto(cov_out, ws.cov1, where=collapsed)


def _tracks(a, entry_axes: int) -> np.ndarray:
    """Item-major ``a`` with ``entry_axes`` trailing entry axes, as rows ``(entries, tracks)``."""
    a = np.asarray(a, dtype=float)
    return a.reshape((-1, math.prod(a.shape[a.ndim - entry_axes :]))).T


def _items(rows: np.ndarray, batch: tuple[int, ...], entries: tuple[int, ...]) -> np.ndarray:
    """Entry rows ``(entries, tracks)`` as an item-major ``batch + entries`` view."""
    return rows.T.reshape(batch + entries)


def _measurement_rows(d: DecorrelatedMeasurement) -> np.ndarray:
    """A :class:`DecorrelatedMeasurement`'s fields as entry rows ``(size, tracks)``."""
    p = d.dim
    fields = [np.reshape(d.cov_pos, d.cov_pos.shape[:-2] + (p * p,)), d.debiased_pos, d.l_row]
    fields += [np.asarray(f)[..., None] for f in (d.var_pseudo, d.debiased_pseudo, d.pseudo)]
    return np.concatenate([_tracks(f, 1) for f in fields])


def kf_predict(belief: GaussianBelief, model: DynamicModel) -> GaussianBelief:
    """Time update through the dynamic model (filters assume zero input)."""
    batch, n = belief.mean.shape[:-1], belief.mean.shape[-1]
    ws = _Workspace(math.prod(batch), n)
    _predict(ws, _tracks(belief.mean, 1), _tracks(belief.cov, 2), model)
    return GaussianBelief(_items(ws.x, batch, (n,)), _items(ws.cov, batch, (n, n)))


def kf_update_position(belief: GaussianBelief, d: DecorrelatedMeasurement) -> GaussianBelief:
    """Linear measurement update with the converted position.

    The innovation is compensated for the hypothesized conversion bias:
    ``z - mu - H x``. Joseph form, in the factored product of the module
    docstring, keeps the covariance PSD.
    """
    batch, n = belief.mean.shape[:-1], belief.mean.shape[-1]
    ws = _Workspace(math.prod(batch), n)
    ws.x[...], ws.cov[...] = _tracks(belief.mean, 1), _tracks(belief.cov, 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # as in filter_scans
        _update_position(ws, _measurement_rows(d))
    return GaussianBelief(_items(ws.x1, batch, (n,)), _items(ws.cov1, batch, (n, n)))


def pseudo_jacobian(state: np.ndarray, l_row: np.ndarray) -> np.ndarray:
    """Gradient of ``h(x) = l_row @ pos + pos @ vel`` at a state vector."""
    p = np.shape(l_row)[-1]
    h_row = np.asarray(state, dtype=float).take(_BLOCK_SWAP[p], -1)  # (vel, pos)
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
    batch, n = cov.shape[:-2], cov.shape[-1]
    ws = _Workspace(math.prod(batch), n)
    ws.cov1[...] = _tracks(cov, 2)
    _quadratic(ws)
    return 2.0 * ws.trace.reshape(batch), ws.a_k.reshape(batch)


def ekf_update_pseudo(belief: GaussianBelief, d: DecorrelatedMeasurement) -> GaussianBelief:
    """Second-order extended update with the decorrelated pseudo-measurement.

    Linearizes about the position-updated estimate; the innovation subtracts
    the hypothesized bias and the second-order mean correction, and the gain
    denominator carries the quadratic variance inflation on top of the
    residual measurement variance.
    """
    batch, n = belief.mean.shape[:-1], belief.mean.shape[-1]
    ws = _Workspace(math.prod(batch), n)
    ws.x1[...], ws.cov1[...] = _tracks(belief.mean, 1), _tracks(belief.cov, 2)
    _update_pseudo(ws, _measurement_rows(d), ws.x, ws.cov)
    return GaussianBelief(_items(ws.x, batch, (n,)), _items(ws.cov, batch, (n, n)))


def initialize_belief(
    z1: ConvertedMeasurement, z2: ConvertedMeasurement, t: float
) -> GaussianBelief:
    """Two-point differencing start from consecutive converted positions.

    Position comes from the second (bias-compensated) measurement, velocity
    from the difference quotient; the covariance follows from propagating the
    two independent position error covariances through the differencing map.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"sampling interval must be positive and finite, got {t!r}")
    if z1.dim != z2.dim:
        raise ValueError("measurements must share dimensionality")
    p = z1.dim
    pos1 = z1.position - z1.mu[..., :p]
    pos2 = z2.position - z2.mu[..., :p]
    mean = np.concatenate([pos2, (pos2 - pos1) / t], axis=-1)
    r1 = z1.cov[..., :p, :p]
    r2 = z2.cov[..., :p, :p]
    cov = np.block([[r2, r2 / t], [r2 / t, (r1 + r2) / t**2]])
    return GaussianBelief(mean, 0.5 * (cov + cov.swapaxes(-1, -2)))


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

    Every scan is decorrelated up front, into scan-major entry rows
    ``(scans, entry, tracks)``. The outputs are stored entries first,
    ``(n, scans, tracks)`` and ``(n * n, scans, tracks)``, and returned as
    views in the item-major layout. A scan where only some tracks update
    runs the same kernels on every track, the others on a neutral
    placeholder measurement, and then puts back their prediction.
    """
    ok = np.asarray(ok, dtype=bool)
    scans, batch = ok.shape[0], ok.shape[1:]
    steps = list(steps)
    if len(steps) != scans:
        raise ValueError(f"got {len(steps)} step numbers for {scans} scans")
    if init.mean.shape[:-1] != batch:
        raise ValueError(
            f"initial beliefs of batch shape {init.mean.shape[:-1]} do not match the "
            f"tracks' {batch}"
        )
    n, lay, tracks = init.mean.shape[-1], _layout(z.dim), math.prod(batch)
    rows = np.empty((scans, lay.size) + batch)
    ok = ok & _decorrelate(z, np.moveaxis(rows, 1, 0))
    rows = rows.reshape(scans, lay.size, tracks)
    update = ok.reshape(scans, tracks)
    every, some = update.all(axis=1).tolist(), update.any(axis=1).tolist()
    if not all(every):
        np.copyto(rows, lay.neutral[:, None], where=~update[:, None])
    means, covs = np.empty((scans, n, tracks)), np.empty((scans, n * n, tracks))
    ws = _Workspace(tracks, n)
    mean, cov = _tracks(init.mean, 1), _tracks(init.cov, 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero pivots go to the gain's fallback
        for k, step in enumerate(steps):
            _predict(ws, mean, cov, model)
            mean, cov = means[k], covs[k]  # this scan's output, the next one's input
            if not some[k]:
                mean[...], cov[...] = ws.x, ws.cov
                continue
            try:
                _update_position(ws, rows[k])
                _update_pseudo(ws, rows[k], mean, cov)
            except (DegenerateCovarianceError, ValueError) as exc:
                raise type(exc)(f"step {step}: {exc}") from exc
            if not every[k]:
                keep = ~update[k]
                np.copyto(mean, ws.x, where=keep)
                np.copyto(cov, ws.cov, where=keep)
    post = GaussianBelief(
        np.moveaxis(means.reshape((scans, n) + batch), 1, -1),
        np.moveaxis(covs.reshape((scans, n, n) + batch), (1, 2), (-2, -1)),
    )
    return post, ok


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
