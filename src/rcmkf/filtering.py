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
comes from the LDL^T elimination of ``S = P_pp + R``, with forward
substitution, pivot scaling and back substitution on the rows of ``H P``.
These are the operations of ``conversion._ldl``, which decorrelates the
pseudo-measurement, in the same order, but the gain runs its own copy,
bound once on the workspace's buffers because it runs on every scan.
``_ldl`` makes new arrays, which suits its one-off callers: the PSD
screen of 2000 x 2 items, run as calls bound on a copy of its buffers,
took about 150 us per call against 52-80 us (2 vCPUs). An item whose
pivots are not all positive and finite falls back to a solve, or to the
minimum-norm least-squares gain when ``S`` is exactly singular. For the
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
batch shape, so a track gives the same bits alone or in any batch.

The kernels are bound once per workspace, which preallocates every
intermediate: each is a list of ufunc calls on views of its buffers, made
with the workspace, the elimination and substitution loops unrolled for
its ``p``, plus the few calls on the rows a scan passes in. Each call
writes with ``out`` or in place, so a scan makes its numpy calls and
little else. The position update forms ``K innov`` in the same product as
``K (H P)`` and ``K R``, and tests its gain with one finiteness sum.

:func:`filter_scans` decorrelates every scan in one pass, into scan-major
rows ``(scans, entry, tracks)``, and reuses one workspace for every scan: a
scan's last operation writes straight into its output, which the next
predict reads. Every scan takes the one path, whether all, some or none
of its tracks update: the same kernels run on every track, a track that
does not update on a neutral placeholder measurement, and such a track's
prediction is put back. Sizes are checked once, by :func:`filter_scans`
and the public stages, which are thin wrappers that run the same kernels
on a fresh workspace.

The two pipeline variants differ only in where their conversion statistics
come from: RCMKF-U uses the measurement-conditioned moments, RCMKF-D the
nested-conditioning ones. The filter code path is shared.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .conversion import ConversionMethod, ConvertedMeasurement, _convert_batch, _fields
from .conversion import _back, _ldl
from .conversion import convert  # unused; the tracer wraps it (test_benchmark_trace_hooks_resolve)
from .errors import DegenerateCovarianceError
from .scenario import DynamicModel, NoiseSpec, SphericalMeasurement, _check_interval

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


# Trailing entry axes of each array field of a converted or decorrelated measurement.
_ENTRY_AXES = dict(position=1, pseudo=0, mu=1, cov=2, cov_pos=2, var_pseudo=0, l_row=1,
                   debiased_pos=1, debiased_pseudo=0)


def _batch(m, items=None, of=None) -> tuple[int, ...]:
    """The leading axes that every field of the measurement ``m`` carries.

    ``m`` is a :class:`ConvertedMeasurement` or a
    :class:`DecorrelatedMeasurement`. Each field must carry ``items``, which
    ``of`` names, or when ``items`` is not given the first field's leading
    axes. A field that would only broadcast to them raises
    :class:`ValueError` naming both batches, as it would pair items with
    other items' values.
    """
    for f in fields(m):
        if f.name in _ENTRY_AXES:
            shape = np.shape(getattr(m, f.name))[: -_ENTRY_AXES[f.name] or None]
            if items is None:
                items, of = shape, f"the {f.name}'s"
            elif shape != items:
                raise ValueError(f"measurement {f.name} batch {shape} does not match {of} {items}")
    return items


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


def _adds(terms, out: np.ndarray) -> list:
    """The calls that add ``terms[0] + terms[1] + ...`` into ``out``, in order.

    A call is a pair ``(f, args)``. Explicit adds round alike for any number
    of tracks; a reduction over the entry axis would not, since numpy sums a
    contiguous axis (that of a single track) pairwise.
    """
    if len(terms) == 1:
        return [(np.copyto, (out, terms[0]))]
    return [(np.add, (terms[0], terms[1], out))] + [(np.add, (out, t, out)) for t in terms[2:]]


def _run(calls: list) -> None:
    for f, args in calls:
        f(*args)


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
        # K (H P), K R and K innov in one product on K^T and the rows of P
        # followed by those of R and the innovation, where K[i, k] = K^T[k, i]
        khp = _product_index(n, p, n, lambda i, k: k * n + i, lambda k, j: k * n + j)
        kr = _product_index(n, p, p, lambda i, k: k * n + i, lambda k, j: n * n + k * p + j)
        dx = _product_index(n, p, 1, lambda i, k: k * n + i, lambda k, j: n * n + q + k)
        self.khp_kr_dx = tuple(np.concatenate(parts, axis=1) for parts in zip(khp, kr, dx))
        self.krk = _product_index(n, p, n, lambda i, k: i * p + k, lambda k, j: k * n + j)
        self.pp = np.array([i * n + j for i in range(p) for j in range(p)])  # H P H^T
        self.h_cols = np.array([i * n + j for i in range(n) for j in range(p)])  # A H^T
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
    and of the mask (:func:`_batch`).
    """
    p = z.dim
    lay = _layout(p)
    items = _batch(z, out.shape[1:], "the mask's")
    cov = np.moveaxis(np.asarray(z.cov, dtype=float), (-2, -1), (0, 1))
    mu = np.moveaxis(np.asarray(z.mu, dtype=float), -1, 0)
    position = np.moveaxis(np.asarray(z.position, dtype=float), -1, 0)
    r_ep, r_ee, l_row = cov[p, :p], cov[p, p], out[lay.l_row]
    np.copyto(out[lay.cov_pos].reshape((p, p) + items), cov[:p, :p])

    def dot(a, b):
        terms = a * b
        out = np.empty(terms.shape[1:])
        _run(_adds(terms, out))
        return out

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
    p, lay, items = z.dim, _layout(z.dim), _batch(z)
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


def _product(a: np.ndarray, b: np.ndarray, index, gathered, out: np.ndarray) -> list:
    """The calls of ``out[e] = sum_k a[ia[k, e]] b[ib[k, e]]`` on entry rows.

    ``index`` is ``(ia, ib)`` from :func:`_product_index`. The terms are
    gathered into the two buffers ``gathered``, multiplied as rows and
    summed in order of ``k``.
    """
    ga, gb = gathered
    # in-range indices: clip skips a copy
    return [(a.take, (index[0], 0, ga, "clip")), (b.take, (index[1], 0, gb, "clip")),
            (np.multiply, (ga, gb, ga))] + _adds(ga, out)


def _less(x, m, y, tmp) -> list:
    """The calls of ``x -= m * y`` through the scratch ``tmp``."""
    return [(np.multiply, (m, y, tmp)), (np.subtract, (x, tmp, x))]


class _Workspace:
    """The stage kernels for ``tracks`` tracks of size ``n``, bound to buffers made once.

    A state is ``(n, tracks)`` and a covariance ``(n * n, tracks)``, one
    contiguous row per entry (row-major). ``predict(mean, cov, model)``
    writes ``x``, ``cov``; ``update_position(m)``, on the measurement rows
    ``m`` of :class:`_Layout`, reads them and writes ``x1``, ``cov1``;
    ``update_pseudo(m, mean_out, cov_out)`` reads those. Each kernel is a
    list of ufunc calls on views of the buffers, made once, on first use,
    and a few calls on its arguments; the other buffers hold temporaries.
    """

    def __init__(self, tracks: int, n: int):
        p, self.n, self.tracks = n // 2, n, tracks
        self.p, self.lay = p, _layout(p)
        pn, nn, q = p * n, n * n, p * p

        def buf(*shape):
            return np.empty(shape + (tracks,))

        # the model's sampling interval and process noise rows, set by predict
        self.t, self.q = np.empty(()), buf(nn)
        self.x, self.x1, self.cov1, self.a, self.nn, self.tr = (
            buf(n), buf(n), buf(nn), buf(nn), buf(nn), buf(nn)
        )
        # P followed by the rows of R and the innovation, for K [H P | R | innov]
        self.cov_r = buf(nn + q + p)
        self.cov, self.r, self.innov = self.cov_r[:nn], self.cov_r[nn:-p], self.cov_r[-p:]
        # position update: S, eliminated in place so that its diagonal ends as
        # the pivots, and the rows of K^T followed by the pivots' logarithms
        self.s, self.mult, self.s_tmp, self.gain_tmp = buf(q), buf(p, p), buf(), buf(n)
        self.gain_log, self.khp_kr_dx, self.h_cols = buf(pn + p), buf(nn + pn + n), buf(pn)
        self.g_khp_kr_dx = buf(p, nn + pn + n), buf(p, nn + pn + n)
        self.g_krk = buf(p, nn), buf(p, nn)
        # pseudo update
        self.h, self.ph, self.g, self.mv, self.tn, self.dx1 = (buf(n) for _ in range(6))
        self.g_matvec, self.g_outer = (buf(n, n), buf(n, n)), (buf(nn), buf(nn))
        self.a_k_terms, self.a_k_rows, self.pos_terms = buf(2, n, p), buf(p), buf(p)
        self.trace, self.a_k, self.r_k, self.s1, self.h_val, self.innov1 = (buf() for _ in range(6))

    # a public stage binds only its own kernel
    predict = functools.cached_property(lambda self: _predict(self))
    update_position = functools.cached_property(lambda self: _update_position(self))
    update_pseudo = functools.cached_property(lambda self: _update_pseudo(self))


def _symmetrize(ws: _Workspace, a: np.ndarray, out: np.ndarray) -> list:
    """The calls of ``(a + a^T) / 2`` of covariance rows ``a`` into ``out``."""
    return [(a.take, (ws.lay.transpose, 0, ws.tr, "clip")), (np.add, (a, ws.tr, out)),
            (np.multiply, (out, _HALF, out))]


def _predict(ws: _Workspace):
    """The time update ``predict(mean, cov, model)`` of the rows ``mean``, ``cov``.

    Writes ``ws.x`` and ``ws.cov``.

    ``phi = [[I, t I], [0, I]]`` acts on rows: ``A = phi P`` adds ``t`` times
    the velocity rows to the position rows, and ``(A phi^T)^T = phi A^T``
    is the same step on the rows of ``A^T``.
    """
    p, t, q, pn, tr, nn = ws.p, ws.t, ws.q, ws.p * ws.n, ws.tr, ws.nn
    x_pos, x_vel, a_top, a_bottom = ws.x[:p], ws.x[p:], ws.a[:pn], ws.a[pn:]
    calls = [
        (ws.a.take, (ws.lay.transpose, 0, tr, "clip")),
        (np.multiply, (tr[pn:], t, nn[:pn])),
        (np.add, (tr[:pn], nn[:pn], nn[:pn])),
        (np.copyto, (nn[pn:], tr[pn:])),
        (np.add, (nn, q, nn)),
        *_symmetrize(ws, nn, ws.cov),
    ]
    bound = None

    def predict(mean, cov, model):
        nonlocal bound
        if model is not bound:
            bound, t[...], q[...] = model, model.t, model.process_noise_cov().reshape(-1, 1)
        vel, cov_vel = mean[p:], cov[pn:]
        np.multiply(vel, t, x_pos)
        np.add(mean[:p], x_pos, x_pos)
        np.copyto(x_vel, vel)
        np.multiply(cov_vel, t, a_top)
        np.add(cov[:pn], a_top, a_top)
        np.copyto(a_bottom, cov_vel)
        for f, args in calls:
            f(*args)

    return predict


def _update_position(ws: _Workspace):
    """The update of ``ws.x``, ``ws.cov`` with the position in the rows ``m``.

    ``update_position(m)`` writes ``ws.x1`` and ``ws.cov1``.

    ``K^T = S^-1 (H P) = L^-T D^-1 L^-1 (H P)`` comes from the LDL^T
    elimination of ``S = H P H^T + R`` (the operations of
    :func:`~rcmkf.conversion._factor`, in its order, on the workspace),
    with forward substitution on the rows of ``H P`` as it goes, then pivot
    scaling and back substitution, each unrolled for the workspace's ``p``.
    """
    p, n, lay, r, innov, x_pos = ws.p, ws.n, ws.lay, ws.r, ws.innov, ws.x[: ws.p]
    nn, pn, cov_pos, pos = n * n, p * n, lay.cov_pos, lay.pos
    s = [[ws.s[i * p + j] for j in range(i + 1)] for i in range(p)]
    mult = [[ws.mult[i, k] for k in range(i)] for i in range(p)]
    pivots, gain_log, gain_t = ws.s[:: p + 1], ws.gain_log, ws.gain_log[:pn]
    gain, log_pivots = gain_t.reshape(p, n, ws.tracks), ws.gain_log[pn:]
    calls = [(ws.cov.take, (lay.pp, 0, ws.s, "clip")), (np.add, (ws.s, r, ws.s)),  # S
             (np.copyto, (gain_t, ws.cov[:pn]))]
    for k in range(p):  # the elimination, and forward substitution on the rows of H P
        for i in range(k + 1, p):
            calls.append((np.divide, (s[i][k], s[k][k], mult[i][k])))
            for j in range(k + 1, i + 1):
                calls += _less(s[i][j], mult[i][k], s[j][k], ws.s_tmp)
            calls += _less(gain[i], mult[i][k], gain[k], ws.gain_tmp)
    calls.append((np.divide, (gain, pivots[:, None], gain)))
    for c in reversed(range(p)):
        for i in range(c + 1, p):
            calls += _less(gain[c], mult[i][c], gain[i], ws.gain_tmp)
    calls.append((np.log, (pivots, log_pivots)))
    khp, kr, dx = ws.khp_kr_dx[:nn], ws.khp_kr_dx[nn : nn + pn], ws.khp_kr_dx[nn + pn :]
    joseph = [
        *_product(gain_t, ws.cov_r, lay.khp_kr_dx, ws.g_khp_kr_dx, ws.khp_kr_dx),
        (np.add, (ws.x, dx, ws.x1)),
        (np.subtract, (ws.cov, khp, ws.a)),  # A = P - K (H P)
        (ws.a.take, (lay.h_cols, 0, ws.h_cols, "clip")),
        (np.subtract, (ws.h_cols, kr, ws.h_cols)),  # A H^T - K R
        *_product(ws.h_cols, gain_t, lay.krk, ws.g_krk, ws.nn),
        (np.subtract, (ws.a, ws.nn, ws.nn)),
        *_symmetrize(ws, ws.nn, ws.cov1),
    ]

    def solve_each():
        bad = ~np.isfinite(log_pivots).all(axis=0)
        # the elimination overwrote S; an exactly singular S comes from a
        # collapsed (noise-free) covariance, where the minimum-norm gain is
        # the correct limit
        gain_t[:, bad] = _solve_each(
            (ws.cov.take(lay.pp, 0)[:, bad] + r[:, bad]).T.reshape(-1, p, p),
            ws.cov[:pn, bad].T.reshape(-1, p, n),
            lambda a, c: np.linalg.lstsq(a, c, rcond=None)[0],
        ).reshape(-1, pn).T
        if not np.isfinite(gain_t).all():
            raise DegenerateCovarianceError("position innovation covariance is singular")

    def update_position(m):
        np.copyto(r, m[cov_pos])
        for f, args in calls:
            f(*args)
        # log d is finite exactly when the pivot d is positive and finite, so
        # one finite sum passes the gain rows and the pivots together (NaN
        # fails it); a finite sum that overflows sends the scan item by item
        if not math.isfinite(np.add.reduce(gain_log, None)):
            solve_each()
        np.subtract(m[pos], x_pos, innov)
        for f, args in joseph:
            f(*args)

    return update_position


def _quadratic(ws: _Workspace) -> list:
    """The calls of ``tr(P_pv)`` into ``ws.trace`` and ``a_k`` into ``ws.a_k``, for ``ws.cov1``."""
    terms = ws.a_k_terms
    return [
        *_adds([ws.cov1[i] for i in ws.lay.trace], ws.trace),
        (ws.cov1.take, (ws.lay.a_k, 0, terms, "clip")),
        (np.multiply, (terms[0], terms[1], terms[0])),
        *_adds(terms[0], ws.a_k_rows),  # over j, then over i
        *_adds(ws.a_k_rows, ws.a_k),
    ]


def _update_pseudo(ws: _Workspace):
    """The update of ``ws.x1``, ``ws.cov1`` with the pseudo in the rows ``m``.

    ``update_pseudo(m, mean_out, cov_out)`` writes ``mean_out``, ``cov_out``.
    """
    p, lay, x1, h, ph, g, tn, s1 = ws.p, ws.lay, ws.x1, ws.h, ws.ph, ws.g, ws.tn, ws.s1
    r_k, h_val, innov1, (gu, gv) = ws.r_k, ws.h_val, ws.innov1, ws.g_outer
    x1_pos, x1_vel, h_pos, a_k, trace, dx1, nn, tr, cov1 = (
        x1[:p], x1[p:], h[:p], ws.a_k, ws.trace, ws.dx1, ws.nn, ws.tr, ws.cov1
    )
    l_row, var, debiased, pseudo = lay.l_row, lay.var, lay.debiased, lay.pseudo

    def outer(u, v):  # the rows of u v^T, into gu
        return [(u.take, (lay.outer[0], 0, gu, "clip")), (v.take, (lay.outer[1], 0, gv, "clip")),
                (np.multiply, (gu, gv, gu))]

    first = [*_quadratic(ws), (np.copyto, (h[p:], x1_pos))]  # h = (l_row + vel, pos)
    variance = [
        *_product(cov1, h, lay.matvec, ws.g_matvec, ph),  # P h
        (np.multiply, (h, ph, tn)),
        *_adds(tn, s1),
        (np.add, (s1, r_k, s1)),
        (np.multiply, (h_pos, x1_pos, ws.pos_terms)),
        *_adds(ws.pos_terms, h_val),  # (l_row + vel) @ pos
    ]
    joseph = [
        (np.divide, (ph, s1, g)),
        (np.multiply, (g, innov1, dx1)),
        *outer(g, ph),
        (np.subtract, (cov1, gu, ws.a)),  # A = P - g (P h)^T
        *_product(ws.a, h, lay.matvec, ws.g_matvec, ws.mv),
        (np.multiply, (r_k, g, tn)),
        (np.subtract, (ws.mv, tn, ws.mv)),  # A h - r g
        *outer(ws.mv, g),
        (np.subtract, (ws.a, gu, nn)),
        (nn.take, (lay.transpose, 0, tr, "clip")),
    ]

    def update_pseudo(m, mean_out, cov_out):
        for f, args in first:
            f(*args)
        np.add(x1_vel, m[l_row], h_pos)
        np.add(m[var], a_k, r_k)
        for f, args in variance:
            f(*args)
        # less the second-order mean correction delta2 / 2 = tr(P_pv)
        np.subtract(m[debiased], h_val, innov1)
        np.subtract(innov1, trace, innov1)
        # the true variance is nonnegative for PSD inputs, so s <= 0 is a
        # collapsed (deterministic) measurement: a no-op when the innovation is
        # consistent, a genuine degeneracy otherwise; NaN also takes this branch
        collapsed = None if s1.min() > 0 else s1 <= 0
        if collapsed is not None:
            scale = np.maximum(np.maximum(np.abs(m[pseudo]), np.abs(h_val)), 1.0)
            if np.any(collapsed & (np.abs(innov1) > 1e-9 * scale)):
                raise DegenerateCovarianceError(
                    "pseudo-measurement innovation variance is not positive"
                )
            s1[collapsed] = 1.0
        for f, args in joseph:
            f(*args)
        np.add(x1, dx1, mean_out)
        np.add(nn, tr, cov_out)  # symmetrized
        np.multiply(cov_out, _HALF, cov_out)
        if collapsed is not None:
            np.copyto(mean_out, x1, where=collapsed)
            np.copyto(cov_out, cov1, where=collapsed)

    return update_pseudo


def _tracks(a, entry_axes: int) -> np.ndarray:
    """Item-major ``a`` with ``entry_axes`` trailing entry axes, as rows ``(entries, tracks)``."""
    a = np.asarray(a, dtype=float)
    return a.reshape((-1, math.prod(a.shape[a.ndim - entry_axes :]))).T


def _items(rows: np.ndarray, batch: tuple[int, ...], entries: tuple[int, ...]) -> np.ndarray:
    """Entry rows ``(entries, tracks)`` as an item-major ``batch + entries`` view."""
    return rows.T.reshape(batch + entries)


def _measurement_rows(d: DecorrelatedMeasurement, batch: tuple[int, ...]) -> np.ndarray:
    """The fields of ``d``, one measurement per belief of ``batch``, as rows ``(size, tracks)``."""
    p = d.dim
    _batch(d, batch, "the belief's")
    parts = [np.reshape(d.cov_pos, d.cov_pos.shape[:-2] + (p * p,)), d.debiased_pos, d.l_row]
    parts += [np.asarray(f)[..., None] for f in (d.var_pseudo, d.debiased_pseudo, d.pseudo)]
    return np.concatenate([_tracks(f, 1) for f in parts])


def _check_state(n: int, p: int, cov_shape: tuple[int, ...] | None = None) -> None:
    """Raise :class:`ValueError` unless a state of size ``n`` holds a position and a
    velocity of dimension ``p`` and ``cov_shape``, if given, ends in ``(n, n)``."""
    if n != 2 * p:
        raise ValueError(f"a state of size {n} is not a position and a velocity of dimension {p}")
    if cov_shape is not None and tuple(cov_shape[-2:]) != (n, n):
        raise ValueError(f"a covariance of shape {tuple(cov_shape[-2:])} is not {n} x {n}")


def kf_predict(belief: GaussianBelief, model: DynamicModel) -> GaussianBelief:
    """Time update through the dynamic model (filters assume zero input)."""
    batch, n = belief.mean.shape[:-1], belief.mean.shape[-1]
    _check_state(n, model.dim)
    ws = _Workspace(math.prod(batch), n)
    ws.predict(_tracks(belief.mean, 1), _tracks(belief.cov, 2), model)
    return GaussianBelief(_items(ws.x, batch, (n,)), _items(ws.cov, batch, (n, n)))


def kf_update_position(belief: GaussianBelief, d: DecorrelatedMeasurement) -> GaussianBelief:
    """Linear measurement update with the converted position.

    The innovation is compensated for the hypothesized conversion bias:
    ``z - mu - H x``. Joseph form, in the factored product of the module
    docstring, keeps the covariance PSD.
    """
    batch, n = belief.mean.shape[:-1], belief.mean.shape[-1]
    _check_state(n, d.dim, belief.cov.shape)
    ws = _Workspace(math.prod(batch), n)
    ws.x[...], ws.cov[...] = _tracks(belief.mean, 1), _tracks(belief.cov, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as in filter_scans
        ws.update_position(_measurement_rows(d, batch))
    return GaussianBelief(_items(ws.x1, batch, (n,)), _items(ws.cov1, batch, (n, n)))


def pseudo_jacobian(state: np.ndarray, l_row: np.ndarray) -> np.ndarray:
    """Gradient of ``h(x) = l_row @ pos + pos @ vel`` at a state vector."""
    state, p = np.asarray(state, dtype=float), np.shape(l_row)[-1]
    _check_state(state.shape[-1], p)
    h_row = state.take(_BLOCK_SWAP[p], -1)  # (vel, pos)
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
    _check_state(n, n // 2, cov.shape)
    ws = _Workspace(math.prod(batch), n)
    ws.cov1[...] = _tracks(cov, 2)
    _run(_quadratic(ws))
    return 2.0 * ws.trace.reshape(batch), ws.a_k.reshape(batch)


def ekf_update_pseudo(belief: GaussianBelief, d: DecorrelatedMeasurement) -> GaussianBelief:
    """Second-order extended update with the decorrelated pseudo-measurement.

    Linearizes about the position-updated estimate; the innovation subtracts
    the hypothesized bias and the second-order mean correction, and the gain
    denominator carries the quadratic variance inflation on top of the
    residual measurement variance.
    """
    batch, n = belief.mean.shape[:-1], belief.mean.shape[-1]
    _check_state(n, d.dim, belief.cov.shape)
    ws = _Workspace(math.prod(batch), n)
    ws.x1[...], ws.cov1[...] = _tracks(belief.mean, 1), _tracks(belief.cov, 2)
    ws.update_pseudo(_measurement_rows(d, batch), ws.x, ws.cov)
    return GaussianBelief(_items(ws.x, batch, (n,)), _items(ws.cov, batch, (n, n)))


def initialize_belief(
    z1: ConvertedMeasurement, z2: ConvertedMeasurement, t: float
) -> GaussianBelief:
    """Two-point differencing start from consecutive converted positions.

    Position comes from the second (bias-compensated) measurement, velocity
    from the difference quotient; the covariance follows from propagating the
    two independent position error covariances through the differencing map.
    Both measurements must carry one batch (:func:`_batch`).
    """
    _check_interval(t)
    if z1.dim != z2.dim:
        raise ValueError("measurements must share dimensionality")
    _batch(z2, _batch(z1), "the first measurement's")
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
    ``(scans, entry, tracks)``. The outputs are stored scan-major too,
    ``(scans, n, tracks)`` and ``(scans, n * n, tracks)``, and returned as
    views in the item-major layout. Every scan, whether some or no tracks
    update in it, runs the same kernels on every track, a track that does
    not update on a neutral placeholder measurement, and then puts back
    that track's prediction.
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
    try:
        _check_state(n, z.dim)
        _check_state(n, model.dim)
    except ValueError as exc:  # every update would fail, from the first scan's on
        raise ValueError(f"step {steps[0]}: {exc}" if steps else str(exc)) from exc
    rows = np.empty((scans, lay.size) + batch)
    ok = ok & _decorrelate(z, np.moveaxis(rows, 1, 0))
    rows = rows.reshape(scans, lay.size, tracks)
    update = ok.reshape(scans, tracks)
    every = update.all(axis=1).tolist()
    np.copyto(rows, lay.neutral[:, None], where=~update[:, None])
    means, covs = np.empty((scans, n, tracks)), np.empty((scans, n * n, tracks))
    ws = _Workspace(tracks, n)
    predict, update_position, update_pseudo = ws.predict, ws.update_position, ws.update_pseudo
    mean, cov = _tracks(init.mean, 1), _tracks(init.cov, 2)
    # zero pivots go to the gain's fallback, and so does an overflowing finiteness sum
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, step in enumerate(steps):
            predict(mean, cov, model)
            mean, cov, m = means[k], covs[k], rows[k]  # this scan's output, the next one's input
            try:
                update_position(m)
                update_pseudo(m, mean, cov)
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

    Converts the stream with the variant's statistics in one batch, then
    runs it through :func:`filter_scans` as one track: per scan, predict,
    decorrelate, position update, pseudo update; the post-pseudo belief is
    emitted. A degenerate conversion (indefinite statistics or singular
    position block) skips that scan's updates and records the step; other
    failures propagate with the step attached. Filters get no maneuver input.
    """
    measurements = list(measurements)
    if not measurements:
        raise ValueError("run_filter needs at least one measurement")
    steps, dim = [m.step for m in measurements], measurements[0].dim
    if any(m.dim != dim for m in measurements):
        raise ValueError("run_filter needs measurements of one dimensionality")
    rows = np.array([_fields(m) for m in measurements])
    z, ok = _convert_batch(rows, noise, [variant.method], dim)
    post, updated = filter_scans(init, z[:, 0], ok[:, 0], steps, model)
    return FilterRun(
        beliefs=[post[k] for k in range(len(steps))],
        skipped_steps=[step for step, u in zip(steps, updated) if not u],
    )
