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
comes from the LDL^T elimination of ``S = P_pp + R``, then forward
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

Each stage is one kernel over a batch of tracks, entries first. A belief
is one ``n x (n + 1)`` block ``[P | x]``, row-major, one contiguous row per
entry: ``(n * (n + 1), tracks)``. The state rides in the last column of its
covariance, so a call that acts on the rows of ``P`` acts on ``x`` too. The
transition ``phi [P | x]`` steps the mean with the covariance. With the
innovation formed negated (``H x - z``, as ``a - b = -(b - a)``),
``x + K innov`` is the state column of ``[P | x] - K H [P | x]``, and the
pseudo update's ``x + g innov`` joins its ``P - g (P h)^T`` likewise. The
symmetrization ``(a + a^T) / 2`` maps the state column to itself, since
``(x + x) / 2 = x`` for ``|x| < 2**1023``.

Where such a call has nothing to do in the state column, the column's
operand is an exact identity: ``-0.0`` to add, ``+0.0`` to subtract,
``1.0`` to multiply, never ``+0.0`` to add, which turns ``-0.0`` into
``+0.0``. Each element therefore gets the operations it got with the state
in rows of its own, on the same values, and the bits do not change. The
one exception is the sign of a state entry that is an exact zero before
and after a step that is an exact zero: the negated step may carry the
other sign of zero, so ``+0.0`` and ``-0.0`` can swap there.

A small matrix product gathers the rows of its terms with ``take`` and the
module's index tables, multiplies them as rows and adds the terms in
order, one explicit add each: a reduction over the entries would round a
lone track apart from the same track in a batch, because numpy sums a
contiguous axis (a single track's) pairwise. No operation rounds by the
batch shape, so a track gives the same bits alone or in any batch.
Independent calls of one ufunc share one call where their operands sit in
adjacent rows. ``h_pos @ x_pos``, ``-debiased_pseudo`` and ``tr(P_pv)`` are
one more entry of the ``P h`` product, added in the order the negated
pseudo innovation needs. ``S = H P H^T + R`` and the negated position
innovation are one add, and so are ``r_k`` and ``h_pos``. ``r g`` is the
last term of the ``A h`` product, subtracted. The ``take`` that gathers
``a_k``'s terms also gathers the halves of the state. ``tr(P_pv)`` keeps
its own adds: as terms of the ``a_k`` gather, padded with ``-0.0 * 1.0``,
it doubled that gather's rows, which at 1000 tracks cost more than the add
it saved.

The kernels are bound once per workspace, which preallocates every
intermediate: each is a list of ufunc calls on views of its buffers, made
with the workspace, the elimination and substitution loops unrolled for
its ``p``, plus the few calls on the arguments of a scan. Each call writes
with ``out`` or in place, so a scan makes its numpy calls and little else.
The position update tests its gain with one finiteness check.

At a few tracks a call costs its dispatch, about 0.3 us, not its
arithmetic, so every bound call takes array operands of its output's shape
(or 0-d), all C-contiguous, and each ``take`` reads and writes contiguous
buffers: numpy's equal-shape fast path. A multiply that broadcasts a
per-track row over 4 rows of 8 tracks took about 0.95 us against 0.41 us
with operands of one shape (2 vCPUs, numpy 2.4.6), and a log of 2 strided
rows 0.8 us against 0.4 us contiguous. A per-track scalar that multiplies
whole rows is therefore first repeated over those rows by one ``take``:
the multipliers and pivots of the gain's elimination, and the pseudo
update's innovation variance. At ``p = 2`` a scan makes 77 numpy calls:
71 bound (predict 7, position update 27, pseudo update 37, pinned for
every ``p`` by the call budget in ``tests/test_filtering.py``) and 6 on
the arguments (predict's step of the input block, 3 calls; the copy of
the measurement rows; the pseudo update's add and halving into its
output), plus two checks, the gain's finiteness ``dot`` and the minimum of
the pseudo innovation variance.

:func:`filter_scans` decorrelates every scan in one pass, into scan-major
rows ``(scans, entry, tracks)``, and reuses one workspace for every scan: a
scan's last operation writes straight into its output block, which the
next predict reads. Every scan takes the one path, whether all, some or
none of its tracks update: the same kernels run on every track, a track
that does not update on a neutral placeholder measurement, and such a
track's prediction is put back, one ``copyto`` of its block. Sizes are
checked once, by :func:`filter_scans` and the public stages, thin wrappers
that take the conversion :func:`filter_scans` takes, decorrelate it alike
and run the same kernels on a fresh workspace.

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
        if self.mean.ndim == 0 or self.cov.shape != self.mean.shape + self.mean.shape[-1:]:
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
    axes.
    """

    cov_pos: np.ndarray
    pseudo: float
    var_pseudo: float
    l_row: np.ndarray
    debiased_pos: np.ndarray
    debiased_pseudo: float
    dim: int


# Trailing entry axes of each array field of a converted measurement.
_ENTRY_AXES = dict(position=1, pseudo=0, mu=1, cov=2)


def _batch(z: ConvertedMeasurement, items=None, of=None) -> tuple[int, ...]:
    """The leading axes that every field of the conversion ``z`` carries.

    Each field must carry ``items``, which ``of`` names, or when ``items``
    is not given the first field's leading axes. A field that would only
    broadcast to them raises :class:`ValueError` naming both batches, as it
    would pair items with other items' values.
    """
    for f in fields(z):
        if f.name in _ENTRY_AXES:
            shape = np.shape(getattr(z, f.name))[: -_ENTRY_AXES[f.name] or None]
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the leading (entry) axis, its terms added in order."""
    terms = a * b
    out = np.empty(terms.shape[1:])
    _run(_adds(terms, out))
    return out


def _run(calls: list) -> None:
    for f, args in calls:
        f(*args)


# Indices exchanging the position and velocity halves of a state.
_BLOCK_SWAP = {p: np.r_[p : 2 * p, 0:p] for p in (1, 2, 3)}


def _product_index(terms) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of ``C[e] = sum_k L[a_ek] R[b_ek]`` on entries-first operands.

    ``terms[e]`` lists the pairs ``(a_ek, b_ek)`` of entry ``e``, the same
    number for every entry. Both tables are ``(inner, entries)``: row ``k``
    gathers the ``k``-th term of every entry.
    """
    pairs = np.array(terms).transpose(2, 1, 0)
    return np.ascontiguousarray(pairs[0]), np.ascontiguousarray(pairs[1])


class _Layout:
    """Entry rows of a measurement and of a belief, and the kernels' tables, for one ``p``.

    A measurement's ``kernel`` rows are the position block ``cov_pos`` of
    its error covariance (row-major) next to ``-debiased_pos``,
    ``var_pseudo`` next to ``l_row``, ``-debiased_pseudo`` and ``pseudo``.
    The negated rows let the updates form their innovations negated (see
    :func:`_update_position`).
    ``neutral`` is the placeholder of a track that does not update: with
    ``R = I``, ``var_pseudo = 1`` and zeros elsewhere every update is
    finite and well-posed, and its result is discarded.

    A belief is the ``n x (n + 1)`` block ``[P | x]``, row-major: entry
    ``(i, j)`` is row ``entry(i, j)`` and ``x[i]`` is ``entry(i, n)``. The
    ``_Workspace`` buffers a table reads are named beside it; an index past
    a buffer's computed rows reads one of its constant pads.
    """

    def __init__(self, p: int):
        n, q = 2 * p, p * p
        self.block = b = n * (n + 1)
        self.cov_pos, self.r_innov = slice(0, q), slice(0, q + p)
        self.var, self.l_row = q + p, slice(q + p + 1, q + 2 * p + 1)
        self.var_l_row, self.neg_debiased = slice(q + p, q + 2 * p + 1), q + 2 * p + 1
        self.neg_pos, self.pseudo, self.kernel = slice(q, q + p), q + 2 * p + 2, q + 2 * p + 3
        self.neutral = np.zeros(self.kernel)
        self.neutral[self.cov_pos] = np.eye(p).ravel()
        self.neutral[self.var] = 1.0

        def entry(i, j):
            return i * (n + 1) + j

        def x(i):
            return entry(i, n)

        cells = [(i, j) for i in range(n) for j in range(n + 1)]
        # (a + a^T) / 2 takes x to (x + x) / 2 = x
        self.transpose = np.array([entry(j, i) if j < n else x(i) for i, j in cells])
        # predict, on ``a_pad``: the rows of A_P^T next to x, the velocity
        # ones first with -0.0 for x, so that adding t times them to the
        # position ones leaves x as it is
        vel = [[entry(j, p + i) for j in range(n)] + [b] for i in range(p)]
        rows = [[entry(j, i) for j in range(n)] + [x(i)] for i in range(n)]
        self.predict = np.concatenate(vel + rows)

        # position update. ``inputs`` is [P | x], the kernel rows of the
        # measurement, S and the negated innovation H x - z, S's multipliers
        s, mult = b + self.kernel, b + self.kernel + q + p
        self.inputs = mult + q
        # on ``inputs``, into ``gather``: the rows of H P (the gain's start),
        # the pivots' logarithms (written later), then H P H^T next to x_pos,
        # to which one add gives S = H P H^T + R next to x_pos - z
        self.pp = np.array([entry(i, j) for i in range(p) for j in range(p)])
        self.hp = np.array([entry(k, j) for k in range(p) for j in range(n)])
        self.gather = np.r_[self.hp, np.zeros(p, int), self.pp, [x(i) for i in range(p)]]
        self.gather_zero = p * n + 2 * p + q  # +0.0
        # on ``inputs`` from S: each multiplier L[i, k] (k < i, in
        # elimination order), then each pivot, repeated over the n columns of
        # a row of K^T, then the pivots once
        self.lower = [(i, k) for k in range(p) for i in range(k + 1, p)]
        pivots = [s + i * (p + 1) for i in range(p)]
        self.mult_pivots_n = np.r_[np.repeat([mult + i * p + k for i, k in self.lower] + pivots, n),
                                   pivots]
        # K [H P | H x - z] and K R in one product on K^T (K[i, k] = K^T[k, i])
        # and ``inputs``
        self.khp_kr = _product_index(
            [[(k * n + i, entry(k, j) if j < n else s + q + k) for k in range(p)] for i, j in cells]
            + [[(k * n + i, b + k * p + j) for k in range(p)] for i in range(n) for j in range(p)]
        )
        self.h_cols = np.array([entry(i, j) for i in range(n) for j in range(p)])  # A H^T
        # (A H^T - K R) K^T, on its rows followed by +0.0 and on ``gather``:
        # +0.0 * +0.0 for x
        self.krk = _product_index(
            [[(i * p + k, k * n + j) if j < n else (p * n, self.gather_zero) for k in range(p)]
             for i, j in cells]
        )

        # pseudo update, on ``x1``, which is [P | x] followed by -0.0 and 1.0,
        # into ``u``: a_k's terms P[i, j] P[p + i, swap(j)], j-major (2, n, p);
        # then tr(P_pv), a_k, x_vel, r_k, h = (l_row + x_vel, x_pos), 1.0 and
        # s1, so that x_vel follows a_k as l_row follows var_pseudo: r_k and
        # h_pos are one add. The take writes the rows between as well, which
        # the adds then fill
        neg0, one, swap = b, b + 1, _BLOCK_SWAP[p]
        quad = np.array([[[entry(i, j) for i in range(p)] for j in range(n)],
                         [[entry(p + i, swap[j]) for i in range(p)] for j in range(n)]])
        self.trace = [entry(i, p + i) for i in range(p)]
        u = 2 * n * p
        self.u_trace, self.u_x_vel, self.u_r_k, self.u_h = u, u + 2, u + p + 2, u + p + 3
        self.u_one, self.u_s1 = u + 3 * p + 3, u + 3 * p + 4
        self.quadratic = np.r_[quad.ravel(), [0, 0], [x(p + i) for i in range(p)],
                               np.zeros(p + 1, int), [x(i) for i in range(p)]]
        # P h next to -innov1 = h_pos @ x_pos - debiased_pseudo + tr(P_pv),
        # whose terms are added in that order, on ``x1`` and on ``inputs``
        # followed by ``u``; the terms are padded with -0.0 * 1.0
        h, u_one, inner = self.inputs + self.u_h, self.inputs + self.u_one, max(n, p + 2)
        negd, trace = b + self.neg_debiased, self.inputs + self.u_trace
        self.ph = _product_index(
            [[(entry(i, k), h + k) for k in range(n)] + [(neg0, u_one)] * (inner - n)
             for i in range(n)]
            + [[(x(k), h + k) for k in range(p)] + [(one, negd), (one, trace)]
               + [(neg0, u_one)] * (inner - p - 2)]
        )
        # A h - r g, on A followed by g and +0.0 (``ag``) and on ``u``: r g is
        # the last term, subtracted
        self.a_h_rg = _product_index(
            [[(entry(i, k), self.u_h + k) for k in range(n)] + [(b + i, self.u_r_k)]
             for i in range(n)]
        )
        self.s1_n = np.full(n, self.u_s1)
        # g (P h)^T next to g (-innov1), on ``ag`` and on P h followed by
        # -innov1; (A h - r g) g^T next to +0.0 * +0.0, on A h - r g followed
        # by +0.0 and on ``ag``
        self.outer_g_ph = (np.array([b + i for i, _ in cells]), np.array([j for _, j in cells]))
        self.outer_mv_g = (np.array([i if j < n else n for i, j in cells]),
                           np.array([b + j for _, j in cells]))


@functools.cache
def _layout(p: int) -> _Layout:
    """The layout of position dimension ``p``, built on first use."""
    if p not in (1, 2, 3):
        raise ValueError("position dimension must be 1, 2 or 3")
    return _Layout(p)


def _decorrelate(z: ConvertedMeasurement, out: np.ndarray) -> np.ndarray:
    """:func:`decorrelate` of every item of ``z`` into the entry rows ``out``.

    ``out`` is ``(kernel,) + items`` in the row order of :class:`_Layout`; it
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
            var_eps[bad] = r_ee[bad] + _dot(l_row[..., bad], r_ep[..., bad])
    ok = np.isfinite(l_row).all(axis=0) & ~(var_eps <= -1e-9 * np.maximum(r_ee, 1.0))
    np.maximum(var_eps, 0.0, out=out[lay.var, ...])
    neg_pos, neg_debiased = out[lay.neg_pos], out[lay.neg_debiased, ...]
    np.negative(np.subtract(position, mu[:p], out=neg_pos), out=neg_pos)
    pseudo = np.add(_dot(l_row, position), z.pseudo, out=out[lay.pseudo, ...])
    np.subtract(pseudo, _dot(l_row, mu[:p]) + mu[p], out=neg_debiased)
    np.negative(neg_debiased, out=neg_debiased)
    return ok


def _kernel_rows(z: ConvertedMeasurement, beliefs=None) -> np.ndarray:
    """The kernel rows ``(kernel,) + items`` of every item of ``z``, by :func:`_decorrelate`.

    ``z`` must carry the batch ``beliefs``, if given (:func:`_batch`). Raises
    :class:`DegenerateCovarianceError` when an item does not decorrelate.
    """
    rows = np.empty((_layout(z.dim).kernel,) + _batch(z, beliefs, "the belief's"))
    if not np.all(_decorrelate(z, rows)):
        raise DegenerateCovarianceError(
            "singular position error covariance or negative residual pseudo-measurement variance"
        )
    return rows


def decorrelate(z: ConvertedMeasurement) -> DecorrelatedMeasurement:
    """Remove the position/pseudo error correlation from a conversion.

    With the joint covariance split into position block ``R_pp``, cross row
    ``R_ep`` and scalar ``R_ee``, the row ``L = -R_ep @ inv(R_pp)`` makes the
    transformed pseudo error ``L @ pos_err + eta_err`` uncorrelated with the
    position errors; its variance is ``R_ee - R_ep inv(R_pp) R_ep^T``.
    Raises :class:`DegenerateCovarianceError` when the position block is
    singular while the cross row is nonzero, or the residual variance is
    negative beyond rounding.
    """
    p, lay, rows = z.dim, _layout(z.dim), _kernel_rows(z)
    items = rows.shape[1:]
    # item-major views of the entry rows
    return DecorrelatedMeasurement(
        cov_pos=np.moveaxis(rows[lay.cov_pos].reshape((p, p) + items), (0, 1), (-2, -1)),
        pseudo=rows[lay.pseudo],
        var_pseudo=rows[lay.var],
        l_row=np.moveaxis(rows[lay.l_row], 0, -1),
        debiased_pos=np.moveaxis(-rows[lay.neg_pos], 0, -1),
        debiased_pseudo=-rows[lay.neg_debiased],
        dim=p,
    )


_HALF = np.array(0.5)  # a 0-d array multiplies faster than a Python float


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as one row per entry, ``(entries, tracks)``: a 2-D operand calls faster."""
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


def _product(ws: "_Workspace", a: np.ndarray, b: np.ndarray, index, out: np.ndarray,
             minus=False) -> list:
    """The calls of ``out[e] = sum_k a[ia[k, e]] b[ib[k, e]]`` on entry rows.

    ``index`` is ``(ia, ib)`` from :func:`_product_index`. The terms are
    gathered into ``ws``'s two gather buffers, multiplied as rows and
    summed in order of ``k``; with ``minus`` the last term is subtracted.
    """
    ga, gb = ws.gathered(index)
    # in-range indices: clip skips a copy
    calls = [(a.take, (index[0], 0, ga, "clip")), (b.take, (index[1], 0, gb, "clip")),
             (np.multiply, (_rows(ga), _rows(gb), _rows(ga)))]
    if minus:
        return calls + _adds(ga[:-1], out) + [(np.subtract, (out, ga[-1], out))]
    return calls + _adds(ga, out)


def _less(x, m, y, tmp) -> list:
    """The calls of ``x -= m * y`` through the scratch ``tmp``."""
    return [(np.multiply, (m, y, tmp)), (np.subtract, (x, tmp, x))]


class _Workspace:
    """The stage kernels for ``tracks`` tracks of size ``n``, bound to buffers made once.

    A belief is a block ``[P | x]`` of ``_Layout.block`` rows, one
    contiguous row per entry. ``predict(block, model)`` writes the block
    ``block``; ``update_position(m)`` copies the kernel rows ``m`` of a
    measurement (:class:`_Layout`) into ``m``, reads them and ``block`` and
    writes ``x1``; ``update_pseudo(out)`` reads ``m`` and ``x1`` and writes
    the block ``out``. Each kernel is a list of ufunc calls on views of the
    buffers, made once, on first use, and a few calls on its arguments; the
    other buffers hold temporaries. Every listed call takes array operands
    of its output's shape (or 0-d), all C-contiguous; a per-track scalar
    that multiplies whole rows has a buffer that holds it repeated over
    them (``mult_pivots_n``, ``s1_n``). Some buffers end in constant rows
    that the tables read as pads: ``-0.0`` after ``A = phi [P | x]``,
    ``-0.0`` and ``1.0`` after ``x1``, ``+0.0`` after ``gather``,
    ``A H^T - K R``, ``g`` and ``A h - r g``, and ``1.0`` in ``u``.
    """

    def __init__(self, tracks: int, n: int):
        p, self.n, self.tracks = n // 2, n, tracks
        self.p, self.lay = p, _layout(p)
        lay, pn, q, b = self.lay, p * n, p * p, self.lay.block

        def buf(*shape):
            return np.empty(shape + (tracks,))

        def padded(rows, *pads):  # ``rows`` rows followed by constant rows
            out = buf(rows + len(pads))
            out[rows:] = np.reshape(pads, (-1, 1))
            return out

        # the model's sampling interval and process noise rows, set by predict
        self.t, self.q = np.empty(()), buf(b)
        self.a_pad, self.tr = padded(b, -0.0), buf(b)
        # the terms of every product and outer product, gathered, and
        # predict's rows of A_P^T, in turn: buffers shared by the stages keep
        # their working set small at many tracks
        tables = (lay.khp_kr, lay.krk, lay.ph, lay.a_h_rg, lay.outer_g_ph)
        rows = max([t[0].size for t in tables] + [p * (n + 1) + b])
        self.g = buf(rows), buf(rows)
        self.w = self.g[0][: p * (n + 1) + b]
        # K [H P | H x - z] next to K R, then (A H^T - K R) K^T over it, then
        # the pseudo update's A - (A h - r g) g^T
        self.nn = buf(b + pn)
        # A = P - K H P, later P - g (P h)^T, next to g, then +0.0
        self.ag = padded(b + n, 0.0)
        self.a = self.ag[:b]
        # [P | x], the kernel rows of the scan's measurement, S (eliminated in
        # place, so that its diagonal ends as the pivots) next to the negated
        # innovation, S's multipliers; then the pseudo update's ``u``
        self.inputs_u = buf(lay.inputs + lay.u_s1 + 1)
        self.inputs, self.u = self.inputs_u[: lay.inputs], self.inputs_u[lay.inputs :]
        self.block, self.m = self.inputs[:b], self.inputs[b : b + lay.kernel]
        self.u[lay.u_one] = 1.0
        # position update: the rows of K^T, the pivots' logarithms, H P H^T
        # next to x_pos; the multipliers and pivots repeated for the rows of
        # K^T (``_Layout.mult_pivots_n``)
        self.gather = padded(lay.gather_zero, 0.0)
        self.s_tmp, self.gain_tmp = buf(), buf(n)
        self.mult_pivots_n = buf(len(lay.mult_pivots_n))
        self.h_cols = padded(pn, 0.0)
        self.x1 = padded(b, -0.0, 1.0)
        # pseudo update
        self.a_k_rows = buf(p)
        self.ph = buf(n + 1)
        self.mv, self.tn, self.s1_n = padded(n, 0.0), buf(n), buf(n)  # s1 repeated over n rows

    def gathered(self, index) -> tuple[np.ndarray, np.ndarray]:
        """The gather buffers' leading rows, shaped like the tables ``index``."""
        return tuple(g[: i.size].reshape(i.shape + (self.tracks,)) for g, i in zip(self.g, index))

    # a public stage binds only its own kernel
    predict = functools.cached_property(lambda self: _predict(self))
    update_position = functools.cached_property(lambda self: _update_position(self))
    update_pseudo = functools.cached_property(lambda self: _update_pseudo(self))


def _symmetrize(ws: _Workspace, a: np.ndarray, out: np.ndarray) -> list:
    """The calls of ``(a + a^T) / 2`` of block rows ``a`` into ``out``; ``x`` maps to itself."""
    return [(a.take, (ws.lay.transpose, 0, ws.tr, "clip")), (np.add, (a, ws.tr, out)),
            (np.multiply, (out, _HALF, out))]


def _predict(ws: _Workspace):
    """The time update ``predict(block, model)`` of the block rows ``block``.

    Writes ``ws.block``.

    ``phi = [[I, t I], [0, I]]`` acts on rows: ``A = phi [P | x]`` adds
    ``t`` times the velocity rows to the position rows, which steps the
    mean too, and ``(A_P phi^T)^T = phi A_P^T`` is the same step on the
    rows of ``A_P^T``, taken next to ``x``. Their velocity rows are taken
    twice, once with ``-0.0`` in ``x``'s place, and ``x + t (-0.0) = x``.
    """
    p, n, t, q, b = ws.p, ws.n, ws.t, ws.q, ws.lay.block
    top, bottom = slice(0, p * (n + 1)), slice(p * (n + 1), b)
    a_top, a_bottom = ws.a_pad[top], ws.a_pad[bottom]
    vel, nn = ws.w[top], ws.w[p * (n + 1) :]
    calls = [
        (ws.a_pad.take, (ws.lay.predict, 0, ws.w, "clip")),
        (np.multiply, (vel, t, vel)),
        (np.add, (nn[top], vel, nn[top])),
        (np.add, (nn, q, nn)),
        *_symmetrize(ws, nn, ws.block),
    ]
    bound = None

    def predict(block, model):
        nonlocal bound
        if model is not bound:
            noise = np.full((n, n + 1), -0.0)  # -0.0 leaves x as it is
            noise[:, :n] = model.process_noise_cov()
            bound, t[...], q[...] = model, model.t, noise.reshape(-1, 1)
        rates = block[bottom]
        np.multiply(rates, t, a_top)
        np.add(block[top], a_top, a_top)
        np.copyto(a_bottom, rates)
        for f, args in calls:
            f(*args)

    return predict


def _update_position(ws: _Workspace):
    """The update of ``ws.block`` with the position in the rows ``m``.

    ``update_position(m)`` writes ``ws.x1``.

    ``K^T = S^-1 (H P) = L^-T D^-1 L^-1 (H P)`` comes from the LDL^T
    elimination of ``S = H P H^T + R`` (the operations of
    :func:`~rcmkf.conversion._factor`, in its order, on the workspace).
    One ``take`` then repeats each multiplier and each pivot over the ``n``
    columns of a row of ``K^T``, and copies the pivots once, contiguous,
    for their logarithms. On those rows the forward substitution on the
    rows of ``H P`` (row by row in the elimination's ``(k, i)`` order), the
    pivot scaling and the back substitution take operands of one shape,
    each unrolled for the workspace's ``p``. The substitution reads only
    final multipliers and pivots, so running it after the elimination
    changes no bit.

    The innovation is formed negated, ``H x + (-z)`` in the add that forms
    ``S``, so that ``x + K innov`` is ``x - K (H x - z)``, the ``x`` column
    of ``[P | x] - K H [P | x]`` with ``z`` in the place of ``H x``: one
    product and one subtract.
    """
    p, n, lay, b = ws.p, ws.n, ws.lay, ws.lay.block
    pn, q, r = p * n, p * p, ws.m[lay.cov_pos]
    s_at = b + lay.kernel
    gain_t, gain_log = ws.gather[:pn], ws.gather[: pn + p].reshape(-1)
    log_pivots = ws.gather[pn : pn + p]
    s_flat = ws.inputs[s_at : s_at + q]
    mult_flat = ws.inputs[s_at + q + p :].reshape(p, p, ws.tracks)
    s = [[s_flat[i * p + j] for j in range(i + 1)] for i in range(p)]
    mult = [[mult_flat[i, k] for k in range(i)] for i in range(p)]
    gain, reps = gain_t.reshape(p, n, ws.tracks), ws.mult_pivots_n
    mult_n = {ik: reps[c * n : (c + 1) * n] for c, ik in enumerate(lay.lower)}
    pivots_n, pivots = reps[len(lay.lower) * n : -p], reps[-p:]
    calls = [
        (ws.inputs.take, (lay.gather, 0, ws.gather[: lay.gather_zero], "clip")),
        # S = H P H^T + R next to the negated innovation x_pos - z
        (np.add, (ws.gather[pn + p : lay.gather_zero], ws.m[lay.r_innov],
                  ws.inputs[s_at : s_at + q + p])),
    ]
    for k in range(p):  # the elimination
        for i in range(k + 1, p):
            calls.append((np.divide, (s[i][k], s[k][k], mult[i][k])))
            for j in range(k + 1, i + 1):
                calls += _less(s[i][j], mult[i][k], s[j][k], ws.s_tmp)
    calls.append((ws.inputs.take, (lay.mult_pivots_n, 0, reps, "clip")))
    for i, k in lay.lower:  # forward substitution on the rows of H P
        calls += _less(gain[i], mult_n[i, k], gain[k], ws.gain_tmp)
    calls.append((np.divide, (gain_t, pivots_n, gain_t)))
    for c in reversed(range(p)):
        for i in range(c + 1, p):
            calls += _less(gain[c], mult_n[i, c], gain[i], ws.gain_tmp)
    calls.append((np.log, (pivots, log_pivots)))
    khp, kr, h_cols = ws.nn[:b], ws.nn[b:], ws.h_cols[:pn]
    joseph = [
        *_product(ws, gain_t, ws.inputs, lay.khp_kr, ws.nn),
        (np.subtract, (ws.block, khp, ws.a)),  # A = P - K (H P), x + K innov
        (ws.a.take, (lay.h_cols, 0, h_cols, "clip")),
        (np.subtract, (h_cols, kr, h_cols)),  # A H^T - K R
        *_product(ws, ws.h_cols, ws.gather, lay.krk, khp),
        (np.subtract, (ws.a, khp, khp)),
        *_symmetrize(ws, khp, ws.x1[:b]),
    ]

    def solve_each():
        bad = ~np.isfinite(log_pivots).all(axis=0)
        # the elimination overwrote S; an exactly singular S comes from a
        # collapsed (noise-free) covariance, where the minimum-norm gain is
        # the correct limit
        gain_t[:, bad] = _solve_each(
            (ws.block.take(lay.pp, 0)[:, bad] + r[:, bad]).T.reshape(-1, p, p),
            ws.block.take(lay.hp, 0)[:, bad].T.reshape(-1, p, n),
            lambda a, c: np.linalg.lstsq(a, c, rcond=None)[0],
        ).reshape(-1, pn).T
        if not np.isfinite(gain_t).all():
            raise DegenerateCovarianceError("position innovation covariance is singular")

    def update_position(m):
        np.copyto(ws.m, m)
        for f, args in calls:
            f(*args)
        # log d is finite exactly when the pivot d is positive and finite, so
        # one finite sum of squares passes the gain rows and the pivots
        # together (NaN fails it); one that overflows sends the scan item by
        # item. A dot product sums them faster than a reduction does
        if not math.isfinite(np.dot(gain_log, gain_log)):
            solve_each()
        for f, args in joseph:
            f(*args)

    return update_position


def _quadratic(ws: _Workspace) -> list:
    """The calls of ``tr(P_pv)`` and ``a_k`` into ``ws.u``, for the block ``ws.x1``.

    The same ``take`` gathers ``x1``'s halves into ``ws.u`` for the pseudo update.
    """
    lay, u = ws.lay, ws.u
    terms = u[: lay.u_trace].reshape((2, ws.n, ws.p, ws.tracks))
    return [
        (ws.x1.take, (lay.quadratic, 0, u[: lay.u_one], "clip")),
        *_adds([ws.x1[i] for i in lay.trace], u[lay.u_trace]),
        (np.multiply, (_rows(terms[0]), _rows(terms[1]), _rows(terms[0]))),
        *_adds(terms[0], ws.a_k_rows),  # over j, then over i
        *_adds(ws.a_k_rows, u[lay.u_trace + 1]),
    ]


def _update_pseudo(ws: _Workspace):
    """The update of ``ws.x1`` with the pseudo in the rows ``ws.m``.

    ``update_pseudo(out)`` writes the block ``out``.

    The variance ``s1`` is a row of ``ws.u``: the Joseph list's first call,
    after the collapsed-variance patch, repeats it over ``n`` rows, so that
    the gain takes operands of one shape. The innovation is formed negated,
    so that ``x1 + g innov1`` is the ``x`` column of ``[P | x] - g [(P h)^T
    | -innov1]``, and ``r g`` is the last term of the product ``A h``,
    subtracted.
    """
    p, n, lay, u, b, m = ws.p, ws.n, ws.lay, ws.u, ws.lay.block, ws.m
    x1, ph, mv, tn, nn, tr = ws.x1[:b], ws.ph, ws.mv, ws.tn, ws.nn[:b], ws.tr
    gu, gv = ws.gathered(lay.outer_g_ph)
    a, g = ws.ag[:b], ws.ag[b : b + n]
    h, s1 = u[lay.u_h : lay.u_h + n], u[lay.u_s1]
    r_k = u[lay.u_r_k]
    a_k_x_vel, r_k_h_pos = u[lay.u_trace + 1 : lay.u_x_vel + p], u[lay.u_r_k : lay.u_h + p]
    innov1 = ph[n]

    def outer(v, w, index):  # the rows of v w^T next to the x column, into gu
        return [(v.take, (index[0], 0, gu, "clip")), (w.take, (index[1], 0, gv, "clip")),
                (np.multiply, (gu, gv, gu))]

    variance = [
        *_quadratic(ws),
        # r_k = var_pseudo + a_k next to h_pos = l_row + x_vel
        (np.add, (m[lay.var_l_row], a_k_x_vel, r_k_h_pos)),
        # P h, then the innovation less the second-order mean correction
        # delta2 / 2 = tr(P_pv), negated
        *_product(ws, ws.x1, ws.inputs_u, lay.ph, ph),
        (np.multiply, (h, ph[:n], tn)),
        *_adds(tn, s1),
        (np.add, (s1, r_k, s1)),
    ]
    joseph = [
        (u.take, (lay.s1_n, 0, ws.s1_n, "clip")),
        (np.divide, (ph[:n], ws.s1_n, g)),
        *outer(ws.ag, ph, lay.outer_g_ph),
        (np.subtract, (x1, gu, a)),  # A = P - g (P h)^T, x1 + g innov1
        *_product(ws, ws.ag, u, lay.a_h_rg, mv[:n], minus=True),  # A h - r g
        *outer(mv, ws.ag, lay.outer_mv_g),
        (np.subtract, (a, gu, nn)),
        (nn.take, (lay.transpose, 0, tr, "clip")),
    ]

    def update_pseudo(out):
        for f, args in variance:
            f(*args)
        # the true variance is nonnegative for PSD inputs, so s <= 0 is a
        # collapsed (deterministic) measurement: a no-op when the innovation is
        # consistent, a genuine degeneracy otherwise; NaN also takes this branch
        collapsed = None if np.minimum.reduce(s1, initial=np.inf) > 0 else s1 <= 0
        if collapsed is not None:
            h_val = _dot(h[:p], h[p:])  # (l_row + vel) @ pos
            scale = np.maximum(np.maximum(np.abs(m[lay.pseudo]), np.abs(h_val)), 1.0)
            if np.any(collapsed & (np.abs(innov1) > 1e-9 * scale)):
                raise DegenerateCovarianceError(
                    "pseudo-measurement innovation variance is not positive"
                )
            s1[collapsed] = 1.0
        for f, args in joseph:
            f(*args)
        np.add(nn, tr, out)  # symmetrized
        np.multiply(out, _HALF, out)
        if collapsed is not None:
            np.copyto(out, x1, where=collapsed)

    return update_pseudo


def _tracks(a, entry_axes: int) -> np.ndarray:
    """Item-major ``a`` with ``entry_axes`` trailing entry axes, as rows ``(entries, tracks)``."""
    a = np.asarray(a, dtype=float)
    return a.reshape((-1, math.prod(a.shape[a.ndim - entry_axes :]))).T


def _block_rows(belief: GaussianBelief) -> np.ndarray:
    """A batch of beliefs as the block rows ``[P | x]``, ``(n * (n + 1), tracks)``."""
    return _tracks(np.concatenate([belief.cov, belief.mean[..., None]], axis=-1), 2)


def _belief(rows: np.ndarray, batch: tuple[int, ...]) -> GaussianBelief:
    """Block rows ``[P | x]`` as an item-major ``batch`` of beliefs, both fields views."""
    n = math.isqrt(rows.shape[0])
    block = rows.T.reshape(batch + (n, n + 1))
    return GaussianBelief(block[..., n], block[..., :n])


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
    ws.predict(_block_rows(belief), model)
    return _belief(ws.block, batch)


def kf_update_position(belief: GaussianBelief, z: ConvertedMeasurement) -> GaussianBelief:
    """Linear measurement update with the converted position.

    ``z`` holds one conversion per belief, decorrelated as in
    :func:`decorrelate`. The innovation is compensated for the hypothesized
    conversion bias: ``z - mu - H x``. Joseph form, in the factored product
    of the module docstring, keeps the covariance PSD.
    """
    batch, n = belief.mean.shape[:-1], belief.mean.shape[-1]
    _check_state(n, z.dim, belief.cov.shape)
    ws = _Workspace(math.prod(batch), n)
    ws.block[...] = _block_rows(belief)
    rows = _kernel_rows(z, batch).reshape(ws.m.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as in filter_scans
        ws.update_position(rows)
    return _belief(ws.x1[: ws.lay.block], batch)


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
    ws.x1[: ws.lay.block].reshape(n, n + 1, ws.tracks)[:, :n] = _tracks(cov, 2).reshape(
        n, n, ws.tracks
    )
    _run(_quadratic(ws))
    trace, a_k = ws.u[ws.lay.u_trace : ws.lay.u_trace + 2]
    return 2.0 * trace.reshape(batch), a_k.reshape(batch)


def ekf_update_pseudo(belief: GaussianBelief, z: ConvertedMeasurement) -> GaussianBelief:
    """Second-order extended update with the decorrelated pseudo-measurement.

    ``z`` is as in :func:`kf_update_position`. Linearizes about the
    position-updated estimate; the innovation subtracts the hypothesized bias
    and the second-order mean correction, and the gain denominator carries
    the quadratic variance inflation on top of the residual measurement
    variance.
    """
    batch, n = belief.mean.shape[:-1], belief.mean.shape[-1]
    _check_state(n, z.dim, belief.cov.shape)
    ws = _Workspace(math.prod(batch), n)
    ws.x1[: ws.lay.block] = _block_rows(belief)
    ws.m[...] = _kernel_rows(z, batch).reshape(ws.m.shape)
    ws.update_pseudo(ws.block)
    return _belief(ws.block, batch)


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
    ``(scans, entry, tracks)``. The outputs are stored scan-major too, as
    the block rows ``[P | x]``, ``(scans, n * (n + 1), tracks)``, and both
    fields are returned as views of them in the item-major layout. Every
    scan, whether some or no tracks update in it, runs the same kernels on
    every track, a track that does not update on a neutral placeholder
    measurement, and then puts back that track's prediction.
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
    rows = np.empty((scans, lay.kernel) + batch)
    ok = ok & _decorrelate(z, np.moveaxis(rows, 1, 0))
    rows = rows.reshape(scans, lay.kernel, tracks)
    update = ok.reshape(scans, tracks)
    every = update.all(axis=1).tolist()
    np.copyto(rows, lay.neutral[:, None], where=~update[:, None])
    blocks = np.empty((scans, lay.block, tracks))
    ws = _Workspace(tracks, n)
    predict, update_position, update_pseudo = ws.predict, ws.update_position, ws.update_pseudo
    block = _block_rows(init)
    # zero pivots go to the gain's fallback, and so does an overflowing finiteness sum
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, step in enumerate(steps):
            predict(block, model)
            block, m = blocks[k], rows[k]  # this scan's output, the next one's input
            try:
                update_position(m)
                update_pseudo(block)
            except (DegenerateCovarianceError, ValueError) as exc:
                raise type(exc)(f"step {step}: {exc}") from exc
            if not every[k]:
                np.copyto(block, ws.block, where=~update[k])
    items = np.moveaxis(blocks.reshape((scans, n, n + 1) + batch), (1, 2), (-2, -1))
    post = GaussianBelief(items[..., n], items[..., :n])
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
    emitted. A range that is not positive, as in the ensemble engine, or a
    degenerate conversion (indefinite statistics or singular position
    block) skips that scan's updates and records the step; other failures
    propagate with the step attached. Filters get no maneuver input.
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
