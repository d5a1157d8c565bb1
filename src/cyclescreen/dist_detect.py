"""Distances under four metrics, and the centroid-distance detectors.

Every cycle is reduced to its distance from the componentwise mean of the
cloud under one of four metrics: Euclidean, Manhattan, Minkowski with a free
exponent, and the covariance-whitened form. All four report the square root
where applicable, so they live on a common distance scale. Flags come from a
one-sided MAD rule on the distance vector; scores are min-max normalized over
the observed cycles so that contour grids and flags share a scale.

`cholesky_factor` and `whiten` are the package's one whitening step; the
`mahalanobis_norm` feature and GMM's full and tied densities use them too.

knn and lof share `check_n_neighbors` and the neighbor search, the only
computation here that blocks: `query_blocks` cuts the queries into row
blocks, each caller computes one block's distances with `pairwise`, and
`nearest_each` drops that block's self-matches and keeps its k nearest before
the next block is computed, so no (queries x fitted rows) matrix is held.

`pairwise`, `resolve_metric`, `centroid_detect`, `grid_nodes` and
`score_grid` read their data through `util.as_matrix`: a 1-D array is one
feature column, and an empty or non-finite input raises InputError. Each
runs under `util.float_policy`, named by its metric (`grid_nodes` by
"grid"), so arithmetic that overflows on finite data raises
DegenerateDataError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateDataError, InputError
from .stat_detect import GAUSSIAN_MAD_FACTOR, scaled_mad
from .util import (
    as_matrix, check_addressable, float_policy, is_integer, normalize_scores,
)

METRIC_KINDS = ("euclidean", "manhattan", "minkowski", "mahalanobis")

#: centroid_detect's MAD multiplier and the grid's points per axis
DEFAULT_MAD_THRESHOLD = 3.0
DEFAULT_RESOLUTION = 50


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """A distance choice: kind plus the exponent or covariance it needs.

    minkowski requires p > 0. mahalanobis may carry an explicit covariance;
    when it is None the consumer estimates one from the data it is fitted on.
    """

    kind: str
    p: float | None = None
    covariance: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ConfigError(
                f"unknown metric '{self.kind}'; expected one of {METRIC_KINDS}"
            )
        if self.kind == "minkowski":
            if self.p is None or not np.isfinite(self.p) or self.p <= 0:
                raise ConfigError(
                    f"minkowski exponent must be positive, got {self.p!r}"
                )
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=float)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise InputError("covariance must be square")
            if not np.isfinite(cov).all():
                raise InputError("covariance must be finite")
            if not np.allclose(cov, cov.T, atol=1e-10):
                raise ConfigError("covariance must be symmetric")
            object.__setattr__(self, "covariance", cov)


def metric_from_params(params: dict, X: np.ndarray) -> MetricSpec:
    """The metric a knn or lof config names, resolved on its fitting rows."""
    return resolve_metric(
        MetricSpec(kind=params["metric"], p=params.get("minkowski_p")), X
    )


def cholesky_factor(cov: np.ndarray, name: str = "covariance") -> np.ndarray:
    """The lower Cholesky factor of the finite cov; a DegenerateDataError
    calls cov name."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DegenerateDataError(f"{name} is not positive definite") from None
    # a singular matrix can slip through with a rounding-level pivot; the
    # pivots of a finite cov's factor are positive and finite
    if chol.diagonal().min() ** 2 <= 1e-12 * cov.diagonal().max():
        raise DegenerateDataError(f"{name} is singular to working precision")
    return chol


def whiten(chol: np.ndarray, A: np.ndarray) -> np.ndarray:
    """A's rows whitened by chol, the Cholesky factor of their covariance."""
    return np.linalg.solve(chol, A.T).T


#: elements of one neighbour-search block's difference tensor (512 KB of
#: float64, cache-sized), which `pairwise` holds whole from 8 columns on and
#: one column at a time below
BLOCK_ELEMENTS = 1 << 16


def _whiten(metric: MetricSpec, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays' rows in the coordinates where the Mahalanobis metric is
    Euclidean. The caller holds the floating-point policy."""
    if metric.covariance is None:
        raise DegenerateDataError(
            "mahalanobis metric needs a covariance; none was resolved"
        )
    chol = cholesky_factor(metric.covariance)
    return [whiten(chol, A) for A in arrays]


#: below this many columns, NumPy sums a contiguous axis term by term, in
#: order; from here on it switches to 8-way pairwise summation
_IN_ORDER_TERMS = 8


def _sum_terms(X: np.ndarray, Y: np.ndarray, term) -> np.ndarray:
    """(n, m) sums over the d columns of term(x - y), for rows x of X and
    y of Y; term may overwrite the differences it is given.

    For d < _IN_ORDER_TERMS the columns are added one at a time, in column
    order, which is the arithmetic of reducing the (n, m, d) tensor over its
    contiguous last axis, without that slow short reduction. From there on
    the tensor is built and reduced as NumPy does it, so the bytes never
    depend on the path.
    """
    d = X.shape[1]
    if d < _IN_ORDER_TERMS:
        out = term(X[:, 0, None] - Y[:, 0])
        for j in range(1, d):
            out += term(X[:, j, None] - Y[:, j])
        return out
    return np.sum(term(X[:, None, :] - Y[None, :, :]), axis=-1)


def pairwise(X, Y, metric: MetricSpec) -> np.ndarray:
    """C-contiguous distance matrix between rows of X (n, d) and rows of
    Y (m, d); Mahalanobis whitens all rows first, then is Euclidean.

    Each metric is a sum over the columns of one term of the difference
    (`_sum_terms`): with fewer than 8 columns one (n, m) term at a time,
    otherwise the whole (n, m, d) difference tensor at once. Only the
    neighbor search blocks, one call per `query_blocks` block. The CLI's
    largest direct call (scoremap, --resolution 1000, d = 2) holds 16 MB.
    """
    X, Y = as_matrix(X), as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise InputError(
            f"operands differ in dimension: {X.shape[1]} vs {Y.shape[1]}"
        )
    kind = metric.kind
    with float_policy(kind):
        if kind == "mahalanobis":
            X, Y = _whiten(metric, X, Y)
            kind = "euclidean"
        if kind == "euclidean":
            out = _sum_terms(X, Y, lambda diff: np.square(diff, out=diff))
            np.sqrt(out, out=out)
        elif kind == "manhattan":
            out = _sum_terms(X, Y, lambda diff: np.abs(diff, out=diff))
        else:
            p = float(metric.p)
            out = _sum_terms(X, Y, lambda diff: np.abs(diff, out=diff) ** p)
            out = out ** (1.0 / p)
    return np.ascontiguousarray(out)


def query_blocks(
    Q, X, metric: MetricSpec
) -> tuple[list[np.ndarray], np.ndarray, MetricSpec]:
    """(blocks, X, metric): the query rows Q cut into consecutive blocks,
    the only blocking of rows, and the fitted rows X and metric to pass with
    each block. A block takes as many rows as keep its difference tensor
    within BLOCK_ELEMENTS, and at least two. A lone last row joins the block
    before it: for a one-row slice of a column-major matrix (whitened rows
    are), NumPy lays the difference tensor out differently and sums the d
    terms in another order. Mahalanobis whitens Q and X once, here, and is
    Euclidean from there, so `pairwise(B, X, metric)` over the blocks gives
    the rows of `pairwise(Q, X, metric)` bit for bit, one block at a time."""
    Q, X = as_matrix(Q), as_matrix(X)
    if metric.kind == "mahalanobis":
        with float_policy(metric.kind):
            Q, X = _whiten(metric, Q, X)
        metric = MetricSpec("euclidean")
    step = max(2, BLOCK_ELEMENTS // X.size)
    cuts = [0, *range(step, len(Q) - 1, step), len(Q)]
    return [Q[a:b] for a, b in zip(cuts, cuts[1:])], X, metric


def check_n_neighbors(k: int, n: int) -> None:
    """Refuse n_neighbors=k on n fitted rows: each row needs k others."""
    if k >= n:
        raise ConfigError(f"n_neighbors={k} needs at least {k + 1} rows, got {n}")


def drop_self_matches(D: np.ndarray) -> np.ndarray:
    """Set each row's first exact zero to inf, in place, and return D: a
    query equal to a fitted row is a member, not its own neighbor, and
    exact duplicates stay each other's neighbors."""
    zero = D == 0.0
    rows = np.nonzero(zero.any(axis=1))[0]
    D[rows, zero[rows].argmax(axis=1)] = np.inf
    return D


def k_nearest(D: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices (m, k) of each row's k smallest entries, smallest
    first, and those entries; ties keep the lower index, as a stable sort
    would, since LOF borrows densities through the indices.

    partition finds each row's k-th smallest entry; only the entries not
    above it are sorted, and the first k kept.
    """
    kth = np.partition(D, k - 1, axis=1)[:, k - 1:k]
    # NaN sorts last: a NaN k-th value keeps the whole row
    rows, cols = np.nonzero(~(D > kth))
    by_row = np.lexsort((D[rows, cols], rows))
    count = np.bincount(rows, minlength=D.shape[0])
    first = np.cumsum(count) - count
    order = cols[by_row][first[:, None] + np.arange(k)]
    return order, np.take_along_axis(D, order, axis=1)


def nearest_each(blocks, k: int):
    """`k_nearest` of each block of the queries' distance rows after
    `drop_self_matches`, yielded a block at a time, so a caller that
    reduces each block before the next holds one block's results."""
    return (k_nearest(drop_self_matches(D), k) for D in blocks)


def resolve_metric(metric: MetricSpec, X: np.ndarray) -> MetricSpec:
    """Fill in a data-estimated covariance for the whitened metric."""
    X = as_matrix(X)
    if metric.kind != "mahalanobis" or metric.covariance is not None:
        return metric
    if X.shape[0] < X.shape[1] + 1:
        raise DegenerateDataError(
            f"{X.shape[0]} rows cannot support a {X.shape[1]}-D covariance"
        )
    with float_policy(metric.kind):
        cov = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
        cholesky_factor(cov)
    return MetricSpec(kind="mahalanobis", covariance=cov)


def _centroid_distances(X, metric: MetricSpec):
    """The metric resolved on X, the centroid and each row's distance to it;
    raises when X has fewer than 3 rows or all distances are equal. The
    caller holds the floating-point policy."""
    X = as_matrix(X)
    if X.shape[0] < 3:
        raise InputError(
            f"need at least 3 rows for centroid distances, got {X.shape[0]}"
        )
    metric = resolve_metric(metric, X)
    centroid = X.mean(axis=0)
    dist = pairwise(X, centroid.reshape(1, -1), metric)[:, 0]
    if np.all(dist == dist[0]):
        raise DegenerateDataError(
            "all centroid distances are equal; nothing to rank"
        )
    return metric, centroid, dist


def check_mad_threshold(mad_threshold: float) -> None:
    """Refuse a MAD multiplier that is not finite."""
    if not np.isfinite(mad_threshold):
        raise ConfigError(f"mad_threshold must be finite, got {mad_threshold!r}")


class DistanceVerdict(NamedTuple):
    """Distances to the centroid plus the MAD-rule flags.

    normalized is the min-max rescaling of distances over the observed rows;
    cutoff is the flagging boundary median + mad_threshold * scaled MAD.
    """

    centroid: np.ndarray
    distances: np.ndarray
    normalized: np.ndarray
    flags: np.ndarray
    mad_threshold: float
    cutoff: float

    def flagged_indices(self) -> set[int]:
        return {int(i) for i in np.nonzero(self.flags)[0]}


def centroid_detect(
    X,
    metric: MetricSpec,
    mad_threshold: float = DEFAULT_MAD_THRESHOLD,
    mad_factor: float = GAUSSIAN_MAD_FACTOR,
) -> DistanceVerdict:
    """Flag rows whose centroid distance exceeds median + threshold * MAD.

    The rule is one-sided: only unusually large distances are anomalous,
    being close to the centroid never is. Lowering the threshold widens the
    flag set monotonically.
    """
    check_mad_threshold(mad_threshold)
    with float_policy(metric.kind):
        _, centroid, dist = _centroid_distances(X, metric)
        med, mad = scaled_mad(dist, mad_factor)
        cutoff = med + mad_threshold * mad
        flags = dist > cutoff
    return DistanceVerdict(
        centroid=centroid,
        distances=dist,
        normalized=normalize_scores(dist),
        flags=flags,
        mad_threshold=mad_threshold,
        cutoff=float(cutoff),
    )


class GridScores(NamedTuple):
    """Min-max scaled score surface over a rectangular grid.

    values[i0, i1, ...] is the score at (axes[0][i0], axes[1][i1], ...); the
    row-major flattening therefore iterates the last axis fastest. The
    values are scaled by the range [data_min, data_max] of the cycles' own
    scores. `score_grid` scales a distance model's centroid distances
    unclipped, so a value above 1 is farther out than any cycle; the CLI's
    scoremap scales a learned model's raw scores against the cycles' raw
    scores and clips them to [0, 1].
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    bounds: tuple[tuple[float, float], ...]
    data_min: float
    data_max: float


def check_resolution(resolution: int, n_axes: int = 2) -> None:
    """Refuse a grid resolution that is not an integer of at least 2 points
    per axis, or one whose grid nodes over n_axes axes, 8 bytes a
    coordinate, could not be addressed; a NumPy integer counts, a bool
    does not."""
    if not is_integer(resolution):
        raise ConfigError(f"grid resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise ConfigError(
            f"grid resolution must be at least 2 per axis, got {resolution!r}"
        )
    nbytes = int(resolution) ** n_axes * n_axes * 8
    check_addressable("grid resolution", resolution, nbytes)


def grid_nodes(
    X, resolution: int = DEFAULT_RESOLUTION
) -> tuple[tuple[tuple[float, float], ...], tuple[np.ndarray, ...], np.ndarray]:
    """Bounds, axes and nodes of a grid with resolution points per axis over
    the columns of X.

    The bounds are the data bounding box expanded 10% per side (constant
    axes are padded by 0.5 to keep the box non-empty). A box beyond the
    float range, or a constant column too large for the pad to widen it,
    raises DegenerateDataError. nodes holds one grid point per row in
    row-major order, so the last axis varies fastest.
    """
    X = as_matrix(X)
    check_resolution(resolution, X.shape[1])
    with float_policy("grid"):
        lo, hi = X.min(axis=0), X.max(axis=0)
        pad = 0.1 * (hi - lo)
        pad = np.where(pad == 0.0, 0.5, pad)
        bounds = tuple((float(l - p), float(h + p)) for l, h, p in zip(lo, hi, pad))
        for col, (low, high) in enumerate(bounds):
            if low >= high:
                raise DegenerateDataError(
                    f"grid column {col} is constant at {low!r}, where a pad "
                    "of 0.5 is below the value's resolution"
                )
        axes = tuple(np.linspace(low, high, resolution) for low, high in bounds)
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.column_stack([m.ravel() for m in mesh])
    return bounds, axes, nodes


def score_grid(
    X, metric: MetricSpec, resolution: int = DEFAULT_RESOLUTION
) -> GridScores:
    """Evaluate the normalized centroid distance on the resolution x
    resolution grid `grid_nodes` lays over the two columns of X."""
    X = as_matrix(X)
    if X.shape[1] != 2:
        raise InputError(
            f"score grids are 2-D maps; got {X.shape[1]} feature columns"
        )
    with float_policy(metric.kind):
        metric, centroid, data_dist = _centroid_distances(X, metric)
        bounds, axes, nodes = grid_nodes(X, resolution)
        dmin, dmax = float(data_dist.min()), float(data_dist.max())
        node_dist = pairwise(nodes, centroid.reshape(1, -1), metric)[:, 0]
        values = ((node_dist - dmin) / (dmax - dmin)).reshape(resolution, resolution)
    return GridScores(
        axes=axes,
        values=values,
        bounds=bounds,
        data_min=dmin,
        data_max=dmax,
    )
