"""Local outlier factor with the classic reachability-distance definitions.

reach_dist_k(a, b) = max(k_distance(b), d(a, b)); the local reachability
density is the reciprocal mean reachability distance over a point's k
neighbors, and the factor is the mean neighbor density over the point's own.
Scores near 1 mean "as dense as the neighbors"; larger means more isolated.

Distances come from `dist_detect.pairwise`, which builds them a block of
rows at a time; neighbors are then picked a block of rows at a time by an
exact selection that keeps a stable sort's order (ties go to the lower
index), and an exact self-match is cleared for all queries at once.

Distinct points always have positive reachability distance, so densities
stay finite unless more than n_neighbors rows coincide exactly; that case is
rejected rather than scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dist_detect import BLOCK_ELEMENTS, MetricSpec, pairwise
from ..errors import DegenerateSpreadError, NeighborCountError
from .knn import metric_from_params


@dataclass
class LofState:
    X: np.ndarray
    k: int
    metric: MetricSpec
    k_distance: np.ndarray
    lrd: np.ndarray


def _knn_rows(D: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor indices (m, k) and distances, smallest first, per row.

    Ties keep the lower index (the order of a stable sort), because the
    indices pick whose k-distance and density a row borrows. A block of rows
    at a time, the k-th smallest distance of each row is found by partition;
    only the entries not above it, ties included, are then sorted, stably
    and in index order, and the first k of each row are kept.
    """
    m, n = D.shape
    order = np.empty((m, k), dtype=np.intp)
    step = max(1, BLOCK_ELEMENTS // max(1, n))
    for start in range(0, m, step):
        block = D[start:start + step]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1:k]
        # NaN sorts last: a NaN k-th value keeps the whole row
        rows, cols = np.nonzero(~(block > kth))
        by_row = np.lexsort((block[rows, cols], rows))
        count = np.bincount(rows, minlength=block.shape[0])
        first = np.cumsum(count) - count
        order[start:start + step] = cols[by_row][first[:, None] + np.arange(k)]
    dists = np.take_along_axis(D, order, axis=1)
    return order, dists


def fit_lof(params: dict, X: np.ndarray, rng) -> LofState:
    k = params["n_neighbors"]
    n = X.shape[0]
    if k >= n:
        raise NeighborCountError(
            f"n_neighbors={k} needs at least {k + 1} rows, got {n}"
        )
    metric = metric_from_params(params, X)
    D = pairwise(X, X, metric)
    np.fill_diagonal(D, np.inf)
    neigh, ndist = _knn_rows(D, k)
    k_distance = ndist[:, -1]
    reach = np.maximum(k_distance[neigh], ndist)
    mean_reach = reach.mean(axis=1)
    if np.any(mean_reach == 0.0):
        raise DegenerateSpreadError(
            f"more than n_neighbors={k} identical rows; densities diverge"
        )
    lrd = 1.0 / mean_reach
    return LofState(X=X.copy(), k=k, metric=metric,
                    k_distance=k_distance, lrd=lrd)


def score_lof(state: LofState, Q: np.ndarray) -> np.ndarray:
    D = pairwise(Q, state.X, state.metric)
    # one exact self-match per query is treated as membership, not a neighbor
    zero = D == 0.0
    rows = np.nonzero(zero.any(axis=1))[0]
    D[rows, zero[rows].argmax(axis=1)] = np.inf
    neigh, ndist = _knn_rows(D, state.k)
    reach = np.maximum(state.k_distance[neigh], ndist)
    mean_reach = reach.mean(axis=1)
    if np.any(mean_reach == 0.0):
        raise DegenerateSpreadError(
            "query coincides with a saturated duplicate cluster"
        )
    lrd_q = 1.0 / mean_reach
    return state.lrd[neigh].mean(axis=1) / lrd_q
