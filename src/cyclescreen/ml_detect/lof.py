"""Local outlier factor with the classic reachability-distance definitions.

reach_dist_k(a, b) = max(k_distance(b), d(a, b)); the local reachability
density is the reciprocal mean reachability distance over a point's k
neighbors, and the factor is the mean neighbor density over the point's own.
Scores near 1 mean "as dense as the neighbors"; larger means more isolated.

Fitting and scoring read `dist_detect.pairwise` distances through the
neighbor search knn uses, one block of query rows at a time: `query_blocks`
cuts the rows, and `nearest_each` drops each block's self-matches and keeps
its k nearest, ties to the lower index, so no (queries x fitted rows) matrix
is held. Fitting joins the blocks' neighbors; scoring reduces each block to
its factors before the next block, so no (queries x k) array spans all
queries.

Distinct points always have positive reachability distance, so densities
stay finite unless more than n_neighbors rows coincide exactly; that case is
rejected rather than scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dist_detect import (
    MetricSpec,
    check_n_neighbors,
    metric_from_params,
    nearest_each,
    pairwise,
    query_blocks,
)
from ..errors import DegenerateDataError


@dataclass
class LofState:
    X: np.ndarray
    k: int
    metric: MetricSpec
    k_distance: np.ndarray
    lrd: np.ndarray


def _neighbors(Q, X, metric: MetricSpec, k: int):
    """Indices and distances of each query's k nearest rows of X, yielded
    one query block at a time."""
    blocks, X, metric = query_blocks(Q, X, metric)
    return nearest_each((pairwise(B, X, metric) for B in blocks), k)


def _density(k_distance, neigh, ndist, degenerate: str) -> np.ndarray:
    """Local reachability density of rows whose neighbors neigh lie at ndist;
    a zero mean reachability raises with the degenerate message."""
    mean_reach = np.maximum(k_distance[neigh], ndist).mean(axis=1)
    if np.any(mean_reach == 0.0):
        raise DegenerateDataError(degenerate)
    return 1.0 / mean_reach


def fit_lof(params: dict, X: np.ndarray, rng) -> LofState:
    k = params["n_neighbors"]
    check_n_neighbors(k, X.shape[0])
    metric = metric_from_params(params, X)
    neigh, ndist = (np.concatenate(part) for part in zip(*_neighbors(X, X, metric, k)))
    k_distance = ndist[:, -1]
    lrd = _density(
        k_distance, neigh, ndist,
        f"more than n_neighbors={k} identical rows; densities diverge",
    )
    return LofState(X=X.copy(), k=k, metric=metric,
                    k_distance=k_distance, lrd=lrd)


def score_lof(state: LofState, Q: np.ndarray) -> np.ndarray:
    scores = []
    for neigh, ndist in _neighbors(Q, state.X, state.metric, state.k):
        lrd_q = _density(
            state.k_distance, neigh, ndist,
            "query coincides with a saturated duplicate cluster",
        )
        scores.append(state.lrd[neigh].mean(axis=1) / lrd_q)
    return np.concatenate(scores)
