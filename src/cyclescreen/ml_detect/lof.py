"""Local outlier factor with the classic reachability-distance definitions.

reach_dist_k(a, b) = max(k_distance(b), d(a, b)); the local reachability
density is the reciprocal mean reachability distance over a point's k
neighbors, and the factor is the mean neighbor density over the point's own.
Scores near 1 mean "as dense as the neighbors"; larger means more isolated.

Fitting and scoring read `dist_detect.pairwise` distances through the
neighbor search knn uses: `drop_self_matches`, then `k_nearest`, whose ties
go to the lower index.

Distinct points always have positive reachability distance, so densities
stay finite unless more than n_neighbors rows coincide exactly; that case is
rejected rather than scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dist_detect import (
    MetricSpec,
    drop_self_matches,
    k_nearest,
    metric_from_params,
    pairwise,
)
from ..errors import ConfigError, DegenerateDataError


@dataclass
class LofState:
    X: np.ndarray
    k: int
    metric: MetricSpec
    k_distance: np.ndarray
    lrd: np.ndarray


def _density(k_distance, neigh, ndist, degenerate: str) -> np.ndarray:
    """Local reachability density of rows whose neighbors neigh lie at ndist;
    a zero mean reachability raises with the degenerate message."""
    mean_reach = np.maximum(k_distance[neigh], ndist).mean(axis=1)
    if np.any(mean_reach == 0.0):
        raise DegenerateDataError(degenerate)
    return 1.0 / mean_reach


def fit_lof(params: dict, X: np.ndarray, rng) -> LofState:
    k = params["n_neighbors"]
    n = X.shape[0]
    if k >= n:
        raise ConfigError(
            f"n_neighbors={k} needs at least {k + 1} rows, got {n}"
        )
    metric = metric_from_params(params, X)
    D = drop_self_matches(pairwise(X, X, metric))
    neigh, ndist = k_nearest(D, k)
    k_distance = ndist[:, -1]
    lrd = _density(
        k_distance, neigh, ndist,
        f"more than n_neighbors={k} identical rows; densities diverge",
    )
    return LofState(X=X.copy(), k=k, metric=metric,
                    k_distance=k_distance, lrd=lrd)


def score_lof(state: LofState, Q: np.ndarray) -> np.ndarray:
    D = drop_self_matches(pairwise(Q, state.X, state.metric))
    neigh, ndist = k_nearest(D, state.k)
    lrd_q = _density(
        state.k_distance, neigh, ndist,
        "query coincides with a saturated duplicate cluster",
    )
    return state.lrd[neigh].mean(axis=1) / lrd_q
