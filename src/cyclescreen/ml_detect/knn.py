"""k-nearest-neighbor distance scoring.

The raw score of a query is the distance to its k-th nearest fitted row
("largest"), or the mean/median over its k nearest. Queries that coincide
exactly with a fitted row drop that one zero-distance match, so scoring the
training set reproduces k-th-neighbor semantics instead of returning zeros.

Distances come from `dist_detect.pairwise`; the self-match rule and the
k-nearest selection are `dist_detect`'s, the ones lof uses.
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
from ..errors import ConfigError


@dataclass
class KnnState:
    X: np.ndarray
    k: int
    method: str
    metric: MetricSpec


def fit_knn(params: dict, X: np.ndarray, rng) -> KnnState:
    k = params["n_neighbors"]
    if k >= X.shape[0]:
        raise ConfigError(
            f"n_neighbors={k} needs at least {k + 1} rows, got {X.shape[0]}"
        )
    return KnnState(
        X=X.copy(), k=k, method=params["method"],
        metric=metric_from_params(params, X),
    )


def neighbor_distances(state: KnnState, Q: np.ndarray) -> np.ndarray:
    """(m, k) sorted distances to the k nearest fitted rows, self-matches
    dropped one per query."""
    D = drop_self_matches(pairwise(Q, state.X, state.metric))
    return k_nearest(D, state.k)[1]


def score_knn(state: KnnState, Q: np.ndarray) -> np.ndarray:
    dists = neighbor_distances(state, Q)
    if state.method == "largest":
        return dists[:, -1].copy()
    if state.method == "mean":
        return dists.mean(axis=1)
    return np.median(dists, axis=1)
