"""k-nearest-neighbor distance scoring.

The raw score of a query is the distance to its k-th nearest fitted row
("largest"), or the mean/median over its k nearest. Queries that coincide
exactly with a fitted row drop that one zero-distance match, so scoring the
training set reproduces k-th-neighbor semantics instead of returning zeros.

Distances come from `dist_detect.pairwise`, which builds them a block of
query rows at a time; each query then sorts only its k + 1 nearest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dist_detect import MetricSpec, pairwise, resolve_metric
from ..errors import NeighborCountError


@dataclass
class KnnState:
    X: np.ndarray
    k: int
    method: str
    metric: MetricSpec


def metric_from_params(params: dict, X: np.ndarray) -> MetricSpec:
    kind = params["metric"]
    p = params.get("minkowski_p") if kind == "minkowski" else None
    return resolve_metric(MetricSpec(kind=kind, p=p), X)


def fit_knn(params: dict, X: np.ndarray, rng) -> KnnState:
    k = params["n_neighbors"]
    if k >= X.shape[0]:
        raise NeighborCountError(
            f"n_neighbors={k} needs at least {k + 1} rows, got {X.shape[0]}"
        )
    return KnnState(
        X=X.copy(), k=k, method=params["method"],
        metric=metric_from_params(params, X),
    )


def neighbor_distances(state: KnnState, Q: np.ndarray) -> np.ndarray:
    """(m, k) sorted distances to the k nearest fitted rows, self-matches
    dropped one per query.

    Only the k + 1 smallest distances of a row are sorted: a query keeps
    the first k of them, or the last k when the nearest is an exact match.
    """
    D = pairwise(Q, state.X, state.metric)
    k = state.k
    D.partition(k, axis=1)
    nearest = np.sort(D[:, : k + 1], axis=1)
    return np.where(nearest[:, :1] == 0.0, nearest[:, 1:], nearest[:, :k])


def score_knn(state: KnnState, Q: np.ndarray) -> np.ndarray:
    dists = neighbor_distances(state, Q)
    if state.method == "largest":
        return dists[:, -1].copy()
    if state.method == "mean":
        return dists.mean(axis=1)
    return np.median(dists, axis=1)
