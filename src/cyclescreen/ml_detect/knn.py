"""k-nearest-neighbor distance scoring.

The raw score of a query is the distance to its k-th nearest fitted row
("largest"), or the mean/median over its k nearest. Queries that coincide
exactly with a fitted row drop that one zero-distance match, so scoring the
training set reproduces k-th-neighbor semantics instead of returning zeros.

Distances come from `dist_detect.pairwise`, one block of queries at a
time: `query_blocks` cuts the queries, and each block's k nearest are kept
before the next is computed, so no (queries x fitted rows) matrix is held.
Scoring reduces each block to its scores first, so no (queries x k) array
is held either. The n_neighbors guard, the self-match rule and the
k-nearest selection are `dist_detect`'s, as lof's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..dist_detect import (
    MetricSpec,
    check_n_neighbors,
    metric_from_params,
    nearest_each,
    pairwise,
    query_blocks,
)
from ..util import median


class KnnState(NamedTuple):
    X: np.ndarray
    k: int
    method: str
    metric: MetricSpec


def fit_knn(params: dict, X: np.ndarray, rng) -> KnnState:
    k = params["n_neighbors"]
    check_n_neighbors(k, X.shape[0])
    return KnnState(
        X=X.copy(), k=k, method=params["method"],
        metric=metric_from_params(params, X),
    )


def score_knn(state: KnnState, Q: np.ndarray) -> np.ndarray:
    blocks, X, metric = query_blocks(Q, state.X, state.metric)
    picked = nearest_each((pairwise(B, X, metric) for B in blocks), state.k)
    if state.method == "largest":
        scores = [dists[:, -1].copy() for _, dists in picked]
    elif state.method == "mean":
        scores = [dists.mean(axis=1) for _, dists in picked]
    else:
        scores = [median(dists) for _, dists in picked]
    return np.concatenate(scores)
