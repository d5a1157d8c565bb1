"""Principal-subspace reconstruction error.

Rows are centered on the fitted mean and projected onto the top principal
directions; the score is the squared norm of what the projection cannot
explain. Points inside the subspace score (numerically) zero.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ConfigError


class PcaState(NamedTuple):
    mean: np.ndarray
    components: np.ndarray  # (k, d), orthonormal rows


def fit_pca(params: dict, X: np.ndarray, rng) -> PcaState:
    n, d = X.shape
    k = params["n_components"]
    if k is None:
        k = max(1, d - 1)
    if k > d:
        raise ConfigError(
            f"n_components={k} exceeds feature dimension {d}"
        )
    if k > min(n, d):
        raise ConfigError(
            f"n_components={k} exceeds the rank bound min(n={n}, d={d})"
        )
    mean = X.mean(axis=0)
    _, _, vt = np.linalg.svd(X - mean, full_matrices=False)
    return PcaState(mean=mean, components=vt[:k])


def score_pca(state: PcaState, X: np.ndarray) -> np.ndarray:
    centered = X - state.mean
    projected = centered @ state.components.T @ state.components
    residual = centered - projected
    return np.sum(residual**2, axis=1)
