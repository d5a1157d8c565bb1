"""Learned detectors behind one fit/score interface.

All six models share the convention that a higher raw score is more
anomalous. Raw scores become outlier probabilities through min-max
normalization, and flags come from a probability threshold (default 0.7) or,
for contamination-style workflows, by taking the top scoring fraction.

A model's module loads on that model's first fit or score, so a process
loads only the models it runs. Mlp and mirror_dims are importable from
here, and load the autoencoder's module on first use.
"""

from __future__ import annotations

import importlib
from typing import NamedTuple

import numpy as np

from ..errors import InputError, ThresholdRangeError
from ..util import as_matrix, float_policy, normalize_scores
from .params import (
    MAX_CONTAMINATION,
    ML_MODELS,
    PARAM_SPECS,
    DetectorConfig,
    make_config,
    validate_config,
)

DEFAULT_PROBABILITY_THRESHOLD = 0.7

def __getattr__(name):
    if name in ("Mlp", "mirror_dims"):
        return getattr(_model_module("autoencoder"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _model_module(model: str):
    """The module of a model, named as the model and holding its fit_<model>
    and score_<model>; imported on the model's first fit or score."""
    return importlib.import_module(f"{__name__}.{model}")


class FittedDetector(NamedTuple):
    """A trained detector plus the number of feature columns it was fitted
    on, which every scored matrix must match."""

    config: DetectorConfig
    state: object
    n_features: int


def fit(config: DetectorConfig, X) -> FittedDetector:
    """Train the configured model on a feature matrix.

    Every source of randomness (subsampling, initialization, batching,
    dropout) flows from config.seed, so a fit is reproducible bit for bit.
    Arithmetic that overflows on X raises DegenerateDataError named by the
    model, by util.float_policy.
    """
    config = validate_config(config)
    X = as_matrix(X)
    rng = np.random.default_rng(config.seed)
    fit_fn = getattr(_model_module(config.model), f"fit_{config.model}")
    with float_policy(config.model):
        state = fit_fn(config.params, X, rng)
    return FittedDetector(config=config, state=state, n_features=X.shape[1])


def score(fitted: FittedDetector, X) -> np.ndarray:
    """Raw anomaly scores for rows of X; higher means more anomalous.

    Arithmetic that overflows on X raises DegenerateDataError named by the
    model, by util.float_policy."""
    X = as_matrix(X)
    if X.shape[1] != fitted.n_features:
        raise InputError(
            f"scored rows have {X.shape[1]} features, detector was fitted "
            f"on {fitted.n_features}"
        )
    model = fitted.config.model
    score_fn = getattr(_model_module(model), f"score_{model}")
    with float_policy(model):
        return score_fn(fitted.state, X)


def check_threshold(threshold: float) -> None:
    """Refuse a probability threshold outside [0, 1], NaN included."""
    if not np.isfinite(threshold) or threshold < 0.0 or threshold > 1.0:
        raise ThresholdRangeError(
            f"threshold must lie in [0, 1], got {threshold!r}"
        )


def predict_outliers(
    probabilities, threshold: float = DEFAULT_PROBABILITY_THRESHOLD
) -> np.ndarray:
    """Flag rows whose probability strictly exceeds the threshold."""
    check_threshold(threshold)
    return np.asarray(probabilities, dtype=float) > threshold


def predict_top_fraction(scores, fraction: float) -> np.ndarray:
    """Contamination-style flags: mark the ceil(fraction * n) largest scores.

    Ties resolve to the earlier row so the flag count is exact.
    """
    if not np.isfinite(fraction) or fraction < 0.0 or fraction > MAX_CONTAMINATION:
        raise ThresholdRangeError(
            "contamination fraction must lie in "
            f"[0, {MAX_CONTAMINATION}], got {fraction!r}"
        )
    arr = np.asarray(scores, dtype=float)
    flags = np.zeros(arr.shape[0], dtype=bool)
    k = int(np.ceil(fraction * arr.shape[0])) if fraction > 0 else 0
    if k:
        order = np.argsort(-arr, kind="stable")
        flags[order[:k]] = True
    return flags


__all__ = [
    "ML_MODELS",
    "PARAM_SPECS",
    "DetectorConfig",
    "FittedDetector",
    "DEFAULT_PROBABILITY_THRESHOLD",
    "make_config",
    "validate_config",
    "as_matrix",
    "fit",
    "score",
    "normalize_scores",
    "check_threshold",
    "predict_outliers",
    "predict_top_fraction",
    "Mlp",
    "mirror_dims",
]
