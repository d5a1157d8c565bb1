"""Hyperparameter registry for the six learned detectors.

Each model declares its tunable params as Param(default, hard, search): the
default fills configs, the hard range rejects out-of-range values,
and the search range, when set, is what tuning explores. The hard range's type
drives config aggregation (numeric params average, categorical params take the
mode); the search range's type drives how TPE models a dimension. Tuning
runs DEFAULT_TRIALS trials per cell unless given a budget, which
check_trials checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..dist_detect import METRIC_KINDS
from ..errors import ConfigError
from ..util import check_addressable, is_integer


def _is_number(value) -> bool:
    """A real number that is not a bool; NumPy scalars, as read from an
    array, count."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, (bool, np.bool_)))


@dataclass(frozen=True)
class RealDomain:
    low: float
    high: float
    exclusive_low: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)) or self.low >= self.high:
            raise ConfigError(f"bad real domain [{self.low}, {self.high}]")

    def validate(self, name: str, value) -> float:
        if not _is_number(value):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        value = float(value)
        if value != value:
            raise ConfigError(f"{name} must not be NaN")
        too_low = value <= self.low if self.exclusive_low else value < self.low
        if too_low or value > self.high:
            bracket = "(" if self.exclusive_low else "["
            raise ConfigError(
                f"{name}={value} outside {bracket}{self.low}, {self.high}]"
            )
        return value

    def clamp(self, value: float) -> float:
        low = self.low + 1e-9 if self.exclusive_low else self.low
        return min(max(float(value), low), self.high)


@dataclass(frozen=True)
class IntDomain:
    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high:
            raise ConfigError(f"bad int domain [{self.low}, {self.high}]")

    def validate(self, name: str, value) -> int:
        if not _is_number(value) or (
            isinstance(value, (float, np.floating))
            and not float(value).is_integer()
        ):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        value = int(value)
        if value < self.low or value > self.high:
            raise ConfigError(
                f"{name}={value} outside [{self.low}, {self.high}]"
            )
        return value

    def clamp(self, value: int) -> int:
        return min(max(int(value), self.low), self.high)


@dataclass(frozen=True)
class CatDomain:
    choices: tuple

    def __post_init__(self):
        if len(self.choices) == 0:
            raise ConfigError("categorical domain needs at least one choice")
        try:
            hash(tuple(self.choices))
        except TypeError:
            raise ConfigError(
                f"categorical choices must be hashable, got {self.choices!r}"
            ) from None

    def validate(self, name: str, value):
        if value not in self.choices:
            raise ConfigError(
                f"{name}={value!r} not in {list(self.choices)}"
            )
        return value


class LayerList:
    """Hidden layer widths; categorical during aggregation."""

    def validate(self, name: str, value) -> tuple[int, ...]:
        if isinstance(value, (list, tuple)) and value:
            if all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                   for v in value):
                return tuple(int(v) for v in value)
        raise ConfigError(
            f"{name} must be a non-empty sequence of positive ints, "
            f"got {value!r}"
        )


class Param(NamedTuple):
    default: object
    hard: RealDomain | IntDomain | CatDomain | LayerList
    search: RealDomain | IntDomain | CatDomain | None = None  # None: not tuned


def _choice(default: str, *choices: str) -> Param:
    """A categorical param searched over all of its choices."""
    domain = CatDomain(choices)
    return Param(default, domain, domain)


#: the largest contamination fraction a config or predict_top_fraction takes
MAX_CONTAMINATION = 0.5

# trials flag by probability threshold, so a contamination fraction cannot
# move a tuning objective and is not searched
CONTAMINATION = Param(0.1, RealDomain(0.0, MAX_CONTAMINATION))
POSITIVE_FRACTION = RealDomain(0.0, 1.0, exclusive_low=True)
METRIC = Param(
    "euclidean",
    CatDomain(METRIC_KINDS),
    CatDomain(("euclidean", "manhattan", "minkowski")),
)
MINKOWSKI_P = Param(
    2.0, RealDomain(0.0, 10.0, exclusive_low=True), RealDomain(1.0, 4.0)
)

PARAM_SPECS: dict[str, dict[str, Param]] = {
    "iforest": {
        "n_estimators": Param(100, IntDomain(1, 5000), IntDomain(50, 200)),
        "max_samples": Param(1.0, POSITIVE_FRACTION, RealDomain(0.2, 1.0)),
        "contamination": CONTAMINATION,
        "max_features": Param(1.0, POSITIVE_FRACTION, RealDomain(0.2, 1.0)),
    },
    "knn": {
        "n_neighbors": Param(5, IntDomain(1, 100000), IntDomain(1, 20)),
        "method": _choice("largest", "largest", "mean", "median"),
        "metric": METRIC,
        "minkowski_p": MINKOWSKI_P,
    },
    "gmm": {
        "n_components": Param(1, IntDomain(1, 1000), IntDomain(1, 4)),
        "covariance_type": _choice("full", "full", "tied", "diag", "spherical"),
        "contamination": CONTAMINATION,
        "init_params": _choice("kmeans", "kmeans", "random"),
    },
    "lof": {
        "n_neighbors": Param(20, IntDomain(1, 100000), IntDomain(2, 30)),
        "metric": METRIC,
        "minkowski_p": MINKOWSKI_P,
    },
    "pca": {
        # None resolves to max(1, dim - 1) at fit time; the search's upper
        # bound becomes the selected column count in tune.default_search_space
        "n_components": Param(None, IntDomain(1, 100000), IntDomain(1, 2)),
    },
    "autoencoder": {
        "epoch_num": Param(50, IntDomain(1, 100000), IntDomain(20, 100)),
        "batch_size": Param(16, IntDomain(1, 1000000), IntDomain(8, 32)),
        "dropout_rate": Param(0.0, RealDomain(0.0, 0.9), RealDomain(0.0, 0.3)),
        "hidden_neuron_list": Param(
            (4, 2), LayerList(), CatDomain(((4, 2), (8, 4), (8, 2), (16, 8)))
        ),
        "hidden_activation_name": _choice("tanh", "relu", "tanh", "sigmoid"),
        "optimizer_name": _choice("adam", "sgd", "momentum", "adam"),
        "learning_rate": Param(0.01, POSITIVE_FRACTION, RealDomain(0.001, 0.05)),
    },
}

ML_MODELS = tuple(PARAM_SPECS)

#: tuning's trial budget per cell when none is given
DEFAULT_TRIALS = 20


def check_trials(n_trials: int) -> None:
    """Refuse a trial budget that is not an integer of at least 1, or one
    whose trial list, 8 bytes a trial, could not be addressed; a NumPy
    integer counts, a bool does not."""
    if not is_integer(n_trials) or n_trials < 1:
        raise ConfigError(
            f"n_trials must be an integer of at least 1, got {n_trials!r}"
        )
    check_addressable("n_trials", n_trials, int(n_trials) * 8)


@dataclass
class DetectorConfig:
    """A fully resolved detector configuration.

    params always holds every registered param for the model (defaults filled
    in), so two configs for the same model are comparable key by key.
    """

    model: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def make_config(model: str, params: dict | None = None, seed: int = 0) -> DetectorConfig:
    """Build a validated config, filling registry defaults."""
    if model not in PARAM_SPECS:
        raise ConfigError(
            f"unknown model '{model}'; expected one of {list(ML_MODELS)}"
        )
    spec = PARAM_SPECS[model]
    given = dict(params or {})
    unknown = set(given) - set(spec)
    if unknown:
        raise ConfigError(f"{model}: unknown params {sorted(unknown)}")
    resolved = {}
    for name, p in spec.items():
        # None always means "use the registry default"
        if name in given and given[name] is not None:
            resolved[name] = p.hard.validate(name, given[name])
        else:
            resolved[name] = p.default
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"'seed' must be a non-negative integer, got {seed!r}")
    return DetectorConfig(model=model, params=resolved, seed=seed)
