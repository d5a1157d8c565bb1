"""Hyperparameter registry for the six learned detectors.

Each model declares its tunable params with defaults and hard ranges; config
construction fills defaults and rejects out-of-range or unknown entries. The
param's class drives config aggregation (numeric params average, categorical
params take the mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError


@dataclass(frozen=True)
class RealParam:
    default: float
    low: float
    high: float
    exclusive_low: bool = False

    def validate(self, name: str, value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
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
class IntParam:
    default: int | None
    low: int
    high: int

    def validate(self, name: str, value) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if float(value) != int(value):
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
class CatParam:
    default: str
    choices: tuple[str, ...]

    def validate(self, name: str, value) -> str:
        if value not in self.choices:
            raise ConfigError(
                f"{name}={value!r} not in {list(self.choices)}"
            )
        return value


@dataclass(frozen=True)
class LayerListParam:
    """Hidden layer widths; treated as categorical during aggregation."""

    default: tuple[int, ...]

    def validate(self, name: str, value) -> tuple[int, ...]:
        if isinstance(value, (list, tuple)) and value:
            if all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                   for v in value):
                return tuple(int(v) for v in value)
        raise ConfigError(
            f"{name} must be a non-empty sequence of positive ints, "
            f"got {value!r}"
        )


PARAM_SPECS: dict[str, dict] = {
    "iforest": {
        "n_estimators": IntParam(default=100, low=1, high=5000),
        "max_samples": RealParam(default=1.0, low=0.0, high=1.0, exclusive_low=True),
        "contamination": RealParam(default=0.1, low=0.0, high=0.5),
        "max_features": RealParam(default=1.0, low=0.0, high=1.0, exclusive_low=True),
    },
    "knn": {
        "n_neighbors": IntParam(default=5, low=1, high=100000),
        "method": CatParam(default="largest", choices=("largest", "mean", "median")),
        "metric": CatParam(
            default="euclidean",
            choices=("euclidean", "manhattan", "minkowski", "mahalanobis"),
        ),
        "minkowski_p": RealParam(default=2.0, low=0.0, high=10.0, exclusive_low=True),
    },
    "gmm": {
        "n_components": IntParam(default=1, low=1, high=1000),
        "covariance_type": CatParam(
            default="full", choices=("full", "tied", "diag", "spherical")
        ),
        "contamination": RealParam(default=0.1, low=0.0, high=0.5),
        "init_params": CatParam(default="kmeans", choices=("kmeans", "random")),
    },
    "lof": {
        "n_neighbors": IntParam(default=20, low=1, high=100000),
        "metric": CatParam(
            default="euclidean",
            choices=("euclidean", "manhattan", "minkowski", "mahalanobis"),
        ),
        "minkowski_p": RealParam(default=2.0, low=0.0, high=10.0, exclusive_low=True),
    },
    "pca": {
        # None resolves to max(1, dim - 1) at fit time
        "n_components": IntParam(default=None, low=1, high=100000),
    },
    "autoencoder": {
        "epoch_num": IntParam(default=50, low=1, high=100000),
        "batch_size": IntParam(default=16, low=1, high=1000000),
        "dropout_rate": RealParam(default=0.0, low=0.0, high=0.9),
        "hidden_neuron_list": LayerListParam(default=(4, 2)),
        "hidden_activation_name": CatParam(
            default="tanh", choices=("relu", "tanh", "sigmoid")
        ),
        "optimizer_name": CatParam(
            default="adam", choices=("sgd", "momentum", "adam")
        ),
        "learning_rate": RealParam(default=0.01, low=0.0, high=1.0, exclusive_low=True),
    },
}

ML_MODELS = tuple(PARAM_SPECS)


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
            resolved[name] = p.validate(name, given[name])
        else:
            resolved[name] = p.default
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative int, got {seed!r}")
    return DetectorConfig(model=model, params=resolved, seed=seed)


def validate_config(config: DetectorConfig) -> DetectorConfig:
    """Re-validate an externally constructed config."""
    return make_config(config.model, config.params, config.seed)
