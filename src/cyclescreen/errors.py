"""Exception types shared across the package.

Every error raised on a validation or numerical-degeneracy path derives from
CycleScreenError so callers (and the CLI) can separate "bad input or bad
configuration" from genuine I/O failures.
"""

from __future__ import annotations


class CycleScreenError(Exception):
    """Base class for all validation and numerical-contract errors."""


class SchemaError(CycleScreenError):
    """A delimited file is missing a required column or has a bad header."""


class RowParseError(CycleScreenError):
    """A data row failed numeric parsing; message cites the file row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EmptyInputError(CycleScreenError):
    """An operation received no rows, no cycles, or no usable values."""


class UnknownCycleError(CycleScreenError):
    """A label or lookup named a (cell, cycle) pair the data does not hold."""


class ManifestError(CycleScreenError):
    """Train/test manifest is inconsistent (overlap, bad role, unknown cell)."""


class ShortCycleError(CycleScreenError):
    """A cycle has too few samples for difference-based features."""


class DegenerateSpreadError(CycleScreenError):
    """A spread estimate (IQR, MAD, standard deviation) is exactly zero."""


class NonFiniteFeatureError(CycleScreenError):
    """A feature matrix handed to a detector holds a NaN or an infinity."""


class ScaleOverflowError(CycleScreenError):
    """A finite series' scaling offset median**2 / IQR exceeds the float range."""


class EmptyFeatureError(CycleScreenError):
    """A derived feature column has no usable entries at all."""


class SingularCovarianceError(CycleScreenError):
    """A covariance matrix required by a distance is not invertible."""


class SingularComponentError(CycleScreenError):
    """A mixture component covariance stayed singular after regularization."""


class ShapeMismatchError(CycleScreenError):
    """Operands disagree in dimension, or a component count exceeds it."""


class BoundsError(CycleScreenError):
    """Grid bounds are not finite or are ordered low >= high."""


class NeighborCountError(CycleScreenError):
    """n_neighbors is too large for the number of fitted rows."""


class ThresholdRangeError(CycleScreenError):
    """A probability threshold fell outside [0, 1]."""


class ConfigError(CycleScreenError):
    """A detector configuration has an unknown model, param, or bad range."""


class NoPositiveLabelError(CycleScreenError):
    """A labeled cell contains no positive (anomalous) cycles."""


class InsufficientInlierError(CycleScreenError):
    """Too few predicted inliers remain to fit the trend model."""

    def __init__(self, message: str, inlier_count: int = 0):
        super().__init__(message)
        self.inlier_count = inlier_count


class AggregationError(CycleScreenError):
    """Configs being aggregated disagree in model or param kinds."""


class AnomalySpecError(CycleScreenError):
    """A synthetic anomaly request is out of range or non-positive."""
