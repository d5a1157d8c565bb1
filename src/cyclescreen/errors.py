"""Exception types shared across the package.

Every error raised on a validation or numerical-degeneracy path derives from
CycleScreenError, so callers (and the CLI, which exits 1 on any of them)
can separate a refusal from a genuine I/O failure. Below the base there are
three kinds, one for each thing a user can do about it:

- InputError: the data handed in cannot be used as given (a bad header or
  row, no rows, an unknown cycle or cell, mismatched shapes, a non-finite
  value); fix the data.
- ConfigError: a parameter is unknown or out of range; change the option
  or the config.
- DegenerateDataError: the data are finite and valid, but the method's
  statistic degenerates on them (a zero spread, a singular covariance, an
  overflow); choose another feature or method.

Two subclasses stay distinct because code tells them apart:
EmptyFeatureError is caught by type, and ThresholdRangeError is the
documented refusal of a probability threshold or contamination fraction.
Every class takes a single message, so a caller can re-raise a refusal
with context added, of its own class.
"""

from __future__ import annotations


class CycleScreenError(Exception):
    """Base class for all validation and numerical-contract errors."""


class InputError(CycleScreenError):
    """The data handed in cannot be used as given."""


class ConfigError(CycleScreenError):
    """A parameter is unknown or out of range."""


class DegenerateDataError(CycleScreenError):
    """Finite, valid data on which the method's statistic degenerates."""


class EmptyFeatureError(DegenerateDataError):
    """A derived feature column has no usable entries at all."""


class ThresholdRangeError(ConfigError):
    """A probability threshold or contamination fraction is out of range."""
