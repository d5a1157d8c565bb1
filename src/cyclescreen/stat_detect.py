"""Univariate outlier rules over a feature column.

Five classical rules share one entry point: three-sigma limits around the
mean, median absolute deviation limits, Tukey fences on the quartiles, and
the two standardized-score variants. Methods that estimate spread refuse to
run when that spread is exactly zero; silently reporting "no outliers" on a
degenerate column would hide the degeneracy from the caller.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateDataError, InputError
from .util import as_matrix, float_policy, median, quartiles

#: reciprocal of the 0.75 standard normal quantile, the factor that makes the
#: median absolute deviation a consistent sigma estimate on Gaussian data
GAUSSIAN_MAD_FACTOR = 1.4826022185056018

#: band widths: sigmas for sd, scaled MADs for mad, IQRs beyond the
#: quartiles for iqr, and score limits for zscore and mod_zscore
SD_MULTIPLIER = 3.0
MAD_MULTIPLIER = 3.0
IQR_MULTIPLIER = 1.5
Z_LIMIT = 3.0
MOD_Z_LIMIT = 3.5


class StatMethod(str, Enum):
    SD = "sd"
    MAD = "mad"
    IQR = "iqr"
    ZSCORE = "zscore"
    MOD_ZSCORE = "mod_zscore"


#: the standardized-score rules judge (x - center) / spread against these;
#: the others flag raw values outside the band
_SCORE_LIMITS = {StatMethod.ZSCORE: Z_LIMIT, StatMethod.MOD_ZSCORE: MOD_Z_LIMIT}
_MAD_METHODS = (StatMethod.MAD, StatMethod.MOD_ZSCORE)


class StatLimits(NamedTuple):
    """Decision band of a rule: anything outside [lower, upper] is flagged.

    For SD/MAD/IQR the band lives on the raw value scale; for the score
    variants it lives on the standardized scale the scores are reported in.
    mad_factor is recorded only for the MAD-based methods.
    """

    method: StatMethod
    lower: float
    upper: float
    center: float
    spread: float
    mad_factor: float | None = None


class StatVerdict(NamedTuple):
    flags: np.ndarray
    scores: np.ndarray
    limits: StatLimits

    def flagged_indices(self) -> set[int]:
        return {int(i) for i in np.nonzero(self.flags)[0]}


def check_mad_factor(mad_factor: float) -> None:
    """Refuse a MAD consistency factor that is not finite and positive."""
    if not (np.isfinite(mad_factor) and mad_factor > 0):
        raise ConfigError(
            f"mad_factor must be finite and positive, got {mad_factor!r}"
        )


def scaled_mad(
    values: np.ndarray, mad_factor: float
) -> tuple[np.float64, np.float64]:
    """Median and scaled median absolute deviation of a column.

    Returns (median, mad_factor * median(|x - median|)) as NumPy float64,
    whose overflow a float_policy sees. Raises when check_mad_factor
    refuses the factor, or the raw deviation is exactly zero.
    """
    check_mad_factor(mad_factor)
    med = median(values)
    raw = median(np.abs(values - med))
    if raw == 0.0:
        raise DegenerateDataError(
            "median absolute deviation is zero; spread is degenerate"
        )
    return med, mad_factor * raw


def _estimate(x: np.ndarray, method: StatMethod, mad_factor: float):
    """(center, spread, lower, upper) of a column for a rule's family, as
    NumPy float64: the mean and sample sd, the median and scaled MAD, or
    the median, the IQR and the Tukey fences on the type-7 quartiles. A
    zero spread raises; a column of equal values has one, whatever its
    rounded mean gives. The score rules' band is ±limit on the scores'
    scale: the raw-scale band, which may overflow where the scores do
    not, is computed only for the band rules."""
    if method in _MAD_METHODS:
        center, spread = scaled_mad(x, mad_factor)
        low = high = center
        multiplier, what = MAD_MULTIPLIER, "scaled median absolute deviation"
    elif method is StatMethod.IQR:
        low, high = quartiles(x)
        center, spread = median(x), high - low
        multiplier, what = IQR_MULTIPLIER, "interquartile range"
    else:
        center = low = high = np.mean(x)
        spread = 0.0 if (x == x[0]).all() else np.std(x, ddof=1)
        multiplier, what = SD_MULTIPLIER, "standard deviation"
    if spread == 0.0:
        raise DegenerateDataError(f"{method.value}: {what} is zero")
    limit = _SCORE_LIMITS.get(method)
    if limit is not None:
        return center, spread, -limit, limit
    return center, spread, low - multiplier * spread, high + multiplier * spread


def detect_stat(
    values,
    method: StatMethod | str,
    mad_factor: float = GAUSSIAN_MAD_FACTOR,
) -> StatVerdict:
    """Run one univariate rule over a column.

    Parameters
    ----------
    values : array-like of float
        The feature column: a 1-D array or an (n, 1) matrix, read by
        util.as_matrix, with at least 2 entries.
    method : StatMethod or str
        Which rule to apply.
    mad_factor : float
        Consistency factor for the MAD-based methods (default Gaussian).

    Notes
    -----
    SD and ZSCORE always agree on flags: |x - mean| > k*sigma is the same
    inequality as |z| > k. The modified score divides by the scaled MAD, so
    with the Gaussian factor it matches the classic 0.6745*(x - M)/MAD form.
    """
    try:
        method = StatMethod(method)
    except ValueError:
        names = [m.value for m in StatMethod]
        raise ConfigError(
            f"unknown method '{method}'; expected one of {names}"
        ) from None
    x = as_matrix(values)
    if x.shape[1] != 1:
        raise InputError(f"detect_stat reads one feature column, got {x.shape[1]}")
    x = x[:, 0]
    if x.size < 2:
        raise InputError(f"need at least 2 values, got {x.size}")

    with float_policy(method.value):
        center, spread, lower, upper = _estimate(x, method, mad_factor)
        if method in _SCORE_LIMITS:
            scores = (x - center) / spread
            flags = np.abs(scores) > upper
            center, spread = 0.0, 1.0
        else:
            scores = x.copy()
            flags = (x < lower) | (x > upper)
    factor = mad_factor if method in _MAD_METHODS else None
    limits = StatLimits(
        method, float(lower), float(upper), float(center), float(spread),
        mad_factor=factor,
    )
    return StatVerdict(flags=flags, scores=scores, limits=limits)
