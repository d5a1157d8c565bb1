"""Univariate outlier rules over a feature column.

Five classical rules share one entry point: three-sigma limits around the
mean, median absolute deviation limits, Tukey fences on the quartiles, and
the two standardized-score variants. Methods that estimate spread refuse to
run when that spread is exactly zero; silently reporting "no outliers" on a
degenerate column would hide the degeneracy from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpreadError, EmptyInputError

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


@dataclass(frozen=True)
class StatLimits:
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


@dataclass(frozen=True)
class StatVerdict:
    flags: np.ndarray
    scores: np.ndarray
    limits: StatLimits

    def flagged_indices(self) -> set[int]:
        return {int(i) for i in np.nonzero(self.flags)[0]}


def scaled_mad(values: np.ndarray, mad_factor: float) -> tuple[float, float]:
    """Median and scaled median absolute deviation of a column.

    Returns (median, |mad_factor| * median(|x - median|)). Raises when the
    raw deviation is exactly zero.
    """
    med = float(np.median(values))
    raw = float(np.median(np.abs(values - med)))
    if raw == 0.0:
        raise DegenerateSpreadError(
            "median absolute deviation is zero; spread is degenerate"
        )
    return med, abs(mad_factor) * raw


def detect_stat(
    values,
    method: StatMethod | str,
    mad_factor: float = GAUSSIAN_MAD_FACTOR,
) -> StatVerdict:
    """Run one univariate rule over a column.

    Parameters
    ----------
    values : array-like of float
        The feature column, at least 2 entries.
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
    method = StatMethod(method)
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise EmptyInputError("detect_stat expects a 1-D column")
    if x.size < 2:
        raise EmptyInputError(f"need at least 2 values, got {x.size}")

    if method in (StatMethod.SD, StatMethod.ZSCORE):
        mean = float(np.mean(x))
        sigma = float(np.std(x, ddof=1))
        if sigma == 0.0:
            raise DegenerateSpreadError(
                f"{method.value}: standard deviation is zero"
            )
        if method is StatMethod.SD:
            lower = mean - SD_MULTIPLIER * sigma
            upper = mean + SD_MULTIPLIER * sigma
            flags = (x < lower) | (x > upper)
            limits = StatLimits(method, lower, upper, mean, sigma)
            return StatVerdict(flags=flags, scores=x.copy(), limits=limits)
        z = (x - mean) / sigma
        flags = np.abs(z) > Z_LIMIT
        limits = StatLimits(method, -Z_LIMIT, Z_LIMIT, 0.0, 1.0)
        return StatVerdict(flags=flags, scores=z, limits=limits)

    if method in (StatMethod.MAD, StatMethod.MOD_ZSCORE):
        med, mad = scaled_mad(x, mad_factor)
        if method is StatMethod.MAD:
            lower = med - MAD_MULTIPLIER * mad
            upper = med + MAD_MULTIPLIER * mad
            flags = (x < lower) | (x > upper)
            limits = StatLimits(
                method, lower, upper, med, mad, mad_factor=mad_factor
            )
            return StatVerdict(flags=flags, scores=x.copy(), limits=limits)
        z = (x - med) / mad
        flags = np.abs(z) > MOD_Z_LIMIT
        limits = StatLimits(
            method, -MOD_Z_LIMIT, MOD_Z_LIMIT, 0.0, 1.0, mad_factor=mad_factor
        )
        return StatVerdict(flags=flags, scores=z, limits=limits)

    # Tukey fences
    q1, q3 = np.quantile(x, [0.25, 0.75])  # type-7 interpolation
    iqr = float(q3 - q1)
    if iqr == 0.0:
        raise DegenerateSpreadError("iqr: interquartile range is zero")
    lower = float(q1) - IQR_MULTIPLIER * iqr
    upper = float(q3) + IQR_MULTIPLIER * iqr
    flags = (x < lower) | (x > upper)
    limits = StatLimits(method, lower, upper, float(np.median(x)), iqr)
    return StatVerdict(flags=flags, scores=x.copy(), limits=limits)
