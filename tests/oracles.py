"""One-at-a-time references that the tests hold the batched paths to.

The package computes each job in one batched path: features scale and
difference every cycle of a sample count at once, knn and lof search
neighbours a block of queries at a time, and every distance comes from
`dist_detect.pairwise` over whole matrices. The functions here do the same
jobs one cycle, one query set or one pair at a time, and the tests compare
the package's results against them, mostly bit for bit:

- median_iqr_transform, transform_cell and extract_cycle_features are the
  one-cycle form of `features.build_feature_matrix`'s scaling and
  difference features; they share `_offset`, `_feature_table`,
  `_short_cycle` and `EPS` with it;
- gradient_check holds the autoencoder's backprop to central differences,
  and masked_sigmoid is its sigmoid computed on each sign's entries apart;
- neighbor_distances gives knn's whole (m, k) neighbour distances;
- distance is the one-pair metric;
- gmm_m_step and gmm_log_gaussian are the Gaussian mixture's M-step and
  log-density written out in one branch per covariance type, where the
  package shares one scatter between full and tied, one variance between
  diag and spherical, and one density step between fit and score;
  _log_gaussian_full, which gmm_log_gaussian calls for full and tied, takes
  its own Cholesky factor of each component's matrix, where the package
  whitens through `dist_detect.cholesky_factor` and `whiten` and factors
  tied's one matrix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cyclescreen import dist_detect
from cyclescreen.dataset import CycleRecord
from cyclescreen.dist_detect import MetricSpec
from cyclescreen.errors import DegenerateDataError, InputError
from cyclescreen.features import (
    EPS,
    FeatureMatrix,
    FeatureNotes,
    _feature_table,
    _offset,
    _short_cycle,
)
from cyclescreen.ml_detect import knn
from cyclescreen.ml_detect.autoencoder import Mlp
from cyclescreen.ml_detect.gmm import _LOG_2PI


@dataclass(frozen=True)
class ScaledSeries:
    """A robustly shifted series plus the statistics that produced it."""

    values: np.ndarray
    origin: str
    median: float
    iqr: float

    @property
    def offset(self) -> float:
        return _offset(self.median, self.iqr, self.origin)


# finite samples can overflow in the spread and difference arithmetic here
# and in extract_cycle_features; _feature_table refuses the feature that
# results by name, so NumPy's warnings stay inside
@np.errstate(over="ignore", invalid="ignore")
def median_iqr_transform(values, origin: str = "series") -> ScaledSeries:
    """Shift a series by median(X)^2 / IQR(X).

    Parameters
    ----------
    values : array-like of float
        The raw series; at least two distinct values are required.
    origin : str
        Name used in error messages and kept on the result ("voltage",
        "capacity", ...).

    Returns
    -------
    ScaledSeries
        Same length as the input; scaled[i] = values[i] - median^2/IQR.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"{origin}: expected a 1-D series")
    if arr.size == 0:
        raise InputError(f"{origin}: empty series")
    med = float(np.median(arr))
    q1, q3 = np.quantile(arr, [0.25, 0.75])  # linear interpolation, type 7
    iqr = float(q3 - q1)
    if iqr == 0.0:
        raise DegenerateDataError(
            f"{origin}: interquartile range is zero, cannot scale"
        )
    shifted = arr - _offset(med, iqr, origin)
    return ScaledSeries(values=shifted, origin=origin, median=med, iqr=iqr)


def _dvdq_max(dv: np.ndarray, dq: np.ndarray) -> tuple[float, bool]:
    """Max ratio of consecutive differences, guarding tiny denominators.

    Pairs with |dq| below the guard are skipped; if that empties the set the
    denominators are clamped to the guard (sign kept, exact zeros treated as
    positive) and the caller is told so it can report the cycle.
    """
    keep = np.abs(dq) >= EPS
    if np.any(keep):
        return float(np.max(dv[keep] / dq[keep])), False
    sign = np.where(dq < 0, -1.0, 1.0)
    clamped = sign * np.maximum(np.abs(dq), EPS)
    return float(np.max(dv / clamped)), True


@np.errstate(over="ignore", invalid="ignore")
def extract_cycle_features(
    cycles: Sequence[CycleRecord],
    scaled: Sequence[tuple[ScaledSeries, ScaledSeries]],
) -> tuple[FeatureMatrix, FeatureNotes]:
    """Build the per-cycle difference features from scaled series.

    Parameters
    ----------
    cycles : sequence of CycleRecord
        Cycles of a single cell, in any order; output rows follow this order.
    scaled : sequence of (ScaledSeries, ScaledSeries)
        Per-cycle (voltage, capacity) transforms aligned with `cycles`.

    Returns
    -------
    (FeatureMatrix, FeatureNotes)
        Columns dv_max, dq_max, dvdq_max, one row per cycle, plus the guard
        side channel.
    """
    if len(cycles) != len(scaled):
        raise InputError(
            f"{len(cycles)} cycles but {len(scaled)} scaled pairs"
        )
    if len(cycles) == 0:
        raise InputError("no cycles to extract features from")
    dv_max, dq_max, dvdq_max = (np.empty(len(cycles)) for _ in range(3))
    clamped = np.empty(len(cycles), dtype=bool)
    for i, (rec, (v_scaled, q_scaled)) in enumerate(zip(cycles, scaled)):
        n = rec.samples.shape[0]
        if n < 2:
            raise _short_cycle(rec)
        if v_scaled.values.shape[0] != n or q_scaled.values.shape[0] != n:
            raise InputError(
                f"cycle {rec.cell_id}/{rec.cycle_index}: scaled series length "
                f"does not match sample count {n}"
            )
        dv = np.diff(v_scaled.values)
        dq = np.diff(q_scaled.values)
        dv_max[i] = float(np.max(dv))
        dq_max[i] = float(np.max(dq))
        dvdq_max[i], clamped[i] = _dvdq_max(dv, dq)
    return _feature_table(cycles, dv_max, dq_max, dvdq_max, clamped)


def transform_cell(
    cycles: Sequence[CycleRecord],
) -> list[tuple[ScaledSeries, ScaledSeries]]:
    """Fit the median/IQR shift independently on each cycle's voltage and
    capacity series. Each cycle supplies its own statistics, so a level
    drift late in life cannot leak into early cycles."""
    out = []
    for rec in cycles:
        v = median_iqr_transform(
            rec.voltage, origin=f"voltage {rec.cell_id}/{rec.cycle_index}"
        )
        q = median_iqr_transform(
            rec.capacity, origin=f"capacity {rec.cell_id}/{rec.cycle_index}"
        )
        out.append((v, q))
    return out


def gradient_check(mlp: Mlp, X, step: float = 1e-5) -> float:
    """Max relative disagreement between backprop and central differences.

    Relative error uses |a - n| / max(1e-8, |a| + |n|), so an identically
    zero gradient pair scores 0 rather than 0/0.
    """
    X = np.asarray(X, dtype=float)
    _, grad = mlp.loss_and_grads(X)
    analytic = grad.copy()
    theta = mlp.theta
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        kept = theta[i]
        theta[i] = kept + step
        hi, _ = mlp.loss_and_grads(X)
        theta[i] = kept - step
        lo, _ = mlp.loss_and_grads(X)
        theta[i] = kept
        numeric[i] = (hi - lo) / (2.0 * step)
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def masked_sigmoid(z):
    """The logistic function, 1 / (1 + exp(-z)) on the entries z >= 0 and
    exp(z) / (1 + exp(z)) on the others, each gathered and scattered by a
    boolean mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def neighbor_distances(state: knn.KnnState, Q: np.ndarray) -> np.ndarray:
    """(m, k) sorted distances to the k nearest fitted rows, self-matches
    dropped one per query. `pairwise` is looked up where knn binds it, so a
    test that patches knn's binding sees these calls too."""
    blocks, X, metric = dist_detect.query_blocks(Q, state.X, state.metric)
    picked = dist_detect.nearest_each(
        (knn.pairwise(B, X, metric) for B in blocks), state.k
    )
    return np.concatenate([dists for _, dists in picked])


def distance(a, b, metric: MetricSpec) -> float:
    """Distance between two points under the metric."""
    a = np.asarray(a, dtype=float).reshape(1, -1)
    b = np.asarray(b, dtype=float).reshape(1, -1)
    return float(dist_detect.pairwise(a, b, metric)[0, 0])


def gmm_m_step(X, resp, cov_type, reg):
    """Mixture weights, means and covariances from the responsibilities,
    one branch per covariance type."""
    n, d = X.shape
    nk = resp.sum(axis=0) + 10.0 * np.finfo(float).eps
    weights = nk / n
    means = (resp.T @ X) / nk[:, None]
    k = means.shape[0]
    if cov_type == "full":
        covs = np.empty((k, d, d))
        for j in range(k):
            diff = X - means[j]
            covs[j] = (resp[:, j][:, None] * diff).T @ diff / nk[j]
            covs[j].flat[:: d + 1] += reg
    elif cov_type == "tied":
        covs = np.zeros((d, d))
        for j in range(k):
            diff = X - means[j]
            covs += (resp[:, j][:, None] * diff).T @ diff
        covs /= n
        covs.flat[:: d + 1] += reg
    elif cov_type == "diag":
        covs = np.empty((k, d))
        for j in range(k):
            diff = X - means[j]
            covs[j] = (resp[:, j] @ (diff**2)) / nk[j] + reg
    else:  # spherical
        covs = np.empty(k)
        for j in range(k):
            diff = X - means[j]
            covs[j] = ((resp[:, j] @ (diff**2)) / nk[j]).mean() + reg
    return weights, means, covs


def _log_gaussian_full(X, mean, cov):
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DegenerateDataError(
            "component covariance stayed singular after regularization"
        ) from None
    d = X.shape[1]
    diff = X - mean
    white = np.linalg.solve(chol, diff.T)
    log_det = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (d * _LOG_2PI + log_det + (white**2).sum(axis=0))


def gmm_log_gaussian(X, means, covs, cov_type):
    """(n, k) log-density of each row under each component, one branch per
    covariance type."""
    n, d = X.shape
    k = means.shape[0]
    out = np.empty((n, k))
    if cov_type == "full":
        for j in range(k):
            out[:, j] = _log_gaussian_full(X, means[j], covs[j])
    elif cov_type == "tied":
        for j in range(k):
            out[:, j] = _log_gaussian_full(X, means[j], covs)
    elif cov_type == "diag":
        for j in range(k):
            diff = X - means[j]
            out[:, j] = -0.5 * (
                d * _LOG_2PI
                + np.log(covs[j]).sum()
                + (diff**2 / covs[j]).sum(axis=1)
            )
    else:  # spherical
        for j in range(k):
            diff = X - means[j]
            out[:, j] = -0.5 * (
                d * _LOG_2PI
                + d * np.log(covs[j])
                + (diff**2).sum(axis=1) / covs[j]
            )
    return out
