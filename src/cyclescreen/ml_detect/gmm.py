"""Gaussian mixture density scoring via expectation-maximization.

The score of a row is its negative log-density under the fitted mixture, so
low-probability rows rank as anomalous. Four covariance parameterizations are
supported: one matrix per component (full), one shared matrix (tied), one
variance per dimension per component (diag), and one scalar per component
(spherical). The per-iteration mean log-likelihood trace is kept on the state
so convergence behavior is inspectable after the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateDataError, InputError

MAX_ITER = 200
TOL = 1e-6
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GmmState:
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    covariance_type: str
    ll_trace: list = field(default_factory=list)
    converged: bool = False
    n_iter: int = 0


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along an axis as SciPy 1.17 computes it: the log1p
    form of Blanchard, Higham & Higham (IMA J. Numer. Anal., 2021). The m
    elements tied at the maximum leave the sum, giving log1p(sum(exp(a -
    max)) / m) + log(m) + max; where that is not finite (say a row of -inf)
    the direct log(sum(exp(a))) is used."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max, axis=axis, keepdims=True, dtype=a.dtype)
        s = np.sum(
            np.exp(np.where(at_max, -np.inf, a) - a_max),
            axis=axis,
            keepdims=True,
        )
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
        out = np.where(np.isfinite(out), out, direct)
    return out if keepdims else np.squeeze(out, axis=axis)


def _kmeans_labels(X: np.ndarray, k: int, rng) -> np.ndarray:
    n = X.shape[0]
    centers = X[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1, dtype=int)
    for _it in range(20):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        new_labels = np.argmin(d2, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:
                centers[j] = X[rng.integers(n)]
    return labels


def _m_step(X, resp, cov_type, reg):
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


def _log_gaussian(X, means, covs, cov_type):
    """(n, k) log-density of each row under each component."""
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


def fit_gmm(params: dict, X: np.ndarray, rng) -> GmmState:
    n, d = X.shape
    k = params["n_components"]
    if n < max(k, 2):
        raise InputError(
            f"{n} rows cannot support {k} mixture components"
        )
    # collapse guard scaled to the data's own variance
    reg = 1e-6 * float(np.mean(np.var(X, axis=0)))
    if reg <= 0.0:
        reg = 1e-12
    cov_type = params["covariance_type"]

    if params["init_params"] == "kmeans":
        labels = _kmeans_labels(X, k, rng)
        resp = np.zeros((n, k))
        resp[np.arange(n), labels] = 1.0
    else:
        resp = rng.uniform(size=(n, k))
        resp /= resp.sum(axis=1, keepdims=True)

    weights, means, covs = _m_step(X, resp, cov_type, reg)
    state = GmmState(
        weights=weights,
        means=means,
        covariances=covs,
        covariance_type=cov_type,
    )
    for it in range(1, MAX_ITER + 1):
        weighted = _log_gaussian(X, means, covs, cov_type) + np.log(weights)
        ll = float(np.mean(_logsumexp(weighted, axis=1)))
        state.ll_trace.append(ll)
        state.n_iter = it
        if it > 1 and abs(state.ll_trace[-1] - state.ll_trace[-2]) < TOL:
            state.converged = True
            break
        log_resp = weighted - _logsumexp(weighted, axis=1, keepdims=True)
        weights, means, covs = _m_step(X, np.exp(log_resp), cov_type, reg)
        state.weights, state.means, state.covariances = weights, means, covs
    return state


def score_gmm(state: GmmState, X: np.ndarray) -> np.ndarray:
    weighted = _log_gaussian(
        X, state.means, state.covariances, state.covariance_type
    ) + np.log(state.weights)
    return -_logsumexp(weighted, axis=1)
