"""Gaussian mixture density scoring via expectation-maximization.

The score of a row is its negative log-density under the fitted mixture, so
low-probability rows rank as anomalous. Four covariance parameterizations are
supported: one matrix per component (full), one shared matrix (tied), one
variance per dimension per component (diag), and one scalar per component
(spherical). Full and tied share each component's responsibility-weighted
scatter, which tied sums and divides by n and full divides by the
component's weight; diag and spherical share each component's variance per
dimension, which spherical averages. Fitting and scoring share one weighted
log-density step; full and tied whiten by `dist_detect`'s `cholesky_factor`,
tied's one matrix once a step. The per-iteration mean log-likelihood trace
is kept on the state so convergence behavior is inspectable after the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dist_detect import cholesky_factor, whiten
from ..errors import InputError

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
    means = (resp.T @ X) / nk[:, None]
    diffs = [X - mean for mean in means]
    if cov_type in ("full", "tied"):
        scatters = [(r[:, None] * diff).T @ diff for r, diff in zip(resp.T, diffs)]
        if cov_type == "tied":
            covs = sum(scatters) / n
        else:
            covs = np.array(scatters) / nk[:, None, None]
        covs.reshape(-1, d * d)[:, :: d + 1] += reg
    else:
        covs = np.array([r @ diff**2 for r, diff in zip(resp.T, diffs)]) / nk[:, None]
        covs = (covs if cov_type == "diag" else covs.mean(axis=1)) + reg
    return nk / n, means, covs


def _log_gaussian(X, means, covs, cov_type):
    """(n, k) log-density of each row under each component."""
    d = X.shape[1]
    out = np.empty((X.shape[0], len(means)))
    if cov_type == "tied":
        chol = cholesky_factor(covs, "tied covariance")
    for j, mean in enumerate(means):
        diff = X - mean
        if cov_type in ("full", "tied"):
            if cov_type == "full":
                chol = cholesky_factor(covs[j], f"component {j} covariance")
            log_det = 2.0 * np.log(np.diag(chol)).sum()
            maha = (whiten(chol, diff) ** 2).sum(axis=1)
        elif cov_type == "diag":
            log_det, maha = np.log(covs[j]).sum(), (diff**2 / covs[j]).sum(axis=1)
        else:  # spherical
            log_det, maha = d * np.log(covs[j]), (diff**2).sum(axis=1) / covs[j]
        out[:, j] = -0.5 * (d * _LOG_2PI + log_det + maha)
    return out


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

    state = GmmState(*_m_step(X, resp, cov_type, reg), cov_type)
    for it in range(1, MAX_ITER + 1):
        weighted = _weighted_log_density(state, X)
        log_norm = _logsumexp(weighted, axis=1, keepdims=True)
        state.ll_trace.append(float(np.mean(log_norm[:, 0])))
        state.n_iter = it
        if it > 1 and abs(state.ll_trace[-1] - state.ll_trace[-2]) < TOL:
            state.converged = True
            break
        state.weights, state.means, state.covariances = _m_step(
            X, np.exp(weighted - log_norm), cov_type, reg
        )
    return state


def _weighted_log_density(state: GmmState, X: np.ndarray) -> np.ndarray:
    """(n, k) log of each component's weight times its density at each row."""
    return _log_gaussian(
        X, state.means, state.covariances, state.covariance_type
    ) + np.log(state.weights)


def score_gmm(state: GmmState, X: np.ndarray) -> np.ndarray:
    return -_logsumexp(_weighted_log_density(state, X), axis=1)
