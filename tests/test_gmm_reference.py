"""The Gaussian mixture's shared steps against one branch per type.

gmm_m_step and gmm_log_gaussian in tests/oracles.py state the M-step and the
log-density once per covariance type. Each case fits and scores twice, with
the module's steps and with those patched in, and the weights, means,
covariances, likelihood trace, iteration count, convergence flag and scores
must match byte for byte. Unlike the output digests, this holds under any
NumPy.
"""

import numpy as np
import pytest

from cyclescreen.ml_detect import gmm, make_config

from oracles import gmm_log_gaussian, gmm_m_step

CASES = [
    (cov_type, init, k)
    for cov_type in ("full", "tied", "diag", "spherical")
    for init in ("kmeans", "random")
    for k in (1, 3)
]


def _inputs(name):
    local = np.random.default_rng(3)
    if name == "one_column":
        X = np.concatenate(
            [local.normal(-2.0, 0.5, 20), local.normal(3.0, 1.0, 15)]
        )[:, None]
    elif name == "nine_columns":
        X = local.normal(size=(30, 9)) + np.repeat([0.0, 1.5, -1.5], 10)[:, None]
    else:  # duplicate rows, on a 0.1 lattice
        X = np.round(local.normal(size=(40, 2)), 1)
        X[10:25] = X[0]
    Q = np.vstack([X, local.normal(size=(10, X.shape[1])) * 3.0])
    return X, Q


def _fit_and_score(case, X, Q):
    cov_type, init, k = case
    params = make_config(
        "gmm",
        {"n_components": k, "covariance_type": cov_type, "init_params": init},
    ).params
    state = gmm.fit_gmm(params, X, np.random.default_rng(k))
    return state, gmm.score_gmm(state, Q)


@pytest.mark.parametrize("data", ["one_column", "nine_columns", "duplicate_rows"])
def test_gmm_matches_per_type_reference_bytes(data, monkeypatch):
    X, Q = _inputs(data)
    got = [_fit_and_score(case, X, Q) for case in CASES]
    monkeypatch.setattr(gmm, "_m_step", gmm_m_step)
    monkeypatch.setattr(gmm, "_log_gaussian", gmm_log_gaussian)
    for case, (state, scores) in zip(CASES, got):
        expect, expect_scores = _fit_and_score(case, X, Q)
        for name in ("weights", "means", "covariances"):
            a, b = getattr(state, name), getattr(expect, name)
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), (case, name)
        assert (
            np.asarray(state.ll_trace).tobytes()
            == np.asarray(expect.ll_trace).tobytes()
        ), case
        assert (state.n_iter, state.converged) == (
            expect.n_iter,
            expect.converged,
        ), case
        assert scores.tobytes() == expect_scores.tobytes(), case
