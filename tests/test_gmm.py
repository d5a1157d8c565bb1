import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from cyclescreen.errors import InputError
from cyclescreen.ml_detect import fit, make_config, score
from cyclescreen.ml_detect.gmm import _logsumexp, fit_gmm, score_gmm

COV_TYPES = ("full", "tied", "diag", "spherical")


def two_blobs(rng, n=60):
    a = rng.normal((-3.0, 0.0), 0.5, size=(n // 2, 2))
    b = rng.normal((3.0, 1.0), 0.7, size=(n // 2, 2))
    return np.vstack([a, b])


def test_log_likelihood_trace_monotone_100_runs():
    for run in range(100):
        rng = np.random.default_rng(run)
        X = two_blobs(rng, n=40)
        params = {
            "n_components": int(rng.integers(1, 4)),
            "covariance_type": COV_TYPES[run % 4],
            "init_params": "kmeans" if run % 2 else "random",
        }
        state = fit_gmm(make_config("gmm", params).params, X, np.random.default_rng(run))
        trace = np.asarray(state.ll_trace)
        assert trace.size >= 1
        # the covariance floor added every update perturbs the exact
        # maximizer by O(reg), so monotonicity holds to that order
        assert np.all(np.diff(trace) >= -1e-6), (run, trace)


def test_converged_flag_and_iteration_count(rng):
    X = two_blobs(rng)
    state = fit_gmm(make_config("gmm", {"n_components": 2}).params, X, rng)
    assert state.converged
    assert 1 <= state.n_iter <= 200
    assert len(state.ll_trace) == state.n_iter


def test_all_covariance_types_recover_blob_centers():
    for cov_type in COV_TYPES:
        rng = np.random.default_rng(7)
        X = two_blobs(rng, n=100)
        state = fit_gmm(
            make_config(
                "gmm", {"n_components": 2, "covariance_type": cov_type}
            ).params,
            X,
            np.random.default_rng(7),
        )
        centers = state.means[np.argsort(state.means[:, 0])]
        np.testing.assert_allclose(
            centers, [[-3.0, 0.0], [3.0, 1.0]], atol=0.5
        )
        assert state.weights.sum() == pytest.approx(1.0)


def test_covariance_shapes_per_type(rng):
    X = two_blobs(rng)
    shapes = {
        "full": (2, 2, 2),
        "tied": (2, 2),
        "diag": (2, 2),
        "spherical": (2,),
    }
    for cov_type, shape in shapes.items():
        state = fit_gmm(
            make_config(
                "gmm", {"n_components": 2, "covariance_type": cov_type}
            ).params,
            X,
            np.random.default_rng(0),
        )
        assert state.covariances.shape == shape, cov_type


def test_score_is_negative_log_density_single_component(rng):
    # with one spherical-free component the density is a plain gaussian,
    # so scores must match scipy's multivariate normal exactly
    X = rng.normal(size=(50, 2))
    state = fit_gmm(
        make_config("gmm", {"n_components": 1}).params,
        X,
        np.random.default_rng(1),
    )
    s = score_gmm(state, X)
    expect = -stats.multivariate_normal(
        mean=state.means[0], cov=state.covariances[0]
    ).logpdf(X)
    np.testing.assert_allclose(s, expect, atol=1e-8)


def test_low_density_points_score_higher(rng):
    X = two_blobs(rng)
    fitted = fit(make_config("gmm", {"n_components": 2}), X)
    s_data = score(fitted, X)
    s_far = score(fitted, np.asarray([[0.0, 10.0]]))
    assert s_far[0] > s_data.max()


def test_needs_enough_rows():
    with pytest.raises(InputError, match="cannot support 3 mixture components"):
        fit_gmm(
            make_config("gmm", {"n_components": 3}).params,
            np.zeros((2, 2)),
            np.random.default_rng(0),
        )


def test_duplicate_rows_survive_via_regularization():
    # identical rows make the empirical covariance singular; the fitted
    # floor keeps the model usable instead of raising
    X = np.vstack([np.zeros((10, 2)), np.ones((10, 2)) * 4.0])
    state = fit_gmm(
        make_config("gmm", {"n_components": 2}).params,
        X,
        np.random.default_rng(0),
    )
    assert np.all(np.isfinite(state.ll_trace))
    s = score_gmm(state, X)
    assert np.all(np.isfinite(s))


def test_kmeans_init_deterministic(rng):
    X = two_blobs(rng)
    params = make_config("gmm", {"n_components": 2}).params
    a = fit_gmm(params, X, np.random.default_rng(5))
    b = fit_gmm(params, X, np.random.default_rng(5))
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.ll_trace, b.ll_trace)


def test_logsumexp_bitwise_equal_to_scipy():
    rng = np.random.default_rng(7)
    for i in range(600):
        n, k = int(rng.integers(1, 20)), int(rng.integers(1, 6))
        a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(n, k))
        if i % 3 == 0:  # ties at the row maximum
            a = np.round(a, 1)
            a[:, rng.integers(k)] = a.max(axis=1)
        if i % 5 == 0:  # a row with no mass at all
            a[rng.integers(n)] = -np.inf
        if i % 7 == 0:
            a[rng.integers(n), rng.integers(k)] = -np.inf
        for axis in (0, 1):
            for keepdims in (False, True):
                got = _logsumexp(a, axis=axis, keepdims=keepdims)
                want = logsumexp(a, axis=axis, keepdims=keepdims)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
