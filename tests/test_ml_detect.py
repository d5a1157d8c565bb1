import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclescreen import dist_detect, ml_detect, stat_detect
from cyclescreen.cli import ALL_MODELS, DIST_MODELS, STAT_MODELS
from cyclescreen.dist_detect import MetricSpec, metric_from_params, pairwise
from cyclescreen.errors import (
    ConfigError,
    DegenerateDataError,
    InputError,
    ThresholdRangeError,
)
from cyclescreen.features import build_feature_matrix, mahalanobis_feature
from cyclescreen.ml_detect import (
    ML_MODELS,
    PARAM_SPECS,
    fit,
    make_config,
    normalize_scores,
    predict_outliers,
    predict_top_fraction,
    score,
)
from cyclescreen.ml_detect import knn, lof
from cyclescreen.ml_detect.iforest import average_path_length
from cyclescreen.ml_detect.params import CatDomain
from cyclescreen.synth import generate_cell
from cyclescreen.tune import optimize_proxy

from oracles import neighbor_distances


def fit_score(model, X, params=None, seed=0):
    config = make_config(model, params, seed=seed)
    fitted = fit(config, X)
    return score(fitted, X)


# --- config registry ------------------------------------------------------


def test_registry_covers_six_models():
    assert set(ML_MODELS) == {
        "iforest",
        "knn",
        "gmm",
        "lof",
        "pca",
        "autoencoder",
    }


def test_autoencoder_names_are_importable_from_ml_detect():
    # the autoencoder's module loads on first use, by these names too
    from cyclescreen.ml_detect import Mlp, mirror_dims
    from cyclescreen.ml_detect import autoencoder

    assert (Mlp, mirror_dims) == (autoencoder.Mlp, autoencoder.mirror_dims)
    with pytest.raises(AttributeError, match="has no attribute 'fit_knn'"):
        ml_detect.fit_knn
    # the finite-difference check is a test oracle, not a package name
    with pytest.raises(AttributeError, match="has no attribute 'gradient_check'"):
        ml_detect.gradient_check


def test_make_config_defaults_and_overrides():
    config = make_config("knn")
    assert config.params["n_neighbors"] == 5
    assert config.params["method"] == "largest"
    override = make_config("knn", {"n_neighbors": 9})
    assert override.params["n_neighbors"] == 9
    # None means "use the default"
    assert make_config("pca", {"n_components": None}).params["n_components"] is None


def test_make_config_rejects_unknown():
    with pytest.raises(ConfigError):
        make_config("svm")
    with pytest.raises(ConfigError):
        make_config("knn", {"bogus": 1})
    with pytest.raises(ConfigError):
        make_config("knn", {"n_neighbors": 0})
    with pytest.raises(ConfigError):
        make_config("knn", {"method": "furthest"})
    with pytest.raises(ConfigError):
        make_config("iforest", {"contamination": 0.9})


@pytest.mark.parametrize(
    "model, name", [(m, n) for m, spec in PARAM_SPECS.items() for n in spec]
)
def test_registry_defaults_and_search_ranges_fit_hard_ranges(model, name):
    param = PARAM_SPECS[model][name]
    if param.default is not None:  # pca's None resolves at fit time
        assert param.hard.validate(name, param.default) == param.default
    # every search point must pass make_config, so TPE cannot propose an
    # invalid config; checking the ends covers numeric ranges
    if isinstance(param.search, CatDomain):
        points = param.search.choices
    elif param.search is not None:
        points = (param.search.low, param.search.high)
    else:
        points = ()
    for value in points:
        assert param.hard.validate(name, value) == value


@pytest.mark.parametrize(
    "model, params, message",
    [
        ("iforest", {"max_samples": 0.0}, "max_samples=0.0 outside (0.0, 1.0]"),
        ("iforest", {"contamination": 0.9}, "contamination=0.9 outside [0.0, 0.5]"),
        ("autoencoder", {"dropout_rate": math.nan}, "dropout_rate must not be NaN"),
        ("gmm", {"contamination": "x"}, "contamination must be a number, got 'x'"),
        ("knn", {"n_neighbors": True}, "n_neighbors must be an integer, got True"),
        ("knn", {"n_neighbors": 2.5}, "n_neighbors must be an integer, got 2.5"),
        ("knn", {"n_neighbors": math.nan}, "n_neighbors must be an integer, got nan"),
        ("knn", {"n_neighbors": math.inf}, "n_neighbors must be an integer, got inf"),
        ("knn", {"n_neighbors": 0}, "n_neighbors=0 outside [1, 100000]"),
        (
            "knn",
            {"method": "mode"},
            "method='mode' not in ['largest', 'mean', 'median']",
        ),
        (
            "autoencoder",
            {"hidden_neuron_list": []},
            "hidden_neuron_list must be a non-empty sequence of positive ints, "
            "got []",
        ),
        ("knn", {"bogus": 1}, "knn: unknown params ['bogus']"),
    ],
)
def test_make_config_error_messages(model, params, message):
    with pytest.raises(ConfigError) as err:
        make_config(model, params)
    assert str(err.value) == message


def test_make_config_accepts_numpy_scalars():
    # values read from an array validate like Python numbers and are stored
    # as Python numbers, so JSON configs keep their bytes
    got = make_config("knn", {"n_neighbors": np.int64(3), "minkowski_p": np.float32(1.5)})
    want = make_config("knn", {"n_neighbors": 3, "minkowski_p": 1.5})
    assert got.params == want.params
    assert type(got.params["n_neighbors"]) is int
    assert type(got.params["minkowski_p"]) is float
    assert json.dumps(got.params) == json.dumps(want.params)
    assert make_config("knn", {"n_neighbors": np.float32(4.0)}).params["n_neighbors"] == 4
    for bad in (np.bool_(True), np.float32(2.5), np.float64("nan")):
        with pytest.raises(ConfigError, match="n_neighbors must be an integer"):
            make_config("knn", {"n_neighbors": bad})
    with pytest.raises(ConfigError, match="minkowski_p must be a number"):
        make_config("knn", {"minkowski_p": np.bool_(True)})


# --- isolation forest -----------------------------------------------------


def test_average_path_length_anchors():
    assert average_path_length(1) == 0.0
    assert average_path_length(2) == 1.0
    gamma = 0.5772156649015329
    n = 256
    expect = 2.0 * (math.log(n - 1) + gamma) - 2.0 * (n - 1) / n
    assert average_path_length(n) == pytest.approx(expect, abs=1e-12)


def test_iforest_scores_in_unit_interval(rng):
    X = rng.normal(size=(60, 2))
    s = fit_score("iforest", X, {"n_estimators": 50})
    assert np.all(s > 0.0)
    assert np.all(s < 1.0)


def test_iforest_isolates_planted_extreme(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        X = local.normal(size=(50, 3))
        X[17] = 12.0
        s = fit_score("iforest", X, seed=seed)
        assert int(np.argmax(s)) == 17


def test_iforest_deterministic_given_seed(rng):
    X = rng.normal(size=(40, 2))
    a = fit_score("iforest", X, seed=123)
    b = fit_score("iforest", X, seed=123)
    np.testing.assert_array_equal(a, b)
    c = fit_score("iforest", X, seed=124)
    assert not np.array_equal(a, c)


# A reference forest: the recursive, row-at-a-time textbook growth and walk,
# with trees as nested tuples. The array-backed forest must make the same
# random draws in the same order and give the same score bytes.


def _reference_grow(X, features, depth, limit, rng):
    n = X.shape[0]
    if n <= 1 or depth >= limit:
        return ("leaf", n)
    usable = [f for f in features if X[:, f].min() < X[:, f].max()]
    if not usable:
        return ("leaf", n)
    feat = int(usable[rng.integers(len(usable))])
    lo = X[:, feat].min()
    hi = X[:, feat].max()
    thr = float(rng.uniform(lo, hi))
    mask = X[:, feat] < thr
    if not mask.any() or mask.all():
        return ("leaf", n)
    return (
        "split",
        feat,
        thr,
        _reference_grow(X[mask], features, depth + 1, limit, rng),
        _reference_grow(X[~mask], features, depth + 1, limit, rng),
    )


def _reference_path_length(tree, x, depth=0):
    if tree[0] == "leaf":
        return depth + average_path_length(tree[1])
    _, feat, thr, left, right = tree
    if x[feat] < thr:
        return _reference_path_length(left, x, depth + 1)
    return _reference_path_length(right, x, depth + 1)


def reference_iforest(params, X, Q, seed):
    """(scores of Q, mean path lengths of Q, generator state after the fit)."""
    rng = np.random.default_rng(seed)
    n, d = X.shape
    psi = max(2, min(int(math.ceil(params["max_samples"] * n)), n))
    m = min(max(1, int(round(params["max_features"] * d))), d)
    limit = int(math.ceil(math.log2(psi)))
    trees = []
    for _ in range(params["n_estimators"]):
        rows = rng.choice(n, size=psi, replace=False)
        feats = np.sort(rng.choice(d, size=m, replace=False))
        trees.append(_reference_grow(X[rows], feats, 0, limit, rng))
    mean_paths = []
    for x in Q:
        total = 0.0
        for tree in trees:
            total += _reference_path_length(tree, x)
        mean_paths.append(total / len(trees))
    scores = [2.0 ** (-h / average_path_length(psi)) for h in mean_paths]
    return np.asarray(scores), np.asarray(mean_paths), rng.bit_generator.state


def _iforest_inputs(name):
    local = np.random.default_rng(77)
    if name == "gaussian":
        X = local.normal(size=(60, 3))
    elif name == "constant_column":
        X = local.normal(size=(60, 3))
        X[:, 1] = 2.5
    elif name == "duplicate_rows":
        X = np.round(local.normal(size=(60, 2)))
        X[10:40] = X[0]
    elif name == "one_dimensional":
        X = local.normal(size=60)
        X[3] = 9.0
    else:  # one 40-cycle cell's default multivariate features
        records, _ = generate_cell(40, samples_per_cycle=16, seed=5, cell_id="c40")
        matrix, _ = build_feature_matrix(records, "custom")
        X = np.column_stack([matrix.column("dv_max"), matrix.column("dq_max")])
    X2 = X.reshape(len(X), -1)
    Q = np.vstack([X2, local.normal(size=(20, X2.shape[1])) * 3.0])
    return X, Q.reshape(-1) if X.ndim == 1 else Q


@pytest.mark.parametrize(
    "data",
    [
        "gaussian",
        "constant_column",
        "duplicate_rows",
        "one_dimensional",
        "cell_40",
    ],
)
def test_iforest_matches_recursive_reference_bytes(data):
    X, Q = _iforest_inputs(data)
    X2, Q2 = X.reshape(len(X), -1), Q.reshape(len(Q), -1)
    d = X2.shape[1]
    # max_features 1/d gives one feature per tree; 1.0 gives all d
    for n_estimators in (1, 50, 150):
        for max_samples in (0.2, 1.0):
            for max_features in sorted({1.0 / d, 1.0}):
                params = {
                    "n_estimators": n_estimators,
                    "max_samples": max_samples,
                    "max_features": max_features,
                }
                seed = 11 * n_estimators + int(10 * max_samples)
                expect, mean_paths, state = reference_iforest(params, X2, Q2, seed)
                config = make_config("iforest", params, seed=seed)
                fitted = fit(config, X)
                got = score(fitted, Q)
                assert got.tobytes() == expect.tobytes(), params
                rng = np.random.default_rng(seed)
                ml_detect.iforest.fit_iforest(config.params, X2, rng)
                assert rng.bit_generator.state == state, params
    # the final power stays a Python float power per row: NumPy's SIMD
    # np.power / 2.0 ** ndarray can differ from the C library's pow in the
    # last bit (10,459 of 200,000 exponents on one AVX-512 host)
    exponent = -mean_paths / average_path_length(fitted.state.subsample_size)
    assert got.tobytes() == np.asarray([2.0 ** e for e in exponent.tolist()]).tobytes()


@pytest.mark.parametrize("target", [*ALL_MODELS, "score_grid"])
def test_non_finite_features_raise_named_error(target):
    # one NaN or infinity used to give NaN scores and no flags, flag rows
    # silently (iforest) or raise NumPy's LinAlgError (pca)
    clean = np.random.default_rng(3).normal(size=(40, 2))
    for value in (np.nan, np.inf, -np.inf):
        X = clean[:20].copy()
        X[7, 1] = value
        where = f"row 7, column {0 if target in STAT_MODELS else 1} is {value!r}"
        with pytest.raises(InputError, match=where):
            if target in STAT_MODELS:
                stat_detect.detect_stat(X[:, 1], target)
            elif target in DIST_MODELS:
                p = 3.0 if target == "minkowski" else None
                dist_detect.centroid_detect(X, MetricSpec(target, p=p))
            elif target == "score_grid":
                dist_detect.score_grid(X, MetricSpec("euclidean"), resolution=5)
            else:
                fit(make_config(target, seed=0), X)
        if target in ML_MODELS:
            fitted = fit(make_config(target, seed=0), clean)
            with pytest.raises(InputError, match=where):
                score(fitted, X)



@pytest.mark.parametrize(
    "target, message",
    [
        ("knn", "knn: the arithmetic overflows on finite input"),
        ("gmm", "gmm: the arithmetic overflows on finite input"),
        ("lof", "lof: the arithmetic overflows on finite input"),
        ("pca", "pca: the arithmetic overflows on finite input"),
        ("sd", "sd: the arithmetic overflows on finite input"),
        ("zscore", "zscore: the arithmetic overflows on finite input"),
        ("euclidean", "euclidean: the arithmetic overflows on finite input"),
    ],
)
def test_overflowing_detector_output_raises(target, message):
    # finite rows near 1e155 overflow a square: the non-finite scores, sd or
    # distances used to give a verdict that flags nothing
    X = np.random.default_rng(0).normal(size=(40, 2)) * 1e155
    X[5] *= 8
    with pytest.raises(DegenerateDataError, match=f"^{message}"):
        if target in STAT_MODELS:
            stat_detect.detect_stat(X[:, 0], target)
        elif target in DIST_MODELS:
            dist_detect.centroid_detect(X, MetricSpec(target))
        else:
            score(fit(make_config(target, seed=0), X), X)


def _entry_point_on(target, X):
    """The label a refusal of target on X carries, and a call giving the
    values target computes on X."""
    if target in STAT_MODELS:
        return target, lambda: stat_detect.detect_stat(X[:, 0], target).scores
    if target in DIST_MODELS:
        metric = MetricSpec(target, p=3.0 if target == "minkowski" else None)
        return target, lambda: dist_detect.centroid_detect(X, metric).distances
    if target in ML_MODELS:
        return target, lambda: fit_score(target, X)
    if target == "grid_nodes":
        # a span beyond the float range
        Y = [[-1e308, 0.0], [1e308, 1.0], [0.0, 2.0]]
        return "grid", lambda: dist_detect.grid_nodes(Y, 5)[2]
    if target == "pairwise":
        return "euclidean", lambda: pairwise(X, X, MetricSpec("euclidean"))
    if target == "mahalanobis_feature":
        return "mahalanobis_norm", lambda: mahalanobis_feature(X[:, 0], X[:, 1])
    t = np.arange(float(X.shape[0]))
    return "knn", lambda: [
        tr.objectives for tr in optimize_proxy(t, X, "knn", n_trials=3).trials
    ]


@pytest.mark.parametrize(
    "target",
    [*ALL_MODELS, "grid_nodes", "pairwise", "mahalanobis_feature", "optimize_proxy"],
)
def test_finite_rows_near_1e155_give_finite_values_or_a_named_refusal(target):
    # squares of these rows overflow; whether a method squares them is its
    # own business, but no NumPy warning may escape and no value may be inf
    X = np.random.default_rng(0).normal(size=(40, 2)) * 1e155
    label, run = _entry_point_on(target, X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = run()
        except DegenerateDataError as err:
            assert str(err).startswith(f"{label}: ")
        else:
            assert np.isfinite(np.asarray(values, dtype=float)).all()


def test_iforest_max_samples_fraction(rng):
    X = rng.normal(size=(100, 2))
    config = make_config("iforest", {"max_samples": 0.3})
    fitted = fit(config, X)
    # subsample size ceil(0.3 * 100) = 30 caps every tree's depth budget
    assert fitted.state.subsample_size == 30


# --- k nearest neighbors --------------------------------------------------


def test_knn_small_example_self_excluded():
    X = np.asarray([[0.0], [1.0], [10.0]])
    s = fit_score("knn", X, {"n_neighbors": 1, "method": "largest"})
    np.testing.assert_allclose(s, [1.0, 1.0, 9.0])


def test_knn_matches_all_pairs_oracle(rng):
    for method in ("largest", "mean", "median"):
        for _ in range(10):
            n, k = 25, int(rng.integers(1, 6))
            X = rng.normal(size=(n, 3))
            s = fit_score("knn", X, {"n_neighbors": k, "method": method})
            diffs = X[:, None, :] - X[None, :, :]
            dmat = np.sqrt((diffs**2).sum(-1))
            expect = np.empty(n)
            for i in range(n):
                row = np.sort(np.delete(dmat[i], i))[:k]
                expect[i] = {
                    "largest": row[-1],
                    "mean": row.mean(),
                    "median": np.median(row),
                }[method]
            np.testing.assert_allclose(s, expect, atol=1e-9)


def test_knn_k_must_leave_neighbors():
    X = np.zeros((4, 2)) + np.arange(4)[:, None]
    with pytest.raises(ConfigError, match="n_neighbors=4 needs at least 5 rows"):
        fit(make_config("knn", {"n_neighbors": 4}), X)


def test_knn_duplicate_rows_drop_single_self_match():
    # two identical rows: each sees the other at distance zero, and that
    # zero is a real neighbor, not the self match
    X = np.asarray([[0.0], [0.0], [5.0]])
    s = fit_score("knn", X, {"n_neighbors": 1})
    np.testing.assert_allclose(s, [0.0, 0.0, 5.0])


def test_knn_respects_metric_param(rng):
    X = rng.normal(size=(20, 2))
    s_euc = fit_score("knn", X, {"metric": "euclidean"})
    s_man = fit_score("knn", X, {"metric": "manhattan"})
    assert not np.allclose(s_euc, s_man)
    s_min = fit_score("knn", X, {"metric": "minkowski", "minkowski_p": 2.0})
    np.testing.assert_allclose(s_euc, s_min, atol=1e-12)


# --- local outlier factor -------------------------------------------------


def lof_oracle(X, k):
    """Textbook LOF with exact-k neighborhoods (tie-free data)."""
    n = X.shape[0]
    diffs = X[:, None, :] - X[None, :, :]
    dmat = np.sqrt((diffs**2).sum(-1))
    np.fill_diagonal(dmat, np.inf)
    neigh = np.argsort(dmat, axis=1)[:, :k]
    kdist = dmat[np.arange(n), neigh[:, -1]]
    lrd = np.empty(n)
    for i in range(n):
        reach = np.maximum(kdist[neigh[i]], dmat[i, neigh[i]])
        lrd[i] = 1.0 / reach.mean()
    out = np.empty(n)
    for i in range(n):
        out[i] = lrd[neigh[i]].mean() / lrd[i]
    return out


def test_lof_matches_brute_force_oracle(rng):
    for trial in range(50):
        local = np.random.default_rng(1000 + trial)
        X = local.normal(size=(20, 2))
        k = int(local.integers(2, 6))
        s = fit_score("lof", X, {"n_neighbors": k})
        np.testing.assert_allclose(s, lof_oracle(X, k), atol=1e-9)


def test_lof_uniform_data_near_one(rng):
    grid = np.stack(
        np.meshgrid(np.arange(8.0), np.arange(8.0)), -1
    ).reshape(-1, 2)
    jitter = rng.normal(0, 1e-3, size=grid.shape)
    s = fit_score("lof", grid + jitter, {"n_neighbors": 4})
    # grid boundaries thin out neighborhoods a little, hence the slack
    assert np.all(np.abs(s - 1.0) < 0.25)


def test_lof_flags_density_outlier(rng):
    X = np.vstack([rng.normal(0, 0.5, size=(40, 2)), [[6.0, 6.0]]])
    s = fit_score("lof", X, {"n_neighbors": 5})
    assert int(np.argmax(s)) == 40
    assert s[40] > 1.5


def test_lof_many_identical_rows_degenerate():
    X = np.vstack([np.zeros((5, 2)), np.ones((2, 2))])
    with pytest.raises(DegenerateDataError, match="identical rows; densities diverge"):
        fit(make_config("lof", {"n_neighbors": 3}), X)


# The neighbour selection before partial sorts and blocks: a full sort per
# row with a per-row self-match drop (knn), and a per-row self-match clear
# then a full stable argsort (LOF). Both read the same distance matrix.


def reference_knn_distances(D, k):
    D = np.sort(D, axis=1)
    out = np.empty((D.shape[0], k))
    for i, row in enumerate(D):
        out[i] = row[1 : k + 1] if row[0] == 0.0 else row[:k]
    return out


def reference_lof(X, Q, k, metric):
    def knn_rows(D):
        order = np.argsort(D, axis=1, kind="stable")[:, :k]
        return order, np.take_along_axis(D, order, axis=1)

    D = pairwise(X, X, metric)
    np.fill_diagonal(D, np.inf)
    neigh, ndist = knn_rows(D)
    k_distance = ndist[:, -1]
    lrd = 1.0 / np.maximum(k_distance[neigh], ndist).mean(axis=1)
    D = pairwise(Q, X, metric)
    for i in range(D.shape[0]):
        zeros = np.nonzero(D[i] == 0.0)[0]
        if zeros.size:
            D[i, zeros[0]] = np.inf
    neigh, ndist = knn_rows(D)
    lrd_q = 1.0 / np.maximum(k_distance[neigh], ndist).mean(axis=1)
    return lrd[neigh].mean(axis=1) / lrd_q


def _lattice_rows():
    """(X, Q): 80 fitted points on a small integer lattice, with many equal
    distances and 20 exact duplicate pairs, and 120 queries, 80 of which
    hit fitted rows."""
    local = np.random.default_rng(9)
    lattice = np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0)), -1).reshape(-1, 2)
    picked = lattice[local.permutation(64)[:60]]
    X = local.permutation(np.vstack([picked, picked[:20]]))
    Q = np.vstack([X, local.integers(-1, 9, size=(40, 2)).astype(float)])
    return X, Q


@pytest.mark.parametrize(
    "metric", ["euclidean", "manhattan", "minkowski", "mahalanobis"]
)
def test_knn_and_lof_match_full_sort_references_on_ties(metric):
    X, Q = _lattice_rows()
    spec = metric_from_params({"metric": metric, "minkowski_p": 3.0}, X)
    for k in (2, 5, 9):
        params = {"n_neighbors": k, "metric": metric, "minkowski_p": 3.0}
        fitted = fit(make_config("knn", params), X)
        expect = reference_knn_distances(pairwise(Q, X, spec), k)
        got = neighbor_distances(fitted.state, Q)
        assert got.tobytes() == expect.tobytes()
        for method, reduce in (
            ("largest", lambda a: a[:, -1].copy()),
            ("mean", lambda a: a.mean(axis=1)),
            ("median", lambda a: np.median(a, axis=1)),
        ):
            config = make_config("knn", params | {"method": method})
            got = score(fit(config, X), Q)
            assert got.tobytes() == reduce(expect).tobytes()
        got = score(fit(make_config("lof", params), X), Q)
        assert got.tobytes() == reference_lof(X, Q, k, spec).tobytes()


def _cloud_rows():
    """(X, Q): 80 fitted rows of 9 features, and 120 column-major queries,
    80 of which hit fitted rows. Over 9 terms, NumPy sums a column-major
    one-row block in another order than a block of several."""
    local = np.random.default_rng(10)
    X = local.normal(size=(80, 9)) * local.uniform(0.1, 50.0, size=9)
    return X, np.asfortranarray(np.vstack([X, local.normal(size=(40, 9))]))


@pytest.mark.parametrize(
    "metric", ["euclidean", "manhattan", "minkowski", "mahalanobis"]
)
@pytest.mark.parametrize("rows_per_block", [1, 7, 79])
@pytest.mark.parametrize("rows", [_lattice_rows, _cloud_rows], ids=["lattice", "cloud"])
def test_blocked_neighbor_search_matches_full_matrix_references(
    monkeypatch, rows, rows_per_block, metric
):
    # 2-row blocks (the floor); 7-row blocks leave one lone query row of
    # 120; 79-row blocks leave one lone fitted row of 80 in the LOF fit.
    # A lone row joins the block before it, by query_blocks' lone-row rule.
    X, Q = rows()
    spec = metric_from_params({"metric": metric, "minkowski_p": 3.0}, X)
    params = {"n_neighbors": 5, "metric": metric, "minkowski_p": 3.0}
    # the references read the whole matrix, from one pairwise call
    expect = reference_knn_distances(pairwise(Q, X, spec), 5)
    expect_lof = reference_lof(X, Q, 5, spec)

    monkeypatch.setattr(dist_detect, "BLOCK_ELEMENTS", rows_per_block * X.size)
    shapes = []

    def recorded(A, B, metric):
        shapes.append(A.shape)
        return pairwise(A, B, metric)

    monkeypatch.setattr(knn, "pairwise", recorded)
    monkeypatch.setattr(lof, "pairwise", recorded)
    fitted = fit(make_config("knn", params), X)
    got = neighbor_distances(fitted.state, Q)
    assert got.tobytes() == expect.tobytes()
    # one 2-D pairwise call per block of the 120 queries
    assert shapes == [(size, X.shape[1]) for size in {
        1: [2] * 60, 7: [7] * 16 + [8], 79: [79, 41],
    }[rows_per_block]]
    for method, reduce in (
        ("largest", lambda a: a[:, -1].copy()),
        ("mean", lambda a: a.mean(axis=1)),
        ("median", lambda a: np.median(a, axis=1)),
    ):
        got = score(fit(make_config("knn", params | {"method": method}), X), Q)
        assert got.tobytes() == reduce(expect).tobytes()
    got = score(fit(make_config("lof", params), X), Q)
    assert got.tobytes() == expect_lof.tobytes()


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_lof_neighbor_selection_matches_stable_argsort(block):
    # distances from a 3-value lattice, so most rows tie across the k-th
    # place; an inf diagonal, inf runs, and one row with NaNs. nearest
    # reads the rows in blocks of `block` and drops each row's first zero.
    local = np.random.default_rng(11)
    for m, n in ((40, 40), (25, 60), (60, 9)):
        D = local.integers(0, 3, size=(m, n)).astype(float)
        D[local.random((m, n)) < 0.1] = np.inf
        if m == n:
            np.fill_diagonal(D, np.inf)
        D[3, ::2] = np.nan
        dropped = D.copy()
        for row in dropped:
            zeros = np.nonzero(row == 0.0)[0]
            row[zeros[:1]] = np.inf
        for k in sorted({1, 2, 5, n - 1, n}):
            order, dists = dist_detect.k_nearest(D, k)
            expect = np.argsort(D, axis=1, kind="stable")[:, :k]
            assert np.array_equal(order, expect)
            assert dists.tobytes() == np.take_along_axis(D, expect, axis=1).tobytes()
            blocks = (D[i:i + block].copy() for i in range(0, m, block))
            order, dists = dist_detect.nearest(blocks, k)
            expect = np.argsort(dropped, axis=1, kind="stable")[:, :k]
            assert np.array_equal(order, expect)
            assert dists.tobytes() == np.take_along_axis(dropped, expect, axis=1).tobytes()


def test_neighbor_scoring_memory_is_not_an_n_m_d_tensor():
    n, m, d = 3000, 500, 2
    local = np.random.default_rng(4)
    X = local.normal(size=(m, d))
    Q = local.normal(size=(n, d))
    for model in ("knn", "lof"):
        fitted = fit(make_config(model), X)
        tracemalloc.start()
        try:
            score(fitted, Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (n, m) distances plus blocks; building the (n, m, d)
        # difference tensor at once peaked at 2.5 * n * m * d * 8 bytes
        assert peak < 0.7 * n * m * d * 8, (model, peak)


def test_neighbor_search_holds_no_queries_by_fitted_rows_matrix():
    # fit on n rows, and score n queries against m fitted rows: neither
    # holds a quarter of the (n, n) or (n, m) float64 distance matrix
    n, m, d = 3000, 500, 2
    local = np.random.default_rng(5)
    big = local.normal(size=(n, d))
    small = local.normal(size=(m, d))
    Q = local.normal(size=(n, d))
    for model in ("knn", "lof"):
        tracemalloc.start()
        try:
            fit(make_config(model), big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4, (model, "fit", peak)
        fitted = fit(make_config(model), small)
        tracemalloc.start()
        try:
            score(fitted, Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8 / 4, (model, "score", peak)


@pytest.mark.parametrize("model, params", [
    ("knn", {"method": "largest"}),
    ("knn", {"method": "mean"}),
    ("knn", {"method": "median"}),
    ("lof", {}),
], ids=["knn-largest", "knn-mean", "knn-median", "lof"])
def test_neighbor_scoring_holds_no_queries_by_k_array(model, params):
    # each query block is reduced to its scores before the next block's
    # distances: scoring m queries holds less than one (m, k) float64
    # array, where keeping every block's k nearest held four
    m, n, d, k = 20_000, 200, 2, 20
    local = np.random.default_rng(6)
    X, Q = local.normal(size=(n, d)), local.normal(size=(m, d))
    fitted = fit(make_config(model, params | {"n_neighbors": k}), X)
    tracemalloc.start()
    try:
        score(fitted, Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * k * 8, peak


# --- principal components -------------------------------------------------


def test_pca_residual_zero_inside_subspace(rng):
    basis = rng.normal(size=(2, 4))
    coeffs = rng.normal(size=(30, 2))
    X = coeffs @ basis
    s = fit_score("pca", X, {"n_components": 2})
    np.testing.assert_allclose(s, np.zeros(30), atol=1e-18)


def test_pca_matches_eigendecomposition_oracle(rng):
    for trial in range(10):
        local = np.random.default_rng(2000 + trial)
        X = local.normal(size=(40, 5))
        k = int(local.integers(1, 5))
        s = fit_score("pca", X, {"n_components": k})
        mu = X.mean(axis=0)
        C = np.cov(X, rowvar=False, ddof=1)
        w, V = np.linalg.eigh(C)
        top = V[:, np.argsort(w)[::-1][:k]]
        centered = X - mu
        proj = centered @ top @ top.T
        expect = ((centered - proj) ** 2).sum(axis=1)
        np.testing.assert_allclose(s, expect, atol=1e-9)


def test_pca_default_components(rng):
    X = rng.normal(size=(20, 3))
    fitted = fit(make_config("pca"), X)
    assert fitted.state.components.shape == (2, 3)


def test_pca_component_bounds(rng):
    X = rng.normal(size=(20, 3))
    with pytest.raises(ConfigError, match="exceeds feature dimension 3"):
        fit(make_config("pca", {"n_components": 4}), X)
    thin = rng.normal(size=(2, 5))
    with pytest.raises(ConfigError, match=r"exceeds the rank bound min\(n=2, d=5\)"):
        fit(make_config("pca", {"n_components": 3}), thin)


# --- score normalization and flagging --------------------------------------


def test_normalize_minmax_basic():
    s = normalize_scores([2.0, 4.0, 6.0])
    np.testing.assert_allclose(s, [0.0, 0.5, 1.0])


def test_normalize_constant_scores_all_zero():
    np.testing.assert_array_equal(
        normalize_scores([3.0, 3.0, 3.0]), np.zeros(3)
    )


def test_normalize_frozen_reference_clips():
    probs = normalize_scores([-5.0, 0.0, 5.0, 20.0], reference=[0.0, 10.0])
    np.testing.assert_allclose(probs, [0.0, 0.0, 0.5, 1.0])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=30,
    )
)
def test_normalize_rank_preservation(xs):
    x = np.asarray(xs)
    p = normalize_scores(x)
    assert np.all(p >= 0.0)
    assert np.all(p <= 1.0)
    # weak monotonicity: order can collapse to ties but never invert
    assert np.all(np.diff(p[np.argsort(x, kind="stable")]) >= 0.0)


def test_predict_outliers_strict_threshold():
    probs = np.asarray([0.69, 0.7, 0.71])
    np.testing.assert_array_equal(
        predict_outliers(probs), [False, False, True]
    )
    np.testing.assert_array_equal(
        predict_outliers(probs, threshold=0.5), [True, True, True]
    )


def test_predict_outliers_threshold_range():
    with pytest.raises(ThresholdRangeError):
        predict_outliers(np.asarray([0.5]), threshold=1.5)
    with pytest.raises(ThresholdRangeError):
        predict_outliers(np.asarray([0.5]), threshold=-0.1)
    # endpoints allowed
    predict_outliers(np.asarray([0.5]), threshold=0.0)
    predict_outliers(np.asarray([0.5]), threshold=1.0)


def test_predict_top_fraction_stable_ties():
    scores = np.asarray([5.0, 5.0, 1.0, 5.0, 0.0])
    flags = predict_top_fraction(scores, 0.4)
    # ceil(0.4 * 5) = 2 picks; earliest of the tied 5.0s win
    np.testing.assert_array_equal(flags, [True, True, False, False, False])


def test_predict_top_fraction_bounds():
    with pytest.raises(Exception):
        predict_top_fraction(np.asarray([1.0, 2.0]), 0.6)
    np.testing.assert_array_equal(
        predict_top_fraction(np.asarray([1.0, 2.0]), 0.0), [False, False]
    )


# --- cross-model properties -------------------------------------------------


ARGMAX_PARAMS = {
    # keep only the dominant line direction so the residual sees the spike
    "pca": {"n_components": 1},
    # small neighborhoods; the default 20 spans half of this dataset
    "lof": {"n_neighbors": 5},
    "autoencoder": {"epoch_num": 80, "learning_rate": 0.05},
}


def test_injected_extreme_argmax_all_models():
    # bulk fills a line segment densely (uniform, no sparse tails); the
    # extreme leaves the line orthogonally, so distance, density, isolation,
    # residual and reconstruction notions all agree on the culprit
    for seed in range(20):
        local = np.random.default_rng(3000 + seed)
        X = np.column_stack(
            [
                local.uniform(-10, 10, size=40),
                local.normal(0, 0.1, size=40),
                local.normal(0, 0.1, size=40),
            ]
        )
        target = int(local.integers(0, 40))
        X[target] = [0.0, 8.0, 0.0]
        for model in ML_MODELS:
            s = fit_score(model, X, ARGMAX_PARAMS.get(model), seed=seed)
            assert int(np.argmax(s)) == target, (model, seed)


def test_fit_rejects_empty_and_mismatched(rng):
    with pytest.raises(InputError, match="feature matrix has no rows"):
        fit(make_config("knn"), np.empty((0, 2)))
    X = rng.normal(size=(20, 2))
    fitted = fit(make_config("knn"), X)
    with pytest.raises(InputError, match="scored rows have 3 features"):
        score(fitted, rng.normal(size=(5, 3)))


def test_one_dimensional_input_promoted(rng):
    x = rng.normal(size=30)
    x[7] = 40.0
    s = fit_score("knn", x)
    assert int(np.argmax(s)) == 7
