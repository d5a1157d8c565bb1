import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclescreen import ml_detect
from cyclescreen.errors import (
    ConfigError,
    DegenerateDataError,
    InputError,
    ThresholdRangeError,
)
from cyclescreen.ml_detect import DetectorConfig, make_config
from cyclescreen.tune import (
    CatDomain,
    CellTuning,
    IntDomain,
    RealDomain,
    SearchSpace,
    TrialRecord,
    aggregate_configs,
    compromise_solution,
    default_search_space,
    optimize_proxy,
    optimize_transfer,
    pareto_front,
    recall_precision,
    regression_proxy_objectives,
    tpe_propose,
    transfer_cell,
)
from cyclescreen.util import derive_seed


def record(trial_id, objectives, model="pca", params=None, kind="recall_precision"):
    return TrialRecord(
        trial_id=trial_id,
        config=make_config(model, params or {}),
        objectives=objectives,
        objective_kind=kind,
    )


# ---------------------------------------------------------------------------
# domains and search spaces


def test_domain_validation():
    with pytest.raises(ConfigError):
        RealDomain(2.0, 1.0)
    with pytest.raises(ConfigError):
        RealDomain(0.0, float("inf"))
    with pytest.raises(ConfigError):
        IntDomain(5, 3)
    with pytest.raises(ConfigError):
        CatDomain(())
    # choices are dictionary keys in TPE: layer lists must be tuples
    with pytest.raises(ConfigError):
        CatDomain(([4, 2], [8, 4]))


def test_search_space_rejects_unknown_names():
    with pytest.raises(ConfigError):
        SearchSpace("nosuch", {})
    with pytest.raises(ConfigError):
        SearchSpace("knn", {"bogus": IntDomain(1, 2)})


def test_search_space_rejects_ranges_outside_hard_ranges():
    # refused when built, not when a trial first samples the bad value
    with pytest.raises(ConfigError) as err:
        SearchSpace("knn", {"n_neighbors": IntDomain(0, 3)})
    assert str(err.value) == (
        "knn: search range of n_neighbors leaves its hard range: "
        "n_neighbors=0 outside [1, 100000]"
    )
    with pytest.raises(ConfigError, match="^iforest: search range of max_samples"):
        SearchSpace("iforest", {"max_samples": RealDomain(0.0, 1.0)})
    with pytest.raises(ConfigError, match="^knn: search range of metric"):
        SearchSpace("knn", {"metric": CatDomain(("euclidean", "cosine"))})
    with pytest.raises(ConfigError, match="^knn: search range of n_neighbors is real"):
        SearchSpace("knn", {"n_neighbors": RealDomain(1.0, 3.0)})
    # ranges reaching the hard ranges' own edges are fine
    SearchSpace(
        "knn",
        {"n_neighbors": IntDomain(1, 100000), "minkowski_p": RealDomain(0.001, 10.0)},
    )


def test_sample_stays_in_domain(rng):
    space = SearchSpace(
        "knn",
        {
            "n_neighbors": IntDomain(2, 7),
            "method": CatDomain(("largest", "mean")),
            "minkowski_p": RealDomain(1.0, 3.0),
        },
    )
    for _ in range(200):
        p = space.sample(rng)
        assert 2 <= p["n_neighbors"] <= 7
        assert isinstance(p["n_neighbors"], int)
        assert p["method"] in ("largest", "mean")
        assert 1.0 <= p["minkowski_p"] <= 3.0


def test_enumerate_finite_space():
    space = SearchSpace(
        "knn",
        {"n_neighbors": IntDomain(1, 3), "method": CatDomain(("largest", "mean"))},
    )
    pts = space.enumerate(10)
    assert len(pts) == 6
    assert {(p["n_neighbors"], p["method"]) for p in pts} == {
        (n, m) for n in (1, 2, 3) for m in ("largest", "mean")
    }


def test_enumerate_bails_on_continuous_or_large():
    assert SearchSpace("knn", {"minkowski_p": RealDomain(1.0, 2.0)}).enumerate(10) is None
    assert SearchSpace("knn", {"n_neighbors": IntDomain(1, 50)}).enumerate(10) is None
    assert SearchSpace("knn", {}).enumerate(10) == [{}]


def test_default_search_spaces_cover_all_models():
    for model in ("iforest", "knn", "gmm", "lof", "pca", "autoencoder"):
        space = default_search_space(model)
        assert space.model == model
        assert space.params
    with pytest.raises(ConfigError):
        default_search_space("dbscan")


METRICS = CatDomain(("euclidean", "manhattan", "minkowski"))
SEARCH_TABLE = {
    "iforest": {
        "n_estimators": IntDomain(50, 200),
        "max_samples": RealDomain(0.2, 1.0),
        "max_features": RealDomain(0.2, 1.0),
    },
    "knn": {
        "n_neighbors": IntDomain(1, 20),
        "method": CatDomain(("largest", "mean", "median")),
        "metric": METRICS,
        "minkowski_p": RealDomain(1.0, 4.0),
    },
    "gmm": {
        "n_components": IntDomain(1, 4),
        "covariance_type": CatDomain(("full", "tied", "diag", "spherical")),
        "init_params": CatDomain(("kmeans", "random")),
    },
    "lof": {
        "n_neighbors": IntDomain(2, 30),
        "metric": METRICS,
        "minkowski_p": RealDomain(1.0, 4.0),
    },
    "pca": {"n_components": IntDomain(1, 2)},
    "autoencoder": {
        "epoch_num": IntDomain(20, 100),
        "batch_size": IntDomain(8, 32),
        "dropout_rate": RealDomain(0.0, 0.3),
        "hidden_neuron_list": CatDomain(((4, 2), (8, 4), (8, 2), (16, 8))),
        "hidden_activation_name": CatDomain(("relu", "tanh", "sigmoid")),
        "optimizer_name": CatDomain(("sgd", "momentum", "adam")),
        "learning_rate": RealDomain(0.001, 0.05),
    },
}


@pytest.mark.parametrize("model", sorted(SEARCH_TABLE))
def test_default_search_space_pinned(model):
    # TPE draws dimensions in key order and choices by index, so the
    # order of both is part of every seeded tuning trajectory
    got = default_search_space(model).params
    assert list(got.items()) == list(SEARCH_TABLE[model].items())


@pytest.mark.parametrize("n_features, high", [(1, 1), (2, 2), (3, 3), (0, 1)])
def test_pca_search_follows_column_count(n_features, high):
    got = default_search_space("pca", n_features=n_features).params
    assert list(got.items()) == [("n_components", IntDomain(1, high))]


# ---------------------------------------------------------------------------
# Pareto front


def pareto_oracle(trials, directions):
    # quadratic-time reference: t is kept unless some other trial is at
    # least as good everywhere and strictly better somewhere
    def orient(obj):
        return tuple(o if d == "max" else -o for o, d in zip(obj, directions))

    kept = []
    for t in trials:
        a = orient(t.objectives)
        dominated = False
        for u in trials:
            if u is t:
                continue
            b = orient(u.objectives)
            if all(bi >= ai for ai, bi in zip(a, b)) and any(
                bi > ai for ai, bi in zip(a, b)
            ):
                dominated = True
                break
        if not dominated:
            kept.append(t)
    return kept


def test_pareto_simple():
    trials = [
        record(0, (1.0, 1.0)),
        record(1, (2.0, 0.5)),
        record(2, (0.5, 2.0)),
        record(3, (0.5, 0.5)),  # dominated by 0
    ]
    front = pareto_front(trials, ("max", "max"))
    assert [t.trial_id for t in front] == [0, 1, 2]


def test_pareto_duplicates_all_kept():
    trials = [record(0, (1.0, 2.0)), record(1, (1.0, 2.0)), record(2, (0.0, 0.0))]
    front = pareto_front(trials, ("max", "max"))
    assert [t.trial_id for t in front] == [0, 1]


def test_pareto_min_direction():
    trials = [record(0, (3.0, 10)), record(1, (1.0, 4)), record(2, (2.0, 8))]
    # minimize first, maximize second: nothing dominates anything
    front = pareto_front(trials, ("min", "max"))
    assert [t.trial_id for t in front] == [0, 1, 2]


def test_pareto_requires_two_directions():
    with pytest.raises(ConfigError):
        pareto_front([record(0, (1.0, 1.0))], ("max",))


def test_pareto_matches_oracle_on_random_sets(rng):
    for trial in range(200):
        n = int(rng.integers(1, 25))
        # integer-valued objectives to force plenty of ties
        objs = rng.integers(0, 5, size=(n, 2)).astype(float)
        directions = (
            ("max", "max"),
            ("min", "min"),
            ("min", "max"),
            ("max", "min"),
        )[trial % 4]
        trials = [record(i, (float(a), float(b))) for i, (a, b) in enumerate(objs)]
        got = {t.trial_id for t in pareto_front(trials, directions)}
        want = {t.trial_id for t in pareto_oracle(trials, directions)}
        assert got == want


# ---------------------------------------------------------------------------
# aggregation and compromise


def test_aggregate_averages_ints_with_round_half_up():
    configs = [
        make_config("knn", {"n_neighbors": n}, seed=7) for n in (3, 5, 10)
    ]
    merged = aggregate_configs(configs)
    assert merged.params["n_neighbors"] == 6
    assert merged.seed == 0
    configs = [make_config("knn", {"n_neighbors": n}) for n in (3, 4)]
    assert aggregate_configs(configs).params["n_neighbors"] == 4  # 3.5 rounds up


def test_aggregate_mode_with_lexicographic_tie():
    configs = [
        make_config("knn", {"method": "mean"}),
        make_config("knn", {"method": "largest"}),
    ]
    assert aggregate_configs(configs).params["method"] == "largest"
    configs = [
        make_config("knn", {"method": "mean"}),
        make_config("knn", {"method": "mean"}),
        make_config("knn", {"method": "largest"}),
    ]
    assert aggregate_configs(configs).params["method"] == "mean"


def test_aggregate_keeps_pca_components_unset_when_any_config_leaves_it():
    unset = make_config("pca", {})
    two = make_config("pca", {"n_components": 2})
    assert unset.params["n_components"] is None
    assert aggregate_configs([unset, unset]).params["n_components"] is None
    assert aggregate_configs([two, unset, two]).params["n_components"] is None
    assert aggregate_configs([two, two]).params["n_components"] == 2


def test_aggregate_real_params_average():
    configs = [
        make_config("iforest", {"contamination": c}) for c in (0.1, 0.3)
    ]
    assert aggregate_configs(configs).params["contamination"] == pytest.approx(0.2)
    # equal values come back exactly, not as a mean an ulp away
    same = [make_config("iforest", {"contamination": 0.1})] * 3
    assert aggregate_configs(same).params["contamination"] == 0.1


def test_aggregate_layer_lists_take_mode():
    configs = [
        make_config("autoencoder", {"hidden_neuron_list": (4, 2)}),
        make_config("autoencoder", {"hidden_neuron_list": (8, 4)}),
        make_config("autoencoder", {"hidden_neuron_list": (4, 2)}),
    ]
    assert aggregate_configs(configs).params["hidden_neuron_list"] == (4, 2)


def test_aggregate_validates_external_configs():
    cfg = make_config("autoencoder")
    lists = [
        DetectorConfig("autoencoder", cfg.params | {"hidden_neuron_list": [8, 4]})
        for _ in range(2)
    ]
    assert aggregate_configs(lists).params["hidden_neuron_list"] == (8, 4)
    bad = DetectorConfig("autoencoder", cfg.params | {"batch_size": 0})
    with pytest.raises(ConfigError):
        aggregate_configs([bad])


def test_aggregate_rejects_empty_and_mixed_models():
    with pytest.raises(ConfigError, match="no configs to aggregate"):
        aggregate_configs([])
    with pytest.raises(ConfigError, match="cannot aggregate across models"):
        aggregate_configs([make_config("knn", {}), make_config("pca", {})])


def test_compromise_picks_most_recurrent_pair():
    trials = [
        record(0, (2.0, 9.0), model="knn", params={"n_neighbors": 3}),
        record(1, (1.0, 5.0), model="knn", params={"n_neighbors": 1}),
        record(2, (2.0, 9.0), model="knn", params={"n_neighbors": 5}),
        record(3, (2.0, 9.0), model="knn", params={"n_neighbors": 10}),
    ]
    merged = compromise_solution(trials)
    assert merged.params["n_neighbors"] == 6  # mean of 3, 5, 10


def test_compromise_frequency_tie_goes_to_earliest_trial():
    trials = [
        record(0, (1.0, 1.0), model="knn", params={"n_neighbors": 3}),
        record(1, (2.0, 2.0), model="knn", params={"n_neighbors": 7}),
        record(2, (2.0, 2.0), model="knn", params={"n_neighbors": 9}),
        record(3, (1.0, 1.0), model="knn", params={"n_neighbors": 5}),
    ]
    merged = compromise_solution(trials)
    assert merged.params["n_neighbors"] == 4  # (1,1) group holds trial 0


def test_compromise_requires_trials():
    with pytest.raises(ConfigError, match="no trials to form a compromise"):
        compromise_solution([])


# ---------------------------------------------------------------------------
# proposal engine


def history_of(space, n, seed=0):
    rng = np.random.default_rng(seed)
    hist = []
    for i in range(n):
        params = space.sample(rng)
        hist.append(
            TrialRecord(i, make_config(space.model, params), (float(i), 0.0), "loss_inliers")
        )
    return hist


def test_propose_respects_domains():
    space = SearchSpace(
        "knn",
        {
            "n_neighbors": IntDomain(2, 9),
            "method": CatDomain(("largest", "median")),
            "minkowski_p": RealDomain(1.0, 3.0),
        },
    )
    hist = history_of(space, 12)
    for seed in range(30):
        p = tpe_propose(hist, space, seed, ("min", "min"))
        assert 2 <= p["n_neighbors"] <= 9 and isinstance(p["n_neighbors"], int)
        assert p["method"] in ("largest", "median")
        assert 1.0 <= p["minkowski_p"] <= 3.0


def test_propose_deterministic_for_seed():
    space = SearchSpace("knn", {"minkowski_p": RealDomain(1.0, 3.0)})
    hist = history_of(space, 8)
    a = tpe_propose(hist, space, 42, ("min", "min"))
    b = tpe_propose(hist, space, 42, ("min", "min"))
    assert a == b
    c = tpe_propose(hist, space, 43, ("min", "min"))
    assert isinstance(c["minkowski_p"], float)


def test_propose_uniform_before_startup():
    space = SearchSpace("knn", {"n_neighbors": IntDomain(1, 100)})
    seen = {
        tpe_propose([], space, s, ("min", "min"))["n_neighbors"] for s in range(20)
    }
    assert len(seen) > 5  # genuinely spread, not stuck on one value


def test_propose_concentrates_near_optimum():
    # quadratic loss over one real dimension: the best trial across a
    # fifty-step run must land within +/-0.5 of the true minimum
    space = SearchSpace("knn", {"minkowski_p": RealDomain(0.001, 10.0)})
    hits = 0
    for seed in range(5):
        hist = []
        for tid in range(50):
            params = tpe_propose(
                hist, space, derive_seed(seed, "t", tid), ("min", "min")
            )
            x = params["minkowski_p"]
            hist.append(
                TrialRecord(
                    tid,
                    make_config("knn", params),
                    ((x - 2.0) ** 2, 0.0),
                    "loss_inliers",
                )
            )
        best = min(hist, key=lambda t: t.objectives[0])
        hits += abs(best.config.params["minkowski_p"] - 2.0) <= 0.5
    assert hits >= 4


def test_propose_handles_infinite_objectives():
    space = SearchSpace("knn", {"minkowski_p": RealDomain(1.0, 3.0)})
    hist = history_of(space, 8)
    hist[3] = TrialRecord(3, hist[3].config, (float("inf"), 0), "loss_inliers")
    p = tpe_propose(hist, space, 0, ("min", "max"))
    assert 1.0 <= p["minkowski_p"] <= 3.0


# ---------------------------------------------------------------------------
# objectives


def test_recall_precision_basics():
    flags = np.array([1, 1, 0, 0], dtype=bool)
    labels = np.array([1, 0, 1, 0])
    assert recall_precision(flags, labels) == (0.5, 0.5)
    none = np.zeros(4, dtype=bool)
    assert recall_precision(none, labels) == (0.0, 0.0)


def test_regression_proxy_zero_loss_on_exact_quadratic():
    t = np.arange(30, dtype=float)
    X = np.column_stack([3.0 - 0.01 * t + 0.001 * t**2, 1.0 + 0.02 * t])
    loss, count = regression_proxy_objectives(t, X, np.zeros(30, dtype=bool))
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert count == 30


def test_regression_proxy_flagging_outlier_lowers_loss():
    t = np.arange(30, dtype=float)
    X = np.column_stack([3.0 - 0.01 * t, 1.0 + 0.02 * t])
    X[11, 0] += 5.0
    flags = np.zeros(30, dtype=bool)
    loss_all, _ = regression_proxy_objectives(t, X, flags)
    flags[11] = True
    loss_clean, count = regression_proxy_objectives(t, X, flags)
    assert loss_clean < loss_all
    assert count == 29


def test_regression_proxy_requires_three_inliers():
    t = np.arange(10, dtype=float)
    X = np.ones((10, 2))
    flags = np.ones(10, dtype=bool)
    flags[:2] = False
    assert regression_proxy_objectives(t, X, flags) == (float("inf"), 2)


def test_regression_proxy_length_mismatch():
    message = r"cycle_index has shape \(5,\), but features have 4 rows"
    with pytest.raises(InputError, match=message):
        regression_proxy_objectives(np.arange(5.0), np.ones((4, 2)), np.zeros(4, bool))


# ---------------------------------------------------------------------------
# strategies


@pytest.fixture
def labeled_cell(rng):
    X = rng.normal(0.0, 0.3, size=(24, 2))
    X[20] = [8.0, 8.0]
    labels = np.zeros(24, dtype=int)
    labels[20] = 1
    return X, labels


def test_transfer_finds_gross_outlier(labeled_cell):
    space = SearchSpace("knn", {"n_neighbors": IntDomain(1, 3)})
    result = optimize_transfer({"CELL": labeled_cell}, "knn", space=space, seed=0)
    ct = result.per_cell["CELL"]
    assert len(ct.trials) == 3  # finite space enumerated outright
    assert ct.best.objectives[0] == 1.0
    assert ct.perfect_recall_fraction == 1.0
    assert result.aggregated.model == "knn"
    assert result.aggregated.seed == 0


def test_transfer_aggregates_across_cells(rng, labeled_cell):
    X2 = rng.normal(0.0, 0.2, size=(18, 2))
    X2[4] = [-7.0, 7.0]
    labels2 = np.zeros(18, dtype=int)
    labels2[4] = 1
    space = SearchSpace("knn", {"n_neighbors": IntDomain(1, 4)})
    result = optimize_transfer(
        {"A": labeled_cell, "B": (X2, labels2)}, "knn", space=space, seed=1
    )
    assert set(result.per_cell) == {"A", "B"}
    lo = min(ct.best.config.params["n_neighbors"] for ct in result.per_cell.values())
    hi = max(ct.best.config.params["n_neighbors"] for ct in result.per_cell.values())
    assert lo <= result.aggregated.params["n_neighbors"] <= hi


def test_transfer_rejects_unlabeled_and_empty():
    X = np.zeros((10, 2))
    with pytest.raises(InputError, match="cell C has no positive cycles"):
        optimize_transfer({"C": (X, np.zeros(10, dtype=int))}, "knn")
    with pytest.raises(InputError, match="needs at least one labeled cell"):
        optimize_transfer({}, "knn")


def test_transfer_deterministic(labeled_cell):
    space = SearchSpace("knn", {"minkowski_p": RealDomain(1.0, 4.0)})
    runs = [
        optimize_transfer({"CELL": labeled_cell}, "knn", space=space, n_trials=8, seed=3)
        for _ in range(2)
    ]
    for a, b in zip(runs[0].per_cell["CELL"].trials, runs[1].per_cell["CELL"].trials):
        assert a.config.params == b.config.params
        assert a.objectives == b.objectives
    assert runs[0].aggregated.params == runs[1].aggregated.params


@pytest.fixture
def no_fit(monkeypatch):
    """ml_detect.fit refuses to run: a test using this shows that no trial
    ran."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(ml_detect, "fit", refuse)


@pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan"), float("inf")])
def test_threshold_outside_unit_interval_raises_before_any_trial(
    no_fit, labeled_cell, threshold
):
    X, labels = labeled_cell
    space = default_search_space("knn")
    with pytest.raises(ThresholdRangeError, match="threshold must lie in"):
        optimize_proxy(np.arange(24.0), X, "knn", threshold=threshold)
    with pytest.raises(ThresholdRangeError, match="threshold must lie in"):
        optimize_transfer({"CELL": labeled_cell}, "knn", threshold=threshold)
    with pytest.raises(ThresholdRangeError, match="threshold must lie in"):
        transfer_cell("CELL", X, labels, "knn", space, 5, 0, threshold)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_feature_raises_before_any_trial(no_fit, labeled_cell, value):
    X, labels = labeled_cell
    X[7, 1] = value
    space = default_search_space("knn")
    message = f"feature row 7, column 1 is {value!r}; detectors need finite values"
    with pytest.raises(InputError) as err:
        optimize_proxy(np.arange(24.0), X, "knn")
    assert str(err.value) == message
    with pytest.raises(InputError) as err:
        transfer_cell("CELL", X, labels, "knn", space, 5, 0, 0.7)
    assert str(err.value) == message


def test_per_row_vector_of_another_length_raises_before_any_trial(no_fit, labeled_cell):
    X, labels = labeled_cell
    space = default_search_space("knn")
    message = r"cycle_index has shape \(25,\), but features have 24 rows"
    with pytest.raises(InputError, match=message):
        optimize_proxy(np.arange(25.0), X, "knn")
    message = r"labels has shape \(23,\), but features have 24 rows"
    with pytest.raises(InputError, match=message):
        transfer_cell("CELL", X, labels[:23], "knn", space, 5, 0, 0.7)


@pytest.mark.parametrize("n_trials", [0, -1, 2.5, True])
def test_trial_budget_not_an_integer_of_at_least_1_raises_before_any_trial(
    no_fit, labeled_cell, n_trials
):
    X, labels = labeled_cell
    message = f"n_trials must be an integer of at least 1, got {n_trials!r}"
    # pca's space is enumerated, knn's is proposed by TPE
    for model in ("knn", "pca"):
        space = default_search_space(model)
        with pytest.raises(ConfigError) as err:
            transfer_cell("CELL", X, labels, model, space, n_trials, 0, 0.7)
        assert str(err.value) == message
        with pytest.raises(ConfigError) as err:
            optimize_transfer({"CELL": labeled_cell}, model, n_trials=n_trials)
        assert str(err.value) == message
        with pytest.raises(ConfigError) as err:
            optimize_proxy(np.arange(24.0), X, model, n_trials=n_trials)
        assert str(err.value) == message


def test_trial_budget_may_be_a_numpy_integer(labeled_cell):
    X, _ = labeled_cell
    # pca's space is enumerated, knn's is proposed by TPE
    for model in ("knn", "pca"):
        numpy_budget = optimize_proxy(np.arange(24.0), X, model, n_trials=np.int64(5))
        int_budget = optimize_proxy(np.arange(24.0), X, model, n_trials=5)
        assert [(tr.config, tr.objectives) for tr in numpy_budget.trials] == [
            (tr.config, tr.objectives) for tr in int_budget.trials
        ]


@pytest.mark.parametrize("n_trials", [np.bool_(True), np.float64(5.0), np.int64(0)])
def test_trial_budget_refuses_numpy_bools_floats_and_zero(no_fit, labeled_cell, n_trials):
    X, _ = labeled_cell
    message = f"n_trials must be an integer of at least 1, got {n_trials!r}"
    with pytest.raises(ConfigError) as err:
        optimize_proxy(np.arange(24.0), X, "knn", n_trials=n_trials)
    assert str(err.value) == message


def test_proxy_on_a_1d_column_matches_that_column_as_a_matrix(rng):
    t = np.arange(30, dtype=float)
    x = 1.0 + 0.01 * t + rng.normal(0, 0.01, 30)
    x[9] += 0.5
    column = optimize_proxy(t, x, "knn", n_trials=8, seed=2)
    matrix = optimize_proxy(t, x[:, None], "knn", n_trials=8, seed=2)
    assert [(tr.config, tr.objectives) for tr in column.trials] == [
        (tr.config, tr.objectives) for tr in matrix.trials
    ]
    assert all(np.isfinite(tr.objectives[0]) for tr in column.trials)


def _twelve_rows():
    X = np.random.default_rng(0).normal(size=(12, 2))
    labels = np.zeros(12, dtype=int)
    labels[3] = 1
    return np.arange(12.0), X, labels


def test_a_failed_trial_records_its_strategy_sentinel():
    t, X, labels = _twelve_rows()
    # knn needs fewer neighbours than rows: n_neighbors 12 and 13 fail to fit
    space = SearchSpace("knn", {"n_neighbors": IntDomain(10, 13)})
    transfer = optimize_transfer({"C": (X, labels)}, "knn", space=space)
    assert [tr.objectives for tr in transfer.per_cell["C"].trials][2:] == [(0.0, 0.0)] * 2
    proxy = optimize_proxy(t, X, "knn", space=space)
    assert [tr.objectives for tr in proxy.trials][2:] == [(float("inf"), 0)] * 2


@pytest.mark.parametrize(
    "strategy, low, high, threshold, trials",
    [
        # every n_neighbors exceeds the rows: each trial fails to fit
        ("transfer", 15, 20, 0.7, 6),
        ("proxy", 15, 20, 0.7, 6),
        # a zero threshold flags every row scored above the lowest, which is
        # one row in this draw for each n_neighbors: too few for a trend
        ("proxy", 2, 4, 0.0, 3),
    ],
)
def test_tuning_with_no_usable_trial_raises(strategy, low, high, threshold, trials):
    t, X, labels = _twelve_rows()
    space = SearchSpace("knn", {"n_neighbors": IntDomain(low, high)})
    # the message names the first trial that raised, if one did
    reason = {15: "; trial 0: n_neighbors=15 needs at least 16 rows, got 12"}.get(low, "")
    message = f"^knn: none of {trials} trials gave a usable objective{reason}$"
    with pytest.raises(DegenerateDataError, match=message):
        if strategy == "transfer":
            optimize_transfer({"C": (X, labels)}, "knn", space=space,
                              threshold=threshold)
        else:
            optimize_proxy(t, X, "knn", space=space, threshold=threshold)


def test_transfer_trials_that_flag_nothing_are_usable():
    # a threshold of 1 flags no row, so every trial scores (0, 0) without
    # failing: a real outcome, not the failure sentinel it equals
    t, X, labels = _twelve_rows()
    space = SearchSpace("knn", {"n_neighbors": IntDomain(2, 4)})
    result = optimize_transfer({"C": (X, labels)}, "knn", space=space, threshold=1.0)
    assert [tr.objectives for tr in result.per_cell["C"].trials] == [(0.0, 0.0)] * 3


def test_perfect_recall_fraction_counts_trials():
    trials = [
        record(0, (1.0, 0.5)),
        record(1, (0.5, 1.0)),
        record(2, (1.0, 1.0)),
        record(3, (0.0, 0.0)),
    ]
    ct = CellTuning(cell_id="X", trials=trials, front=trials[:1], best=trials[0])
    assert ct.perfect_recall_fraction == 0.5


def test_proxy_runs_and_aggregates(rng):
    t = np.arange(40, dtype=float)
    X = np.column_stack(
        [3.0 - 0.005 * t + rng.normal(0, 0.01, 40), 1.0 + 0.01 * t + rng.normal(0, 0.01, 40)]
    )
    X[7] += [1.5, -1.5]
    X[31] += [-1.5, 1.5]
    space = SearchSpace("knn", {"n_neighbors": IntDomain(2, 5)})
    result = optimize_proxy(t, X, "knn", space=space, seed=0)
    assert len(result.trials) == 4
    assert all(tr.objective_kind == "loss_inliers" for tr in result.trials)
    assert result.front
    assert {f.trial_id for f in result.front} <= {t.trial_id for t in result.trials}
    assert result.compromise.model == "knn"
    # every trial should have kept most rows as inliers
    assert all(tr.objectives[1] >= 30 for tr in result.trials)


def test_proxy_deterministic(rng):
    t = np.arange(30, dtype=float)
    X = np.column_stack([np.linspace(3, 2.5, 30), np.linspace(1, 1.4, 30)])
    X += rng.normal(0, 0.005, X.shape)
    space = SearchSpace("iforest", {"contamination": RealDomain(0.05, 0.3)})
    a = optimize_proxy(t, X, "iforest", space=space, n_trials=6, seed=5)
    b = optimize_proxy(t, X, "iforest", space=space, n_trials=6, seed=5)
    for ta, tb in zip(a.trials, b.trials):
        assert ta.config.params == tb.config.params
        assert ta.objectives == tb.objectives
    assert a.compromise.params == b.compromise.params


@settings(max_examples=30, deadline=None)
@given(
    objs=st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_pareto_front_is_subset_and_nonempty(objs):
    trials = [record(i, (float(a), float(b))) for i, (a, b) in enumerate(objs)]
    front = pareto_front(trials, ("max", "min"))
    ids = {t.trial_id for t in trials}
    assert front
    assert {t.trial_id for t in front} <= ids
    # no front member dominates another front member
    for a in front:
        for b in front:
            if a is b:
                continue
            better_0 = a.objectives[0] > b.objectives[0]
            better_1 = a.objectives[1] < b.objectives[1]
            worse_0 = a.objectives[0] < b.objectives[0]
            worse_1 = a.objectives[1] > b.objectives[1]
            assert not ((better_0 or better_1) and not (worse_0 or worse_1))
