"""One test per acceptance criterion, with oracles re-derived inline.

Each test carries a ``criterion`` marker; the conftest hook prints a
PASS/FAIL/SKIP line per criterion at the end of the run. Criterion 9 needs a
user-supplied reference dataset and is skipped unless both
``CYCLESCREEN_CH17_MEASUREMENTS`` and ``CYCLESCREEN_CH17_LABELS`` point at
the exported measurement and label files.
"""

import math
import os
import time

import numpy as np
import pytest

from cyclescreen import dist_detect, ml_detect
from cyclescreen.cli import main
from cyclescreen.dataset import ingest_cycles, read_labels
from cyclescreen.errors import ThresholdRangeError
from cyclescreen.evaluation import ConfusionCounts, metrics
from cyclescreen.features import build_feature_matrix
from cyclescreen.ml_detect import (
    ML_MODELS,
    Mlp,
    make_config,
    mirror_dims,
    normalize_scores,
    predict_outliers,
)
from cyclescreen.stat_detect import GAUSSIAN_MAD_FACTOR, detect_stat
from cyclescreen.synth import AnomalySpec, generate_cell, write_dataset
from cyclescreen.tune import (
    RealDomain,
    SearchSpace,
    TrialRecord,
    compromise_solution,
    optimize_proxy,
    optimize_transfer,
    pareto_front,
    tpe_propose,
)
from cyclescreen.util import derive_seed, median, quartiles

from oracles import distance, gradient_check, median_iqr_transform


def quantile_type7(sorted_vals: np.ndarray, p: float) -> float:
    # linear interpolation between order statistics at rank (n-1)*p
    n = sorted_vals.size
    h = (n - 1) * p
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    return float(sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo]))


@pytest.mark.criterion(1, "median/IQR shift matches an independent oracle on 1000 series")
def test_criterion_01_robust_shift_oracle():
    start = time.perf_counter()
    example = median_iqr_transform([1.0, 2.0, 3.0, 4.0, 5.0])
    assert example.offset == 4.5
    np.testing.assert_array_equal(
        example.values, np.array([1.0, 2.0, 3.0, 4.0, 5.0]) - 4.5
    )
    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        n = int(rng.integers(5, 80))
        data = rng.normal(rng.uniform(-10, 10), rng.uniform(0.05, 5.0), size=n)
        got = median_iqr_transform(data)
        srt = np.sort(data)
        med = quantile_type7(srt, 0.5)
        iqr = quantile_type7(srt, 0.75) - quantile_type7(srt, 0.25)
        np.testing.assert_allclose(
            got.values, data - med * med / iqr, rtol=0, atol=1e-12
        )
        assert abs(got.median - med) <= 1e-12
        assert abs(got.iqr - iqr) <= 1e-12
        # the statistics build_feature_matrix scales by, to the bit
        q1, q3 = quartiles(data)
        assert np.float64(median(data)).tobytes() == np.float64(got.median).tobytes()
        assert np.float64(q3 - q1).tobytes() == np.float64(got.iqr).tobytes()
    assert time.perf_counter() - start < 1.0


def stat_flag_oracle(x: np.ndarray) -> dict[str, set[int]]:
    # longhand re-derivation of all five decision rules
    mean = float(np.mean(x))
    sd = float(np.std(x, ddof=1))
    med = float(np.median(x))
    mad = float(np.median(np.abs(x - med))) * GAUSSIAN_MAD_FACTOR
    srt = np.sort(x)
    q1 = quantile_type7(srt, 0.25)
    q3 = quantile_type7(srt, 0.75)
    iqr = q3 - q1
    out: dict[str, set[int]] = {k: set() for k in
                                ("sd", "mad", "iqr", "zscore", "mod_zscore")}
    for i, v in enumerate(x):
        if v < mean - 3 * sd or v > mean + 3 * sd:
            out["sd"].add(i)
        if abs((v - mean) / sd) > 3:
            out["zscore"].add(i)
        if v < med - 3 * mad or v > med + 3 * mad:
            out["mad"].add(i)
        if abs((v - med) / mad) > 3.5:
            out["mod_zscore"].add(i)
        if v < q1 - 1.5 * iqr or v > q3 + 1.5 * iqr:
            out["iqr"].add(i)
    return out


@pytest.mark.criterion(2, "five univariate rules match brute-force oracles")
def test_criterion_02_stat_battery():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(500):
        n = int(rng.integers(5, 40))
        kind = trial % 3
        if kind == 0:
            x = rng.normal(0.0, rng.uniform(0.2, 3.0), size=n)
        elif kind == 1:
            x = rng.uniform(-5.0, 5.0, size=n)
        else:
            x = rng.standard_t(2, size=n) * rng.uniform(0.5, 3.0)
        want = stat_flag_oracle(x)
        got = {
            m: detect_stat(x, m).flagged_indices()
            for m in ("sd", "mad", "iqr", "zscore", "mod_zscore")
        }
        assert got == want
        assert got["sd"] == got["zscore"]
    sigma = 2.5
    draws = np.random.default_rng(99).normal(3.7, sigma, size=100_000)
    med = float(np.median(draws))
    est = float(np.median(np.abs(draws - med))) * 1.4826
    assert abs(est - sigma) / sigma < 0.03
    assert time.perf_counter() - start < 10.0


@pytest.mark.criterion(3, "embedded score quartet: both rules flag only the two majors")
def test_criterion_03_embedded_scores():
    # 337 unit-scale Gaussian bulk values plus four appended scores; the two
    # large ones must be the complete flag set, the two borderline ones must
    # survive, for both the sigma rule and the robust rule
    rng = np.random.default_rng(2)
    bulk = rng.normal(2.5, 1.0, size=337)
    x = np.concatenate([bulk, [12.09, 10.42, 3.06, 2.78]])
    majors = {337, 338}
    minors = {339, 340}
    for method in ("sd", "mad"):
        flagged = detect_stat(x, method).flagged_indices()
        assert flagged == majors, method
        assert flagged & minors == set()


@pytest.mark.criterion(4, "distance metrics: axioms, closed forms, threshold monotonicity")
def test_criterion_04_distance_metrics():
    rng = np.random.default_rng(44)
    euclid = dist_detect.MetricSpec(kind="euclidean")
    specs = (
        euclid,
        dist_detect.MetricSpec(kind="manhattan"),
        dist_detect.MetricSpec(kind="minkowski", p=3.0),
    )
    for _ in range(50):
        a, b, c = rng.normal(size=(3, 4))
        for spec in specs:
            dab = distance(a, b, spec)
            assert dab >= 0.0
            assert distance(a, a, spec) == 0.0
            assert abs(dab - distance(b, a, spec)) <= 1e-12
            assert dab <= (
                distance(a, c, spec)
                + distance(c, b, spec)
                + 1e-12
            )
    # unit hypercube diagonal closed form
    for n in (1, 2, 5, 17):
        for p in (0.5, 1.0, 2.0, 3.5):
            spec = dist_detect.MetricSpec(kind="minkowski", p=p)
            got = distance(np.zeros(n), np.ones(n), spec)
            assert abs(got - n ** (1.0 / p)) <= 1e-12
    # whitening with the identity changes nothing
    maha = dist_detect.MetricSpec(kind="mahalanobis", covariance=np.eye(4))
    for _ in range(100):
        a, b = rng.normal(size=(2, 4))
        assert abs(
            distance(a, b, maha) - distance(a, b, euclid)
        ) <= 1e-12
    # a wider band can only drop flags
    for _ in range(50):
        X = rng.normal(size=(30, 2))
        f1 = dist_detect.centroid_detect(X, euclid, mad_threshold=1.0)
        f3 = dist_detect.centroid_detect(X, euclid, mad_threshold=3.0)
        assert f3.flagged_indices() <= f1.flagged_indices()
    # constructed scenario: exactly 4 flags at threshold 1, exactly 2 at 3
    ring = []
    for r in (0.8, 0.9, 1.1, 1.2):
        ring += [[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]]
    X = np.asarray(ring + [[1.7, 0.0], [-1.7, 0.0], [0.0, 5.0], [0.0, -5.0]])
    tight = dist_detect.centroid_detect(X, euclid, mad_threshold=1.0)
    wide = dist_detect.centroid_detect(X, euclid, mad_threshold=3.0)
    assert tight.flagged_indices() == {16, 17, 18, 19}
    assert wide.flagged_indices() == {18, 19}


def lof_reference(X: np.ndarray, k: int) -> np.ndarray:
    # textbook construction over exact-k neighborhoods (tie-free data)
    n = X.shape[0]
    dmat = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(dmat, np.inf)
    neigh = np.argsort(dmat, axis=1, kind="stable")[:, :k]
    kdist = dmat[np.arange(n), neigh[:, -1]]
    lrd = np.empty(n)
    for i in range(n):
        reach = np.maximum(kdist[neigh[i]], dmat[i, neigh[i]])
        lrd[i] = 1.0 / reach.mean()
    out = np.empty(n)
    for i in range(n):
        out[i] = lrd[neigh[i]].mean() / lrd[i]
    return out


def pca_residual_reference(X: np.ndarray, k: int) -> np.ndarray:
    mu = X.mean(axis=0)
    centered = X - mu
    cov = np.cov(centered, rowvar=False, ddof=1)
    _w, V = np.linalg.eigh(cov)
    comps = V[:, ::-1][:, :k]
    recon = (centered @ comps) @ comps.T
    return ((centered - recon) ** 2).sum(axis=1)


@pytest.mark.criterion(5, "learned detectors: oracle agreement and argmax property")
def test_criterion_05_learned_detectors():
    start = time.perf_counter()

    # neighborhood density ratio against the textbook construction
    for trial in range(50):
        local = np.random.default_rng(1000 + trial)
        X = local.normal(size=(20, 2))
        k = int(local.integers(2, 6))
        fitted = ml_detect.fit(make_config("lof", {"n_neighbors": k}), X)
        np.testing.assert_allclose(
            ml_detect.score(fitted, X), lof_reference(X, k), atol=1e-9
        )

    # neighbor distances against the all-pairs matrix, exact
    rng = np.random.default_rng(55)
    for method in ("largest", "mean", "median"):
        X = rng.normal(size=(25, 3))
        k = int(rng.integers(1, 6))
        fitted = ml_detect.fit(
            make_config("knn", {"n_neighbors": k, "method": method}), X
        )
        got = ml_detect.score(fitted, X)
        dmat = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        expect = np.empty(25)
        for i in range(25):
            row = np.sort(np.delete(dmat[i], i))[:k]
            expect[i] = {
                "largest": row[-1],
                "mean": row.mean(),
                "median": float(np.median(row)),
            }[method]
        np.testing.assert_array_equal(got, expect)

    # subspace residuals against an eigendecomposition of the covariance
    for trial in range(10):
        local = np.random.default_rng(2000 + trial)
        X = local.normal(size=(30, 4)) @ local.normal(size=(4, 4))
        k = int(local.integers(1, 4))
        fitted = ml_detect.fit(make_config("pca", {"n_components": k}), X)
        np.testing.assert_allclose(
            ml_detect.score(fitted, X), pca_residual_reference(X, k), atol=1e-9
        )

    # mixture training may never degrade its own objective; the covariance
    # floor applied every maximization step perturbs the exact optimum by
    # its own magnitude, hence the 1e-6 slack
    for run in range(100):
        local = np.random.default_rng(run)
        X = np.vstack(
            [local.normal(0, 1, (30, 2)), local.normal(5, 0.5, (20, 2))]
        )
        cov_type = ("full", "tied", "diag", "spherical")[run % 4]
        fitted = ml_detect.fit(
            make_config(
                "gmm", {"n_components": 2, "covariance_type": cov_type},
                seed=run,
            ),
            X,
        )
        trace = np.asarray(fitted.state.ll_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) >= -1e-6), (run, cov_type)

    # analytic gradients against central differences
    grng = np.random.default_rng(3)
    worst = 0.0
    for activation in ("tanh", "sigmoid", "relu"):
        mlp = Mlp(mirror_dims(4, (3, 2)), activation, grng)
        X = grng.uniform(-1.0, 1.0, size=(12, 4))
        worst = max(worst, gradient_check(mlp, X, step=1e-5))
    assert worst < 1e-4

    # a gross orthogonal deviation must be every model's top score
    argmax_params = {
        "pca": {"n_components": 1},
        "lof": {"n_neighbors": 5},
        "autoencoder": {"epoch_num": 80, "learning_rate": 0.05},
    }
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
            config = make_config(model, argmax_params.get(model), seed=seed)
            s = ml_detect.score(ml_detect.fit(config, X), X)
            assert int(np.argmax(s)) == target, (model, seed)

    assert time.perf_counter() - start < 120.0


@pytest.mark.criterion(6, "probability layer: rank preservation and the 0.7 threshold")
def test_criterion_06_probability_layer():
    rng = np.random.default_rng(66)
    for _ in range(200):
        n = int(rng.integers(3, 120))
        raw = rng.normal(0.0, rng.uniform(0.5, 20.0), size=n)
        probs = normalize_scores(raw)
        assert probs.min() == 0.0 and probs.max() == 1.0
        np.testing.assert_array_equal(
            np.argsort(probs, kind="stable"), np.argsort(raw, kind="stable")
        )
    probs = np.array([0.0, 0.69999, 0.7, 0.70001, 1.0])
    assert predict_outliers(probs, 0.7).tolist() == [
        False, False, False, True, True,
    ]
    assert predict_outliers(probs, 0.0).tolist() == [
        False, True, True, True, True,
    ]
    assert predict_outliers(probs, 1.0).tolist() == [False] * 5
    with pytest.raises(ThresholdRangeError):
        predict_outliers(probs, 1.2)
    with pytest.raises(ThresholdRangeError):
        predict_outliers(probs, -0.1)


@pytest.mark.criterion(7, "tuning: convergence, exact front, compromise, proxy recovery")
def test_criterion_07_tuning():
    start = time.perf_counter()

    # quadratic bowl over one real dimension, best-of-50 within +/-0.5
    space = SearchSpace("knn", {"minkowski_p": RealDomain(0.001, 10.0)})
    hits = 0
    for seed in range(20):
        history = []
        for tid in range(50):
            params = tpe_propose(
                history, space, derive_seed(seed, "t", tid), ("min", "min")
            )
            x = params["minkowski_p"]
            history.append(
                TrialRecord(
                    tid, make_config("knn", params),
                    ((x - 2.0) ** 2, 0.0), "loss_inliers",
                )
            )
        best = min(history, key=lambda t: t.objectives[0])
        hits += abs(best.config.params["minkowski_p"] - 2.0) <= 0.5
    assert hits >= 18

    # non-dominated subset equals the quadratic-time oracle
    rng = np.random.default_rng(77)
    all_directions = (("max", "max"), ("min", "min"), ("min", "max"), ("max", "min"))
    for trial in range(200):
        n = int(rng.integers(1, 30))
        objs = rng.integers(0, 6, size=(n, 2)).astype(float)
        directions = all_directions[trial % 4]
        trials = [
            TrialRecord(i, make_config("pca", {}), (float(a), float(b)), "x")
            for i, (a, b) in enumerate(objs)
        ]
        oriented = [
            tuple(o if d == "max" else -o for o, d in zip(t.objectives, directions))
            for t in trials
        ]
        brute = set()
        for i in range(n):
            dominated = any(
                j != i
                and oriented[j][0] >= oriented[i][0]
                and oriented[j][1] >= oriented[i][1]
                and oriented[j] != oriented[i]
                for j in range(n)
            )
            if not dominated:
                brute.add(i)
        got = {t.trial_id for t in pareto_front(trials, directions)}
        assert got == brute

    # frequency example: the pair seen three times wins and its three
    # configs aggregate
    trials = [
        TrialRecord(0, make_config("knn", {"n_neighbors": 3}), (2.0, 9.0), "x"),
        TrialRecord(1, make_config("knn", {"n_neighbors": 1}), (1.0, 5.0), "x"),
        TrialRecord(2, make_config("knn", {"n_neighbors": 5}), (2.0, 9.0), "x"),
        TrialRecord(3, make_config("knn", {"n_neighbors": 10}), (2.0, 9.0), "x"),
    ]
    assert compromise_solution(trials).params["n_neighbors"] == 6

    # label-free pipeline recovers three planted cycles
    recovered = 0
    for seed in range(10):
        records, truth = generate_cell(
            80, samples_per_cycle=32,
            anomalies=(AnomalySpec("point", (12, 40, 70), 0.4),),
            seed=seed, cell_id="P",
        )
        matrix, _notes = build_feature_matrix(records, "custom")
        X = np.column_stack([matrix.column("dv_max"), matrix.column("dq_max")])
        result = optimize_proxy(
            matrix.cycle_index, X, "knn", n_trials=20, seed=seed
        )
        fitted = ml_detect.fit(result.compromise, X)
        probs = normalize_scores(ml_detect.score(fitted, X))
        flagged = {
            int(c)
            for c, f in zip(matrix.cycle_index, predict_outliers(probs, 0.7))
            if f
        }
        recovered += truth <= flagged
    assert recovered >= 9

    assert time.perf_counter() - start < 120.0


def metric_formula_oracle(tp, tn, fp, fn):
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    prec = tp / (tp + fp) if tp > 0 else 0.0
    rec = tp / (tp + fn) if tp > 0 else 0.0
    f1 = (2 * tp) / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / denom if denom > 0 else 0.0
    return acc, prec, rec, f1, mcc


@pytest.mark.criterion(8, "metrics: exhaustive oracle agreement and swap invariance")
def test_criterion_08_metrics():
    m = metrics(ConfusionCounts(tp=2, tn=337, fp=0, fn=2))
    assert round(m.mcc, 4) == 0.7050
    for total in range(1, 13):
        for tp in range(total + 1):
            for tn in range(total - tp + 1):
                for fp in range(total - tp - tn + 1):
                    fn = total - tp - tn - fp
                    m = metrics(ConfusionCounts(tp, tn, fp, fn))
                    got = (m.accuracy, m.precision, m.recall, m.f1, m.mcc)
                    want = metric_formula_oracle(tp, tn, fp, fn)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    rng = np.random.default_rng(88)
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 30, size=4))
        if tp + tn + fp + fn == 0:
            continue
        straight = metrics(ConfusionCounts(tp, tn, fp, fn)).mcc
        swapped = metrics(ConfusionCounts(tn, tp, fn, fp)).mcc
        assert abs(abs(straight) - abs(swapped)) <= 1e-12


CH17_MEASUREMENTS = os.environ.get("CYCLESCREEN_CH17_MEASUREMENTS")
CH17_LABELS = os.environ.get("CYCLESCREEN_CH17_LABELS")


@pytest.mark.criterion(9, "reference cell: known flags, band edges, tuning ranking")
@pytest.mark.skipif(
    not (CH17_MEASUREMENTS and CH17_LABELS),
    reason="set CYCLESCREEN_CH17_MEASUREMENTS and CYCLESCREEN_CH17_LABELS",
)
def test_criterion_09_reference_cell():
    store = ingest_cycles(CH17_MEASUREMENTS)
    label_map = read_labels(CH17_LABELS)
    cell = store.cells()[0]
    records = store.by_cell(cell)
    matrix, _notes = build_feature_matrix(records, "severson")
    col = matrix.column("log_dvdq_max")
    cycles = matrix.cycle_index

    for method in ("sd", "mad", "iqr"):
        verdict = detect_stat(col, method)
        flagged = {int(cycles[i]) for i in verdict.flagged_indices()}
        assert {0, 40} <= flagged, method
        assert flagged & {147, 148} == set(), method

    iqr_limits = detect_stat(col, "iqr").limits
    assert iqr_limits.lower == pytest.approx(1.51, abs=0.05)
    assert iqr_limits.upper == pytest.approx(3.46, abs=0.05)

    X = np.column_stack(
        [matrix.column("log_dq_max"), matrix.column("log_dv_max")]
    )
    labels = np.asarray(
        [1 if int(c) in label_map.get(cell, set()) else 0 for c in cycles],
        dtype=int,
    )
    fractions = {}
    for model in ML_MODELS:
        result = optimize_transfer(
            {cell: (X, labels)}, model, n_trials=20, seed=0
        )
        fractions[model] = result.per_cell[cell].perfect_recall_fraction
    assert fractions["iforest"] == max(fractions.values()), fractions


@pytest.mark.criterion(10, "fixed-seed CLI pipeline writes byte-identical artifacts")
def test_criterion_10_pipeline_determinism(tmp_path):
    feature_args = ["--recipe", "custom", "--feature", "dv_max,dq_max"]

    def one_run(root):
        root.mkdir()
        meas = str(root / "meas.csv")
        labels = str(root / "labels.csv")
        cells = {
            "alpha": generate_cell(
                40, samples_per_cycle=32, seed=5, cell_id="alpha",
                anomalies=(AnomalySpec("point", (7, 21), 0.4),),
            ),
            "beta": generate_cell(
                40, samples_per_cycle=32, seed=6, cell_id="beta",
                anomalies=(AnomalySpec("collective", (15,), 0.3),),
            ),
        }
        write_dataset(cells, meas, labels)
        out = str(root / "out")
        assert main(["ingest", "--input", meas, "--out", out]) == 0
        assert main(
            ["features", "--input", meas, "--out", out, "--recipe", "custom"]
        ) == 0
        assert main(
            ["detect", "--input", meas, "--out", out, "--seed", "11",
             "--model", "all"] + feature_args
        ) == 0
        assert main(
            ["tune", "--input", meas, "--out", out, "--model", "knn",
             "--strategy", "proxy", "--trials", "5", "--seed", "11"]
            + feature_args
        ) == 0
        assert main(
            ["evaluate", "--input", out, "--labels", labels, "--out", out]
        ) == 0
        assert main(
            ["scoremap", "--input", meas, "--out", out, "--model", "euclidean",
             "--resolution", "16"] + feature_args
        ) == 0
        tree = {}
        for dirpath, _dirnames, filenames in os.walk(out):
            for name in filenames:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    tree[os.path.relpath(path, out)] = handle.read()
        return tree

    first = one_run(tmp_path / "a")
    second = one_run(tmp_path / "b")
    assert set(first) == set(second)
    assert first == second
