import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclescreen import dist_detect
from cyclescreen.dist_detect import (
    METRIC_KINDS,
    MetricSpec,
    centroid_detect,
    grid_nodes,
    pairwise,
    query_blocks,
    resolve_metric,
    score_grid,
)
from cyclescreen.errors import ConfigError, DegenerateDataError, InputError
from cyclescreen.features import mahalanobis_feature
from cyclescreen.util import normalize_scores

from oracles import distance

VEC = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=2,
    max_size=5,
)


# --- metric kernel --------------------------------------------------------


def test_minkowski_closed_form_power():
    # |1-0|^p summed over n axes then rooted: distance = n^(1/p)
    for n in (2, 3, 7):
        a = np.zeros(n)
        b = np.ones(n)
        for p in (0.5, 1.0, 2.0, 3.5):
            d = distance(a, b, MetricSpec("minkowski", p=p))
            assert d == pytest.approx(n ** (1.0 / p), abs=1e-12)


def test_euclidean_manhattan_against_manual():
    a = np.asarray([1.0, -2.0])
    b = np.asarray([4.0, 2.0])
    assert distance(a, b, MetricSpec("euclidean")) == pytest.approx(5.0)
    assert distance(a, b, MetricSpec("manhattan")) == pytest.approx(7.0)
    assert distance(a, b, MetricSpec("minkowski", p=2.0)) == pytest.approx(5.0)
    assert distance(a, b, MetricSpec("minkowski", p=1.0)) == pytest.approx(7.0)


def test_mahalanobis_identity_equals_euclidean(rng):
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(6, 3))
    spec = MetricSpec("mahalanobis", covariance=np.eye(3))
    np.testing.assert_allclose(
        pairwise(X, Y, spec),
        pairwise(X, Y, MetricSpec("euclidean")),
        atol=1e-12,
    )


def test_mahalanobis_whitening_oracle(rng):
    # distance in the original space equals euclidean after L^-1 whitening
    A = rng.normal(size=(3, 3))
    cov = A @ A.T + 3.0 * np.eye(3)
    L = np.linalg.cholesky(cov)
    X = rng.normal(size=(10, 3))
    Y = rng.normal(size=(4, 3))
    got = pairwise(X, Y, MetricSpec("mahalanobis", covariance=cov))
    Xw = np.linalg.solve(L, X.T).T
    Yw = np.linalg.solve(L, Y.T).T
    expect = pairwise(Xw, Yw, MetricSpec("euclidean"))
    np.testing.assert_allclose(got, expect, atol=1e-9)


def unblocked_pairwise(X, Y, metric):
    """The whole (n, m, d) difference tensor at once, in the plain formulas."""
    if metric.kind == "mahalanobis":
        chol = np.linalg.cholesky(metric.covariance)
        X = np.linalg.solve(chol, X.T).T
        Y = np.linalg.solve(chol, Y.T).T
    diff = X[:, None, :] - Y[None, :, :]
    if metric.kind in ("euclidean", "mahalanobis"):
        return np.sqrt(np.sum(diff**2, axis=-1))
    if metric.kind == "manhattan":
        return np.sum(np.abs(diff), axis=-1)
    return np.sum(np.abs(diff) ** metric.p, axis=-1) ** (1.0 / metric.p)


@pytest.mark.parametrize(
    "n, m, d, block_elements",
    [
        (1000, 150, 3, None),  # 145-row blocks, a ragged last one
        (70001, 1, 1, None),  # m = 1, as centroid distances call it
        (300, 40, 12, None),  # d >= 9: NumPy sums the d terms pairwise
        (129, 7, 9, 1),  # two-row blocks; the odd row joins the last
        (50, 1, 4, 1),
    ],
)
def test_pairwise_blocks_match_unblocked_bytes(n, m, d, block_elements, monkeypatch):
    # pairwise over the whole rows, and over the query blocks the neighbor
    # search cuts, each give the plain formulas' bytes
    if block_elements is not None:
        monkeypatch.setattr(dist_detect, "BLOCK_ELEMENTS", block_elements)
    local = np.random.default_rng(n + d)
    X = local.normal(size=(n, d)) * local.uniform(0.1, 50.0, size=d)
    Y = local.normal(size=(m, d))
    A = local.normal(size=(d, d))
    specs = [
        MetricSpec("euclidean"),
        MetricSpec("manhattan"),
        MetricSpec("minkowski", p=3.5),
        MetricSpec("minkowski", p=0.5),
        MetricSpec("mahalanobis", covariance=A @ A.T + d * np.eye(d)),
    ]
    # a column-major X changes the order in which NumPy sums the d terms
    for X in (X, np.asfortranarray(X)):
        for spec in specs:
            expect = unblocked_pairwise(X, Y, spec).tobytes()
            got = pairwise(X, Y, spec)
            assert got.shape == (n, m) and got.flags.c_contiguous
            assert got.tobytes() == expect, spec.kind
            blocks, fitted, metric = query_blocks(X, Y, spec)
            blocked = np.concatenate([pairwise(B, fitted, metric) for B in blocks])
            assert blocked.tobytes() == expect, spec.kind


@settings(max_examples=80, deadline=None)
@given(VEC, VEC)
def test_metric_axioms_symmetry_identity(a_list, b_list):
    n = min(len(a_list), len(b_list))
    a = np.asarray(a_list[:n])
    b = np.asarray(b_list[:n])
    for kind, p in (("euclidean", None), ("manhattan", None), ("minkowski", 3.0)):
        spec = MetricSpec(kind, p=p)
        assert distance(a, a, spec) == pytest.approx(0.0, abs=1e-9)
        assert distance(a, b, spec) == pytest.approx(
            distance(b, a, spec), rel=1e-12, abs=1e-12
        )
        assert distance(a, b, spec) >= 0.0


@settings(max_examples=60, deadline=None)
@given(VEC, VEC, VEC)
def test_triangle_inequality_for_p_at_least_one(a_list, b_list, c_list):
    n = min(len(a_list), len(b_list), len(c_list))
    a, b, c = (np.asarray(v[:n]) for v in (a_list, b_list, c_list))
    for kind, p in (("euclidean", None), ("manhattan", None), ("minkowski", 2.5)):
        spec = MetricSpec(kind, p=p)
        ab = distance(a, b, spec)
        bc = distance(b, c, spec)
        ac = distance(a, c, spec)
        assert ac <= ab + bc + 1e-9


def test_minkowski_requires_positive_p():
    with pytest.raises(ConfigError, match="minkowski exponent must be positive"):
        MetricSpec("minkowski", p=0.0)
    with pytest.raises(ConfigError, match="minkowski exponent must be positive"):
        MetricSpec("minkowski", p=-1.0)
    with pytest.raises(ConfigError, match="minkowski exponent must be positive"):
        MetricSpec("minkowski")


def test_unknown_metric_kind():
    with pytest.raises(Exception):
        MetricSpec("cosine")


def test_dimension_mismatch():
    with pytest.raises(InputError, match="operands differ in dimension"):
        pairwise(np.zeros((3, 2)), np.zeros((3, 3)), MetricSpec("euclidean"))


def test_resolve_metric_estimates_covariance(rng):
    X = rng.normal(size=(30, 2))
    resolved = resolve_metric(MetricSpec("mahalanobis"), X)
    np.testing.assert_allclose(
        resolved.covariance, np.cov(X, rowvar=False, ddof=1), atol=1e-12
    )
    # too few rows for a stable estimate
    with pytest.raises(DegenerateDataError, match="cannot support a 2-D covariance"):
        resolve_metric(MetricSpec("mahalanobis"), X[:2])


@pytest.mark.parametrize(
    "entry, name",
    [
        (lambda X: centroid_detect(X, MetricSpec("mahalanobis")), "mahalanobis"),
        (lambda X: resolve_metric(MetricSpec("mahalanobis"), X), "mahalanobis"),
        (lambda X: mahalanobis_feature(X[:, 0], X[:, 1]), "mahalanobis_norm"),
    ],
    ids=["centroid_detect", "resolve_metric", "mahalanobis_feature"],
)
def test_overflowed_covariance_is_named_an_overflow_not_singular(entry, name):
    # finite rows near 1e155: np.cov overflows, which used to be reported as
    # a singular covariance
    X = np.random.default_rng(0).normal(size=(40, 2)) * 1e155
    X[5] *= 8
    with pytest.raises(DegenerateDataError) as caught:
        entry(X)
    assert str(caught.value) == (
        f"{name}: the arithmetic overflows on finite input "
        "(overflow encountered in dot)"
    )


@pytest.mark.parametrize(
    "covariance", [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]]
)
def test_metric_spec_refuses_a_non_finite_covariance(covariance):
    with pytest.raises(InputError, match="^covariance must be finite$"):
        MetricSpec("mahalanobis", covariance=covariance)


def test_grid_nodes_names_a_constant_column_too_large_to_pad():
    # a pad of 0.5 is below the resolution of 1e20, so the box stays empty
    with pytest.raises(DegenerateDataError, match=(
        r"^grid column 0 is constant at 1e\+20, where a pad of 0.5 is below "
        "the value's resolution$"
    )):
        dist_detect.grid_nodes([[1e20, 0.0], [1e20, 1.0], [1e20, 2.0]])


# --- centroid detector ----------------------------------------------------


def test_centroid_is_componentwise_mean(rng):
    X = rng.normal(size=(25, 2))
    verdict = centroid_detect(X, MetricSpec("euclidean"))
    np.testing.assert_allclose(verdict.centroid, X.mean(axis=0), atol=1e-12)


def test_flags_are_one_sided(rng):
    # a point far from the centroid is flagged; close points never are,
    # even when closeness is itself unusual
    X = np.vstack([rng.normal(0, 1.0, size=(40, 2)), [[30.0, 30.0]]])
    verdict = centroid_detect(X, MetricSpec("euclidean"))
    assert 40 in verdict.flagged_indices()
    closest = int(np.argmin(verdict.distances))
    assert closest not in verdict.flagged_indices()


def test_flag_rule_reproducible_from_outputs(rng):
    from cyclescreen.stat_detect import GAUSSIAN_MAD_FACTOR, scaled_mad

    X = rng.normal(size=(30, 3))
    threshold = 2.5
    verdict = centroid_detect(X, MetricSpec("manhattan"), mad_threshold=threshold)
    med, smad = scaled_mad(verdict.distances, GAUSSIAN_MAD_FACTOR)
    expect = verdict.distances > med + threshold * smad
    np.testing.assert_array_equal(verdict.flags, expect)
    assert verdict.cutoff == pytest.approx(med + threshold * smad)


def test_normalized_distances_unit_range(rng):
    X = rng.normal(size=(15, 2))
    verdict = centroid_detect(X, MetricSpec("euclidean"))
    assert verdict.normalized.min() == 0.0
    assert verdict.normalized.max() == 1.0
    order_raw = np.argsort(verdict.distances)
    order_norm = np.argsort(verdict.normalized)
    np.testing.assert_array_equal(order_raw, order_norm)


def test_distance_scores_are_normalize_scores_of_the_distances(rng):
    X = rng.normal(size=(25, 2))
    verdict = centroid_detect(X, MetricSpec("mahalanobis"))
    np.testing.assert_array_equal(
        verdict.normalized, normalize_scores(verdict.distances)
    )
    # the trend feature's distances, whitened by the covariance's Cholesky
    # factor, as mahalanobis_feature computes them
    chol = np.linalg.cholesky(np.cov(X, rowvar=False, ddof=1))
    white = np.linalg.solve(chol, (X - X.mean(axis=0)).T).T
    dist = np.sqrt(np.sum(white**2, axis=1))
    np.testing.assert_array_equal(
        mahalanobis_feature(X[:, 0], X[:, 1]), normalize_scores(dist)
    )
    # and that is the span formula both used to spell out, bit for bit
    np.testing.assert_array_equal(
        normalize_scores(dist), (dist - dist.min()) / float(dist.max() - dist.min())
    )


def test_equal_trend_distances_give_zero_scores():
    # the corners of a square lie at one whitened distance from its centre
    feat = mahalanobis_feature([0, 0, 1, 1], [0.0, 1.0, 0.0, 1.0])
    np.testing.assert_array_equal(feat, np.zeros(4))


def test_mad_threshold_monotone(rng):
    for _ in range(20):
        X = rng.normal(size=(30, 2))
        X[:3] += 8.0
        flags = [
            centroid_detect(
                X, MetricSpec("euclidean"), mad_threshold=t
            ).flagged_indices()
            for t in (1.0, 2.0, 3.0)
        ]
        assert flags[2] <= flags[1] <= flags[0]


def test_mad_threshold_shrinks_four_to_two():
    # symmetric bulk ring (centroid exactly at the origin) with two mild and
    # two gross excursions; hand computation: median distance 1.1, scaled
    # MAD 0.2965, so cutoff is 1.397 at threshold 1 and 1.990 at threshold 3
    bulk = []
    for r in (0.8, 0.9, 1.1, 1.2):
        bulk += [[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]]
    mild = [[1.7, 0.0], [-1.7, 0.0]]
    gross = [[0.0, 5.0], [0.0, -5.0]]
    X = np.asarray(bulk + mild + gross)
    spec = MetricSpec("euclidean")
    loose = centroid_detect(X, spec, mad_threshold=1.0).flagged_indices()
    strict = centroid_detect(X, spec, mad_threshold=3.0).flagged_indices()
    assert loose == {16, 17, 18, 19}
    assert strict == {18, 19}


def test_degenerate_distances_raise():
    # four corners of a square are all equidistant from the centroid
    X = np.asarray([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DegenerateDataError, match="all centroid distances are equal"):
        centroid_detect(X, MetricSpec("euclidean"))


def test_centroid_needs_three_rows():
    for entry in (centroid_detect, score_grid):
        with pytest.raises(InputError) as err:
            entry(np.zeros((2, 2)), MetricSpec("euclidean"))
        assert str(err.value) == "need at least 3 rows for centroid distances, got 2"


def _outcome(entry, X):
    """The bytes entry(X) returns, or the class and message it raises."""
    try:
        return entry(X)
    except InputError as err:
        return type(err), str(err)


@pytest.mark.parametrize(
    "entry, refusal",
    [
        (lambda X: pairwise(X, X[:3], MetricSpec("minkowski", p=3.0)).tobytes(),
         None),
        (lambda X: resolve_metric(MetricSpec("mahalanobis"), X).covariance.tobytes(),
         None),
        (lambda X: centroid_detect(X, MetricSpec("euclidean")).distances.tobytes(),
         None),
        (lambda X: dist_detect.grid_nodes(X, 5)[2].tobytes(), None),
        (lambda X: score_grid(X, MetricSpec("euclidean"), 5).values.tobytes(),
         "score grids are 2-D maps; got 1 feature columns"),
    ],
    ids=["pairwise", "resolve_metric", "centroid_detect", "grid_nodes", "score_grid"],
)
def test_data_is_read_by_the_one_feature_matrix_rule(entry, refusal):
    # a 1-D array is one feature column: the result, or the refusal, of
    # its (n, 1) matrix to the bit
    x = np.random.default_rng(4).normal(size=6)
    column = _outcome(entry, x)
    assert column == _outcome(entry, x[:, None])
    if refusal is None:
        assert isinstance(column, bytes)
    else:
        assert column == (InputError, refusal)
    with pytest.raises(InputError) as err:
        entry(np.empty((0, 2)))
    assert str(err.value) == "feature matrix has no rows"
    x[5] = np.nan
    with pytest.raises(InputError) as err:
        entry(x)
    assert str(err.value) == (
        "feature row 5, column 0 is nan; detectors need finite values"
    )


# --- score grids ----------------------------------------------------------


def test_grid_shape_bounds_and_mapping(rng):
    X = rng.uniform(0, 10, size=(12, 2))
    grid = score_grid(X, MetricSpec("euclidean"), resolution=6)
    assert grid.values.shape == (6, 6)
    assert len(grid.axes[0]) == 6
    assert len(grid.axes[1]) == 6
    lo0, hi0 = grid.bounds[0]
    span0 = X[:, 0].max() - X[:, 0].min()
    assert lo0 == pytest.approx(X[:, 0].min() - 0.1 * span0)
    assert hi0 == pytest.approx(X[:, 0].max() + 0.1 * span0)
    # values[i, j] scores the point (axes[0][i], axes[1][j])
    centroid = X.mean(axis=0)
    i, j = 2, 4
    node = np.asarray([grid.axes[0][i], grid.axes[1][j]])
    raw = float(np.linalg.norm(node - centroid))
    expect = (raw - grid.data_min) / (grid.data_max - grid.data_min)
    assert grid.values[i, j] == pytest.approx(expect, abs=1e-12)
    # i != j, so a column-major mapping would fail the check above
    assert grid.values[j, i] != pytest.approx(expect, abs=1e-12)


def test_grid_normalization_reference_is_data(rng):
    X = rng.normal(size=(10, 2))
    grid = score_grid(X, MetricSpec("euclidean"), resolution=4)
    verdict = centroid_detect(X, MetricSpec("euclidean"))
    assert grid.data_min == pytest.approx(verdict.distances.min())
    assert grid.data_max == pytest.approx(verdict.distances.max())
    # off-data nodes may exceed 1: corners are beyond every data point
    assert grid.values.max() > 1.0


def test_grid_constant_axis_pad():
    X = np.asarray([[1.0, 0.0], [1.0, 2.0], [1.0, 5.0], [1.0, 7.0]])
    grid = score_grid(X, MetricSpec("manhattan"), resolution=3)
    assert grid.bounds[0] == (0.5, 1.5)


def test_grid_bad_resolution(rng):
    X = rng.normal(size=(8, 2))
    with pytest.raises(ConfigError, match="grid resolution must be at least 2"):
        score_grid(X, MetricSpec("euclidean"), resolution=1)


@pytest.mark.parametrize("resolution", [2.5, 3.0, True, "3", None])
def test_grid_resolution_must_be_an_integer(rng, resolution):
    X = rng.normal(size=(8, 2))
    message = f"grid resolution must be an integer, got {resolution!r}"
    for call in (
        lambda: grid_nodes(X, resolution),
        lambda: score_grid(X, MetricSpec("euclidean"), resolution=resolution),
    ):
        with pytest.raises(ConfigError) as err:
            call()
        assert str(err.value) == message


def test_grid_resolution_may_be_a_numpy_integer(rng):
    X = rng.normal(size=(8, 2))
    grid = score_grid(X, MetricSpec("euclidean"), resolution=np.int64(4))
    expect = score_grid(X, MetricSpec("euclidean"), resolution=4)
    assert grid.values.tobytes() == expect.values.tobytes()


def test_grid_requires_two_columns(rng):
    with pytest.raises(InputError, match="score grids are 2-D maps"):
        score_grid(rng.normal(size=(8, 3)), MetricSpec("euclidean"))


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_mad_threshold_must_be_finite(rng, threshold):
    X = rng.normal(size=(10, 2))
    with pytest.raises(ConfigError, match="mad_threshold must be finite"):
        centroid_detect(X, MetricSpec("euclidean"), mad_threshold=threshold)
