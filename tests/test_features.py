import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclescreen.cli import main
from cyclescreen.dataset import CycleStore, export_cycles
from cyclescreen.errors import (
    ConfigError,
    CycleScreenError,
    DegenerateDataError,
    EmptyFeatureError,
    InputError,
)
from cyclescreen.features import (
    RECIPE_DEFAULTS,
    RECIPES,
    FeatureMatrix,
    build_feature_matrix,
    log_feature,
    mahalanobis_feature,
)

from conftest import make_cycle
from oracles import extract_cycle_features, median_iqr_transform, transform_cell


def quantile_linear(xs, q):
    """Independent type-7 quantile: sort, h = (n-1)q, linear interpolation."""
    s = sorted(float(x) for x in xs)
    h = (len(s) - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def offset_oracle(xs):
    med = statistics.median(xs)
    iqr = quantile_linear(xs, 0.75) - quantile_linear(xs, 0.25)
    return med * med / iqr


# --- shift transform ------------------------------------------------------


def test_shift_small_example_exact():
    res = median_iqr_transform([1, 2, 3, 4, 5])
    assert res.offset == 4.5
    assert res.values.tolist() == [-3.5, -2.5, -1.5, -0.5, 0.5]
    assert res.median == 3.0
    assert res.iqr == 2.0


def test_shift_matches_oracle_on_random_series(rng):
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        xs = rng.normal(loc=rng.normal(0, 5), scale=rng.uniform(0.1, 4), size=n)
        if quantile_linear(xs, 0.75) - quantile_linear(xs, 0.25) == 0:
            continue
        res = median_iqr_transform(xs)
        expect = xs - offset_oracle(xs)
        np.testing.assert_allclose(res.values, expect, atol=1e-12, rtol=0)


def test_shift_degenerate_iqr():
    with pytest.raises(DegenerateDataError, match="interquartile range is zero"):
        median_iqr_transform([2.0, 2.0, 2.0, 2.0])


def test_shift_rejects_2d():
    with pytest.raises(InputError, match="expected a 1-D series"):
        median_iqr_transform(np.zeros((3, 2)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=4,
        max_size=30,
    ),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_shift_preserves_internal_differences(xs, shift):
    arr = np.asarray(xs)
    if np.subtract(*np.quantile(arr, [0.75, 0.25])) == 0:
        return
    res = median_iqr_transform(arr)
    # a pure shift: pairwise differences of the series are untouched
    np.testing.assert_allclose(
        np.diff(res.values), np.diff(arr), atol=1e-9, rtol=0
    )


# --- difference features --------------------------------------------------


def test_dvdq_max_example():
    # voltage diffs (1, 2) over capacity diffs (0.5, 0.1): slopes 2 and 20
    cyc = make_cycle("A", 0, [0, 1, 2], [0.0, 1.0, 3.0], [0.0, 0.5, 0.6])
    scaled_v = median_iqr_transform(cyc.voltage)
    scaled_q = median_iqr_transform(cyc.capacity)
    matrix, notes = extract_cycle_features([cyc], [(scaled_v, scaled_q)])
    assert matrix.column("dvdq_max")[0] == pytest.approx(20.0, abs=1e-12)
    assert matrix.column("dv_max")[0] == pytest.approx(2.0)
    assert matrix.column("dq_max")[0] == pytest.approx(0.5)
    assert notes.is_empty()


def test_dvdq_skips_tiny_dq_pairs():
    cyc = make_cycle("A", 3, [0, 1, 2], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
    sv = median_iqr_transform(cyc.voltage)
    sq = median_iqr_transform(cyc.capacity)
    matrix, notes = extract_cycle_features([cyc], [(sv, sq)])
    # first pair has dq == 0 and is skipped, not divided
    assert matrix.column("dvdq_max")[0] == pytest.approx(1.0)
    assert notes.is_empty()


def test_dvdq_all_tiny_dq_clamps_and_reports():
    cyc = make_cycle("A", 7, [0, 1], [0.0, 1.0], [0.5, 0.5])
    sv = median_iqr_transform([0.0, 1.0, 2.0])
    # capacity series is constant; hand it a pre-scaled pair to bypass the
    # transform's own degeneracy guard
    sq_vals = np.asarray([0.0, 0.0])
    sv2 = median_iqr_transform(cyc.voltage + np.asarray([0.0, 0.0]))

    class FakeScaled:
        def __init__(self, values):
            self.values = values

    matrix, notes = extract_cycle_features(
        [cyc], [(FakeScaled(np.asarray([0.0, 1.0])), FakeScaled(sq_vals))]
    )
    assert matrix.column("dvdq_max")[0] == pytest.approx(1.0 / 1e-12)
    assert notes.dvdq_clamped == [7]
    assert "7" in notes.render()


def test_extract_rejects_short_cycle():
    cyc = make_cycle("A", 0, [0], [4.0], [0.0])

    class FakeScaled:
        values = np.asarray([0.0])

    with pytest.raises(InputError, match=r"sample\(s\); need at least 2"):
        extract_cycle_features([cyc], [(FakeScaled(), FakeScaled())])


def test_transform_cell_fits_per_cycle(simple_cycles):
    pairs = transform_cell(simple_cycles)
    assert len(pairs) == len(simple_cycles)
    for rec, (sv, sq) in zip(simple_cycles, pairs):
        assert sv.values.shape[0] == rec.samples.shape[0]
        # per-cycle fit: offset recomputed from that cycle alone
        assert sv.offset == pytest.approx(offset_oracle(rec.voltage))
        assert sq.offset == pytest.approx(offset_oracle(rec.capacity))


# --- log features ---------------------------------------------------------


def test_log_feature_floors_and_reports():
    values = np.asarray([math.e, 0.0, -3.0])
    logged, clamped = log_feature(values)
    assert logged[0] == pytest.approx(1.0)
    assert logged[1] == pytest.approx(math.log(1e-12))
    assert logged[2] == pytest.approx(math.log(1e-12))
    assert clamped == [1, 2]


def test_log_feature_all_nonpositive():
    with pytest.raises(EmptyFeatureError):
        log_feature(np.asarray([-1.0, 0.0, -5.0]))


def test_build_feature_matrix_columns(simple_cycles):
    matrix, notes = build_feature_matrix(simple_cycles)
    names = set(matrix.columns)
    assert {
        "dv_max",
        "dq_max",
        "dvdq_max",
        "capacity_max",
        "log_dq_max",
    } <= names
    assert matrix.column("capacity_max").tolist() == [1.0, 1.1, 0.9]


def test_build_feature_matrix_rejects_unknown_recipe(simple_cycles):
    with pytest.raises(ConfigError, match="unknown recipe 'nosuch'"):
        build_feature_matrix(simple_cycles, "nosuch")


def test_recipe_defaults_name_built_columns(simple_cycles):
    for recipe, (stat_col, multi_cols) in RECIPE_DEFAULTS.items():
        matrix, _ = build_feature_matrix(simple_cycles, recipe)
        assert {stat_col, *multi_cols} <= set(matrix.columns)
    assert set(RECIPE_DEFAULTS) < set(RECIPES)


def test_custom_skips_what_severson_and_tohoku_require():
    # voltage only falls while capacity rises, so neither dv_max nor
    # dvdq_max has a positive entry to take a log of
    falling = [
        make_cycle("F", i, [0, 1, 2], [4.0, 3.8, 3.5 - 0.1 * i], [0.0, 0.5, 1.0 + i])
        for i in range(2)
    ]
    with pytest.raises(EmptyFeatureError, match=r"log\(dv_max\).*cell F"):
        build_feature_matrix(falling, "severson")
    # two cycles are too few for the trend distance
    with pytest.raises(InputError, match="need at least 3 cycles"):
        build_feature_matrix(falling, "tohoku")
    matrix, _ = build_feature_matrix(falling, "custom")
    assert list(matrix.columns) == [
        "dv_max", "dq_max", "dvdq_max", "capacity_max", "log_dq_max",
    ]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# ties, signed zeros and capacity steps under the 1e-12 guard, beside
# ordinary values
SAMPLE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e-13, 3.7]),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(SAMPLE_VALUES, SAMPLE_VALUES), min_size=1, max_size=9),
        min_size=1,
        max_size=7,
    )
)
# the voltage median's square differs between pow (Python) and x*x (NumPy)
@example([[(1.644, 0.0), (1.4790653645275973, 0.5), (1.047, 1.0)], [(3.0, 0.0), (3.5, 0.25)]])
# the kept dv/dq ratios peak at both -0.0 and 0.0, beside skipped pairs
@example([list(zip([1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 2.0, 2.0, 2.0, 1.0],
                   [3.0, 3.0, 0.0, 2.0, 3.0, 0.0, 0.0, 0.0, 3.0, 1.0, 3.0]))])
# the second cycle's 1e-13 capacity steps scale to differences under the
# guard, so its dvdq denominators are clamped and its cycle is noted
@example([[(3.0, 0.0), (3.5, 0.5), (4.0, 1.0)],
          [(3.0 + 0.5 * k, 1.0 + 1e-13 * k) for k in range(4)]])
def test_batched_features_match_per_cycle_oracle(cycle_samples):
    # ragged sample counts put a cell's cycles in several stacked groups
    cycles = [
        make_cycle("R", 10 - k, np.arange(len(s)), [v for v, _ in s], [q for _, q in s])
        for k, s in enumerate(cycle_samples)
    ]
    try:
        expect, expect_notes = extract_cycle_features(cycles, transform_cell(cycles))
    except (DegenerateDataError, InputError) as err:
        for recipe in RECIPES:
            with pytest.raises(type(err)) as got:
                build_feature_matrix(cycles, recipe)
            assert str(got.value) == str(err)
        return
    for recipe in RECIPES:
        try:
            matrix, notes = build_feature_matrix(cycles, recipe)
        except CycleScreenError:
            if recipe == "custom":
                raise
            continue  # a recipe-level refusal, after the features agreed
        for name in ("dv_max", "dq_max", "dvdq_max"):
            assert bits(matrix.column(name)) == bits(expect.column(name)), name
        assert bits(matrix.column("capacity_max")) == bits(
            [np.max(c.capacity) for c in cycles]
        )
        assert matrix.cycle_index.tolist() == expect.cycle_index.tolist()
        assert notes.dvdq_clamped == expect_notes.dvdq_clamped


def test_overflowing_offset_is_named_alike_on_both_paths():
    ok = make_cycle("H", 0, [0, 1, 2], [3.0, 3.5, 4.0], [0.0, 0.5, 1.0])
    # the capacity median's square overflows; the voltage's (1.3e154) does not
    huge = make_cycle(
        "H", 1, [0, 1, 2], [1e154, 1.3e154, 1.6e154], [1e160, 2e160, 3e160]
    )
    with pytest.raises(DegenerateDataError) as per_cycle:
        transform_cell([ok, huge])
    assert str(per_cycle.value).startswith(
        "capacity H/1: scaling offset median**2/IQR overflows (median 2e+160, IQR "
    )
    for recipe in RECIPES:
        with pytest.raises(DegenerateDataError) as batched:
            build_feature_matrix([ok, huge], recipe)
        assert str(batched.value) == str(per_cycle.value)


def test_overflowing_difference_is_named_alike_on_both_paths():
    ok = make_cycle("H", 0, [0, 1, 2, 3], [3.0, 3.5, 4.0, 4.5], [0.0, 0.5, 1.0, 1.5])
    # finite voltages whose IQR and middle step from -1.7e308 to 1.7e308
    # overflow: dv_max, then dvdq_max, are inf on cycle 1
    huge = make_cycle(
        "H", 1, [0, 1, 2, 3], [-1.7e308, -1.7e308, 1.7e308, 1.7e308],
        [0.0, 0.5, 1.0, 1.5],
    )
    message = "dv_max H/1: difference feature overflows to inf"
    with pytest.raises(DegenerateDataError) as per_cycle:
        extract_cycle_features([ok, huge], transform_cell([ok, huge]))
    assert str(per_cycle.value) == message
    for recipe in RECIPES:
        with pytest.raises(DegenerateDataError) as batched:
            build_feature_matrix([ok, huge], recipe)
        assert str(batched.value) == message


def test_zero_iqr_error_takes_precedence_over_short_cycle():
    ok = make_cycle("P", 0, [0, 1, 2], [3.0, 3.5, 4.0], [0.0, 0.5, 1.0])
    # one sample, but a NaN rather than zero IQR: only the length check
    # refuses it
    short = make_cycle("P", 1, [0], [np.nan], [np.nan])
    flat = make_cycle("P", 2, [0, 1, 2, 3], [3.0, 3.5, 4.0, 4.5], [1.0] * 4)
    with pytest.raises(InputError, match=r"^cycle P/1 has 1 sample\(s\)"):
        build_feature_matrix([ok, short], "custom")
    with pytest.raises(
        DegenerateDataError,
        match=r"^capacity P/2: interquartile range is zero, cannot scale$",
    ):
        build_feature_matrix([ok, short, flat], "custom")
    # cycles in the order given; within a cycle voltage before capacity
    both = make_cycle("P", 3, [0, 1, 2], [2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(DegenerateDataError, match=r"^voltage P/3"):
        build_feature_matrix([ok, short, both, flat], "custom")
    # a finite one-sample cycle has a zero IQR of its own
    single = make_cycle("P", 4, [0], [3.0], [0.0])
    with pytest.raises(DegenerateDataError, match=r"^voltage P/4"):
        build_feature_matrix([ok, short, single], "custom")


def test_feature_matrix_round_trip_text(simple_cycles, tmp_path):
    matrix, _ = build_feature_matrix(simple_cycles)
    measurements = str(tmp_path / "m.csv")
    export_cycles(CycleStore(records=tuple(simple_cycles)), measurements)
    out = tmp_path / "out"
    assert main(["features", "--input", measurements, "--out", str(out)]) == 0
    text = (out / "A" / "features.csv").read_text()
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "cycle_index"
    parsed = [line.split(",") for line in lines[1:]]
    for row, cyc in zip(parsed, matrix.cycle_index):
        assert int(row[0]) == cyc
        for j, name in enumerate(header[1:], start=1):
            assert float(row[j]) == matrix.column(name)[int(row[0])]


# --- trend-distance feature ----------------------------------------------


def test_mahalanobis_feature_range_and_extreme(rng):
    n = 60
    cyc = np.arange(n)
    cap = 1.0 - 0.002 * cyc + rng.normal(0, 0.001, size=n)
    cap[30] = 0.4  # gross capacity drop mid-life
    feat = mahalanobis_feature(cyc, cap)
    assert feat.shape == (n,)
    assert feat.min() == 0.0
    assert feat.max() == 1.0
    assert int(np.argmax(feat)) == 30


def test_mahalanobis_feature_matches_direct_formula(rng):
    n = 40
    cyc = np.arange(n, dtype=float)
    cap = rng.normal(size=n)
    X = np.column_stack([cyc, cap])
    mu = X.mean(axis=0)
    cov = np.cov(X, rowvar=False, ddof=1)
    inv = np.linalg.inv(cov)
    d = np.sqrt(np.einsum("ij,jk,ik->i", X - mu, inv, X - mu))
    expect = (d - d.min()) / (d.max() - d.min())
    np.testing.assert_allclose(
        mahalanobis_feature(cyc, cap), expect, atol=1e-9
    )


def test_mahalanobis_feature_singular():
    cyc = np.arange(10, dtype=float)
    with pytest.raises(DegenerateDataError, match="covariance of .* is singular"):
        mahalanobis_feature(cyc, 2.0 * cyc + 1.0)
