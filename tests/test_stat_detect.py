import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cyclescreen.errors import ConfigError, DegenerateDataError, InputError
from cyclescreen.stat_detect import (
    GAUSSIAN_MAD_FACTOR,
    StatMethod,
    detect_stat,
    scaled_mad,
)

DATA = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0, 100.0])


def brute_flags(values, method):
    """Straight-from-the-definition reimplementation for cross-checking."""
    x = np.asarray(values, dtype=float)
    med = float(np.median(x))
    if method == "sd":
        mu = float(np.mean(x))
        sd = float(np.std(x, ddof=1))
        return set(np.flatnonzero((x < mu - 3 * sd) | (x > mu + 3 * sd)))
    if method == "zscore":
        mu = float(np.mean(x))
        sd = float(np.std(x, ddof=1))
        z = (x - mu) / sd
        return set(np.flatnonzero(np.abs(z) > 3))
    if method == "mad":
        m = GAUSSIAN_MAD_FACTOR * float(np.median(np.abs(x - med)))
        return set(np.flatnonzero((x < med - 3 * m) | (x > med + 3 * m)))
    if method == "mod_zscore":
        m = GAUSSIAN_MAD_FACTOR * float(np.median(np.abs(x - med)))
        z = (x - med) / m
        return set(np.flatnonzero(np.abs(z) > 3.5))
    if method == "iqr":
        q1, q3 = np.quantile(x, [0.25, 0.75])
        iqr = q3 - q1
        return set(
            np.flatnonzero((x < q1 - 1.5 * iqr) | (x > q3 + 1.5 * iqr))
        )
    raise AssertionError(method)


def test_mad_factor_constant():
    assert GAUSSIAN_MAD_FACTOR == 1.4826022185056018
    assert GAUSSIAN_MAD_FACTOR == pytest.approx(
        1.0 / 0.6744897501960817, abs=1e-15
    )
    assert GAUSSIAN_MAD_FACTOR == pytest.approx(
        1.0 / stats.norm.ppf(0.75), abs=1e-15
    )


def test_mad_limits_small_example():
    verdict = detect_stat(DATA, StatMethod.MAD)
    assert verdict.limits.lower == pytest.approx(-3.1717, abs=5e-5)
    assert verdict.limits.upper == pytest.approx(10.1717, abs=5e-5)
    assert verdict.flagged_indices() == {5}
    assert verdict.limits.mad_factor == GAUSSIAN_MAD_FACTOR


def test_iqr_limits_small_example():
    verdict = detect_stat(DATA, StatMethod.IQR)
    q1, q3 = np.quantile(DATA, [0.25, 0.75])
    assert q1 == pytest.approx(2.25)
    assert q3 == pytest.approx(4.75)
    assert verdict.limits.lower == pytest.approx(-1.5)
    assert verdict.limits.upper == pytest.approx(8.5)
    assert verdict.flagged_indices() == {5}


def test_zscore_masking_small_example():
    # one huge value inflates the spread enough to hide itself
    x = np.asarray([0.0, 0.0, 0.0, 0.0, 10.0])
    verdict = detect_stat(x, StatMethod.ZSCORE)
    assert verdict.scores[4] == pytest.approx(1.7889, abs=5e-5)
    assert verdict.flagged_indices() == set()
    # the robust variant refuses: the majority is identical, MAD is zero
    with pytest.raises(DegenerateDataError, match="median absolute deviation is zero"):
        detect_stat(x, StatMethod.MOD_ZSCORE)


def test_sd_scores_are_raw_values():
    verdict = detect_stat(DATA, StatMethod.SD)
    np.testing.assert_array_equal(verdict.scores, DATA)
    mu, sd = DATA.mean(), DATA.std(ddof=1)
    assert verdict.limits.lower == pytest.approx(mu - 3 * sd)
    assert verdict.limits.upper == pytest.approx(mu + 3 * sd)


def test_zscore_limits_in_score_space():
    verdict = detect_stat(DATA, StatMethod.ZSCORE)
    assert verdict.limits.lower == -3.0
    assert verdict.limits.upper == 3.0
    mu, sd = DATA.mean(), DATA.std(ddof=1)
    np.testing.assert_allclose(verdict.scores, (DATA - mu) / sd)


def test_method_accepts_strings():
    for name in ("sd", "mad", "iqr", "zscore", "mod_zscore"):
        verdict = detect_stat(DATA, name)
        assert verdict.limits.method == StatMethod(name)


def test_all_methods_match_brute_force(rng):
    for _ in range(500):
        n = int(rng.integers(4, 30))
        x = rng.normal(0, rng.uniform(0.5, 3), size=n)
        if rng.random() < 0.5:
            x[rng.integers(0, n)] += rng.uniform(5, 50)
        for method in StatMethod:
            try:
                verdict = detect_stat(x, method)
            except DegenerateDataError:
                continue
            assert verdict.flagged_indices() == brute_flags(x, method.value), (
                method,
                x.tolist(),
            )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        min_size=3,
        max_size=40,
    )
)
def test_sd_equals_zscore_flags(xs):
    x = np.asarray(xs)
    # both rules refuse a zero spread: equal values, or squares that underflow
    if (x == x[0]).all() or np.std(x, ddof=1) == 0:
        return
    sd_flags = detect_stat(x, StatMethod.SD).flagged_indices()
    z_flags = detect_stat(x, StatMethod.ZSCORE).flagged_indices()
    assert sd_flags == z_flags


def test_gaussian_consistency(rng):
    x = rng.normal(0.0, 2.0, size=100_000)
    med, estimate = scaled_mad(x, GAUSSIAN_MAD_FACTOR)
    assert abs(estimate - 2.0) / 2.0 < 0.03
    raw = float(np.median(np.abs(x - np.median(x))))
    assert estimate == pytest.approx(GAUSSIAN_MAD_FACTOR * raw)
    assert med == pytest.approx(np.median(x))


def test_degenerate_spread_raises_not_empty():
    constant = np.asarray([3.0, 3.0, 3.0, 3.0])
    for method in StatMethod:
        with pytest.raises(DegenerateDataError, match="is zero"):
            detect_stat(constant, method)
    # MAD breaks even on non-constant data when the majority is identical
    mostly_same = np.asarray([1.0, 1.0, 1.0, 1.0, 1.0, 9.0])
    with pytest.raises(DegenerateDataError, match="median absolute deviation is zero"):
        detect_stat(mostly_same, StatMethod.MAD)


@pytest.mark.parametrize("method", ["sd", "zscore"])
def test_a_column_of_equal_values_has_zero_standard_deviation(method):
    # NumPy's mean of these misses the value by an ulp, so np.std is 2.3e-16
    x = [1.1001383032432028] * 12
    with pytest.raises(DegenerateDataError) as err:
        detect_stat(x, method)
    assert str(err.value) == f"{method}: standard deviation is zero"


def test_a_band_beyond_the_float_range_names_the_rule():
    # the median and the scaled MAD are finite; three of them are not
    with pytest.raises(DegenerateDataError) as err:
        detect_stat([-1e308, 0, 1e308, 5], "mad")
    assert str(err.value) == (
        "mad: the arithmetic overflows on finite input "
        "(overflow encountered in scalar multiply)"
    )


def test_limits_are_python_floats():
    for method in StatMethod:
        limits = detect_stat(DATA, method).limits
        fields = (limits.lower, limits.upper, limits.center, limits.spread)
        assert all(type(value) is float for value in fields)


def test_custom_mad_factor_threaded_through():
    verdict = detect_stat(DATA, StatMethod.MAD, mad_factor=1.0)
    med = np.median(DATA)
    raw_mad = np.median(np.abs(DATA - med))
    assert verdict.limits.upper == pytest.approx(med + 3 * raw_mad)
    assert verdict.limits.mad_factor == 1.0


@pytest.mark.parametrize("factor", [0.0, -GAUSSIAN_MAD_FACTOR, np.nan, np.inf])
def test_mad_factor_must_be_finite_and_positive(factor):
    with pytest.raises(ConfigError, match="mad_factor must be finite and positive"):
        scaled_mad(DATA, factor)
    for method in (StatMethod.MAD, StatMethod.MOD_ZSCORE):
        with pytest.raises(ConfigError):
            detect_stat(DATA, method, mad_factor=factor)


def test_a_column_is_read_by_the_one_feature_matrix_rule():
    # a 1-D array and its (n, 1) matrix give the same verdict to the bit
    x = DATA.copy()
    for method in StatMethod:
        column, matrix = detect_stat(x, method), detect_stat(x[:, None], method)
        assert column.scores.tobytes() == matrix.scores.tobytes()
        assert column.flags.tobytes() == matrix.flags.tobytes()
        assert column.limits == matrix.limits
    with pytest.raises(InputError) as err:
        detect_stat(np.column_stack([x, x]), "sd")
    assert str(err.value) == "detect_stat reads one feature column, got 2"
    with pytest.raises(InputError) as err:
        detect_stat([], "sd")
    assert str(err.value) == "feature matrix has no rows"
    x[2] = np.inf
    with pytest.raises(InputError) as err:
        detect_stat(x, "sd")
    assert str(err.value) == (
        "feature row 2, column 0 is inf; detectors need finite values"
    )
