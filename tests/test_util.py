import math
import os
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cyclescreen import ml_detect
from cyclescreen.dist_detect import (
    METRIC_KINDS, MetricSpec, centroid_detect, check_resolution, pairwise,
)
from cyclescreen.errors import ConfigError, DegenerateDataError, InputError
from cyclescreen.ml_detect.params import check_trials
from cyclescreen.stat_detect import StatMethod, detect_stat
from cyclescreen.tune import optimize_proxy
from cyclescreen.util import (
    atomic_write_text,
    check_addressable,
    derive_seed,
    float_policy,
    median,
    quartiles,
    round_half_up,
    round_sig,
)


def test_derive_seed_deterministic():
    assert derive_seed(7, "cell", "A") == derive_seed(7, "cell", "A")


def test_derive_seed_distinguishes_parts():
    seen = {
        derive_seed(0),
        derive_seed(1),
        derive_seed(0, "a"),
        derive_seed(0, "b"),
        derive_seed(0, "a", "b"),
        derive_seed(0, "ab"),
    }
    assert len(seen) == 6
    # parts are joined with a separator, so int and str forms agree
    assert derive_seed(0, "a") == derive_seed("0", "a")


@given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
def test_derive_seed_range(base, tag):
    seed = derive_seed(base, tag)
    assert 0 <= seed < 2**63


def test_round_half_up_midpoints():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(-0.5) == 0
    assert round_half_up(6.0) == 6


def test_round_sig():
    assert round_sig(123456.789, 6) == 123457.0
    assert round_sig(0.000123456789, 6) == 0.000123457
    assert round_sig(0.0) == 0.0
    assert math.isinf(round_sig(float("inf")))
    assert math.isnan(round_sig(float("nan")))


def test_atomic_write_creates_parents(tmp_path):
    target = tmp_path / "a" / "b" / "c.txt"
    atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    assert not any(
        name.startswith(".") for name in os.listdir(tmp_path / "a" / "b")
    )


def test_atomic_write_gives_the_mode_open_gives(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("payload")
    target = tmp_path / "atomic.txt"
    atomic_write_text(str(target), "payload")
    assert target.stat().st_mode == plain.stat().st_mode


def test_sizes_are_refused_only_past_what_numpy_can_address():
    limit = int(np.iinfo(np.intp).max)
    check_addressable("size", 1, limit)
    with pytest.raises(ConfigError) as exc:
        check_addressable("size", 2, limit + 1)
    assert str(exc.value) == (
        f"size 2 needs arrays of {limit + 1} bytes, more than the {limit} "
        "NumPy can address"
    )
    # a trial takes 8 bytes, a 2-D grid node 16; a NumPy integer is widened
    # before the product, which would overflow int64
    top_trials, top_resolution = limit // 8, math.isqrt(limit // 16)
    check_trials(top_trials)
    check_resolution(np.int64(top_resolution))
    for check, size in ((check_trials, top_trials), (check_resolution, top_resolution)):
        with pytest.raises(ConfigError, match="more than the"):
            check(np.int64(size + 1))


NO_COLUMNS = np.empty((6, 0))

#: the 15 detectors' library entry points, pairwise and proxy tuning, each
#: called on a feature matrix with rows and no columns
NO_COLUMN_CALLS = {
    **{m.value: partial(detect_stat, NO_COLUMNS, m) for m in StatMethod},
    **{
        kind: partial(centroid_detect, NO_COLUMNS, MetricSpec(kind, p=3.0))
        for kind in METRIC_KINDS
    },
    **{
        model: partial(ml_detect.fit, ml_detect.make_config(model), NO_COLUMNS)
        for model in ml_detect.ML_MODELS
    },
    "pairwise": partial(pairwise, NO_COLUMNS, NO_COLUMNS, MetricSpec("euclidean")),
    "optimize_proxy": partial(
        optimize_proxy, np.arange(40.0), np.empty((40, 0)), "knn"
    ),
}


@pytest.mark.parametrize("entry", NO_COLUMN_CALLS)
def test_a_feature_matrix_with_no_columns_is_refused(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as err:
            NO_COLUMN_CALLS[entry]()
    assert str(err.value) == "feature matrix has no columns"


#: values whose order statistics need care: signed zeros, subnormals, the
#: ends of the float range, where the mean and the lerp overflow, and NaN,
#: which NumPy's partition puts last
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, math.nan,
]


@st.composite
def order_statistic_inputs(draw):
    """A 1-D series or a (rows, n) matrix of n from 1 to 40, odd and even,
    drawn from few values so duplicates are common."""
    values = draw(st.lists(
        st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False),
        min_size=1, max_size=6,
    ))
    n = draw(st.integers(1, 40))
    rows = draw(st.sampled_from([None, 1, 3]))
    shape = (n,) if rows is None else (rows, n)
    picks = draw(st.lists(
        st.integers(0, len(values) - 1),
        min_size=math.prod(shape), max_size=math.prod(shape),
    ))
    return np.array([values[i] for i in picks]).reshape(shape)


def _under_policy(statistic, x):
    """statistic(x) under float_policy, or the text of its refusal."""
    try:
        with float_policy("q"):
            return statistic(x)
    except DegenerateDataError as err:
        return str(err)


def _same_bits(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return (
        type(got) is type(want)
        and np.array_equal(got, want, equal_nan=True)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


@given(order_statistic_inputs())
@example(np.array([-0.0]))
@example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
@example(np.array([1.7976931348623157e308, 1e308]))
@example(np.array([-1.7976931348623157e308, 1e308, 1.7976931348623157e308]))
def test_order_statistics_match_numpy_bit_for_bit(x):
    got = _under_policy(median, x)
    want = _under_policy(lambda a: np.median(a, axis=-1), x)
    assert _same_bits(got, want), (got, want)
    got = _under_policy(quartiles, x)
    want = _under_policy(
        lambda a: tuple(np.quantile(a, [0.25, 0.75], axis=-1, method="linear")), x,
    )
    if isinstance(want, str):
        assert got == want
    else:
        assert all(map(_same_bits, got, want)), (got, want)
