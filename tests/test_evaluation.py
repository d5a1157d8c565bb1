import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclescreen.errors import ConfigError, InputError
from cyclescreen.evaluation import (
    ConfusionCounts,
    MetricSet,
    benchmark_report,
    confusion,
    metrics,
)


def formula_oracle(tp, tn, fp, fn):
    # independent transcription of the definitions, zero conventions spelled
    # out longhand
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    prec = tp / (tp + fp) if (tp + fp) > 0 and tp > 0 else 0.0
    rec = tp / (tp + fn) if (tp + fn) > 0 and tp > 0 else 0.0
    f1 = (2 * tp) / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / denom if denom > 0 else 0.0
    return acc, prec, rec, f1, mcc


def test_confusion_counting():
    labels = [1, 1, 0, 0, 1]
    flags = [True, False, True, False, True]
    c = confusion(labels, flags)
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 1, 1)
    assert c.total == 5


def test_confusion_validation():
    with pytest.raises(InputError, match=r"labels \(2,\) and flags \(1,\) disagree"):
        confusion([1, 0], [True])
    with pytest.raises(InputError, match="no rows to score"):
        confusion([], [])


def test_reference_case_two_hits_two_misses():
    m = metrics(ConfusionCounts(tp=2, tn=337, fp=0, fn=2))
    assert m.precision == 1.0
    assert m.recall == 0.5
    assert m.f1 == pytest.approx(2 / 3)
    assert m.accuracy == pytest.approx(339 / 341)
    assert round(m.mcc, 4) == 0.7050


def test_zero_conventions():
    # nothing flagged, nothing positive: only accuracy is meaningful
    m = metrics(ConfusionCounts(tp=0, tn=10, fp=0, fn=0))
    assert m.accuracy == 1.0
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0 and m.mcc == 0.0
    # everything missed
    m = metrics(ConfusionCounts(tp=0, tn=0, fp=0, fn=4))
    assert m.accuracy == 0.0 and m.recall == 0.0
    with pytest.raises(InputError, match="empty confusion table"):
        metrics(ConfusionCounts(0, 0, 0, 0))


def test_exhaustive_small_tables_match_oracle():
    # every confusion table with at most 12 observations
    for total in range(1, 13):
        for tp in range(total + 1):
            for tn in range(total - tp + 1):
                for fp in range(total - tp - tn + 1):
                    fn = total - tp - tn - fp
                    m = metrics(ConfusionCounts(tp, tn, fp, fn))
                    want = formula_oracle(tp, tn, fp, fn)
                    got = (m.accuracy, m.precision, m.recall, m.f1, m.mcc)
                    assert got == pytest.approx(want, abs=1e-12)


def test_mcc_magnitude_invariant_under_label_swap(rng):
    # swapping the positive class negates the correlation, so its magnitude
    # is unchanged
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 30, size=4))
        if tp + tn + fp + fn == 0:
            continue
        a = metrics(ConfusionCounts(tp, tn, fp, fn)).mcc
        b = metrics(ConfusionCounts(tn, tp, fn, fp)).mcc
        assert abs(a) == pytest.approx(abs(b), abs=1e-12)


def test_metrics_bounded(rng):
    for _ in range(300):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 20, size=4))
        if tp + tn + fp + fn == 0:
            continue
        m = metrics(ConfusionCounts(tp, tn, fp, fn))
        for name in ("accuracy", "precision", "recall", "f1"):
            assert 0.0 <= getattr(m, name) <= 1.0
        assert -1.0 <= m.mcc <= 1.0


def test_perfect_and_inverted_predictions():
    perfect = metrics(ConfusionCounts(tp=5, tn=5, fp=0, fn=0))
    assert perfect.mcc == 1.0 and perfect.f1 == 1.0 and perfect.accuracy == 1.0
    inverted = metrics(ConfusionCounts(tp=0, tn=0, fp=5, fn=5))
    assert inverted.mcc == -1.0 and inverted.accuracy == 0.0


def test_as_dict_order():
    m = metrics(ConfusionCounts(1, 1, 1, 1))
    assert list(m._asdict()) == ["accuracy", "precision", "recall", "f1", "mcc"]


def test_macro_average_is_unweighted():
    counts = {
        "big": ConfusionCounts(tp=0, tn=100, fp=0, fn=0),  # accuracy 1
        "small": ConfusionCounts(tp=0, tn=0, fp=1, fn=1),  # accuracy 0
    }
    report = benchmark_report(counts, kpi=0.6)
    assert report.macro.accuracy == pytest.approx(0.5)  # not 100/102
    assert report.passes["accuracy"] is False


def test_kpi_boundary_is_inclusive():
    counts = {"c": ConfusionCounts(tp=19, tn=0, fp=1, fn=0)}
    report = benchmark_report(counts, kpi=0.95)
    assert report.macro.precision == pytest.approx(0.95)
    assert report.passes["precision"] is True


@pytest.mark.parametrize("kpi", [-0.1, 1.5, math.nan])
def test_kpi_outside_the_unit_interval_is_refused(kpi):
    # every metric lies in [0, 1]: -0.1 would pass them all, 1.5 fail them all
    counts = {"c": ConfusionCounts(tp=19, tn=0, fp=1, fn=0)}
    with pytest.raises(ConfigError) as err:
        benchmark_report(counts, kpi=kpi)
    assert str(err.value) == f"kpi must lie in [0, 1], got {kpi!r}"


def test_report_requires_cells():
    with pytest.raises(InputError, match="no cells to report on"):
        benchmark_report({})


@settings(max_examples=100, deadline=None)
@given(
    tp=st.integers(0, 50),
    tn=st.integers(0, 50),
    fp=st.integers(0, 50),
    fn=st.integers(0, 50),
)
def test_f1_is_harmonic_mean_when_defined(tp, tn, fp, fn):
    if tp == 0:
        return
    m = metrics(ConfusionCounts(tp, tn, fp, fn))
    harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
    assert m.f1 == pytest.approx(harmonic, abs=1e-12)
