"""Confusion counting and benchmark reporting.

Conventions for empty denominators follow the "no true positives means no
credit" rule: precision and recall are 0 unless tp > 0, the F-score is 0
when its denominator vanishes, and the correlation coefficient is 0 whenever
any factor under its square root is 0. Macro averages weight every cell
equally regardless of cycle count.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "mcc")

#: the macro value a metric must reach to pass
DEFAULT_KPI = 0.95


class ConfusionCounts(NamedTuple):
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(labels, flags) -> ConfusionCounts:
    """Count agreement between 0/1 ground truth and boolean flags."""
    labels = np.asarray(labels)
    flags = np.asarray(flags)
    if labels.shape != flags.shape:
        raise InputError(
            f"labels {labels.shape} and flags {flags.shape} disagree"
        )
    if labels.size == 0:
        raise InputError("no rows to score")
    y = labels.astype(bool)
    f = flags.astype(bool)
    return ConfusionCounts(
        tp=int(np.sum(f & y)),
        tn=int(np.sum(~f & ~y)),
        fp=int(np.sum(f & ~y)),
        fn=int(np.sum(~f & y)),
    )


class MetricSet(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float
    mcc: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def metrics(counts: ConfusionCounts) -> MetricSet:
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    total = counts.total
    if total == 0:
        raise InputError("empty confusion table")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp > 0 else 0.0
    recall = tp / (tp + fn) if tp > 0 else 0.0
    f1_den = 2 * tp + fp + fn
    f1 = 2 * tp / f1_den if f1_den > 0 else 0.0
    factors = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if factors == 0:
        mcc = 0.0
    else:
        mcc = (tp * tn - fp * fn) / math.sqrt(factors)
    return MetricSet(
        accuracy=float(accuracy),
        precision=float(precision),
        recall=float(recall),
        f1=float(f1),
        mcc=float(mcc),
    )


class EvalReport(NamedTuple):
    """Per-cell metrics, their macro average, and KPI verdicts per metric."""

    per_cell: dict[str, MetricSet]
    macro: MetricSet
    kpi: float
    passes: dict[str, bool]


def check_kpi(kpi: float) -> None:
    """Refuse a KPI outside [0, 1], NaN included: every metric lies there,
    so a KPI below passes them all and one above fails them all."""
    if not 0.0 <= kpi <= 1.0:
        raise ConfigError(f"kpi must lie in [0, 1], got {kpi!r}")


def benchmark_report(
    per_cell_counts: dict[str, ConfusionCounts], kpi: float = DEFAULT_KPI
) -> EvalReport:
    """Macro-average per-cell metrics and compare each against the KPI.

    A metric passes when its unweighted mean over cells is at least the KPI
    value (boundary inclusive). check_kpi refuses a KPI outside [0, 1].
    """
    check_kpi(kpi)
    if not per_cell_counts:
        raise InputError("no cells to report on")
    per_cell = {
        cell: metrics(counts) for cell, counts in sorted(per_cell_counts.items())
    }
    macro_values = {
        name: float(np.mean([m.as_dict()[name] for m in per_cell.values()]))
        for name in METRIC_NAMES
    }
    macro = MetricSet(**macro_values)
    passes = {name: macro_values[name] >= kpi for name in METRIC_NAMES}
    return EvalReport(per_cell=per_cell, macro=macro, kpi=kpi, passes=passes)
