"""The library's result and state records are named tuples: read by field
name, in a fixed field order, and immutable."""

import pytest

from cyclescreen.dist_detect import DistanceVerdict, GridScores
from cyclescreen.evaluation import ConfusionCounts, EvalReport, MetricSet
from cyclescreen.ml_detect import FittedDetector
from cyclescreen.ml_detect.iforest import IsolationForestState
from cyclescreen.ml_detect.knn import KnnState
from cyclescreen.ml_detect.lof import LofState
from cyclescreen.ml_detect.params import Param
from cyclescreen.ml_detect.pca import PcaState
from cyclescreen.stat_detect import StatLimits, StatVerdict
from cyclescreen.tune import CellTuning, ProxyResult, TransferResult, TrialRecord

#: each record's fields in order, and the defaults among them
RECORDS = [
    (ConfusionCounts, ("tp", "tn", "fp", "fn"), {}),
    (MetricSet, ("accuracy", "precision", "recall", "f1", "mcc"), {}),
    (EvalReport, ("per_cell", "macro", "kpi", "passes"), {}),
    (StatLimits, ("method", "lower", "upper", "center", "spread", "mad_factor"),
     {"mad_factor": None}),
    (StatVerdict, ("flags", "scores", "limits"), {}),
    (DistanceVerdict,
     ("centroid", "distances", "normalized", "flags", "mad_threshold", "cutoff"), {}),
    (GridScores, ("axes", "values", "bounds", "data_min", "data_max"), {}),
    (Param, ("default", "hard", "search"), {"search": None}),
    (TrialRecord, ("trial_id", "config", "objectives", "objective_kind"), {}),
    (CellTuning, ("cell_id", "trials", "front", "best"), {}),
    (TransferResult, ("per_cell", "aggregated"), {}),
    (ProxyResult, ("trials", "front", "compromise"), {}),
    (FittedDetector, ("config", "state", "n_features"), {}),
    (PcaState, ("mean", "components"), {}),
    (LofState, ("X", "k", "metric", "k_distance", "lrd"), {}),
    (KnnState, ("X", "k", "method", "metric"), {}),
    (IsolationForestState,
     ("feature", "threshold", "left", "value", "roots", "depth", "subsample_size",
      "normalizer"), {}),
]


@pytest.mark.parametrize(
    "record, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_keeps_its_fields_and_defaults_and_refuses_assignment(
    record, fields, defaults
):
    assert record._fields == fields
    assert record._field_defaults == defaults
    required = [f for f in fields if f not in defaults]
    instance = record(**{name: i for i, name in enumerate(required)})
    assert [getattr(instance, name) for name in fields] == [
        defaults.get(name, i) for i, name in enumerate(fields)
    ]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, -1)
    assert list(instance) == [getattr(instance, name) for name in fields]
