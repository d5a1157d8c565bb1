"""Robust per-cycle scaling and feature extraction.

The scaling step shifts a series by a robust location/scale compound: each
value becomes ``x_i - median(X)**2 / IQR(X)``, with quartiles computed by
linear interpolation (the type-7 estimator numpy uses by default). The shift
is a constant per series, so consecutive differences survive unchanged while
series from different cycles land on a comparable footing.

Per-cycle point-anomaly features are maxima of consecutive differences of the
scaled voltage and capacity, plus the maximum ratio of those differences.
Natural-log variants and a normalized distance feature over
(cycle_index, capacity_max) round out the module; build_feature_matrix
assembles a cell's table under one of the named recipes.

build_feature_matrix works on a cell at once: it stacks the cycles of each
sample count into one (cycles, samples) array and takes medians, quartiles,
differences and maxima along axis 1, then writes the rows back in cycle
order. The offsets median**2 / IQR stay Python float arithmetic, one cycle
at a time, because NumPy evaluates an array's **2 as x*x, which can differ
from pow in the last bit. The tests keep a one-cycle-at-a-time form of the
scaling and difference features, which the batched path matches bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import CAPACITY, VOLTAGE, CycleRecord
from .dist_detect import _cholesky_or_raise
from .errors import (
    ConfigError,
    CycleScreenError,
    DegenerateDataError,
    EmptyFeatureError,
    InputError,
)
from .util import float_policy, median, normalize_scores, quartiles

#: guard for near-zero capacity differences and log arguments
EPS = 1e-12


def _offset(med: float, iqr: float, origin: str) -> float:
    """median**2 / IQR as a Python float power; NumPy takes an array's **2
    as x*x, which can differ from pow in the last bit. A square beyond the
    float range raises DegenerateDataError. The quotient stays finite when
    the square does: a nonzero IQR is about the median's last-bit step or
    more."""
    try:
        return med**2 / iqr
    except OverflowError:
        raise DegenerateDataError(
            f"{origin}: scaling offset median**2/IQR overflows "
            f"(median {med!r}, IQR {iqr!r})"
        ) from None


@dataclass
class FeatureMatrix:
    """Per-cycle feature table: one row per cycle, named columns."""

    cycle_index: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        self.cycle_index = np.asarray(self.cycle_index, dtype=int)
        for name, col in list(self.columns.items()):
            self.add_column(name, col)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(
                f"unknown feature column '{name}'; have {sorted(self.columns)}"
            )
        return self.columns[name]

    def add_column(self, name: str, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != self.cycle_index.shape:
            raise InputError(
                f"column '{name}' has shape {values.shape}, "
                f"expected {self.cycle_index.shape}"
            )
        self.columns[name] = values


@dataclass
class FeatureNotes:
    """Side channel for guard activations during feature extraction.

    dvdq_clamped lists cycles whose capacity differences were all below the
    guard, forcing the clamped denominator. log_clamped maps a log column to
    the (cycle_index, value) pairs that were floored before taking the log.
    """

    cell_id: str = ""
    dvdq_clamped: list[int] = field(default_factory=list)
    log_clamped: dict[str, list[tuple[int, float]]] = field(default_factory=dict)

    def record_log(self, column: str, cycle_index, values, clamped) -> None:
        """Record the (cycle, input) pairs log_feature floored in values;
        logging the same column again replaces its entry, not repeats it."""
        if clamped:
            self.log_clamped[column] = [
                (int(cycle_index[i]), float(values[i])) for i in clamped
            ]

    def is_empty(self) -> bool:
        return not self.dvdq_clamped and not self.log_clamped

    def render(self) -> str:
        lines = [f"cell {self.cell_id or '?'}"]
        if self.is_empty():
            lines.append("  no guard activations")
        for cyc in self.dvdq_clamped:
            lines.append(
                f"  cycle {cyc}: all capacity differences below {EPS:g}, "
                f"denominator clamped"
            )
        for column in sorted(self.log_clamped):
            for cyc, value in self.log_clamped[column]:
                lines.append(
                    f"  cycle {cyc}: {column} input {value!r} floored to {EPS:g}"
                )
        return "\n".join(lines) + "\n"


def _difference_features(v: np.ndarray, q: np.ndarray):
    """dv_max, dq_max, dvdq_max and the clamp flag of each row of the scaled
    (cycles, samples) voltage and capacity arrays. Pairs with |dq| below EPS
    are skipped in dvdq_max; a row left with none is clamped: its
    denominators become EPS, sign kept, exact zeros taken as positive."""
    dv = np.diff(v, axis=1)
    dq = np.diff(q, axis=1)
    keep = np.abs(dq) >= EPS
    kept = keep.sum(axis=1)
    clamped = kept == 0
    dvdq = np.empty(dv.shape[0])
    if not clamped.all():
        # one segment of kept ratios per row: a max over rows padded where
        # pairs were skipped could return the other sign of a zero maximum
        starts = (np.cumsum(kept) - kept)[~clamped]
        dvdq[~clamped] = np.maximum.reduceat(dv[keep] / dq[keep], starts)
    if clamped.any():
        tiny = dq[clamped]
        sign = np.where(tiny < 0, -1.0, 1.0)
        denominator = sign * np.maximum(np.abs(tiny), EPS)
        dvdq[clamped] = (dv[clamped] / denominator).max(axis=1)
    return dv.max(axis=1), dq.max(axis=1), dvdq, clamped


def _feature_table(cycles, dv_max, dq_max, dvdq_max, clamped):
    """The difference-feature matrix and guard notes of a cell's cycles.
    The first feature that is not finite, by cycle and then column, raises
    DegenerateDataError: finite samples whose differences overflow."""
    columns = {"dv_max": dv_max, "dq_max": dq_max, "dvdq_max": dvdq_max}
    table = np.column_stack(list(columns.values()))
    if not np.isfinite(table).all():
        row, col = np.argwhere(~np.isfinite(table))[0]
        rec = cycles[row]
        raise DegenerateDataError(
            f"{list(columns)[col]} {rec.cell_id}/{rec.cycle_index}: "
            f"difference feature overflows to {float(table[row, col])!r}"
        )
    notes = FeatureNotes(cell_id=",".join(sorted({c.cell_id for c in cycles})))
    notes.dvdq_clamped = [int(cycles[i].cycle_index) for i in np.flatnonzero(clamped)]
    matrix = FeatureMatrix(
        cycle_index=np.asarray([c.cycle_index for c in cycles], dtype=int),
        columns=columns,
    )
    return matrix, notes


def _short_cycle(rec: CycleRecord) -> InputError:
    return InputError(
        f"cycle {rec.cell_id}/{rec.cycle_index} has {rec.samples.shape[0]} "
        f"sample(s); need at least 2 for difference features"
    )


def log_feature(values) -> tuple[np.ndarray, list[int]]:
    """Natural log of a feature column with entries below EPS floored.

    Returns the transformed column and the indices that were floored. A
    column with no positive entries at all cannot carry information through
    the log and is rejected.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InputError("log_feature: empty column")
    clamped = [int(i) for i in np.nonzero(arr < EPS)[0]]
    if len(clamped) == arr.size and np.all(arr <= 0):
        raise EmptyFeatureError(
            "log_feature: no positive entries in column"
        )
    return np.log(np.maximum(arr, EPS)), clamped


#: the feature recipes build_feature_matrix knows
RECIPES = ("severson", "tohoku", "custom")

#: default columns per named recipe: (stat column, multivariate columns);
#: custom has none and needs an explicit column choice
RECIPE_DEFAULTS = {
    "severson": ("log_dvdq_max", ("log_dq_max", "log_dv_max")),
    "tohoku": ("mahalanobis_norm", ("capacity_max", "mahalanobis_norm")),
}


def _add_logs(matrix: FeatureMatrix, notes: FeatureNotes, required: bool) -> None:
    """Add log_<name> for each difference feature, recording its clamps.

    A column with no positive entry raises when required, else is skipped.
    """
    for name in ("dv_max", "dq_max", "dvdq_max"):
        col = matrix.column(name)
        try:
            logged, clamped = log_feature(col)
        except EmptyFeatureError:
            if not required:
                continue
            raise EmptyFeatureError(
                f"log({name}): no positive entries for cell {notes.cell_id}"
            ) from None
        matrix.add_column(f"log_{name}", logged)
        notes.record_log(f"log_{name}", matrix.cycle_index, col, clamped)


# finite samples can overflow in the spread and difference arithmetic;
# _feature_table refuses the feature that results by name, so NumPy's
# warnings stay inside
@np.errstate(over="ignore", invalid="ignore")
def _cell_features(
    cycles: Sequence[CycleRecord],
) -> tuple[FeatureMatrix, FeatureNotes, np.ndarray]:
    """The difference features of each cycle, scaled by its own voltage and
    capacity median**2 / IQR, and each cycle's capacity_max, with the cycles
    of each sample count stacked into one (cycles, samples) array and worked
    along axis 1.

    Rows are written back in cycle order, and errors keep the per-cycle
    precedence: a zero IQR, checked in each cycle's voltage then its
    capacity, cycle by cycle; then the first cycle too short for differences.
    """
    if len(cycles) == 0:
        raise InputError("no cycles to extract features from")
    groups: dict[int, list[int]] = {}
    for i, rec in enumerate(cycles):
        groups.setdefault(rec.samples.shape[0], []).append(i)
    stacks = [
        np.stack([cycles[i].samples for i in members])
        for members in groups.values()
    ]
    # per cycle: voltage median and IQR, then capacity median and IQR
    stats = np.empty((len(cycles), 4))
    for members, samples in zip(groups.values(), stacks):
        for col, channel in ((0, VOLTAGE), (2, CAPACITY)):
            x = samples[:, :, channel]
            q1, q3 = quartiles(x)
            stats[members, col] = median(x)
            stats[members, col + 1] = q3 - q1
    offsets = []
    for rec, (med_v, iqr_v, med_q, iqr_q) in zip(cycles, stats.tolist()):
        for origin, med, iqr in (
            ("voltage", med_v, iqr_v), ("capacity", med_q, iqr_q)
        ):
            if iqr == 0.0:
                raise DegenerateDataError(
                    f"{origin} {rec.cell_id}/{rec.cycle_index}: "
                    f"interquartile range is zero, cannot scale"
                )
            offsets.append(
                _offset(med, iqr, f"{origin} {rec.cell_id}/{rec.cycle_index}")
            )
    if 1 in groups:
        raise _short_cycle(cycles[groups[1][0]])
    offsets = np.reshape(offsets, (-1, 2))
    dv_max, dq_max, dvdq_max, cap_max = (np.empty(len(cycles)) for _ in range(4))
    clamped = np.empty(len(cycles), dtype=bool)
    for members, samples in zip(groups.values(), stacks):
        v = samples[:, :, VOLTAGE] - offsets[members, 0:1]
        q = samples[:, :, CAPACITY] - offsets[members, 1:2]
        (dv_max[members], dq_max[members], dvdq_max[members],
         clamped[members]) = _difference_features(v, q)
        cap_max[members] = samples[:, :, CAPACITY].max(axis=1)
    matrix, notes = _feature_table(cycles, dv_max, dq_max, dvdq_max, clamped)
    return matrix, notes, cap_max


def build_feature_matrix(
    cycles: Sequence[CycleRecord], recipe: str = "severson"
) -> tuple[FeatureMatrix, FeatureNotes]:
    """One-stop feature table for a cell under a named recipe.

    Every recipe starts from the per-cycle scaling and the difference
    features dv_max, dq_max, dvdq_max, then adds:

    - severson: their logs, then capacity_max;
    - tohoku: capacity_max and the normalized trend distance
      mahalanobis_norm over (cycle_index, capacity_max);
    - custom: capacity_max, then each log and the trend distance where
      they can be computed; the others are left out.
    """
    if recipe not in RECIPES:
        raise ConfigError(
            f"unknown recipe '{recipe}'; expected one of {list(RECIPES)}"
        )
    matrix, notes, cap_max = _cell_features(cycles)
    if recipe == "severson":
        _add_logs(matrix, notes, required=True)
    matrix.add_column("capacity_max", cap_max)
    if recipe == "custom":
        _add_logs(matrix, notes, required=False)
    if recipe != "severson":
        try:
            matrix.add_column(
                "mahalanobis_norm",
                mahalanobis_feature(matrix.cycle_index, cap_max),
            )
        except CycleScreenError:
            if recipe == "tohoku":
                raise
    return matrix, notes


def mahalanobis_feature(cycle_index, capacity_max) -> np.ndarray:
    """Normalized distance of each (cycle_index, capacity_max) pair from the
    cell's own trend cloud.

    Distances use the sample covariance of the two columns and are min-max
    normalized to [0, 1]; an all-equal distance vector maps to zeros.
    Arithmetic that overflows raises DegenerateDataError named
    mahalanobis_norm, by util.float_policy.
    """
    t = np.asarray(cycle_index, dtype=float)
    q = np.asarray(capacity_max, dtype=float)
    if t.shape != q.shape:
        raise InputError("cycle_index and capacity_max differ in length")
    if t.size < 3:
        raise InputError("need at least 3 cycles for the distance feature")
    X = np.column_stack([t, q])
    with float_policy("mahalanobis_norm"):
        mu = X.mean(axis=0)
        cov = np.cov(X, rowvar=False, ddof=1)
        chol = _cholesky_or_raise(cov, "covariance of (cycle_index, capacity_max)")
        centered = X - mu
        white = np.linalg.solve(chol, centered.T).T
        return normalize_scores(np.sqrt(np.sum(white**2, axis=1)))
