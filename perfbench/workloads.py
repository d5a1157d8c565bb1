"""Benchmark workloads: seeded synthetic inputs, the CLI steps run on them,
and the checks each step's outputs must pass.

Every workload writes its inputs with `cyclescreen.synth` during set-up; the
program under test only ever sees the generated CSV files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

STAT_MODELS = ("sd", "zscore", "mad", "mod_zscore", "iqr")
DIST_MODELS = ("euclidean", "manhattan", "minkowski", "mahalanobis")
ML_MODELS = ("iforest", "knn", "gmm", "lof", "pca", "autoencoder")
ALL_MODELS = STAT_MODELS + DIST_MODELS + ML_MODELS
GRID_MODELS = DIST_MODELS + ML_MODELS
FEATURE_ARGS = ("--recipe", "custom", "--feature", "dv_max,dq_max")
TUNE_TRIALS = 20
#: trials tune runs per cell: a search space with fewer points than the
#: budget is enumerated instead (pca's n_components is 1 or 2 here)
EXPECTED_TRIALS = {model: TUNE_TRIALS for model in ML_MODELS} | {"pca": 2}
GRID_RESOLUTION = 50


@dataclass(frozen=True)
class Workload:
    name: str
    n_cells: int
    n_cycles: int
    samples_per_cycle: int
    steps: tuple[str, ...]
    #: about how long one pass of the steps takes on a shared 2-vCPU host
    pass_seconds: float
    #: cycles of the one unlabelled cell the tune steps run on (0: no tune steps)
    tune_cycles: int = 0

    def passes(self, seconds: float, least: int) -> int:
        """Passes a run of this many seconds makes: a count fixed by the
        arguments, not by how fast the passes happen to go, so that runs,
        and the commits they compare, take their fastest pass among equally
        many."""
        return max(least, int(seconds // self.pass_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        # Many short-lived, densely sampled labelled cells: CSV parsing,
        # per-cycle features, interpreter start-up and ~130 verdict/feature
        # file writes carry the run; every subcommand re-ingests the file.
        Workload(
            "fleet_screen", 8, 80, 64,
            ("ingest", "features", "detect", "evaluate"),
            pass_seconds=8,
        ),
        # Single-cell paths. One long labelled cell: iforest and the
        # (n, m, d) pairwise tensor behind knn/lof dominate detect and peak
        # memory; scoremap scores 2500 off-sample grid nodes per model,
        # exercising score apart from fit. Then proxy tuning of the 6
        # learned models on a short unlabelled cell: ~100 fits of varying
        # configs on one small matrix, TPE proposals and the regression
        # proxy, which run nowhere else.
        Workload(
            "long_cell", 1, 500, 16,
            ("detect", "evaluate", "scoremap", *(f"tune:{model}" for model in ML_MODELS)),
            pass_seconds=24, tune_cycles=40,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    measurements: str
    labels: str | None
    cells: tuple[str, ...]
    n_cycles: int
    rows: int
    #: the unlabelled input of the tune steps, if the workload has any
    tune: Inputs | None = None

    @property
    def total_cycles(self) -> int:
        own = len(self.cells) * self.n_cycles
        return own + (self.tune.total_cycles if self.tune else 0)


def _write_cells(rng, prefix, n_cells, n, samples_per_cycle, measurements, labels):
    """Write n_cells seeded cells of n cycles; returns their Inputs.

    Each cell gets point anomalies on voltage and collective anomalies on
    both channels at seeded cycles.
    """
    # from the checkout under test, which the caller puts on sys.path
    from cyclescreen.synth import AnomalySpec, generate_cell, write_dataset

    k = max(2, n // 50)
    cells = {}
    for i in range(n_cells):
        cell_id = f"{prefix}-{i:02d}"
        picks = rng.choice(np.arange(1, n - 1), size=2 * k, replace=False)
        anomalies = (
            AnomalySpec("point", tuple(int(c) for c in picks[:k]),
                        float(rng.uniform(0.25, 0.45))),
            AnomalySpec("collective", tuple(int(c) for c in picks[k:]),
                        float(rng.uniform(0.2, 0.35)), channel="both"),
        )
        cells[cell_id] = generate_cell(
            n, samples_per_cycle=samples_per_cycle, anomalies=anomalies,
            seed=int(rng.integers(2**31)), cell_id=cell_id,
        )
    write_dataset(cells, measurements, labels)
    return Inputs(
        measurements=measurements,
        labels=labels,
        cells=tuple(sorted(cells)),
        n_cycles=n,
        rows=n_cells * n * samples_per_cycle,
    )


def generate(workload: Workload, seed: int, data_dir: str) -> Inputs:
    """Write the workload's measurement and label files for this seed, and
    the tune steps' unlabelled file; the same seed gives the same files."""
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, index])
    os.makedirs(data_dir, exist_ok=True)
    tune = None
    if workload.tune_cycles:
        tune = _write_cells(
            rng, "tune", 1, workload.tune_cycles, workload.samples_per_cycle,
            os.path.join(data_dir, "tune.csv"), None,
        )
    inputs = _write_cells(
        rng, "cell", workload.n_cells, workload.n_cycles, workload.samples_per_cycle,
        os.path.join(data_dir, "measurements.csv"), os.path.join(data_dir, "labels.csv"),
    )
    return dataclasses.replace(inputs, tune=tune)


def step_argv(step: str, inputs: Inputs, out: str) -> list[str]:
    """Arguments of `cyclescreen` for one step, always with --jobs 1."""
    data = ["--input", inputs.measurements, "--out", out, "--jobs", "1"]
    if step == "ingest":
        return ["ingest", *data]
    if step == "features":
        return ["features", *data, "--recipe", "custom"]
    if step == "detect":
        return ["detect", *data, "--model", "all", *FEATURE_ARGS]
    if step == "evaluate":
        return ["evaluate", "--input", out, "--labels", inputs.labels, "--out", out]
    if step == "scoremap":
        return ["scoremap", *data, "--model", "all", *FEATURE_ARGS]
    model = step.split(":", 1)[1]
    return [
        "tune", "--input", inputs.tune.measurements, "--out", out, "--jobs", "1",
        "--model", model, "--strategy", "proxy",
        "--trials", str(TUNE_TRIALS), *FEATURE_ARGS,
    ]


def metric_of(step: str) -> str:
    """End-to-end metric a step's wall time adds to; tune steps share one."""
    return step.split(":")[0] + "_s"


# ---------------------------------------------------------------------------
# output checks


def _table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV output, skipping '#' comment lines."""
    with open(path, encoding="utf-8") as handle:
        lines = [
            line.rstrip("\n") for line in handle
            if line.strip() and not line.startswith("#")
        ]
    if not lines:
        raise ValueError(f"{path}: no header")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _finite(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


def _check_cycles(path: str, rows, n_cycles: int) -> list[str]:
    got = sorted(int(r[0]) for r in rows)
    if got != list(range(n_cycles)):
        return [f"{path}: {len(got)} rows, expected cycles 0..{n_cycles - 1}"]
    return []


def _check_verdict(path: str, n_cycles: int) -> list[str]:
    header, rows = _table(path)
    problems = _check_cycles(path, rows, n_cycles)
    flag_col = header.index("flagged")
    for r in rows:
        if r[flag_col] not in ("0", "1"):
            problems.append(f"{path}: flag {r[flag_col]!r} not in {{0, 1}}")
            break
        if not all(_finite(v) for j, v in enumerate(r) if j not in (0, flag_col)):
            problems.append(f"{path}: non-finite score in row {r}")
            break
    return problems


def check_step(step: str, inputs: Inputs, out: str) -> list[str]:
    """Problems found in the outputs a step wrote; empty when all is well."""
    try:
        return _check_step(step, inputs, out)
    except (OSError, ValueError, IndexError, KeyError) as err:
        return [f"{step}: unreadable output: {err}"]


def _check_step(step: str, inputs: Inputs, out: str) -> list[str]:
    problems = []
    if step == "ingest":
        _, rows = _table(os.path.join(out, "cycles.csv"))
        if len(rows) != inputs.rows:
            problems.append(f"cycles.csv: {len(rows)} rows, expected {inputs.rows}")
    elif step == "features":
        for cell in inputs.cells:
            path = os.path.join(out, cell, "features.csv")
            _, rows = _table(path)
            problems += _check_cycles(path, rows, inputs.n_cycles)
            if not os.path.isfile(os.path.join(out, cell, "feature_notes.txt")):
                problems.append(f"{cell}: feature_notes.txt missing")
    elif step == "detect":
        for cell in inputs.cells:
            for model in ALL_MODELS:
                problems += _check_verdict(
                    os.path.join(out, cell, model, "verdict.csv"), inputs.n_cycles
                )
    elif step == "evaluate":
        _, rows = _table(os.path.join(out, "report.csv"))
        models = {r[0] for r in rows}
        if models != set(ALL_MODELS) or len(rows) != 5 * len(ALL_MODELS):
            problems.append(f"report.csv: {len(rows)} rows for models {sorted(models)}")
        if not all(_finite(r[2]) and r[3] in ("0", "1") for r in rows):
            problems.append("report.csv: non-finite value or bad passed flag")
    elif step == "scoremap":
        for cell in inputs.cells:
            for model in GRID_MODELS:
                path = os.path.join(out, cell, model, "grid.csv")
                _, rows = _table(path)
                if len(rows) != GRID_RESOLUTION**2:
                    problems.append(f"{path}: {len(rows)} nodes")
                elif not all(_finite(v) for r in rows for v in r):
                    problems.append(f"{path}: non-finite grid value")
                with open(os.path.join(out, cell, model, "grid.json"), encoding="utf-8") as f:
                    json.load(f)
    else:
        model = step.split(":", 1)[1]
        tuning = os.path.join(out, "tuning", model)
        _, rows = _table(os.path.join(tuning, "trials.csv"))
        for cell in inputs.tune.cells:
            n = sum(1 for r in rows if r[0] == cell)
            if n != EXPECTED_TRIALS[model]:
                problems.append(f"{model} trials.csv: {n} rows for {cell}")
            if not os.path.isfile(os.path.join(tuning, f"compromise_{cell}.json")):
                problems.append(f"{model}: compromise_{cell}.json missing")
    return problems


def mean_macro_f1(out: str) -> float:
    """Mean over detectors of the macro F1 in report.csv."""
    _, rows = _table(os.path.join(out, "report.csv"))
    values = [float(r[2]) for r in rows if r[1] == "f1"]
    return sum(values) / len(values)


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and contents of every file under root."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()
