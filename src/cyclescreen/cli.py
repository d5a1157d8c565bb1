"""Command-line pipeline over the library.

Subcommands: ingest, features, detect, tune, evaluate, scoremap. Exit codes:
0 on success, 1 on validation/usage errors and out of memory, 2 on I/O
failures. Artifacts are written atomically (temp file + rename) and contain
no timestamps, so a rerun with the same inputs and seed is byte-identical.

Output layout under --out (default ./out):

    cycles.csv                     normalized measurements (ingest)
    <cell>/features.csv            feature table per cell (features)
    <cell>/feature_notes.txt       guard side channel per cell, including
                                   --log clamps (features, detect, scoremap,
                                   tune)
    <cell>/<model>/verdict.csv     one verdict file per cell and detector
    <cell>/<model>/grid.csv|.json  score surfaces (scoremap)
    tuning/<model>/trials.csv      trial history
    tuning/<model>/pareto.csv      non-dominated trials
    tuning/<model>/*.json          tuned configs
    report.csv, report.txt         evaluation summary

<cell> is the cell id when it matches [A-Za-z0-9._-]+ and is not ".", ".."
or "tuning"; any other id becomes the id with each other character made "_",
then "-" and the first 8 hex digits of the id's sha256. So every cell gets a
directory of its own inside --out, and tune a compromise_<cell>.json of its own.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import re
import sys

# OpenBLAS starts a worker thread as NumPy loads, unless told otherwise before
# the load. The CLI's matrices are a few columns wide and --jobs is its
# parallelism, so that thread is start-up cost alone; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import dist_detect, ml_detect
from .dataset import (
    CycleStore,
    check_delimiter,
    check_labels,
    export_cycles,
    format_table,
    ingest_cycles,
    open_text,
    read_labels,
    read_manifest,
    read_verdict_flags,
)
from .errors import ConfigError, CycleScreenError, EmptyFeatureError, InputError
from .evaluation import (
    DEFAULT_KPI, METRIC_NAMES, benchmark_report, check_kpi, confusion,
)
from .features import RECIPE_DEFAULTS, RECIPES, FeatureMatrix
# the traced benchmark run (perfbench/spans.py) wraps the three names below
# where cli looks them up, so mahalanobis_feature stays imported here though
# cli never calls it
from .features import build_feature_matrix, log_feature, mahalanobis_feature  # noqa: F401
from .ml_detect import make_config
from .ml_detect.params import DEFAULT_TRIALS, check_trials
from .stat_detect import (
    GAUSSIAN_MAD_FACTOR, StatMethod, check_mad_factor, detect_stat,
)
from .util import atomic_write_text, derive_seed

STAT_MODELS = tuple(m.value for m in StatMethod)
DIST_MODELS = dist_detect.METRIC_KINDS
ALL_MODELS = STAT_MODELS + DIST_MODELS + ml_detect.ML_MODELS


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _fmt(x) -> str:
    return repr(float(x))


def _cell_name(cell_id: str) -> str:
    """<cell> in the output layout: the id, or a sanitised id and digest."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", cell_id)
    if safe == cell_id and cell_id not in ("", ".", "..", "tuning"):
        return cell_id
    return f"{safe}-{hashlib.sha256(cell_id.encode('utf-8')).hexdigest()[:8]}"


def _parse_col_overrides(pairs) -> dict[str, str] | None:
    if not pairs:
        return None
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(
                f"--col expects role=name, got '{pair}'"
            )
        role, name = pair.split("=", 1)
        out[role.strip()] = name.strip()
    return out


def _load_store(args) -> CycleStore:
    return ingest_cycles(
        args.input,
        columns=_parse_col_overrides(args.col),
        delimiter=args.delimiter,
    )


# ---------------------------------------------------------------------------
# feature selection


def _selected_features(args, matrix: FeatureMatrix, notes, multivariate: bool):
    """Resolve --feature/--log against the recipe defaults.

    Returns (column names, column arrays) after any log transform, whose
    clamps go into notes. Stat detectors take the first column;
    distance/ML detectors take all. _check_options has refused a --feature
    that names no column or one twice, and --recipe custom without --feature.
    """
    if args.feature:
        requested = [f.strip() for f in args.feature.split(",") if f.strip()]
    else:
        stat_col, multi_cols = RECIPE_DEFAULTS[args.recipe]
        requested = list(multi_cols) if multivariate else [stat_col]
    names = []
    cols = []
    for name in requested:
        try:
            col = matrix.column(name)
        except KeyError as err:
            raise UsageError(err.args[0]) from None
        if args.log:
            raw = col
            name = f"log({name})"
            try:
                col, clamped = log_feature(raw)
            except EmptyFeatureError:
                raise EmptyFeatureError(
                    f"{name}: no positive entries for cell {notes.cell_id}"
                ) from None
            notes.record_log(name, matrix.cycle_index, raw, clamped)
        names.append(name)
        cols.append(col)
    return names, cols


# ---------------------------------------------------------------------------
# table rendering


def _write_table(path: str, header: str, *columns, comment=None) -> None:
    """Write dataset.format_table's text of the columns atomically."""
    atomic_write_text(path, format_table(header, *columns, comment=comment))


def _fit_score(args, cell_id, model, X, params=None):
    """Config, fitted model and raw scores on X of a learned model, seeded
    per cell and model from --seed."""
    config = make_config(
        model, params, seed=derive_seed(args.seed, cell_id, model)
    )
    fitted = ml_detect.fit(config, X)
    return config, fitted, ml_detect.score(fitted, X)


# ---------------------------------------------------------------------------
# the per-cell frame: each command runs its body on a cell through _run_cell
# and on each model through _run_models; bodies are top level, so a process
# pool can pickle them


def _run_cell(body, args, cell_id, records):
    """body(args, cell_id, matrix, notes, cell_dir) on the cell's feature
    table, built once. feature_notes.txt is written after the body, also
    when it fails on the data (a CycleScreenError) so the clamps behind the
    failure show, but not on a UsageError."""
    matrix, notes = build_feature_matrix(records, args.recipe)
    cell_dir = f"{args.out}/{_cell_name(cell_id)}"
    failure = None
    try:
        result = body(args, cell_id, matrix, notes, cell_dir)
    except CycleScreenError as err:
        failure = err
    atomic_write_text(f"{cell_dir}/feature_notes.txt", notes.render())
    if failure is not None:
        raise failure
    return result


def _run_models(args, cell_id, run_model) -> list:
    """run_model(model) for each of args.models in order; the first failure
    ends the loop as 'cell <id>, model <model>: <reason>', of its own class,
    with a leading '<model>: ' of the library's reason dropped."""
    results = []
    for model in args.models:
        try:
            results.append(run_model(model))
        except CycleScreenError as err:
            reason = str(err).removeprefix(f"{model}: ")
            raise type(err)(f"cell {cell_id}, model {model}: {reason}") from None
    return results


def _features_body(args, cell_id, matrix, notes, cell_dir) -> None:
    names = list(matrix.columns)
    _write_table(
        f"{cell_dir}/features.csv", ",".join(["cycle_index", *names]),
        matrix.cycle_index, *(matrix.columns[name] for name in names),
    )


def _stat_verdict(args, cell_id, model, names, cols):
    verdict = detect_stat(cols[0], model, mad_factor=args.mad_factor)
    lim = verdict.limits
    extra = (
        f" mad_factor={_fmt(lim.mad_factor)}" if lim.mad_factor is not None else ""
    )
    return (
        "cycle_index,score,flagged", (verdict.scores, verdict.flags),
        f"method={lim.method.value} feature={names[0]}"
        f" lower={_fmt(lim.lower)} upper={_fmt(lim.upper)}"
        f" center={_fmt(lim.center)} spread={_fmt(lim.spread)}{extra}",
    )


def _distance_verdict(args, cell_id, model, names, cols):
    verdict = dist_detect.centroid_detect(
        np.column_stack(cols), dist_detect.MetricSpec(model, args.p),
        mad_threshold=args.mad_threshold, mad_factor=args.mad_factor,
    )
    centroid = "|".join(_fmt(c) for c in verdict.centroid)
    return (
        "cycle_index,distance,normalized,flagged",
        (verdict.distances, verdict.normalized, verdict.flags),
        f"metric={model} features={'|'.join(names)}"
        f" centroid={centroid} cutoff={_fmt(verdict.cutoff)}"
        f" mad_threshold={_fmt(verdict.mad_threshold)}",
    )


def _learned_verdict(args, cell_id, model, names, cols):
    config, _fitted, raw = _fit_score(
        args, cell_id, model, np.column_stack(cols), args.params
    )
    probs = ml_detect.normalize_scores(raw)
    if args.contamination_threshold and "contamination" in config.params:
        flags = ml_detect.predict_top_fraction(raw, config.params["contamination"])
        mode = f"top_fraction={_fmt(config.params['contamination'])}"
    else:
        flags = ml_detect.predict_outliers(probs, args.threshold)
        mode = f"threshold={_fmt(args.threshold)}"
    return (
        "cycle_index,raw_score,probability,flagged", (raw, probs, flags),
        f"model={model} features={'|'.join(names)}"
        f" flags={mode} seed={config.seed}",
    )


#: each model's verdict: (header, columns after cycle_index, comment)
_VERDICTS = {
    **dict.fromkeys(STAT_MODELS, _stat_verdict),
    **dict.fromkeys(DIST_MODELS, _distance_verdict),
    **dict.fromkeys(ml_detect.ML_MODELS, _learned_verdict),
}


def _detect_body(args, cell_id, matrix, notes, cell_dir) -> None:
    # each family's columns are resolved once, when its first model runs;
    # distance and learned models share theirs
    picks = {}

    def verdict(model):
        multivariate = model not in STAT_MODELS
        if multivariate not in picks:
            picks[multivariate] = _selected_features(args, matrix, notes, multivariate)
        header, columns, comment = _VERDICTS[model](
            args, cell_id, model, *picks[multivariate]
        )
        _write_table(
            f"{cell_dir}/{model}/verdict.csv", header,
            matrix.cycle_index, *columns, comment=comment,
        )

    _run_models(args, cell_id, verdict)


def _scoremap_body(args, cell_id, matrix, notes, cell_dir) -> None:
    names, cols = _selected_features(args, matrix, notes, multivariate=True)
    X = np.column_stack(cols)
    if X.shape[1] != 2:
        raise UsageError(f"scoremap needs exactly 2 features, got {X.shape[1]}")
    res = args.resolution

    def score_map(model):
        if model in DIST_MODELS:
            metric = dist_detect.MetricSpec(model, args.p)
            grid = dist_detect.score_grid(X, metric, resolution=res)
            bounds, axes, values = grid.bounds, grid.axes, grid.values
            data_min, data_max = grid.data_min, grid.data_max
        else:
            bounds, axes, nodes = dist_detect.grid_nodes(X, res)
            _config, fitted, data_raw = _fit_score(args, cell_id, model, X)
            node_raw = ml_detect.score(fitted, nodes)
            values = ml_detect.normalize_scores(node_raw, reference=data_raw)
            values = values.reshape(res, res)
            data_min, data_max = float(data_raw.min()), float(data_raw.max())

        model_dir = f"{cell_dir}/{model}"
        _write_table(
            f"{model_dir}/grid.csv", f"{names[0]},{names[1]},score",
            np.repeat(axes[0], res), np.tile(axes[1], res), values.ravel(),
            comment=f"model={model} features={'|'.join(names)} resolution={res}",
        )
        sidecar = {
            "model": model,
            "features": list(names),
            "bounds": [list(b) for b in bounds],
            "resolution": [res, res],
            "data_min": data_min,
            "data_max": data_max,
        }
        atomic_write_text(
            f"{model_dir}/grid.json",
            json.dumps(sidecar, sort_keys=True, indent=2) + "\n",
        )

    _run_models(args, cell_id, score_map)


def _tune_body(args, cell_id, matrix, notes, cell_dir):
    """The cell's tuning on its selected columns: transfer's CellTuning, or
    proxy's ProxyResult after its compromise config is written."""
    # imported by tune's functions alone, so no other subcommand loads it
    from . import tune

    _names, cols = _selected_features(args, matrix, notes, multivariate=True)
    X = np.column_stack(cols)
    space = tune.default_search_space(args.model, n_features=X.shape[1])
    if args.strategy == "transfer":
        truth = np.isin(matrix.cycle_index, sorted(args.label_map[cell_id]))
        (result,) = _run_models(args, cell_id, lambda model: tune.transfer_cell(
            cell_id, X, truth, model, space, args.trials, args.seed, args.threshold
        ))
        return result
    (result,) = _run_models(args, cell_id, lambda model: tune.optimize_proxy(
        matrix.cycle_index, X, model, space=space, n_trials=args.trials,
        seed=derive_seed(args.seed, cell_id), threshold=args.threshold,
    ))
    atomic_write_text(
        f"{args.out}/tuning/{args.model}/compromise_{_cell_name(cell_id)}.json",
        _config_json(result.compromise),
    )
    return result


def _map_cells(body, args, store: CycleStore, cells) -> list:
    """body's result on each of cells through _run_cell, in cell order, over
    --jobs processes, never more than there are cells, when there is more
    than one cell: a forking pool starts all its workers at the first
    submit."""
    if args.jobs <= 1 or len(cells) <= 1:
        return [_run_cell(body, args, cell, store.by_cell(cell)) for cell in cells]
    # imported here, so a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(args.jobs, len(cells))) as pool:
        n = len(cells)
        records = [store.by_cell(cell) for cell in cells]
        return list(pool.map(_run_cell, [body] * n, [args] * n, cells, records))


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_ingest(args) -> int:
    store = _load_store(args)
    export_cycles(store, f"{args.out}/cycles.csv")
    sys.stdout.write(
        f"ingested {len(store)} cycles across {len(store.cells())} cells -> "
        f"{args.out}/cycles.csv\n"
    )
    return 0


def _cmd_features(args) -> int:
    store = _load_store(args)
    cells = store.cells()
    _map_cells(_features_body, args, store, cells)
    sys.stdout.write(f"wrote features for {len(cells)} cells under {args.out}\n")
    return 0


def _resolve_models(token: str) -> tuple[str, ...]:
    if token == "all":
        return ALL_MODELS
    if token not in ALL_MODELS:
        raise UsageError(
            f"unknown model '{token}'; expected 'all' or one of {list(ALL_MODELS)}"
        )
    return (token,)


def _read_config(path: str, model: str) -> tuple[dict, int | None]:
    """(params, seed) from a config file as written by tune, as make_config
    resolves them; seed is None when the file gives none."""
    with open_text(path) as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except ValueError as err:
        raise UsageError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise UsageError(
            f"{path}: expected a JSON object, got {type(payload).__name__}"
        )
    if payload.get("model") != model:
        raise UsageError(
            f"{path}: config is for model '{payload.get('model')}', "
            f"not '{model}'"
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise UsageError(f"{path}: 'params' must be a JSON object")
    seed = payload.get("seed")
    try:
        config = make_config(model, params, seed=0 if seed is None else seed)
    except ConfigError as err:
        raise UsageError(f"{path}: {err}") from None
    return config.params, seed


def _cmd_detect(args) -> int:
    args.models = _resolve_models(args.model)
    args.params = None
    if args.config:
        if len(args.models) != 1 or args.models[0] not in ml_detect.ML_MODELS:
            raise UsageError(
                "--config applies to a single learned model"
            )
        args.params, seed = _read_config(args.config, args.models[0])
        if seed is not None:  # a replayed config's seed replaces --seed
            args.seed = seed
    store = _load_store(args)
    cells = store.cells()
    _map_cells(_detect_body, args, store, cells)
    sys.stdout.write(
        f"wrote {len(args.models)} verdict(s) for {len(cells)} cells "
        f"under {args.out}\n"
    )
    return 0


def _trial_row(cell_id, trial, param_names) -> list[str]:
    row = [cell_id, str(trial.trial_id)]
    for name in param_names:
        value = trial.config.params[name]
        if isinstance(value, (tuple, list)):
            value = "x".join(str(v) for v in value)
        row.append(str(value))
    return [*row, *map(_fmt, trial.objectives), trial.objective_kind]


def _write_trials(tuning_dir, model, per_cell) -> None:
    """trials.csv and pareto.csv from {cell_id: result with trials and front}."""
    from . import tune

    param_names = sorted(tune.default_search_space(model).params)
    header = ",".join(
        ["cell_id", "trial_id", *param_names, "objective_1", "objective_2", "kind"]
    )
    for name, part in (("trials", "trials"), ("pareto", "front")):
        rows = [
            _trial_row(cell, t, param_names)
            for cell, result in sorted(per_cell.items())
            for t in getattr(result, part)
        ]
        _write_table(f"{tuning_dir}/{name}.csv", header, *zip(*rows))


def _config_json(config) -> str:
    # json writes a tuple param (a layer list) as a list
    payload = {"model": config.model, "params": config.params, "seed": config.seed}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_tune(args) -> int:
    from . import tune

    if args.model not in ml_detect.ML_MODELS:
        raise UsageError(
            f"tuning applies to learned models {list(ml_detect.ML_MODELS)}"
        )
    transfer = args.strategy == "transfer"
    if transfer and not args.labels:
        raise UsageError("--strategy transfer requires --labels")
    store = _load_store(args)
    labels = read_labels(args.labels, args.delimiter) if args.labels else {}
    for cell, truth in sorted(labels.items()):
        known = [r.cycle_index for r in store.by_cell(cell)]
        check_labels(args.labels, cell, truth, known)
    cells = store.cells()
    if args.manifest:
        # transfer fits on the manifest's train cells, proxy on its test cells
        train, test = read_manifest(args.manifest, args.delimiter)
        missing = (train | test).difference(cells)
        if missing:
            raise InputError(
                f"{args.manifest}: manifest cells not in store: {sorted(missing)}"
            )
        role = train if transfer else test
        cells = [cell for cell in cells if cell in role]
    if transfer:
        cells = [cell for cell in cells if cell in labels]
    if not cells:
        raise UsageError(
            "no labeled train cells to tune on" if transfer else "no cells to tune on"
        )
    args.label_map = labels
    args.models = (args.model,)
    per_cell = dict(zip(cells, _map_cells(_tune_body, args, store, cells)))
    tuning_dir = f"{args.out}/tuning/{args.model}"

    if transfer:
        aggregated = tune.aggregate_configs(
            [per_cell[cell].best.config for cell in sorted(per_cell)]
        )
        atomic_write_text(f"{tuning_dir}/config.json", _config_json(aggregated))
        fractions = ", ".join(
            f"{cell}={per_cell[cell].perfect_recall_fraction:.2f}"
            for cell in sorted(per_cell)
        )
        summary = (
            f"transfer tuning of {args.model} on {len(cells)} cells done; "
            f"perfect-recall fraction per cell: {fractions}"
        )
    else:
        summary = f"proxy tuning of {args.model} done for {len(cells)} cells"
    _write_trials(tuning_dir, args.model, per_cell)
    sys.stdout.write(summary + "\n")
    return 0


def _cmd_evaluate(args) -> int:
    if not args.labels:
        raise UsageError("evaluate requires --labels")
    if not os.path.isdir(args.input):  # an i/o error, as a missing file is
        raise FileNotFoundError(errno.ENOENT, "no such directory", args.input)
    label_map = read_labels(args.labels, args.delimiter)
    per_model: dict[str, dict[str, object]] = {}
    for cell, truth in sorted(label_map.items()):
        cell_dir = os.path.join(args.input, _cell_name(cell))
        if not os.path.isdir(cell_dir):
            continue
        for model_name in sorted(os.listdir(cell_dir)):
            verdict_path = os.path.join(cell_dir, model_name, "verdict.csv")
            if not os.path.isfile(verdict_path):
                continue
            flags = read_verdict_flags(verdict_path)
            check_labels(args.labels, cell, truth, flags, f" in {verdict_path}")
            y = [c in truth for c in flags]
            counts = confusion(np.asarray(y), np.asarray(list(flags.values())))
            per_model.setdefault(model_name, {})[cell] = counts
    if not per_model:
        raise UsageError(
            f"no verdicts for labeled cells found under '{args.input}'"
        )
    rows = []
    txt_lines = []
    for model_name in sorted(per_model):
        report = benchmark_report(per_model[model_name], kpi=args.kpi)
        txt_lines.append(f"model {model_name} (kpi {args.kpi:g})")
        for cell in sorted(report.per_cell):
            scores = report.per_cell[cell].as_dict()
            line = " ".join(f"{name}={scores[name]:.4f}" for name in METRIC_NAMES)
            txt_lines.append(f"  cell {cell}: {line}")
        for name in METRIC_NAMES:
            value = report.macro.as_dict()[name]
            passed = report.passes[name]
            rows.append((model_name, name, value, passed))
            txt_lines.append(
                f"  macro {name}: {value:.4f} {'PASS' if passed else 'FAIL'}"
            )
    _write_table(f"{args.out}/report.csv", "model,metric,value,passed", *zip(*rows))
    atomic_write_text(f"{args.out}/report.txt", "\n".join(txt_lines) + "\n")
    sys.stdout.write("\n".join(txt_lines) + "\n")
    left_out = ", ".join(sorted(set(label_map).difference(*per_model.values())))
    if left_out:
        sys.stderr.write(f"note: no verdicts under '{args.input}' for labeled cells "
                         f"{left_out}; they are left out of the report\n")
    return 0


def _cmd_scoremap(args) -> int:
    args.models = (
        DIST_MODELS + ml_detect.ML_MODELS
        if args.model == "all"
        else _resolve_models(args.model)
    )
    for model in args.models:
        if model in STAT_MODELS:
            raise UsageError(
                f"scoremap needs a distance or learned model, not '{model}'"
            )
    store = _load_store(args)
    cells = store.cells()
    _map_cells(_scoremap_body, args, store, cells)
    sys.stdout.write(
        f"wrote {len(cells) * len(args.models)} score grid(s) under {args.out}\n"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_files(sub, input_help="measurement file"):
    sub.add_argument("--input", required=True, help=input_help)
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument(
        "--delimiter", default=",",
        help="field delimiter of the measurement, label and manifest files",
    )


def _add_input(sub, recipe=False, columns=False):
    """The measurement input; recipe adds --recipe, columns --feature --log --seed."""
    _add_files(sub)
    sub.add_argument(
        "--col", action="append", default=None, metavar="ROLE=NAME",
        help="remap an input column, e.g. --col voltage=U_volts",
    )
    sub.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes across cells (features, detect, scoremap and tune)",
    )
    if recipe:
        sub.add_argument(
            "--recipe", choices=RECIPES, default="severson",
            help="feature recipe (default severson)",
        )
    if columns:
        sub.add_argument(
            "--feature", default=None,
            help="comma-separated feature columns overriding the recipe default",
        )
        sub.add_argument(
            "--log", action="store_true",
            help="natural-log the selected feature columns",
        )
        sub.add_argument("--seed", type=int, default=0, help="base random seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclescreen", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    minkowski_p = 0.5  # detect's and scoremap's --p

    p = subs.add_parser("ingest", help="validate and normalize a measurement file")
    _add_input(p)

    p = subs.add_parser("features", help="write per-cell feature tables")
    _add_input(p, recipe=True)

    p = subs.add_parser("detect", help="run detectors and write verdicts")
    _add_input(p, recipe=True, columns=True)
    p.add_argument(
        "--model", default="all",
        help="detector name or 'all' (default) for the full battery of "
             f"{len(ALL_MODELS)}",
    )
    p.add_argument(
        "--threshold", type=float, default=ml_detect.DEFAULT_PROBABILITY_THRESHOLD,
        help="outlier probability threshold for learned models (default %(default)s)",
    )
    p.add_argument(
        "--mad-factor", type=float, default=GAUSSIAN_MAD_FACTOR,
        help="consistency factor for MAD-based rules",
    )
    p.add_argument(
        "--mad-threshold", type=float, default=dist_detect.DEFAULT_MAD_THRESHOLD,
        help="MAD multiplier for distance-detector flags (default %(default)g)",
    )
    p.add_argument(
        "--p", type=float, default=minkowski_p,
        help="minkowski exponent (default %(default)g)",
    )
    p.add_argument(
        "--contamination-threshold", action="store_true",
        help="flag the top contamination-fraction instead of using the "
             "probability threshold (models exposing a contamination param)",
    )
    p.add_argument(
        "--config", default=None,
        help="JSON config file (as written by tune) for a single learned model",
    )

    p = subs.add_parser("tune", help="hyperparameter search for a learned model")
    _add_input(p, recipe=True, columns=True)
    p.add_argument("--labels", default=None, help="label file (anomalous cycles)")
    p.add_argument("--manifest", default=None, help="cell role manifest")
    p.add_argument("--model", required=True, help="learned model to tune")
    p.add_argument(
        "--strategy", choices=("transfer", "proxy"), default="transfer",
        help="transfer (labeled cells) or proxy (label-free)",
    )
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help="trial budget per cell")
    p.add_argument(
        "--threshold", type=float, default=ml_detect.DEFAULT_PROBABILITY_THRESHOLD,
        help="probability threshold used inside trial evaluation",
    )

    p = subs.add_parser("evaluate", help="score verdicts against labels")
    _add_files(p, input_help="run directory holding detect's verdicts")
    p.add_argument("--labels", default=None, help="label file (anomalous cycles)")
    p.add_argument(
        "--kpi", type=float, default=DEFAULT_KPI,
        help="macro metric pass threshold (default %(default)g)",
    )

    p = subs.add_parser("scoremap", help="export score surfaces for plots")
    _add_input(p, recipe=True, columns=True)
    p.add_argument(
        "--model", default="all",
        help="distance or learned model, or 'all'",
    )
    p.add_argument(
        "--resolution", type=int, default=dist_detect.DEFAULT_RESOLUTION,
        help="grid resolution per axis (default %(default)s)",
    )
    p.add_argument("--p", type=float, default=minkowski_p, help="minkowski exponent")

    return parser


_COMMANDS = {
    "ingest": _cmd_ingest,
    "features": _cmd_features,
    "detect": _cmd_detect,
    "tune": _cmd_tune,
    "evaluate": _cmd_evaluate,
    "scoremap": _cmd_scoremap,
}


def _check_options(args) -> None:
    """Refuse a bad option value before any file is read or written: by the
    check of the library function that reads the option, as
    '--<option>: <its reason>', and --jobs, --feature and --recipe custom,
    which only the CLI reads."""
    if getattr(args, "jobs", 1) < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs!r}")
    if hasattr(args, "feature"):  # the commands that select feature columns
        names = [f.strip() for f in (args.feature or "").split(",") if f.strip()]
        if args.feature and not names:
            raise UsageError("--feature was given but names no columns")
        if not args.feature and args.recipe == "custom":
            raise UsageError("--recipe custom needs an explicit --feature list")
        twice = [name for i, name in enumerate(names) if name in names[:i]]
        if twice:
            raise UsageError(f"--feature names '{twice[0]}' twice")
    for name, check in (
        ("delimiter", check_delimiter),
        ("trials", check_trials),
        ("mad_factor", check_mad_factor),
        ("mad_threshold", dist_detect.check_mad_threshold),
        ("kpi", check_kpi),
        ("resolution", dist_detect.check_resolution),
        ("threshold", ml_detect.check_threshold),
        ("p", lambda p: dist_detect.MetricSpec("minkowski", p=p)),
    ):
        if hasattr(args, name):
            try:
                check(getattr(args, name))
            except CycleScreenError as err:  # the library's own refusal
                option = name.replace("_", "-")
                raise UsageError(f"--{option}: {err}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_options(args)
        return _COMMANDS[args.command](args)
    except (UsageError, CycleScreenError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except MemoryError as err:  # also one a --jobs worker raised
        sys.stderr.write(f"error: out of memory{f': {err}' if str(err) else ''}\n")
        return 1
    except OSError as err:
        sys.stderr.write(f"i/o error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
