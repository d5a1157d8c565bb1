import argparse
import csv
import errno
import filecmp
import hashlib
import json
import os
from pathlib import Path

import pytest

from cyclescreen import cli, errors, ml_detect
from cyclescreen.cli import ALL_MODELS, build_parser, main
from cyclescreen.synth import AnomalySpec, FadeModel, generate_cell, write_dataset

FEATURES = "dv_max,dq_max"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    cells = {
        "cellA": generate_cell(
            50, samples_per_cycle=32, seed=11, cell_id="cellA",
            anomalies=(AnomalySpec("point", (10, 30), 0.4),),
        ),
        "cellB": generate_cell(
            50, samples_per_cycle=32, seed=22, cell_id="cellB",
            anomalies=(AnomalySpec("collective", (20,), 0.3),),
        ),
    }
    meas = root / "meas.csv"
    labels = root / "labels.csv"
    write_dataset(cells, str(meas), str(labels))
    manifest = root / "manifest.csv"
    manifest.write_text("cell_id,role\ncellA,train\ncellB,test\n")
    return {"meas": str(meas), "labels": str(labels), "manifest": str(manifest)}


def run(*argv):
    return main(list(argv))


def tree_bytes(root):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def test_ingest(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run("ingest", "--input", dataset["meas"], "--out", str(out))
    assert rc == 0
    assert (out / "cycles.csv").is_file()
    assert "100 cycles across 2 cells" in capsys.readouterr().out


def test_features(dataset, tmp_path):
    out = tmp_path / "out"
    rc = run(
        "features", "--input", dataset["meas"], "--out", str(out),
        "--recipe", "custom",
    )
    assert rc == 0
    for cell in ("cellA", "cellB"):
        table = (out / cell / "features.csv").read_text()
        header = table.splitlines()[0]
        assert "dv_max" in header and "dq_max" in header
        assert (out / cell / "feature_notes.txt").is_file()


RECIPE_HEADERS = {
    "severson": "cycle_index,dv_max,dq_max,dvdq_max,"
                "log_dv_max,log_dq_max,log_dvdq_max,capacity_max",
    "tohoku": "cycle_index,dv_max,dq_max,dvdq_max,capacity_max,mahalanobis_norm",
    "custom": "cycle_index,dv_max,dq_max,dvdq_max,capacity_max,"
              "log_dv_max,log_dq_max,log_dvdq_max,mahalanobis_norm",
}


@pytest.mark.parametrize("recipe", sorted(RECIPE_HEADERS))
def test_features_header_per_recipe(dataset, tmp_path, recipe):
    out = tmp_path / "out"
    rc = run(
        "features", "--input", dataset["meas"], "--out", str(out),
        "--recipe", recipe,
    )
    assert rc == 0
    for cell in ("cellA", "cellB"):
        header = (out / cell / "features.csv").read_text().splitlines()[0]
        assert header == RECIPE_HEADERS[recipe]


def test_detect_records_log_clamps_when_a_detector_fails(
    dataset, tmp_path, capsys
):
    # log(dv_max) floors most of cellA's cycles, so mad sees a zero spread
    out = tmp_path / "out"
    rc = run(
        "detect", "--input", dataset["meas"], "--out", str(out),
        "--recipe", "custom", "--feature", FEATURES, "--log", "--model", "all",
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cell cellA, model mad: ")
    assert "Traceback" not in err
    notes = (out / "cellA" / "feature_notes.txt").read_text().splitlines()
    assert notes[0] == "cell cellA"
    logged = [line.split()[1] for line in notes if " log(dv_max) " in line]
    assert len(logged) > 25
    assert len(logged) == len(set(logged))  # the stat models share one entry


def test_detect_writes_the_same_feature_notes_as_features(dataset, tmp_path):
    for command, argv in (
        ("features", ()), ("detect", ("--feature", FEATURES, "--model", "sd"))
    ):
        rc = run(
            command, "--input", dataset["meas"], "--out", str(tmp_path / command),
            "--recipe", "custom", *argv,
        )
        assert rc == 0
    for cell in ("cellA", "cellB"):
        notes = (tmp_path / "detect" / cell / "feature_notes.txt").read_text()
        assert notes.startswith(f"cell {cell}\n")
        assert notes == (tmp_path / "features" / cell / "feature_notes.txt").read_text()


def test_scoremap_writes_the_same_feature_notes_as_detect(dataset, tmp_path):
    common = (
        "--input", dataset["meas"], "--recipe", "custom", "--feature", FEATURES,
        "--log", "--model", "euclidean",
    )
    assert run("detect", *common, "--out", str(tmp_path / "detect")) == 0
    assert run(
        "scoremap", *common, "--out", str(tmp_path / "scoremap"), "--resolution", "5"
    ) == 0
    for cell in ("cellA", "cellB"):
        notes = (tmp_path / "scoremap" / cell / "feature_notes.txt").read_text()
        assert " log(dv_max) " in notes
        assert notes == (tmp_path / "detect" / cell / "feature_notes.txt").read_text()


@pytest.mark.parametrize("strategy", ["proxy", "transfer"])
def test_tune_writes_the_same_feature_notes_as_detect(dataset, tmp_path, strategy):
    common = (
        "--input", dataset["meas"], "--recipe", "custom", "--feature", FEATURES,
        "--log",
    )
    labels = ("--labels", dataset["labels"]) if strategy == "transfer" else ()
    assert run(
        "detect", *common, "--model", "euclidean", "--out", str(tmp_path / "detect")
    ) == 0
    assert run(
        "tune", *common, "--model", "knn", "--strategy", strategy, *labels,
        "--trials", "2", "--out", str(tmp_path / "tune"),
    ) == 0
    for cell in ("cellA", "cellB"):
        notes = (tmp_path / "tune" / cell / "feature_notes.txt").read_text()
        assert " log(dv_max) " in notes
        assert notes == (tmp_path / "detect" / cell / "feature_notes.txt").read_text()


@pytest.mark.parametrize("token", ["9007199254740992", "9007199254740993", "1e20"])
@pytest.mark.parametrize("source", ["file", "pipe"])
def test_a_cycle_index_float64_cannot_hold_is_refused(
    tmp_path, child_env, token, source
):
    # float64 reads 2**53 and 2**53 + 1 as one number, so two such cycles
    # would merge into one, and 1e20 would overflow a C long in features
    import subprocess
    import sys

    path = tmp_path / "m.csv"
    path.write_text(
        "cell_id,cycle_index,time_s,voltage_v,capacity_ah\n"
        + "".join(f"A,{c},{t}.0,4.0,0.{t}\n" for c in ("0", token) for t in range(3))
    )
    name = str(path) if source == "file" else "/dev/stdin"
    result = subprocess.run(
        [sys.executable, "-m", "cyclescreen.cli", "ingest", "--input", name,
         "--out", str(tmp_path / "out")],
        input=path.read_text(), capture_output=True, text=True, env=child_env,
    )
    assert result.returncode == 1, result.stdout
    assert result.stderr == (
        f"error: {name}: row 5: cycle_index value '{token}' is out of range\n"
    )
    assert not (tmp_path / "out").exists()


def test_non_finite_measurement_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text(
        "cell_id,cycle_index,time_s,voltage_v,capacity_ah\n"
        "A,0,0.0,4.0,0.0\nA,0,0.1,nan,0.1\n"
    )
    rc = run("detect", "--input", str(path), "--out", str(tmp_path / "out"),
             "--model", "mad")
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: row 3: voltage value 'nan' is not finite\n"


def test_detect_all_models_and_flags(dataset, tmp_path):
    out = tmp_path / "out"
    rc = run(
        "detect", "--input", dataset["meas"], "--out", str(out),
        "--recipe", "custom", "--feature", FEATURES,
    )
    assert rc == 0
    for cell in ("cellA", "cellB"):
        for model in ALL_MODELS:
            assert (out / cell / model / "verdict.csv").is_file()
    # a point spike disturbs consecutive voltage differences, so the robust
    # univariate rules on dv_max must catch both planted cycles of cellA
    text = (out / "cellA" / "iqr" / "verdict.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# method=iqr feature=dv_max")
    assert lines[1] == "cycle_index,score,flagged"
    flagged = {
        int(row.split(",")[0]) for row in lines[2:] if row.split(",")[2] == "1"
    }
    assert {10, 30} <= flagged
    ml = (out / "cellA" / "iforest" / "verdict.csv").read_text().splitlines()
    assert ml[0].startswith("# model=iforest features=dv_max|dq_max")
    assert "threshold=0.7" in ml[0]


def test_detect_single_model_and_contamination(dataset, tmp_path):
    out = tmp_path / "out"
    rc = run(
        "detect", "--input", dataset["meas"], "--out", str(out),
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "iforest", "--contamination-threshold",
    )
    assert rc == 0
    header = (out / "cellA" / "iforest" / "verdict.csv").read_text().splitlines()[0]
    assert "top_fraction=" in header


def test_exit_codes(dataset, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run("detect", "--input", dataset["meas"], "--out", out,
               "--model", "nosuch") == 1
    assert "unknown model 'nosuch'" in capsys.readouterr().err
    assert run("ingest", "--input", str(tmp_path / "absent.csv"), "--out", out) == 2
    assert "i/o error" in capsys.readouterr().err
    assert run("evaluate", "--input", out, "--out", out) == 1
    assert "requires --labels" in capsys.readouterr().err
    assert run("ingest", "--input", dataset["meas"], "--out", out,
               "--col", "novalue") == 1
    assert run("detect", "--input", dataset["meas"], "--out", out,
               "--recipe", "custom") == 1
    assert "--feature" in capsys.readouterr().err
    assert run("detect", "--input", dataset["meas"], "--out", out,
               "--recipe", "custom", "--feature", "nosuch") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown feature column 'nosuch'; have [")


def test_detect_rerun_is_byte_identical(dataset, tmp_path):
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        for model in ("zscore", "euclidean", "iforest", "gmm"):
            rc = run(
                "detect", "--input", dataset["meas"], "--out", str(out),
                "--recipe", "custom", "--feature", FEATURES,
                "--model", model, "--seed", "7",
            )
            assert rc == 0
        outs.append(tree_bytes(out))
    assert outs[0] == outs[1]


def test_parallel_jobs_match_serial(dataset, tmp_path):
    results = []
    for jobs, name in (("1", "serial"), ("2", "parallel")):
        out = tmp_path / name
        rc = run(
            "detect", "--input", dataset["meas"], "--out", str(out),
            "--recipe", "custom", "--feature", FEATURES,
            "--model", "knn", "--jobs", jobs,
        )
        assert rc == 0
        results.append(tree_bytes(out))
    assert results[0] == results[1]


def test_jobs_starts_no_more_workers_than_cells(dataset, tmp_path, monkeypatch):
    # a forking pool starts all max_workers processes at its first submit;
    # the fake records the pool size and maps in this process
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    results = []
    for jobs, name in (("1", "serial"), ("16", "parallel")):
        out = tmp_path / name
        rc = run(
            "detect", "--input", dataset["meas"], "--out", str(out),
            "--recipe", "custom", "--feature", FEATURES,
            "--model", "knn", "--jobs", jobs,
        )
        assert rc == 0
        results.append(tree_bytes(out))
    assert sizes == [2]
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("features",),
        ("scoremap", "--feature", FEATURES, "--model", "all", "--resolution", "6"),
        ("tune", "--feature", FEATURES, "--model", "knn", "--strategy", "proxy",
         "--trials", "6"),
        # "labels" stands for the fixture's label file
        ("tune", "--feature", FEATURES, "--model", "knn", "--strategy", "transfer",
         "--labels", "labels", "--trials", "6"),
    ],
)
def test_parallel_jobs_match_serial_for_features_scoremap_and_tune(
    dataset, tmp_path, argv
):
    argv = [dataset["labels"] if token == "labels" else token for token in argv]
    results = []
    for jobs, name in (("1", "serial"), ("2", "parallel")):
        out = tmp_path / name
        rc = run(
            *argv, "--input", dataset["meas"], "--out", str(out),
            "--recipe", "custom", "--jobs", jobs,
        )
        assert rc == 0
        results.append(tree_bytes(out))
    assert results[0] == results[1]
    assert len(results[0]) > 2


def test_scoremap_builds_each_cell_feature_table_once(
    dataset, tmp_path, monkeypatch
):
    import cyclescreen.cli as cli

    calls = []
    original = cli.build_feature_matrix

    def counting(records, *args, **kwargs):
        calls.append(records[0].cell_id)
        return original(records, *args, **kwargs)

    monkeypatch.setattr(cli, "build_feature_matrix", counting)
    rc = run(
        "scoremap", "--input", dataset["meas"], "--out", str(tmp_path / "out"),
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "all", "--resolution", "4",
    )
    assert rc == 0
    assert sorted(calls) == ["cellA", "cellB"]


def test_tune_transfer_writes_artifacts(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run(
        "tune", "--input", dataset["meas"], "--out", str(out),
        "--labels", dataset["labels"], "--manifest", dataset["manifest"],
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "iforest", "--trials", "5", "--seed", "3",
    )
    assert rc == 0
    assert "perfect-recall fraction" in capsys.readouterr().out
    tdir = out / "tuning" / "iforest"
    trials = (tdir / "trials.csv").read_text().splitlines()
    assert trials[0].startswith("cell_id,trial_id,")
    assert trials[0].endswith("objective_1,objective_2,kind")
    # manifest restricts training to cellA
    assert all(row.startswith("cellA,") for row in trials[1:])
    assert len(trials) == 6
    assert (tdir / "pareto.csv").is_file()
    config = json.loads((tdir / "config.json").read_text())
    assert config["model"] == "iforest"
    assert config["seed"] == 0
    assert set(config["params"]) >= {"n_estimators", "contamination"}

    # the tuned config feeds straight back into detect
    rc = run(
        "detect", "--input", dataset["meas"], "--out", str(tmp_path / "det"),
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "iforest", "--config", str(tdir / "config.json"),
    )
    assert rc == 0
    # but only for the model it was tuned for
    rc = run(
        "detect", "--input", dataset["meas"], "--out", str(tmp_path / "det2"),
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "knn", "--config", str(tdir / "config.json"),
    )
    assert rc == 1


def test_tune_proxy_writes_per_cell_compromise(dataset, tmp_path):
    out = tmp_path / "out"
    rc = run(
        "tune", "--input", dataset["meas"], "--out", str(out),
        "--manifest", dataset["manifest"], "--strategy", "proxy",
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "knn", "--trials", "5",
    )
    assert rc == 0
    tdir = out / "tuning" / "knn"
    assert (tdir / "compromise_cellB.json").is_file()  # test cells only
    assert not (tdir / "compromise_cellA.json").exists()
    rows = (tdir / "trials.csv").read_text().splitlines()
    assert all(row.endswith("loss_inliers") for row in rows[1:])



def test_tune_writes_a_layer_list_as_AxB_in_tables_and_a_list_in_json(
    dataset, tmp_path
):
    out = tmp_path / "out"
    rc = run(
        "tune", "--input", dataset["meas"], "--out", str(out),
        "--strategy", "proxy", "--recipe", "custom", "--feature", FEATURES,
        "--model", "autoencoder", "--trials", "3",
    )
    assert rc == 0
    tdir = out / "tuning" / "autoencoder"
    search = ml_detect.PARAM_SPECS["autoencoder"]["hidden_neuron_list"].search
    layer_lists = {"x".join(map(str, layers)) for layers in search.choices}
    for name in ("trials.csv", "pareto.csv"):
        rows = list(csv.DictReader((tdir / name).read_text().splitlines()))
        assert rows
        assert {row["hidden_neuron_list"] for row in rows} <= layer_lists
    for cell in ("cellA", "cellB"):
        config = json.loads((tdir / f"compromise_{cell}.json").read_text())
        layers = config["params"]["hidden_neuron_list"]
        assert isinstance(layers, list)
        assert "x".join(map(str, layers)) in layer_lists

def test_tune_fits_each_distinct_config_once(dataset, tmp_path, monkeypatch):
    fitted = []
    fit = ml_detect.fit

    def counting_fit(config, X):
        fitted.append(config)
        return fit(config, X)

    monkeypatch.setattr(ml_detect, "fit", counting_fit)
    out = tmp_path / "out"
    rc = run(
        "tune", "--input", dataset["meas"], "--out", str(out),
        "--strategy", "proxy", "--recipe", "custom", "--feature", FEATURES,
        "--model", "gmm", "--trials", "10",
    )
    assert rc == 0
    trials = (out / "tuning" / "gmm" / "trials.csv").read_bytes()
    rows = list(csv.reader(trials.decode().splitlines()))[1:]
    # cell_id, then the params after trial_id; the objectives and kind last
    configs = {(row[0], *row[2:-3]) for row in rows}
    # TPE proposes some configs twice, and each is fitted once
    assert len(rows) == 20 and len(configs) == 16
    assert len(fitted) == len(configs)
    # every trial keeps its row, and a repeat its first fit's objectives
    assert hashlib.sha256(trials).hexdigest() == (
        "35208866233a755739a6ad1e33ac224adf537ea2b696617d0f9926968c0b1fb6"
    )


def test_tune_manifest_cell_missing_from_input_is_an_error(
    dataset, tmp_path, capsys
):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("cell_id,role\ncellB,test\ncellZ,test\n")
    rc = run(
        "tune", "--input", dataset["meas"], "--out", str(tmp_path / "out"),
        "--manifest", str(manifest), "--strategy", "proxy",
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "knn", "--trials", "2",
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ")
    assert "cellZ" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("detect",),
        ("scoremap",),
        ("tune", "--strategy", "proxy", "--trials", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_iforest_on_a_one_cycle_cell_names_cell_and_model(tmp_path, capsys, argv):
    # the subsample draw used to raise NumPy's ValueError on one row
    meas = tmp_path / "meas.csv"
    cells = {"A": generate_cell(1, samples_per_cycle=16, seed=3, cell_id="A")}
    write_dataset(cells, str(meas), str(tmp_path / "labels.csv"))
    rc = run(
        *argv, "--model", "iforest", "--input", str(meas),
        "--out", str(tmp_path / "out"), "--recipe", "custom", "--feature", FEATURES,
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cell A, model iforest: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "model, reason",
    [
        ("iforest", "need at least 2 rows to grow a tree"),
        ("knn", "n_neighbors=14 needs at least 15 rows, got 1"),
    ],
)
def test_tune_with_every_trial_failing_names_the_first_trials_error(
    tmp_path, capsys, model, reason
):
    # no config fits one row; the message used to end at the trial count
    meas = tmp_path / "meas.csv"
    cells = {"A": generate_cell(1, samples_per_cycle=16, seed=3, cell_id="A")}
    write_dataset(cells, str(meas))
    rc = run(
        "tune", "--strategy", "proxy", "--model", model, "--input", str(meas),
        "--out", str(tmp_path / "out"), "--recipe", "custom", "--feature", FEATURES,
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cell A, model {model}: none of 20 trials gave a usable "
        f"objective; trial 0: {reason}\n"
    )


@pytest.mark.parametrize(
    "features, components",
    [("dv_max", {"1"}), ("dv_max,dq_max,dvdq_max", {"1", "2", "3"})],
)
def test_tune_pca_searches_the_selected_column_count(
    dataset, tmp_path, features, components
):
    out = tmp_path / "out"
    rc = run(
        "tune", "--input", dataset["meas"], "--out", str(out),
        "--strategy", "proxy", "--recipe", "custom", "--feature", features,
        "--model", "pca", "--trials", "4",
    )
    assert rc == 0
    rows = (out / "tuning" / "pca" / "trials.csv").read_text().splitlines()
    assert rows[0] == "cell_id,trial_id,n_components,objective_1,objective_2,kind"
    for cell in ("cellA", "cellB"):
        mine = [row.split(",") for row in rows[1:] if row.startswith(f"{cell},")]
        assert {row[2] for row in mine} == components
        assert all(row[3] != "inf" for row in mine)


def test_evaluate_report(dataset, tmp_path):
    run_dir = tmp_path / "run"
    for model in ("iqr", "mad", "euclidean"):
        assert run(
            "detect", "--input", dataset["meas"], "--out", str(run_dir),
            "--recipe", "custom", "--feature", FEATURES, "--model", model,
        ) == 0
    out = tmp_path / "eval"
    rc = run(
        "evaluate", "--input", str(run_dir), "--out", str(out),
        "--labels", dataset["labels"],
    )
    assert rc == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[0] == "model,metric,value,passed"
    models = {row.split(",")[0] for row in rows[1:]}
    assert models == {"iqr", "mad", "euclidean"}
    for row in rows[1:]:
        model, metric, value, passed = row.split(",")
        assert -1.0 <= float(value) <= 1.0
        assert passed in ("0", "1")
    txt = (out / "report.txt").read_text()
    assert "macro recall" in txt


@pytest.mark.parametrize(
    "header, row, message",
    [
        ("cycle_index,score,flagged", "7,1.5,yes",
         "row 3: could not parse flagged value 'yes'"),
        ("cycle_index,score,flagged", "7,1.5,0.5",
         "row 3: flagged value '0.5' is not an integer"),
        ("cycle_index,score", "7,1.5", "missing required column 'flagged'"),
        ("cycle_index,score,flagged", "", "no verdict rows"),
        ("cycle_index,score,flagged", "7,1.5,7",
         "row 3: flagged value '7' is not 0 or 1"),
        ("cycle_index,score,flagged", "7,1.5,-1",
         "row 3: flagged value '-1' is not 0 or 1"),
        ("cycle_index,score,flagged", "7,1.5,1\n8,0.5,0\n7,0.5,0",
         "row 5: cycle 7 repeats an earlier row"),
    ],
    ids=["word-flag", "fractional-flag", "no-flagged-column", "no-rows",
         "flag-seven", "negative-flag", "repeated-cycle"],
)
def test_evaluate_malformed_verdict_names_the_file_and_row(
    dataset, tmp_path, capsys, header, row, message
):
    run_dir = tmp_path / "run"
    assert run(
        "detect", "--input", dataset["meas"], "--out", str(run_dir),
        "--recipe", "custom", "--feature", FEATURES, "--model", "iqr",
    ) == 0
    path = run_dir / "cellB" / "iqr" / "verdict.csv"
    path.write_text(f"# method=iqr\n{header}\n{row}\n")
    capsys.readouterr()
    rc = run(
        "evaluate", "--input", str(run_dir), "--out", str(tmp_path / "eval"),
        "--labels", dataset["labels"],
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "eval").exists()


def test_evaluate_refuses_an_empty_cell_id_in_the_labels(dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(
        "detect", "--input", dataset["meas"], "--out", str(run_dir),
        "--recipe", "custom", "--feature", FEATURES, "--model", "iqr",
    ) == 0
    labels = tmp_path / "labels.csv"
    text = Path(dataset["labels"]).read_text()
    labels.write_text(text + ",7\n")
    row = len(text.splitlines()) + 1
    capsys.readouterr()
    rc = run(
        "evaluate", "--input", str(run_dir), "--out", str(tmp_path / "eval"),
        "--labels", str(labels),
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: {labels}: row {row}: empty cell_id\n"
    assert not (tmp_path / "eval").exists()


def test_evaluate_missing_input_directory_is_an_io_error(dataset, tmp_path, capsys):
    missing = tmp_path / "no_run"
    rc = run(
        "evaluate", "--input", str(missing), "--out", str(tmp_path / "eval"),
        "--labels", dataset["labels"],
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"i/o error: [Errno {errno.ENOENT}] no such directory: {str(missing)!r}\n"
    assert not (tmp_path / "eval").exists()


def test_evaluate_input_that_is_a_file_is_not_a_directory(dataset, tmp_path, capsys):
    # the path exists, so "no such directory" would mislead
    rc = run(
        "evaluate", "--input", dataset["meas"], "--out", str(tmp_path / "eval"),
        "--labels", dataset["labels"],
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"i/o error: [Errno {errno.ENOTDIR}] not a directory: {dataset['meas']!r}\n"
    assert not (tmp_path / "eval").exists()


def test_scoremap(dataset, tmp_path):
    out = tmp_path / "out"
    rc = run(
        "scoremap", "--input", dataset["meas"], "--out", str(out),
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "euclidean", "--resolution", "12",
    )
    assert rc == 0
    lines = (out / "cellA" / "euclidean" / "grid.csv").read_text().splitlines()
    assert len(lines) == 2 + 12 * 12
    assert lines[1] == "dv_max,dq_max,score"
    sidecar = json.loads((out / "cellA" / "euclidean" / "grid.json").read_text())
    assert sidecar["resolution"] == [12, 12]
    assert sidecar["features"] == ["dv_max", "dq_max"]
    assert run(
        "scoremap", "--input", dataset["meas"], "--out", str(out),
        "--model", "zscore",
    ) == 1


def test_column_remap_and_delimiter(dataset, tmp_path):
    renamed = tmp_path / "renamed.csv"
    with open(dataset["meas"], "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].replace("voltage_v", "U").replace("capacity_ah", "Q")
    body = [header] + lines[1:]
    renamed.write_text("\n".join(r.replace(",", ";") for r in body) + "\n")
    rc = run(
        "ingest", "--input", str(renamed), "--out", str(tmp_path / "out"),
        "--delimiter", ";", "--col", "voltage=U", "--col", "capacity=Q",
    )
    assert rc == 0
    # normalized output uses canonical names again, so it must equal the
    # export of the original file
    rc = run("ingest", "--input", dataset["meas"], "--out", str(tmp_path / "ref"))
    assert rc == 0
    assert filecmp.cmp(
        tmp_path / "out" / "cycles.csv", tmp_path / "ref" / "cycles.csv",
        shallow=False,
    )


def test_module_entry_point(dataset, tmp_path, child_env):
    import subprocess
    import sys

    result = subprocess.run(
        [
            sys.executable, "-m", "cyclescreen.cli", "ingest",
            "--input", dataset["meas"], "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert result.returncode == 0
    assert "ingested" in result.stdout


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{not json", "not valid JSON"),
        ('[{"model": "iforest"}]', "expected a JSON object, got list"),
        ('{"model": "iforest", "params": [1]}', "'params' must be a JSON object"),
        ('{"model": "iforest", "params": {}, "seed": "abc"}', "'seed' must be"),
        ('{"model": "iforest", "params": {}, "seed": true}', "'seed' must be"),
        ('{"model": "iforest", "params": {}, "seed": -1}', "'seed' must be"),
    ],
)
def test_detect_bad_config_is_a_usage_error(dataset, tmp_path, capsys, text, reason):
    config = tmp_path / "config.json"
    config.write_text(text)
    rc = run(
        "detect", "--input", dataset["meas"], "--out", str(tmp_path / "out"),
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "iforest", "--config", str(config),
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert reason in err
    assert "Traceback" not in err


def test_a_config_saved_with_a_bom_gives_the_same_verdicts(dataset, tmp_path):
    text = json.dumps({"model": "knn", "params": {"n_neighbors": 3}, "seed": 0})
    verdicts = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        config = tmp_path / f"{name}.json"
        config.write_bytes(prefix + text.encode())
        out = tmp_path / name
        assert run(
            "detect", "--input", dataset["meas"], "--out", str(out),
            "--recipe", "custom", "--feature", FEATURES,
            "--model", "knn", "--config", str(config),
        ) == 0
        verdicts.append({
            path: data for path, data in tree_bytes(out).items()
            if path.endswith("verdict.csv")
        })
    assert len(verdicts[0]) == 2
    assert verdicts[0] == verdicts[1]


def test_a_config_that_is_not_utf8_names_the_byte(dataset, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes('{"model": "knn", "note": "\u00e9"}'.encode("latin-1"))
    rc = run(
        "detect", "--input", dataset["meas"], "--out", str(tmp_path / "out"),
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "knn", "--config", str(config),
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {config}: not UTF-8 text: byte 0xe9: invalid continuation byte\n"
    )


def test_two_roles_reading_one_column_exit_1_before_the_input_is_opened(
    tmp_path, capsys
):
    missing = tmp_path / "absent.csv"
    rc = run("ingest", "--input", str(missing), "--out", str(tmp_path / "out"),
             "--col", "voltage=time_s")
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: roles time and voltage both read column 'time_s'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("detect", "--feature", FEATURES, "--jobs", "-3"),
        ("features", "--jobs", "0"),
        ("tune", "--feature", FEATURES, "--model", "knn", "--strategy", "proxy",
         "--trials", "0"),
    ],
)
def test_counts_below_one_are_usage_errors(dataset, tmp_path, capsys, argv):
    rc = run(
        *argv, "--input", dataset["meas"], "--out", str(tmp_path / "out"),
        "--recipe", "custom",
    )
    assert rc == 1
    err = capsys.readouterr().err
    # --jobs is the CLI's own rule; --trials is refused by tune.check_trials
    reason = {
        "--jobs": "--jobs must be at least 1",
        "--trials": "--trials: n_trials must be an integer of at least 1",
    }[argv[-2]]
    assert f"{reason}, got {argv[-1]}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("tune", "--model", "knn", "--strategy", "proxy", "--threshold", "2"),
        ("tune", "--model", "knn", "--strategy", "proxy", "--threshold", "nan"),
        ("tune", "--model", "knn", "--labels", "labels", "--threshold", "-0.5"),
        ("detect", "--model", "all", "--threshold", "2"),
    ],
)
def test_threshold_outside_unit_interval_is_a_usage_error(
    dataset, tmp_path, capsys, argv
):
    argv = [dataset["labels"] if a == "labels" else a for a in argv]
    rc = run(
        *argv, "--input", dataset["meas"], "--out", str(tmp_path / "out"),
        "--recipe", "custom", "--feature", FEATURES,
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: --threshold: threshold must lie in [0, 1], got {float(argv[-1])!r}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("resolution", ["1", "-3"])
def test_scoremap_resolution_checked_for_every_model(
    dataset, tmp_path, capsys, resolution
):
    messages = []
    for model in ("euclidean", "knn"):
        rc = run(
            "scoremap", "--input", dataset["meas"], "--out", str(tmp_path / "out"),
            "--recipe", "custom", "--feature", FEATURES,
            "--model", model, "--resolution", resolution,
        )
        assert rc == 1
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert "grid resolution must be at least 2" in messages[0]


#: the learned models' modules each subcommand's run below loads
LOADED_MODELS = {
    "ingest": set(),
    "features": set(),
    "detect": set(ml_detect.ML_MODELS),
    "tune": {"knn"},
    "evaluate": set(),
    "scoremap": set(ml_detect.ML_MODELS),
}


@pytest.mark.parametrize("command", list(LOADED_MODELS))
def test_each_subcommand_loads_only_what_it_runs(dataset, tmp_path, child_env, command):
    # a fresh interpreter per subcommand at --jobs 1: no scipy, no process
    # pool, no numpy.ma (np.median and np.quantile import it), tune's module
    # only under tune, and a learned model's module only when it runs
    import subprocess
    import sys

    out = str(tmp_path / "out")
    columns = ("--recipe", "custom", "--feature", FEATURES)
    argv = {
        "ingest": (),
        "features": ("--recipe", "custom"),
        "detect": columns,
        "tune": (*columns, "--model", "knn", "--strategy", "proxy", "--trials", "3"),
        "evaluate": ("--labels", dataset["labels"]),
        "scoremap": (*columns, "--resolution", "4"),
    }[command]
    source = dataset["meas"]
    if command == "evaluate":
        assert run("detect", "--input", source, "--out", out, *columns, "--model", "iqr") == 0
        source = out
    probe = (
        "import sys; from cyclescreen.cli import main; "
        "rc = main(sys.argv[1:]); modules = sorted(sys.modules); "
        "import json; print(json.dumps([rc, modules]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, command, "--input", source, "--out", out, *argv],
        capture_output=True, text=True, env=child_env,
    )
    assert result.returncode == 0, result.stderr
    rc, modules = json.loads(result.stdout.splitlines()[-1])
    assert rc == 0, result.stderr
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert [
        m for m in modules
        if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures"
    ] == []
    assert [m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")] == []
    assert ("cyclescreen.tune" in modules) == (command == "tune")
    # json loads only to read or write a JSON file (no --config here), and
    # hashlib only for a learned model's seed or a sanitised cell id
    if command in ("ingest", "features", "evaluate", "detect"):
        assert "json" not in modules
    if command in ("ingest", "features", "evaluate"):
        assert "hashlib" not in modules
    models = {
        m.removeprefix("cyclescreen.ml_detect.") for m in modules
        if m.startswith("cyclescreen.ml_detect.")
    } - {"params"}
    assert models == LOADED_MODELS[command]


@pytest.mark.parametrize("prelude, enabled, frozen", [
    ("", True, True),
    ("gc.disable()", False, True),
    # a failed import leaves the collector on, as it found it
    ("sys.modules['cyclescreen.util'] = None", True, False),
], ids=["enabled", "disabled", "failed-import"])
def test_cli_import_freezes_what_it_loaded_and_keeps_the_collector_state(
    child_env, prelude, enabled, frozen
):
    # frozen import-time objects are left out of every later full collection,
    # the ones at exit included
    import subprocess
    import sys

    probe = "\n".join([
        "import gc, sys",
        prelude,
        "try:",
        "    import cyclescreen.cli",
        "except ImportError:",
        "    pass",
        "print(gc.isenabled(), gc.get_freeze_count() > 0)",
    ])
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [str(enabled), str(frozen)]


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_import_runs_blas_on_one_thread_unless_told_otherwise(child_env, preset):
    # the CLI's parallelism is --jobs: an OpenBLAS worker thread started as
    # NumPy loads would only cost start-up time
    import subprocess
    import sys

    import numpy as np

    env = {k: v for k, v in child_env.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, sys, cyclescreen.cli; "
        "print(os.environ['OPENBLAS_NUM_THREADS']); "
        "print(len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else '')"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    value, threads = result.stdout.splitlines()
    assert value == (preset or "1")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # NumPy before 1.26 takes no mode
        blas = ""
    if preset is None and sys.platform == "linux" and "openblas" in blas:
        assert threads == "1"


#: each subcommand's options and their defaults
INPUT = {
    "--input": None, "--out": "out", "--delimiter": ",", "--col": None, "--jobs": 1,
}
COLUMNS = {"--recipe": "severson", "--feature": None, "--log": False, "--seed": 0}
SURFACE = {
    "ingest": INPUT,
    "features": {**INPUT, "--recipe": "severson"},
    "detect": {
        **INPUT, **COLUMNS, "--model": "all", "--threshold": 0.7,
        "--mad-factor": 1.4826022185056018, "--mad-threshold": 3.0, "--p": 0.5,
        "--contamination-threshold": False, "--config": None,
    },
    "tune": {
        **INPUT, **COLUMNS, "--labels": None, "--manifest": None, "--model": None,
        "--strategy": "transfer", "--trials": 20, "--threshold": 0.7,
    },
    "evaluate": {
        "--input": None, "--out": "out", "--labels": None, "--delimiter": ",",
        "--kpi": 0.95,
    },
    "scoremap": {**INPUT, **COLUMNS, "--model": "all", "--resolution": 50, "--p": 0.5},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    # the defaults are pinned by value and type, so none changes when the
    # constant behind it moves
    subs = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {
        name: {
            option: (type(action.default), action.default)
            for action in sub._actions for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for name, sub in subs.choices.items()
    }
    assert surface == {
        name: {option: (type(v), v) for option, v in options.items()}
        for name, options in SURFACE.items()
    }
    assert sum(map(len, surface.values())) == 59


@pytest.mark.parametrize(
    "argv",
    [
        ("detect", "--manifest", "manifest"),
        ("ingest", "--seed", "3"),
        ("features", "--feature", FEATURES),
        ("evaluate", "--labels", "labels", "--recipe", "custom"),
        ("scoremap", "--labels", "labels"),
    ],
)
def test_an_option_the_subcommand_does_not_read_is_refused(
    dataset, tmp_path, capsys, argv
):
    command, option, value, *rest = argv
    out = tmp_path / "out"
    rc = run(
        command, "--input", dataset["meas"], "--out", str(out),
        option, dataset.get(value, value), *rest,
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cyclescreen: unrecognized arguments: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_delimiter_applies_to_label_and_manifest_files(dataset, tmp_path):
    semicolon = {}
    for key in ("meas", "labels", "manifest"):
        path = tmp_path / f"{key}.txt"
        with open(dataset[key], encoding="utf-8") as handle:
            path.write_text(handle.read().replace(",", ";"))
        semicolon[key] = str(path)
    trees = []
    for files, delimiter in ((dataset, ()), (semicolon, ("--delimiter", ";"))):
        out = tmp_path / ("semicolon" if delimiter else "comma")
        assert run(
            "tune", "--input", files["meas"], "--out", str(out),
            "--labels", files["labels"], "--manifest", files["manifest"],
            "--recipe", "custom", "--feature", FEATURES,
            "--model", "iforest", "--trials", "3", *delimiter,
        ) == 0
        assert run(
            "detect", "--input", files["meas"], "--out", str(out),
            "--recipe", "custom", "--feature", FEATURES, "--model", "iqr",
            *delimiter,
        ) == 0
        assert run(
            "evaluate", "--input", str(out), "--out", str(out / "eval"),
            "--labels", files["labels"], *delimiter,
        ) == 0
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]
    assert "eval/report.csv" in trees[0]


def test_every_cell_gets_its_own_directory_inside_out(tmp_path, capsys):
    def digest(cell):
        return hashlib.sha256(cell.encode("utf-8")).hexdigest()[:8]

    dirs = {
        "C2": "C2",
        "a_b": "a_b",
        "a b": f"a_b-{digest('a b')}",
        "..": f"..-{digest('..')}",
        "tuning": f"tuning-{digest('tuning')}",
    }
    cells = {
        cell: generate_cell(
            30, samples_per_cycle=16, seed=i, cell_id=cell,
            anomalies=(AnomalySpec("point", (10,), 0.4),),
        )
        for i, cell in enumerate(dirs)
    }
    meas, labels = str(tmp_path / "meas.csv"), str(tmp_path / "labels.csv")
    write_dataset(cells, meas, labels)
    out = tmp_path / "run" / "out"
    common = ("--input", meas, "--out", str(out), "--recipe", "custom")
    assert run("features", *common) == 0
    assert run("detect", *common, "--feature", FEATURES, "--model", "iqr") == 0
    assert run(
        "tune", *common, "--feature", FEATURES, "--model", "knn",
        "--strategy", "proxy", "--trials", "2",
    ) == 0
    assert os.listdir(tmp_path / "run") == ["out"]
    assert sorted(os.listdir(out)) == sorted([*dirs.values(), "tuning"])
    for name in dirs.values():
        assert sorted(os.listdir(out / name)) == [
            "feature_notes.txt", "features.csv", "iqr",
        ]
    assert sorted(os.listdir(out / "tuning" / "knn")) == sorted(
        [f"compromise_{name}.json" for name in dirs.values()]
        + ["pareto.csv", "trials.csv"]
    )
    capsys.readouterr()
    assert run(
        "evaluate", "--input", str(out), "--out", str(tmp_path / "eval"),
        "--labels", labels,
    ) == 0
    reported = [
        line.split(": ")[0] for line in capsys.readouterr().out.splitlines()
        if line.startswith("  cell ")
    ]
    assert reported == [f"  cell {cell}" for cell in sorted(dirs)]


@pytest.mark.parametrize(
    "rows, message",
    [
        ("A,0,0.0,4.0,0.0\nA,0,0.1,3.9," + "9" * (csv.field_size_limit() + 1),
         "row 3: field larger than field limit"),
        ("A,0,0.0,1e160,0.0\nA,0,0.1,2e160,0.5\nA,0,0.2,3e160,1.0",
         "voltage A/0: scaling offset median**2/IQR overflows"),
    ],
    ids=["field-over-csv-limit", "offset-overflow"],
)
def test_unreadable_field_and_overflowing_offset_are_validation_errors(
    tmp_path, capsys, rows, message
):
    path = tmp_path / "m.csv"
    path.write_text(
        f"cell_id,cycle_index,time_s,voltage_v,capacity_ah\n{rows}\n"
    )
    assert run("features", "--input", str(path), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert message in err.splitlines()[0]
    assert "Traceback" not in err


def test_every_csv_reads_back_with_csv_for_ids_with_comma_and_quote(
    tmp_path, capsys
):
    cells = {
        cell: generate_cell(
            30, samples_per_cycle=16, seed=i, cell_id=cell,
            anomalies=(AnomalySpec("point", (10,), 0.4),),
        )
        for i, cell in enumerate(("a,b", 'c"d'))
    }
    meas, labels = str(tmp_path / "meas.csv"), str(tmp_path / "labels.csv")
    write_dataset(cells, meas, labels)
    out = tmp_path / "out"
    common = ("--input", meas, "--out", str(out), "--recipe", "custom")
    picked = (*common, "--feature", FEATURES)
    assert run("ingest", "--input", meas, "--out", str(out)) == 0
    assert run("features", *common) == 0
    assert run("detect", *picked, "--model", "all") == 0
    assert run(
        "evaluate", "--input", str(out), "--out", str(out), "--labels", labels
    ) == 0
    assert run("scoremap", *picked, "--model", "all", "--resolution", "4") == 0
    for model, strategy in (("knn", "transfer"), ("lof", "proxy")):
        assert run(
            "tune", *picked, "--model", model, "--strategy", strategy,
            "--labels", labels, "--trials", "3",
        ) == 0
    capsys.readouterr()

    written = {}
    for dirpath, _dirs, files in os.walk(out):
        for name in files:
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8", newline="") as handle:
                    rows = [
                        row for row in csv.reader(handle)
                        if not row[0].startswith("#")
                    ]
                written.setdefault(name, []).append((path, rows))
    assert set(written) == {
        "cycles.csv", "features.csv", "verdict.csv", "grid.csv",
        "trials.csv", "pareto.csv", "report.csv",
    }
    for name, tables in written.items():
        for path, rows in tables:
            assert len(rows) > 1, path
            assert {len(row) for row in rows} == {len(rows[0])}, path
    for path, rows in written["trials.csv"]:
        assert {row[0] for row in rows[1:]} == {"a,b", 'c"d'}, path


@pytest.mark.parametrize(
    "params, message",
    [
        ({"n_neighbors": 0}, "n_neighbors=0 outside [1, 100000]"),
        ({"bogus": 1}, "knn: unknown params ['bogus']"),
    ],
    ids=["out-of-range", "unknown-param"],
)
def test_detect_config_params_checked_before_any_cell_runs(
    dataset, tmp_path, capsys, params, message
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "knn", "params": params, "seed": 3}))
    out = tmp_path / "out"
    rc = run(
        "detect", "--input", dataset["meas"], "--out", str(out),
        "--recipe", "custom", "--feature", FEATURES,
        "--model", "knn", "--config", str(config),
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {config}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("detect", "--model", "all"), "cell M1, model sd: "),
        (("tune", "--model", "knn", "--strategy", "proxy"), ""),
        (("scoremap", "--model", "knn"), ""),
    ],
    ids=["detect", "tune", "scoremap"],
)
def test_log_of_a_column_with_no_positive_entry_names_column_and_cell(
    tmp_path, capsys, argv, prefix
):
    # a noiseless discharge falls on every step, so dv_max < 0 on every cycle
    cell = generate_cell(
        12, samples_per_cycle=16, fade=FadeModel(voltage_noise=0.0), cell_id="M1"
    )
    meas = str(tmp_path / "meas.csv")
    write_dataset({"M1": cell}, meas)
    rc = run(
        *argv, "--input", meas, "--out", str(tmp_path / "out"),
        "--recipe", "custom", "--feature", "dv_max", "--log",
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {prefix}log(dv_max): no positive entries for cell M1\n"
    )


@pytest.fixture(scope="module")
def noisy_meas(tmp_path_factory):
    """Two noisy cells, N0 and N1, on which every detector runs."""
    cells = {
        cell: generate_cell(
            40, samples_per_cycle=32, fade=FadeModel(voltage_noise=2e-3),
            seed=seed, cell_id=cell,
        )
        for seed, cell in enumerate(("N0", "N1"))
    }
    meas = str(tmp_path_factory.mktemp("noisy") / "meas.csv")
    write_dataset(cells, meas)
    return meas


def test_a_relogged_columns_clamps_are_replaced_not_repeated(tmp_path, noisy_meas):
    # each of detect's models logs its columns again; the notes hold each
    # column's clamps once, as after a single model
    notes = {}
    for model in ("all", "knn"):
        out = tmp_path / model
        assert run("detect", "--input", noisy_meas, "--out", str(out), "--model", model,
                   "--recipe", "custom", "--feature", FEATURES, "--log") == 0
        notes[model] = {
            cell: (out / cell / "feature_notes.txt").read_text()
            for cell in ("N0", "N1")
        }
    assert notes["all"] == notes["knn"]
    for text in notes["all"].values():
        lines = text.splitlines()
        assert any("log(dv_max) input" in line for line in lines)
        assert len(set(lines)) == len(lines)


@pytest.mark.parametrize("model", ["iqr", "mad", "mod_zscore", "sd", "zscore"])
def test_a_statistical_detector_reads_the_first_selected_column(
    tmp_path, noisy_meas, model
):
    verdicts = []
    for features in ("dv_max,dq_max", "dv_max"):
        out = tmp_path / features
        assert run("detect", "--input", noisy_meas, "--out", str(out),
                   "--model", model, "--recipe", "custom",
                   "--feature", features) == 0
        verdicts.append({
            cell: (out / cell / model / "verdict.csv").read_bytes()
            for cell in ("N0", "N1")
        })
    assert verdicts[0] == verdicts[1]


def test_a_statistical_detector_logs_only_the_column_it_reads(tmp_path, capsys):
    # dv_max has no positive entry on a noiseless cell; sd reads dq_max alone,
    # so it neither logs dv_max nor fails on it, while euclidean reads both
    cell = generate_cell(
        12, samples_per_cycle=16, fade=FadeModel(voltage_noise=0.0), cell_id="M1"
    )
    meas = str(tmp_path / "meas.csv")
    write_dataset({"M1": cell}, meas)

    def detect(model, features):
        out = tmp_path / f"{model}-{features}"
        rc = run("detect", "--input", meas, "--out", str(out), "--model", model,
                 "--recipe", "custom", "--feature", features, "--log")
        return rc, out / "M1"

    rc_one, one = detect("sd", "dq_max")
    rc_two, two = detect("sd", "dq_max,dv_max")
    assert rc_one == rc_two == 0
    for name in ("sd/verdict.csv", "feature_notes.txt"):
        assert (two / name).read_bytes() == (one / name).read_bytes()
    assert "log(dv_max)" not in (two / "feature_notes.txt").read_text()

    rc, cell_dir = detect("all", "dq_max,dv_max")
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: cell M1, model euclidean: "
        "log(dv_max): no positive entries for cell M1\n"
    )
    assert sorted(p.parent.name for p in cell_dir.glob("*/verdict.csv")) == [
        "iqr", "mad", "mod_zscore", "sd", "zscore",
    ]


@pytest.mark.parametrize(
    "argv", [("detect",), ("tune", "--strategy", "proxy", "--trials", "5")],
    ids=["detect", "tune"],
)
def test_infinite_feature_names_cell_model_row_and_column(tmp_path, capsys, argv):
    # a voltage jump from -1.7e308 to 1.7e308 in cycle 5 makes dv_max inf;
    # feature building refuses it, naming the column, cell and cycle, before
    # any model runs (the library tests hand an infinite feature to the
    # detectors themselves)
    records, truth = generate_cell(12, samples_per_cycle=16, seed=0, cell_id="C0")
    samples = records[5].samples
    half = len(samples) // 2
    samples[:half, 1], samples[half:, 1] = -1.7e308, 1.7e308
    meas = str(tmp_path / "meas.csv")
    write_dataset({"C0": (records, truth)}, meas)
    out = tmp_path / "out"
    rc = run(
        *argv, "--model", "knn", "--input", meas, "--out", str(out),
        "--recipe", "custom", "--feature", FEATURES,
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: dv_max C0/5: difference feature overflows to inf\n"
    )
    # no feature notes, verdict, compromise or trial table
    assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize(
    "error",
    [c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.CycleScreenError)],
    ids=lambda c: c.__name__,
)
def test_a_model_failure_keeps_its_class_and_names_cell_and_model(error):
    def refuse(model):
        raise error("the reason")

    with pytest.raises(error) as caught:
        cli._run_models(argparse.Namespace(models=("knn",)), "C0", refuse)
    assert type(caught.value) is error
    assert str(caught.value) == "cell C0, model knn: the reason"


@pytest.mark.parametrize(
    "reason, shown",
    [
        ("knn: the reason", "the reason"),
        # a metric the model was asked to use is not the model's name
        ("mahalanobis: the reason", "mahalanobis: the reason"),
        ("knnx: the reason", "knnx: the reason"),
    ],
)
def test_a_model_failure_names_its_model_once(reason, shown):
    def refuse(model):
        raise errors.DegenerateDataError(reason)

    with pytest.raises(errors.DegenerateDataError) as caught:
        cli._run_models(argparse.Namespace(models=("knn",)), "C0", refuse)
    assert str(caught.value) == f"cell C0, model knn: {shown}"


def test_detect_on_a_constant_capacity_names_the_model_once(tmp_path, capsys):
    # every cycle's capacity rises from 0 to exactly 1.0: capacity_max is
    # constant, so its standard deviation is zero
    records, truth = generate_cell(12, samples_per_cycle=16, seed=0, cell_id="H")
    for rec in records:
        rec.samples[:, 2] = [i / 15 for i in range(16)]
    meas = str(tmp_path / "meas.csv")
    write_dataset({"H": (records, truth)}, meas)
    rc = run(
        "detect", "--input", meas, "--out", str(tmp_path / "out"),
        "--recipe", "custom", "--feature", "capacity_max", "--model", "sd",
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: cell H, model sd: standard deviation is zero\n"
    )


@pytest.mark.parametrize("model", ["sd", "zscore"])
def test_detect_on_a_constant_capacity_off_one_is_refused(tmp_path, capsys, model):
    # every cycle's capacity peaks at the same value, whose mean over the 12
    # cycles misses it by an ulp: a column of equal values all the same
    peak = 1.1001383032432028
    records, truth = generate_cell(12, samples_per_cycle=16, seed=0, cell_id="H")
    for rec in records:
        rec.samples[:, 2] = [peak * i / 15 for i in range(16)]
    meas = str(tmp_path / "meas.csv")
    write_dataset({"H": (records, truth)}, meas)
    rc = run(
        "detect", "--input", meas, "--out", str(tmp_path / "out"),
        "--recipe", "custom", "--feature", "capacity_max", "--model", model,
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cell H, model {model}: standard deviation is zero\n"
    )


@pytest.mark.parametrize("model", ["knn", "gmm"])
def test_tune_with_no_usable_trial_exits_1_without_a_compromise(
    tmp_path, capsys, model
):
    # 2 cycles leave fewer than the 3 inliers a quadratic trend needs, or
    # fail to fit, whatever the config: no proxy trial has a finite loss,
    # and the message names the first trial that failed to fit
    reason = {
        "knn": "trial 0: n_neighbors=5 needs at least 6 rows, got 2",
        "gmm": "trial 1: 2 rows cannot support 4 mixture components",
    }[model]
    records, truth = generate_cell(2, samples_per_cycle=8, seed=0, cell_id="T2")
    meas = str(tmp_path / "meas.csv")
    write_dataset({"T2": (records, truth)}, meas)
    out = tmp_path / "out"
    rc = run(
        "tune", "--input", meas, "--out", str(out), "--model", model,
        "--strategy", "proxy", "--trials", "5",
        "--recipe", "custom", "--feature", "dq_max,capacity_max",
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cell T2, model {model}: none of 5 trials gave a usable objective; "
        f"{reason}\n"
    )
    assert [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()] == [
        "T2/feature_notes.txt"
    ]


def test_evaluate_refuses_a_label_for_a_cycle_a_verdict_lacks(
    dataset, tmp_path, capsys
):
    run_dir = tmp_path / "run"
    assert run(
        "detect", "--input", dataset["meas"], "--out", str(run_dir),
        "--recipe", "custom", "--feature", FEATURES, "--model", "iqr",
    ) == 0
    labels = tmp_path / "labels.csv"
    # cellZ has no directory under the run and is skipped, as before
    labels.write_text(
        Path(dataset["labels"]).read_text() + "cellA,999\ncellZ,3\n"
    )
    capsys.readouterr()
    rc = run(
        "evaluate", "--input", str(run_dir), "--out", str(tmp_path / "eval"),
        "--labels", str(labels),
    )
    assert rc == 1
    verdict = os.path.join(str(run_dir), "cellA", "iqr", "verdict.csv")
    assert capsys.readouterr().err == (
        f"error: {labels}: label references unknown cycle cellA/999 in {verdict}\n"
    )
    assert not (tmp_path / "eval").exists()

    labels.write_text(Path(dataset["labels"]).read_text() + "cellZ,3\n")
    assert run(
        "evaluate", "--input", str(run_dir), "--out", str(tmp_path / "eval"),
        "--labels", str(labels),
    ) == 0


@pytest.mark.parametrize("strategy", ["transfer", "proxy"])
def test_tune_unknown_label_names_the_label_file(
    dataset, tmp_path, capsys, strategy
):
    labels = tmp_path / "labels.csv"
    labels.write_text(Path(dataset["labels"]).read_text() + "cellB,999\n")
    out = tmp_path / "out"
    rc = run(
        "tune", "--input", dataset["meas"], "--out", str(out),
        "--recipe", "custom", "--feature", FEATURES, "--model", "knn",
        "--strategy", strategy, "--labels", str(labels), "--trials", "2",
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {labels}: label references unknown cycle cellB/999\n"
    )
    assert not out.exists()


#: the fewest arguments besides --input/--out each subcommand needs
LEAST_ARGV = {
    "ingest": ("ingest",),
    "features": ("features",),
    "detect": ("detect", "--recipe", "custom", "--feature", FEATURES),
    "tune": ("tune", "--model", "knn", "--strategy", "proxy",
             "--recipe", "custom", "--feature", FEATURES),
    "evaluate": ("evaluate", "--labels", "labels"),
    "scoremap": ("scoremap", "--recipe", "custom", "--feature", FEATURES),
}


@pytest.mark.parametrize(
    "argv",
    [
        *[(*argv, "--delimiter", delimiter)
          for argv in LEAST_ARGV.values() for delimiter in (";;", "")],
        (*LEAST_ARGV["detect"], "--mad-factor", "nan"),
        (*LEAST_ARGV["detect"], "--mad-factor", "0"),
        (*LEAST_ARGV["detect"], "--mad-factor", "-1.5"),
        (*LEAST_ARGV["detect"], "--mad-threshold", "nan"),
        (*LEAST_ARGV["detect"], "--mad-threshold", "inf"),
        (*LEAST_ARGV["evaluate"], "--kpi", "nan"),
        (*LEAST_ARGV["evaluate"], "--kpi", "2"),
        (*LEAST_ARGV["evaluate"], "--kpi", "-0.1"),
        (*LEAST_ARGV["detect"], "--model", "all", "--p", "0"),
        (*LEAST_ARGV["scoremap"], "--p", "nan"),
        (*LEAST_ARGV["scoremap"], "--resolution", "1"),
        (*LEAST_ARGV["tune"], "--trials", "0"),
    ],
    ids=" ".join,
)
def test_option_values_checked_before_any_file_is_touched(
    dataset, tmp_path, capsys, argv
):
    argv = [dataset["labels"] if a == "labels" else a for a in argv]
    out = tmp_path / "out"
    rc = run(*argv, "--input", dataset["meas"], "--out", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    option = next(a for a in reversed(argv) if a.startswith("--"))
    assert err.startswith(f"error: {option}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("tune", "--model", "iforest", "--strategy", "proxy",
          "--trials", "1000000000"), ""),
        (("scoremap", "--model", "euclidean", "--resolution", "30000"),
         ": Unable to allocate 6.71 GiB"),
        (("scoremap", "--model", "euclidean", "--resolution", "30000",
          "--jobs", "2"), ": Unable to allocate 6.71 GiB"),
    ],
    ids=["tune", "scoremap", "scoremap-jobs"],
)
def test_running_out_of_memory_is_an_error_not_a_traceback(
    dataset, tmp_path, child_env, argv, reason
):
    # each command runs only in a child whose address space is capped at
    # 1 GiB, so the allocation fails at once instead of swapping; a cap
    # that cannot be set fails the child's start, never runs it uncapped
    import subprocess
    import sys

    resource = pytest.importorskip("resource")
    cap = 1 << 30

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    result = subprocess.run(
        [sys.executable, "-m", "cyclescreen.cli", *argv,
         "--input", dataset["meas"], "--out", str(tmp_path / "out"),
         "--recipe", "custom", "--feature", FEATURES],
        capture_output=True, text=True, env=child_env, preexec_fn=capped,
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: out of memory{reason}")
    assert result.stderr.count("\n") == 1


#: a size no machine's arrays can hold: NumPy cannot index it
TOO_BIG = 10**20


@pytest.mark.parametrize(
    "argv, what, nbytes",
    [
        (("tune", "--model", "iforest", "--strategy", "proxy",
          "--trials", str(TOO_BIG)), "n_trials", 8 * TOO_BIG),
        (("scoremap", "--model", "euclidean", "--resolution", str(TOO_BIG)),
         "grid resolution", 16 * TOO_BIG**2),
    ],
    ids=["tune", "scoremap"],
)
def test_a_size_numpy_cannot_address_is_an_error_not_a_traceback(
    dataset, tmp_path, child_env, argv, what, nbytes
):
    import subprocess
    import sys

    import numpy as np

    result = subprocess.run(
        [sys.executable, "-m", "cyclescreen.cli", *argv,
         "--input", dataset["meas"], "--out", str(tmp_path / "out"),
         "--recipe", "custom", "--feature", FEATURES],
        capture_output=True, text=True, env=child_env,
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    option = argv[-2]
    assert result.stderr == (
        f"error: {option}: {what} {TOO_BIG} needs arrays of {nbytes} bytes, "
        f"more than the {np.iinfo(np.intp).max} NumPy can address\n"
    )
    assert not (tmp_path / "out").exists()


#: argv refused for its options alone, and the start of the message
USAGE_ERRORS = {
    ("detect", "--model", "bogus"): "unknown model 'bogus'",
    ("detect", "--model", "all", "--config", "c.json"):
        "--config applies to a single learned model",
    ("scoremap", "--model", "sd"):
        "scoremap needs a distance or learned model, not 'sd'",
    ("tune", "--model", "knn", "--strategy", "transfer"):
        "--strategy transfer requires --labels",
    ("detect", "--recipe", "custom"):
        "--recipe custom needs an explicit --feature list",
    ("scoremap", "--feature", " , "): "--feature was given but names no columns",
    ("detect", "--model", "knn", "--feature", "dv_max,dq_max, dv_max"):
        "--feature names 'dv_max' twice",
    ("detect", "--model", "all", "--feature", "dv_max,dv_max"):
        "--feature names 'dv_max' twice",
    ("tune", "--model", "knn", "--strategy", "proxy", "--feature", "dq_max,dq_max"):
        "--feature names 'dq_max' twice",
    ("ingest", "--col", "voltage=voltage_v", "--col", "voltage=capacity_ah"):
        "--col gives role 'voltage' twice",
    ("detect", "--col", "voltage=A", "--col", "voltage=B"):
        "--col gives role 'voltage' twice",
    ("features", "--col", "voltage="): "--col expects role=name, got 'voltage='",
    ("scoremap", "--col", "=capacity_ah"):
        "--col expects role=name, got '=capacity_ah'",
}


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS.items(), ids=map(" ".join, USAGE_ERRORS)
)
def test_usage_errors_come_before_the_input_is_read(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    rc = run(*argv, "--input", str(tmp_path / "nope.csv"), "--out", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


#: argv refused with exit 1 and one stderr line, each message in full; the
#: braced names are the dataset's files and ones the test writes
REFUSALS = {
    ("detect", "--recipe", "custom", "--feature", ","):
        "--feature was given but names no columns",
    ("scoremap", "--recipe", "custom", "--feature", "dv_max,dq_max,dvdq_max"):
        "scoremap needs exactly 2 features, got 3",
    ("tune", "--model", "mad"):
        "tuning applies to learned models "
        "['iforest', 'knn', 'gmm', 'lof', 'pca', 'autoencoder']",
    # the manifest trains on cellA, and only cellB is labeled
    ("tune", "--model", "knn", "--strategy", "transfer", "--labels", "{cellB_labels}",
     "--manifest", "{manifest}", "--recipe", "custom", "--feature", FEATURES):
        "no labeled train cells to tune on",
    ("evaluate", "--labels", "{labels}", "--input", "{no_verdicts}"):
        "no verdicts for labeled cells found under '{no_verdicts}'",
    ("ingest", "--col", "bogus=x"): "unknown column roles: ['bogus']",
    ("tune", "--model", "knn", "--strategy", "proxy", "--manifest", "{dev_role}",
     "--recipe", "custom", "--feature", FEATURES):
        "{dev_role}: row 3: unknown role 'dev' (expected train or test)",
}


@pytest.mark.parametrize(
    "argv, message", REFUSALS.items(), ids=map(" ".join, REFUSALS)
)
def test_refusal_exits_1_with_its_message_and_writes_nothing(
    dataset, tmp_path, capsys, argv, message
):
    paths = {
        "labels": dataset["labels"],
        "manifest": dataset["manifest"],
        "cellB_labels": str(tmp_path / "cellB_labels.csv"),
        "no_verdicts": str(tmp_path / "no_verdicts"),
        "dev_role": str(tmp_path / "dev_role.csv"),
    }
    Path(paths["cellB_labels"]).write_text("cell_id,cycle_index\ncellB,20\n")
    Path(paths["no_verdicts"]).mkdir()
    Path(paths["dev_role"]).write_text("cell_id,role\ncellA,train\ncellB,dev\n")
    argv = [a.format(**paths) for a in argv]
    if "--input" not in argv:
        argv += ["--input", dataset["meas"]]
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not out.exists()


def test_input_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    meas = tmp_path / "latin1.csv"
    meas.write_bytes(
        "cell_id,cycle_index,time_s,voltage_v,capacity_ah\n"
        "A\u00e9,0,0.0,4.0,0.0\n".encode("latin-1")
    )
    out = tmp_path / "out"
    assert run("ingest", "--input", str(meas), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {meas}: not UTF-8 text: byte 0xe9: invalid continuation byte\n"
    )
    assert not out.exists()


def test_scoremap_error_names_the_cell_and_the_model(tmp_path, capsys):
    # five identical cycles: every centroid distance is the same
    rows = "".join(
        f"F,{cycle},{t}.0,{4 - t}.0,{t}.0\n" for cycle in range(5) for t in range(4)
    )
    meas = tmp_path / "flat.csv"
    meas.write_text("cell_id,cycle_index,time_s,voltage_v,capacity_ah\n" + rows)
    common = ("--input", str(meas), "--recipe", "custom", "--feature", FEATURES)
    message = (
        "error: cell F, model euclidean: "
        "all centroid distances are equal; nothing to rank\n"
    )
    for command, model in (("detect", "euclidean"), ("scoremap", "all")):
        out = tmp_path / command
        rc = run(command, *common, "--out", str(out), "--model", model)
        assert rc == 1
        assert capsys.readouterr().err == message
        # the guard notes are written even though a model failed
        assert (out / "F" / "feature_notes.txt").is_file()


def test_evaluate_names_the_labeled_cells_it_leaves_out(dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(
        "detect", "--input", dataset["meas"], "--out", str(run_dir),
        "--recipe", "custom", "--feature", FEATURES, "--model", "iqr",
    ) == 0
    reports = {}
    for name, extra in (("plain", ""), ("extra", "cellZ,3\ncellY,1\n")):
        labels = tmp_path / f"{name}.csv"
        labels.write_text(Path(dataset["labels"]).read_text() + extra)
        capsys.readouterr()
        out = tmp_path / name
        assert run(
            "evaluate", "--input", str(run_dir), "--out", str(out),
            "--labels", str(labels),
        ) == 0
        captured = capsys.readouterr()
        reports[name] = captured.out, tree_bytes(out), captured.err
    assert reports["plain"][2] == ""
    assert reports["extra"][:2] == reports["plain"][:2]
    assert reports["extra"][2] == (
        f"note: no verdicts under '{run_dir}' for labeled cells cellY, cellZ; "
        "they are left out of the report\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("detect",),
        ("scoremap",),
        ("tune", "--model", "knn", "--strategy", "proxy", "--trials", "2"),
    ],
    ids=["detect", "scoremap", "tune"],
)
def test_unknown_feature_is_a_usage_error_that_writes_no_feature_notes(
    dataset, tmp_path, capsys, argv
):
    # the cell's feature table is built before the column lookup fails, but
    # a usage error is not an outcome of the cell, so no notes are written
    out = tmp_path / "out"
    rc = run(
        *argv, "--input", dataset["meas"], "--out", str(out),
        "--recipe", "custom", "--feature", "nosuch",
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: unknown feature column 'nosuch'; have ["
    )
    assert list(out.rglob("feature_notes.txt")) == []


def test_tune_tables_quote_a_cell_id_with_comma_and_quote(tmp_path, capsys):
    cell = 'a,"b'
    records = generate_cell(
        30, samples_per_cycle=16, seed=3, cell_id=cell,
        anomalies=(AnomalySpec("point", (10,), 0.4),),
    )
    meas, labels = str(tmp_path / "meas.csv"), str(tmp_path / "labels.csv")
    write_dataset({cell: records}, meas, labels)
    out = tmp_path / "out"
    assert run(
        "tune", "--input", meas, "--out", str(out), "--recipe", "custom",
        "--feature", FEATURES, "--model", "knn", "--strategy", "proxy",
        "--trials", "3",
    ) == 0
    capsys.readouterr()
    tuning = out / "tuning" / "knn"
    for name in ("trials.csv", "pareto.csv"):
        with open(tuning / name, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "cell_id"
        assert len(rows) > 1
        assert {row[0] for row in rows[1:]} == {cell}, name
        assert {len(row) for row in rows} == {len(rows[0])}, name
    digest = hashlib.sha256(cell.encode("utf-8")).hexdigest()[:8]
    assert sorted(p.name for p in tuning.glob("compromise_*.json")) == [
        f"compromise_a__b-{digest}.json"
    ]
