"""Every `cyclescreen` command in README.md's sh blocks, and its "Library
use" python block, runs as written.

The commands are read from the README itself, so an example that drifts
from the CLI fails here. Each runs in a fresh directory that holds the
files the README names: synthetic cells as measurements.csv and m.csv,
their labels.csv, a roles.csv manifest, and export.csv, the semicolon
export with German column names that "Input formats" describes.
"""

import csv
import os
import re
import shlex
import shutil

import numpy as np
import pytest

from cyclescreen.cli import main
from cyclescreen.features import RECIPE_DEFAULTS, build_feature_matrix
from cyclescreen.synth import AnomalySpec, FadeModel, generate_cell, write_dataset

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def readme_commands():
    """The README's sh-block lines that start with 'cyclescreen ', with
    backslash continuations joined."""
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```sh\n(.*?)```", handle.read(), re.S)
    return [
        " ".join(line.split())
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("cyclescreen ")
    ]


#: detect --model under the default severson recipe -> why it exits 1 on
#: synthetic cells: their voltage falls through each cycle, so the log
#: columns are floored on most cycles and the spread estimates are zero
DEFAULT_RECIPE_FAILS = {
    "all": "default severson recipe: mad exits 1, "
           "median absolute deviation is zero",
    "mad": "default severson recipe: median absolute deviation is zero",
    "iqr": "default severson recipe: interquartile range is zero",
}


def case(command):
    argv = shlex.split(command)[1:]
    model = argv[argv.index("--model") + 1] if "--model" in argv else None
    if argv[0] == "detect" and "--recipe" not in argv and model in DEFAULT_RECIPE_FAILS:
        return pytest.param(argv, id=command, marks=pytest.mark.xfail(
            strict=True, reason=DEFAULT_RECIPE_FAILS[model]
        ))
    return pytest.param(argv, id=command)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("readme_inputs")
    cells = {
        "C0": generate_cell(
            120, samples_per_cycle=32, seed=0, cell_id="C0",
            anomalies=(AnomalySpec("point", (12, 40), 0.4),),
        ),
        "C1": generate_cell(
            120, samples_per_cycle=32, seed=1, cell_id="C1",
            anomalies=(
                AnomalySpec("point", (5,), 0.35),
                AnomalySpec("point", (88,), 0.35, channel="capacity"),
            ),
        ),
        "C2": generate_cell(
            120, samples_per_cycle=32, seed=2, cell_id="C2",
            anomalies=(AnomalySpec("collective", (33, 34), 0.3, channel="both"),),
        ),
    }
    write_dataset(cells, str(root / "measurements.csv"), str(root / "labels.csv"))
    shutil.copy(root / "measurements.csv", root / "m.csv")
    (root / "roles.csv").write_text("cell_id,role\nC0,train\nC1,train\nC2,test\n")
    with open(root / "measurements.csv", newline="") as src, \
            open(root / "export.csv", "w", newline="") as dst:
        rows = list(csv.reader(src))
        rows[0] = ["cell_id", "cycle_index", "time_s", "U_volts", "Q_ah"]
        csv.writer(dst, delimiter=";").writerows(rows)
    return root


def test_readme_shows_every_subcommand():
    shown = {command.split()[1] for command in readme_commands()}
    assert shown == {"ingest", "features", "detect", "tune", "evaluate", "scoremap"}


@pytest.mark.parametrize("argv", [case(c) for c in readme_commands()])
def test_readme_command_exits_zero(inputs, tmp_path, monkeypatch, capsys, argv):
    for name in os.listdir(inputs):
        shutil.copy(inputs / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "evaluate":
        assert main([
            "detect", "--input", "m.csv", "--out", "out", "--model", "all",
            "--recipe", "custom", "--feature", "dv_max,dq_max",
        ]) == 0
    rc = main(argv)
    assert rc == 0, capsys.readouterr().err


def test_readme_library_block_runs():
    # the block's entry points are the package's documented library use.
    # At the default voltage noise, the severson recipe floors most log
    # rows of a synthetic cell and mad finds a zero spread; at 2e-3, with
    # 64 samples a cycle, no row is floored
    with open(README, encoding="utf-8") as handle:
        (block,) = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    records, _ = generate_cell(
        120, fade=FadeModel(voltage_noise=2e-3), seed=0,
        anomalies=(AnomalySpec("point", (12, 40), 0.4),),
    )
    matrix, notes = build_feature_matrix(records)
    assert notes.is_empty()
    X = np.column_stack([matrix.column(c) for c in RECIPE_DEFAULTS["severson"][1]])
    names = {"records": records, "X": X}
    exec(compile(block, "README.md", "exec"), names)
    assert names["flags"].shape == (120,)
    assert names["matrix"].cycle_index.shape == (120,)
