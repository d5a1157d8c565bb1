"""The fixed-seed output bytes, pinned file by file.

`output_digests.json` holds the sha256 of every file that one fixed-seed
run of all six subcommands writes, and the NumPy version it was recorded
under. The run covers the 15 detectors, every synthetic anomaly kind and
channel, the autoencoder under each of its three optimizers and the knn
neighbour search (through scoremap). It fits gmm with its defaults only
(full covariance, kmeans init, one component); the other covariance types,
inits and component counts are held byte for byte by
tests/test_gmm_reference.py. Under another NumPy version the test skips,
since floating-point results may then differ in the last bit.

After a change that is meant to move output bytes, rewrite the manifest
with `PYTHONPATH=src python tests/test_output_digests.py`.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cyclescreen.cli import main
from cyclescreen.synth import AnomalySpec, generate_cell, write_dataset

MANIFEST = Path(__file__).with_name("output_digests.json")
FEATURES = ["--recipe", "custom", "--feature", "dv_max,dq_max"]


def pipeline_digests(root) -> dict[str, str]:
    """sha256 of each file the six subcommands write under root/out, keyed
    by its path relative to that directory."""
    root = Path(root)
    meas, labels, out = (str(root / name) for name in ("meas.csv", "labels.csv", "out"))
    cells = {
        "alpha": generate_cell(
            40, samples_per_cycle=32, seed=5, cell_id="alpha",
            anomalies=(
                AnomalySpec("point", (7, 21), 0.4),
                AnomalySpec("local", (30,), 0.02, channel="capacity"),
            ),
        ),
        "beta": generate_cell(
            40, samples_per_cycle=32, seed=6, cell_id="beta",
            anomalies=(
                AnomalySpec("collective", (15,), 0.3, channel="both"),
                AnomalySpec("global", (33,), 0.5),
            ),
        ),
    }
    write_dataset(cells, meas, labels)
    steps = [
        ["ingest", "--input", meas, "--out", out],
        ["features", "--input", meas, "--out", out, "--recipe", "custom"],
        ["detect", "--input", meas, "--out", out, "--seed", "11", "--model", "all",
         *FEATURES],
        ["tune", "--input", meas, "--out", out, "--seed", "11",
         "--model", "autoencoder", "--strategy", "proxy", "--trials", "6",
         *FEATURES],
        ["evaluate", "--input", out, "--labels", labels, "--out", out],
        ["scoremap", "--input", meas, "--out", out, "--model", "knn",
         "--resolution", "12", *FEATURES],
    ]
    # detect's default autoencoder runs adam; the other two optimizers write
    # their own directories, after evaluate has read the verdicts above
    for optimizer in ("sgd", "momentum"):
        config = root / f"{optimizer}.json"
        config.write_text(json.dumps(
            {"model": "autoencoder", "params": {"optimizer_name": optimizer}}
        ))
        steps.append(
            ["detect", "--input", meas, "--out", f"{out}/{optimizer}",
             "--model", "autoencoder", "--config", str(config), *FEATURES]
        )
    for argv in steps:
        assert main(argv) == 0, argv
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out).rglob("*"))
        if path.is_file()
    }


def test_fixed_seed_outputs_match_the_recorded_digests(tmp_path):
    recorded = json.loads(MANIFEST.read_text())
    if recorded["numpy"] != np.__version__:
        pytest.skip(
            f"digests recorded under NumPy {recorded['numpy']}, "
            f"running NumPy {np.__version__}"
        )
    digests = pipeline_digests(tmp_path)
    assert sorted(digests) == sorted(recorded["files"])
    moved = [name for name, digest in digests.items() if digest != recorded["files"][name]]
    assert not moved, f"output bytes moved in {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = pipeline_digests(tmp)
    MANIFEST.write_text(
        json.dumps({"numpy": np.__version__, "files": files}, indent=1) + "\n"
    )
