"""The traced benchmark run's contract with the program.

perfbench/spans.py wraps functions where cli and a few library modules look
them up. This runs each subcommand in-process under those wrappers, so a
rename, a call that bypasses a wrapped binding, or a wrapped call whose
arguments the span counters cannot read shows up here.
"""

import os

from cyclescreen import cli
from cyclescreen.synth import AnomalySpec, generate_cell, write_dataset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
FEATURE_ARGS = ("--recipe", "custom", "--feature", "dv_max,dq_max")

#: the names spans.install rebinds on cli
CLI_BINDINGS = (
    "ingest_cycles", "export_cycles", "read_labels",
    "build_feature_matrix", "log_feature", "mahalanobis_feature",
    "detect_stat", "confusion", "benchmark_report", "atomic_write_text",
)

#: the traced run's counts, 6 tuning trials per cell among them. knn and
#: lof call pairwise once per query block, so scoremap's 2,500 grid nodes
#: take 3 calls per cell
EXACT_COUNTS = {
    "ml_detect.fit_calls": 26,
    "dist_detect.pairwise_calls": 26,
    "stat_detect.calls": 10,
    "util.atomic_write_text_calls": 50,
    "tune.trials": 12,
}


def test_traced_run_records_spans_and_restores_cli(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    cells = {
        f"C{i}": generate_cell(
            30, samples_per_cycle=16, seed=i, cell_id=f"C{i}",
            anomalies=(AnomalySpec("point", (12,), 0.4),),
        )
        for i in range(2)
    }
    meas, labels = str(tmp_path / "m.csv"), str(tmp_path / "labels.csv")
    write_dataset(cells, meas, labels)
    out = str(tmp_path / "out")
    files = ("--input", meas, "--out", out)
    commands = [
        ("ingest", *files),
        ("features", *files, "--recipe", "custom"),
        ("detect", *files, *FEATURE_ARGS, "--model", "all"),
        ("evaluate", "--input", out, "--out", out, "--labels", labels),
        ("scoremap", *files, *FEATURE_ARGS, "--model", "knn"),
        ("tune", *files, *FEATURE_ARGS, "--model", "knn", "--strategy", "proxy",
         "--trials", "6"),
    ]

    originals = {name: getattr(cli, name) for name in CLI_BINDINGS}
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        codes = {argv[0]: cli.main(list(argv)) for argv in commands}
    finally:
        tracer.uninstall()

    assert codes == {argv[0]: 0 for argv in commands}
    for name, original in originals.items():
        assert getattr(cli, name) is original, name
    recorded = {span[0] for span in tracer.spans}
    for name in (
        "dataset.ingest_cycles", "dataset.export_cycles", "dataset.read_labels",
        "features.build_feature_matrix", "stat_detect.detect_stat",
        "dist_detect.centroid_detect", "dist_detect.pairwise",
        "evaluation.confusion", "evaluation.benchmark_report",
        "util.atomic_write_text", "ml_detect.knn.fit", "ml_detect.knn.score",
        "tune.optimize_proxy.knn",
    ):
        assert name in recorded, name
    metrics = spans.layer_metrics(tracer.spans, 0, 1.0, 1.0)
    counts = {name: metrics[name][0] for name in EXACT_COUNTS}
    assert counts == EXACT_COUNTS
    # a float's repr can change length with the NumPy build
    assert metrics["util.atomic_write_text_bytes"][0] > 0
