"""In-memory span tracing around the public calls between cyclescreen modules.

A `Tracer` replaces a function at the binding its caller looks up (for
example `cyclescreen.cli.ingest_cycles`, or `pairwise` as imported into
`cyclescreen.ml_detect.knn`) with a wrapper that records a span: name,
start, end, parent span and run id, plus counts taken at the same boundary.
Nothing under `src/` is edited; `uninstall` puts every original back.

`layer_metrics` turns the spans of one traced pass into the per-layer
metrics, where a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import re
import time

from workloads import ML_MODELS

SUBCOMMANDS = ("ingest", "features", "detect", "tune", "evaluate", "scoremap")
MODULES = (
    "cli", "dataset", "features", "stat_detect", "dist_detect", "ml_detect",
    "tune", "evaluation", "util",
)


class Tracer:
    """Records spans in memory; `dump` writes them as JSON lines."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, run, counts]
        self.run_id = ""
        self._stack = []
        self._patched = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counts=None):
        """Wrap fn in a span; name and counts are functions of the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counts is not None:
                tracer.spans[index][5] = counts(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, counts=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, counts))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, run, counts) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run, "counts": counts,
                }) + "\n")


def _fixed(label):
    return lambda args, kwargs: label


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def install(tracer: Tracer) -> None:
    """Wrap each module's public functions where their callers look them up."""
    from cyclescreen import cli, dist_detect, ml_detect, tune
    from cyclescreen.ml_detect import knn, lof

    def rows_ingested(args, kwargs, store):
        return {"rows": sum(r.samples.shape[0] for r in store.records)}

    def cycles_in(args, kwargs, result):
        return {"cycles": len(_arg(args, kwargs, 0, "records"))}

    def text_bytes(args, kwargs, result):
        return {"bytes": len(_arg(args, kwargs, 1, "text").encode("utf-8"))}

    def pairwise_bytes(args, kwargs, result):
        # the (n, m, d) float64 difference tensor pairwise materialises
        X = _arg(args, kwargs, 0, "X")
        d = X.shape[1] if getattr(X, "ndim", 1) == 2 else 1
        return {"computed_bytes": result.shape[0] * result.shape[1] * d * 8}

    def scored_rows(args, kwargs, result):
        return {"rows": len(result)}

    def trial_outcomes(args, kwargs, result):
        objectives = [tuple(t.objectives) for t in result.trials]
        return {
            "trials": len(objectives),
            "finite": sum(all(math.isfinite(v) for v in o) for o in objectives),
            "distinct": len(set(objectives)),
        }

    tracer.patch(cli, "ingest_cycles", _fixed("dataset.ingest_cycles"), rows_ingested)
    tracer.patch(cli, "export_cycles", _fixed("dataset.export_cycles"))
    tracer.patch(cli, "read_labels", _fixed("dataset.read_labels"))
    tracer.patch(cli, "build_feature_matrix", _fixed("features.build_feature_matrix"), cycles_in)
    tracer.patch(cli, "log_feature", _fixed("features.log_feature"))
    tracer.patch(cli, "mahalanobis_feature", _fixed("features.mahalanobis_feature"))
    tracer.patch(cli, "detect_stat", _fixed("stat_detect.detect_stat"))
    tracer.patch(cli, "confusion", _fixed("evaluation.confusion"))
    tracer.patch(cli, "benchmark_report", _fixed("evaluation.benchmark_report"))
    tracer.patch(cli, "atomic_write_text", _fixed("util.atomic_write_text"), text_bytes)
    tracer.patch(dist_detect, "centroid_detect", _fixed("dist_detect.centroid_detect"))
    tracer.patch(dist_detect, "score_grid", _fixed("dist_detect.score_grid"))
    for owner in (knn, lof):
        tracer.patch(owner, "pairwise", _fixed("dist_detect.pairwise"), pairwise_bytes)
    tracer.patch(
        ml_detect, "fit",
        lambda args, kwargs: f"ml_detect.{_arg(args, kwargs, 0, 'config').model}.fit",
    )
    tracer.patch(
        ml_detect, "score",
        lambda args, kwargs: f"ml_detect.{_arg(args, kwargs, 0, 'fitted').config.model}.score",
        scored_rows,
    )
    tracer.patch(
        tune, "optimize_proxy",
        lambda args, kwargs: f"tune.optimize_proxy.{_arg(args, kwargs, 2, 'model')}",
        trial_outcomes,
    )
    tracer.patch(tune, "tpe_propose", _fixed("tune.tpe_propose"))


def self_times(spans, first: int) -> list[float]:
    """Each span's duration minus the time its direct children cover;
    spans[0] is the tracer's span number `first`."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent - first] -= end - start
    return own


def layer_metrics(spans, first: int, wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}; the
    pass's spans start at the tracer's span number `first`."""
    own = self_times(spans, first)
    self_by_name: dict[str, float] = {}
    total_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], float] = {}
    for (name, start, end, _, _, span_counts), t in zip(spans, own):
        self_by_name[name] = self_by_name.get(name, 0.0) + t
        total_by_name[name] = total_by_name.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in span_counts.items():
            counts[(name, key)] = counts.get((name, key), 0) + value

    def s(name):
        return self_by_name.get(name, 0.0)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {}
    m["dataset.ingest_cycles_s"] = (s("dataset.ingest_cycles"), "s")
    m["dataset.rows_per_s"] = (
        per(counts.get(("dataset.ingest_cycles", "rows"), 0), s("dataset.ingest_cycles")),
        "rows/s",
    )
    m["dataset.export_cycles_s"] = (s("dataset.export_cycles"), "s")
    m["dataset.read_labels_s"] = (s("dataset.read_labels"), "s")
    m["features.build_feature_matrix_s"] = (s("features.build_feature_matrix"), "s")
    m["features.cycles_per_s"] = (
        per(
            counts.get(("features.build_feature_matrix", "cycles"), 0),
            s("features.build_feature_matrix"),
        ),
        "cycles/s",
    )
    m["stat_detect.detect_stat_s"] = (s("stat_detect.detect_stat"), "s")
    m["stat_detect.calls"] = (calls.get("stat_detect.detect_stat", 0), "count")
    m["dist_detect.centroid_detect_s"] = (s("dist_detect.centroid_detect"), "s")
    m["dist_detect.score_grid_s"] = (s("dist_detect.score_grid"), "s")
    m["dist_detect.pairwise_s"] = (s("dist_detect.pairwise"), "s")
    m["dist_detect.pairwise_calls"] = (calls.get("dist_detect.pairwise", 0), "count")
    m["dist_detect.pairwise_computed_bytes"] = (
        counts.get(("dist_detect.pairwise", "computed_bytes"), 0), "B",
    )
    for model in ML_MODELS:
        m[f"ml_detect.{model}.fit_s"] = (s(f"ml_detect.{model}.fit"), "s")
        m[f"ml_detect.{model}.score_s"] = (s(f"ml_detect.{model}.score"), "s")
    m["ml_detect.fit_calls"] = (
        sum(calls.get(f"ml_detect.{model}.fit", 0) for model in ML_MODELS), "count",
    )
    m["ml_detect.score_rows"] = (
        sum(counts.get((f"ml_detect.{model}.score", "rows"), 0) for model in ML_MODELS),
        "count",
    )
    m["tune.tpe_propose_s"] = (s("tune.tpe_propose"), "s")
    trials = finite = distinct = 0
    for model in ML_MODELS:
        name = f"tune.optimize_proxy.{model}"
        n = counts.get((name, "trials"), 0)
        m[f"tune.s_per_trial.{model}"] = (per(total_by_name.get(name, 0.0), n), "s/trial")
        trials += n
        finite += counts.get((name, "finite"), 0)
        distinct += counts.get((name, "distinct"), 0)
    m["tune.trials"] = (trials, "count")
    m["tune.useful_trial_ratio"] = (per(finite, trials), "ratio")
    m["tune.distinct_objective_ratio"] = (per(distinct, trials), "ratio")
    m["evaluation.confusion_s"] = (s("evaluation.confusion"), "s")
    m["evaluation.benchmark_report_s"] = (s("evaluation.benchmark_report"), "s")
    m["util.atomic_write_text_s"] = (s("util.atomic_write_text"), "s")
    m["util.atomic_write_text_calls"] = (calls.get("util.atomic_write_text", 0), "count")
    m["util.atomic_write_text_bytes"] = (
        counts.get(("util.atomic_write_text", "bytes"), 0), "B",
    )
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.self_s"] = (s(f"cli.{sub}"), "s")
    accounted = 0.0
    for module in MODULES:
        module_self = sum(t for name, t in self_by_name.items() if name.split(".")[0] == module)
        m[f"{module}.self_s"] = (module_self, "s")
        accounted += module_self
    overhead = wall_s - untraced_wall_s
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.unaccounted_s"] = (wall_s - accounted, "s")
    return m


_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\| ( *)(\S+)\s*$")


def import_times(stderr_text: str) -> dict:
    """Cumulative import seconds of numpy, scipy and cyclescreen's own modules.

    `python -X importtime` prints children before their parent, indented
    two spaces per level; read in reverse, each entry follows its ancestors.
    A package's time is the sum over its outermost entries; numpy modules
    that scipy imports count as scipy's, and cyclescreen's time excludes the
    numpy and scipy imports nested under it.
    """
    entries = []
    for line in stderr_text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((int(match.group(1)), len(match.group(2)) // 2, match.group(3)))
    totals = {"numpy": 0, "scipy": 0, "cyclescreen": 0}
    nested_in_cyclescreen = 0
    stack: list[tuple[int, str]] = []  # (level, top-level package) of ancestors
    for cumulative_us, level, name in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        ancestors = {top for _, top in stack}
        top = name.split(".")[0]
        if top == "cyclescreen" and top not in ancestors:
            totals[top] += cumulative_us
        elif top in ("numpy", "scipy") and not ancestors & {"numpy", "scipy"}:
            totals[top] += cumulative_us
            if "cyclescreen" in ancestors:
                nested_in_cyclescreen += cumulative_us
        stack.append((level, top))
    return {
        "setup.import.numpy_s": totals["numpy"] / 1e6,
        "setup.import.scipy_s": totals["scipy"] / 1e6,
        "setup.import.cyclescreen_s": (totals["cyclescreen"] - nested_in_cyclescreen) / 1e6,
    }
