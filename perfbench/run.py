"""Benchmark of the cyclescreen command line on seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_screen --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads (see workloads.py for why each exists): fleet_screen and
long_cell. Set-up writes the workload's inputs from --seed.

--trace 0 runs the workload's subcommands in a closed loop: one `cyclescreen`
process at a time, each with --jobs 1, a whole pass of the steps after
another, as many passes as the workload's nominal pass time fits in
--seconds (at least three; the count does not depend on how fast the passes
go, so runs on either side of a comparison take the fastest of equally many
passes). Each process's wall time and its own peak RSS (from os.wait4) are
recorded, and every output is checked. After each pass a fresh interpreter
times `python -c "import cyclescreen.cli"` (setup_s, the program's own
set-up). It prints the end-to-end metrics for the workload: a step's time is
its fastest pass, because this kind of shared host runs slow phases of tens
of seconds that only ever add time; setup_s and peak_rss_mb are medians.

--trace 1 runs the same steps in this process through `cyclescreen.cli.main`,
alternating untraced passes with passes traced by spans.py, and prints the
per-layer metrics and the tracing overhead.

Both print a table, the machine facts and the output digest, then, as the
last stdout line, one JSON object with the keys correct, attempted, failed
and metrics. Inputs, outputs, stderr logs, spans and the full result go to
.perfbench_work/<workload>/ under the current directory.

To compare two commits, run both on the same seeds and --seconds, alternating
which goes first, and compare the medians of the result lines; BENCHMARK.json
gives the share by which each end-to-end metric may worsen.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy

import spans
from workloads import (
    WORKLOADS,
    check_step,
    generate,
    mean_macro_f1,
    metric_of,
    step_argv,
    tree_digest,
)

DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_PASSES = 3
STEP_TIMEOUT_S = 60.0
WORK_DIR = ".perfbench_work"
END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_s": "s",
    "features_s": "s",
    "detect_s": "s",
    "evaluate_s": "s",
    "scoremap_s": "s",
    "tune_s": "s",
    "cycles_per_s": "cycles/s",
    "peak_rss_mb": "MB",
    "mean_macro_f1": "ratio",
}
#: the end-to-end metrics every workload reports in the result line
RESULT_METRICS = ("setup_s", "cycles_per_s", "peak_rss_mb")


def summary(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Counter:
    """Operations attempted and failed; an operation is a step plus its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                sys.stderr.write(f"perfbench: {label}: {problem}\n")


def operation_problems(step, last, rc, detail, inputs, out, digests) -> list[str]:
    """What went wrong in one operation: a non-zero exit, an output check,
    or, after a pass's last step, an output tree unlike the first pass's."""
    if rc:
        return [f"exit code {rc}: {detail}"]
    problems = check_step(step, inputs, out)
    if last and not problems:
        digests.append(tree_digest(out))
        if digests[-1] != digests[0]:
            problems.append("output tree differs from the first pass")
    return problems


def run_process(cmd, env, log_path) -> tuple[float, float, int]:
    """Run cmd to completion; returns wall seconds, its own peak RSS in MB
    and its exit code. The child's stderr goes to log_path."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def measure_setup(env, log_path, importtime=False, repeats=SETUP_REPEATS) -> list:
    """Wall times of `import cyclescreen.cli` in fresh interpreters, or
    their `-X importtime` reports. Called after a measured pass, so the
    bytecode caches are written, as they are for an installed package."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, "-c", "import cyclescreen.cli"]
    samples = []
    for _ in range(repeats):
        wall, _, rc = run_process(cmd, env, log_path)
        if rc != 0:
            raise RuntimeError(f"import cyclescreen.cli failed; see {log_path}")
        if importtime:
            with open(log_path, encoding="utf-8") as handle:
                samples.append(handle.read())
        else:
            samples.append(wall)
    return samples


def measure_processes(workload, inputs, seconds, work, env, counter) -> dict:
    """Closed loop of subcommand processes; per-pass end-to-end samples.

    The run makes workload.passes(seconds) passes. After each pass one fresh
    interpreter times `import cyclescreen.cli`, so the set-up samples are
    spread over the run like the passes.
    """
    out = os.path.join(work, "out")
    samples: dict[str, list] = {"setup_s": []}
    step_walls: dict[str, list] = {step: [] for step in workload.steps}
    digests = []
    for _ in range(workload.passes(seconds, MIN_PASSES)):
        shutil.rmtree(out, ignore_errors=True)
        walls: dict[str, float] = {}
        peak = 0.0
        for i, step in enumerate(workload.steps):
            log = os.path.join(work, f"{step.replace(':', '_')}.stderr")
            cmd = [sys.executable, "-m", "cyclescreen.cli", *step_argv(step, inputs, out)]
            wall, rss_mb, rc = run_process(cmd, env, log)
            step_walls[step].append(wall)
            walls[metric_of(step)] = walls.get(metric_of(step), 0.0) + wall
            peak = max(peak, rss_mb)
            problems = operation_problems(
                step, i == len(workload.steps) - 1, rc, f"stderr in {log}", inputs, out, digests
            )
            if step == "evaluate" and not problems:
                samples.setdefault("mean_macro_f1", []).append(mean_macro_f1(out))
            counter.record(step, problems)
        if counter.failed and not digests:
            break  # nothing completes; do not repeat a failing pass
        for metric, wall in walls.items():
            samples.setdefault(metric, []).append(wall)
        samples.setdefault("cycles_per_s", []).append(inputs.total_cycles / sum(walls.values()))
        samples.setdefault("peak_rss_mb", []).append(peak)
        samples["setup_s"] += measure_setup(env, os.path.join(work, "setup.stderr"), repeats=1)
    return {"samples": samples, "step_walls": step_walls, "digests": digests}


def reported_values(workload, inputs, samples, step_walls) -> dict:
    """The value each end-to-end metric reports.

    A shared host's speed swings between fast and slow phases lasting tens
    of seconds, and a slow phase only ever adds time, so a step's time is the
    fastest of its passes (the lower bound that `timeit` also reports), and
    cycles_per_s divides the input's cycles by the sum of those fastest step
    times. setup_s and peak_rss_mb are medians over the run.
    """
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    fastest = {step: min(walls) for step, walls in step_walls.items() if walls}
    for metric in {metric_of(step) for step in workload.steps}:
        values[metric] = sum(w for step, w in fastest.items() if metric_of(step) == metric)
    values["cycles_per_s"] = inputs.total_cycles / sum(fastest.values())
    return values


def run_in_process(cli, argv, tracer=None) -> tuple[float, int, str]:
    """One `cyclescreen.cli.main` call with its output captured; with a
    tracer, inside a root span named after the subcommand."""
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        index = tracer.open(f"cli.{argv[0]}") if tracer else None
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            traceback.print_exc()
            rc = -1
        finally:
            if tracer:
                tracer.close(index)
    return time.perf_counter() - start, rc, captured.getvalue()


def measure_traced(workload, inputs, seconds, work, counter) -> dict:
    """Untraced and traced in-process passes; per-layer metrics.

    Passes run in pairs whose order alternates (untraced first, then traced
    first), because back-to-back in-process passes were seen to speed up; an
    untimed first pass takes the one-off costs of the first in-process run.
    """
    from cyclescreen import cli

    out = os.path.join(work, "out")
    tracer = spans.Tracer()
    digests = []

    def run_pass(use_tracer: bool) -> float:
        shutil.rmtree(out, ignore_errors=True)
        if use_tracer:
            spans.install(tracer)
        wall = 0.0
        try:
            for i, step in enumerate(workload.steps):
                step_wall, rc, text = run_in_process(
                    cli, step_argv(step, inputs, out), tracer if use_tracer else None
                )
                wall += step_wall
                # traced and untraced passes must write identical trees
                problems = operation_problems(
                    step, i == len(workload.steps) - 1, rc, text[-2000:], inputs, out, digests
                )
                counter.record(step, problems)
        finally:
            tracer.uninstall()
        return wall

    run_pass(False)
    untraced_walls, traced = [], []
    for _ in range(workload.passes(seconds, MIN_PASSES)):
        for use_tracer in (False, True) if len(traced) % 2 == 0 else (True, False):
            tracer.run_id = f"pass{len(traced)}"
            first = len(tracer.spans)
            wall = run_pass(use_tracer)
            if use_tracer:
                traced.append((wall, first, tracer.spans[first:]))
            else:
                untraced_walls.append(wall)
    tracer.dump(os.path.join(work, "spans.jsonl"))
    untraced = statistics.median(untraced_walls)
    per_pass = [spans.layer_metrics(s, first, wall, untraced) for wall, first, s in traced]
    summaries = {
        name: (summary(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    # the self times of all spans must add up to each traced pass's wall
    # time, up to the bookkeeping between spans, which is part of the overhead
    tolerance = max(abs(summaries["trace.overhead_s"][0]["median"]), 1e-3)
    consistent = all(abs(m["trace.unaccounted_s"][0]) <= tolerance for m in per_pass)
    if not consistent:
        sys.stderr.write("perfbench: span self times do not add up to the traced wall time\n")
    return {"summaries": summaries, "digests": digests, "consistent": consistent,
            "untraced_walls": untraced_walls, "traced_walls": [wall for wall, _, _ in traced]}


def machine_facts(root: str) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "git_sha": sha,
        "src_sha256": tree_digest(os.path.join(root, "src", "cyclescreen")),
        "loadavg_before": os.getloadavg(),
    }


def print_table(title: str, rows) -> None:
    """rows of (name, unit, summary, reported value)."""
    print(title)
    print(f"  {'metric':<36} {'unit':<9} {'reported':>13} {'median':>13} {'q1':>13}"
          f" {'q3':>13} {'n':>5}")
    for name, unit, s, value in rows:
        print(
            f"  {name:<36} {unit:<9} {value:>13.6g} {s['median']:>13.6g} {s['q1']:>13.6g}"
            f" {s['q3']:>13.6g} {s['n']:>5}"
        )


def run_workload(workload, seed, seconds, trace, root, env) -> int:
    """Set up, measure and report one workload; 0 once a result is printed."""
    work = os.path.join(root, WORK_DIR, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    facts = machine_facts(root)

    inputs = generate(workload, seed, os.path.join(work, "data"))
    counter = Counter()
    title = (
        f"{workload.name}: seed {seed}, {len(inputs.cells)} cell(s) x "
        f"{inputs.n_cycles} cycles x {workload.samples_per_cycle} samples "
        f"({inputs.rows} rows)"
        + (f", tune cell {inputs.tune.n_cycles} cycles" if inputs.tune else "")
        + f", steps {', '.join(workload.steps)}"
    )
    if trace:
        result = measure_traced(workload, inputs, seconds, work, counter)
        texts = measure_setup(env, os.path.join(work, "importtime.stderr"), importtime=True)
        imports = [spans.import_times(t) for t in texts]
        summaries = {name: (summary(i[name] for i in imports), "s") for name in imports[0]}
        summaries.update(result["summaries"])
        print_table(
            f"{title}; per layer over {len(result['traced_walls'])} traced in-process passes"
            f" (setup.import over {SETUP_REPEATS} interpreters)",
            [(name, unit, s, s["median"]) for name, (s, unit) in summaries.items()],
        )
        print(
            f"  tracing overhead {summaries['trace.overhead_s'][0]['median']:.4f} s: traced "
            f"wall {summaries['trace.wall_s'][0]['median']:.4f} s minus untraced "
            f"{summaries['trace.untraced_wall_s'][0]['median']:.4f} s (medians)"
        )
        reported = {name: (s["median"], unit) for name, (s, unit) in summaries.items()}
    else:
        result = measure_processes(workload, inputs, seconds, work, env, counter)
        samples = result["samples"]
        if not all(samples.get(name) for name in RESULT_METRICS):
            sys.stderr.write(f"perfbench: {workload.name}: no pass completed; no result\n")
            return 1
        values = reported_values(workload, inputs, samples, result["step_walls"])
        summaries = {
            name: (summary(samples[name]), unit)
            for name, unit in END_TO_END_UNITS.items()
            if samples.get(name)
        }
        error_rate = summary([counter.failed / counter.attempted]) | {"n": counter.attempted}
        print_table(
            f"{title}; end to end over {len(result['digests'])} passes; a step time"
            " reports its fastest pass, cycles_per_s the cycles over their sum",
            [(name, unit, s, values[name]) for name, (s, unit) in summaries.items()]
            + [("error_rate", "ratio", error_rate, error_rate["median"])],
        )
        reported = {name: (values[name], END_TO_END_UNITS[name]) for name in RESULT_METRICS}

    facts["loadavg_after"] = os.getloadavg()
    digests = result["digests"]
    print(f"facts {json.dumps(facts, sort_keys=True)}")
    print(
        f"output sha256 {digests[0] if digests else None} from the first of "
        f"{len(digests)} checked passes; all identical: {len(set(digests)) == 1}"
    )
    line = {
        "correct": counter.failed == 0 and result.get("consistent", True),
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()
        },
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "seconds": seconds, "trace": trace, "facts": facts,
                   "result": line,
                   "detail": {k: v for k, v in result.items() if k != "summaries"}},
                  handle, indent=2, default=str)
    print(json.dumps(line), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload data seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measurement time per workload in seconds; sets the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # on SIGTERM, unwind so that run_process stops and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cyclescreen", "cli.py")):
        sys.stderr.write(
            "perfbench: src/cyclescreen/cli.py not found; run from the repository root\n"
        )
        return 2
    sys.path.insert(0, src)  # the in-process parts use the checkout's package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    return max(
        run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, root, env)
        for name in names
    )


if __name__ == "__main__":
    sys.exit(main())
