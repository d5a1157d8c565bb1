import os

import numpy as np
import pytest

import cyclescreen
from cyclescreen.dataset import CycleRecord

# acceptance criterion outcomes collected by the makereport hook, printed as
# one line per criterion at the end of the run
_CRITERIA: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, text): numbered acceptance criterion for the summary",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, text = marker.args
    if report.when == "setup" and report.skipped:
        _CRITERIA[num] = (text, "SKIP")
    elif report.when == "call":
        _CRITERIA[num] = (text, "PASS" if report.passed else "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA):
        text, status = _CRITERIA[num]
        terminalreporter.write_line(f"[criterion {num:>2}] {status}  {text}")


def make_cycle(cell_id, cycle_index, time, voltage, capacity, label=None):
    samples = np.column_stack(
        [
            np.asarray(time, dtype=float),
            np.asarray(voltage, dtype=float),
            np.asarray(capacity, dtype=float),
        ]
    )
    return CycleRecord(
        cell_id=cell_id, cycle_index=cycle_index, samples=samples, label=label
    )


@pytest.fixture
def simple_cycles():
    """Three short cycles for one cell with hand-checkable values.

    Each voltage trace dips then relaxes upward so the max consecutive
    difference is positive and log features stay defined.
    """
    return [
        make_cycle("A", 0, [0, 1, 2], [4.0, 3.5, 3.7], [0.0, 0.5, 1.0]),
        make_cycle("A", 1, [0, 1, 2], [4.0, 3.4, 3.65], [0.0, 0.6, 1.1]),
        make_cycle("A", 2, [0, 1, 2], [4.0, 3.6, 3.75], [0.0, 0.4, 0.9]),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports cyclescreen from
    where this one does, whether or not PYTHONPATH names the source tree."""
    src = os.path.dirname(os.path.dirname(cyclescreen.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
