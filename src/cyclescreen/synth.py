"""Synthetic discharge-cycle generator with ground-truth anomaly labels.

The base curve holds a voltage plateau that rolls off through a logistic
knee as normalized throughput approaches the end of discharge; capacity
rises linearly to a per-cycle maximum that fades with cycle number plus a
seeded jitter. Anomalies are injected deterministically per spec:

* point: a single-sample spike mid-cycle
* collective: a contiguous block of samples offset together
* local: the whole cycle's channel shifted by a small amount
* global: the same shift, intended to be used with a gross magnitude

Point and collective anomalies disturb consecutive differences and surface
in the difference features; local/global level shifts leave differences
untouched by design and are the business of capacity-trend features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CycleRecord, CycleStore, export_cycles, export_labels
from .errors import ConfigError

ANOMALY_KINDS = ("point", "collective", "local", "global")
CHANNELS = ("voltage", "capacity", "both")


@dataclass(frozen=True)
class AnomalySpec:
    kind: str
    cycles: tuple[int, ...]
    magnitude: float
    channel: str = "voltage"

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ConfigError(
                f"unknown anomaly kind '{self.kind}'; expected {ANOMALY_KINDS}"
            )
        if self.channel not in CHANNELS:
            raise ConfigError(
                f"unknown channel '{self.channel}'; expected {CHANNELS}"
            )
        if not np.isfinite(self.magnitude) or self.magnitude <= 0:
            raise ConfigError(
                f"magnitude must be positive, got {self.magnitude!r}"
            )
        object.__setattr__(self, "cycles", tuple(int(c) for c in self.cycles))


@dataclass(frozen=True)
class FadeModel:
    """Shape parameters of the clean discharge curve."""

    initial_capacity: float = 1.1
    fade_per_cycle: float = 2e-4
    plateau_voltage: float = 3.3
    cutoff_voltage: float = 2.0
    knee_position: float = 0.85
    knee_sharpness: float = 8.0
    duration_s: float = 900.0
    capacity_jitter: float = 1e-3
    voltage_noise: float = 5e-4


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _clean_cycle(s: np.ndarray, cap_n: float, fade: FadeModel, rng):
    drop = fade.plateau_voltage - fade.cutoff_voltage - 0.1
    voltage = (
        fade.plateau_voltage
        - 0.1 * s
        - drop * _sigmoid(fade.knee_sharpness * (s - fade.knee_position))
    )
    if fade.voltage_noise > 0:
        voltage = voltage + rng.normal(0.0, fade.voltage_noise, size=s.shape)
    capacity = s * cap_n
    time = s * fade.duration_s
    return time, voltage, capacity


def _apply(spec: AnomalySpec, voltage: np.ndarray, capacity: np.ndarray):
    n = voltage.shape[0]
    if spec.kind == "point":
        rows = slice(n // 2, n // 2 + 1)
    elif spec.kind == "collective":
        rows = slice(n // 3, n // 3 + max(2, n // 4))
    else:  # local / global: a whole-cycle level shift
        rows = slice(None)
    for channel, values in (("voltage", voltage), ("capacity", capacity)):
        if spec.channel in (channel, "both"):
            values[rows] += spec.magnitude


def generate_cell(
    n_cycles: int,
    samples_per_cycle: int = 64,
    fade: FadeModel | None = None,
    anomalies: tuple[AnomalySpec, ...] = (),
    seed: int = 0,
    cell_id: str = "SYN-0",
) -> tuple[list[CycleRecord], set[int]]:
    """Simulate one cell; returns records and the truth cycle set.

    Identical arguments produce identical samples and truth sets. Every
    anomaly target must name an existing cycle index in [0, n_cycles).
    """
    if n_cycles < 1 or samples_per_cycle < 4:
        raise ConfigError(
            "need at least 1 cycle and 4 samples per cycle"
        )
    fade = fade or FadeModel()
    plan: dict[int, list[AnomalySpec]] = {}
    for spec in anomalies:
        for cyc in spec.cycles:
            if cyc < 0 or cyc >= n_cycles:
                raise ConfigError(
                    f"anomaly targets cycle {cyc}, valid range is "
                    f"[0, {n_cycles - 1}]"
                )
            plan.setdefault(cyc, []).append(spec)
    truth = set(plan)
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, 1.0, samples_per_cycle)
    records = []
    for cyc in range(n_cycles):
        cap_n = fade.initial_capacity * (1.0 - fade.fade_per_cycle * cyc)
        cap_n += rng.normal(0.0, fade.capacity_jitter * fade.initial_capacity)
        time, voltage, capacity = _clean_cycle(s, cap_n, fade, rng)
        for spec in plan.get(cyc, ()):
            _apply(spec, voltage, capacity)
        records.append(
            CycleRecord(
                cell_id=cell_id,
                cycle_index=cyc,
                samples=np.column_stack([time, voltage, capacity]),
            )
        )
    return records, truth


def write_dataset(
    cells: dict[str, tuple[list[CycleRecord], set[int]]],
    measurements_path: str,
    labels_path: str | None = None,
) -> None:
    """Write cells to the measurement format, plus a label file when asked."""
    records = []
    labels: dict[str, set[int]] = {}
    for cell_id, (recs, truth) in sorted(cells.items()):
        records.extend(recs)
        labels[cell_id] = set(truth)
    export_cycles(CycleStore(records=tuple(records)), measurements_path)
    if labels_path is not None:
        export_labels(labels, labels_path)
