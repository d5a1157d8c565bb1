"""Cycle-level measurement ingestion, labeling, and train/test splitting.

The on-disk interchange format is a delimited text file with one measurement
sample per row:

    cell_id,cycle_index,time_s,voltage_v,capacity_ah

Column names can be remapped at ingest time. Label files carry only the
anomalous cycles (``cell_id,cycle_index``); every other cycle of a labeled
cell is implicitly normal. Manifest files assign whole cells to the train or
test role (``cell_id,role``).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyInputError,
    ManifestError,
    RowParseError,
    SchemaError,
    UnknownCycleError,
)

#: canonical column names, keyed by role
DEFAULT_COLUMNS = {
    "cell_id": "cell_id",
    "cycle_index": "cycle_index",
    "time": "time_s",
    "voltage": "voltage_v",
    "capacity": "capacity_ah",
}

TIME, VOLTAGE, CAPACITY = 0, 1, 2


@dataclass(eq=False)
class CycleRecord:
    """One charge/discharge cycle of one cell.

    samples is an (n, 3) float array with columns time, voltage, capacity,
    sorted by time (stable, so equal stamps keep file order). label is None
    for unlabeled data, else 0/1.
    """

    cell_id: str
    cycle_index: int
    samples: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 3:
            raise SchemaError(
                f"cycle {self.cell_id}/{self.cycle_index}: samples must be (n, 3)"
            )
        if self.samples.shape[0] == 0:
            raise EmptyInputError(
                f"cycle {self.cell_id}/{self.cycle_index} has no samples"
            )

    @property
    def time(self) -> np.ndarray:
        return self.samples[:, TIME]

    @property
    def voltage(self) -> np.ndarray:
        return self.samples[:, VOLTAGE]

    @property
    def capacity(self) -> np.ndarray:
        return self.samples[:, CAPACITY]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleRecord):
            return NotImplemented
        return (
            self.cell_id == other.cell_id
            and self.cycle_index == other.cycle_index
            and self.label == other.label
            and self.samples.shape == other.samples.shape
            and bool(np.array_equal(self.samples, other.samples))
        )


@dataclass
class CycleStore:
    """An ordered collection of cycles spanning one or more cells.

    Records are kept sorted by (cell_id, cycle_index) and unique on that key.
    """

    records: tuple[CycleRecord, ...]

    def __post_init__(self):
        ordered = tuple(
            sorted(self.records, key=lambda r: (r.cell_id, r.cycle_index))
        )
        keys = [(r.cell_id, r.cycle_index) for r in ordered]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise SchemaError(f"duplicate (cell, cycle) pairs: {dupes[:5]}")
        self.records = ordered

    def __len__(self) -> int:
        return len(self.records)

    def cells(self) -> list[str]:
        seen: dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.cell_id, None)
        return list(seen)

    def by_cell(self, cell_id: str) -> list[CycleRecord]:
        return [r for r in self.records if r.cell_id == cell_id]

    def get(self, cell_id: str, cycle_index: int) -> CycleRecord:
        for rec in self.records:
            if rec.cell_id == cell_id and rec.cycle_index == cycle_index:
                return rec
        raise UnknownCycleError(f"no cycle {cell_id}/{cycle_index} in store")


@dataclass(frozen=True)
class SplitManifest:
    """Cell-level train/test assignment. The two sets must not overlap."""

    train_cells: frozenset[str]
    test_cells: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "train_cells", frozenset(self.train_cells))
        object.__setattr__(self, "test_cells", frozenset(self.test_cells))
        overlap = self.train_cells & self.test_cells
        if overlap:
            raise ManifestError(
                f"cells assigned to both roles: {sorted(overlap)}"
            )


def _resolve_columns(header: list[str], columns: dict[str, str], path: str):
    index = {}
    for role, name in columns.items():
        if name not in header:
            raise SchemaError(
                f"{path}: missing required column '{name}' (role {role}); "
                f"found {header}"
            )
        index[role] = header.index(name)
    return index


def _parse_float(token: str, what: str, row: int, path: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise RowParseError(
            f"{path}: row {row}: could not parse {what} value '{token}'",
            row=row,
        ) from None


def _parse_int(token: str, what: str, row: int, path: str) -> int:
    value = _parse_float(token, what, row, path)
    if not value.is_integer():
        raise RowParseError(
            f"{path}: row {row}: {what} value '{token}' is not an integer",
            row=row,
        )
    return int(value)


def _table(reader, columns: dict[str, str], source: str):
    """Read the header row and resolve each role's column position.

    Returns the {role: index} map and an iterator over (row number, row) for
    the data rows. Blank rows are skipped; a row too short to hold every
    resolved column raises RowParseError naming the file and the row.
    """
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise EmptyInputError(f"{source}: file is empty") from None
    idx = _resolve_columns(header, columns, source)
    width = max(idx.values()) + 1

    def rows():
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not tok.strip() for tok in row):
                continue
            if len(row) < width:
                raise RowParseError(
                    f"{source}: row {row_no}: expected at least {width} "
                    f"fields, got {len(row)}",
                    row=row_no,
                )
            yield row_no, row

    return idx, rows()


def _parse_rows(reader, colmap, source: str) -> CycleStore:
    idx, rows = _table(reader, colmap, source)
    n_rows = 0
    groups: dict[tuple[str, int], list[tuple[float, float, float]]] = {}
    for row_no, row in rows:
        cell = row[idx["cell_id"]].strip()
        if not cell:
            raise RowParseError(
                f"{source}: row {row_no}: empty cell_id", row=row_no
            )
        cyc = _parse_int(
            row[idx["cycle_index"]].strip(), "cycle_index", row_no, source
        )
        t = _parse_float(row[idx["time"]].strip(), "time", row_no, source)
        v = _parse_float(
            row[idx["voltage"]].strip(), "voltage", row_no, source
        )
        q = _parse_float(
            row[idx["capacity"]].strip(), "capacity", row_no, source
        )
        groups.setdefault((cell, cyc), []).append((t, v, q))
        n_rows += 1

    if n_rows == 0:
        raise EmptyInputError(f"{source}: no data rows")

    records = []
    for (cell, cyc), rows in groups.items():
        samples = np.asarray(rows, dtype=float)
        order = np.argsort(samples[:, TIME], kind="stable")
        records.append(CycleRecord(cell, cyc, samples[order]))
    return CycleStore(records=tuple(records))


def _build_colmap(columns: dict[str, str] | None) -> dict[str, str]:
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        unknown = set(columns) - set(DEFAULT_COLUMNS)
        if unknown:
            raise SchemaError(f"unknown column roles: {sorted(unknown)}")
        colmap.update(columns)
    return colmap


def ingest_cycles(
    path: str,
    columns: dict[str, str] | None = None,
    delimiter: str = ",",
) -> CycleStore:
    """Read a measurement file into a CycleStore.

    Rows are grouped by (cell_id, cycle_index); within each cycle samples are
    sorted by time with a stable sort, so rows carrying equal stamps keep
    their file order. Row numbers in error messages count the header as row 1.
    """
    colmap = _build_colmap(columns)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        return _parse_rows(reader, colmap, path)


def parse_cycles(
    text: str,
    columns: dict[str, str] | None = None,
    delimiter: str = ",",
) -> CycleStore:
    """ingest_cycles for in-memory text; same grouping and error rules."""
    colmap = _build_colmap(columns)
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    return _parse_rows(reader, colmap, "<text>")


def attach_labels(
    store: CycleStore, labels: dict[str, set[int]]
) -> CycleStore:
    """Return a new store with labels applied to every cycle of the listed
    cells: 1 for cycles named in the label map, 0 for the rest. Cells absent
    from the map stay unlabeled. A label naming a cycle that does not exist
    is an error rather than a silent drop.
    """
    known = {(r.cell_id, r.cycle_index) for r in store.records}
    for cell, cycles in labels.items():
        for cyc in cycles:
            if (cell, cyc) not in known:
                raise UnknownCycleError(
                    f"label references unknown cycle {cell}/{cyc}"
                )
    out = []
    for rec in store.records:
        if rec.cell_id in labels:
            flag = 1 if rec.cycle_index in labels[rec.cell_id] else 0
            out.append(replace(rec, label=flag))
        else:
            out.append(replace(rec, label=None))
    return CycleStore(records=tuple(out))


def split_train_test(
    store: CycleStore, manifest: SplitManifest
) -> tuple[CycleStore, CycleStore]:
    """Partition a store by cell according to the manifest.

    Every manifest cell must exist in the store; cells the manifest does not
    mention are left out of both halves.
    """
    present = set(store.cells())
    missing = (manifest.train_cells | manifest.test_cells) - present
    if missing:
        raise ManifestError(f"manifest cells not in store: {sorted(missing)}")
    train = tuple(r for r in store.records if r.cell_id in manifest.train_cells)
    test = tuple(r for r in store.records if r.cell_id in manifest.test_cells)
    return CycleStore(records=train), CycleStore(records=test)


def format_cycles(store: CycleStore, delimiter: str = ",") -> str:
    """Render a store in the canonical measurement format.

    Floats are written with repr so a round trip through text reproduces the
    exact binary values.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(
        [
            DEFAULT_COLUMNS["cell_id"],
            DEFAULT_COLUMNS["cycle_index"],
            DEFAULT_COLUMNS["time"],
            DEFAULT_COLUMNS["voltage"],
            DEFAULT_COLUMNS["capacity"],
        ]
    )
    for rec in store.records:
        for t, v, q in rec.samples:
            writer.writerow(
                [
                    rec.cell_id,
                    rec.cycle_index,
                    repr(float(t)),
                    repr(float(v)),
                    repr(float(q)),
                ]
            )
    return buf.getvalue()


def export_cycles(store: CycleStore, path: str, delimiter: str = ",") -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(format_cycles(store, delimiter=delimiter))


def read_labels(path: str, delimiter: str = ",") -> dict[str, set[int]]:
    """Read a label file (anomalous cycles only) into {cell: {cycle, ...}}."""
    labels: dict[str, set[int]] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        idx, rows = _table(
            reader, {"cell_id": "cell_id", "cycle_index": "cycle_index"}, path
        )
        for row_no, row in rows:
            cell = row[idx["cell_id"]].strip()
            cyc = _parse_int(
                row[idx["cycle_index"]].strip(), "cycle_index", row_no, path
            )
            labels.setdefault(cell, set()).add(cyc)
    return labels


def export_labels(
    labels: dict[str, set[int]], path: str, delimiter: str = ","
) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(["cell_id", "cycle_index"])
    for cell in sorted(labels):
        for cyc in sorted(labels[cell]):
            writer.writerow([cell, cyc])
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buf.getvalue())


def read_manifest(path: str, delimiter: str = ",") -> SplitManifest:
    """Read a cell role manifest. Roles are 'train' or 'test'; anything else,
    a repeated cell, or a cell in both roles is a manifest error."""
    train: set[str] = set()
    test: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        idx, rows = _table(reader, {"cell_id": "cell_id", "role": "role"}, path)
        for row_no, row in rows:
            cell = row[idx["cell_id"]].strip()
            role = row[idx["role"]].strip().lower()
            if role not in ("train", "test"):
                raise ManifestError(
                    f"{path}: row {row_no}: unknown role '{role}' "
                    f"(expected train or test)"
                )
            if cell in train or cell in test:
                raise ManifestError(
                    f"{path}: row {row_no}: cell '{cell}' listed twice"
                )
            (train if role == "train" else test).add(cell)
    return SplitManifest(frozenset(train), frozenset(test))
