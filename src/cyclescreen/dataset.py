"""Cycle-level measurement ingestion and labeling.

The on-disk interchange format is a delimited text file with one measurement
sample per row:

    cell_id,cycle_index,time_s,voltage_v,capacity_ah

Column names can be remapped at ingest time. Label files carry only the
anomalous cycles (``cell_id,cycle_index``); every other cycle of a labeled
cell is implicitly normal. Manifest files assign whole cells to the train or
test role (``cell_id,role``) and are read into two cell sets. Verdict files,
as detect writes them, are read back for evaluation.

Ingest reads the header with csv and the rest with NumPy's C reader, every
float of which Python's float reads to the same bits. Any doubt (a row NumPy
refuses, a non-finite value, a fractional cycle index, an empty id, a quoted
field spanning lines, a line csv may refuse) reads the file again row by
row, where the per-row parsers name the first bad row and its number; so
does a pipe, which cannot seek back. One stable lexsort then groups the
samples by (cell, cycle) and orders each cycle by time.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count, groupby
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, InputError
from .util import atomic_write_text

#: canonical column names, keyed by role
DEFAULT_COLUMNS = {
    "cell_id": "cell_id",
    "cycle_index": "cycle_index",
    "time": "time_s",
    "voltage": "voltage_v",
    "capacity": "capacity_ah",
}

TIME, VOLTAGE, CAPACITY = 0, 1, 2

#: the roles parsed as numbers, in the order of the parsed value columns
_NUMERIC_ROLES = ("cycle_index", "time", "voltage", "capacity")

#: rows format_table formats at a time, bounding the per-value texts held
TABLE_ROWS = 4096


@dataclass(eq=False)
class CycleRecord:
    """One charge/discharge cycle of one cell.

    samples is an (n, 3) float array with columns time, voltage, capacity,
    sorted by time (stable, so equal stamps keep file order).
    """

    cell_id: str
    cycle_index: int
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 3:
            raise InputError(
                f"cycle {self.cell_id}/{self.cycle_index}: samples must be (n, 3)"
            )
        if self.samples.shape[0] == 0:
            raise InputError(
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
            and self.samples.shape == other.samples.shape
            and bool(np.array_equal(self.samples, other.samples))
        )


@dataclass
class CycleStore:
    """An ordered collection of cycles spanning one or more cells.

    Records are kept sorted by (cell_id, cycle_index) and unique on that key;
    each cell's records form one slice of them, indexed once at construction.
    """

    records: tuple[CycleRecord, ...]
    _cells: dict[str, slice] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ordered = tuple(
            sorted(self.records, key=lambda r: (r.cell_id, r.cycle_index))
        )
        keys = [(r.cell_id, r.cycle_index) for r in ordered]
        # sorted keys: each repeat follows its first occurrence
        dupes = sorted({a for a, b in zip(keys, keys[1:]) if a == b})
        if dupes:
            raise InputError(f"duplicate (cell, cycle) pairs: {dupes[:5]}")
        self.records = ordered
        self._cells = {}
        start = 0
        for cell, group in groupby(ordered, key=attrgetter("cell_id")):
            stop = start + sum(1 for _ in group)
            self._cells[cell] = slice(start, stop)
            start = stop

    def __len__(self) -> int:
        return len(self.records)

    def cells(self) -> list[str]:
        return list(self._cells)

    def by_cell(self, cell_id: str) -> list[CycleRecord]:
        return list(self.records[self._cells.get(cell_id, slice(0))])


def _resolve_columns(header: list[str], columns: dict[str, str], path: str):
    index = {}
    for role, name in columns.items():
        if name not in header:
            raise InputError(
                f"{path}: missing required column '{name}' (role {role}); "
                f"found {header}"
            )
        if header.count(name) > 1:
            raise InputError(
                f"{path}: column '{name}' (role {role}) appears "
                f"{header.count(name)} times in the header"
            )
        index[role] = header.index(name)
    return index


def _parse_float(token: str, what: str, row: int, path: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise InputError(
            f"{path}: row {row}: could not parse {what} value '{token}'"
        ) from None


def _parse_int(token: str, what: str, row: int, path: str) -> int:
    value = _parse_float(token, what, row, path)
    if not value.is_integer():
        raise InputError(
            f"{path}: row {row}: {what} value '{token}' is not an integer"
        )
    return int(value)


def _unreadable(source: str, row_no: int, err: csv.Error) -> InputError:
    """The error for a row csv cannot read (say, a field over its limit)."""
    return InputError(f"{source}: row {row_no}: {err}")


def _header(reader, columns: dict[str, str], source: str):
    """Read the header row; returns the {role: index} map and the row width
    every data row needs."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise InputError(f"{source}: file is empty") from None
    except csv.Error as err:
        raise _unreadable(source, 1, err) from None
    idx = _resolve_columns(header, columns, source)
    return idx, max(idx.values()) + 1


def _data_rows(rows, first_row_no: int, width: int, source: str):
    """Yield the (row number, row) pairs that hold data, numbering rows from
    first_row_no. Blank rows are skipped; a row too short to hold every
    resolved column, or one csv cannot read, raises InputError naming the
    file and the row."""
    row_no = first_row_no - 1
    try:
        for row_no, row in enumerate(rows, first_row_no):
            if not row or all(not tok.strip() for tok in row):
                continue
            if len(row) < width:
                raise InputError(
                    f"{source}: row {row_no}: expected at least {width} "
                    f"fields, got {len(row)}"
                )
            yield row_no, row
    except csv.Error as err:
        raise _unreadable(source, row_no + 1, err) from None


def _cell_id(row, idx, row_no: int, source: str) -> str:
    """The row's cell id, stripped; an id that strips to nothing is refused."""
    cell = row[idx["cell_id"]].strip()
    if not cell:
        raise InputError(f"{source}: row {row_no}: empty cell_id")
    return cell


def _parse_rows_one_by_one(reader, idx, width: int, source: str):
    """Parse the data rows after the header row by row, checking each row
    in full before the next: the one path that names a bad row. Raises on
    the first bad row, with its number; otherwise returns the cell ids, in
    order of first appearance, and an (n, 5) array of cell (the id's
    index), cycle index, time, voltage and capacity, blank rows left out.
    """
    codes, values = {}, array("d")  # flat: no Python object per value
    for row_no, row in _data_rows(reader, 2, width, source):
        cell = _cell_id(row, idx, row_no, source)
        cyc = _parse_int(
            row[idx["cycle_index"]].strip(), "cycle_index", row_no, source
        )
        measured = [
            _parse_float(row[idx[what]].strip(), what, row_no, source)
            for what in _NUMERIC_ROLES[1:]
        ]
        for what, value in zip(_NUMERIC_ROLES[1:], measured):
            if not math.isfinite(value):
                raise InputError(
                    f"{source}: row {row_no}: {what} value "
                    f"'{row[idx[what]].strip()}' is not finite"
                )
        values.extend((codes.setdefault(cell, len(codes)), cyc, *measured))
    return list(codes), np.frombuffer(values).reshape(-1, 5)


def _read_columns(handle, delimiter: str, idx):
    """The data rows left in handle, read by NumPy's C reader, as
    _parse_rows_one_by_one returns them; None at any doubt, which that
    parse settles. Rows of blank fields are dropped before NumPy sees them.
    Every token NumPy reads as a float, Python's float reads to the same
    bits.
    """
    limit = csv.field_size_limit()
    blank = " \t\n\r\f\v" + delimiter
    fed = 0

    def lines():
        nonlocal fed
        for line in handle:
            if len(line) > limit:
                raise ValueError("csv may refuse a field of this line")
            if line.strip(blank):
                fed += 1
                yield line

    codes = defaultdict(count().__next__)  # raw id -> code, as first seen
    usecols = [idx[role] for role in ("cell_id", *_NUMERIC_ROLES)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a file of no data rows warns
            values = np.loadtxt(
                lines(), delimiter=delimiter, quotechar='"', comments=None,
                usecols=usecols, converters={usecols[0]: codes.__getitem__},
                ndmin=2,
            )
    except (TypeError, ValueError, Warning):  # TypeError: a '"' delimiter
        return None
    cells = [cell.strip() for cell in codes]
    cycle = values[:, 1]
    # fewer rows than lines fed: a quoted field spans lines, and a blank
    # line dropped from inside it would have changed it
    if not (len(values) == fed and all(cells)
            and np.isfinite(values[:, 1:]).all()
            and np.array_equal(cycle, np.trunc(cycle))):
        return None
    names: dict[str, int] = {}  # stripped id -> code, as first seen
    recode = [names.setdefault(cell, len(names)) for cell in cells]
    if len(names) < len(cells):  # ids that differ only in padding
        values[:, 0] = np.array(recode, float)[values[:, 0].astype(np.intp)]
    return list(names), values


def _parse_rows(handle, delimiter: str, colmap, source: str) -> CycleStore:
    reader = csv.reader(handle, delimiter=delimiter)
    idx, width = _header(reader, colmap, source)
    # a doubt reads the file again row by row; a pipe, which cannot be
    # read twice, is read row by row from the start
    parsed = handle.seekable() and _read_columns(handle, delimiter, idx)
    if not parsed:
        if handle.seekable():
            handle.seek(0)
            next(reader)  # the header, read again
        parsed = _parse_rows_one_by_one(reader, idx, width, source)
    names, values = parsed
    if not len(values):
        raise InputError(f"{source}: no data rows")
    # stable: samples of a cycle keep file order among equal time stamps
    order = np.lexsort((values[:, 2], values[:, 1], values[:, 0]))
    code, cycle = values[order, 0], values[order, 1]
    samples = values[order, 2:]
    del parsed, values, order
    edges = np.flatnonzero(
        (code[1:] != code[:-1]) | (cycle[1:] != cycle[:-1])
    ) + 1
    starts = [0, *edges.tolist()]
    stops = [*edges.tolist(), code.size]
    return CycleStore(records=tuple(
        CycleRecord(names[int(c)], int(k), samples[a:b])
        for a, b, c, k in zip(
            starts, stops, code[starts].tolist(), cycle[starts].tolist()
        )
    ))


def _build_colmap(columns: dict[str, str] | None) -> dict[str, str]:
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        unknown = set(columns) - set(DEFAULT_COLUMNS)
        if unknown:
            raise InputError(f"unknown column roles: {sorted(unknown)}")
        colmap.update(columns)
    roles: dict[str, str] = {}  # column name -> the first role reading it
    for role, name in colmap.items():
        first = roles.setdefault(name, role)
        if first != role:
            raise ConfigError(
                f"roles {first} and {role} both read column '{name}'"
            )
    return colmap


@contextmanager
def open_text(path: str):
    """The file at path as UTF-8 text for csv or json, a leading BOM
    skipped; a byte that is not UTF-8 raises InputError naming the file and the
    decoder's reason."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        try:
            yield handle
        except UnicodeDecodeError as err:
            byte = err.object[err.start]
            raise InputError(
                f"{path}: not UTF-8 text: byte 0x{byte:02x}: {err.reason}"
            ) from None


def check_delimiter(delimiter: str) -> None:
    """Refuse a field delimiter that is not one character."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")


def ingest_cycles(
    path: str,
    columns: dict[str, str] | None = None,
    delimiter: str = ",",
) -> CycleStore:
    """Read a measurement file into a CycleStore.

    Rows are grouped by (cell_id, cycle_index); within each cycle samples are
    sorted by time with a stable sort, so rows carrying equal stamps keep
    their file order. Row numbers in error messages count the header as row 1.
    check_delimiter refuses a bad delimiter before the file is opened.
    """
    check_delimiter(delimiter)
    colmap = _build_colmap(columns)
    with open_text(path) as handle:
        return _parse_rows(handle, delimiter, colmap, path)


def check_labels(path: str, cell: str, truth, cycles, where: str = "") -> None:
    """Raise InputError when truth, the cycles of cell that the label
    file path lists, holds one not in cycles, so no label drops silently.
    The message names the file, the cell and the first such cycle, then where."""
    missing = sorted(set(truth).difference(cycles))
    if missing:
        raise InputError(
            f"{path}: label references unknown cycle {cell}/{missing[0]}{where}"
        )


def _format_records(store: CycleStore):
    """Yield the canonical comma-delimited text of a store: the header,
    then one string per record: its cell id as csv.writer writes the field,
    its cycle index, and the floats' reprs, which never hold a comma."""
    field = _csv_field()
    yield ",".join(DEFAULT_COLUMNS.values()) + "\n"
    for rec in store.records:
        head = f"{field(rec.cell_id)},{rec.cycle_index},"
        rows = rec.samples.tolist()
        yield "".join([f"{head}{t!r},{v!r},{q!r}\n" for t, v, q in rows])


def export_cycles(store: CycleStore, path: str) -> None:
    """Write a store in the canonical format, atomically and a record at a
    time; floats as repr, so a round trip reproduces the exact bits."""
    atomic_write_text(path, _format_records(store))


def read_labels(path: str, delimiter: str = ",") -> dict[str, set[int]]:
    """Read a label file (anomalous cycles only) into {cell: {cycle, ...}}."""
    check_delimiter(delimiter)
    labels: dict[str, set[int]] = {}
    with open_text(path) as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        roles = {"cell_id": "cell_id", "cycle_index": "cycle_index"}
        idx, width = _header(reader, roles, path)
        for row_no, row in _data_rows(reader, 2, width, path):
            cell = _cell_id(row, idx, row_no, path)
            cyc = _parse_int(
                row[idx["cycle_index"]].strip(), "cycle_index", row_no, path
            )
            labels.setdefault(cell, set()).add(cyc)
    return labels


def _csv_field():
    """A cached function: csv.writer's text of one field in a row of two or
    more. writerow returns what write returns, here the row's text."""
    writerow = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    return functools.cache(lambda value: writerow((value, ""))[:-2])


def format_table(header: str, *columns, comment=None) -> str:
    """'# comment' when given, a CSV header and one row per entry of the
    columns, as read_verdict_flags reads them, formatted TABLE_ROWS at a
    time. Text columns are written as given, each value as csv.writer
    writes the field; float columns with repr, all others as ints. A row
    is its fields joined with ",", or '""' if that is empty, as in csv."""
    field = _csv_field()
    formats = []
    for col in columns:
        kind = np.asarray(col).dtype.kind
        # text as given: NumPy's str dtype drops trailing NULs
        values = np.asarray(col, dtype=object if kind == "U" else None)
        formats.append((values, {"U": field, "f": repr}.get(kind, "%d".__mod__)))
    parts = [] if comment is None else [f"# {comment}\n"]
    parts.append(header + "\n")
    for a in range(0, min(map(len, columns), default=0), TABLE_ROWS):
        texts = [map(fmt, v[a:a + TABLE_ROWS].tolist()) for v, fmt in formats]
        rows = [",".join(row) or '""' for row in zip(*texts)]
        parts.append("\n".join(rows) + "\n")
    return "".join(parts)


def read_verdict_flags(path: str) -> dict[int, int]:
    """{cycle_index: flagged} from a verdict file as detect writes it: '#'
    comment lines, a header, one row per cycle flagged 0 or 1; rows count
    from line 1."""
    with open_text(path) as handle:
        lines = handle.readlines()
    skip = 0
    while skip < len(lines) and lines[skip].startswith("#"):
        skip += 1
    reader = csv.reader(lines[skip:])
    roles = {"cycle_index": "cycle_index", "flagged": "flagged"}
    idx, width = _header(reader, roles, path)
    flags = {}
    for n, row in _data_rows(reader, skip + 2, width, path):
        cycle = _parse_int(row[idx["cycle_index"]].strip(), "cycle_index", n, path)
        token = row[idx["flagged"]].strip()
        flag = _parse_int(token, "flagged", n, path)
        if flag not in (0, 1):
            raise InputError(f"{path}: row {n}: flagged value '{token}' is not 0 or 1")
        if cycle in flags:
            raise InputError(f"{path}: row {n}: cycle {cycle} repeats an earlier row")
        flags[cycle] = flag
    if not flags:
        raise InputError(f"{path}: no verdict rows")
    return flags


def export_labels(labels: dict[str, set[int]], path: str) -> None:
    """Write a label map as the label file read_labels reads, atomically."""
    rows = [(cell, cyc) for cell in sorted(labels) for cyc in sorted(labels[cell])]
    atomic_write_text(path, format_table("cell_id,cycle_index", *zip(*rows)))


def read_manifest(
    path: str, delimiter: str = ","
) -> tuple[frozenset[str], frozenset[str]]:
    """Read a cell role manifest into its (train, test) cell sets. Roles are
    'train' or 'test'; anything else, or a cell listed twice (in one role or
    both), is a manifest error."""
    check_delimiter(delimiter)
    train: set[str] = set()
    test: set[str] = set()
    with open_text(path) as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        idx, width = _header(reader, {"cell_id": "cell_id", "role": "role"}, path)
        for row_no, row in _data_rows(reader, 2, width, path):
            cell = _cell_id(row, idx, row_no, path)
            role = row[idx["role"]].strip().lower()
            if role not in ("train", "test"):
                raise InputError(
                    f"{path}: row {row_no}: unknown role '{role}' "
                    f"(expected train or test)"
                )
            if cell in train or cell in test:
                raise InputError(
                    f"{path}: row {row_no}: cell '{cell}' listed twice"
                )
            (train if role == "train" else test).add(cell)
    return frozenset(train), frozenset(test)
