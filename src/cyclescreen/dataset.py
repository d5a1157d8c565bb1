"""Cycle-level measurement ingestion and labeling.

The on-disk interchange format is a delimited text file with one measurement
sample per row:

    cell_id,cycle_index,time_s,voltage_v,capacity_ah

Column names can be remapped at ingest time. Label files carry only the
anomalous cycles (``cell_id,cycle_index``); every other cycle of a labeled
cell is implicitly normal. Manifest files assign whole cells to the train or
test role (``cell_id,role``) and are read into two cell sets. Verdict files,
as detect writes them, are read back for evaluation.

Ingest reads the file with csv, CHUNK_ROWS rows at a time, and converts a
chunk a column at a time with Python's float, so the accepted syntax and
the bits are those of a row-by-row parse. One array test per chunk checks
that the numbers are finite and the cycle indices integral; a chunk that
fails any check is parsed again row by row, where the per-row parsers name
the first bad row and its number. One stable lexsort then groups the
samples by (cell, cycle) and orders each cycle by time.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from operator import attrgetter

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

#: the roles parsed as numbers, in the order of the parsed value rows
_NUMERIC_ROLES = ("cycle_index", "time", "voltage", "capacity")

#: data rows read and converted at a time: bounds the raw rows held as
#: Python lists, whatever the file's length
CHUNK_ROWS = 1024


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
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
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


# kept beside the column-wise parse: it is the only path that names a bad row
def _parse_rows_one_by_one(rows, first_row_no: int, idx, width: int, source: str):
    """Parse a chunk row by row, checking each row in full before the next.

    Raises on the chunk's first bad row, with its row number; otherwise
    returns the cell ids and a (4, n) array of cycle index, time, voltage
    and capacity, blank rows left out.
    """
    cells, values = [], []
    for row_no, row in _data_rows(rows, first_row_no, width, source):
        cell = row[idx["cell_id"]].strip()
        if not cell:
            raise InputError(f"{source}: row {row_no}: empty cell_id")
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
        cells.append(cell)
        values.append((cyc, *measured))
    return cells, np.array(values, dtype=float).reshape(-1, 4).T


def _parse_chunk(rows, first_row_no: int, idx, width: int, source: str):
    """Parse a chunk of raw rows a column at a time.

    Each numeric column goes through Python's float, so the accepted syntax
    and the bits are those of the row-by-row parse. Any doubt (a short or
    blank row, an empty cell id, a token float rejects, a non-finite value
    or a fractional cycle index) hands the chunk to _parse_rows_one_by_one,
    which names the first bad row or, finding none, parses the chunk.
    """
    n = len(rows)
    if min(map(len, rows)) >= width:
        cell_at = idx["cell_id"]
        cells = [row[cell_at].strip() for row in rows]
        columns = (
            [row[at] for row in rows]
            for at in [idx[role] for role in _NUMERIC_ROLES]
        )
        try:
            values = np.fromiter(
                map(float, chain.from_iterable(columns)), float, 4 * n
            ).reshape(4, n)
        except ValueError:
            values = None
        if (values is not None and all(cells)
                and np.isfinite(values).all()
                and np.array_equal(values[0], np.trunc(values[0]))):
            return cells, values
    return _parse_rows_one_by_one(rows, first_row_no, idx, width, source)


def _parse_rows(reader, colmap, source: str) -> CycleStore:
    idx, width = _header(reader, colmap, source)
    codes: dict[str, int] = {}  # cell id -> code, in order of first appearance
    code_chunks, value_chunks = [], []
    first_row_no = 2
    while True:
        rows = []
        try:
            rows.extend(islice(reader, CHUNK_ROWS))
        except csv.Error as err:
            # the rows read before the unreadable one are checked first, as
            # a row-by-row reader would have
            _parse_rows_one_by_one(rows, first_row_no, idx, width, source)
            raise _unreadable(source, first_row_no + len(rows), err) from None
        if not rows:
            break
        cells, values = _parse_chunk(rows, first_row_no, idx, width, source)
        first_row_no += len(rows)
        for cell in dict.fromkeys(cells):
            codes.setdefault(cell, len(codes))
        code_chunks.append(
            np.fromiter(map(codes.__getitem__, cells), np.intp, len(cells))
        )
        value_chunks.append(values)

    if not any(map(len, code_chunks)):
        raise InputError(f"{source}: no data rows")
    code = np.concatenate(code_chunks)
    values = np.concatenate(value_chunks, axis=1)
    # stable: samples of a cycle keep file order among equal time stamps
    order = np.lexsort((values[1], values[0], code))
    code, cycle = code[order], values[0, order]
    samples = values[1:].T[order]
    edges = np.flatnonzero(
        (code[1:] != code[:-1]) | (cycle[1:] != cycle[:-1])
    ) + 1
    starts = [0, *edges.tolist()]
    stops = [*edges.tolist(), code.size]
    names = list(codes)
    return CycleStore(records=tuple(
        CycleRecord(names[c], int(k), samples[a:b])
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
    return colmap


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
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        return _parse_rows(reader, colmap, path)


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
    then one string per record.

    csv writes the header and each record's cell and cycle fields, so they
    are quoted as csv quotes them; the floats' reprs, which never hold a
    comma, are joined in.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DEFAULT_COLUMNS.values())
    yield buf.getvalue()
    for rec in store.records:
        rows = rec.samples.tolist()
        buf.seek(0)
        buf.truncate()
        writer.writerow((rec.cell_id, rec.cycle_index, ""))
        head = buf.getvalue()[:-1]
        yield "".join([f"{head}{t!r},{v!r},{q!r}\n" for t, v, q in rows])


def export_cycles(store: CycleStore, path: str) -> None:
    """Write a store in the canonical format, atomically and a record at a
    time; floats as repr, so a round trip reproduces the exact bits."""
    atomic_write_text(path, _format_records(store))


def read_labels(path: str, delimiter: str = ",") -> dict[str, set[int]]:
    """Read a label file (anomalous cycles only) into {cell: {cycle, ...}}."""
    check_delimiter(delimiter)
    labels: dict[str, set[int]] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        roles = {"cell_id": "cell_id", "cycle_index": "cycle_index"}
        idx, width = _header(reader, roles, path)
        for row_no, row in _data_rows(reader, 2, width, path):
            cell = row[idx["cell_id"]].strip()
            cyc = _parse_int(
                row[idx["cycle_index"]].strip(), "cycle_index", row_no, path
            )
            labels.setdefault(cell, set()).add(cyc)
    return labels


def format_table(header: str, *columns, comment=None) -> str:
    """'# comment' when given, a CSV header and one row per entry of the
    columns, as read_verdict_flags reads them. Text columns are written as
    given, quoted as csv quotes them; float columns with repr, all others
    as ints."""
    texts = []
    for col in columns:
        values = np.asarray(col)
        if values.dtype.kind == "U":
            texts.append(col)  # as given: NumPy's str dtype drops trailing NULs
        elif values.dtype.kind == "f":
            texts.append([repr(x) for x in values.tolist()])
        else:
            texts.append([str(int(x)) for x in values.tolist()])
    buf = io.StringIO()
    if comment is not None:
        buf.write(f"# {comment}\n")
    buf.write(header + "\n")
    csv.writer(buf, lineterminator="\n").writerows(zip(*texts))
    return buf.getvalue()


def read_verdict_flags(path: str) -> dict[int, int]:
    """{cycle_index: flagged} from a verdict file as detect writes it: '#'
    comment lines, a header, one row per cycle flagged 0 or 1; rows count
    from line 1."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
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
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        idx, width = _header(reader, {"cell_id": "cell_id", "role": "role"}, path)
        for row_no, row in _data_rows(reader, 2, width, path):
            cell = row[idx["cell_id"]].strip()
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
