import csv
import io
import os
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclescreen.dataset import (
    DEFAULT_COLUMNS,
    TABLE_ROWS,
    CycleRecord,
    CycleStore,
    check_labels,
    export_cycles,
    export_labels,
    format_table,
    ingest_cycles,
    read_labels,
    read_manifest,
    read_verdict_flags,
)
from cyclescreen.errors import ConfigError, InputError

from conftest import make_cycle

HEADER = "cell_id,cycle_index,time_s,voltage_v,capacity_ah"
#: data rows of long_file: well past the first thousand
LONG_ROWS = 1500


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_ingest_basic(tmp_path):
    path = write(
        tmp_path,
        "m.csv",
        HEADER + "\nA,0,0.0,4.0,0.0\nA,0,1.0,3.5,0.5\nA,1,0.0,4.1,0.0\n",
    )
    store = ingest_cycles(path)
    assert store.cells() == ["A"]
    assert len(store) == 2
    rec = store.by_cell("A")[0]
    assert rec.voltage.tolist() == [4.0, 3.5]


def test_ingest_sorts_samples_by_time(tmp_path):
    path = write(
        tmp_path,
        "m.csv",
        HEADER + "\nA,0,2.0,3.0,1.0\nA,0,0.0,4.0,0.0\nA,0,1.0,3.5,0.5\n",
    )
    rec = ingest_cycles(path).by_cell("A")[0]
    assert rec.time.tolist() == [0.0, 1.0, 2.0]
    assert rec.voltage.tolist() == [4.0, 3.5, 3.0]


def test_ingest_stable_sort_on_time_ties(tmp_path):
    # two samples share t=1.0; file order must survive the sort
    path = write(
        tmp_path,
        "m.csv",
        HEADER + "\nA,0,1.0,3.9,0.1\nA,0,1.0,3.8,0.2\nA,0,0.0,4.0,0.0\n",
    )
    rec = ingest_cycles(path).by_cell("A")[0]
    assert rec.voltage.tolist() == [4.0, 3.9, 3.8]


def test_ingest_skips_blank_rows(tmp_path):
    path = write(
        tmp_path,
        "m.csv",
        HEADER + "\n\nA,0,0.0,4.0,0.0\n\nA,0,1.0,3.9,0.1\n",
    )
    assert ingest_cycles(path).by_cell("A")[0].samples.shape == (2, 3)


def test_ingest_bad_row_cites_row_number(tmp_path):
    path = write(
        tmp_path,
        "m.csv",
        HEADER + "\nA,0,0.0,4.0,0.0\nA,0,oops,3.9,0.1\n",
    )
    with pytest.raises(InputError, match=r": row 3: "):
        ingest_cycles(path)


def test_ingest_missing_column(tmp_path):
    path = write(tmp_path, "m.csv", "cell_id,cycle_index,time_s\nA,0,0.0\n")
    with pytest.raises(InputError, match="missing required column"):
        ingest_cycles(path)


def test_ingest_empty_file(tmp_path):
    path = write(tmp_path, "m.csv", "")
    with pytest.raises(InputError, match="file is empty"):
        ingest_cycles(path)


def test_ingest_header_only(tmp_path):
    path = write(tmp_path, "m.csv", HEADER + "\n")
    with pytest.raises(InputError, match="no data rows"):
        ingest_cycles(path)


def test_ingest_column_remap_and_delimiter(tmp_path):
    path = write(
        tmp_path,
        "m.tsv",
        "cell\tcyc\tt\tU\tQ\nA\t0\t0.0\t4.0\t0.0\nA\t0\t1.0\t3.9\t0.1\n",
    )
    store = ingest_cycles(
        path,
        columns={
            "cell_id": "cell",
            "cycle_index": "cyc",
            "time": "t",
            "voltage": "U",
            "capacity": "Q",
        },
        delimiter="\t",
    )
    assert store.by_cell("A")[0].voltage.tolist() == [4.0, 3.9]


def test_ingest_integral_float_cycle_index(tmp_path):
    path = write(tmp_path, "m.csv", HEADER + "\nA,2.0,0.0,4.0,0.0\n")
    assert ingest_cycles(path).by_cell("A")[0].cycle_index == 2


def test_store_rejects_duplicate_cycle_key():
    # seven distinct keys repeated, one of them three times, out of order;
    # the message names the first five, sorted
    keys = [("B", 2), ("A", 9), ("B", 0), ("A", 1), ("C", 4), ("A", 3), ("B", 1)]
    unique = [("A", 0), ("A", 2), ("B", 5)]
    records = [
        make_cycle(cell, cycle, [0], [4.0], [0.0])
        for cell, cycle in [*keys, *unique, *reversed(keys), ("A", 9)]
    ]
    with pytest.raises(InputError) as err:
        CycleStore(records)
    assert str(err.value) == (
        "duplicate (cell, cycle) pairs: "
        "[('A', 1), ('A', 3), ('A', 9), ('B', 0), ('B', 1)]"
    )


def test_store_orders_by_cell_then_cycle():
    recs = [
        make_cycle("B", 0, [0], [4.0], [0.0]),
        make_cycle("A", 1, [0], [4.0], [0.0]),
        make_cycle("A", 0, [0], [4.0], [0.0]),
    ]
    store = CycleStore(recs)
    keys = [(r.cell_id, r.cycle_index) for r in store.records]
    assert keys == [("A", 0), ("A", 1), ("B", 0)]


def test_check_labels_unknown_cycle():
    check_labels("labels.csv", "A", {1}, [0, 1, 2])
    check_labels("labels.csv", "A", set(), [])
    with pytest.raises(InputError) as exc:
        check_labels("labels.csv", "A", {1, 99, 7}, [0, 1], " in verdict.csv")
    # the first missing cycle, after the label file and before where
    assert str(exc.value) == (
        "labels.csv: label references unknown cycle A/7 in verdict.csv"
    )


def test_read_manifest(tmp_path):
    path = write(tmp_path, "split.csv", "cell_id,role\nA,train\nB,test\n")
    assert read_manifest(path) == (frozenset({"A"}), frozenset({"B"}))
    # a cell in both roles is refused as listed twice
    dup = write(tmp_path, "dup.csv", "cell_id,role\nA,train\nA,test\n")
    with pytest.raises(InputError, match="row 3: cell 'A' listed twice"):
        read_manifest(dup)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_labels, "cell_id,cycle_index\nA,1\nA\n"),
        (read_manifest, "cell_id,role\nA,train\nB\n"),
        (ingest_cycles, HEADER + "\nA,0,0.0,4.0,0.0\nA,0,0.1\n"),
    ],
)
def test_short_row_cites_file_and_row(tmp_path, reader, text):
    path = write(tmp_path, "short.csv", text)
    with pytest.raises(InputError, match=r": row 3: ") as exc:
        reader(path)
    assert str(exc.value).startswith(f"{path}: row 3: expected at least")


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_labels, "cell_id,cycle_index\nA,1\n,7\n"),
        (read_labels, "cell_id,cycle_index\nA,1\n  ,7\n"),
        (read_manifest, "cell_id,role\nA,train\n,test\n"),
        (read_manifest, "cell_id,role\nA,train\n \t,test\n"),
    ],
)
def test_empty_cell_id_cites_file_and_row(tmp_path, reader, text):
    # as in the measurement file; an empty id would name no cell
    path = write(tmp_path, "ids.csv", text)
    with pytest.raises(InputError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}: row 3: empty cell_id"


@pytest.mark.parametrize("reader", [ingest_cycles, read_labels, read_manifest])
@pytest.mark.parametrize("delimiter", [";;", ""])
def test_a_delimiter_of_other_than_one_character_is_refused(
    tmp_path, reader, delimiter
):
    # csv itself would raise a bare TypeError
    path = write(tmp_path, "m.csv", HEADER + "\nA,0,0.0,4.0,0.0\n")
    with pytest.raises(ConfigError) as err:
        reader(path, delimiter=delimiter)
    assert str(err.value) == f"delimiter must be one character, got {delimiter!r}"


HUGE = "9" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_labels, f"cell_id,cycle_index\nA,1\nA,{HUGE}\n"),
        (read_manifest, f"cell_id,role\nA,train\nB,{HUGE}\n"),
        (ingest_cycles, f"{HEADER}\nA,0,0.0,4.0,0.0\nA,0,0.1,3.9,{HUGE}\n"),
        (ingest_cycles, f"{HEADER}\nA,0,0.0,{HUGE},0.0\n"),
        (ingest_cycles, f"{HEADER},{HUGE}\n"),
        # fields NumPy's reader would take: zeros, and a column no role reads
        (ingest_cycles, f"{HEADER}\nA,0,0.0,{HUGE.replace('9', '0')},0.0\n"),
        (ingest_cycles, f"{HEADER},note\nA,0,0.0,4.0,0.0,{HUGE}\n"),
    ],
    ids=["labels", "manifest", "measurements", "first-data-row", "header",
         "zeros", "unused-column"],
)
def test_field_over_the_csv_limit_cites_file_and_row(tmp_path, reader, text):
    path = write(tmp_path, "huge.csv", text)
    row = text.count("\n")  # the last line
    with pytest.raises(InputError, match=rf": row {row}: ") as exc:
        reader(path)
    assert str(exc.value) == (
        f"{path}: row {row}: field larger than field limit "
        f"({csv.field_size_limit()})"
    )


def test_field_over_the_csv_limit_deep_in_a_long_file(tmp_path):
    row_no = LONG_ROWS + 50
    path = long_file(tmp_path, {row_no: f"A,3,0.5,3.9,{HUGE}"})
    with pytest.raises(InputError, match=rf": row {row_no}: "):
        ingest_cycles(path)
    # a bad row read before the unreadable one is reported first
    path = long_file(
        tmp_path, {row_no - 5: "A,3,oops,3.9,0.1", row_no: f"A,3,0.5,3.9,{HUGE}"}
    )
    with pytest.raises(InputError) as exc:
        ingest_cycles(path)
    assert str(exc.value) == (
        f"{path}: row {row_no - 5}: could not parse time value 'oops'"
    )


@pytest.mark.parametrize("token", ["inf", "nan", "2.5"])
def test_non_integer_cycle_index_cites_row(tmp_path, token):
    path = write(tmp_path, "labels.csv", f"cell_id,cycle_index\nA,1\nA,{token}\n")
    with pytest.raises(InputError, match=r": row 3: "):
        read_labels(path)


@pytest.mark.parametrize(
    "token", ["9007199254740992", "9007199254740993", "-9007199254740993", "1e20"]
)
def test_a_cycle_index_of_magnitude_2_53_or_more_is_refused(tmp_path, token):
    # from 2**53 on float64 holds not every integer: a label of 2**53 + 1
    # would mark cycle 2**53
    message = f"row 3: cycle_index value '{token}' is out of range"
    path = write(tmp_path, "m.csv", f"{HEADER}\nA,0,0.0,4.0,0.0\nA,{token},0.0,4.0,0.0\n")
    with pytest.raises(InputError) as exc:
        ingest_cycles(path)
    assert str(exc.value) == f"{path}: {message}"
    path = write(tmp_path, "labels.csv", f"cell_id,cycle_index\nA,1\nA,{token}\n")
    with pytest.raises(InputError) as exc:
        read_labels(path)
    assert str(exc.value) == f"{path}: {message}"


def test_the_largest_exact_cycle_indices_are_read(tmp_path):
    top = 2**53 - 1
    path = write(
        tmp_path, "m.csv",
        f"{HEADER}\nA,{top},0.0,4.0,0.0\nA,{-top},0.0,4.0,0.0\n"
        f"A,{top - 1},0.0,4.0,0.0\n",
    )
    with mock.patch(
        "cyclescreen.dataset._parse_rows_one_by_one", side_effect=AssertionError
    ):
        store = ingest_cycles(path)
    assert [r.cycle_index for r in store.by_cell("A")] == [-top, top - 1, top]
    labels = write(tmp_path, "labels.csv", f"cell_id,cycle_index\nA,{top}\n")
    assert read_labels(labels) == {"A": {top}}


@pytest.mark.parametrize("column", ["time", "voltage", "capacity"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_measurement_cites_row(tmp_path, column, token):
    values = {"time": "0.1", "voltage": "3.9", "capacity": "0.1"}
    values[column] = token
    row = "A,0,{time},{voltage},{capacity}".format(**values)
    path = write(tmp_path, "m.csv", f"{HEADER}\nA,0,0.0,4.0,0.0\n{row}\n")
    with pytest.raises(InputError, match=r": row 3: ") as exc:
        ingest_cycles(path)
    assert str(exc.value) == f"{path}: row 3: {column} value '{token}' is not finite"


def long_file(tmp_path, bad):
    """LONG_ROWS + 100 valid data rows with a blank row at LONG_ROWS + 10,
    then the {row number: line} replacements in bad."""
    lines = [HEADER] + [
        f"A,{i // 64},{i % 64}.0,3.9,0.{i % 64 + 1}" for i in range(LONG_ROWS + 100)
    ]
    lines[LONG_ROWS + 10 - 1] = ""
    for row_no, line in bad.items():
        lines[row_no - 1] = line
    return write(tmp_path, "long.csv", "\n".join(lines) + "\n")


NOT_FINITE = [
    (f"A,3,{t},{v},{q}", f"{column} value '{token}' is not finite")
    for token in ("nan", "inf", "-inf")
    for column, (t, v, q) in {
        "time": (token, "3.9", "0.1"),
        "voltage": ("0.5", token, "0.1"),
        "capacity": ("0.5", "3.9", token),
    }.items()
]


@pytest.mark.parametrize(
    "line, message",
    [
        ("A,3,oops,3.9,0.1", "could not parse time value 'oops'"),
        ("A,3,0.5,3.9,1..0", "could not parse capacity value '1..0'"),
        ("A,x,0.5,3.9,0.1", "could not parse cycle_index value 'x'"),
        ("A,2.5,0.5,3.9,0.1", "cycle_index value '2.5' is not an integer"),
        ("A,nan,0.5,3.9,0.1", "cycle_index value 'nan' is not an integer"),
        ("A, inf ,0.5,3.9,0.1", "cycle_index value 'inf' is not an integer"),
        *NOT_FINITE,
        (" ,3,0.5,3.9,0.1", "empty cell_id"),
        ("A,3,0.5", "expected at least 5 fields, got 3"),
    ],
)
def test_bad_row_deep_in_a_long_file_keeps_its_message(tmp_path, line, message):
    # a later bad row must not mask the first one
    row_no = LONG_ROWS + 50
    path = long_file(tmp_path, {row_no: line, LONG_ROWS + 80: "A,3,0.5,bad,0.1"})
    with pytest.raises(InputError, match=rf": row {row_no}: ") as exc:
        ingest_cycles(path)
    assert str(exc.value) == f"{path}: row {row_no}: {message}"


def test_ingest_groups_shuffled_rows_of_a_long_file(tmp_path):
    # three cells' rows shuffled over a long file, with time ties,
    # blank rows and padded tokens; the reference groups row by row
    local = np.random.default_rng(3)
    rows = []
    for i in range(2 * LONG_ROWS + 500):
        cell = ("A", "B", "C")[i % 3]
        rows.append((cell, int(local.integers(0, 40)), float(local.integers(0, 30)),
                     float(local.normal(3.7, 0.2)), float(local.random())))
    rows = [rows[i] for i in local.permutation(len(rows))]
    lines = [HEADER]
    for n, (cell, cyc, t, v, q) in enumerate(rows):
        if n % 997 == 0:
            lines.append("")
        cyc_token = f"{cyc}.0" if n % 5 == 0 else f" {cyc}"
        lines.append(f" {cell},{cyc_token},{t!r},{v!r} ,{q!r}")
    path = write(tmp_path, "shuffled.csv", "\n".join(lines) + "\n")

    groups: dict[tuple[str, int], list] = {}
    for cell, cyc, t, v, q in rows:
        groups.setdefault((cell, cyc), []).append((t, v, q))
    expect = []
    for (cell, cyc), samples in groups.items():
        samples = np.asarray(samples)
        order = np.argsort(samples[:, 0], kind="stable")
        expect.append(CycleRecord(cell, cyc, samples[order]))
    expect = CycleStore(expect)

    got = ingest_cycles(path)
    assert got.records == expect.records
    for a, b in zip(got.records, expect.records):
        assert a.samples.tobytes() == b.samples.tobytes()
    assert got.cells() == ["A", "B", "C"]


def test_store_cell_index():
    store = CycleStore(
        [
            make_cycle("B", 2, [0], [4.0], [0.0]),
            make_cycle("A", 5, [0], [4.0], [0.0]),
            make_cycle("B", 0, [0], [4.0], [0.0]),
            make_cycle("A", 1, [0], [4.0], [0.0]),
        ]
    )
    assert store.cells() == ["A", "B"]
    assert [r.cycle_index for r in store.by_cell("B")] == [0, 2]
    assert store.by_cell("Z") == []
    assert CycleStore([]).cells() == []


def test_labels_round_trip(tmp_path):
    # the format lists anomalous cycles only, so a cell with none drops out
    labels = {"A": {3, 1}, "B": set()}
    path = str(tmp_path / "labels.csv")
    export_labels(labels, path)
    assert read_labels(path) == {"A": {1, 3}}


def test_export_labels_bytes(tmp_path):
    # csv quoting of an id holding a comma and a double quote, cells and
    # cycles sorted, a cell without labels left out; an empty map writes
    # the header alone
    path = tmp_path / "labels.csv"
    export_labels({'a,"b': {3, 1}, "plain": {2}, "none": set()}, str(path))
    assert path.read_bytes() == b'cell_id,cycle_index\n"a,""b",1\n"a,""b",3\nplain,2\n'
    assert read_labels(str(path)) == {'a,"b': {1, 3}, "plain": {2}}
    export_labels({}, str(path))
    assert path.read_bytes() == b"cell_id,cycle_index\n"


@pytest.mark.parametrize("cell", [None, "plain", 'a,"b'])
def test_format_table_gives_csv_writers_bytes(cell):
    # every row is its fields joined with ",", a text value as csv.writer
    # writes the field; the bytes are csv.writer's
    floats = np.array([0.1, -0.0, 5e-324, -1.7976931348623157e308, np.inf])
    float_texts = ["0.1", "-0.0", "5e-324", "-1.7976931348623157e+308", "inf"]
    ints = np.array([0, -3, 2**40, 1, 5])
    int_texts = ["0", "-3", "1099511627776", "1", "5"]
    if cell is None:
        columns, texts = (ints, floats, floats > 0), (int_texts, float_texts, "10101")
    else:
        columns = ([cell] * 5, ints, floats)
        texts = ([cell] * 5, int_texts, float_texts)
    buf = io.StringIO()
    buf.write("# note\nh\n")
    csv.writer(buf, lineterminator="\n").writerows(zip(*texts))
    assert format_table("h", *columns, comment="note") == buf.getvalue()


#: text that csv.writer quotes or keeps as given: delimiters, quotes, line
#: breaks, NULs, spaces, unicode and the empty string
CSV_TEXT = st.text(
    st.sampled_from([",", '"', "\r", "\n", "\0", " ", "a", "\u00e9", "\U0001f50b"])
    | st.characters(),
    max_size=6,
)
TABLE_COLUMN = st.one_of(
    st.tuples(st.just("text"), st.lists(CSV_TEXT, min_size=1, max_size=5)),
    st.tuples(st.just("float"), st.lists(st.floats(), min_size=1, max_size=5)),
    st.tuples(
        st.just("int"), st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=5)
    ),
    st.tuples(st.just("bool"), st.lists(st.booleans(), min_size=1, max_size=5)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(TABLE_COLUMN, min_size=2, max_size=4),
    st.sampled_from([3, TABLE_ROWS + 3]),
)
def test_format_table_bytes_equal_csv_writers_property(drawn, rows):
    # each column's drawn values repeated over the rows; TABLE_ROWS + 3 rows
    # make a second block
    columns, texts = [], []
    for kind, values in drawn:
        cycle = [values[i % len(values)] for i in range(rows)]
        if kind == "text":
            columns.append(cycle)
            texts.append(cycle)
        elif kind == "float":
            columns.append(np.array(cycle, dtype=float))
            texts.append([repr(x) for x in cycle])
        else:
            columns.append(np.array(cycle, dtype=bool if kind == "bool" else np.int64))
            texts.append([str(int(x)) for x in cycle])
    buf = io.StringIO()
    buf.write("h\n")
    csv.writer(buf, lineterminator="\n").writerows(zip(*texts))
    # compared as lines, so pytest reports the first that differs: a diff
    # of two long strings kept a failing run shrinking for minutes
    assert format_table("h", *columns).split("\n") == buf.getvalue().split("\n")


def test_format_table_writes_a_one_column_empty_entry_as_csv_does():
    # csv.writer quotes a row's lone empty field, the one case it quotes by
    # row and not by field
    assert format_table("name", ["a", "", 'b"c']) == 'name\na\n""\n"b""c"\n'


def test_format_table_peak_memory_is_bounded_by_its_text():
    # rows are formatted TABLE_ROWS at a time, so the peak is the table's
    # text and its blocks, not every value's text at once
    columns = np.random.default_rng(7).normal(size=(3, 250_000))
    tracemalloc.start()
    try:
        text = format_table("a,b,c", *columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text), peak / len(text)


READERS = {
    "measurements": (ingest_cycles, HEADER + "\nA,0,0.0,4.0,0.0\nA,1,0.0,4.1,0.0\n"),
    "labels": (read_labels, "cell_id,cycle_index\nA,1\n"),
    "manifest": (read_manifest, "cell_id,role\nA,train\n"),
    "verdicts": (read_verdict_flags, "# model=sd\ncycle_index,flagged\n0,0\n1,1\n"),
}


@pytest.mark.parametrize("reader, text", READERS.values(), ids=list(READERS))
def test_readers_skip_a_utf8_bom(tmp_path, reader, text):
    # Excel's "CSV UTF-8" starts the file with a BOM
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert reader(str(bom)) == reader(str(plain))


@pytest.mark.parametrize("reader, text", READERS.values(), ids=list(READERS))
def test_readers_name_a_byte_that_is_not_utf8(tmp_path, reader, text):
    path = tmp_path / "latin1.csv"
    # a last row of one Latin-1 e-acute: the text is decoded before it is read
    path.write_bytes((text + "\u00e9\n").encode("latin-1"))
    with pytest.raises(InputError) as err:
        reader(str(path))
    assert str(err.value) == (
        f"{path}: not UTF-8 text: byte 0xe9: invalid continuation byte"
    )


def test_export_import_round_trip_exact(tmp_path, simple_cycles):
    store = CycleStore(simple_cycles)
    path = str(tmp_path / "cycles.csv")
    export_cycles(store, path)
    back = ingest_cycles(path)
    assert back.records == store.records


FLOATS = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(FLOATS, FLOATS),
        min_size=2,
        max_size=8,
    )
)
def test_format_parse_round_trip_property(samples):
    time = np.arange(len(samples), dtype=float)
    voltage = np.asarray([s[0] for s in samples])
    capacity = np.asarray([s[1] for s in samples])
    store = CycleStore([make_cycle("C", 0, time, voltage, capacity)])
    # a fresh directory per example: Hypothesis reruns the body, while a
    # tmp_path fixture would be shared across examples
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        export_cycles(store, path)
        back = ingest_cycles(path)
    assert back.records == store.records


def test_failed_export_leaves_the_target_as_it_was(tmp_path, simple_cycles):
    path = tmp_path / "cycles.csv"
    path.write_text("earlier export\n")
    store = CycleStore(simple_cycles)
    store.records[-1].samples = None  # formatting fails on the last record
    with pytest.raises(AttributeError):
        export_cycles(store, str(path))
    assert path.read_text() == "earlier export\n"
    assert os.listdir(tmp_path) == ["cycles.csv"]


# NumPy's C reader against the row-by-row parse that names a bad row


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def measurement_files(draw):
    """(file bytes, columns, delimiter) of a small measurement file: a clean
    one holds only tokens both parsers read, a noisy one also tokens one or
    both refuse."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|", " "]))
    clean = draw(st.booleans())
    names = dict(DEFAULT_COLUMNS)
    columns = None
    if draw(st.booleans()):  # --col remaps
        columns = {"cell_id": "id", "voltage": "U_volts", "time": "t"}
        names.update(columns)
    layout = [*names, *draw(st.sampled_from([[], ["extra"], ["x", "y"]]))]
    layout = draw(st.permutations(layout))
    pad = "\t" if delimiter == " " else " "

    def pick(good, bad):
        return draw(st.sampled_from(good if clean else good + bad))

    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = pick(["data"] * 6 + ["blank", "space", "delimiters", "long"], ["short"])
        if kind == "blank":
            rows.append("")
        elif kind == "space":
            rows.append(draw(st.sampled_from([" ", "\t", " \t "])))
        elif kind == "delimiters":
            rows.append(delimiter * draw(st.integers(1, 6)))
        else:
            fields = {
                "cell_id": pick(
                    ["A", "B", "A", "B", f"{pad}A", "#A", "セル",
                     _quoted(f"a{delimiter}b"), _quoted('a"b'), _quoted("#a"),
                     _quoted("a\nb"), _quoted("a\n\nb")],
                    ["", " ", _quoted("")],
                ),
                "cycle_index": pick(
                    ["0", "1", "2", "0", "1", "2", "1.0", f"{pad}2", _quoted("1")],
                    ["2.5", "nan", "", "1_0"],
                ),
            }
            for role in ("time", "voltage", "capacity"):
                value = repr(draw(st.floats(-1e6, 1e6, allow_nan=False)))
                fields[role] = pick(
                    [value] * 4 + [f"{pad}{value}{pad}", _quoted(value),
                                   "5e-324", "2.2e-308"],
                    ["1_0.5", "nan", "-inf", "", " ", "0x10", "1e400",
                     _quoted(f"1\n{delimiter}\n")],
                )
            row = [fields.get(role, "7") for role in layout]
            if kind == "short":
                row = row[: draw(st.integers(1, len(row) - 1))]
            elif kind == "long":
                row.append("9")
            rows.append(delimiter.join(row))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = delimiter.join(names.get(role, role) for role in layout)
    text = eol.join([header, *rows]) + draw(st.sampled_from([eol, ""]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode(), columns, delimiter


def _ingested(path, columns, delimiter):
    """ingest_cycles' store as (id, cycle, sample bytes) triples, or its
    InputError's message."""
    try:
        store = ingest_cycles(path, columns=columns, delimiter=delimiter)
    except InputError as err:
        return str(err)
    return [(r.cell_id, r.cycle_index, r.samples.tobytes()) for r in store.records]


@settings(max_examples=150, deadline=None)
@given(measurement_files())
def test_c_reader_and_row_by_row_parse_agree_property(drawn):
    data, columns, delimiter = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        fast = _ingested(path, columns, delimiter)
        with mock.patch.object(np, "loadtxt", side_effect=ValueError("off")):
            one_by_one = _ingested(path, columns, delimiter)
    assert fast == one_by_one


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("token", ["4.1", "4_1"], ids=["plain", "underscore"])
def test_ingest_reads_a_named_pipe_once(tmp_path, token):
    # "4_1", which Python's float reads and NumPy's does not, is read too
    text = HEADER + f"\nB,0,1.0,3.9,0.1\nA,0,0.0,4.0,0.0\nB,0,0.0,{token},0.0\n"
    expect = ingest_cycles(write(tmp_path, "m.csv", text))
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(ingest_cycles(str(fifo))), daemon=True
    )
    reader.start()
    with open(fifo, "w") as out:
        out.write(text)
    reader.join(20)
    if reader.is_alive():
        open(fifo, "w").close()  # lets a second open of the pipe end
        reader.join()
        pytest.fail("ingest opened the pipe a second time")
    assert got == [expect]


def test_blank_rows_and_padded_ids_stay_on_the_c_reader(tmp_path):
    path = write(
        tmp_path, "m.csv",
        HEADER + "\nA,0,0.0,4.0,0.0\n,,,,\n  \t\n , ,\t,\n\nA,0,1.0,3.9,0.1\n"
        " A ,0,2.0,3.8,0.2\nB,0,0.0,4.1,0.0\n",
    )
    with mock.patch(
        "cyclescreen.dataset._parse_rows_one_by_one", side_effect=AssertionError
    ):
        store = ingest_cycles(path)
    assert store.cells() == ["A", "B"]
    assert store.by_cell("A")[0].samples.tolist() == [
        [0.0, 4.0, 0.0], [1.0, 3.9, 0.1], [2.0, 3.8, 0.2]
    ]


@pytest.mark.parametrize("time_token", ["0.5", "0_5"], ids=["c-reader", "row-by-row"])
def test_ingest_peak_memory_per_row_is_bounded(tmp_path, time_token):
    # 16 cells x 100 cycles x 64 samples; reading them as Python rows, in
    # blocks, peaked near 127 B a row. One "0_5", which only Python's float
    # reads, sends the whole file row by row
    n = 16 * 100 * 64
    i = np.arange(n)
    local = np.random.default_rng(5)
    time, voltage, capacity = local.random((3, n))
    lines = [HEADER] + [
        f"cell-{c:02d},{k},{t!r},{v!r},{q!r}"
        for c, k, t, v, q in zip(
            (i // 6400).tolist(), (i // 64 % 100).tolist(),
            time.tolist(), voltage.tolist(), capacity.tolist(),
        )
    ]
    lines[n // 2] = f"cell-07,99,{time_token},3.9,0.5"
    path = write(tmp_path, "big.csv", "\n".join(lines) + "\n")
    del lines
    tracemalloc.start()
    try:
        store = ingest_cycles(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store) == 1600
    assert peak / n < 100, peak / n


@pytest.mark.parametrize(
    "reader, text",
    [
        (ingest_cycles, HEADER + ",voltage_v\nA,0,0.0,4.0,0.0,3.0\n"),
        (read_labels, "cell_id,cycle_index,cell_id\nA,1,B\n"),
        (read_manifest, "cell_id,role,role\nA,train,test\n"),
        (read_verdict_flags, "cycle_index,flagged,flagged\n0,0,1\n"),
    ],
    ids=["measurements", "labels", "manifest", "verdicts"],
)
def test_a_used_column_named_twice_in_the_header_is_refused(tmp_path, reader, text):
    path = write(tmp_path, "dup.csv", text)
    name = text.split("\n")[0].rsplit(",", 1)[1]
    with pytest.raises(InputError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}: column '{name}' (role ")
    assert str(err.value).endswith(" appears 2 times in the header")


def test_an_unused_column_named_twice_is_read_as_before(tmp_path):
    path = write(tmp_path, "m.csv", HEADER + ",note,note\nA,0,0.0,4.0,0.0,x,y\n")
    assert ingest_cycles(path).cells() == ["A"]


def test_two_roles_reading_one_column_are_refused_before_the_file_opens(tmp_path):
    missing = str(tmp_path / "absent.csv")
    with pytest.raises(ConfigError) as err:
        ingest_cycles(missing, columns={"voltage": "time_s"})
    assert str(err.value) == "roles time and voltage both read column 'time_s'"
