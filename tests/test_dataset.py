import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclescreen.dataset import (
    CHUNK_ROWS,
    CycleRecord,
    CycleStore,
    check_labels,
    export_cycles,
    export_labels,
    ingest_cycles,
    read_labels,
    read_manifest,
)
from cyclescreen.errors import ConfigError, InputError

from conftest import make_cycle

HEADER = "cell_id,cycle_index,time_s,voltage_v,capacity_ah"


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
    a = make_cycle("A", 0, [0], [4.0], [0.0])
    b = make_cycle("A", 0, [0], [4.1], [0.0])
    with pytest.raises(InputError, match=r"duplicate \(cell, cycle\) pairs"):
        CycleStore([a, b])


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
    ],
    ids=["labels", "manifest", "measurements", "first-data-row", "header"],
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


def test_field_over_the_csv_limit_past_the_first_chunk(tmp_path):
    row_no = CHUNK_ROWS + 50
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
    """CHUNK_ROWS + 100 valid data rows with a blank row at CHUNK_ROWS + 10,
    then the {row number: line} replacements in bad."""
    lines = [HEADER] + [
        f"A,{i // 64},{i % 64}.0,3.9,0.{i % 64 + 1}" for i in range(CHUNK_ROWS + 100)
    ]
    lines[CHUNK_ROWS + 10 - 1] = ""
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
def test_bad_row_past_the_first_chunk_keeps_its_message(tmp_path, line, message):
    # a later bad row in the same chunk must not mask the first one
    row_no = CHUNK_ROWS + 50
    path = long_file(tmp_path, {row_no: line, CHUNK_ROWS + 80: "A,3,0.5,bad,0.1"})
    with pytest.raises(InputError, match=rf": row {row_no}: ") as exc:
        ingest_cycles(path)
    assert str(exc.value) == f"{path}: row {row_no}: {message}"


def test_chunked_ingest_groups_rows_across_chunks(tmp_path):
    # three cells' rows shuffled over more than two chunks, with time ties,
    # blank rows and padded tokens; the reference groups row by row
    local = np.random.default_rng(3)
    rows = []
    for i in range(2 * CHUNK_ROWS + 500):
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
