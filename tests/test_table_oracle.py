"""The column-by-column parser against the row-by-row parser it replaced.

``oracle_parse_records`` below is the earlier ``datasets.parse_records``
with its per-row ``row_parser``, verbatim apart from names: every row
parsed cell by cell into a frozen record, range rules checked per value,
row checks run on each record.  On generated files that mix clean rows,
blank lines, rows of the wrong length, and malformed, out-of-range and
mismatched cells anywhere, with dates and months repeated so that the
memoised conversions and checks see repeats, the table must read as the
same records (same reprs, same field types) and the report must be the
same, violation by violation in order.  The readers that take columns
must give bit-identical results on a table and on its record list.
"""

import csv
import datetime as dt
import io
import math
import re
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import schema_oracle as oracle
from aireliab.datasets import (
    SCHEMAS,
    MileageRow,
    MonthTable,
    RecordTable,
    SchemaError,
    ValidationReport,
    Violation,
    derive_exposure,
    dumps,
    parse_records,
    summarize,
)
from aireliab.simulate import collision_times, event_series_from_disengagements
from conftest import PROPERTY, build_months
from test_data_path_oracle import (
    MAKERS,
    VINS,
    assert_same_schedule,
    assert_same_series,
    dated_records,
    same_outcome,
)
from test_schema_specs import MALFORMED, ORACLE_RECORDS, texts
from test_simulate_oracle import assert_same_bits

ALL_SCHEMAS = tuple(SCHEMAS)

# ---------------------------------------------------------------------------
# oracle: the row-by-row parser


def oracle_breached(rule, value) -> bool:
    if rule.hi is not None:
        return not rule.lo <= value <= rule.hi
    return not (rule.lo < value if rule.strict else rule.lo <= value) or value == math.inf


def oracle_row_parser(schema, header):
    index = {name: i for i, name in enumerate(header)}
    parsers = [(index[col.name], col.cell.parse) for col in schema.spec]
    rejects = [(j, col) for j, col in enumerate(schema.spec)
               if col.range is not None and col.range.reject]
    ranged = [(j, col) for j, col in enumerate(schema.spec)
              if col.range is not None and not col.range.reject]
    getters = [itemgetter(*js) for js in schema._slots().values()]
    extras = None
    if schema.extras:
        extras = [(name, i) for name, i in index.items() if name not in schema.columns]
    record_type, row_checks = schema.record_type, schema.row_checks

    def report_cells(row, cells, out):
        for (i, parse_cell), col in zip(parsers, schema.spec):
            try:
                value = parse_cell(cells[i])
            except ValueError:
                out.append(Violation(row, col.name, col.cell.rule,
                                     f"malformed cell {cells[i]!r}"))
                continue
            if col.range is not None and col.range.reject and oracle_breached(col.range, value):
                out.append(Violation(row, col.name, col.range.rule, f"got {value!r}"))

    def parse(row, cells, out):
        if len(cells) != len(header):
            out.append(Violation(row, None, "row length",
                                 f"{len(cells)} cells under {len(header)} columns"))
            return None
        try:
            values = [parse_cell(cells[i]) for i, parse_cell in parsers]
        except ValueError:
            values = None
        if values is None or any(oracle_breached(col.range, values[j]) for j, col in rejects):
            report_cells(row, cells, out)
            return None
        args = [get(values) for get in getters]
        if extras is not None:
            args.append({name: cells[i] for name, i in extras})
        record = record_type(*args)
        if row_checks is not None and row_checks(row, record, out):
            return None
        for j, col in ranged:
            if oracle_breached(col.range, values[j]):
                out.append(Violation(row, col.name, col.range.rule, f"got {values[j]!r}"))
        return record

    return parse


def oracle_parse_records(source, schema_name, **options):
    schema = SCHEMAS[schema_name]
    reader = csv.reader(source)
    header = next(reader, None)
    parse_row = oracle_row_parser(schema, header)
    violations = []
    rows_records = []
    n_rows = 0
    for cells in reader:
        if not cells:
            continue
        n_rows += 1
        record = parse_row(n_rows, cells, violations)
        if record is not None:
            rows_records.append((n_rows, record))
    if schema_name in oracle.FILE_CHECKS:
        violations.extend(oracle.FILE_CHECKS[schema_name](rows_records, **options))
    report = ValidationReport(schema_name, n_rows, tuple(violations))
    return [record for _, record in rows_records], report


# ---------------------------------------------------------------------------
# generated files

#: how each generated line is made from a row of the pool: unchanged, blank,
#: one cell short or over, one cell malformed or out of range, or one cell
#: taken from another row of the pool (a date from one month under another,
#: an event id already used, a repeated incident number)
KINDS = ("clean", "clean", "clean", "blank", "short", "long", "fault", "swap")


@st.composite
def table_files(draw, schema):
    """1-80 lines drawn from a pool of 1-4 in-range records, so that cells
    repeat; the header is shuffled and carries the pool's extra columns."""
    spec = SCHEMAS[schema].spec
    pool = draw(st.lists(ORACLE_RECORDS[schema], min_size=1, max_size=4))
    extra_cols = list(dict.fromkeys(k for rec in pool for k in getattr(rec, "extras", {})))
    header = draw(st.permutations(list(oracle.COLUMNS[schema]) + extra_cols))
    formatted = [oracle.FORMATTERS[schema](rec) for rec in pool]
    lines = []
    for _ in range(draw(st.integers(1, 80))):
        cells = dict(formatted[draw(st.integers(0, len(pool) - 1))])
        kind = draw(st.sampled_from(KINDS))
        col = draw(st.sampled_from(spec))
        if kind == "fault":
            cells[col.name] = draw(MALFORMED.get(col.cell, texts))
        elif kind == "swap":
            cells[col.name] = formatted[draw(st.integers(0, len(pool) - 1))][col.name]
        line = [cells.get(name, "") for name in header]
        if kind == "blank":
            line = []
        elif kind == "short":
            line = line[:-1]
        elif kind == "long":
            line = [*line, "surplus"]
        lines.append(line)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(lines)
    return buf.getvalue()


def parse_options(schema, data):
    if schema != "adversarial":
        return {}
    return {"accuracy_scale": data.draw(st.sampled_from(["auto", "proportion", "percent"]))}


def field_types(record):
    return [(type(v), tuple(map(type, v)) if isinstance(v, tuple) else ())
            for v in vars(record).values()]


# ---------------------------------------------------------------------------
# properties


@pytest.mark.parametrize("schema", ALL_SCHEMAS)
@PROPERTY
@given(data=st.data())
def test_table_matches_row_parser(schema, data):
    text = data.draw(table_files(schema))
    options = parse_options(schema, data)
    table, report = parse_records(io.StringIO(text), schema, **options)
    records, want = oracle_parse_records(io.StringIO(text), schema, **options)
    assert isinstance(table, RecordTable)
    assert repr(table) == repr(records)
    assert [field_types(r) for r in table] == [field_types(r) for r in records]
    assert report == want


@pytest.mark.parametrize("schema", ALL_SCHEMAS)
@PROPERTY
@given(data=st.data())
def test_summaries_of_table_and_record_list_agree(schema, data):
    table, _ = parse_records(io.StringIO(data.draw(table_files(schema))), schema)
    assert repr(summarize(table, schema)) == repr(summarize(list(table), schema))


@st.composite
def parsed_fleets(draw):
    """A 24-month table and the parsed mileage and disengagement files of a
    fleet of several manufacturers, with repeated VINs and some bad events."""
    start = dt.date(draw(st.integers(2015, 2026)), draw(st.integers(1, 12)), 1)
    months = MonthTable(build_months(start, 24))
    miles = st.just(0.0) | st.floats(0.0, 3.0) | st.sampled_from((0.3, 1.25, 2.5))
    rows = [MileageRow(draw(st.sampled_from(MAKERS)), draw(st.sampled_from(VINS)),
                       tuple(draw(st.lists(miles, min_size=24, max_size=24))))
            for _ in range(draw(st.integers(0, 8)))]
    events = draw(dated_records(months, rows))
    mileage, _ = parse_records(io.StringIO(dumps(rows, "mileage")), "mileage")
    disengagements, _ = parse_records(io.StringIO(dumps(events, "disengagement")),
                                      "disengagement")
    return months, mileage, disengagements


@PROPERTY
@given(parsed_fleets(), st.sampled_from(MAKERS))
def test_fleet_readers_of_table_and_record_list_agree(fleet, maker):
    months, mileage, events = fleet
    as_lists = list(mileage), list(events)
    got, want = same_outcome(lambda: derive_exposure(mileage, months),
                             lambda: derive_exposure(as_lists[0], months))
    for g, w in zip(got or (), want or ()):
        assert_same_schedule(g, w)
    got, want = same_outcome(
        lambda: event_series_from_disengagements(events, mileage, months, maker),
        lambda: event_series_from_disengagements(as_lists[1], as_lists[0], months, maker))
    if want is not None:
        assert_same_series(got, want)
    got, want = same_outcome(lambda: collision_times(events, months, maker),
                             lambda: collision_times(as_lists[1], months, maker))
    if want is not None:
        assert_same_bits(got, want)
    for name, table in (("mileage", mileage), ("disengagement", events)):
        assert repr(summarize(table, name)) == repr(summarize(list(table), name))


# ---------------------------------------------------------------------------
# the table as a record list, and header rules


def test_table_reads_as_its_record_list(data_dir):
    table, _ = parse_records(data_dir / "disengagements" / "mileage.csv", "mileage")
    records = list(table)
    assert len(table) == len(records) > 3
    assert table == records and records == table and table == table[:]
    assert repr(table) == repr(records)
    assert table[0] == records[0] and table[-1] == records[-1]
    assert table[1:3] == records[1:3] and table[::-2] == records[::-2]
    assert isinstance(table[1:3], RecordTable)
    with pytest.raises(IndexError):
        table[len(records)]
    assert all(type(v) is float for v in table[0].monthly_miles)
    assert isinstance(table.columns["monthly_miles"], np.ndarray)
    assert table.columns["monthly_miles"].shape == (len(records), 24)


@pytest.mark.parametrize("header, twice", [
    ("Manufacture,VIN,Date,Month,MonthID,Date", ["Date"]),
    ("Manufacture,VIN,Date,Month,MonthID,note,note", ["note"]),
])
def test_duplicate_header_column_rejected(header, twice):
    text = header + "\n" + ",".join(["A", "V1", "2018-01-02", "2018-01", "1", "x", "y"]
                                    [:header.count(",") + 1]) + "\n"
    with pytest.raises(SchemaError, match=re.escape(f"duplicate column(s) {twice}")):
        parse_records(io.StringIO(text), "disengagement")
