"""The declarative column specs of ``datasets.schemas`` against the oracle.

``schema_oracle`` holds the hand-written per-schema parsers and
formatters the specs replaced.  The properties below hold the generic
parser to the oracle on generated rows, malformed and out-of-range cells
included: the same record or none, and the same violations per row up
to their order within the row.  Generated in-range records must survive
``dumps`` then ``parse_records`` unchanged, and ``dumps`` must write the
bytes the oracle wrote.
"""

import collections
import csv
import datetime as dt
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import schema_oracle as oracle
from aireliab.datasets import (
    SCHEMAS,
    AdversarialCountRecord,
    CollisionRecord,
    DisengagementRecord,
    IncidentRecord,
    MileageRow,
    MixtureRecord,
    ModuleErrorRecord,
    MonthRow,
    MonthTable,
    derive_exposure,
    dumps,
    parse_records,
)
from aireliab.datasets.schemas import DATE, FLAG, FLOAT, INT

from conftest import PROPERTY, build_months

ALL_SCHEMAS = tuple(SCHEMAS)


def test_spec_columns_match_oracle():
    for name in ALL_SCHEMAS:
        assert SCHEMAS[name].columns == oracle.COLUMNS[name]


def test_ragged_rows_reported_and_skipped():
    header = ",".join(oracle.INCIDENT_COLUMNS) + ",note"
    good = "1,Acme,Retail,Chatbot,LLM,Bias,Said something,0,1,checked,kept"
    short = "2,Acme,Retail,Chatbot,LLM,Bias,Said something,0,1,checked"
    long = "3,Acme,Retail,Chatbot,LLM,Bias,Said something,0,1,checked,kept,surplus"
    text = "\n".join([header, good, short, long]) + "\n"
    records, report = parse_records(io.StringIO(text), "incident")
    assert [r.incident_no for r in records] == [1]
    assert records[0].extras == {"note": "kept"}
    assert report.rows == 3
    assert [v.to_dict() for v in report.violations] == [
        {"row": 2, "column": None, "rule": "row length"},
        {"row": 3, "column": None, "rule": "row length"},
    ]


def test_month_window_in_year_9999():
    header = ",".join(oracle.DISENGAGEMENT_COLUMNS)
    text = header + "\nWaymo,V1,9999-12-31,9999-12,24\nWaymo,V1,9999-11-30,9999-12,24\n"
    _, report = parse_records(io.StringIO(text), "disengagement")
    assert [v.to_dict() for v in report.violations] == [
        {"row": 2, "column": "Date", "rule": "date month mismatch"},
    ]


# ---------------------------------------------------------------------------
# generated records inside every row and file invariant

texts = st.text(max_size=12)
finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
nonneg = st.floats(min_value=0.0, allow_infinity=False)
flag = st.sampled_from((0, 1))


def extras(schema):
    names = st.text(max_size=6).filter(lambda k: k not in SCHEMAS[schema].columns)
    return st.dictionaries(names, texts, max_size=3)


def ordered_pair(values):
    return st.lists(values, min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def disengagement_records(draw, dates=st.dates()):
    date = draw(dates)
    return DisengagementRecord(draw(texts), draw(texts), date, f"{date.year:04d}-{date.month:02d}",
                               draw(st.integers(1, 24)), draw(extras("disengagement")))


@st.composite
def collision_records(draw, dates=st.dates()):
    date = draw(dates)
    return CollisionRecord(draw(texts), draw(st.none() | st.text(min_size=1, max_size=12)), date,
                           f"{date.year:04d}-{date.month:02d}", draw(st.integers(1, 24)),
                           draw(st.integers(min_value=1)), draw(extras("collision")))


@st.composite
def mileage_records(draw):
    miles = draw(st.lists(nonneg, min_size=24, max_size=24))
    return MileageRow(draw(texts), draw(texts), tuple(miles))


@st.composite
def month_records(draw):
    n_days = draw(st.integers(28, 400))
    start = draw(st.dates(max_value=dt.date(9998, 1, 1)))
    return MonthRow(1, start, start + dt.timedelta(days=n_days - 1), n_days)


@st.composite
def module_error_records(draw):
    lo, hi = draw(ordered_pair(finite))
    inside = st.floats(lo, hi)
    return ModuleErrorRecord(
        draw(st.integers()), draw(texts), (lo, hi),
        tuple(draw(ordered_pair(inside))), draw(unit),
        tuple(draw(ordered_pair(inside))), draw(unit),
        draw(inside), draw(flag), draw(flag), draw(flag), draw(extras("module_error")),
    )


@st.composite
def mixture_records(draw):
    x1 = draw(unit)
    x2 = draw(st.floats(0.0, 1.0 - x1))
    c1, c2, c3 = draw(st.sampled_from(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    return MixtureRecord(x1, x2, (1.0 - x1) - x2, draw(flag), draw(flag), c1, c2, c3,
                         draw(unit), draw(finite), draw(extras("mixture")))


@st.composite
def adversarial_records(draw):
    fgsm = draw(st.floats(0.0, 100.0))
    return AdversarialCountRecord(
        draw(st.integers()), tuple(draw(ordered_pair(unit))), draw(st.integers()),
        draw(st.integers(min_value=0)),
        draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        draw(unit), draw(unit), fgsm, 100.0 - fgsm,
        draw(unit), draw(finite), draw(unit), draw(finite), draw(unit), draw(finite),
        draw(nonneg), draw(extras("adversarial")),
    )


@st.composite
def incident_records(draw):
    return IncidentRecord(draw(st.integers()), draw(texts), draw(texts), draw(texts), draw(texts),
                          draw(texts), draw(texts), draw(flag), draw(flag), draw(texts),
                          draw(extras("incident")))


RECORDS = {
    "disengagement": disengagement_records(),
    "collision": collision_records(),
    "mileage": mileage_records(),
    "month": month_records(),
    "module_error": module_error_records(),
    "mixture": mixture_records(),
    "adversarial": adversarial_records(),
    "incident": incident_records(),
}


@pytest.mark.parametrize("schema", ALL_SCHEMAS)
@PROPERTY
@given(data=st.data())
def test_round_trip_of_generated_records(schema, data):
    record = data.draw(RECORDS[schema])
    text = dumps([record], schema)
    assert text == oracle.dumps([record], schema)
    records, report = parse_records(io.StringIO(text), schema)
    assert report.violations == ()
    assert records == [record]


# ---------------------------------------------------------------------------
# generated rows, malformed and out-of-range cells included

MALFORMED = {
    INT: st.sampled_from(["", "x", "1.5", " 7", "+3", "1_0", "-0", "1e3"]) | st.integers().map(str),
    FLOAT: st.sampled_from(["", "x", "nan", "-inf", "1e400", " 2.5", "1_0.5", "0x1p3"])
    | st.floats().map(repr) | st.integers(-5, 200).map(str),
    DATE: st.sampled_from(["", "x", "2018-02-30", "20180203", "2018-W05-1", "2018-02-03T00"])
    | st.dates().map(dt.date.isoformat),
    FLAG: st.sampled_from(["", "2", "01", "-0", " 1", "True", "0.0"]),
}
#: the oracle's month arithmetic overflows in December 9999 (see
#: test_month_window_in_year_9999), so its oracle rows stop a month short
ORACLE_DATES = st.dates(max_value=dt.date(9999, 11, 30))
ORACLE_RECORDS = {
    **RECORDS,
    "disengagement": disengagement_records(ORACLE_DATES),
    "collision": collision_records(ORACLE_DATES),
}


@st.composite
def csv_files(draw, schema):
    """A header in shuffled order with extra columns, and 1-3 data rows,
    each the cells of an in-range record with up to four cells replaced."""
    spec = SCHEMAS[schema].spec
    records = draw(st.lists(ORACLE_RECORDS[schema], min_size=1, max_size=3))
    extra_cols = [k for rec in records for k in getattr(rec, "extras", {})]
    extra_cols = list(dict.fromkeys(extra_cols))
    rows = []
    for rec in records:
        formatted = oracle.FORMATTERS[schema](rec)
        cells = {col: formatted.get(col, "") for col in oracle.COLUMNS[schema] + tuple(extra_cols)}
        for col in draw(st.sets(st.sampled_from(spec), max_size=4)):
            cells[col.name] = draw(MALFORMED.get(col.cell, texts))
        rows.append(cells)
    header = draw(st.permutations(list(oracle.COLUMNS[schema]) + extra_cols))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([[row[c] for c in header] for row in rows])
    return buf.getvalue()


def row_violations(violations):
    return collections.Counter((v.row, v.column, v.rule) for v in violations)


@pytest.mark.parametrize("schema", ALL_SCHEMAS)
@PROPERTY
@given(data=st.data())
def test_generic_parser_matches_oracle(schema, data):
    text = data.draw(csv_files(schema))
    options = {}
    if schema == "adversarial":
        options["accuracy_scale"] = data.draw(st.sampled_from(["auto", "proportion", "percent"]))
    records, report = parse_records(io.StringIO(text), schema, **options)
    expected, violations = oracle.parse_records(io.StringIO(text), schema, **options)
    assert repr(records) == repr(expected)
    assert row_violations(report.violations) == row_violations(violations)


MODULE_ERROR_ROW = {"ScenarioID": "1", "Weather": "sunny", "WindowStart": "0.0",
                    "WindowEnd": "20.0", "EI2DStart": "5.0", "EI2DEnd": "10.0",
                    "EI2DProb": "0.8", "EI3DStart": "5.0", "EI3DEnd": "10.0",
                    "EI3DProb": "0.8", "TimeStamp": "7.5", "Error2D": "1", "Error3D": "0",
                    "ErrorLoc": "0"}


@pytest.mark.parametrize("schema, header, rows", [
    # a window out of order drops the row before any range rule reports
    ("module_error", list(MODULE_ERROR_ROW),
     [{**MODULE_ERROR_ROW, "WindowStart": "30.0", "EI2DProb": "2.0"},
      {**MODULE_ERROR_ROW, "EI3DProb": "-1", "TimeStamp": "25.0", "EI2DEnd": "40"}]),
    ("mileage", list(oracle.MILEAGE_COLUMNS),
     [{"Manufacture": "A", "VIN": "V", **{f"M{j}": str(1.0 - j % 3) for j in range(1, 25)},
       "M5": "x", "M7": "nan"}]),
    ("collision", list(oracle.COLLISION_COLUMNS),
     [{"Manufacture": "A", "VIN": "", "Date": "2018-02-03", "Month": "2018-01",
       "MonthID": "30", "EventID": "0"}]),
    ("adversarial", list(oracle.ADVERSARIAL_COLUMNS),
     [{c: "0.5" for c in oracle.ADVERSARIAL_COLUMNS}
      | {"Scenario": "1", "T": "1", "FC": "-1", "Alpha": "0", "F1": "nan",
         "EpsilonRangeLow": "0.9", "FGSM": "70", "PGD": "101", "Memory": "nan"}]),
])
def test_generic_parser_matches_oracle_on_rows_with_several_faults(schema, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([[row[c] for c in header] for row in rows])
    records, report = parse_records(io.StringIO(buf.getvalue()), schema)
    expected, violations = oracle.parse_records(io.StringIO(buf.getvalue()), schema)
    assert repr(records) == repr(expected)
    assert row_violations(report.violations) == row_violations(violations)
    assert len(report.violations) > 2


# ---------------------------------------------------------------------------
# rules the specs changed on purpose (the oracle changed with them)


def parse_row(schema, header, row):
    buf = io.StringIO()
    csv.writer(buf).writerows([header, [row[c] for c in header]])
    return parse_records(io.StringIO(buf.getvalue()), schema)


def test_nan_breaches_one_sided_range_rules():
    header = list(oracle.MILEAGE_COLUMNS)
    records, report = parse_row(
        "mileage", header, {"Manufacture": "A", "VIN": "V", **{c: "nan" for c in header[2:]}})
    assert records == []
    assert [(v.column, v.rule) for v in report.violations] == [
        (f"M{j}", "negative mileage") for j in range(1, 25)]

    header = list(oracle.ADVERSARIAL_COLUMNS)
    row = {c: "0.5" for c in header} | {"Scenario": "1", "T": "1", "FC": "0", "FGSM": "50",
                                         "PGD": "50", "Alpha": "nan", "Memory": "nan"}
    records, report = parse_row("adversarial", header, row)
    assert len(records) == 1
    assert [(v.column, v.rule) for v in report.violations] == [
        ("Alpha", "positive rate"), ("Memory", "memory range")]


def test_infinity_breaches_one_sided_range_rules():
    header = list(oracle.MILEAGE_COLUMNS)
    row = {"Manufacture": "A", "VIN": "V", **{c: "1.0" for c in header[2:]},
           "M1": "1e400", "M2": "inf"}
    records, report = parse_row("mileage", header, row)
    assert records == []
    assert [(v.column, v.rule) for v in report.violations] == [
        ("M1", "negative mileage"), ("M2", "negative mileage")]

    header = list(oracle.ADVERSARIAL_COLUMNS)
    row = {c: "0.5" for c in header} | {"Scenario": "1", "T": "1", "FC": "0", "FGSM": "50",
                                         "PGD": "50", "Alpha": "inf", "Memory": "1e400"}
    records, report = parse_row("adversarial", header, row)
    assert len(records) == 1
    assert [(v.column, v.rule) for v in report.violations] == [
        ("Alpha", "positive rate"), ("Memory", "memory range")]


def test_mixture_proportion_range_names_each_bad_column():
    header = list(oracle.MIXTURE_COLUMNS)
    row = {"x1": "0.0", "x2": "-0.1", "x3": "1.2", "z1": "1", "z2": "0",
           "c1": "1", "c2": "0", "c3": "0", "y1": "0.5", "y2": "0.0"}
    _, report = parse_row("mixture", header, row)
    assert [(v.column, v.rule) for v in report.violations] == [
        ("x2", "proportion range"), ("x3", "proportion range"), ("x1", "simplex sum")]


MILEAGE_CELLS = (st.floats(0, 1e6).map(repr)
                 | st.sampled_from(["nan", "-nan", "NaN", "-0.5", "0", "2.25"]))


@PROPERTY
@given(rows=st.lists(st.lists(MILEAGE_CELLS, min_size=24, max_size=24), min_size=1, max_size=4))
def test_clean_mileage_validation_gives_no_nan_schedule(rows):
    header = list(oracle.MILEAGE_COLUMNS)
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + [["A", f"V{i}", *cells] for i, cells in enumerate(rows)])
    records, report = parse_records(io.StringIO(buf.getvalue()), "mileage")
    assert not any(math.isnan(v) for rec in records for v in rec.monthly_miles)
    if not report.violations:
        for schedule in derive_exposure(records, MonthTable(build_months())):
            assert not np.isnan(schedule.daily_rate).any()
            assert not math.isnan(schedule.total())


@PROPERTY
@given(rows=st.lists(st.lists(MILEAGE_CELLS | st.sampled_from(["inf", "1e400", "-inf"]),
                              min_size=24, max_size=24), min_size=1, max_size=4))
def test_clean_mileage_validation_gives_finite_schedule(rows):
    header = list(oracle.MILEAGE_COLUMNS)
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + [["A", f"V{i}", *cells] for i, cells in enumerate(rows)])
    records, report = parse_records(io.StringIO(buf.getvalue()), "mileage")
    assert all(math.isfinite(v) for rec in records for v in rec.monthly_miles)
    if not report.violations:
        for schedule in derive_exposure(records, MonthTable(build_months())):
            assert np.isfinite(schedule.daily_rate).all()
            assert math.isfinite(schedule.total())
