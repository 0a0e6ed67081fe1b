import datetime as dt
import io

import numpy as np
import pytest

from aireliab import datasets
from aireliab.datasets import (
    DATASET_SCHEMAS,
    MileageRow,
    MonthTable,
    SchemaError,
    SchemaViolationError,
    constant_exposure,
    derive_exposure,
    dump,
    dumps,
    load,
    load_index,
    parse_records,
    read_description,
    resolve_data_root,
    summarize,
    sum_schedules,
    validate,
)

from conftest import DATA_DIR, build_months

FIXTURE_FILES = {
    "incident": ("ai-incidents", "incidents.csv"),
    "mixture": ("mixture-robustness", "mixture.csv"),
    "adversarial": ("adversarial-attacks", "adversarial.csv"),
    "module_error": ("module-errors", "module_errors.csv"),
    "disengagement": ("disengagements", "disengagements.csv"),
    "collision": ("collisions", "collisions.csv"),
}


@pytest.mark.parametrize("schema", DATASET_SCHEMAS)
def test_bundled_fixtures_validate_clean(schema, data_dir):
    directory, name = FIXTURE_FILES[schema]
    report = validate(data_dir / directory / name, schema)
    assert report.ok, report.violations[:3]
    assert report.rows > 0


@pytest.mark.parametrize("schema", DATASET_SCHEMAS + ("mileage", "month"))
def test_round_trip_identity(schema, data_dir):
    if schema in FIXTURE_FILES:
        directory, name = FIXTURE_FILES[schema]
    else:
        directory, name = "disengagements", f"{schema}{'s' if schema == 'month' else ''}.csv"
        name = "months.csv" if schema == "month" else "mileage.csv"
    records = load(data_dir / directory / name, schema)
    text = dumps(records, schema)
    again = load(io.StringIO(text), schema)
    assert records == again


def test_validate_is_idempotent(data_dir):
    path = data_dir / "mixture-robustness" / "mixture.csv"
    first = validate(path, "mixture")
    second = validate(path, "mixture")
    assert first == second


def test_unknown_schema_rejected():
    with pytest.raises(SchemaError, match="unknown schema"):
        validate(io.StringIO("a,b\n1,2\n"), "sasquatch")


def test_malformed_header_rejected():
    with pytest.raises(SchemaError, match="missing column"):
        validate(io.StringIO("x1,x2\n0.5,0.5\n"), "mixture")
    with pytest.raises(SchemaError, match="header"):
        validate(io.StringIO(""), "mixture")


MIXTURE_HEADER = "x1,x2,x3,z1,z2,c1,c2,c3,y1,y2"


def mixture_row(**overrides):
    row = {"x1": "0.5", "x2": "0.25", "x3": "0.25", "z1": "1", "z2": "0",
           "c1": "1", "c2": "0", "c3": "0", "y1": "0.9", "y2": "-2.5"}
    row.update(overrides)
    return ",".join(row[c] for c in MIXTURE_HEADER.split(","))


def test_mixture_simplex_violation():
    text = MIXTURE_HEADER + "\n" + mixture_row(x1="0.7", x2="0.25", x3="0.25") + "\n"
    report = validate(io.StringIO(text), "mixture")
    assert [v.rule for v in report.violations] == ["simplex sum"]
    assert report.violations[0].row == 1


def test_mixture_scenario_one_hot_violation():
    text = MIXTURE_HEADER + "\n" + mixture_row(c1="1", c2="1") + "\n"
    report = validate(io.StringIO(text), "mixture")
    assert [v.rule for v in report.violations] == ["scenario one-hot"]


def test_adversarial_attack_mix_violation(data_dir):
    records = load(data_dir / "adversarial-attacks" / "adversarial.csv", "adversarial")
    bad = type(records[0])(**{**records[0].__dict__, "fgsm_pct": 60.0, "pgd_pct": 60.0})
    text = dumps([bad], "adversarial")
    report = validate(io.StringIO(text), "adversarial")
    assert "attack mix sum" in [v.rule for v in report.violations]


def test_adversarial_accuracy_scale_declared_per_file(data_dir):
    records = load(data_dir / "adversarial-attacks" / "adversarial.csv", "adversarial")
    text = dumps(records[:3], "adversarial")
    assert validate(io.StringIO(text), "adversarial", accuracy_scale="proportion").ok
    report = validate(io.StringIO(text), "adversarial", accuracy_scale="percent")
    assert report.ok  # proportions are inside the percent range too
    # percent-scale data rejected under an explicit proportion declaration
    pct = type(records[0])(**{**records[0].__dict__, "train_acc": 85.0})
    text = dumps([pct], "adversarial")
    bad = validate(io.StringIO(text), "adversarial", accuracy_scale="proportion")
    assert "accuracy range" in [v.rule for v in bad.violations]
    assert validate(io.StringIO(text), "adversarial", accuracy_scale="auto").ok


def test_module_error_timestamp_window_violation(data_dir):
    records = load(data_dir / "module-errors" / "module_errors.csv", "module_error")
    bad = type(records[0])(**{**records[0].__dict__, "timestamp": 25.0})
    text = dumps([bad], "module_error")
    report = validate(io.StringIO(text), "module_error")
    assert [v.rule for v in report.violations] == ["timestamp window"]


@pytest.mark.parametrize("column", ["WindowStart", "WindowEnd"])
def test_nan_window_bound_is_a_window_order_violation(column, data_dir):
    header, first = (data_dir / "module-errors" / "module_errors.csv").read_text().splitlines()[:2]
    cells = first.split(",")
    cells[header.split(",").index(column)] = "nan"
    table, report = parse_records(io.StringIO(f"{header}\n{','.join(cells)}\n"), "module_error")
    assert len(table) == 0
    assert [(v.row, v.column, v.rule) for v in report.violations] == [(1, "WindowEnd",
                                                                       "window order")]


def test_incident_duplicate_number_violation(data_dir):
    records = load(data_dir / "ai-incidents" / "incidents.csv", "incident")
    text = dumps([records[0], records[0]], "incident")
    report = validate(io.StringIO(text), "incident")
    assert "duplicate incident number" in [v.rule for v in report.violations]


def test_collision_event_id_mapping_violation(data_dir):
    records = load(data_dir / "collisions" / "collisions.csv", "collision")
    distinct = [r for r in records if r.manufacture == records[0].manufacture][:2]
    a, b = distinct[0], distinct[1]
    b_bad = type(b)(**{**b.__dict__, "event_id": a.event_id})
    text = dumps([a, b_bad], "collision")
    report = validate(io.StringIO(text), "collision")
    assert "event id mapping" in [v.rule for v in report.violations]


def test_disengagement_date_month_mismatch():
    header = "Manufacture,VIN,Date,Month,MonthID"
    text = header + "\nWaymo,V1,2018-02-03,2018-01,2\n"
    report = validate(io.StringIO(text), "disengagement")
    assert "date month mismatch" in [v.rule for v in report.violations]
    text = header + "\nWaymo,V1,2018-02-03,2018-02,30\n"
    report = validate(io.StringIO(text), "disengagement")
    assert "month id range" in [v.rule for v in report.violations]


def test_month_table_violations():
    header = "MonthID,StartDate,EndDate,NDays"
    text = header + "\n1,2017-12-01,2017-12-31,30\n"
    report = validate(io.StringIO(text), "month")
    assert "day count" in [v.rule for v in report.violations]
    text = header + "\n1,2017-12-01,2017-12-31,31\n3,2018-01-01,2018-01-31,31\n"
    report = validate(io.StringIO(text), "month")
    assert "month sequence" in [v.rule for v in report.violations]


@pytest.mark.parametrize("shift", [1, -1])
def test_month_gap_or_overlap_is_a_contiguity_violation(shift):
    # month 2 starts a day late (a gap) or a day early (an overlap) and its
    # NDays matches its own dates, so only the file check can see it
    rows = build_months(n=3)
    start = rows[1].start_date + dt.timedelta(days=shift)
    end = rows[1].end_date
    rows[1] = datasets.MonthRow(2, start, end, (end - start).days + 1)
    report = validate(io.StringIO(dumps(rows, "month")), "month")
    assert [(v.row, v.column, v.rule) for v in report.violations] == [
        (2, "StartDate", "month contiguity")]
    with pytest.raises(ValueError, match="month 2 does not start the day after month 1 ends"):
        MonthTable(rows)


def test_mileage_negative_value_violation():
    cols = ["Manufacture", "VIN"] + [f"M{j}" for j in range(1, 25)]
    row = ["Waymo", "V1"] + ["1.0"] * 24
    row[2] = "-0.5"
    text = ",".join(cols) + "\n" + ",".join(row) + "\n"
    report = validate(io.StringIO(text), "mileage")
    assert "negative mileage" in [v.rule for v in report.violations]


def test_unknown_extra_columns_preserved():
    text = MIXTURE_HEADER + ",note\n" + mixture_row() + ",keep me\n"
    records = load(io.StringIO(text), "mixture")
    assert records[0].extras == {"note": "keep me"}
    assert "note" in dumps(records, "mixture").splitlines()[0]


def test_load_raises_on_violations():
    text = MIXTURE_HEADER + "\n" + mixture_row(x1="0.9") + "\n"
    with pytest.raises(SchemaViolationError):
        load(io.StringIO(text), "mixture")


def test_parse_records_skips_unparseable_rows():
    text = MIXTURE_HEADER + "\n" + mixture_row() + "\n" + mixture_row(y1="oops") + "\n"
    records, report = parse_records(io.StringIO(text), "mixture")
    assert len(records) == 1
    assert report.rows == 2
    assert "number format" in [v.rule for v in report.violations]


@pytest.mark.parametrize("end, n_days", [(dt.date(2020, 1, 31), 0), (dt.date(2020, 1, 20), -11)])
def test_month_ending_before_it_starts_rejected(end, n_days):
    rows = build_months(start=dt.date(2019, 12, 1), n=3)
    rows[-1] = datasets.MonthRow(3, dt.date(2020, 2, 1), end, n_days)
    with pytest.raises(ValueError, match="month 3: end date .* precedes start date"):
        MonthTable(rows)


def test_derive_exposure_division_rule():
    months = MonthTable(build_months())
    row = MileageRow("Waymo", "V1", tuple([3.1] + [0.0] * 23))
    schedule = derive_exposure([row], months)[0]
    assert schedule.daily_rate[0] == pytest.approx(0.1, abs=1e-15)
    assert np.all(schedule.daily_rate[1:] == 0.0)
    assert schedule.tau == 730.0


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_daily_rate_rejected(bad):
    months = MonthTable(build_months())
    row = MileageRow("Waymo", "V1", tuple([bad] + [1.0] * 23))
    with pytest.raises(ValueError, match="finite"):
        derive_exposure([row], months)
    with pytest.raises(ValueError, match="finite"):
        constant_exposure(bad, 730.0)


@pytest.mark.parametrize("breakpoints, tau", [
    ([0.0, float("nan"), 10.0], 10.0),
    ([0.0, 5.0, float("nan")], 10.0),
    ([0.0, 5.0, float("inf")], float("inf")),
])
def test_non_finite_breakpoints_rejected(breakpoints, tau):
    with pytest.raises(ValueError, match="breakpoints"):
        datasets.ExposureSchedule("u", np.array(breakpoints), np.ones(2), tau)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_tau_rejected(tau):
    # every horizon check compares with tau, and each such comparison with a
    # NaN is False, so a NaN tau used to pass them all
    with pytest.raises(ValueError, match="tau must be finite"):
        datasets.ExposureSchedule("u", np.array([0.0, 10.0]), np.ones(1), tau)


def test_derive_exposure_conserves_mileage():
    months = MonthTable(build_months())
    rng = np.random.default_rng(0)
    rows = [MileageRow("M", f"V{i}", tuple(rng.uniform(0, 3, 24))) for i in range(5)]
    for row, schedule in zip(rows, derive_exposure(rows, months)):
        start = 0.0
        for miles, month in zip(row.monthly_miles, months.rows):
            end = start + month.n_days
            assert schedule.integral(start, end) == pytest.approx(miles, abs=1e-9)
            start = end
        assert schedule.total() == pytest.approx(sum(row.monthly_miles), abs=1e-9)


def test_derive_exposure_count_mismatch():
    months = MonthTable(build_months())
    with pytest.raises(ValueError, match="mileage columns"):
        derive_exposure([MileageRow("M", "V", (1.0, 2.0))], months)


def test_sum_schedules_pointwise():
    months = MonthTable(build_months())
    rows = [MileageRow("M", "a", tuple([1.0] * 24)), MileageRow("M", "b", tuple([2.0] * 24))]
    total = sum_schedules(derive_exposure(rows, months))
    assert float(total.rate_at(5.0)) == pytest.approx(3.0 / 31.0, abs=1e-12)
    assert total.total() == pytest.approx(72.0, abs=1e-9)


def test_summarize_incident_fixture(data_dir):
    records = load(data_dir / "ai-incidents" / "incidents.csv", "incident")
    summary = summarize(records, "incident")
    assert summary["rows"] == 72
    assert sum(summary["by_cause"].values()) == 72
    assert summary["algorithm_terms"]
    assert summary["cause_terms"]
    assert summary["injured_count"] + summary["casuality_count"] >= 29


def test_summarize_disengagement_manufacturers(data_dir):
    records = load(data_dir / "disengagements" / "disengagements.csv", "disengagement")
    summary = summarize(records, "disengagement")
    assert set(summary["by_manufacture"]) == {"Waymo", "Cruise", "Pony AI", "Zoox"}
    assert summary["date_range"][0] >= "2017-12-01"
    assert summary["date_range"][1] <= "2019-11-30"


def test_summarize_empty_file_all_zero():
    text = MIXTURE_HEADER + "\n"
    records = load(io.StringIO(text), "mixture")
    summary = summarize(records, "mixture")
    assert summary["rows"] == 0
    assert all(v == 0 for v in summary["by_scenario"].values())


def test_repository_index_and_descriptions(data_dir):
    index = load_index(data_dir)
    assert set(index.names()) >= {"ai-incidents", "disengagements", "collisions"}
    assert (index.directory("ai-incidents") / "incidents.csv").exists()
    text = read_description(data_dir, "module-errors")
    assert "injection" in text.lower()


def test_resolve_data_root_env(monkeypatch, data_dir):
    monkeypatch.setenv(datasets.DATA_ROOT_ENV, str(data_dir))
    assert resolve_data_root() == data_dir
    monkeypatch.delenv(datasets.DATA_ROOT_ENV)
    with pytest.raises(ValueError):
        resolve_data_root()
    assert resolve_data_root("/tmp/x") == __import__("pathlib").Path("/tmp/x")


def test_month_table_day_arithmetic():
    months = MonthTable(build_months())
    assert months.tau == 730.0
    assert months.day_index(dt.date(2017, 12, 1)) == 1
    assert months.day_index(dt.date(2019, 11, 30)) == 730
    assert months.date_of_day(32) == dt.date(2018, 1, 1)
    with pytest.raises(ValueError):
        months.day_index(dt.date(2020, 1, 1))


BUNDLED_CSVS = sorted(str(p.relative_to(DATA_DIR)) for p in DATA_DIR.glob("*/*.csv"))
SCHEMA_OF_FILE = {"months.csv": "month", "mileage.csv": "mileage",
                  **{name: schema for schema, (_, name) in FIXTURE_FILES.items()}}


@pytest.mark.parametrize("relative", BUNDLED_CSVS)
def test_byte_order_mark_is_accepted(relative, data_dir, tmp_path):
    # spreadsheet programs often save CSVs with a leading UTF-8 BOM
    original = data_dir / relative
    schema = SCHEMA_OF_FILE[original.name]
    copy = tmp_path / original.name
    copy.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    report = validate(copy, schema)
    assert report.ok, report.violations[:3]
    assert report.rows > 0
    assert load(copy, schema) == load(original, schema)


def test_index_with_byte_order_mark_is_read(data_dir, tmp_path):
    index = load_index(data_dir)
    for name in index.names():
        (tmp_path / index.directory(name).relative_to(data_dir)).mkdir(parents=True)
    (tmp_path / "DataList.csv").write_bytes(b"\xef\xbb\xbf" + (data_dir / "DataList.csv").read_bytes())
    assert load_index(tmp_path).entries == index.entries
