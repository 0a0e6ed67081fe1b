"""Oracle properties for the array-form DMV data path.

The oracles are the per-row and per-event copies of ``derive_exposure``,
``sum_schedules``, ``disengagement_records``, ``collision_records``,
``event_series_from_disengagements`` and ``collision_times``, and the
per-segment envelope loop of ``simulate_nhpp``, from before the data path
worked on arrays.  Each must be reproduced bit for bit: the same arrays
(dtype and bytes), the same records (equal reprs), and the same error
type and text where the inputs are bad.
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aireliab.datasets import (
    CollisionRecord,
    DisengagementRecord,
    ExposureSchedule,
    MileageRow,
    MonthTable,
    derive_exposure,
    sum_schedules,
)
from aireliab.recurrent import EventSeries
from aireliab.simulate import (
    T_MIN,
    _envelope,
    _left_cutoff,
    collision_records,
    collision_times,
    disengagement_records,
    event_series_from_disengagements,
    intensity_supremum,
)
from conftest import PROPERTY, build_months
from test_simulate_oracle import assert_same_bits, exposures, nhpp_models

# ---------------------------------------------------------------------------
# oracles: the earlier implementations, verbatim


def oracle_envelope(model, exposure):
    lo = _left_cutoff(model)
    envelope = 0.0
    for a, b, rate in zip(exposure.breakpoints[:-1], exposure.breakpoints[1:],
                          exposure.daily_rate):
        if rate <= 0 or b <= lo:
            continue
        envelope = max(envelope, rate * intensity_supremum(model, max(a, lo, T_MIN), b))
    return envelope


def oracle_derive_exposure(mileage_rows, months):
    if not isinstance(months, MonthTable):
        months = MonthTable(months)
    n_days = np.array([r.n_days for r in months.rows], dtype=float)
    breakpoints = np.concatenate([[0.0], np.cumsum(n_days)])
    tau = float(breakpoints[-1])
    schedules = []
    for row in mileage_rows:
        miles = np.asarray(row.monthly_miles, dtype=float)
        if len(miles) != len(months):
            raise ValueError(
                f"{row.vin}: {len(miles)} mileage columns but {len(months)} month rows"
            )
        schedules.append(
            ExposureSchedule(
                unit_id=f"{row.manufacture}:{row.vin}",
                breakpoints=breakpoints.copy(),
                daily_rate=miles / n_days,
                tau=tau,
            )
        )
    return schedules


def oracle_sum_schedules(schedules, unit_id="fleet"):
    schedules = list(schedules)
    if not schedules:
        raise ValueError("no schedules to sum")
    tau = schedules[0].tau
    if any(abs(s.tau - tau) > 1e-9 for s in schedules):
        raise ValueError("schedules do not share the same horizon")
    grid = np.unique(np.concatenate([s.breakpoints for s in schedules]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    rate = np.zeros(len(mids))
    for s in schedules:
        rate += s.rate_at(mids)
    return ExposureSchedule(unit_id=unit_id, breakpoints=grid, daily_rate=rate, tau=tau)


def oracle_calendar(months, t):
    date = months.date_of_day(int(np.ceil(t)))
    return date, f"{date:%Y-%m}", months.month_of_date(date).month_id


def oracle_disengagement_records(series_list, months, manufacture):
    records = []
    for series in series_list:
        vin = series.unit_id.split(":")[-1]
        for t in series.event_times:
            records.append(DisengagementRecord(manufacture, vin, *oracle_calendar(months, t)))
    records.sort(key=lambda r: (r.date, r.vin))
    return records


def oracle_collision_records(event_times, months, manufacture):
    date_ids = {}
    records = []
    for date, month, month_id in sorted(oracle_calendar(months, t)
                                        for t in np.asarray(event_times)):
        event_id = date_ids.setdefault(date, len(date_ids) + 1)
        records.append(CollisionRecord(manufacture, None, date, month, month_id, event_id))
    return records


def oracle_event_series_from_disengagements(records, mileage_rows, months, manufacture):
    fleet_rows = [r for r in mileage_rows if r.manufacture == manufacture]
    if not fleet_rows:
        raise ValueError(f"no mileage rows for manufacturer {manufacture!r}")
    schedules = oracle_derive_exposure(fleet_rows, months)
    by_vin = {r.vin: [] for r in fleet_rows}
    for rec in records:
        if rec.manufacture != manufacture:
            continue
        if rec.vin not in by_vin:
            raise ValueError(f"event for unknown vehicle {rec.vin!r}")
        by_vin[rec.vin].append(float(months.day_index(rec.date)))
    series = []
    for row, schedule in zip(fleet_rows, schedules):
        times = np.sort(np.asarray(by_vin[row.vin]))
        series.append(EventSeries(schedule.unit_id, times, schedule.tau, schedule))
    return series


def oracle_collision_times(records, months, manufacture):
    times = [
        float(months.day_index(r.date))
        for r in records
        if r.manufacture == manufacture
    ]
    return np.sort(np.asarray(times))


def same_outcome(call, oracle):
    """Run both; they must raise the same error or return for comparison."""
    try:
        want = oracle()
    except Exception as exc:  # the comparison is the point: any error type
        with pytest.raises(type(exc)) as got:
            call()
        assert str(got.value) == str(exc)
        return None, None
    return call(), want


def assert_same_schedule(got, want):
    assert (got.unit_id, repr(got.tau)) == (want.unit_id, repr(want.tau))
    assert_same_bits(got.breakpoints, want.breakpoints)
    assert_same_bits(got.daily_rate, want.daily_rate)


def assert_same_series(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.unit_id, repr(g.tau)) == (w.unit_id, repr(w.tau))
        assert_same_bits(g.event_times, w.event_times)
        assert_same_schedule(g.exposure, w.exposure)


# ---------------------------------------------------------------------------
# strategies

MAKERS = ("Acme", "Zoox", "Waymo")
#: VINs from a small pool, so that rows repeat a VIN and VIN order differs
#: from row order
VINS = ("V10", "V2", "A7", "V1", "b3", "Z0", "V02")


@st.composite
def month_tables(draw):
    """Consecutive calendar months from any start month, leap Februaries
    included (2020 and 2024 lie in the drawn years)."""
    start = dt.date(draw(st.integers(2015, 2026)), draw(st.integers(1, 12)), 1)
    return MonthTable(build_months(start, draw(st.integers(1, 30))))


@st.composite
def mileage_rows(draw, n_months):
    """Rows of several manufacturers with zero-mileage months."""
    miles = st.just(0.0) | st.floats(0.0, 3.0) | st.sampled_from((0.3, 1.25, 2.5))
    return [MileageRow(draw(st.sampled_from(MAKERS)), draw(st.sampled_from(VINS)),
                       tuple(draw(st.lists(miles, min_size=n_months, max_size=n_months))))
            for _ in range(draw(st.integers(0, 8)))]


@st.composite
def fleets(draw):
    months = draw(month_tables())
    return months, draw(mileage_rows(len(months)))


@st.composite
def event_times(draw, tau):
    """Times in (0, tau]: whole days, same-day ties, and fractional days."""
    day = st.integers(1, int(tau))
    time = day.map(float) | day.map(lambda d: d - 0.5) | \
        st.floats(0.0, tau, exclude_min=True)
    return np.sort(np.array(draw(st.lists(time, max_size=12)), dtype=float))


@st.composite
def dated_records(draw, months, rows):
    """Disengagement rows on days of the period, with many same-day ties,
    for the fleet's VINs and manufacturers; optionally one bad row at a
    drawn position: an unknown VIN, or a date just outside the period."""
    makers = sorted({r.manufacture for r in rows} | {"Other"})
    vins = sorted({r.vin for r in rows} | {"V1"})
    hot = draw(st.lists(st.integers(1, int(months.tau)), min_size=1, max_size=3))
    day = st.sampled_from(hot) | st.integers(1, int(months.tau))
    records = [DisengagementRecord(draw(st.sampled_from(makers)), draw(st.sampled_from(vins)),
                                   months.date_of_day(draw(day)), "", 0)
               for _ in range(draw(st.integers(0, 25)))]
    bad = draw(st.sampled_from((None, "vin", "before", "after")))
    if bad is not None:
        date = {"vin": months.start_date, "before": months.start_date - dt.timedelta(days=1),
                "after": months.end_date + dt.timedelta(days=1)}[bad]
        vin = "NOPE" if bad == "vin" else draw(st.sampled_from(vins))
        at = draw(st.integers(0, len(records)))
        records.insert(at, DisengagementRecord(draw(st.sampled_from(makers)), vin, date, "", 0))
    return records


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(st.integers(2, 60).flatmap(
    lambda tau: st.tuples(nhpp_models(tau), exposures(tau))))
def test_envelope_matches_oracle(case):
    model, exposure = case
    got, want = same_outcome(lambda: _envelope(model, exposure),
                             lambda: oracle_envelope(model, exposure))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@PROPERTY
@given(month_tables().flatmap(lambda months: st.tuples(st.just(months),
                                                       nhpp_models(months.tau))),
       st.lists(st.just(0.0) | st.floats(0.0, 3.0), min_size=30, max_size=30))
def test_envelope_matches_oracle_on_month_grids(case, miles):
    months, model = case
    row = MileageRow("Acme", "V1", tuple(miles[:len(months)]))
    exposure = derive_exposure([row], months)[0]
    got, want = same_outcome(lambda: _envelope(model, exposure),
                             lambda: oracle_envelope(model, exposure))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@PROPERTY
@given(fleets())
def test_derive_exposure_matches_oracle(fleet):
    months, rows = fleet
    got, want = derive_exposure(rows, months), oracle_derive_exposure(rows, months)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_schedule(g, w)


@PROPERTY
@given(fleets(), st.integers(0, 8),
       st.sampled_from((float("nan"), float("inf"), -1.0, -0.0, "short", "long")))
def test_derive_exposure_errors_match_oracle(fleet, at, bad):
    months, rows = fleet[0], list(fleet[1])
    row = MileageRow("Acme", "BAD", tuple([1.0] * len(months)))
    if bad == "short":
        row = MileageRow("Acme", "BAD", row.monthly_miles[1:])
    elif bad == "long":
        row = MileageRow("Acme", "BAD", (*row.monthly_miles, 1.0))
    else:
        row = MileageRow("Acme", "BAD", (*row.monthly_miles[:-1], bad))
    rows.insert(min(at, len(rows)), row)
    got, want = same_outcome(lambda: derive_exposure(rows, months),
                             lambda: oracle_derive_exposure(rows, months))
    for g, w in zip(got or (), want or ()):
        assert_same_schedule(g, w)


@PROPERTY
@given(st.integers(2, 60).flatmap(lambda tau: st.lists(exposures(tau), min_size=1,
                                                       max_size=5)),
       fleets(), st.sampled_from(("fleet", "Acme")))
def test_sum_schedules_matches_oracle(differing, fleet, unit_id):
    months, rows = fleet
    assert_same_schedule(sum_schedules(differing, unit_id),
                         oracle_sum_schedules(differing, unit_id))
    shared = derive_exposure(rows, months)
    if shared:
        # one fleet's grid, and that grid beside a constant schedule
        assert_same_schedule(sum_schedules(shared), oracle_sum_schedules(shared))
        mixed = [*shared[:2], ExposureSchedule("c", np.array([0.0, months.tau]),
                                               np.array([0.7]), months.tau), *shared[2:]]
        assert_same_schedule(sum_schedules(mixed), oracle_sum_schedules(mixed))


@PROPERTY
@given(month_tables().flatmap(lambda months: st.tuples(
    st.just(months),
    st.lists(st.tuples(st.sampled_from(VINS), event_times(months.tau)), max_size=6))),
    st.sampled_from(MAKERS))
def test_disengagement_records_match_oracle(case, maker):
    months, streams = case
    exposure = ExposureSchedule("x", np.array([0.0, months.tau]), np.array([1.0]), months.tau)
    series = [EventSeries(f"{maker}:{vin}", times, months.tau, exposure)
              for vin, times in streams]
    got = disengagement_records(series, months, maker)
    # repr shows each field's type and value, so equal reprs mean equal records
    assert repr(got) == repr(oracle_disengagement_records(series, months, maker))


@PROPERTY
@given(month_tables().flatmap(lambda months: st.tuples(
    st.just(months), event_times(months.tau),
    st.sampled_from((None, 0.0, -3.0, 0.5, months.tau + 0.5, months.tau + 1e-10)))))
def test_collision_records_match_oracle(case):
    months, times, extra = case
    if extra is not None:
        times = np.append(times, extra)
    got, want = same_outcome(lambda: collision_records(times, months, "Acme"),
                             lambda: oracle_collision_records(times, months, "Acme"))
    assert repr(got) == repr(want)


@PROPERTY
@given(fleets().flatmap(lambda fleet: st.tuples(
    st.just(fleet), dated_records(*fleet))), st.sampled_from(MAKERS))
def test_event_series_from_disengagements_match_oracle(case, maker):
    (months, rows), records = case
    got, want = same_outcome(
        lambda: event_series_from_disengagements(records, rows, months, maker),
        lambda: oracle_event_series_from_disengagements(records, rows, months, maker))
    if want is not None:
        assert_same_series(got, want)


@PROPERTY
@given(fleets().flatmap(lambda fleet: st.tuples(
    st.just(fleet), dated_records(*fleet))), st.sampled_from(MAKERS))
def test_collision_times_match_oracle(case, maker):
    (months, _), records = case
    got, want = same_outcome(lambda: collision_times(records, months, maker),
                             lambda: oracle_collision_times(records, months, maker))
    if want is not None:
        assert_same_bits(got, want)


def test_leap_february_calendar():
    months = MonthTable(build_months(dt.date(2020, 1, 1), n=3))
    times = np.array([31.0, 59.5, 60.0, 60.0, 91.0])
    want = oracle_collision_records(times, months, "Acme")
    assert repr(collision_records(times, months, "Acme")) == repr(want)
    assert [(r.date, r.month, r.month_id, r.event_id) for r in want] == [
        (dt.date(2020, 1, 31), "2020-01", 1, 1), (dt.date(2020, 2, 29), "2020-02", 2, 2),
        (dt.date(2020, 2, 29), "2020-02", 2, 2), (dt.date(2020, 2, 29), "2020-02", 2, 2),
        (dt.date(2020, 3, 31), "2020-03", 3, 3)]
