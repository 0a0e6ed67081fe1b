"""Daily exposure schedules derived from monthly mileage tables.

A vehicle's exposure is its daily driven mileage (thousands of miles per
day), obtained by dividing each month's mileage by the number of days in
that month.  The result is a piecewise-constant rate over the observation
window, with one segment per month.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .schemas import MileageRow, MonthRow  # noqa: F401  (MileageRow is re-exported)
from .table import RecordTable, column


class MonthTable:
    """Ordered month rows with day-offset arithmetic for the whole period.

    Day offsets are 1-based within the period: an event on the period's
    first calendar day has day index 1, and the last day equals ``tau``.
    """

    def __init__(self, rows):
        """``rows``: a month table or a list of ``MonthRow``, read by column."""
        if not isinstance(rows, RecordTable):
            rows = list(rows)
        cols = [column(rows, name) for name in ("month_id", "start_date", "end_date", "n_days")]
        order = sorted(range(len(rows)), key=cols[0].__getitem__)
        if not order:
            raise ValueError("month table is empty")
        ids, starts, ends, n_days = ([col[i] for i in order] for col in cols)
        for i, (month, start, end, n) in enumerate(zip(ids, starts, ends, n_days)):
            if month != ids[0] + i:
                raise ValueError("month ids are not consecutive")
            expected = (end - start).days + 1
            if expected < 1:
                raise ValueError(f"month {month}: end date {end} precedes start date {start}")
            if n != expected:
                raise ValueError(f"month {month}: n_days={n} but dates span {expected}")
        for i in range(1, len(ids)):
            if starts[i] != ends[i - 1] + dt.timedelta(days=1):
                raise ValueError(
                    f"month {ids[i]} does not start the day after month {ids[i - 1]} ends"
                )
        self.month_ids, self.n_days = tuple(ids), tuple(n_days)
        self.rows = tuple(map(MonthRow, ids, starts, ends, n_days))

    def __len__(self):
        return len(self.rows)

    @property
    def start_date(self) -> dt.date:
        return self.rows[0].start_date

    @property
    def end_date(self) -> dt.date:
        return self.rows[-1].end_date

    @property
    def tau(self) -> float:
        """Total length of the observation period in days."""
        return float(sum(self.n_days))

    def day_index(self, date: dt.date) -> int:
        """1-based day offset of ``date`` within the period."""
        if date < self.start_date or date > self.end_date:
            raise ValueError(f"{date} outside period {self.start_date}..{self.end_date}")
        return (date - self.start_date).days + 1

    def date_of_day(self, day: int) -> dt.date:
        if not 1 <= day <= self.tau:
            raise ValueError(f"day {day} outside 1..{int(self.tau)}")
        return self.start_date + dt.timedelta(days=day - 1)

    def month_of_date(self, date: dt.date) -> MonthRow:
        for row in self.rows:
            if row.start_date <= date <= row.end_date:
                return row
        raise ValueError(f"{date} not covered by the month table")

    # Per-day tables, built once per table: entry d - 1 describes day d of
    # the period, as date_of_day and month_of_date would for that day.

    @cached_property
    def day_dates(self) -> tuple[dt.date, ...]:
        """The date of each day of the period."""
        start = self.start_date
        return tuple(start + dt.timedelta(days=d) for d in range(int(self.tau)))

    @cached_property
    def day_months(self) -> tuple[str, ...]:
        """The "YYYY-MM" month string of each day of the period."""
        return tuple(f"{date:%Y-%m}" for date in self.day_dates)

    @cached_property
    def day_month_ids(self) -> tuple[int, ...]:
        """The month id of each day of the period."""
        # the rows tile the period in order (checked in __init__)
        ids = np.repeat(self.month_ids, self.n_days)
        return tuple(ids.tolist())


def _check_rates(rate: np.ndarray) -> None:
    """Reject a row of daily rates, or the first bad row of a matrix of them."""
    rate = np.atleast_2d(rate)
    finite = np.isfinite(rate).all(axis=1)
    bad = ~finite | (rate < 0).any(axis=1)
    if bad.any():
        if not finite[np.argmax(bad)]:
            raise ValueError("daily rates must be finite")
        raise ValueError("daily rates must be non-negative")


@dataclass(frozen=True)
class ExposureSchedule:
    """Piecewise-constant daily usage rate for one unit over (0, tau].

    ``breakpoints`` has one more entry than ``daily_rate`` and runs from 0
    to ``tau``; segment ``j`` covers (breakpoints[j], breakpoints[j+1]].
    """

    unit_id: str
    breakpoints: np.ndarray
    daily_rate: np.ndarray
    tau: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        rate = np.asarray(self.daily_rate, dtype=float)
        if bp.ndim != 1 or rate.ndim != 1 or len(bp) != len(rate) + 1:
            raise ValueError("breakpoints must have exactly one more entry than daily_rate")
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if bp[0] != 0.0 or abs(bp[-1] - self.tau) > 1e-9:
            raise ValueError("breakpoints must run from 0 to tau")
        if not (np.diff(bp) > 0).all():
            raise ValueError("breakpoints must be strictly ascending")
        _check_rates(rate)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "daily_rate", rate)
        object.__setattr__(self, "tau", float(self.tau))

    @classmethod
    def _prechecked(cls, unit_id: str, breakpoints: np.ndarray, daily_rate: np.ndarray,
                    tau: float) -> "ExposureSchedule":
        """A schedule from fields that already passed ``__post_init__``'s
        checks, built without running them again."""
        self = object.__new__(cls)
        # as the frozen __init__ sets them; touching vars(self) instead
        # would give every schedule a dict of its own, about 0.1 kB each
        object.__setattr__(self, "unit_id", unit_id)
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "daily_rate", daily_rate)
        object.__setattr__(self, "tau", tau)
        return self

    def rate_at(self, t):
        """Rate at time(s) ``t`` in (0, tau]; t=0 maps to the first segment."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="left") - 1
        idx = np.clip(idx, 0, len(self.daily_rate) - 1)
        out = self.daily_rate[idx]
        return out if out.ndim else float(out)

    def integral(self, a: float, b: float) -> float:
        """Accumulated exposure over the interval [a, b]."""
        if b < a:
            raise ValueError("interval end precedes start")
        lo = np.maximum(self.breakpoints[:-1], a)
        hi = np.minimum(self.breakpoints[1:], b)
        overlap = np.clip(hi - lo, 0.0, None)
        return float(np.dot(overlap, self.daily_rate))

    def total(self) -> float:
        return self.integral(0.0, self.tau)


def constant_exposure(rate: float, tau: float, unit_id: str = "unit") -> ExposureSchedule:
    """Single-segment schedule with constant rate over (0, tau]."""
    return ExposureSchedule(
        unit_id=unit_id,
        breakpoints=np.array([0.0, float(tau)]),
        daily_rate=np.array([float(rate)]),
        tau=float(tau),
    )


def derive_exposure(mileage_rows, months: MonthTable) -> list[ExposureSchedule]:
    """Daily exposure schedules from monthly mileage rows (a table or a list
    of ``MileageRow``) and the month lengths of ``months``.

    Each month's rate is that month's mileage divided by its number of
    days, so the schedule integrates back to the monthly totals exactly.
    The schedules share one grid of month breakpoints, strictly ascending
    as every month of a ``MonthTable`` lasts at least one day; the whole
    matrix of rates is checked once, with the errors and messages that
    building each schedule on its own would raise, row by row.
    """
    rows = mileage_rows if isinstance(mileage_rows, RecordTable) else list(mileage_rows)
    miles = column(rows, "monthly_miles")
    n_days = np.array(months.n_days, dtype=float)
    breakpoints = np.concatenate([[0.0], np.cumsum(n_days)])
    tau = float(breakpoints[-1])
    n_months = len(months)
    # the rows before the first one with the wrong number of months
    n_good = next((i for i, n in enumerate(map(len, miles)) if n != n_months), len(rows))
    rates = np.array(miles[:n_good], dtype=float).reshape(n_good, n_months)
    rates /= n_days
    if n_good:
        _check_rates(rates)
    if n_good < len(rows):
        row = rows[n_good]
        raise ValueError(
            f"{row.vin}: {len(row.monthly_miles)} mileage columns but {n_months} month rows"
        )
    return [
        ExposureSchedule._prechecked(f"{maker}:{vin}", breakpoints.copy(), rate, tau)
        for maker, vin, rate in zip(column(rows, "manufacture"), column(rows, "vin"), rates)
    ]


def sum_schedules(schedules, unit_id: str = "fleet") -> ExposureSchedule:
    """Pointwise sum of exposure schedules sharing one observation window.

    The sum lives on the union of the schedules' breakpoints; each
    schedule's rate is looked up on every cell of that grid and the rates
    are added in schedule order.
    """
    schedules = list(schedules)
    if not schedules:
        raise ValueError("no schedules to sum")
    tau = schedules[0].tau
    if any(abs(s.tau - tau) > 1e-9 for s in schedules):
        raise ValueError("schedules do not share the same horizon")
    grid = np.unique(np.concatenate([s.breakpoints for s in schedules]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    rate = np.zeros(len(mids))
    key = None
    for s in schedules:
        # the schedules of one fleet share their breakpoints, so the cells'
        # segments (rate_at's lookup) are found once per run of equal grids
        if s.breakpoints.tobytes() != key:
            key = s.breakpoints.tobytes()
            segment = np.clip(np.searchsorted(s.breakpoints, mids) - 1, 0,
                              len(s.daily_rate) - 1)
        rate += s.daily_rate[segment]
    return ExposureSchedule(unit_id=unit_id, breakpoints=grid, daily_rate=rate, tau=tau)
