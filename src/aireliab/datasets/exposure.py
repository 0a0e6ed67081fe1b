"""Daily exposure schedules derived from monthly mileage tables.

A vehicle's exposure is its daily driven mileage (thousands of miles per
day), obtained by dividing each month's mileage by the number of days in
that month.  The result is a piecewise-constant rate over the observation
window, with one segment per month.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MonthRow:
    """One calendar month of the observation period."""

    month_id: int
    start_date: dt.date
    end_date: dt.date
    n_days: int


@dataclass(frozen=True)
class MileageRow:
    """Monthly mileage (thousands of miles) for one vehicle."""

    manufacture: str
    vin: str
    monthly_miles: tuple[float, ...]


class MonthTable:
    """Ordered month rows with day-offset arithmetic for the whole period.

    Day offsets are 1-based within the period: an event on the period's
    first calendar day has day index 1, and the last day equals ``tau``.
    """

    def __init__(self, rows):
        rows = sorted(rows, key=lambda r: r.month_id)
        if not rows:
            raise ValueError("month table is empty")
        for i, row in enumerate(rows):
            if row.month_id != rows[0].month_id + i:
                raise ValueError("month ids are not consecutive")
            expected = (row.end_date - row.start_date).days + 1
            if row.n_days != expected:
                raise ValueError(
                    f"month {row.month_id}: n_days={row.n_days} but dates span {expected}"
                )
        for prev, nxt in zip(rows, rows[1:]):
            if nxt.start_date != prev.end_date + dt.timedelta(days=1):
                raise ValueError(
                    f"month {nxt.month_id} does not start the day after month {prev.month_id} ends"
                )
        self.rows = tuple(rows)

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
        return float(sum(r.n_days for r in self.rows))

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
        if bp[0] != 0.0 or abs(bp[-1] - self.tau) > 1e-9:
            raise ValueError("breakpoints must run from 0 to tau")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly ascending")
        if not np.isfinite(rate).all():
            raise ValueError("daily rates must be finite")
        if np.any(rate < 0):
            raise ValueError("daily rates must be non-negative")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "daily_rate", rate)
        object.__setattr__(self, "tau", float(self.tau))

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
    """Daily exposure schedules from monthly mileage and month lengths.

    Each month's rate is that month's mileage divided by its number of
    days, so the schedule integrates back to the monthly totals exactly.
    """
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


def sum_schedules(schedules, unit_id: str = "fleet") -> ExposureSchedule:
    """Pointwise sum of exposure schedules sharing one observation window."""
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
