"""Column specs, record types and row/file invariant checks for the repository schemas.

Six dataset schemas (incident, mixture, adversarial, module_error,
disengagement, collision) plus the two auxiliary tables that accompany
the vehicle data (mileage, month).  All files are UTF-8 CSV with a
mandatory header row; dates are ISO-8601 and months are "YYYY-MM".
Columns beyond a dataset schema's required set are preserved verbatim in
each record's ``extras`` so files round-trip untouched.

Each schema is declared once, as a column spec: per column the header
name, the record attribute, the cell type and an optional range rule.
The frozen record type of each schema is built from its spec, one
generic parser and one generic formatter work from the specs, and only
the invariants that span several fields of a row (row checks) or several
rows of a file (file checks) are written by hand.
"""

from __future__ import annotations

import calendar
import datetime as dt
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, make_dataclass

import numpy as np

N_MILEAGE_MONTHS = 24


@dataclass(frozen=True)
class Violation:
    """One invariant breach located by data row (1-based) and column."""

    row: int | None
    column: str | None
    rule: str
    detail: str = ""

    def to_dict(self):
        return {"row": self.row, "column": self.column, "rule": self.rule, "detail": self.detail}


# ---------------------------------------------------------------------------
# cell types, range rules and column specs


def _flag(raw: str) -> int:
    if raw == "0" or raw == "1":
        return int(raw)
    raise ValueError(raw)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


@dataclass(frozen=True)
class Cell:
    """Conversion between one CSV cell and a record value; ``parse`` raises
    ValueError on a malformed cell, which is reported under ``rule``.

    The cells of an ``array`` type rarely repeat, so a column of them is
    parsed cell by cell and held as a float array; other cells are parsed
    once per distinct string and held as a list.
    """

    parse: Callable[[str], object]
    format: Callable[[object], object]
    rule: str = ""
    array: bool = False


STR = Cell(str, lambda value: value)
OPTIONAL_STR = Cell(lambda raw: raw or None, lambda value: value or "")
INT = Cell(int, str, "integer format")
FLOAT = Cell(float, _fmt, "number format", array=True)
DATE = Cell(dt.date.fromisoformat, lambda value: value.isoformat(), "date format")
FLAG = Cell(_flag, str, "binary flag")


@dataclass(frozen=True)
class Range:
    """Bounds a parsed value must keep; a breach is reported under ``rule``.

    With ``hi`` the value must lie in [lo, hi]; with ``lo`` alone it must
    be at least ``lo`` (above it when ``strict``) and finite.  A NaN
    breaches either form.  A ``reject`` breach costs the row its record,
    as a malformed cell does; other breaches only report.
    """

    rule: str
    lo: float
    hi: float | None = None
    strict: bool = False
    reject: bool = False

    def breached(self, value):
        """Whether ``value`` breaks the rule; elementwise for an array."""
        if self.hi is not None:
            ok = (self.lo <= value) & (value <= self.hi)
        else:
            ok = ((self.lo < value) if self.strict else (self.lo <= value)) & (value != math.inf)
        return ~ok if isinstance(ok, np.ndarray) else not ok


@dataclass(frozen=True)
class Column:
    """One CSV column: its header name, the record attribute it fills, its
    cell type and an optional range rule.  Columns that share an attribute
    fill a tuple in column order."""

    name: str
    attr: str
    cell: Cell
    range: Range | None = None


@dataclass(frozen=True)
class SchemaDef:
    """One schema: its column spec plus the checks no single column states.

    ``record_type`` is the frozen dataclass ``type_name`` built from the
    spec: one field per attribute, in the order the attribute first
    appears among the columns, holding a tuple where several columns share
    the attribute, then an ``extras`` dict when ``extras`` is set.

    ``row_checks(row, record, out)`` sees each record whose cells all
    parsed and appends violations to ``out``; it returns True when the row
    must yield no record.  Its ``reads`` names the record attributes it
    reads (see ``_reads``).  ``file_checks(table, rows, **options)`` reads
    the columns of the table of a whole file's records, whose data rows
    (1-based) are ``rows``, and returns violations.
    """

    name: str
    type_name: str
    spec: tuple[Column, ...]
    row_checks: Callable | None = None
    file_checks: Callable | None = None
    options: tuple[str, ...] = ()
    extras: bool = True
    record_type: type = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = self._slots().items()
        attrs = [(attr, tuple) if len(js) > 1 else attr for attr, js in slots]
        if self.extras:
            attrs.append(("extras", dict, field(default_factory=dict)))
        # the type lives in this module, where pickle and repr look it up
        record_type = make_dataclass(self.type_name, attrs, frozen=True,
                                     namespace={"__module__": __name__})
        object.__setattr__(self, "record_type", record_type)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.spec)

    def _slots(self) -> dict[str, list[int]]:
        """Spec positions of each record attribute, in column order."""
        slots: dict[str, list[int]] = {}
        for j, col in enumerate(self.spec):
            slots.setdefault(col.attr, []).append(j)
        return slots


# ---------------------------------------------------------------------------
# row checks: invariants across several fields of one row


def _reads(*attrs):
    """Mark a row check with the record attributes it reads.  Its verdict
    depends on nothing else, so the parser runs it once per distinct
    combination of their values."""
    def mark(check):
        check.reads = attrs
        return check
    return mark


@functools.lru_cache(maxsize=1024)  # the rows of a file share a few dozen months
def _month_window(month: str):
    """First and last date of a 'YYYY-MM' month string, or None."""
    try:
        start = dt.date.fromisoformat(month + "-01")
    except ValueError:
        return None
    return start, start.replace(day=calendar.monthrange(start.year, start.month)[1])


@_reads("date", "month")
def _event_date_checks(row, rec, out):
    """Disengagement and collision dates fall inside their month."""
    window = _month_window(rec.month)
    if window is None:
        out.append(Violation(row, "Month", "month format", f"expected YYYY-MM, got {rec.month!r}"))
    elif not window[0] <= rec.date <= window[1]:
        out.append(Violation(row, "Date", "date month mismatch",
                             f"{rec.date} not in month {rec.month}"))


@_reads("start_date", "end_date", "n_days")
def _month_checks(row, rec, out):
    span = (rec.end_date - rec.start_date).days + 1
    if span != rec.n_days:
        out.append(Violation(row, "NDays", "day count", f"{rec.start_date}..{rec.end_date} "
                             f"spans {span} days, not {rec.n_days}"))


@_reads("window", "ei_time_2d", "ei_time_3d", "timestamp")
def _module_error_checks(row, rec, out):
    """Injection intervals and the time stamp lie inside an ordered window;
    a row whose window is out of order yields no record."""
    start, end = rec.window
    if not start < end:  # a NaN end or start is out of order too
        out.append(Violation(row, "WindowEnd", "window order", "window end must exceed start"))
        return True
    for col, (lo, hi) in (("EI2DStart", rec.ei_time_2d), ("EI3DStart", rec.ei_time_3d)):
        if not start <= lo < hi <= end:
            out.append(Violation(row, col, "injection window",
                                 f"[{lo}, {hi}) not inside window {rec.window}"))
    if not start <= rec.timestamp <= end:
        out.append(Violation(row, "TimeStamp", "timestamp window",
                             f"{rec.timestamp} outside window {rec.window}"))


SIMPLEX_TOL = 1e-9


@_reads("x1", "x2", "x3", "c1", "c2", "c3")
def _mixture_checks(row, rec, out):
    """Class proportions form a simplex point and one scenario flag is set."""
    xs = (rec.x1, rec.x2, rec.x3)
    for col, x in zip(("x1", "x2", "x3"), xs):
        if not 0 <= x <= 1:
            out.append(Violation(row, col, "proportion range", f"{x!r} outside [0, 1]"))
    if abs(sum(xs) - 1.0) > SIMPLEX_TOL:
        out.append(Violation(row, "x1", "simplex sum", f"x1 + x2 + x3 = {sum(xs)!r}, expected 1"))
    if rec.c1 + rec.c2 + rec.c3 != 1:
        out.append(Violation(row, "c1", "scenario one-hot",
                             "exactly one of c1, c2, c3 must equal 1"))


ATTACK_MIX_TOL = 1e-6


@_reads("epsilon_range", "fgsm_pct", "pgd_pct")
def _adversarial_checks(row, rec, out):
    """The epsilon range is an interval in [0, 1]; FGSM and PGD shares sum to 100."""
    lo, hi = rec.epsilon_range
    if not (0 <= lo <= hi <= 1):
        out.append(Violation(row, "EpsilonRangeLow", "epsilon range",
                             f"[{lo}, {hi}] is not an interval inside [0, 1]"))
    mix = rec.fgsm_pct + rec.pgd_pct
    if abs(mix - 100.0) > ATTACK_MIX_TOL:
        out.append(Violation(row, "FGSM", "attack mix sum", f"FGSM + PGD = {mix!r}, expected 100"))


# ---------------------------------------------------------------------------
# file checks: invariants across the rows of one file


def _collision_file_checks(table, rows):
    """Within a manufacturer, event dates and ids must map one-to-one; each
    distinct (manufacture, date, event id) is judged once, in first-seen order."""
    triples = list(zip(*(table.columns[attr] for attr in ("manufacture", "date", "event_id"))))
    date_to_id, id_to_date, broken = {}, {}, {}
    for maker, date, event_id in dict.fromkeys(triples):
        first_id = date_to_id.setdefault((maker, date), event_id)
        first_date = id_to_date.setdefault((maker, event_id), date)
        broken[maker, date, event_id] = [detail for detail, bad in (
            (f"date {date} already has event id {first_id}", first_id != event_id),
            (f"event id {event_id} already used on {first_date}", first_date != date)) if bad]
    return [Violation(row, "EventID", "event id mapping", detail) for row, key in zip(rows, triples)
            for detail in broken[key]] if any(broken.values()) else []


def _month_file_checks(table, rows):
    out = []
    ids, starts, ends = (table.columns[attr] for attr in ("month_id", "start_date", "end_date"))
    if ids and ids != list(range(1, len(ids) + 1)):
        out.append(Violation(None, "MonthID", "month sequence",
                             "month ids must run 1..N consecutively"))
    for row, start, prev_end in zip(rows[1:], starts[1:], ends):
        if start != prev_end + dt.timedelta(days=1):
            out.append(Violation(row, "StartDate", "month contiguity",
                                 f"{start} is not the day after {prev_end}"))
    return out


def _adversarial_file_checks(table, rows, accuracy_scale: str = "auto"):
    """Accuracies are proportions or percentages, declared once per file."""
    acc_cols = ("train_acc", "val_acc", "test_acc")
    values = np.column_stack([table.columns[col] for col in acc_cols])
    if accuracy_scale == "auto":
        accuracy_scale = "percent" if (values > 1.5).any() else "proportion"
    if accuracy_scale not in ("proportion", "percent"):
        raise ValueError("accuracy_scale must be 'auto', 'proportion', or 'percent'")
    hi = 1.0 if accuracy_scale == "proportion" else 100.0
    names = {col.attr: col.name for col in SCHEMAS["adversarial"].spec}
    return [Violation(rows[i], names[acc_cols[j]], "accuracy range",
                      f"{float(values[i, j])} outside [0, {hi:g}] ({accuracy_scale} scale)")
            for i, j in np.argwhere(~((0 <= values) & (values <= hi))).tolist()]


def _incident_file_checks(table, rows):
    seen = {}
    return [Violation(row, "IncidentNo", "duplicate incident number",
                      f"incident {number} already at row {first}")
            for row, number in zip(rows, table.columns["incident_no"])
            if (first := seen.setdefault(number, row)) != row]


# ---------------------------------------------------------------------------
# registry

MONTH_ID = Range("month id range", 1, N_MILEAGE_MONTHS)
PROBABILITY = Range("probability range", 0, 1)
UNIT = Range("unit range", 0, 1)
PERCENT = Range("percent range", 0, 100)

SCHEMAS = {
    s.name: s
    for s in (
        SchemaDef("disengagement", "DisengagementRecord", (
            Column("Manufacture", "manufacture", STR),
            Column("VIN", "vin", STR),
            Column("Date", "date", DATE),
            Column("Month", "month", STR),
            Column("MonthID", "month_id", INT, MONTH_ID),
        ), _event_date_checks),
        SchemaDef("collision", "CollisionRecord", (
            Column("Manufacture", "manufacture", STR),
            Column("VIN", "vin", OPTIONAL_STR),
            Column("Date", "date", DATE),
            Column("Month", "month", STR),
            Column("MonthID", "month_id", INT, MONTH_ID),
            Column("EventID", "event_id", INT, Range("event id range", 1)),
        ), _event_date_checks, _collision_file_checks),
        SchemaDef("mileage", "MileageRow", (
            Column("Manufacture", "manufacture", STR),
            Column("VIN", "vin", STR),
            *(Column(f"M{j}", "monthly_miles", FLOAT, Range("negative mileage", 0, reject=True))
              for j in range(1, N_MILEAGE_MONTHS + 1)),
        ), extras=False),
        SchemaDef("month", "MonthRow", (
            Column("MonthID", "month_id", INT),
            Column("StartDate", "start_date", DATE),
            Column("EndDate", "end_date", DATE),
            Column("NDays", "n_days", INT, Range("month length", 28)),
        ), _month_checks, _month_file_checks, extras=False),
        SchemaDef("module_error", "ModuleErrorRecord", (
            Column("ScenarioID", "scenario_id", INT),
            Column("Weather", "weather", STR),
            Column("WindowStart", "window", FLOAT),
            Column("WindowEnd", "window", FLOAT),
            Column("EI2DStart", "ei_time_2d", FLOAT),
            Column("EI2DEnd", "ei_time_2d", FLOAT),
            Column("EI2DProb", "ei_prob_2d", FLOAT, PROBABILITY),
            Column("EI3DStart", "ei_time_3d", FLOAT),
            Column("EI3DEnd", "ei_time_3d", FLOAT),
            Column("EI3DProb", "ei_prob_3d", FLOAT, PROBABILITY),
            Column("TimeStamp", "timestamp", FLOAT),
            Column("Error2D", "err_2d", FLAG),
            Column("Error3D", "err_3d", FLAG),
            Column("ErrorLoc", "err_loc", FLAG),
        ), _module_error_checks),
        SchemaDef("mixture", "MixtureRecord", (
            Column("x1", "x1", FLOAT),
            Column("x2", "x2", FLOAT),
            Column("x3", "x3", FLOAT),
            Column("z1", "z1", FLAG),
            Column("z2", "z2", FLAG),
            Column("c1", "c1", FLAG),
            Column("c2", "c2", FLAG),
            Column("c3", "c3", FLAG),
            Column("y1", "y1", FLOAT, Range("response range", 0, 1)),
            Column("y2", "y2", FLOAT),
        ), _mixture_checks),
        SchemaDef("adversarial", "AdversarialCountRecord", (
            Column("Scenario", "scenario", INT),
            Column("EpsilonRangeLow", "epsilon_range", FLOAT),
            Column("EpsilonRangeHigh", "epsilon_range", FLOAT),
            Column("T", "t", INT),
            Column("FC", "fc", INT, Range("count range", 0)),
            Column("Alpha", "alpha", FLOAT, Range("positive rate", 0, strict=True)),
            Column("F1", "f1", FLOAT, UNIT),
            Column("Epsilon", "epsilon", FLOAT, UNIT),
            Column("FGSM", "fgsm_pct", FLOAT, PERCENT),
            Column("PGD", "pgd_pct", FLOAT, PERCENT),
            Column("TrainingAccuracy", "train_acc", FLOAT),
            Column("TrainingLoss", "train_loss", FLOAT),
            Column("ValidationAccuracy", "val_acc", FLOAT),
            Column("ValidationLoss", "val_loss", FLOAT),
            Column("TestAccuracy", "test_acc", FLOAT),
            Column("TestLoss", "test_loss", FLOAT),
            Column("Memory", "memory", FLOAT, Range("memory range", 0)),
        ), _adversarial_checks, _adversarial_file_checks, options=("accuracy_scale",)),
        SchemaDef("incident", "IncidentRecord", (
            Column("IncidentNo", "incident_no", INT),
            Column("Company", "company", STR),
            Column("Sector", "sector", STR),
            Column("System", "system", STR),
            Column("Algorithm", "algorithm", STR),
            Column("Cause", "cause", STR),
            Column("IncidentDescription", "description", STR),
            Column("Casuality", "casuality", FLAG),
            Column("Injured", "injured", FLAG),
            Column("Comment", "comment", STR),
        ), None, _incident_file_checks),
    )
}

DisengagementRecord = SCHEMAS["disengagement"].record_type
CollisionRecord = SCHEMAS["collision"].record_type
MileageRow = SCHEMAS["mileage"].record_type
MonthRow = SCHEMAS["month"].record_type
ModuleErrorRecord = SCHEMAS["module_error"].record_type
MixtureRecord = SCHEMAS["mixture"].record_type
AdversarialCountRecord = SCHEMAS["adversarial"].record_type
IncidentRecord = SCHEMAS["incident"].record_type

#: each module of an error cascade and the module_error flag attribute its events set
MODULE_FLAGS = {"2d": "err_2d", "3d": "err_3d", "localization": "err_loc"}

#: the six dataset schemas; mileage and month are auxiliary tables
DATASET_SCHEMAS = ("incident", "mixture", "adversarial", "module_error",
                   "disengagement", "collision")
