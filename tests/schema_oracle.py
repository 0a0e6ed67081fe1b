"""The hand-written row parsers and formatters that the column specs replaced.

``datasets.schemas`` declares each CSV schema once as a column spec and
parses and formats every schema with one generic routine.  Before that,
each schema had its own ``_parse_*``/``_format_*`` pair, kept here
as the reference the generic code is tested against.  Two rules have
since changed on purpose, here as in the package: a NaN or an infinity
breaches the one-sided range rules (mileage, ``Alpha``, ``Memory``), and
a mixture ``proportion range`` breach is reported once per bad column.  The
oracle reads rows with ``csv.DictReader`` and writes them with
``csv.DictWriter``, as the package once did.  Its file checks are the package's
record-based file checks from before they read columns, verbatim; both
oracles run them.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math

from aireliab.datasets.exposure import MileageRow, MonthRow
from aireliab.datasets.schemas import (
    SCHEMAS,
    AdversarialCountRecord,
    CollisionRecord,
    DisengagementRecord,
    IncidentRecord,
    MixtureRecord,
    ModuleErrorRecord,
    Violation,
)

N_MILEAGE_MONTHS = 24


# ---------------------------------------------------------------------------
# field parsing helpers; each appends a Violation and returns None on failure


def _float(raw, row, col, out):
    try:
        return float(raw)
    except (TypeError, ValueError):
        out.append(Violation(row, col, "number format", f"not a number: {raw!r}"))
        return None


def _int(raw, row, col, out):
    try:
        return int(raw)
    except (TypeError, ValueError):
        out.append(Violation(row, col, "integer format", f"not an integer: {raw!r}"))
        return None


def _date(raw, row, col, out):
    try:
        return dt.date.fromisoformat(raw)
    except (TypeError, ValueError):
        out.append(Violation(row, col, "date format", f"not an ISO date: {raw!r}"))
        return None


def _binary(raw, row, col, out):
    if raw in ("0", "1"):
        return int(raw)
    out.append(Violation(row, col, "binary flag", f"expected 0 or 1, got {raw!r}"))
    return None


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _extras(raw: dict, columns) -> dict:
    known = set(columns)
    return {k: v for k, v in raw.items() if k not in known and k is not None}


def _month_window(month: str):
    """First and last date of a 'YYYY-MM' month string, or None."""
    try:
        start = dt.date.fromisoformat(month + "-01")
    except ValueError:
        return None
    if start.month == 12:
        nxt = dt.date(start.year + 1, 1, 1)
    else:
        nxt = dt.date(start.year, start.month + 1, 1)
    return start, nxt - dt.timedelta(days=1)


def _check_event_date(record, row, out):
    """Shared disengagement/collision row invariants."""
    if not 1 <= record.month_id <= N_MILEAGE_MONTHS:
        out.append(Violation(row, "MonthID", "month id range",
                             f"month id {record.month_id} outside 1..{N_MILEAGE_MONTHS}"))
    window = _month_window(record.month)
    if window is None:
        out.append(Violation(row, "Month", "month format", f"expected YYYY-MM, got {record.month!r}"))
    elif not window[0] <= record.date <= window[1]:
        out.append(Violation(row, "Date", "date month mismatch",
                             f"{record.date} not in month {record.month}"))


# ---------------------------------------------------------------------------
# file checks over (row, record) pairs


def _collision_file_checks(rows_records):
    """Within a manufacturer, event dates and ids must map one-to-one."""
    out = []
    date_to_id: dict = {}
    id_to_date: dict = {}
    for row, rec in rows_records:
        key_d = (rec.manufacture, rec.date)
        key_i = (rec.manufacture, rec.event_id)
        if key_d in date_to_id and date_to_id[key_d] != rec.event_id:
            out.append(Violation(row, "EventID", "event id mapping",
                                 f"date {rec.date} already has event id {date_to_id[key_d]}"))
        if key_i in id_to_date and id_to_date[key_i] != rec.date:
            out.append(Violation(row, "EventID", "event id mapping",
                                 f"event id {rec.event_id} already used on {id_to_date[key_i]}"))
        date_to_id.setdefault(key_d, rec.event_id)
        id_to_date.setdefault(key_i, rec.date)
    return out


def _month_file_checks(rows_records):
    out = []
    ids = [rec.month_id for _, rec in rows_records]
    if ids and ids != list(range(1, len(ids) + 1)):
        out.append(Violation(None, "MonthID", "month sequence",
                             "month ids must run 1..N consecutively"))
    for (_, prev), (row, rec) in zip(rows_records, rows_records[1:]):
        if rec.start_date != prev.end_date + dt.timedelta(days=1):
            out.append(Violation(row, "StartDate", "month contiguity",
                                 f"{rec.start_date} is not the day after {prev.end_date}"))
    return out


def _adversarial_file_checks(rows_records, accuracy_scale: str = "auto"):
    """Accuracies are proportions or percentages, declared once per file."""
    out = []
    acc_cols = ("train_acc", "val_acc", "test_acc")
    values = [(row, col, getattr(rec, col)) for row, rec in rows_records for col in acc_cols]
    if accuracy_scale == "auto":
        accuracy_scale = "percent" if any(v > 1.5 for *_rc, v in values) else "proportion"
    if accuracy_scale not in ("proportion", "percent"):
        raise ValueError("accuracy_scale must be 'auto', 'proportion', or 'percent'")
    hi = 1.0 if accuracy_scale == "proportion" else 100.0
    names = {col.attr: col.name for col in SCHEMAS["adversarial"].spec}
    for row, col, v in values:
        if not 0 <= v <= hi:
            out.append(Violation(row, names[col], "accuracy range",
                                 f"{v} outside [0, {hi:g}] ({accuracy_scale} scale)"))
    return out


def _incident_file_checks(rows_records):
    out = []
    seen = {}
    for row, rec in rows_records:
        if rec.incident_no in seen:
            out.append(Violation(row, "IncidentNo", "duplicate incident number",
                                 f"incident {rec.incident_no} already at row {seen[rec.incident_no]}"))
        else:
            seen[rec.incident_no] = row
    return out


FILE_CHECKS = {
    "collision": _collision_file_checks,
    "month": _month_file_checks,
    "adversarial": _adversarial_file_checks,
    "incident": _incident_file_checks,
}


# ---------------------------------------------------------------------------
# per-schema parse / format


def _parse_disengagement(row, raw, out):
    date = _date(raw.get("Date"), row, "Date", out)
    month_id = _int(raw.get("MonthID"), row, "MonthID", out)
    if date is None or month_id is None:
        return None
    rec = DisengagementRecord(
        manufacture=raw.get("Manufacture", ""),
        vin=raw.get("VIN", ""),
        date=date,
        month=raw.get("Month", ""),
        month_id=month_id,
        extras=_extras(raw, DISENGAGEMENT_COLUMNS),
    )
    _check_event_date(rec, row, out)
    return rec


def _format_disengagement(rec):
    return {
        "Manufacture": rec.manufacture,
        "VIN": rec.vin,
        "Date": rec.date.isoformat(),
        "Month": rec.month,
        "MonthID": str(rec.month_id),
        **rec.extras,
    }


def _parse_collision(row, raw, out):
    date = _date(raw.get("Date"), row, "Date", out)
    month_id = _int(raw.get("MonthID"), row, "MonthID", out)
    event_id = _int(raw.get("EventID"), row, "EventID", out)
    if None in (date, month_id, event_id):
        return None
    if event_id < 1:
        out.append(Violation(row, "EventID", "event id range", "event id must be >= 1"))
    vin = raw.get("VIN", "") or None
    rec = CollisionRecord(
        manufacture=raw.get("Manufacture", ""),
        vin=vin,
        date=date,
        month=raw.get("Month", ""),
        month_id=month_id,
        event_id=event_id,
        extras=_extras(raw, COLLISION_COLUMNS),
    )
    _check_event_date(rec, row, out)
    return rec


def _format_collision(rec):
    return {
        "Manufacture": rec.manufacture,
        "VIN": rec.vin or "",
        "Date": rec.date.isoformat(),
        "Month": rec.month,
        "MonthID": str(rec.month_id),
        "EventID": str(rec.event_id),
        **rec.extras,
    }


def _parse_mileage(row, raw, out):
    miles = []
    ok = True
    for j in range(1, N_MILEAGE_MONTHS + 1):
        val = _float(raw.get(f"M{j}"), row, f"M{j}", out)
        if val is None:
            ok = False
            continue
        if not 0 <= val < math.inf:
            out.append(Violation(row, f"M{j}", "negative mileage", f"{val} < 0"))
            ok = False
        miles.append(val)
    if not ok:
        return None
    return MileageRow(
        manufacture=raw.get("Manufacture", ""),
        vin=raw.get("VIN", ""),
        monthly_miles=tuple(miles),
    )


def _format_mileage(rec):
    out = {"Manufacture": rec.manufacture, "VIN": rec.vin}
    for j, v in enumerate(rec.monthly_miles, start=1):
        out[f"M{j}"] = _fmt(v)
    return out


def _parse_month(row, raw, out):
    month_id = _int(raw.get("MonthID"), row, "MonthID", out)
    start = _date(raw.get("StartDate"), row, "StartDate", out)
    end = _date(raw.get("EndDate"), row, "EndDate", out)
    n_days = _int(raw.get("NDays"), row, "NDays", out)
    if None in (month_id, start, end, n_days):
        return None
    if n_days < 28:
        out.append(Violation(row, "NDays", "month length", f"{n_days} < 28"))
    if (end - start).days + 1 != n_days:
        out.append(Violation(row, "NDays", "day count",
                             f"{start}..{end} spans {(end - start).days + 1} days, not {n_days}"))
    return MonthRow(month_id=month_id, start_date=start, end_date=end, n_days=n_days)


def _format_month(rec):
    return {
        "MonthID": str(rec.month_id),
        "StartDate": rec.start_date.isoformat(),
        "EndDate": rec.end_date.isoformat(),
        "NDays": str(rec.n_days),
    }


def _parse_module_error(row, raw, out):
    vals = {}
    for col in ("WindowStart", "WindowEnd", "EI2DStart", "EI2DEnd", "EI2DProb",
                "EI3DStart", "EI3DEnd", "EI3DProb", "TimeStamp"):
        vals[col] = _float(raw.get(col), row, col, out)
    scenario = _int(raw.get("ScenarioID"), row, "ScenarioID", out)
    flags = {}
    for col in ("Error2D", "Error3D", "ErrorLoc"):
        flags[col] = _binary(raw.get(col), row, col, out)
    if scenario is None or None in vals.values() or None in flags.values():
        return None
    window = (vals["WindowStart"], vals["WindowEnd"])
    if not window[0] < window[1]:
        out.append(Violation(row, "WindowEnd", "window order", "window end must exceed start"))
        return None
    for prefix in ("EI2D", "EI3D"):
        lo, hi = vals[f"{prefix}Start"], vals[f"{prefix}End"]
        if not window[0] <= lo < hi <= window[1]:
            out.append(Violation(row, f"{prefix}Start", "injection window",
                                 f"[{lo}, {hi}) not inside window {window}"))
        prob = vals[f"{prefix}Prob"]
        if not 0 <= prob <= 1:
            out.append(Violation(row, f"{prefix}Prob", "probability range", f"{prob} outside [0, 1]"))
    if not window[0] <= vals["TimeStamp"] <= window[1]:
        out.append(Violation(row, "TimeStamp", "timestamp window",
                             f"{vals['TimeStamp']} outside window {window}"))
    return ModuleErrorRecord(
        scenario_id=scenario,
        weather=raw.get("Weather", ""),
        window=window,
        ei_time_2d=(vals["EI2DStart"], vals["EI2DEnd"]),
        ei_prob_2d=vals["EI2DProb"],
        ei_time_3d=(vals["EI3DStart"], vals["EI3DEnd"]),
        ei_prob_3d=vals["EI3DProb"],
        timestamp=vals["TimeStamp"],
        err_2d=flags["Error2D"],
        err_3d=flags["Error3D"],
        err_loc=flags["ErrorLoc"],
        extras=_extras(raw, MODULE_ERROR_COLUMNS),
    )


def _format_module_error(rec):
    return {
        "ScenarioID": str(rec.scenario_id),
        "Weather": rec.weather,
        "WindowStart": _fmt(rec.window[0]),
        "WindowEnd": _fmt(rec.window[1]),
        "EI2DStart": _fmt(rec.ei_time_2d[0]),
        "EI2DEnd": _fmt(rec.ei_time_2d[1]),
        "EI2DProb": _fmt(rec.ei_prob_2d),
        "EI3DStart": _fmt(rec.ei_time_3d[0]),
        "EI3DEnd": _fmt(rec.ei_time_3d[1]),
        "EI3DProb": _fmt(rec.ei_prob_3d),
        "TimeStamp": _fmt(rec.timestamp),
        "Error2D": str(rec.err_2d),
        "Error3D": str(rec.err_3d),
        "ErrorLoc": str(rec.err_loc),
        **rec.extras,
    }


SIMPLEX_TOL = 1e-9


def _parse_mixture(row, raw, out):
    xs = [_float(raw.get(c), row, c, out) for c in ("x1", "x2", "x3")]
    ys = [_float(raw.get(c), row, c, out) for c in ("y1", "y2")]
    flags = [_binary(raw.get(c), row, c, out) for c in ("z1", "z2", "c1", "c2", "c3")]
    if None in xs or None in ys or None in flags:
        return None
    for col, x in zip(("x1", "x2", "x3"), xs):
        if not 0 <= x <= 1:
            out.append(Violation(row, col, "proportion range",
                                 "class proportions must lie in [0, 1]"))
    if abs(sum(xs) - 1.0) > SIMPLEX_TOL:
        out.append(Violation(row, "x1", "simplex sum",
                             f"x1 + x2 + x3 = {sum(xs)!r}, expected 1"))
    if flags[2] + flags[3] + flags[4] != 1:
        out.append(Violation(row, "c1", "scenario one-hot",
                             "exactly one of c1, c2, c3 must equal 1"))
    if not 0 <= ys[0] <= 1:
        out.append(Violation(row, "y1", "response range", "mean AUC must lie in [0, 1]"))
    return MixtureRecord(
        x1=xs[0], x2=xs[1], x3=xs[2],
        z1=flags[0], z2=flags[1], c1=flags[2], c2=flags[3], c3=flags[4],
        y1=ys[0], y2=ys[1],
        extras=_extras(raw, MIXTURE_COLUMNS),
    )


def _format_mixture(rec):
    return {
        "x1": _fmt(rec.x1), "x2": _fmt(rec.x2), "x3": _fmt(rec.x3),
        "z1": str(rec.z1), "z2": str(rec.z2),
        "c1": str(rec.c1), "c2": str(rec.c2), "c3": str(rec.c3),
        "y1": _fmt(rec.y1), "y2": _fmt(rec.y2),
        **rec.extras,
    }


ATTACK_MIX_TOL = 1e-6


def _parse_adversarial(row, raw, out):
    ints = {c: _int(raw.get(c), row, c, out) for c in ("Scenario", "T", "FC")}
    floats = {}
    for c in ("EpsilonRangeLow", "EpsilonRangeHigh", "Alpha", "F1", "Epsilon",
              "FGSM", "PGD", "TrainingAccuracy", "TrainingLoss",
              "ValidationAccuracy", "ValidationLoss", "TestAccuracy",
              "TestLoss", "Memory"):
        floats[c] = _float(raw.get(c), row, c, out)
    if None in ints.values() or None in floats.values():
        return None
    if ints["FC"] < 0:
        out.append(Violation(row, "FC", "count range", "failure count must be >= 0"))
    if not 0 < floats["Alpha"] < math.inf:
        out.append(Violation(row, "Alpha", "positive rate", "learning rate must be positive"))
    lo, hi = floats["EpsilonRangeLow"], floats["EpsilonRangeHigh"]
    if not (0 <= lo <= hi <= 1):
        out.append(Violation(row, "EpsilonRangeLow", "epsilon range",
                             f"[{lo}, {hi}] is not an interval inside [0, 1]"))
    for c in ("F1", "Epsilon"):
        if not 0 <= floats[c] <= 1:
            out.append(Violation(row, c, "unit range", f"{floats[c]} outside [0, 1]"))
    for c in ("FGSM", "PGD"):
        if not 0 <= floats[c] <= 100:
            out.append(Violation(row, c, "percent range", f"{floats[c]} outside [0, 100]"))
    if abs(floats["FGSM"] + floats["PGD"] - 100.0) > ATTACK_MIX_TOL:
        out.append(Violation(row, "FGSM", "attack mix sum",
                             f"FGSM + PGD = {floats['FGSM'] + floats['PGD']!r}, expected 100"))
    if not 0 <= floats["Memory"] < math.inf:
        out.append(Violation(row, "Memory", "memory range", "memory must be >= 0"))
    return AdversarialCountRecord(
        scenario=ints["Scenario"],
        epsilon_range=(lo, hi),
        t=ints["T"],
        fc=ints["FC"],
        alpha=floats["Alpha"],
        f1=floats["F1"],
        epsilon=floats["Epsilon"],
        fgsm_pct=floats["FGSM"],
        pgd_pct=floats["PGD"],
        train_acc=floats["TrainingAccuracy"],
        train_loss=floats["TrainingLoss"],
        val_acc=floats["ValidationAccuracy"],
        val_loss=floats["ValidationLoss"],
        test_acc=floats["TestAccuracy"],
        test_loss=floats["TestLoss"],
        memory=floats["Memory"],
        extras=_extras(raw, ADVERSARIAL_COLUMNS),
    )


def _format_adversarial(rec):
    return {
        "Scenario": str(rec.scenario),
        "EpsilonRangeLow": _fmt(rec.epsilon_range[0]),
        "EpsilonRangeHigh": _fmt(rec.epsilon_range[1]),
        "T": str(rec.t),
        "FC": str(rec.fc),
        "Alpha": _fmt(rec.alpha),
        "F1": _fmt(rec.f1),
        "Epsilon": _fmt(rec.epsilon),
        "FGSM": _fmt(rec.fgsm_pct),
        "PGD": _fmt(rec.pgd_pct),
        "TrainingAccuracy": _fmt(rec.train_acc),
        "TrainingLoss": _fmt(rec.train_loss),
        "ValidationAccuracy": _fmt(rec.val_acc),
        "ValidationLoss": _fmt(rec.val_loss),
        "TestAccuracy": _fmt(rec.test_acc),
        "TestLoss": _fmt(rec.test_loss),
        "Memory": _fmt(rec.memory),
        **rec.extras,
    }


def _parse_incident(row, raw, out):
    no = _int(raw.get("IncidentNo"), row, "IncidentNo", out)
    cas = _binary(raw.get("Casuality"), row, "Casuality", out)
    inj = _binary(raw.get("Injured"), row, "Injured", out)
    if None in (no, cas, inj):
        return None
    return IncidentRecord(
        incident_no=no,
        company=raw.get("Company", ""),
        sector=raw.get("Sector", ""),
        system=raw.get("System", ""),
        algorithm=raw.get("Algorithm", ""),
        cause=raw.get("Cause", ""),
        description=raw.get("IncidentDescription", ""),
        casuality=cas,
        injured=inj,
        comment=raw.get("Comment", ""),
        extras=_extras(raw, INCIDENT_COLUMNS),
    )


def _format_incident(rec):
    return {
        "IncidentNo": str(rec.incident_no),
        "Company": rec.company,
        "Sector": rec.sector,
        "System": rec.system,
        "Algorithm": rec.algorithm,
        "Cause": rec.cause,
        "IncidentDescription": rec.description,
        "Casuality": str(rec.casuality),
        "Injured": str(rec.injured),
        "Comment": rec.comment,
        **rec.extras,
    }


DISENGAGEMENT_COLUMNS = ("Manufacture", "VIN", "Date", "Month", "MonthID")
COLLISION_COLUMNS = ("Manufacture", "VIN", "Date", "Month", "MonthID", "EventID")
MILEAGE_COLUMNS = ("Manufacture", "VIN") + tuple(f"M{j}" for j in range(1, N_MILEAGE_MONTHS + 1))
MONTH_COLUMNS = ("MonthID", "StartDate", "EndDate", "NDays")
MODULE_ERROR_COLUMNS = (
    "ScenarioID", "Weather", "WindowStart", "WindowEnd",
    "EI2DStart", "EI2DEnd", "EI2DProb", "EI3DStart", "EI3DEnd", "EI3DProb",
    "TimeStamp", "Error2D", "Error3D", "ErrorLoc",
)
MIXTURE_COLUMNS = ("x1", "x2", "x3", "z1", "z2", "c1", "c2", "c3", "y1", "y2")
ADVERSARIAL_COLUMNS = (
    "Scenario", "EpsilonRangeLow", "EpsilonRangeHigh", "T", "FC", "Alpha", "F1",
    "Epsilon", "FGSM", "PGD", "TrainingAccuracy", "TrainingLoss",
    "ValidationAccuracy", "ValidationLoss", "TestAccuracy", "TestLoss", "Memory",
)
INCIDENT_COLUMNS = (
    "IncidentNo", "Company", "Sector", "System", "Algorithm", "Cause",
    "IncidentDescription", "Casuality", "Injured", "Comment",
)


PARSERS = {
    "disengagement": _parse_disengagement,
    "collision": _parse_collision,
    "mileage": _parse_mileage,
    "month": _parse_month,
    "module_error": _parse_module_error,
    "mixture": _parse_mixture,
    "adversarial": _parse_adversarial,
    "incident": _parse_incident,
}

FORMATTERS = {
    "disengagement": _format_disengagement,
    "collision": _format_collision,
    "mileage": _format_mileage,
    "month": _format_month,
    "module_error": _format_module_error,
    "mixture": _format_mixture,
    "adversarial": _format_adversarial,
    "incident": _format_incident,
}

COLUMNS = {
    "disengagement": DISENGAGEMENT_COLUMNS,
    "collision": COLLISION_COLUMNS,
    "mileage": MILEAGE_COLUMNS,
    "month": MONTH_COLUMNS,
    "module_error": MODULE_ERROR_COLUMNS,
    "mixture": MIXTURE_COLUMNS,
    "adversarial": ADVERSARIAL_COLUMNS,
    "incident": INCIDENT_COLUMNS,
}


def parse_records(source, schema_name, **options):
    """(records, violations) of a CSV text stream, as the package parsed it."""
    violations = []
    rows_records = []
    for row_no, raw in enumerate(csv.DictReader(source), start=1):
        record = PARSERS[schema_name](row_no, raw, violations)
        if record is not None:
            rows_records.append((row_no, record))
    if schema_name in FILE_CHECKS:
        violations.extend(FILE_CHECKS[schema_name](rows_records, **options))
    return [rec for _, rec in rows_records], violations


def dumps(records, schema_name) -> str:
    """CSV text of ``records``, as the package wrote it."""
    extra_cols = []
    for rec in records:
        for key in getattr(rec, "extras", {}):
            if key not in extra_cols:
                extra_cols.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(COLUMNS[schema_name]) + extra_cols)
    writer.writeheader()
    for rec in records:
        writer.writerow(FORMATTERS[schema_name](rec))
    return buf.getvalue()
