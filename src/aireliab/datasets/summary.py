"""Deterministic tabulations of loaded datasets.

Summaries are plain dicts with sorted, reproducible tallies.  Incident
summaries include term-frequency tables over the algorithm and cause
text fields, ranked by count and then alphabetically.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from .schemas import MODULE_FLAGS
from .table import RecordTable, column

_TOKEN = re.compile(r"[a-z]+")
_STOPWORDS = {
    "the", "and", "for", "with", "that", "from", "this", "was", "were",
    "are", "has", "have", "had", "not", "its", "into", "after", "during",
}


def term_frequency(texts, top: int | None = None) -> dict[str, int]:
    """Lowercase word counts over text fields, short and stop words dropped."""
    counter: Counter = Counter()
    for text in texts:
        for token in _TOKEN.findall(text.lower()):
            if len(token) >= 3 and token not in _STOPWORDS:
                counter[token] += 1
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    if top is not None:
        ranked = ranked[:top]
    return dict(ranked)


def _tally(values) -> dict:
    return dict(sorted(Counter(values).items(), key=lambda kv: str(kv[0])))


def _date_range(dates):
    dates = list(dates)
    if not dates:
        return None
    return [min(dates).isoformat(), max(dates).isoformat()]


def summarize(records, schema_name: str) -> dict:
    """Row counts, per-category tallies, and date ranges for one dataset,
    read column by column from a table or a list of records."""
    records = records if isinstance(records, RecordTable) else list(records)

    def col(attr):  # Python values, so that sums add as Python floats do
        values = column(records, attr)
        return values.tolist() if isinstance(values, np.ndarray) else values

    out = {"schema": schema_name, "rows": len(records)}
    if schema_name == "disengagement":
        out["by_manufacture"] = _tally(col("manufacture"))
        out["by_month"] = _tally(col("month"))
        out["n_vehicles"] = len(set(zip(col("manufacture"), col("vin"))))
        out["date_range"] = _date_range(col("date"))
    elif schema_name == "collision":
        out["by_manufacture"] = _tally(col("manufacture"))
        out["by_month"] = _tally(col("month"))
        out["n_event_dates"] = len(set(zip(col("manufacture"), col("date"))))
        out["date_range"] = _date_range(col("date"))
    elif schema_name == "mileage":
        out["by_manufacture"] = _tally(col("manufacture"))
        out["n_vehicles"] = len(set(zip(col("manufacture"), col("vin"))))
        out["total_thousand_miles"] = float(sum(sum(m) for m in col("monthly_miles")))
    elif schema_name == "month":
        out["total_days"] = int(sum(col("n_days")))
        out["period"] = (
            [col("start_date")[0].isoformat(), col("end_date")[-1].isoformat()]
            if records else None
        )
    elif schema_name == "module_error":
        out["by_scenario"] = _tally(col("scenario_id"))
        out["by_weather"] = _tally(col("weather"))
        out["events_by_module"] = {
            module: int(sum(col(attr))) for module, attr in MODULE_FLAGS.items()
        }
    elif schema_name == "mixture":
        out["by_scenario"] = {c: int(sum(col(c))) for c in ("c1", "c2", "c3")}
        out["by_algorithm_flag"] = _tally(col("z1"))
        if records:
            out["mean_y1"] = float(sum(col("y1")) / len(records))
            out["mean_y2"] = float(sum(col("y2")) / len(records))
    elif schema_name == "adversarial":
        out["by_scenario"] = _tally(col("scenario"))
        out["total_failures"] = int(sum(col("fc")))
    elif schema_name == "incident":
        out["by_cause"] = _tally(col("cause"))
        out["by_sector"] = _tally(col("sector"))
        out["casuality_count"] = int(sum(col("casuality")))
        out["injured_count"] = int(sum(col("injured")))
        out["algorithm_terms"] = term_frequency(col("algorithm"), top=25)
        out["cause_terms"] = term_frequency(col("cause"), top=25)
    else:
        raise ValueError(f"no summarizer for schema {schema_name!r}")
    return out
