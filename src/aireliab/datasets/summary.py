"""Deterministic tabulations of loaded datasets.

Summaries are plain dicts with sorted, reproducible tallies.  Incident
summaries include term-frequency tables over the algorithm and cause
text fields, ranked by count and then alphabetically.
"""

from __future__ import annotations

import re
from collections import Counter

from .schemas import MODULE_FLAGS

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
    """Row counts, per-category tallies, and date ranges for one dataset."""
    records = list(records)
    out = {"schema": schema_name, "rows": len(records)}
    if schema_name == "disengagement":
        out["by_manufacture"] = _tally(r.manufacture for r in records)
        out["by_month"] = _tally(r.month for r in records)
        out["n_vehicles"] = len({(r.manufacture, r.vin) for r in records})
        out["date_range"] = _date_range(r.date for r in records)
    elif schema_name == "collision":
        out["by_manufacture"] = _tally(r.manufacture for r in records)
        out["by_month"] = _tally(r.month for r in records)
        out["n_event_dates"] = len({(r.manufacture, r.date) for r in records})
        out["date_range"] = _date_range(r.date for r in records)
    elif schema_name == "mileage":
        out["by_manufacture"] = _tally(r.manufacture for r in records)
        out["n_vehicles"] = len({(r.manufacture, r.vin) for r in records})
        out["total_thousand_miles"] = float(
            sum(sum(r.monthly_miles) for r in records)
        )
    elif schema_name == "month":
        out["total_days"] = int(sum(r.n_days for r in records))
        out["period"] = (
            [records[0].start_date.isoformat(), records[-1].end_date.isoformat()]
            if records else None
        )
    elif schema_name == "module_error":
        out["by_scenario"] = _tally(r.scenario_id for r in records)
        out["by_weather"] = _tally(r.weather for r in records)
        out["events_by_module"] = {
            module: int(sum(getattr(r, attr) for r in records))
            for module, attr in MODULE_FLAGS.items()
        }
    elif schema_name == "mixture":
        out["by_scenario"] = {
            "c1": int(sum(r.c1 for r in records)),
            "c2": int(sum(r.c2 for r in records)),
            "c3": int(sum(r.c3 for r in records)),
        }
        out["by_algorithm_flag"] = _tally(r.z1 for r in records)
        if records:
            out["mean_y1"] = float(sum(r.y1 for r in records) / len(records))
            out["mean_y2"] = float(sum(r.y2 for r in records) / len(records))
    elif schema_name == "adversarial":
        out["by_scenario"] = _tally(r.scenario for r in records)
        out["total_failures"] = int(sum(r.fc for r in records))
    elif schema_name == "incident":
        out["by_cause"] = _tally(r.cause for r in records)
        out["by_sector"] = _tally(r.sector for r in records)
        out["casuality_count"] = int(sum(r.casuality for r in records))
        out["injured_count"] = int(sum(r.injured for r in records))
        out["algorithm_terms"] = term_frequency((r.algorithm for r in records), top=25)
        out["cause_terms"] = term_frequency((r.cause for r in records), top=25)
    else:
        raise ValueError(f"no summarizer for schema {schema_name!r}")
    return out
