import datetime as dt
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from aireliab import datasets

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"

# one profile for every property test: a fixed example sequence, so a
# run repeats exactly, and no example database between runs
settings.register_profile("property", max_examples=150, deadline=None, derandomize=True,
                          database=None, suppress_health_check=[HealthCheck.too_slow])
PROPERTY = settings.get_profile("property")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    assert DATA_DIR.is_dir(), "bundled sample data missing; run demos/build_sample_data.py"
    return DATA_DIR


@pytest.fixture(scope="session")
def month_table(data_dir) -> datasets.MonthTable:
    return datasets.MonthTable(
        datasets.load(data_dir / "disengagements" / "months.csv", "month")
    )


def build_months(start=dt.date(2017, 12, 1), n=24):
    """Consecutive calendar months starting at ``start``."""
    rows = []
    year, month = start.year, start.month
    for month_id in range(1, n + 1):
        first = dt.date(year, month, 1)
        if month == 12:
            year, month = year + 1, 1
        else:
            month += 1
        last = dt.date(year, month, 1) - dt.timedelta(days=1)
        rows.append(datasets.MonthRow(month_id, first, last, (last - first).days + 1))
    return rows


def unit_exposures(n, tau, rate=1.0):
    return [datasets.constant_exposure(rate, tau, f"u{i}") for i in range(n)]
