"""CSV loading, validation reports, and serialization for all schemas.

``parse_records`` and ``load`` return a ``RecordTable``: one column per
record attribute, read as the list of typed records it holds.  The DMV
readers (``derive_exposure``, ``summarize``, ``simulate``'s
``event_series_from_disengagements`` and ``collision_times``) and ``air
fit-recurrent`` read its columns and take a plain record list as well.
A header must hold every schema column and name no column twice.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .schemas import SCHEMAS, Violation
from .table import parse_table


class SchemaError(ValueError):
    """Unknown schema name or a header that cannot be interpreted."""


class SchemaViolationError(ValueError):
    """Raised by ``load`` when a file breaks schema invariants."""

    def __init__(self, report):
        self.report = report
        first = report.violations[0]
        super().__init__(
            f"{report.schema}: {len(report.violations)} violation(s), "
            f"first at row {first.row} column {first.column}: {first.rule}"
        )


@dataclass(frozen=True)
class ValidationReport:
    schema: str
    rows: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {
            "schema": self.schema,
            "rows": self.rows,
            "violations": [v.to_dict() for v in self.violations],
        }


def _schema(name: str):
    try:
        return SCHEMAS[name]
    except KeyError:
        raise SchemaError(
            f"unknown schema {name!r}; registered schemas: {sorted(SCHEMAS)}"
        ) from None


def parse_records(source, schema_name: str, **options):
    """Parse ``source`` fully; returns (table, report).

    ``table`` is a ``RecordTable``: one column per record attribute of the
    rows that parsed, in file order, read as the list of their typed
    records.  Rows that fail to parse are reported but skipped.  A header
    that lacks a schema column or names any column twice is a
    ``SchemaError``.  File-level invariants run over the parsed rows.
    """
    schema = _schema(schema_name)
    bad = [k for k in options if k not in schema.options]
    if bad:
        raise TypeError(f"schema {schema_name!r} takes no option {bad[0]!r}")
    if not hasattr(source, "read"):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return parse_records(handle, schema_name, **options)
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise SchemaError("file has no header row")
    missing = [c for c in schema.columns if c not in header]
    if missing:
        raise SchemaError(f"malformed header: missing column(s) {missing}")
    twice = [name for name, count in Counter(header).items() if count > 1]
    if twice:
        raise SchemaError(f"duplicate column(s) {twice}")
    table, violations, n_rows = parse_table(schema, header, reader, **options)
    return table, ValidationReport(schema_name, n_rows, tuple(violations))


def validate(source, schema_name: str, **options) -> ValidationReport:
    """Validation report for a CSV file against one registered schema."""
    _, report = parse_records(source, schema_name, **options)
    return report


def load(source, schema_name: str, **options):
    """The table of typed records of a CSV file; raises if any invariant is
    violated."""
    records, report = parse_records(source, schema_name, **options)
    if not report.ok:
        raise SchemaViolationError(report)
    return records


def dump(records, schema_name: str, target) -> None:
    """Write records as CSV; the inverse of ``load`` for clean files."""
    schema = _schema(schema_name)
    records = list(records)
    extra_cols: list[str] = []
    for rec in records:
        for key in getattr(rec, "extras", {}):
            if key not in extra_cols:
                extra_cols.append(key)
    format_row = schema.row_formatter(extra_cols)

    def write(handle):
        writer = csv.writer(handle)
        writer.writerow(schema.columns + tuple(extra_cols))
        writer.writerows(map(format_row, records))

    if hasattr(target, "write"):
        write(target)
    else:
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="") as handle:
            write(handle)


def dumps(records, schema_name: str) -> str:
    buf = io.StringIO()
    dump(records, schema_name, buf)
    return buf.getvalue()
