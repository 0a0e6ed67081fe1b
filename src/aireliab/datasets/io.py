"""CSV loading, validation reports, and serialization for all schemas."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from .schemas import SCHEMAS, Violation


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
    """Parse ``source`` fully; returns (records, report).

    ``records`` contains one typed record per row that parsed, in file
    order; rows that fail to parse are reported but skipped.  File-level
    invariants run over the parsed rows.
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
    parse_row = schema.row_parser(header)
    violations: list[Violation] = []
    rows_records = []
    n_rows = 0
    for cells in reader:
        if not cells:  # a blank line holds no row
            continue
        n_rows += 1
        record = parse_row(n_rows, cells, violations)
        if record is not None:
            rows_records.append((n_rows, record))
    if schema.file_checks is not None:
        violations.extend(schema.file_checks(rows_records, **options))
    report = ValidationReport(schema_name, n_rows, tuple(violations))
    return [record for _, record in rows_records], report


def validate(source, schema_name: str, **options) -> ValidationReport:
    """Validation report for a CSV file against one registered schema."""
    _, report = parse_records(source, schema_name, **options)
    return report


def load(source, schema_name: str, **options):
    """Typed records from a CSV file; raises if any invariant is violated."""
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
