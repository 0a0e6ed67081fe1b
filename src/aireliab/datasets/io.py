"""CSV loading, validation reports, and serialization for all schemas.

``parse_records`` and ``load`` return a ``RecordTable``: one column per
record attribute, read as the list of typed records it holds.  The DMV
readers (``derive_exposure``, ``summarize``, ``simulate``'s
``event_series_from_disengagements`` and ``collision_times``) and ``air
fit-recurrent`` read its columns and take a plain record list as well.
A header must hold every schema column and name no column twice.

The rows are read and converted ``BLOCK_LINES`` lines at a time, so the
cells held at once are bounded.  A block is split on commas directly when
no line holds a ``"``, no ``\\r`` appears but in a ``\\r\\n`` line ending
and no line reaches ``csv.field_size_limit()``; from the first block that
does not, that block and the rest of the file go to ``csv.reader``.
``dump`` writes a table or a record list column by column.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .schemas import SCHEMAS, Violation
from .table import RecordTable, column, parse_table

#: the lines read, split and converted at a time
BLOCK_LINES = 1024


class SchemaError(ValueError):
    """Unknown schema name or a header that cannot be interpreted."""


class SchemaViolationError(ValueError):
    """Raised by ``load`` when a file breaks schema invariants."""

    def __init__(self, report):
        self.report = report
        first = report.violations[0]
        super().__init__(
            f"{report.schema}: {len(report.violations)} violation(s), "
            f"first at row {first.row} column {first.column}: {first.rule}: {first.detail}"
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


def _blocks(handle):
    """Per block of ``handle``, the cells of its non-blank rows as ``csv.reader``
    reads them, in file order, and each such row's cell count."""
    limit = csv.field_size_limit()
    while lines := list(islice(handle, BLOCK_LINES)):
        text = "".join(lines)
        if '"' in text or text.count("\r") != text.count("\r\n") or max(map(len, lines)) >= limit:
            reader = csv.reader(chain(lines, handle))
            while block := list(islice(reader, BLOCK_LINES)):
                rows = [row for row in block if row]
                yield list(chain.from_iterable(rows)), list(map(len, rows))
            return
        rows = [row for row in text.replace("\r\n", "\n").split("\n") if row]  # not blank
        del lines, text  # a block's rows, cells and counts are all it holds from here
        yield ",".join(rows).split(",") if rows else [], [row.count(",") + 1 for row in rows]


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
    header = next(csv.reader(source), None)
    if header is None:
        raise SchemaError("file has no header row")
    missing = [c for c in schema.columns if c not in header]
    if missing:
        raise SchemaError(f"malformed header: missing column(s) {missing}")
    twice = [name for name, count in Counter(header).items() if count > 1]
    if twice:
        raise SchemaError(f"duplicate column(s) {twice}")
    table, violations, n_rows = parse_table(schema, header, _blocks(source), **options)
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
    """Write a table or a list of records as CSV, column by column; the
    inverse of ``load`` for clean files."""
    schema = _schema(schema_name)
    if not isinstance(records, RecordTable):
        records = list(records)
        extras = list(dict.fromkeys(key for rec in records for key in getattr(rec, "extras", ())))
        extras = {key: [rec.extras.get(key, "") for rec in records] for key in extras}
    else:  # as in its record list, a table without rows has no extra columns
        extras = records.extras if records.extras and len(records) else {}
    cells = [None] * len(schema.spec)
    for attr, js in schema._slots().items():
        values = column(records, attr)
        values = values.tolist() if isinstance(values, np.ndarray) else values
        # a tuple of the wrong length raises, not a misaligned row
        parts = [values] if len(js) == 1 else list(zip(*values, strict=True)) or [()] * len(js)
        for j, part in zip(js, parts, strict=True):
            fmt = schema.spec[j].cell.format
            if not schema.spec[j].cell.array:  # once per distinct value
                fmt = {value: fmt(value) for value in set(part)}.__getitem__
            cells[j] = map(fmt, part)

    def write(handle):
        writer = csv.writer(handle)
        writer.writerow(schema.columns + tuple(extras))
        writer.writerows(zip(*cells, *extras.values()))

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
