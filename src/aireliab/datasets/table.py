"""Parsed rows of one schema held column by column, read as their record list.

``parse_table`` converts a file one spec column at a time with the
column's own ``Cell.parse`` (once per distinct cell where cells repeat),
applies range rules per column and the row check once per distinct
combination of what it reads.  Only flagged rows go through
``_report_row``, the rules row by row, which words every violation.
``column`` and ``select`` read a table or a plain list of records alike.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .schemas import Violation

#: the value of a malformed cell in a memoised column
_FAILED = object()


class RecordTable(Sequence):
    """One schema's rows as one column per record attribute: a float array
    ((n, k) where k columns share the attribute) for ``array`` cells, else a
    list of Python values.  It reads as its list of records, each built by
    position when asked for and holding Python scalars."""

    def __init__(self, schema, columns: dict, extras: dict | None):
        self.schema = schema
        self.columns = columns  # record attribute -> column, in field order
        self.extras = extras  # extra header name -> its cells; None without extras

    def __len__(self):
        return len(next(iter(self.columns.values())))

    def take(self, positions) -> RecordTable:
        """The table of the rows at ``positions``, in that order."""
        positions = list(positions)

        def pick(col):
            return col[positions] if isinstance(col, np.ndarray) else [col[i] for i in positions]

        return RecordTable(self.schema, {a: pick(c) for a, c in self.columns.items()},
                           None if self.extras is None else
                           {name: pick(c) for name, c in self.extras.items()})

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(range(len(self))[i])
        return next(iter(self.take([range(len(self))[i]])))

    def __iter__(self):
        values = [col if not isinstance(col, np.ndarray) else col.tolist() if col.ndim == 1
                  else list(map(tuple, col.tolist())) for col in self.columns.values()]
        if self.extras is not None:
            names = list(self.extras)
            cells = zip(*self.extras.values()) if names else repeat((), len(self))
            values.append([dict(zip(names, row)) for row in cells])
        return map(self.schema.record_type, *values)

    def __eq__(self, other):
        if isinstance(other, (list, RecordTable)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return repr(list(self))


def column(rows, attr: str):
    """The values of record attribute ``attr`` over ``rows``: a table's own
    column, or a list of one value per record."""
    if isinstance(rows, RecordTable):
        return rows.columns[attr]
    return [getattr(r, attr) for r in rows]


def select(rows, attr: str, value):
    """The rows whose ``attr`` equals ``value``, in order: a table from a
    table (``rows`` itself when every row matches), else a list."""
    if not isinstance(rows, RecordTable):
        return [r for r in rows if getattr(r, attr) == value]
    keep = [i for i, v in enumerate(rows.columns[attr]) if v == value]
    return rows if len(keep) == len(rows) else rows.take(keep)


def _parse_column(col, cells):
    """One spec column's values (a float array for ``array`` cells), the
    mask of rows whose cell is malformed or out of range (None if none is)
    and the text of each malformed cell by row."""
    parse, rule = col.cell.parse, col.range
    if not col.cell.array:
        known = {}
        for cell in set(cells):
            try:
                known[cell] = parse(cell)
            except ValueError:
                known[cell] = _FAILED
        values = list(map(known.__getitem__, cells))
        bad = {cell for cell, value in known.items()
               if value is _FAILED or (rule is not None and rule.breached(value))}
        if not bad:
            return values, None, {}
        return (values, np.fromiter((c in bad for c in cells), bool, len(cells)),
                {i: c for i, c in enumerate(cells) if known[c] is _FAILED})
    failed = {}
    try:
        values = list(map(parse, cells))
    except ValueError:
        values = []
        for i, cell in enumerate(cells):
            try:
                values.append(parse(cell))
            except ValueError:
                values.append(math.nan)
                failed[i] = cell
    values = np.array(values, dtype=float)
    flags = np.zeros(len(cells), dtype=bool)
    flags[list(failed)] = True
    if rule is not None:
        flags |= rule.breached(values)
    return values, flags if flags.any() else None, failed


def _report_row(schema, row, values, failed, out) -> bool:
    """The schema's rules on one row, cell by cell, from its ``values`` in
    spec order and the text of each malformed cell by spec position:
    appends the row's violations to ``out`` and returns whether it yields a
    record, which it does not if a cell is malformed or breaks a ``reject``
    range, or the row check drops it.  Other range rules report last."""
    dead = False
    for j, (col, value) in enumerate(zip(schema.spec, values)):
        if j in failed:
            out.append(Violation(row, col.name, col.cell.rule, f"malformed cell {failed[j]!r}"))
            dead = True
        elif col.range is not None and col.range.reject and col.range.breached(value):
            out.append(Violation(row, col.name, col.range.rule, f"got {value!r}"))
            dead = True
    if dead:
        return False
    record = SimpleNamespace(**{attr: values[js[0]] if len(js) == 1 else
                                tuple(values[j] for j in js) for attr, js in schema._slots().items()})
    if schema.row_checks is not None and schema.row_checks(row, record, out):
        return False
    for col, value in zip(schema.spec, values):
        if col.range is not None and not col.range.reject and col.range.breached(value):
            out.append(Violation(row, col.name, col.range.rule, f"got {value!r}"))
    return True


def parse_table(schema, header, reader, **options):
    """(table, violations, data rows) for the rows ``reader`` yields after
    ``header``: the table of the rows that yield a record, the violations
    in row order, file checks last, and the count of rows that are not blank."""
    body = [cells for cells in reader if cells]  # a blank line holds no row
    index, width, n_rows = {name: i for i, name in enumerate(header)}, len(header), len(body)
    fit = [p for p, cells in enumerate(body) if len(cells) == width]
    whole = len(fit) == n_rows
    wrong = {} if whole else {p: len(body[p]) for p in set(range(n_rows)).difference(fit)}
    cells = list(zip(*(body if whole else [body[p] for p in fit]))) or [()] * width
    del body  # the rows and, column by column below, the cells are freed once read
    flag = np.zeros(len(fit), dtype=bool)
    values, failed = [], []
    for col in schema.spec:
        vals, bad, fails = _parse_column(col, cells[index[col.name]])
        cells[index[col.name]] = None
        values.append(vals)
        failed.append(fails)
        if bad is not None:
            flag |= bad
    slots = schema._slots()

    def attr_values(attr, rows=None):
        cols = [values[j].tolist() if isinstance(values[j], np.ndarray) else values[j]
                for j in slots[attr]]
        vals = cols[0] if len(cols) == 1 else list(zip(*cols))
        return vals if rows is None else [vals[i] for i in rows]

    check = schema.row_checks
    if check is not None:
        live = np.flatnonzero(~flag).tolist() if flag.any() else None
        keys = [attr_values(attr, live) for attr in check.reads]
        verdict = {}
        for key in set(zip(*keys)):
            out: list = []
            stand_in = SimpleNamespace(**dict(zip(check.reads, key)))
            verdict[key] = bool(check(None, stand_in, out) or out)
        if any(verdict.values()):
            flag[~flag] = np.fromiter(map(verdict.__getitem__, zip(*keys)), bool, len(keys[0]))
    # every flagged row and every row of the wrong length, in file order
    flagged = sorted([(p, None) for p in wrong] + [(fit[i], i) for i in np.flatnonzero(flag)])
    keep, violations = ~flag, []
    for p, i in flagged:
        if i is None:
            violations.append(Violation(p + 1, None, "row length",
                                        f"{wrong[p]} cells under {width} columns"))
            continue
        row = [v[i].item() if isinstance(v, np.ndarray) else v[i] for v in values]
        if _report_row(schema, p + 1, row, {j: f[i] for j, f in enumerate(failed) if i in f},
                       violations):
            keep[i] = True
    every = keep.all()
    kept = None if every else np.flatnonzero(keep).tolist()

    def gather(col):
        return col if every else [col[i] for i in kept]

    columns = {}
    for attr, js in slots.items():
        if schema.spec[js[0]].cell.array:
            array = values[js[0]] if len(js) == 1 else np.column_stack([values[j] for j in js])
            columns[attr] = array if every else array[kept]
        else:
            columns[attr] = gather(attr_values(attr))
    extras = None
    if schema.extras:
        known = schema.columns
        extras = {name: gather(cells[i]) for name, i in index.items() if name not in known}
    table = RecordTable(schema, columns, extras)
    if schema.file_checks is not None:
        rows = [p + 1 for p in gather(fit)]
        violations.extend(schema.file_checks(list(zip(rows, table)), **options))
    return table, violations, n_rows
