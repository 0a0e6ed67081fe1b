"""Parsed rows of one schema held column by column, read as their record list.

``parse_table`` converts a file block by block as ``io._blocks`` reads it:
``BLOCK_LINES`` lines at a time, split on commas while no line holds a
quote, a lone ``\\r`` or the field size limit, and by ``csv.reader`` from the
first block that does.  Each spec column is converted with its own
``Cell.parse``, once per distinct cell where cells repeat (one memo per
column across blocks); range rules apply per column and the row check once
per distinct combination of what it reads.  Only flagged rows go through
``_report_row``, which words every violation.  File checks read columns;
``column`` and ``select`` read a table or a plain list of records alike,
and ``concat`` joins tables.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate, chain, repeat
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


def concat(tables) -> RecordTable:
    """One table of the rows of ``tables``, in order: tables of one schema
    with the same extra columns, at least one."""
    def join(parts):
        return np.concatenate(parts) if isinstance(parts[0], np.ndarray) else [*chain(*parts)]

    first = tables[0]
    columns, extras = ({key: join([getattr(t, name)[key] for t in tables]) for key in
                        getattr(first, name) or ()} for name in ("columns", "extras"))
    return RecordTable(first.schema, columns, None if first.extras is None else extras)


def _parse_column(col, cells, known):
    """One spec column's values over a block (a float array for ``array``
    cells), the mask of rows whose cell is malformed or out of range (None if
    none is) and each malformed cell by row; ``known`` is the column's memo."""
    parse, rule = col.cell.parse, col.range
    if not col.cell.array:
        distinct = set(cells)
        for cell in distinct.difference(known):
            try:
                known[cell] = parse(cell)
            except ValueError:
                known[cell] = _FAILED
        values = list(map(known.__getitem__, cells))
        bad = {cell for cell in distinct if known[cell] is _FAILED
               or (rule is not None and rule.breached(known[cell]))}
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


def parse_table(schema, header, blocks, **options):
    """(table, violations, data rows) for the rows ``blocks`` yields after
    ``header`` (see ``io._blocks``): the table of the rows that yield a record,
    the violations in row order, file checks last, and the count of rows."""
    index, width = {name: i for i, name in enumerate(header)}, len(header)
    # per spec column: its memo, its malformed cells and its values (arrays block by block)
    memos, failed, values = ([kind() for _ in schema.spec] for kind in (dict, dict, list))
    extras = {name: [] for name in header if name not in schema.columns} if schema.extras else None
    wrong, flags, n_rows = {}, [], 0
    for cells, lengths in blocks:
        if lengths.count(width) != len(lengths):  # keep the cells of the rows of the right length
            wrong.update((n_rows + k, n) for k, n in enumerate(lengths) if n != width)
            cells = [cell for end, n in zip(accumulate(lengths), lengths) if n == width
                     for cell in cells[end - n:end]]
        n_rows += len(lengths)
        offset = sum(map(len, flags))  # the rows of the right length before the block
        flag = np.zeros(len(cells) // width, dtype=bool)
        for j, col in enumerate(schema.spec):
            vals, bad, fails = _parse_column(col, cells[index[col.name]::width], memos[j])
            values[j] += [vals] if col.cell.array else vals
            failed[j].update((offset + i, cell) for i, cell in fails.items())
            if bad is not None:
                flag |= bad
        flags.append(flag)
        for name in extras or ():
            extras[name] += cells[index[name]::width]
        del cells
    values = [np.concatenate([np.empty(0), *part]) if col.cell.array else part
              for col, part in zip(schema.spec, values)]
    flag = np.concatenate([np.zeros(0, dtype=bool), *flags])
    fit = [p for p in range(n_rows) if p not in wrong] if wrong else range(n_rows)
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
    if extras is not None:
        extras = {name: gather(cells) for name, cells in extras.items()}
    table = RecordTable(schema, columns, extras)
    if schema.file_checks is not None:
        violations.extend(schema.file_checks(table, [p + 1 for p in gather(fit)], **options))
    return table, violations, n_rows
