"""The block reader against ``csv.reader``, and ``dump`` of a table against
``dump`` of its record list.

``datasets.io._blocks`` splits quote-free blocks of lines on commas and
hands the first block that is not, and the rest of the file, to
``csv.reader``.  On generated files that span several blocks, with
``\\n``, ``\\r\\n`` and lone ``\\r`` line endings, quotes that first appear
in a late block, NUL characters, blank lines, lines of spaces and fields
over the size limit, it must give the non-blank rows ``csv.reader`` gives,
or raise the same error with the same message, from a ``StringIO`` and
from a file alike.  ``dump`` must write the same bytes for a table and
for its record list, the bytes the oracle's ``csv.DictWriter`` wrote, and
must rewrite every bundled file from its table byte for byte.
"""

import csv
import io
import tempfile
from itertools import accumulate, cycle, islice
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import schema_oracle as oracle
from aireliab.datasets import SCHEMAS, dumps, load, parse_records
from aireliab.datasets.io import BLOCK_LINES, _blocks
from conftest import PROPERTY
from test_data_path_oracle import same_outcome
from test_datasets import BUNDLED_CSVS, SCHEMA_OF_FILE
from test_table_oracle import table_files

cells = st.text(st.sampled_from("ab ,\x00"), max_size=4)
plain_lines = st.lists(cells, max_size=4).map(",".join)  # "" is a blank line
endings = st.sampled_from(["\n", "\r\n"])
#: lines that send their block and the rest of the file to csv.reader
special_lines = st.sampled_from([
    '"a,b",c\n', 'a"b,c\r\n', '"open\nline",x\n', '"unclosed\n', "a,b\r", "a\rb,c\n",
    "\r", "b" * 40 + "\n", '"' + "q" * 30 + '"\n'])


@st.composite
def block_texts(draw):
    """Lines cycled from a small pool up to three blocks long, a few
    special lines anywhere (late blocks included), maybe no final line
    ending, and a field size limit that is the default or small."""
    pool = draw(st.lists(st.tuples(plain_lines, endings), min_size=1, max_size=4))
    n = draw(st.sampled_from([1, 5, BLOCK_LINES - 1, BLOCK_LINES, 2 * BLOCK_LINES + 7,
                              3 * BLOCK_LINES]))
    lines = [line + end for line, end in islice(cycle(pool), n)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(special_lines))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines), draw(st.sampled_from([None, 8, 24]))


def block_rows(handle):
    rows = []
    for flat, lengths in _blocks(handle):
        assert len(flat) == sum(lengths)
        rows.extend(flat[end - n:end] for end, n in zip(accumulate(lengths), lengths))
    return rows


def csv_rows(handle):
    return [row for row in csv.reader(handle) if row]


@PROPERTY
@given(block_texts())
def test_block_reader_matches_csv_reader(case):
    text, limit = case
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        got, want = same_outcome(lambda: block_rows(io.StringIO(text)),
                                 lambda: csv_rows(io.StringIO(text)))
        assert got == want
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with open(path, encoding="utf-8", newline="") as a, \
                    open(path, encoding="utf-8", newline="") as b:
                got, want = same_outcome(lambda: block_rows(a), lambda: csv_rows(b))
            assert got == want
    finally:
        csv.field_size_limit(default)


@pytest.mark.parametrize("schema", tuple(SCHEMAS))
@PROPERTY
@given(data=st.data())
def test_dump_of_table_and_record_list_agree(schema, data):
    table, _ = parse_records(io.StringIO(data.draw(table_files(schema))), schema)
    text = dumps(table, schema)
    assert text == dumps(list(table), schema)
    assert text == oracle.dumps(list(table), schema)


@pytest.mark.parametrize("relative", BUNDLED_CSVS)
def test_dump_of_load_rewrites_bundled_file(relative, data_dir):
    path = data_dir / relative
    schema = SCHEMA_OF_FILE[path.name]
    assert dumps(load(path, schema), schema).encode("utf-8") == path.read_bytes()
