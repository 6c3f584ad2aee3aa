"""The bounded reader against the whole-text reader it replaced and against
``_reference_engine.read_table``.

``read_table`` pulls a source a block at a time and appends every chunk of
rows to the table's columns.  Whatever the chunk size, the block size and
the way a handle splits its reads, it must give the table the whole-text
reader gives: the same columns, cells, key orders and length, or the same
error message.  ``whole_text_read_table`` below is that reader as it was:
decode everything, then parse it, then build the table from every row.

``ingest`` runs the same reader but builds no table: it counts each chunk
into one tally per column and keeps only the first ``row_cap`` rows.  Its
profile must be the ``profile_table`` of the source's table byte for byte,
or its error the same text, whatever the chunk size.
"""

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_engine as reference
from contractforge import profiling
from contractforge.errors import IngestError, parse_json
from contractforge.profiling import (ABSENT, DELIMITED, SOURCE_FORMATS, IngestOptions, Table,
                                     _flatten, _lexemes, dump_profile, ingest, profile_table,
                                     read_table)


# -- the whole-text reader ---------------------------------------------------------

def _decode(source) -> str:
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not valid UTF-8: {exc}") from exc


def _table_of_rows(rows: list[dict]) -> Table:
    shapes = dict.fromkeys(map(tuple, rows))
    positions: dict = {}
    unordered: dict[tuple, tuple] = {}
    for keys in shapes:
        for key in keys:
            positions.setdefault(key, len(positions))
        at = [positions[key] for key in keys]
        if at != sorted(at):
            unordered[keys] = keys
    key_orders = {index: shared for index, keys in enumerate(map(tuple, rows))
                  if (shared := unordered.get(keys))} if unordered else {}
    cells = [tuple(_lexemes([row.get(name, ABSENT) for row in rows])) for name in positions]
    return Table(positions, cells, len(rows), key_orders)


def _whole_delimited(text: str, options: IngestOptions) -> Table:
    if len(options.delimiter) != 1:
        raise IngestError(f"delimiter must be one character, got {options.delimiter!r}")
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=options.delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError("no data")
        columns = [name.strip() for name in header]
        seen: set[str] = set()
        for name in columns:
            if name in seen:
                raise IngestError(f"duplicate column name {name!r} after normalization")
            seen.add(name)
        records: list[list[str]] = []
        for index, record in enumerate(reader):
            if not record:
                continue
            if len(record) != len(columns):
                raise IngestError(
                    f"ragged row {index + 1} (line {reader.line_num}): "
                    f"expected {len(columns)} cells, got {len(record)}"
                )
            records.append(record)
    except csv.Error as exc:
        raise IngestError(f"malformed delimited line {reader.line_num}: {exc}") from None
    nulls = dict.fromkeys(["", *options.null_tokens])
    cells = [tuple(map(nulls.get, column, column)) for column in zip(*records)]
    return Table(columns, cells or [()] * len(columns), len(records))


def _whole_ndjson(text: str, options: IngestOptions) -> Table:
    rows: list[dict] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line[:-1] if line.endswith("\r") else line
        if not line.strip():
            continue
        obj = parse_json(line, IngestError, f"ndjson line {line_no}")
        if not isinstance(obj, dict):
            raise IngestError(f"malformed ndjson line {line_no}: not a JSON object")
        if line.count("{") > 1 or not all(key == key.strip() for key in obj):
            obj = _flatten(obj, options.flatten_depth, line_no)
        rows.append(obj)
    if not rows:
        raise IngestError("no data")
    return _table_of_rows(rows)


def whole_text_read_table(source, source_format: str, options: IngestOptions | None = None):
    options = options or IngestOptions()
    options.validate()
    if source_format not in SOURCE_FORMATS:
        raise IngestError(f"unknown source format {source_format!r}")
    text = _decode(source)
    if not text.strip():
        raise IngestError("no data")
    if source_format == DELIMITED:
        table = _whole_delimited(text, options)
    else:
        table = _whole_ndjson(text, options)
    return list(table.columns), table


# -- sources and outcomes ----------------------------------------------------------

class ShortReads:
    """A handle whose reads return 1, 2 or 3 bytes (or characters), in a
    cycle that starts at ``phase``; ``read()`` returns the rest."""

    def __init__(self, data, phase: int = 0):
        self.data, self.at, self.phase = data, 0, phase

    def read(self, size: int = -1):
        if size is None or size < 0:
            size = len(self.data)
        else:
            self.phase += 1
            size = min(size, self.phase % 3 + 1)
        piece = self.data[self.at:self.at + size]
        self.at += len(piece)
        return piece


def sources(data: bytes, phase: int = 0) -> dict:
    """``data`` as every kind of source; the text ones only where it is UTF-8."""
    out = {"bytes": lambda: data, "bytearray": lambda: bytearray(data),
           "memoryview": lambda: memoryview(data), "binary handle": lambda: io.BytesIO(data),
           "short binary reads": lambda: ShortReads(data, phase)}
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return out
    out.update({"str": lambda: text, "text handle": lambda: io.StringIO(text, newline=""),
                "short text reads": lambda: ShortReads(text, phase)})
    return out


def snapshot(result) -> tuple:
    """A read's columns, cells, key orders and length."""
    columns, table = result
    return (columns, list(table.columns), [table.column(name) for name in table.columns],
            table._key_orders, len(table))


def outcome(read, source, source_format: str, options: IngestOptions | None = None):
    try:
        return "table", snapshot(read(source, source_format, options))
    except IngestError as exc:
        return "error", str(exc)


def check_every_way(monkeypatch, data: bytes, source_format: str,
                    options: IngestOptions | None = None, phase: int = 0,
                    chunks=(1, 7, 10**9), blocks=(1, 2, 3, 7, 1 << 16)):
    """The bounded reader, from every kind of source at every chunk and
    block size, reads ``data`` as the whole-text reader reads its bytes."""
    expected = outcome(whole_text_read_table, data, source_format, options)
    for chunk in chunks:
        monkeypatch.setattr(profiling, "_CHUNK_ROWS", chunk)
        for block in blocks:
            monkeypatch.setattr(profiling, "_BLOCK_SIZE", block)
            for kind, make in sources(data, phase).items():
                got = outcome(read_table, make(), source_format, options)
                assert got == expected, (kind, chunk, block)
    return expected


# -- named cases -------------------------------------------------------------------

def _ndjson(*objects) -> bytes:
    return "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objects).encode()


CASES = {
    # ndjson: key orders and columns against every earlier chunk
    "key order differs in a later chunk": (
        _ndjson(*[{"a": i, "b": "x"} for i in range(9)], {"b": "y", "a": 9},
                {"a": 10, "b": "z"}, {"b": None, "a": 11}), "ndjson"),
    "key first seen in a late chunk": (
        _ndjson(*[{"a": str(i)} for i in range(15)], {"z": 1, "a": "15"}, {"a": "16"},
                {"q": [1], "z": True}), "ndjson"),
    "nested keys first seen late": (
        _ndjson(*[{"a": {"b": i}} for i in range(8)], {"c": {"d": 1}, "a": {"b": 8, "e": None}}),
        "ndjson"),
    "ndjson line numbers past blocks": (
        _ndjson(*[{"n": "x" * i} for i in range(12)]) + b'\n\n{"n": 1,\n', "ndjson"),
    "ndjson CRLF, a bare CR and blank lines": (
        b'{"a":1}\r\n\r\n  \n{"a":"x\\ry"}\r{"b":2}\n{"a":"\xe2\x80\xa8"}\r\n', "ndjson"),
    "ndjson non-object line late": (_ndjson(*[{"a": i} for i in range(10)]) + b"[1]\n", "ndjson"),
    "ndjson duplicate key late": (
        _ndjson(*[{"a": i} for i in range(10)]) + b'{"a": 1, " a": 2}\n', "ndjson"),
    "ndjson without a final line feed": (b'{"a":1}\n{"a":2}', "ndjson"),
    # delimited: line ends, quotes and records against blocks
    "CRLF, bare CR and LF": (b'a,b\r\n1,"x\ry"\r\n2,"p\r\nq"\r3,z\n4,\r\n', "delimited"),
    "CRLF at every offset": (b"a,b\r\n" + b"".join(b"%d,%s\r\n" % (i, b"x" * i)
                                                  for i in range(12)), "delimited"),
    "ragged row after CRLFs at every offset": (
        b"a,b\r\n" + b"".join(b"%d,%s\r\n" % (i, b"x" * i) for i in range(12)) + b"3\r\n",
        "delimited"),
    "bare CRs only": (b"a,b\r1,2\r3,4\r", "delimited"),
    "a bare CR before the last line": (b"a,b\r1,2\r3,4", "delimited"),
    "quoted line ends": (b'a,b\n"x\ny",1\n"p\r\nq\rr",2\n', "delimited"),
    "odd number of quotes": (b'a,b\n1,"x\n2,y\n3,z\n', "delimited"),
    "quote opened in the last line": (b'a,b\n1,2\n3,"x', "delimited"),
    "blank lines between records": (b"a,b\n\n1,2\n\r\n\n3,4\n\n", "delimited"),
    "ragged row late": (b"a,b\n" + b"1,2\n" * 9 + b"\n3\n", "delimited"),
    "ragged row after a quoted newline": (b'a,b\n"x\ny",1\n2,3,4\n', "delimited"),
    "duplicate header": (b"a, a\n1,2\n", "delimited"),
    "header only": (b"a,b\r\n", "delimited"),
    "no final line end": (b"a,b\n1,2", "delimited"),
    "null tokens": (b"a,b\nNA,\n,NA\n", "delimited"),
    "field past the limit": (b"a\n1\n" + b"x" * 131_073 + b"\n", "delimited"),
    # both formats: text and bytes
    "multi-byte characters": ("a,b\né€,\U0001d11e\n\u2028,ü\n".encode(), "delimited"),
    "multi-byte ndjson": (_ndjson({"é": "\U0001d11e€"}, {"€": "ü"}), "ndjson"),
    "whitespace only": (b" \t\r\n\n \xe2\x80\xa8\n", "delimited"),
    "whitespace only ndjson": (b" \t\r\n\n \xc2\x85\n", "ndjson"),
    "empty": (b"", "delimited"),
    "empty ndjson": (b"", "ndjson"),
    "invalid byte in a later block": (b"a,b\n" + b"1,2\n" * 20 + b"\xff,3\n", "delimited"),
    "invalid byte after a ragged row": (b"a,b\n1\n" + b"2,3\n" * 20 + b"\xfe\n", "delimited"),
    "invalid byte after a bad ndjson line": (b'{"a":1}\nnot json\n' + b"{}\n" * 9 + b"\xff",
                                             "ndjson"),
    "truncated sequence at EOF": (b"a\n" + b"1\n" * 10 + b"\xe2\x82", "delimited"),
    "truncated sequence at EOF ndjson": (_ndjson(*[{"a": 1}] * 5) + b"\xf0\x9f\x98", "ndjson"),
    "surrogate bytes": (b"a\n\xed\xa0\x80\n", "delimited"),
    "blank text before an invalid byte": (b"  \n \xff", "delimited"),
    "blank text with a whitespace delimiter": (b"  \n   \n", "delimited"),
}


def case_options(name: str) -> IngestOptions | None:
    return {"null tokens": IngestOptions(null_tokens=["NA"]),
            "blank text with a whitespace delimiter": IngestOptions(delimiter=" ")}.get(name)


@pytest.mark.parametrize("name", CASES)
def test_named_cases_read_as_the_whole_text(monkeypatch, name):
    data, source_format = CASES[name]
    options = case_options(name)
    if name == "field past the limit":  # 131 kB: short reads only, and large blocks
        check_every_way(monkeypatch, data, source_format, chunks=(7,), blocks=(1000, 1 << 16))
        return
    for phase in range(3):
        check_every_way(monkeypatch, data, source_format, options, phase)


def test_decoding_errors_keep_their_absolute_position(monkeypatch):
    data = b"a,b\n" + b"1,\xc3\xa9\n" * 40 + b"\xff,2\n"
    position = data.index(b"\xff")
    expected = check_every_way(monkeypatch, data, "delimited")
    assert expected == ("error", "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                                 f"in position {position}: invalid start byte")
    cut = b"a\n" + b"\xe2\x82\xac\n" * 30 + b"\xe2\x82"
    expected = check_every_way(monkeypatch, cut, "delimited")
    assert expected == ("error", "input is not valid UTF-8: 'utf-8' codec can't decode bytes "
                                 f"in position {len(cut) - 2}-{len(cut) - 1}: "
                                 "unexpected end of data")


def test_a_later_chunk_keeps_its_rows_key_orders(monkeypatch):
    data = CASES["key order differs in a later chunk"][0]
    kind, (columns, _, _, key_orders, length) = check_every_way(monkeypatch, data, "ndjson")
    assert kind == "table" and columns == ["a", "b"] and length == 12
    assert key_orders == {9: ("b", "a"), 11: ("b", "a")}
    monkeypatch.setattr(profiling, "_CHUNK_ROWS", 7)
    _, table = read_table(data, "ndjson")
    assert [list(row) for row in table][8:] == [["a", "b"], ["b", "a"], ["a", "b"], ["b", "a"]]


class FailingHandle:
    """A handle that reads ``data`` once and then fails."""

    def __init__(self, data: bytes):
        self.data = data

    def read(self, size: int = -1) -> bytes:
        data, self.data = self.data, None
        if data is None:
            raise OSError("device gone")
        return data


@pytest.mark.parametrize("data", [b"  \n", b"a,b\n1\n"], ids=["blank", "ragged"])
def test_a_handle_that_fails_raises_its_own_error(data):
    """Only the reader's own errors wait for the rest of the source: an error
    reading the source is raised as it is, not as ``no data``."""
    with pytest.raises(OSError, match="device gone"):
        read_table(FailingHandle(data), "delimited")


# -- random sources ----------------------------------------------------------------

#: Pieces readers and decoders trip on: every line end, quotes, delimiters,
#: blanks, multi-byte characters, braces and bytes that are not UTF-8.
PIECES = [b"\r", b"\n", b"\r\n", b'"', b",", b" ", b"\t", b"a", b"1", b"{", b"}", b":",
          b'"a"', "é".encode(), "€".encode(), "\U0001d11e".encode(),
          "\u2028".encode(), b"\xff", b"\xe2\x82", b"\xed\xa0\x80"]
SOUP = st.lists(st.sampled_from(PIECES), max_size=60).map(b"".join)
KEYS = st.sampled_from(["a", "b", "c", " b", "é"])
CELLS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.just([1]),
                  st.text(alphabet="a1 ,\"\r\né\u2028", max_size=3),
                  st.dictionaries(KEYS, st.integers(0, 2), max_size=2))
NDJSON = st.lists(st.dictionaries(KEYS, CELLS, max_size=4), min_size=1, max_size=25).map(
    lambda rows: "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode())


@st.composite
def delimited(draw) -> bytes:
    width = draw(st.integers(1, 3))
    cell = st.text(alphabet="a1 ,\"\r\né", max_size=4)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=25))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    out = io.StringIO()
    csv.writer(out, lineterminator=end).writerows([[f"c{i}" for i in range(width)], *rows])
    # A ragged last row makes an error that names a row and a line number.
    return (out.getvalue() + draw(st.sampled_from(["", "x,x,x,x" + end]))).encode()


def test_random_sources_read_as_the_whole_text():
    seen = {f"{kind} {source_format}": 0 for kind in ("table", "error")
            for source_format in SOURCE_FORMATS}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(SOUP.map(lambda d: (d, "delimited")), SOUP.map(lambda d: (d, "ndjson")),
                     delimited().map(lambda d: (d, "delimited")),
                     NDJSON.map(lambda d: (d, "ndjson"))),
           st.sampled_from([1, 2, 7, 10**9]), st.sampled_from([1, 2, 3, 5, 1 << 16]),
           st.integers(0, 2))
    def check(source, chunk, block, phase):
        data, source_format = source
        expected = outcome(whole_text_read_table, data, source_format)
        seen[f"{expected[0]} {source_format}"] += 1
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(profiling, "_CHUNK_ROWS", chunk)
            monkeypatch.setattr(profiling, "_BLOCK_SIZE", block)
            for kind, make in sources(data, phase).items():
                assert outcome(read_table, make(), source_format) == expected, kind

    check()
    assert all(count >= 30 for count in seen.values()), seen


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.one_of(delimited().map(lambda d: (d, "delimited")), NDJSON.map(lambda d: (d, "ndjson"))),
       st.sampled_from([1, 7, 10**9]), st.sampled_from([1, 3, 1 << 16]))
def test_random_tables_read_as_the_reference_reads_them(source, chunk, block):
    """Where the reference's line ends agree (no CR and no Unicode line
    separator), the rows and their key orders are the reference's."""
    data, source_format = source
    if any(end in data for end in (b"\r", "\u2028".encode())):
        return
    try:
        expected = ("rows", *reference.read_table(data, source_format))
    except IngestError as exc:
        expected = ("error", str(exc))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(profiling, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(profiling, "_BLOCK_SIZE", block)
        try:
            columns, table = read_table(data, source_format)
            got = ("rows", columns, list(table))
        except IngestError as exc:
            got = ("error", str(exc))
    assert got == expected
    if got[0] == "rows":
        assert [list(row) for row in got[2]] == [list(row) for row in expected[2]]


# -- ingest against the profile of the whole table ---------------------------------

def table_profile(source, source_format: str, options: IngestOptions | None = None):
    return profile_table(read_table(source, source_format, options)[1], source_format, options)


def profile_outcome(profile, data: bytes, source_format: str, options=None) -> tuple:
    """The profile's text and its sample rows' key orders, which the text
    sorts; or the error."""
    try:
        got = profile(data, source_format, options)
    except IngestError as exc:
        return "error", str(exc)
    return "profile", dump_profile(got), [list(row) for row in got.sample_rows]


def check_ingest(monkeypatch, data: bytes, source_format: str, options=None,
                 chunks=(1, 7, 10**9), blocks=(1, 7, 1 << 16)) -> tuple:
    """``ingest`` gives the profile of the table ``read_table`` reads, or
    its error, at every chunk size.  An ndjson chunk ends only with a
    block, so the block sizes vary too."""
    expected = profile_outcome(table_profile, data, source_format, options)
    for chunk in chunks:
        monkeypatch.setattr(profiling, "_CHUNK_ROWS", chunk)
        for block in blocks:
            monkeypatch.setattr(profiling, "_BLOCK_SIZE", block)
            got = profile_outcome(ingest, data, source_format, options)
            assert got == expected, (chunk, block)
    return expected


#: Row caps past a chunk of 1 and of 7 rows, and with no sample rows at all.
CAPPED = [IngestOptions(row_cap=12, value_cap=3), IngestOptions(row_cap=0, value_cap=0)]

PROFILE_CASES = {
    "null tokens past a chunk": (
        b"a,b,c\n" + b"".join(b"%d,%s,%s\n" % (i, [b"NA", b"", b"x"][i % 3], b"-" * (i % 2))
                               for i in range(30)), "delimited",
        IngestOptions(null_tokens=["NA", "-"], row_cap=12)),
    "flatten depth 0": (
        _ndjson(*[{"a": {"b": i}, "c": [i, {"d": None}], "e": {}} for i in range(9)]), "ndjson",
        IngestOptions(flatten_depth=0)),
    "keys first seen in later chunks, out of column order": (
        _ndjson(*[{"a": i % 4} for i in range(11)], {"z": "late", "a": 1},
                *[{"a": None, "y": True} for i in range(9)], {"y": 1.5, "q": [], "a": 2}),
        "ndjson", None),
    "a column absent from every sample row": (
        _ndjson(*[{"a": str(i)} for i in range(20)], {"a": "x", "z": 0}), "ndjson", None),
    "an all-null column": (
        _ndjson(*[{"a": i, "n": None} for i in range(20)], {"a": 0}), "ndjson", None),
    "an all-empty delimited column": (b"a,b\n" + b"1,\n" * 20, "delimited", None),
    "mixed cell types in one column": (
        _ndjson(*[{"v": v} for v in [1, 1.0, True, "1", [1], -0.0, 0.0, None, "", 2 ** 70]] * 3),
        "ndjson", None),
}


@pytest.mark.parametrize("name", [*CASES, *PROFILE_CASES])
def test_ingest_gives_the_profile_of_the_table(monkeypatch, name):
    if name in PROFILE_CASES:
        data, source_format, options = PROFILE_CASES[name]
    else:
        (data, source_format), options = CASES[name], case_options(name)
    # 131 kB read a byte at a time is slow, and no line end is near a block.
    blocks = (1000, 1 << 16) if name == "field past the limit" else (1, 7, 1 << 16)
    for each in (options, *CAPPED):
        check_ingest(monkeypatch, data, source_format, each, blocks=blocks)


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
def test_ingest_keeps_no_cells_past_the_sample_rows(monkeypatch, chunk):
    monkeypatch.setattr(profiling, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(profiling, "_BLOCK_SIZE", 7)
    data = _ndjson(*[{"a": i} for i in range(10)], {"c": 0, "a": 0}, *[{"a": i} for i in range(19)],
                   {"b": 1, "a": 0})
    columns = profiling._read(data, "ndjson", IngestOptions(), profiling._Columns(12))
    assert columns.length == 31 and list(columns.cells) == ["a", "c", "b"]
    assert {name: len(cells) for name, cells in columns.cells.items()} == {"a": 12, "c": 12, "b": 12}
    assert columns.tallies["b"] == {ABSENT: 30, "1": 1} and columns._key_orders == {10: ("c", "a")}


def test_random_sources_ingest_as_their_tables_profile():
    seen = {f"{kind} {source_format}": 0 for kind in ("profile", "error")
            for source_format in SOURCE_FORMATS}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(SOUP.map(lambda d: (d, "delimited")), SOUP.map(lambda d: (d, "ndjson")),
                     delimited().map(lambda d: (d, "delimited")),
                     NDJSON.map(lambda d: (d, "ndjson"))),
           st.sampled_from([None, *CAPPED, IngestOptions(null_tokens=["a", "1"], flatten_depth=0)]))
    def check(source, options):
        data, source_format = source
        with pytest.MonkeyPatch.context() as monkeypatch:
            kind = check_ingest(monkeypatch, data, source_format, options)[0]
        seen[f"{kind} {source_format}"] += 1

    check()
    assert all(count >= 15 for count in seen.values()), seen
