"""The scanning ndjson reader against the per-line reader it replaced
(``_reference_engine.read_ndjson_by_line``).

``read_table(..., "ndjson")`` decodes each line with one scanner call and
renders a column's cells in bulk.  Whatever the lines, it must give the
per-line reader's table: the same columns, cells of the same types and
values (``ABSENT`` included) and key orders, or the same ``IngestError``
text.  The traps the inputs below are chosen for:

- a ``StopIteration`` from ``scan_once`` (a blank line, or one that starts
  with no JSON value) ends a ``map`` silently, so a run of scanned lines
  can stop short without an error;
- ``True == 1 == 1.0`` and ``0.0 == -0.0`` collide as dict keys, so cells
  cannot be rendered through a map keyed by value when such types mix;
- ``bool`` is a subclass of ``int``, so a boolean must not be rendered as
  an int is;
- a joined decode is unsound: ``{"a":1},{"b":2}``, ``{"k":[{"x":1}`` and
  ``{"y":2}]}`` each fail alone, yet as one array they decode to three
  objects, so a value may not run on past its line's end.
"""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_engine as reference
from contractforge import profiling
from contractforge.errors import IngestError
from contractforge.model import Contract, FieldSpec
from contractforge.profiling import ABSENT, IngestOptions, Table, ingest, profile_column, read_table
from contractforge.validation import validate_rows

#: Lines that are no flat one-object line, each read by the per-line code.
ODD_LINES = [
    "", " ", "\t", "\u0085", "\u2028", " \u2028 ", "\r",
    '{"a":1},{"b":2}', '{"k":[{"x":1}', '{"y":2}]}',
    '{"a":1} ', ' {"a":1}', '{"a":1}\t', '\ufeff{"a":1}',
    "[1]", "1", '"x"', "null", "true", "{", "}", "not json", '{"a":1}{"b":2}',
    '{"a":', '{"a":"x', '{"a":1}\r',
    '{"a":NaN}', '{"a":Infinity,"b":-Infinity}', '{"a":-0,"b":-0.0,"c":0.0}',
    '{"a":1e400,"b":-1e400,"c":1E5,"d":1.50}',
    '{"v":1}', '{"v":1.0}', '{"v":true}', '{"v":"1"}', '{"v":[1]}', '{"v":{}}',
    '{" a":1,"b":2}', '{"a":1," a":2}', '{"a":{"b":1},"a.b":2}', '{"n":{"x":{"y":1}}}',
    '{"a":{"b":{}}}', '{"a":"{"}', '{"a":"\\u2028"}', '{"a":"x\\ny"}',
    '{"big":' + "9" * 5000 + "}",
    '{"deep":' + "[" * 3000 + "]" * 3000 + "}",
    '{"deep":' + '{"a":' * 3000 + "1" + "}" * 3000 + "}",
]
KEYS = st.sampled_from(["a", "b", "v", " b", "é", "", "a.b"])
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(), st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, 1, True, "1", 2 ** 53 + 1, -2 ** 63]),
    st.text(st.sampled_from(["a", " ", "{", "}", '"', "\\", "\u0085", "\u2028", "é"]),
            max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(KEYS, st.integers(0, 2) | st.none(), max_size=2),
)
OBJECT_LINES = st.dictionaries(KEYS, VALUES, max_size=4).map(
    lambda obj: json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
LINES = st.lists(st.one_of(OBJECT_LINES, OBJECT_LINES, st.sampled_from(ODD_LINES)),
                 min_size=1, max_size=12)


def _document(lines: list[str], ends: list[str], last: str) -> str:
    return "".join(line + end for line, end in zip(lines, ends)) + last


@st.composite
def documents(draw) -> str:
    lines = draw(LINES)
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return _document(lines, ends, draw(st.sampled_from(["", "", "\n", "\r\n", " ", "\r"])))


def by_line(text: str, options: IngestOptions | None = None) -> tuple:
    try:
        return ("table", reference.read_ndjson_by_line(text, options))
    except IngestError as exc:
        return ("error", str(exc))


def scanned(text: str, options: IngestOptions | None = None) -> tuple:
    try:
        columns, table = read_table(text.encode("utf-8"), "ndjson", options)
    except IngestError as exc:
        return ("error", str(exc))
    cells = {name: list(table.column(name)) for name in table.columns}
    return ("table", (columns, cells, table._key_orders, len(table)))


def types_of(outcome: tuple):
    if outcome[0] == "error":
        return None
    return {name: list(map(type, cells)) for name, cells in outcome[1][1].items()}


def check_every_chunk(text: str, options: IngestOptions | None = None) -> tuple:
    expected = by_line(text, options)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for chunk in (1, 7, 10**9):
            monkeypatch.setattr(profiling, "_CHUNK_ROWS", chunk)
            got = scanned(text, options)
            assert got == expected, chunk
            assert types_of(got) == types_of(expected), chunk
    return expected


@pytest.mark.parametrize("line", ODD_LINES, ids=range(len(ODD_LINES)))
def test_each_odd_line_reads_as_the_per_line_reader_reads_it(line):
    flat = '{"a":1,"b":"x"}'
    for lines in ([line], [flat, line, flat], [flat] * 9 + [line] + [flat] * 9):
        for end in ("\n", "\r\n", "\r\r\n"):
            check_every_chunk(_document(lines, [end] * len(lines), ""))


def test_the_misaligned_triple_fails_at_its_first_line():
    text = '{"a":1},{"b":2}\n{"k":[{"x":1}\n{"y":2}]}\n'
    assert check_every_chunk(text) == (
        "error", "ndjson line 1: Extra data: line 1 column 8 (char 7)")


@pytest.mark.parametrize("text", ['{"a":[1,\n2]}\n', '{"a":\n1}\n', '{"a":1,\n"b":2}\n',
                                  '{"a":1}\n{"b":\n2}\n{"c":3}\n'])
def test_a_value_does_not_run_past_its_line(text):
    """Each of these lines fails alone, though scanning on past its end
    would read an object."""
    assert check_every_chunk(text)[0] == "error"


@pytest.mark.parametrize("line, error", [
    ('{"a":', "ndjson line 1: Expecting value: line 1 column 7 (char 6)"),
    ('{"a":"x', "ndjson line 1: Invalid control character at: line 1 column 8 (char 7)"),
])
def test_only_one_cr_is_dropped_before_a_malformed_lines_lf(line, error):
    """The per-line reader drops one CR before a LF, so an error on a line
    ending in two counts the other as part of the line."""
    assert check_every_chunk('{"a":1}\r\n' + line + "\r\r\n") == (
        "error", error.replace("line 1:", "line 2:", 1))


def test_mixed_cell_types_keep_their_own_lexemes():
    """``1``, ``1.0``, ``true`` and ``"1"`` in one column, and the zeros,
    each keep the lexeme ``lexeme_of`` gives them."""
    text = "".join(line + "\n" for line in [
        '{"v":1,"z":0.0}', '{"v":1.0,"z":-0.0}', '{"v":true,"z":-0}', '{"v":"1","z":0}',
        '{"v":[1],"z":1e400}', '{"v":NaN,"z":false}'])
    kind, (columns, cells, _, _) = check_every_chunk(text)
    assert cells == {"v": ["1", "1.0", "true", "1", "[1]", "nan"],
                     "z": ["0.0", "-0.0", "0", "0", "inf", "false"]}


def test_huge_and_deep_lines_give_the_per_line_errors():
    assert check_every_chunk('{"a":1}\n{"big":' + "9" * 5000 + "}\n") == (
        "error", "ndjson line 2: integer literal too long to read")
    assert check_every_chunk('{"a":1}\n{"deep":' + "[" * 100_000 + "]" * 100_000 + "}\n") == (
        "error", "ndjson line 2: nesting too deep to read")


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _at_depth(frames: int, call):
    """``call()`` from ``frames`` more frames down the stack."""
    return call() if frames == 0 else _at_depth(frames - 1, call)


@pytest.mark.parametrize("read", [read_table, ingest])
@pytest.mark.parametrize("shape", ["lists", "objects"])
def test_deep_nesting_reads_or_is_its_lines_error(read, shape):
    """A line nested near the recursion limit reads as a table, or gives
    its line's nesting error, at whatever stack depth it is read: the
    scanner may take a line that rendering its value, or flattening it,
    then cannot.  The limit is set about 1 000 frames past the test, so
    that on Python 3.11 the sweep crosses from read lines to failed ones
    at both depths."""
    options = IngestOptions(flatten_depth=10**6)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 1010)
    try:
        for frames in (0, 6):
            outcomes = []
            for depth in range(980, 1001):
                if shape == "lists":
                    value = "[" * depth + "]" * depth
                    line, name = '{"a":' + value + "}\n", "a"
                else:
                    value, line, name = "1", '{"a":' * depth + "1" + "}" * depth + "\n", \
                        ".".join("a" * depth)
                data = ('{"b":0}\n' + line).encode()
                try:
                    got = _at_depth(frames, lambda: read(data, "ndjson", options))
                except IngestError as exc:
                    assert str(exc) == "ndjson line 2: nesting too deep to read", depth
                    outcomes.append("error")
                    continue
                outcomes.append("read")
                if read is ingest:
                    assert got.column(name).sample_values == [value], depth
                else:
                    assert got[1].column(name) == (ABSENT, value), depth
            # Deeper lines fail first: once one fails, every deeper one does.
            assert outcomes == sorted(outcomes, reverse=True), (frames, outcomes)
    finally:
        sys.setrecursionlimit(limit)


def _profiled(value) -> list:
    return profile_column([value], "a").sample_values


def _tabled(value) -> list:
    return list(Table.from_rows([{"a": value}]).column("a"))


def _validated(value) -> list:
    # An integer field refuses the rendered list and reports it as observed.
    contract = Contract("t", [FieldSpec("a", "integer", True)])
    return [v.observed for v in validate_rows(contract, [{"a": value}]).violations]


@pytest.mark.parametrize("read", [_profiled, _tabled, _validated])
def test_deep_nesting_in_a_row_dict_renders_or_is_an_ingest_error(read):
    """A list built in Python, nested near the recursion limit, is rendered
    with the rest of its column, not a line at a time: it reads as its
    compact JSON text, or gives the nesting error, at whatever stack depth
    it is read, and never a raw ``RecursionError``.  The limit is set
    as in the ndjson sweep above, so that on Python 3.11 the sweep crosses
    at both depths; from 3.12 on the JSON encoder keeps a C recursion limit
    of its own, and only a far deeper list fails, as its last depth does on
    every version."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 1010)
    try:
        for frames in (0, 6):
            outcomes = []
            for depth in [*range(980, 1001), 100_000]:
                value: list = []
                for _ in range(depth - 1):
                    value = [value]
                try:
                    got = _at_depth(frames, lambda: read(value))
                except IngestError as exc:
                    assert str(exc) == "nesting too deep to read", depth
                    outcomes.append("error")
                    continue
                outcomes.append("read")
                assert got == ["[" * depth + "]" * depth], depth
            assert outcomes == sorted(outcomes, reverse=True), (frames, outcomes)
            assert outcomes[-1] == "error", frames
    finally:
        sys.setrecursionlimit(limit)


def test_a_flatten_error_comes_before_a_later_line_error():
    text = '{"a":1}\n{"a":{"b":1},"a.b":2}\nnot json\n'
    assert check_every_chunk(text) == (
        "error", "line 2: duplicate key 'a.b' after normalization")


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_flatten_depth_is_kept(depth):
    text = '{"a":{"b":{"c":1}}," d":2}\n{"e":1}\n'
    check_every_chunk(text, IngestOptions(flatten_depth=depth))


def test_random_documents_read_as_the_per_line_reader_reads_them():
    seen = {"table": 0, "error": 0}

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(documents())
    def check(text):
        seen[check_every_chunk(text)[0]] += 1

    check()
    assert seen["table"] >= 60 and seen["error"] >= 60, seen
