"""Turn raw data samples into the metadata representation generation consumes.

A :class:`DataProfile` is the single input to every generation path: column
names, per-column sampled values and counts, and a handful of sample rows.
Two source formats are supported, delimited text (header row required) and
ndjson (one JSON object per line, nested keys flattened to dot-joined paths).
Column names are trimmed: the readers trim them, and ``load_profile``
rejects a profile whose column name is not trimmed.

Null conventions: in delimited input the empty cell is null (the literals
``"null"``/``"NA"`` are data unless listed in ``IngestOptions.null_tokens``);
in ndjson both explicit ``null`` and an absent key count as null.

``read_table`` reads a source into a :class:`Table`, which holds one tuple
of lexemes per column and keeps, per column, the tally of its cells and the
``lexical.class_runs`` of its distinct cells, each computed on first use.
``profile_table``, row validation and rule evaluation all read that
summary, after the shared per-column metrics of Deequ (Schelter et al.,
VLDB 2018).  ``ingest`` builds no table: the same reader counts each chunk
of rows into one running tally per column, a merge that keeps first-seen
order, and keeps only the first ``row_cap`` rows.  ``profile_column``
profiles a one-column table.  As a sequence a table gives row dicts.

The reader is bounded.  It pulls a source (text, bytes, any bytes-like
object, or a handle) a block at a time, bytes through an incremental UTF-8
decoder, cuts each block after its last line end, and adds every chunk of
rows to its column store.  Besides that store it holds one block and one
chunk.  Columns and key orders are kept against the first-seen column
order of all chunks so far, so the table, the profile and any error are
the ones reading the whole text at once gives.

The ndjson reader runs no Python per cell, a column at a time after
MonetDB/X100 (Boncz et al., CIDR 2005).  It decodes each line with one
call of the JSON scanner at the line's start (``_NdjsonReader``), checks
key trimming once per distinct key tuple, pulls each column from the rows
with one ``map(dict.get, ...)`` and renders a column's non-text cells in
bulk by exact type (``_lexemes``); a line holding a list or a nested
object is made a row alone (``_row_of``).  Any line the scanner does not
take whole is read alone by ``_row_of_line``.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import eq, is_, not_

from .errors import IngestError, dump_json, parse_json
from .lexical import class_runs
from .settings import IngestOptions

DELIMITED = "delimited"
NDJSON = "ndjson"
SOURCE_FORMATS = (DELIMITED, NDJSON)

#: Rows a reader collects before adding their cells to its column store,
#: and characters or bytes it reads from a source at a time.
_CHUNK_ROWS = 256
_BLOCK_SIZE = 1 << 16


def _checked(doc: dict, key: str, kind: type, item: type | None = None):
    """``doc[key]`` from a profile document, which must be a ``kind`` (whose
    items, or values for a dict, must be ``item``s); an :class:`IngestError`
    naming the key otherwise."""
    if key not in doc:
        raise IngestError(f"profile lacks key {key!r}")
    value = doc[key]
    items = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or isinstance(value, bool) or item is not None and not all(
            isinstance(v, item) and not isinstance(v, bool) for v in items):
        expected = kind.__name__ + (f" of {item.__name__}" if item else "")
        raise IngestError(f"profile key {key!r} must be {expected}, not {value!r:.40}")
    return value


@dataclass
class ColumnProfile:
    """Per-column slice of the profile: counts, samples, lexical histogram."""

    name: str
    total_count: int
    null_count: int
    distinct_count: int
    sample_values: list[str]
    lexical_histogram: dict[str, int]

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "total_count": self.total_count,
            "null_count": self.null_count,
            "distinct_count": self.distinct_count,
            "sample_values": list(self.sample_values),
            "lexical_histogram": dict(self.lexical_histogram),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ColumnProfile":
        name = _checked(doc, "name", str)
        if name != name.strip():
            raise IngestError(
                f"profile column name {name!r:.40} has leading or trailing whitespace")
        return cls(
            name=name,
            total_count=_checked(doc, "total_count", int),
            null_count=_checked(doc, "null_count", int),
            distinct_count=_checked(doc, "distinct_count", int),
            sample_values=list(_checked(doc, "sample_values", list, str)),
            lexical_histogram=dict(_checked(doc, "lexical_histogram", dict, int)),
        )


@dataclass
class DataProfile:
    dataset_name: str
    row_count: int
    columns: list[ColumnProfile]
    source_format: str
    sample_rows: list[dict]

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> ColumnProfile:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_doc(self) -> dict:
        return {
            "dataset_name": self.dataset_name,
            "row_count": self.row_count,
            "source_format": self.source_format,
            "columns": [c.to_doc() for c in self.columns],
            "sample_rows": [dict(r) for r in self.sample_rows],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "DataProfile":
        profile = cls(
            dataset_name=_checked(doc, "dataset_name", str),
            row_count=_checked(doc, "row_count", int),
            columns=[ColumnProfile.from_doc(c) for c in _checked(doc, "columns", list, dict)],
            source_format=_checked(doc, "source_format", str),
            sample_rows=[dict(r) for r in _checked(doc, "sample_rows", list, dict)],
        )
        if not all(v is None or isinstance(v, str) for r in profile.sample_rows for v in r.values()):
            raise IngestError("profile key 'sample_rows' must hold rows of strings and nulls")
        names = profile.column_names()
        if len(set(names)) != len(names):
            repeated = next(name for name in names if names.count(name) > 1)
            raise IngestError(f"profile repeats column name {repeated!r:.40}")
        return profile


def dump_profile(profile: DataProfile) -> str:
    """Serialize to the profile file format: sorted keys, 2-space indent,
    newline-terminated.  Deterministic, so profiles round-trip byte-exactly."""
    return dump_json(profile.to_doc())


def load_profile(text: str) -> DataProfile:
    doc = parse_json(text, IngestError, "profile")
    if not isinstance(doc, dict):
        raise IngestError("profile must be a JSON object")
    return DataProfile.from_doc(doc)


def lexeme_of(value) -> str | None:
    """Render a decoded JSON value as the text lexeme profiling works on.

    ``None`` stays ``None`` (null); everything else becomes text the way the
    classifier expects it (``true``/``false`` for booleans, minimal digits for
    numbers, compact JSON for residual structure).
    """
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


class _Absent:
    __slots__ = ()

    def __repr__(self) -> str:
        return "ABSENT"


#: Stands, in a :class:`Table` column, for a key a row lacks.
ABSENT = _Absent()


#: Cell types a column keeps as they are: text, null and :data:`ABSENT`.
_LEXEME_TYPES = {str, type(None), _Absent}
#: Cell types ``str`` renders as ``repr`` does.
_NUMBER_TYPES = {int, float}
#: The lexemes of the two booleans, and the blank cells kept as they are.
_BOOLEANS = {True: "true", False: "false"}
_BLANKS = {None: None, ABSENT: ABSENT}
#: How cells of each exact non-text type are rendered; any other with ``lexeme_of``.
_RENDER = {int: repr, float: repr, bool: _BOOLEANS.__getitem__}


def _lexemes(cells: Sequence) -> Sequence:
    """A column's cells as lexemes, rendered in bulk by exact type as
    ``lexeme_of`` renders each.  A column holding both booleans and
    numbers, or any other type, is mapped by identity, not by value:
    ``True == 1 == 1.0`` and ``0.0 == -0.0`` are one dict key, a list is
    none, and ``bool`` is a subclass of ``int``."""
    kinds = set(map(type, cells))
    if kinds <= _LEXEME_TYPES:
        return cells
    odd = kinds - _LEXEME_TYPES
    if odd == {bool}:
        return list(map(_BOOLEANS.get, cells, cells))
    if odd <= _NUMBER_TYPES:
        # ``str`` gives text as it is, and ints and floats as ``repr`` does.
        return list(map(_BLANKS.get, cells, map(str, cells)))
    lexemes: dict = {}
    for kind in odd:
        picked = list(compress(cells, map(is_, map(type, cells), repeat(kind))))
        lexemes.update(zip(map(id, picked), map(_RENDER.get(kind, lexeme_of), picked)))
    return list(map(lexemes.get, map(id, cells), cells))


def _runs_of(tally: Counter) -> list[tuple[str, int]]:
    """The ``class_runs`` of a tally's cells in its order, a null or
    ``ABSENT`` read as the empty lexeme."""
    lexemes = list(tally)
    for blank in (None, ABSENT):
        if blank in tally:
            lexemes[lexemes.index(blank)] = ""
    return class_runs(lexemes)


class Table(Sequence):
    """Every row of a source, held a column at a time.

    ``columns`` names the columns in first-seen order, and each column is a
    tuple of lexemes: ``None`` for null and :data:`ABSENT` where a row lacks
    the key.  As a sequence a table gives row dicts, built on demand, each
    with the keys present on its row in that row's own order; it equals a
    list of the same dicts.  A table is immutable, so what is computed from
    it holds: ``tally`` and ``runs`` compute a column's summary once and
    keep it, and ``kept`` does so for any other value.
    """

    def __init__(self, columns, cells, length: int, key_orders: dict | None = None):
        self.columns = tuple(columns)
        self._cells = dict(zip(self.columns, cells))
        self._length = length
        # Row index -> that row's keys, for rows whose keys are not in column order.
        self._key_orders = key_orders or {}
        self._kept: dict = {}

    @classmethod
    def from_rows(cls, rows) -> "Table":
        """The table of a list of row dicts, whose values are read as lexemes
        with ``lexeme_of``; a :class:`Table` is returned as it is."""
        if isinstance(rows, Table):
            return rows
        columns = _Columns()
        columns.add_rows(rows)
        return columns.table()

    def column(self, name: str) -> tuple:
        """The cells of column ``name``; all ``ABSENT`` for a name the table
        lacks."""
        cells = self._cells.get(name)
        return (ABSENT,) * self._length if cells is None else cells

    def kept(self, key, compute: Callable, *args):
        """``compute(*args)``, called on the first use of ``key`` and kept
        for every later one, so callers must not change what it returns."""
        value = self._kept.get(key, ABSENT)
        if value is ABSENT:
            value = self._kept[key] = compute(*args)
        return value

    def tally(self, name: str) -> Counter:
        """The cells of column ``name`` counted, in first-seen order; kept
        under a key led by a function, which no column name equals."""
        return self.kept((Counter, name), lambda: Counter(self.column(name)))

    def runs(self, name: str) -> list[tuple[str, int]]:
        """``_runs_of`` the tally of column ``name``; kept as ``tally`` is."""
        return self.kept((_runs_of, name), _runs_of, self.tally(name))

    def _row(self, index: int) -> dict:
        cells = self._cells
        return {name: cell for name in self._key_orders.get(index, self.columns)
                if (cell := cells[name][index]) is not ABSENT}

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(self._length))]
        position = index + self._length if index < 0 else index
        if not 0 <= position < self._length:
            raise IndexError("table row index out of range")
        return self._row(position)

    def __iter__(self):
        return map(self._row, range(self._length))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Table, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Table(columns={list(self.columns)!r}, rows={self._length})"


def profile_column(values: Sequence, name: str = "",
                   value_cap: int = IngestOptions.value_cap) -> ColumnProfile:
    """Profile one column given its raw lexemes (``None``, ``""`` and
    ``ABSENT`` = null); any other non-text cell is read with ``lexeme_of``.
    ``sample_values`` keeps the first ``value_cap`` distinct non-null
    lexemes in first-seen order, so small value domains are kept whole."""
    cells = tuple(_lexemes(list(values)))
    table = Table([name], [cells], len(cells))
    return profile_table(table, DELIMITED, IngestOptions(value_cap=value_cap)).columns[0]


def _pieces(source):
    """A source a block at a time: text sliced, a handle read, and any other
    bytes-like object sliced as bytes."""
    size = _BLOCK_SIZE
    if isinstance(source, str):
        return (source[start:start + size] for start in range(0, len(source), size))
    if hasattr(source, "read"):
        def reads():
            while piece := source.read(size):
                yield piece
        return reads()
    view = memoryview(source).cast("B")
    return (view[start:start + size] for start in range(0, len(view), size))


def _utf8_error(exc: UnicodeDecodeError, shift: int) -> IngestError:
    """The error decoding the whole input at once gives, for ``exc`` raised
    by a decoder that had read ``shift`` bytes before ``exc.object``."""
    if exc.end == exc.start + 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {exc.start + shift}"
    else:
        where = f"bytes in position {exc.start + shift}-{exc.end - 1 + shift}"
    return IngestError(f"input is not valid UTF-8: 'utf-8' codec can't decode {where}: "
                       f"{exc.reason}")


class _Text:
    """The text of a source as an iterator of blocks: text as it is, and
    bytes decoded as UTF-8, a multi-byte character cut by a block carried
    over to the next.

    ``blank`` holds while every block read was whitespace, and ``failure``
    is the exception reading the source raised, if any.
    """

    def __init__(self, source):
        self.blank = True
        self.failure: Exception | None = None
        self._blocks = self._decode(_pieces(source))

    def __iter__(self):
        return self._blocks

    def _decode(self, pieces):
        rest = b""  # the start of a character the last piece cut
        fed = 0
        try:
            for piece in chain(pieces, [b""]):
                if isinstance(piece, str):
                    block = piece
                else:
                    fed += len(piece)
                    data = rest + piece if rest else piece
                    try:
                        block, used = codecs.utf_8_decode(data, "strict", not piece)
                    except UnicodeDecodeError as exc:
                        raise _utf8_error(exc, fed - len(data)) from exc
                    rest = bytes(data[used:])
                if block:
                    self.blank = self.blank and block.isspace()
                    yield block
        except Exception as exc:
            self.failure = exc
            raise


def _csv_split(text: str) -> list[str]:
    """The lines ``newline=""`` splits ``text`` into, each ending at LF,
    CRLF or a bare CR; the last item is what may go on past ``text``,
    which includes a line ending in CR, for a LF may follow it."""
    lines = io.StringIO(text, newline="").readlines()
    if lines[-1][-1] == "\n":
        lines.append("")
    return lines


def _lines(text: _Text, split, ends: str):
    """The lines of ``text``, one block's worth of lines at a time, each cut
    by ``split``, which returns a block's unfinished last line last.  Blocks
    without any of the line ends ``ends`` are only collected, so a line
    longer than a block is joined once."""
    pending: list[str] = []
    for block in text:
        pending.append(block)
        if any(map(block.__contains__, ends)):
            lines = split("".join(pending))
            pending = [lines.pop()]
            yield lines
    if rest := "".join(pending):
        yield list(filter(None, split(rest)))


def _frozen(column: list) -> tuple:
    """A column's cells as a tuple, its list emptied so both are not kept."""
    cells = tuple(column)
    column.clear()
    return cells


class _Columns:
    """The column store of a source being read, a chunk of rows at a time.

    Columns keep their first-seen order over all chunks, and a row whose
    keys are out of that order has them kept under its index in the whole
    table, so ``table`` returns the table the rows of every chunk make at
    once.  With a ``row_cap`` each column is also a tally, the ``Counter``
    of all its cells in first-seen order, and only the first ``row_cap``
    rows are kept: ``table`` then holds those rows alone.
    """

    def __init__(self, row_cap: int | None = None):
        self.cells: dict[str, list] = {}
        self.tallies: dict[str, Counter] | None = None if row_cap is None else {}
        self.length = 0
        self._cap = float("inf") if row_cap is None else row_cap
        self._positions: dict[str, int] = {}
        self._key_orders: dict[int, tuple] = {}
        # Key sequence -> itself where out of column order, else None.
        self._orders: dict[tuple, tuple | None] = {}

    def _kept(self, rows: int) -> int:
        """How many of ``rows`` rows added next the store keeps as cells."""
        return max(0, min(rows, self._cap - self.length))

    def add_column(self, name: str) -> None:
        """Start a column that is ``ABSENT`` on every row so far."""
        self._positions[name] = len(self._positions)
        self.cells[name] = [ABSENT] * min(self.length, self._cap)
        if self.tallies is not None:
            self.tallies[name] = Counter([ABSENT] * self.length)

    def _extend(self, pulled, rows: int) -> None:
        """Add ``rows`` rows given as one sequence of cells per column, in
        column order."""
        kept = self._kept(rows)
        for name, cells in zip(self.cells, pulled):
            if self.tallies is not None:
                self.tallies[name].update(cells)
            self.cells[name].extend(cells[:kept] if kept < rows else cells)
        self.length += rows

    def add_records(self, records: list[list[str]], nulls: dict) -> None:
        """Add delimited records, one cell per column in column order; a
        cell in ``nulls`` becomes ``None``."""
        self._extend([list(map(nulls.get, cells, cells)) for cells in zip(*records)],
                     len(records))

    def add_rows(self, rows: list[dict], shapes: dict | None = None) -> None:
        """Add row dicts, whose values are read as lexemes as ``_lexemes``
        renders them; a key first seen here starts a column that is
        ``ABSENT`` on every earlier row.  A caller that has the rows' distinct
        key tuples in first-seen order passes them as ``shapes``."""
        positions, orders = self._positions, self._orders
        if shapes is None:
            if not set(map(type, rows)) <= {dict}:
                rows = list(map(dict, rows))  # so that ``dict.get`` reads each
            shapes = dict.fromkeys(map(tuple, rows))
        for shape in shapes:
            if shape in orders:
                continue
            for key in shape:
                if key not in positions:
                    self.add_column(key)
            at = [positions[key] for key in shape]
            orders[shape] = shape if at != sorted(at) else None
        if any(map(orders.get, shapes)):
            self._key_orders.update({self.length + index: order for index, order in enumerate(
                map(orders.get, map(tuple, islice(rows, self._kept(len(rows)))))) if order})
        names = list(self.cells)
        if len(rows) < len(names):  # short and wide: a row at a time, then transposed
            pulled = zip(*[list(map(row.get, names, repeat(ABSENT))) for row in rows])
        else:
            pulled = (list(map(dict.get, rows, repeat(name), repeat(ABSENT))) for name in names)
        self._extend(map(_lexemes, pulled), len(rows))

    def table(self) -> "Table":
        return Table(self.cells, map(_frozen, self.cells.values()), min(self.length, self._cap),
                     self._key_orders)


def _read_delimited(text: _Text, options: IngestOptions, columns: _Columns) -> None:
    if len(options.delimiter) != 1:
        raise IngestError(f"delimiter must be one character, got {options.delimiter!r}")
    # ``newline=""`` leaves line ends to the reader, so a bare CR ends a
    # line as CRLF and LF do, and a quoted one stays in its cell.
    reader = csv.reader(chain.from_iterable(_lines(text, _csv_split, "\r\n")),
                        delimiter=options.delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError("no data")
        for name in map(str.strip, header):
            if name in columns.cells:
                raise IngestError(f"duplicate column name {name!r} after normalization")
            columns.add_column(name)
        nulls = dict.fromkeys(["", *options.null_tokens])
        records: list[list[str]] = []
        for index, record in enumerate(reader):
            if not record:  # blank line, not a record
                continue
            if len(record) != len(header):
                raise IngestError(f"ragged row {index + 1} (line {reader.line_num}): "
                                  f"expected {len(header)} cells, got {len(record)}")
            records.append(record)
            if len(records) == _CHUNK_ROWS:
                columns.add_records(records, nulls)
                records = []
    except csv.Error as exc:
        raise IngestError(f"malformed delimited line {reader.line_num}: {exc}") from None
    columns.add_records(records, nulls)


def _flatten(obj: dict, depth: int, line_no: int) -> dict:
    flat: dict = {}
    for key, value in obj.items():
        name = str(key).strip()
        if isinstance(value, dict) and depth > 0 and value:
            for inner_key, inner_value in _flatten(value, depth - 1, line_no).items():
                path = f"{name}.{inner_key}"
                if path in flat:
                    raise IngestError(f"line {line_no}: duplicate key {path!r} after normalization")
                flat[path] = inner_value
        else:
            if name in flat:
                raise IngestError(f"line {line_no}: duplicate key {name!r} after normalization")
            flat[name] = value
    return flat


def _row_of(obj: dict, line_no: int, depth: int) -> dict:
    """``obj``, read from ndjson line ``line_no``, as a row: flattened to
    ``depth``, the lists and objects left in it rendered here, so that
    nesting too deep for ``_flatten`` or the encoder is this line's error."""
    try:
        return {key: lexeme_of(value) if type(value) in (list, dict) else value
                for key, value in _flatten(obj, depth, line_no).items()}
    except RecursionError:
        raise IngestError(f"ndjson line {line_no}: nesting too deep to read") from None


#: The scanner ``json.loads`` runs: one call reads the JSON value that
#: starts at an index of a text, and returns it and the index after it.
_scan = json.JSONDecoder().scan_once


def _whole_lines(text: str) -> list[str]:
    """``text`` cut after its last LF: its whole lines, then the rest."""
    cut = text.rfind("\n") + 1
    return [text[:cut], text[cut:]]


def _row_of_line(line: str, line_no: int, depth: int) -> dict | None:
    """The row of one ndjson line read alone, or ``None`` for a blank line."""
    line = line[:-1] if line.endswith("\r") else line
    if not line.strip():
        return None
    obj = parse_json(line, IngestError, f"ndjson line {line_no}")
    if not isinstance(obj, dict):
        raise IngestError(f"malformed ndjson line {line_no}: not a JSON object")
    return _row_of(obj, line_no, depth)


class _NdjsonReader:
    """Reads ndjson text, a piece of whole lines at a time, into a column store.

    Each line is decoded with one call of the scanner at its start.  A line
    that holds an object and nothing else, but for one CR before its LF,
    joins a run of such objects; any other line ends the run and is read
    alone with ``_row_of_line``.  A run's objects are rows as they are,
    except those whose line holds a bracket or a second brace or whose key
    tuple, checked once per distinct tuple, holds an untrimmed key, which go
    through ``_row_of``.  Rows go to the store once they number ``_CHUNK_ROWS``.
    """

    def __init__(self, depth: int, columns: _Columns):
        self._columns = columns
        self._depth = depth
        self._lines_read = 0
        self.rows: list[dict] = []
        self.shapes: dict[tuple, None] = {}  # the distinct key tuples of ``rows``
        self._trimmed: dict[tuple, bool] = {}  # key tuple -> whether every key is trimmed

    def read(self, piece: str) -> None:
        """Read a piece of text that ends at a LF, or at the end of the text."""
        if piece[-1] != "\n":  # the last line of the text
            piece += "\n"
        find, at, size = piece.find, 0, len(piece)
        objs: list[dict] = []
        nested: list[int] = []  # the indices of the objects whose line holds a bracket or brace
        while at < size:
            stop = find("\n", at)
            try:
                obj, end = _scan(piece, at)
            except (StopIteration, ValueError, RecursionError):  # no value, or a malformed one
                obj = end = None
            # A line may end in one CR before its LF, which is dropped.
            if (end == stop or end == stop - 1 and piece[end] == "\r") and type(obj) is dict:
                if find("{", at + 1, stop) >= 0 or find("[", at, stop) >= 0:
                    nested.append(len(objs))
                objs.append(obj)
            else:
                self._take(objs, nested)
                objs, nested = [], []
                self._alone(piece[at:stop])
            at = stop + 1
        self._take(objs, nested)
        if len(self.rows) >= _CHUNK_ROWS:
            self._columns.add_rows(self.rows, self.shapes)
            self.rows, self.shapes = [], {}

    def _alone(self, line: str) -> None:
        self._lines_read += 1
        row = _row_of_line(line, self._lines_read, self._depth)
        if row is not None:
            self.rows.append(row)
            self.shapes[tuple(row)] = None

    def _take(self, objs: list[dict], nested: list[int]) -> None:
        """Keep a run of objects the scanner read, one to a line, making rows
        with ``_row_of`` of those at the indices ``nested`` and those holding
        an untrimmed key."""
        shapes = dict.fromkeys(map(tuple, objs))
        trimmed = self._trimmed
        for shape in shapes:
            if shape not in trimmed:
                trimmed[shape] = all(map(eq, shape, map(str.strip, shape)))
        flat = set(nested)
        if not all(map(trimmed.__getitem__, shapes)):
            flat.update(compress(count(), map(not_, map(trimmed.__getitem__, map(tuple, objs)))))
        if flat:
            for index in sorted(flat):
                objs[index] = _row_of(objs[index], self._lines_read + index + 1, self._depth)
            shapes = dict.fromkeys(map(tuple, objs))
        self._lines_read += len(objs)
        self.rows += objs
        self.shapes.update(shapes)


def _read_ndjson(text: _Text, options: IngestOptions, columns: _Columns) -> None:
    reader = _NdjsonReader(options.flatten_depth, columns)
    # Lines end at LF alone: JSON strings may hold U+2028, U+2029 and U+0085
    # raw, at which ``str.splitlines`` would also break.
    for piece in chain.from_iterable(_lines(text, _whole_lines, "\n")):
        reader.read(piece)
    columns.add_rows(reader.rows, reader.shapes)
    if not columns.length:
        raise IngestError("no data")


def _read(source, source_format: str, options: IngestOptions, columns: _Columns) -> _Columns:
    """Read every row of a source into the column store ``columns``."""
    options.validate()
    if source_format not in SOURCE_FORMATS:
        raise IngestError(f"unknown source format {source_format!r}")
    text = _Text(source)
    try:
        (_read_delimited if source_format == DELIMITED else _read_ndjson)(text, options, columns)
    except Exception as exc:
        # Errors come in the order of decoding the whole text, checking that
        # it is not blank, then reading it: so the rest of the source is read
        # through, and a decoding error there, or a blank text, wins.
        if exc is not text.failure:
            for _ in text:
                pass
            if text.blank:
                raise IngestError("no data") from None
        raise
    if text.blank:
        raise IngestError("no data")
    return columns


def read_table(source, source_format: str,
               options: IngestOptions | None = None) -> tuple[list[str], Table]:
    """Read every row of a source as (column names, :class:`Table`).

    The source is text, bytes or any bytes-like object, or a handle that
    reads either; bytes are UTF-8.  It is read ``_BLOCK_SIZE`` characters
    or bytes at a time, and every ``_CHUNK_ROWS`` rows are appended to the
    table's columns, so besides the table a read holds one block and one
    chunk.  Cells are lexemes or ``None``; an ndjson row lacks the keys
    absent on its line.  ``list(table)`` gives the rows as dicts.
    """
    table = _read(source, source_format, options or IngestOptions(), _Columns()).table()
    return list(table.columns), table


def _column_profile(name: str, length: int, tally: Counter, runs: list[tuple[str, int]],
                    value_cap: int) -> ColumnProfile:
    """The profile of a column of ``length`` cells from its tally, in
    first-seen order, and the tally's ``_runs_of``."""
    # The runs follow the tally's order, so each run's counts are the next
    # ones in the tally, and the histogram keeps that order.
    counts = iter(tally.values())
    histogram: dict[str, int] = {}
    for cls, k in runs:
        histogram[cls] = histogram.get(cls, 0) + sum(islice(counts, k))
    blanks = (None, "", ABSENT)
    return ColumnProfile(name, length, sum(map(tally.__getitem__, blanks)),
                         len(tally) - sum(map(tally.__contains__, blanks)),
                         list(islice((cell for cell in tally if cell and cell is not ABSENT),
                                     value_cap)), histogram)


def profile_table(table: Table, source_format: str, options: IngestOptions | None = None,
                  dataset_name: str = "dataset") -> DataProfile:
    """Profile a table read from a ``source_format`` source from the column
    summaries it keeps, so a table already validated is not tallied or
    classified again.  Columns appear in the table's first-seen order."""
    options = options or IngestOptions()
    options.validate()
    return DataProfile(dataset_name, len(table), [
        _column_profile(name, len(table), table.tally(name), table.runs(name), options.value_cap)
        for name in table.columns], source_format, table[: options.row_cap])


def ingest(source, source_format: str, options: IngestOptions | None = None,
           dataset_name: str = "dataset") -> DataProfile:
    """Profile a source: the ``profile_table`` of its ``read_table`` table,
    made without building that table.  Each chunk of rows is counted into
    one running tally per column, and only the first ``row_cap`` rows are
    kept, for the sample rows."""
    options = options or IngestOptions()
    columns = _read(source, source_format, options, _Columns(options.row_cap))
    return DataProfile(dataset_name, columns.length, [
        _column_profile(name, columns.length, tally, _runs_of(tally), options.value_cap)
        for name, tally in columns.tallies.items()], source_format, list(columns.table()))
