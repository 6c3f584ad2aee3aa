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
of lexemes per column and keeps one summary per column: the tally of its
cells and the ``lexical.class_runs`` of its distinct cells, each computed on
first use.  ``profile_table``, row validation and rule evaluation all read
that summary, so a table is tallied and classified once per column, after
the shared per-column metrics of Deequ (Schelter et al., VLDB 2018).
``ingest`` is ``read_table`` followed by ``profile_table``, and
``profile_column`` profiles a one-column table.  Read as a sequence, a table
gives the row dicts of the public API, built on demand.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

from .errors import IngestError, dump_json, parse_json
from .lexical import class_runs

DELIMITED = "delimited"
NDJSON = "ndjson"
SOURCE_FORMATS = (DELIMITED, NDJSON)

#: Sampled values kept per column and sample rows kept per profile.  Small on
#: purpose: profiles feed prompts, and prompts for wide tables get long fast.
DEFAULT_VALUE_CAP = 20
DEFAULT_ROW_CAP = 10


@dataclass
class IngestOptions:
    delimiter: str = ","
    value_cap: int = DEFAULT_VALUE_CAP
    row_cap: int = DEFAULT_ROW_CAP
    flatten_depth: int = 1
    null_tokens: list[str] = field(default_factory=list)


def _check_options(options: IngestOptions) -> None:
    for name in ("value_cap", "row_cap", "flatten_depth"):
        value = getattr(options, name)
        if type(value) is not int or value < 0:
            raise IngestError(f"{name} must be a non-negative integer, got {value!r:.40}")
    tokens = options.null_tokens
    if not isinstance(tokens, (list, tuple)) or not all(isinstance(t, str) for t in tokens):
        raise IngestError(f"null_tokens must be a list of strings, got {tokens!r:.40}")


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
    if value is None:
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
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


def _lexemes(cells: tuple) -> tuple:
    """A column's cells as lexemes.  A column of text and nulls is returned
    as it is; any other is read with ``lexeme_of``, because ``True``, ``1``
    and ``1.0`` are one dict key and lists are none; ``ABSENT`` stays."""
    if set(map(type, cells)) <= _LEXEME_TYPES:
        return cells
    return tuple([cell if cell is ABSENT else lexeme_of(cell) for cell in cells])


class Table(Sequence):
    """Every row of a source, held a column at a time.

    ``columns`` names the columns in first-seen order, and each column is a
    tuple of lexemes: ``None`` for null and :data:`ABSENT` where a row lacks
    the key.  As a sequence a table gives row dicts, built on demand, each
    with the keys present on its row in that row's own order; it equals a
    list of the same dicts.  A table is immutable, so ``tally`` and ``runs``
    compute a column's summary once and keep it.
    """

    def __init__(self, columns, cells, length: int, key_orders: dict | None = None):
        self.columns = tuple(columns)
        self._cells = dict(zip(self.columns, cells))
        self._length = length
        # Row index -> that row's keys, for rows whose keys are not in column order.
        self._key_orders = key_orders or {}
        self._tallies: dict[str, Counter] = {}
        self._runs: dict[str, list[tuple[str, int]]] = {}

    @classmethod
    def from_rows(cls, rows) -> "Table":
        """The table of a list of row dicts, whose values are read as lexemes
        with ``lexeme_of``; a :class:`Table` is returned as it is."""
        if isinstance(rows, Table):
            return rows
        shapes = dict.fromkeys(map(tuple, rows))  # each distinct key sequence
        positions: dict = {}  # column name -> first-seen position
        unordered: dict[tuple, tuple] = {}  # key sequences not in column order
        for keys in shapes:
            for key in keys:
                positions.setdefault(key, len(positions))
            at = [positions[key] for key in keys]
            if at != sorted(at):
                unordered[keys] = keys
        key_orders = {index: shared for index, keys in enumerate(map(tuple, rows))
                      if (shared := unordered.get(keys))} if unordered else {}
        cells = [_lexemes(tuple(row.get(name, ABSENT) for row in rows)) for name in positions]
        return cls(positions, cells, len(rows), key_orders)

    def column(self, name: str) -> tuple:
        """The cells of column ``name``; all ``ABSENT`` for a name the table
        lacks."""
        cells = self._cells.get(name)
        return (ABSENT,) * self._length if cells is None else cells

    def tally(self, name: str) -> Counter:
        """The cells of column ``name`` counted, in first-seen order;
        computed on first use and kept, so callers must not change it."""
        tally = self._tallies.get(name)
        if tally is None:
            tally = self._tallies[name] = Counter(self.column(name))
        return tally

    def runs(self, name: str) -> list[tuple[str, int]]:
        """The ``class_runs`` of column ``name``'s distinct cells in tally
        order, a null or ``ABSENT`` read as the empty lexeme; computed on
        first use and kept, so callers must not change it."""
        runs = self._runs.get(name)
        if runs is None:
            lexemes = [cell if isinstance(cell, str) else "" for cell in self.tally(name)]
            runs = self._runs[name] = class_runs(lexemes)
        return runs

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
                   value_cap: int = DEFAULT_VALUE_CAP) -> ColumnProfile:
    """Profile one column given its raw lexemes (``None``, ``""`` and
    ``ABSENT`` = null); any other non-text cell is read with ``lexeme_of``.

    Counts are exact over the full list; ``sample_values`` keeps the first
    ``value_cap`` *distinct* non-null lexemes in first-seen order, so small
    value domains are retained completely.
    """
    cells = _lexemes(tuple(values))
    table = Table([name], [cells], len(cells))
    return profile_table(table, DELIMITED, IngestOptions(value_cap=value_cap)).columns[0]


def _decode(source) -> str:
    if isinstance(source, bytes):
        data = source
    elif isinstance(source, str):
        data = source.encode("utf-8")
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not valid UTF-8: {exc}") from exc


def _read_delimited(text: str, options: IngestOptions) -> Table:
    if len(options.delimiter) != 1:
        raise IngestError(f"delimiter must be one character, got {options.delimiter!r}")
    # ``newline=""`` leaves line ends to the reader, so a bare CR ends a
    # line as CRLF and LF do, and a quoted one stays in its cell.
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
            if not record:  # blank line, not a record
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


def _read_ndjson(text: str, options: IngestOptions) -> Table:
    rows: list[dict] = []
    # Lines end at LF alone: JSON strings may hold U+2028, U+2029 and U+0085
    # raw, at which ``str.splitlines`` would also break.
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line[:-1] if line.endswith("\r") else line
        if not line.strip():
            continue
        obj = parse_json(line, IngestError, f"ndjson line {line_no}")
        if not isinstance(obj, dict):
            raise IngestError(f"malformed ndjson line {line_no}: not a JSON object")
        # An object holds a nested object only if its line holds a second
        # brace; a flat one with stripped keys is already a row.
        if line.count("{") > 1 or not all(key == key.strip() for key in obj):
            obj = _flatten(obj, options.flatten_depth, line_no)
        rows.append(obj)
    if not rows:
        raise IngestError("no data")
    return Table.from_rows(rows)


def read_table(source, source_format: str,
               options: IngestOptions | None = None) -> tuple[list[str], Table]:
    """Read every row of a source as (column names, :class:`Table`).

    Cells are lexemes or ``None``; an ndjson row lacks the keys absent on
    its line.  Used by ingest and by row-level validation, which needs all
    rows rather than the capped profile sample; ``list(table)`` gives the
    rows as dicts.
    """
    options = options or IngestOptions()
    _check_options(options)
    if source_format not in SOURCE_FORMATS:
        raise IngestError(f"unknown source format {source_format!r}")
    text = _decode(source)
    if not text.strip():
        raise IngestError("no data")
    if source_format == DELIMITED:
        table = _read_delimited(text, options)
    else:
        table = _read_ndjson(text, options)
    return list(table.columns), table


def profile_table(table: Table, source_format: str, options: IngestOptions | None = None,
                  dataset_name: str = "dataset") -> DataProfile:
    """Profile a table read from a ``source_format`` source from the column
    summaries it keeps, so a table already validated is not tallied or
    classified again.  Columns appear in the table's first-seen order."""
    options = options or IngestOptions()
    _check_options(options)
    columns = []
    for name in table.columns:
        tally = table.tally(name)
        # The runs follow the tally's first-seen order, so each run's counts
        # are the next ones in the tally, and the histogram keeps that order.
        counts = iter(tally.values())
        histogram: dict[str, int] = {}
        for cls, k in table.runs(name):
            histogram[cls] = histogram.get(cls, 0) + sum(islice(counts, k))
        columns.append(ColumnProfile(
            name=name,
            total_count=len(table),
            null_count=tally[None] + tally[""] + tally[ABSENT],
            distinct_count=len(tally) - sum(map(tally.__contains__, (None, "", ABSENT))),
            sample_values=list(islice((cell for cell in tally if cell and cell is not ABSENT),
                                      options.value_cap)),
            lexical_histogram=histogram,
        ))
    return DataProfile(
        dataset_name=dataset_name,
        row_count=len(table),
        columns=columns,
        source_format=source_format,
        sample_rows=table[: options.row_cap],
    )


def ingest(source, source_format: str, options: IngestOptions | None = None,
           dataset_name: str = "dataset") -> DataProfile:
    """Profile a finite byte stream into a :class:`DataProfile`: the
    ``profile_table`` of its ``read_table``."""
    _, table = read_table(source, source_format, options)
    return profile_table(table, source_format, options, dataset_name)
