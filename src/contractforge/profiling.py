"""Turn raw data samples into the metadata representation generation consumes.

A :class:`DataProfile` is the single input to every generation path: column
names, per-column sampled values and counts, and a handful of sample rows.
Two source formats are supported, delimited text (header row required) and
ndjson (one JSON object per line, nested keys flattened to dot-joined paths).

Null conventions: in delimited input the empty cell is null (the literals
``"null"``/``"NA"`` are data unless listed in ``IngestOptions.null_tokens``);
in ndjson both explicit ``null`` and an absent key count as null.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .errors import IngestError, parse_json
from .lexical import classify_lexeme

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
        return cls(
            name=_checked(doc, "name", str),
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
        return profile


def dump_profile(profile: DataProfile) -> str:
    """Serialize to the profile file format: sorted keys, 2-space indent,
    newline-terminated.  Deterministic, so profiles round-trip byte-exactly."""
    return json.dumps(profile.to_doc(), indent=2, sort_keys=True, ensure_ascii=True) + "\n"


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


def profile_column(values: list, name: str = "",
                   value_cap: int = DEFAULT_VALUE_CAP) -> ColumnProfile:
    """Profile one column given its raw lexemes (``None`` or ``""`` = null).

    Counts are exact over the full list; ``sample_values`` keeps the first
    ``value_cap`` *distinct* non-null lexemes in first-seen order, so small
    value domains are retained completely.
    """
    histogram: dict[str, int] = {}
    null_count = 0
    distinct: dict[str, None] = {}
    for value in values:
        lexeme = "" if value is None else value
        cls = classify_lexeme(lexeme)
        histogram[cls] = histogram.get(cls, 0) + 1
        if lexeme == "":
            null_count += 1
        else:
            distinct.setdefault(lexeme)
    samples = list(distinct)[:value_cap]
    return ColumnProfile(
        name=name,
        total_count=len(values),
        null_count=null_count,
        distinct_count=len(distinct),
        sample_values=samples,
        lexical_histogram=histogram,
    )


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


def _read_delimited(text: str, options: IngestOptions) -> tuple[list[str], list[dict]]:
    if len(options.delimiter) != 1:
        raise IngestError(f"delimiter must be one character, got {options.delimiter!r}")
    reader = csv.reader(io.StringIO(text), delimiter=options.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("no data") from None
    columns = [name.strip() for name in header]
    seen: set[str] = set()
    for name in columns:
        if name in seen:
            raise IngestError(f"duplicate column name {name!r} after normalization")
        seen.add(name)
    null_tokens = set(options.null_tokens)
    rows: list[dict] = []
    for index, record in enumerate(reader):
        if not record:  # blank line, not a record
            continue
        if len(record) != len(columns):
            raise IngestError(
                f"ragged row {index + 1} (line {reader.line_num}): "
                f"expected {len(columns)} cells, got {len(record)}"
            )
        row: dict = {}
        for name, cell in zip(columns, record):
            row[name] = None if (cell == "" or cell in null_tokens) else cell
        rows.append(row)
    return columns, rows


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
            flat[name] = lexeme_of(value)
    return flat


def _read_ndjson(text: str, options: IngestOptions) -> tuple[list[str], list[dict]]:
    columns: list[str] = []
    seen: set[str] = set()
    rows: list[dict] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        obj = parse_json(line, IngestError, f"ndjson line {line_no}")
        if not isinstance(obj, dict):
            raise IngestError(f"malformed ndjson line {line_no}: not a JSON object")
        row = _flatten(obj, options.flatten_depth, line_no)
        for name in row:
            if name not in seen:
                seen.add(name)
                columns.append(name)
        rows.append(row)
    if not rows:
        raise IngestError("no data")
    return columns, rows


def read_table(source, source_format: str,
               options: IngestOptions | None = None) -> tuple[list[str], list[dict]]:
    """Read every row of a source as (column names, row maps).

    Row values are lexemes or ``None``; ndjson rows omit keys that were
    absent on that line.  Used by ingest and by row-level validation, which
    needs all rows rather than the capped profile sample.
    """
    options = options or IngestOptions()
    if source_format not in SOURCE_FORMATS:
        raise IngestError(f"unknown source format {source_format!r}")
    text = _decode(source)
    if not text.strip():
        raise IngestError("no data")
    if source_format == DELIMITED:
        return _read_delimited(text, options)
    return _read_ndjson(text, options)


def ingest(source, source_format: str, options: IngestOptions | None = None,
           dataset_name: str = "dataset") -> DataProfile:
    """Profile a finite byte stream into a :class:`DataProfile`.

    Deterministic: the same bytes and options always produce an identical
    profile.  Columns appear in first-seen order.
    """
    options = options or IngestOptions()
    columns, rows = read_table(source, source_format, options)
    profiles = [
        profile_column([row.get(name) for row in rows], name=name,
                       value_cap=options.value_cap)
        for name in columns
    ]
    return DataProfile(
        dataset_name=dataset_name,
        row_count=len(rows),
        columns=profiles,
        source_format=source_format,
        sample_rows=[dict(r) for r in rows[: options.row_cap]],
    )
