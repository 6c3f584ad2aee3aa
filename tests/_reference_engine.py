"""Reference copies of the per-cell engines the column-at-a-time ones replaced.

Independent of ``validation``, ``expectations``, ``profiling`` and
``lexical`` internals: row validation runs ``_check_field`` per cell, rule
evaluation runs ``_value_passes`` per value, ``classify_lexeme`` is the
regex ladder, and ``profile_column`` classifies every cell, exactly as
before.  The readers build rows cell by cell as before, and the repair
chain's ``_balanced_span`` and ``remove_trailing_commas`` each scan string
literals with their own loop.  Used only by the differential tests, which
require the live engine to produce the same reports, profiles, rows and
repaired text.  Numbers are read with plain ``int``/``float``,
so inputs must stay within the int-string digit limit.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import re

from contractforge import lexical
from contractforge.errors import ContractForgeError, IngestError, parse_json
from contractforge.expectations import RuleResult
from contractforge.lexical import BOOLEAN, DATE, EMPTY, INTEGER, NUMBER, STRING, TIMESTAMP
from contractforge.model import TYPES, Contract, QualityRule
from contractforge.profiling import (DELIMITED, SOURCE_FORMATS, ColumnProfile, DataProfile,
                                     IngestOptions, _decode, lexeme_of)
from contractforge.validation import (ENUM_VIOLATION, MISSING_FIELD, NULL_VIOLATION,
                                      RANGE_VIOLATION, TYPE_MISMATCH, UNKNOWN_FIELD,
                                      ValidationReport, Violation)


def _numeric_value(lexeme: str, cls: str) -> int | float:
    return int(lexeme) if cls == lexical.INTEGER else float(lexeme)


def _check_field(spec, value, row_index: int, out: list[Violation]) -> None:
    if value is None:
        if not spec.nullable:
            out.append(Violation(row_index, spec.name, NULL_VIOLATION, "null"))
        return
    lexeme = lexeme_of(value)
    cls = classify_lexeme(lexeme)
    if not lexical.is_subclass(cls, TYPES[spec.logical_type].lattice):
        out.append(Violation(row_index, spec.name, TYPE_MISMATCH, lexeme))
        return
    if cls == lexical.EMPTY:
        return
    c = spec.constraints
    if spec.logical_type == "enum_string" and c is not None and c.allowed_values is not None:
        if lexeme not in c.allowed_values:
            out.append(Violation(row_index, spec.name, ENUM_VIOLATION, lexeme))
    elif c is not None and cls in (lexical.INTEGER, lexical.NUMBER):
        number = _numeric_value(lexeme, cls)
        if (c.min_value is not None and number < c.min_value) or \
                (c.max_value is not None and number > c.max_value):
            out.append(Violation(row_index, spec.name, RANGE_VIOLATION, lexeme))


def validate_rows(contract: Contract, rows: list[dict],
                  allow_unknown: bool = False) -> ValidationReport:
    known = {f.name for f in contract.fields}
    violations: list[Violation] = []
    rows_passed = 0
    for index, row in enumerate(rows):
        before = len(violations)
        for spec in contract.fields:
            if spec.name not in row:
                if not spec.nullable:
                    violations.append(Violation(index, spec.name, MISSING_FIELD, ""))
                continue
            _check_field(spec, row[spec.name], index, violations)
        if not allow_unknown:
            for key, value in row.items():
                if key not in known:
                    observed = "null" if value is None else lexeme_of(value)
                    violations.append(Violation(index, key, UNKNOWN_FIELD, observed))
        if len(violations) == before:
            rows_passed += 1
    return ValidationReport(rows_checked=len(rows), rows_passed=rows_passed,
                            violations=violations)


def _column_lexemes(rows: list[dict], column: str) -> list[str | None]:
    out: list[str | None] = []
    for row in rows:
        value = row.get(column)
        out.append(None if value is None else lexeme_of(value))
    return out


def evaluate_rules(rules: list[QualityRule], rows: list[dict]) -> list[RuleResult]:
    results: list[RuleResult] = []
    for rule in rules:
        lexemes = _column_lexemes(rows, rule.column)
        failed = 0
        if rule.kind == "not_null":
            failed = sum(1 for v in lexemes if v is None)
        elif rule.kind == "unique":
            seen: dict[str, int] = {}
            for v in lexemes:
                if v is None or v == "":
                    continue
                seen[v] = seen.get(v, 0) + 1
            failed = sum(n - 1 for n in seen.values())
        else:
            for v in lexemes:
                if v is None or v == "":
                    continue
                if not _value_passes(rule, v):
                    failed += 1
        results.append(RuleResult(rule=rule, rows_failed=failed))
    return results


def _value_passes(rule: QualityRule, lexeme: str) -> bool:
    if rule.kind == "values_in_set":
        return lexeme in rule.params["values"]
    if rule.kind == "between":
        cls = classify_lexeme(lexeme)
        if cls == lexical.INTEGER:
            value: int | float = int(lexeme)
        elif cls == lexical.NUMBER:
            value = float(lexeme)
        else:
            return False
        return rule.params["min"] <= value <= rule.params["max"]
    if rule.kind == "matches_format":
        return classify_lexeme(lexeme) == rule.params["format"]
    raise ContractForgeError(f"unknown rule kind {rule.kind!r}")


# -- lexical: the classifier ladder ----------------------------------------------

_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")
_TIMESTAMP_RE = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})"          # date part
    r"T([0-9]{2}):([0-9]{2})"                # hours:minutes
    r"(?::([0-9]{2})(?:\.[0-9]+)?)?"         # optional seconds + fraction
    r"(?:[Zz]|[+-][0-9]{2}:?[0-9]{2})?\Z"    # optional zone
)


def _valid_date(text: str) -> bool:
    try:
        _dt.date.fromisoformat(text)
    except ValueError:
        return False
    return True


def classify_lexeme(lexeme: str) -> str:
    if lexeme == "":
        return EMPTY
    if lexeme.lower() in ("true", "false"):
        return BOOLEAN
    if _INTEGER_RE.match(lexeme):
        return INTEGER
    if _NUMBER_RE.match(lexeme):
        return NUMBER
    if _DATE_RE.match(lexeme):
        return DATE if _valid_date(lexeme) else STRING
    m = _TIMESTAMP_RE.match(lexeme)
    if m:
        if not _valid_date(m.group(1)):
            return STRING
        hour, minute = int(m.group(2)), int(m.group(3))
        second = int(m.group(4)) if m.group(4) else 0
        if hour < 24 and minute < 60 and second < 60:
            return TIMESTAMP
        return STRING
    return STRING


# -- profiling: per-cell profile and row-by-row readers ---------------------------

def profile_column(values: list, name: str = "", value_cap: int = 20) -> ColumnProfile:
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


# The repair chain's two string-literal scanners, each with its own loop.


def _balanced_span(text: str, open_char: str, close_char: str) -> str | None:
    """First balanced span between the delimiters, string-literal aware.

    Single pass: the span of the earliest opener that gets matched, so
    openers that never close are skipped and nesting picks the outermost.
    """
    stack: list[int] = []
    best: tuple[int, int] | None = None
    in_string = False
    escaped = False
    for pos, ch in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == open_char:
            stack.append(pos)
        elif ch == close_char and stack:
            start = stack.pop()
            if best is None or start < best[0]:
                best = (start, pos)
    if best is None:
        return None
    return text[best[0]:best[1] + 1]


def remove_trailing_commas(text: str) -> str:
    """Drop commas that directly precede a closer, outside string literals."""
    out: list[str] = []
    in_string = False
    escaped = False
    for ch in text:
        if in_string:
            out.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
            out.append(ch)
            continue
        if ch in "}]":
            # walk back over whitespace to find a trailing comma
            idx = len(out) - 1
            while idx >= 0 and out[idx] in " \t\r\n":
                idx -= 1
            if idx >= 0 and out[idx] == ",":
                del out[idx]
        out.append(ch)
    return "".join(out)
