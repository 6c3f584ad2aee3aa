"""Check contract syntax, validate rows against a contract, detect drift.

Fields and quality rules share one engine: ``field_check`` and ``value_test``
compile a field or a value rule kind to a check of one ``(lexeme, class)``
pair that runs once per distinct lexeme, on the class the table already
holds.  An enum is the ``values_in_set`` test and a range the
``between`` test; nullability and the lattice type test (a lexeme conforms
when its class sits at or below the field type) are field-only.  Both pass
the empty lexeme and take only ``None``, never ``""``, as null; unlike
``between``, a field's range reads only numeric lexemes, and only when the
field has a bound.  Unknown row keys are violations unless ``allow_unknown``.

Validation reads the kept column tallies and class runs of a
:class:`~.profiling.Table` (a list of row dicts becomes one through
``Table.from_rows``), the summary profiling reads too: each distinct lexeme
of a field's column gets one verdict, and only a column holding a failing
lexeme or a missing key is walked again, to flag the rows that hold one.  ``validate_rows`` turns
those rows into violations; ``failing_rows`` only collects their indices,
unknown keys always included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat, starmap
from operator import attrgetter, is_not
from typing import Callable

from . import lexical
from .errors import ContractForgeError
from .inference import infer_column_type
from .model import Contract, FieldSpec, parse_contract
from .profiling import ABSENT, DataProfile, Table, lexeme_of

TYPE_MISMATCH = "type_mismatch"
NULL_VIOLATION = "null_violation"
ENUM_VIOLATION = "enum_violation"
RANGE_VIOLATION = "range_violation"
UNKNOWN_FIELD = "unknown_field"
MISSING_FIELD = "missing_field"

_ROW_INDEX = attrgetter("row_index")


@dataclass
class Violation:
    row_index: int
    field_name: str
    kind: str
    observed: str

    def to_doc(self) -> dict:
        return {"row_index": self.row_index, "field_name": self.field_name,
                "kind": self.kind, "observed": self.observed}


@dataclass
class ValidationReport:
    rows_checked: int
    rows_passed: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return self.rows_passed == self.rows_checked

    def to_doc(self) -> dict:
        return {"rows_checked": self.rows_checked, "rows_passed": self.rows_passed,
                "violations": [v.to_doc() for v in self.violations]}


def check_syntax(text: str) -> list[str]:
    """Diagnostics for contract text; empty list when it parses cleanly."""
    try:
        parse_contract(text)
    except ContractForgeError as exc:
        return [str(exc)]
    return []


def lattice_type(logical_type: str) -> str:
    """Map a field type onto the lexical lattice (enums are strings there)."""
    return lexical.STRING if logical_type == "enum_string" else logical_type


def value_test(kind: str, params: dict) -> Callable[[str, str], bool]:
    """Compile a value rule kind to its test of one non-empty lexeme and its
    class; a field range shares the bounds test of ``between``, with either
    bound ``None``."""
    if kind == "values_in_set":
        values = params["values"]
        return lambda lexeme, cls: lexeme in values
    if kind == "matches_format":
        fmt = params["format"]
        return lambda lexeme, cls: cls == fmt
    if kind != "between":
        raise ContractForgeError(f"unknown rule kind {kind!r}")
    within = _within(params["min"], params["max"])

    def between(lexeme: str, cls: str) -> bool:
        number = lexical.number_in_class(lexeme, cls)
        return number is not None and within(number)
    return between


def _within(lo, hi) -> Callable[[int | float], bool]:
    """The bounds test of ``between`` on a number; a ``None`` bound is open."""
    return lambda number: (lo is None or lo <= number) and (hi is None or number <= hi)


def field_check(spec: FieldSpec) -> Callable[[str | None, str | None], str | None]:
    """Compile a field to ``(lexeme, class) -> violation kind | None``, where
    the class is ``None`` for a null: nullability, the lattice type, then the
    enum test through ``value_test`` or the range test on the number."""
    expected, c = lattice_type(spec.logical_type), spec.constraints
    conforming = {cls for cls in lexical.CLASSES if lexical.is_subclass(cls, expected)}
    null_kind = None if spec.nullable else NULL_VIOLATION
    enum = spec.logical_type == "enum_string" and c is not None and c.allowed_values is not None
    if not enum and c is not None and (c.min_value is not None or c.max_value is not None):
        within = _within(c.min_value, c.max_value)

        def check_range(lexeme: str | None, cls: str | None) -> str | None:
            if lexeme is None:
                return null_kind
            if cls not in conforming:
                return TYPE_MISMATCH
            number = lexical.number_in_class(lexeme, cls)
            return RANGE_VIOLATION if number is not None and not within(number) else None
        return check_range
    if expected == lexical.STRING:
        # Every class sits below string: only nulls and an enum miss fail.
        allowed = value_test("values_in_set", {"values": c.allowed_values}) if enum else None

        def check_text(lexeme: str | None, cls: str | None) -> str | None:
            if lexeme is None:
                return null_kind
            failed = allowed is not None and lexeme != "" and not allowed(lexeme, cls)
            return ENUM_VIOLATION if failed else None
        return check_text

    def check_type(lexeme: str | None, cls: str | None) -> str | None:
        if lexeme is None:
            return null_kind
        return None if cls in conforming else TYPE_MISMATCH
    return check_type


def value_conforms(spec, value) -> bool:
    """Would this single value pass row validation for the given field?"""
    lexeme = lexeme_of(value)
    cls = None if lexeme is None else lexical.classify_lexeme(lexeme)
    return field_check(spec)(lexeme, cls) is None


def _failing_columns(contract: Contract, table: Table):
    """Per field whose column holds a failing lexeme or lacks a required
    key: its name, its cells, and ``{cell: (violation kind, observed)}``."""
    for spec in contract.fields:
        name, check = spec.name, field_check(spec)
        # Every class sits below string, so a text field's check reads none.
        textual = lattice_type(spec.logical_type) == lexical.STRING
        classes = (repeat(None) if textual
                   else chain.from_iterable(starmap(repeat, table.runs(name))))
        missing = None if spec.nullable else MISSING_FIELD
        failing = {}
        for cell, cls in zip(table.tally(name), classes):
            kind = missing if cell is ABSENT else check(cell, cls)
            if kind is not None:
                failing[cell] = kind, ("" if cell is ABSENT else "null" if cell is None else cell)
        if failing:
            yield name, table.column(name), failing


def _rows_holding(column: tuple, cells: dict):
    """The indices of the cells of ``column`` that are keys of ``cells``."""
    return compress(count(), map(cells.__contains__, column))


def _unknown_rows(contract: Contract, table: Table) -> set[int]:
    """Indices of the rows holding a key that is not a contract field."""
    known = {f.name for f in contract.fields}
    rows: set[int] = set()
    for name in table.columns:
        if name not in known:
            rows.update(compress(count(), map(is_not, table.column(name), repeat(ABSENT))))
    return rows


def validate_rows(contract: Contract, rows,
                  allow_unknown: bool = False) -> ValidationReport:
    """Validate rows (a :class:`Table` or a list of row dicts) field by field;
    a row passes iff it has no violations.

    Deterministic output: violations are ordered by row index, then contract
    field order, then row key order for unknown fields.
    """
    table = Table.from_rows(rows)
    violations: list[Violation] = []
    for name, column, failing in _failing_columns(contract, table):
        violations += [Violation(index, name, *failing[column[index]])
                       for index in _rows_holding(column, failing)]
    if not allow_unknown:
        known = {f.name for f in contract.fields}
        for index in sorted(_unknown_rows(contract, table)):
            for key, value in table[index].items():
                if key not in known:
                    observed = "null" if value is None else value
                    violations.append(Violation(index, key, UNKNOWN_FIELD, observed))
    # Stable: within a row, field order and then row key order stay.
    violations.sort(key=_ROW_INDEX)
    failed_rows = len(set(map(_ROW_INDEX, violations)))
    return ValidationReport(rows_checked=len(table), rows_passed=len(table) - failed_rows,
                            violations=violations)


def failing_rows(contract: Contract, rows) -> set[int]:
    """The indices of the rows ``validate_rows`` would fail (unknown keys
    included), found the same way but without building a :class:`Violation`
    per failure."""
    table = Table.from_rows(rows)
    failed = _unknown_rows(contract, table)
    for _, column, failing in _failing_columns(contract, table):
        failed.update(_rows_holding(column, failing))
    return failed


@dataclass
class Retyped:
    name: str
    old_type: str
    observed_type: str

    def to_doc(self) -> dict:
        return {"name": self.name, "old_type": self.old_type,
                "observed_type": self.observed_type}


@dataclass
class DriftReport:
    added_columns: list[str]
    removed_columns: list[str]
    retyped: list[Retyped]

    @property
    def breaking(self) -> bool:
        return bool(self.removed_columns or self.retyped)

    @property
    def empty(self) -> bool:
        return not (self.added_columns or self.removed_columns or self.retyped)

    def to_doc(self) -> dict:
        return {"added_columns": list(self.added_columns),
                "removed_columns": list(self.removed_columns),
                "retyped": [r.to_doc() for r in self.retyped],
                "breaking": self.breaking}


def detect_drift(contract: Contract, profile: DataProfile) -> DriftReport:
    """Structural difference between a contract and newly observed data.

    Extra columns are additive (non-breaking); removed columns and columns
    whose observed type no longer conforms to the declared type are breaking.
    Field and column names match exactly as written, since both are trimmed
    by construction.
    """
    declared = {f.name for f in contract.fields}
    # Only a profile built in code can repeat a column name; as in
    # ``DataProfile.column``, the first column of that name is the one read.
    columns = {c.name: c for c in reversed(profile.columns)}
    added = [c.name for c in profile.columns if c.name not in declared]
    removed = [f.name for f in contract.fields if f.name not in columns]
    retyped: list[Retyped] = []
    for spec in contract.fields:
        column = columns.get(spec.name)
        if column is None:
            continue
        observed = infer_column_type(column)
        if not lexical.is_subclass(observed, lattice_type(spec.logical_type)):
            retyped.append(Retyped(name=spec.name, old_type=spec.logical_type,
                                   observed_type=observed))
    return DriftReport(added_columns=added, removed_columns=removed, retyped=retyped)
