"""Validate rows against a contract, detect drift.

One engine enforces fields and quality rules, and ``value_test`` is its only
test of a lexeme: set membership (``values_in_set``), a class at or below a
format (``matches_format``), or a number within bounds (``between``, a
``None`` bound open).  A field is the value tests its spec implies, run in
order: its lattice type (none for text, which every class sits below), its
enum, then its range; a lexeme reports the violation of the first it fails.
Nulls and missing keys are field-only and read from the column tally.  The
empty lexeme passes every test, and only ``None`` is null.  Unknown row keys
are violations unless ``allow_unknown``.

``failing_cells`` is the one column walk.  It runs the tests, a test at a
time, over the distinct cells of a :class:`~.profiling.Table` column with
the classes of the table's kept class runs, the summary profiling reads too
(a list of row dicts becomes a table through ``Table.from_rows``).  Only a
column holding a failing cell is walked again, to flag the rows holding
one: ``validate_rows`` turns those rows into violations, and
``failing_rows`` only collects their indices, unknown keys always included.
Both check the contract first, as ``evaluate_rules`` checks its rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat, starmap
from operator import attrgetter, is_not, not_
from typing import Callable

from . import lexical
from .errors import ContractForgeError
from .inference import infer_column_type
from .model import TYPES, Contract, FieldSpec
from .profiling import ABSENT, DataProfile, Table

TYPE_MISMATCH = "type_mismatch"
NULL_VIOLATION = "null_violation"
ENUM_VIOLATION = "enum_violation"
RANGE_VIOLATION = "range_violation"
UNKNOWN_FIELD = "unknown_field"
MISSING_FIELD = "missing_field"

_ROW_INDEX = attrgetter("row_index")
#: The violation a field reports for a lexeme failing each value test.
_VIOLATION_OF = {"matches_format": TYPE_MISMATCH, "values_in_set": ENUM_VIOLATION,
                 "between": RANGE_VIOLATION}
#: The classes at or below each class of the lattice.
_AT_OR_BELOW = {fmt: frozenset(cls for cls in lexical.CLASSES if lexical.is_subclass(cls, fmt))
                for fmt in lexical.CLASSES}
#: The violation and observed text of a null and of a missing key.
_NO_VALUE = ((None, (NULL_VIOLATION, "null")), (ABSENT, (MISSING_FIELD, "")))


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


def value_test(kind: str, params: dict) -> Callable[[str, str], bool]:
    """Compile a value rule kind to its test of one lexeme and its class:
    set membership, a class at or below the format, or a number within the
    bounds, a ``None`` bound open.  ``failing_cells`` reads no verdict on a
    blank cell."""
    if kind == "values_in_set":
        values = params["values"]
        return lambda lexeme, cls: lexeme in values
    if kind == "matches_format":
        conforming = _AT_OR_BELOW[params["format"]]
        return lambda lexeme, cls: cls in conforming
    if kind != "between":
        raise ContractForgeError(f"unknown rule kind {kind!r}")
    lo, hi = params["min"], params["max"]

    def between(lexeme: str, cls: str) -> bool:
        number = lexical.number_in_class(lexeme, cls)
        return number is not None and (lo is None or lo <= number) and (hi is None or number <= hi)
    return between


def failing_cells(table: Table, name: str, tests: list[tuple[str, dict]]) -> dict:
    """``{cell: kind}`` for the distinct cells of column ``name`` that fail
    one of ``tests``, value rules ``(kind, params)``, each cell taking the
    kind of the first it fails.  Each test runs once over the whole column;
    blank cells are never reported, since the empty lexeme passes every test
    and nulls and absent keys are field-only.  Set membership reads no
    class, so a column tested only for it is not classified."""
    tally = table.tally(name)
    classes = (repeat(None) if all(kind == "values_in_set" for kind, _ in tests)
               else list(chain.from_iterable(starmap(repeat, table.runs(name)))))
    failing: dict = {}
    # In reverse, so that the kind of the first failed test is the one kept.
    for kind, params in reversed(tests):
        passed = map(value_test(kind, params), tally, classes)
        failing.update(dict.fromkeys(compress(tally, map(not_, passed)), kind))
    for blank in (None, ABSENT, ""):
        failing.pop(blank, None)
    return failing


def _field_tests(spec: FieldSpec) -> list[tuple[str, dict]]:
    """The value rules a field's spec implies, in the order a lexeme meets
    them: its lattice type (none for text, which every class sits below),
    its enum and its range."""
    c, expected = spec.constraints, TYPES[spec.logical_type].lattice
    tests = [] if expected == lexical.STRING else [("matches_format", {"format": expected})]
    if c is not None and c.allowed_values is not None:
        tests.append(("values_in_set", {"values": c.allowed_values}))
    if c is not None and (c.min_value is not None or c.max_value is not None):
        tests.append(("between", {"min": c.min_value, "max": c.max_value}))
    return tests


def _field_failures(spec: FieldSpec, table: Table) -> dict:
    """``{cell: (violation kind, observed)}`` for the cells of the field's
    column that fail it: nulls and absent keys, read from the tally, and the
    lexemes ``failing_cells`` finds."""
    tally = table.tally(spec.name)
    failing = {} if spec.nullable else {cell: v for cell, v in _NO_VALUE if cell in tally}
    for cell, kind in failing_cells(table, spec.name, _field_tests(spec)).items():
        failing[cell] = _VIOLATION_OF[kind], cell
    return failing


def value_conforms(spec: FieldSpec, value) -> bool:
    """Would this single value pass row validation for the given field?"""
    return not _field_failures(spec, Table.from_rows([{spec.name: value}]))


def _rows_holding(column: tuple, cells: dict):
    """The indices of the cells of ``column`` that are keys of ``cells``."""
    return compress(count(), map(cells.__contains__, column)) if cells else ()


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
    contract.validate()
    table = Table.from_rows(rows)
    violations: list[Violation] = []
    for spec in contract.fields:
        column, failing = table.column(spec.name), _field_failures(spec, table)
        violations += [Violation(index, spec.name, *failing[column[index]])
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
    contract.validate()
    table = Table.from_rows(rows)
    failed = _unknown_rows(contract, table)
    for spec in contract.fields:
        failed.update(_rows_holding(table.column(spec.name), _field_failures(spec, table)))
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
    by construction.  The contract is checked first, as ``validate_rows`` checks it.
    """
    contract.validate()
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
        if not lexical.is_subclass(observed, TYPES[spec.logical_type].lattice):
            retyped.append(Retyped(name=spec.name, old_type=spec.logical_type,
                                   observed_type=observed))
    return DriftReport(added_columns=added, removed_columns=removed, retyped=retyped)
