"""Validate rows against a contract, detect drift.

One engine enforces fields and quality rules, and ``value_test`` is its only
test: set membership (``values_in_set``), a class at or below a format
(``matches_format``), or a number within bounds (``between``, a ``None``
bound open).  A field is the value tests its spec implies, run in order:
its lattice type (none for text, which every class sits below), its enum,
then its range; a lexeme reports the violation of the first it fails.
Nulls (``profiling.NULLS``: ``None`` and a missing key) are field-only and
read from the column tally.  The empty lexeme is blank, not null: it passes
every test (``profiling.BLANKS``).  Unknown row keys are violations unless
``allow_unknown``.

A value test is a test of a column, not of a lexeme: ``value_test``
compiles a rule kind to a function of a column's distinct cells and their
class runs that returns the cells failing it, so no Python runs per lexeme.
``failing_cells`` is the one column walk, over the kept tally and class runs
of a :class:`~.profiling.Table` column (a list of row dicts becomes a table
through ``Table.from_rows``).  The table keeps each test's result under the
column, the kind and the params as given, so a rule repeating a field's test
does not run it again.  Only a column holding a failing cell is walked
again, to find its rows: ``validate_rows`` turns them into violations, and
``failing_rows`` collects their indices, unknown keys always included.
Both check the contract first, as ``evaluate_rules`` checks its rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, count, filterfalse, repeat
from operator import and_, attrgetter, ge, is_not, le, not_
from typing import Callable, Iterable, Iterator

from . import lexical
from .errors import ContractForgeError
from .inference import infer_column_type
from .model import TYPES, Contract, FieldSpec
from .profiling import ABSENT, BLANKS, DataProfile, Table

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
#: The classes a range reads as numbers.
_NUMERIC = (lexical.INTEGER, lexical.NUMBER)
#: The violation and observed text of a null and of a missing key.
_NO_VALUE = {None: (NULL_VIOLATION, "null"), ABSENT: (MISSING_FIELD, "")}


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


def value_test(kind: str, params: dict) -> Callable[[list, list], Iterable]:
    """Compile a value rule kind to its test of a column: given the
    column's distinct cells and their class runs, the cells that fail.

    Set membership asks a frozenset of the values.  A format fails the
    runs whose class is not at or below it, a run at a time.  A range fails
    the runs of other classes than ``integer`` and ``number``, reads each
    run of those with ``int`` or ``float`` (an integer past the int-string
    digit limit as ±inf), and compares the numbers with the bounds, a
    ``None`` bound open.  ``failing_cells`` reads no verdict on a blank
    cell."""
    if kind == "values_in_set":
        contains = frozenset(params["values"]).__contains__
        return lambda cells, runs: filterfalse(contains, cells)
    if kind == "matches_format":
        conforming = _AT_OR_BELOW[params["format"]]
        return lambda cells, runs: chain.from_iterable(
            cells[at:at + k] for cls, at, k in _spans(runs) if cls not in conforming)
    if kind != "between":
        raise ContractForgeError(f"unknown rule kind {kind!r}")
    lo, hi = params["min"], params["max"]

    def between(cells: list, runs: list) -> list:
        failing = []
        for cls, at, k in _spans(runs):
            lexemes = cells[at:at + k]
            if cls not in _NUMERIC:
                failing += lexemes
            elif lo is not None or hi is not None:
                numbers = _numbers(lexemes, cls)
                above = repeat(True) if lo is None else map(le, repeat(lo), numbers)
                below = repeat(True) if hi is None else map(ge, repeat(hi), numbers)
                failing += compress(lexemes, map(not_, map(and_, above, below)))
        return failing
    return between


def _spans(runs: list) -> Iterator[tuple[str, int, int]]:
    """Each class run as its class, its first index and its length."""
    at = 0
    for cls, k in runs:
        yield cls, at, k
        at += k


def _numbers(lexemes: list[str], cls: str) -> list:
    """The numbers of ``lexemes`` of the class ``integer`` or ``number``."""
    try:
        return list(map(int if cls == lexical.INTEGER else float, lexemes))
    except ValueError:  # an integer past the int-string digit limit
        return list(map(lexical.number_in_class, lexemes, repeat(cls)))


def failing_cells(table: Table, name: str, tests: list[tuple[str, dict]]) -> dict:
    """``{cell: kind}`` for the distinct cells of column ``name`` that fail
    one of ``tests``, value rules ``(kind, params)``, each cell taking the
    kind of the first it fails.  Each test runs once over the whole column,
    and the table keeps what it finds, so a rule that repeats a field's test
    does not run it again.  Blank cells are never reported, since the empty
    lexeme passes every test and nulls and absent keys are field-only.  Set
    membership reads no class, so a column tested only for it is not
    classified."""
    failing: dict = {}
    # In reverse, so that the kind of the first failed test is the one kept.
    for kind, params in reversed(tests):
        # Kept under the params as given, in any order, made hashable by
        # ``repr``: a param the kind does not read only stops two tests sharing.
        key = name, kind, frozenset(map(repr, params.items()))
        failing.update(dict.fromkeys(table.kept(key, _failing, table, name, kind, params), kind))
    for blank in BLANKS:
        failing.pop(blank, None)
    return failing


def _failing(table: Table, name: str, kind: str, params: dict) -> list:
    """The distinct cells of column ``name`` that fail one value test."""
    runs = None if kind == "values_in_set" else table.runs(name)
    return list(value_test(kind, params)(list(table.tally(name)), runs))


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
    failing = {} if spec.nullable else {cell: v for cell, v in _NO_VALUE.items()
                                        if cell in table.tally(spec.name)}
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
