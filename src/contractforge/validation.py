"""Check contract syntax, validate rows against a contract, detect drift.

Fields and quality rules share one engine: ``field_check`` and ``value_test``
compile a field or a value rule kind to a per-lexeme check that runs once per
distinct lexeme.  An enum is the ``values_in_set`` test and a range the
``between`` test; nullability and the lattice type test (a lexeme conforms
when its class sits at or below the field type) are field-only.  Both pass
the empty lexeme and take only ``None``, never ``""``, as null; unlike
``between``, a field's range reads only numeric lexemes, and only when the
field has a bound.  Unknown row keys are violations unless ``allow_unknown``.

Validation runs a column at a time: each field's column is read once, each
distinct lexeme in it gets one verdict, and only a column holding a failing
lexeme or a missing key is walked again, to flag the rows that hold one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

from . import lexical
from .errors import ContractForgeError
from .inference import infer_column_type
from .model import Contract, FieldSpec, parse_contract
from .profiling import DataProfile, column_lexemes, lexeme_of

TYPE_MISMATCH = "type_mismatch"
NULL_VIOLATION = "null_violation"
ENUM_VIOLATION = "enum_violation"
RANGE_VIOLATION = "range_violation"
UNKNOWN_FIELD = "unknown_field"
MISSING_FIELD = "missing_field"

#: Stands for a key a row lacks in the columns ``validate_rows`` reads.
_ABSENT = object()
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


def value_test(kind: str, params: dict) -> Callable[[str], bool]:
    """Compile a value rule kind to its test of one non-empty lexeme; a field
    range shares the bounds test of ``between``, with either bound ``None``."""
    if kind == "values_in_set":
        return params["values"].__contains__
    if kind == "matches_format":
        fmt = params["format"]
        return lambda lexeme: lexical.classify_lexeme(lexeme) == fmt
    if kind != "between":
        raise ContractForgeError(f"unknown rule kind {kind!r}")
    within = _within(params["min"], params["max"])

    def between(lexeme: str) -> bool:
        number = lexical.number_of(lexeme)
        return number is not None and within(number)
    return between


def _within(lo, hi) -> Callable[[int | float], bool]:
    """The bounds test of ``between`` on a number; a ``None`` bound is open."""
    return lambda number: (lo is None or lo <= number) and (hi is None or number <= hi)


def field_check(spec: FieldSpec) -> Callable[[str | None], str | None]:
    """Compile a field to ``lexeme -> violation kind | None``: nullability,
    the lattice type, then the enum test through ``value_test`` or the
    range test on the number the type test already classified."""
    expected, c = lattice_type(spec.logical_type), spec.constraints
    conforming = {cls for cls in lexical.CLASSES if lexical.is_subclass(cls, expected)}
    null_kind = None if spec.nullable else NULL_VIOLATION
    enum = spec.logical_type == "enum_string" and c is not None and c.allowed_values is not None
    if not enum and c is not None and (c.min_value is not None or c.max_value is not None):
        within = _within(c.min_value, c.max_value)

        def check_range(lexeme: str | None) -> str | None:
            if lexeme is None:
                return null_kind
            cls = lexical.classify_lexeme(lexeme)
            if cls not in conforming:
                return TYPE_MISMATCH
            number = lexical.number_in_class(lexeme, cls)
            return RANGE_VIOLATION if number is not None and not within(number) else None
        return check_range
    if expected == lexical.STRING:
        # Every class sits below string: only nulls and an enum miss fail.
        allowed = value_test("values_in_set", {"values": c.allowed_values}) if enum else None

        def check_text(lexeme: str | None) -> str | None:
            if lexeme is None:
                return null_kind
            failed = allowed is not None and lexeme != "" and not allowed(lexeme)
            return ENUM_VIOLATION if failed else None
        return check_text

    def check_type(lexeme: str | None) -> str | None:
        if lexeme is None:
            return null_kind
        return None if lexical.classify_lexeme(lexeme) in conforming else TYPE_MISMATCH
    return check_type


def value_conforms(spec, value) -> bool:
    """Would this single value pass row validation for the given field?"""
    return field_check(spec)(lexeme_of(value)) is None


def validate_rows(contract: Contract, rows: list[dict],
                  allow_unknown: bool = False) -> ValidationReport:
    """Validate rows field by field; a row passes iff it has no violations.

    Deterministic output: violations are ordered by row index, then contract
    field order, then row key order for unknown fields.  Each field's check
    runs once per distinct lexeme of its column, and a column's rows are
    visited only when the column holds a failing lexeme or a missing key.
    """
    violations: list[Violation] = []
    for spec in contract.fields:
        name, check = spec.name, field_check(spec)
        column = column_lexemes(rows, name, _ABSENT)
        missing = None if spec.nullable else MISSING_FIELD
        failing = {}  # lexeme -> (violation kind, observed text)
        for lexeme in set(column):
            kind = missing if lexeme is _ABSENT else check(lexeme)
            if kind is not None:
                failing[lexeme] = kind, ("" if lexeme is _ABSENT else
                                         "null" if lexeme is None else lexeme)
        if failing:
            violations += [Violation(index, name, *failing[lexeme])
                           for index, lexeme in enumerate(column) if lexeme in failing]
    if not allow_unknown:
        known = {f.name for f in contract.fields}
        for index, row in enumerate(rows):
            if not row.keys() <= known:
                for key, value in row.items():
                    if key not in known:
                        observed = "null" if value is None else lexeme_of(value)
                        violations.append(Violation(index, key, UNKNOWN_FIELD, observed))
    # Stable: within a row, field order and then row key order stay.
    violations.sort(key=_ROW_INDEX)
    failed_rows = len(set(map(_ROW_INDEX, violations)))
    return ValidationReport(rows_checked=len(rows), rows_passed=len(rows) - failed_rows,
                            violations=violations)


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
    """
    contract_names = [f.name.strip() for f in contract.fields]
    profile_names = [c.name.strip() for c in profile.columns]
    contract_set, profile_set = set(contract_names), set(profile_names)
    added = [n for n in profile_names if n not in contract_set]
    removed = [n for n in contract_names if n not in profile_set]
    retyped: list[Retyped] = []
    for spec in contract.fields:
        name = spec.name.strip()
        if name not in profile_set:
            continue
        column = next(c for c in profile.columns if c.name.strip() == name)
        observed = infer_column_type(column)
        if not lexical.is_subclass(observed, lattice_type(spec.logical_type)):
            retyped.append(Retyped(name=name, old_type=spec.logical_type,
                                   observed_type=observed))
    return DriftReport(added_columns=added, removed_columns=removed, retyped=retyped)
