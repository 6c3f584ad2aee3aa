"""Reference copy of the two per-value engines the shared one replaced.

Independent of ``validation`` and ``expectations`` internals: row validation
runs ``_check_field`` per cell and rule evaluation runs ``_value_passes`` per
value, exactly as before the two were folded into one compiled check.  Used
only by the differential tests, which require the live engine to produce
the same reports.  Numbers are read with plain ``int``/``float``, so inputs
must stay within the int-string digit limit.
"""

from __future__ import annotations

from contractforge import lexical
from contractforge.errors import ContractForgeError
from contractforge.expectations import RuleResult
from contractforge.model import Contract, QualityRule
from contractforge.profiling import lexeme_of
from contractforge.validation import (ENUM_VIOLATION, MISSING_FIELD, NULL_VIOLATION,
                                      RANGE_VIOLATION, TYPE_MISMATCH, UNKNOWN_FIELD,
                                      ValidationReport, Violation, lattice_type)


def _numeric_value(lexeme: str, cls: str) -> int | float:
    return int(lexeme) if cls == lexical.INTEGER else float(lexeme)


def _check_field(spec, value, row_index: int, out: list[Violation]) -> None:
    if value is None:
        if not spec.nullable:
            out.append(Violation(row_index, spec.name, NULL_VIOLATION, "null"))
        return
    lexeme = lexeme_of(value)
    cls = lexical.classify_lexeme(lexeme)
    if not lexical.is_subclass(cls, lattice_type(spec.logical_type)):
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
        cls = lexical.classify_lexeme(lexeme)
        if cls == lexical.INTEGER:
            value: int | float = int(lexeme)
        elif cls == lexical.NUMBER:
            value = float(lexeme)
        else:
            return False
        return rule.params["min"] <= value <= rule.params["max"]
    if rule.kind == "matches_format":
        return lexical.classify_lexeme(lexeme) == rule.params["format"]
    raise ContractForgeError(f"unknown rule kind {rule.kind!r}")
