"""Synthesize data-quality rules from a profile and evaluate them on rows.

Rule vocabulary mirrors the common expectation style (set membership,
non-null, range, format, uniqueness) without claiming file-format
compatibility with any external tool.  Observed numeric ranges over-fit the
sample, so range rules carry warning severity; set and null rules are
errors.

Value rules compile to ``validation.value_test``, the engine fields use.
Unlike a field's range, ``between`` fails a non-numeric lexeme; nulls are
skipped by every kind except ``not_null``, and empty lexemes by every kind.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ContractForgeError
from .inference import _numeric_bounds
from .model import FieldSpec, QualityRule
from .profiling import DataProfile, column_lexemes
from .validation import value_test

#: Column must be unique over at least this many rows before a uniqueness
#: rule is worth asserting; reuses the enum-promotion row floor.
UNIQUE_MIN_ROWS = 20


@dataclass
class RuleResult:
    rule: QualityRule
    rows_failed: int

    @property
    def passed(self) -> bool:
        return self.rows_failed == 0

    def to_doc(self) -> dict:
        return {"rule": self.rule.to_doc(), "rows_failed": self.rows_failed,
                "pass": self.passed}


def synthesize_rules(profile: DataProfile,
                     fields: list[FieldSpec]) -> list[QualityRule]:
    """Derive rules from what the profile shows about each contract field.

    Output is deterministic: field order first, rule kind name second.
    """
    columns = {c.name: c for c in profile.columns}
    missing = [f.name for f in fields if f.name not in columns]
    if missing:
        raise ContractForgeError(
            "fields not present in profile: " + ", ".join(repr(n) for n in missing))
    rules: list[QualityRule] = []
    for spec in fields:
        column = columns[spec.name]
        per_field: list[QualityRule] = []
        if not spec.nullable:
            per_field.append(QualityRule("not_null", spec.name, {}, "error"))
        if spec.logical_type == "enum_string" and spec.constraints is not None \
                and spec.constraints.allowed_values:
            per_field.append(QualityRule(
                "values_in_set", spec.name,
                {"values": list(spec.constraints.allowed_values)}, "error"))
        if spec.logical_type in ("integer", "number"):
            bounds = _numeric_bounds(column, spec.logical_type)
            if bounds is not None:
                per_field.append(QualityRule(
                    "between", spec.name,
                    {"min": bounds.min_value, "max": bounds.max_value}, "warning"))
        if spec.logical_type in ("date", "timestamp"):
            per_field.append(QualityRule(
                "matches_format", spec.name, {"format": spec.logical_type}, "error"))
        if column.total_count >= UNIQUE_MIN_ROWS \
                and column.distinct_count == column.total_count:
            per_field.append(QualityRule("unique", spec.name, {}, "warning"))
        per_field.sort(key=lambda r: r.kind)
        rules.extend(per_field)
    for rule in rules:
        rule.validate()
    return rules


def evaluate_rules(rules: list[QualityRule],
                   rows: list[dict]) -> list[RuleResult]:
    """Count failing rows per rule; a rule passes iff no row fails it.  Each
    column is read once and each test runs once per distinct lexeme."""
    columns: dict[str, tuple[int, Counter]] = {}
    results: list[RuleResult] = []
    for rule in rules:
        if rule.column not in columns:
            counts = Counter(column_lexemes(rows, rule.column))
            del counts[""]
            columns[rule.column] = counts.pop(None, 0), counts
        nulls, counts = columns[rule.column]
        if rule.kind == "not_null":
            failed = nulls
        elif rule.kind == "unique":
            failed = counts.total() - len(counts)
        else:
            test = value_test(rule.kind, rule.params)
            failed = sum(n for lexeme, n in counts.items() if not test(lexeme))
        results.append(RuleResult(rule=rule, rows_failed=failed))
    return results
