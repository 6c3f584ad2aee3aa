"""Synthesize data-quality rules from a profile and evaluate them on rows.

Rule vocabulary mirrors the common expectation style (set membership,
non-null, range, format, uniqueness) without claiming file-format
compatibility with any external tool.  Observed numeric ranges over-fit the
sample, so range rules carry warning severity; set and null rules are
errors.

Value rules run on the engine fields use: ``values_in_set``, ``between``
and ``matches_format`` are ``validation.value_test`` kinds, which
``validation.failing_cells`` runs on the kept tally and class runs of a
:class:`~.profiling.Table`, so a table already validated or profiled is not
tallied or classified again, nor a field's test run again.  Only the nulls
(``profiling.NULLS``) fail ``not_null``, and ``unique`` counts the repeats
of the cells that are not blank (``profiling.BLANKS``).  ``evaluate_rules``
checks each rule before it runs any.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractForgeError
from .inference import ENUM_MIN_ROWS, _numeric_bounds
from .model import NUMERIC_TYPES, TEMPORAL_TYPES, FieldSpec, QualityRule
from .profiling import BLANKS, NULLS, DataProfile, Table
from .validation import failing_cells

#: Column must be unique over at least this many rows before a uniqueness
#: rule is worth asserting; reuses the enum-promotion row floor.
UNIQUE_MIN_ROWS = ENUM_MIN_ROWS


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
        if spec.logical_type in NUMERIC_TYPES:
            bounds = _numeric_bounds(column, spec.logical_type)
            if bounds is not None:
                per_field.append(QualityRule(
                    "between", spec.name,
                    {"min": bounds.min_value, "max": bounds.max_value}, "warning"))
        if spec.logical_type in TEMPORAL_TYPES:
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


def evaluate_rules(rules: list[QualityRule], rows) -> list[RuleResult]:
    """Count failing rows per rule over rows (a :class:`Table` or a list of
    row dicts); a rule passes iff no row fails it.  Each test runs once per
    distinct lexeme of the column."""
    for rule in rules:
        rule.validate()
    table = Table.from_rows(rows)
    results: list[RuleResult] = []
    for rule in rules:
        tally = table.tally(rule.column)
        if rule.kind == "not_null":
            failed = sum(map(tally.__getitem__, NULLS))
        elif rule.kind == "unique":
            # Cells less distinct cells, a blank cell's repeats not counted.
            failed = len(table) - len(tally) - sum(tally[cell] - 1 for cell in BLANKS
                                                   if cell in tally)
        else:
            failed = sum(map(tally.__getitem__,
                             failing_cells(table, rule.column, [(rule.kind, rule.params)])))
        results.append(RuleResult(rule=rule, rows_failed=failed))
    return results
