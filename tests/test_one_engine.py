"""Fields and rules are one engine: a field fails the same rows as the value
rules its spec implies, and ``value_conforms`` agrees with ``validate_rows``.

The rules are evaluated a row at a time through ``evaluate_rules``, so each
side reads the column through its own public entry point.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from contractforge import lexical
from contractforge.expectations import evaluate_rules
from contractforge.model import Constraints, Contract, FieldSpec, QualityRule
from contractforge.profiling import ABSENT
from contractforge.validation import (ENUM_VIOLATION, MISSING_FIELD, NULL_VIOLATION,
                                      RANGE_VIOLATION, TYPE_MISMATCH, validate_rows,
                                      value_conforms)

WORDS = ["red", "green", "blue", "amber"]
HUGE = ["9" * 5000, "-" + "9" * 5000, "1e400", "-1e400", str(10**30), "9007199254740993"]
TEMPORAL = ["2021-01-01", "2020-02-29", "2021-02-29", "2021-01-01T10:00:00Z",
            "2021-01-01T25:00:00", "2021-01-01T10:00"]
CELLS = st.one_of(
    st.sampled_from([None, ABSENT, "", "true", " 7", "NaN", *WORDS, *HUGE, *TEMPORAL]),
    st.integers(-20, 20).map(str),
    st.integers(-40, 40).map(lambda n: f"{n / 4}"))


@st.composite
def fields(draw) -> FieldSpec:
    logical_type = draw(st.sampled_from(["boolean", "integer", "number", "string", "date",
                                         "timestamp", "enum_string"]))
    constraints = None
    if logical_type == "enum_string":
        constraints = Constraints(allowed_values=draw(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True)))
    elif logical_type in ("integer", "number"):
        bound = st.integers(-10, 10) if logical_type == "integer" \
            else st.integers(-40, 40).map(lambda n: n / 4)
        lo, hi = sorted(draw(st.tuples(bound, bound)))
        constraints = Constraints(min_value=lo, max_value=hi)
    return FieldSpec("v", logical_type, draw(st.booleans()), constraints)


def implied_rules(spec: FieldSpec) -> dict:
    """The rule each part of the spec implies, by the violation kinds it covers."""
    c = spec.constraints
    rules = {(NULL_VIOLATION, MISSING_FIELD): QualityRule("not_null", "v")}
    if spec.logical_type == "enum_string":
        rules[(ENUM_VIOLATION,)] = QualityRule("values_in_set", "v",
                                               {"values": c.allowed_values})
    if spec.logical_type in ("integer", "number"):
        rules[(TYPE_MISMATCH, RANGE_VIOLATION)] = QualityRule(
            "between", "v", {"min": c.min_value, "max": c.max_value}, "warning")
    if spec.logical_type in ("date", "timestamp"):
        rules[(TYPE_MISMATCH,)] = QualityRule("matches_format", "v",
                                              {"format": spec.logical_type})
    return rules


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(fields(), st.lists(CELLS, max_size=10))
def test_a_field_fails_the_rows_its_rules_fail(spec, cells):
    rows = [{} if cell is ABSENT else {"v": cell} for cell in cells]
    report = validate_rows(Contract("t", [spec]), rows)
    for kinds, rule in implied_rules(spec).items():
        flagged = {v.row_index for v in report.violations if v.kind in kinds}
        failing = {i for i, row in enumerate(rows) if evaluate_rules([rule], [row])[0].rows_failed}
        if rule.kind == "not_null" and spec.nullable:
            failing = set()
        if rule.kind == "between" and spec.logical_type == "integer":
            # The type is stricter than the range: any non-integer number is
            # a type mismatch, in range or not.
            failing |= {i for i, cell in enumerate(cells)
                        if isinstance(cell, str) and lexical.classify_lexeme(cell) == lexical.NUMBER}
        assert flagged == failing, (rule.kind, report.to_doc())
    for cell, row in zip(cells, rows):
        if cell is not ABSENT:
            assert value_conforms(spec, cell) == validate_rows(Contract("t", [spec]), [row]).all_passed
