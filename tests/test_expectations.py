"""Quality-rule synthesis triggers and rule evaluation semantics."""

import pytest

from contractforge.errors import ContractForgeError, InvariantViolation
from contractforge.expectations import evaluate_rules, synthesize_rules
from contractforge.inference import infer_contract, safe_generic_contract
from contractforge.model import QualityRule
from conftest import profile_of


def rules_for(profile):
    return synthesize_rules(profile, infer_contract(profile).fields)


class TestSynthesize:
    def test_enum_column_gets_values_in_set(self, status_profile):
        rules = rules_for(status_profile)
        in_set = [r for r in rules if r.kind == "values_in_set"]
        assert len(in_set) == 1
        assert in_set[0].column == "status"
        assert in_set[0].params["values"] == ["active", "inactive"]
        assert in_set[0].severity == "error"

    def test_safe_fallback_profile_yields_no_error_rules(self, status_profile):
        safe = safe_generic_contract(status_profile)
        rules = synthesize_rules(status_profile, safe.fields)
        assert [r for r in rules if r.severity == "error"] == []

    def test_unique_integer_column_over_fifty_rows(self):
        # 50 distinct integers spanning 1..100: between + unique, both warnings
        values = [str(2 * i + 1) for i in range(50)]  # 1,3,...,99 then force 100
        values[-1] = "100"
        values[0] = "1"
        profile = profile_of(["n"], [[v] for v in values], value_cap=50)
        rules = rules_for(profile)
        kinds = [(r.kind, r.severity) for r in rules]
        assert ("between", "warning") in kinds
        assert ("unique", "warning") in kinds
        between = next(r for r in rules if r.kind == "between")
        assert between.params == {"min": 1, "max": 100}

    def test_not_null_for_non_nullable(self, status_profile):
        rules = rules_for(status_profile)
        not_null_columns = {r.column for r in rules if r.kind == "not_null"}
        assert not_null_columns == {"id", "status", "created"}

    def test_matches_format_for_temporal(self, status_profile):
        rules = rules_for(status_profile)
        fmt = [r for r in rules if r.kind == "matches_format"]
        assert [(r.column, r.params["format"]) for r in fmt] == [("created", "date")]

    def test_order_by_field_then_kind(self, status_profile):
        rules = rules_for(status_profile)
        columns = [r.column for r in rules]
        # field order: id, status, created
        assert columns == sorted(columns, key=["id", "status", "created"].index)
        for column in set(columns):
            kinds = [r.kind for r in rules if r.column == column]
            assert kinds == sorted(kinds)

    def test_mismatched_names_rejected(self, status_profile):
        fields = infer_contract(status_profile).fields
        fields[0].name = "not_a_column"
        with pytest.raises(ContractForgeError, match="not_a_column"):
            synthesize_rules(status_profile, fields)

    def test_deterministic(self, status_profile):
        first = [r.to_doc() for r in rules_for(status_profile)]
        second = [r.to_doc() for r in rules_for(status_profile)]
        assert first == second


class TestEvaluate:
    def test_empty_rows_vacuously_pass(self):
        rules = [QualityRule("not_null", "a", {}, "error"),
                 QualityRule("values_in_set", "a", {"values": ["x"]}, "error")]
        results = evaluate_rules(rules, [])
        assert all(r.passed and r.rows_failed == 0 for r in results)

    def test_not_null_counts_nulls_and_absences(self):
        rows = [{"a": "1"}] * 8 + [{"a": None}] + [{}]
        results = evaluate_rules([QualityRule("not_null", "a", {}, "error")], rows)
        assert results[0].rows_failed == 2

    def test_not_null_single_null_in_ten(self):
        rows = [{"a": str(i)} for i in range(9)] + [{"a": None}]
        results = evaluate_rules([QualityRule("not_null", "a", {}, "error")], rows)
        assert results[0].rows_failed == 1
        assert not results[0].passed

    def test_unique_counts_rows_beyond_first_occurrence(self):
        rows = [{"a": "x"}, {"a": "y"}, {"a": "x"}]
        results = evaluate_rules([QualityRule("unique", "a", {}, "warning")], rows)
        assert results[0].rows_failed == 1

    def test_values_in_set(self, monkeypatch):
        rows = [{"s": "a"}, {"s": "b"}, {"s": "c"}, {"s": None}]
        rule = QualityRule("values_in_set", "s", {"values": ["a", "b"]}, "error")
        # Set membership reads no lexical class, so no column is classified.
        monkeypatch.setattr("contractforge.profiling.class_runs", None)
        results = evaluate_rules([rule], rows)
        assert results[0].rows_failed == 1  # only "c"; null skipped

    def test_between(self):
        rows = [{"n": "5"}, {"n": "15"}, {"n": "abc"}, {"n": None}, {"n": "9.5"}]
        rule = QualityRule("between", "n", {"min": 1, "max": 10}, "warning")
        results = evaluate_rules([rule], rows)
        # 15 out of range, "abc" not numeric; null skipped; 5 and 9.5 pass
        assert results[0].rows_failed == 2

    def test_between_reads_huge_numerals(self):
        rows = [{"n": "9" * 5000}, {"n": "-" + "9" * 5000}, {"n": "1e400"}, {"n": "3"}]
        rule = QualityRule("between", "n", {"min": 1, "max": 10}, "warning")
        assert evaluate_rules([rule], rows)[0].rows_failed == 3

    def test_empty_lexeme_is_skipped_and_not_null(self):
        rows = [{"a": ""}, {"a": ""}, {"a": "x"}]
        rules = [QualityRule(kind, "a", params, "error") for kind, params in [
            ("not_null", {}), ("unique", {}), ("values_in_set", {"values": ["x"]}),
            ("between", {"min": 0, "max": 1}), ("matches_format", {"format": "date"})]]
        assert [r.rows_failed for r in evaluate_rules(rules, rows)] == [0, 0, 0, 1, 1]

    def test_matches_format(self):
        rows = [{"d": "2021-01-01"}, {"d": "01/02/2021"}, {"d": None}]
        rule = QualityRule("matches_format", "d", {"format": "date"}, "error")
        assert evaluate_rules([rule], rows)[0].rows_failed == 1

    def test_timestamp_format_is_not_date(self):
        rows = [{"d": "2021-01-01T00:00:00Z"}]
        rule = QualityRule("matches_format", "d", {"format": "date"}, "error")
        assert evaluate_rules([rule], rows)[0].rows_failed == 1


class TestRulesChecked:
    @pytest.mark.parametrize("kind, params", [
        ("between", {"min": "x", "max": 1}),
        ("between", {}),
        ("values_in_set", {"values": 5}),
        ("matches_format", {}),
        ("matches_format", {"format": "string"}),
    ], ids=["between-text-bound", "between-no-bounds", "set-not-a-list", "format-missing",
            "format-not-temporal"])
    def test_ill_formed_rule_is_refused(self, kind, params):
        rows = [{"a": "1"}, {"a": "x"}]
        with pytest.raises(InvariantViolation, match="rule params match kind"):
            evaluate_rules([QualityRule(kind, "a", params, "error")], rows)

    def test_every_rule_is_checked_before_any_runs(self):
        rules = [QualityRule("not_null", "a", {}, "error"), QualityRule("sorted", "a", {}, "error")]
        with pytest.raises(InvariantViolation, match="unknown rule kind"):
            evaluate_rules(rules, [{"a": "1"}])


class TestSelfConsistency:
    def test_rules_pass_on_source_sample_rows(self, status_profile, toy_profile):
        for profile in (status_profile, toy_profile):
            rules = rules_for(profile)
            results = evaluate_rules(rules, profile.sample_rows)
            assert all(r.passed for r in results), [
                (r.rule.kind, r.rule.column, r.rows_failed)
                for r in results if not r.passed]

    def test_set_rule_failure_implies_enum_violation(self, status_profile):
        from contractforge.validation import validate_rows

        contract = infer_contract(status_profile)
        rules = synthesize_rules(status_profile, contract.fields)
        set_rule = next(r for r in rules if r.kind == "values_in_set")
        bad_row = {"id": "1", "status": "zombie", "created": "2026-01-01"}
        rule_result = evaluate_rules([set_rule], [bad_row])[0]
        assert rule_result.rows_failed == 1
        report = validate_rows(contract, [bad_row])
        assert any(v.kind == "enum_violation" and v.field_name == "status"
                   for v in report.violations)
