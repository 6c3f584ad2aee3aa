"""Deterministic inference: lattice folding, enum promotion, safe fallback."""

import math

import pytest

from contractforge.errors import ContractForgeError
from contractforge.expectations import evaluate_rules, synthesize_rules
from contractforge.inference import infer_contract, infer_field, safe_generic_contract
from contractforge.model import canonicalize
from contractforge.profiling import DataProfile, ingest, profile_column, read_table
from contractforge.validation import validate_rows


def one_column_profile(values, name="col", rows=None, value_cap=20) -> DataProfile:
    column = profile_column(values, name=name, value_cap=value_cap)
    return DataProfile(dataset_name="t", row_count=len(values),
                       columns=[column], source_format="delimited",
                       sample_rows=rows if rows is not None
                       else [{name: v} for v in values[:10]])


class TestInferField:
    def test_integer_column(self):
        contract = infer_contract(one_column_profile(["1", "2", "3"]))
        spec = contract.fields[0]
        assert spec.logical_type == "integer"
        assert spec.nullable is False

    def test_integer_plus_decimal_joins_to_number(self):
        spec = infer_contract(one_column_profile(["1", "2.5"])).fields[0]
        assert spec.logical_type == "number"

    def test_nulls_make_nullable(self):
        spec = infer_contract(one_column_profile(["1", None])).fields[0]
        assert spec.nullable is True

    def test_all_null_column_defaults_to_nullable_string(self):
        spec = infer_contract(one_column_profile([None, None])).fields[0]
        assert spec.logical_type == "string"
        assert spec.nullable is True

    def test_numeric_bounds_recorded_without_padding(self):
        spec = infer_contract(one_column_profile(["5", "-3", "12"])).fields[0]
        assert spec.constraints.min_value == -3
        assert spec.constraints.max_value == 12

    def test_number_bounds_are_floats(self):
        spec = infer_contract(one_column_profile(["1", "2.5"])).fields[0]
        assert spec.constraints.min_value == 1.0
        assert isinstance(spec.constraints.min_value, float)

    @pytest.mark.parametrize("values", [
        ["1", "9" * 5000, "3"],          # past the int-string digit limit
        ["-" + "9" * 5000, "1"],
        ["1.5", "1e400"],                # overflows float
        ["2.5", "1" + "0" * 400],        # an integer beyond float range
    ])
    def test_non_finite_extreme_gives_no_range(self, values):
        contract = infer_contract(one_column_profile(values))
        assert contract.fields[0].logical_type in ("integer", "number")
        assert contract.fields[0].constraints is None
        assert "Infinity" not in canonicalize(contract)

    def test_integer_past_float_range_in_a_number_column_gives_no_range(self):
        spec = infer_field(profile_column(["1.5", "9" * 400]))
        assert (spec.logical_type, spec.constraints) == ("number", None)

    def test_no_sampled_number_gives_no_range(self):
        spec = infer_field(profile_column(["1", "2"], value_cap=0))
        assert (spec.logical_type, spec.constraints) == ("integer", None)

    def test_long_integer_within_the_digit_limit_keeps_its_range(self):
        big = "1" + "0" * 400
        spec = infer_contract(one_column_profile(["1", big])).fields[0]
        assert (spec.constraints.min_value, spec.constraints.max_value) == (1, int(big))

    @pytest.mark.parametrize("source_format", ["delimited", "ndjson"])
    def test_number_bounds_round_outward(self, source_format):
        """An int extreme with no exact float gives the float past it, not
        the nearest, which for 30 ones lies below it: the inferred contract
        and its range rule then accept every row the profile was made of."""
        ones = "1" * 30
        data = (f"b\n{ones}\n1.5\n-{ones}\n" if source_format == "delimited"
                else f'{{"b": {ones}}}\n{{"b": 1.5}}\n{{"b": -{ones}}}\n').encode()
        profile = ingest(data, source_format)
        contract = infer_contract(profile)
        spec = contract.fields[0]
        assert spec.logical_type == "number"
        lo, hi = spec.constraints.min_value, spec.constraints.max_value
        assert lo < -int(ones) and hi > int(ones)
        assert (math.nextafter(lo, 0), math.nextafter(hi, 0)) == (-float(ones), float(ones))
        _, rows = read_table(data, source_format)
        assert validate_rows(contract, rows).all_passed
        rules = synthesize_rules(profile, contract.fields)
        assert [rule.kind for rule in rules] == ["between", "not_null"]
        assert all(result.passed for result in evaluate_rules(rules, rows))

    def test_exact_number_bounds_stay(self):
        spec = infer_contract(one_column_profile(["1", "2.5", str(2 ** 53)])).fields[0]
        assert (spec.constraints.min_value, spec.constraints.max_value) == (1.0, 2.0 ** 53)

    def test_date_and_timestamp_stay_distinct(self):
        assert infer_contract(one_column_profile(["2021-01-01"])).fields[0].logical_type == "date"
        mixed = one_column_profile(["2021-01-01", "2021-01-01T10:00:00Z"])
        assert infer_contract(mixed).fields[0].logical_type == "string"


class TestEnumPromotion:
    def test_two_values_over_fifty_rows(self):
        values = ["active" if i % 2 == 0 else "inactive" for i in range(50)]
        spec = infer_contract(one_column_profile(values)).fields[0]
        assert spec.logical_type == "enum_string"
        assert spec.constraints.allowed_values == ["active", "inactive"]

    def test_too_few_rows_blocks_promotion(self):
        values = ["a" if i % 2 == 0 else "b" for i in range(19)]
        assert infer_contract(one_column_profile(values)).fields[0].logical_type == "string"

    def test_exactly_twenty_rows_two_values_promotes(self):
        values = ["a" if i % 2 == 0 else "b" for i in range(20)]
        assert infer_contract(one_column_profile(values)).fields[0].logical_type == "enum_string"

    def test_distinct_share_above_ten_percent_blocks_promotion(self):
        # 30 rows allow at most ceil(3) = 3 distinct values
        values = (["a", "b", "c", "d"] * 8)[:30]
        assert infer_contract(one_column_profile(values)).fields[0].logical_type == "string"
        values = (["a", "b", "c"] * 10)[:30]
        assert infer_contract(one_column_profile(values)).fields[0].logical_type == "enum_string"

    def test_id_like_columns_not_promoted(self):
        values = [f"u{i}" for i in range(50)]
        assert infer_contract(one_column_profile(values)).fields[0].logical_type == "string"

    def test_promotion_needs_complete_sample(self):
        # 3 distinct values but a sample cap of 2: cannot prove completeness
        values = (["a", "b", "c"] * 10)[:30]
        profile = one_column_profile(values, value_cap=2)
        assert infer_contract(profile).fields[0].logical_type == "string"

    def test_numeric_columns_never_promote(self):
        values = ["200" if i % 2 == 0 else "404" for i in range(40)]
        spec = infer_contract(one_column_profile(values)).fields[0]
        assert spec.logical_type == "integer"


class TestContractLevel:
    def test_empty_profile_is_an_error(self):
        profile = DataProfile("t", 0, [], "delimited", [])
        with pytest.raises(ContractForgeError, match="empty profile"):
            infer_contract(profile)
        with pytest.raises(ContractForgeError, match="empty profile"):
            safe_generic_contract(profile)

    def test_provenance_marks_oracle(self, toy_profile):
        contract = infer_contract(toy_profile)
        assert contract.provenance.generator_mode == "oracle"
        assert contract.status == "draft"
        assert contract.version == 1

    def test_deterministic_canonical_text(self, status_profile):
        first = canonicalize(infer_contract(status_profile))
        second = canonicalize(infer_contract(status_profile))
        assert first == second

    def test_soundness_on_sample_values(self, status_profile, toy_profile):
        from contractforge.lexical import classify_lexeme, is_subclass
        from contractforge.model import TYPES

        for profile in (status_profile, toy_profile):
            contract = infer_contract(profile)
            for column, spec in zip(profile.columns, contract.fields):
                for lexeme in column.sample_values:
                    assert is_subclass(classify_lexeme(lexeme),
                                       TYPES[spec.logical_type].lattice)

    def test_oracle_contract_accepts_own_sample_rows(self, status_profile):
        contract = infer_contract(status_profile)
        report = validate_rows(contract, status_profile.sample_rows)
        assert report.all_passed


class TestSafeGeneric:
    def test_all_nullable_string_fields(self, status_profile):
        contract = safe_generic_contract(status_profile)
        assert [f.name for f in contract.fields] == status_profile.column_names()
        for spec in contract.fields:
            assert spec.logical_type == "string"
            assert spec.nullable is True
            assert spec.constraints is None
        assert contract.rules == []
        assert contract.provenance.generator_mode == "fallback"

    def test_accepts_every_source_row(self, status_profile, toy_profile):
        for profile in (status_profile, toy_profile):
            contract = safe_generic_contract(profile)
            report = validate_rows(contract, profile.sample_rows)
            assert report.all_passed
            assert report.violations == []

    def test_safe_dominates_oracle(self, status_profile, toy_profile):
        # any row the inferred contract accepts, the safe contract accepts
        for profile in (status_profile, toy_profile):
            inferred = infer_contract(profile)
            safe = safe_generic_contract(profile)
            for row in profile.sample_rows:
                if validate_rows(inferred, [row]).all_passed:
                    assert validate_rows(safe, [row]).all_passed


def test_enum_threshold_uses_exact_arithmetic():
    # ceil(0.1 * 30) must be 3, not 4 (float rounding trap)
    values = (["a", "b", "c"] * 10)[:30]
    profile = one_column_profile(values)
    assert infer_contract(profile).fields[0].logical_type == "enum_string"
