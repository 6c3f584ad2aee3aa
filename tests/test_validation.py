"""Row validation, drift detection, and the JSON Schema
agreement property (dual validation against the jsonschema package)."""

import json
from dataclasses import replace

import jsonschema
import pytest

from contractforge.errors import InvariantViolation
from contractforge.inference import infer_contract, safe_generic_contract
from contractforge.model import Constraints, Contract, FieldSpec, to_json_schema
from contractforge.profiling import ingest
from contractforge.validation import detect_drift, failing_rows, validate_rows
from conftest import csv_bytes, profile_of


def contract_of(*fields: FieldSpec, name="t") -> Contract:
    contract = Contract(name, list(fields))
    contract.validate()
    return contract


ENUM_FIELD = FieldSpec("status", "enum_string", False,
                       Constraints(allowed_values=["active", "inactive"]))


class TestValidateRows:
    def test_conforming_rows_pass(self, status_profile):
        contract = infer_contract(status_profile)
        report = validate_rows(contract, status_profile.sample_rows)
        assert report.all_passed
        assert report.rows_checked == len(status_profile.sample_rows)

    def test_empty_rows(self):
        report = validate_rows(contract_of(FieldSpec("a", "string", True)), [])
        assert (report.rows_checked, report.rows_passed) == (0, 0)
        assert report.violations == []

    def test_huge_numerals_compare_against_bounds(self):
        spec = FieldSpec("n", "number", False, Constraints(min_value=-5, max_value=5))
        rows = [{"n": "9" * 5000}, {"n": "-" + "9" * 5000}, {"n": "1e400"}, {"n": "4"}]
        report = validate_rows(contract_of(spec), rows)
        assert [(v.row_index, v.kind) for v in report.violations] == [
            (0, "range_violation"), (1, "range_violation"), (2, "range_violation")]
        assert report.violations[0].observed == "9" * 5000

    def test_huge_integer_passes_a_one_sided_range(self):
        spec = FieldSpec("n", "integer", False, Constraints(min_value=0))
        assert validate_rows(contract_of(spec), [{"n": "9" * 5000}]).all_passed

    def test_enum_violation(self):
        report = validate_rows(contract_of(ENUM_FIELD), [{"status": "deleted"}])
        assert [v.kind for v in report.violations] == ["enum_violation"]
        assert report.violations[0].observed == "deleted"

    def test_missing_field(self):
        report = validate_rows(contract_of(FieldSpec("a", "string", False)), [{}])
        assert [v.kind for v in report.violations] == ["missing_field"]

    def test_absent_nullable_is_fine(self):
        report = validate_rows(contract_of(FieldSpec("a", "string", True)), [{}])
        assert report.all_passed

    def test_null_violation(self):
        report = validate_rows(contract_of(FieldSpec("a", "string", False)),
                               [{"a": None}])
        assert [v.kind for v in report.violations] == ["null_violation"]

    def test_type_mismatch(self):
        report = validate_rows(contract_of(FieldSpec("n", "integer", False)),
                               [{"n": "abc"}, {"n": "2.5"}])
        assert [v.kind for v in report.violations] == ["type_mismatch", "type_mismatch"]
        assert report.rows_passed == 0

    def test_integer_conforms_to_number(self):
        report = validate_rows(contract_of(FieldSpec("n", "number", False)),
                               [{"n": "7"}])
        assert report.all_passed

    def test_temporal_conforms_to_string(self):
        report = validate_rows(contract_of(FieldSpec("s", "string", False)),
                               [{"s": "2021-01-01"}, {"s": "2021-01-01T10:00:00Z"},
                                {"s": "true"}, {"s": "7"}])
        assert report.all_passed

    def test_range_violation(self):
        spec = FieldSpec("n", "integer", False, Constraints(min_value=1, max_value=10))
        report = validate_rows(contract_of(spec), [{"n": "0"}, {"n": "5"}, {"n": "11"}])
        assert [v.kind for v in report.violations] == ["range_violation", "range_violation"]
        assert report.rows_passed == 1

    def test_unknown_field(self):
        report = validate_rows(contract_of(FieldSpec("a", "string", True)),
                               [{"a": "x", "mystery": "1"}])
        assert [v.kind for v in report.violations] == ["unknown_field"]
        assert report.violations[0].field_name == "mystery"

    def test_allow_unknown_flag(self):
        report = validate_rows(contract_of(FieldSpec("a", "string", True)),
                               [{"a": "x", "mystery": "1"}], allow_unknown=True)
        assert report.all_passed

    def test_empty_lexeme_passes_typed_fields(self):
        spec = FieldSpec("n", "integer", False, Constraints(min_value=5, max_value=9))
        report = validate_rows(contract_of(spec), [{"n": ""}])
        assert report.all_passed

    def test_native_values_are_lexemized(self):
        contract = contract_of(FieldSpec("n", "number", False),
                               FieldSpec("f", "boolean", False))
        report = validate_rows(contract, [{"n": 2.5, "f": True}])
        assert report.all_passed

    def test_violations_ordered_by_row_then_field(self):
        contract = contract_of(FieldSpec("a", "integer", False),
                               FieldSpec("b", "integer", False))
        rows = [{"a": "x", "b": "y"}, {"a": "x", "extra": "1"}]
        report = validate_rows(contract, rows)
        keys = [(v.row_index, v.field_name) for v in report.violations]
        assert keys == [(0, "a"), (0, "b"), (1, "a"), (1, "b"), (1, "extra")]

    def test_monotonic_under_row_removal(self):
        contract = contract_of(FieldSpec("n", "integer", False))
        rows = [{"n": "1"}, {"n": "bad"}, {"n": "2"}]
        full = validate_rows(contract, rows)
        trimmed = validate_rows(contract, [r for r in rows if r["n"] != "bad"])
        assert trimmed.rows_passed >= full.rows_passed


class TestContractChecked:
    """The engine checks the contract it compiles: a contract built in code
    that breaks an invariant is refused, not half-enforced or a crash."""

    @pytest.mark.parametrize("spec, message", [
        (FieldSpec("a", "integer", False, Constraints(min_value="0")), "min must be numeric"),
        (FieldSpec("a", "integr", False), "unknown logical_type"),
        (FieldSpec("a", "string", False, Constraints(allowed_values=["x"])),
         "allowed_values present iff enum_string"),
    ], ids=["text-bound", "type-typo", "enum-on-string"])
    @pytest.mark.parametrize("check", [validate_rows, failing_rows])
    def test_invalid_field_is_refused(self, check, spec, message):
        with pytest.raises(InvariantViolation, match=message):
            check(Contract("t", [spec]), [{"a": "1"}, {"a": "x"}])

    @pytest.mark.parametrize("contract, message", [
        (Contract("t", [FieldSpec("a", "integr", False)]), "unknown logical_type"),
        (Contract("t", None), "fields must be an array"),
    ], ids=["type-typo", "no-fields"])
    def test_drift_refuses_an_invalid_contract(self, contract, message):
        with pytest.raises(InvariantViolation, match=message):
            detect_drift(contract, profile_of(["a"], [["1"], ["2"]]))


class TestJsonSchemaAgreement:
    """Dual validation: rows accepted by validate_rows match rows accepted by
    a generic JSON-Schema validator on the export (no-range fixtures)."""

    CONTRACT = contract_of(
        FieldSpec("id", "integer", False),
        FieldSpec("price", "number", True),
        FieldSpec("ok", "boolean", False),
        FieldSpec("day", "date", True),
        ENUM_FIELD,
        FieldSpec("note", "string", True),
    )

    ROWS = [
        {"id": "1", "price": "2.5", "ok": "true", "day": "2021-01-01",
         "status": "active", "note": "hi"},
        {"id": "1", "price": None, "ok": "false", "day": None,
         "status": "inactive", "note": "7"},
        {"id": "1", "ok": "true", "status": "active"},                # nullables absent
        {"id": "oops", "price": "2.5", "ok": "true", "status": "active"},   # bad id
        {"id": "1", "ok": "true", "status": "retired"},               # enum violation
        {"id": "1", "ok": "true", "status": "active", "phantom": "x"},  # unknown key
        {"id": "1", "ok": "yes", "status": "active"},                 # bad boolean
        {"id": "1", "ok": "true", "status": "active", "day": "not-a-date"},
        {"price": "1.5", "ok": "true", "status": "active"},           # id missing
        {"id": None, "ok": "true", "status": "active"},               # id null
        {"id": "1", "ok": "true", "status": "active", "note": None},
    ]

    @staticmethod
    def typed_row(contract: Contract, row: dict) -> dict:
        """Materialize lexemes into JSON values per the contract's types."""
        typed = {}
        for key, value in row.items():
            if value is None:
                typed[key] = None
                continue
            try:
                spec = contract.field_spec(key)
            except KeyError:
                typed[key] = value
                continue
            if spec.logical_type == "integer":
                try:
                    typed[key] = int(value)
                except ValueError:
                    typed[key] = value
            elif spec.logical_type == "number":
                try:
                    typed[key] = int(value)
                except ValueError:
                    try:
                        typed[key] = float(value)
                    except ValueError:
                        typed[key] = value
            elif spec.logical_type == "boolean":
                typed[key] = value == "true" if value in ("true", "false") else value
            else:
                typed[key] = value
        return typed

    def test_agreement(self):
        schema = json.loads(to_json_schema(self.CONTRACT))
        validator = jsonschema.Draft7Validator(
            schema, format_checker=jsonschema.FormatChecker())
        for row in self.ROWS:
            ours = validate_rows(self.CONTRACT, [row]).all_passed
            theirs = validator.is_valid(self.typed_row(self.CONTRACT, row))
            assert ours == theirs, f"disagreement on {row}"


class TestDrift:
    def test_fixed_point_on_own_data(self, status_profile):
        contract = infer_contract(status_profile)
        report = detect_drift(contract, status_profile)
        assert report.empty
        assert report.breaking is False

    def test_added_column_is_non_breaking(self, toy_profile):
        contract = infer_contract(toy_profile)
        grown = profile_of(["id", "price", "note"],
                           [["1", "2.5", "x"], ["2", "", "y"]])
        report = detect_drift(contract, grown)
        assert report.added_columns == ["note"]
        assert report.removed_columns == []
        assert report.breaking is False

    def test_removed_column_breaks(self, toy_profile):
        contract = infer_contract(toy_profile)
        shrunk = profile_of(["id"], [["1"], ["2"]])
        report = detect_drift(contract, shrunk)
        assert report.removed_columns == ["price"]
        assert report.breaking is True

    def test_retyped_column_breaks(self, toy_profile):
        contract = infer_contract(toy_profile)
        drifted = ingest(csv_bytes(["id", "price"], [["abc", "2.5"]]), "delimited")
        report = detect_drift(contract, drifted)
        assert [r.name for r in report.retyped] == ["id"]
        assert report.retyped[0].old_type == "integer"
        assert report.retyped[0].observed_type == "string"
        assert report.breaking is True

    def test_repeated_column_name_reads_the_first_column(self, toy_profile):
        """A profile built in code may repeat a name; drift reads the column
        that ``DataProfile.column`` gives."""
        contract = infer_contract(toy_profile)
        text_id = profile_of(["id"], [["abc"]]).columns[0]
        repeated = replace(toy_profile, columns=[*toy_profile.columns, text_id])
        assert repeated.column("id") is toy_profile.columns[0]
        assert detect_drift(contract, repeated).retyped == []

    def test_widening_is_not_retype_under_conformance(self):
        # contract says number; data shows integers: conformant, no drift
        contract = contract_of(FieldSpec("n", "number", False))
        profile = profile_of(["n"], [["1"], ["2"]])
        assert detect_drift(contract, profile).empty

    def test_enum_column_observing_plain_strings_is_conformant(self):
        contract = contract_of(ENUM_FIELD)
        profile = profile_of(["status"], [["anything"], ["else"]])
        assert detect_drift(contract, profile).retyped == []

    def test_safe_contract_never_sees_retypes(self, status_profile):
        safe = safe_generic_contract(status_profile)
        drifted = profile_of(["id", "status", "created"],
                             [["x", "1", "2.5"]])
        assert detect_drift(safe, drifted).retyped == []
