"""Contract parsing, canonical form, and the JSON Schema export."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractforge.errors import ContractForgeError, ContractSyntaxError, InvariantViolation
from contractforge.model import (Constraints, Contract, FieldSpec, Provenance,
                                 QualityRule, canonicalize, contract_from_doc,
                                 parse_contract, to_json_schema)
from _builders import MUTATIONS, mutated, random_contract

MINIMAL = '{"name": "things", "fields": [{"name": "label", "logical_type": "string", "nullable": false}]}'


def sample_contract() -> Contract:
    return Contract(
        name="orders",
        fields=[
            FieldSpec("id", "integer", False, Constraints(min_value=1, max_value=99)),
            FieldSpec("status", "enum_string", False,
                      Constraints(allowed_values=["active", "inactive"])),
            FieldSpec("note", "string", True, description="free text"),
            FieldSpec("placed", "timestamp", False),
        ],
        rules=[QualityRule("not_null", "id", {}, "error")],
        version=2,
        status="approved",
        provenance=Provenance("oracle", "oracle", "2026-02-01T00:00:00+00:00"),
    )


class TestParse:
    def test_minimal_document(self):
        contract = parse_contract(MINIMAL)
        assert len(contract.fields) == 1
        assert contract.version == 1
        assert contract.status == "draft"
        assert contract.rules == []

    def test_not_json_is_a_syntax_error(self):
        with pytest.raises(ContractSyntaxError) as err:
            parse_contract("not json")
        assert err.value.position is not None
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("text, reason", [
        ("[" * 100_000, "nesting too deep"),
        ('{"name": ' + "9" * 5000 + "}", "integer literal too long"),
    ], ids=["too-deep", "long-integer"])
    def test_unreadable_json_is_a_syntax_error(self, text, reason):
        with pytest.raises(ContractSyntaxError, match=reason):
            parse_contract(text)

    def test_duplicate_field_names_violate_invariant(self):
        doc = {"name": "x", "fields": [
            {"name": "a", "logical_type": "string", "nullable": True},
            {"name": "a", "logical_type": "integer", "nullable": True}]}
        with pytest.raises(InvariantViolation, match="field names unique"):
            contract_from_doc(doc)

    @pytest.mark.parametrize("doc", [
        {"name": "x", "fields": [{"name": " a", "logical_type": "string", "nullable": True}]},
        {"name": "x", "fields": [{"name": "a", "logical_type": "string", "nullable": True}],
         "rules": [{"kind": "not_null", "column": "a\t"}]},
    ], ids=["field", "rule-column"])
    def test_padded_names_violate_invariant(self, doc):
        with pytest.raises(InvariantViolation, match="names trimmed"):
            parse_contract(json.dumps(doc))

    def test_unknown_top_level_keys_listed(self):
        doc = json.loads(MINIMAL)
        doc["extra"] = 1
        doc["bogus"] = 2
        with pytest.raises(InvariantViolation, match="'bogus', 'extra'"):
            contract_from_doc(doc)

    def test_unknown_field_keys_rejected(self):
        doc = json.loads(MINIMAL)
        doc["fields"][0]["surprise"] = True
        with pytest.raises(InvariantViolation, match="surprise"):
            contract_from_doc(doc)

    def test_unknown_logical_type(self):
        doc = json.loads(MINIMAL)
        doc["fields"][0]["logical_type"] = "varchar"
        with pytest.raises(InvariantViolation, match="unknown logical_type"):
            contract_from_doc(doc)

    def test_version_must_be_positive_integer(self):
        doc = json.loads(MINIMAL)
        doc["version"] = 0
        with pytest.raises(InvariantViolation, match="version >= 1"):
            contract_from_doc(doc)

    def test_enum_requires_allowed_values(self):
        doc = json.loads(MINIMAL)
        doc["fields"][0]["logical_type"] = "enum_string"
        with pytest.raises(InvariantViolation, match="allowed_values present iff enum_string"):
            contract_from_doc(doc)

    def test_allowed_values_forbidden_elsewhere(self):
        doc = json.loads(MINIMAL)
        doc["fields"][0]["constraints"] = {"allowed_values": ["x"]}
        with pytest.raises(InvariantViolation, match="allowed_values present iff enum_string"):
            contract_from_doc(doc)

    def test_min_must_not_exceed_max(self):
        doc = json.loads(MINIMAL)
        doc["fields"][0]["logical_type"] = "integer"
        doc["fields"][0]["constraints"] = {"min": 5, "max": 1}
        with pytest.raises(InvariantViolation, match="min <= max"):
            contract_from_doc(doc)

    def test_bounds_only_on_numeric_fields(self):
        doc = json.loads(MINIMAL)
        doc["fields"][0]["constraints"] = {"min": 1}
        with pytest.raises(InvariantViolation, match="min/max only on numeric"):
            contract_from_doc(doc)

    def test_format_hint_only_on_temporal_fields(self):
        doc = json.loads(MINIMAL)
        doc["fields"][0]["constraints"] = {"format_hint": "iso"}
        with pytest.raises(InvariantViolation, match="format_hint only on date/timestamp"):
            contract_from_doc(doc)

    def test_unknown_rule_kind_and_severity(self):
        doc = json.loads(MINIMAL)
        doc["rules"] = [{"kind": "sparkles", "column": "label",
                         "params": {}, "severity": "error"}]
        with pytest.raises(InvariantViolation, match="unknown rule kind"):
            contract_from_doc(doc)
        doc["rules"] = [{"kind": "not_null", "column": "label",
                         "params": {}, "severity": "fatal"}]
        with pytest.raises(InvariantViolation, match="unknown rule severity"):
            contract_from_doc(doc)

    def test_bad_rule_params(self):
        doc = json.loads(MINIMAL)
        doc["rules"] = [{"kind": "values_in_set", "column": "label",
                         "params": {"values": []}, "severity": "error"}]
        with pytest.raises(InvariantViolation, match="rule params match kind"):
            contract_from_doc(doc)


    @pytest.mark.parametrize("constraints, message", [
        ('{"min": NaN}', "fields[0].constraints.min must be finite"),
        ('{"max": Infinity}', "fields[0].constraints.max must be finite"),
        ('{"min": -Infinity, "max": 1}', "fields[0].constraints.min must be finite"),
    ], ids=["min-nan", "max-infinity", "min-minus-infinity"])
    def test_bounds_must_be_finite(self, constraints, message):
        text = ('{"name": "x", "fields": [{"name": "a", "logical_type": "number",'
                ' "nullable": true, "constraints": ' + constraints + '}]}')
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            parse_contract(text)

    @pytest.mark.parametrize("kind, params", [
        ("between", '{"min": NaN, "max": 1}'),
        ("between", '{"min": 0, "max": Infinity}'),
        ("between", '{"min": -Infinity, "max": 0}'),
        ("values_in_set", '{"values": [1, 2]}'),
        ("values_in_set", '{"values": ["a", null]}'),
    ], ids=["between-nan", "between-infinity", "between-minus-infinity",
            "set-of-numbers", "set-with-null"])
    def test_rule_params_are_finite_bounds_or_strings(self, kind, params):
        text = ('{"name": "x", "fields": [{"name": "a", "logical_type": "number",'
                ' "nullable": true}], "rules": [{"kind": "' + kind + '", "column": "a",'
                ' "params": ' + params + '}]}')
        with pytest.raises(InvariantViolation, match="rule params match kind"):
            parse_contract(text)

    @pytest.mark.parametrize("contract, message", [
        (Contract(None, []), "name must be text"),
        (Contract("x", ()), "fields must be an array"),
        (Contract("x", [FieldSpec("a", "string", "yes")]), "fields[0].nullable must be a boolean"),
        (Contract("x", [FieldSpec(1, "string", False)]), "fields[0].name must be text"),
        (Contract("x", [FieldSpec("a", "enum_string", False, Constraints(allowed_values=[1]))]),
         "fields[0].constraints.allowed_values must be a list of strings"),
        (Contract("x", [FieldSpec("a", "number", False, Constraints(min_value="0"))]),
         "fields[0].constraints.min must be numeric"),
        (Contract("x", [FieldSpec("a", "string", False)], [QualityRule("not_null", None)]),
         "rules[0].column must be text"),
        (Contract("x", [], provenance=Provenance("b", None)),
         "provenance.generator_mode must be text"),
    ], ids=["name", "fields-tuple", "nullable", "field-name", "allowed-values", "min", "rule-column",
            "generator-mode"])
    def test_a_contract_built_in_code_is_checked_like_its_document(self, contract, message):
        for check in (contract.validate, lambda: contract_from_doc(contract.to_doc())):
            with pytest.raises(InvariantViolation, match=re.escape(message)):
                check()


class TestCanonical:
    def test_round_trip_equality(self):
        contract = sample_contract()
        assert parse_contract(canonicalize(contract)) == contract

    @pytest.mark.parametrize("constraints", [{}, {"min": None}], ids=["empty", "null-min"])
    def test_constraints_with_no_key_set_round_trip(self, constraints):
        contract = parse_contract(json.dumps({"name": "t", "fields": [
            {"name": "n", "logical_type": "integer", "nullable": True,
             "constraints": constraints}]}))
        assert contract.fields[0].constraints is None
        assert parse_contract(canonicalize(contract)) == contract

    def test_canonicalize_idempotent(self):
        contract = sample_contract()
        once = canonicalize(contract)
        assert canonicalize(parse_contract(once)) == once

    def test_key_order_insensitive(self):
        scrambled = ('{"version": 1, "fields": [{"nullable": false, "name": "label",'
                     ' "logical_type": "string"}], "name": "things"}')
        assert canonicalize(parse_contract(scrambled)) == canonicalize(parse_contract(MINIMAL))

    def test_field_order_preserved(self):
        contract = sample_contract()
        names = [f["name"] for f in json.loads(canonicalize(contract))["fields"]]
        assert names == ["id", "status", "note", "placed"]

    def test_terminated_and_tidy(self):
        text = canonicalize(sample_contract())
        assert text.endswith("\n")
        assert not any(line != line.rstrip() for line in text.splitlines())

    def test_random_contracts_round_trip(self):
        rng = random.Random(20260809)
        for _ in range(30):
            contract = random_contract(rng)
            text = canonicalize(contract)
            again = parse_contract(text)
            assert again == contract
            assert canonicalize(again) == text


class TestJsonSchemaExport:
    def test_integer_field_mapping(self):
        contract = Contract("t", [FieldSpec("id", "integer", False)])
        schema = json.loads(to_json_schema(contract))
        assert schema["properties"]["id"]["type"] == "integer"
        assert schema["required"] == ["id"]
        assert schema["additionalProperties"] is False

    def test_nullable_union(self):
        contract = Contract("t", [FieldSpec("note", "string", True)])
        schema = json.loads(to_json_schema(contract))
        assert schema["properties"]["note"]["type"] == ["string", "null"]
        assert "required" not in schema

    def test_enum_mapping(self):
        contract = Contract("t", [FieldSpec(
            "status", "enum_string", False,
            Constraints(allowed_values=["active", "inactive"]))])
        schema = json.loads(to_json_schema(contract))
        assert schema["properties"]["status"]["enum"] == ["active", "inactive"]

    def test_nullable_enum_admits_null(self):
        contract = Contract("t", [FieldSpec(
            "status", "enum_string", True, Constraints(allowed_values=["a"]))])
        schema = json.loads(to_json_schema(contract))
        assert schema["properties"]["status"]["enum"] == ["a", None]

    def test_temporal_formats(self):
        contract = Contract("t", [FieldSpec("d", "date", False),
                                  FieldSpec("ts", "timestamp", False)])
        schema = json.loads(to_json_schema(contract))
        assert schema["properties"]["d"] == {"type": "string", "format": "date"}
        assert schema["properties"]["ts"] == {"type": "string", "format": "date-time"}

    def test_every_field_appears_exactly_once(self):
        contract = sample_contract()
        schema = json.loads(to_json_schema(contract))
        assert sorted(schema["properties"]) == sorted(f.name for f in contract.fields)

    def test_output_parses_for_random_contracts(self):
        rng = random.Random(8)
        for _ in range(20):
            schema = json.loads(to_json_schema(random_contract(rng)))
            assert schema["type"] == "object"


# -- one definition of a valid contract --------------------------------------------

def rich_contract() -> Contract:
    """``sample_contract`` with a rule of every kind."""
    contract = sample_contract()
    contract.rules += [
        QualityRule("values_in_set", "status", {"values": ["active"]}, "warning"),
        QualityRule("between", "id", {"min": 1, "max": 10**20}, "warning"),
        QualityRule("matches_format", "placed", {"format": "timestamp"}),
        QualityRule("unique", "id")]
    contract.validate()
    return contract


def _strict_json(text: str):
    def refuse(constant):
        raise AssertionError(f"canonical text holds {constant}")
    return json.loads(text, parse_constant=refuse)


BASES = st.one_of(st.just(None), st.integers(0, 2**32))


def _base(seed) -> Contract:
    return rich_contract() if seed is None else random_contract(random.Random(seed))


class TestOneDefinition:
    """``Contract.validate`` is the one definition of a valid contract: the
    parser refuses exactly what it refuses, and nothing else escapes."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(BASES, MUTATIONS)
    def test_mutated_documents_parse_or_fail_cleanly(self, seed, mutations):
        text = json.dumps(mutated(_base(seed).to_doc(), mutations))
        try:
            contract = parse_contract(text)
        except ContractForgeError:
            return
        canonical = canonicalize(contract)
        _strict_json(canonical)
        assert canonicalize(parse_contract(canonical)) == canonical

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(BASES, MUTATIONS)
    def test_validate_passes_exactly_when_the_document_parses(self, seed, mutations):
        contract = mutated(_base(seed), mutations)
        try:
            contract.validate()
            refusal = None
        except InvariantViolation as exc:
            refusal = str(exc)
        try:
            doc = contract.to_doc()
        except (AttributeError, TypeError):  # an ill-typed part has no document
            assert refusal is not None
            return
        try:
            contract_from_doc(doc)
            reparsed = None
        except InvariantViolation as exc:
            reparsed = str(exc)
        assert reparsed == refusal
        if refusal is None:
            canonical = canonicalize(contract)
            _strict_json(canonical)
            assert canonicalize(parse_contract(canonical)) == canonical
