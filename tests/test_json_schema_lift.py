"""Bare JSON-Schema answers: ``from_json_schema`` reads back what
``to_json_schema`` writes, and a damaged completion, JSON Schema or contract
document, is lifted, parsed or refused cleanly, never a crash."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from contractforge.backends import ScriptedBackend
from contractforge.errors import ContractForgeError
from contractforge.generation import extract_contract, generate_contract
from contractforge.model import contract_from_doc, from_json_schema, to_json_schema
from _builders import MUTATIONS, mutated, random_contract
from conftest import profile_of

SEEDS = st.integers(0, 2**32)
#: The JSON-Schema keys whose values the lift reads by type.
SCHEMA_KEYS = ("type", "format", "enum", "required")
#: Columns named like the builders' fields, so that some candidates score
#: above the threshold and are chosen.
PROFILE = profile_of(["alpha", "beta", "gamma"],
                     [["1", "2021-01-02", "red"], ["", "x", "blue"], ["3", "", ""]])


def _by_name(docs) -> list:
    return sorted(docs, key=lambda doc: doc["name"])


def _exported(field_doc: dict) -> dict:
    """A field document less what JSON Schema export drops: ranges and
    format hints."""
    doc = dict(field_doc)
    kept = {key: value for key, value in doc.pop("constraints", {}).items()
            if key not in ("min", "max", "format_hint")}
    if kept:
        doc["constraints"] = kept
    return doc


class TestRoundTrip:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(SEEDS)
    def test_lift_inverts_the_export(self, seed):
        contract = random_contract(random.Random(seed))
        doc = from_json_schema(json.loads(to_json_schema(contract)))
        assert doc["name"] == contract.name
        assert _by_name(doc["fields"]) == _by_name(_exported(f.to_doc()) for f in contract.fields)
        contract_from_doc(doc)


class TestMutatedCompletions:
    """Only a ``ContractForgeError`` escapes extraction, and generation
    falls back on whatever it cannot use."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(SEEDS, st.sampled_from(["schema", "targeted schema", "contract"]), MUTATIONS)
    def test_only_contract_errors_escape(self, seed, kind, mutations):
        contract = random_contract(random.Random(seed))
        doc = contract.to_doc() if kind == "contract" else json.loads(to_json_schema(contract))
        text = json.dumps(mutated(doc, mutations, SCHEMA_KEYS if kind == "targeted schema" else None))
        try:
            extract_contract(text)
        except ContractForgeError:
            pass
        try:
            generate_contract(PROFILE, ScriptedBackend({"0": [text]}))
        except ContractForgeError:
            pass
