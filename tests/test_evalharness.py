"""Structural accuracy and corpus-level evaluation."""

import pytest

from contractforge.backends import OracleBackend, ScriptedBackend
from contractforge.errors import ContractForgeError, InvariantViolation
from contractforge.evalharness import (format_metrics_table, run_eval,
                                       structural_accuracy)
from contractforge.inference import infer_contract
from contractforge.model import Constraints, Contract, FieldSpec, canonicalize
from contractforge.profiling import dump_profile
from conftest import profile_of


def contract_of(types: dict[str, str], name="t") -> Contract:
    contract = Contract(name, [
        FieldSpec(n, t, True,
                  constraints=Constraints(allowed_values=["a"])
                  if t == "enum_string" else None)
        for n, t in types.items()])
    contract.validate()
    return contract


class TestStructuralAccuracy:
    def test_identical_contracts_score_one(self):
        truth = contract_of({"a": "integer", "b": "string"})
        assert structural_accuracy(truth, truth) == 1.0

    def test_eleven_of_twelve(self):
        names = [f"c{i}" for i in range(12)]
        truth = contract_of({n: "integer" for n in names})
        generated = contract_of({**{n: "integer" for n in names[:11]},
                                 names[11]: "string"})
        assert structural_accuracy(generated, truth) == pytest.approx(11 / 12)

    def test_empty_generated_scores_zero(self):
        truth = contract_of({"a": "integer"})
        generated = Contract("t", [])
        assert structural_accuracy(generated, truth) == 0.0

    def test_empty_truth_is_an_error(self):
        with pytest.raises(ContractForgeError, match="no fields"):
            structural_accuracy(contract_of({"a": "integer"}), Contract("t", []))

    def test_field_order_irrelevant(self):
        truth = contract_of({"a": "integer", "b": "string"})
        flipped = contract_of({"b": "string", "a": "integer"})
        assert structural_accuracy(flipped, truth) == 1.0
        assert structural_accuracy(truth, flipped) == 1.0

    def test_integer_accepted_where_truth_says_number(self):
        truth = contract_of({"a": "number"})
        generated = contract_of({"a": "integer"})
        assert structural_accuracy(generated, truth) == 1.0
        # but not the other way around
        assert structural_accuracy(truth, generated) == 0.0

    def test_enum_string_is_not_plain_string(self):
        truth = contract_of({"a": "enum_string"})
        generated = contract_of({"a": "string"})
        assert structural_accuracy(generated, truth) == 0.0

    def test_padded_names_never_reach_matching(self):
        # Names match as written because a contract with a padded name
        # does not validate, so no generated or truth contract has one.
        with pytest.raises(InvariantViolation, match="names trimmed"):
            contract_of({" a ": "integer"})


def write_corpus(root, tables):
    """tables: list of (name, profile, truth_contract)"""
    root.mkdir(parents=True, exist_ok=True)
    for name, profile, truth in tables:
        (root / f"{name}.profile.json").write_text(dump_profile(profile))
        (root / f"{name}.truth.json").write_text(canonicalize(truth))


@pytest.fixture
def small_corpus(tmp_path):
    tables = []
    for i in range(5):
        # Each table has its own column, so an oracle stuck on one profile
        # would miss it on every other table.
        profile = profile_of(["id", f"label{i}"],
                             [[str(j), f"w{j % 3}"] for j in range(6 + i)],
                             name=f"table{i}")
        tables.append((f"table{i}", profile, infer_contract(profile)))
    root = tmp_path / "corpus"
    write_corpus(root, tables)
    return root


class TestRunEval:
    def test_oracle_self_consistency(self, small_corpus):
        # One oracle instance answers every table from that table's profile.
        metrics = run_eval(small_corpus, OracleBackend())
        assert metrics.tables_evaluated == 5
        assert [t.structural_accuracy for t in metrics.per_table] == [1.0] * 5
        assert metrics.mean_structural_accuracy == 1.0
        assert metrics.fallback_rate == 0.0
        assert metrics.syntax_validity_rate == 1.0

    def test_garbage_backend_falls_back_everywhere(self, tmp_path):
        # two tables: one all-string truth, one integer truth
        strings = profile_of(["a", "b"], [["x", "y"], ["z", ""]], name="strings")
        numbers = profile_of(["n"], [["1"], ["2"]], name="numbers")
        truth_strings = infer_contract(strings)          # both fields string
        truth_numbers = infer_contract(numbers)          # integer field
        root = tmp_path / "corpus"
        write_corpus(root, [("strings", strings, truth_strings),
                            ("numbers", numbers, truth_numbers)])
        backend = ScriptedBackend({})  # never answers: every table falls back
        metrics = run_eval(root, backend)
        assert metrics.fallback_rate == 1.0
        assert metrics.syntax_validity_rate == 0.0
        by_name = {t.name: t for t in metrics.per_table}
        # the safe contract types everything string: full credit on the
        # all-string truth, none on the integer truth
        assert by_name["strings"].structural_accuracy == 1.0
        assert by_name["numbers"].structural_accuracy == 0.0
        assert metrics.mean_structural_accuracy == 0.5

    def test_parsed_candidate_under_threshold_is_valid_and_falls_back(self, tmp_path):
        profile = profile_of(["n"], [["1"], ["2"]], name="numbers")
        root = tmp_path / "corpus"
        write_corpus(root, [("numbers", profile, infer_contract(profile))])
        stranger = Contract("t", [FieldSpec("other", "string", True)])
        metrics = run_eval(root, ScriptedBackend({"0": [canonicalize(stranger)]}))
        assert metrics.to_doc()["per_table"] == [
            {"name": "numbers", "structural_accuracy": 0.0,
             "syntactically_valid": True, "fallback": True}]
        assert (metrics.syntax_validity_rate, metrics.fallback_rate) == (1.0, 1.0)

    def test_means_recompute_from_per_table(self, small_corpus):
        metrics = run_eval(small_corpus, OracleBackend())
        per = metrics.per_table
        assert metrics.mean_structural_accuracy == pytest.approx(
            sum(t.structural_accuracy for t in per) / len(per))
        assert metrics.fallback_rate == pytest.approx(
            sum(t.fallback for t in per) / len(per))
        assert metrics.syntax_validity_rate == pytest.approx(
            sum(t.syntactically_valid for t in per) / len(per))

    def test_malformed_entries_skipped_and_counted(self, small_corpus):
        (small_corpus / "broken.profile.json").write_text("{not json")
        orphan = profile_of(["x"], [["1"]], name="orphan")
        (small_corpus / "orphan.profile.json").write_text(dump_profile(orphan))
        # no orphan.truth.json
        metrics = run_eval(small_corpus, OracleBackend())
        assert metrics.tables_evaluated == 5
        assert {s["name"] for s in metrics.skipped} == {"broken", "orphan"}
        assert metrics.to_doc()["tables_skipped"] == 2

    def test_deterministic_and_name_ordered(self, small_corpus):
        oracle = OracleBackend()
        first = run_eval(small_corpus, oracle).to_doc()
        second = run_eval(small_corpus, oracle).to_doc()
        assert first == second
        names = [t["name"] for t in first["per_table"]]
        assert names == sorted(names)

    def test_empty_corpus_is_an_error(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(ContractForgeError, match="profile.json"):
            run_eval(empty, ScriptedBackend({}))

    def test_human_table_renders(self, small_corpus):
        metrics = run_eval(small_corpus, OracleBackend())
        text = format_metrics_table(metrics)
        assert "mean structural accuracy" in text
        assert "table0" in text

    def test_two_pass_policy_over_corpus(self, small_corpus):
        from contractforge.generation import TWO_PASS, GenerationPolicy

        metrics = run_eval(small_corpus, OracleBackend(),
                           GenerationPolicy(mode=TWO_PASS))
        assert metrics.mean_structural_accuracy == 1.0
        assert metrics.fallback_rate == 0.0
