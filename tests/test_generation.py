"""Extraction/repair chain, candidate scoring, and the generation flow."""

import json
import random
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import _reference_engine as reference
from contractforge import transport
from contractforge.backends import (GenerationRequest, HttpBackend,
                                    OracleBackend, ScriptedBackend)
from contractforge.errors import (BackendTransportError, ContractForgeError,
                                  ExtractionFailure, InvariantViolation)
from contractforge.generation import (GenerationPolicy, TWO_PASS, _balanced_span,
                                      extract_contract, generate_contract,
                                      remove_trailing_commas, score_candidate,
                                      strip_fences, trim_to_braces)
from contractforge.inference import infer_contract
from contractforge.model import canonicalize, parse_contract
from contractforge.profiling import ingest, read_table
from contractforge.validation import validate_rows
from conftest import csv_bytes


@pytest.fixture
def oracle_text(toy_profile):
    return canonicalize(infer_contract(toy_profile))


class TestRepairSteps:
    def test_strip_fences(self):
        assert strip_fences("```json\n{\"a\": 1}\n```") == '{"a": 1}\n'
        assert strip_fences("no fences") == "no fences"

    def test_trim_to_braces_takes_first_balanced_span(self):
        assert trim_to_braces('hello {"a": {"b": 1}} world {"c": 2}') == '{"a": {"b": 1}}'

    def test_trim_ignores_braces_inside_strings(self):
        text = 'x {"a": "}"} y'
        assert trim_to_braces(text) == '{"a": "}"}'

    def test_trim_skips_unbalanced_openers(self):
        assert trim_to_braces('{ broken {"a": 1}') == '{"a": 1}'

    def test_trim_leaves_hopeless_text_alone(self):
        assert trim_to_braces("{ never closes") == "{ never closes"

    def test_remove_trailing_commas(self):
        assert remove_trailing_commas('{"a": [1, 2,], }') == '{"a": [1, 2] }'

    def test_comma_removal_respects_strings(self):
        text = '{"a": ",}", "b": 1,}'
        assert remove_trailing_commas(text) == '{"a": ",}", "b": 1}'

    def test_scanners_match_their_reference_copies(self):
        # Short strings over the characters the scanners act on: quotes,
        # escapes, delimiters, commas and whitespace.
        rng = random.Random(0)
        alphabet = '{}[]",\\ \t\nab1:'
        for _ in range(30_000):
            text = "".join(rng.choices(alphabet, k=rng.randrange(20)))
            assert remove_trailing_commas(text) == reference.remove_trailing_commas(text), text
            for pair in ("{}", "[]"):
                assert _balanced_span(text, *pair) == reference._balanced_span(text, *pair), text


class TestExtract:
    def test_clean_text_needs_no_repairs(self, oracle_text):
        contract, repairs = extract_contract(oracle_text)
        assert repairs == []
        assert contract.field_names() == ["id", "price"]

    def test_fenced_completion(self, oracle_text):
        contract, repairs = extract_contract(f"```json\n{oracle_text}```")
        assert repairs == ["strip_fences"]
        assert contract.field_names() == ["id", "price"]

    def test_prose_wrapped_completion(self, oracle_text):
        wrapped = f"Sure! Here is the schema: {oracle_text} Hope this helps"
        contract, repairs = extract_contract(wrapped)
        assert repairs == ["trim_to_braces"]
        assert contract.field_names() == ["id", "price"]

    def test_trailing_comma_completion(self):
        text = ('{"name": "t", "fields": [{"name": "a", "logical_type": "string",'
                ' "nullable": true},],}')
        contract, repairs = extract_contract(text)
        assert repairs == ["remove_trailing_commas"]
        assert contract.field_names() == ["a"]

    def test_fenced_and_trailing_comma(self):
        text = ('```\n{"name": "t", "fields": [{"name": "a",'
                ' "logical_type": "string", "nullable": true},]}\n```')
        contract, repairs = extract_contract(text)
        assert repairs == ["strip_fences", "remove_trailing_commas"]

    def test_bare_json_schema_gets_wrapped(self):
        schema = json.dumps({
            "title": "orders",
            "type": "object",
            "properties": {
                "id": {"type": "integer"},
                "when": {"type": "string", "format": "date-time"},
                "status": {"type": "string", "enum": ["a", "b"]},
                "note": {"type": ["string", "null"]},
            },
            "required": ["id", "when", "status"],
        })
        contract, repairs = extract_contract(schema)
        assert repairs == []
        assert contract.name == "orders"
        assert contract.version == 1
        assert contract.status == "draft"
        by_name = {f.name: f for f in contract.fields}
        assert by_name["id"].logical_type == "integer"
        assert by_name["id"].nullable is False
        assert by_name["when"].logical_type == "timestamp"
        assert by_name["status"].logical_type == "enum_string"
        assert by_name["status"].constraints.allowed_values == ["a", "b"]
        assert by_name["note"].nullable is True

    @pytest.mark.parametrize("hopeless", [
        "",
        "no braces at all",
        '{"name": "t", "fields": [',   # truncated, never balances
        "}{",
        "]([",
    ])
    def test_no_balanced_braces_never_parses(self, hopeless):
        with pytest.raises(ExtractionFailure):
            extract_contract(hopeless)

    def test_invariant_violations_are_not_repaired(self):
        text = json.dumps({"name": "t", "fields": [
            {"name": "a", "logical_type": "string", "nullable": True},
            {"name": "a", "logical_type": "integer", "nullable": True}]})
        with pytest.raises(ExtractionFailure, match="field names unique"):
            extract_contract(text)


    @pytest.mark.parametrize("text, reason", [
        ("[" * 100_000, "nesting too deep"),
        ('{"name": "t", "version": ' + "9" * 5000 + "}", "integer literal too long"),
    ], ids=["too-deep", "long-integer"])
    def test_unreadable_json_is_an_extraction_failure(self, text, reason):
        with pytest.raises(ExtractionFailure, match=reason):
            extract_contract(text)

class TestScore:
    def test_oracle_on_own_profile_scores_one(self, toy_profile):
        assert score_candidate(infer_contract(toy_profile), toy_profile) == 1.0

    def test_zero_overlap_bounded_by_row_weight(self, toy_profile):
        stranger = parse_contract(json.dumps({
            "name": "t", "fields": [
                {"name": "other", "logical_type": "string", "nullable": True}]}))
        assert score_candidate(stranger, toy_profile) <= 0.3

    def test_hallucinated_field_strictly_lowers_score(self, toy_profile):
        contract = infer_contract(toy_profile)
        import copy

        padded = copy.deepcopy(contract)
        from contractforge.model import FieldSpec

        padded.fields.append(FieldSpec("invented", "string", True))
        perfect = score_candidate(contract, toy_profile)
        degraded = score_candidate(padded, toy_profile)
        assert perfect == 1.0
        # coverage 1, pass rate 1, hallucination 1/3
        assert degraded == pytest.approx(0.5 + 0.3 + 0.2 * (2 / 3))
        assert degraded < perfect


class TestGenerate:
    def test_clean_candidate_chosen(self, toy_profile, oracle_text):
        backend = ScriptedBackend.from_completions([[oracle_text]])
        contract, report = generate_contract(toy_profile, backend)
        assert report.fallback is False
        assert report.chosen == 0
        assert report.fallback == (report.chosen is None)
        assert contract.field_names() == ["id", "price"]
        assert contract.provenance.backend_id == "script"
        assert contract.provenance.generator_mode == "backend"

    def test_unparseable_garbage_falls_back(self, toy_profile):
        backend = ScriptedBackend.from_completions([["$$$ nonsense", "more garbage"]])
        contract, report = generate_contract(
            toy_profile, backend, GenerationPolicy(candidate_count=2))
        assert report.fallback is True
        assert report.chosen is None
        assert report.fallback == (report.chosen is None)
        assert contract.provenance.generator_mode == "fallback"
        assert contract.provenance.backend_id == "script"
        assert all(f.logical_type == "string" and f.nullable for f in contract.fields)

    def test_best_candidate_wins(self, toy_profile, oracle_text):
        hallucinated = json.loads(oracle_text)
        hallucinated["fields"].append(
            {"name": "phantom", "logical_type": "string", "nullable": True})
        backend = ScriptedBackend.from_completions([[
            "garbage ...",
            f"```json\n{oracle_text}\n```",
            json.dumps(hallucinated),
        ]])
        contract, report = generate_contract(
            toy_profile, backend, GenerationPolicy(candidate_count=3))
        assert report.chosen == 1
        assert report.candidates[1].repairs_applied == ["strip_fences"]
        assert report.candidates[0].parsed is None
        assert report.candidates[2].score == pytest.approx(0.5 + 0.3 + 0.2 * (2 / 3))
        assert contract.field_names() == ["id", "price"]

    def test_padded_field_name_falls_back(self):
        # Matched on trimmed names, this candidate would score 0.7 and be
        # chosen, then reject every row of its own source.
        data = csv_bytes(["id", "price"], [["1", "2.5"], ["2", "3"], ["3", ""]])
        profile = ingest(data, "delimited")
        padded = json.dumps({"name": "t", "fields": [
            {"name": " id", "logical_type": "integer", "nullable": False},
            {"name": "price", "logical_type": "number", "nullable": True}]})
        contract, report = generate_contract(
            profile, ScriptedBackend.from_completions([[padded]]))
        assert report.fallback is True
        assert "names trimmed" in report.candidates[0].error
        assert validate_rows(contract, read_table(data, "delimited")[1]).all_passed

    def test_fallback_for_a_profile_repeating_a_column_is_rejected(self):
        # Such a profile can be built in code; ``load_profile`` rejects it.
        profile = ingest(csv_bytes(["id", "price"], [["1", "2.5"]]), "delimited")
        profile.columns.append(profile.columns[0])
        with pytest.raises(InvariantViolation, match="field names unique"):
            generate_contract(profile, ScriptedBackend({}))

    def test_tie_breaks_to_lowest_index(self, toy_profile, oracle_text):
        backend = ScriptedBackend.from_completions([[oracle_text, oracle_text]])
        _, report = generate_contract(toy_profile, backend,
                                      GenerationPolicy(candidate_count=2))
        assert report.chosen == 0

    def test_low_scores_fall_back_at_threshold(self, toy_profile):
        poor = json.dumps({"name": "t", "fields": [
            {"name": "unrelated", "logical_type": "string", "nullable": True}]})
        backend = ScriptedBackend.from_completions([[poor]])
        contract, report = generate_contract(toy_profile, backend)
        assert report.fallback is True
        # the poor candidate is still recorded with its score
        assert report.candidates[0].score is not None

    def test_deterministic_report(self, toy_profile, oracle_text):
        def run():
            backend = ScriptedBackend.from_completions([["junk", oracle_text]])
            _, report = generate_contract(toy_profile, backend,
                                          GenerationPolicy(candidate_count=2))
            return json.dumps(report.to_doc(), sort_keys=True)

        assert run() == run()

    def test_every_returned_contract_reparses(self, toy_profile, oracle_text):
        completions = [[oracle_text], ["junk"], [f"notes {oracle_text} notes"]]
        for texts in completions:
            backend = ScriptedBackend.from_completions([texts])
            contract, _ = generate_contract(toy_profile, backend)
            assert parse_contract(canonicalize(contract)) == contract

    def test_two_pass_with_oracle_backend(self, status_profile):
        contract, report = generate_contract(
            status_profile, OracleBackend(),
            GenerationPolicy(mode=TWO_PASS))
        assert report.mode == TWO_PASS
        assert report.fallback is False
        assert contract.field_names() == status_profile.column_names()

    def test_two_pass_with_fenced_stage1_array(self, toy_profile, oracle_text):
        backend = ScriptedBackend.from_completions([
            ['```json\n["id", "price"]\n```'],  # stage 1, fenced
            [oracle_text],                         # stage 2
        ])
        contract, report = generate_contract(toy_profile, backend,
                                             GenerationPolicy(mode=TWO_PASS))
        assert report.mode == TWO_PASS
        assert report.fallback is False
        assert contract.field_names() == ["id", "price"]

    def test_two_pass_degrades_when_stage1_fails(self, toy_profile, oracle_text):
        backend = ScriptedBackend.from_completions([
            ["not a json array"],   # stage 1
            [oracle_text],          # stage 2 falls back to single-pass prompt
        ])
        contract, report = generate_contract(toy_profile, backend,
                                             GenerationPolicy(mode=TWO_PASS))
        assert report.mode == "single_pass"
        assert report.fallback is False

    def test_too_deep_completions_fall_back(self, toy_profile):
        backend = ScriptedBackend.from_completions([["[" * 100_000], ["[" * 100_000]])
        contract, report = generate_contract(toy_profile, backend,
                                             GenerationPolicy(mode=TWO_PASS))
        assert report.mode == "single_pass"  # stage 1 unreadable: degraded
        assert report.fallback is True
        assert "nesting too deep" in report.candidates[0].error
        assert contract.provenance.generator_mode == "fallback"

    def test_empty_profile_rejected(self):
        from contractforge.profiling import DataProfile

        with pytest.raises(ContractForgeError, match="empty profile"):
            generate_contract(DataProfile("x", 0, [], "delimited", []),
                              ScriptedBackend({}))


class TestOracleBackend:
    def test_one_instance_serves_every_profile(self, toy_profile, status_profile):
        oracle = OracleBackend()
        for profile in (toy_profile, status_profile, toy_profile):
            for mode in ("single_pass", TWO_PASS):
                contract, report = generate_contract(profile, oracle,
                                                     GenerationPolicy(mode=mode))
                assert (report.chosen, report.fallback, report.mode) == (0, False, mode)
                inferred = infer_contract(profile)
                assert (contract.fields, contract.rules) == (inferred.fields, inferred.rules)

    def test_request_without_a_profile_is_refused(self):
        with pytest.raises(ContractForgeError, match="carries its profile"):
            OracleBackend().complete(GenerationRequest(prompt="x"))

    def test_profile_stays_out_of_request_equality_and_repr(self, toy_profile):
        request = GenerationRequest(prompt="p", profile=toy_profile)
        assert request == GenerationRequest(prompt="p")
        assert "profile" not in repr(request)


class TestScriptedBackend:
    def test_sequence_keys(self):
        backend = ScriptedBackend({"0": ["a"], "1": ["b"]})
        request = GenerationRequest(prompt="p")
        assert backend.complete(request) == ["a"]
        assert backend.complete(request) == ["b"]
        assert backend.complete(request) == []

    def test_hash_key_takes_precedence(self):
        key = ScriptedBackend.prompt_key("the prompt")
        backend = ScriptedBackend({"0": ["seq"], key: ["hashed"]})
        assert backend.complete(GenerationRequest(prompt="the prompt")) == ["hashed"]

    def test_candidate_count_caps_output(self):
        backend = ScriptedBackend({"0": ["a", "b", "c"]})
        assert backend.complete(GenerationRequest(prompt="p", candidate_count=2)) == ["a", "b"]

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"0": ["x"]}))
        backend = ScriptedBackend.from_file(path)
        assert backend.complete(GenerationRequest(prompt="p")) == ["x"]

    def test_request_invariants(self):
        with pytest.raises(ContractForgeError):
            GenerationRequest(prompt="p", candidate_count=0)
        with pytest.raises(ContractForgeError):
            GenerationRequest(prompt="p", temperature=-1)


class _StubHandler(BaseHTTPRequestHandler):
    responses: list = []
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(
            {"body": body, "auth": self.headers.get("Authorization")})
        status, payload = type(self).responses.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.responses = []
    _StubHandler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", _StubHandler
    server.shutdown()
    server.server_close()


class _RedirectHandler(BaseHTTPRequestHandler):
    """Answers every request with a 302 to the class-level ``location`` and
    records the ``Authorization`` header of every request it is sent."""

    location = ""
    auth_seen: list = []

    def _answer(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        type(self).auth_seen.append(self.headers.get("Authorization"))
        self.send_response(302)
        self.send_header("Location", self.location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_POST = _answer

    def log_message(self, fmt, *args):
        pass


@contextmanager
def _serving(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHttpBackend:
    def test_wire_format_and_response(self, stub_server, monkeypatch):
        url, handler = stub_server
        handler.responses = [(200, {"completions": ["one", "two"]})]
        monkeypatch.setenv("FORGE_TOKEN", "sekrit")
        backend = HttpBackend(url, auth_env="FORGE_TOKEN", retries=0)
        request = GenerationRequest(prompt="p", temperature=0.5,
                                    max_output_chars=123, candidate_count=2)
        assert backend.complete(request) == ["one", "two"]
        seen = handler.requests_seen[0]
        assert seen["body"] == {"prompt": "p", "temperature": 0.5,
                                "max_tokens": 123, "n": 2}
        assert seen["auth"] == "Bearer sekrit"

    def test_retries_transient_server_errors(self, stub_server):
        url, handler = stub_server
        handler.responses = [(500, {}), (200, {"completions": ["ok"]})]
        backend = HttpBackend(url, retries=1, backoff=0.01)
        assert backend.complete(GenerationRequest(prompt="p")) == ["ok"]

    def test_client_error_fails_immediately(self, stub_server):
        url, handler = stub_server
        handler.responses = [(404, {"error": "nope"})]
        backend = HttpBackend(url, retries=3, backoff=0.01)
        with pytest.raises(BackendTransportError):
            backend.complete(GenerationRequest(prompt="p"))
        assert len(handler.requests_seen) == 1

    def test_redirect_is_not_followed(self, monkeypatch):
        # The first host redirects to a second one, which would redirect
        # onwards: only the first may see the token.
        first = type("First", (_RedirectHandler,), {"auth_seen": []})
        second = type("Second", (_RedirectHandler,), {"auth_seen": []})
        monkeypatch.setenv("FORGE_TOKEN", "sekrit")
        with _serving(second) as second_url, _serving(first) as first_url:
            first.location = second.location = second_url + "/elsewhere"
            backend = HttpBackend(first_url + "/complete", auth_env="FORGE_TOKEN",
                                  retries=2, backoff=0.01)
            with pytest.raises(BackendTransportError, match="302"):
                backend.complete(GenerationRequest(prompt="p"))
        assert first.auth_seen == ["Bearer sekrit"]
        assert second.auth_seen == []

    def test_unreachable_raises_transport_error(self):
        for url in ("http://127.0.0.1:1/complete", "127.0.0.1:1/complete"):
            backend = HttpBackend(url, timeout=0.2, retries=0)
            with pytest.raises(BackendTransportError, match="unreachable"):
                backend.complete(GenerationRequest(prompt="p"))

    def test_malformed_body_is_transport_error(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, {"unexpected": []})]
        backend = HttpBackend(url, retries=0)
        with pytest.raises(BackendTransportError, match="completions"):
            backend.complete(GenerationRequest(prompt="p"))

    @pytest.mark.parametrize("raw", [b"[" * 100_000, b"9" * 5000],
                             ids=["too-deep", "long-integer"])
    def test_unreadable_body_is_transport_error(self, monkeypatch, raw):
        monkeypatch.setattr(transport, "send", lambda *args, **kwargs: (200, raw))
        backend = HttpBackend("http://127.0.0.1:1/complete", retries=0)
        with pytest.raises(BackendTransportError, match="non-JSON body"):
            backend.complete(GenerationRequest(prompt="p"))
