"""Command-line surface: subcommands, exit codes, file outputs."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

import contractforge
from contractforge import cli
from contractforge.cli import main
from contractforge.inference import infer_contract
from contractforge.model import canonicalize, parse_contract
from contractforge.profiling import dump_profile, ingest, load_profile
from contractforge.registry import RegistryStore
from contractforge.service import RegistryServer
from _builders import MUTATIONS, mutated
from conftest import csv_bytes


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_bytes(csv_bytes(["id", "price"], [["1", "2.5"], ["2", ""]]))
    return path


@pytest.fixture
def toy_profile_file(tmp_path, toy_csv):
    path = tmp_path / "toy.profile.json"
    exit_code = main(["profile", str(toy_csv), "--format", "delimited",
                      "--out", str(path)])
    assert exit_code == 0
    return path


@pytest.fixture
def toy_contract_file(tmp_path, toy_profile_file):
    path = tmp_path / "toy.contract.json"
    exit_code = main(["generate", str(toy_profile_file), "--backend", "oracle",
                      "--out", str(path)])
    assert exit_code == 0
    return path


class TestProfileCommand:
    def test_profile_to_stdout(self, toy_csv, capsys):
        assert main(["profile", str(toy_csv), "--format", "delimited"]) == 0
        profile = load_profile(capsys.readouterr().out)
        assert profile.dataset_name == "toy"
        assert profile.column_names() == ["id", "price"]

    def test_profile_file_matches_library_output(self, toy_csv, toy_profile_file):
        expected = dump_profile(ingest(toy_csv.read_bytes(), "delimited",
                                       dataset_name="toy"))
        assert toy_profile_file.read_text() == expected

    def test_missing_file_is_invalid_input(self, tmp_path):
        assert main(["profile", str(tmp_path / "nope.csv"),
                     "--format", "delimited"]) == 2

    def test_ndjson_format(self, tmp_path, capsys):
        path = tmp_path / "rows.ndjson"
        path.write_text('{"a": {"b": 1}}\n')
        assert main(["profile", str(path), "--format", "ndjson"]) == 0
        profile = load_profile(capsys.readouterr().out)
        assert profile.column_names() == ["a.b"]


class TestGenerateCommand:
    def test_oracle_generation(self, toy_profile_file, toy_contract_file):
        contract = parse_contract(toy_contract_file.read_text())
        assert contract.field_names() == ["id", "price"]
        assert contract.provenance.generator_mode == "backend"
        assert contract.provenance.backend_id == "oracle"
        assert contract.provenance.generated_at  # CLI stamps wall-clock time

    def test_scripted_generation_with_report(self, tmp_path, toy_profile_file):
        profile = load_profile(toy_profile_file.read_text())
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"0": [canonicalize(infer_contract(profile))]}))
        out = tmp_path / "c.json"
        report_path = tmp_path / "r.json"
        assert main(["generate", str(toy_profile_file), "--backend", "script",
                     "--script", str(script), "--out", str(out),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["fallback"] is False
        assert report["chosen"] == 0

    def test_scripted_generation_on_a_lone_surrogate_name(self, tmp_path, toy_profile_file):
        """A profile may hold a lone-surrogate escape, which is valid JSON;
        the scripted backend still keys the prompt."""
        doc = json.loads(toy_profile_file.read_text())
        doc["dataset_name"] = "t\ud800"
        profile = tmp_path / "surrogate.profile.json"
        profile.write_text(json.dumps(doc))
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"0": ["junk"]}))
        out, report = tmp_path / "c.json", tmp_path / "r.json"
        assert main(["generate", str(profile), "--backend", "script", "--script", str(script),
                     "--out", str(out), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["fallback"] is True
        assert parse_contract(out.read_text()).name == "t\ud800"

    def test_unreachable_http_backend_exits_4(self, tmp_path, toy_profile_file):
        config = tmp_path / "config.json"
        for url in ("http://127.0.0.1:1/complete", "127.0.0.1:1/complete"):
            config.write_text(json.dumps({
                "backend": {"kind": "http", "url": url,
                            "timeout": 0.2, "retries": 0}}))
            assert main(["--config", str(config), "generate",
                         str(toy_profile_file)]) == 4

    def test_missing_script_path_is_invalid(self, toy_profile_file):
        assert main(["generate", str(toy_profile_file),
                     "--backend", "script"]) == 2

    def test_policy_file_overrides_generation_settings(self, tmp_path,
                                                       toy_profile_file, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"mode": "two-pass", "threshold": 0.9}))
        out = tmp_path / "c.json"
        assert main(["generate", str(toy_profile_file), "--backend", "oracle",
                     "--policy", str(policy), "--out", str(out),
                     "--report", str(tmp_path / "r.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["mode"] == "two_pass"


class TestValidateCommand:
    def test_conforming_data_exits_0(self, tmp_path, toy_csv, toy_contract_file):
        report_path = tmp_path / "report.json"
        code = main(["validate", str(toy_contract_file), str(toy_csv),
                     "--format", "delimited", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["rows_checked"] == report["rows_passed"] == 2

    def test_violations_exit_1(self, tmp_path, toy_contract_file):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(csv_bytes(["id", "price"], [["x", "2.5"]]))
        assert main(["validate", str(toy_contract_file), str(bad),
                     "--format", "delimited"]) == 1

    def test_violations_past_20_are_counted_not_listed(self, tmp_path, toy_contract_file,
                                                      capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(csv_bytes(["id", "price"], [["x", "2.5"]] * 23))
        capsys.readouterr()
        assert main(["validate", str(toy_contract_file), str(bad),
                     "--format", "delimited"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "rows passed: 0/23, violations: 23"
        assert err[1:21] == [f"  row {i} field 'id': type_mismatch (observed 'x')"
                             for i in range(20)]
        assert err[21:] == ["  ... and 3 more"]

    def test_invalid_contract_exits_2(self, tmp_path, toy_csv):
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        assert main(["validate", str(broken), str(toy_csv),
                     "--format", "delimited"]) == 2

    def test_allow_unknown_flag(self, tmp_path, toy_contract_file):
        grown = tmp_path / "grown.csv"
        grown.write_bytes(csv_bytes(["id", "price", "extra"], [["1", "2.5", "x"]]))
        assert main(["validate", str(toy_contract_file), str(grown),
                     "--format", "delimited"]) == 1
        assert main(["validate", str(toy_contract_file), str(grown),
                     "--format", "delimited", "--allow-unknown"]) == 0

    def test_ndjson_data(self, tmp_path, toy_contract_file):
        good = tmp_path / "rows.ndjson"
        good.write_text('{"id": 1, "price": 2.5}\n{"id": 2, "price": null}\n')
        assert main(["validate", str(toy_contract_file), str(good),
                     "--format", "ndjson"]) == 0
        missing = tmp_path / "missing.ndjson"
        missing.write_text('{"price": 2.5}\n')  # non-nullable id absent
        assert main(["validate", str(toy_contract_file), str(missing),
                     "--format", "ndjson"]) == 1

    def test_invalid_candidate_count_exits_2(self, toy_profile_file):
        assert main(["generate", str(toy_profile_file), "-n", "0"]) == 2


class TestDriftCommand:
    def test_no_drift_exits_0(self, toy_csv, toy_contract_file, capsys):
        assert main(["drift", str(toy_contract_file), str(toy_csv),
                     "--format", "delimited"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["breaking"] is False

    def test_breaking_drift_exits_3(self, tmp_path, toy_contract_file, capsys):
        drifted = tmp_path / "drifted.csv"
        drifted.write_bytes(csv_bytes(["id"], [["1"]]))  # price removed
        assert main(["drift", str(toy_contract_file), str(drifted),
                     "--format", "delimited"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed_columns"] == ["price"]

    def test_added_column_not_breaking(self, tmp_path, toy_contract_file):
        grown = tmp_path / "grown.csv"
        grown.write_bytes(csv_bytes(["id", "price", "note"], [["1", "2.5", "x"]]))
        assert main(["drift", str(toy_contract_file), str(grown),
                     "--format", "delimited"]) == 0


class TestRulesCommand:
    def test_print_rules(self, toy_profile_file, toy_contract_file, capsys):
        assert main(["rules", str(toy_profile_file), str(toy_contract_file)]) == 0
        rules = json.loads(capsys.readouterr().out)
        assert {r["kind"] for r in rules} >= {"not_null", "between"}

    def test_check_passes_on_source_data(self, toy_csv, toy_profile_file,
                                         toy_contract_file, capsys):
        assert main(["rules", str(toy_profile_file), str(toy_contract_file),
                     "--check", str(toy_csv), "--format", "delimited"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert all(r["pass"] for r in results)

    def test_check_failures_exit_1(self, tmp_path, toy_profile_file,
                                   toy_contract_file):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(csv_bytes(["id", "price"], [["", "2.5"]]))  # null id
        assert main(["rules", str(toy_profile_file), str(toy_contract_file),
                     "--check", str(bad), "--format", "delimited"]) == 1


class TestEvalCommand:
    def test_oracle_eval(self, tmp_path, toy_profile_file, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        profile = load_profile(toy_profile_file.read_text())
        (corpus / "toy.profile.json").write_text(dump_profile(profile))
        (corpus / "toy.truth.json").write_text(canonicalize(infer_contract(profile)))
        metrics_path = tmp_path / "metrics.json"
        assert main(["eval", str(corpus), "--backend", "oracle",
                     "--out", str(metrics_path)]) == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["mean_structural_accuracy"] == 1.0
        assert "mean structural accuracy" in capsys.readouterr().out


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, toy_csv):
        assert main(["profile", str(toy_csv), "--format", "delimited",
                     "--bogus"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "Exit codes" in out
        assert "70 internal error" in " ".join(out.split())

    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_crash_exits_70_with_one_line(self, toy_csv, monkeypatch, capsys):
        def crash(args, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_profile", crash)
        assert main(["profile", str(toy_csv)]) == cli.EXIT_INTERNAL == 70
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("addr", ["127.0.0.1:notaport", "127.0.0.1:70000",
                                      "127.0.0.1:-1", "127.0.0.1:", "127.0.0.1",
                                      "127.0.0.1:" + "9" * 5000])
    def test_serve_with_a_bad_port_exits_2(self, tmp_path, addr, capsys):
        assert main(["registry", "serve", "--root", str(tmp_path / "r"),
                     "--addr", addr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: registry address must be host:port")
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_non_object_config_exits_2(self, tmp_path, toy_csv):
        config = tmp_path / "config.json"
        config.write_text('[1, 2, 3]')
        assert main(["--config", str(config), "profile", str(toy_csv),
                     "--format", "delimited"]) == 2

    def test_import_pulls_in_no_http_library(self, tmp_path, toy_csv, toy_profile_file,
                                             toy_contract_file):
        """A fresh interpreter loads only what it runs.  Importing the CLI
        loads no HTTP library; ``profile``, ``validate``, ``drift`` and
        ``rules`` load neither the HTTP stack nor the backends or service;
        ``generate`` with the oracle or a script loads no HTTP stack; the
        registry client commands, against a closed port or a live server,
        load no server side and no engine past the model.  ``urllib.parse``
        is allowed: ``pathlib`` loads it."""
        probe = ("import json, sys\n"
                 "from contractforge.cli import main\n"
                 "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                 "print(json.dumps([codes, sorted(sys.modules)]))")
        src = str(Path(contractforge.__file__).resolve().parents[1])

        def loaded(commands, forbidden):
            done = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                                  env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            codes, modules = json.loads(done.stdout.splitlines()[-1])
            return codes, [m for m in modules if m in forbidden
                           or any(m.startswith(f + ".") for f in forbidden)]

        assert loaded([], ["requests", "urllib3", "contractforge.model"]) == ([], [])
        contract, data, profile = str(toy_contract_file), str(toy_csv), str(toy_profile_file)
        engine = [["profile", data, "--out", "profile.json"],
                  ["validate", contract, data, "--report", "validate.json"],
                  ["drift", contract, data, "--report", "drift.json"],
                  ["rules", profile, contract, "--check", data, "--out", "rules.json"]]
        http_stack = ["http", "urllib.request", "email", "ssl"]
        assert loaded(engine, [*http_stack, "contractforge.backends",
                               "contractforge.service"]) == ([0, 0, 0, 0], [])
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"0": [toy_contract_file.read_text()]}))
        generate = [["generate", profile, "--backend", "oracle", "--out", "oracle.json"],
                    ["generate", profile, "--backend", "script", "--script", str(script),
                     "--out", "script.json"]]
        assert loaded(generate, [*http_stack, "contractforge.transport"]) == ([0, 0], [])

        # ``lexical`` is allowed: the model's type table names its classes.
        server_side = ["http.server", "contractforge.registry", "contractforge.compatibility",
                       "contractforge.validation", "contractforge.profiling",
                       "contractforge.inference"]
        closed = ["--addr", "127.0.0.1:1"]
        client = [["registry", "publish", "toy", contract, *closed],
                  ["registry", "get", "toy", *closed],
                  ["registry", "approve", "toy", "1", "--reviewer", "alice", *closed],
                  ["registry", "compat", "toy", contract, *closed]]
        assert loaded(client, server_side) == ([4, 4, 4, 4], [])
        server = RegistryServer(RegistryStore(tmp_path / "registry_root")).start()
        try:
            live = ["--addr", server.address]
            client = [["registry", "publish", "toy", contract, *live],
                      ["registry", "approve", "toy", "1", "--reviewer", "alice", *live],
                      ["registry", "compat", "toy", contract, *live]]
            assert loaded(client, server_side) == ([0, 0, 0], [])
        finally:
            server.stop()


class TestRegistryCommands:
    @pytest.fixture
    def served(self, tmp_path):
        store = RegistryStore(tmp_path / "registry_root")
        server = RegistryServer(store).start()
        yield server.address
        server.stop()

    def test_publish_approve_get_feedback_compat(self, served, tmp_path,
                                                 toy_contract_file, capsys):
        addr = served
        assert main(["registry", "publish", "toy", str(toy_contract_file),
                     "--addr", addr]) == 0
        assert json.loads(capsys.readouterr().out)["version"] == 1

        assert main(["registry", "approve", "toy", "1",
                     "--reviewer", "alice", "--addr", addr]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "approved"

        assert main(["registry", "get", "toy", "--addr", addr]) == 0
        contract = parse_contract(capsys.readouterr().out)
        assert contract.version == 1 and contract.status == "approved"

        assert main(["registry", "feedback", "toy", "1", "--author", "bob",
                     "--note", "ship it", "--addr", addr]) == 0

        assert main(["registry", "compat", "toy", str(toy_contract_file),
                     "--addr", addr]) == 0
        assert json.loads(capsys.readouterr().out)["compatible"] is True

    def test_incompatible_publish_exits_5(self, served, tmp_path,
                                          toy_contract_file, capsys):
        addr = served
        main(["registry", "publish", "toy", str(toy_contract_file), "--addr", addr])
        main(["registry", "approve", "toy", "1", "--reviewer", "a", "--addr", addr])
        capsys.readouterr()

        narrowed = parse_contract(toy_contract_file.read_text())
        narrowed.fields[0].logical_type = "boolean"
        narrowed.fields[0].constraints = None
        bad = tmp_path / "narrowed.json"
        bad.write_text(canonicalize(narrowed))
        assert main(["registry", "publish", "toy", str(bad), "--addr", addr]) == 5
        assert main(["registry", "compat", "toy", str(bad), "--addr", addr]) == 5

    def test_get_unknown_exits_2(self, served):
        assert main(["registry", "get", "ghost", "--addr", served]) == 2

    def test_get_specific_version(self, served, toy_contract_file, capsys):
        addr = served
        main(["registry", "publish", "toy", str(toy_contract_file), "--addr", addr])
        main(["registry", "publish", "toy", str(toy_contract_file), "--addr", addr])
        capsys.readouterr()
        assert main(["registry", "get", "toy", "--version", "2",
                     "--addr", addr]) == 0
        contract = parse_contract(capsys.readouterr().out)
        assert contract.version == 2

    def test_unreachable_registry_exits_4(self, toy_contract_file):
        assert main(["registry", "publish", "toy", str(toy_contract_file),
                     "--addr", "127.0.0.1:1"]) == 4


class TestHugeNumerals:
    """Numerals past the int-string digit limit or float range never crash."""

    HUGE = "9" * 5000

    def _flow(self, tmp_path, header, rows):
        data = tmp_path / "data.csv"
        data.write_bytes(csv_bytes(header, rows))
        profile, contract = tmp_path / "p.json", tmp_path / "c.json"
        report, results = tmp_path / "report.json", tmp_path / "results.json"
        codes = [
            main(["profile", str(data), "--out", str(profile)]),
            main(["generate", str(profile), "--out", str(contract)]),
            main(["validate", str(contract), str(data), "--report", str(report)]),
            main(["rules", str(profile), str(contract), "--check", str(data),
                  "--out", str(results)]),
        ]
        return (codes, parse_contract(contract.read_text()), json.loads(report.read_text()),
                json.loads(results.read_text()))

    def test_sampled_huge_integer_runs_the_whole_flow(self, tmp_path):
        rows = [[f"n{i}", self.HUGE if i == 3 else str(i)] for i in range(30)]
        codes, contract, report, results = self._flow(tmp_path, ["name", "big"], rows)
        assert codes == [0, 0, 0, 0]
        assert contract.fields[1].logical_type == "integer"
        assert contract.fields[1].constraints is None
        assert report["rows_passed"] == 30
        assert all(r["pass"] for r in results)

    def test_unsampled_huge_integer_is_a_range_violation(self, tmp_path):
        # The profile samples the first 20 distinct values, 0..19; row 25 is
        # the only value outside that range.
        rows = [[f"n{i}", self.HUGE if i == 25 else str(i % 20)] for i in range(30)]
        codes, contract, report, results = self._flow(tmp_path, ["name", "big"], rows)
        assert codes == [0, 0, 1, 1]
        assert report["violations"] == [{"row_index": 25, "field_name": "big",
                                         "kind": "range_violation", "observed": self.HUGE}]
        assert [(r["rule"]["kind"], r["rows_failed"]) for r in results if not r["pass"]] == [
            ("between", 1)]

    def test_overflowing_number_gets_no_infinite_bound(self, tmp_path):
        rows = [[f"n{i}", "1e400" if i == 2 else f"{i}.5"] for i in range(30)]
        codes, contract, report, results = self._flow(tmp_path, ["name", "x"], rows)
        assert codes == [0, 0, 0, 0]
        assert contract.fields[1].logical_type == "number"
        assert contract.fields[1].constraints is None
        assert "Infinity" not in canonicalize(contract)
        assert "between" not in [r["rule"]["kind"] for r in results]

    def test_ndjson_huge_integer_exits_2(self, tmp_path, toy_profile_file,
                                         toy_contract_file, capsys):
        data = tmp_path / "huge.ndjson"
        data.write_text('{"id": 1}\n{"id": ' + self.HUGE + '}\n')
        for argv in (["profile", str(data)],
                     ["validate", str(toy_contract_file), str(data)],
                     ["rules", str(toy_profile_file), str(toy_contract_file),
                      "--check", str(data)]):
            assert main(argv + ["--format", "ndjson"]) == 2
            assert capsys.readouterr().err == (
                "error: ndjson line 2: integer literal too long to read\n")

    def test_contract_with_huge_integer_exits_2(self, tmp_path, toy_csv, capsys):
        contract = tmp_path / "huge.contract.json"
        contract.write_text('{"name": "t", "fields": [{"name": "id", "logical_type": '
                            '"integer", "nullable": false, "constraints": {"max": '
                            + self.HUGE + '}}]}')
        assert main(["validate", str(contract), str(toy_csv)]) == 2
        assert "integer literal too long" in capsys.readouterr().err


class TestUnreadableInputs:
    DEEP = b"[" * 100_000 + b"]" * 100_000

    @pytest.mark.parametrize("text, argv, message", [
        (DEEP, ["validate", "FILE", "CSV"], "syntax error: nesting too deep"),
        (DEEP, ["generate", "PROFILE", "--backend", "script", "--script", "FILE"],
         "scripted backend fixture"),
        (DEEP, ["generate", "FILE"], "profile: nesting too deep"),
        (DEEP, ["generate", "PROFILE", "--policy", "FILE"], "policy file"),
        (DEEP, ["--config", "FILE", "profile", "CSV"], "config file"),
        (b'{"id": 1}\n' + DEEP, ["validate", "CONTRACT", "FILE", "--format", "ndjson"],
         "ndjson line 2: nesting too deep"),
        (lambda profile: profile.replace(b'"row_count": 2', b'"row_count": ' + b"9" * 5000),
         ["generate", "FILE"],
         "profile: integer literal too long"),
        (b"{}", ["generate", "FILE"], "profile lacks key 'dataset_name'"),
        (lambda profile: profile.replace(b'"name": "id"', b'"name": " id"'), ["generate", "FILE"],
         "column name ' id' has leading or trailing whitespace"),
        (b"[1]", ["generate", "PROFILE", "--policy", "FILE"],
         "policy file must be a JSON object"),
        (b'{"ingest": 5}', ["--config", "FILE", "profile", "CSV"],
         "'ingest' must be a JSON object"),
        (b'{"generation": {"candidates": "x"}}', ["--config", "FILE", "generate", "PROFILE"],
         "'candidates' must be int, not str"),
        (b'{"threshold": true}', ["generate", "PROFILE", "--policy", "FILE"],
         "'threshold' must be float, not bool"),
        (b'{"name": "\xff"}', ["validate", "FILE", "CSV"], "can't decode byte 0xff"),
        (b'{"backend": {"kind": "script", "script": 5}}',
         ["--config", "FILE", "generate", "PROFILE"], "'script' must be str or null, not int"),
        (b'{"backend": {"kind": "http", "url": 5}}', ["--config", "FILE", "generate", "PROFILE"],
         "'url' must be str or null, not int"),
        (b'{"backend": {"auth_env": [1]}}', ["--config", "FILE", "generate", "PROFILE"],
         "'auth_env' must be str or null, not list"),
        (b'{"ingest": {"null_tokens": [["NA"]]}}', ["--config", "FILE", "profile", "CSV"],
         "'null_tokens' must hold only strings"),
        (b'{"ingest": {"value_cap": -1}}', ["--config", "FILE", "profile", "CSV"],
         "'value_cap' must be >= 0, not -1"),
        (b'{"ingest": {"row_cap": -1}}', ["--config", "FILE", "profile", "CSV"],
         "'row_cap' must be >= 0, not -1"),
        (b'{"ingest": {"flatten_depth": -1}}', ["--config", "FILE", "profile", "CSV"],
         "'flatten_depth' must be >= 0, not -1"),
        (b'{"backend": {"backoff": -1}}', ["--config", "FILE", "generate", "PROFILE"],
         "'backoff' must be >= 0, not -1"),
        (b'{"backend": {"timeout": -1}}', ["--config", "FILE", "generate", "PROFILE"],
         "'timeout' must be >= 0, not -1"),
        (b'{"backend": {"timeout": NaN}}', ["--config", "FILE", "generate", "PROFILE"],
         "'timeout' must be >= 0, not nan"),
        (b'{"backend": {"timeout": Infinity}}', ["--config", "FILE", "generate", "PROFILE"],
         "'timeout' must be at most 9.22337e+09, not inf"),
        (b'{"backend": {"backoff": 1e300}}', ["--config", "FILE", "generate", "PROFILE"],
         "'backoff' must be at most 9.22337e+09, not 1e+300"),
        (b'{"threshold": Infinity}', ["generate", "PROFILE", "--policy", "FILE"],
         "policy file key 'threshold' must be at most 1.79769e+308, not inf"),
        (b'{"generation": {"temperature": Infinity}}', ["--config", "FILE", "generate", "PROFILE"],
         "'temperature' must be at most 1.79769e+308, not inf"),
        (b'{"ingest": {"value_cap": 1' + b"0" * 40 + b'}}', ["--config", "FILE", "profile", "CSV"],
         "'value_cap' must be at most 9.22337e+18, not 1" + "0" * 40),
        (b"", ["generate", "PROFILE", "--threshold", "nan"],
         "command line key 'threshold' must be >= 0, not nan"),
        (b"", ["generate", "PROFILE", "--temperature", "inf"],
         "command line key 'temperature' must be at most 1.79769e+308, not inf"),
        (b'{"generation": {"mode": "two-pas"}}', ["--config", "FILE", "generate", "PROFILE"],
         "'mode' must be single or two-pass, not 'two-pas'"),
        (b'{"mode": "two-pas"}', ["generate", "PROFILE", "--policy", "FILE"],
         "policy file key 'mode' must be single or two-pass"),
        (b"a,b\n1\r2,3\n", ["profile", "FILE"], "ragged row 1"),
        (b"a\n" + b"x" * 200_000 + b"\n", ["validate", "CONTRACT", "FILE"],
         "malformed delimited line 2: field larger than field limit"),
    ], ids=["contract-too-deep", "script-too-deep", "profile-too-deep", "policy-too-deep",
            "config-too-deep", "ndjson-too-deep", "profile-long-integer", "profile-empty",
            "profile-column-name-padded",
            "policy-array", "config-ingest-int", "config-candidates-text",
            "policy-threshold-bool", "contract-not-utf8", "config-script-int",
            "config-url-int", "config-auth-env-list", "config-null-token-list",
            "config-value-cap-negative", "config-row-cap-negative",
            "config-flatten-depth-negative", "config-backoff-negative",
            "config-timeout-negative", "config-timeout-nan", "config-timeout-infinite",
            "config-backoff-huge", "policy-threshold-infinite", "config-temperature-infinite",
            "config-value-cap-huge", "flag-threshold-nan", "flag-temperature-infinite", "config-mode-typo",
            "policy-mode-typo", "csv-bare-cr", "csv-field-too-large"])
    def test_exits_2_with_an_error_line(self, tmp_path, toy_csv, toy_profile_file,
                                        toy_contract_file, capsys, text, argv, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text(toy_profile_file.read_bytes()) if callable(text) else text)
        paths = {"FILE": bad, "CSV": toy_csv, "PROFILE": toy_profile_file,
                 "CONTRACT": toy_contract_file}
        capsys.readouterr()
        assert main([str(paths.get(a, a)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    def test_profile_repeating_a_column_exits_2(self, tmp_path, toy_profile_file, capsys):
        # Were it read, a backend answering junk would make a fallback
        # contract with the field twice, which no reader accepts.
        doc = json.loads(toy_profile_file.read_text())
        doc["columns"].append(doc["columns"][0])
        profile = tmp_path / "repeated.profile.json"
        profile.write_text(json.dumps(doc))
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"0": ["junk"]}))
        out = tmp_path / "c.json"
        capsys.readouterr()
        assert main(["generate", str(profile), "--backend", "script", "--script", str(script),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: profile repeats column name 'id'\n"
        assert not out.exists()

    def test_too_deep_completion_falls_back(self, tmp_path, toy_profile_file):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"0": ["[" * 100_000]}))
        assert main(["generate", str(toy_profile_file), "--backend", "script",
                     "--script", str(script), "--report", str(tmp_path / "r.json")]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["fallback"] is True

    @pytest.mark.parametrize("completion, lifted", [
        ({"properties": {"a": {"type": {}}}}, {"a": ["string", True]}),
        ({"properties": {"id": {"type": "integer", "format": [1]}, "price": {"enum": [{}]}},
          "required": [[1], "id"]}, {"id": ["integer", False], "price": ["string", True]}),
    ], ids=["type-object", "required-list"])
    def test_ill_typed_json_schema_completion_is_lifted(self, tmp_path, toy_profile_file,
                                                        completion, lifted):
        """An ill-typed ``type``, ``format``, ``enum`` or ``required`` value
        in a bare JSON-Schema answer reads as unknown."""
        script, report = tmp_path / "script.json", tmp_path / "r.json"
        script.write_text(json.dumps({"0": [json.dumps(completion)]}))
        assert main(["generate", str(toy_profile_file), "--backend", "script",
                     "--script", str(script), "--report", str(report)]) == 0
        parsed = json.loads(report.read_text())["candidates"][0]["parsed"]
        assert {f["name"]: [f["logical_type"], f["nullable"]] for f in parsed["fields"]} == lifted

    def test_ints_stand_for_floats_and_null_defaults_take_anything(self, tmp_path,
                                                                   toy_profile_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"generation": {"temperature": 0, "threshold": 0,
                                                     "mode": "two_pass"},
                                      "backend": {"auth_env": "FORGE_TOKEN"},
                                      "unknown": [1]}))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"threshold": 1, "temperature": 0.5}))
        assert main(["--config", str(config), "generate", str(toy_profile_file),
                     "--policy", str(policy)]) == 0


class TestMutatedInputs:
    """A profile or config document with a key dropped, a list item
    duplicated or an ill-typed value swapped in is read or refused cleanly
    by every command that reads it: exit 0, 1 or 2, never 70."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mutated")
        data = root / "data.csv"
        data.write_bytes(csv_bytes(["id", "price", "status", "day", "note"], [
            [str(i), f"{i}.5", ["open", "shut"][i % 2], f"2021-01-{i + 1:02d}", ["", "x"][i % 2]]
            for i in range(12)]))
        profile = ingest(data.read_bytes(), "delimited", dataset_name="data")
        (root / "profile.json").write_text(dump_profile(profile))
        (root / "contract.json").write_text(canonicalize(infer_contract(profile)))
        return root

    @staticmethod
    def check(argv) -> None:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert code != 2 or err.getvalue().startswith("error: "), (argv, err.getvalue())

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(MUTATIONS)
    def test_mutated_profile(self, inputs, mutations):
        doc = mutated(json.loads((inputs / "profile.json").read_text()), mutations)
        profile = inputs / "mutated.profile.json"
        profile.write_text(json.dumps(doc))
        contract, data = inputs / "contract.json", inputs / "data.csv"
        self.check(["generate", profile])
        self.check(["rules", profile, contract])
        self.check(["rules", profile, contract, "--check", data])

    @settings(max_examples=70, deadline=None, derandomize=True, database=None)
    @given(MUTATIONS)
    def test_mutated_config(self, inputs, mutations):
        doc = mutated(cli.DEFAULT_CONFIG, mutations)
        backend = doc.get("backend")
        # Only the oracle backend may run: never one that reaches a network.
        assume(not isinstance(backend, dict) or backend.get("kind") in (None, "oracle"))
        config = inputs / "mutated.config.json"
        config.write_text(json.dumps(doc))
        profile, contract, data = (inputs / name for name in
                                   ("profile.json", "contract.json", "data.csv"))
        for argv in (["profile", data], ["generate", profile], ["rules", profile, contract],
                     ["rules", profile, contract, "--check", data],
                     ["validate", contract, data]):
            self.check(["--config", config, *argv])
