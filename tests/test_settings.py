"""One definition and one check per setting: the library refuses a bad
setting with an error naming its key, and the CLI's config file refuses a
value exactly when the library refuses it."""

import contextlib
import io
import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractforge import cli
from contractforge.backends import GenerationRequest, HttpBackend, OracleBackend
from contractforge.cli import main
from contractforge.errors import ContractForgeError, IngestError
from contractforge.generation import GenerationPolicy, generate_contract
from contractforge.profiling import IngestOptions, dump_profile, ingest, read_table
from _builders import HOSTILE
from conftest import csv_bytes, profile_of

#: Never reached: every backend built here is refused before it sends.
CLOSED = "http://127.0.0.1:1/"
DATA = csv_bytes(["id", "price"], [["1", "2.5"], ["2", ""]])


def _generate(**policy):
    profile = profile_of(["id", "price"], [["1", "2.5"], ["2", ""]])
    return generate_contract(profile, OracleBackend(), GenerationPolicy(**policy))


def _http(**options):
    return HttpBackend(CLOSED, **options).complete(GenerationRequest(prompt="p"))


@pytest.mark.parametrize("call, key, error", [
    (lambda: _generate(threshold=math.nan), "threshold", ContractForgeError),
    (lambda: _generate(mode="bogus"), "mode", ContractForgeError),
    (lambda: _generate(max_output_chars=-5), "max_output_chars", ContractForgeError),
    (lambda: HttpBackend(CLOSED, retries=-1), "retries", ContractForgeError),
    (lambda: _http(retries=2.5), "retries", ContractForgeError),
    (lambda: _http(retries=1, backoff=math.inf), "backoff", ContractForgeError),
    (lambda: _http(retries=1, backoff=-1.0), "backoff", ContractForgeError),
    (lambda: _http(retries=0, timeout=math.nan), "timeout", ContractForgeError),
    (lambda: read_table(b"a,b\n1,2\n", "delimited", IngestOptions(delimiter=5)),
     "delimiter", IngestError),
    (lambda: ingest(b"a\n1\n", "delimited", IngestOptions(value_cap=10**20)),
     "value_cap", IngestError),
    # An int with no text (past the int-string digit limit) is named by its size.
    (lambda: read_table(b"a\n1\n", "delimited", IngestOptions(value_cap=10**5000)),
     "value_cap", IngestError),
    (lambda: read_table(b"a\n1\n", "delimited", IngestOptions(row_cap=-10**5000)),
     "row_cap", IngestError),
    (lambda: GenerationRequest(prompt="p", max_output_chars=-1), "max_output_chars",
     ContractForgeError),
], ids=["threshold-nan", "mode-bogus", "max-output-chars-negative", "retries-negative",
        "retries-float", "backoff-infinite", "backoff-negative", "timeout-nan",
        "delimiter-int", "value-cap-huge", "value-cap-past-the-digit-limit",
        "row-cap-negative-past-the-digit-limit", "request-max-output-chars-negative"])
def test_library_refuses_a_bad_setting_by_name(call, key, error):
    with pytest.raises(error, match=f"key '{key}' must"):
        call()


def test_a_request_reads_its_defaults_from_the_policy():
    request, policy = GenerationRequest(prompt="p"), GenerationPolicy()
    assert (request.temperature, request.max_output_chars, request.candidate_count) == \
        (policy.temperature, policy.max_output_chars, policy.candidate_count)


class TestCommandLine:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("settings")
        (root / "data.csv").write_bytes(DATA)
        (root / "data.ndjson").write_text('{"id": 1}\n')
        (root / "profile.json").write_text(dump_profile(ingest(DATA, "delimited")))
        return root

    @staticmethod
    def run(argv) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        return code, err.getvalue()

    def test_an_empty_delimiter_flag_is_refused(self, inputs):
        assert self.run(["profile", inputs / "data.csv", "--delimiter", ""]) == \
            (2, "error: delimiter must be one character, got ''\n")
        # ndjson reads no delimiter, so any flag value passes.
        assert self.run(["profile", inputs / "data.ndjson", "--format", "ndjson",
                         "--delimiter", ";;"])[0] == 0

    def test_the_config_is_checked_whole_for_every_command(self, inputs):
        config = inputs / "bad.config.json"
        config.write_text('{"ingest": {"value_cap": -1}}')
        code, err = self.run(["--config", config, "registry", "get", "x",
                              "--addr", "127.0.0.1:1"])
        assert (code, err) == (2, "error: config file key 'ingest' key 'value_cap' "
                                  "must be >= 0, not -1\n")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_the_library_and_the_config_file_agree(self, inputs, data):
        """A config value makes the CLI exit 2 exactly when the library
        refuses the same value of its setting."""
        section = data.draw(st.sampled_from(["ingest", "generation", "backend"]))
        keys = [key for key in cli.DEFAULT_CONFIG[section]
                if section != "backend" or key not in ("kind", "url", "script")]
        key = data.draw(st.sampled_from(keys))
        value = data.draw(st.sampled_from(HOSTILE + [-1, 0, 2**63, threading.TIMEOUT_MAX * 2]))
        config = inputs / "config.json"
        config.write_text(json.dumps({section: {key: value}}))
        if section == "generation":
            name = {spelled: name for name, spelled in cli._KEYS.items()}.get(key, key)
            if key == "mode" and isinstance(value, str):
                value = cli._MODES.get(value, value)
            refused = self.refuses(lambda: _generate(**{name: value}))
            argv = ["generate", inputs / "profile.json"]
        elif section == "ingest":
            refused = self.refuses(lambda: read_table(DATA, "delimited",
                                                      IngestOptions(**{key: value})))
            argv = ["profile", inputs / "data.csv"]
        else:
            refused = self.refuses(lambda: HttpBackend(CLOSED, **{key: value}))
            argv = ["profile", inputs / "data.csv"]
        code, err = self.run(["--config", config, *argv])
        assert code == (2 if refused else 0), (section, key, value, err)

    @staticmethod
    def refuses(call) -> bool:
        try:
            call()
        except ContractForgeError:
            return True
        return False
