"""The package namespace: ``import contractforge`` imports no submodule, and
each export or submodule, looked up on the package, is imported on first
use and is its home module's own object.  Every check runs in a fresh
interpreter, so that nothing imported earlier hides a missing lazy path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contractforge

#: The package's exports by home module; ``cli``, ``settings`` and
#: ``transport`` export nothing but are reachable as attributes too.
EXPORTS = {
    "backends": ["CompletionBackend", "GenerationRequest", "HttpBackend", "OracleBackend",
                 "ScriptedBackend"],
    "cli": [],
    "compatibility": ["COMPATIBILITY_MODES", "check_compatibility"],
    "errors": ["BackendTransportError", "ContractForgeError", "ContractSyntaxError",
               "ExtractionFailure", "IngestError", "InvariantViolation", "NotFoundError",
               "RegistryError", "RegistryRejection", "RegistryTransportError"],
    "evalharness": ["CorpusMetrics", "TableMetrics", "run_eval", "structural_accuracy"],
    "expectations": ["RuleResult", "evaluate_rules", "synthesize_rules"],
    "generation": ["GenerationPolicy", "GenerationReport", "TWO_PASS", "extract_contract",
                   "generate_contract", "score_candidate"],
    "inference": ["infer_contract", "infer_field", "safe_generic_contract"],
    "lexical": ["classify_lexeme", "join"],
    "model": ["CompatibilityVerdict", "Constraints", "Contract", "FieldSpec", "Provenance",
              "QualityRule", "canonicalize", "contract_from_doc", "from_json_schema",
              "parse_contract", "to_json_schema"],
    "profiling": ["ColumnProfile", "DataProfile", "IngestOptions", "Table", "dump_profile",
                  "ingest", "load_profile", "profile_column", "profile_table", "read_table"],
    "prompts": ["SINGLE_PASS", "TWO_PASS_STAGE1", "TWO_PASS_STAGE2", "build_prompt"],
    "registry": ["RegistryStore", "VersionRecord"],
    "service": ["RegistryClient", "RegistryServer"],
    "settings": [],
    "transport": [],
    "validation": ["DriftReport", "ValidationReport", "detect_drift", "failing_rows",
                   "validate_rows"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; return its last stdout line as JSON."""
    src = str(Path(contractforge.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    loaded = fresh("import json, sys, contractforge\n"
                   "print(json.dumps(sorted(m for m in sys.modules\n"
                   "                        if m.startswith('contractforge.'))))")
    assert loaded == []


def test_every_export_is_its_home_modules_object():
    probe = """
import importlib, json, sys
import contractforge
wrong = []
for module, names in json.loads(sys.argv[1]).items():
    for name in names:
        scope = {}
        exec(f"from contractforge import {name} as value", scope)
        home = getattr(importlib.import_module(f"contractforge.{module}"), name)
        if not (scope["value"] is home and getattr(contractforge, name) is home):
            wrong.append(f"{module}.{name}")
print(json.dumps(wrong))
"""
    assert fresh(probe, json.dumps(EXPORTS)) == []


def test_star_import_and_dir_list_every_export():
    listed = fresh("import json, contractforge\n"
                   "scope = {}\n"
                   "exec('from contractforge import *', scope)\n"
                   "print(json.dumps([sorted(k for k in scope if k != '__builtins__'),\n"
                   "                  dir(contractforge)]))")
    star, names = listed
    assert star == NAMES
    assert set(NAMES) | set(EXPORTS) <= set(names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_submodule_is_an_attribute_before_anything_imports_it(module):
    probe = ("import json, sys, contractforge\n"
             "name = 'contractforge.' + sys.argv[1]\n"
             "before = name in sys.modules\n"
             "found = getattr(contractforge, sys.argv[1])\n"
             "print(json.dumps([before, found is sys.modules[name]]))")
    assert fresh(probe, module) == [False, True]


@pytest.mark.parametrize("name", ["no_such_name", "check_syntax", "diff", "ContractDiff"])
def test_unknown_name_raises_the_standard_attribute_error(name):
    probe = ("import json, sys, contractforge\n"
             "try:\n"
             "    getattr(contractforge, sys.argv[1])\n"
             "    print(json.dumps(None))\n"
             "except AttributeError as exc:\n"
             "    print(json.dumps(str(exc)))")
    assert fresh(probe, name) == f"module 'contractforge' has no attribute {name!r}"


def test_compatibility_verdict_keeps_its_old_path():
    from contractforge import compatibility, model
    assert compatibility.CompatibilityVerdict is model.CompatibilityVerdict
