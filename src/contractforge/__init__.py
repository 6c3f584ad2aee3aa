"""contractforge: profile data samples, draft data contracts through
pluggable text-generation backends, synthesize quality rules, and enforce
contracts through a versioned registry with compatibility checking and
drift detection.

The usual flow:

    columns, table = read_table(open("orders.csv", "rb"), "delimited")
    profile = profile_table(table, "delimited", dataset_name="orders")
    contract, report = generate_contract(profile, OracleBackend())
    validate_rows(contract, table)
    store = RegistryStore("registry")
    version = store.publish("orders", contract)
    store.approve("orders", version, reviewer="alice")

Exports load lazily (PEP 562): ``import contractforge`` imports no submodule,
and each name or submodule is imported on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Submodule -> the names the package exports from it.
_EXPORTS = {
    "backends": ("CompletionBackend", "GenerationRequest", "HttpBackend", "OracleBackend",
                 "ScriptedBackend"),
    "cli": (),
    "compatibility": ("COMPATIBILITY_MODES", "check_compatibility"),
    "errors": ("BackendTransportError", "ContractForgeError", "ContractSyntaxError",
               "ExtractionFailure", "IngestError", "InvariantViolation", "NotFoundError",
               "RegistryError", "RegistryRejection", "RegistryTransportError"),
    "evalharness": ("CorpusMetrics", "TableMetrics", "run_eval", "structural_accuracy"),
    "expectations": ("RuleResult", "evaluate_rules", "synthesize_rules"),
    "generation": ("GenerationPolicy", "GenerationReport", "TWO_PASS", "extract_contract",
                   "generate_contract", "score_candidate"),
    "inference": ("infer_contract", "infer_field", "safe_generic_contract"),
    "lexical": ("classify_lexeme", "join"),
    "model": ("CompatibilityVerdict", "Constraints", "Contract", "FieldSpec", "Provenance",
              "QualityRule", "canonicalize", "contract_from_doc", "from_json_schema",
              "parse_contract", "to_json_schema"),
    "profiling": ("ColumnProfile", "DataProfile", "IngestOptions", "Table", "dump_profile",
                  "ingest", "load_profile", "profile_column", "profile_table", "read_table"),
    "prompts": ("SINGLE_PASS", "TWO_PASS_STAGE1", "TWO_PASS_STAGE2", "build_prompt"),
    "registry": ("RegistryStore", "VersionRecord"),
    "service": ("RegistryClient", "RegistryServer"),
    "settings": (),
    "transport": (),
    "validation": ("DriftReport", "ValidationReport", "detect_drift", "failing_rows",
                   "validate_rows"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import an exported name's home module, or a submodule, on first use."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # binds itself on the package
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
