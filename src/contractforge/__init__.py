"""contractforge: profile data samples, draft data contracts through
pluggable text-generation backends, synthesize quality rules, and enforce
contracts through a versioned registry with compatibility checking and
drift detection.

The usual flow:

    columns, table = read_table(open("orders.csv", "rb"), "delimited")
    profile = profile_table(table, "delimited", dataset_name="orders")
    contract, report = generate_contract(profile, OracleBackend(profile))
    validate_rows(contract, table)
    store = RegistryStore("registry")
    version = store.publish("orders", contract)
    store.approve("orders", version, reviewer="alice")
"""

from .backends import (CompletionBackend, GenerationRequest, HttpBackend,
                       OracleBackend, ScriptedBackend)
from .compatibility import (COMPATIBILITY_MODES, CompatibilityVerdict,
                            ContractDiff, check_compatibility, diff)
from .errors import (BackendTransportError, ContractForgeError,
                     ContractSyntaxError, ExtractionFailure, IngestError,
                     InvariantViolation, NotFoundError, RegistryError,
                     RegistryRejection, RegistryTransportError)
from .evalharness import CorpusMetrics, TableMetrics, run_eval, structural_accuracy
from .expectations import RuleResult, evaluate_rules, synthesize_rules
from .generation import (GenerationPolicy, GenerationReport, TWO_PASS,
                         extract_contract, generate_contract, score_candidate)
from .inference import infer_contract, infer_field, safe_generic_contract
from .lexical import classify_lexeme, join
from .model import (Constraints, Contract, FieldSpec, Provenance, QualityRule,
                    canonicalize, contract_from_doc, from_json_schema,
                    parse_contract, to_json_schema)
from .profiling import (ColumnProfile, DataProfile, IngestOptions, Table,
                        dump_profile, ingest, load_profile, profile_column,
                        profile_table, read_table)
from .prompts import SINGLE_PASS, TWO_PASS_STAGE1, TWO_PASS_STAGE2, build_prompt
from .registry import RegistryStore, VersionRecord
from .service import RegistryClient, RegistryServer
from .validation import (DriftReport, ValidationReport, check_syntax,
                         detect_drift, failing_rows, validate_rows)

__version__ = "0.1.0"
