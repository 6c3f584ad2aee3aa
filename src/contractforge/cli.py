"""Command-line entry point: profile -> generate -> review -> publish -> validate.

Machine outputs are the normative JSON formats; human summaries go to
stderr.  Exit codes are stable and mutually exclusive:

    0  success
    1  validation violations / failing quality rules
    2  invalid input, invalid contract, or usage error
    3  breaking drift
    4  backend or registry transport failure
    5  registry rejection (incompatible contract)
   70  internal error (a crash: one ``internal error:`` line on stderr)
"""

from __future__ import annotations

import argparse
import copy
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from .errors import (BackendTransportError, ContractForgeError, NotFoundError,
                     RegistryRejection, RegistryTransportError, dump_json,
                     parse_json)
from .settings import SINGLE_PASS, TWO_PASS, GenerationPolicy, HttpOptions, IngestOptions, check

# Each command imports the engine modules it calls when it runs, so that it
# loads only those.  No engine function is kept in this module's globals, so
# a function rebound on its home module later (a timing wrapper, a test's
# stand-in) is the one called.

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INVALID = 2
EXIT_BREAKING_DRIFT = 3
EXIT_TRANSPORT = 4
EXIT_REJECTED = 5
EXIT_INTERNAL = 70

#: The config's own spellings of fields (``None``: the CLI sets it) and modes.
_KEYS = {"candidate_count": "candidates", "generated_at": None}
_MODES = {"single": SINGLE_PASS, "two-pass": TWO_PASS, "two_pass": TWO_PASS}


def _section(settings) -> dict:
    """The config section that holds ``settings``, keyed by config spelling."""
    section = {_KEYS.get(name, name): value for name, value in vars(settings).items()}
    section.pop(None, None)
    if "mode" in section:
        section["mode"] = next(key for key, mode in _MODES.items() if mode == settings.mode)
    return section


# Literals only for settings that the library does not have.
DEFAULT_CONFIG: dict = {
    "backend": {"kind": "oracle", "url": None, "script": None, **_section(HttpOptions())},
    "generation": _section(GenerationPolicy()),
    "registry": {"root": "registry", "addr": "127.0.0.1:8765"},
    "ingest": _section(IngestOptions()),
}


def _merge(base: dict, override, defaults: dict, where: str) -> dict:
    """``base`` with ``override`` merged in, recursively: each known key's
    value passes ``settings.check`` against its ``defaults`` value, and a mode
    is a ``--mode`` choice or ``two_pass``.  An unknown key is left out."""
    if not isinstance(override, dict):
        raise ContractForgeError(f"{where} must be a JSON object")
    merged = dict(base)
    for key, value in override.items():
        if isinstance(defaults.get(key), dict):
            merged[key] = _merge(base[key], value, defaults[key], f"{where} key {key!r}")
        elif key in defaults:
            check(where, key, value, defaults[key])
            if key == "mode" and value not in _MODES:
                raise ContractForgeError(f"{where} key 'mode' must be single or two-pass, "
                                         f"not {value!r:.40}")
            merged[key] = value
    return merged


def _read_json(path: str, what: str):
    return parse_json(Path(path).read_text(encoding="utf-8"), context=f"{what} {path}")


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    return _merge(DEFAULT_CONFIG, _read_json(path, "config file"), DEFAULT_CONFIG, "config file")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_doc(doc, out: str | None) -> None:
    _emit(dump_json(doc), out)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _read(read, path: str, config: dict, args, **kwargs):
    """``read`` (``ingest`` or ``read_table``) of the file at ``path`` under the
    config's ingest settings, with ``--delimiter`` over its delimiter."""
    options = IngestOptions(**config["ingest"])
    if args.delimiter is not None:
        options.delimiter = args.delimiter
    with open(path, "rb") as handle:
        return read(handle, args.format, options, **kwargs)


def _build_policy(config: dict, args) -> GenerationPolicy:
    section, defaults = config["generation"], DEFAULT_CONFIG["generation"]
    if getattr(args, "policy", None):
        section = _merge(section, _read_json(args.policy, "policy file"), defaults, "policy file")
    flags = {key: getattr(args, key, None) for key in defaults}  # a flag spells its key
    section = _merge(section, {k: v for k, v in flags.items() if v is not None},
                     defaults, "command line")
    names = {key: name for name, key in _KEYS.items()}
    values = {names.get(key, key): value for key, value in section.items()}
    values["mode"] = _MODES[values["mode"]]
    return GenerationPolicy(**values, generated_at=_now())


def _build_backend(config: dict, args):
    from .backends import HttpBackend, OracleBackend, ScriptedBackend
    section = config["backend"]
    kind = getattr(args, "backend", None) or section["kind"]
    if kind == "oracle":
        return OracleBackend()
    if kind == "script":
        script = getattr(args, "script", None) or section["script"]
        if not script:
            raise ContractForgeError("scripted backend needs --script or backend.script in config")
        return ScriptedBackend.from_file(script)
    if kind == "http":
        url = getattr(args, "url", None) or section["url"]
        if not url:
            raise ContractForgeError("http backend needs --url or backend.url in config")
        return HttpBackend(url, **{spec.name: section[spec.name] for spec in fields(HttpOptions)})
    raise ContractForgeError(f"unknown backend kind {kind!r}")


def _registry_client(config: dict, args):
    from .service import RegistryClient
    addr = getattr(args, "addr", None) or config["registry"]["addr"]
    base = addr if addr.startswith("http") else f"http://{addr}"
    return RegistryClient(base)


# -- subcommands ------------------------------------------------------------


def _cmd_profile(args, config) -> int:
    from .profiling import dump_profile, ingest
    name = args.name or Path(args.path).stem
    profile = _read(ingest, args.path, config, args, dataset_name=name)
    _emit(dump_profile(profile), args.out)
    _note(f"profiled {profile.row_count} rows, {len(profile.columns)} columns")
    return EXIT_OK


def _cmd_generate(args, config) -> int:
    from .generation import generate_contract
    from .model import canonicalize
    from .profiling import load_profile
    profile = load_profile(Path(args.profile).read_text(encoding="utf-8"))
    backend = _build_backend(config, args)
    policy = _build_policy(config, args)
    contract, report = generate_contract(profile, backend, policy)
    _emit(canonicalize(contract), args.out)
    if args.report:
        _emit_doc(report.to_doc(), args.report)
    status = "fallback" if report.fallback else f"candidate {report.chosen}"
    _note(f"generated contract for {profile.dataset_name!r} "
          f"via {backend.backend_id} ({status}, mode {report.mode})")
    return EXIT_OK


def _cmd_validate(args, config) -> int:
    from .model import parse_contract
    from .profiling import read_table
    from .validation import validate_rows
    contract = parse_contract(Path(args.contract).read_text(encoding="utf-8"))
    _, rows = _read(read_table, args.data, config, args)
    report = validate_rows(contract, rows, allow_unknown=args.allow_unknown)
    if args.report:
        _emit_doc(report.to_doc(), args.report)
    _note(f"rows passed: {report.rows_passed}/{report.rows_checked}, "
          f"violations: {len(report.violations)}")
    for violation in report.violations[:20]:
        _note(f"  row {violation.row_index} field {violation.field_name!r}: "
              f"{violation.kind} (observed {violation.observed!r})")
    if len(report.violations) > 20:
        _note(f"  ... and {len(report.violations) - 20} more")
    return EXIT_OK if report.all_passed else EXIT_VIOLATIONS


def _cmd_drift(args, config) -> int:
    from .model import parse_contract
    from .profiling import ingest
    from .validation import detect_drift
    contract = parse_contract(Path(args.contract).read_text(encoding="utf-8"))
    profile = _read(ingest, args.data, config, args, dataset_name=Path(args.data).stem)
    report = detect_drift(contract, profile)
    _emit_doc(report.to_doc(), args.report)
    return EXIT_BREAKING_DRIFT if report.breaking else EXIT_OK


def _cmd_rules(args, config) -> int:
    from .expectations import evaluate_rules, synthesize_rules
    from .model import parse_contract
    from .profiling import load_profile, read_table
    profile = load_profile(Path(args.profile).read_text(encoding="utf-8"))
    contract = parse_contract(Path(args.contract).read_text(encoding="utf-8"))
    rules = synthesize_rules(profile, contract.fields)
    if not args.check:
        _emit_doc([r.to_doc() for r in rules], args.out)
        return EXIT_OK
    _, rows = _read(read_table, args.check, config, args)
    results = evaluate_rules(rules, rows)
    _emit_doc([r.to_doc() for r in results], args.out)
    failed = [r for r in results if not r.passed]
    _note(f"rules passed: {len(results) - len(failed)}/{len(results)}")
    return EXIT_VIOLATIONS if failed else EXIT_OK


def _cmd_eval(args, config) -> int:
    from .evalharness import format_metrics_table, run_eval
    backend = _build_backend(config, args)
    policy = _build_policy(config, args)
    metrics = run_eval(args.corpus, backend, policy)
    print(format_metrics_table(metrics))
    if args.out:
        _emit_doc(metrics.to_doc(), args.out)
    return EXIT_OK


def _cmd_registry_serve(args, config) -> int:
    from .registry import RegistryStore
    from .service import RegistryServer
    root = args.root or config["registry"]["root"]
    addr = args.addr or config["registry"]["addr"]
    host, _, port = addr.rpartition(":")
    if not (port.isascii() and port.isdigit() and len(port) <= 5 and int(port) <= 65535):
        raise ContractForgeError(f"registry address must be host:port with a port in "
                                 f"0-65535, got {addr!r}")
    store = RegistryStore(root)
    server = RegistryServer(store, host=host or "127.0.0.1", port=int(port))
    _note(f"registry serving {root} at {server.address}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _cmd_registry_publish(args, config) -> int:
    from .model import parse_contract
    contract = parse_contract(Path(args.contract).read_text(encoding="utf-8"))
    client = _registry_client(config, args)
    version = client.publish(args.name, contract)
    _emit_doc({"name": args.name, "version": version}, None)
    return EXIT_OK


def _cmd_registry_get(args, config) -> int:
    from .model import canonicalize
    client = _registry_client(config, args)
    if args.version is not None:
        contract = client.get_version(args.name, args.version)
    else:
        contract = client.get_latest(args.name)
    _emit(canonicalize(contract), args.out)
    return EXIT_OK


def _cmd_registry_approve(args, config) -> int:
    client = _registry_client(config, args)
    record = client.approve(args.name, args.version, args.reviewer)
    _emit_doc(record, None)
    return EXIT_OK


def _cmd_registry_feedback(args, config) -> int:
    client = _registry_client(config, args)
    client.feedback(args.name, args.version, args.author, args.note)
    _note(f"feedback recorded for {args.name} v{args.version}")
    return EXIT_OK


def _cmd_registry_compat(args, config) -> int:
    from .model import parse_contract
    contract = parse_contract(Path(args.contract).read_text(encoding="utf-8"))
    client = _registry_client(config, args)
    verdict = client.check_compat(args.name, contract)
    _emit_doc(verdict.to_doc(), None)
    return EXIT_OK if verdict.compatible else EXIT_REJECTED


# -- parser -------------------------------------------------------------------


def _add_backend_flags(parser) -> None:
    parser.add_argument("--backend", choices=["oracle", "http", "script"],
                        help="completion backend (default from config)")
    parser.add_argument("--script", help="scripted backend fixture file")
    parser.add_argument("--url", help="http backend endpoint URL")


def _add_format_flags(parser) -> None:
    parser.add_argument("--format", choices=["delimited", "ndjson"],
                        default="delimited", help="source format")
    parser.add_argument("--delimiter", help="cell delimiter for delimited input")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractforge",
        description="Profile data, draft contracts, synthesize quality rules, "
                    "and enforce contracts through a versioned registry.",
        epilog="Exit codes: 0 success, 1 validation violations, 2 invalid input "
               "or contract, 3 breaking drift, 4 backend transport failure, "
               "5 registry rejection, 70 internal error.")
    parser.add_argument("--config", help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile a data sample into profile JSON")
    p.add_argument("path")
    _add_format_flags(p)
    p.add_argument("--name", help="dataset name (default: file stem)")
    p.add_argument("--out", help="write profile JSON here instead of stdout")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("generate", help="generate a draft contract from a profile")
    p.add_argument("profile")
    _add_backend_flags(p)
    p.add_argument("--mode", choices=["single", "two-pass"], help="prompting mode")
    p.add_argument("-n", "--candidates", type=int, help="candidate completions to request")
    p.add_argument("--temperature", type=float)
    p.add_argument("--threshold", type=float, help="minimum candidate score before fallback")
    p.add_argument("--policy", help="JSON file overriding generation policy")
    p.add_argument("--out", help="write the contract here instead of stdout")
    p.add_argument("--report", help="write the generation report here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="validate rows against a contract")
    p.add_argument("contract")
    p.add_argument("data")
    _add_format_flags(p)
    p.add_argument("--allow-unknown", action="store_true",
                   help="tolerate row keys the contract does not name")
    p.add_argument("--report", help="write the validation report here")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("drift", help="compare a contract with newly observed data")
    p.add_argument("contract")
    p.add_argument("data")
    _add_format_flags(p)
    p.add_argument("--report", help="write the drift report here instead of stdout")
    p.set_defaults(func=_cmd_drift)

    p = sub.add_parser("rules", help="synthesize quality rules; --check evaluates them")
    p.add_argument("profile")
    p.add_argument("contract")
    p.add_argument("--check", help="data file to evaluate the rules on")
    _add_format_flags(p)
    p.add_argument("--out", help="write rules/results here instead of stdout")
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("eval", help="run the evaluation harness on a corpus directory")
    p.add_argument("corpus")
    _add_backend_flags(p)
    p.add_argument("--mode", choices=["single", "two-pass"])
    p.add_argument("--policy", help="JSON file overriding generation policy")
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=_cmd_eval)

    registry = sub.add_parser("registry", help="registry service and client")
    rsub = registry.add_subparsers(dest="registry_command", required=True)

    p = rsub.add_parser("serve", help="run the registry HTTP service")
    p.add_argument("--root", help="store directory")
    p.add_argument("--addr", help="host:port to bind")
    p.set_defaults(func=_cmd_registry_serve)

    p = rsub.add_parser("publish", help="publish a contract as a new draft version")
    p.add_argument("name")
    p.add_argument("contract")
    p.add_argument("--addr")
    p.set_defaults(func=_cmd_registry_publish)

    p = rsub.add_parser("get", help="fetch the latest approved contract or one version")
    p.add_argument("name")
    p.add_argument("--version", type=int)
    p.add_argument("--addr")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_registry_get)

    p = rsub.add_parser("approve", help="approve a draft version")
    p.add_argument("name")
    p.add_argument("version", type=int)
    p.add_argument("--reviewer", required=True)
    p.add_argument("--addr")
    p.set_defaults(func=_cmd_registry_approve)

    p = rsub.add_parser("feedback", help="record reviewer feedback on a version")
    p.add_argument("name")
    p.add_argument("version", type=int)
    p.add_argument("--author", required=True)
    p.add_argument("--note", required=True)
    p.add_argument("--addr")
    p.set_defaults(func=_cmd_registry_feedback)

    p = rsub.add_parser("compat", help="check a candidate against the approved version")
    p.add_argument("name")
    p.add_argument("contract")
    p.add_argument("--addr")
    p.set_defaults(func=_cmd_registry_compat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except RegistryRejection as exc:
        _note("registry rejected the contract:")
        for reason in exc.reasons:
            _note(f"  {reason}")
        return EXIT_REJECTED
    except (BackendTransportError, RegistryTransportError) as exc:
        _note(f"transport failure: {exc}")
        return EXIT_TRANSPORT
    except NotFoundError as exc:
        _note(f"not found: {exc}")
        return EXIT_INVALID
    except (ContractForgeError, OSError, UnicodeDecodeError) as exc:
        _note(f"error: {exc}")
        return EXIT_INVALID
    except Exception as exc:  # a bug, not an input: keep it apart from exit 1
        _note(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
