"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import itertools
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import contractforge
from contractforge.backends import OracleBackend, ScriptedBackend
from contractforge.errors import ExtractionFailure
from contractforge.evalharness import run_eval
from contractforge.expectations import evaluate_rules, synthesize_rules
from contractforge.generation import extract_contract, generate_contract
from contractforge.inference import infer_contract
from contractforge.lexical import CLASSES, join
from contractforge.model import canonicalize, parse_contract
from contractforge.profiling import dump_profile, ingest, load_profile
from contractforge.registry import RegistryStore
from _builders import compatibility_pair, random_contract
from _compat_oracle import rows_subsume

HAND_LABELED = Path(__file__).parent / "data" / "hand_labeled"


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {message}")


@pytest.fixture(scope="module")
def hand_profiles():
    profiles = {}
    for csv in sorted(HAND_LABELED.glob("*.csv")):
        profiles[csv.stem] = ingest(csv.read_bytes(), "delimited",
                                    dataset_name=csv.stem)
    assert len(profiles) == 20
    return profiles


def varied_profiles(count: int):
    """Small deterministic profiles with varied column mixes."""
    shapes = [
        (["id", "price"], [["1", "2.5"], ["2", ""]]),
        (["name", "joined"], [["ada", "2021-01-01"], ["alan", "2021-02-03"]]),
        (["flag", "n"], [["true", "7"], ["false", "9"]]),
        (["a", "b", "c"], [["x", "1", "2.5"], ["y", "2", "3.5"]]),
        (["ts"], [["2021-01-01T10:00:00Z"], ["2022-02-02T12:30:00Z"]]),
    ]
    out = []
    for i in range(count):
        header, rows = shapes[i % len(shapes)]
        text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
        out.append(ingest(text.encode(), "delimited", dataset_name=f"set{i}"))
    return out


def adversarial_fixture_set():
    """50 completions: 10 clean, 10 fenced, 10 prose-wrapped, 10 trailing-
    comma, 5 truncated, 5 empty.  Returns (class, profile, completion)."""
    profiles = varied_profiles(10)
    fixtures = []
    for i, profile in enumerate(profiles):
        text = canonicalize(infer_contract(profile))
        fixtures.append(("clean", profile, text))
        fixtures.append(("fenced", profile, f"```json\n{text}```"))
        fixtures.append(("prose", profile,
                         f"Sure! Here is the contract: {text} Hope this helps."))
        with_comma = text.rstrip()[:-1].rstrip() + ",\n}\n"
        fixtures.append(("trailing_comma", profile, with_comma))
        if i < 5:
            truncated = text[: text.index('"logical_type"')]
            fixtures.append(("truncated", profile, truncated))
            fixtures.append(("empty", profile, ""))
    assert len(fixtures) == 50
    return fixtures


def test_criterion_1_syntax_validity_gate():
    started = time.monotonic()
    fixtures = adversarial_fixture_set()
    fallback_classes = {"truncated", "empty"}
    for kind, profile, completion in fixtures:
        backend = ScriptedBackend({"0": [completion]})
        contract, generation_report = generate_contract(profile, backend)
        reparsed = parse_contract(canonicalize(contract))
        assert reparsed == contract, kind
        assert generation_report.fallback == (kind in fallback_classes), (
            kind, completion[:60])
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"50/50 generated contracts parse; "
              f"truncated/empty all fell back ({elapsed:.2f}s)")


def test_criterion_2_repair_precision():
    fixtures = adversarial_fixture_set()
    recoverable = [(k, c) for k, _, c in fixtures
                   if k in ("fenced", "prose", "trailing_comma")]
    unrecoverable = [(k, c) for k, _, c in fixtures
                     if k in ("truncated", "empty")]
    recovered = 0
    for kind, completion in recoverable:
        try:
            extract_contract(completion)
            recovered += 1
        except ExtractionFailure:
            pass
    rate = recovered / len(recoverable)
    assert rate >= 0.95, f"only {recovered}/{len(recoverable)} recovered"
    for kind, completion in unrecoverable:
        with pytest.raises(ExtractionFailure):
            extract_contract(completion)
    report(2, f"{recovered}/{len(recoverable)} recoverable completions parsed "
              f"({rate:.0%}); 0/{len(unrecoverable)} unrecoverable parsed")


def test_criterion_3_oracle_self_consistency(tmp_path, hand_profiles):
    started = time.monotonic()
    corpus = tmp_path / "oracle_corpus"
    corpus.mkdir()
    for name, profile in hand_profiles.items():
        (corpus / f"{name}.profile.json").write_text(dump_profile(profile))
        (corpus / f"{name}.truth.json").write_text(
            canonicalize(infer_contract(profile)))
    metrics = run_eval(corpus, OracleBackend())
    elapsed = time.monotonic() - started
    assert metrics.tables_evaluated == 20
    assert metrics.mean_structural_accuracy == 1.0
    assert metrics.fallback_rate == 0.0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(3, f"oracle on 20-table oracle corpus: accuracy exactly 1.0, "
              f"fallback 0.0 ({elapsed:.2f}s)")


def test_criterion_4_hand_labeled_accuracy(tmp_path, hand_profiles):
    corpus = tmp_path / "hand_corpus"
    corpus.mkdir()
    for name, profile in hand_profiles.items():
        (corpus / f"{name}.profile.json").write_text(dump_profile(profile))
        truth = (HAND_LABELED / f"{name}.truth.json").read_text()
        (corpus / f"{name}.truth.json").write_text(truth)
    metrics = run_eval(corpus, OracleBackend())
    assert metrics.tables_evaluated == 20
    assert metrics.mean_structural_accuracy >= 0.90, metrics.to_doc()
    report(4, f"oracle vs 20 hand-labeled tables: mean structural accuracy "
              f"{metrics.mean_structural_accuracy:.3f} (>= 0.90; known "
              f"disagreement: zipcodes.zip labeled string, inferred integer)")


def test_criterion_5_lattice_laws():
    failures = 0
    for a in CLASSES:
        if join(a, a) != a:
            failures += 1
    for a, b in itertools.product(CLASSES, repeat=2):
        if join(a, b) != join(b, a):
            failures += 1
    triples = 0
    for a, b, c in itertools.product(CLASSES, repeat=3):
        triples += 1
        if join(join(a, b), c) != join(a, join(b, c)):
            failures += 1
    assert triples == 343
    assert failures == 0
    report(5, "join laws: 7 idempotence + 49 commutativity + 343 "
              "associativity checks, zero failures")


def test_criterion_6_compatibility_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20260401)
    pairs = [compatibility_pair(rng) for _ in range(200)]
    from contractforge.compatibility import check_compatibility

    agree = 0
    outcomes = {True: 0, False: 0}
    for old, new in pairs:
        expected = rows_subsume(old, new)
        verdict = check_compatibility(old, new, "backward")
        assert verdict.compatible == expected, (canonicalize(old),
                                                canonicalize(new),
                                                verdict.reasons)
        agree += 1
        outcomes[expected] += 1

        forward = check_compatibility(old, new, "forward").compatible
        assert forward == check_compatibility(new, old, "backward").compatible
        full = check_compatibility(old, new, "full").compatible
        assert full == (verdict.compatible and forward)
    elapsed = time.monotonic() - started
    assert agree == 200
    assert outcomes[True] > 0 and outcomes[False] > 0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(6, f"200/200 pairs agree with the row-subsumption oracle "
              f"({outcomes[True]} compatible / {outcomes[False]} not); "
              f"duality and full=backward∧forward hold ({elapsed:.2f}s)")


def test_criterion_7_registry_linearizability(tmp_path, toy_profile=None):
    started = time.monotonic()
    root = tmp_path / "registry"
    store = RegistryStore(root)
    contract = random_contract(random.Random(5), name="hot", with_rules=False)
    errors: list[Exception] = []

    def worker():
        for _ in range(25):
            try:
                store.publish("hot", contract)
            except Exception as exc:  # pragma: no cover - fail loudly below
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    versions = [r.version for r in store.list_versions("hot")]
    assert versions == list(range(1, 201)), "gaps or duplicates in versions"

    before = {p.name: p.read_bytes() for p in sorted((root / "hot").iterdir())}
    reopened = RegistryStore(root)
    after = {p.name: p.read_bytes() for p in sorted((root / "hot").iterdir())}
    assert before == after
    assert [r.to_doc() for r in reopened.list_versions("hot")] == \
           [r.to_doc() for r in store.list_versions("hot")]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(7, f"8 writers x 25 publishes -> versions 1..200 exactly; "
              f"restart preserved state ({elapsed:.2f}s)")


# Each publisher process opens its own store on the shared root and waits for
# the go file, so that all of them publish at once.
_PUBLISHER = """
import os, sys, time
from contractforge.model import parse_contract
from contractforge.registry import RegistryStore
root, contract_path, go = sys.argv[1:]
store = RegistryStore(root)
contract = parse_contract(open(contract_path).read())
while not os.path.exists(go):
    time.sleep(0.002)
print(*[store.publish("hot", contract) for _ in range(25)])
"""


def test_criterion_7_registry_linearizability_across_processes(tmp_path):
    started = time.monotonic()
    root, go = tmp_path / "registry", tmp_path / "go"
    contract_path = tmp_path / "hot.json"
    contract_path.write_text(canonicalize(
        random_contract(random.Random(5), name="hot", with_rules=False)))
    env = {**os.environ,
           "PYTHONPATH": str(Path(contractforge.__file__).resolve().parents[1])}
    workers = [subprocess.Popen([sys.executable, "-c", _PUBLISHER, str(root),
                                 str(contract_path), str(go)], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
               for _ in range(4)]
    try:
        go.touch()
        outputs = [worker.communicate(timeout=60) for worker in workers]
    finally:
        for worker in workers:
            worker.kill()
    assert [worker.returncode for worker in workers] == [0] * 4, \
        [err for _, err in outputs]
    handed_out = sorted(int(v) for out, _ in outputs for v in out.split())
    assert handed_out == list(range(1, 101)), "gaps or duplicates in versions"

    reopened = RegistryStore(root)
    records = reopened.list_versions("hot")
    assert [r.version for r in records] == list(range(1, 101))
    assert all(r.status == "draft" for r in records)
    assert [reopened.get_version("hot", v).version for v in range(1, 101)] == \
           list(range(1, 101))
    assert RegistryStore(root).list_versions("hot") == records
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(7, f"4 processes x 25 publishes, one store each -> versions 1..100 "
              f"exactly ({elapsed:.2f}s)")


def test_criterion_8_round_trips(tmp_path, hand_profiles):
    rng = random.Random(20260809)
    for index in range(100):
        contract = random_contract(rng)
        text = canonicalize(contract)
        again = parse_contract(text)
        assert again == contract, index
        assert canonicalize(again) == text, index

    profile_trips = 0
    for profile in hand_profiles.values():
        text = dump_profile(profile)
        assert dump_profile(load_profile(text)) == text
        profile_trips += 1

    root = tmp_path / "registry"
    store = RegistryStore(root)
    contract = infer_contract(next(iter(hand_profiles.values())))
    store.publish("trip", contract)
    store.approve("trip", 1, "alice")
    store.record_feedback("trip", 1, "bob", "fine")
    before = {p.name: p.read_bytes() for p in sorted((root / "trip").iterdir())}
    reopened = RegistryStore(root)
    after = {p.name: p.read_bytes() for p in sorted((root / "trip").iterdir())}
    assert before == after
    assert canonicalize(reopened.get_version("trip", 1)) == \
           canonicalize(store.get_version("trip", 1))
    report(8, f"100 contract round trips, {profile_trips} profile round "
              f"trips, registry reopen: all byte-exact")


def test_criterion_9_rule_self_consistency(hand_profiles):
    checked = 0
    for name, profile in hand_profiles.items():
        contract = infer_contract(profile)
        rules = synthesize_rules(profile, contract.fields)
        results = evaluate_rules(rules, profile.sample_rows)
        failing = [(r.rule.kind, r.rule.column, r.rows_failed)
                   for r in results if not r.passed]
        assert not failing, (name, failing)
        checked += len(results)
    report(9, f"synthesized rules pass on their own sample rows for all 20 "
              f"profiles ({checked} rule evaluations)")


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_for_port(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"registry service never came up on port {port}")


def test_criterion_10_end_to_end_cli_flow(tmp_path):
    from contractforge.cli import main

    data = tmp_path / "orders.csv"
    # 20 rows: every numeric domain fits inside the 20-value sample cap, so
    # the oracle's observed ranges cover the full file; status still clears
    # the enum-promotion row floor.
    menu = ["9.50", "19.00", "23.75", "42.00"]
    rows = [f"{i + 1},{menu[i % 4]},{'active' if i % 2 == 0 else 'inactive'}"
            for i in range(20)]
    data.write_text("order_id,total,status\n" + "\n".join(rows) + "\n")

    profile_path = tmp_path / "orders.profile.json"
    assert main(["profile", str(data), "--format", "delimited",
                 "--out", str(profile_path)]) == 0

    # scripted backend fixture: replays a known-good completion offline
    profile = load_profile(profile_path.read_text())
    script_path = tmp_path / "completions.json"
    script_path.write_text(json.dumps(
        {"0": [canonicalize(infer_contract(profile))]}))
    contract_path = tmp_path / "orders.contract.json"
    assert main(["generate", str(profile_path), "--backend", "script",
                 "--script", str(script_path), "--out", str(contract_path)]) == 0

    port = _free_port()
    addr = f"127.0.0.1:{port}"
    server = subprocess.Popen(
        [sys.executable, "-m", "contractforge", "registry", "serve",
         "--root", str(tmp_path / "registry"), "--addr", addr],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        _wait_for_port(port)
        assert main(["registry", "publish", "orders", str(contract_path),
                     "--addr", addr]) == 0
        assert main(["registry", "approve", "orders", "1",
                     "--reviewer", "alice", "--addr", addr]) == 0
        approved_path = tmp_path / "approved.contract.json"
        assert main(["registry", "get", "orders", "--addr", addr,
                     "--out", str(approved_path)]) == 0
    finally:
        server.terminate()
        server.wait(timeout=10)

    assert main(["validate", str(approved_path), str(data),
                 "--format", "delimited"]) == 0

    drifted = tmp_path / "drifted.csv"
    drifted.write_text("order_id,total\n1,oops\n")  # status gone, total retyped
    assert main(["drift", str(approved_path), str(drifted),
                 "--format", "delimited", "--report",
                 str(tmp_path / "drift.json")]) == 3
    drift_doc = json.loads((tmp_path / "drift.json").read_text())
    assert drift_doc["breaking"] is True

    report(10, "profile -> generate(script) -> publish -> approve -> "
               "validate(0) -> drift(3), all through the CLI, no network")
