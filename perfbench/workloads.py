"""The four workloads, each a closed loop driven through the public API.

A workload has a set-up (timed), a warm-up (untimed) and a *round*: a fixed
amount of work made of operations a caller waits on.  Every output of every
operation is checked against a reference the benchmark computes itself; a
mismatch, an exception or an unexpected status is a failed operation.
Expected 409 rejections are not failures.

Rounds append ``(label, seconds, ok)`` per operation to ``ops`` and return
the number of work items they completed: rows (enforce_batch), tables
(author_corpus) or flows (cli_flow).
"""

from __future__ import annotations

import csv
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import contractforge as cf

import gen
from tracing import merge, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_timed(argv: list[str], cwd: Path | None = None) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    return time.perf_counter() - start, done


def coldstart(workload: str, work: Path) -> float:
    seconds, done = run_timed([sys.executable, str(HERE / "coldstart.py"), workload, str(work)])
    if done.returncode != 0:
        raise RuntimeError(f"cold start failed: {done.stderr.strip()[-300:]}")
    return seconds


def wait_ready(address: str, path: str) -> None:
    """Block until the server answers one request (any status)."""
    host, port = address.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.request("GET", path)
        connection.getresponse().read()
    finally:
        connection.close()


class Workload:
    def __init__(self, work: Path, seed: int, tracer):
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.failures: list[str] = []

    def fail(self, label: str, message: str) -> bool:
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {message}")
        return False

    def setup(self) -> float:
        raise NotImplementedError

    def warm(self) -> None:
        pass

    def round(self, ops: list) -> int:
        raise NotImplementedError

    def set_tracing(self, on: bool) -> None:
        self.tracer.enabled = on

    def traced_extra(self) -> dict:
        """Spans recorded outside this process, per traced round's worth:
        ``{"client": aggregate, "server": aggregate}``, either may be left
        out.  Server spans are enclosed by client-side service spans."""
        return {}

    def layer_counts(self) -> dict:
        """Per-round counts that need no tracing (taken once per run)."""
        return {}

    def op_metrics(self, rounds: list) -> dict:
        """Per-layer metrics read from the operations of a traced run's
        rounds, given as ``(traced, seconds, ops)``."""
        return {}

    def close(self) -> None:
        pass


# -- enforce_batch ----------------------------------------------------------------

class EnforceBatch(Workload):
    def __init__(self, work, seed, tracer):
        super().__init__(work, seed, tracer)
        self.expect = json.loads((work / "expect.json").read_text())
        self.contract = None

    def setup(self) -> float:
        seconds = coldstart("enforce_batch", self.work)
        self.contract = cf.parse_contract((self.work / "contract.json").read_text(encoding="utf-8"))
        return seconds

    def _enforce(self, path: Path, fmt: str):
        with open(path, "rb") as handle:
            _, rows = cf.read_table(handle, fmt)
        report = cf.validate_rows(self.contract, rows)
        results = cf.evaluate_rules(self.contract.rules, rows)
        del rows
        with open(path, "rb") as handle:
            profile = cf.ingest(handle, fmt, dataset_name=path.stem)
        drift = cf.detect_drift(self.contract, profile)
        return report, results, drift

    def warm(self) -> None:
        # One full-size round: the first one also grows the heap.
        self.round([])

    def _check(self, label, report, results, drift) -> bool:
        exp = self.expect
        if report.rows_checked != exp["rows"] or report.rows_passed != exp["rows_passed"]:
            return self.fail(label, f"rows passed {report.rows_passed}/{report.rows_checked}, "
                                    f"expected {exp['rows_passed']}/{exp['rows']}")
        counts = Counter(f"{v.field_name}|{v.kind}" for v in report.violations)
        if counts != Counter(exp["violations"]):
            return self.fail(label, f"violation counts {dict(counts)} != {exp['violations']}")
        fails = {f"{r.rule.kind}|{r.rule.column}": r.rows_failed for r in results}
        if fails != exp["rule_fails"]:
            return self.fail(label, f"rule failures {fails} != {exp['rule_fails']}")
        retyped = sorted(r.name for r in drift.retyped)
        if retyped != exp["retyped"] or drift.added_columns or drift.removed_columns:
            return self.fail(label, f"drift {drift.to_doc()} != retyped {exp['retyped']}")
        return True

    def round(self, ops: list) -> int:
        rows = 0
        for fmt, name in (("delimited", "batch.csv"), ("ndjson", "batch.ndjson")):
            start = time.perf_counter()
            try:
                outcome = self._enforce(self.work / name, fmt)
            except Exception as exc:  # a failed operation, counted and reported
                ops.append((fmt, time.perf_counter() - start,
                            self.fail(fmt, f"{type(exc).__name__}: {exc}")))
                continue
            seconds = time.perf_counter() - start
            ops.append((fmt, seconds, self._check(fmt, *outcome)))
            rows += self.expect["rows"]
        return rows

    def layer_counts(self) -> dict:
        distinct = self.expect["distinct"]
        out = {f"validation.distinct_ratio.{name}": d / cells for name, (d, cells) in distinct.items()}
        # Both formats are enforced once per round and hold the same lexemes.
        out["validation.distinct_lexemes"] = 2 * sum(d for d, _ in distinct.values())
        return out


# -- author_corpus ----------------------------------------------------------------

def stop_piped(process: subprocess.Popen) -> None:
    """Stop a helper that exits at the end of its stdin; kill it if it hangs."""
    try:
        process.stdin.close()
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


def start_piped(argv: list[str]) -> tuple[subprocess.Popen, str]:
    """Start a helper that prints its URL first and takes commands on stdin."""
    process = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               text=True, env=child_env())
    url = process.stdout.readline().strip()
    if not url.startswith("http://"):
        stop_piped(process)
        raise RuntimeError(f"{Path(argv[1]).name} did not start")
    return process, url


def ask(process: subprocess.Popen, command: str) -> dict:
    process.stdin.write(command + "\n")
    process.stdin.flush()
    return json.loads(process.stdout.readline())


class AuthorCorpus(Workload):
    def __init__(self, work, seed, tracer):
        super().__init__(work, seed, tracer)
        self.plan = json.loads((work / "author.json").read_text())
        for table in self.plan:
            with open(table["path"], encoding="utf-8", newline="") as handle:
                table["columns"] = [c.strip() for c in next(csv.reader(handle))]
            table["truth_contract"] = cf.contract_from_doc(table["truth"])
        self.stub = None
        self.backend = None

    def setup(self) -> float:
        seconds = coldstart("author_corpus", self.work)
        if self.stub is None:
            self.stub, url = start_piped([sys.executable, str(HERE / "stub.py"),
                                          str(self.work / "author.json")])
            self.backend = cf.HttpBackend(url, timeout=30, retries=2, backoff=0.02)
        return seconds

    def _author(self, table: dict):
        mode = cf.TWO_PASS if table["two_pass"] else "single_pass"
        policy = cf.GenerationPolicy(mode=mode, candidate_count=gen.CANDIDATES)
        with open(table["path"], "rb") as handle:
            profile = cf.ingest(handle, "delimited", dataset_name=table["name"])
        contract, report = cf.generate_contract(profile, self.backend, policy)
        present = set(profile.column_names())
        rules = cf.synthesize_rules(profile, [f for f in contract.fields if f.name in present])
        schema = cf.to_json_schema(contract)
        accuracy = cf.structural_accuracy(contract, table["truth_contract"])
        return contract, report, rules, schema, accuracy

    def warm(self) -> None:
        wide = [t for t in self.plan if t["name"].startswith("wide_")]
        small = [t for t in self.plan if not t["name"].startswith("wide_")]
        for table in wide[:1] + small[:3]:
            self._author(table)

    def _check(self, table, contract, report, rules, schema, accuracy) -> bool:
        label = table["name"]
        doc = contract.to_doc()
        provenance = doc.pop("provenance", None) or {}
        expected = table["expected"]
        truth_fields = table["truth"]["fields"]
        if expected is None:
            expected = {"name": table["name"], "version": 1, "status": "draft",
                        "fields": [{"name": c, "logical_type": "string", "nullable": True}
                                   for c in table["columns"]], "rules": []}
            want_accuracy = sum(f["logical_type"] == "string" for f in truth_fields) / len(truth_fields)
            mode = "fallback"
        else:
            want_accuracy = 1.0
            mode = "backend"
        if report.fallback != (mode == "fallback") or provenance.get("generator_mode") != mode:
            return self.fail(label, f"fallback={report.fallback}, expected {mode}")
        if mode == "backend" and report.chosen != 0:
            return self.fail(label, f"chose candidate {report.chosen}, expected 0")
        if doc != expected:
            return self.fail(label, "chosen contract differs from the expected contract")
        if accuracy != want_accuracy:
            return self.fail(label, f"structural accuracy {accuracy} != {want_accuracy}")
        if sorted(json.loads(schema)["properties"]) != sorted(f["name"] for f in expected["fields"]):
            return self.fail(label, "JSON Schema export lost fields")
        if any(rule.column not in table["columns"] for rule in rules):
            return self.fail(label, "rule on a column the table lacks")
        return True

    def _count(self, report) -> None:
        counts = self.tracer.counts
        counts["generation.candidates_attempted"] += len(report.candidates)
        counts["generation.candidates_parsed"] += sum(c.parsed is not None for c in report.candidates)
        counts["generation.fallbacks"] += int(report.fallback)
        for candidate in report.candidates:
            for repair in candidate.repairs_applied:
                known = repair in ("strip_fences", "trim_to_braces", "remove_trailing_commas")
                counts[f"generation.repairs.{repair if known else 'other'}"] += 1

    def round(self, ops: list) -> int:
        tables = 0
        for table in self.plan:
            start = time.perf_counter()
            try:
                outcome = self._author(table)
            except Exception as exc:  # a failed operation, counted and reported
                ops.append((table["name"], time.perf_counter() - start,
                            self.fail(table["name"], f"{type(exc).__name__}: {exc}")))
                continue
            seconds = time.perf_counter() - start
            ops.append((table["name"], seconds, self._check(table, *outcome)))
            if self.tracer.enabled:
                self._count(outcome[1])
            tables += 1
        return tables

    def set_tracing(self, on: bool) -> None:
        stats = ask(self.stub, "stats")
        if on:
            self._stub_before = stats
        else:
            self.tracer.counts["backends.attempts"] += stats["requests"] - self._stub_before["requests"]
            self.tracer.counts["backends.retries"] += stats["retries"] - self._stub_before["retries"]
        super().set_tracing(on)

    def layer_counts(self) -> dict:
        """The self-consistency defect, shown and not counted as a failure:
        rows of each source its own inferred contract rejects, and rules
        synthesized from its profile that fail on it."""
        rejected_rows = rejecting_tables = failing_rules = 0
        for table in self.plan:
            data = Path(table["path"]).read_bytes()
            profile = cf.ingest(data, "delimited", dataset_name=table["name"])
            inferred = cf.infer_contract(profile)
            _, rows = cf.read_table(data, "delimited")
            report = cf.validate_rows(inferred, rows)
            rejected_rows += report.rows_checked - report.rows_passed
            rejecting_tables += int(not report.all_passed)
            rules = cf.synthesize_rules(profile, inferred.fields)
            failing_rules += sum(not r.passed for r in cf.evaluate_rules(rules, rows))
        return {"inference.self_rejected_rows": rejected_rows,
                "inference.self_rejecting_tables": rejecting_tables,
                "expectations.self_failing_rules": failing_rules}

    def close(self) -> None:
        if self.stub is not None:
            stop_piped(self.stub)


# -- cli_flow ------------------------------------------------------------------------

class CliFlow(Workload):
    """In traced runs the server and the traced rounds' commands run through
    ``tracedcli.py``; the server is traced for the whole run, so its spans
    are scaled to a traced round's share."""

    NAME = "orders"

    def __init__(self, work, seed, tracer):
        super().__init__(work, seed, tracer)
        self.server = None
        self.address = None
        self.starts = 0
        self.version = 0
        self.rounds = 0
        self.traced_rounds = 0
        self.children: dict = {}
        self.truth = json.loads((work / "truth.json").read_text())
        self._library_verdicts()

    def _launcher(self, spans: Path | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "contractforge"]
        return [sys.executable, str(HERE / "tracedcli.py"), str(spans)]

    def _library_verdicts(self) -> None:
        """What the CLI must answer, computed in-process on the same files."""
        contract = cf.contract_from_doc(self.truth)
        _, rows = cf.read_table((self.work / "new_batch.csv").read_bytes(), "delimited")
        report = cf.validate_rows(contract, rows)
        new_profile = cf.ingest((self.work / "new_batch.csv").read_bytes(), "delimited",
                                dataset_name="new_batch")
        drift = cf.detect_drift(contract, new_profile)
        table_profile = cf.ingest((self.work / "table.csv").read_bytes(), "delimited",
                                  dataset_name="table")
        results = cf.evaluate_rules(cf.synthesize_rules(table_profile, contract.fields), rows)
        breaking = cf.contract_from_doc(json.loads((self.work / "incompatible.json").read_text()))
        compatible = cf.check_compatibility(contract, breaking, "backward").compatible
        self.want = {
            "publish_409": (0 if compatible else 5, None),
            "validate": (0 if report.all_passed else 1, report.to_doc()),
            "drift": (3 if drift.breaking else 0, drift.to_doc()),
            "rules": (0 if all(r.passed for r in results) else 1, [r.to_doc() for r in results]),
        }

    def _stop_server(self) -> None:
        if self.server is None:
            return
        server, self.server = self.server, None
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stderr.close()

    def setup(self) -> float:
        self._stop_server()
        self.starts += 1
        self.version = 0
        root = self.work / f"cli_registry_{self.starts}"
        start = time.perf_counter()
        spans = self.work / "server_spans.json" if self.tracer.installed else None
        self.server = subprocess.Popen(
            self._launcher(spans) + ["registry", "serve", "--root", str(root),
                                     "--addr", "127.0.0.1:0"],
            cwd=self.work, stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
            env=child_env())
        line = self.server.stderr.readline()
        match = re.search(r"(http://\S+)", line)
        if not match:
            raise RuntimeError(f"registry serve did not start: {line!r}")
        self.address = match.group(1)
        wait_ready(self.address, f"/contracts/{self.NAME}/versions")
        return time.perf_counter() - start

    def _cli(self, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        if not self.tracer.enabled:
            return run_timed(self._launcher(None) + list(args), cwd=self.work)
        spans = self.work / "command_spans.json"
        result = run_timed(self._launcher(spans) + list(args), cwd=self.work)
        merge(self.children, json.loads(spans.read_text()))
        return result

    def warm(self) -> None:
        self._cli("--help")

    def _steps(self):
        addr = self.address.split("//", 1)[1]
        version = self.version + 1
        return [
            ("profile", ["profile", "table.csv", "--out", "profile.json"], 0),
            ("generate", ["generate", "profile.json", "--backend", "script", "--script",
                          "script.json", "--out", "contract.json"], 0),
            ("publish", ["registry", "publish", self.NAME, "contract.json", "--addr", addr], 0),
            ("approve", ["registry", "approve", self.NAME, str(version), "--reviewer", "bench",
                         "--addr", addr], 0),
            ("publish_409", ["registry", "publish", self.NAME, "incompatible.json", "--addr",
                             addr], self.want["publish_409"][0]),
            ("get", ["registry", "get", self.NAME, "--addr", addr, "--out", "got.json"], 0),
            ("validate", ["validate", "got.json", "new_batch.csv", "--report", "validate.json"],
             self.want["validate"][0]),
            ("drift", ["drift", "got.json", "new_batch.csv", "--report", "drift.json"],
             self.want["drift"][0]),
            ("rules", ["rules", "profile.json", "got.json", "--check", "new_batch.csv",
                       "--out", "rules.json"], self.want["rules"][0]),
        ]

    def _check(self, label: str, done, want_code: int) -> bool:
        if done.returncode != want_code:
            return self.fail(label, f"exit {done.returncode}, library says {want_code}: "
                                    f"{done.stderr.strip()[-200:]}")
        version = self.version + 1
        if label == "publish" and json.loads(done.stdout) != {"name": self.NAME, "version": version}:
            return self.fail(label, f"publish answered {done.stdout.strip()}")
        if label == "get":
            doc = json.loads((self.work / "got.json").read_text())
            doc.pop("provenance", None)
            if doc != dict(self.truth, name=self.NAME, version=version, status="approved"):
                return self.fail(label, "fetched contract differs from the generated one")
        outputs = {"validate": "validate.json", "drift": "drift.json", "rules": "rules.json"}
        if label in outputs:
            got = json.loads((self.work / outputs[label]).read_text())
            if got != self.want[label][1]:
                return self.fail(label, "report differs from the library's report")
        return True

    def round(self, ops: list) -> int:
        flow_ok = True
        for label, args, want_code in self._steps():
            try:
                seconds, done = self._cli(*args)
                ok = self._check(label, done, want_code)
            except Exception as exc:  # a failed operation, counted and reported
                seconds, ok = 0.0, self.fail(label, f"{type(exc).__name__}: {exc}")
            ops.append((label, seconds, ok))
            flow_ok = flow_ok and ok
            if not ok:
                break
            if label == "publish_409" and self.tracer.enabled:
                self.tracer.counts["service.rejections_409"] += int(done.returncode == 5)
        self.version += 1
        self.rounds += 1
        self.traced_rounds += int(self.tracer.enabled)
        return 1 if flow_ok else 0

    def traced_extra(self) -> dict:
        self._stop_server()   # the server writes its spans when it stops
        server = json.loads((self.work / "server_spans.json").read_text())
        return {"client": self.children,
                "server": scale(server, self.traced_rounds / self.rounds)}

    def op_metrics(self, rounds: list) -> dict:
        """Median time per subcommand over the untraced rounds, and the CLI
        layer's self time: command wall time outside the engine's spans."""
        by_command: dict[str, list[float]] = {}
        for traced, _, ops in rounds:
            if traced:
                continue
            for command, seconds, _ in ops:
                by_command.setdefault(command, []).append(seconds)
        out = {f"cli.command_ms.{c}": 1000 * percentile(v, 50) for c, v in by_command.items()}
        traced = [sum(s for _, s, _ in ops) for is_traced, _, ops in rounds if is_traced]
        out["cli.self_s"] = statistics.mean(traced) - self.children.get("root_total", 0.0) / len(traced)
        return out

    def layer_counts(self) -> dict:
        def median_time(argv):
            return sorted(run_timed(argv)[0] for _ in range(3))[1]

        imported = median_time([sys.executable, "-c", "import contractforge.cli"])
        bare = median_time([sys.executable, "-c", "pass"])
        return {"cli.import_s": imported - bare}

    def close(self) -> None:
        self._stop_server()


WORKLOADS = {
    "enforce_batch": EnforceBatch,
    "author_corpus": AuthorCorpus,
    "cli_flow": CliFlow,
}
