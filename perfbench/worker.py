"""Runs one workload in a fresh process and prints its measurements.

Usage: ``worker.py <workload> <work dir> <seed> <seconds> <trace 0|1>``.
Started by ``run.py`` after it has written the seeded inputs, so that the
peak resident set measured here belongs to the workload, not to the input
generator.  The last line of standard output is one JSON object.

Untraced (``trace 0``): run rounds until ``seconds`` of round time have
passed, setting up ``SETUP_REPS`` times spread over the run; report the
end-to-end metrics.

Traced (``trace 1``): wrap the engine's layers, then alternate untraced and
traced rounds until ``seconds`` have passed and at least one pair ran;
report per-layer self times and counts per traced round, and the tracing
overhead as traced minus untraced round time.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import contractforge as cf  # noqa: E402

from tracing import Tracer, layer_self, merge, total_of  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402

SETUP_REPS = 7
LAYERS = ["profiling", "inference", "prompts", "backends", "generation", "model",
          "validation", "expectations", "compatibility", "registry", "service",
          "evalharness", "cli"]
# Per-layer span metrics: metric name -> span names summed into it.
SPAN_METRICS = {
    "profiling.read_table_s": ["profiling.read_table"],
    "profiling.read_table.delimited_s": ["profiling.read_table.delimited"],
    "profiling.read_table.ndjson_s": ["profiling.read_table.ndjson"],
    "profiling.ingest_s": ["profiling.ingest"],
    "validation.validate_rows_s": ["validation.validate_rows"],
    "validation.detect_drift_s": ["validation.detect_drift"],
    "expectations.evaluate_rules_s": ["expectations.evaluate_rules"],
    "expectations.synthesize_rules_s": ["expectations.synthesize_rules"],
    "prompts.build_prompt_s": ["prompts.build_prompt"],
    "backends.complete_s": ["backends.complete"],
    "generation.extract_contract_s": ["generation.extract_contract"],
    "generation.score_candidate_s": ["generation.score_candidate"],
    "model.parse_contract_s": ["model.parse_contract"],
    "model.contract_from_doc_s": ["model.contract_from_doc"],
    "model.canonicalize_s": ["model.canonicalize"],
    "model.to_json_schema_s": ["model.to_json_schema"],
    "compatibility.check_compatibility_s": ["compatibility.check_compatibility"],
    "registry.publish_s": ["registry.publish"],
    "registry.get_s": ["registry.get_version", "registry.latest_approved"],
    "registry.approve_s": ["registry.approve"],
}


def measure(workload, seconds: float) -> tuple[dict, list]:
    """Run whole rounds until ``seconds`` of round time have passed.

    The set-ups are spread over the run, one whenever another share of the
    run has passed, so that their median and the rounds see the same
    machine; a set-up restarts what the rounds use (a server and its store).
    Throughput is the work of the median round: every round does the same
    work, and the median keeps one slow stretch of the machine out.
    """
    ops: list = []
    setups: list[float] = []
    rates: list[float] = []
    busy = 0.0
    while busy < seconds:
        while len(setups) < SETUP_REPS and busy >= seconds * len(setups) / SETUP_REPS:
            setups.append(workload.setup())
            if len(setups) == 1:
                workload.warm()
        began = time.perf_counter()
        items = workload.round(ops)
        took = time.perf_counter() - began
        busy += took
        rates.append(items / took)
    while len(setups) < SETUP_REPS:
        setups.append(workload.setup())
    latencies = [s for _, s, _ in ops]
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(rates),
        "op_ms.p50": 1000 * percentile(latencies, 50),
        "op_ms.p90": 1000 * percentile(latencies, 90),
    }, ops


def _lexical_info():
    info = getattr(cf.lexical.classify_lexeme, "cache_info", None)
    return info() if info is not None else None


def measure_traced(workload, tracer: Tracer, seconds: float) -> tuple[dict, list]:
    workload.setup()
    workload.warm()
    rounds: list[tuple[bool, float, list]] = []
    start = time.perf_counter()
    while True:
        traced = len(rounds) % 2 == 1
        ops: list = []
        if traced:
            workload.set_tracing(True)
            before = _lexical_info()
        began = time.perf_counter()
        workload.round(ops)
        took = time.perf_counter() - began
        if traced:
            workload.set_tracing(False)
            after = _lexical_info()
            if before is not None:
                tracer.counts["lexical.classify_calls"] += (after.hits + after.misses
                                                            - before.hits - before.misses)
                tracer.counts["lexical.classify_misses"] += after.misses - before.misses
        rounds.append((traced, took, ops))
        if traced and time.perf_counter() - start >= seconds:
            break
    extra = workload.traced_extra()
    client = merge(tracer.take(), extra.get("client", {}))
    server = extra.get("server", {})
    combined = merge(merge({}, client), server)
    n = sum(traced for traced, _, _ in rounds)

    layers = layer_self(combined)
    if server:
        # Client-side service spans enclose the server's store calls.
        layers["service"] = layer_self(client).get("service", 0.0) - server.get("root_total", 0.0)
    metrics = {f"{layer}.self_s": layers.get(layer, 0.0) / n for layer in LAYERS}
    for name, spans in SPAN_METRICS.items():
        metrics[name] = sum(total_of(combined, span) for span in spans) / n
    for name, value in combined.get("counts", {}).items():
        metrics[name] = value / n
    for name, calls in client.get("calls", {}).items():
        layer, _, route = name.partition(".")
        if layer == "service":
            metrics[f"service.requests.{route}"] = calls / n
            metrics[f"service.round_trip_ms.{route}"] = 1000 * client["total"][name] / calls
    metrics.update(workload.op_metrics(rounds))

    plain = [took for traced, took, _ in rounds if not traced]
    overheads = [rounds[i][1] - rounds[i - 1][1] for i in range(1, len(rounds), 2)]
    metrics["trace.rounds"] = n
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.overhead_pct"] = 100 * statistics.median(overheads) / statistics.median(plain)
    metrics.update(workload.layer_counts())
    return metrics, [op for _, _, ops in rounds for op in ops]


def main() -> int:
    name, work, seed, seconds, trace = sys.argv[1:6]
    tracer = Tracer()
    if trace == "1":
        tracer.install()
    workload = WORKLOADS[name](Path(work), int(seed), tracer)
    try:
        if trace == "1":
            metrics, ops = measure_traced(workload, tracer, float(seconds))
        else:
            metrics, ops = measure(workload, float(seconds))
    finally:
        workload.close()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if trace != "1":
        metrics["peak_rss_mb"] = peak_kb / 1024
    print(json.dumps({"metrics": metrics, "attempted": len(ops),
                      "failed": sum(not ok for _, _, ok in ops),
                      "failures": workload.failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
