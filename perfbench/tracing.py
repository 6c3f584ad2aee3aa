"""Spans around calls into the engine's layers, kept in memory.

The tracer wraps public functions of ``contractforge`` modules and rebinds
every module-level name that refers to them, so calls one layer makes into
another (``ingest`` into ``read_table``, ``generate_contract`` into
``validate_rows``) are spanned as well.  Wrapping happens only in traced
runs; untraced runs measure the unmodified engine.  A span is
``[name, trace_id, start, end, child_time, is_root]``; a layer's self time
is the sum over its spans of duration minus the time its direct child spans
cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# Layer -> public functions spanned.  ``lexical`` is left out on purpose:
# it is called once per cell, and a span per call would cost more than the
# call, so its time stays in its callers' self time and it reports counts.
FUNCTIONS = {
    "profiling": ["read_table", "ingest", "profile_column"],
    "inference": ["infer_contract", "infer_field", "infer_column_type",
                  "safe_generic_contract"],
    "prompts": ["build_prompt"],
    "generation": ["generate_contract", "extract_contract", "score_candidate"],
    "model": ["parse_contract", "contract_from_doc", "canonicalize", "to_json_schema"],
    "validation": ["validate_rows", "detect_drift", "value_conforms"],
    "expectations": ["synthesize_rules", "evaluate_rules"],
    "compatibility": ["check_compatibility"],
    "evalharness": ["structural_accuracy"],
}
METHODS = {
    ("backends", "HttpBackend"): ["complete"],
    ("service", "RegistryClient"): ["publish", "get_latest", "get_version", "list_versions",
                                    "approve", "check_compat"],
    ("registry", "RegistryStore"): ["publish", "latest_approved", "get_version",
                                    "list_versions", "approve", "check_candidate"],
}


def _source_size(source) -> int:
    if isinstance(source, (bytes, str)):
        return len(source)
    try:
        return source.tell()
    except (AttributeError, OSError):
        return 0


def _format_of(args, kwargs) -> str:
    fmt = kwargs.get("source_format", args[1] if len(args) > 1 else "")
    return fmt if isinstance(fmt, str) else ""


class Tracer:
    def __init__(self):
        self.enabled = False
        self.installed = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` under a span named ``layer.function``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = [name, stack[-1][1] if stack else next(self._ids), 0.0, 0.0, 0.0, not stack]
        stack.append(span)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][4] += span[3] - span[2]
            self.spans.append(span)

    def wrap(self, name: str, fn, namer=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = namer(args, kwargs) if namer else name
            result = tracer.call(span_name, fn, *args, **kwargs)
            if after is not None:
                after(tracer.counts, result, args, kwargs)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap the engine's public functions wherever they are bound."""
        import importlib

        self.installed = True
        hooks = {
            ("profiling", "read_table"): (
                lambda a, k: f"profiling.read_table.{_format_of(a, k)}", _count_read),
            ("profiling", "ingest"): (
                lambda a, k: f"profiling.ingest.{_format_of(a, k)}", None),
            ("validation", "validate_rows"): (None, _count_validate),
            ("expectations", "evaluate_rules"): (None, _count_rules),
            ("prompts", "build_prompt"): (None, _count_prompt),
        }
        for layer, names in FUNCTIONS.items():
            module = importlib.import_module(f"contractforge.{layer}")
            for fname in names:
                original = getattr(module, fname, None)
                if original is None or getattr(original, "__wrapped_by_tracer__", False):
                    continue
                namer, after = hooks.get((layer, fname), (None, None))
                _rebind(original, self.wrap(f"{layer}.{fname}", original, namer, after))
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(importlib.import_module(f"contractforge.{layer}"), cls_name, None)
            for fname in names:
                original = getattr(cls, fname, None) if cls is not None else None
                if original is not None and not getattr(original, "__wrapped_by_tracer__", False):
                    setattr(cls, fname, self.wrap(f"{layer}.{fname}", original))

    # -- reading -----------------------------------------------------------

    def take(self) -> dict:
        """Aggregate and clear the spans and counts: per span name calls,
        total and self time, and the summed duration of root spans (spans no
        other span encloses)."""
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, Counter()
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        root_total = 0.0
        for name, _, start, end, child, root in spans:
            if root:
                root_total += end - start
            total[name] += end - start
            self_time[name] += end - start - child
            calls[name] += 1
        return {"total": dict(total), "self": dict(self_time), "calls": dict(calls),
                "counts": dict(counts), "root_total": root_total}


def _rebind(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "contractforge"
                                  or module_name.startswith("contractforge.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _count_read(counts, result, args, kwargs) -> None:
    _, rows = result
    counts["profiling.rows"] += len(rows)
    counts["profiling.cells"] += sum(len(row) for row in rows)
    counts["profiling.bytes"] += _source_size(args[0] if args else kwargs.get("source"))


def _count_validate(counts, report, args, kwargs) -> None:
    counts["validation.rows_checked"] += report.rows_checked
    counts["validation.violations"] += len(report.violations)


def _count_rules(counts, results, args, kwargs) -> None:
    counts["expectations.rules_evaluated"] += len(results)


def _count_prompt(counts, prompt, args, kwargs) -> None:
    counts["prompts.chars"] += len(prompt)


def merge(into: dict, other: dict) -> dict:
    """Add one aggregate from ``Tracer.take`` into another."""
    for key in ("total", "self", "calls", "counts"):
        bucket = into.setdefault(key, {})
        for name, value in other.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    into["root_total"] = into.get("root_total", 0.0) + other.get("root_total", 0.0)
    return into


def scale(aggregate: dict, factor: float) -> dict:
    """An aggregate with every time and count multiplied by ``factor``."""
    out = {key: {name: value * factor for name, value in aggregate.get(key, {}).items()}
           for key in ("total", "self", "calls", "counts")}
    out["root_total"] = aggregate.get("root_total", 0.0) * factor
    return out


def layer_self(aggregate: dict) -> dict:
    out: dict = defaultdict(float)
    for name, value in aggregate.get("self", {}).items():
        out[name.split(".", 1)[0]] += value
    return dict(out)


def total_of(aggregate: dict, prefix: str) -> float:
    """Summed duration of spans named ``prefix`` or ``prefix.<anything>``."""
    return sum(v for k, v in aggregate.get("total", {}).items()
               if k == prefix or k.startswith(prefix + "."))
