"""Desk-scale evaluation: structural accuracy and syntax validity over a
corpus of (profile, ground-truth contract) pairs.

A corpus directory holds ``<name>.profile.json`` / ``<name>.truth.json``
pairs.  Fallback contracts count as valid outputs and are scored like any
other, but the fallback rate is reported separately so the two effects stay
distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .backends import CompletionBackend
from .errors import BackendTransportError, ContractForgeError
from .generation import GenerationPolicy, generate_contract
from .model import Contract, parse_contract
from .profiling import load_profile


@dataclass
class TableMetrics:
    name: str
    structural_accuracy: float
    syntactically_valid: bool
    fallback: bool

    def to_doc(self) -> dict:
        return {"name": self.name, "structural_accuracy": self.structural_accuracy,
                "syntactically_valid": self.syntactically_valid,
                "fallback": self.fallback}


@dataclass
class CorpusMetrics:
    tables_evaluated: int
    mean_structural_accuracy: float
    syntax_validity_rate: float
    fallback_rate: float
    per_table: list[TableMetrics]
    skipped: list[dict] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "tables_evaluated": self.tables_evaluated,
            "mean_structural_accuracy": self.mean_structural_accuracy,
            "syntax_validity_rate": self.syntax_validity_rate,
            "fallback_rate": self.fallback_rate,
            "per_table": [t.to_doc() for t in self.per_table],
            "tables_skipped": len(self.skipped),
            "skipped": [dict(s) for s in self.skipped],
        }


def structural_accuracy(generated: Contract, truth: Contract) -> float:
    """Fraction of ground-truth fields the generated contract reproduces
    with the same name and a conformant type (exact match, plus integer
    accepted where truth says number).  Names match as written: a contract
    that parses has trimmed names."""
    if not truth.fields:
        raise ContractForgeError("truth contract has no fields")
    generated_types = {f.name: f.logical_type for f in generated.fields}
    hits = 0
    for spec in truth.fields:
        got = generated_types.get(spec.name)
        if got is None:
            continue
        if got == spec.logical_type or \
                (spec.logical_type == "number" and got == "integer"):
            hits += 1
    return hits / len(truth.fields)


def run_eval(corpus_dir, backend: CompletionBackend,
             policy: GenerationPolicy | None = None) -> CorpusMetrics:
    """Generate a contract for every corpus profile with ``backend`` and
    compare to truth.  Malformed corpus entries are skipped and counted
    separately; backend transport failures propagate.
    """
    corpus = Path(corpus_dir)
    profile_paths = sorted(corpus.glob("*.profile.json"))
    if not profile_paths:
        raise ContractForgeError(f"no *.profile.json entries under {corpus}")
    per_table: list[TableMetrics] = []
    skipped: list[dict] = []
    for profile_path in profile_paths:
        name = profile_path.name[: -len(".profile.json")]
        try:
            profile = load_profile(profile_path.read_text(encoding="utf-8"))
            truth_path = corpus / f"{name}.truth.json"
            truth = parse_contract(truth_path.read_text(encoding="utf-8"))
            contract, report = generate_contract(profile, backend, policy)
            per_table.append(TableMetrics(
                name=name,
                structural_accuracy=structural_accuracy(contract, truth),
                syntactically_valid=not report.fallback,
                fallback=report.fallback,
            ))
        except BackendTransportError:
            raise
        except (OSError, ValueError, ContractForgeError) as exc:
            skipped.append({"name": name, "error": str(exc)})
    if not per_table:
        raise ContractForgeError("corpus had no evaluable tables")
    count = len(per_table)
    return CorpusMetrics(
        tables_evaluated=count,
        mean_structural_accuracy=sum(t.structural_accuracy for t in per_table) / count,
        syntax_validity_rate=sum(t.syntactically_valid for t in per_table) / count,
        fallback_rate=sum(t.fallback for t in per_table) / count,
        per_table=per_table,
        skipped=skipped,
    )


def format_metrics_table(metrics: CorpusMetrics) -> str:
    """Human-readable per-table summary plus the corpus means."""
    width = max([len(t.name) for t in metrics.per_table] + [5])
    lines = [f"{'table':<{width}}  accuracy  valid  fallback"]
    for table in metrics.per_table:
        lines.append(
            f"{table.name:<{width}}  {table.structural_accuracy:8.3f}  "
            f"{'yes' if table.syntactically_valid else 'no':>5}  "
            f"{'yes' if table.fallback else 'no':>8}")
    lines.append("")
    lines.append(f"tables evaluated:         {metrics.tables_evaluated}")
    if metrics.skipped:
        lines.append(f"tables skipped:           {len(metrics.skipped)}")
        for entry in metrics.skipped:
            lines.append(f"  {entry['name']}: {entry['error']}")
    lines.append(f"mean structural accuracy: {metrics.mean_structural_accuracy:.3f}")
    lines.append(f"syntax validity rate:     {metrics.syntax_validity_rate:.3f}")
    lines.append(f"fallback rate:            {metrics.fallback_rate:.3f}")
    return "\n".join(lines)
