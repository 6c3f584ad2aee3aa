"""Completion post-processing: extract, repair, score, choose or fall back.

The repair chain is deliberately short: strip code fences, trim to the
outermost balanced brace span, drop trailing commas.  Anything it cannot
recover goes down the fallback path instead of being manufactured into a
contract the backend never wrote.  Every contract leaving this module parses
cleanly, by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .backends import CompletionBackend, GenerationRequest
from .errors import ContractForgeError, ExtractionFailure, parse_json
from .inference import safe_generic_contract
from .model import Contract, Provenance, contract_from_doc, from_json_schema
from .profiling import DataProfile
from .prompts import SINGLE_PASS, TWO_PASS_STAGE1, TWO_PASS_STAGE2, build_prompt
from .validation import failing_rows

TWO_PASS = "two_pass"

STRIP_FENCES = "strip_fences"
TRIM_TO_BRACES = "trim_to_braces"
REMOVE_TRAILING_COMMAS = "remove_trailing_commas"

_FENCE_RE = re.compile(r"```[a-zA-Z]*\s*\n?(.*?)```", re.DOTALL)
# A JSON string literal, up to its closing quote or the end of the text.
_STRING_LITERAL = r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)'


@dataclass
class GenerationPolicy:
    mode: str = SINGLE_PASS
    candidate_count: int = 1
    temperature: float = 0.0
    threshold: float = 0.5
    max_output_chars: int = 8000
    # Provenance timestamp; left unset the library stays deterministic and
    # the CLI stamps wall-clock time itself.
    generated_at: str | None = None


@dataclass
class CandidateRecord:
    raw_text: str
    repairs_applied: list[str] = field(default_factory=list)
    parsed: Contract | None = None
    score: float | None = None
    error: str | None = None

    def to_doc(self) -> dict:
        return {
            "raw_text": self.raw_text,
            "repairs_applied": list(self.repairs_applied),
            "parsed": self.parsed.to_doc() if self.parsed is not None else None,
            "score": self.score,
            "error": self.error,
        }


@dataclass
class GenerationReport:
    candidates: list[CandidateRecord]
    chosen: int | None
    mode: str

    @property
    def fallback(self) -> bool:
        return self.chosen is None

    def to_doc(self) -> dict:
        return {"mode": self.mode, "fallback": self.fallback, "chosen": self.chosen,
                "candidates": [c.to_doc() for c in self.candidates]}


def strip_fences(text: str) -> str:
    """Return the body of the first fenced code block, if any."""
    match = _FENCE_RE.search(text)
    return match.group(1) if match else text


def _outside_strings(text: str, pattern: str):
    """Yield the start of each match of ``pattern`` in ``text`` that lies
    outside JSON string literals."""
    for match in re.finditer(f"({_STRING_LITERAL})|{pattern}", text, re.DOTALL):
        if match.group(1) is None:
            yield match.start()


def _balanced_span(text: str, open_char: str, close_char: str) -> str | None:
    """First balanced span between the delimiters, string-literal aware.

    Single pass: the span of the earliest opener that gets matched, so
    openers that never close are skipped and nesting picks the outermost.
    """
    stack: list[int] = []
    best: tuple[int, int] | None = None
    for pos in _outside_strings(text, f"[{re.escape(open_char + close_char)}]"):
        if text[pos] == open_char:
            stack.append(pos)
        elif stack:
            start = stack.pop()
            if best is None or start < best[0]:
                best = (start, pos)
    if best is None:
        return None
    return text[best[0]:best[1] + 1]


def trim_to_braces(text: str) -> str:
    span = _balanced_span(text, "{", "}")
    return span if span is not None else text


def remove_trailing_commas(text: str) -> str:
    """Drop commas that directly precede a closer, outside string literals."""
    pieces: list[str] = []
    start = 0
    for pos in _outside_strings(text, r",(?=[ \t\r\n]*[}\]])"):
        pieces.append(text[start:pos])
        start = pos + 1
    return "".join(pieces) + text[start:]


def _try_parse(text: str) -> Contract:
    doc = parse_json(text, ExtractionFailure)
    if isinstance(doc, dict) and "properties" in doc and "fields" not in doc:
        doc = from_json_schema(doc)
    return contract_from_doc(doc)


def extract_contract(completion: str) -> tuple[Contract, list[str]]:
    """Parse a completion, applying repair steps in order and only as needed.

    Returns the contract plus the names of the repairs that were applied.
    Raises :class:`ExtractionFailure` when no repair sequence yields a valid
    contract; in particular, input without a balanced brace pair never
    parses.
    """
    text = completion
    repairs: list[str] = []
    last_error: Exception | None = None
    try:
        return _try_parse(text), repairs
    except (ValueError, ContractForgeError) as exc:
        last_error = exc
    for name, step in ((STRIP_FENCES, strip_fences),
                       (TRIM_TO_BRACES, trim_to_braces),
                       (REMOVE_TRAILING_COMMAS, remove_trailing_commas)):
        repaired = step(text)
        if repaired.strip() == text.strip():  # no material change
            continue
        text = repaired
        repairs.append(name)
        try:
            return _try_parse(text), repairs
        except (ValueError, ContractForgeError) as exc:
            last_error = exc
    raise ExtractionFailure(f"no contract recovered: {last_error}")


def score_candidate(contract: Contract, profile: DataProfile) -> float:
    """Validator score in [0, 1]: column coverage (0.5), sample-row pass
    rate (0.3) and absence of invented fields (0.2)."""
    failed = failing_rows(contract, profile.sample_rows)  # checks the contract first
    columns = set(profile.column_names())
    fields = set(contract.field_names())
    coverage = len(fields & columns) / max(1, len(columns))
    rows = len(profile.sample_rows)
    row_pass_rate = (rows - len(failed)) / rows if rows else 1.0
    hallucination_rate = len(fields - columns) / max(1, len(fields))
    return 0.5 * coverage + 0.3 * row_pass_rate + 0.2 * (1.0 - hallucination_rate)


def _parse_stage1(text: str) -> list[str] | None:
    candidate = strip_fences(text)
    span = _balanced_span(candidate, "[", "]")
    if span is not None:
        candidate = span
    try:
        doc = parse_json(candidate)
    except ContractForgeError:
        return None
    if isinstance(doc, list) and doc and all(isinstance(v, str) for v in doc):
        return [v.strip() for v in doc]
    return None


def generate_contract(profile: DataProfile, backend: CompletionBackend,
                      policy: GenerationPolicy | None = None) -> tuple[Contract, GenerationReport]:
    """Run the full generation flow for one profile.

    Builds the prompt(s), requests candidates, repairs and scores them, and
    returns the best one; when nothing parses or the best score falls below
    the policy threshold, the safe generic contract is returned with the
    fallback marker set.  Backend transport failures propagate; fallback is
    a success path, transport failure is not.
    """
    policy = policy or GenerationPolicy()
    if not profile.columns:
        raise ContractForgeError("empty profile")

    stage1_columns = None
    if policy.mode == TWO_PASS:
        stage1_request = GenerationRequest(
            prompt=build_prompt(profile, TWO_PASS_STAGE1),
            temperature=policy.temperature,
            max_output_chars=policy.max_output_chars,
            candidate_count=1,
            profile=profile,
        )
        stage1_texts = backend.complete(stage1_request)
        stage1_columns = _parse_stage1(stage1_texts[0]) if stage1_texts else None
    # Two-pass iff stage 1 yielded columns: a failed stage 1 degrades to
    # single-pass rather than failing.
    two_pass = stage1_columns is not None

    request = GenerationRequest(
        prompt=build_prompt(profile, TWO_PASS_STAGE2 if two_pass else SINGLE_PASS,
                            stage1_columns),
        temperature=policy.temperature,
        max_output_chars=policy.max_output_chars,
        candidate_count=policy.candidate_count,
        profile=profile,
    )
    texts = backend.complete(request)[: policy.candidate_count]

    candidates: list[CandidateRecord] = []
    for text in texts:
        record = CandidateRecord(raw_text=text)
        try:
            record.parsed, record.repairs_applied = extract_contract(text)
            record.score = score_candidate(record.parsed, profile)
        except ContractForgeError as exc:
            record.error = str(exc)
        candidates.append(record)

    # The first of the best scores wins.
    best = max((i for i, record in enumerate(candidates) if record.parsed is not None),
               key=lambda i: candidates[i].score, default=None)
    if best is not None and candidates[best].score < policy.threshold:
        best = None
    if best is None:
        contract = safe_generic_contract(profile, generated_at=policy.generated_at)
        contract.provenance.backend_id = backend.backend_id
    else:
        contract = candidates[best].parsed
        contract.provenance = Provenance(backend_id=backend.backend_id,
                                         generator_mode="backend",
                                         generated_at=policy.generated_at)
    return contract, GenerationReport(candidates=candidates, chosen=best,
                                      mode=TWO_PASS if two_pass else SINGLE_PASS)
