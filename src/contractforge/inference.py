"""Deterministic schema inference from a data profile.

This is the engine's ground-truth path: it serves as an independent oracle
for evaluating generated contracts, as a generation backend in its own
right, and as the producer of the safe fallback contract used when no
generated candidate survives validation.  Inference has no settings: the
enum-promotion thresholds are the module constants below.
"""

from __future__ import annotations

import math

from . import lexical
from .errors import ContractForgeError
from .model import Constraints, Contract, FieldSpec, Provenance
from .profiling import ColumnProfile, DataProfile

ORACLE_BACKEND_ID = "oracle"

# Enum promotion: at least ENUM_MIN_ROWS rows and at most
# min(ENUM_MAX_VALUES, ceil(ENUM_FRACTION * rows)) distinct values.
# Tuned to fire on desk-scale fixtures without promoting ID-like columns.
ENUM_MIN_ROWS = 20
ENUM_MAX_VALUES = 10
ENUM_FRACTION = 0.1


def _observed_classes(column: ColumnProfile) -> list[str]:
    return [c for c, n in column.lexical_histogram.items()
            if n > 0 and c != lexical.EMPTY]


def infer_column_type(column: ColumnProfile) -> str:
    """Least general lexical class covering every non-null value; a column
    with no non-null values defaults to string."""
    joined = lexical.join_all(_observed_classes(column))
    return lexical.STRING if joined == lexical.EMPTY else joined


def _numeric_bounds(column: ColumnProfile, logical_type: str) -> Constraints | None:
    """The least and greatest sampled number; for a ``number`` field as
    floats, each rounded outward where it has no exact float, so that the
    range still holds the sampled values."""
    values = [v for v in map(lexical.number_of, column.sample_values) if v is not None]
    if not values:
        return None
    lo, hi = min(values), max(values)
    try:
        if logical_type == "number":
            lo, hi = _float_at_or_past(lo, -math.inf), _float_at_or_past(hi, math.inf)
    except OverflowError:
        return None
    # No range from an overflowing numeral: contract bounds are finite.
    if math.inf in (abs(lo), abs(hi)):
        return None
    return Constraints(min_value=lo, max_value=hi)


def _float_at_or_past(value: int | float, direction: float) -> float:
    """The float nearest ``value``, or the next one towards ``direction``
    if the nearest lies on the other side of ``value``."""
    rounded = float(value)
    if (rounded < value) if direction > 0 else (rounded > value):
        rounded = math.nextafter(rounded, direction)
    return rounded


def _enum_eligible(column: ColumnProfile) -> bool:
    if column.total_count < ENUM_MIN_ROWS or column.distinct_count == 0:
        return False
    cap = min(ENUM_MAX_VALUES, math.ceil(round(column.total_count * ENUM_FRACTION, 9)))
    if column.distinct_count > cap:
        return False
    # Promote only when the sample provably holds every distinct value.
    return len(set(column.sample_values)) == column.distinct_count


def infer_field(column: ColumnProfile) -> FieldSpec:
    logical_type = infer_column_type(column)
    nullable = column.null_count > 0
    constraints = None
    if logical_type == lexical.STRING and _enum_eligible(column):
        logical_type = "enum_string"
        constraints = Constraints(allowed_values=sorted(set(column.sample_values)))
    elif logical_type in (lexical.INTEGER, lexical.NUMBER):
        constraints = _numeric_bounds(column, logical_type)
    return FieldSpec(name=column.name, logical_type=logical_type,
                     nullable=nullable, constraints=constraints)


def infer_contract(profile: DataProfile) -> Contract:
    """Deterministic stand-in for the generation step: one field per profile
    column, types from the lexical lattice, enum promotion for small stable
    value domains, observed min/max on numeric columns (no padding)."""
    if not profile.columns:
        raise ContractForgeError("empty profile")
    contract = Contract(
        name=profile.dataset_name,
        fields=[infer_field(c) for c in profile.columns],
        version=1,
        status="draft",
        provenance=Provenance(backend_id=ORACLE_BACKEND_ID, generator_mode="oracle"),
    )
    contract.validate()
    return contract


def safe_generic_contract(profile: DataProfile,
                          generated_at: str | None = None) -> Contract:
    """The fallback contract: every column a nullable string field, no
    constraints, no rules.  Accepts anything the source data contained."""
    if not profile.columns:
        raise ContractForgeError("empty profile")
    contract = Contract(
        name=profile.dataset_name,
        fields=[FieldSpec(name=c.name, logical_type="string", nullable=True)
                for c in profile.columns],
        version=1,
        status="draft",
        provenance=Provenance(backend_id="fallback", generator_mode="fallback",
                              generated_at=generated_at),
    )
    contract.validate()
    return contract
