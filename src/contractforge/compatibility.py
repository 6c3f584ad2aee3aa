"""Schema-evolution compatibility.

Compatibility is defined by row subsumption, not a syntactic rule list:
``backward`` holds when every row valid under the old contract stays valid
under the new one, ``forward`` is the converse, ``full`` is both.  Because
contracts reject unknown row keys, removing a field is itself a backward
break (rows carrying the removed key become unknown), and adding a field is
only safe when it is nullable.
"""

from __future__ import annotations

from . import lexical
from .errors import ContractForgeError
from .model import CompatibilityVerdict, Contract, FieldSpec
from .validation import value_conforms

COMPATIBILITY_MODES = ("none", "backward", "forward", "full")


def _bounds(spec: FieldSpec) -> tuple[float | None, float | None]:
    if spec.constraints is None:
        return None, None
    return spec.constraints.min_value, spec.constraints.max_value


def _value_set_reasons(name: str, narrow: FieldSpec, wide: FieldSpec) -> list[str]:
    """Why the non-null values of ``narrow`` are not all accepted by ``wide``."""
    ta, tb = narrow.logical_type, wide.logical_type
    if ta == "enum_string":
        values = (narrow.constraints.allowed_values or []) if narrow.constraints else []
        rejected = sorted(v for v in values if not value_conforms(wide, v))
        if rejected:
            return [f"field {name!r}: allowed values {rejected} are not accepted any more"]
        return []
    if tb == "enum_string":
        return [f"field {name!r}: type {ta} narrowed to a fixed value set"]
    if not lexical.is_subclass(ta, tb):
        return [f"field {name!r}: values of type {ta} are not all accepted as {tb}"]
    lo_a, hi_a = _bounds(narrow)
    lo_b, hi_b = _bounds(wide)
    narrowed = []
    if lo_b is not None and (lo_a is None or lo_a < lo_b):
        narrowed.append(f"lower bound {lo_b}")
    if hi_b is not None and (hi_a is None or hi_a > hi_b):
        narrowed.append(f"upper bound {hi_b}")
    if narrowed:
        return [f"field {name!r}: numeric range narrowed ({', '.join(narrowed)})"]
    return []


def _subsumption_reasons(old: Contract, new: Contract) -> list[str]:
    """Why some row valid under ``old`` would be rejected by ``new``."""
    old_fields = {f.name: f for f in old.fields}
    new_fields = {f.name: f for f in new.fields}
    reasons: list[str] = []
    for name in old_fields:
        if name not in new_fields:
            reasons.append(f"field {name!r} removed; rows carrying it become unknown")
    for name, spec in new_fields.items():
        if name not in old_fields and not spec.nullable:
            reasons.append(f"added field {name!r} is non-nullable; rows without it fail")
    for name, old_spec in old_fields.items():
        new_spec = new_fields.get(name)
        if new_spec is None:
            continue
        if old_spec.nullable and not new_spec.nullable:
            reasons.append(f"field {name!r}: nullable narrowed to non-nullable")
        reasons.extend(_value_set_reasons(name, old_spec, new_spec))
    return reasons


def check_compatibility(old: Contract, new: Contract,
                        mode: str = "backward") -> CompatibilityVerdict:
    """Check both contracts, then decide compatibility in ``mode``, naming offending fields."""
    old.validate()
    new.validate()
    if mode not in COMPATIBILITY_MODES:
        raise ContractForgeError(f"unknown compatibility mode {mode!r}")
    if mode == "none":
        return CompatibilityVerdict(True, [])
    reasons: list[str] = []
    if mode in ("backward", "full"):
        reasons.extend(_subsumption_reasons(old, new))
    if mode in ("forward", "full"):
        prefix = "forward: " if mode == "full" else ""
        reasons.extend(prefix + r for r in _subsumption_reasons(new, old))
    return CompatibilityVerdict(compatible=not reasons, reasons=reasons)
