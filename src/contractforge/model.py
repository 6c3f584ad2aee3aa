"""The contract document: field specifications, quality rules, provenance.

A contract is our own JSON document rather than raw JSON Schema, because it
carries provenance, quality rules and review status that JSON Schema cannot
house.  ``to_json_schema`` is the export path for consumers that want a
standard validator document, and ``from_json_schema`` its inverse, less
ranges, format hints and field order.  ``TYPES`` is the one table of what
each logical type means.

Parsing is strict: unknown keys are rejected rather than silently accepted,
since most contract text arrives from a text-generation backend.
``Contract.validate`` is the one check of a contract: every value's type,
finite ``min``/``max`` bounds, string ``values_in_set`` values, and every
invariant.  A contract built in code passes it exactly when its document
parses, so the registry refuses one it could not read back.  Names are
trimmed by construction, so every module compares them exactly as written.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from . import lexical
from .errors import (ContractSyntaxError, ExtractionFailure, InvariantViolation, dump_json,
                     parse_json)

#: Each logical type: its lexical-lattice class, JSON-Schema ``type`` and ``format``.
LogicalType = namedtuple("LogicalType", "lattice json_type json_format", defaults=[None])
TYPES = {
    "boolean": LogicalType(lexical.BOOLEAN, "boolean"),
    "integer": LogicalType(lexical.INTEGER, "integer"),
    "number": LogicalType(lexical.NUMBER, "number"),
    "string": LogicalType(lexical.STRING, "string"),
    "date": LogicalType(lexical.DATE, "string", "date"),
    "timestamp": LogicalType(lexical.TIMESTAMP, "string", "date-time"),
    "enum_string": LogicalType(lexical.STRING, "string"),
}
LOGICAL_TYPES = tuple(TYPES)
NUMERIC_TYPES = tuple(n for n, t in TYPES.items() if lexical.is_subclass(t.lattice, lexical.NUMBER))
TEMPORAL_TYPES = tuple(n for n, t in TYPES.items() if t.json_format is not None)
STATUSES = ("draft", "approved", "deprecated")
GENERATOR_MODES = ("oracle", "backend", "fallback")

RULE_KINDS = ("values_in_set", "not_null", "between", "matches_format", "unique")
SEVERITIES = ("error", "warning")
_TEXT_OR_NONE = (str, type(None))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation("malformed document", message)


def _validate_part(part, cls: type, where: str) -> None:
    """``part.validate()`` for a ``cls``, naming a malformed piece by its path."""
    if not isinstance(part, cls):
        raise InvariantViolation("malformed document", f"{where} must be an object")
    try:
        part.validate()
    except InvariantViolation as exc:
        if exc.invariant != "malformed document":
            raise
        raise InvariantViolation(exc.invariant, f"{where}.{exc.detail}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class Constraints:
    """Optional per-field value constraints; which keys may appear depends on
    the field's logical type (enforced by ``FieldSpec.validate``)."""

    allowed_values: list[str] | None = None
    min_value: float | int | None = None
    max_value: float | int | None = None
    format_hint: str | None = None

    def validate(self) -> None:
        allowed = self.allowed_values
        _expect(allowed is None or isinstance(allowed, list)
                and all(isinstance(v, str) for v in allowed),
                "allowed_values must be a list of strings")
        for key, bound in (("min", self.min_value), ("max", self.max_value)):
            if bound is not None and not (_is_number(bound) and -math.inf < bound < math.inf):
                kind = "finite" if _is_number(bound) else "numeric"
                raise InvariantViolation("malformed document", f"{key} must be {kind}")
        _expect(isinstance(self.format_hint, _TEXT_OR_NONE), "format_hint must be text")

    def is_empty(self) -> bool:
        return (self.allowed_values is None and self.min_value is None
                and self.max_value is None and self.format_hint is None)

    def to_doc(self) -> dict:
        doc: dict = {}
        if self.allowed_values is not None:
            doc["allowed_values"] = self.allowed_values
        if self.min_value is not None:
            doc["min"] = self.min_value
        if self.max_value is not None:
            doc["max"] = self.max_value
        if self.format_hint is not None:
            doc["format_hint"] = self.format_hint
        return doc


@dataclass
class FieldSpec:
    name: str
    logical_type: str
    nullable: bool
    constraints: Constraints | None = None
    description: str | None = None

    def validate(self) -> None:
        _expect(isinstance(self.name, str), "name must be text")
        _expect(isinstance(self.logical_type, str), "logical_type must be text")
        _expect(isinstance(self.nullable, bool), "nullable must be a boolean")
        c = self.constraints
        if c is not None:
            _validate_part(c, Constraints, "constraints")
        if self.description is not None:
            _expect(isinstance(self.description, str), "description must be text")
        if self.logical_type not in LOGICAL_TYPES:
            raise InvariantViolation("unknown logical_type",
                                     f"field {self.name!r}: {self.logical_type!r}")
        if self.logical_type == "enum_string":
            if c is None or c.allowed_values is None:
                raise InvariantViolation("allowed_values present iff enum_string",
                                         f"field {self.name!r} has no allowed_values")
            if not c.allowed_values:
                raise InvariantViolation("allowed_values non-empty", f"field {self.name!r}")
            if len(set(c.allowed_values)) != len(c.allowed_values):
                raise InvariantViolation("allowed_values unique", f"field {self.name!r}")
        elif c is not None and c.allowed_values is not None:
            raise InvariantViolation("allowed_values present iff enum_string",
                                     f"field {self.name!r} is {self.logical_type}")
        if c is not None:
            if (c.min_value is not None or c.max_value is not None) \
                    and self.logical_type not in NUMERIC_TYPES:
                raise InvariantViolation("min/max only on numeric fields",
                                         f"field {self.name!r} is {self.logical_type}")
            if c.min_value is not None and c.max_value is not None \
                    and c.min_value > c.max_value:
                raise InvariantViolation("min <= max", f"field {self.name!r}")
            if c.format_hint is not None and self.logical_type not in TEMPORAL_TYPES:
                raise InvariantViolation("format_hint only on date/timestamp fields",
                                         f"field {self.name!r} is {self.logical_type}")

    def to_doc(self) -> dict:
        doc: dict = {"name": self.name, "logical_type": self.logical_type,
                     "nullable": self.nullable}
        if self.constraints is not None and not self.constraints.is_empty():
            doc["constraints"] = self.constraints.to_doc()
        if self.description is not None:
            doc["description"] = self.description
        return doc


@dataclass
class QualityRule:
    """One machine-checkable assertion over a column's values."""

    kind: str
    column: str
    params: dict = field(default_factory=dict)
    severity: str = "error"

    def validate(self) -> None:
        _expect(isinstance(self.kind, str), "kind must be text")
        _expect(isinstance(self.column, str), "column must be text")
        _expect(isinstance(self.params, dict), "params must be an object")
        _expect(isinstance(self.severity, str), "severity must be text")
        if self.kind not in RULE_KINDS:
            raise InvariantViolation("unknown rule kind", repr(self.kind))
        if self.severity not in SEVERITIES:
            raise InvariantViolation("unknown rule severity", repr(self.severity))
        if self.kind == "values_in_set":
            values = self.params.get("values")
            if not isinstance(values, list) or not values \
                    or not all(isinstance(v, str) for v in values):
                raise InvariantViolation("rule params match kind",
                                         f"values_in_set on {self.column!r} needs a non-empty list of strings")
        elif self.kind == "between":
            lo, hi = self.params.get("min"), self.params.get("max")
            if not (_is_number(lo) and _is_number(hi) and -math.inf < lo <= hi < math.inf):
                raise InvariantViolation("rule params match kind",
                                         f"between on {self.column!r} needs finite min <= max")
        elif self.kind == "matches_format":
            if self.params.get("format") not in TEMPORAL_TYPES:
                raise InvariantViolation("rule params match kind",
                                         f"matches_format on {self.column!r} needs format date or timestamp")

    def to_doc(self) -> dict:
        return {"kind": self.kind, "column": self.column,
                "params": self.params, "severity": self.severity}


@dataclass
class Provenance:
    backend_id: str
    generator_mode: str
    generated_at: str | None = None

    def validate(self) -> None:
        _expect(isinstance(self.backend_id, str), "backend_id must be text")
        _expect(isinstance(self.generator_mode, str), "generator_mode must be text")
        _expect(isinstance(self.generated_at, _TEXT_OR_NONE), "generated_at must be text")
        if self.generator_mode not in GENERATOR_MODES:
            raise InvariantViolation("unknown generator_mode", repr(self.generator_mode))

    def to_doc(self) -> dict:
        doc: dict = {"backend_id": self.backend_id, "generator_mode": self.generator_mode}
        if self.generated_at is not None:
            doc["generated_at"] = self.generated_at
        return doc


@dataclass
class Contract:
    name: str
    fields: list[FieldSpec]
    rules: list[QualityRule] = field(default_factory=list)
    version: int = 1
    status: str = "draft"
    provenance: Provenance | None = None

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field_spec(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def validate(self) -> None:
        """The one check of a contract: no invariant reads a value before its type is checked."""
        _expect(isinstance(self.name, str), "name must be text")
        _expect(isinstance(self.fields, list), "fields must be an array")
        _expect(isinstance(self.rules, list), "rules must be an array")
        if not isinstance(self.version, int) or isinstance(self.version, bool) or self.version < 1:
            raise InvariantViolation("version >= 1", repr(self.version))
        if self.status not in STATUSES:
            raise InvariantViolation("unknown status", repr(self.status))
        if self.provenance is not None:
            _validate_part(self.provenance, Provenance, "provenance")
        for i, f in enumerate(self.fields):
            _validate_part(f, FieldSpec, f"fields[{i}]")
        for i, r in enumerate(self.rules):
            _validate_part(r, QualityRule, f"rules[{i}]")
        names = [f.name for f in self.fields]
        padded = [n for n in names + [r.column for r in self.rules] if n != n.strip()]
        if padded:
            raise InvariantViolation("names trimmed", ", ".join(repr(n) for n in padded))
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InvariantViolation("field names unique", ", ".join(repr(d) for d in dupes))

    def to_doc(self) -> dict:
        """The document, holding any ill-typed value as it is for the parser to refuse."""
        doc: dict = {
            "name": self.name,
            "version": self.version,
            "status": self.status,
            "fields": [f.to_doc() for f in self.fields] if isinstance(self.fields, list) else self.fields,
            "rules": [r.to_doc() for r in self.rules] if isinstance(self.rules, list) else self.rules,
        }
        if self.provenance is not None:
            doc["provenance"] = self.provenance.to_doc()
        return doc


@dataclass
class CompatibilityVerdict:
    """A compatibility check's answer, kept here so registry clients skip the engine."""

    compatible: bool
    reasons: list[str] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {"compatible": self.compatible, "reasons": list(self.reasons)}


_TOP_KEYS = {"name", "version", "status", "provenance", "fields", "rules"}
_FIELD_KEYS = {"name", "logical_type", "nullable", "constraints", "description"}
_CONSTRAINT_KEYS = {"allowed_values", "min", "max", "format_hint"}
_RULE_KEYS = {"kind", "column", "params", "severity"}
_PROVENANCE_KEYS = {"backend_id", "generated_at", "generator_mode"}


def _object(doc, allowed: set[str], where: str) -> dict:
    """``doc``, which must be an object holding no key outside ``allowed``."""
    _expect(isinstance(doc, dict), f"{where} must be an object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise InvariantViolation("unknown keys",
                                 f"{where}: {', '.join(repr(k) for k in unknown)}")
    return doc


def contract_from_doc(doc: dict) -> Contract:
    """Build a Contract from a decoded JSON document, each level an object of
    known keys, and ``validate`` it.  The contract shares the document's
    lists and objects."""
    _expect(isinstance(doc, dict), "contract document must be a JSON object")
    _object(doc, _TOP_KEYS, "top-level")
    fields, rules, provenance = doc.get("fields"), doc.get("rules", []), doc.get("provenance")
    if isinstance(fields, list):
        built = []
        for i, f in enumerate(fields):
            f = _object(f, _FIELD_KEYS, f"fields[{i}]")
            c = f.get("constraints")
            if "constraints" in f:
                c = _object(c, _CONSTRAINT_KEYS, f"fields[{i}].constraints")
                c = Constraints(c.get("allowed_values"), c.get("min"), c.get("max"),
                                c.get("format_hint"))
                c = None if c.is_empty() else c  # as canonical text drops it
            built.append(FieldSpec(f.get("name"), f.get("logical_type"), f.get("nullable"),
                                   c, f.get("description")))
        fields = built
    if isinstance(rules, list):
        rules = [QualityRule(r.get("kind"), r.get("column"), r.get("params", {}),
                             r.get("severity", "error"))
                 for r in (_object(r, _RULE_KEYS, f"rules[{i}]") for i, r in enumerate(rules))]
    if "provenance" in doc:
        p = _object(provenance, _PROVENANCE_KEYS, "provenance")
        provenance = Provenance(p.get("backend_id"), p.get("generator_mode"), p.get("generated_at"))
    contract = Contract(doc.get("name"), fields, rules, doc.get("version", 1),
                        doc.get("status", "draft"), provenance)
    contract.validate()
    return contract


def parse_contract(text: str) -> Contract:
    """Parse contract text, raising a position-annotated error on bad JSON
    and an invariant-naming error on structurally bad documents."""
    return contract_from_doc(parse_json(text, ContractSyntaxError, "syntax error"))


def canonicalize(contract: Contract) -> str:
    """Deterministic textual form: object keys sorted, field order preserved,
    2-space indent, newline-terminated.  The storage and diff base."""
    return dump_json(contract.to_doc())


def to_json_schema(contract: Contract) -> str:
    """Export as a draft-07-style JSON Schema document.

    Ranges (min/max) are deliberately not exported; they stay internal to
    row validation.
    """
    properties: dict = {}
    required: list[str] = []
    for f in contract.fields:
        _, base, fmt = TYPES[f.logical_type]
        prop: dict = {"type": [base, "null"] if f.nullable else base}
        if fmt is not None:
            prop["format"] = fmt
        if f.logical_type == "enum_string" and f.constraints is not None:
            enum: list = list(f.constraints.allowed_values or [])
            if f.nullable:
                enum.append(None)
            prop["enum"] = enum
        if f.description is not None:
            prop["description"] = f.description
        properties[f.name] = prop
        if not f.nullable:
            required.append(f.name)
    schema: dict = {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": contract.name,
        "type": "object",
        "properties": properties,
        "additionalProperties": False,
    }
    if required:
        schema["required"] = required
    return dump_json(schema)


#: ``TYPES`` read backwards: the logical type of a JSON-Schema ``type`` and
#: ``format``, the first in ``TYPES`` where two share them.
_BY_SCHEMA = {(t.json_type, t.json_format): n for n, t in reversed(TYPES.items())}


def _text(value) -> str | None:
    """``value`` if it is a string, else ``None``: what an unknown value reads as."""
    return value if isinstance(value, str) else None


def from_json_schema(doc: dict) -> dict:
    """Lift a JSON-Schema-like object into the contract document shape,
    reading each property back through ``TYPES``.  Only string ``type``,
    ``format``, ``required`` and ``enum`` values are read; any other reads
    as unknown: a ``string`` type, no format, not required, no value."""
    properties = doc.get("properties")
    if not isinstance(properties, dict):
        raise ExtractionFailure("schema-like object without a properties map")
    required = doc.get("required")
    required_names = set(map(_text, required)) if isinstance(required, list) else set()
    fields = []
    for name, prop in properties.items():
        if not isinstance(prop, dict):
            raise ExtractionFailure(f"property {name!r} is not an object")
        declared = prop.get("type")
        nullable = name not in required_names or isinstance(declared, list) and "null" in declared
        if isinstance(declared, list):
            non_null = [t for t in declared if t != "null"]
            declared = non_null[0] if len(non_null) == 1 else None
        base = declared if (_text(declared), None) in _BY_SCHEMA else "string"
        logical = _BY_SCHEMA.get((base, _text(prop.get("format"))), _BY_SCHEMA[base, None])
        field_doc: dict = {"name": name, "logical_type": logical, "nullable": nullable}
        enum = prop.get("enum")
        if base == "string" and isinstance(enum, list):
            values = list(dict.fromkeys(v for v in enum if isinstance(v, str)))
            if values:
                field_doc.update(logical_type="enum_string",
                                 constraints={"allowed_values": values})
        if isinstance(prop.get("description"), str):
            field_doc["description"] = prop["description"]
        fields.append(field_doc)
    title = doc.get("title")
    return {"name": title if isinstance(title, str) and title else "contract",
            "version": 1, "status": "draft", "fields": fields, "rules": []}
