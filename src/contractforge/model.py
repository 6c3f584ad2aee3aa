"""The contract document: field specifications, quality rules, provenance.

A contract is our own JSON document rather than raw JSON Schema, because it
carries provenance, quality rules and review status that JSON Schema cannot
house.  ``to_json_schema`` is the export path for consumers that want a
standard validator document.

Parsing is strict: unknown keys are rejected rather than silently accepted,
since most contract text arrives from a text-generation backend.  Field
names and rule columns are trimmed by construction (``Contract.validate``
rejects leading or trailing whitespace), so every other module compares
names exactly as written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractSyntaxError, InvariantViolation, dump_json, parse_json

LOGICAL_TYPES = ("boolean", "integer", "number", "string", "date", "timestamp", "enum_string")
NUMERIC_TYPES = ("integer", "number")
TEMPORAL_TYPES = ("date", "timestamp")
STATUSES = ("draft", "approved", "deprecated")
GENERATOR_MODES = ("oracle", "backend", "fallback")

RULE_KINDS = ("values_in_set", "not_null", "between", "matches_format", "unique")
SEVERITIES = ("error", "warning")


@dataclass
class Constraints:
    """Optional per-field value constraints; which keys may appear depends on
    the field's logical type (enforced by ``FieldSpec.validate``)."""

    allowed_values: list[str] | None = None
    min_value: float | int | None = None
    max_value: float | int | None = None
    format_hint: str | None = None

    def is_empty(self) -> bool:
        return (self.allowed_values is None and self.min_value is None
                and self.max_value is None and self.format_hint is None)

    def to_doc(self) -> dict:
        doc: dict = {}
        if self.allowed_values is not None:
            doc["allowed_values"] = list(self.allowed_values)
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
        if self.logical_type not in LOGICAL_TYPES:
            raise InvariantViolation("unknown logical_type",
                                     f"field {self.name!r}: {self.logical_type!r}")
        c = self.constraints
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
        if self.kind not in RULE_KINDS:
            raise InvariantViolation("unknown rule kind", repr(self.kind))
        if self.severity not in SEVERITIES:
            raise InvariantViolation("unknown rule severity", repr(self.severity))
        if self.kind == "values_in_set":
            values = self.params.get("values")
            if not isinstance(values, list) or not values:
                raise InvariantViolation("rule params match kind",
                                         f"values_in_set on {self.column!r} needs a non-empty value list")
        elif self.kind == "between":
            lo, hi = self.params.get("min"), self.params.get("max")
            if not isinstance(lo, (int, float)) or not isinstance(hi, (int, float)) \
                    or isinstance(lo, bool) or isinstance(hi, bool) or lo > hi:
                raise InvariantViolation("rule params match kind",
                                         f"between on {self.column!r} needs min <= max")
        elif self.kind == "matches_format":
            if self.params.get("format") not in ("date", "timestamp"):
                raise InvariantViolation("rule params match kind",
                                         f"matches_format on {self.column!r} needs format date or timestamp")

    def to_doc(self) -> dict:
        return {"kind": self.kind, "column": self.column,
                "params": dict(self.params), "severity": self.severity}


@dataclass
class Provenance:
    backend_id: str
    generator_mode: str
    generated_at: str | None = None

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
        names = [f.name for f in self.fields]
        padded = [n for n in names + [r.column for r in self.rules] if n != n.strip()]
        if padded:
            raise InvariantViolation("names trimmed", ", ".join(repr(n) for n in padded))
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InvariantViolation("field names unique", ", ".join(repr(d) for d in dupes))
        if not isinstance(self.version, int) or isinstance(self.version, bool) or self.version < 1:
            raise InvariantViolation("version >= 1", repr(self.version))
        if self.status not in STATUSES:
            raise InvariantViolation("unknown status", repr(self.status))
        if self.provenance is not None \
                and self.provenance.generator_mode not in GENERATOR_MODES:
            raise InvariantViolation("unknown generator_mode",
                                     repr(self.provenance.generator_mode))
        for f in self.fields:
            f.validate()
        for r in self.rules:
            r.validate()

    def to_doc(self) -> dict:
        doc: dict = {
            "name": self.name,
            "version": self.version,
            "status": self.status,
            "fields": [f.to_doc() for f in self.fields],
            "rules": [r.to_doc() for r in self.rules],
        }
        if self.provenance is not None:
            doc["provenance"] = self.provenance.to_doc()
        return doc


_TOP_KEYS = {"name", "version", "status", "provenance", "fields", "rules"}
_FIELD_KEYS = {"name", "logical_type", "nullable", "constraints", "description"}
_CONSTRAINT_KEYS = {"allowed_values", "min", "max", "format_hint"}
_RULE_KEYS = {"kind", "column", "params", "severity"}
_PROVENANCE_KEYS = {"backend_id", "generated_at", "generator_mode"}


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise InvariantViolation("unknown keys",
                                 f"{where}: {', '.join(repr(k) for k in unknown)}")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation("malformed document", message)


def _constraints_from_doc(doc: dict, where: str) -> Constraints:
    _expect(isinstance(doc, dict), f"{where}.constraints must be an object")
    _reject_unknown(doc, _CONSTRAINT_KEYS, f"{where}.constraints")
    allowed = doc.get("allowed_values")
    if allowed is not None:
        _expect(isinstance(allowed, list) and all(isinstance(v, str) for v in allowed),
                f"{where}.constraints.allowed_values must be a list of strings")
    for bound in ("min", "max"):
        value = doc.get(bound)
        if value is not None:
            _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
                    f"{where}.constraints.{bound} must be numeric")
    hint = doc.get("format_hint")
    if hint is not None:
        _expect(isinstance(hint, str), f"{where}.constraints.format_hint must be text")
    return Constraints(allowed_values=list(allowed) if allowed is not None else None,
                       min_value=doc.get("min"), max_value=doc.get("max"),
                       format_hint=hint)


def _field_from_doc(doc: dict, index: int) -> FieldSpec:
    where = f"fields[{index}]"
    _expect(isinstance(doc, dict), f"{where} must be an object")
    _reject_unknown(doc, _FIELD_KEYS, where)
    _expect(isinstance(doc.get("name"), str), f"{where}.name must be text")
    _expect(isinstance(doc.get("logical_type"), str), f"{where}.logical_type must be text")
    _expect(isinstance(doc.get("nullable"), bool), f"{where}.nullable must be a boolean")
    constraints = None
    if "constraints" in doc:
        constraints = _constraints_from_doc(doc["constraints"], where)
    description = doc.get("description")
    if description is not None:
        _expect(isinstance(description, str), f"{where}.description must be text")
    return FieldSpec(name=doc["name"], logical_type=doc["logical_type"],
                     nullable=doc["nullable"], constraints=constraints,
                     description=description)


def _rule_from_doc(doc: dict, index: int) -> QualityRule:
    where = f"rules[{index}]"
    _expect(isinstance(doc, dict), f"{where} must be an object")
    _reject_unknown(doc, _RULE_KEYS, where)
    _expect(isinstance(doc.get("kind"), str), f"{where}.kind must be text")
    _expect(isinstance(doc.get("column"), str), f"{where}.column must be text")
    params = doc.get("params", {})
    _expect(isinstance(params, dict), f"{where}.params must be an object")
    severity = doc.get("severity", "error")
    _expect(isinstance(severity, str), f"{where}.severity must be text")
    return QualityRule(kind=doc["kind"], column=doc["column"],
                       params=dict(params), severity=severity)


def contract_from_doc(doc: dict) -> Contract:
    """Build and validate a Contract from a decoded JSON document (strict)."""
    _expect(isinstance(doc, dict), "contract document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "top-level")
    _expect(isinstance(doc.get("name"), str), "name must be text")
    _expect(isinstance(doc.get("fields"), list), "fields must be an array")
    version = doc.get("version", 1)
    status = doc.get("status", "draft")
    provenance = None
    if "provenance" in doc:
        pdoc = doc["provenance"]
        _expect(isinstance(pdoc, dict), "provenance must be an object")
        _reject_unknown(pdoc, _PROVENANCE_KEYS, "provenance")
        _expect(isinstance(pdoc.get("backend_id"), str), "provenance.backend_id must be text")
        _expect(isinstance(pdoc.get("generator_mode"), str),
                "provenance.generator_mode must be text")
        generated_at = pdoc.get("generated_at")
        if generated_at is not None:
            _expect(isinstance(generated_at, str), "provenance.generated_at must be text")
        provenance = Provenance(backend_id=pdoc["backend_id"],
                                generator_mode=pdoc["generator_mode"],
                                generated_at=generated_at)
    rules_doc = doc.get("rules", [])
    _expect(isinstance(rules_doc, list), "rules must be an array")
    contract = Contract(
        name=doc["name"],
        fields=[_field_from_doc(f, i) for i, f in enumerate(doc["fields"])],
        rules=[_rule_from_doc(r, i) for i, r in enumerate(rules_doc)],
        version=version,
        status=status,
        provenance=provenance,
    )
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


_JSON_SCHEMA_TYPES = {
    "boolean": "boolean",
    "integer": "integer",
    "number": "number",
    "string": "string",
    "date": "string",
    "timestamp": "string",
    "enum_string": "string",
}
_JSON_SCHEMA_FORMATS = {"date": "date", "timestamp": "date-time"}


def to_json_schema(contract: Contract) -> str:
    """Export as a draft-07-style JSON Schema document.

    Ranges (min/max) are deliberately not exported; they stay internal to
    row validation.
    """
    properties: dict = {}
    required: list[str] = []
    for f in contract.fields:
        base = _JSON_SCHEMA_TYPES[f.logical_type]
        prop: dict = {"type": [base, "null"] if f.nullable else base}
        if f.logical_type in _JSON_SCHEMA_FORMATS:
            prop["format"] = _JSON_SCHEMA_FORMATS[f.logical_type]
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
