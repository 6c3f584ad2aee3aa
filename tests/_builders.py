"""Seeded random builders shared by the property-style tests.

Everything here is driven by an explicit ``random.Random`` so failures are
reproducible.  Enum pools deliberately avoid lexemes that classify as
boolean, numeric or temporal, and avoid the probe words used by the
compatibility oracle, so set membership never aliases a type-level check.
``mutated`` and ``MUTATIONS`` damage a contract or any JSON document (drop a
key, duplicate a list item, swap in an ill-typed value) for the properties
that whatever is refused is refused cleanly.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import random

from hypothesis import strategies as st

from contractforge.model import (LOGICAL_TYPES, Constraints, Contract, FieldSpec,
                                 Provenance, QualityRule)

FIELD_NAMES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
ENUM_POOL = ["red", "green", "blue", "amber", "cyan", "opal"]


def random_constraints(rng: random.Random, logical_type: str) -> Constraints | None:
    if logical_type == "enum_string":
        values = rng.sample(ENUM_POOL, rng.randint(1, 3))
        return Constraints(allowed_values=sorted(values))
    if logical_type in ("integer", "number") and rng.random() < 0.6:
        if logical_type == "integer":
            lo: float | int = rng.randint(-5, 5)
            hi: float | int = lo + rng.randint(2, 6)
        else:
            lo = rng.randint(-10, 10) / 2.0
            hi = lo + rng.randint(4, 12) / 2.0
        roll = rng.random()
        if roll < 0.2:
            return Constraints(min_value=None, max_value=hi)
        if roll < 0.4:
            return Constraints(min_value=lo, max_value=None)
        return Constraints(min_value=lo, max_value=hi)
    if logical_type in ("date", "timestamp") and rng.random() < 0.3:
        return Constraints(format_hint="iso-8601")
    return None


def random_field(rng: random.Random, name: str) -> FieldSpec:
    logical_type = rng.choice(LOGICAL_TYPES)
    description = "synthetic column" if rng.random() < 0.2 else None
    return FieldSpec(name=name, logical_type=logical_type,
                     nullable=rng.random() < 0.5,
                     constraints=random_constraints(rng, logical_type),
                     description=description)


def _rules_for(rng: random.Random, fields: list[FieldSpec]) -> list[QualityRule]:
    rules: list[QualityRule] = []
    for spec in fields:
        if not spec.nullable and rng.random() < 0.5:
            rules.append(QualityRule("not_null", spec.name, {}, "error"))
        if spec.logical_type == "enum_string" and rng.random() < 0.5:
            rules.append(QualityRule(
                "values_in_set", spec.name,
                {"values": list(spec.constraints.allowed_values)}, "error"))
    return rules


def random_contract(rng: random.Random, name: str | None = None,
                    max_fields: int = 4, with_rules: bool = True) -> Contract:
    field_count = rng.randint(1, max_fields)
    names = rng.sample(FIELD_NAMES, field_count)
    fields = [random_field(rng, n) for n in names]
    provenance = None
    if rng.random() < 0.5:
        provenance = Provenance(
            backend_id=rng.choice(["oracle", "script", "http"]),
            generator_mode=rng.choice(["oracle", "backend", "fallback"]),
            generated_at="2026-01-15T12:00:00+00:00" if rng.random() < 0.5 else None)
    contract = Contract(
        name=name or rng.choice(["orders", "events", "catalog"]),
        fields=fields,
        rules=_rules_for(rng, fields) if with_rules else [],
        version=rng.randint(1, 5),
        status=rng.choice(["draft", "approved", "deprecated"]),
        provenance=provenance,
    )
    contract.validate()
    return contract


def mutate_contract(rng: random.Random, contract: Contract) -> Contract:
    """One structural mutation; may be a no-op when the roll does not apply."""
    mutated = copy.deepcopy(contract)
    move = rng.randrange(10)
    if move == 0:  # add a field
        unused = [n for n in FIELD_NAMES if n not in mutated.field_names()]
        if unused:
            mutated.fields.append(random_field(rng, rng.choice(unused)))
    elif move == 1 and len(mutated.fields) > 1:  # remove a field
        mutated.fields.pop(rng.randrange(len(mutated.fields)))
    elif move == 2:  # retype a field
        spec = rng.choice(mutated.fields)
        spec.logical_type = rng.choice(LOGICAL_TYPES)
        spec.constraints = random_constraints(rng, spec.logical_type)
    elif move == 3:  # flip nullability
        spec = rng.choice(mutated.fields)
        spec.nullable = not spec.nullable
    elif move == 4:  # regenerate constraints
        spec = rng.choice(mutated.fields)
        spec.constraints = random_constraints(rng, spec.logical_type)
        if spec.logical_type == "enum_string" and spec.constraints is None:
            spec.constraints = Constraints(allowed_values=["red"])
    elif move == 5 and len(mutated.fields) > 1:  # reorder fields
        rng.shuffle(mutated.fields)
    elif move == 6:  # rename the contract
        mutated.name = mutated.name + "_v2"
    elif move == 7:  # touch a description
        spec = rng.choice(mutated.fields)
        spec.description = None if spec.description else "edited"
    elif move == 8:  # add a rule
        spec = rng.choice(mutated.fields)
        mutated.rules.append(QualityRule("not_null", spec.name, {}, "warning"))
    elif move == 9 and mutated.rules:  # drop a rule
        mutated.rules.pop(rng.randrange(len(mutated.rules)))
    mutated.validate()
    return mutated


def compatibility_pair(rng: random.Random) -> tuple[Contract, Contract]:
    """A pair for compatibility testing: half fresh/fresh, half original vs
    a small mutation chain, which yields a healthy mix of verdicts."""
    field_count = rng.choice([1, 2, 2, 3, 3, 4])
    old = random_contract(rng, name="pairwise", max_fields=field_count,
                          with_rules=False)
    if rng.random() < 0.5:
        new = random_contract(rng, name="pairwise", max_fields=field_count,
                              with_rules=False)
    else:
        new = old
        for _ in range(rng.randint(1, 2)):
            new = mutate_contract(rng, new)
        new.rules = []
    return old, new


# -- mutations of a contract or any JSON document ------------------------------

HOSTILE = [None, True, 1.5, math.nan, math.inf, 10**40, "x", [], {}]


def _children(node) -> list:
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list):
        return list(range(len(node)))
    if dataclasses.is_dataclass(node):
        return [f.name for f in dataclasses.fields(node)]
    return []


def _child(node, key):
    return getattr(node, key) if dataclasses.is_dataclass(node) else node[key]


def _paths(node, path=()):
    yield path
    for key in _children(node):
        yield from _paths(_child(node, key), path + (key,))


def _child_at(root, path):
    for key in path:
        root = _child(root, key)
    return root


def mutated(root, mutations, keys=None):
    """A copy of ``root`` (a contract or its document) with each mutation
    applied: ``"drop"`` deletes a key or list item, or resets an attribute
    to its default (``None`` when it has none); ``"dup"`` repeats the first
    item of a list; any other move is a value swapped in.  With ``keys``,
    only what lies at or below one of those keys is mutated."""
    root = copy.deepcopy(root)
    for move, pick in mutations:
        nodes = [(path, _child_at(root, path)) for path in _paths(root)
                 if keys is None or any(key in keys for key in path)]
        if move == "dup":
            paths = [path for path, node in nodes if isinstance(node, list) and node]
        else:
            paths = [path for path, _ in nodes if path]
        if not paths:
            continue
        *head, key = paths[pick % len(paths)]
        parent = _child_at(root, head)
        if move == "dup":
            parent = _child(parent, key)
            parent.append(copy.deepcopy(parent[0]))
        elif move == "drop" and dataclasses.is_dataclass(parent):
            spec = next(f for f in dataclasses.fields(parent) if f.name == key)
            default = spec.default_factory() if spec.default_factory is not dataclasses.MISSING \
                else None if spec.default is dataclasses.MISSING else spec.default
            setattr(parent, key, default)
        elif move == "drop":
            del parent[key]
        elif dataclasses.is_dataclass(parent):
            setattr(parent, key, copy.deepcopy(move))
        else:
            parent[key] = copy.deepcopy(move)
    return root


MUTATIONS = st.lists(st.tuples(st.sampled_from(["drop", "dup"] + HOSTILE),
                               st.integers(0, 10**6)), min_size=1, max_size=2)
