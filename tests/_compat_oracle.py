"""Brute-force row-subsumption oracle for compatibility checking.

Independent of ``check_compatibility``: enumerates whole rows over a small
per-field value domain (one conforming lexeme per lexical class, null,
absence, both contracts' enum values, and probes around every numeric
bound) and tests old-valid implies new-valid with the row validator.
"""

from __future__ import annotations

import math
from itertools import product

from contractforge.model import Contract, FieldSpec
from contractforge.validation import failing_rows

ABSENT = object()

BASE_PROBES = ["true", "7", "7.5", "2021-03-04", "2021-03-04T05:06:07Z", "txt"]


def _bound_probes(bound: float | int, want_decimals: bool) -> list[str]:
    probes = []
    as_float = float(bound)
    if as_float.is_integer():
        probes += [str(int(as_float)), str(int(as_float) - 1), str(int(as_float) + 1)]
    else:
        # The integers either side: an ``integer`` range holds only those.
        probes += [repr(as_float), str(math.floor(as_float)), str(math.ceil(as_float))]
    if want_decimals:
        probes += [repr(as_float - 0.5), repr(as_float + 0.5)]
    return probes


def _field_domain(specs: list[FieldSpec]) -> list:
    values: set[str] = set(BASE_PROBES)
    want_decimals = any(s.logical_type == "number" for s in specs)
    for spec in specs:
        c = spec.constraints
        if c is None:
            continue
        if c.allowed_values:
            values.update(c.allowed_values)
        for bound in (c.min_value, c.max_value):
            if bound is not None:
                values.update(_bound_probes(bound, want_decimals))
    return [ABSENT, None] + sorted(values)


def _pass_vector(contract: Contract, rows: list[dict]) -> list[bool]:
    failed = failing_rows(contract, rows)
    return [i not in failed for i in range(len(rows))]


def rows_subsume(old: Contract, new: Contract,
                 chunk_size: int = 20000) -> bool:
    """True iff every enumerated row valid under ``old`` is valid under
    ``new``."""
    names: list[str] = []
    for contract in (old, new):
        for spec in contract.fields:
            name = spec.name.strip()
            if name not in names:
                names.append(name)
    specs_by_name = {
        name: [s for c in (old, new) for s in c.fields if s.name.strip() == name]
        for name in names
    }
    domains = [_field_domain(specs_by_name[name]) for name in names]

    chunk: list[dict] = []
    for combo in product(*domains):
        chunk.append({n: v for n, v in zip(names, combo) if v is not ABSENT})
        if len(chunk) >= chunk_size:
            if not _chunk_subsumes(old, new, chunk):
                return False
            chunk = []
    if chunk and not _chunk_subsumes(old, new, chunk):
        return False
    return True


def _chunk_subsumes(old: Contract, new: Contract, rows: list[dict]) -> bool:
    old_pass = _pass_vector(old, rows)
    candidates = [row for row, ok in zip(rows, old_pass) if ok]
    if not candidates:
        return True
    new_pass = _pass_vector(new, candidates)
    return all(new_pass)
