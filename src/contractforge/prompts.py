"""Deterministic prompt construction for the completion backends.

Prompts carry the dataset name, a per-column table (name, sampled values,
null and distinct counts) and a skeleton of the contract document so that a
backend only has to fill slots.  Two-pass prompting first asks for the bare
column list, then feeds that list back into the contract request.
"""

from __future__ import annotations

import json

from .model import LOGICAL_TYPES
from .profiling import DataProfile
from .settings import SINGLE_PASS

TWO_PASS_STAGE1 = "two_pass_stage1"
TWO_PASS_STAGE2 = "two_pass_stage2"

#: Stage-1 prompts must begin with this exact directive.
STAGE1_PREFIX = "First, list all columns:"

_TEMPLATE = """{
  "name": %s,
  "version": 1,
  "status": "draft",
  "fields": [
    {
      "name": "<column name>",
      "logical_type": "<one of: %s>",
      "nullable": <true or false>
    }
  ],
  "rules": []
}"""


def _column_table(profile: DataProfile) -> str:
    lines = ["Columns (name | sample values | null count | distinct count):"]
    for column in profile.columns:
        values = ", ".join(column.sample_values) if column.sample_values else "(none)"
        lines.append(f"  {column.name} | {values} | {column.null_count} | {column.distinct_count}")
    return "\n".join(lines)


def build_prompt(profile: DataProfile, mode: str = SINGLE_PASS,
                 stage1_columns: list[str] | None = None) -> str:
    """Build the prompt for one generation request.  Deterministic: the same
    profile and mode always yield byte-identical text."""
    if mode == TWO_PASS_STAGE2 and stage1_columns is None:
        raise ValueError("two_pass_stage2 requires stage1_columns")
    header = f"Dataset: {profile.dataset_name}\nRows profiled: {profile.row_count}"
    table = _column_table(profile)
    if mode == TWO_PASS_STAGE1:
        return (
            f"{STAGE1_PREFIX} name every column of the dataset described below; "
            "return only a valid JSON array of column name strings and no prose.\n\n"
            f"{header}\n\n{table}\n"
        )
    if mode not in (SINGLE_PASS, TWO_PASS_STAGE2):
        raise ValueError(f"unknown prompt mode {mode!r}")
    parts = [
        "Draft a data contract for the dataset described below; "
        "return only valid JSON and no prose.",
        "",
        header,
        "",
        table,
    ]
    if mode == TWO_PASS_STAGE2:
        listed = ", ".join(json.dumps(c) for c in (stage1_columns or []))
        parts += ["", f"Include exactly these columns, in this order: [{listed}]"]
    parts += [
        "",
        "Respond with a document in exactly this shape:",
        _TEMPLATE % (json.dumps(profile.dataset_name), ", ".join(LOGICAL_TYPES)),
        "",
    ]
    return "\n".join(parts)
