"""
Enforcing a contract: row validation and drift detection
========================================================

Consumers check incoming data against the approved contract.  Two different
questions get two different tools:

* validate_rows answers "do these rows obey the contract?" row by row,
  reporting typed violations.
* detect_drift answers "has the data's *shape* diverged from the contract?"
  by comparing the contract against a fresh profile: added columns are
  non-breaking, removed or retyped columns are breaking.
"""

import json

from contractforge import (detect_drift, infer_contract, ingest, profile_table,
                           read_table, to_json_schema, validate_rows)

GOOD = b"""\
order_id,total,status
1,9.50,active
2,19.00,inactive
3,23.75,active
4,9.50,inactive
"""

# One read: the table is profiled and then validated, and both read the
# column summaries it keeps.
_, table = read_table(GOOD, "delimited")
contract = infer_contract(profile_table(table, "delimited", dataset_name="orders"))

report = validate_rows(contract, table)
print(f"conforming file: {report.rows_passed}/{report.rows_checked} rows pass")

# Now some rows that break it in every way at once: a null in a required
# column, a type mismatch, an out-of-set enum value, an unknown column.
BAD_ROWS = [
    {"order_id": None, "total": "9.50", "status": "active"},
    {"order_id": "5", "total": "not-a-price", "status": "active"},
    {"order_id": "6", "total": "9.50", "status": "deleted"},
    {"order_id": "7", "total": "9.50", "status": "active", "surprise": "x"},
]
report = validate_rows(contract, BAD_ROWS)
for violation in report.violations:
    print(f"  row {violation.row_index}: {violation.field_name} "
          f"{violation.kind} (observed {violation.observed!r})")

# Drift: the producer dropped `status` and started writing words into
# `order_id`.  Removals and retypes are breaking; additions are not.
DRIFTED = b"""\
order_id,total,note
A-1,9.50,gift
A-2,19.00,rush
"""
drift = detect_drift(contract, ingest(DRIFTED, "delimited",
                                      dataset_name="orders"))
print("drift:", json.dumps(drift.to_doc(), indent=2))

# For consumers that want a standard document instead, contracts export as
# draft-07-style JSON Schema (ranges stay internal).
print(to_json_schema(contract))
