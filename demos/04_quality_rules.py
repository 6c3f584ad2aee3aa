"""
Quality rules beyond the schema
===============================

A contract carries machine-checkable expectations about values, not just
types: set membership, non-null, observed ranges, format checks and
uniqueness.  Rules are synthesized from what the profile shows and then
evaluated against data.  Observed ranges over-fit the sample by nature, so
range rules are warnings; set and null rules are errors.
"""

from contractforge import (evaluate_rules, infer_contract, profile_table,
                           read_table, synthesize_rules)

CSV = b"order_id,total,status,placed\n" + b"".join(
    f"{i},{[9.5, 19.0, 23.75, 42.0][i % 4]},"
    f"{'active' if i % 2 else 'inactive'},2026-02-{(i % 28) + 1:02d}\n"
    .encode() for i in range(1, 21))

_, table = read_table(CSV, "delimited")
profile = profile_table(table, "delimited", dataset_name="orders")
contract = infer_contract(profile)

rules = synthesize_rules(profile, contract.fields)
for rule in rules:
    print(f"  [{rule.severity:7s}] {rule.kind} on {rule.column!r} {rule.params}")

# The source data passes its own rules by construction; the rules read the
# column summaries the profiled table already keeps.
results = evaluate_rules(rules, table)
print("all pass on source data:", all(r.passed for r in results))

# Feed in data that breaks several of them.
BAD = [
    {"order_id": None, "total": "9.50", "status": "active", "placed": "2026-02-01"},
    {"order_id": "21", "total": "999.99", "status": "pending", "placed": "02/01/2026"},
    {"order_id": "21", "total": "9.50", "status": "active", "placed": "2026-02-02"},
]
for result in evaluate_rules(rules, BAD):
    if not result.passed:
        print(f"  FAILED {result.rule.kind} on {result.rule.column!r}: "
              f"{result.rows_failed} row(s)")
