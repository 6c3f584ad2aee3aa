"""
Generating draft contracts
==========================

Generation takes a profile, builds a prompt, asks a completion backend for
candidate texts, then repairs, parses and scores every candidate.  The best
one wins; if nothing parses or scores well enough, a safe all-string
fallback contract is returned instead of failing.

No model is needed to watch this work: the oracle backend answers from
deterministic inference, and the scripted backend replays canned texts
(this is also how tests and offline runs drive the pipeline).
"""

import json

from contractforge import (GenerationPolicy, OracleBackend, ScriptedBackend,
                           canonicalize, generate_contract, infer_contract,
                           ingest)

CSV = b"order_id,total,status\n" + b"".join(
    f"{i},{[9.5, 19.0, 23.75][i % 3]},{'active' if i % 2 else 'inactive'}\n"
    .encode() for i in range(1, 25))

profile = ingest(CSV, "delimited", dataset_name="orders")

# --- the oracle backend: deterministic inference behind the backend API
contract, report = generate_contract(profile, OracleBackend())
print("oracle-backed generation chose candidate", report.chosen)
print(canonicalize(contract))

# --- a messy completion: fenced, chatty, trailing comma.  The repair chain
# strips fences, trims to the outermost braces and drops trailing commas,
# recording each step it needed.
clean = canonicalize(infer_contract(profile))
messy = "Sure thing! Here is your contract:\n```json\n" + \
    clean.rstrip()[:-1].rstrip() + ",\n}\n```\nLet me know if it helps."
backend = ScriptedBackend({"0": [messy]})
contract, report = generate_contract(profile, backend)
print("repairs applied:", report.candidates[0].repairs_applied)
print("score:", report.candidates[0].score)

# --- candidate selection: garbage loses, an invented column costs score
hallucinated = json.loads(clean)
hallucinated["fields"].append(
    {"name": "discount_code", "logical_type": "string", "nullable": True})
backend = ScriptedBackend({"0": ["{ totally broken", clean,
                                 json.dumps(hallucinated)]})
contract, report = generate_contract(profile, backend,
                                     GenerationPolicy(candidate_count=3))
for index, candidate in enumerate(report.candidates):
    mark = "<- chosen" if index == report.chosen else ""
    print(f"candidate {index}: score={candidate.score} "
          f"error={candidate.error!r} {mark}")

# --- fallback: nothing parseable arrives, so the safe generic contract
# (every column a nullable string) is returned as a success, flagged as
# fallback in the report.
contract, report = generate_contract(profile, ScriptedBackend({}))
print("fallback taken:", report.fallback)
print("fallback types:", {f.name: f.logical_type for f in contract.fields})
