"""
Evaluating a backend on a corpus
================================

The evaluation harness replays the usual protocol at desk scale: a corpus
directory holds <name>.profile.json / <name>.truth.json pairs, and every
backend is scored on structural accuracy (fraction of truth fields
reproduced with the right name and type) and syntax validity, with the
fallback rate reported separately.

Here the oracle backend (which should reconstruct its own truths exactly)
is compared against a backend that never answers, so every table takes the
safe all-string fallback.
"""

import tempfile
from pathlib import Path

from contractforge import (OracleBackend, ScriptedBackend, canonicalize,
                           dump_profile, infer_contract, ingest, run_eval)
from contractforge.evalharness import format_metrics_table

TABLES = {
    "orders": b"order_id,total\n1,9.50\n2,19.00\n3,23.75\n",
    "people": b"name,joined\nada,2021-01-11\nalan,2021-03-05\n",
    "flags": b"key,enabled\nbeta,true\ndark_mode,false\n",
}

# The corpus directory is removed at the end, or at exit if the demo fails.
workdir = tempfile.TemporaryDirectory(prefix="eval-corpus-")
corpus = Path(workdir.name)
for name, raw in TABLES.items():
    profile = ingest(raw, "delimited", dataset_name=name)
    (corpus / f"{name}.profile.json").write_text(dump_profile(profile))
    (corpus / f"{name}.truth.json").write_text(
        canonicalize(infer_contract(profile)))

print("== oracle backend ==")
metrics = run_eval(corpus, OracleBackend())
print(format_metrics_table(metrics))

print()
print("== a backend that never answers ==")
metrics = run_eval(corpus, ScriptedBackend({}))
print(format_metrics_table(metrics))
print()
print("fallback contracts type everything as string, so they only score on")
print("truths whose fields really are strings -- the distinction the")
print("separate fallback rate keeps visible.")

workdir.cleanup()
