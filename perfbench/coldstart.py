"""Cold start of one workload, timed by the benchmark as set-up.

Usage: ``coldstart.py <workload> <work dir>``.  A fresh interpreter imports
the engine and loads what the workload needs before its first operation:
the approved contract with its rules for enforce_batch, a configured HTTP
backend for author_corpus.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import contractforge as cf  # noqa: E402

workload, work = sys.argv[1], Path(sys.argv[2])
if workload == "enforce_batch":
    contract = cf.parse_contract((work / "contract.json").read_text(encoding="utf-8"))
    if not contract.rules:
        sys.exit("approved contract carries no rules")
elif workload == "author_corpus":
    cf.HttpBackend("http://127.0.0.1:1/complete", retries=2, backoff=0.02)
    cf.GenerationPolicy(mode=cf.TWO_PASS, candidate_count=4)
else:
    sys.exit(f"no cold start for {workload}")
