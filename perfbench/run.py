"""contractforge benchmark: runs one seeded workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enforce_batch --seed 1 --seconds 10 --trace 0

Workloads, metric names, units and bounds are listed in ``BENCHMARK.json``;
``perfbench/README.md`` says what each measures.  The inputs are generated
from ``--seed`` into ``.perfbench_work/`` (removed afterwards), then a fresh
worker process runs the workload.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

Exits non-zero without a result when the engine's source is missing or the
workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170   # every run ends well within three minutes


def run_child(argv: list[str], deadline: float) -> str:
    """Run one child to completion in its own session; kill it at the deadline."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{Path(argv[1]).name} did not finish in time") from None
    if child.returncode != 0:
        raise RuntimeError(f"{Path(argv[1]).name} exited with status {child.returncode}")
    return out


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "contractforge" / "__init__.py").is_file():
        print("engine source src/contractforge is missing", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        deadline = started + DEADLINE_S
        # Inputs are made in their own process: a worker forked from a
        # process that had built them would inherit its peak RSS.
        run_child([sys.executable, str(HERE / "gen.py"), args.workload, str(args.seed),
                   str(work)], deadline)
        out = run_child([sys.executable, str(HERE / "worker.py"), args.workload, str(work),
                         str(args.seed), str(args.seconds), str(args.trace)], deadline)
        result = json.loads(out.strip().splitlines()[-1])
    except Exception as exc:  # report and exit without a result line
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(result["metrics"]) - names)
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    if not args.trace and names - set(result["metrics"]):
        print(f"end-to-end metrics not measured: {sorted(names - set(result['metrics']))}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}; "
          f"python {platform.python_version()}; nproc {os.cpu_count()}")
    for failure in result["failures"]:
        print(f"failed: {failure}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
