"""Runs one contractforge CLI command with the engine's layers spanned.

Usage: ``tracedcli.py <stats file> <contractforge arguments...>``.  Installs
the tracer, runs the command through ``contractforge.cli.main`` and, when it
returns (for ``registry serve``: on SIGINT), writes the aggregated spans to
the stats file as JSON.  Exits with the command's exit code.  Used only by
traced runs; untraced runs start the CLI itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import contractforge.cli as cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return cli.main(sys.argv[2:])
    finally:
        Path(sys.argv[1]).write_text(json.dumps(tracer.take()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
