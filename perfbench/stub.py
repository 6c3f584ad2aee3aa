"""Loopback completion service for the author_corpus workload.

Usage: ``stub.py <author plan json>``.  Prints its URL on one line once it
listens, then serves the completion wire format to ``HttpBackend``: each
table's prompt gets that table's candidate set, and a stage-1 prompt gets
the table's column list.  Tables marked ``fail_first`` get a 503 on every
other contract request, so each of their operations costs exactly one
retry.  Reading ``stats`` on stdin prints the request and 503 counts as one
JSON line; end of input stops the service.  It runs in its own process so
that its request handling stays out of the measured process.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

STAGE1_PREFIX = "First, list all columns:"
_DATASET_RE = re.compile(r"^Dataset: (.*)$", re.MULTILINE)


class CompletionStub:
    def __init__(self, plan: list[dict]):
        self.answers = {}
        self.stage1 = {}
        self.flaky = {t["name"] for t in plan if t["fail_first"]}
        for table in plan:
            columns = [f["name"] for f in table["truth"]["fields"]]
            self.stage1[table["name"]] = json.dumps(
                {"completions": [json.dumps(columns)]}).encode()
            self.answers[table["name"]] = json.dumps(
                {"completions": table["candidates"]}).encode()
        self.seen: Counter = Counter()
        self.requests = 0
        self.retries = 0
        self.lock = threading.Lock()
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler())

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}/complete"

    def _handler(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                prompt = body["prompt"]
                match = _DATASET_RE.search(prompt)
                name = match.group(1) if match else ""
                status, payload = 200, stub.answers.get(name, b'{"completions": []}')
                with stub.lock:
                    stub.requests += 1
                    if prompt.startswith(STAGE1_PREFIX):
                        payload = stub.stage1.get(name, payload)
                    elif name in stub.flaky:
                        stub.seen[name] += 1
                        if stub.seen[name] % 2 == 1:
                            stub.retries += 1
                            status, payload = 503, b'{"error": "busy"}'
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        return Handler


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        stub = CompletionStub(json.load(handle))
    thread = threading.Thread(target=stub.httpd.serve_forever, daemon=True)
    thread.start()
    print(stub.url, flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stats":
                with stub.lock:
                    counts = {"requests": stub.requests, "retries": stub.retries}
                print(json.dumps(counts), flush=True)
    finally:
        stub.httpd.shutdown()
        stub.httpd.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
