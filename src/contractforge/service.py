"""HTTP surface for the registry store, plus the matching client.

Endpoints (JSON bodies, canonical contract documents):

    PUT  /contracts/{name}                          publish -> 201 {"version": N}
    GET  /contracts/{name}                          latest approved (404 if none)
    GET  /contracts/{name}/versions                 version list with statuses
    GET  /contracts/{name}/versions/{v}             one version
    POST /contracts/{name}/versions/{v}/approve     {"reviewer": ...} -> 200
    POST /contracts/{name}/versions/{v}/feedback    {"author","note"} -> 204
    POST /contracts/{name}/compat                   candidate contract -> verdict

Incompatible publishes answer 409 with the verdict reasons; malformed or
invariant-violating documents answer 400.  A request body whose
``Content-Length`` is not a non-negative integer, or that is not JSON,
answers 400; one longer than ``MAX_BODY_BYTES`` answers 413.  A connection
that sends nothing for ``READ_TIMEOUT_S`` seconds, mid-body included, is
closed without a reply.
"""

from __future__ import annotations

import re
import threading
from typing import TYPE_CHECKING

from .errors import (ContractForgeError, NotFoundError, RegistryError,
                     RegistryRejection, RegistryTransportError, dump_json,
                     parse_json)
from .model import CompatibilityVerdict, Contract, contract_from_doc
from .transport import send

if TYPE_CHECKING:  # the server side's imports wait for a server: clients skip them
    from .registry import RegistryStore

MAX_BODY_BYTES = 16 * 1024 * 1024
READ_TIMEOUT_S = 30.0


class _PayloadTooLarge(ContractForgeError):
    """A request body longer than ``MAX_BODY_BYTES``."""


# -- route handlers: (store, decoded body, *path groups) -> (status, reply) --

def _get_latest(store: RegistryStore, _body, name: str):
    latest = store.latest_approved(name)
    if latest is None:
        raise NotFoundError(f"no approved version of {name!r}")
    return 200, latest[1].to_doc()


def _list_versions(store: RegistryStore, _body, name: str):
    return 200, {
        "name": name,
        "compatibility_mode": store.compatibility_mode(name),
        "versions": [r.to_doc() for r in store.list_versions(name)],
    }


def _approve(store: RegistryStore, body, name: str, version: str):
    body = body if isinstance(body, dict) else {}
    reviewer = body.get("reviewer")
    if not isinstance(reviewer, str) or not reviewer:
        raise ContractForgeError('body must carry a "reviewer"')
    return 200, store.approve(name, int(version), reviewer).to_doc()


def _feedback(store: RegistryStore, body, name: str, version: str):
    body = body if isinstance(body, dict) else {}
    author, note = body.get("author"), body.get("note")
    if not isinstance(author, str) or not isinstance(note, str):
        raise ContractForgeError('body must carry "author" and "note"')
    store.record_feedback(name, int(version), author, note)
    return 204, None


_ROUTES = [(method, re.compile(pattern + r"\Z"), handler) for method, pattern, handler in [
    ("GET", r"/contracts/([^/]+)", _get_latest),
    ("PUT", r"/contracts/([^/]+)",
     lambda store, body, name: (201, {"version": store.publish(name, contract_from_doc(body))})),
    ("GET", r"/contracts/([^/]+)/versions", _list_versions),
    ("GET", r"/contracts/([^/]+)/versions/([0-9]{1,18})",
     lambda store, _body, name, version: (200, store.get_version(name, int(version)).to_doc())),
    ("POST", r"/contracts/([^/]+)/versions/([0-9]{1,18})/approve", _approve),
    ("POST", r"/contracts/([^/]+)/versions/([0-9]{1,18})/feedback", _feedback),
    ("POST", r"/contracts/([^/]+)/compat", lambda store, body, name: (
        200, store.check_candidate(name, contract_from_doc(body)).to_doc())),
]]


def _make_handler(store: RegistryStore):
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = READ_TIMEOUT_S

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def handle(self):
            try:
                super().handle()
            except ConnectionError:  # the client hung up: nobody to answer
                pass

        def _reply(self, status: int, doc: dict | None) -> None:
            body = b"" if doc is None else dump_json(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            if body:
                self.wfile.write(body)

        def _read_json(self):
            text = (self.headers.get("Content-Length") or "0").strip()
            # Plain digits only: no sign, no "_", short enough for int().  A body
            # left unread would be parsed as the next request: close instead.
            if not (text.isascii() and text.isdigit()) or len(text) > 18:
                self.close_connection = True
                raise ContractForgeError(f"invalid Content-Length {text[:40]!r}")
            length = int(text)
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                raise _PayloadTooLarge(
                    f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
            raw = self.rfile.read(length) if length else b""
            return parse_json(raw or b"null", context="request body is not valid JSON")

        def _dispatch(self):
            try:
                for method, pattern, handler in _ROUTES:
                    match = pattern.match(self.path)
                    if match and method == self.command:
                        break
                else:
                    raise NotFoundError(f"no such route: {self.path}")
                body = None if self.command == "GET" else self._read_json()
                self._reply(*handler(store, body, *match.groups()))
            except _PayloadTooLarge as exc:
                self._reply(413, {"error": str(exc)})
            except RegistryRejection as exc:
                self._reply(409, {"compatible": False, "reasons": exc.reasons})
            except NotFoundError as exc:
                self._reply(404, {"error": str(exc)})
            except RegistryError as exc:
                # A refused state change (approve twice, ...) is a conflict;
                # on reads and publishes the request itself was bad.
                self._reply(409 if self.command == "POST" else 400, {"error": str(exc)})
            except ContractForgeError as exc:
                self._reply(400, {"error": str(exc)})

        do_GET = do_PUT = do_POST = _dispatch

    return Handler


class RegistryServer:
    """Threading HTTP server wrapper; ``port=0`` binds an ephemeral port."""

    def __init__(self, store: RegistryStore, host: str = "127.0.0.1", port: int = 0):
        from http.server import ThreadingHTTPServer
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(store))
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "RegistryServer":
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05),
            daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


class RegistryClient:
    """Client speaking the registry wire format through :func:`transport.send`."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self._base = base_url.rstrip("/")
        self._timeout = timeout

    def _call(self, method: str, path: str, body: dict | None = None,
              ok: int = 200) -> dict:
        """Send one request; return the JSON object of an ``ok`` reply or
        raise the error class its status maps to."""
        try:
            status, raw = send(method, self._base + path, body, timeout=self._timeout)
        except OSError as exc:
            raise RegistryTransportError(f"registry unreachable: {exc}") from exc
        try:
            doc = parse_json(raw or b"{}")
        except ContractForgeError:
            doc = None
        if status != ok and not isinstance(doc, dict):
            doc = {}  # an error page: its text becomes the message
        if status == ok or status == 409 and method == "PUT":
            reasons = doc.get("reasons", []) if isinstance(doc, dict) else None
            if (not isinstance(reasons, list) or not all(isinstance(r, str) for r in reasons)
                    or status == ok == 201 and type(doc.get("version")) is not int):
                raise RegistryError(f"registry answered {status} with an ill-typed body: "
                                    f"{raw[:80]!r}")
            if status == ok:
                return doc
            raise RegistryRejection(reasons)
        message = doc.get("error", raw.decode("utf-8", "replace")[:200])
        if status == 404:
            raise NotFoundError(message)
        raise RegistryError(f"registry answered {status}: {message}")

    def publish(self, name: str, contract: Contract) -> int:
        return self._call("PUT", f"/contracts/{name}", contract.to_doc(), ok=201)["version"]

    def get_latest(self, name: str) -> Contract:
        return contract_from_doc(self._call("GET", f"/contracts/{name}"))

    def get_version(self, name: str, version: int) -> Contract:
        return contract_from_doc(self._call("GET", f"/contracts/{name}/versions/{version}"))

    def list_versions(self, name: str) -> dict:
        return self._call("GET", f"/contracts/{name}/versions")

    def approve(self, name: str, version: int, reviewer: str) -> dict:
        return self._call("POST", f"/contracts/{name}/versions/{version}/approve",
                          {"reviewer": reviewer})

    def feedback(self, name: str, version: int, author: str, note: str) -> None:
        self._call("POST", f"/contracts/{name}/versions/{version}/feedback",
                   {"author": author, "note": note}, ok=204)

    def check_compat(self, name: str, contract: Contract) -> CompatibilityVerdict:
        doc = self._call("POST", f"/contracts/{name}/compat", contract.to_doc())
        return CompatibilityVerdict(compatible=bool(doc.get("compatible")),
                                    reasons=doc.get("reasons", []))
