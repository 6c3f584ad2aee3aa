"""Registry HTTP API exercised through the wire client."""

import copy
import http.client
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import urlsplit

import pytest

from contractforge import service as service_module
from contractforge.cli import main
from contractforge.errors import (NotFoundError, RegistryError, RegistryRejection,
                                  RegistryTransportError)
from contractforge.model import Contract, FieldSpec, canonicalize
from contractforge.registry import RegistryStore
from contractforge.service import MAX_BODY_BYTES, RegistryClient, RegistryServer


def _status(address, method, path, doc=None, data=None):
    """Send one raw request and return the status it is answered with."""
    if doc is not None:
        data = json.dumps(doc).encode("utf-8")
    url = urlsplit(address)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        connection.request(method, path, body=data)
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


def _raw_status(address, head: bytes, body: bytes = b"") -> int | None:
    """Write ``head`` and ``body`` to a fresh socket; return the status of
    the reply, or None when the server hangs up without one."""
    url = urlsplit(address)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(head + b"\r\n\r\n" + body)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split()[1]) if reply else None


@pytest.fixture
def service(tmp_path):
    store = RegistryStore(tmp_path / "registry")
    server = RegistryServer(store).start()
    yield RegistryClient(server.address), store, server.address
    server.stop()


@pytest.fixture
def orders():
    contract = Contract("orders", [FieldSpec("id", "integer", False),
                                   FieldSpec("note", "string", True)])
    contract.validate()
    return contract


class TestHappyPath:
    def test_publish_get_approve_cycle(self, service, orders):
        client, _, _ = service
        assert client.publish("orders", orders) == 1

        with pytest.raises(NotFoundError):
            client.get_latest("orders")  # nothing approved yet

        record = client.approve("orders", 1, reviewer="alice")
        assert record["status"] == "approved"
        assert record["reviewer"] == "alice"

        latest = client.get_latest("orders")
        assert latest.version == 1
        assert latest.status == "approved"
        assert latest.field_names() == ["id", "note"]

    def test_get_specific_version(self, service, orders):
        client, _, _ = service
        client.publish("orders", orders)
        client.publish("orders", orders)
        contract = client.get_version("orders", 2)
        assert contract.version == 2
        assert contract.status == "draft"

    def test_version_listing(self, service, orders):
        client, _, _ = service
        client.publish("orders", orders)
        client.approve("orders", 1, "alice")
        listing = client.list_versions("orders")
        assert listing["name"] == "orders"
        assert listing["compatibility_mode"] == "backward"
        assert [v["status"] for v in listing["versions"]] == ["approved"]

    def test_feedback_round_trip(self, service, orders):
        client, _, _ = service
        client.publish("orders", orders)
        client.feedback("orders", 1, author="bob", note="add a range on id")
        listing = client.list_versions("orders")
        notes = listing["versions"][0]["feedback"]
        assert [n["note"] for n in notes] == ["add a range on id"]

    def test_compat_endpoint_without_publishing(self, service, orders):
        client, _, _ = service
        client.publish("orders", orders)
        client.approve("orders", 1, "alice")
        narrowed = copy.deepcopy(orders)
        narrowed.fields[0].logical_type = "boolean"
        verdict = client.check_compat("orders", narrowed)
        assert not verdict.compatible
        assert verdict.reasons
        assert len(client.list_versions("orders")["versions"]) == 1


class TestErrors:
    def test_incompatible_publish_is_409(self, service, orders):
        client, _, _ = service
        client.publish("orders", orders)
        client.approve("orders", 1, "alice")
        narrowed = copy.deepcopy(orders)
        narrowed.fields[0].logical_type = "boolean"
        with pytest.raises(RegistryRejection) as err:
            client.publish("orders", narrowed)
        assert any("id" in r for r in err.value.reasons)

    def test_unknown_name_is_404(self, service):
        client, _, _ = service
        with pytest.raises(NotFoundError):
            client.get_version("ghost", 1)
        with pytest.raises(NotFoundError):
            client.list_versions("ghost")

    def test_invalid_document_is_400(self, service, orders):
        _, _, address = service
        assert _status(address, "PUT", "/contracts/orders", {"name": "orders"}) == 400
        assert _status(address, "PUT", "/contracts/orders", data=b"not json") == 400
        nan_min = orders.to_doc()
        nan_min["fields"][0]["constraints"] = {"min": float("nan")}
        assert _status(address, "PUT", "/contracts/orders", nan_min) == 400

    def test_approve_conflicts_are_409(self, service, orders):
        client, _, address = service
        client.publish("orders", orders)
        client.approve("orders", 1, "alice")
        assert _status(address, "POST", "/contracts/orders/versions/1/approve",
                       {"reviewer": "bob"}) == 409

    def test_unknown_route_is_404(self, service):
        _, _, address = service
        assert _status(address, "GET", "/somewhere/else") == 404

    def test_over_long_version_is_404(self, service, orders):
        client, _, address = service
        client.publish("orders", orders)
        nines = "9" * 5000
        assert _status(address, "GET", f"/contracts/orders/versions/{nines}") == 404
        assert _status(address, "POST", f"/contracts/orders/versions/{nines}/approve",
                       {"reviewer": "alice"}) == 404
        assert _status(address, "POST", f"/contracts/orders/versions/{nines}/feedback",
                       {"author": "a", "note": "n"}) == 404

    def test_latest_of_unknown_name_is_404(self, service):
        client, _, _ = service
        with pytest.raises(NotFoundError):
            client.get_latest("ghost")

    def test_approve_without_reviewer_is_400(self, service, orders):
        client, _, address = service
        client.publish("orders", orders)
        assert _status(address, "POST", "/contracts/orders/versions/1/approve", {}) == 400

    def test_feedback_without_note_is_400(self, service, orders):
        client, _, address = service
        client.publish("orders", orders)
        assert _status(address, "POST", "/contracts/orders/versions/1/feedback",
                       {"author": "bob"}) == 400

    def test_non_object_bodies_are_400(self, service, orders):
        client, _, address = service
        client.publish("orders", orders)
        for route in ("approve", "feedback"):
            assert _status(address, "POST", f"/contracts/orders/versions/1/{route}",
                           [1]) == 400

    def test_put_on_unknown_route_is_404(self, service, orders):
        _, _, address = service
        assert _status(address, "PUT", "/contracts/orders/versions/1",
                       orders.to_doc()) == 404

    def test_unreachable_registry_raises_transport_error(self):
        for base_url in ("http://127.0.0.1:1", "127.0.0.1:1"):
            client = RegistryClient(base_url, timeout=0.2)
            with pytest.raises(RegistryTransportError):
                client.list_versions("orders")

    def test_registry_errors_answer_400_on_reads_and_publishes(self, service, orders,
                                                               tmp_path):
        client, _, address = service
        assert _status(address, "PUT", "/contracts/.hidden", orders.to_doc()) == 400
        client.publish("orders", orders)
        (tmp_path / "registry" / "orders" / "v1.json").unlink()
        assert _status(address, "GET", "/contracts/orders/versions/1") == 400

    def test_names_are_percent_encoded(self, service):
        client, _, _ = service
        with pytest.raises(NotFoundError, match="no%20such"):
            client.get_latest("no such")

    def test_unknown_verb_is_501(self, service):
        _, _, address = service
        assert _status(address, "DELETE", "/contracts/orders") == 501

    @pytest.mark.parametrize("method, path", [("PUT", "/contracts/orders"),
                                              ("POST", "/contracts/orders/compat")])
    def test_nesting_too_deep_is_400(self, service, method, path):
        _, _, address = service
        assert _status(address, method, path, data=b"[" * 100_000 + b"]" * 100_000) == 400

    def test_corrupt_meta_is_400_and_the_server_lives_on(self, service, orders, tmp_path):
        client, _, address = service
        client.publish("orders", orders)
        (tmp_path / "registry" / "orders" / "meta.json").write_text("[" * 100_000)
        assert _status(address, "GET", "/contracts/orders/versions") == 400
        assert _status(address, "PUT", "/contracts/orders", orders.to_doc()) == 400
        assert _status(address, "GET", "/contracts/ghost") == 404


class TestContentLength:
    @pytest.mark.parametrize("value", [b"ten", b"1.5", b"-1", b"-5", b"+3", b"9" * 5000],
                             ids=["ten", "1.5", "-1", "-5", "+3", "5000-digits"])
    def test_malformed_length_is_400(self, service, value):
        _, _, address = service
        head = b"PUT /contracts/orders HTTP/1.1\r\nHost: x\r\nContent-Length: " + value
        assert _raw_status(address, head, b"{}") == 400

    def test_body_over_the_cap_is_413(self, service):
        _, _, address = service
        head = (b"POST /contracts/orders/compat HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode())
        assert _raw_status(address, head) == 413


class TestSlowAndVanishingClients:
    HEAD = b"PUT /contracts/orders HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n"

    def test_short_body_is_dropped_after_the_read_timeout(self, tmp_path, monkeypatch,
                                                          capfd):
        monkeypatch.setattr(service_module, "READ_TIMEOUT_S", 0.3)
        server = RegistryServer(RegistryStore(tmp_path / "registry")).start()
        try:
            url = urlsplit(server.address)
            with socket.create_connection((url.hostname, url.port), timeout=5) as slow:
                slow.sendall(self.HEAD + b'{"')
                # Other clients are answered while the slow one is held.
                assert _status(server.address, "GET", "/contracts/orders") == 404
                started = time.monotonic()
                assert slow.recv(4096) == b""  # closed, no reply
                assert time.monotonic() - started < 3
            assert _status(server.address, "GET", "/contracts/orders") == 404
        finally:
            server.stop()
        assert "Traceback" not in capfd.readouterr().err

    def test_client_gone_before_the_reply_leaves_no_traceback(self, service, capfd):
        _, _, address = service
        url = urlsplit(address)
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(self.HEAD + b'{"')
        time.sleep(0.3)  # the handler answers 400 into the closed socket
        assert _status(address, "GET", "/contracts/orders") == 404
        err = capfd.readouterr().err
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_integer_past_the_digit_limit_is_400(self, service):
        _, _, address = service
        body = b'{"reviewer": ' + b"9" * 5000 + b"}"
        assert _status(address, "POST", "/contracts/orders/versions/1/approve",
                       data=body) == 400


class TestPathSafety:
    @pytest.mark.parametrize("method, path, status", [
        ("GET", "/contracts/..", 404),
        ("GET", "/contracts/../versions", 404),
        ("GET", "/contracts/../versions/1", 404),
        ("POST", "/contracts/../versions/1/approve", 404),
        ("PUT", "/contracts/..", 400),
        ("GET", "/contracts/.", 404),
        ("GET", "/contracts/./versions", 404),
        ("PUT", "/contracts/.", 400),
    ])
    def test_dot_names_reach_nothing_outside_an_entry(self, service, orders, tmp_path,
                                                       method, path, status):
        _, _, address = service
        # The parent of the root looks like an approved entry, where ".." leads.
        (tmp_path / "v1.json").write_text(canonicalize(orders))
        (tmp_path / "meta.json").write_text(json.dumps({"versions": [
            {"version": 1, "status": "approved", "published_at": "2026-01-01T00:00:00+00:00",
             "reviewer": "alice", "feedback": []}]}))
        before = sorted(str(p) for p in tmp_path.rglob("*"))
        body = {"reviewer": "bob"} if method == "POST" else orders.to_doc()
        assert _status(address, method, path, None if method == "GET" else body) == status
        assert sorted(str(p) for p in tmp_path.rglob("*")) == before
        assert json.loads((tmp_path / "meta.json").read_text())["versions"][0]["reviewer"] \
            == "alice"


class _CannedHandler(BaseHTTPRequestHandler):
    """Answers every request with the class-level ``status`` and ``body``."""

    status, body = 200, b"{}"

    def _answer(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.send_response(self.status)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    do_GET = do_PUT = do_POST = _answer

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def canned():
    server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestIllTypedReplies:
    @pytest.mark.parametrize("status, body, call", [
        (201, b"{}", lambda c, k: c.publish("orders", k)),
        (201, b'{"version": "1"}', lambda c, k: c.publish("orders", k)),
        (201, b"[1, 2]", lambda c, k: c.publish("orders", k)),
        (200, b"{}", lambda c, k: c.publish("orders", k)),
        (200, b'{"version": 3}', lambda c, k: c.publish("orders", k)),
        (201, b"{}", lambda c, k: c.list_versions("orders")),
        (200, b"", lambda c, k: c.feedback("orders", 1, "a", "n")),
        (302, b"{}", lambda c, k: c.get_latest("orders")),
        (200, b"[1, 2]", lambda c, k: c.list_versions("orders")),
        (200, b"[1, 2]", lambda c, k: c.approve("orders", 1, "alice")),
        (200, b"not json", lambda c, k: c.get_latest("orders")),
        (200, b'{"compatible": false, "reasons": 5}', lambda c, k: c.check_compat("orders", k)),
        (409, b'{"reasons": "abc"}', lambda c, k: c.publish("orders", k)),
        (200, b"[" * 100_000, lambda c, k: c.get_latest("orders")),
        (200, b"9" * 5000, lambda c, k: c.list_versions("orders")),
    ], ids=["publish-no-version", "publish-text-version", "publish-array", "publish-200",
            "publish-200-with-version", "list-201", "feedback-200", "get-302",
            "list-array", "approve-array", "get-not-json", "compat-reasons-int",
            "reject-reasons-text", "get-too-deep", "list-long-integer"])
    def test_client_raises_registry_error(self, canned, orders, monkeypatch,
                                          status, body, call):
        monkeypatch.setattr(_CannedHandler, "status", status)
        monkeypatch.setattr(_CannedHandler, "body", body)
        with pytest.raises(RegistryError, match="registry answered"):
            call(RegistryClient(f"http://{canned}"), orders)

    @pytest.mark.parametrize("status, error, message", [
        (502, RegistryError, "registry answered 502: <html>Bad Gateway</html>"),
        (404, NotFoundError, "<html>Bad Gateway</html>"),
    ], ids=["502", "404"])
    def test_an_error_page_that_is_not_json_is_the_message(self, canned, monkeypatch,
                                                           status, error, message):
        monkeypatch.setattr(_CannedHandler, "status", status)
        monkeypatch.setattr(_CannedHandler, "body", b"<html>Bad Gateway</html>")
        with pytest.raises(error) as info:
            RegistryClient(f"http://{canned}").get_latest("orders")
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize("status, body, argv", [
        (201, b'{"ok": true}', ["publish", "orders", "CONTRACT"]),
        (200, b"[1, 2]", ["approve", "orders", "1", "--reviewer", "alice"]),
    ], ids=["publish-no-version", "approve-array"])
    def test_cli_exits_2_with_an_error_line(self, canned, orders, tmp_path, capsys,
                                            monkeypatch, status, body, argv):
        monkeypatch.setattr(_CannedHandler, "status", status)
        monkeypatch.setattr(_CannedHandler, "body", body)
        path = tmp_path / "orders.json"
        path.write_text(json.dumps(orders.to_doc()), encoding="utf-8")
        argv = [str(path) if a == "CONTRACT" else a for a in argv]
        assert main(["registry", *argv, "--addr", canned]) == 2
        assert capsys.readouterr().err.startswith("error: registry answered")


class TestServerStoreParity:
    def test_wire_responses_match_store_state(self, service, orders):
        client, store, _ = service
        client.publish("orders", orders)
        client.approve("orders", 1, "alice")
        via_wire = client.get_latest("orders")
        version, via_store = store.latest_approved("orders")
        assert version == 1
        assert via_wire == via_store
