"""Registry store: versioning, approval workflow, persistence, concurrency."""

import copy
import os
import signal
import threading
import time

import pytest

from contractforge.errors import (InvariantViolation, NotFoundError, RegistryError,
                                  RegistryRejection)
from contractforge.inference import infer_contract
from contractforge.model import Constraints, Contract, FieldSpec, canonicalize
from contractforge.registry import RegistryStore


def contract_of(*fields: FieldSpec, name="orders") -> Contract:
    contract = Contract(name, list(fields))
    contract.validate()
    return contract


@pytest.fixture
def store(tmp_path):
    return RegistryStore(tmp_path / "registry")


@pytest.fixture
def orders_v1():
    return contract_of(FieldSpec("id", "integer", False),
                       FieldSpec("note", "string", True))


class TestPublish:
    def test_first_publish_is_draft_version_one(self, store, orders_v1):
        version = store.publish("orders", orders_v1)
        assert version == 1
        record = store.get_record("orders", 1)
        assert record.status == "draft"
        stored = store.get_version("orders", 1)
        assert stored.version == 1
        assert stored.field_names() == ["id", "note"]

    def test_sequential_publishes_count_up(self, store, orders_v1):
        assert store.publish("orders", orders_v1) == 1
        assert store.publish("orders", orders_v1) == 2
        assert [r.version for r in store.list_versions("orders")] == [1, 2]

    def test_publish_does_not_mutate_caller_contract(self, store, orders_v1):
        orders_v1.version = 7
        store.publish("orders", orders_v1)
        assert orders_v1.version == 7

    def test_incompatible_publish_rejected_after_approval(self, store, orders_v1):
        store.publish("orders", orders_v1)
        store.approve("orders", 1, reviewer="alice")
        narrowed = copy.deepcopy(orders_v1)
        narrowed.fields[0].logical_type = "boolean"
        with pytest.raises(RegistryRejection) as err:
            store.publish("orders", narrowed)
        assert any("id" in r for r in err.value.reasons)
        assert [r.version for r in store.list_versions("orders")] == [1]

    def test_drafts_do_not_gate_compatibility(self, store, orders_v1):
        store.publish("orders", orders_v1)  # still a draft
        unrelated = contract_of(FieldSpec("zzz", "boolean", False))
        assert store.publish("orders", unrelated) == 2

    def test_mode_none_accepts_breaking_changes(self, store, orders_v1):
        store.set_compatibility_mode("orders", "none")
        store.publish("orders", orders_v1)
        store.approve("orders", 1, "alice")
        rewrite = contract_of(FieldSpec("different", "boolean", False))
        assert store.publish("orders", rewrite) == 2

    def test_forward_mode(self, store, orders_v1):
        store.set_compatibility_mode("orders", "forward")
        store.publish("orders", orders_v1)
        store.approve("orders", 1, "alice")
        # dropping a nullable field is forward-compatible (new rows validate
        # under old) but backward-incompatible
        shrunk = contract_of(FieldSpec("id", "integer", False))
        assert store.publish("orders", shrunk) == 2

    @pytest.mark.parametrize("spec", [
        FieldSpec("a", "string", nullable="yes"),
        FieldSpec("a", "number", False, Constraints(min_value=float("nan"))),
    ], ids=["nullable-text", "min-nan"])
    def test_contract_it_could_not_read_back_is_refused(self, store, tmp_path, orders_v1,
                                                        spec):
        with pytest.raises(InvariantViolation, match="malformed document"):
            store.publish("orders", Contract("orders", [spec]))
        assert not list((tmp_path / "registry").glob("*/v*.json"))
        assert store.publish("orders", orders_v1) == 1
        store.approve("orders", 1, reviewer="alice")
        assert store.latest_approved("orders")[1].field_names() == ["id", "note"]
        assert store.publish("orders", orders_v1) == 2

    def test_invalid_name_rejected(self, store, orders_v1):
        for bad in ("../escape", "", "a/b", ".hidden"):
            with pytest.raises(RegistryError):
                store.publish(bad, orders_v1)

    def test_invalid_mode_rejected(self, store):
        with pytest.raises(RegistryError, match="unknown compatibility mode"):
            store.set_compatibility_mode("orders", "sideways")

    def test_default_mode_is_backward(self, store, orders_v1):
        store.publish("orders", orders_v1)
        assert store.compatibility_mode("orders") == "backward"


class TestApprove:
    def test_approve_single_version(self, store, orders_v1):
        store.publish("orders", orders_v1)
        record = store.approve("orders", 1, reviewer="alice")
        assert record.status == "approved"
        assert record.reviewer == "alice"
        version, approved = store.latest_approved("orders")
        assert version == 1
        assert approved.status == "approved"

    def test_second_approval_deprecates_first(self, store, orders_v1):
        store.publish("orders", orders_v1)
        store.approve("orders", 1, "alice")
        widened = copy.deepcopy(orders_v1)
        widened.fields.append(FieldSpec("extra", "string", True))
        store.publish("orders", widened)
        store.approve("orders", 2, "bob")
        statuses = {r.version: r.status for r in store.list_versions("orders")}
        assert statuses == {1: "deprecated", 2: "approved"}
        assert store.latest_approved("orders")[0] == 2

    def test_at_most_one_approved(self, store, orders_v1):
        store.publish("orders", orders_v1)
        store.publish("orders", orders_v1)
        store.approve("orders", 1, "alice")
        store.approve("orders", 2, "bob")
        approved = [r for r in store.list_versions("orders") if r.status == "approved"]
        assert len(approved) == 1

    def test_approve_unknown_version(self, store, orders_v1):
        store.publish("orders", orders_v1)
        with pytest.raises(NotFoundError):
            store.approve("orders", 9, "alice")
        with pytest.raises(NotFoundError):
            store.approve("nobody", 1, "alice")

    def test_reapprove_and_deprecated_rejected(self, store, orders_v1):
        store.publish("orders", orders_v1)
        store.publish("orders", orders_v1)
        store.approve("orders", 1, "alice")
        with pytest.raises(RegistryError, match="already approved"):
            store.approve("orders", 1, "alice")
        store.approve("orders", 2, "bob")
        with pytest.raises(RegistryError, match="deprecated"):
            store.approve("orders", 1, "carol")

    def test_version_file_bytes_survive_approval(self, store, orders_v1, tmp_path):
        store.publish("orders", orders_v1)
        path = tmp_path / "registry" / "orders" / "v1.json"
        before = path.read_bytes()
        store.approve("orders", 1, "alice")
        assert path.read_bytes() == before
        # but reads overlay the live status
        assert store.get_version("orders", 1).status == "approved"


class TestFeedback:
    def test_append_and_order(self, store, orders_v1):
        store.publish("orders", orders_v1)
        store.record_feedback("orders", 1, "alice", "tighten the id range")
        store.record_feedback("orders", 1, "bob", "looks right")
        notes = store.get_record("orders", 1).feedback
        assert [n.note for n in notes] == ["tighten the id range", "looks right"]
        assert all(n.at for n in notes)

    def test_unknown_version(self, store):
        with pytest.raises(NotFoundError):
            store.record_feedback("orders", 1, "alice", "x")

    def test_survives_reopen(self, tmp_path, orders_v1):
        store = RegistryStore(tmp_path / "registry")
        store.publish("orders", orders_v1)
        store.record_feedback("orders", 1, "alice", "note one")
        reopened = RegistryStore(tmp_path / "registry")
        notes = reopened.get_record("orders", 1).feedback
        assert [n.note for n in notes] == ["note one"]


class TestPersistence:
    def test_round_trip_byte_exact(self, tmp_path, status_profile):
        root = tmp_path / "registry"
        store = RegistryStore(root)
        contract = infer_contract(status_profile)
        store.publish("accounts", contract)
        store.approve("accounts", 1, "alice")
        store.publish("accounts", contract)
        before = {p.name: p.read_bytes() for p in sorted((root / "accounts").iterdir())}

        reopened = RegistryStore(root)
        after = {p.name: p.read_bytes() for p in sorted((root / "accounts").iterdir())}
        assert before == after
        assert [r.to_doc() for r in reopened.list_versions("accounts")] == \
               [r.to_doc() for r in store.list_versions("accounts")]
        assert canonicalize(reopened.get_version("accounts", 1)) == \
               canonicalize(store.get_version("accounts", 1))

    def test_orphan_version_file_adopted_as_draft(self, tmp_path, orders_v1):
        root = tmp_path / "registry"
        store = RegistryStore(root)
        store.publish("orders", orders_v1)
        # simulate a crash between the contract write and the meta write
        v2 = root / "orders" / "v2.json"
        v2.write_text(canonicalize(orders_v1).replace('"version": 1', '"version": 2'))
        reopened = RegistryStore(root)
        assert [r.version for r in reopened.list_versions("orders")] == [1, 2]
        assert reopened.get_record("orders", 2).status == "draft"
        assert reopened.publish("orders", orders_v1) == 3


def _dying_at(k: int, calls: list):
    """Wrap an ``os`` call so that the ``k``-th call through any wrapper
    ends the process before it runs; ``k == 0`` only counts."""
    def wrap(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            if len(calls) == k:
                os._exit(0)
            return real(*args, **kwargs)
        return call
    return wrap


class TestCrashPoints:
    """A process killed at any ``os.replace`` or ``os.fsync`` of a publish,
    approve, publish, feedback, approve, publish script leaves a store that
    reopens whole.  Each crash is a forked child that exits at its k-th such
    call, one child at a time.  This models a killed process, not lost page
    cache: what the child wrote before it died stays written."""

    @staticmethod
    def script(root, first, second) -> None:
        store = RegistryStore(root)
        store.publish("orders", first)
        store.approve("orders", 1, "alice")
        store.publish("orders", second)
        store.record_feedback("orders", 2, "bob", "adds an extra column")
        store.approve("orders", 2, "bob")
        store.publish("orders", second)

    def crash_at(self, k: int, root, first, second) -> None:
        pid = os.fork()
        if pid == 0:
            code = 3  # the script ran to its end: no k-th call
            try:
                wrap = _dying_at(k, [])
                os.replace, os.fsync = wrap(os.replace), wrap(os.fsync)
                self.script(root, first, second)
            except BaseException:
                code = 2
            os._exit(code)
        deadline = time.monotonic() + 10
        while not (reaped := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail(f"crash point {k}: the child hung")
            time.sleep(0.001)
        assert os.waitstatus_to_exitcode(reaped[1]) == 0, f"crash point {k}"

    def test_every_crash_point_leaves_a_whole_store(self, tmp_path, orders_v1, monkeypatch):
        widened = copy.deepcopy(orders_v1)
        widened.fields.append(FieldSpec("extra", "string", True))
        calls: list = []
        with monkeypatch.context() as patch:
            wrap = _dying_at(0, calls)
            patch.setattr(os, "replace", wrap(os.replace))
            patch.setattr(os, "fsync", wrap(os.fsync))
            self.script(tmp_path / "dry", orders_v1, widened)
        assert set(calls) == {"replace", "fsync"}
        for k in range(1, len(calls) + 1):
            root = tmp_path / f"crash{k}"
            self.crash_at(k, root, orders_v1, widened)
            store = RegistryStore(root)
            records = store.list_versions("orders")
            versions = [r.version for r in records]
            assert versions == list(range(1, len(versions) + 1)), f"crash point {k}"
            assert sum(r.status == "approved" for r in records) <= 1, f"crash point {k}"
            for version in versions:
                store.get_version("orders", version)
            assert store.publish("orders", widened) == len(versions) + 1, f"crash point {k}"


class TestConcurrency:
    def test_parallel_publishes_one_name(self, store, orders_v1):
        versions: list[int] = []
        lock = threading.Lock()

        def worker():
            for _ in range(10):
                v = store.publish("orders", orders_v1)
                with lock:
                    versions.append(v)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(versions) == list(range(1, 41))

    def test_independent_names_do_not_interfere(self, store, orders_v1):
        def worker(name):
            for _ in range(5):
                store.publish(name, orders_v1)

        threads = [threading.Thread(target=worker, args=(f"name{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            assert [r.version for r in store.list_versions(f"name{i}")] == [1, 2, 3, 4, 5]


class TestCheckCandidate:
    def test_no_approved_version_is_trivially_compatible(self, store, orders_v1):
        assert store.check_candidate("orders", orders_v1).compatible
        store.publish("orders", orders_v1)
        assert store.check_candidate("orders", orders_v1).compatible

    def test_incompatible_candidate_reported_without_publishing(self, store, orders_v1):
        store.publish("orders", orders_v1)
        store.approve("orders", 1, "alice")
        narrowed = contract_of(FieldSpec("id", "boolean", False))
        verdict = store.check_candidate("orders", narrowed)
        assert not verdict.compatible
        assert verdict.reasons
        assert [r.version for r in store.list_versions("orders")] == [1]


class TestSharedRoot:
    def test_a_second_store_sees_an_approval_at_once(self, tmp_path, orders_v1):
        first = RegistryStore(tmp_path / "registry")
        second = RegistryStore(tmp_path / "registry")
        first.publish("orders", orders_v1)
        assert second.latest_approved("orders") is None
        first.approve("orders", 1, "alice")
        version, approved = second.latest_approved("orders")
        assert (version, approved.status) == (1, "approved")
        assert second.publish("orders", orders_v1) == 2
        assert [r.version for r in first.list_versions("orders")] == [1, 2]

    def test_publish_fsyncs_the_entry_directory_last(self, store, orders_v1, tmp_path,
                                                     monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store.publish("orders", orders_v1)
        entry = os.stat(tmp_path / "registry" / "orders")
        assert (synced[-1].st_dev, synced[-1].st_ino) == (entry.st_dev, entry.st_ino)

    def test_orphan_published_at_is_its_mtime(self, tmp_path, store, orders_v1):
        store.publish("orders", orders_v1)
        v2 = tmp_path / "registry" / "orders" / "v2.json"
        v2.write_text(canonicalize(orders_v1).replace('"version": 1', '"version": 2'))
        os.utime(v2, (1_700_000_000, 1_700_000_000))
        assert store.get_record("orders", 2).published_at == "2023-11-14T22:13:20+00:00"
        assert store.list_versions("orders")[1] == store.get_record("orders", 2)

    @pytest.mark.parametrize("name", [".", "..", ".hidden", "", "a/b"])
    def test_reads_of_invalid_names_are_not_found(self, store, orders_v1, name):
        for read in (store.compatibility_mode, store.list_versions, store.latest_approved,
                     lambda n: store.get_record(n, 1), lambda n: store.get_version(n, 1),
                     lambda n: store.approve(n, 1, "alice"),
                     lambda n: store.record_feedback(n, 1, "alice", "x")):
            with pytest.raises(NotFoundError):
                read(name)
        assert store.check_candidate(name, orders_v1).compatible
        with pytest.raises(RegistryError, match="invalid contract name"):
            store.set_compatibility_mode(name, "none")


class TestCorruptMeta:
    @pytest.mark.parametrize("text", [
        "{", "[" * 100_000, '{"versions": [{"version": ' + "9" * 5000 + "}]}", "[]",
        '{"versions": 5}', '{"versions": [{"version": "1", "status": "draft"}]}',
        '{"versions": [{"version": 1}]}', '{"compatibility_mode": "sideways"}',
    ], ids=["truncated", "too-deep", "long-integer", "array", "versions-int",
            "version-text", "record-short", "unknown-mode"])
    def test_is_a_registry_error(self, store, orders_v1, tmp_path, text):
        store.publish("orders", orders_v1)
        (tmp_path / "registry" / "orders" / "meta.json").write_text(text)
        for call in (lambda: store.list_versions("orders"),
                     lambda: store.publish("orders", orders_v1)):
            with pytest.raises(RegistryError, match="meta.json"):
                call()
