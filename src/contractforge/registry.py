"""Versioned contract store: publish, review, feedback, persistence.

Layout: one directory per contract name under the store root, holding one
immutable ``v<N>.json`` per version (canonical contract text) plus a
``meta.json`` with statuses, the compatibility mode and feedback.  That
directory is the store's only state.  Every call on a name opens it, takes an
exclusive ``flock`` on it, reads ``meta.json`` and the ``v*.json`` listing,
acts, and closes it.  A ``flock`` belongs to an open file description, so the
lock excludes other threads, other stores on the same root and other
processes alike: concurrent publishes to one name get distinct consecutive
versions, and independent names proceed in parallel.  POSIX only (``fcntl``).

Writes go to a temp file, are fsynced, then atomically renamed, and the
directory is fsynced after the renames, so a crash never leaves a
half-written file and a publish is durable before its version number is
returned.  The versions of a name are the ``meta.json`` records plus any
orphan ``v<N>.json`` (a crash between the contract and the meta write); an
orphan reads as a draft published at its file's mtime, and the next write
records it in ``meta.json``.
"""

from __future__ import annotations

import dataclasses
import fcntl
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .compatibility import COMPATIBILITY_MODES, check_compatibility
from .errors import NotFoundError, RegistryError, RegistryRejection, dump_json, parse_json
from .model import CompatibilityVerdict, Contract, canonicalize, parse_contract

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")
_VERSION_FILE_RE = re.compile(r"v([1-9][0-9]{0,17})\.json\Z")
DEFAULT_COMPATIBILITY_MODE = "backward"


def _utc(timestamp: float | None = None) -> str:
    moment = (datetime.now(timezone.utc) if timestamp is None
              else datetime.fromtimestamp(timestamp, timezone.utc))
    return moment.isoformat(timespec="seconds")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@dataclass
class FeedbackNote:
    at: str
    author: str
    note: str

    def to_doc(self) -> dict:
        return {"at": self.at, "author": self.author, "note": self.note}

    @classmethod
    def from_doc(cls, doc: dict) -> "FeedbackNote":
        return cls(at=doc["at"], author=doc["author"], note=doc["note"])


@dataclass
class VersionRecord:
    version: int
    status: str
    published_at: str
    reviewer: str | None = None
    feedback: list[FeedbackNote] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {"version": self.version, "status": self.status,
                "published_at": self.published_at, "reviewer": self.reviewer,
                "feedback": [f.to_doc() for f in self.feedback]}

    @classmethod
    def from_doc(cls, doc: dict) -> "VersionRecord":
        return cls(version=doc["version"], status=doc["status"],
                   published_at=doc["published_at"], reviewer=doc.get("reviewer"),
                   feedback=[FeedbackNote.from_doc(f) for f in doc.get("feedback", [])])


@dataclass
class _State:
    """One entry as read under its lock: the directory and what it holds."""

    path: Path
    fd: int
    mode: str
    versions: dict[int, VersionRecord]

    def record(self, version: int) -> VersionRecord:
        record = self.versions.get(version)
        if record is None:
            raise NotFoundError(f"contract {self.path.name!r} has no version {version}")
        return record

    def contract(self, version: int) -> Contract:
        record = self.record(version)
        try:
            text = (self.path / f"v{version}.json").read_text(encoding="utf-8")
        except OSError as exc:
            raise RegistryError(f"missing version file for {self.path.name} "
                                f"v{version}: {exc}") from exc
        contract = parse_contract(text)
        contract.status = record.status
        return contract

    def latest_approved(self) -> tuple[int, Contract] | None:
        approved = [v for v, r in self.versions.items() if r.status == "approved"]
        return (max(approved), self.contract(max(approved))) if approved else None

    def verdict(self, candidate: Contract) -> CompatibilityVerdict:
        approved = self.latest_approved()
        if approved is None:
            return CompatibilityVerdict(True, [])
        return check_compatibility(approved[1], candidate, self.mode)

    def write_meta(self) -> None:
        doc = {"compatibility_mode": self.mode,
               "versions": [self.versions[v].to_doc() for v in sorted(self.versions)]}
        _atomic_write(self.path / "meta.json", dump_json(doc))
        os.fsync(self.fd)  # make the renames durable too


def _read_entry(path: Path) -> tuple[str, dict[int, VersionRecord]]:
    """The compatibility mode and the versions of the entry at ``path``: the
    ``meta.json`` records plus the orphan version files."""
    try:
        meta = parse_json((path / "meta.json").read_bytes(), RegistryError,
                          f"corrupt {path.name}/meta.json")
    except FileNotFoundError:
        meta = {}
    try:
        mode = meta.get("compatibility_mode", DEFAULT_COMPATIBILITY_MODE)
        records = [VersionRecord.from_doc(doc) for doc in meta.get("versions", [])]
    except (AttributeError, KeyError, TypeError) as exc:
        raise RegistryError(f"corrupt {path.name}/meta.json: {exc!r}") from exc
    if mode not in COMPATIBILITY_MODES or not all(
            type(r.version) is int and isinstance(r.status, str) for r in records):
        raise RegistryError(f"corrupt {path.name}/meta.json: bad mode or version record")
    versions = {r.version: r for r in records}
    with os.scandir(path) as entries:
        for entry in entries:
            match = _VERSION_FILE_RE.match(entry.name)
            if match and int(match[1]) not in versions:
                versions[int(match[1])] = VersionRecord(
                    version=int(match[1]), status="draft",
                    published_at=_utc(entry.stat().st_mtime))
    return mode, versions


class RegistryStore:
    """File-backed registry; safe for concurrent use by threads and processes."""

    def __init__(self, root):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @contextmanager
    def _locked(self, name: str, create: bool = False):
        """Yield the :class:`_State` of ``name`` read under an exclusive flock
        on its directory, creating the directory first when ``create``."""
        if not _NAME_RE.match(name):
            if create:
                raise RegistryError(f"invalid contract name {name!r}")
            raise NotFoundError(f"unknown contract {name!r}")
        path = self._root / name
        try:
            if create:
                path.mkdir(exist_ok=True)
            fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
        except (FileNotFoundError, NotADirectoryError, FileExistsError) as exc:
            if create:
                raise RegistryError(f"cannot create contract {name!r}: {exc}") from exc
            raise NotFoundError(f"unknown contract {name!r}") from exc
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released by the close
            yield _State(path, fd, *_read_entry(path))
        finally:
            os.close(fd)

    # -- public API --------------------------------------------------------

    def compatibility_mode(self, name: str) -> str:
        with self._locked(name) as state:
            return state.mode

    def set_compatibility_mode(self, name: str, mode: str) -> None:
        if mode not in COMPATIBILITY_MODES:
            raise RegistryError(f"unknown compatibility mode {mode!r}")
        with self._locked(name, create=True) as state:
            state.mode = mode
            state.write_meta()

    def publish(self, name: str, contract: Contract) -> int:
        """Store a new draft version, enforcing the entry's compatibility
        mode against the latest approved version.  A contract that fails
        ``validate``, which no reader could parse back, is refused before
        anything is written.  The write is atomic and durable before the
        assigned version number is returned."""
        contract.validate()
        with self._locked(name, create=True) as state:
            verdict = state.verdict(contract)
            if not verdict.compatible:
                raise RegistryRejection(verdict.reasons)
            version = max(state.versions, default=0) + 1
            stored = dataclasses.replace(contract, name=name, version=version,
                                         status="draft")
            _atomic_write(state.path / f"v{version}.json", canonicalize(stored))
            state.versions[version] = VersionRecord(version=version, status="draft",
                                                    published_at=_utc())
            state.write_meta()
            return version

    def latest_approved(self, name: str) -> tuple[int, Contract] | None:
        with self._locked(name) as state:
            return state.latest_approved()

    def get_version(self, name: str, version: int) -> Contract:
        with self._locked(name) as state:
            return state.contract(version)

    def get_record(self, name: str, version: int) -> VersionRecord:
        with self._locked(name) as state:
            return state.record(version)

    def list_versions(self, name: str) -> list[VersionRecord]:
        with self._locked(name) as state:
            return [state.versions[v] for v in sorted(state.versions)]

    def approve(self, name: str, version: int, reviewer: str) -> VersionRecord:
        """Promote a draft; whichever version was approved before becomes
        deprecated, so at most one approved version exists per name."""
        with self._locked(name) as state:
            record = state.record(version)
            if record.status == "approved":
                raise RegistryError(f"{name} v{version} is already approved")
            if record.status == "deprecated":
                raise RegistryError(f"cannot approve deprecated version {name} v{version}")
            for other in state.versions.values():
                if other.status == "approved":
                    other.status = "deprecated"
            record.status = "approved"
            record.reviewer = reviewer
            state.write_meta()
            return record

    def record_feedback(self, name: str, version: int, author: str, note: str) -> None:
        with self._locked(name) as state:
            state.record(version).feedback.append(
                FeedbackNote(at=_utc(), author=author, note=note))
            state.write_meta()

    def check_candidate(self, name: str, contract: Contract) -> CompatibilityVerdict:
        """Compatibility verdict against the latest approved version without
        publishing; trivially compatible when nothing is approved yet."""
        contract.validate()
        try:
            with self._locked(name) as state:
                return state.verdict(contract)
        except NotFoundError:  # no such contract: nothing approved
            return CompatibilityVerdict(True, [])
