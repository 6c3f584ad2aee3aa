"""Completion backends: the slot a fine-tuned model plugs into.

A backend maps one :class:`GenerationRequest` to at most ``candidate_count``
completion texts.  Three implementations ship here: a remote HTTP backend, a
scripted replay backend for tests and offline runs, and an oracle backend
that answers from deterministic inference instead of a model.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BackendTransportError, ContractForgeError, parse_json
from .inference import ORACLE_BACKEND_ID, infer_contract
from .model import canonicalize
from .profiling import DataProfile
from .prompts import STAGE1_PREFIX


@dataclass
class GenerationRequest:
    prompt: str
    temperature: float = 0.0
    max_output_chars: int = 8000
    candidate_count: int = 1
    # The profile the prompt renders, for backends that answer from data.
    profile: DataProfile | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.candidate_count < 1:
            raise ContractForgeError("candidate_count must be >= 1")
        if self.temperature < 0:
            raise ContractForgeError("temperature must be >= 0")


class CompletionBackend(ABC):
    """Interface every backend implements.

    ``complete`` may be called from several threads at once and must return
    at most ``request.candidate_count`` texts.
    """

    backend_id: str = "backend"

    @abstractmethod
    def complete(self, request: GenerationRequest) -> list[str]:
        raise NotImplementedError


class OracleBackend(CompletionBackend):
    """Answers each request from deterministic inference on the profile the
    request carries, so one instance serves every profile.

    Stage-1 prompts get the column list; everything else gets the canonical
    text of the inferred contract.
    """

    backend_id = ORACLE_BACKEND_ID

    def complete(self, request: GenerationRequest) -> list[str]:
        profile = request.profile
        if profile is None:
            raise ContractForgeError("the oracle backend needs a request that carries its profile")
        if request.prompt.startswith(STAGE1_PREFIX):
            return [json.dumps(profile.column_names())]
        return [canonicalize(infer_contract(profile))]


class ScriptedBackend(CompletionBackend):
    """Replays canned completions from a fixture mapping.

    Keys are either the sha256 hex digest of the prompt or the 0-based call
    sequence index as a decimal string; hash keys win when both match.  An
    unmatched request yields no completions, which sends generation down the
    fallback path.
    """

    backend_id = "script"

    def __init__(self, script: dict[str, list[str]]):
        self._script = {k: list(v) for k, v in script.items()}
        self._calls = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        doc = parse_json(Path(path).read_text(encoding="utf-8"),
                         context=f"scripted backend fixture {path}")
        if not isinstance(doc, dict):
            raise ContractForgeError("scripted backend fixture must be a JSON object")
        return cls(doc)

    @classmethod
    def from_completions(cls, completions: list[list[str]]) -> "ScriptedBackend":
        return cls({str(i): texts for i, texts in enumerate(completions)})

    @staticmethod
    def prompt_key(prompt: str) -> str:
        # A lone surrogate, which a JSON profile may hold, hashes instead of
        # raising; a prompt without one keeps its key.
        return hashlib.sha256(prompt.encode("utf-8", "surrogatepass")).hexdigest()

    def complete(self, request: GenerationRequest) -> list[str]:
        with self._lock:
            call_index = self._calls
            self._calls += 1
        texts = self._script.get(self.prompt_key(request.prompt))
        if texts is None:
            texts = self._script.get(str(call_index), [])
        return list(texts)[: request.candidate_count]


class HttpBackend(CompletionBackend):
    """Remote completion service speaking the wire contract:

    POST <url> with ``{"prompt", "temperature", "max_tokens", "n"}`` and a
    ``{"completions": [text, ...]}`` response.  Bearer auth comes from the
    environment variable named at construction, never from config literals.
    Transient failures are retried with exponential backoff; exhausting the
    retries raises :class:`BackendTransportError`.
    """

    backend_id = "http"

    def __init__(self, url: str, timeout: float = 30.0, retries: int = 2,
                 backoff: float = 1.0, auth_env: str | None = None):
        self._url = url
        self._timeout = timeout
        self._retries = max(0, retries)
        self._backoff = backoff
        self._auth_env = auth_env

    def complete(self, request: GenerationRequest) -> list[str]:
        from .transport import send  # the HTTP stack loads only when a request goes out
        body = {
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_output_chars,
            "n": request.candidate_count,
        }
        token = os.environ.get(self._auth_env) if self._auth_env else None
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        delay = self._backoff
        last_error = "no attempt made"
        for attempt in range(self._retries + 1):
            try:
                status, raw = send("POST", self._url, body, headers=headers,
                                   timeout=self._timeout)
            except OSError as exc:
                last_error = f"transport error: {exc}"
            else:
                if status >= 500:
                    last_error = f"server error {status}"
                elif status >= 300:  # a 4xx, or a redirect, which is not followed
                    raise BackendTransportError(
                        f"backend at {self._url} rejected the request: "
                        f"{status} {raw.decode('utf-8', 'replace')[:200]}")
                else:
                    return self._parse_response(raw)[: request.candidate_count]
            if attempt < self._retries:
                time.sleep(delay)
                delay *= 2
        raise BackendTransportError(
            f"backend at {self._url} unreachable after {self._retries + 1} attempts: {last_error}")

    def _parse_response(self, raw: bytes) -> list[str]:
        doc = parse_json(raw, BackendTransportError, "backend returned non-JSON body")
        completions = doc.get("completions") if isinstance(doc, dict) else None
        if not isinstance(completions, list) or not all(isinstance(t, str) for t in completions):
            raise BackendTransportError('backend response lacks a "completions" list of texts')
        return completions
