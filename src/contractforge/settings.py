"""The library's settings, each default written once, and :func:`check`, the
one rule that checks a setting: for the library in each class's ``validate``,
and for the CLI on each value of its config file, policy file and flags."""

from __future__ import annotations

import sys
import threading
from dataclasses import MISSING, dataclass, field, fields

from .errors import ContractForgeError, IngestError

#: Generation modes: one prompt, or a column list first and then the contract.
SINGLE_PASS = "single_pass"
TWO_PASS = "two_pass"


def check(where: str, key: str, value, default, error: type = ContractForgeError) -> None:
    """Raise ``error`` naming ``key`` unless ``value`` has the type of its
    ``default``: an int may stand for a float, a null default takes a
    string or null, a list default takes a list of strings, a number is
    never negative, a float is finite (a ``timeout`` or ``backoff`` at most
    ``threading.TIMEOUT_MAX``), and an int is at most ``sys.maxsize``."""
    if default is None:
        ok = value is None or isinstance(value, str)
        expected = "str or null"
    else:
        kind = (int, float) if type(default) is float else type(default)
        ok = isinstance(value, kind) and isinstance(value, bool) == isinstance(default, bool)
        expected = type(default).__name__
    if not ok:
        raise error(f"{where} key {key!r} must be {expected}, not {type(value).__name__}")
    if type(default) in (int, float):
        if not value >= 0:
            raise error(f"{where} key {key!r} must be >= 0, not {_shown(value)}")
        limit = (threading.TIMEOUT_MAX if key in ("timeout", "backoff")
                 else sys.float_info.max if type(default) is float else sys.maxsize)
        if not value <= limit:
            raise error(f"{where} key {key!r} must be at most {limit:g}, not {_shown(value)}")
    if type(default) is list and not all(isinstance(item, str) for item in value):
        raise error(f"{where} key {key!r} must hold only strings")


def _shown(value) -> str:
    """A refused number as a message writes it; an int past the int-string
    digit limit, which has no text, by its size."""
    try:
        return str(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


class _Settings:
    _error: type = ContractForgeError

    def validate(self) -> None:
        """Run :func:`check` on every field against its default."""
        for spec in fields(self):
            default = spec.default_factory() if spec.default is MISSING else spec.default
            check(type(self).__name__, spec.name, getattr(self, spec.name), default, self._error)


@dataclass
class IngestOptions(_Settings):
    _error = IngestError

    delimiter: str = ","
    #: Sampled values kept per column and sample rows kept per profile. Small on
    #: purpose: profiles feed prompts, and prompts for wide tables get long fast.
    value_cap: int = 20
    row_cap: int = 10
    flatten_depth: int = 1
    null_tokens: list[str] = field(default_factory=list)


@dataclass
class GenerationPolicy(_Settings):
    mode: str = SINGLE_PASS
    candidate_count: int = 1
    temperature: float = 0.0
    threshold: float = 0.5
    max_output_chars: int = 8000
    # Provenance timestamp; left unset the library stays deterministic and
    # the CLI stamps wall-clock time itself.
    generated_at: str | None = None

    def validate(self) -> None:
        super().validate()
        if self.mode not in (SINGLE_PASS, TWO_PASS):
            raise ContractForgeError(f"GenerationPolicy key 'mode' must be {SINGLE_PASS} or "
                                     f"{TWO_PASS}, not {self.mode!r:.40}")


@dataclass
class HttpOptions(_Settings):
    timeout: float = 30.0  # seconds per attempt
    retries: int = 2
    backoff: float = 1.0  # seconds before the first retry, doubled each retry
    auth_env: str | None = None  # the environment variable holding the token
