"""Exception hierarchy shared across the package, and its one JSON reader
(``parse_json``) and one JSON writer (``dump_json``)."""

from __future__ import annotations

import json


class ContractForgeError(Exception):
    """Base class for every error raised by this package."""


class IngestError(ContractForgeError):
    """Raw input could not be turned into a data profile."""


class ContractSyntaxError(ContractForgeError):
    """Contract text is not well-formed JSON.

    Carries the 0-based character ``position`` plus 1-based ``line`` and
    ``column`` when they are known.
    """

    def __init__(self, message: str, position: int | None = None,
                 line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.position = position
        self.line = line
        self.column = column


class InvariantViolation(ContractForgeError):
    """A structurally valid document violates a contract invariant.

    ``invariant`` names the violated invariant so diagnostics can cite it.
    """

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"{invariant}: {detail}" if detail else invariant)


class ExtractionFailure(ContractForgeError):
    """No contract could be recovered from a completion text."""


class BackendTransportError(ContractForgeError):
    """The completion backend could not be reached or answered garbage.

    Distinct from the fallback path: fallback is a successful generation
    outcome, transport failure is not.
    """


class RegistryError(ContractForgeError):
    """Base class for registry failures."""


class NotFoundError(RegistryError):
    """Unknown contract name or version."""


class RegistryTransportError(RegistryError):
    """The registry service could not be reached."""


class RegistryRejection(RegistryError):
    """Publish refused because the candidate is incompatible."""

    def __init__(self, reasons: list[str]):
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons) or "incompatible contract")


def parse_json(text: str | bytes, error: type[ContractForgeError] = ContractForgeError,
               context: str | None = None):
    """``json.loads``, raising ``error`` for any text it cannot read.

    Besides malformed JSON, ``json.loads`` lets three inputs escape as other
    exceptions: bytes that are not Unicode, an integer past the int-string
    digit limit (both ``ValueError``) and nesting past the recursion limit
    (``RecursionError``).  The message is the reason, after ``context`` when
    one is given; a :class:`ContractSyntaxError` also carries the position
    of a syntax error.
    """
    where: dict = {}
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = str(exc)
        if issubclass(error, ContractSyntaxError):
            where = {"position": exc.pos, "line": exc.lineno, "column": exc.colno}
    except UnicodeDecodeError as exc:
        reason = str(exc)
    except ValueError:
        reason = "integer literal too long to read"
    except RecursionError:
        reason = "nesting too deep to read"
    raise error(f"{context}: {reason}" if context else reason, **where)


def dump_json(doc) -> str:
    """The canonical text of a document, paired with :func:`parse_json`: keys
    sorted, 2-space indent, non-ASCII escaped, newline-terminated.  Every
    contract, profile, registry file and CLI or service reply is written so."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
