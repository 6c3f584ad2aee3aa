"""Lexical classification of raw text values and the class lattice.

Every cell of a dataset is first seen as a text lexeme.  ``classify_lexeme``
assigns each lexeme exactly one class; ``join`` combines classes observed in
one column into the least general class that covers them all.  The lattice:

    empty  <  every class          (identity element)
    integer < number < string
    boolean < string
    date < string
    timestamp < string

Any two distinct non-empty classes without an order between them join to
``string``; in particular ``join(date, timestamp) == string`` because a bare
date is not a valid timestamp lexeme.
"""

from __future__ import annotations

import datetime as _dt
import re
from functools import lru_cache

EMPTY = "empty"
BOOLEAN = "boolean"
INTEGER = "integer"
NUMBER = "number"
DATE = "date"
TIMESTAMP = "timestamp"
STRING = "string"

#: All lexical classes, bottom first, top last.
CLASSES = (EMPTY, BOOLEAN, INTEGER, NUMBER, DATE, TIMESTAMP, STRING)

_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")
_TIMESTAMP_RE = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})"          # date part
    r"T([0-9]{2}):([0-9]{2})"                # hours:minutes
    r"(?::([0-9]{2})(?:\.[0-9]+)?)?"         # optional seconds + fraction
    r"(?:[Zz]|[+-][0-9]{2}:?[0-9]{2})?\Z"    # optional zone
)


def _valid_date(text: str) -> bool:
    try:
        _dt.date.fromisoformat(text)
    except ValueError:
        return False
    return True


@lru_cache(maxsize=65536)
def classify_lexeme(lexeme: str) -> str:
    """Assign one lexical class to a raw text value.

    The classifier is a total function: anything that matches no stricter
    grammar is ``string``.  Numeric classification is purely grammatical
    (any-length digit strings are ``integer`` even beyond 64-bit range).
    """
    if lexeme == "":
        return EMPTY
    if lexeme.lower() in ("true", "false"):
        return BOOLEAN
    if _INTEGER_RE.match(lexeme):
        return INTEGER
    if _NUMBER_RE.match(lexeme):
        return NUMBER
    if _DATE_RE.match(lexeme):
        return DATE if _valid_date(lexeme) else STRING
    m = _TIMESTAMP_RE.match(lexeme)
    if m:
        if not _valid_date(m.group(1)):
            return STRING
        hour, minute = int(m.group(2)), int(m.group(3))
        second = int(m.group(4)) if m.group(4) else 0
        if hour < 24 and minute < 60 and second < 60:
            return TIMESTAMP
        return STRING
    return STRING


def number_of(lexeme: str) -> int | float | None:
    """An ``integer`` lexeme's int, a ``number`` lexeme's float, else ``None``;
    an integer past the int-string digit limit reads as float (±inf)."""
    cls = classify_lexeme(lexeme)
    if cls == INTEGER:
        try:
            return int(lexeme)
        except ValueError:
            return float(lexeme)
    return float(lexeme) if cls == NUMBER else None


def join(a: str, b: str) -> str:
    """Least upper bound of two lexical classes."""
    if a == b:
        return a
    if a == EMPTY:
        return b
    if b == EMPTY:
        return a
    if {a, b} == {INTEGER, NUMBER}:
        return NUMBER
    return STRING


def join_all(classes) -> str:
    """Fold ``join`` over an iterable of classes; empty input gives ``empty``."""
    result = EMPTY
    for c in classes:
        result = join(result, c)
    return result


def is_subclass(a: str, b: str) -> bool:
    """True when ``a`` is at or below ``b`` in the lattice (a conforms to b)."""
    return join(a, b) == b
