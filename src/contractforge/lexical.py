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

There is no memo: a table holds too many distinct lexemes for any cache to
pay.  Callers tally a column first and classify each distinct lexeme once.
"""

from __future__ import annotations

import datetime as _dt
import re

EMPTY = "empty"
BOOLEAN = "boolean"
INTEGER = "integer"
NUMBER = "number"
DATE = "date"
TIMESTAMP = "timestamp"
STRING = "string"

#: All lexical classes, bottom first, top last.
CLASSES = (EMPTY, BOOLEAN, INTEGER, NUMBER, DATE, TIMESTAMP, STRING)

#: One alternation whose ``lastgroup`` names the class; the alternatives are
#: tried in class order, and each must reach the end of the lexeme.
_LEXEME_RE = re.compile(
    r"(?P<integer>[+-]?[0-9]+\Z)"
    r"|(?P<number>[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?\Z)"
    r"|(?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2}\Z)"
    r"|(?P<timestamp>(?P<day>[0-9]{4}-[0-9]{2}-[0-9]{2})"   # date part
    r"T(?P<hour>[0-9]{2}):(?P<minute>[0-9]{2})"              # hours:minutes
    r"(?::(?P<second>[0-9]{2})(?:\.[0-9]+)?)?"               # optional seconds + fraction
    r"(?:[Zz]|[+-][0-9]{2}:?[0-9]{2})?\Z)"                   # optional zone
)
#: First characters of every integer, number, date and timestamp lexeme.
_NUMERIC_START = "+-.0123456789"


def _valid_date(text: str) -> bool:
    try:
        _dt.date.fromisoformat(text)
    except ValueError:
        return False
    return True


def classify_lexeme(lexeme: str) -> str:
    """Assign one lexical class to a raw text value.

    The classifier is a total function: anything that matches no stricter
    grammar is ``string``.  Numeric classification is purely grammatical
    (any-length digit strings are ``integer`` even beyond 64-bit range).
    """
    if lexeme == "":
        return EMPTY
    if lexeme[0] not in _NUMERIC_START:
        return BOOLEAN if lexeme.lower() in ("true", "false") else STRING
    m = _LEXEME_RE.match(lexeme)
    if m is None:
        return STRING
    cls = m.lastgroup
    if cls == DATE:
        return DATE if _valid_date(lexeme) else STRING
    if cls == TIMESTAMP:
        day, hour, minute, second = m.group("day", "hour", "minute", "second")
        if not _valid_date(day):
            return STRING
        # Two ASCII digits each, so text order is number order.
        if hour < "24" and minute < "60" and (second or "00") < "60":
            return TIMESTAMP
        return STRING
    return cls


def number_of(lexeme: str) -> int | float | None:
    """An ``integer`` lexeme's int, a ``number`` lexeme's float, else ``None``;
    an integer past the int-string digit limit reads as float (±inf)."""
    return number_in_class(lexeme, classify_lexeme(lexeme))


def number_in_class(lexeme: str, cls: str) -> int | float | None:
    """``number_of`` for a lexeme already classified as ``cls``."""
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
