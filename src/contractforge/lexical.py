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

``classify_lexeme`` defines the classes one lexeme at a time.  Callers
classify a whole column with ``class_runs``: they tally the column first, and
regex scans over its distinct lexemes, joined a line each, find the runs of
consecutive lexemes of one class.  A strict pattern per class matches only
lines that are certainly of that class; only the lines none of them matches
(February 29, hour 24, ``1234-5678`` and the like) are classified one at a time,
and so are stretches whose class changes at nearly every lexeme.  There is no
memo: a table holds too many distinct lexemes for any cache to pay.
"""

from __future__ import annotations

import datetime as _dt
import re
from collections.abc import Sequence
from itertools import repeat

EMPTY = "empty"
BOOLEAN = "boolean"
INTEGER = "integer"
NUMBER = "number"
DATE = "date"
TIMESTAMP = "timestamp"
STRING = "string"

#: All lexical classes, bottom first, top last.
CLASSES = (EMPTY, BOOLEAN, INTEGER, NUMBER, DATE, TIMESTAMP, STRING)

#: Pieces of the lexeme grammar, each written once and shared by
#: ``_LEXEME_RE`` and the strict line patterns of ``_RUN_RE``.  An optional
#: piece is written ``(?:X|)``, which ``re`` matches faster than ``(?:X)?``.
_INTEGER = r"[+-]?[0-9]+"
_DOTTED = r"(?:[0-9]+\.[0-9]*|\.[0-9]+)"
_EXPONENT = r"[eE][+-]?[0-9]+"
_FRACTION = r"(?:\.[0-9]+|)"
_ZONE = r"(?:[Zz]|[+-][0-9]{2}:?[0-9]{2}|)"

#: One alternation whose ``lastgroup`` names the class; the alternatives are
#: tried in class order, and each must reach the end of the lexeme.
_LEXEME_RE = re.compile(
    rf"(?P<integer>{_INTEGER}\Z)"
    rf"|(?P<number>[+-]?(?:{_DOTTED}|[0-9]+)(?:{_EXPONENT}|)\Z)"
    r"|(?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2}\Z)"
    r"|(?P<timestamp>(?P<day>[0-9]{4}-[0-9]{2}-[0-9]{2})"   # date part
    r"T(?P<hour>[0-9]{2}):(?P<minute>[0-9]{2})"              # hours:minutes
    rf"(?::(?P<second>[0-9]{{2}}){_FRACTION}|)"              # optional seconds + fraction
    rf"{_ZONE}\Z)"                                            # optional zone
)

#: A boolean line.  Not ``(?i)``: that also matches ``falſe``, which is a string.
_BOOLEAN = r"(?:[tT][rR][uU][eE]|[fF][aA][lL][sS][eE])\n"
#: Every character that an integer, number, date or timestamp lexeme holds.
_NUMERIC_CHARS = r"0-9+\-.eETZz:"
#: A string line that starts with a character no numeric lexeme starts with.
_WORD = rf"(?!{_BOOLEAN})[^\n+\-.0-9][^\n]*\n"
#: A string line that starts like a numeric lexeme but holds a character
#: none holds, a second dot (each holds at most one), a colon before any
#: ``T`` (only a timestamp's time holds one), or a digit followed by ``-``
#: while it does not start like a date (only dates and timestamps hold one).
_NUMERAL_STRING = (rf"(?=[+\-.0-9])(?:[{_NUMERIC_CHARS}]*[^\n{_NUMERIC_CHARS}]"
                   r"|[^\n.]*\.[^\n.]*\.|[^\nT:]*:|(?![0-9]{4}-)[^\n]*[0-9]-)[^\n]*\n")
#: A date that exists in every year: no year 0000 and no February 29.
_STRICT_DAY = (r"(?!0000)[0-9]{4}-(?:(?:0[1-9]|1[0-2])-(?:0[1-9]|1[0-9]|2[0-8])"
               r"|(?:0[13-9]|1[0-2])-(?:29|30)|(?:0[13578]|1[02])-31)")
#: Runs of lines of one class.  Each strict line pattern matches only lexemes
#: of its class, and no two match the same line, so a match is a run; a line
#: that no strict pattern matches is ``other``, one line per match.
_RUN_RE = re.compile(
    r"(?P<empty>\n+)"
    rf"|(?P<boolean>(?:{_BOOLEAN})+)"
    rf"|(?P<integer>(?:{_INTEGER}\n)+)"
    rf"|(?P<number>(?:[+-]?(?:{_DOTTED}(?:{_EXPONENT}|)|[0-9]+{_EXPONENT})\n)+)"
    rf"|(?P<date>(?:{_STRICT_DAY}\n)+)"
    rf"|(?P<timestamp>(?:{_STRICT_DAY}T(?:[01][0-9]|2[0-3]):[0-5][0-9]"
    rf"(?::[0-5][0-9]{_FRACTION}|){_ZONE}\n)+)"
    rf"|(?P<string>(?:{_WORD})+|(?:{_WORD}|{_NUMERAL_STRING})+)"
    r"|(?P<other>[^\n]*\n)"
)
#: Lexemes joined into one text for a scan.  It bounds the text, and the
#: frame ``re`` keeps for each repetition of a group until its match ends
#: (about 330 bytes a line), whatever the size of the column.
_CHUNK = 256
#: The mean run length below which a chunk is cheaper to classify per lexeme.
_SHORT_RUN = 2

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


def class_runs(lexemes: Sequence[str]) -> list[tuple[str, int]]:
    """The classes of ``lexemes`` as runs: ``(cls, k)`` for each longest
    stretch of ``k`` consecutive lexemes that ``classify_lexeme`` assigns
    ``cls``, in order.

    The lexemes are scanned ``_CHUNK`` at a time, and the runs of one chunk
    are joined to those of the last where they meet.  A chunk is classified
    per lexeme instead when a lexeme holds a newline, and so cannot be a
    line, or when the runs of the chunk before were shorter than
    ``_SHORT_RUN`` lexemes on average, because a scan pays only over runs.
    """
    classes: list[str] = []
    counts: list[int] = []
    scan = True
    for start in range(0, len(lexemes), _CHUNK):
        chunk = lexemes[start:start + _CHUNK]
        text = "\n".join(chunk) + "\n"
        if scan and text.count("\n") == len(chunk):
            runs = _scan_runs(chunk, text)
        else:
            runs = zip(map(classify_lexeme, chunk), repeat(1))
        first = len(classes)
        for cls, k in runs:
            if classes and classes[-1] == cls:
                counts[-1] += k
            else:
                classes.append(cls)
                counts.append(k)
        scan = (len(classes) - first) * _SHORT_RUN <= len(chunk)
    return list(zip(classes, counts))


def _scan_runs(lexemes: Sequence[str], text: str):
    """Runs of one class over ``lexemes``, not always the longest ones: one
    ``_RUN_RE`` scan over ``text``, the lexemes joined a line each, which
    classifies only its ``other`` lines one at a time."""
    line = 0  # index of the first lexeme of the match
    for match in _RUN_RE.finditer(text):
        cls = match.lastgroup
        if cls == "other":
            cls, k = classify_lexeme(lexemes[line]), 1
        else:
            k = text.count("\n", match.start(), match.end())
        yield cls, k
        line += k


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
