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

One grammar, ``_RUN_RE``, defines the classes: it reads lexemes as lines, and
a line pattern per class matches exactly the lines of that class, with every
line that no other pattern matches a ``string``.  ``classify_lexeme`` matches
one lexeme as a line.  Callers classify a whole column with ``class_runs``:
they tally the column first, and regex scans over its distinct lexemes,
joined a line each, find the runs of consecutive lexemes of one class.  There
is no memo: a table holds too many distinct lexemes for any cache to pay.
"""

from __future__ import annotations

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

#: Pieces of the line patterns of ``_RUN_RE``.  An optional piece is written
#: ``(?:X|)``, which ``re`` matches faster than ``(?:X)?``.
_INTEGER = r"[+-]?[0-9]+"
_DOTTED = r"(?:[0-9]+\.[0-9]*|\.[0-9]+)"
_EXPONENT = r"[eE][+-]?[0-9]+"
_FRACTION = r"(?:\.[0-9]+|)"
_ZONE = r"(?:[Zz]|[+-][0-9]{2}:?[0-9]{2}|)"

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
#: A year of the Gregorian calendar that has a February 29: one divisible by
#: 4, and by 400 when divisible by 100.
_LEAP_YEAR = r"(?:[0-9]{2}(?:0[48]|[2468][048]|[13579][26])|(?:[02468][048]|[13579][26])00)"
#: A date of the Gregorian calendar from year 0001, as ``datetime.date``
#: reads it.  February 29 comes last, so other dates never try the leap year.
_DAY = (r"(?!0000)[0-9]{4}-(?:(?:0[1-9]|1[0-2])-(?:0[1-9]|1[0-9]|2[0-8])"
        rf"|(?:0[13-9]|1[0-2])-(?:29|30)|(?:0[13578]|1[02])-31|(?<={_LEAP_YEAR}-)02-29)")
#: Runs of lines of one class, one alternative per class, tried in class
#: order.  The line pattern of each class matches exactly the lines of that
#: class, and no two match the same line; the last alternative of ``string``
#: matches any line, so only lines of no other class reach it.  A match is
#: therefore a run.
_RUN_RE = re.compile(
    r"(?P<empty>\n+)"
    rf"|(?P<boolean>(?:{_BOOLEAN})+)"
    rf"|(?P<integer>(?:{_INTEGER}\n)+)"
    rf"|(?P<number>(?:[+-]?(?:{_DOTTED}(?:{_EXPONENT}|)|[0-9]+{_EXPONENT})\n)+)"
    rf"|(?P<date>(?:{_DAY}\n)+)"
    rf"|(?P<timestamp>(?:{_DAY}T(?:[01][0-9]|2[0-3]):[0-5][0-9]"
    rf"(?::[0-5][0-9]{_FRACTION}|){_ZONE}\n)+)"
    rf"|(?P<string>(?:{_WORD})+|(?:{_WORD}|{_NUMERAL_STRING})+|[^\n]*\n)"
)
#: Lexemes joined into one text for a scan.  It bounds the text, and the
#: frame ``re`` keeps for each repetition of a group until its match ends
#: (about 330 bytes a line), whatever the size of the column.
_CHUNK = 256


def classify_lexeme(lexeme: str) -> str:
    """Assign one lexical class to a raw text value.

    The classifier is a total function: anything that matches no stricter
    grammar is ``string``, a lexeme that holds a newline included.  Numeric
    classification is purely grammatical (any-length digit strings are
    ``integer`` even beyond 64-bit range).
    """
    if "\n" in lexeme:
        return STRING
    return _RUN_RE.match(lexeme + "\n").lastgroup


def class_runs(lexemes: Sequence[str]) -> list[tuple[str, int]]:
    """The classes of ``lexemes`` as runs: ``(cls, k)`` for each longest
    stretch of ``k`` consecutive lexemes that ``classify_lexeme`` assigns
    ``cls``, in order.

    The lexemes are joined ``_CHUNK`` at a time, a line each, and each chunk
    is scanned once with ``_RUN_RE``, whose matches are runs of one class,
    not always the longest ones; runs that meet, also across chunks, are
    joined.  A chunk in which a lexeme holds a newline, and so is no line,
    is classified a lexeme at a time.
    """
    classes: list[str] = []
    counts: list[int] = []
    for start in range(0, len(lexemes), _CHUNK):
        chunk = lexemes[start:start + _CHUNK]
        text = "\n".join(chunk) + "\n"
        if text.count("\n") == len(chunk):
            runs = ((match.lastgroup, text.count("\n", *match.span()))
                    for match in _RUN_RE.finditer(text))
        else:
            runs = zip(map(classify_lexeme, chunk), repeat(1))
        for cls, k in runs:
            if classes and classes[-1] == cls:
                counts[-1] += k
            else:
                classes.append(cls)
                counts.append(k)
    return list(zip(classes, counts))


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
