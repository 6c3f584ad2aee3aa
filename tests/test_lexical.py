"""Lexical classifier grammar and the class lattice."""

import itertools
import math
import tracemalloc

import pytest

from contractforge.lexical import (CLASSES, class_runs, classify_lexeme, is_subclass, join,
                                   join_all, number_of)


@pytest.mark.parametrize("lexeme,expected", [
    ("", "empty"),
    ("true", "boolean"),
    ("False", "boolean"),
    ("TRUE", "boolean"),
    ("-42", "integer"),
    ("+7", "integer"),
    ("007", "integer"),
    ("99999999999999999999999999", "integer"),  # beyond 64-bit still integer
    ("3.5", "number"),
    ("3.5e2", "number"),
    ("-0.5", "number"),
    (".5", "number"),
    ("5.", "number"),
    ("1E-3", "number"),
    ("1e+20", "number"),
    ("2021-01-01", "date"),
    ("2021-12-31", "date"),
    ("2021-13-01", "string"),   # no month 13
    ("2021-02-30", "string"),   # no Feb 30
    ("2021-01-01T10:00:00Z", "timestamp"),
    ("2021-01-01T10:00", "timestamp"),
    ("2021-01-01T10:00:00.123Z", "timestamp"),
    ("2021-01-01T10:00:00+05:30", "timestamp"),
    ("2021-01-01T10:00:00-0800", "timestamp"),
    ("2021-01-01T25:00:00Z", "string"),  # no hour 25
    ("2021-02-30T10:00:00Z", "string"),
    ("abc", "string"),
    ("inf", "string"),
    ("nan", "string"),
    ("1,000", "string"),
    ("truest", "string"),
    ("12ab", "string"),
    (" 42", "string"),  # classifier does not trim
])
def test_classify_lexeme(lexeme, expected):
    assert classify_lexeme(lexeme) == expected


def test_classifier_is_total_and_single_valued():
    for lexeme in ["", "x", "1", "true", "2021-01-01"]:
        assert classify_lexeme(lexeme) in CLASSES


@pytest.mark.parametrize("a,b,expected", [
    ("integer", "number", "number"),
    ("number", "integer", "number"),
    ("date", "timestamp", "string"),
    ("boolean", "integer", "string"),
    ("boolean", "string", "string"),
    ("timestamp", "string", "string"),
    ("empty", "date", "date"),
    ("empty", "empty", "empty"),
])
def test_join_table(a, b, expected):
    assert join(a, b) == expected


def test_join_identity_and_idempotence():
    for c in CLASSES:
        assert join(c, c) == c
        assert join("empty", c) == c
        assert join(c, "empty") == c


def test_join_lattice_laws_exhaustive():
    for a, b in itertools.product(CLASSES, repeat=2):
        assert join(a, b) == join(b, a)
    for a, b, c in itertools.product(CLASSES, repeat=3):
        assert join(join(a, b), c) == join(a, join(b, c))


def test_join_all_folds():
    assert join_all([]) == "empty"
    assert join_all(["integer", "number", "integer"]) == "number"
    assert join_all(["integer", "date"]) == "string"


def test_conformance_is_lattice_order():
    assert is_subclass("integer", "number")
    assert not is_subclass("number", "integer")
    assert is_subclass("date", "string")
    assert is_subclass("timestamp", "string")
    assert not is_subclass("date", "timestamp")
    assert not is_subclass("timestamp", "date")
    for c in CLASSES:
        assert is_subclass(c, "string")
        assert is_subclass("empty", c)
        assert is_subclass(c, c)


@pytest.mark.parametrize("lexeme,expected", [
    ("-42", -42),
    ("007", 7),
    ("99999999999999999999999999", 99999999999999999999999999),
    ("3.5e2", 350.0),
    (".5", 0.5),
    ("7.", 7.0),
    ("1e400", math.inf),
    ("-1e400", -math.inf),
    ("9" * 5000, math.inf),  # past the int-string digit limit
    ("-" + "9" * 5000, -math.inf),
    ("", None),
    ("true", None),
    ("2021-03-04", None),
    ("nan", None),
    ("inf", None),
])
def test_number_of(lexeme, expected):
    assert number_of(lexeme) == expected


def test_number_of_reads_integers_as_int_and_numbers_as_float():
    assert type(number_of("7")) is int
    assert type(number_of("7.0")) is float
    assert type(number_of("9" * 5000)) is float


def test_class_runs_take_memory_for_one_chunk_only():
    """A run over many chunks is still one run, and memory does not grow with
    the column: one scan over all of it kept 16 MB of frames here."""
    lexemes = [str(i) for i in range(50_000)]
    tracemalloc.start()
    try:
        runs = class_runs(lexemes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runs == [("integer", 50_000)]
    assert peak < 250_000  # the column joined once is 0.3 MB
