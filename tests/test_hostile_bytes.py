"""Hostile bytes through every reader and the engine: bytes over a small
alphabet of the characters readers trip on (delimiters, quotes, every line
break, braces, brackets, NUL, invalid UTF-8, huge and overflowing numerals)
are read and run through profiling, inference, validation, rules, drift and
generation, or refused with a ``ContractForgeError``, in both formats.  Only
that error may escape."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from contractforge.backends import OracleBackend
from contractforge.errors import ContractForgeError
from contractforge.expectations import evaluate_rules, synthesize_rules
from contractforge.generation import generate_contract
from contractforge.inference import infer_contract
from contractforge.profiling import SOURCE_FORMATS, profile_table, read_table
from contractforge.validation import detect_drift, failing_rows, validate_rows

TOKENS = [b",", b'"', b"\r", b"\n", "\u2028".encode(), "\u0085".encode(), b"{", b"}",
          b"[", b"]", b"\x00", b"1" * 30, b"1e999", b"a", b"1", b":", b" "]
SOUP = st.lists(st.sampled_from(TOKENS), max_size=40).map(b"".join)
#: Soup broken by bytes that are not UTF-8: a stray byte, a cut sequence, a surrogate.
BROKEN = st.tuples(SOUP, st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]), SOUP).map(b"".join)
#: An ndjson value: hostile text as a JSON string, or a hostile literal.
VALUES = st.one_of(
    SOUP.map(lambda soup: json.dumps(soup.decode(), ensure_ascii=False).encode()),
    st.sampled_from([b"1" * 30, b"1e999", b"-1e999", b"null", b"true", b"1.5", b"{}", b"[]",
                     b'{"x": [1e999]}']))
#: Lines of ndjson objects over the keys ``a``, ``b`` and ``c``, and a
#: quoted CSV of three columns, so that the soup also reaches the engine
#: past the readers.
NDJSON_ROWS = st.lists(st.lists(VALUES, min_size=1, max_size=3), min_size=1, max_size=6).map(
    lambda rows: b"".join(b"{" + b", ".join(b'"%c": %s' % (97 + i, v) for i, v in enumerate(row))
                          + b"}\n" for row in rows))
CSV_ROWS = st.lists(st.lists(SOUP, min_size=3, max_size=3), min_size=1, max_size=6).map(
    lambda rows: b"a,b,c\n" + b"".join(
        b",".join(b'"' + cell.replace(b'"', b'""') + b'"' for cell in row) + b"\n" for row in rows))


@settings(max_examples=350, deadline=None, derandomize=True, database=None)
@given(st.one_of(SOUP, BROKEN, NDJSON_ROWS, CSV_ROWS), st.sampled_from(SOURCE_FORMATS))
def test_hostile_bytes_are_read_or_refused(data, source_format):
    try:
        _, table = read_table(data, source_format)
        profile = profile_table(table, source_format, dataset_name="hostile")
        contract = infer_contract(profile)
        validate_rows(contract, table)
        failing_rows(contract, table)
        evaluate_rules(synthesize_rules(profile, contract.fields), table)
        detect_drift(contract, profile)
        generate_contract(profile, OracleBackend())
    except ContractForgeError:
        pass
