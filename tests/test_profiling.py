"""Ingest and column profiling over delimited and ndjson sources."""

import io
import json
from collections.abc import Sequence

import pytest

from contractforge import profiling
from contractforge.errors import IngestError
from contractforge.expectations import evaluate_rules
from contractforge.lexical import class_runs
from contractforge.model import Contract, FieldSpec, QualityRule
from contractforge.profiling import (ABSENT, IngestOptions, Table, dump_profile, ingest,
                                     load_profile, profile_column, profile_table, read_table)
from contractforge.validation import validate_rows
from conftest import csv_bytes, profile_of


class TestDelimited:
    def test_header_only_gives_zero_row_profile(self):
        profile = ingest(b"id,price\n", "delimited")
        assert [c.name for c in profile.columns] == ["id", "price"]
        assert profile.row_count == 0
        for column in profile.columns:
            assert column.total_count == 0
            assert column.null_count == 0
            assert column.distinct_count == 0

    def test_two_row_fixture_counts(self, toy_profile):
        id_col = toy_profile.column("id")
        price = toy_profile.column("price")
        assert id_col.total_count == 2 and id_col.null_count == 0
        assert price.total_count == 2 and price.null_count == 1
        assert price.lexical_histogram == {"number": 1, "empty": 1}

    def test_empty_stream_is_an_error(self):
        with pytest.raises(IngestError, match="no data"):
            ingest(b"", "delimited")
        with pytest.raises(IngestError, match="no data"):
            ingest(b"   \n", "ndjson")

    def test_ragged_row_names_first_bad_line(self):
        data = b"a,b\n1,2\n1,2,3\n4\n"
        with pytest.raises(IngestError, match=r"line 3.*expected 2 cells, got 3"):
            ingest(data, "delimited")

    def test_duplicate_header_after_trim_rejected(self):
        with pytest.raises(IngestError, match="duplicate column"):
            ingest(b"id, id\n1,2\n", "delimited")

    def test_custom_delimiter(self):
        profile = ingest(b"a;b\n1;2\n", "delimited", IngestOptions(delimiter=";"))
        assert profile.column_names() == ["a", "b"]
        assert profile.column("a").sample_values == ["1"]

    def test_bad_delimiter_rejected(self):
        with pytest.raises(IngestError, match="delimiter"):
            ingest(b"a,b\n1,2\n", "delimited", IngestOptions(delimiter="ab"))

    def test_null_tokens_option(self):
        data = csv_bytes(["v", "w"], [["NA", "1"], ["1", "2"], ["", "3"]])
        default = ingest(data, "delimited")
        assert default.column("v").null_count == 1  # only the empty cell
        custom = ingest(data, "delimited", IngestOptions(null_tokens=["NA"]))
        assert custom.column("v").null_count == 2

    def test_line_ends(self):
        rows = [{"a": "1", "b": "x\ry"}, {"a": "2", "b": "p\r\nq"}]
        for data in (b'a,b\r\n1,"x\ry"\r\n2,"p\r\nq"\r\n', b'a,b\r1,"x\ry"\r2,"p\r\nq"\r',
                     b'a,b\n1,"x\ry"\n2,"p\r\nq"'):
            assert read_table(data, "delimited") == (["a", "b"], rows)
        with pytest.raises(IngestError, match=r"ragged row 1 \(line 2\)"):
            read_table(b"a,b\n1\r2,3\n", "delimited")

    def test_a_field_past_the_csv_limit_is_an_ingest_error(self):
        with pytest.raises(IngestError, match="line 3: field larger than field limit"):
            read_table(b"a\n1\n" + b"x" * 200_000 + b"\n", "delimited")

    def test_quoted_cells_can_hold_delimiters(self):
        profile = ingest(b'a,b\n"1,5",x\n', "delimited")
        assert profile.column("a").sample_values == ["1,5"]

    def test_columns_in_first_seen_order(self):
        profile = profile_of(["z", "a", "m"], [["1", "2", "3"]])
        assert profile.column_names() == ["z", "a", "m"]


class TestNdjson:
    def test_flatten_depth_one(self):
        profile = ingest(b'{"a":{"b":1}}\n', "ndjson")
        assert profile.column_names() == ["a.b"]
        assert profile.column("a.b").sample_values == ["1"]

    def test_deeper_structure_serializes_to_one_lexeme(self):
        profile = ingest(b'{"a":{"b":{"c":1}}}\n', "ndjson")
        assert profile.column_names() == ["a.b"]
        assert profile.column("a.b").sample_values == ['{"c":1}']

    def test_flatten_depth_two(self):
        profile = ingest(b'{"a":{"b":{"c":1}}}\n', "ndjson",
                         IngestOptions(flatten_depth=2))
        assert profile.column_names() == ["a.b.c"]

    def test_malformed_line_names_line_number(self):
        with pytest.raises(IngestError, match="line 2"):
            ingest(b'{"a":1}\nnot json\n', "ndjson")
        with pytest.raises(IngestError, match=r"line 3: Expecting value: line 1 column 6 \(char 5\)"):
            ingest(b'{"a":1}\r\n\r\n{"a":\r\n', "ndjson")

    def test_lines_end_only_at_line_feeds(self):
        text = '{"id": 1, "note": "a\u2028b\u2029c\x85d"}\r\n{"id": 2}\n'
        profile = ingest(text.encode("utf-8"), "ndjson")
        assert profile.row_count == 2
        assert profile.column("note").sample_values == ["a\u2028b\u2029c\x85d"]

    def test_integer_past_the_digit_limit_is_an_ingest_error(self):
        with pytest.raises(IngestError, match="line 2: integer literal too long"):
            ingest(b'{"a":1}\n{"a":' + b"9" * 5000 + b'}\n', "ndjson")

    def test_nesting_too_deep_is_an_ingest_error(self):
        with pytest.raises(IngestError, match="line 2: nesting too deep"):
            ingest(b'{"a":1}\n' + b"[" * 100_000 + b"\n", "ndjson")

    def test_non_object_line_rejected(self):
        with pytest.raises(IngestError, match="line 1.*not a JSON object"):
            ingest(b"[1,2]\n", "ndjson")

    def test_explicit_null_and_missing_key_count_as_null(self):
        profile = ingest(b'{"a":1,"b":null}\n{"a":2}\n', "ndjson")
        b = profile.column("b")
        assert b.total_count == 2
        assert b.null_count == 2

    def test_native_values_become_lexemes(self):
        profile = ingest(b'{"n":2.5,"f":true,"s":"x","arr":[1,2]}\n', "ndjson")
        assert profile.column("n").sample_values == ["2.5"]
        assert profile.column("f").sample_values == ["true"]
        assert profile.column("arr").sample_values == ["[1,2]"]

    def test_blank_lines_skipped(self):
        profile = ingest(b'{"a":1}\n\n{"a":2}\n', "ndjson")
        assert profile.row_count == 2

    def test_duplicate_key_after_trim_rejected(self):
        with pytest.raises(IngestError, match="duplicate key"):
            ingest(b'{"a": 1, " a": 2}\n', "ndjson")


class TestProfileColumn:
    def test_empty_list_all_zero(self):
        column = profile_column([])
        assert (column.total_count, column.null_count, column.distinct_count) == (0, 0, 0)
        assert column.sample_values == []
        assert column.lexical_histogram == {}

    def test_boolean_counts(self):
        column = profile_column(["true", "false", "true"])
        assert column.lexical_histogram == {"boolean": 3}
        assert column.distinct_count == 2

    def test_mixed_classes(self):
        column = profile_column(["1", "x"])
        assert column.lexical_histogram == {"integer": 1, "string": 1}
        # Non-text cells are read as lexemes, as ``Table.from_rows`` reads them.
        column = profile_column([1, 2, 2.5, True, 1.0, None, [1]])
        assert column == profile_column(["1", "2", "2.5", "true", "1.0", None, "[1]"])
        assert column.lexical_histogram == {"integer": 2, "number": 2, "boolean": 1,
                                            "empty": 1, "string": 1}

    def test_histogram_sums_to_total(self):
        column = profile_column(["1", None, "x", "", "2.5"])
        assert sum(column.lexical_histogram.values()) == column.total_count == 5
        assert column.null_count == 2

    def test_sample_keeps_first_distinct_up_to_cap(self):
        values = ["a", "a", "b", "a", "c", "d"]
        column = profile_column(values, value_cap=3)
        assert column.sample_values == ["a", "b", "c"]
        assert column.distinct_count == 4


class TestProfileInvariants:
    def test_null_sum_bounded(self, status_profile):
        total_nulls = sum(c.null_count for c in status_profile.columns)
        assert total_nulls <= status_profile.row_count * len(status_profile.columns)

    def test_ingest_deterministic(self):
        data = csv_bytes(["a", "b"], [["1", "x"], ["2", "y"]])
        first = ingest(data, "delimited")
        second = ingest(data, "delimited")
        assert dump_profile(first) == dump_profile(second)

    def test_round_trip_byte_exact(self, status_profile):
        text = dump_profile(status_profile)
        again = load_profile(text)
        assert dump_profile(again) == text
        assert again == status_profile

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: "[" * 100_000, "profile: nesting too deep"),
        (lambda doc: json.dumps(doc).replace('"row_count": 30', '"row_count": ' + "9" * 5000),
         "profile: integer literal too long"),
        (lambda doc: "[]", "profile must be a JSON object"),
        (lambda doc: "{}", "lacks key 'dataset_name'"),
        (lambda doc: json.dumps({**doc, "row_count": "30"}), "'row_count' must be int"),
        (lambda doc: json.dumps({**doc, "columns": 5}), "'columns' must be list of dict"),
        (lambda doc: json.dumps({**doc, "columns": [
            {**doc["columns"][0], "lexical_histogram": {"integer": "x"}}]}),
         "'lexical_histogram' must be dict of int"),
        (lambda doc: json.dumps({**doc, "sample_rows": [{"id": 1}]}), "strings and nulls"),
        (lambda doc: json.dumps({**doc, "columns": [{**doc["columns"][0], "name": "id "}]}),
         "column name 'id ' has leading or trailing whitespace"),
        (lambda doc: json.dumps({**doc, "columns": [*doc["columns"], doc["columns"][0]]}),
         "profile repeats column name 'id'"),
    ], ids=["too-deep", "long-integer", "array", "empty", "row-count-text",
            "columns-int", "histogram-text", "sample-row-int", "column-name-padded",
            "column-name-repeated"])
    def test_unreadable_profile_is_an_ingest_error(self, status_profile, edit, message):
        with pytest.raises(IngestError, match=message):
            load_profile(edit(status_profile.to_doc()))

    def test_sample_rows_capped_and_nulls_normalized(self):
        rows = [[str(i), ""] for i in range(15)]
        profile = profile_of(["a", "b"], rows)
        assert len(profile.sample_rows) == 10
        assert profile.sample_rows[0] == {"a": "0", "b": None}

    def test_all_columns_count_every_row(self, status_profile):
        for column in status_profile.columns:
            assert column.total_count == status_profile.row_count


def test_read_table_returns_all_rows():
    data = csv_bytes(["a"], [[str(i)] for i in range(25)])
    columns, rows = read_table(data, "delimited")
    assert columns == ["a"]
    assert len(rows) == 25


def test_read_table_accepts_binary_handles():
    data = csv_bytes(["a"], [["1"]])
    columns, rows = read_table(io.BytesIO(data), "delimited")
    assert rows == [{"a": "1"}]


@pytest.mark.parametrize("wrap", [lambda text: text, io.StringIO], ids=["str", "text-handle"])
def test_text_is_read_as_it_is(wrap):
    """Text is not encoded and decoded again, so a lone surrogate stays a cell."""
    columns, rows = read_table(wrap("a\n\ud800\n"), "delimited")
    assert rows == [{"a": "\ud800"}]


def test_unknown_format_rejected():
    with pytest.raises(IngestError, match="unknown source format"):
        read_table(b"a\n1\n", "parquet")


def test_invalid_utf8_rejected():
    with pytest.raises(IngestError, match="UTF-8"):
        ingest(b"a,b\n\xff\xfe,2\n", "delimited")


@pytest.mark.parametrize("options, message", [
    (IngestOptions(value_cap=-1), "value_cap must be a non-negative integer"),
    (IngestOptions(row_cap=-1), "row_cap must be a non-negative integer"),
    (IngestOptions(value_cap=-1, row_cap=-1), "value_cap"),
    (IngestOptions(flatten_depth=-1), "flatten_depth must be a non-negative integer"),
    (IngestOptions(value_cap=2.5), "value_cap"),
    (IngestOptions(row_cap=True), "row_cap"),
    (IngestOptions(null_tokens=[None]), "null_tokens must be a list of strings"),
    (IngestOptions(null_tokens="NA"), "null_tokens must be a list of strings"),
])
def test_bad_options_are_ingest_errors(options, message):
    for call in (read_table, ingest):
        with pytest.raises(IngestError, match=message):
            call(b"a\n1\n2\n3\n", "delimited", options)
    if message.startswith("value_cap"):
        with pytest.raises(IngestError, match=message):
            profile_column(["1", "2", "3"], "a", options.value_cap)


class TestTable:
    NDJSON = b'{"a":"1","b":"x"}\n{"c":2,"a":null}\n{}\n'
    ROWS = [{"a": "1", "b": "x"}, {"c": "2", "a": None}, {}]

    def test_a_sequence_of_row_dicts(self):
        columns, table = read_table(self.NDJSON, "ndjson")
        assert columns == ["a", "b", "c"] and isinstance(table, Sequence)
        assert len(table) == 3
        assert list(table) == self.ROWS
        assert table == self.ROWS and self.ROWS == table and table == table
        assert table != self.ROWS[:2] and table != [*self.ROWS[:2], {"a": None}]
        assert table != tuple(self.ROWS)
        assert table[1] == table[-2] == self.ROWS[1]
        assert table[:2] == self.ROWS[:2] and table[::-1] == self.ROWS[::-1]
        with pytest.raises(IndexError):
            table[3]
        with pytest.raises(IndexError):
            table[-4]

    def test_rows_keep_their_own_key_order_and_lack_absent_keys(self):
        _, table = read_table(self.NDJSON, "ndjson")
        assert [list(row) for row in table] == [["a", "b"], ["c", "a"], []]
        assert sum(len(row) for row in table) == 4
        assert table.column("b") == ("x", ABSENT, ABSENT)
        assert table.column("nope") == (ABSENT,) * 3

    def test_delimited_columns_and_a_header_only_table(self):
        columns, table = read_table(b"a,b\n1,\n\n3,4\n", "delimited")
        assert columns == ["a", "b"] and table == [{"a": "1", "b": None}, {"a": "3", "b": "4"}]
        assert table.column("b") == (None, "4")
        columns, table = read_table(b"a,b\n", "delimited")
        assert columns == ["a", "b"] and len(table) == 0 and table == []
        assert table.column("a") == ()

    def test_from_rows_reads_values_as_lexemes(self):
        table = Table.from_rows([{"n": 1, "f": True}, {"f": 1.0, "n": None, "l": [1]}])
        assert [list(row) for row in table] == [["n", "f"], ["f", "n", "l"]]
        assert table == [{"n": "1", "f": "true"}, {"f": "1.0", "n": None, "l": "[1]"}]
        assert Table.from_rows(table) is table

    def test_a_column_summary_is_computed_once(self):
        _, table = read_table(b"a\n1\nx\n1\n\"\"\n", "delimited")
        assert list(table.tally("a").items()) == [("1", 2), ("x", 1), (None, 1)]
        assert table.runs("a") == [("integer", 1), ("string", 1), ("empty", 1)]
        assert table.tally("a") is table.tally("a")
        assert table.runs("a") is table.runs("a")
        assert table.tally("nope") == {ABSENT: 4} and table.runs("nope") == [("empty", 1)]

    def test_profiling_validation_and_rules_share_the_summary(self, monkeypatch):
        scanned = []

        def spy(lexemes):
            scanned.append(list(lexemes))
            return class_runs(lexemes)
        monkeypatch.setattr(profiling, "class_runs", spy)
        data = b"a,b\n1,x\n2,\n"
        _, table = read_table(data, "delimited")
        contract = Contract("t", [FieldSpec("a", "integer", False), FieldSpec("b", "string", True)])
        validate_rows(contract, table)
        evaluate_rules([QualityRule("between", "a", {"min": 0, "max": 1})], table)
        assert scanned == [["1", "2"]]
        profile = profile_table(table, "delimited")
        assert scanned == [["1", "2"], ["x", ""]]
        assert dump_profile(profile) == dump_profile(ingest(data, "delimited"))
