"""The column-at-a-time classifier, readers and profiler against the reference
copies of the per-cell ones they replaced (``_reference_engine``).

The classifier must give the same class for every lexeme, and so must the
column classifier (``class_runs``) for each lexeme of a column; both read
one grammar, so only the reference can catch a fault in it.  The readers
must give the same rows, and ingest the same profile, byte for byte,
including sample and histogram order.
"""

import csv
import datetime as dt
import io
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_engine as reference
from contractforge.errors import IngestError
from contractforge.expectations import evaluate_rules
from contractforge.lexical import CLASSES, class_runs, classify_lexeme
from contractforge.model import Constraints, Contract, FieldSpec, QualityRule
from contractforge.profiling import (IngestOptions, Table, dump_profile, ingest, profile_column,
                                     profile_table, read_table)
from contractforge.validation import validate_rows

HAND_LABELED = Path(__file__).parent / "data" / "hand_labeled"
TABLES = sorted(p.stem for p in HAND_LABELED.glob("*.csv"))


def derandomized(examples: int):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


# -- classifier ------------------------------------------------------------------

@pytest.mark.parametrize("lexeme", ["", "tRuE", "1.", ".5", "1e", "+", "-", "."])
def test_fixed_lexemes_match_reference(lexeme):
    assert classify_lexeme(lexeme) == reference.classify_lexeme(lexeme)


@derandomized(2000)
@given(st.text(alphabet="0123456789+-.eETZz:tTrRuUfFaAlLsS -x", max_size=24))
def test_lexemes_over_the_grammar_alphabet_match_reference(lexeme):
    assert classify_lexeme(lexeme) == reference.classify_lexeme(lexeme)


def test_every_short_lexeme_and_calendar_edge_matches_reference():
    """Every short string over the grammar's characters, and each year's
    February 28, 29 and 30, April 31 and December 31 as a date and as
    timestamps at the last second of the day and at hour 24."""
    lexemes = ["".join(chars) for alphabet, longest in
               (("09+-.eETZz:a", 4), ("0+-.eT:Z", 6), ("01-", 9))
               for size in range(longest + 1) for chars in itertools.product(alphabet, repeat=size)]
    lexemes += [f"{year:04d}-{day}{time}" for year in range(10_000)
                for day in ("02-28", "02-29", "02-30", "04-31", "12-31")
                for time in ("", "T23:59:59Z", "T24:00")]
    expected = list(map(reference.classify_lexeme, lexemes))
    assert list(map(classify_lexeme, lexemes)) == expected
    assert [cls for cls, k in class_runs(lexemes) for _ in range(k)] == expected


def edge_or(edges: list[int], top: int):
    """An integer on one of the ``edges`` of a field, or any in ``0..top``."""
    return st.sampled_from(edges) | st.integers(0, top)


@st.composite
def temporal(draw):
    """Dates and timestamps near every edge of the grammar and the calendar,
    or a truncation of one."""
    year, month, day = draw(st.one_of(
        st.tuples(edge_or([0, 1900, 2000, 2023, 2024], 9999), edge_or([0, 1, 2, 12, 13], 13),
                  edge_or([0, 1, 28, 29, 30, 31, 32], 32)),
        st.tuples(st.sampled_from([1900, 2000, 2023, 2024]), st.just(2),
                  st.integers(27, 30)),
    ))
    text = f"{year:04d}-{month:02d}-{day:02d}"
    if draw(st.booleans()):
        hour, minute = draw(edge_or([0, 23, 24, 25], 99)), draw(edge_or([0, 59, 60], 99))
        text += draw(st.sampled_from("TTTt ")) + f"{hour:02d}:{minute:02d}"
        if draw(st.booleans()):
            text += f":{draw(edge_or([0, 59, 60, 61], 99)):02d}"
            if draw(st.booleans()):
                text += "." + draw(st.text(alphabet="0123456789", max_size=4))
        text += draw(st.sampled_from(["", "Z", "z", "+05:30", "-0800", "+5:30", "+05:3", "Q"]))
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def test_dates_and_timestamps_match_reference():
    classes = set()

    @derandomized(1000)
    @given(temporal())
    def check(lexeme):
        assert classify_lexeme(lexeme) == reference.classify_lexeme(lexeme)
        classes.add(classify_lexeme(lexeme))

    check()
    assert classes == {"empty", "integer", "date", "timestamp", "string"}


# -- column classifier ----------------------------------------------------------

#: Lexemes at the edges of the grammar, and lexemes holding a newline.
EDGE_LEXEMES = ["", "+", "-", ".", "1.", ".5", "1e", "1e5", "-.5E-3", "tRuE", "FALSE", "falſe",
                "x", "12abc", " 1", "1 ", "007", "a\nb", "1\n", "\n", "true\n",
                # strings that start like a number
                "10.0.0.1", "1.2.3", "1..2", "+1 555 0100", "555-0100", "+1-555-0100",
                "1234-5678", "-1-2", "12 Main St", "3fa85f64", "10:30", "1:2.5", "2024-01-01-",
                "1e-5:", "2024-02-29T10:30", "T10:30", "e5", "Z"]


@st.composite
def calendar_edges(draw):
    """Dates on the edges of the calendar and timestamps on the edges of the
    clock: February 29 in leap and other years, year 0000, day 31 in
    30-day months, hour 24, minute and second 60, fractions and zones."""
    year = draw(st.sampled_from([0, 1, 1900, 2000, 2023, 2024, 9999]))
    month = draw(st.integers(1, 12))
    day = draw(st.sampled_from([1, 28, 29, 30, 31]))
    text = f"{year:04d}-{month:02d}-{day:02d}"
    if draw(st.booleans()):
        text += f"T{draw(st.sampled_from([0, 9, 23, 24])):02d}"
        text += f":{draw(st.sampled_from([0, 59, 60])):02d}"
        if draw(st.booleans()):
            text += f":{draw(st.sampled_from([0, 59, 60])):02d}"
            text += draw(st.sampled_from(["", ".5", ".123456"]))
        text += draw(st.sampled_from(["", "Z", "z", "+05:30", "-0800", "+0530"]))
    return text


LEXEMES = st.one_of(
    st.sampled_from(EDGE_LEXEMES), calendar_edges(), temporal(),
    st.integers(-10**20, 10**20).map(str), st.floats(allow_nan=False).map(repr),
    st.text(alphabet="0123456789+-.eETZz:tTrRuUfFaAlLsS x\n", max_size=12), st.text(max_size=4),
)


def _homogeneous(kind: str, start: int, length: int) -> list[str]:
    """``length`` distinct lexemes of one class, counting from ``start``."""
    start_at = dt.datetime(2000, 1, 1)
    make = {
        "integer": str,
        "number": lambda i: f"{i}.{i % 7}",
        "date": lambda i: f"{start_at + dt.timedelta(days=i):%Y-%m-%d}",
        "timestamp": lambda i: f"{start_at + dt.timedelta(minutes=97 * i):%Y-%m-%dT%H:%M}Z",
        "boolean": lambda i: ("true", "False", "TRUE", "false")[i % 4],
        "string": lambda i: f"w{i}",
        "address": lambda i: f"{i} Main St",
        "ip": lambda i: f"10.0.{i // 256 % 256}.{i % 256}",
        "phone": lambda i: f"555-{i:04d}",
    }[kind]
    return [make(start + i) for i in range(length)]


KINDS = ["integer", "number", "date", "timestamp", "boolean", "string", "address", "ip", "phone"]


@st.composite
def columns(draw) -> list[str]:
    """Stretches of mixed lexemes, long runs of one class, and long stretches
    whose class changes at every lexeme; the last two now and then broken by
    a single anomaly."""
    column: list[str] = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            column += draw(st.lists(LEXEMES, max_size=8))
            continue
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
        start, length = draw(st.integers(0, 3000)), draw(st.integers(1, 600))
        runs = [_homogeneous(kind, start, length) for kind in kinds]
        stretch = [lexeme for lexemes in zip(*runs) for lexeme in lexemes]
        if draw(st.booleans()):
            stretch.insert(draw(st.integers(0, len(stretch))), draw(LEXEMES))
        column += stretch
    return column


def test_class_runs_match_the_lexeme_classifier():
    seen = {"classes": set(), "newline": 0, "long runs": 0, "short runs": 0}

    @derandomized(400)
    @given(columns())
    def check(column):
        runs = class_runs(column)
        assert [cls for cls, k in runs for _ in range(k)] == list(map(classify_lexeme, column))
        assert [cls for cls, k in runs for _ in range(k)] \
            == list(map(reference.classify_lexeme, column))
        # Each run is a longest one: none is empty and no two neighbours share a class.
        assert all(k > 0 for _, k in runs)
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
        seen["classes"] |= {cls for cls, _ in runs}
        seen["newline"] += any("\n" in lexeme for lexeme in column)
        seen["long runs"] += any(k > 256 for _, k in runs)  # longer than one chunk
        seen["short runs"] += sum(k < 2 for _, k in runs) > 512  # a match per lexeme

    check()
    assert seen["classes"] == set(CLASSES) and seen["newline"] >= 20 \
        and seen["long runs"] >= 20 and seen["short runs"] >= 20, seen


def test_class_runs_across_chunks_of_short_runs():
    """Chunks of one-lexeme runs, where each scan match is one lexeme, then
    a chunk of long runs and more one-lexeme runs: the runs are the same."""
    kinds = ["integer", "string", "number", "date", "phone", "boolean", "timestamp"]
    alternating = [_homogeneous(kinds[i % 7], i, 1)[0] for i in range(700)]
    column = alternating + _homogeneous("date", 0, 900) + alternating[::-1] + ["x"] \
        + _homogeneous("ip", 0, 600)
    runs = class_runs(column)
    assert [cls for cls, k in runs for _ in range(k)] == list(map(classify_lexeme, column))
    assert ("date", 900) in runs and runs[-1] == ("string", 601)


def test_calendar_and_clock_edges_match_reference():
    """Every calendar and clock edge, in one column and each on its own."""
    dates = [f"{y:04d}-{m:02d}-{d:02d}" for y in (0, 1900, 2000, 2023, 2024)
             for m in range(1, 13) for d in (28, 29, 30, 31)]
    times = [f"{day}T{h:02d}:{mi:02d}{rest}" for day in ("2023-02-28", "2024-02-29", "2023-04-31")
             for h in (0, 23, 24) for mi in (0, 59, 60)
             for rest in ("", ":60", ":59.5Z", ":00+05:30", "-0800")]
    column = dates + times
    assert [cls for cls, k in class_runs(column) for _ in range(k)] \
        == list(map(reference.classify_lexeme, column))
    for lexeme in column:
        assert class_runs([lexeme]) == [(reference.classify_lexeme(lexeme), 1)]


@pytest.mark.parametrize("index, position", [(0, 0), (25, 1), (102, 3)],
                         ids=["first", "middle", "last"])
def test_profile_column_keeps_the_histogram_order_of_reference(index, position):
    """Nulls count as empty where first seen, also inside a run of one class."""
    cells = [str(i) for i in range(50)] + ["x", "y"] + [f"{i}.5" for i in range(50)]
    for nulls in ([None], [""], [None, ""], ["", None, None]):
        column = cells[:index] + nulls + cells[index:] + nulls
        live, ref = profile_column(column, "c", 5), reference.profile_column(column, "c", 5)
        assert json.dumps(live.to_doc()) == json.dumps(ref.to_doc())
        assert list(live.lexical_histogram)[position] == "empty"


# -- readers and profiles -------------------------------------------------------

def _both(data: bytes, source_format: str, options: IngestOptions | None = None):
    """(live, reference) outcomes of ``read_table`` and ``ingest``: their
    rows, the profile file text and the profile in its own key order (the
    file sorts histogram keys), or the error each raised."""
    def run(read, profile):
        try:
            rows = read(data, source_format, options)
            result = profile(data, source_format, options, dataset_name="t")
        except IngestError as exc:
            return "error", str(exc)
        return rows, dump_profile(result), json.dumps(result.to_doc())
    return run(read_table, ingest), run(reference.read_table, reference.ingest)


def _as_ndjson(data: bytes) -> bytes:
    """A delimited table as ndjson: numerals and booleans decoded, nulls
    absent on every other row, and the last column nested one level."""
    columns, rows = reference.read_table(data, "delimited")
    lines = []
    for index, row in enumerate(rows):
        obj = {}
        for name in columns[:-1]:
            cell = row[name]
            if cell is None:
                if index % 2 == 0:
                    obj[name] = None
                continue
            try:
                obj[name] = json.loads(cell) if cell.strip() == cell else cell
            except ValueError:
                obj[name] = cell
        obj["nested"] = {columns[-1]: row[columns[-1]]}
        lines.append(json.dumps(obj))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", TABLES)
def test_hand_labeled_table_profiles_match_reference(name):
    data = (HAND_LABELED / f"{name}.csv").read_bytes()
    for source, source_format in ((data, "delimited"), (_as_ndjson(data), "ndjson")):
        live, ref = _both(source, source_format)
        assert live[0] != "error"
        assert live == ref, (name, source_format)


def test_hand_labeled_ndjson_holds_decoded_values():
    assert len(TABLES) == 20
    kinds = set()
    for name in TABLES:
        for line in _as_ndjson((HAND_LABELED / f"{name}.csv").read_bytes()).splitlines():
            kinds |= {type(v).__name__ for v in json.loads(line).values()}
    assert {"int", "float", "bool", "str", "NoneType", "dict"} <= kinds


CELLS = st.one_of(
    st.sampled_from(["", "NA", "null", "1", "01", "1.0", "true", "TRUE", "x", " x",
                     "2021-03-04", "2021-02-30", "2021-03-04T05:06"]),
    st.text(max_size=3),
)
OPTIONS = st.builds(
    IngestOptions,
    value_cap=st.sampled_from([0, 1, 20]),
    row_cap=st.sampled_from([0, 3, 10]),
    flatten_depth=st.integers(0, 2),
    null_tokens=st.lists(st.sampled_from(["NA", "null", "x"]), max_size=2, unique=True),
)


@st.composite
def delimited_tables(draw) -> bytes:
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=30))
    out = io.StringIO()
    csv.writer(out).writerows([[f"c{i}" for i in range(width)], *rows])
    return out.getvalue().encode("utf-8")


VALUES = st.recursive(
    st.one_of(st.none(), CELLS, st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
              st.lists(st.integers(0, 2), max_size=2)),
    lambda inner: st.dictionaries(st.sampled_from(["a", "b", " a"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def ndjson_tables(draw) -> bytes:
    keys = st.sampled_from(["id", "v", "w", " v", "n"])
    objects = draw(st.lists(st.dictionaries(keys, VALUES, max_size=4), min_size=1, max_size=30))
    return "".join(json.dumps(obj) + "\n" for obj in objects).encode("utf-8")


def test_random_tables_match_reference():
    seen = {"delimited": 0, "ndjson": 0, "error": 0, "nulls": 0, "repeats": 0}

    @derandomized(250)
    @given(source=st.one_of(delimited_tables().map(lambda d: (d, "delimited")),
                            ndjson_tables().map(lambda d: (d, "ndjson"))),
           options=OPTIONS)
    def check(source, options):
        data, source_format = source
        live, ref = _both(data, source_format, options)
        assert live == ref
        if live[0] == "error":
            seen["error"] += 1
            return
        seen[source_format] += 1
        for column in json.loads(live[1])["columns"]:
            seen["nulls"] += column["null_count"] > 0
            seen["repeats"] += column["distinct_count"] + column["null_count"] \
                < column["total_count"]

    check()
    assert all(count >= 20 for count in seen.values()), seen


# -- ndjson: the engine on the reader's table ------------------------------------

LIVE = SimpleNamespace(read_table=read_table, ingest=ingest, validate_rows=validate_rows,
                       evaluate_rules=evaluate_rules)
RULE_KINDS = [("not_null", {}), ("unique", {}), ("between", {"min": 0, "max": 2}),
              ("matches_format", {"format": "date"})]


def _enforced(data: bytes, contract: Contract, options: IngestOptions | None = None):
    """(live, reference) outcomes of reading ndjson ``data`` and enforcing
    ``contract`` and a rule of every kind per field on it: the rows and
    their key order, the profile and its sample rows' key order, both
    validation reports and the rule results; or the error each raised."""
    rules = [QualityRule(kind, spec.name, params, "warning")
             for spec in contract.fields for kind, params in RULE_KINDS]

    def run(engine):
        try:
            columns, rows = engine.read_table(data, "ndjson", options)
            profile = engine.ingest(data, "ndjson", options, dataset_name="t")
        except IngestError as exc:
            return "error", str(exc)
        return (columns, list(rows), [list(row) for row in rows], dump_profile(profile),
                [list(row) for row in profile.sample_rows],
                [engine.validate_rows(contract, rows, allow).to_doc() for allow in (False, True)],
                [result.to_doc() for result in engine.evaluate_rules(rules, rows)])
    return run(LIVE), run(reference)


def _contract(*fields: tuple) -> Contract:
    contract = Contract("t", [FieldSpec(*field) for field in fields])
    contract.validate()
    return contract


def test_ndjson_rows_keep_their_key_order():
    """Unknown-field violations and sample rows follow each line's own key
    order, also where it differs from the first-seen column order."""
    data = (b'{"a":"1","b":"x","z":"u"}\n{"q":1,"z":2,"a":"x"}\n'
            b'{"b":null,"a":2}\n{"z":null,"b":"y","q":[1]}\n')
    live, ref = _enforced(data, _contract(("a", "integer", False), ("b", "string", False)))
    assert live == ref
    assert live[2] == [["a", "b", "z"], ["q", "z", "a"], ["b", "a"], ["z", "b", "q"]]
    assert live[4] == live[2]
    unknown = [(v["row_index"], v["field_name"]) for v in live[5][0]["violations"]
               if v["kind"] == "unknown_field"]
    assert unknown == [(0, "z"), (1, "q"), (1, "z"), (3, "z"), (3, "q")]


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_ndjson_nested_objects_match_reference(depth):
    data = (b'{"a":{"b":{"c":1}},"d":{},"e":{"f":"x"}}\n'
            b'{"e":{"f":null},"a":{"b":2}}\n{"a":{"b":{"c":"3","g":true}}}\n')
    contract = _contract(("a", "string", False), ("a.b", "integer", True),
                         ("a.b.c", "integer", False), ("d", "string", True), ("e.f", "string", False))
    live, ref = _enforced(data, contract, IngestOptions(flatten_depth=depth))
    assert live[0] != "error"
    assert live == ref


def test_ndjson_keys_that_need_stripping_match_reference():
    data = b'{" a ":"1","b":"2"}\n{"a":"x","b ":null}\n{"b":"3"," c":{" d":4}}\n'
    contract = _contract(("a", "integer", False), ("b", "integer", True),
                         ("c.d", "integer", True))
    live, ref = _enforced(data, contract)
    assert live[0] == ["a", "b", "c.d"]
    assert live == ref


def test_ndjson_lines_with_outer_whitespace_match_reference():
    data = b' {"a":"1"}\n{"a":2}\t\n\t{"a":{"b":3}} \n{"a":4}\r\n'
    live, ref = _enforced(data, _contract(("a", "integer", True), ("a.b", "integer", True)))
    assert live[0] == ["a", "a.b"]
    assert live == ref


@pytest.mark.parametrize("data, message", [
    (b'{"a":1," a":2}\n', "line 1: duplicate key 'a'"),
    (b'{"a":1}\n{"a.b":1,"a":{"b":2}}\n', "line 2: duplicate key 'a.b'"),
    (b'{"a":{"b":1},"a.b ":2}\n', "line 1: duplicate key 'a.b'"),
    (b'{"a":1}\n\n{"b":1,"b ":2}\nnot json\n', "line 3: duplicate key 'b'"),
    (b'{"a":1}\n{"a":1}x\n{"a ":1,"a":2}\n', "ndjson line 2: Extra data"),
], ids=["stripped", "flattened", "flattened-then-stripped", "before-a-bad-line",
        "after-a-bad-line"])
def test_ndjson_duplicate_keys_are_the_reference_errors(data, message):
    live, ref = _enforced(data, _contract(("a", "string", True)))
    assert live == ref
    assert live[0] == "error" and message in live[1]


FIELD_KINDS = st.sampled_from([
    ("string", None), ("integer", None), ("number", Constraints(min_value=-1, max_value=1)),
    ("boolean", None), ("enum_string", Constraints(allowed_values=["1", "x"])),
])


@st.composite
def ndjson_contracts(draw, names=("id", "v", "w", "n", "v.a", "w.b", "v.a.b")) -> Contract:
    names = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    kinds = [draw(FIELD_KINDS) for _ in names]
    return _contract(*((name, kind, draw(st.booleans()), constraints)
                       for name, (kind, constraints) in zip(names, kinds)))


@st.composite
def reordered_ndjson_tables(draw) -> bytes:
    """Lines holding any keys in any order, now and then one to be stripped."""
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        keys = draw(st.permutations(["id", "v", "w", "n", "z"]))[:draw(st.integers(0, 5))]
        obj = {(f" {key}" if draw(st.integers(0, 9)) == 0 else key): draw(VALUES) for key in keys}
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines).encode("utf-8")


def test_random_ndjson_enforcement_matches_reference():
    seen = {"tables": 0, "error": 0, "violations": 0, "reordered": 0}

    @derandomized(150)
    @given(data=ndjson_tables() | reordered_ndjson_tables(), options=OPTIONS,
           contract=ndjson_contracts())
    def check(data, options, contract):
        live, ref = _enforced(data, contract, options)
        assert live == ref
        if live[0] == "error":
            seen["error"] += 1
            return
        seen["tables"] += 1
        seen["violations"] += bool(live[5][0]["violations"])
        first_seen = live[0]
        seen["reordered"] += any(keys != sorted(keys, key=first_seen.index) for keys in live[2])

    check()
    assert all(count >= 20 for count in seen.values()), seen


# -- one table: profiled, validated and checked by rules -----------------------------

def _documents(contract: Contract, rows) -> tuple:
    rules = [QualityRule(kind, spec.name, params, "warning")
             for spec in contract.fields for kind, params in RULE_KINDS]
    return ([validate_rows(contract, rows, allow).to_doc() for allow in (False, True)],
            [result.to_doc() for result in evaluate_rules(rules, rows)])


def test_a_table_profiles_as_its_source_ingests():
    """``profile_table`` reads the column summaries a table keeps: whether
    validation and rules read the table before it, after it or not at all,
    its profile is the ``ingest`` of the table's source, and their documents
    are those of the table's rows."""
    seen = {"before": 0, "after": 0, "never": 0, "error": 0}

    @derandomized(150)
    @given(source=st.one_of(delimited_tables().map(lambda d: (d, "delimited")),
                            (ndjson_tables() | reordered_ndjson_tables())
                            .map(lambda d: (d, "ndjson"))),
           options=OPTIONS, contract=ndjson_contracts(("id", "v", "w", "n", "c0", "c1", "c2")),
           order=st.sampled_from(["before", "after", "never"]))
    def check(source, options, contract, order):
        data, source_format = source
        try:
            expected = dump_profile(ingest(data, source_format, options, dataset_name="t"))
        except IngestError:
            seen["error"] += 1
            return
        _, table = read_table(data, source_format, options)
        documents = _documents(contract, list(table))
        if order == "before":
            assert _documents(contract, table) == documents
        assert dump_profile(profile_table(table, source_format, options, "t")) == expected
        if order == "after":
            assert _documents(contract, table) == documents
        seen[order] += 1

    check()
    assert all(count >= 15 for count in seen.values()), seen


FLAT_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(st.sampled_from(["a", " ", "{", '"', "\r", "\n", "\x1c", "\x85", "\u2028", "\u2029"])
            | st.characters(), max_size=4),
)


def test_flat_ndjson_reads_as_the_table_of_its_rows():
    """Any flat rows written one per line with raw non-ASCII, line and
    paragraph separators included, read as ``Table.from_rows`` of the rows."""
    keys = st.text(max_size=3).filter(lambda key: key == key.strip())

    @derandomized(200)
    @given(rows=st.lists(st.dictionaries(keys, FLAT_VALUES, max_size=4), min_size=1, max_size=8))
    def check(rows):
        data = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        columns, table = read_table(data.encode("utf-8"), "ndjson")
        expected = Table.from_rows(rows)
        assert columns == list(expected.columns)
        assert [list(row.items()) for row in table] == [list(row.items()) for row in expected]

    check()
