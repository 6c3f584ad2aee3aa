"""The column-at-a-time classifier, readers and profiler against the reference
copies of the per-cell ones they replaced (``_reference_engine``).

The classifier must give the same class for every lexeme; the readers the
same rows; and ingest the same profile, byte for byte, including sample
and histogram order.
"""

import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_engine as reference
from contractforge.errors import IngestError
from contractforge.lexical import classify_lexeme
from contractforge.profiling import IngestOptions, dump_profile, ingest, read_table

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
