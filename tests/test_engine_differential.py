"""The shared enforcement engine against the reference copy of the two
per-value engines it replaced (``_reference_engine``).

Row validation and rule evaluation must produce the same reports, byte for
byte, on the hand-labeled corpus and on random tables.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_engine as reference
from _builders import ENUM_POOL, FIELD_NAMES, random_contract
from contractforge.expectations import evaluate_rules, synthesize_rules
from contractforge.inference import infer_contract
from contractforge.lexical import CLASSES
from contractforge.model import Constraints, Contract, FieldSpec, QualityRule, parse_contract
from contractforge.profiling import Table, ingest, read_table
from contractforge.validation import failing_cells, failing_rows, validate_rows

HAND_LABELED = Path(__file__).parent / "data" / "hand_labeled"
TABLES = sorted(p.stem for p in HAND_LABELED.glob("*.csv"))


def _both(contract, rules, rows, allow_unknown):
    """(live, reference) documents for one validation and one rule run."""
    live = (validate_rows(contract, rows, allow_unknown).to_doc(),
            [r.to_doc() for r in evaluate_rules(rules, rows)])
    ref = (reference.validate_rows(contract, rows, allow_unknown).to_doc(),
           [r.to_doc() for r in reference.evaluate_rules(rules, rows)])
    return live, ref


def _batches(name):
    """A table's profile, and three row batches to check it on: its own rows,
    the next table's rows (missing and unknown fields), and the next table's
    rows renamed column by column onto this table (type, enum and range)."""
    data = (HAND_LABELED / f"{name}.csv").read_bytes()
    profile = ingest(data, "delimited", dataset_name=name)
    other = TABLES[(TABLES.index(name) + 1) % len(TABLES)]
    _, other_rows = read_table((HAND_LABELED / f"{other}.csv").read_bytes(), "delimited")
    renamed = [dict(zip(profile.column_names(), row.values())) for row in other_rows]
    return profile, [read_table(data, "delimited")[1], other_rows, renamed]


@pytest.mark.parametrize("name", TABLES)
def test_hand_labeled_table_matches_reference(name):
    profile, batches = _batches(name)
    truth = parse_contract((HAND_LABELED / f"{name}.truth.json").read_text())
    for contract in (truth, infer_contract(profile)):
        rules = synthesize_rules(profile, contract.fields)
        for batch in batches:
            for allow_unknown in (False, True):
                live, ref = _both(contract, rules, batch, allow_unknown)
                assert live == ref, (name, contract.provenance, allow_unknown)


def test_corpus_comparison_is_not_vacuous():
    assert len(TABLES) == 20
    kinds, failing_rules = set(), set()
    for name in TABLES:
        profile, batches = _batches(name)
        contract = infer_contract(profile)
        for batch in batches:
            kinds |= {v.kind for v in validate_rows(contract, batch).violations}
            failing_rules |= {r.rule.kind for r in
                              evaluate_rules(synthesize_rules(profile, contract.fields), batch)
                              if not r.passed}
    assert kinds == {"type_mismatch", "null_violation", "enum_violation", "range_violation",
                     "missing_field", "unknown_field"}
    assert failing_rules == {"not_null", "values_in_set", "between", "matches_format", "unique"}


COLUMNS = st.sampled_from(FIELD_NAMES + ["extra"])
LEXEMES = ["", "true", "FALSE", "0", "7", "-3", "12", "007", "2.5", "-0.5", "1e3",
           ".5", "7.", "2021-03-04", "2021-02-30", "2021-03-04T05:06:07Z",
           "2021-03-04T25:00", "txt", " 7", "null"]
VALUES = st.one_of(
    st.none(),
    st.sampled_from(LEXEMES + ENUM_POOL),
    st.booleans(),  # decoded ndjson values from here on
    st.integers(-20, 20),
    st.integers(),
    st.floats(-20, 20),
    st.floats(),
    st.lists(st.integers(0, 3), max_size=2),
    st.text(max_size=3),
)
ROWS = st.lists(st.dictionaries(COLUMNS | st.just("unknown"), VALUES, max_size=8),
                max_size=8)
#: Cells one dict key apart (``True``, ``1``, ``1.0``) or unhashable (a list)
#: until they are read as lexemes, with the text ``"1"`` and an absent key.
ABSENT = object()
COLLIDING = [True, 1, 1.0, "1", [1], ABSENT]


@st.composite
def rows_with_collisions(draw):
    """``ROWS``, where half the time one column holds every colliding cell."""
    rows = [dict(row) for row in draw(ROWS)]
    if draw(st.booleans()):
        column = draw(COLUMNS)
        cells = draw(st.permutations(COLLIDING)) + draw(st.lists(st.sampled_from(COLLIDING),
                                                                 max_size=3))
        rows += [{} for _ in range(len(cells) - len(rows))]
        for row, cell in zip(rows, cells):
            row.pop(column, None)
            if cell is not ABSENT:
                row[column] = cell
    return rows


def _colliding_columns(rows) -> set[str]:
    out = set()
    for name in {key for row in rows for key in row}:
        cells = {repr(row[name]) if name in row else "absent" for row in rows}
        if {"True", "1", "1.0", "'1'", "[1]", "absent"} <= cells:
            out.add(name)
    return out


BOUNDS = st.integers(-10, 10) | st.floats(-10, 10)
RULES = st.lists(st.one_of(
    st.builds(lambda c: QualityRule("not_null", c), COLUMNS),
    st.builds(lambda c: QualityRule("unique", c, {}, "warning"), COLUMNS),
    st.builds(lambda c, v: QualityRule("values_in_set", c, {"values": v}), COLUMNS,
              st.lists(st.sampled_from(ENUM_POOL + ["7", "true", "2.5"]),
                       min_size=1, max_size=3, unique=True)),
    st.builds(lambda c, a, b: QualityRule("between", c, {"min": min(a, b), "max": max(a, b)},
                                          "warning"), COLUMNS, BOUNDS, BOUNDS),
    st.builds(lambda c, f: QualityRule("matches_format", c, {"format": f}), COLUMNS,
              st.sampled_from(["date", "timestamp"])),
), max_size=6)


def test_random_tables_match_reference():
    kinds, outcomes, examples, collisions = set(), set(), [], 0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rng=st.randoms(use_true_random=False), rules=RULES, rows=rows_with_collisions(),
           allow_unknown=st.booleans())
    def check(rng, rules, rows, allow_unknown):
        nonlocal collisions
        contract = random_contract(rng, max_fields=6, with_rules=False)
        live, ref = _both(contract, rules, rows, allow_unknown)
        assert live == ref
        read = set(contract.field_names()) | {rule.column for rule in rules}
        collisions += bool(_colliding_columns(rows) & read)
        examples.append(len(rows))
        kinds.update(v["kind"] for v in live[0]["violations"])
        outcomes.update((r["rule"]["kind"], r["pass"]) for r in live[1])

    check()
    assert len(examples) >= 200
    assert collisions >= 20, collisions
    assert kinds == {"type_mismatch", "null_violation", "enum_violation", "range_violation",
                     "unknown_field", "missing_field"}
    assert outcomes == {(kind, passed) for kind in
                        ("not_null", "unique", "values_in_set", "between", "matches_format")
                        for passed in (False, True)}


def _documents(contract, rules, rows, allow_unknown, rules_first=False):
    """The validation and rule documents for rows, evaluated in either order."""
    if rules_first:
        results = [r.to_doc() for r in evaluate_rules(rules, rows)]
    report = validate_rows(contract, rows, allow_unknown).to_doc()
    if not rules_first:
        results = [r.to_doc() for r in evaluate_rules(rules, rows)]
    return report, results


def test_one_table_gives_the_documents_of_its_rows():
    """Validation and rules read a table's kept column summaries: on a table,
    on its rows as a list, in either order and twice on one table, the
    documents are the same."""
    orders = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(rng=st.randoms(use_true_random=False), rules=RULES, rows=rows_with_collisions(),
           allow_unknown=st.booleans(), rules_first=st.booleans())
    def check(rng, rules, rows, allow_unknown, rules_first):
        contract = random_contract(rng, max_fields=6, with_rules=False)
        table = Table.from_rows(rows)
        expected = _documents(contract, rules, list(table), allow_unknown)
        assert _documents(contract, rules, rows, allow_unknown) == expected
        assert _documents(contract, rules, table, allow_unknown, rules_first) == expected
        assert _documents(contract, rules, table, allow_unknown, not rules_first) == expected
        orders.add(rules_first)

    check()
    assert orders == {False, True}


def test_failing_rows_are_the_rows_with_violations():
    outcomes = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rng=st.randoms(use_true_random=False), rows=rows_with_collisions())
    def check(rng, rows):
        contract = random_contract(rng, max_fields=6, with_rules=False)
        failed = {v.row_index for v in validate_rows(contract, rows).violations}
        assert failing_rows(contract, rows) == failed
        outcomes.add((bool(failed), len(failed) < len(rows)))

    check()
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


# -- value tests against the per-lexeme reference --------------------------------

#: Lexemes a range and a format trip on: ints past 2**53 and past the
#: int-string digit limit (read as ±inf), inf and nan spelled out, blanks.
HUGE = "9" * 5000
VALUE_LEXEMES = ["", "0", "-0", "7", "-3", "007", "+5", "10", "11", "2.5", "-0.5", "1e3",
                 "1E400", "-1e400", ".5", "7.", str(2 ** 53), str(2 ** 53 + 1),
                 str(-2 ** 53 - 1), HUGE, "-" + HUGE, "inf", "-inf", "nan", "NaN", "Infinity",
                 "2021-03-04", "2021-02-30", "2021-03-04T05:06:07Z", "true", "txt", " 7"]
#: Bounds, open (``None``), fractional and past 2**53 included.
OPEN_BOUNDS = st.one_of(st.none(), st.integers(-12, 12), st.floats(-12, 12),
                        st.sampled_from([0.5, -0.5, 10.9, 2 ** 53, 2 ** 53 + 1, 2.0 ** 53,
                                         -2 ** 53 - 1]))
VALUE_TESTS = st.lists(st.one_of(
    st.builds(lambda values: ("values_in_set", {"values": values}),
              st.lists(st.sampled_from(VALUE_LEXEMES), max_size=3)),
    st.builds(lambda fmt: ("matches_format", {"format": fmt}), st.sampled_from(CLASSES)),
    st.builds(lambda lo, hi: ("between", {"min": lo, "max": hi}), OPEN_BOUNDS, OPEN_BOUNDS),
), min_size=1, max_size=3)
#: A column's cells: lexemes, nulls and, where ``ABSENT``, a missing key.
VALUE_COLUMN = st.lists(st.one_of(st.none(), st.just(ABSENT), st.sampled_from(VALUE_LEXEMES)),
                        max_size=14)


def _rows_of(cells: list) -> list[dict]:
    return [{} if cell is ABSENT else {"c": cell} for cell in cells]


def test_failing_cells_match_the_per_lexeme_reference():
    """Each test runs on the column's distinct cells and class runs; the
    reference runs it on each distinct lexeme.  Blank cells never fail,
    also under ``values_in_set``, which no blank is in."""
    failed = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(VALUE_COLUMN, VALUE_TESTS)
    def check(cells, tests):
        table = Table.from_rows(_rows_of(cells))
        live = failing_cells(table, "c", tests)
        assert live == reference.failing_cells(table.column("c"), tests)
        assert not {None, ""} & set(live)
        failed.update(live.values())

    check()
    assert failed == {"values_in_set", "matches_format", "between"}


@pytest.mark.parametrize("logical_type", ["integer", "number"])
@pytest.mark.parametrize("bounds", [(0.5, 10.9), (0.2, 0.8), (None, 7), (-3, None),
                                    (2 ** 53, 2 ** 53 + 1), (-2 ** 53, 2.0 ** 53), (None, None)],
                         ids=str)
def test_ranges_validate_as_the_reference_validates(logical_type, bounds):
    """Fractional bounds on ``integer`` fields, open bounds, ints past 2**53
    and past the digit limit, and ``inf``/``nan`` lexemes, in row
    validation and the ``between`` rule."""
    lo, hi = bounds
    constraints = None if bounds == (None, None) else Constraints(min_value=lo, max_value=hi)
    contract = Contract(name="t", fields=[FieldSpec("c", logical_type, True, constraints)])
    cells = VALUE_LEXEMES + [None, ABSENT, "10", "7"]
    rows = _rows_of(cells)
    rules = ([QualityRule("between", "c", {"min": lo, "max": hi}, "warning")]
             if None not in bounds else [])
    rules.append(QualityRule("values_in_set", "c", {"values": ["7", "10"]}))
    live, ref = _both(contract, rules, rows, False)
    assert live == ref
    table = Table.from_rows(rows)
    assert failing_rows(contract, table) == {v["row_index"] for v in live[0]["violations"]}


def test_rules_with_extra_params_keep_their_own_failing_cells():
    """A table keeps each test's failing cells under the params its kind
    reads, so a param no kind reads, hashable or not, neither breaks the
    key nor makes two different tests share one."""
    cells = VALUE_LEXEMES + [None, ABSENT, "3", "7", "2021-03-04T05:06:07Z"]
    table = Table.from_rows(_rows_of(cells))
    rules = [
        QualityRule("between", "c", {"min": 0, "max": 5, "x": 9}),
        QualityRule("between", "c", {"x": 0, "min": 5, "max": 9}),
        QualityRule("matches_format", "c", {"format": "date", "x": "timestamp"}),
        QualityRule("matches_format", "c", {"x": "date", "format": "timestamp"}),
        QualityRule("values_in_set", "c", {"values": ["7"], "note": [1]}),
        QualityRule("between", "c", {"min": 0, "max": 5, "note": [1]}),
    ]
    live = [r.to_doc() for r in evaluate_rules(rules, table)]
    assert live == [r.to_doc() for r in reference.evaluate_rules(rules, table)]
    assert live[0]["rows_failed"] != live[1]["rows_failed"]
    assert live[2]["rows_failed"] != live[3]["rows_failed"]
