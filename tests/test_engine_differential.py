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
from contractforge.model import QualityRule, parse_contract
from contractforge.profiling import ingest, read_table
from contractforge.validation import validate_rows

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
