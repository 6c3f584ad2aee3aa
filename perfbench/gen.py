"""Seeded inputs for the four workloads.

Everything here is a pure function of the seed: the same seed gives the same
bytes.  Sizes never depend on the seed, only contents do, so runs with
different seeds do the same amount of work.  The engine is not used here:
every input, every truth contract and every expected outcome is authored
here.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import random
import re
import sys
from pathlib import Path

ENFORCE_ROWS = 20_000
CLI_ROWS = 2_000
INJECT_RATE = 0.005            # share of enforce_batch rows given one defect
WIDE_TABLES = 4
WIDE_COLUMNS = 200
WIDE_ROWS = 2_000

WORDS = (
    "amber basin cedar delta ember fjord glade harbor inlet juniper kestrel "
    "lagoon meadow nectar orchard prairie quarry ridge summit tundra upland "
    "valley willow yarrow zephyr anchor beacon canyon dune estuary forest "
    "granite heath island jetty knoll ledge marsh north oasis pine quartz "
    "reef shoal timber urchin vista wharf alder birch clover dahlia fern "
    "ginger hazel iris jasmine kelp lilac maple nettle olive poppy rowan "
    "sage thistle umber violet wren acorn bramble copper drift ferry gravel "
    "hollow ivory jade kiln lantern mosaic nickel opal pebble quill russet "
    "slate tinder velvet wicker"
).split()

STATUSES = ["new", "paid", "packed", "shipped", "returned"]
REGIONS = ["north", "south", "east", "west", "central", "coastal", "alpine", "island"]
BASE_DATE = dt.date(2021, 1, 1)


def rng_for(seed: int, part: str) -> random.Random:
    return random.Random(f"{seed}:{part}")


def _text(r: random.Random) -> str:
    text = " ".join(r.choices(WORDS, k=r.randint(3, 8)))
    if r.random() < 0.15:
        text = text.replace(" ", ", ", 1)      # forces CSV quoting
    if r.random() < 0.05:
        text = f'{text} "quoted"'
    return text


def _timestamp(r: random.Random) -> str:
    day = BASE_DATE + dt.timedelta(days=r.randrange(1000))
    return (f"{day.isoformat()}T{r.randrange(24):02d}:{r.randrange(60):02d}:"
            f"{r.randrange(60):02d}Z")


# -- enforce_batch: one narrow, long batch ----------------------------------

# name, logical type, nullable, constraints; values drawn by _enforce_value.
ENFORCE_FIELDS = [
    ("id", "string", False, None),
    ("note", "string", True, None),
    ("status", "enum_string", False, {"allowed_values": STATUSES}),
    ("region", "enum_string", True, {"allowed_values": REGIONS}),
    ("qty", "integer", False, {"min": 1, "max": 50}),
    ("priority", "integer", False, {"min": 0, "max": 4}),
    ("active", "boolean", False, None),
    ("amount", "number", False, {"min": 0.0, "max": 10000.0}),
    ("score", "number", True, {"min": 0.0, "max": 1.0}),
    ("created", "date", False, None),
    ("updated", "timestamp", True, None),
    ("ref", "integer", True, {"min": 1, "max": 1_000_000_000}),
]
ENFORCE_COLUMNS = [f[0] for f in ENFORCE_FIELDS]
_NULLABLE = {name for name, _, nullable, _ in ENFORCE_FIELDS if nullable}


def _enforce_value(r: random.Random, name: str, index: int):
    if name in _NULLABLE and r.random() < 0.08:
        return None
    if name == "id":
        return f"ord-{index:07d}-{r.randrange(16 ** 4):04x}"
    if name == "note":
        return _text(r)
    if name == "status":
        return r.choice(STATUSES)
    if name == "region":
        return r.choice(REGIONS)
    if name == "qty":
        return r.randint(1, 50)
    if name == "priority":
        return r.randint(0, 4)
    if name == "active":
        return r.random() < 0.7
    if name == "amount":
        return round(r.uniform(0, 10000), 2)
    if name == "score":
        return round(r.random(), 4)
    if name == "created":
        return (BASE_DATE + dt.timedelta(days=r.randrange(1000))).isoformat()
    if name == "updated":
        return _timestamp(r)
    if name == "ref":
        return r.randint(1, 1_000_000_000)
    raise KeyError(name)


# Injected defects: the bad value per field for type and range defects, then
# (kind, share of injections, eligible fields).  "duplicate" copies another
# row's id: only the unique rule sees it.
_BAD_TYPE = {"qty": "many", "priority": "high", "active": "yes", "amount": "n/a",
             "score": "unknown", "created": "2023-02-30", "updated": "soon",
             "ref": "ref-x"}
_BAD_RANGE = {"qty": 500, "priority": 9, "amount": 25000.5, "score": 1.5,
              "ref": 5_000_000_000}
INJECTION_MIX = [
    ("type_mismatch", 0.3, sorted(_BAD_TYPE)),
    ("null_violation", 0.2, [f[0] for f in ENFORCE_FIELDS if not f[2]]),
    ("enum_violation", 0.2, ["status", "region"]),
    ("range_violation", 0.2, sorted(_BAD_RANGE)),
    ("duplicate", 0.1, ["id"]),
]


def enforce_contract_doc(name: str, with_rules: bool) -> dict:
    fields = []
    for fname, ltype, nullable, constraints in ENFORCE_FIELDS:
        doc = {"name": fname, "logical_type": ltype, "nullable": nullable}
        if constraints:
            doc["constraints"] = dict(constraints)
        fields.append(doc)
    rules = []
    if with_rules:
        for fname, ltype, nullable, constraints in ENFORCE_FIELDS:
            per_field = []
            if not nullable:
                per_field.append(("not_null", {}, "error"))
            if ltype == "enum_string":
                per_field.append(("values_in_set",
                                  {"values": list(constraints["allowed_values"])}, "error"))
            if ltype in ("integer", "number"):
                per_field.append(("between", {"min": constraints["min"],
                                              "max": constraints["max"]}, "warning"))
            if ltype in ("date", "timestamp"):
                per_field.append(("matches_format", {"format": ltype}, "error"))
            if fname == "id":
                per_field.append(("unique", {}, "warning"))
            rules += [{"kind": k, "column": fname, "params": p, "severity": s}
                      for k, p, s in sorted(per_field)]
    return {"name": name, "version": 1, "status": "approved" if with_rules else "draft",
            "fields": fields, "rules": rules}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def enforce_rows(seed: int, part: str, count: int, injections: int) -> tuple[list[dict], list[tuple]]:
    """Rows as Python values plus the injected defects (row, field, kind)."""
    r = rng_for(seed, part)
    rows = [{name: _enforce_value(r, name, i) for name in ENFORCE_COLUMNS}
            for i in range(count)]
    chosen = r.sample(range(count), injections)
    plan: list[str] = []
    for kind, share, _ in INJECTION_MIX:
        plan += [kind] * round(share * injections)
    plan = (plan + ["type_mismatch"] * injections)[:injections]
    untouched = sorted(set(range(count)) - set(chosen))
    sources = iter(r.sample(untouched, plan.count("duplicate")))
    eligible = {kind: fields for kind, _, fields in INJECTION_MIX}
    injected = []
    for row_index, kind in zip(chosen, plan):
        field = r.choice(eligible[kind])
        row = rows[row_index]
        if kind == "type_mismatch":
            row[field] = _BAD_TYPE[field]
        elif kind == "null_violation":
            row[field] = None
        elif kind == "enum_violation":
            row[field] = "archived" if field == "status" else "offshore"
        elif kind == "range_violation":
            row[field] = _BAD_RANGE[field]
        else:
            row[field] = rows[next(sources)]["id"]
        injected.append((row_index, field, kind))
    return rows, injected


def write_delimited(path: Path, rows: list[dict]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(ENFORCE_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in ENFORCE_COLUMNS])
    path.write_text(buffer.getvalue(), encoding="utf-8")


def write_ndjson(path: Path, rows: list[dict], seed: int) -> None:
    """Nullable nulls are written as explicit null or left out, both legal."""
    r = rng_for(seed, "ndjson-absent")
    lines = []
    for row in rows:
        obj = {}
        for name in ENFORCE_COLUMNS:
            value = row[name]
            if value is None and name in _NULLABLE and r.random() < 0.5:
                continue
            obj[name] = value
        lines.append(json.dumps(obj, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def distinct_lexemes(rows: list[dict]) -> dict[str, tuple[int, int]]:
    """Per column: distinct non-null lexemes and non-null cells."""
    out = {}
    for name in ENFORCE_COLUMNS:
        cells = [_csv_cell(row[name]) for row in rows if row[name] is not None]
        out[name] = (len(set(cells)), len(cells))
    return out


def enforce_expectations(rows: list[dict], injected: list[tuple]) -> dict:
    """What validation, the rule set and drift must report on the batch."""
    validation = [(f, k) for _, f, k in injected if k != "duplicate"]
    counts: dict[str, int] = {}
    for field, kind in validation:
        key = f"{field}|{kind}"
        counts[key] = counts.get(key, 0) + 1
    bad_rows = {row for row, _, kind in injected if kind != "duplicate"}
    rule_fails: dict[str, int] = {}
    for name, ltype, nullable, _ in ENFORCE_FIELDS:
        def n(kinds):
            return sum(1 for _, f, k in injected if f == name and k in kinds)
        if not nullable:
            rule_fails[f"not_null|{name}"] = n({"null_violation"})
        if ltype == "enum_string":
            rule_fails[f"values_in_set|{name}"] = n({"enum_violation"})
        if ltype in ("integer", "number"):
            rule_fails[f"between|{name}"] = n({"range_violation", "type_mismatch"})
        if ltype in ("date", "timestamp"):
            rule_fails[f"matches_format|{name}"] = n({"type_mismatch"})
        if name == "id":
            rule_fails[f"unique|{name}"] = n({"duplicate"})
    retyped = sorted({f for _, f, k in injected if k == "type_mismatch"})
    return {"rows": len(rows), "rows_passed": len(rows) - len(bad_rows),
            "violations": counts, "rule_fails": rule_fails, "retyped": retyped}


def make_enforce(seed: int, work: Path) -> None:
    injections = round(INJECT_RATE * ENFORCE_ROWS)
    rows, injected = enforce_rows(seed, "enforce", ENFORCE_ROWS, injections)
    write_delimited(work / "batch.csv", rows)
    write_ndjson(work / "batch.ndjson", rows, seed)
    (work / "contract.json").write_text(
        json.dumps(enforce_contract_doc("orders_batch", True), indent=2), encoding="utf-8")
    plan = enforce_expectations(rows, injected)
    plan["distinct"] = distinct_lexemes(rows)
    (work / "expect.json").write_text(json.dumps(plan), encoding="utf-8")


# -- author_corpus: hand-labeled tables plus wide seeded tables ---------------

WIDE_KINDS = ["integer", "number", "string", "enum_string", "boolean", "date", "timestamp"]
UNPARSEABLE = [
    "I could not derive a contract from this sample.",
    "name: {table}\nfields:\n  - name: first column\n    type: text\n",
]


def _wide_truth(r: random.Random, name: str) -> tuple[dict, list]:
    # The mix of kinds and of nullable columns is fixed; only order and
    # contents follow the seed, so every seed does the same work.
    kinds = [WIDE_KINDS[i % len(WIDE_KINDS)] for i in range(WIDE_COLUMNS)]
    r.shuffle(kinds)
    nullable_columns = set(r.sample(range(WIDE_COLUMNS), WIDE_COLUMNS * 3 // 10))
    fields, makers = [], []
    for i, kind in enumerate(kinds):
        nullable = i in nullable_columns
        doc = {"name": f"c{i:03d}_{kind[:3]}", "logical_type": kind, "nullable": nullable}
        if kind == "integer":
            lo = r.randrange(-1000, 1000)
            hi = lo + r.randrange(10, 100_000)
            doc["constraints"] = {"min": lo, "max": hi}
            maker = (lambda lo, hi: lambda r: str(r.randint(lo, hi)))(lo, hi)
        elif kind == "number":
            lo = float(r.randrange(-500, 500))
            hi = lo + float(r.randrange(1, 10_000))
            doc["constraints"] = {"min": lo, "max": hi}
            maker = (lambda lo, hi: lambda r: repr(round(r.uniform(lo, hi), 3)))(lo, hi)
        elif kind == "enum_string":
            values = sorted(set(r.sample(WORDS, r.randint(2, 6))))
            doc["constraints"] = {"allowed_values": values}
            maker = (lambda vs: lambda r: r.choice(vs))(values)
        elif kind == "string":
            maker = _text
        elif kind == "boolean":
            maker = lambda r: "true" if r.random() < 0.5 else "false"
        elif kind == "date":
            maker = lambda r: (BASE_DATE + dt.timedelta(days=r.randrange(1000))).isoformat()
        else:
            maker = _timestamp
        fields.append(doc)
        makers.append((nullable, maker))
    return {"name": name, "version": 1, "status": "draft", "fields": fields,
            "rules": []}, makers


def _write_wide(path: Path, truth: dict, makers: list, r: random.Random) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([f["name"] for f in truth["fields"]])
    for _ in range(WIDE_ROWS):
        writer.writerow(["" if nullable and r.random() < 0.05 else make(r)
                         for nullable, make in makers])
    path.write_text(buffer.getvalue(), encoding="utf-8")


def json_schema_of(truth: dict) -> dict:
    """The truth contract written as a bare JSON Schema, as a backend might."""
    types = {"date": "string", "timestamp": "string", "enum_string": "string"}
    properties, required = {}, []
    for f in truth["fields"]:
        base = types.get(f["logical_type"], f["logical_type"])
        prop: dict = {"type": [base, "null"] if f["nullable"] else base}
        if f["logical_type"] == "date":
            prop["format"] = "date"
        if f["logical_type"] == "timestamp":
            prop["format"] = "date-time"
        if f["logical_type"] == "enum_string":
            prop["enum"] = list(f["constraints"]["allowed_values"])
        properties[f["name"]] = prop
        if not f["nullable"]:
            required.append(f["name"])
    return {"$schema": "http://json-schema.org/draft-07/schema#", "title": truth["name"],
            "type": "object", "properties": properties, "required": required}


def lifted(truth: dict) -> dict:
    """The contract a bare schema of ``truth`` must lift to: the same fields
    with numeric ranges dropped, since JSON Schema export carries none."""
    fields = []
    for f in truth["fields"]:
        doc = {"name": f["name"], "logical_type": f["logical_type"], "nullable": f["nullable"]}
        if f["logical_type"] == "enum_string":
            doc["constraints"] = {"allowed_values": list(f["constraints"]["allowed_values"])}
        fields.append(doc)
    return {"name": truth["name"], "version": 1, "status": "draft", "fields": fields,
            "rules": []}


def hallucinated(truth: dict, extra: int) -> dict:
    doc = json.loads(json.dumps(truth))
    doc["fields"] += [{"name": f"invented_{i}", "logical_type": "string", "nullable": True}
                      for i in range(extra)]
    return doc


def render(kind: str, doc: dict, r: random.Random) -> str:
    text = json.dumps(doc, indent=2)
    if kind == "clean":
        return text
    if kind == "fenced":
        return f"```json\n{text}\n```\n"
    if kind == "prose":
        return f"Here is the contract you asked for:\n\n{text}\n\nLet me know if it needs changes."
    if kind == "trailing_commas":
        return re.sub(r'([^\[{,\s])(\n\s*[}\]])', r'\1,\2', text)
    if kind == "unparseable":
        choice = r.randrange(3)
        if choice == 2:
            return text[: len(text) * 3 // 5]        # truncated: outer brace never closes
        return UNPARSEABLE[choice].format(table=doc["name"])
    raise ValueError(kind)


REPAIRABLE = ["clean", "fenced", "prose", "trailing_commas"]
# Per round: how many small tables get each candidate-set category.  Every
# wide table gets a repairable set, so wide-table latencies stay alike.
SMALL_CATEGORIES = ["repairable"] * 10 + ["schema"] * 3 + ["hallucinated"] * 3 + ["none"] * 4
CANDIDATES = 4


def candidate_set(category: str, truth: dict, r: random.Random) -> tuple[list[str], dict | None]:
    """Candidate texts plus the contract the engine must choose (None: fallback).

    The expected choice follows from construction, not from re-scoring: a
    truth rendering at index 0 ties or beats everything after it; a bare
    schema beats invented fields; one invented-field candidate beats texts
    that do not parse.
    """
    rest = ["unparseable"] * (CANDIDATES - 1)
    if category == "repairable":
        first = r.choice(REPAIRABLE)
        rest = r.choices(REPAIRABLE + ["schema", "hallucinated", "unparseable"], k=CANDIDATES - 1)
        expected = truth
    elif category == "schema":
        first = "schema"
        rest = r.choices(["hallucinated", "unparseable"], k=CANDIDATES - 1)
        expected = lifted(truth)
    elif category == "hallucinated":
        first = "hallucinated"
        expected = hallucinated(truth, 2)
    else:
        first = "unparseable"
        expected = None
    texts = []
    for position, kind in enumerate([first] + rest):
        if kind == "schema":
            texts.append(render("clean", json_schema_of(truth), r))
        elif kind == "hallucinated":
            texts.append(render("clean", hallucinated(truth, 2 if position == 0 else 3), r))
        else:
            texts.append(render(kind, truth, r))
    return texts, expected


def make_author(seed: int, work: Path, hand_labeled: Path) -> None:
    r = rng_for(seed, "author")
    tables = []
    for csv_path in sorted(hand_labeled.glob("*.csv")):
        truth = json.loads(csv_path.with_suffix("").with_suffix(".truth.json").read_text())
        tables.append({"name": csv_path.stem, "path": str(csv_path), "truth": truth})
    for i in range(WIDE_TABLES):
        truth, makers = _wide_truth(r, f"wide_{i}")
        path = work / f"wide_{i}.csv"
        _write_wide(path, truth, makers, r)
        tables.append({"name": truth["name"], "path": str(path), "truth": truth})
    small = SMALL_CATEGORIES[:]
    r.shuffle(small)
    categories = small + ["repairable"] * WIDE_TABLES
    two_pass = set(r.sample(range(20), 5)) | {20 + i for i in r.sample(range(WIDE_TABLES), 2)}
    fail_first = set(r.sample(range(20), 2))
    for index, (table, category) in enumerate(zip(tables, categories)):
        texts, expected = candidate_set(category, table["truth"], r)
        table.update(category=category, candidates=texts, expected=expected,
                     two_pass=index in two_pass, fail_first=index in fail_first)
    order = list(range(len(tables)))
    r.shuffle(order)
    plan = [tables[i] for i in order]
    (work / "author.json").write_text(json.dumps(plan), encoding="utf-8")


def without_first_field(doc: dict) -> dict:
    """Backward-incompatible successor: removes a field rows may carry."""
    out = json.loads(json.dumps(doc))
    out["fields"] = out["fields"][1:]
    return out


# -- cli_flow: a moderate table and a new batch ------------------------------------

def make_cli(seed: int, work: Path) -> None:
    rows, _ = enforce_rows(seed, "cli-table", CLI_ROWS, 0)
    write_delimited(work / "table.csv", rows)
    batch, _ = enforce_rows(seed, "cli-batch", CLI_ROWS, 12)
    write_delimited(work / "new_batch.csv", batch)
    truth = enforce_contract_doc("orders", False)
    (work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    text = render("fenced", truth, rng_for(seed, "cli-script"))
    (work / "script.json").write_text(json.dumps({"0": [text]}), encoding="utf-8")
    (work / "incompatible.json").write_text(json.dumps(without_first_field(truth)),
                                            encoding="utf-8")


def main() -> int:
    """``gen.py <workload> <seed> <work dir>``: write one workload's inputs."""
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    root = Path(__file__).resolve().parent.parent
    if workload == "enforce_batch":
        make_enforce(seed, work)
    elif workload == "author_corpus":
        make_author(seed, work, root / "tests" / "data" / "hand_labeled")
    elif workload == "cli_flow":
        make_cli(seed, work)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
