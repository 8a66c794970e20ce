"""Tests for report serialization: schemas, determinism, round-trips."""

import dataclasses
import json
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dedsum.report import (
    COLUMNS,
    ScanReport,
    TableReport,
    parse_csv,
    parse_json,
    render,
    render_csv,
    render_json,
)
from dedsum.scans import run_suite


def sample_scan() -> ScanReport:
    return ScanReport(
        kind="theorem1",
        b_lo=1,
        b_hi=9,
        tuples_checked=45,
        violations_total=4,
        violations=[
            {
                "b": 9,
                "a1": 1,
                "a2": 4,
                "condition": True,
                "diff_num": 8,
                "diff_den": 1,
                "in8Z": True,
                "in24Z": False,
            }
        ],
        parameters={"bmax": 9, "cap": 100, "include_9div": True},
        summary={
            "mod8_mismatches": 0,
            "mod24_mismatches_9ndiv": 0,
            "mod24_mismatches_9div": 4,
        },
        elapsed=0.125,
    )


def sample_table() -> TableReport:
    return TableReport(
        kind="examples",
        parameters={"cmax": 1, "dmax": 3},
        rows=[
            {"c": 1, "d": 3, "b": 9, "a": 4, "diff": 8, "div8": True, "div24": False}
        ],
        elapsed=0.125,
    )


def test_json_roundtrip_scan():
    report = sample_scan()
    assert parse_json(render_json([report])) == [report]


def test_fresh_reports_keep_the_key_order_of_a_round_trip():
    # The writers sort parameters and summary, and a scan builds them
    # sorted, so a report reads back with its keys in the same order.
    for report in run_suite("all", 12, include_9div=True):
        for parse, write in ((parse_json, render_json), (parse_csv, render_csv)):
            (back,) = parse(write([report]))
            assert list(back.parameters) == list(report.parameters), report.kind
            assert list(back.summary) == list(report.summary), report.kind


def test_json_roundtrip_table():
    report = sample_table()
    assert parse_json(render_json([report])) == [report]


def test_json_single_report_is_object():
    doc = json.loads(render_json([sample_scan()]))
    assert isinstance(doc, dict)
    assert doc["kind"] == "theorem1"
    assert doc["b_range"] == [1, 9]


def test_json_many_reports_is_array():
    doc = json.loads(render_json([sample_scan(), sample_table()]))
    assert isinstance(doc, list)
    assert [d["kind"] for d in doc] == ["theorem1", "examples"]


def test_csv_roundtrip_scan():
    report = sample_scan()
    assert parse_csv(render_csv([report])) == [report]


def test_csv_roundtrip_table():
    report = sample_table()
    assert parse_csv(render_csv([report])) == [report]


def test_csv_roundtrip_many():
    reports = [sample_scan(), sample_table()]
    assert parse_csv(render_csv(reports)) == reports


def test_csv_layout_is_pinned():
    lines = render_csv([sample_scan()]).splitlines()
    assert lines[0] == "# kind=theorem1"
    assert lines[1] == "# b_range=1..9"
    assert lines[2] == "# tuples_checked=45"
    assert lines[3] == "# violations_total=4"
    # Every other field is its JSON document value.
    assert lines[4] == '# parameters={"bmax": 9, "cap": 100, "include_9div": true}'
    assert lines[5] == (
        '# summary={"mod24_mismatches_9div": 4, "mod24_mismatches_9ndiv": 0, "mod8_mismatches": 0}'
    )
    assert lines[6] == "b,a1,a2,condition,diff_num,diff_den,in8Z,in24Z"
    assert lines[7] == "9,1,4,true,8,1,true,false"
    assert lines[8] == "# elapsed_seconds=0.125000"


def test_json_rejects_a_row_with_an_extra_key():
    doc = json.loads(render_json([sample_scan()]))
    doc["violations"][0]["a3"] = 5
    with pytest.raises(ValueError, match="theorem1 row"):
        parse_json(json.dumps(doc))


def test_json_rejects_a_row_with_a_missing_key():
    doc = json.loads(render_json([sample_scan()]))
    del doc["violations"][0]["in24Z"]
    with pytest.raises(ValueError, match="theorem1 row"):
        parse_json(json.dumps(doc))


def test_csv_rejects_a_row_with_an_extra_cell():
    text = render_csv([sample_scan()]).replace("true,false\n", "true,false,5\n")
    with pytest.raises(ValueError, match="theorem1 row"):
        parse_csv(text)


def test_csv_rejects_a_row_with_a_missing_cell():
    text = render_csv([sample_scan()]).replace("true,false\n", "true\n")
    with pytest.raises(ValueError, match="theorem1 row"):
        parse_csv(text)


@pytest.mark.parametrize(
    "name,value", [("condition", 5), ("condition", "true"), ("diff_num", 1.7), ("diff_num", True)]
)
def test_json_rejects_a_value_of_another_type(name, value):
    doc = json.loads(render_json([sample_scan()]))
    doc["violations"][0][name] = value
    with pytest.raises(ValueError, match=f"theorem1 column '{name}'"):
        parse_json(json.dumps(doc))


@pytest.mark.parametrize(
    "name,cell", [("condition", "TRUE"), ("condition", "nope"), ("in8Z", ""), ("diff_num", "1.7")]
)
def test_csv_rejects_a_cell_that_does_not_read_as_its_type(name, cell):
    names = [column for column, _ in COLUMNS["theorem1"]]
    cells = "9,1,4,true,8,1,true,false".split(",")
    cells[names.index(name)] = cell
    text = render_csv([sample_scan()]).replace("9,1,4,true,8,1,true,false", ",".join(cells))
    with pytest.raises(ValueError, match=f"theorem1 column '{name}'"):
        parse_csv(text)


@pytest.mark.parametrize(
    "sample,name,value",
    [
        (sample_scan, "b_range", "19"),
        (sample_scan, "b_range", [1, 9, 10]),
        (sample_scan, "b_range", [1, True]),
        (sample_scan, "tuples_checked", "x"),
        (sample_scan, "violations_total", False),
        (sample_scan, "summary", [1]),
        (sample_scan, "parameters", 7),
        (sample_scan, "violations", {}),
        (sample_scan, "elapsed_seconds", "soon"),
        (sample_table, "parameters", [1]),
        (sample_table, "rows", 5),
        (sample_table, "elapsed_seconds", None),
    ],
)
def test_json_rejects_a_field_of_another_type(sample, name, value):
    report = sample()
    doc = json.loads(render_json([report]))
    doc[name] = value
    with pytest.raises(ValueError, match=f"{report.kind} field '{name}'"):
        parse_json(json.dumps(doc))


def test_json_rejects_a_row_that_is_not_an_object():
    doc = json.loads(render_json([sample_table()]))
    doc["rows"] = [[1, 3, 9, 4, 8, True, False]]
    with pytest.raises(ValueError, match="examples row needs an object"):
        parse_json(json.dumps(doc))


@pytest.mark.parametrize("doc", ["5", '"kind"'])
def test_json_rejects_a_report_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match="needs the field 'kind'"):
        parse_json(doc)


@pytest.mark.parametrize(
    "line",
    [
        "# summary=[1]",
        "# parameters=7",
        "# tuples_checked=9x",
        "# tuples_checked=4.5",
        "# violations_total=true",
        "# b_range=19",
        "# b_range=[1, 9]",
        "# b_range=1..9x",
        "# elapsed_seconds=soon",
    ],
)
def test_csv_rejects_a_metadata_line_of_another_type(line):
    name = line[2:].partition("=")[0]
    lines = [
        line if text.startswith(f"# {name}=") else text
        for text in render_csv([sample_scan()]).splitlines()
    ]
    with pytest.raises(ValueError, match=f"theorem1 field '{name}'"):
        parse_csv("\n".join(lines))


PARSERS = {"json": parse_json, "csv": parse_csv}


def without_field(text: str, fmt: str, name: str) -> str:
    """A rendered report with one metadata field left out."""
    if fmt == "json":
        doc = json.loads(text)
        del doc[name]
        return json.dumps(doc)
    return "\n".join(line for line in text.splitlines() if not line.startswith(f"# {name}="))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_parse_rejects_an_unknown_kind(fmt):
    text = render([sample_table()], fmt).replace("examples", "nope")
    with pytest.raises(ValueError, match="unknown report kind 'nope'"):
        PARSERS[fmt](text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_parse_rejects_a_scan_report_without_b_range(fmt):
    # A bhk section without its b_range line once parsed as a table.
    report = ScanReport(
        kind="bhk",
        b_lo=1,
        b_hi=12,
        tuples_checked=93,
        violations_total=1,
        violations=[{"b": 2, "a": 1, "lhs": 1, "rhs": 0}],
        parameters={"bmax": 12, "cap": 100},
        summary={"identity_failures": 1},
    )
    text = without_field(render([report], fmt), fmt, "b_range")
    with pytest.raises(ValueError, match="a bhk report needs the field 'b_range'"):
        PARSERS[fmt](text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_parse_rejects_a_report_without_kind(fmt):
    text = without_field(render([sample_scan()], fmt), fmt, "kind")
    with pytest.raises(ValueError, match="needs the field 'kind'"):
        PARSERS[fmt](text)


def test_rendering_is_deterministic():
    for fmt in ("csv", "json"):
        assert render([sample_scan()], fmt) == render([sample_scan()], fmt)


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render([sample_scan()], "xml")


def test_columns_registry_covers_all_kinds():
    expected = {
        "theorem1",
        "theorem2",
        "oracle-equivalence",
        "reciprocity",
        "bhk",
        "bt-mod8",
        "bs-mod3-9",
        "mu-mod8",
        "examples",
    }
    assert set(COLUMNS) == expected
    for kind, cols in COLUMNS.items():
        names = [name for name, _ in cols]
        assert len(names) == len(set(names)), kind


def test_boolean_cells_use_lowercase_words():
    text = render_csv([sample_table()])
    assert "true" in text and "false" in text
    assert "True" not in text and "False" not in text


# CSV cells are not quoted, so text cells hold no comma or line break;
# the scans only ever write short tags such as "residue" or "odd_ndiv3".
CELL_TEXT = st.text(string.ascii_letters + string.digits + "_-", max_size=12)
# JSON escapes any text: quotes, backslashes, control characters,
# non-ASCII characters and lone surrogates.
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
METADATA = st.dictionaries(
    st.text(max_size=8), st.integers(-(10**12), 10**12) | st.booleans(), max_size=4
)


def rows_of(kind: str, text):
    cells = {int: st.integers(-(10**40), 10**40), bool: st.booleans(), str: text}
    return st.lists(
        st.fixed_dictionaries({name: cells[typ] for name, typ in COLUMNS[kind]}),
        max_size=5,
    )


def any_report(kind: str, text):
    elapsed = st.floats(0, 10**6, allow_nan=False)
    if kind == "examples":
        return st.builds(
            TableReport,
            kind=st.just(kind),
            parameters=METADATA,
            rows=rows_of(kind, text),
            elapsed=elapsed,
        )
    return st.builds(
        ScanReport,
        kind=st.just(kind),
        b_lo=st.integers(1, 10**9),
        b_hi=st.integers(1, 10**9),
        tuples_checked=st.integers(0, 10**15),
        violations_total=st.integers(0, 10**15),
        violations=rows_of(kind, text),
        parameters=METADATA,
        summary=st.dictionaries(st.text(max_size=8), st.integers(0, 10**15), max_size=4),
        elapsed=elapsed,
    )


def reports_of(text):
    kinds = st.sampled_from(sorted(COLUMNS))
    return st.lists(kinds.flatmap(lambda kind: any_report(kind, text)), min_size=1, max_size=3)


REPORTS = reports_of(CELL_TEXT)
JSON_REPORTS = reports_of(JSON_TEXT)


def deterministic(reports):
    """The reports without their timings, which CSV rounds to 6 places."""
    return [dataclasses.replace(report, elapsed=0.0) for report in reports]


@given(JSON_REPORTS)
def test_json_roundtrip_any_rows(reports):
    assert deterministic(parse_json(render(reports, "json"))) == deterministic(reports)


def reference_json(reports) -> str:
    """The JSON layout of the reports as json.dumps writes it."""
    docs = []
    for report in reports:
        doc = {"kind": report.kind, "parameters": report.parameters}
        if isinstance(report, ScanReport):
            doc |= {
                "b_range": [report.b_lo, report.b_hi],
                "tuples_checked": report.tuples_checked,
                "violations_total": report.violations_total,
                "summary": report.summary,
                "violations": report.violations,
            }
        else:
            doc["rows"] = report.rows
        docs.append(doc | {"elapsed_seconds": report.elapsed})
    return json.dumps(docs[0] if len(docs) == 1 else docs, sort_keys=True, indent=2) + "\n"


@given(JSON_REPORTS)
def test_json_layout_is_json_dumps_indent_2(reports):
    assert render_json(reports) == reference_json(reports)


def theorem2_scan(violations: list[dict]) -> ScanReport:
    return ScanReport(
        kind="theorem2",
        b_lo=1,
        b_hi=60,
        tuples_checked=3312,
        violations_total=len(violations),
        violations=violations,
        parameters={"bmax": 60, "cap": 0, "nested": {"list": [1, [], {}], "z": None, "f": 0.5}},
        summary={"residue_failures": len(violations), "lift_failures": 0},
        elapsed=1e-7,
    )


def theorem2_row(**cells) -> dict:
    row = {"b": 5, "a": 2, "check": "residue", "case": "odd_ndiv3"}
    return row | {"modulus": 24, "predicted": 10, "actual": 10} | cells


@pytest.mark.parametrize(
    "reports",
    [
        pytest.param([sample_scan()], id="one"),
        pytest.param([sample_table()], id="table"),
        pytest.param([sample_scan(), sample_table(), sample_scan()], id="several"),
        pytest.param([], id="none"),
        pytest.param([theorem2_scan([])], id="no-rows"),
        pytest.param([sample_scan(), theorem2_scan([])], id="no-rows-in-several"),
        pytest.param(
            [theorem2_scan([theorem2_row(), theorem2_row(check="lift", case='\u00e9"\\\n\x00')])],
            id="theorem2-text",
        ),
        pytest.param(
            [theorem2_scan([theorem2_row(a=-7, predicted=2**63, actual=-(2**70))])],
            id="beyond-int64",
        ),
        pytest.param([theorem2_scan([theorem2_row(), theorem2_row(predicted=True)])], id="bool-int"),
    ],
)
def test_json_layout_cases(reports):
    assert render_json(reports) == reference_json(reports)


def test_json_layout_of_suites():
    for bmax in (1, 2, 60):
        for cap in (0, 3, 10**9):
            reports = run_suite("all", bmax, include_9div=True, cap=cap)
            assert render_json(reports) == reference_json(reports), (bmax, cap)
            for report in reports:
                assert render_json([report]) == reference_json([report]), (bmax, cap)


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(theorem2_row(extra=1), id="extra-key"),
        pytest.param({k: v for k, v in theorem2_row().items() if k != "case"}, id="missing-key"),
    ],
)
def test_json_refuses_to_write_a_row_that_is_not_its_kinds_columns(row):
    with pytest.raises(ValueError, match="theorem2 row needs one value for each of"):
        render_json([theorem2_scan([theorem2_row(), row])])


def test_json_refuses_to_write_a_row_that_is_not_an_object():
    with pytest.raises(ValueError, match="theorem2 row needs an object"):
        render_json([theorem2_scan([list(theorem2_row().values())])])


@pytest.mark.parametrize("value", [0.5, None, [1]])
@pytest.mark.parametrize("others", [0, 1])
def test_json_refuses_to_write_a_row_value_of_another_type(value, others):
    rows = [theorem2_row()] * others + [theorem2_row(actual=value)]
    with pytest.raises(TypeError, match="is not JSON serializable"):
        render_json([theorem2_scan(rows)])
    # CSV refuses the same values, so no file is written that parse_csv
    # would refuse.
    with pytest.raises(TypeError, match="is not JSON serializable"):
        render_csv([theorem2_scan(rows)])


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(theorem2_row(extra=1), id="extra-key"),
        pytest.param({k: v for k, v in theorem2_row().items() if k != "case"}, id="missing-key"),
    ],
)
def test_csv_refuses_to_write_a_row_that_is_not_its_kinds_columns(row):
    with pytest.raises(ValueError, match="theorem2 row needs one value for each of"):
        render_csv([theorem2_scan([theorem2_row(), row])])


def test_csv_refuses_to_write_a_row_that_is_not_an_object():
    with pytest.raises(ValueError, match="theorem2 row needs an object"):
        render_csv([theorem2_scan([list(theorem2_row().values())])])


@pytest.mark.parametrize("text", ["odd,ndiv3", "odd\nndiv3", "odd\rndiv3"])
def test_csv_refuses_to_write_a_str_cell_that_would_split_its_line(text):
    # JSON writes such a cell, escaped where it must be.
    report = theorem2_scan([theorem2_row(case=text)])
    assert parse_json(render_json([report])) == [report]
    with pytest.raises(ValueError, match="theorem2 column 'case' needs CSV text"):
        render_csv([report])


@given(REPORTS)
def test_csv_roundtrip_any_rows(reports):
    assert deterministic(parse_csv(render(reports, "csv"))) == deterministic(reports)


def test_json_refuses_to_write_rows_of_an_unknown_kind():
    report = dataclasses.replace(sample_scan(), kind="nope")
    with pytest.raises(ValueError, match="unknown report kind 'nope'"):
        render_json([report])
