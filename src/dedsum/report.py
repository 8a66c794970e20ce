"""Report containers and serialization for scan results.

Two shapes of report exist. A ScanReport summarizes an exhaustive check
over a range of b: how many tuples were inspected, how many violated
the property, and a capped list of violating rows. A TableReport is a
plain table of constructed rows with no pass/fail semantics (used for
the example family).

Both serialize to JSON (one object, or an array when several reports
are emitted together) and to CSV (one section per report, metadata and
trailer as '#' comment lines, sections separated by a blank line).
Output is deterministic except for the elapsed_seconds field.
"""

import json
import re
from dataclasses import dataclass, field

# Column names and value types per report kind, fixed so that consumers
# can rely on the layout.
COLUMNS: dict[str, tuple[tuple[str, type], ...]] = {
    "theorem1": (
        ("b", int),
        ("a1", int),
        ("a2", int),
        ("condition", bool),
        ("diff_num", int),
        ("diff_den", int),
        ("in8Z", bool),
        ("in24Z", bool),
    ),
    "theorem2": (
        ("b", int),
        ("a", int),
        ("check", str),
        ("case", str),
        ("modulus", int),
        ("predicted", int),
        ("actual", int),
    ),
    "oracle-equivalence": (
        ("b", int),
        ("a", int),
        ("fast_num", int),
        ("fast_den", int),
        ("naive_num", int),
        ("naive_den", int),
    ),
    "reciprocity": (
        ("a", int),
        ("b", int),
        ("residual_num", int),
        ("residual_den", int),
    ),
    "bhk": (
        ("b", int),
        ("a", int),
        ("lhs", int),
        ("rhs", int),
    ),
    "bt-mod8": (
        ("b", int),
        ("a", int),
        ("actual_mod8", int),
        ("expected_mod8", int),
    ),
    "bs-mod3-9": (
        ("b", int),
        ("a", int),
        ("b_times_s", int),
        ("modulus", int),
        ("expected", int),
        ("actual", int),
    ),
    "mu-mod8": (
        ("b", int),
        ("a", int),
        ("mu_simple", int),
        ("mu_quadratic", int),
    ),
    "examples": (
        ("c", int),
        ("d", int),
        ("b", int),
        ("a", int),
        ("diff", int),
        ("div8", bool),
        ("div24", bool),
    ),
}


@dataclass
class ScanReport:
    """Result of one exhaustive scan over b in [b_lo, b_hi]."""

    kind: str
    b_lo: int
    b_hi: int
    tuples_checked: int
    violations_total: int
    violations: list[dict] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.violations_total == 0


@dataclass
class TableReport:
    """Plain table of generated rows, no violation semantics."""

    kind: str
    parameters: dict = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)
    elapsed: float = 0.0


Report = ScanReport | TableReport

# The kinds reported as a TableReport; every other kind is a scan's.
_TABLE_KINDS = ("examples",)

# The fields besides kind that a parsed report must carry, as keys of a
# JSON document or as '# key=' lines of a CSV section. A JSON document
# also carries its rows, under "violations" or "rows".
_SCAN_FIELDS = (
    "b_range",
    "tuples_checked",
    "violations_total",
    "parameters",
    "summary",
    "elapsed_seconds",
)
_TABLE_FIELDS = ("parameters", "elapsed_seconds")


def _json_payload(report: Report) -> dict:
    if isinstance(report, ScanReport):
        return {
            "kind": report.kind,
            "b_range": [report.b_lo, report.b_hi],
            "tuples_checked": report.tuples_checked,
            "violations_total": report.violations_total,
            "violations": report.violations,
            "parameters": report.parameters,
            "summary": report.summary,
            "elapsed_seconds": report.elapsed,
        }
    return {
        "kind": report.kind,
        "parameters": report.parameters,
        "rows": report.rows,
        "elapsed_seconds": report.elapsed,
    }


def render_json(reports: list[Report]) -> str:
    """JSON text for one or many reports; single object when exactly one."""
    payload = [_json_payload(r) for r in reports]
    doc = payload[0] if len(payload) == 1 else payload
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_section(report: Report) -> str:
    lines = [f"# kind={report.kind}"]
    if isinstance(report, ScanReport):
        lines.append(f"# b_range={report.b_lo}..{report.b_hi}")
        lines.append(f"# tuples_checked={report.tuples_checked}")
        lines.append(f"# violations_total={report.violations_total}")
        rows = report.violations
    else:
        rows = report.rows
    lines.append(f"# parameters={json.dumps(report.parameters, sort_keys=True)}")
    if isinstance(report, ScanReport):
        lines.append(f"# summary={json.dumps(report.summary, sort_keys=True)}")
    names = [name for name, _ in COLUMNS[report.kind]]
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(_csv_cell(row[name]) for name in names))
    lines.append(f"# elapsed_seconds={report.elapsed:.6f}")
    return "\n".join(lines)


def render_csv(reports: list[Report]) -> str:
    """CSV text; multiple reports become blank-line-separated sections."""
    return "\n\n".join(_csv_section(r) for r in reports) + "\n"


def render(reports: list[Report], fmt: str) -> str:
    if fmt == "json":
        return render_json(reports)
    if fmt == "csv":
        return render_csv(reports)
    raise ValueError(f"unknown report format: {fmt}")


# The text of an int and of a bool cell in CSV, as _csv_cell writes it.
_CSV_INT = re.compile(r"-?[0-9]+")
_CSV_BOOLS = {"true": True, "false": False}


def _typed_row(kind: str, names: list[str], values: list, csv: bool = False) -> dict:
    """The row of a kind from its column names and values.

    Raises ValueError unless names and values are exactly the kind's
    columns, in any order, one value each, and each value has its
    column's type, naming the kind and the column. A JSON value must be
    an integer that is not a bool, a bool, or a string; a CSV cell, which
    is text, must read as an integer, be exactly true or false, or be any
    text.
    """
    columns = COLUMNS[kind]
    if len(values) != len(names) or sorted(names) != sorted(name for name, _ in columns):
        expected = [name for name, _ in columns]
        raise ValueError(f"a {kind} row needs one value for each of {expected}, got {values}")
    raw = dict(zip(names, values))
    row = {}
    for name, typ in columns:
        value = raw[name]
        if csv and typ is bool:
            value = _CSV_BOOLS.get(value, value)
        elif csv and typ is int and _CSV_INT.fullmatch(value):
            value = int(value)
        if type(value) is not typ:
            raise ValueError(f"{kind} column {name!r} needs {typ.__name__}, got {value!r}")
        row[name] = value
    return row


def _report_kind(doc: dict, json_rows: bool) -> str:
    """The kind of a parsed report, once it is known and doc has every
    field of its shape; else ValueError naming the kind and the field."""
    if "kind" not in doc:
        raise ValueError("a report needs the field 'kind'")
    kind = doc["kind"]
    if kind not in COLUMNS:
        raise ValueError(f"unknown report kind {kind!r}, expected one of {sorted(COLUMNS)}")
    table = kind in _TABLE_KINDS
    fields = _TABLE_FIELDS if table else _SCAN_FIELDS
    if json_rows:
        fields += ("rows",) if table else ("violations",)
    for name in fields:
        if name not in doc:
            raise ValueError(f"a {kind} report needs the field {name!r}")
    return kind


def _report_from_payload(doc: dict) -> Report:
    kind = _report_kind(doc, json_rows=True)
    if kind in _TABLE_KINDS:
        return TableReport(
            kind=kind,
            parameters=doc["parameters"],
            rows=[_typed_row(kind, list(r), list(r.values())) for r in doc["rows"]],
            elapsed=doc["elapsed_seconds"],
        )
    lo, hi = doc["b_range"]
    return ScanReport(
        kind=kind,
        b_lo=lo,
        b_hi=hi,
        tuples_checked=doc["tuples_checked"],
        violations_total=doc["violations_total"],
        violations=[_typed_row(kind, list(r), list(r.values())) for r in doc["violations"]],
        parameters=doc["parameters"],
        summary=doc["summary"],
        elapsed=doc["elapsed_seconds"],
    )


def parse_json(text: str) -> list[Report]:
    doc = json.loads(text)
    docs = doc if isinstance(doc, list) else [doc]
    return [_report_from_payload(d) for d in docs]


def parse_csv(text: str) -> list[Report]:
    reports = []
    for section in text.strip().split("\n\n"):
        meta: dict = {}
        names: list[str] = []
        rows: list[list[str]] = []
        for line in section.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif not names:
                names = line.split(",")
            else:
                rows.append(line.split(","))
        kind = _report_kind(meta, json_rows=False)
        typed = [_typed_row(kind, names, cells, csv=True) for cells in rows]
        common = {
            "kind": kind,
            "parameters": json.loads(meta["parameters"]),
            "elapsed": float(meta["elapsed_seconds"]),
        }
        if kind not in _TABLE_KINDS:
            lo, _, hi = meta["b_range"].partition("..")
            reports.append(
                ScanReport(
                    b_lo=int(lo),
                    b_hi=int(hi),
                    tuples_checked=int(meta["tuples_checked"]),
                    violations_total=int(meta["violations_total"]),
                    violations=typed,
                    summary=json.loads(meta["summary"]),
                    **common,
                )
            )
        else:
            reports.append(TableReport(rows=typed, **common))
    return reports
