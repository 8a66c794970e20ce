"""Report containers and serialization for scan results.

Two shapes of report exist. A ScanReport summarizes an exhaustive check
over a range of b: how many tuples were inspected, how many violated
the property, and a capped list of violating rows. A TableReport is a
plain table of constructed rows with no pass/fail semantics (used for
the example family).

A report is one document, whose fields _FIELDS states per shape: their
names, order and types. JSON writes the document as one object, or an
array when several reports are emitted together. CSV writes it as one
section per report: each field but the rows as a '# key=value' comment
line, the rows as a table, sections separated by a blank line. Both
parsers hand the document to one reader, which refuses a missing field
or one of another type. Output is deterministic except for the
elapsed_seconds field.
"""

import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import itemgetter

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

# The shape of each kind that is not reported as a ScanReport.
_SHAPES = {"examples": TableReport}

# What a document field of each type holds; no int is a bool.
_TYPES = {
    "text": lambda v: type(v) is str,
    "two ints": lambda v: type(v) is list and len(v) == 2 and all(type(x) is int for x in v),
    "an int": lambda v: type(v) is int,
    "an object": lambda v: type(v) is dict,
    "a list of rows": lambda v: type(v) is list,
    "a number": lambda v: type(v) in (int, float),
}

# The fields of each shape's document with their types, in the order that
# CSV writes them. "b_range" holds [b_lo, b_hi] and "elapsed_seconds"
# elapsed; every other field holds the attribute of its name, and the
# list of rows holds rows of COLUMNS[kind].
_FIELDS = {
    ScanReport: (
        ("kind", "text"),
        ("b_range", "two ints"),
        ("tuples_checked", "an int"),
        ("violations_total", "an int"),
        ("parameters", "an object"),
        ("summary", "an object"),
        ("violations", "a list of rows"),
        ("elapsed_seconds", "a number"),
    ),
    TableReport: (
        ("kind", "text"),
        ("parameters", "an object"),
        ("rows", "a list of rows"),
        ("elapsed_seconds", "a number"),
    ),
}


def _document(report: Report) -> dict:
    """The fields of the report's shape, in order, with its values."""
    values = vars(report) | {"elapsed_seconds": report.elapsed}
    if isinstance(report, ScanReport):
        values["b_range"] = [report.b_lo, report.b_hi]
    return {name: values[name] for name, _ in _FIELDS[type(report)]}


# The JSON text of a row value of each type, as json.dumps writes it
# with ensure_ascii.
_CELL_JSON = {
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    str: encode_basestring_ascii,
}


def _cell_json(value) -> str:
    write = _CELL_JSON.get(type(value))
    if write is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return write(value)


def _rows_json(kind: str, rows: list[dict], depth: int) -> list[str]:
    """The JSON text of each row as json.dumps(row, sort_keys=True,
    indent=2) writes it nested at depth, from one template per call.

    Raises ValueError, as _typed_row does, unless each row is an object
    of exactly the kind's columns, and TypeError for a value that is not
    an int, a bool or a string.
    """
    if not rows:
        return []
    if kind not in COLUMNS:
        raise ValueError(f"unknown report kind {kind!r}, expected one of {sorted(COLUMNS)}")
    names = sorted(name for name, _ in COLUMNS[kind])
    values = itemgetter(*names)
    pad = "\n" + "  " * (depth + 1)
    template = "{" + ",".join(f'{pad}"{name}": %s' for name in names) + pad[:-2] + "}"
    _check_rows(kind, rows, names)
    return [template % tuple(map(_cell_json, values(row))) for row in rows]


def _check_rows(kind: str, rows: list[dict], names: list[str]) -> None:
    """The row check of both writers: ValueError, as _typed_row raises
    it, unless each row is an object of exactly the column names."""
    expected = set(names)
    for row in rows:
        if type(row) is not dict or row.keys() != expected:
            _typed_row(kind, row)  # raises the parser's error


def _json_list(items: list[str], depth: int) -> str:
    """The JSON array of the items' texts as json.dumps(indent=2) writes
    it nested at depth."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + f",{pad}".join(items) + pad[:-2] + "]"


def _document_json(report: Report, depth: int) -> str:
    """The report's document as json.dumps(doc, sort_keys=True, indent=2)
    writes it nested at depth. Each field but the rows is written by
    json.dumps and shifted to its depth: JSON text holds no raw newline,
    so every "\\n" in it starts a line of the layout."""
    doc = _document(report)
    pad = "\n" + "  " * (depth + 1)
    fields = []
    for name, typ in sorted(_FIELDS[type(report)]):
        if typ == "a list of rows":
            text = _json_list(_rows_json(report.kind, doc[name], depth + 2), depth + 1)
        else:
            text = json.dumps(doc[name], sort_keys=True, indent=2).replace("\n", pad)
        fields.append(f'{pad}"{name}": {text}')
    return "{" + ",".join(fields) + pad[:-2] + "}"


def render_json(reports: list[Report]) -> str:
    """JSON text for one or many reports; single object when exactly one.

    The text is json.dumps(docs, sort_keys=True, indent=2) + "\\n":
    two-space indent, keys sorted, non-ASCII escaped.
    """
    if len(reports) == 1:
        return _document_json(reports[0], 0) + "\n"
    return _json_list([_document_json(r, 1) for r in reports], 0) + "\n"


# What a str cell may not hold in CSV: each would split its line.
_CSV_BREAKS = re.compile(r"[,\n\r]")


def _csv_cell(kind: str, name: str, value) -> str:
    """A row value as CSV writes it: a string as it is, unless it holds a
    comma or a line break (ValueError), an int or a bool as JSON writes
    it, and TypeError for any other value, as in JSON."""
    if type(value) is not str:
        return _cell_json(value)
    if _CSV_BREAKS.search(value):
        raise ValueError(f"{kind} column {name!r} needs CSV text, got {value!r}")
    return value


# How CSV writes the fields that it does not write as JSON.
_CSV_TEXT = {
    "kind": str,
    "b_range": "{0[0]}..{0[1]}".format,
    "elapsed_seconds": "{:.6f}".format,
}


def _csv_section(report: Report) -> str:
    names = [name for name, _ in COLUMNS[report.kind]]
    doc = _document(report)
    lines = []
    for name, typ in _FIELDS[type(report)]:
        if typ == "a list of rows":
            rows = doc[name]
            _check_rows(report.kind, rows, names)
            lines.append(",".join(names))
            lines += (",".join(_csv_cell(report.kind, n, row[n]) for n in names) for row in rows)
        else:
            text = _CSV_TEXT.get(name, lambda v: json.dumps(v, sort_keys=True))(doc[name])
            lines.append(f"# {name}={text}")
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


# The text of an int and of a bool cell in CSV, as _csv_cell writes it,
# and of b_range, as _csv_section writes it.
_CSV_INT = re.compile(r"-?[0-9]+")
_CSV_BOOLS = {"true": True, "false": False}
_CSV_RANGE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)")


def _typed_row(kind: str, row, csv: bool = False) -> dict:
    """The row of a kind from a JSON object, or with csv from a pair: the
    column names of a CSV section and the cells of one of its lines.

    Raises ValueError unless the names and values are exactly the kind's
    columns, in any order, one value each, and each value has its
    column's type, naming the kind and the column. A JSON value must be
    an integer that is not a bool, a bool, or a string; a CSV cell, which
    is text, must read as an integer, be exactly true or false, or be any
    text.
    """
    if not csv and type(row) is not dict:
        raise ValueError(f"a {kind} row needs an object, got {row!r}")
    names, values = row if csv else (list(row), list(row.values()))
    columns = COLUMNS[kind]
    if len(values) != len(names) or sorted(names) != sorted(name for name, _ in columns):
        expected = [name for name, _ in columns]
        raise ValueError(f"a {kind} row needs one value for each of {expected}, got {values}")
    raw = dict(zip(names, values))
    typed = {}
    for name, typ in columns:
        value = raw[name]
        if csv and typ is bool:
            value = _CSV_BOOLS.get(value, value)
        elif csv and typ is int and _CSV_INT.fullmatch(value):
            value = int(value)
        if type(value) is not typ:
            raise ValueError(f"{kind} column {name!r} needs {typ.__name__}, got {value!r}")
        typed[name] = value
    return typed


def _report(doc, csv: bool = False) -> Report:
    """The report of a parsed document; with csv its rows are the pairs
    of a CSV section that _typed_row reads.

    Raises ValueError unless the document has every field of its kind's
    shape with the field's type, naming the kind and the field.
    """
    if type(doc) is not dict or "kind" not in doc:
        raise ValueError("a report needs the field 'kind'")
    kind = doc["kind"]
    if type(kind) is not str or kind not in COLUMNS:
        raise ValueError(f"unknown report kind {kind!r}, expected one of {sorted(COLUMNS)}")
    shape = _SHAPES.get(kind, ScanReport)
    values = {}
    for name, typ in _FIELDS[shape]:
        if name not in doc:
            raise ValueError(f"a {kind} report needs the field {name!r}")
        value = doc[name]
        if not _TYPES[typ](value):
            raise ValueError(f"{kind} field {name!r} needs {typ}, got {value!r}")
        rows = typ == "a list of rows"
        values[name] = [_typed_row(kind, row, csv) for row in value] if rows else value
    values["elapsed"] = values.pop("elapsed_seconds")
    if shape is ScanReport:
        values["b_lo"], values["b_hi"] = values.pop("b_range")
    return shape(**values)


def parse_json(text: str) -> list[Report]:
    doc = json.loads(text)
    return [_report(d) for d in (doc if isinstance(doc, list) else [doc])]


def _csv_value(name: str, text: str):
    """The value of a '# name=text' line as _csv_section wrote it. Text
    that does not decode stays text, for the reader to refuse."""
    if name == "b_range" and (match := _CSV_RANGE.fullmatch(text)):
        return [int(match[1]), int(match[2])]
    if name in ("kind", "b_range"):
        return text
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_csv(text: str) -> list[Report]:
    reports = []
    for section in text.strip().split("\n\n"):
        doc: dict = {}
        names: list[str] = []
        rows: list[tuple[list[str], list[str]]] = []
        for line in section.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                doc[key] = _csv_value(key, value)
            elif not names:
                names = line.split(",")
            else:
                rows.append((names, line.split(",")))
        fields = _FIELDS[_SHAPES.get(doc.get("kind"), ScanReport)]
        doc[next(name for name, typ in fields if typ == "a list of rows")] = rows
        reports.append(_report(doc, csv=True))
    return reports
