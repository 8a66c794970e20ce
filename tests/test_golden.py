"""Golden reports: every `check` suite at bmax 60, in JSON and CSV.

The reference files under tests/golden/ hold the command's output with
the elapsed_seconds field removed, so any change to report content,
row order, counters or formatting shows up as a byte difference.
Regenerate them only for an intended change of report content:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import re

import pytest

from dedsum.cli import main
from dedsum.scans import SUITES

GOLDEN = pathlib.Path(__file__).parent / "golden"
BMAX = 60
FORMATS = ("json", "csv")
_ELAPSED = re.compile(r'^(\s*"elapsed_seconds": .*|# elapsed_seconds=.*)\n', re.M)


def golden_path(suite: str, fmt: str) -> pathlib.Path:
    return GOLDEN / f"check_{suite}_bmax{BMAX}.{fmt}"


def render_check(suite: str, fmt: str) -> str:
    """stdout of `dedsum check` without its elapsed_seconds lines."""
    # --include-9div gives theorem1 its b = 9k counterexample rows.
    argv = ["check", "--suite", suite, "--bmax", str(BMAX), "--include-9div"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main([*argv, "--format", fmt])
    return _ELAPSED.sub("", out.getvalue())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("suite", SUITES)
def test_report_matches_golden_file(suite, fmt):
    expected = golden_path(suite, fmt).read_text(encoding="utf-8")
    assert render_check(suite, fmt) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for suite in SUITES:
        for fmt in FORMATS:
            golden_path(suite, fmt).write_text(render_check(suite, fmt), encoding="utf-8")
