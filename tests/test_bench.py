"""Tests for the timed cross-check of ``dedsum sum --method both``."""

import re

import dedsum.cli
from dedsum.cli import main


def test_compare_evaluators_returns_the_value_and_both_times(capsys):
    assert main(["sum", "6", "25", "--method", "both"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("S = -48/25\n")
    times = re.fullmatch(r"naive: (\d+\.\d{6}) s\nfast:  (\d+\.\d{6}) s\n", captured.err)
    assert times and float(times[1]) > 0 and float(times[2]) > 0


def test_compare_evaluators_refuses_a_disagreement(monkeypatch, capsys):
    # The fast evaluator is off by one only at b = 25.
    real = dedsum.cli.dedekind_fast
    monkeypatch.setattr(dedsum.cli, "dedekind_fast", lambda a, b: real(a, b) + (b == 25))
    assert main(["sum", "6", "19", "--method", "both"]) == 0
    capsys.readouterr()
    assert main(["sum", "6", "25", "--method", "both"]) == 3
    assert "evaluators disagree at a=6, b=25: -48/25 vs -23/25" in capsys.readouterr().err
