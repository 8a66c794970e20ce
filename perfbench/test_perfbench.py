"""Tests of the benchmark itself: output schema, gate, tracer, planted defects.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import dedsum.congruence  # noqa: E402
import dedsum.scans  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from tracer import KERNEL_SPECS, Tracer  # noqa: E402

SMALL = 40
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small_verdict(workload, workdir, tracer=None):
    """One verdict at a small bound, gated; returns (tally, reports)."""
    tally = workloads.Tally()
    gate = Gate(SMALL, random.Random(1))
    _, reports, shared = workloads.run_once(workload, SMALL, str(workdir), tracer)
    tally.record(reports, workloads.kinds_of(workload), gate, shared)
    return tally, reports


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        workloads.PER_LAYER_METRICS
    )
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace, expected", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, expected):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[expected]
    }
    for name in result["metrics"]:
        assert name in proc.stdout.split("\n{")[0]


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_passes_the_seed_code(workload, tmp_path):
    tally, _ = small_verdict(workload, tmp_path)
    assert tally.failed == 0, tally.problems
    assert tally.attempted == len(workloads.kinds_of(workload))


def test_gate_counts_expected_tuples():
    gate = Gate(10, random.Random(0))
    # phi(2..10) = 1, 2, 2, 4, 2, 6, 4, 6, 4
    assert gate.expected_tuples["oracle-equivalence"] == 31
    assert gate.expected_tuples["reciprocity"] == 32
    assert gate.expected_tuples["bhk"] == 93
    assert gate.expected_tuples["mu-mod8"] == 4 * (1 + 2 + 2 + 4 + 4)
    assert gate.expected_tuples["theorem1"] == sum(
        p * (p - 1) // 2 for p in (2, 2, 4, 2, 6, 4, 6, 4)
    )


def test_wrong_mu_fails_lifts(monkeypatch, tmp_path):
    real = dedsum.congruence.mu

    def wrong_mu(a, b):
        value = real(a, b)
        return (value + 4) % 8 if a % 5 == 2 else value

    monkeypatch.setattr(dedsum.scans, "mu", wrong_mu)
    monkeypatch.setattr(dedsum.congruence, "mu", wrong_mu)
    tally, _ = small_verdict("lifts", tmp_path)
    assert tally.failed / tally.attempted > 0
    assert any("bt-mod8" in p for p in tally.problems)


def test_perturbed_fast_parts_fails_oracle(monkeypatch, tmp_path):
    real = dedsum.scans._fast_parts

    def perturbed(a, b):
        num, den = real(a, b)
        return (num + 1, den) if b == 37 else (num, den)

    monkeypatch.setattr(dedsum.scans, "_fast_parts", perturbed)
    tally, _ = small_verdict("oracle", tmp_path)
    assert tally.failed / tally.attempted > 0
    assert any("oracle-equivalence" in p for p in tally.problems)


def test_theorem1_rows_are_rederived(tmp_path):
    _, (report,) = small_verdict("pairs", tmp_path)
    gate = Gate(SMALL, random.Random(1))
    assert gate.problems(report, "theorem1") == []
    report.violations[0]["diff_num"] += 24
    assert gate.problems(report, "theorem1")


def test_host_speed_scaling():
    assert hostspeed.reference() > 0
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scaled(1.5, nominal, nominal) == pytest.approx(1.5)
    # On a host half as fast the reference and the sample both take twice
    # as long, so the scaled sample reads the same.
    assert hostspeed.scaled(3.0, 2 * nominal, 2 * nominal) == pytest.approx(1.5)
    assert hostspeed.scaled(3.0, nominal, 3 * nominal) == pytest.approx(1.5)


def test_tracer_restores_every_name_and_skips_missing_ones():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in KERNEL_SPECS}
    specs = KERNEL_SPECS + (
        ("dedsum.scans", "no_such_kernel", "scans.no_such_kernel"),
        ("dedsum.no_such_module", "f", "no_such.f"),
    )
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(specs):
            assert dedsum.scans.mu is not originals[("dedsum.scans", "mu")]
            dedsum.scans.mu(2, 5)
            1 / 0
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn
    totals = tracer.totals()
    assert totals["congruence.mu"].calls == 1
    assert totals["arith.jacobi"].calls == 1
    assert "scans.no_such_kernel" not in totals


@pytest.mark.parametrize(
    "workload, absent, present",
    [
        ("pairs", ("contfrac.t_value", "dedekind.naive_bs_row"), ("dedekind.b_times_s",)),
        ("lifts", ("dedekind.naive_bs_row",), ("contfrac.t_value", "congruence.bt_residue")),
        ("oracle", ("contfrac.t_value",), ("dedekind._fast_parts", "dedekind.naive_bs_row")),
    ],
)
def test_workloads_separate_the_layers(workload, absent, present, tmp_path):
    tracer = Tracer()
    with tracer.installed():
        tally, _ = small_verdict(workload, tmp_path, tracer)
    assert tally.failed == 0, tally.problems
    totals = tracer.totals()
    assert all(name not in totals for name in absent)
    assert all(totals[name].calls > 0 for name in present)
    for kind in workloads.kinds_of(workload):
        node = tracer.root.children[f"scans.{kind}"]
        assert 0 <= node.self_seconds <= node.seconds
