"""The benchmark's own tests.

    python3 -m pytest -q perfbench

They run the benchmark in quick mode, so they take about half a minute.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from kakutani.spectral import SpreadClass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_mode_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert result["attempted"] >= 1
    details = json.loads(proc.stdout.strip().splitlines()[-2])
    assert details["error_rate"] == 0.0, details["errors"]
    assert result["correct"] and result["failed"] == 0


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.load_refs()) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_decides_the_op_list(workload):
    first = [workloads.make_round(workload, 7, i) for i in range(3)]
    assert first == [workloads.make_round(workload, 7, i) for i in range(3)]
    assert first != [workloads.make_round(workload, 8, i) for i in range(3)]


def test_survey_reference_is_the_golden_file():
    golden = (ROOT / "tests" / "data" / "survey_n12.csv").read_bytes()
    ref = run.load_refs()["spectral-sweep"]["survey --max-n 12"]
    assert ref["sha256"] == hashlib.sha256(golden).hexdigest()


class Wrong:
    """An op whose call returns a deliberately corrupted result."""

    def __init__(self, op, corrupt):
        self.op = op
        self.corrupt = corrupt
        self.keep = False

    def call(self, inputs):
        return self.corrupt(self.op.call(inputs))

    def check(self, result):
        self.op.check(result)

    def items(self, result):
        return self.op.items(result)


def flip_verdict(verdict):
    report = dataclasses.replace(verdict.spectral, solomon=SpreadClass.SPREAD)
    return dataclasses.replace(verdict, spectral=report)


@pytest.mark.parametrize("op, corrupt", [
    (workloads.Classify(7, 3), flip_verdict),
    (workloads.CountTiles(0.3, 12.0, workloads.oracle.Tree(0.3, 12.0).total()), lambda n: n + 1),
    (workloads.PrefixCount(0.3, 20.0, 1e6, workloads.oracle.Tree(0.3, 20.0).prefix(1e6)), lambda n: n - 1),
])
def test_wrong_output_counts_as_failure(op, corrupt):
    tally = run.Tally()
    assert run.call_checked(op, {}, tally) is not None
    assert run.call_checked(Wrong(op, corrupt), {}, tally) is None
    assert (tally.attempted, tally.failed) == (2, 1)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "spectral-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(raises=workloads.discrepancy.ParameterError, strict=True,
                   reason="the monotonicity check of DiscrepancySeries has an absolute 1e-9 "
                          "tolerance, below one ulp of maxima past 2^23")
def test_irrational_scan_to_2_44():
    """Irrational profile scans stop at 2^IRRATIONAL_SCAN_MAX_EXP because of
    this; once it passes, raise the cap back to 44."""
    windows = workloads.discrepancy.dyadic_windows(4, 44)
    series = workloads.discrepancy.discrepancy_scan(0.4460037290517811, 30.865213239948087, windows)
    assert len(series.max_disc) == len(windows)
