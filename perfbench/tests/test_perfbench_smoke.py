"""Smoke test of the benchmark: every workload at tiny size, both modes.

Checks that the last line of output is the result object with every metric
named in BENCHMARK.json, with its unit, and that the benchmark refuses to
run without the svtc sources next to it.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dict(n_train=4, n_dev=2, n_test=3)


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    tiny = {
        name: dataclasses.replace(wl, gen={**wl.gen, **TINY}, epochs=1)
        for name, wl in bench.WORKLOADS.items()
    }
    monkeypatch.setattr(bench, "WORKLOADS", tiny)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(bench.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(tiny_workloads, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert bench.main(argv) == 0
    result = _result(capsys)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert list(tiny_workloads.iterdir()) == []  # work files are removed


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    skip_cache = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=skip_cache)
    workload = SPEC["workloads"][0]["name"]
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
