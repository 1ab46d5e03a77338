"""Tests of the benchmark itself: tiny runs of every workload.

Run from the repository root with
``python3 -m pytest perfbench/selftest.py -q``; the file name keeps it out of
the repository's default test collection.
Each run is in-process (``run.main``) so a test can break the program
under measurement with ``monkeypatch`` and check that the benchmark
counts the damage as failed operations instead of passing or crashing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.add_import_paths()
HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
TINY = ["--seed", "3", "--seconds", "0.2", "--scale", "0.05"]


def _run(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--trace", str(trace), *TINY])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


def test_declared_metrics_match_the_runner():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert tuple(WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(capsys, workload):
    result = _run(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(capsys, workload):
    result = _run(capsys, workload, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    # Every workload exercises the layer it was chosen for.
    busiest = {
        "archive": "kernel.compress_s",
        "fallback": "kernel.setup_s",
        "query": "crc.decode_s",
        "serve": "server.request_s",
    }[workload]
    assert metrics[busiest] > 0
    written = json.loads((HERE / ".work" / "layers" / f"{workload}.json").read_text())
    assert written["metrics"] == metrics


def test_flipped_container_byte_counts_as_failed(capsys, monkeypatch):
    from repro.runtime.engine import TraceEngine

    compress = TraceEngine.compress

    def flipped(self, raw, **kwargs):
        blob = bytearray(compress(self, raw, **kwargs))
        blob[len(blob) // 2] ^= 0x40
        return bytes(blob)

    monkeypatch.setattr(TraceEngine, "compress", flipped)
    result = _run(capsys, "archive", 0)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] <= result["attempted"]


def test_wrong_query_count_counts_as_failed(capsys, monkeypatch):
    import repro.query

    run_query = repro.query.run_query

    def off_by_one(*args, **kwargs):
        answer = run_query(*args, **kwargs)
        answer.count += 1
        return answer

    monkeypatch.setattr(repro.query, "run_query", off_by_one)
    result = _run(capsys, "query", 0)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/, the run must fail, printing no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "archive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
