"""Smoke test of the benchmark (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest bench -q``.  Every workload runs
once plain and once traced with a 1 s window and one cold start.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "bench" / "layers.json").read_text())["layers"]


def _bench(tmp_path_factory: pytest.TempPathFactory, trace: int) -> tuple[str, dict]:
    out = tmp_path_factory.mktemp("bench") / "results.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--seconds", "1", "--cold-starts", "1",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def plain(tmp_path_factory: pytest.TempPathFactory) -> tuple[str, dict]:
    return _bench(tmp_path_factory, 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> tuple[str, dict]:
    return _bench(tmp_path_factory, 1)


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_printed_with_unit(kind: str, plain: tuple, traced: tuple) -> None:
    stdout, results = plain if kind == "end_to_end" else traced
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for name in workloads.NAMES:
        for metric in SPEC[kind]:
            line = rf"^{re.escape(name)}\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$"
            assert re.search(line, stdout, re.MULTILINE), (name, metric["name"])
            assert last["metrics"][name][metric["name"]]["unit"] == metric["unit"]
        assert set(last["metrics"][name]) == {m["name"] for m in SPEC[kind]}
        assert results["workloads"][name]["error_rate"] == 0
    assert last["correct"] and last["failed"] == 0


def test_same_seed_same_hashes(plain: tuple, traced: tuple) -> None:
    a, b = plain[1]["workloads"], traced[1]["workloads"]
    for name in workloads.NAMES:
        assert a[name]["hashes"] == b[name]["hashes"]
        assert a[name]["exact"] == b[name]["exact"]


def test_corrupted_reference_fails_every_run(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(workloads, "reference_json", lambda result: result.to_json() + " ")
    outcome = workloads.run("filter-verify", 7, 0.5, False, 1, tmp_path, tmp_path / "t.json")
    assert outcome.attempted > 0
    assert outcome.failed / outcome.attempted == 1.0
    assert not outcome.correct


def test_failed_workload_still_prints_result(monkeypatch: pytest.MonkeyPatch,
                                             capsys: pytest.CaptureFixture) -> None:
    def boom(*_: object) -> None:
        raise RuntimeError("daemon did not start")

    monkeypatch.setattr(run.workloads, "run", boom)
    monkeypatch.setattr(run.signal, "signal", lambda *_: None)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "serve-mixed", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_layer_map_names_every_per_layer_metric() -> None:
    assert set(LAYERS) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for name, layer in LAYERS.items():
        assert set(layer["moves"]) <= end_to_end, name
        assert set(layer["on"]) | set(layer["not_on"]) <= set(workloads.NAMES), name
        assert not set(layer["on"]) & set(layer["not_on"]), name


def test_trace_spans_nest(traced: tuple) -> None:
    recorder = Recorder.load(ROOT / traced[1]["workloads"]["filter-cascade"]["trace_file"])
    by_id = {s[0]: s for s in recorder.spans}
    shares = 0
    for sid, name, start, end, parent, thread, _run in recorder.spans:
        if parent is None:
            continue
        p = by_id[parent]
        assert p[2] <= start and end <= p[3], (name, p[1])
        if name == "exec.share":
            shares += 1
            assert p[1] == "exec.fanout" and p[5] != thread
        else:
            assert p[5] == thread
    assert shares > 0
