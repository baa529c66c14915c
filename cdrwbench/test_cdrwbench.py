"""Tests of the benchmark itself, at toy size.

    python3 -m pytest cdrwbench -q

Each workload runs end to end on tiny graphs; the tests check the output
contract against BENCHMARK.json and that a corrupted reply is counted as a
failure rather than passing or crashing the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]


def run_bench(workload: str, trace: int, cwd: Path = ROOT,
              script: Path = BENCH_DIR / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        metrics = result["metrics"]
        assert metrics["ok_ratio"]["value"] == 1.0
        assert all(metrics[m["name"]]["value"] > 0 for m in expected)
    record = json.loads(done.stdout.strip().splitlines()[-2])["record"]
    assert record["host"]["nproc"] >= 1 and len(record["src_sha256"]) == 64
    assert record["leaks"] == []


def test_f_score_repeats_exactly() -> None:
    first, second = (last_json(run_bench("wire_file", 0).stdout) for _ in range(2))
    assert first["metrics"]["f_score"] == second["metrics"]["f_score"]


def test_corrupted_reply_counts_as_failure(monkeypatch: pytest.MonkeyPatch,
                                          capsys: pytest.CaptureFixture[str]) -> None:
    import dataclasses

    import run
    from repro.service_net import ServiceClient

    original = ServiceClient.detect
    calls = {"n": 0}

    def corrupting(self: ServiceClient, seed: int, **kwargs: object):
        report = original(self, seed, **kwargs)
        calls["n"] += 1
        if calls["n"] == 3:  # drop one member from the third reply's community
            community = report.detection.communities[0]
            damaged = dataclasses.replace(community, community=community.community - {
                next(v for v in community.community if v != community.seed)})
            report = dataclasses.replace(report, detection=dataclasses.replace(
                report.detection, communities=(damaged,)))
        if calls["n"] == 4:
            raise ConnectionResetError("reply lost")
        return report

    monkeypatch.setattr(ServiceClient, "detect", corrupting)
    code = run.main(["--workload", "wire_file", "--seed", "3", "--seconds", "0.3", "--toy"])
    out, err = capsys.readouterr()
    result = last_json(out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 2
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    assert "differs from its reference in members" in err
    assert "ConnectionResetError" in err


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "cdrwbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_refuses_other_hosts(tmp_path: Path) -> None:
    def record(nproc: int) -> str:
        host = {"nproc": nproc, "cpu_model": "x", "python": "3", "numpy": "2", "scipy": "1"}
        return json.dumps({"record": {"host": host, "workload": "partition", "trace": 0,
                                      "commit": "c", "src_sha256": "0" * 64},
                           "result": {"correct": True, "metrics": {}}}) + "\n"

    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text(record(2))
    new.write_text(record(8))
    done = subprocess.run([sys.executable, str(BENCH_DIR / "compare.py"), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "different hosts" in done.stderr
