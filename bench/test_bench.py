"""Tests of the benchmark itself: seeded generation, output checks that
catch a wrong output, the memory guard, and a tiny end-to-end pass of
every workload in both modes.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generation_is_deterministic_in_the_seed(tmp_path, workload):
    a = W.generate(workload, 5, tmp_path / "a", W.TINY)
    b = W.generate(workload, 5, tmp_path / "b", W.TINY)
    W.generate(workload, 6, tmp_path / "c", W.TINY)
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_memory_guard_refuses_a_huge_compare_class():
    W.check_memory("diagnose", {"largest_class": 100, "dim": 512})
    with pytest.raises(ValueError):
        W.check_memory("diagnose", {"largest_class": 1_000_000, "dim": 512})


def test_checks_catch_a_changed_score(tmp_path):
    meta = W.generate("curate", 2, tmp_path, W.TINY)
    stages = [(name, argv) for name, argv in meta["stages"]]
    passes, digests = run.untraced_passes(stages, tmp_path, 0)
    assert all(s["code"] == 0 for p in passes for s in p["stages"])
    assert len(set(digests)) == 1
    assert all(c["ok"] for c in checks.run_checks("curate", tmp_path, tmp_path / "pass0", 2, W.TINY))

    path = tmp_path / "pass0" / "match" / "candidates.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["score"] = rows[0]["score"] + 1e-12
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    failed = {c["name"] for c in checks.run_checks("curate", tmp_path, tmp_path / "pass0", 2, W.TINY)
              if not c["ok"]}
    assert "sampled candidate scores equal a float64 einsum bitwise" in failed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_pass_runs_end_to_end(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--sizes", "tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
