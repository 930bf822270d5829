"""Self-tests of the benchmark, on the tiny size of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = ["fail_ratio", "agree_ms", "match1_ms", "match2_ms", "mast_ms", "decompose_ms", "gen_ms"]


def run_bench(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_shape():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and w["name"] in WORKLOADS for w in SPEC["workloads"])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload, seed):
    proc = run_bench(ROOT, workload, seed, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = "\n".join(lines[:-1])
    for name in [m["name"] for m in SPEC["end_to_end"]] + REPORTED:
        assert f"  {name} " in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    proc = run_bench(ROOT, workload, 0, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert result["metrics"]["trace.wall_s"]["value"] > 0


def test_traced_layers_partition_the_op_time(tmp_path):
    import agreetree.treecore as treecore

    original = treecore.parse_newick
    result = worker.run_workload("wide", 0, 0.0, True, "tiny", workdir=tmp_path / "w")
    metrics = result["metrics"]
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["decompose.branch_balanced"] + metrics["decompose.branch_path"] == 4
    assert treecore.parse_newick is original  # the tracer put the originals back


def test_times_are_scaled_to_the_reference_host_speed(tmp_path, monkeypatch):
    monkeypatch.setattr(worker.hostspeed, "sample", lambda: 2 * worker.hostspeed.REFERENCE_S)
    result = worker.run_workload("deep", 0, 0.0, False, "tiny", workdir=tmp_path / "w")
    metrics, wall = result["metrics"], result["report"]["wall"]
    slowdown = 2 ** worker.hostspeed.ELASTICITY
    assert result["report"]["host_slowdown"] == pytest.approx(slowdown)
    for name in ("setup_s", "op_p50_ms", "op_p90_ms"):
        assert metrics[name] == pytest.approx(wall[name] / slowdown)
    assert metrics["ops_per_s"] == pytest.approx(wall["ops_per_s"] * slowdown)


def test_host_speed_kernel_is_deterministic():
    assert worker.hostspeed.kernel() == worker.hostspeed.kernel() > 0


def test_corrupted_digest_counts_as_failed(tmp_path):
    expected = worker.load_expected("oracle", "tiny", 0)
    label = next(iter(expected))
    expected[label] = "0" * 64
    result = worker.run_workload("oracle", 0, 0.0, False, "tiny", expected=expected,
                                 workdir=tmp_path / "w")
    assert not result["correct"]
    assert result["failed"] == result["cycles"] >= 1
    assert all(f.startswith(f"{label}: stdout digest differs") for f in result["failures"])


def test_memory_error_is_a_counted_failure(tmp_path, monkeypatch):
    import agreetree.cli as cli

    def out_of_memory(argv):
        raise MemoryError

    monkeypatch.setattr(cli, "main", out_of_memory)
    result = worker.run_workload("deep", 0, 0.0, False, "tiny", workdir=tmp_path / "w")
    assert result["failed"] == result["attempted"] >= 1 and not result["correct"]
    assert result["failures"][0].endswith("MemoryError: ")


def test_address_space_cap_turns_a_huge_allocation_into_memory_error():
    code = "import worker; worker.cap_address_space(); bytearray(worker.ADDRESS_SPACE_CAP)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1 and "MemoryError" in proc.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "wide", 0, 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
