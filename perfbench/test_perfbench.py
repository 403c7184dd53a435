"""Tests of the benchmark itself: python3 -m pytest perfbench (about a minute).

They run the real command with --seconds 1, so each run makes one untraced
pass, plus one traced pass with --trace 1.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RECORDED_SEED = 1
# no digests are recorded for this seed, so traced and untraced outputs are
# compared only with each other
UNRECORDED_SEED = 1000
EXACT_COUNTS = ("dynamics.rk4_calls", "mission.ticks", "cli.write_csv.rows",
                "control.desat_unwinds")


def bench(workload: str, trace: int, seed: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["passes"], json.loads(lines[-1])


def assert_declared(result, kind):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_twice(request):
    workload = request.param
    return workload, [result_of(bench(workload, 1, UNRECORDED_SEED)) for _ in range(2)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics_and_matches_digests(workload):
    passes, result = result_of(bench(workload, 0, RECORDED_SEED))
    assert_declared(result, "end_to_end")
    assert all(p["checked_against"] == "recorded digests" for p in passes)


def test_traced_run_prints_per_layer_metrics(traced_twice):
    _, runs = traced_twice
    for _, result in runs:
        assert_declared(result, "per_layer")


def test_wrappers_leave_outputs_unchanged(traced_twice):
    _, runs = traced_twice
    digests = {p["outputs_sha256"] for passes, _ in runs for p in passes}
    assert sum(p["traced"] for passes, _ in runs for p in passes) == 2
    assert len(digests) == 1


def test_exact_counts_repeat(traced_twice):
    _, ((_, a), (_, b)) = traced_twice
    for name in EXACT_COUNTS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def test_counts_match_the_workload_definition(traced_twice):
    workload, ((_, result), _) = traced_twice
    value = {k: v["value"] for k, v in result["metrics"].items()}
    ratio = {"sweep-batch": 8 / 12}.get(workload, 0.0)
    assert value["mission.duplicate_run_ratio"] == pytest.approx(ratio)
    if workload == "presets-cli":
        assert value["dynamics.rk4_calls"] == 82_500
    if workload == "long-mission":
        assert value["cli.write_csv.rows"] == 0


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_a_changed_output_counts_as_a_failed_run(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    digests = tmp_path / "perfbench" / "digests.json"
    table = json.loads(digests.read_text())
    table["presets-cli"]["*"]["converge.csv"] = "0" * 64
    digests.write_text(json.dumps(table))
    passes, result = result_of(bench("presets-cli", 0, RECORDED_SEED, cwd=tmp_path))
    assert [p["failed"] for p in passes] == [1] * len(passes)
    assert not result["correct"] and result["failed"] == len(passes)


def test_fails_without_the_package_source(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench(WORKLOADS[0], 0, RECORDED_SEED, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
