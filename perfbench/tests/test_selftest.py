"""Self-test of the benchmark: tiny-op runs of every workload in both modes.

Each run prints every metric with its unit, runs its checks, and ends with
the one-line JSON result; one seed always regenerates the same op list.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def outputs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _bench(workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            cache[workload, trace] = proc.stdout.splitlines()
        return cache[workload, trace]
    return get


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric_and_checks(outputs, workload, trace):
    lines = outputs(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        printed = [line for line in lines if line.startswith(f"{m['name']} = ")]
        assert len(printed) == 1 and printed[0].endswith(f" {m['unit']}"), m["name"]
        float(printed[0].split(" = ")[1].split()[0])

    summary = next(line for line in lines if line.startswith("# ops "))
    checks_run = int(summary.split("checks run ")[1].split(",")[0])
    assert checks_run >= result["attempted"]
    assert any(line.startswith("fail_ratio = ") and line.endswith(" 1") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_regenerates_identical_op_list(workload):
    first = json.dumps(workloads.first_rounds(workload, 11, 2))
    assert json.dumps(workloads.first_rounds(workload, 11, 2)) == first
    assert json.dumps(workloads.first_rounds(workload, 12, 2)) != first


def test_benchmark_json_matches_the_metrics_the_code_prints():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        run.per_layer_specs()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("double-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
