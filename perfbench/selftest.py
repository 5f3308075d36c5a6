"""The benchmark's own tests, on smoke-sized workloads (under a minute).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's default pytest run.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Constants, pinned_mismatches  # noqa: E402

SMOKE_SEED = 3
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(SMOKE_SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "_work" / "results" /
                         f"{workload}-seed{SMOKE_SEED}-trace{trace}.json").read_text())
    return last, record


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    return request.param, _result(request.param, 0), _result(request.param, 1)


def test_smoke_run_is_correct_and_prints_the_declared_metrics(runs):
    _, (last, _), (traced_last, _) = runs
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert traced_last["correct"] and traced_last["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {n: m["unit"] for n, m in traced_last["metrics"].items()} == declared


def test_traced_and_untraced_outputs_are_identical(runs):
    _, (_, record), (_, traced_record) = runs
    assert record["outputs"] == traced_record["outputs"]


def test_layer_times_account_for_the_traced_body(runs):
    _, _, (_, record) = runs
    traced = [op for op in record["operations"] if op["traced"]]
    assert traced
    for op in traced:
        m = op["layers"]
        parts = sum(v for k, v in m.items() if k.endswith(".self_s")) \
            + m["fourier.fft_s"] + m["renorm.fft_s"] + m["trace.fft_other_s"]
        assert math.isclose(parts + m["trace.unattributed_s"], m["trace.run_s"],
                            rel_tol=1e-9)
        assert 0 <= m["trace.unattributed_s"] < 0.05 * m["trace.run_s"]
        assert m["trace.errors"] == 0


def test_workload_layers_match_their_purpose(runs):
    workload, _, (_, record) = runs
    m = record["metrics"]
    if workload == "constants":
        assert m["renorm.pair_integral_calls"]["value"] > 0
        for zero in ("fourier.fft_calls", "besov.blocks_calls", "solver.steps",
                     "gaussian.streams", "diagrams.upsilon_s"):
            assert m[zero]["value"] == 0, zero
    else:
        assert m["solver.reference_s"]["value"] > 0
        assert m["renorm.pair_integral_calls"]["value"] > 0


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["command"][1:] == ["perfbench/run.py"]


def test_configs_are_a_function_of_the_seed_and_keep_the_cutoffs():
    for wl in WORKLOADS.values():
        assert wl.configs(5) == wl.configs(5)
        assert wl.configs(5) != wl.configs(6)
    for seed in range(1, 30):
        cfgs = Constants.configs(seed)
        ks = [math.ceil(4.0 / e) for e in cfgs["quartic"]["eps"]]
        assert ks == [20, 29, 40]
        assert math.ceil(4.0 / cfgs["sextic"]["eps"][0]) == 10


def test_pinned_comparison_uses_the_relative_tolerance():
    pinned = {"a": [1.0, 0.0], "b": "x"}
    assert pinned_mismatches({"a": [1.0 + 1e-13, 0.0], "b": "x", "c": 2}, pinned) == []
    assert pinned_mismatches({"a": [1.0 + 1e-11, 0.0], "b": "x"}, pinned)
    assert pinned_mismatches({"a": [1.0, 1e-300], "b": "x"}, pinned)
    assert pinned_mismatches({"a": [1.0, 0.0]}, pinned)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("constants", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
