"""Smoke test of the benchmark at toy scale: python -m pytest perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_package()
from refcheck import check_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOY = 1 / 50


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def toy_runs(request):
    w = WORKLOADS[request.param].scaled(TOY)
    return w, run.run_workload(w, 1, 0, False), run.run_workload(w, 1, 0, True)


def test_every_metric_appears_with_its_unit(toy_runs):
    _, plain, traced = toy_runs
    for res, trace, names in ((plain, False, run.E2E_METRICS), (traced, True, run.LAYER_METRICS)):
        line = run.result_line(res, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == list(names)
        for name, m in line["metrics"].items():
            assert m["unit"] == names[name]
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_self_times_sum_within_traced_wall(toy_runs):
    _, _, traced = toy_runs
    layers = traced["layers"]
    assert layers["module_self_s"]
    assert sum(layers["module_self_s"].values()) <= layers["traced_wall_s"]


def test_module_bypass_shows_as_zero_calls(toy_runs):
    w, _, traced = toy_runs
    layers = traced["layers"]
    tango = w.fmt == "tango"
    assert (layers["store.insert_half.calls"] > 0) == tango
    assert (layers["baseline.insert_half.calls"] > 0) == (not tango)
    assert (layers["analytics.snapshot_edges"] > 0) == bool(w.kernels)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS


def test_check_catches_a_wrong_kernel_value():
    from graphtango.bench.data import gen_synthetic, shuffle
    from graphtango.bench.harness import run_experiment
    w = WORKLOADS["short-fresh"].scaled(TOY)
    el = shuffle(gen_synthetic(w.kind, w.vertices, w.edges, 1), 1)
    reports, _, values = run_experiment(el, w.fmt, algorithms=w.kernels,
                                        batch_size=w.batch, collect_values=True)
    assert check_experiment(el, w.batch, w.kernels, reports, values) == []
    values[3]["bfs"] = np.where(np.isfinite(values[3]["bfs"]), values[3]["bfs"] + 1, np.inf)
    values[5]["pr"] = values[5]["pr"] * 1.01
    reports[7].live_edges += 1
    failed = dict(check_experiment(el, w.batch, w.kernels, reports, values))
    assert sorted(failed) == [3, 5, 7]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "short-fresh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
