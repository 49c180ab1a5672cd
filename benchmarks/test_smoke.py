"""Smoke tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

TINY = {name: replace(w, num_bags=40, epochs=2) for name, w in bench.WORKLOADS.items()}


def tiny_run(name, trace, tmp_path, seed=3):
    return bench.run(TINY[name], seed, seconds=0.5, trace=trace, out_dir=tmp_path)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return {(name, trace): tiny_run(name, trace, out) for name in TINY for trace in (False, True)}


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in bench.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_present_with_its_unit(results, name, trace):
    result = results[(name, trace)]
    assert result["correct"], result["check_failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    unbounded = {} if trace else bench.UNBOUNDED_UNITS
    assert {k: v["unit"] for k, v in result["unbounded"].items()} == unbounded
    values = [v["value"] for part in ("metrics", "unbounded") for v in result[part].values()]
    assert all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("name", list(TINY))
def test_count_metrics_repeat_exactly(results, name, tmp_path):
    again = tiny_run(name, True, tmp_path)
    first = results[(name, True)]
    counts = [k for k, v in first["metrics"].items() if v["unit"] == "count"]
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}


def test_instance_graph_builds_only_where_the_instance_graph_is_on(results):
    builds = {name: results[(name, True)]["metrics"]["graph.instance_builds"]["value"]
              for name in TINY}
    assert builds["many-labels-c"] == 0
    assert builds["default"] > 0 and builds["wide-bags"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_self_times_add_up_to_the_traced_epoch(results, name):
    metrics = results[(name, True)]["metrics"]
    total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(metrics["trace.epoch_s"]["value"], rel=1e-9, abs=1e-12)
    assert not results[(name, True)]["details"]["other_spans_per_run"]


def test_a_failed_output_check_fails_the_run(monkeypatch, tmp_path):
    bench.load_program()
    from glemiml import enhancer

    real = enhancer.enhance_batch

    def skewed(model, bags):
        batch = real(model, bags)
        return replace(batch, distributions=batch.distributions * 1.001)

    monkeypatch.setattr(enhancer, "enhance_batch", skewed)
    result = tiny_run("default", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("sum to 1" in f for f in result["check_failures"])


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
