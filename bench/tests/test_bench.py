"""Tests of the benchmark itself: inputs, metric names, the correctness gate, tracing.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.01  # 30-day ingest log, 10-day store


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _files(inputs: workloads.Inputs) -> list[bytes]:
    return [p.read_bytes() for p in (inputs.log, *inputs.batches)]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = workloads.write_inputs(name, 5, tmp_path / "a", TINY)
    again = workloads.write_inputs(name, 5, tmp_path / "b", TINY)
    other = workloads.write_inputs(name, 6, tmp_path / "c", TINY)
    assert _files(first) == _files(again)
    assert _files(first) != _files(other)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_reports_every_metric_and_no_failure(name, trace, tmp_path):
    out = run.run_workload(name, seed=3, seconds=0.2, trace=trace, scale=TINY, work=tmp_path)
    result = out["result"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert result["correct"] and result["failed"] == 0
    reference_ops = 1 if name == "ingest" else workloads.BATCHES
    assert result["attempted"] > reference_ops
    assert out["report"]["op_fail_ratio"] == 0
    if trace:
        assert out["report"]["missing"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_show_each_workload_stressing_its_layer(tmp_path):
    evaluate = run.run_workload("evaluate", 3, 0.2, True, TINY, tmp_path)["result"]["metrics"]
    long = run.run_workload("resolve-long", 3, 0.2, True, TINY, tmp_path)["result"]["metrics"]
    assert evaluate["preferences.builds_per_situation"]["value"] == 5.0
    assert long["preferences.builds_per_situation"]["value"] == 1.0
    assert evaluate["evaluate.adopted.calls"]["value"] > 0 == long["evaluate.adopted.calls"]["value"]


def test_output_that_changes_between_reruns_counts_as_failed(monkeypatch, tmp_path):
    import homearbiter.aggregate as aggregate

    original = aggregate.consensus_distance
    calls = []

    def drifting(matrix, item, consensus):
        calls.append(item)
        return original(matrix, item, consensus) + 1e-3 * len(calls)

    monkeypatch.setattr(aggregate, "consensus_distance", drifting)
    result = run.run_workload("resolve-wide", 3, 0.2, False, TINY, tmp_path)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - workloads.BATCHES


def test_wrong_output_fails_the_structural_check(monkeypatch, tmp_path):
    import homearbiter.cli as cli

    monkeypatch.setattr(cli, "RESOLUTIONS_SCHEMA", "homearbiter-resolutions/0")
    result = run.run_workload("resolve-long", 3, 0.2, False, TINY, tmp_path)["result"]
    assert result["failed"] >= workloads.BATCHES and not result["correct"]


def test_missing_function_is_listed_and_the_rest_still_traced(monkeypatch):
    import homearbiter.aggregate as aggregate

    monkeypatch.delattr(aggregate, "truncate")
    svd = aggregate.svd
    tracer = tracing.Tracer()
    with tracer.op(0):
        assert aggregate.svd is not svd
        aggregate.svd([[1.0, 0.0], [0.0, 2.0]])
    assert aggregate.svd is svd
    assert tracer.missing == ["aggregate.truncate"]
    assert [span[0] for span in tracer.spans] == ["cli", "linalg"]


def test_self_time_subtracts_direct_children():
    spans = [
        ("cli", 0.0, 10.0, -1, 0, {}),
        ("preferences", 1.0, 4.0, 0, 0, {}),
        ("linalg", 2.0, 3.0, 1, 0, {}),
        ("detect", 5.0, 6.0, 0, 0, {}),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_ms"] == 6000.0 and metrics["cli.op_ms"] == 10000.0
    assert metrics["preferences.busy_ms"] == 2000.0


def test_tail_is_the_eleventh_largest_sample():
    assert run.tail([float(i) for i in range(20)]) == (100.0 * 9 / 19, 9.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
