"""Tests of the benchmark itself, on its smoke sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import oracle
import record
import seal

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, root: Path = harness.ROOT) -> subprocess.CompletedProcess:
    """Run `python3 perfbench/run.py ...` from the root of a checkout, as `BENCHMARK.json` prescribes."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True, text=True, timeout=170, check=False
    )


def smoke(workload: str, trace: int) -> dict:
    proc = run("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {(w, t): smoke(w, t) for w in WORKLOADS for t in (0, 1)}


def test_every_workload_is_correct_and_error_free(results):
    for (workload, trace), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace)
        assert result["failed"] == 0
        assert result["attempted"] >= 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_metric_of_benchmark_json(results, trace, section):
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in WORKLOADS:
        metrics = results[(workload, trace)]["metrics"]
        assert set(metrics) == set(units), workload
        for name, m in metrics.items():
            assert m["unit"] == units[name], (workload, name)
            assert isinstance(m["value"], (int, float)), (workload, name)


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        for name, m in results[(workload, 0)]["metrics"].items():
            assert m["value"] > 0, (workload, name)


def test_inputs_come_from_the_seed_alone():
    for module in (record, seal, oracle):
        assert module.generate(3, module.SMOKE) == module.generate(3, module.SMOKE)
        assert module.generate(3, module.SMOKE) != module.generate(4, module.SMOKE)


def test_a_wrong_output_counts_as_a_failure(tmp_path):
    cteg = harness.import_cteg()
    wrong = oracle.Config(actions=3, timestamps=3, max_len=2, sizes=(42, 48, 49))
    work = oracle.Workload(cteg, wrong, tmp_path)
    rec = harness.Recorder(tracing=False)
    work.item(rec, oracle.generate(1, wrong)[0], 0)
    assert rec.failed == 1
    assert rec.failures == ["check failed: oracle: level sizes"]


def test_a_raising_call_counts_as_a_failed_operation():
    rec = harness.Recorder(tracing=True)
    try:
        rec.call("boom", lambda: 1 / 0)
    except ZeroDivisionError as exc:
        rec.abandon("item 0", exc)
    assert (rec.attempted, rec.failed, rec.spans) == (1, 1, [])
    assert rec.failures == ["item 0 abandoned: ZeroDivisionError: division by zero"]


def test_subagents_follow_the_step_budget_rule():
    """A subagent that completes takes its parent's budget; one that fails takes at most that."""

    def check(script, budget: int, depth: int) -> None:
        ops = script[2]
        if depth:
            assert len(ops) == budget
        for op in ops:
            if op[0] == record.INVOKE:
                child_steps = len(op[2][2])
                assert child_steps == budget if op[3] == record.COMPLETE else child_steps <= budget
                check(op[2], child_steps, depth + 1)

    for _, script, _ in record.generate(5, record.FULL):
        check(script, record.FULL.child_steps, 0)


def test_self_time_subtracts_children():
    spans = [
        harness.Span("item", 0.0, 10.0, None, "t", None),
        harness.Span("a", 1.0, 4.0, 0, "t", 100),
        harness.Span("a", 5.0, 9.0, 0, "t", 200),
    ]
    assert harness.self_times(spans) == {"item": 3.0, "a": 7.0}
    assert harness.busy(spans, "a") == 7.0


def test_size_exponent_recovers_a_power_law():
    points = [(n, 3e-9 * n**2) for n in (10, 100, 1000, 10000)]
    assert harness.size_exponent(points) == pytest.approx(2.0)
    assert harness.size_exponent([(1000, 0.1), (1042, 0.2)]) == 0.0


def test_layer_shares_split_the_time_inside_cteg():
    spans = [
        harness.Span("item", 0.0, 10.0, None, "t", None),
        harness.Span("session.emit", 1.0, 4.0, 0, "t", 100),
        harness.Span("session.graft", 4.0, 5.0, 0, "t", None),
        harness.Span("commitment.merkle_root", 5.0, 9.0, 0, "t", 100),
    ]
    metrics = {k: m["value"] for k, m in harness.per_layer(spans, items=2).items()}
    assert metrics["cteg.busy_s"] == 4.0
    assert metrics["session.busy_share"] == 0.5
    assert metrics["session.emit.busy_share"] == 0.375
    assert metrics["commitment.busy_share"] == 0.5
    assert metrics["dynamics.busy_share"] == 0.0
    assert sum(metrics[f"{layer}.busy_share"] for layer in harness.LAYERS) == 1.0


def test_fails_without_the_library(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
