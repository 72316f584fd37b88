"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q

They are not collected by the package's own test run, which only looks in
``tests/``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times, union_length  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_layer_metric_names_agree():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == {**tracing.LAYER_METRICS, "trace.overhead_s": "s"}


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_emits_every_metric_with_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    env = json.loads(lines[-2])["environment"]
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "git_commit",
                "seed", "trials"):
        assert key in env
    assert env["blas_threads"] == "1"


def test_wrong_expectation_is_counted_not_raised():
    checks = workloads.Checks()
    checks.check("holds", lambda: True)
    checks.check("wrong", lambda: 1 == 2)
    checks.check("raises", lambda: {}["missing"])
    assert checks.attempted == 3
    assert [f.split(":")[0] for f in checks.failed] == ["wrong", "raises"]


def test_wrong_workload_expectation_fails_its_check(tmp_path):
    wl = workloads.WORKLOADS["diverge_2node"]
    inputs = wl.setup(1, "tiny", str(tmp_path))
    answer = wl.call(inputs)
    checks = workloads.Checks()
    wl.check(inputs, answer, checks)
    assert checks.failed == []
    # expect more diverged consensus trials than were run
    wrong = {**inputs, "cfg": replace(inputs["cfg"], trials=999)}
    checks = workloads.Checks()
    wl.check(wrong, answer, checks)
    assert checks.attempted == len(wl.check_names)
    assert checks.failed == ["consensus_diverged_every_trial"]


def test_exception_fails_every_check():
    wl = workloads.WORKLOADS["compare_bench20"]
    checks = workloads.Checks()
    worker._check(wl, {}, RuntimeError("boom"), checks)
    assert checks.attempted == len(checks.failed) == len(wl.check_names)


def _span(sid, start, end, parent=None, thread=1, name="x"):
    return Span(name, start, end, sid, parent, thread, 0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (1.5, 2.5)]) == 3
    assert union_length([(0, 5), (1, 2)]) == 5


def test_self_time_nested_and_overlapping():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),             # main thread
        _span(2, 3.0, 6.0, parent=0, thread=2),   # worker thread, overlaps 1
        _span(3, 8.0, 12.0, parent=0, thread=2),  # runs past its parent: clipped
        _span(4, 2.0, 3.0, parent=1),             # grandchild: not a child of 0
        _span(5, 20.0, 21.0),                     # unrelated root
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_wraps_caller_bindings_and_restores(tmp_path):
    import adaptnet.harness as harness
    import adaptnet.strategies as strategies

    original = harness.update
    wl = workloads.WORKLOADS["compare_bench20"]
    inputs = wl.setup(3, "tiny", str(tmp_path))
    cfg = replace(inputs["cfg"], trials=2, iterations=5)
    tracer = Tracer()
    with tracer:
        assert harness.update is not original and strategies.update is not original
        harness.run_experiment(cfg)
    assert harness.update is original and strategies.update is original
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["signalmodel.snapshots"] == 2 * 5
    assert metrics["strategies.updates"] == 2 * 5 * 4
    assert metrics["harness.live_update_ratio"] == 1.0
    assert 0.0 <= metrics["harness.self_s"] <= metrics["harness.run_experiment_s"]
    # workers = 2: spans on pool threads hang under the run_experiment span
    (root,) = [s for s in tracer.spans if s.name == "harness.run_experiment"]
    children = [s for s in tracer.spans if s.name == "signalmodel.snapshot"]
    assert {s.parent for s in children} == {root.id}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "diverge_2node", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
