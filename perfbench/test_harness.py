"""Self-test of the benchmark harness; it is not part of rphist's test suite.

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import run
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_ROWS = 2000


def run_benchmark(workload: str, trace: int, cwd: Path = HERE.parent,
                  script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--rows", str(TINY_ROWS)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_workloads_are_generated():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_failed_builds_and_their_evals_are_counted(tmp_path):
    registry = run.ShaRegistry(tmp_path / "sha.json", "test")
    w = WORKLOADS["normal2d"]
    it = run.run_iteration(w, tmp_path / "none.csv", 1,
                           lambda argv, out: run.Build(0.1, False, "boom"),
                           registry, "k", tmp_path)
    assert (it.attempted, it.failed) == (4, 4)
    assert not it.eval_s and not it.problems


def test_traced_iteration_restores_every_wrapped_name(tmp_path):
    names = layer_names()
    originals = {(m, a): getattr(m, a) for m, a in names}
    w = WORKLOADS["messy2d"]  # its default build raises inside the traced pass
    csv = tmp_path / "points.csv"
    run.setup(w, 5, TINY_ROWS, csv)
    n = len(run.make_points(w, 5, TINY_ROWS))
    registry = run.ShaRegistry(tmp_path / "sha.json", "test")
    traced = run.traced_iteration(w, csv, n, registry, "k", tmp_path)
    assert traced.tracer.spans
    assert traced.metrics["distributed.failed_builds"][0] >= 1
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())


def test_tracer_restores_names_when_the_block_raises():
    names = layer_names()
    originals = {(m, a): getattr(m, a) for m, a in names}
    tracer = run.layer_tracer(Counter(), set())
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(getattr(m, a) is not fn for (m, a), fn in originals.items())
            raise RuntimeError
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())


def test_self_times_subtract_children_and_counted_calls():
    ns = types.SimpleNamespace()
    ns.leaf = lambda: sum(range(1000))
    ns.inner = lambda: [ns.leaf() for _ in range(20)]
    ns.outer = lambda: (ns.inner(), ns.leaf())
    tracer = Tracer()
    tracer.span(ns, "outer", "outer")
    tracer.span(ns, "inner", "inner")
    tracer.count(ns, "leaf", "leaf")
    with tracer.installed():
        ns.outer()
    own = tracer.self_times()
    assert tracer.calls == Counter(outer=1, inner=1, leaf=21)
    assert sum(own.values()) == pytest.approx(tracer.total_s("outer"))
    assert own["leaf"] == pytest.approx(tracer.busy["leaf"])
    assert min(own.values()) >= 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("normal2d", 0, cwd=tmp_path,
                         script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def layer_names():
    return run.layer_tracer(Counter(), set()).wrapped_names()
