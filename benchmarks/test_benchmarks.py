"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/test_benchmarks.py -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_HARDEST = {"compile-chain": "chain-6",
                "membership": "c-command/random-1000", "solve": "pipeline-3"}


def tiny(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(
        workload, hardest=TINY_HARDEST[name],
        inputs=functools.partial(workload.inputs, tiny=True))


@pytest.fixture(scope="module")
def traced_runs():
    out = {}
    for name in workloads.WORKLOADS:
        checks, tracer = run.Checks(), tracing.Tracer()
        metrics, units = run.traced(tiny(name), 7, 0.0, checks, tracer)
        out[name] = (metrics, units, checks, tracer)
    return out


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_tiny_and_reports_the_end_to_end_metrics(name):
    checks = run.Checks()
    metrics, units = run.untraced(tiny(name), 3, 0.0, checks)
    assert checks.attempted > 0 and checks.failed == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: units[n] for n in metrics} == spec
    assert all(value > 0 for value in metrics.values()), metrics


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_the_per_layer_metrics(traced_runs, name):
    metrics, units, checks, _ = traced_runs[name]
    assert checks.attempted > 0 and checks.failed == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: units[n] for n in metrics} == spec
    assert metrics["trace.run.outside_s"] >= 0


def test_same_seed_same_inputs_and_outputs():
    for name in workloads.WORKLOADS:
        workload = tiny(name)
        answers = []
        for _ in range(2):
            items = workload.setup(workload.inputs(5))
            answers.append([item.run().digest for item in items])
        assert answers[0] == answers[1], name


def test_each_item_gets_the_mean_of_the_references_beside_it():
    references = iter([1.0, 3.0, 5.0])
    items = [workloads.Item(name, lambda name=name: name, None)
             for name in ("a", "b")]
    _, refs, answers = run.run_pass(items, reference=lambda: next(references))
    assert refs == {"a": 2.0, "b": 4.0}
    assert answers == {"a": "a", "b": "b"}


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]

    tracer = tracing.Tracer()
    first = tracer.begin()
    root = tracer.open("automata.minimize")
    a = tracer.open("guards.uncovered")
    tracer.close(tracer.open("guards.uncovered"))
    tracer.close(a)
    tracer.close(tracer.open("automata.witness"))
    tracer.close(root)
    assert list(tracer.parents) == parents
    # The same tree, one second into a 12-second window.
    tracer.starts = array("d", [s + 1 for s in starts])
    tracer.ends = array("d", [e + 1 for e in ends])
    metrics, balanced = tracer.aggregate(first, 0.0, 12.0)
    assert balanced
    assert metrics["automata.minimize.self_s"] == 3.0
    assert metrics["guards.uncovered.calls"] == 2
    assert metrics["guards.uncovered.self_s"] == 3.0
    assert metrics["automata.witness.self_s"] == 4.0
    assert metrics["trace.run.outside_s"] == 2.0
    # A child that outlives its parent does not nest.
    tracer.ends[2] = 5.5
    assert not tracer.aggregate(first, 0.0, 12.0)[1]


def test_compile_chain_never_determinizes(traced_runs):
    metrics = traced_runs["compile-chain"][0]
    assert metrics["automata.determinize.calls"] == 0
    assert metrics["compiler.zero_pad_closure.calls"] == 0
    assert metrics["automata.minimize.calls"] > 0


def test_membership_builds_nothing_while_timed(traced_runs):
    tracer = traced_runs["membership"][3]
    timed = [i for i, item in enumerate(tracer.items) if item not in ("", "setup")]
    built = {tracer.names[n] for n, item in zip(tracer.name_ix, tracer.item_ix)
             if item in timed}
    assert "automata.accepts" in built
    assert not built & {"automata.minimize", "automata.determinize",
                        "automata.intersect", "compiler.compile_formula"}


def test_wrappers_are_removed_after_the_traced_run():
    from treelogic import automata, compiler, guards
    before = (guards.meet, compiler.zero_pad_closure,
              automata.TreeAutomaton.__dict__["minimize"])
    with tracing.Tracer().installed():
        assert guards.meet is not before[0]
    assert (guards.meet, compiler.zero_pad_closure,
            automata.TreeAutomaton.__dict__["minimize"]) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
