"""Benchmark runner for treelogic.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, single-threaded, from the sources under
``src/``.  It draws the inputs from the seed, then sets the program up and
runs one pass over the workload's items, again and again, until the next
round would end after ``--seconds``; there is always at least one.  A
round sets up more than once when set-up is short (see ``run_setups``), and
``setup_s`` is the median over every set-up, in seconds.  The reference work of
reference.py runs before the first item of a pass and after every item;
an item's time divided by the mean of the two reference times beside it
is its time in ``ref`` units, and ``wall_ref`` is the median over passes
of the sum of these.  Every answer is checked, and a mismatch between
passes counts as a failure.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced set-ups and passes, reports the per-layer
metrics (see tracing.py) and writes every span to
``benchmarks/traces/<workload>.tsv.gz``.  A readable summary goes to
standard output; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import reference_s

ROOT = Path(__file__).resolve().parent.parent
NEEDED = ["src/treelogic/__init__.py", "tests/oracle.py",
          "tests/fixtures/local_c_command.mso"]

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "hardest_ref": "ref",
    "first_solution_ref": "ref",
    "peak_states": "count", "states_out": "count", "trans_out": "count",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    measure = name.rsplit(".", 1)[1]
    if measure.endswith("_s"):
        return "s"
    if measure.endswith("_ratio"):
        return "ratio"
    return "count"


class Checks:
    """Named pass/fail results; failures are listed on standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, results) -> None:
        for what, ok in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"check failed: {what}", file=sys.stderr)


# A round sets up again until its set-ups add up to SETUP_MIN_S, at most
# SETUP_MAX times, so that short set-ups get many samples.
SETUP_MIN_S = 0.05
SETUP_MAX = 25


def run_setup(workload, inputs, hook=None):
    gc.collect()
    start = time.perf_counter()
    items = workload.setup(inputs, hook=hook)
    return items, time.perf_counter() - start


def run_setups(workload, inputs):
    """Returns the last set-up's items and every set-up's time."""
    durations = []
    while sum(durations) < SETUP_MIN_S and len(durations) < SETUP_MAX:
        items, duration = run_setup(workload, inputs)
        durations.append(duration)
    return items, durations


def run_pass(items, on_item=None, reference=None):
    """Runs every item once; returns, per item, its time, its answer and,
    when ``reference`` is given, the mean of the reference times taken
    just before and just after it."""
    gc.collect()
    times, refs, answers = {}, {}, {}
    before = reference() if reference is not None else None
    for item in items:
        if on_item is not None:
            on_item(item.name)
        t0 = time.perf_counter()
        answers[item.name] = item.run()
        times[item.name] = time.perf_counter() - t0
        if reference is not None:
            after = reference()
            refs[item.name] = (before + after) / 2
            before = after
    return times, refs, answers


def keep_going(start: float, durations: list[float], seconds: float) -> bool:
    """Another round fits when it ends by the deadline at the median pace."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) <= seconds


def compare(reference: dict, answers: dict, checks: Checks, label: str) -> None:
    """Outputs and counts must repeat exactly from pass to pass."""
    for name, ref in reference.items():
        got = answers[name]
        checks.add([(f"{label}: {name} output repeats",
                     (got.digest, got.peak_states, got.states_out, got.trans_out)
                     == (ref.digest, ref.peak_states, ref.states_out, ref.trans_out))])


def check_answers(items, answers: dict, checks: Checks) -> None:
    for item in items:
        checks.add(item.check(answers[item.name]))


def first_answer_ref(workload, items, answers: dict, refs: dict) -> float:
    if workload.sum_first:
        return sum(answers[i.name].first_s / refs[i.name] for i in items
                   if answers[i.name].first_s is not None)
    return answers[items[0].name].first_s / refs[items[0].name]


def untraced(workload, seed: int, seconds: float, checks: Checks):
    inputs = workload.inputs(seed)
    setups, rounds, walls, wall_refs, firsts = [], [], [], [], []
    item_times, item_refs = {}, {}
    reference = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        items, durations = run_setups(workload, inputs)
        t1 = time.perf_counter()
        times, refs, answers = run_pass(items, reference=reference_s)
        setups += durations
        walls.append(time.perf_counter() - t1)
        rounds.append(time.perf_counter() - t0)
        wall_refs.append(sum(times[n] / refs[n] for n in times))
        for name, t in times.items():
            item_times.setdefault(name, []).append(t)
            item_refs.setdefault(name, []).append(t / refs[name])
        firsts.append(first_answer_ref(workload, items, answers, refs))
        if reference is None:
            reference = answers
        else:
            compare(reference, answers, checks, f"pass {len(walls)}")
        if not keep_going(start, rounds, seconds):
            break
    check_answers(items, reference, checks)
    ref = reference.values()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(wall_refs),
        "hardest_ref": statistics.median(item_refs[workload.hardest]),
        "first_solution_ref": statistics.median(firsts),
        "peak_states": max(a.peak_states for a in ref),
        "states_out": sum(a.states_out for a in ref),
        "trans_out": sum(a.trans_out for a in ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, values in item_times.items():
        print(f"item {name}: median {statistics.median(values):.4f} s "
              f"min {min(values):.4f} max {max(values):.4f}; "
              f"median {statistics.median(item_refs[name]):.3f} ref "
              f"n={len(values)}")
    print(f"passes: {len(walls)}, each after its own set-ups "
          f"({len(setups)} in all); pass time "
          f"(reference work included) median {statistics.median(walls):.4f} s")
    return metrics, {name: END_TO_END_UNITS[name] for name in metrics}


def traced(workload, seed: int, seconds: float, checks: Checks, tracer):
    """Alternates an untraced set-up and pass with a traced one until the
    deadline; the per-layer metrics are medians over the traced pairs."""
    from tracing import layer_metric_names

    inputs = workload.inputs(seed)
    reference = None
    untraced_s, traced_s, reps = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        items = workload.setup(inputs)
        _, _, answers = run_pass(items)
        untraced_s.append(time.perf_counter() - t0)
        if reference is None:
            reference = answers
            check_answers(items, reference, checks)
        else:
            compare(reference, answers, checks, f"untraced run {len(untraced_s)}")

        first = tracer.begin()
        with tracer.installed():
            t0 = time.perf_counter()
            tracer.set_item("setup")
            items = workload.setup(inputs, hook=tracer.on_event)
            _, _, answers = run_pass(items, on_item=tracer.set_item)
            t1 = time.perf_counter()
        metrics, balanced = tracer.aggregate(first, t0, t1)
        checks.add([(f"traced run {len(reps) + 1}: self times and time outside "
                     "spans add up to the run", balanced)])
        compare(reference, answers, checks, f"traced run {len(reps) + 1}")
        traced_s.append(t1 - t0)
        reps.append(metrics)
        if not keep_going(start, [u + t for u, t in zip(untraced_s, traced_s)],
                          seconds):
            break
    tracer.write(ROOT / "benchmarks" / "traces" / f"{workload.name}.tsv.gz")
    out = {name: statistics.median_low(rep[name] for rep in reps)
           for name in reps[0]}
    out["trace.run.wall_s"] = statistics.median(traced_s)
    out["trace.run.untraced_wall_s"] = statistics.median(untraced_s)
    out["trace.run.overhead_ratio"] = (out["trace.run.wall_s"]
                                       / out["trace.run.untraced_wall_s"])
    print(f"traced runs: {len(reps)}; spans: {len(tracer.starts)}; "
          f"overhead {out['trace.run.overhead_ratio']:.3f}x")
    return out, {name: layer_unit(name) for name in layer_metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot run: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    checks = Checks()
    if args.trace:
        from tracing import Tracer
        metrics, units = traced(workload, args.seed, args.seconds, checks,
                                Tracer())
    else:
        metrics, units = untraced(workload, args.seed, args.seconds, checks)
    print(f"fail_ratio: {checks.failed / checks.attempted} "
          f"({checks.failed} of {checks.attempted} checks)")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
