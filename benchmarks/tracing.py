"""Spans and counters at treelogic's layer boundaries, for the traced run.

Wrappers replace functions where callers look them up: a module attribute
(``treelogic.guards.meet``, which ``guards.subtract`` also calls through the
module globals), a name a module imported from another
(``treelogic.compiler.zero_pad_closure``, ``treelogic.automata.validate_tree``)
or a ``TreeAutomaton`` method.  Nothing is wrapped outside ``installed()``,
so the untraced run executes the program unchanged.

A span is (name, start, end, parent, item).  Spans stay in memory in flat
arrays and are written out once, at the end of the run.  A span's self time
is its duration minus the durations of its child spans; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from workloads import entry_count  # first: it puts src/ on sys.path
from treelogic import automata, clp, compiler, formulas, guards  # noqa: I001
from treelogic.automata import TreeAutomaton

# Measures recorded per call for constructions, on top of calls and self_s.
OUT = "out"        # states_out, entries_out
UNARY = "unary"    # states_in from the first argument, plus OUT
BINARY = "binary"  # states_in summed over both operands, plus OUT

# (where the callers look it up, attribute, span name, measures)
SPANS = [
    (formulas, "parse_formula", "formulas.parse", None),
    (clp, "parse_formula_fragment", "formulas.parse", None),
    (formulas, "expand_macros", "formulas.prepare", None),
    (compiler, "desugar", "formulas.prepare", None),
    (compiler, "rename_bound_apart", "formulas.prepare", None),
    (clp, "substitute", "formulas.prepare", None),
    (compiler, "compile_formula", "compiler.compile_formula", None),
    (clp, "compile_formula", "compiler.compile_formula", None),
    (compiler, "base_automaton", "compiler.base_automaton", OUT),
    (compiler, "zero_pad_closure", "compiler.zero_pad_closure", UNARY),
    (TreeAutomaton, "minimize", "automata.minimize", UNARY),
    (TreeAutomaton, "with_materialized_sink",
     "automata.with_materialized_sink", None),
    (TreeAutomaton, "reachable_states_detailed",
     "automata.reachable_states_detailed", None),
    (TreeAutomaton, "determinize", "automata.determinize", UNARY),
    (TreeAutomaton, "project", "automata.project", UNARY),
    (TreeAutomaton, "intersect", "automata.intersect", BINARY),
    (TreeAutomaton, "union", "automata.union", BINARY),
    (TreeAutomaton, "complement", "automata.complement", UNARY),
    (TreeAutomaton, "cylindrify", "automata.cylindrify", UNARY),
    (TreeAutomaton, "accepts", "automata.accepts", None),
    (TreeAutomaton, "witness", "automata.witness", None),
    (TreeAutomaton, "is_empty", "automata.is_empty", None),
    (TreeAutomaton, "equivalent", "automata.equivalent", None),
    (TreeAutomaton, "renumbered", "automata.renumbered", None),
    (TreeAutomaton, "to_text", "automata.to_text", None),
    (guards, "merge_patterns", "guards.merge_patterns", None),
    (guards, "uncovered", "guards.uncovered", None),
    (automata, "validate_tree", "trees.validate_tree", None),
]

# Hot guard operations get a counter, not a span.
COUNTED = ["matches", "covers_all"]

# The solver's hook gives a span from each "reduce" event to the matching
# "constrain" event, which brackets Solver._constrain.
CONSTRAIN_SPAN = "clp.constrain"


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    kinds = {span: kind for _, _, span, kind in SPANS}
    out = []
    for span in kinds:
        out += [f"{span}.calls", f"{span}.self_s"]
        if kinds[span] in (UNARY, BINARY):
            out.append(f"{span}.states_in")
        if kinds[span] is not None:
            out += [f"{span}.states_out", f"{span}.entries_out"]
        if span == "automata.minimize":
            out.append(f"{span}.shrink_ratio")
        if span == "automata.determinize":
            out.append(f"{span}.blowup_ratio")
    out += ["guards.meet.calls", "guards.meet.hit_ratio"]
    out += [f"guards.{name}.calls" for name in COUNTED]
    out += ["clp.reduce.calls", "clp.constrain.calls", "clp.constrain.sat_ratio",
            "clp.constrain.self_s", "clp.store.max_states", "clp.store.max_width"]
    out += ["trace.run.wall_s", "trace.run.untraced_wall_s",
            "trace.run.overhead_ratio", "trace.run.outside_s"]
    return out


def self_times(starts, ends, parents) -> list[float]:
    """Per span: duration minus the summed durations of its child spans."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


def nested(starts, ends, parents, t0: float, t1: float) -> bool:
    """Every span is closed and lies inside its parent, or inside [t0, t1]
    when it has none."""
    for i, parent in enumerate(parents):
        lo, hi = (t0, t1) if parent < 0 else (starts[parent], ends[parent])
        if not lo <= starts[i] <= ends[i] <= hi:
            return False
    return True


class Tracer:
    """Spans in flat arrays (index = span id) plus named counters; ``item``
    labels each span with the workload item, or "setup", that opened it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.items: list[str] = []
        self._item_ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.item_ix = array("i")
        self._stack: list[int] = []
        self._item = self._intern_item("")
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def _intern_item(self, item: str) -> int:
        if item not in self._item_ids:
            self._item_ids[item] = len(self.items)
            self.items.append(item)
        return self._item_ids[item]

    def set_item(self, item: str) -> None:
        self._item = self._intern_item(item)

    def open(self, name: str) -> int:
        ix = self._name_ids.get(name)
        if ix is None:
            ix = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.starts)
        self.name_ix.append(ix)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.item_ix.append(self._item)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.ends[span] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span:
            raise RuntimeError("spans closed out of order")

    # ------------------------------------------------------------------
    # wrappers

    def _span_wrapper(self, fn, name: str, kind):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if kind is not None:
                counts = tracer.counts
                if kind == UNARY:
                    counts[name + ".states_in"] += len(args[0].states)
                elif kind == BINARY:
                    counts[name + ".states_in"] += (len(args[0].states)
                                                    + len(args[1].states))
                counts[name + ".states_out"] += len(result.states)
                counts[name + ".entries_out"] += entry_count(result)
            return result
        return traced

    def _meet_wrapper(self, fn):
        counts = self.counts

        def counted(a, b):
            result = fn(a, b)
            counts["guards.meet.calls"] += 1
            if result is not None:
                counts["guards.meet.hits"] += 1
            return result
        return counted

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        key = f"guards.{name}.calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, kind in SPANS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._span_wrapper(original, name, kind))
            saved.append((guards, "meet", guards.meet))
            guards.meet = self._meet_wrapper(guards.meet)
            for attr in COUNTED:
                original = getattr(guards, attr)
                saved.append((guards, attr, original))
                setattr(guards, attr, self._count_wrapper(original, attr))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def on_event(self, kind: str, detail: dict) -> None:
        """Solver hook: counts goal reductions and brackets each constraint
        application with a span."""
        if kind == "reduce":
            self.counts["clp.reduce.calls"] += 1
            self._constrain_span = self.open(CONSTRAIN_SPAN)
        elif kind == "constrain":
            self.close(self._constrain_span)
            if detail["satisfiable"]:
                self.counts["clp.constrain.sat"] += 1
                for key, value in (("clp.store.max_states", detail["states"]),
                                   ("clp.store.max_width", detail["width"])):
                    self.maxima[key] = max(self.maxima.get(key, 0), value)

    # ------------------------------------------------------------------
    # aggregation and output

    def begin(self) -> int:
        """Start a fresh aggregation window; returns its first span index."""
        self.counts.clear()
        self.maxima.clear()
        return len(self.starts)

    def aggregate(self, first: int, t0: float, t1: float
                  ) -> tuple[dict[str, float], bool]:
        """Per-layer metrics over the spans opened since ``first`` and the
        counters since ``begin``, for a window from ``t0`` to ``t1``.  The
        flag says whether those spans nest inside the window and their self
        times plus the time outside every span add up to it."""
        starts = self.starts[first:]
        ends = self.ends[first:]
        parents = [p - first if p >= first else -1 for p in self.parents[first:]]
        own = self_times(starts, ends, parents)
        c = self.counts
        for i, ix in enumerate(self.name_ix[first:]):
            c[self.names[ix] + ".calls"] += 1
            c[self.names[ix] + ".self_s"] += own[i]
        window = t1 - t0
        outside = window - sum(ends[i] - starts[i]
                               for i, p in enumerate(parents) if p < 0)
        balanced = (nested(starts, ends, parents, t0, t1)
                    and abs(sum(own) + outside - window) <= 1e-9 * max(1.0, window))
        c["automata.minimize.shrink_ratio"] = _ratio(
            c["automata.minimize.states_out"], c["automata.minimize.states_in"])
        c["automata.determinize.blowup_ratio"] = _ratio(
            c["automata.determinize.states_out"], c["automata.determinize.states_in"])
        c["guards.meet.hit_ratio"] = _ratio(c["guards.meet.hits"],
                                            c["guards.meet.calls"])
        c["clp.constrain.sat_ratio"] = _ratio(c["clp.constrain.sat"],
                                              c["clp.constrain.calls"])
        c.update(self.maxima)
        out = {name: c[name] for name in layer_metric_names()
               if not name.startswith("trace.run.")}
        out["trace.run.outside_s"] = outside
        return out, balanced

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated lines: id, name, start, end,
        parent, item; times in seconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id\tname\tstart_s\tend_s\tparent\titem\n")
            for i in range(len(self.starts)):
                handle.write(f"{i}\t{self.names[self.name_ix[i]]}\t"
                             f"{self.starts[i] - origin:.9f}\t"
                             f"{self.ends[i] - origin:.9f}\t"
                             f"{self.parents[i]}\t{self.items[self.item_ix[i]]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
