"""Translation of formulas into tree automata.

The pipeline is structural: an atomic relation is a literal table over its
own argument bits, minimized and placed at its columns (``base_automaton``),
conjunction becomes the product, negation the complement, and existential
quantification the projection followed by the subset construction.  The
automaton of every subformula is minimized by default, which doubles as the
satisfiability test: the minimal automaton of an unsatisfiable formula has a
single non-final initial state.

Atoms and whole formulas (``compile_formula``), but no subformula in
between, come from one cache on the ``CompilationContext``: each is built
once per renaming of its free variables by rank, over just those
variables, and remapped to where they are (``TreeAutomaton.remap``).  An
atom or quantifier-free formula is then its compile over the whole table,
field for field.  A quantified one is equivalent, but may print other cubes
where the table has columns it does not mention: the zero-padding closure
reads the all-zero symbol over the columns it is given.

First-order variables denote single nodes but are tracked as set bits; the
compiler conjoins a singleton constraint for each bound first-order variable
at its quantifier and for each free one at the top level.  A minimization
whose input equals the previous one's reuses its result; the usual cause is
a ``sing`` conjunct implied by a ``prec``, ``pdom``, ``idom`` or ``rdom``.

Finite labeled trees stand in for labelings of the infinite binary tree, so
a compiled language is kept closed under growing and pruning all-zero
frontier nodes (``zero_pad_closure``).  Atoms are closed, and complement,
product and union keep closedness, so only a quantifier has to restore it:
projecting a closed language keeps it closed under growing but not under
pruning, since a satisfying choice for the quantified variable may need
nodes that are all-zero once its bit is erased.  A quantifier is therefore
one projection, one closure of the projection and one subset construction,
then a minimization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import guards as gp
from .automata import TreeAutomaton, fresh_name
from .formulas import (ATOM_SORTS, FIRST, SECOND, And, Atom, Exists1, Exists2,
                       FalseF, Formula, Not, Or, TrueF, VarTable, _binder_depth,
                       _has_call, build_var_table, desugar, free_variables,
                       rename_bound_apart, substitute)


class CompileError(ValueError):
    pass


class WidthOverflowError(CompileError):
    pass


@dataclass
class CompileStep:
    index: int
    op: str
    states_in: int
    states_out: int


@dataclass
class CompilationContext:
    """Carries the variable table, the per-step minimization policy, the
    accumulated statistics of one compilation run and its compile cache."""

    table: VarTable
    minimize_steps: bool = True
    max_width: int = 16
    stats: list[CompileStep] = field(default_factory=list)
    # (builder, formula with its free variables renamed by rank) -> its
    # automaton over just those variables; see ``_compact``
    compiled: dict[tuple, TreeAutomaton] = field(default_factory=dict,
                                                 init=False, repr=False)
    _last_minimized: tuple | None = field(default=None, init=False, repr=False)


def stats_lines(stats: list[CompileStep]) -> list[str]:
    return [f"step={s.index} op={s.op} states_in={s.states_in} "
            f"states_out={s.states_out}" for s in stats]


# ----------------------------------------------------------------------
# base automata


# Each relation's automaton over its own argument bits, first argument
# first: its states, the first of them initial, its one final state and
# {(left, right): {guard: target}}.  Every symbol a pair does not list
# goes to the sink ``s``.  The order relations read their arguments as
# singleton markers; the compiler conjoins the singleton constraint
# separately, so here a second occurrence of a marker falls into the sink.
_PDOM = {
    ("n", "n"): {"00": "n", "01": "j"},
    ("j", "n"): {"00": "j", "10": "d"},
    ("n", "j"): {"00": "j", "10": "d"},
    ("d", "n"): {"00": "d"},
    ("n", "d"): {"00": "d"},
}
_TABLES = {
    "sing": (("n0", "n1"), "n1", {
        ("n0", "n0"): {"0": "n0", "1": "n1"},
        ("n0", "n1"): {"0": "n1"},
        ("n1", "n0"): {"0": "n1"},
    }),
    "in": (("ok",), "ok", {("ok", "ok"): {"0*": "ok", "11": "ok"}}),
    "eqset": (("ok",), "ok", {("ok", "ok"): {"00": "ok", "11": "ok"}}),
    "pdom": (("n", "j", "d"), "d", _PDOM),
    "rdom": (("n", "j", "d"), "d",
             {**_PDOM, ("n", "n"): {**_PDOM["n", "n"], "11": "d"}}),
    "idom": (("n", "c", "d"), "d", {
        ("n", "n"): {"00": "n", "01": "c"},
        ("c", "n"): {"10": "d"},
        ("n", "c"): {"10": "d"},
        ("d", "n"): {"00": "d"},
        ("n", "d"): {"00": "d"},
    }),
    "prec": (("n", "a", "b", "d"), "d", {
        ("n", "n"): {"00": "n", "10": "a", "01": "b"},
        ("a", "n"): {"00": "a"},
        ("n", "a"): {"00": "a"},
        ("b", "n"): {"00": "b"},
        ("n", "b"): {"00": "b"},
        ("a", "b"): {"00": "d"},
        ("d", "n"): {"00": "d"},
        ("n", "d"): {"00": "d"},
    }),
}
_TABLES["sub"] = _TABLES["in"]
_TABLES["eq1"] = _TABLES["eqset"]


def base_automaton(kind: str, positions, width: int) -> TreeAutomaton:
    """Minimal deterministic automaton of one atomic relation over bit
    positions, all other bits don't-care.

    The relation's table is built over its own argument bits, with its two
    guard columns swapped when the first argument sits at the higher
    position, minimized, and placed at the sorted positions with
    ``TreeAutomaton.remap``.
    """
    if kind not in ATOM_SORTS:
        raise CompileError(f"unknown relation {kind!r}")
    positions = tuple(positions)
    if len(positions) != len(ATOM_SORTS[kind]):
        raise CompileError(f"{kind} takes {len(ATOM_SORTS[kind])} position(s)")
    for pos in positions:
        if not 0 <= pos < width:
            raise CompileError(f"position {pos} out of range for width {width}")

    if len(positions) == 2 and positions[0] == positions[1]:
        # Reflexive instances collapse: equality-style relations hold of
        # every labeling, the irreflexive orders of none.
        if kind in ("rdom", "eqset", "eq1", "sub", "in"):
            aut = TreeAutomaton.all_trees(width)
        else:
            aut = TreeAutomaton.empty_language(width)
        return aut.minimize()
    states, final, transitions = _TABLES[kind]
    if len(positions) == 2 and positions[0] > positions[1]:
        transitions = {pair: {g[::-1]: t for g, t in entries.items()}
                       for pair, entries in transitions.items()}
    aut = TreeAutomaton(len(positions), {*states, "s"}, states[0], {final},
                        transitions, sink="s")
    return aut.minimize().remap(sorted(positions), width)


# ----------------------------------------------------------------------
# zero-padding closure


def zero_pad_closure(aut: TreeAutomaton) -> TreeAutomaton:
    """Nondeterministic automaton of the smallest language containing T(aut)
    that is closed under adding and pruning all-zero-labeled frontier nodes.

    Takes any automaton; the compiler passes it a quantifier's projection,
    which is closed under adding such nodes but not under pruning them.  The
    result runs it with one extra state standing for "this subtree is
    all-zero": such a subtree may resolve to the state of any run on any
    all-zero tree (the tree can be swapped for a different all-zero tree,
    including the empty one, without changing the encoded assignment).
    Callers determinize the result.
    """
    zero = "0" * aut.width
    # The states some all-zero tree reaches: those reachable on the entries
    # that match the all-zero symbol.
    zero_only = {pair: [(g, ts) for g, ts in entries if gp.matches(g, zero)]
                 for pair, entries in aut.transitions.items()}
    zstar = TreeAutomaton(aut.width, aut.states, aut.initial, (), zero_only,
                          deterministic=False, validate=False).reachable_states()
    zbar = fresh_name("z", aut.states)

    # A child in zstar may also be read as zbar, so its pair's entries are
    # copied to the pairs with zbar in its place; the constructor merges
    # guards that collide.
    transitions: dict[tuple[str, str], list] = {(zbar, zbar): [(zero, zbar)]}
    for (left, right), entries in aut.transitions.items():
        lefts = [left, zbar] if left in zstar else [left]
        rights = [right, zbar] if right in zstar else [right]
        for pair in itertools.product(lefts, rights):
            transitions.setdefault(pair, []).extend(entries)

    finals = set(aut.finals)
    if zstar & aut.finals:
        finals.add(zbar)
    return TreeAutomaton(aut.width, aut.states | {zbar}, zbar, finals,
                         transitions, deterministic=False, validate=False)


# ----------------------------------------------------------------------
# the compiler


def compile_formula(formula: Formula, ctx: CompilationContext | None = None
                    ) -> TreeAutomaton:
    """Compile a Call-free formula into a minimized deterministic automaton
    over the context's variable table.

    The automaton accepts exactly the labeled trees whose encoded assignment
    satisfies the formula, with free first-order variables constrained to
    singletons; the language is closed under zero padding.
    """
    if _has_call(formula):
        raise CompileError("expand macros before compiling")
    if ctx is None:
        ctx = CompilationContext(build_var_table(formula))
    for name, sort in free_variables(formula):
        if not ctx.table.has(name):
            raise CompileError(f"unbound variable {name!r}")
        if ctx.table.sort_of(name) != sort:
            raise CompileError(f"variable {name!r} used as {sort}-order but "
                               f"declared {ctx.table.sort_of(name)}-order")
    if ctx.table.width > ctx.max_width:
        raise WidthOverflowError(
            f"table width {ctx.table.width} exceeds maximum {ctx.max_width}")
    # Each quantifier adds a column.  Checked on the whole table, so that a
    # compile over fewer columns fails where one over all of them would.
    if ctx.table.width + _binder_depth(formula) > ctx.max_width:
        raise WidthOverflowError(
            f"width {ctx.max_width + 1} exceeds maximum {ctx.max_width}")
    return _compact(ctx, _whole, formula, ctx.table)


def _compact(ctx: CompilationContext, build, f: Formula, table: VarTable
             ) -> TreeAutomaton:
    """``build(f, ctx, compact)`` over the table ``compact`` of just ``f``'s
    free variables in table order, remapped to their positions in ``table``.
    It is built once per context for each ``build`` and each ``f`` with its
    free variables renamed by rank (``v0``, ``V1``, ...)."""
    free = sorted(free_variables(f), key=lambda entry: table.position(entry[0]))
    rank = {name: f"{'v' if sort == FIRST else 'V'}{i}"
            for i, (name, sort) in enumerate(free)}
    key = (build, substitute(f, rank))
    compiled = ctx.compiled.get(key)
    if compiled is None:
        compiled = ctx.compiled[key] = build(f, ctx, VarTable(tuple(free)))
    return compiled.remap([table.position(name) for name, _ in free],
                          table.width)


def _whole(f: Formula, ctx: CompilationContext, table: VarTable) -> TreeAutomaton:
    """The formula's automaton over the table, with the singleton constraint
    of each free first-order variable conjoined at the top."""
    prepared = rename_bound_apart(desugar(f))
    aut = _compile(prepared, ctx, table)
    for name, sort in free_variables(f):
        if sort == FIRST:
            sing = _compact(ctx, _atom, Atom("sing", (name,)), table)
            aut = _step(ctx, f"sing:{name}", aut.intersect(sing))
    return aut


def _atom(f: Atom, ctx: CompilationContext, table: VarTable) -> TreeAutomaton:
    return base_automaton(f.kind, tuple(map(table.position, f.args)),
                          table.width)


def _fields(aut: TreeAutomaton) -> tuple:
    """An automaton's fields, hashable: its canonical table as pairs and entries."""
    return (aut.width, aut.initial, aut.sink, aut.deterministic, aut.states,
            aut.finals, tuple(aut.transitions), tuple(aut.transitions.values()))


def _minimize(ctx: CompilationContext, aut: TreeAutomaton) -> TreeAutomaton:
    """``aut.minimize()``, or the last result through ``ctx`` if its input
    was equal field for field (the context keeps just that one pair)."""
    fields = _fields(aut)
    if ctx._last_minimized is None or ctx._last_minimized[0] != fields:
        ctx._last_minimized = (fields, aut.minimize())
    return ctx._last_minimized[1]


def _step(ctx: CompilationContext, op: str, aut: TreeAutomaton) -> TreeAutomaton:
    return _record(ctx, op, len(aut.states),
                   _minimize(ctx, aut) if ctx.minimize_steps else aut)


def _record(ctx: CompilationContext, op: str, states_in: int,
            aut: TreeAutomaton) -> TreeAutomaton:
    ctx.stats.append(CompileStep(len(ctx.stats) + 1, op, states_in, len(aut.states)))
    return aut


def _compile(f: Formula, ctx: CompilationContext, table: VarTable) -> TreeAutomaton:
    width = table.width
    if isinstance(f, TrueF):
        return _step(ctx, "true", TreeAutomaton.all_trees(width))
    if isinstance(f, FalseF):
        return _step(ctx, "false", TreeAutomaton.empty_language(width))
    if isinstance(f, Atom):
        aut = _compact(ctx, _atom, f, table)
        return _record(ctx, f"atom:{f.kind}", len(aut.states), aut)
    if isinstance(f, And):
        left = _compile(f.left, ctx, table)
        right = _compile(f.right, ctx, table)
        return _step(ctx, "and", left.intersect(right))
    if isinstance(f, Or):
        left = _compile(f.left, ctx, table)
        right = _compile(f.right, ctx, table)
        return _step(ctx, "or", left.union(right))
    if isinstance(f, Not):
        return _step(ctx, "not", _compile(f.body, ctx, table).complement())
    if isinstance(f, (Exists1, Exists2)):
        sort = FIRST if isinstance(f, Exists1) else SECOND
        if table.has(f.var):
            raise CompileError(f"quantified variable {f.var!r} shadows an "
                               "existing table entry")
        inner_table = table.extended(f.var, sort)
        pos = inner_table.width - 1
        body = _compile(f.body, ctx, inner_table)
        if sort == FIRST:
            sing = _compact(ctx, _atom, Atom("sing", (f.var,)), inner_table)
            body = _step(ctx, f"sing:{f.var}", body.intersect(sing))
        closed = _record(ctx, "close", len(body.states),
                         zero_pad_closure(body.project(pos)))
        result = closed.determinize()
        if ctx.minimize_steps:
            result = _minimize(ctx, result)
        return _record(ctx, "exists1" if sort == FIRST else "exists2",
                       len(closed.states), result)
    raise CompileError(f"cannot compile {type(f).__name__} "
                       "(desugar connectives first)")


def is_satisfiable(aut: TreeAutomaton) -> bool:
    """Both satisfiability detectors: reachability of a final state and the
    shape of the minimal automaton (one non-final initial state means empty).
    They must agree."""
    by_reachability = not aut.is_empty()
    minimal = aut.minimize() if aut.deterministic else aut.determinize().minimize()
    by_shape = not (len(minimal.states) == 1 and not minimal.finals)
    if by_reachability != by_shape:  # pragma: no cover
        raise AssertionError("satisfiability detectors disagree")
    return by_reachability
