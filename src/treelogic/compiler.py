"""Translation of formulas into tree automata.

The pipeline is structural: atomic relations get hand-built minimal automata,
conjunction becomes the product, negation the complement, and existential
quantification the projection followed by the subset construction.  The
automaton of every subformula is minimized by default, which doubles as the
satisfiability test: the minimal automaton of an unsatisfiable formula has a
single non-final initial state.

Atoms come from a table on the ``CompilationContext``: an atom over distinct
positions is built once per relation and order of its positions, over just
those positions, and remapped to where they are (``TreeAutomaton.remap``
keeps the sort order of guards, so the result is ``base_automaton``'s at
full width, field for field).  The table lives as long as its context.

First-order variables denote single nodes but are tracked as set bits; the
compiler conjoins a singleton constraint for each bound first-order variable
at its quantifier and for each free one at the top level.

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
                       FalseF, Formula, Not, Or, TrueF, VarTable, _has_call,
                       build_var_table, desugar, free_variables,
                       rename_bound_apart)


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
    accumulated statistics of one compilation run and its atom table."""

    table: VarTable
    minimize_steps: bool = True
    max_width: int = 16
    stats: list[CompileStep] = field(default_factory=list)
    # (kind, rank of each position among the atom's positions) -> the atom's
    # automaton over just those positions; see ``atom``
    atoms: dict[tuple, TreeAutomaton] = field(default_factory=dict,
                                              init=False, repr=False)

    def atom(self, kind: str, positions: tuple[int, ...], width: int
             ) -> TreeAutomaton:
        """``base_automaton(kind, positions, width)``, built once per shape:
        the atom over its own positions in increasing order, remapped to
        where they are.  Repeated positions are built directly."""
        if len(set(positions)) < len(positions):
            return base_automaton(kind, positions, width)
        ordered = sorted(positions)
        shape = (kind, tuple(ordered.index(p) for p in positions))
        if shape not in self.atoms:
            self.atoms[shape] = base_automaton(kind, shape[1], len(ordered))
        return self.atoms[shape].remap(ordered, width)


def stats_lines(stats: list[CompileStep]) -> list[str]:
    return [f"step={s.index} op={s.op} states_in={s.states_in} "
            f"states_out={s.states_out}" for s in stats]


# ----------------------------------------------------------------------
# base automata


def _pat(width: int, assign: dict[int, str]) -> str:
    chars = ["*"] * width
    for pos, ch in assign.items():
        chars[pos] = ch
    return "".join(chars)


def base_automaton(kind: str, positions, width: int) -> TreeAutomaton:
    """Minimal deterministic automaton of one atomic relation over bit
    positions, all other bits don't-care.

    The domination, precedence and immediate-domination automata read their
    arguments as singleton markers; the compiler conjoins the singleton
    constraint separately, so here a second occurrence of a marker simply
    falls into the sink.
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
    elif kind == "sing":
        i, = positions
        aut = TreeAutomaton(
            width, {"n0", "n1", "s"}, "n0", {"n1"},
            {
                ("n0", "n0"): {_pat(width, {i: "0"}): "n0",
                               _pat(width, {i: "1"}): "n1"},
                ("n0", "n1"): {_pat(width, {i: "0"}): "n1"},
                ("n1", "n0"): {_pat(width, {i: "0"}): "n1"},
            },
            sink="s")
    elif kind in ("in", "sub"):
        i, j = positions
        aut = TreeAutomaton(
            width, {"ok", "s"}, "ok", {"ok"},
            {("ok", "ok"): {_pat(width, {i: "0"}): "ok",
                            _pat(width, {i: "1", j: "1"}): "ok"}},
            sink="s")
    elif kind in ("eqset", "eq1"):
        i, j = positions
        aut = TreeAutomaton(
            width, {"ok", "s"}, "ok", {"ok"},
            {("ok", "ok"): {_pat(width, {i: "0", j: "0"}): "ok",
                            _pat(width, {i: "1", j: "1"}): "ok"}},
            sink="s")
    elif kind in ("pdom", "rdom"):
        i, j = positions
        zero = _pat(width, {i: "0", j: "0"})
        start = {_pat(width, {i: "0", j: "0"}): "n",
                 _pat(width, {i: "0", j: "1"}): "j"}
        if kind == "rdom":
            start[_pat(width, {i: "1", j: "1"})] = "d"
        aut = TreeAutomaton(
            width, {"n", "j", "d", "s"}, "n", {"d"},
            {
                ("n", "n"): start,
                ("j", "n"): {zero: "j", _pat(width, {i: "1", j: "0"}): "d"},
                ("n", "j"): {zero: "j", _pat(width, {i: "1", j: "0"}): "d"},
                ("d", "n"): {zero: "d"},
                ("n", "d"): {zero: "d"},
            },
            sink="s")
    elif kind == "idom":
        i, j = positions
        zero = _pat(width, {i: "0", j: "0"})
        aut = TreeAutomaton(
            width, {"n", "c", "d", "s"}, "n", {"d"},
            {
                ("n", "n"): {zero: "n", _pat(width, {i: "0", j: "1"}): "c"},
                ("c", "n"): {_pat(width, {i: "1", j: "0"}): "d"},
                ("n", "c"): {_pat(width, {i: "1", j: "0"}): "d"},
                ("d", "n"): {zero: "d"},
                ("n", "d"): {zero: "d"},
            },
            sink="s")
    elif kind == "prec":
        i, j = positions
        zero = _pat(width, {i: "0", j: "0"})
        aut = TreeAutomaton(
            width, {"n", "a", "b", "d", "s"}, "n", {"d"},
            {
                ("n", "n"): {zero: "n",
                             _pat(width, {i: "1", j: "0"}): "a",
                             _pat(width, {i: "0", j: "1"}): "b"},
                ("a", "n"): {zero: "a"},
                ("n", "a"): {zero: "a"},
                ("b", "n"): {zero: "b"},
                ("n", "b"): {zero: "b"},
                ("a", "b"): {zero: "d"},
                ("d", "n"): {zero: "d"},
                ("n", "d"): {zero: "d"},
            },
            sink="s")
    else:  # pragma: no cover
        raise CompileError(f"unhandled relation {kind!r}")
    return aut.minimize()


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
    free = free_variables(formula)
    for name, sort in free:
        if not ctx.table.has(name):
            raise CompileError(f"unbound variable {name!r}")
        if ctx.table.sort_of(name) != sort:
            raise CompileError(f"variable {name!r} used as {sort}-order but "
                               f"declared {ctx.table.sort_of(name)}-order")
    if ctx.table.width > ctx.max_width:
        raise WidthOverflowError(
            f"table width {ctx.table.width} exceeds maximum {ctx.max_width}")

    prepared = rename_bound_apart(desugar(formula),
                                  avoid=frozenset(ctx.table.names()))
    aut = _compile(prepared, ctx, ctx.table)
    for name, sort in free:
        if sort == FIRST:
            pos = ctx.table.position(name)
            sing = ctx.atom("sing", (pos,), ctx.table.width)
            aut = _step(ctx, f"sing:{name}", aut.intersect(sing))
    return aut


def _step(ctx: CompilationContext, op: str, aut: TreeAutomaton) -> TreeAutomaton:
    return _record(ctx, op, len(aut.states),
                   aut.minimize() if ctx.minimize_steps else aut)


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
        positions = tuple(table.position(a) for a in f.args)
        aut = ctx.atom(f.kind, positions, width)
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
        if inner_table.width > ctx.max_width:
            raise WidthOverflowError(
                f"width {inner_table.width} exceeds maximum {ctx.max_width}")
        pos = inner_table.width - 1
        body = _compile(f.body, ctx, inner_table)
        if sort == FIRST:
            sing = ctx.atom("sing", (pos,), inner_table.width)
            body = _step(ctx, f"sing:{f.var}", body.intersect(sing))
        closed = _record(ctx, "close", len(body.states),
                         zero_pad_closure(body.project(pos)))
        result = closed.determinize()
        if ctx.minimize_steps:
            result = result.minimize()
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
