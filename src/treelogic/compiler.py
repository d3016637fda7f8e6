"""Translation of formulas into tree automata.

The pipeline is structural: an atomic relation is a literal table over its
own argument bits, minimized and placed at its columns (``base_automaton``),
conjunction becomes the product, negation the complement, and existential
quantification the projection followed by the subset construction.  The
automaton of every subformula is minimized by default, which doubles as the
satisfiability test: the minimal automaton of an unsatisfiable formula has a
single non-final initial state.

A relation's automaton is built once per process, and an atom remaps it.
A whole formula (``compile_formula``) comes from the context's cache: it is
built once per renaming of its free variables by rank, over just those
variables, and remapped to where they are (``TreeAutomaton.remap``).  A
quantifier-free formula is then its compile over the whole table, field for
field.  A quantified one is equivalent, but may print other cubes where the
table has columns it does not mention: the zero-padding closure reads the
all-zero symbol over the columns it is given.

First-order variables denote single nodes but are tracked as set bits; the
compiler conjoins a singleton constraint for each bound first-order variable
at its quantifier and for each free one at the top level.  Where an order
relation pins the variable to one node in every model (``_pinned``), the
step renumbers the minimal automaton, which is what the product would give.

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

import functools
import itertools
from dataclasses import dataclass, field

from . import guards as gp
from .automata import TreeAutomaton, _normalize
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
    # formula with its free variables renamed by rank -> its automaton over
    # just those variables; see ``compile_formula``
    compiled: dict[Formula, TreeAutomaton] = field(default_factory=dict,
                                                   init=False, repr=False)


def stats_lines(stats: list[CompileStep]) -> list[str]:
    return [f"step={s.index} op={s.op} states_in={s.states_in} "
            f"states_out={s.states_out}" for s in stats]


# ----------------------------------------------------------------------
# base automata


# Each relation's automaton over its own argument bits, first argument
# first: its states, the first of them initial, its one final state and
# {(left, right): {guard: target}}.  Every symbol a pair does not list
# goes to the sink ``s``.  The order relations read their arguments as
# single-node markers: a second one falls into the sink (see ``_pinned``).
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
    positions, all other bits don't-care: the relation's automaton over its
    distinct arguments' bits (``_relation``) placed at their sorted
    positions with ``TreeAutomaton.remap``."""
    if kind not in ATOM_SORTS:
        raise CompileError(f"unknown relation {kind!r}")
    positions = tuple(positions)
    if len(positions) != len(ATOM_SORTS[kind]):
        raise CompileError(f"{kind} takes {len(ATOM_SORTS[kind])} position(s)")
    for pos in positions:
        if not 0 <= pos < width:
            raise CompileError(f"position {pos} out of range for width {width}")
    places = sorted(set(positions))
    return _relation(kind, tuple(map(places.index, positions))).remap(places, width)


@functools.cache
def _relation(kind: str, ranks: tuple[int, ...]) -> TreeAutomaton:
    """The relation's minimal automaton with argument ``i`` at bit
    ``ranks[i]``, built once per process: its table, guard columns swapped
    for ranks (1, 0).  Reflexive instances collapse: equality-style
    relations hold of every labeling, the irreflexive orders of none."""
    if ranks == (0, 0):
        return (TreeAutomaton.all_trees(1) if kind in ("rdom", "eqset", "eq1", "sub", "in")
                else TreeAutomaton.empty_language(1)).minimize()
    states, final, transitions = _TABLES[kind]
    if ranks == (1, 0):
        transitions = {pair: {g[::-1]: t for g, t in entries.items()}
                       for pair, entries in transitions.items()}
    return TreeAutomaton(len(ranks), {*states, "s"}, states[0], {final},
                         transitions, sink="s").minimize()


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
    zero = gp.LOW & ((1 << 2 * aut.width) - 1)  # the all-zero symbol
    # The states some all-zero tree reaches: those reachable on the entries
    # that match the all-zero symbol.
    zero_only = {pair: [(g, ts) for g, ts in entries if gp.matches(g, zero)]
                 for pair, entries in aut.transitions.items()}
    zstar = TreeAutomaton._canonical(aut.width, len(aut.states), aut.initial, (),
                                     _normalize(zero_only), False).reachable_states()
    zbar = len(aut.states)  # the next state number

    # A child in zstar may also be read as zbar, so its pair's entries are
    # copied to the pairs with zbar in its place; ``_normalize`` merges
    # guards that collide.
    transitions: dict[tuple[int, int], list] = {(zbar, zbar): [(zero, zbar)]}
    for (left, right), entries in aut.transitions.items():
        lefts = [left, zbar] if left in zstar else [left]
        rights = [right, zbar] if right in zstar else [right]
        for pair in itertools.product(lefts, rights):
            transitions.setdefault(pair, []).extend(entries)

    finals = set(aut.finals)
    if zstar & aut.finals:
        finals.add(zbar)
    return TreeAutomaton._canonical(aut.width, zbar + 1, zbar, finals,
                                    _normalize(transitions), False)


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
    table, free = ctx.table, free_variables(formula)
    for name, sort in free:
        if not table.has(name):
            raise CompileError(f"unbound variable {name!r}")
        if table.sort_of(name) != sort:
            raise CompileError(f"variable {name!r} used as {sort}-order but "
                               f"declared {table.sort_of(name)}-order")
    if table.width > ctx.max_width:
        raise WidthOverflowError(
            f"table width {table.width} exceeds maximum {ctx.max_width}")
    # Each quantifier adds a column.  Checked on the whole table, so that a
    # compile over fewer columns fails where one over all of them would.
    if table.width + _binder_depth(formula) > ctx.max_width:
        raise WidthOverflowError(
            f"width {ctx.max_width + 1} exceeds maximum {ctx.max_width}")
    # Built once per context for each formula with its free variables
    # renamed by rank (``v0``, ``V1``, ...), over just those variables in
    # table order and with each free node's singleton constraint conjoined
    # at the top, then remapped to their positions in the table.
    ranked = sorted(free, key=lambda entry: table.position(entry[0]))
    key = substitute(formula, {name: f"{'v' if sort == FIRST else 'V'}{i}"
                               for i, (name, sort) in enumerate(ranked)})
    compiled = ctx.compiled.get(key)
    if compiled is None:
        compact = VarTable(tuple(ranked))
        lowered = rename_bound_apart(desugar(formula))
        compiled, pinned = _compile(lowered, ctx, compact), _pinned(lowered)
        for name, sort in free:  # in first-occurrence order
            if sort == FIRST:
                compiled = _sing(ctx, compiled, name, compact.position(name), pinned)
        ctx.compiled[key] = compiled
    return compiled.remap([table.position(name) for name, _ in ranked], table.width)


def _fields(aut: TreeAutomaton) -> tuple:
    """An automaton's fields, hashable: its canonical table as pairs and entries."""
    return (aut.width, aut.initial, aut.sink, aut.deterministic, aut.states,
            aut.finals, tuple(aut.transitions), tuple(aut.transitions.values()))


def _pinned(f: Formula) -> frozenset[str]:
    """The node variables every model of the lowered formula ``f`` labels
    exactly once: the two arguments of an order relation, gathered up."""
    if isinstance(f, Atom) and f.kind in ("prec", "pdom", "idom", "rdom") \
            and f.args[0] != f.args[1]:
        return frozenset(f.args)
    if isinstance(f, And):
        return _pinned(f.left) | _pinned(f.right)
    if isinstance(f, Or):
        return _pinned(f.left) & _pinned(f.right)
    if isinstance(f, (Exists1, Exists2)):
        return _pinned(f.body) - {f.var}
    return frozenset()


def _sing(ctx: CompilationContext, aut: TreeAutomaton, name: str, pos: int,
          pinned: frozenset[str]) -> TreeAutomaton:
    """Conjoin ``sing`` of node variable ``name`` at bit ``pos``.  If ``name``
    is pinned, each live state of the minimal ``aut`` has seen it once or not
    yet and each guard fixes its bit: the product is ``aut`` renumbered."""
    if ctx.minimize_steps and name in pinned and aut.sink is not None:
        return _record(ctx, f"sing:{name}", max(len(aut.states) - 1, 1), aut.renumbered())
    return _step(ctx, f"sing:{name}", aut.intersect(base_automaton("sing", (pos,), aut.width)))


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
        aut = base_automaton(f.kind, tuple(map(table.position, f.args)), width)
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
            body = _sing(ctx, body, f.var, pos, _pinned(f.body))
        closed = _record(ctx, "close", len(body.states),
                         zero_pad_closure(body.project(pos)))
        result = closed.determinize()
        return _record(ctx, "exists1" if sort == FIRST else "exists2", len(closed.states),
                       result.minimize() if ctx.minimize_steps else result)
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
