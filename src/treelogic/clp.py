"""Definite-clause programs whose bodies carry tree-logic constraints.

A clause has the shape::

    p(x, Y) <- { <formula> } & q(x) & r(Y).

The ``{...}`` constraint is optional and must come first; a clause with no
arrow is a fact.  Predicate names are lowercase; arguments are variables
(all structure lives in the constraints).  Queries look like
``?- { <formula> } & g1 & g2.``  Comments start with ``%`` or ``#``.

Variable scope: clause parameters bind to the caller's argument variables by
identification.  Other lowercase variables are clause-local and renamed
fresh for every application.  Uppercase variables name shared node sets in
one global table, so a set like a lexicon's ``Sees`` keeps its identity
across clauses and queries without being threaded through every head.

The interpreter is a standard left-to-right, depth-first resolution loop.
The constraint store is a minimized deterministic tree automaton over a
growing global variable table; each applied clause's constraint is compiled
and intersected with the store, and the branch dies as soon as the store
becomes empty.  Stores are immutable, so backtracking simply returns to the
previous value.

A clause's constraint is the same formula at every application up to the
names of its variables, so a ``Solver`` (which serves one query) keeps one
``CompilationContext``, whose cache compiles each constraint once over its
own columns and whose last minimization the store step shares (see
``compiler``).  Only where a quantified constraint meets columns it does
not mention can the store then print other, equivalent cubes than with
compiles over the whole table; no fixture or benchmark query's store does.
Search re-applies clauses on many branches, so the solver also keeps its
last ``STORE_STEPS`` store steps, keyed by both automata field for field;
a step found there skips the product and the minimization.

Recursion through second-order variables makes derivations only
semi-decidable; the loader flags such predicates with a warning and the
solver enforces a configurable depth bound per branch.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field

from .automata import TreeAutomaton
from .compiler import CompilationContext, _fields, _minimize, compile_formula
from .formulas import (FIRST, SECOND, Formula, FormulaError, TrueF, VarTable,
                       _Parser, build_var_table, free_variables,
                       parse_formula_fragment, sort_of_name, substitute, tokenize)
from .trees import Tree, assignment_from_tree

STORE_STEPS = 32  # the store steps a Solver remembers (see above)


class ProgramError(FormulaError):
    pass


class SolveError(ValueError):
    pass


@dataclass(frozen=True)
class GoalAtom:
    name: str
    args: tuple[str, ...]

    def __str__(self):
        return f"{self.name}({', '.join(self.args)})" if self.args else self.name


@dataclass(frozen=True)
class Clause:
    name: str
    params: tuple[str, ...]
    constraint: Formula
    body: tuple[GoalAtom, ...]


@dataclass(frozen=True)
class Query:
    constraint: Formula
    goals: tuple[GoalAtom, ...]


@dataclass
class Program:
    clauses: list[Clause] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def matching(self, name: str, arity: int) -> list[Clause]:
        return [c for c in self.clauses
                if c.name == name and len(c.params) == arity]


@dataclass
class ConstraintStore:
    """The solved form: a global variable table plus a minimized automaton
    over exactly that many bits.  Nonempty on every live branch."""

    table: VarTable
    automaton: TreeAutomaton


@dataclass
class Solution:
    store: ConstraintStore
    tree: Tree
    assignment: dict[str, tuple[str, ...]]


# ----------------------------------------------------------------------
# parsing


class _ProgramParser(_Parser):
    error = ProgramError

    def parse_name(self, what: str) -> str:
        tok = self.next()
        if not tok.text[0].isalpha():
            self.fail(f"expected {what}, found {tok.text!r}", tok)
        return tok.text

    def parse_atom(self) -> GoalAtom:
        tok = self.next()
        name = tok.text
        if not name[0].islower():
            self.fail(f"predicate names are lowercase, found {name!r}", tok)
        args: list[str] = []
        if self.at("("):
            self.next()
            args = self.parse_list(lambda: self.parse_name("a variable"))
            self.expect(")")
        return GoalAtom(name, tuple(args))

    def parse_constraint_block(self) -> Formula:
        self.expect("{")
        try:
            constraint, self.pos = parse_formula_fragment(self.tokens, self.pos)
        except FormulaError as exc:
            raise ProgramError(f"in constraint: {exc.message}",
                               exc.line, exc.column) from None
        self.expect("}")
        return constraint

    def parse_body(self) -> tuple[Formula, tuple[GoalAtom, ...]]:
        constraint: Formula = TrueF()
        goals: list[GoalAtom] = []
        first = True
        while True:
            if self.at("{"):
                if not first:
                    self.fail("the constraint must be the first body item")
                constraint = self.parse_constraint_block()
            else:
                goals.append(self.parse_atom())
            first = False
            if self.at("&"):
                self.next()
                continue
            break
        return constraint, tuple(goals)

    def parse_clause(self) -> Clause:
        head_tok = self.peek()
        head = self.parse_atom()
        if len(set(head.args)) != len(head.args):
            self.fail(f"duplicate parameter in clause head {head}", head_tok)
        if self.at("."):
            self.next()
            return Clause(head.name, head.args, TrueF(), ())
        self.expect("<-")
        constraint, goals = self.parse_body()
        self.expect(".")
        return Clause(head.name, head.args, constraint, goals)

    def parse_program(self) -> Program:
        program = Program()
        while self.peek() is not None:
            program.clauses.append(self.parse_clause())
        _check_recursion(program)
        return program

    def parse_query(self) -> Query:
        self.expect("?-")
        constraint, goals = self.parse_body()
        self.expect(".")
        if self.peek() is not None:
            self.fail(f"trailing input {self.peek().text!r} after query")
        return Query(constraint, goals)


def _clause_variables(clause: Clause) -> set[str]:
    names = set(clause.params)
    names.update(name for name, _ in free_variables(clause.constraint))
    for goal in clause.body:
        names.update(goal.args)
    return names


def _check_recursion(program: Program) -> None:
    """Warn about second-order variables in (indirectly) recursive clauses;
    such programs may define relations beyond the decidable fragment."""
    calls: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for clause in program.clauses:
        key = (clause.name, len(clause.params))
        calls.setdefault(key, set()).update(
            (g.name, len(g.args)) for g in clause.body)
    recursive = set()
    for key, targets in calls.items():  # a search from key's callees
        seen, stack = set(), list(targets)
        while stack:
            target = stack.pop()
            if target not in seen:
                seen.add(target)
                stack.extend(calls.get(target, ()))
        if key in seen:  # reached key again
            recursive.add(key)
    for i, clause in enumerate(program.clauses, 1):
        key = (clause.name, len(clause.params))
        if key not in recursive:
            continue
        second = sorted(v for v in _clause_variables(clause)
                        if sort_of_name(v) == SECOND)
        if second:
            program.warnings.append(
                f"clause {i} ({clause.name}/{len(clause.params)}): recursive "
                f"predicate uses second-order variable(s) {', '.join(second)}; "
                "derivations may not terminate")


def load_program(text: str) -> Program:
    return _ProgramParser(tokenize(text)).parse_program()


def parse_query(text: str) -> Query:
    return _ProgramParser(tokenize(text)).parse_query()


# ----------------------------------------------------------------------
# the interpreter


def initial_store() -> ConstraintStore:
    return ConstraintStore(VarTable(), TreeAutomaton.all_trees(0))


class Solver:
    """Depth-first, left-to-right resolution with automaton constraint solving.

    ``on_event`` (when given) receives (kind, detail) pairs for goal
    reductions, store updates and depth-bound truncations; an update's
    ``cached`` says whether its constraint was already compiled.  Counters:
    ``truncated_branches`` (branches cut by the depth bound), ``cache_hits``
    (constraints found compiled) and ``store_hits`` (store steps found).
    """

    def __init__(self, program: Program, depth: int = 64, max_width: int = 16,
                 on_event=None, iterative_deepening: bool = False):
        self.program = program
        self.depth_bound = depth
        self.on_event = on_event
        self.iterative_deepening = iterative_deepening
        self.truncated_branches = 0
        self.cache_hits = 0
        self.store_hits = 0
        self._steps: OrderedDict[tuple, TreeAutomaton] = OrderedDict()  # LRU
        self._fresh = itertools.count(1)
        # (name, arity) -> each matching clause with its first-order locals
        self._clauses: dict[tuple[str, int], list[tuple[Clause, list[str]]]] = {}
        self._context = CompilationContext(VarTable(), max_width=max_width)

    def _event(self, kind: str, **detail) -> None:
        if self.on_event is not None:
            self.on_event(kind, detail)

    def solve(self, query: Query):
        """Plain search is one round at the depth bound; iterative deepening
        runs rounds at bounds 1, 2, 4, ... up to it while a round cuts a
        branch, each yielding the solutions deeper than the bound before."""
        store = self._constrain(initial_store(), query.constraint)
        if store is None:
            return
        bound = (min(1, self.depth_bound) if self.iterative_deepening
                 else self.depth_bound)
        shallower = -1  # a round at bound B finds every solution at most B deep
        while True:
            truncated_before = self.truncated_branches
            for depth, solution in self._derive(tuple(query.goals), store, bound):
                if depth > shallower:
                    yield solution
            if (self.truncated_branches == truncated_before
                    or bound >= self.depth_bound):
                return
            shallower, bound = bound, min(2 * bound, self.depth_bound)

    def _derive(self, goals, store, bound):
        """(depth, solution) pairs, depth first; ``branches`` holds one lazy
        generator of reductions per level instead of a recursion."""
        branches = [iter([(goals, store)])]
        while branches:
            node = next(branches[-1], None)
            if node is None:
                branches.pop()
                continue
            goals, store = node
            depth = len(branches) - 1
            if not goals:
                yield depth, self._solution(store)
            elif depth >= bound:
                self.truncated_branches += 1
                self._event("depth", depth=depth, goal=str(goals[0]))
            else:
                branches.append(self._reductions(goals, store))

    def _reductions(self, goals, store):
        """Each clause application to the first goal that leaves the store
        satisfiable, as the new goal list and store."""
        goal = goals[0]
        clauses = self._matching(goal.name, len(goal.args))
        if not clauses:
            raise SolveError(f"unknown predicate {goal.name}/{len(goal.args)}")
        for i, (clause, locals_) in enumerate(clauses, 1):
            if any(sort_of_name(p) != sort_of_name(a)
                   for p, a in zip(clause.params, goal.args)):
                continue
            mapping = dict(zip(clause.params, goal.args))
            for local in locals_:
                mapping[local] = f"{local}#{next(self._fresh)}"
            constraint = substitute(clause.constraint, mapping)
            self._event("reduce", goal=str(goal), clause=i,
                        predicate=clause.name)
            hits = self.cache_hits
            new_store = self._constrain(store, constraint)
            cached = self.cache_hits > hits
            if new_store is None:
                self._event("constrain", goal=str(goal), satisfiable=False,
                            cached=cached)
                continue
            self._event("constrain", goal=str(goal), satisfiable=True,
                        states=len(new_store.automaton.states),
                        width=new_store.table.width, cached=cached)
            body = tuple(GoalAtom(g.name, tuple(mapping.get(a, a) for a in g.args))
                         for g in clause.body)
            yield body + goals[1:], new_store

    def _matching(self, name: str, arity: int) -> list[tuple[Clause, list[str]]]:
        """The program's clauses for the predicate, each with its sorted
        first-order locals.  Lowercase non-parameters are clause-local and
        renamed fresh per application; uppercase ones name shared sets in
        the global table (a lexicon's word and category sets, for example)
        and keep their names across clauses and queries."""
        key = (name, arity)
        if key not in self._clauses:
            self._clauses[key] = [
                (clause, sorted(local for local in
                                _clause_variables(clause) - set(clause.params)
                                if sort_of_name(local) == FIRST))
                for clause in self.program.matching(name, arity)]
        return self._clauses[key]

    def _constrain(self, store: ConstraintStore, formula: Formula
                   ) -> ConstraintStore | None:
        """The store conjoined with the formula's automaton from the query's
        compile cache (see the module docstring), or None when it is empty."""
        ctx = self._context
        ctx.table = table = build_var_table(formula, store.table)
        ctx.stats.clear()
        compiled = compile_formula(formula, ctx)
        self.cache_hits += not ctx.stats  # a miss records construction steps
        key = (_fields(store.automaton), _fields(compiled))
        joint = self._steps.pop(key, None)
        self.store_hits += joint is not None
        if joint is None:
            automaton = store.automaton.remap(range(store.table.width), table.width)
            joint = _minimize(ctx, automaton.intersect(compiled))
        self._steps[key] = joint  # the most recently used step goes last
        if len(self._steps) > STORE_STEPS:
            self._steps.popitem(last=False)
        if not joint.finals:  # minimal, so every state is reachable
            return None
        return ConstraintStore(table, joint)

    def _solution(self, store: ConstraintStore) -> Solution:
        # The store is never empty on a live branch, so a None witness is the
        # empty tree, not a missing one.
        tree = store.automaton.witness()
        return Solution(store, tree, assignment(tree, store.table))


def assignment(tree: Tree, table: VarTable) -> dict[str, tuple[str, ...]]:
    """Each table variable's sorted addresses in ``tree``, in table order."""
    sets = assignment_from_tree(tree, table.width)
    return {name: tuple(sorted(sets[pos]))
            for pos, (name, _) in enumerate(table.entries)}


def solve(program: Program, query: Query, depth: int = 64,
          max_width: int = 16, on_event=None):
    """Stream solutions of the query against the program."""
    return Solver(program, depth=depth, max_width=max_width,
                  on_event=on_event).solve(query)


def entails(store: ConstraintStore, formula: Formula,
            max_width: int = 16) -> bool:
    """Does every labeling accepted by the store satisfy the formula?"""
    for name, _ in free_variables(formula):
        if not store.table.has(name):
            raise SolveError(f"unbound variable {name!r} in entailment check")
    ctx = CompilationContext(table=store.table, max_width=max_width)
    compiled = compile_formula(formula, ctx)
    return store.automaton.intersect(compiled.complement()).is_empty()
