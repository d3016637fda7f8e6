"""Independent brute-force semantics used to check the compiler.

Evaluates formulas directly over node addresses, never touching automata:
a labeled tree fixes the assignment (bit i on at address a means a is in
variable i's set), and quantifiers range over the tree's addresses extended
by an all-zero margin.  Nodes outside the labeled tree carry all-zero labels,
so a margin of depth m approximates the infinite tree; every test using the
oracle states why its margin suffices for its formulas.

Free first-order variables must denote singletons, mirroring the compiled
convention that every free node variable carries a singleton constraint.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Callable, Iterable, Iterator

from treelogic.formulas import (ATOM_SORTS, FIRST, SECOND, And, Atom, Call,
                                Exists1, Exists2, FalseF, Forall1, Forall2,
                                Formula, Iff, Implies, MacroDef, MacroError,
                                Not, Or, TrueF, _Parser, desugar,
                                free_variables, rename_bound_apart,
                                sort_of_name, substitute)
from treelogic import compiler
from treelogic.compiler import CompileError
from treelogic import guards as gp
from treelogic.automata import (AutomatonError, Entry, PairKey, TreeAutomaton,
                                _explore, _explored_automaton, fresh_name)
from treelogic.clp import (GoalAtom, Solver, SolveError, _clause_variables,
                           initial_store)
from treelogic.guards import covers_all, least_symbol, matches, subtract
from treelogic.trees import Node, addresses, format_tree


# ----------------------------------------------------------------------
# address-level relations


def is_rdom(u: str, v: str) -> bool:
    return v.startswith(u)


def is_pdom(u: str, v: str) -> bool:
    return v.startswith(u) and u != v


def is_idom(u: str, v: str) -> bool:
    return len(v) == len(u) + 1 and v.startswith(u)


def is_prec(u: str, v: str) -> bool:
    if u.startswith(v) or v.startswith(u):
        return False
    i = next(i for i, (a, b) in enumerate(zip(u, v)) if a != b)
    return u[i] == "0" and v[i] == "1"


# ----------------------------------------------------------------------
# domains and assignments


def margined_domain(tree, margin: int) -> frozenset[str]:
    """Addresses of the tree plus `margin` levels of zero nodes grown below
    every empty slot (including the root slot of the empty tree)."""
    dom = set(addresses(tree))
    slots = _empty_slots(tree)
    for _ in range(margin):
        dom.update(slots)
        slots = [s + b for s in slots for b in "01"]
    return frozenset(dom)


def _empty_slots(tree, prefix: str = "") -> list[str]:
    if tree is None:
        return [prefix]
    return (_empty_slots(tree.left, prefix + "0")
            + _empty_slots(tree.right, prefix + "1"))


def tree_sets(tree, table) -> dict[str, frozenset[str]]:
    sets: dict[str, set[str]] = {name: set() for name, _ in table.entries}
    for addr, label in addresses(tree).items():
        for (name, _), bit in zip(table.entries, label):
            if bit == "1":
                sets[name].add(addr)
    return {name: frozenset(s) for name, s in sets.items()}


# ----------------------------------------------------------------------
# evaluation


def evaluate(formula, tree, table, margin: int = 2) -> bool:
    """Truth of the formula on the tree's assignment; quantifiers range over
    the margined domain.  Rejects unless every free first-order variable
    denotes a singleton."""
    domain = margined_domain(tree, margin)
    sets = tree_sets(tree, table)
    env: dict[str, object] = {}
    for name, sort in table.entries:
        if sort == FIRST:
            if len(sets[name]) != 1:
                return False
            env[name] = next(iter(sets[name]))
        else:
            env[name] = sets[name]
    return _eval(formula, env, domain)


def _eval(f, env, domain) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        a = [env[x] for x in f.args]
        if f.kind == "rdom":
            return is_rdom(a[0], a[1])
        if f.kind == "pdom":
            return is_pdom(a[0], a[1])
        if f.kind == "idom":
            return is_idom(a[0], a[1])
        if f.kind == "prec":
            return is_prec(a[0], a[1])
        if f.kind == "eq1":
            return a[0] == a[1]
        if f.kind == "in":
            return a[0] in a[1]
        if f.kind == "sub":
            return a[0] <= a[1]
        if f.kind == "eqset":
            return a[0] == a[1]
        if f.kind == "sing":
            return len(a[0]) == 1
        raise ValueError(f.kind)
    if isinstance(f, Not):
        return not _eval(f.body, env, domain)
    if isinstance(f, And):
        return _eval(f.left, env, domain) and _eval(f.right, env, domain)
    if isinstance(f, Or):
        return _eval(f.left, env, domain) or _eval(f.right, env, domain)
    if isinstance(f, Implies):
        return (not _eval(f.left, env, domain)) or _eval(f.right, env, domain)
    if isinstance(f, Iff):
        return _eval(f.left, env, domain) == _eval(f.right, env, domain)
    if isinstance(f, Exists1):
        return any(_eval(f.body, {**env, f.var: d}, domain) for d in domain)
    if isinstance(f, Forall1):
        return all(_eval(f.body, {**env, f.var: d}, domain) for d in domain)
    if isinstance(f, (Exists2, Forall2)):
        members = sorted(domain)
        subsets = (frozenset(c)
                   for n in range(len(members) + 1)
                   for c in itertools.combinations(members, n))
        if isinstance(f, Exists2):
            return any(_eval(f.body, {**env, f.var: s}, domain) for s in subsets)
        return all(_eval(f.body, {**env, f.var: s}, domain) for s in subsets)
    raise ValueError(type(f).__name__)


# ----------------------------------------------------------------------
# tree enumeration (shared substructure; the top size is streamed)


_LEVELS: dict[tuple[int, int], list] = {}


def _labels(width: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=width)]


def trees_exactly(n: int, width: int) -> list:
    key = (n, width)
    if key not in _LEVELS:
        if n == 0:
            _LEVELS[key] = [None]
        else:
            out = []
            for k in range(n):
                for left in trees_exactly(k, width):
                    for right in trees_exactly(n - 1 - k, width):
                        for label in _labels(width):
                            out.append(Node(label, left, right))
            _LEVELS[key] = out
    return _LEVELS[key]


def iter_trees(max_nodes: int, width: int):
    """All labeled trees with at most max_nodes nodes.  Sizes below the top
    are cached and shared; the largest size is generated lazily."""
    if max_nodes == 0:
        yield None
        return
    for n in range(max_nodes):
        yield from trees_exactly(n, width)
    n = max_nodes
    labels = _labels(width)
    for k in range(n):
        for left in trees_exactly(k, width):
            for right in trees_exactly(n - 1 - k, width):
                for label in labels:
                    yield Node(label, left, right)


def language_sample(aut: TreeAutomaton, max_nodes: int) -> frozenset:
    """Accepted trees with at most max_nodes nodes, as formatted strings."""
    return frozenset(format_tree(t) for t in iter_trees(max_nodes, aut.width)
                     if aut.accepts(t))


# ----------------------------------------------------------------------
# runs: the recursive runs that TreeAutomaton.run, run_set and accepts must
# agree with (labels are assumed valid)


def recursive_run(aut: TreeAutomaton, tree) -> str | None:
    if tree is None:
        return aut.initial
    left = recursive_run(aut, tree.left)
    right = recursive_run(aut, tree.right)
    if left is None or right is None:
        return aut.sink
    for guard, targets in aut.transitions.get((left, right), ()):
        if matches(guard, tree.label):
            return next(iter(targets))
    return aut.sink


def recursive_run_set(aut: TreeAutomaton, tree) -> frozenset[str]:
    if tree is None:
        return frozenset({aut.initial})
    lefts = recursive_run_set(aut, tree.left)
    rights = recursive_run_set(aut, tree.right)
    out: set[str] = set()
    for left in lefts:
        for right in rights:
            for guard, targets in aut.transitions.get((left, right), ()):
                if matches(guard, tree.label):
                    out.update(targets)
    return frozenset(out)


def recursive_accepts(aut: TreeAutomaton, tree) -> bool:
    if aut.deterministic:
        state = recursive_run(aut, tree)
        return state is not None and state in aut.finals
    return bool(recursive_run_set(aut, tree) & aut.finals)


# ----------------------------------------------------------------------
# reachability: the sink-pending scan that
# TreeAutomaton.reachable_states_detailed must agree with, in reached sets
# and in pass counts


def ref_reachable_states_detailed(aut: TreeAutomaton, stop_on_final: bool = False
                                  ) -> tuple[frozenset[str], int]:
    reached = {aut.initial}
    passes = 0
    sink_pending = aut.sink is not None
    coverage: dict[tuple[str, str], bool] = {}

    def covered(pair: tuple[str, str]) -> bool:
        if pair not in coverage:
            pats = [g for g, _ in aut.transitions.get(pair, ())]
            coverage[pair] = covers_all(pats, aut.width)
        return coverage[pair]

    while True:
        passes += 1
        new: set[str] = set()
        for (left, right), pair_entries in aut.transitions.items():
            if left in reached and right in reached:
                for _, targets in pair_entries:
                    new.update(targets)
        if sink_pending:
            for left in reached:
                for right in reached:
                    if not covered((left, right)):
                        new.add(aut.sink)
                        sink_pending = False
                        break
                if not sink_pending:
                    break
        if stop_on_final and (new | reached) & aut.finals:
            return frozenset(reached | new), passes
        if new <= reached:
            return frozenset(reached), passes
        reached |= new


# ----------------------------------------------------------------------
# products: the product over every pair of discovered states that
# TreeAutomaton._product must agree with, field for field


def ref_product(aut: TreeAutomaton, other: TreeAutomaton,
                accept: Callable[[bool, bool], bool]) -> TreeAutomaton:
    """The product automaton; a pair state is final when ``accept`` holds
    of its components' finality.  The dead states are materialized when
    a pair with one dead component can be final."""
    if aut.width != other.width:
        raise AutomatonError(
            f"width mismatch: {aut.width} vs {other.width}")
    a = aut if aut.deterministic else aut.determinize()
    b = other if other.deterministic else other.determinize()
    if accept(True, False) or accept(False, True):
        a = a.with_materialized_sink()
        b = b.with_materialized_sink()

    def step(left: PairKey, right: PairKey) -> Iterator[tuple[str, PairKey]]:
        ea = a.transitions.get((left[0], right[0]), ())
        eb = b.transitions.get((left[1], right[1]), ())
        for g1, t1 in ea:
            for g2, t2 in eb:
                m = gp.meet(g1, g2)
                if m is not None:
                    yield m, (next(iter(t1)), next(iter(t2)))

    return ref_explored_automaton(
        aut.width, (a.initial, b.initial), step,
        lambda pair: accept(pair[0] in a.finals, pair[1] in b.finals))


def ref_explore(root, step):
    """Discover every state key reachable from ``root``, bottom-up.

    A newly found key is paired with every known key in both orders (with
    itself once), and pairs are expanded first in, first out.
    ``step(left, right)`` yields the pair's ``(guard, target_key)`` entries.
    Returns the keys in discovery order and the entries keyed by index
    pairs, with targets as indices.
    """
    order = [root]
    index = {root: 0}
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    table: dict[tuple[int, int], list[tuple[str, int]]] = {}
    while queue:
        i, j = queue.popleft()
        out = []
        for guard, key in step(order[i], order[j]):
            k = index.get(key)
            if k is None:
                k = index[key] = len(order)
                order.append(key)
                for known in range(k + 1):
                    queue.append((k, known))
                    if known != k:
                        queue.append((known, k))
            out.append((guard, k))
        if out:
            table[(i, j)] = out
    return order, table


def ref_explored_automaton(width: int, root, step, is_final) -> TreeAutomaton:
    """The deterministic automaton ``ref_explore`` finds from ``root``, state
    ``i`` named ``q<i>``; ``is_final`` decides on the state keys."""
    order, table = ref_explore(root, step)
    names = [f"q{i}" for i in range(len(order))]
    transitions = {(names[i], names[j]): [(g, names[k]) for g, k in entries]
                   for (i, j), entries in table.items()}
    finals = {name for name, key in zip(names, order) if is_final(key)}
    return TreeAutomaton(width, names, names[0], finals, transitions,
                         deterministic=True, validate=False)


# ----------------------------------------------------------------------
# subset construction: TreeAutomaton.determinize must agree with it, field
# for field


def ref_determinize(aut: TreeAutomaton) -> TreeAutomaton:
    """Subset construction restricted to reachable state sets, as it was
    before its step was memoized: every pair of subsets collects its entries.

    The output is deterministic and total (missing entries fall to the
    implicit dead state, which corresponds to the empty subset).  Every
    pair of subsets is tried: whether one has entries is found by
    collecting them, which is most of what its step costs.
    """
    def step(left: frozenset[str], right: frozenset[str]
             ) -> Iterator[tuple[str, frozenset[str]]]:
        collected: list[Entry] = []
        for p in left:
            for q in right:
                collected.extend(aut.transitions.get((p, q), ()))
        if not collected:
            return
        positions = gp.constrained_positions(g for g, _ in collected)
        # Minterm cubes: concrete exactly at the constrained positions, so
        # every collected guard is the union of those it expands to.
        minterms: dict[str, set[str]] = {}
        for g, ts in collected:
            for cube in gp.expand(g, [i for i in positions if g[i] == "*"]):
                minterms.setdefault(cube, set()).update(ts)
        by_target: dict[frozenset[str], list[str]] = {}
        for cube, targets in minterms.items():
            if targets:
                by_target.setdefault(frozenset(targets), []).append(cube)
        for subset in sorted(by_target, key=lambda s: sorted(s)):
            for pattern in gp.merge_patterns(by_target[subset]):
                yield pattern, subset

    return _explored_automaton(aut.width, frozenset({aut.initial}), step,
                               lambda subset: bool(subset & aut.finals))


# ----------------------------------------------------------------------
# minimization: the dense Moore refinement over every pair of reachable
# states that TreeAutomaton.minimize must agree with, field for field


def ref_minimize(aut: TreeAutomaton) -> TreeAutomaton:
    """The dense ``minimize``: a diagram for every pair of reachable
    states, listed or not, and signatures over every state."""
    if not aut.deterministic:
        raise AutomatonError("minimize requires a deterministic automaton")
    dead = aut.sink if aut.sink is not None else fresh_name("dead", aut.states)
    # Diagram nodes are (target,) leaves or (pos, lo, hi) splits,
    # hash-consed, each listed after its children.
    nodes: list[tuple] = []
    ids: dict[tuple, int] = {}
    diagram: dict[PairKey, int] = {}

    def node(key: tuple) -> int:
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(key)
        return ids[key]

    def step(left: str, right: str) -> Iterator[tuple[str, str]]:
        entries = [(g, next(iter(ts)))
                   for g, ts in aut.transitions.get((left, right), ())]
        memo: dict[tuple[int, tuple[int, ...]], int] = {}
        leaves: set[str] = set()

        def build(pos: int, live: tuple[int, ...]) -> int:
            if pos == aut.width or not live:
                target = entries[live[0]][1] if live else dead
                leaves.add(target)
                return node((target,))
            if (pos, live) not in memo:
                lo = build(pos + 1, tuple(i for i in live if entries[i][0][pos] != "1"))
                hi = build(pos + 1, tuple(i for i in live if entries[i][0][pos] != "0"))
                memo[pos, live] = lo if lo == hi else node((pos, lo, hi))
            return memo[pos, live]

        diagram[left, right] = build(0, tuple(range(len(entries))))
        # Only the targets matter: _explore serves as reachability here.
        for target in sorted(leaves):
            yield "", target

    order, _ = _explore(aut.initial, step)
    # The dead state always takes part, after the reachable states, so
    # every state equivalent to it lands in its block; an unreachable one
    # has no diagrams, and its rows and columns are the dead leaf.
    states = sorted(order)
    if dead not in order:
        states.append(dead)
    dead_leaf = node((dead,))

    # Moore refinement; a pair's signature is its diagram with the
    # leaves relabelled by block and reduced again.
    block: dict[str, int] = {s: (1 if s in aut.finals else 0) for s in states}
    while True:
        label: list[int] = []
        interned: dict[tuple, int] = {}
        for key in nodes:
            if len(key) == 1:
                key = (block[key[0]],)
            elif label[key[1]] == label[key[2]]:
                label.append(label[key[1]])
                continue
            else:
                key = (key[0], label[key[1]], label[key[2]])
            label.append(interned.setdefault(key, len(interned)))

        groups: dict[tuple, list[str]] = {}
        for s in states:
            signature = (block[s],
                         tuple(label[diagram.get((s, t), dead_leaf)] for t in states),
                         tuple(label[diagram.get((t, s), dead_leaf)] for t in states))
            groups.setdefault(signature, []).append(s)
        new_block: dict[str, int] = {}
        for i, members in enumerate(groups.values()):
            for s in members:
                new_block[s] = i
        if new_block == block:
            break
        block = new_block

    rep: dict[int, str] = {}
    for s in states:
        rep.setdefault(block[s], s)
    # The dead class is the sink; transitions into it are stripped.
    sink: int | None = block[dead]
    if dead not in order and list(block.values()).count(sink) == 1:
        del rep[sink]
        sink = None

    def bname(b: int) -> str:
        return f"m{b}"

    quotient: dict[PairKey, list[tuple[str, str]]] = {}
    for bl in rep:
        for br in rep:
            if sink in (bl, br):
                continue
            merged: dict[str, list[str]] = {}
            for guard, targets in aut.transitions.get((rep[bl], rep[br]), ()):
                b = block[next(iter(targets))]
                if b != sink:
                    merged.setdefault(bname(b), []).append(guard)
            out = []
            for target, pats in sorted(merged.items()):
                for pattern in gp.merge_patterns(pats):
                    out.append((pattern, target))
            if out:
                quotient[(bname(bl), bname(br))] = out

    return TreeAutomaton(aut.width, {bname(b) for b in rep},
                         bname(block[aut.initial]),
                         {bname(block[s]) for s in states if s in aut.finals},
                         quotient, deterministic=True,
                         sink=None if sink is None else bname(sink),
                         validate=False)


# ----------------------------------------------------------------------
# witnesses: the sweep to a fixpoint over the whole transition table that
# TreeAutomaton.witness must agree with, tree for tree


def ref_witness(aut: TreeAutomaton):
    reps: dict[str, tuple[int, tuple[str, ...], str, object]] = {
        aut.initial: (0, (), "-", None)
    }
    changed = True
    while changed:
        changed = False
        for (left, right) in sorted(aut.transitions):
            if left not in reps or right not in reps:
                continue
            ls, ll, lsh, lt = reps[left]
            rs, rl, rsh, rt = reps[right]
            for guard, targets in aut.transitions[(left, right)]:
                sym = least_symbol(guard)
                cand = (1 + ls + rs, (sym,) + ll + rl, f"({lsh}{rsh})")
                for target in sorted(targets):
                    cur = reps.get(target)
                    if cur is None or cand < cur[:3]:
                        reps[target] = cand + (Node(sym, lt, rt),)
                        changed = True
    best = None
    for final in sorted(aut.finals):
        if final in reps:
            entry = reps[final]
            if best is None or entry[:3] < best[:3]:
                best = entry
    return best[3] if best else None


# ----------------------------------------------------------------------
# atoms: the per-relation builders at full width that compiler.base_automaton's
# tables, placed by TreeAutomaton.remap, must agree with, field for field


def _pat(width: int, assign: dict[int, str]) -> str:
    chars = ["*"] * width
    for pos, ch in assign.items():
        chars[pos] = ch
    return "".join(chars)


def ref_base_automaton(kind: str, positions, width: int) -> TreeAutomaton:
    """``compiler.base_automaton`` with every guard written at full width.

    Minimal deterministic automaton of one atomic relation over bit
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
    else:  # prec
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
    return aut.minimize()


# ----------------------------------------------------------------------
# quantifiers: the closure, projection, subset construction, second closure
# and second subset construction that compiler._compile's one closure of the
# projection must agree with, in languages always and byte for byte once
# minimized


_compile = compiler._compile


def ref_compile(f: Formula, ctx: compiler.CompilationContext, table
                ) -> TreeAutomaton:
    """``compiler._compile`` with the two-closure quantifier step.  Install
    it as ``compiler._compile``, so that the compiler's recursive calls, and
    this step's own call on the body, come back here."""
    if not isinstance(f, (Exists1, Exists2)):
        return _compile(f, ctx, table)
    sort = FIRST if isinstance(f, Exists1) else SECOND
    if table.has(f.var):
        raise compiler.CompileError(f"quantified variable {f.var!r} shadows an "
                                    "existing table entry")
    inner_table = table.extended(f.var, sort)
    if inner_table.width > ctx.max_width:
        raise compiler.WidthOverflowError(
            f"width {inner_table.width} exceeds maximum {ctx.max_width}")
    pos = inner_table.width - 1
    body = compiler._compile(f.body, ctx, inner_table)
    if sort == FIRST:
        sing = compiler.base_automaton("sing", (pos,), inner_table.width)
        body = compiler._step(ctx, f"sing:{f.var}", body.intersect(sing))
    closed = compiler._record(ctx, "close", len(body.states),
                              compiler.zero_pad_closure(body))
    projected = closed.project(pos).determinize()
    result = compiler.zero_pad_closure(projected).determinize()
    if ctx.minimize_steps:
        result = result.minimize()
    return compiler._record(ctx, "exists1" if sort == FIRST else "exists2",
                            len(closed.states), result)


# ----------------------------------------------------------------------
# whole formulas: the compile over the whole table that compile_formula's
# compile over the formula's own columns, remapped, must agree with, field
# for field without quantifiers and in languages always


def ref_compile_formula(formula: Formula, ctx: compiler.CompilationContext
                        ) -> TreeAutomaton:
    """``compiler.compile_formula`` without its checks and its cache: the
    formula compiled over the context's whole table, then the singleton
    constraint of each free first-order variable."""
    table = ctx.table
    prepared = rename_bound_apart(desugar(formula),
                                  avoid=frozenset(table.names()))
    aut = compiler._compile(prepared, ctx, table)
    for name, sort in free_variables(formula):
        if sort == FIRST:
            sing = compiler.base_automaton("sing", (table.position(name),),
                                           table.width)
            aut = compiler._step(ctx, f"sing:{name}", aut.intersect(sing))
    return aut


# ----------------------------------------------------------------------
# formula walks: the per-kind walks that formulas' free_variables, _map_vars,
# substitute, expand_macros, desugar, rename_bound_apart and _has_call must
# agree with, in results and in the order they invent fresh names


def ref_free_variables(formula: Formula, bound: frozenset[str] = frozenset()
                       ) -> list[tuple[str, str]]:
    """Free variables with sorts, in first-occurrence order."""
    seen: dict[str, str] = {}

    def walk(f: Formula, bound: frozenset[str]) -> None:
        if isinstance(f, Atom):
            for a in f.args:
                if a not in bound and a not in seen:
                    seen[a] = sort_of_name(a)
        elif isinstance(f, Call):
            for a in f.args:
                if a not in bound and a not in seen:
                    seen[a] = sort_of_name(a)
        elif isinstance(f, Not):
            walk(f.body, bound)
        elif isinstance(f, (And, Or, Implies, Iff)):
            walk(f.left, bound)
            walk(f.right, bound)
        elif isinstance(f, (Exists1, Exists2, Forall1, Forall2)):
            walk(f.body, bound | {f.var})

    walk(formula, bound)
    return list(seen.items())


def ref_map_vars(f: Formula, rename) -> Formula:
    """Apply a renaming to free variable occurrences (captures not checked)."""
    if isinstance(f, Atom):
        return Atom(f.kind, tuple(rename(a) for a in f.args))
    if isinstance(f, Call):
        return Call(f.name, tuple(rename(a) for a in f.args))
    if isinstance(f, Not):
        return Not(ref_map_vars(f.body, rename))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(ref_map_vars(f.left, rename), ref_map_vars(f.right, rename))
    if isinstance(f, (Exists1, Exists2, Forall1, Forall2)):
        shadowed = lambda a: a if a == f.var else rename(a)
        return type(f)(f.var, ref_map_vars(f.body, shadowed))
    return f


def ref_substitute(f: Formula, mapping: dict[str, str],
                   fresh=None) -> Formula:
    """Capture-avoiding substitution of variables for variables."""
    if fresh is None:
        counter = itertools.count(1)
        fresh = lambda v: f"{v}_{next(counter)}"
    if isinstance(f, (Atom, Call)):
        return ref_map_vars(f, lambda a: mapping.get(a, a))
    if isinstance(f, Not):
        return Not(ref_substitute(f.body, mapping, fresh))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(ref_substitute(f.left, mapping, fresh),
                       ref_substitute(f.right, mapping, fresh))
    if isinstance(f, (Exists1, Exists2, Forall1, Forall2)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        if not inner:
            return f
        var, body = f.var, f.body
        if var in inner.values():
            renamed = fresh(var)
            while renamed in inner.values() or renamed in inner:
                renamed = fresh(var)
            body = ref_substitute(body, {var: renamed}, fresh)
            var = renamed
        return type(f)(var, ref_substitute(body, inner, fresh))
    return f


def ref_expand_macros(formula: Formula, defs: list[MacroDef] | dict[str, MacroDef]
                      ) -> Formula:
    """Replace Call nodes by macro bodies; result is Call-free."""
    table = defs if isinstance(defs, dict) else {d.name: d for d in defs}
    counter = itertools.count(1)
    fresh = lambda v: f"{v}_{next(counter)}"

    def expand(f: Formula, stack: tuple[str, ...]) -> Formula:
        if isinstance(f, Call):
            if f.name in stack:
                raise MacroError(f"recursive macro {f.name!r}")
            macro = table.get(f.name)
            if macro is None:
                raise MacroError(f"unknown macro {f.name!r}")
            if len(f.args) != len(macro.params):
                raise MacroError(f"macro {f.name} takes {len(macro.params)} "
                                 f"argument(s), got {len(f.args)}")
            body = ref_substitute(macro.body, dict(zip(macro.params, f.args)), fresh)
            return expand(body, stack + (f.name,))
        if isinstance(f, Not):
            return Not(expand(f.body, stack))
        if isinstance(f, (And, Or, Implies, Iff)):
            return type(f)(expand(f.left, stack), expand(f.right, stack))
        if isinstance(f, (Exists1, Exists2, Forall1, Forall2)):
            return type(f)(f.var, expand(f.body, stack))
        return f

    return expand(formula, ())


def ref_desugar(f: Formula) -> Formula:
    """Rewrite ->, <-> and universal quantifiers into ~, &, |, exists."""
    if isinstance(f, Implies):
        return Or(Not(ref_desugar(f.left)), ref_desugar(f.right))
    if isinstance(f, Iff):
        a, b = ref_desugar(f.left), ref_desugar(f.right)
        return And(Or(Not(a), b), Or(Not(b), a))
    if isinstance(f, Forall1):
        return Not(Exists1(f.var, Not(ref_desugar(f.body))))
    if isinstance(f, Forall2):
        return Not(Exists2(f.var, Not(ref_desugar(f.body))))
    if isinstance(f, Not):
        return Not(ref_desugar(f.body))
    if isinstance(f, (And, Or)):
        return type(f)(ref_desugar(f.left), ref_desugar(f.right))
    if isinstance(f, (Exists1, Exists2)):
        return type(f)(f.var, ref_desugar(f.body))
    if isinstance(f, (Implies, Iff)):  # pragma: no cover
        raise AssertionError
    return f


def ref_rename_bound_apart(f: Formula, avoid: frozenset[str] = frozenset()) -> Formula:
    """Give every binder a name distinct from all free names, other bound
    names, and the given avoid set (e.g. an ambient variable table)."""
    used = {name for name, _ in ref_free_variables(f)} | set(avoid)
    counter = itertools.count(1)

    def pick(v: str) -> str:
        if v not in used:
            used.add(v)
            return v
        while True:
            cand = f"{v}_{next(counter)}"
            if cand not in used:
                used.add(cand)
                return cand

    def walk(f: Formula, env: dict[str, str]) -> Formula:
        if isinstance(f, (Atom, Call)):
            return ref_map_vars(f, lambda a: env.get(a, a))
        if isinstance(f, Not):
            return Not(walk(f.body, env))
        if isinstance(f, (And, Or, Implies, Iff)):
            return type(f)(walk(f.left, env), walk(f.right, env))
        if isinstance(f, (Exists1, Exists2, Forall1, Forall2)):
            new = pick(f.var)
            return type(f)(new, walk(f.body, {**env, f.var: new}))
        return f

    return walk(f, {})


def ref_has_call(f: Formula) -> bool:
    if isinstance(f, Call):
        return True
    if isinstance(f, Not):
        return ref_has_call(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return ref_has_call(f.left) or ref_has_call(f.right)
    if isinstance(f, (Exists1, Exists2, Forall1, Forall2)):
        return ref_has_call(f.body)
    return False


# ----------------------------------------------------------------------
# tree walks: the recursive walks that trees.format_tree, shape_string,
# addresses and Node.__eq__ must agree with


def recursive_format_tree(tree) -> str:
    if tree is None:
        return "()"
    label = tree.label if tree.label else "-"
    return f"({label} {recursive_format_tree(tree.left)} {recursive_format_tree(tree.right)})"


def recursive_shape_string(tree) -> str:
    if tree is None:
        return "-"
    return "(" + recursive_shape_string(tree.left) + recursive_shape_string(tree.right) + ")"


def recursive_addresses(tree, prefix: str = "") -> dict[str, str]:
    out: dict[str, str] = {}
    if tree is not None:
        out[prefix] = tree.label
        out.update(recursive_addresses(tree.left, prefix + "0"))
        out.update(recursive_addresses(tree.right, prefix + "1"))
    return out


def recursive_tree_eq(a, b) -> bool:
    """``Node.__eq__`` with the children compared by this function."""
    if a is None or b is None:
        return a is b
    return (a.label == b.label
            and recursive_tree_eq(a.left, b.left)
            and recursive_tree_eq(a.right, b.right))


def recursive_repr(tree) -> str:
    """``Node.__repr__`` with the children written by this function."""
    if tree is None:
        return "None"
    return f"Node({tree.label!r}, {recursive_repr(tree.left)}, {recursive_repr(tree.right)})"


# ----------------------------------------------------------------------
# formula parsing: the one-method-per-level precedence climbing that
# formulas._Parser.parse_formula must agree with, in trees and in errors


class PerLevelParser(_Parser):
    def parse_formula(self) -> Formula:
        return self.parse_iff()

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        if self.at("<->"):
            self.next()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.at("->"):
            self.next()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.at("|"):
            self.next()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        while self.at("&"):
            self.next()
            left = And(left, self.parse_unary())
        return left


# ----------------------------------------------------------------------
# formula printing: the printer with its own operator and quantifier tables
# that formulas.format_formula must agree with


_REF_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4}


def ref_format_formula(f: Formula) -> str:
    def fmt(f: Formula, level: int) -> str:
        if isinstance(f, TrueF):
            return "true"
        if isinstance(f, FalseF):
            return "false"
        if isinstance(f, Atom):
            return f"{f.kind}({', '.join(f.args)})"
        if isinstance(f, Call):
            return f"{f.name}({', '.join(f.args)})"
        if isinstance(f, Not):
            return "~" + fmt(f.body, 5)
        if isinstance(f, (Exists1, Exists2, Forall1, Forall2)):
            word = {Exists1: "ex1", Exists2: "ex2",
                    Forall1: "all1", Forall2: "all2"}[type(f)]
            text = f"{word} {f.var}. {fmt(f.body, 0)}"
            return f"({text})" if level > 0 else text
        prec = _REF_PREC[type(f)]
        op = {Iff: "<->", Implies: "->", Or: "|", And: "&"}[type(f)]
        right_level = prec - 1 if type(f) in (Implies, Iff) else prec
        text = f"{fmt(f.left, prec)} {op} {fmt(f.right, right_level)}"
        return f"({text})" if level >= prec else text

    return fmt(f, 0)


# ----------------------------------------------------------------------
# clause solving: the two search loops, recursive derivations and
# clause-index paths that clp.Solver must agree with, in solutions, events,
# fresh names and cut branches


class RecursiveSolver(Solver):
    def solve(self, query):
        store = self._constrain(initial_store(), query.constraint)
        if store is None:
            return
        if not self.iterative_deepening:
            for _, solution in self._derive(list(query.goals), store, 0,
                                            self.depth_bound, ()):
                yield solution
            return
        seen: set[tuple] = set()
        bound = 1
        while True:
            bound = min(bound, self.depth_bound)
            truncated_before = self.truncated_branches
            for path, solution in self._derive(list(query.goals), store, 0,
                                               bound, ()):
                if path not in seen:
                    seen.add(path)
                    yield solution
            if (self.truncated_branches == truncated_before
                    or bound >= self.depth_bound):
                return
            bound *= 2

    def _derive(self, goals, store, depth, bound, path):
        if not goals:
            yield path, self._solution(store)
            return
        if depth >= bound:
            self.truncated_branches += 1
            self._event("depth", depth=depth, goal=str(goals[0]))
            return
        goal = goals[0]
        clauses = self.program.matching(goal.name, len(goal.args))
        if not clauses:
            raise SolveError(f"unknown predicate {goal.name}/{len(goal.args)}")
        for i, clause in enumerate(clauses):
            if any(sort_of_name(p) != sort_of_name(a)
                   for p, a in zip(clause.params, goal.args)):
                continue
            mapping = dict(zip(clause.params, goal.args))
            for local in sorted(_clause_variables(clause) - set(clause.params)):
                if sort_of_name(local) == FIRST:
                    mapping[local] = f"{local}#{next(self._fresh)}"
            constraint = substitute(clause.constraint, mapping)
            self._event("reduce", goal=str(goal), clause=i + 1,
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
            body = [GoalAtom(g.name, tuple(mapping.get(a, a) for a in g.args))
                    for g in clause.body]
            yield from self._derive(body + goals[1:], new_store,
                                    depth + 1, bound, path + (i,))


# ----------------------------------------------------------------------
# guard merging: the restart-after-every-merge greedy that
# guards.merge_patterns must agree with


def _merge_two(a: str, b: str) -> str | None:
    """Merge two guards differing in exactly one concrete position."""
    diff = -1
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if x == "*" or y == "*" or diff >= 0:
            return None
        diff = i
    if diff < 0:
        return a
    return a[:diff] + "*" + a[diff + 1:]


def subsumes(a: str, b: str) -> bool:
    """True when every symbol matching b also matches a."""
    return all(x == "*" or x == y for x, y in zip(a, b))


def greedy_merge_patterns(patterns: Iterable[str]) -> list[str]:
    """Compact a set of guards by cube merging; result order is deterministic.

    Greedy, not minimal, but never changes the denoted symbol set as long as
    the inputs are pairwise disjoint or nested.
    """
    pats = set(patterns)
    while True:
        found = None
        ordered = sorted(pats)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                m = _merge_two(a, b)
                if m is not None:
                    found = (a, b, m)
                    break
            if found:
                break
        if found is None:
            break
        a, b, m = found
        pats.discard(a)
        pats.discard(b)
        pats.add(m)
    return [p for p in sorted(pats)
            if not any(q != p and subsumes(q, p) for q in pats)]


# ----------------------------------------------------------------------
# random generators for property tests


def random_guard(rng: random.Random, width: int) -> str:
    return "".join(rng.choice("01*") for _ in range(width))


def random_tree(rng: random.Random, size: int, width: int):
    """A random tree with ``size`` nodes; the left subtree's size is uniform,
    so the depth stays logarithmic in expectation."""
    if size == 0:
        return None
    k = rng.randrange(size)
    label = "".join(rng.choice("01") for _ in range(width))
    return Node(label, random_tree(rng, k, width),
                random_tree(rng, size - 1 - k, width))


def random_deterministic(rng: random.Random, width: int,
                         max_states: int = 4) -> TreeAutomaton:
    n = rng.randint(1, max_states)
    states = [f"r{i}" for i in range(n)]
    transitions = {}
    for left in states:
        for right in states:
            if rng.random() < 0.3:
                continue
            entries = {}
            space = ["*" * width]
            for _ in range(rng.randint(1, 3)):
                if not space:
                    break
                cube = rng.choice(space)
                space = [p for c in space for p in subtract(c, cube)]
                entries[cube] = rng.choice(states)
            if entries:
                transitions[(left, right)] = entries
    finals = {s for s in states if rng.random() < 0.4}
    return TreeAutomaton(width, states, states[0], finals, transitions)


def random_label_deterministic(rng: random.Random, width: int,
                               max_states: int = 4) -> TreeAutomaton:
    """Like ``random_deterministic``, but each guard fixes a random part of
    the still-uncovered cube it is cut from, so transitions depend on the
    label (``random_deterministic``'s first guard is the whole space)."""
    n = rng.randint(1, max_states)
    states = [f"r{i}" for i in range(n)]
    transitions = {}
    for left in states:
        for right in states:
            if rng.random() < 0.3:
                continue
            entries = {}
            space = ["*" * width]
            for _ in range(rng.randint(1, 4)):
                if not space:
                    break
                cube = "".join(rng.choice("01") if c == "*" and rng.random() < 0.5
                               else c for c in rng.choice(space))
                space = [p for c in space for p in subtract(c, cube)]
                entries[cube] = rng.choice(states)
            transitions[(left, right)] = entries
    finals = {s for s in states if rng.random() < 0.4}
    return TreeAutomaton(width, states, states[0], finals, transitions)


def random_nondeterministic(rng: random.Random, width: int,
                            max_states: int = 4) -> TreeAutomaton:
    n = rng.randint(1, max_states)
    states = [f"r{i}" for i in range(n)]
    transitions = {}
    for left in states:
        for right in states:
            if rng.random() < 0.4:
                continue
            entries = []
            for _ in range(rng.randint(1, 3)):
                targets = frozenset(rng.sample(states, rng.randint(1, n)))
                entries.append((random_guard(rng, width), targets))
            transitions[(left, right)] = entries
    finals = {s for s in states if rng.random() < 0.4}
    return TreeAutomaton(width, states, states[0], finals, transitions,
                         deterministic=False)


_WALK_NAMES = {FIRST: ("x", "y", "z", "z_1", "x_2"), SECOND: ("X", "Y", "Y_1")}


def random_formula(rng: random.Random, depth: int,
                   macros: list[MacroDef] = ()) -> Formula:
    """A random formula using every node kind.  Its names include ones of
    the ``v_1`` shape that the walks invent, so binders collide with free
    names and fresh names collide with taken ones.  Calls go to ``macros``;
    a few name a missing macro or pass the wrong number of arguments."""

    def name(sort: str) -> str:
        return rng.choice(_WALK_NAMES[sort])

    roll = rng.randrange(12 if depth > 0 else 4)
    if roll == 0:
        return rng.choice([TrueF(), FalseF()])
    if roll == 1 and macros:
        macro = rng.choice(macros)
        args = [name(sort_of_name(p)) for p in macro.params]
        if rng.random() < 0.05:
            args.append("x")
        return Call("Missing" if rng.random() < 0.03 else macro.name, tuple(args))
    if roll <= 3:
        kind = rng.choice(sorted(ATOM_SORTS))
        return Atom(kind, tuple(name(sort) for sort in ATOM_SORTS[kind]))
    if roll == 4:
        return Not(random_formula(rng, depth - 1, macros))
    if roll <= 8:
        ctor = rng.choice([And, Or, Implies, Iff])
        return ctor(random_formula(rng, depth - 1, macros),
                    random_formula(rng, depth - 1, macros))
    ctor = rng.choice([Exists1, Exists2, Forall1, Forall2])
    sort = FIRST if ctor in (Exists1, Forall1) else SECOND
    return ctor(name(sort), random_formula(rng, depth - 1, macros))


_TOKEN_ATOMS = ["sing(X)", "prec(x, y)", "in(x, X)", "pdom(y, x)", "true",
                "false"]
_TOKEN_CORRUPTIONS = ["(", ")", "~", "&", "|", "->", "<->", ".", ",", "x",
                      "X", "ex1", "all2", "}"]


def random_formula_text(rng: random.Random, depth: int = 3) -> str:
    """Formula text built from tokens: unparenthesised chains of all four
    binary operators over negations, quantifiers, atoms and parenthesised
    chains.  About one text in five then has a token dropped, swapped or
    inserted, so the parsers' errors get compared too."""

    def item(depth: int) -> list[str]:
        roll = rng.randrange(6 if depth > 0 else 1)
        if roll <= 1:
            return [rng.choice(_TOKEN_ATOMS)]
        if roll == 2:
            return ["~"] + item(depth - 1)
        if roll == 3:
            word = rng.choice(["ex1", "all1", "ex2", "all2"])
            names = ["x", "y"] if word.endswith("1") else ["X", "Y"]
            return [word, ", ".join(names[:rng.randint(1, 2)]), "."] + chain(depth - 1)
        return ["("] + chain(depth - 1) + [")"]

    def chain(depth: int) -> list[str]:
        tokens = item(depth)
        for _ in range(rng.randrange(5)):
            tokens += [rng.choice(["&", "|", "->", "<->"])] + item(depth)
        return tokens

    tokens = chain(depth)
    if rng.random() < 0.2:
        i = rng.randrange(len(tokens) + 1)
        roll = rng.randrange(3)
        if roll == 0 and i < len(tokens):
            del tokens[i]
        elif roll == 1 and i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        else:
            tokens.insert(i, rng.choice(_TOKEN_CORRUPTIONS))
    return " ".join(tokens)


def random_macros(rng: random.Random, count: int = 3) -> list[MacroDef]:
    """Macros ``M0``, ``M1``, ...; each may call the ones before it, and now
    and then itself.  Parameters and bodies share the names of
    ``random_formula``, so expanding a call captures names."""
    macros: list[MacroDef] = []
    for i in range(count):
        params = (rng.sample(_WALK_NAMES[FIRST], rng.randint(0, 2))
                  + rng.sample(_WALK_NAMES[SECOND], rng.randint(0, 1)))
        header = MacroDef(f"M{i}", tuple(params), TrueF())
        callable_ = macros + [header] if rng.random() < 0.1 else macros
        body = random_formula(rng, 3, callable_)
        macros.append(MacroDef(header.name, header.params, body))
    return macros
