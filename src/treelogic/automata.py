"""Deterministic and nondeterministic bottom-up tree automata.

An automaton assigns states to finite binary trees leaf-to-root: the empty
tree gets the initial state, and a node's state is looked up from the pair of
child states and the node label.  A tree is accepted when its root state is
final.  Labels are fixed-width bit strings; transitions are guarded by
patterns over {0, 1, *} (see ``guards``).

Conventions:

* In deterministic mode the guards attached to one (left, right) state pair
  are pairwise disjoint.  Symbols not covered by any listed transition go to
  an implicit dead state, so deterministic automata are always total.  The
  ``sink`` attribute optionally names that dead state; a designated sink is
  never final and absorbs from both child positions.
* Automata are immutable after construction.  Every operation returns a
  fresh automaton, so values can be shared freely across threads.  The one
  mutable part is ``_steps``, a memo of the transition function that runs
  fill the first time they meet a (left, right, label) step.  An entry is a
  function of its key and never changes once written, so two threads that
  fill the same key store the same value and sharing stays safe.
* Two bottom-up loops stay, because they answer different questions.
  ``_explore`` discovers new states: the constructions (product, subset
  construction) and ``renumbered`` compute each pair's entries on the fly,
  and the discovery order names the states.  The product and ``renumbered``
  queue only pairs their inputs list; the subset construction tries every
  pair, but computes each distinct row set's step once.
  ``reachable_states_detailed`` only reads a table that already exists, so
  it visits the listed pairs alone; ``is_empty`` and ``minimize`` run on it.
* Runs (``run``, ``run_set``, ``accepts``) fold the tree bottom-up over an
  explicit stack, so their depth is not bounded by the recursion limit.
* State identity is meaningless across automata: compare languages with
  ``equivalent``, never state sets.
* Constructed automata (products, subset constructions) name their states
  by discovery index, never from the names of component states, so no two
  states can share a name whatever names the inputs use.  Only names
  supplied by the caller or read by ``from_text`` survive an operation;
  ``renumbered`` and ``minimize`` give their own canonical names.
* The constructions build their tables in canonical form and hand them to
  ``_canonical``, which neither normalizes nor validates.  The public
  constructor (so ``from_text``) does both.  ``project`` and the
  compiler's closure go through it to normalize: dropping a column or
  copying entries onto new pairs can make two guards of a pair collide.
* ``minimize`` treats the implicit dead state as one ordinary state.  It
  builds the symbol->target map of each listed pair of reachable states
  as a reduced ordered decision diagram whose split nodes are keyed by bit
  position and shared across pairs (as in MONA), once per distinct entry
  list; an unlisted pair's map is the dead leaf.  Each Moore round only
  relabels the diagrams' leaves by block and compares sparse rows and
  columns.

Text format (one construct per line, ``#`` starts a comment)::

    width 2
    states 6
    initial a0
    finals a4
    trans a0 a0 00 -> a0
    ...

``states`` is the state count.  When it exceeds the number of state names
mentioned by exactly one, the extra state is the (unlisted) sink.  An
optional ``sink <id>`` line names the sink explicitly.  Width-0 guards (the
empty bit string) are written ``-``.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import deque
from typing import Callable, Iterator

from . import guards as gp
from .trees import Node, Tree, preorder, tree_sort_key, validate_tree

PairKey = tuple[str, str]
Entry = tuple[str, frozenset[str]]


_BITS = frozenset("01")


class AutomatonError(ValueError):
    pass


def _normalize(transitions) -> dict[PairKey, tuple[Entry, ...]]:
    """Accepts {pair: {guard: target-or-targets}} or {pair: iterable of
    (guard, target-or-targets)}; returns the canonical sorted form.  Its
    one caller is the public constructor (see the module docstring)."""
    norm: dict[PairKey, dict[str, set[str]]] = {}
    for pair, entries in transitions.items():
        items = entries.items() if isinstance(entries, dict) else entries
        bucket = norm.setdefault(pair, {})
        for guard, target in items:
            targets = {target} if isinstance(target, str) else set(target)
            bucket.setdefault(guard, set()).update(targets)
    return {
        pair: tuple((g, frozenset(ts)) for g, ts in sorted(bucket.items()))
        for pair, bucket in sorted(norm.items())
    }


class TreeAutomaton:
    __slots__ = ("width", "states", "initial", "finals", "transitions",
                 "deterministic", "sink", "_steps")

    def __init__(self, width, states, initial, finals, transitions,
                 deterministic=True, sink=None, validate=True):
        self.width = int(width)
        self.states = frozenset(states)
        self.initial = initial
        self.finals = frozenset(finals)
        self.transitions = _normalize(transitions)
        self.deterministic = bool(deterministic)
        self.sink = sink
        self._steps: dict[tuple, object] = {}  # memo of runs' steps, see _fold
        if validate:
            self._validate()

    @classmethod
    def _canonical(cls, width, states, initial, finals, transitions,
                   deterministic, sink=None) -> "TreeAutomaton":
        """The automaton of these fields, trusted: neither normalized nor
        validated.  ``transitions`` must already be canonical, its pairs in
        sorted order and each value a tuple of ``(guard, frozenset of
        targets)`` with strictly increasing guards."""
        aut = cls.__new__(cls)
        aut.width = width
        aut.states = frozenset(states)
        aut.initial = initial
        aut.finals = frozenset(finals)
        aut.transitions = transitions
        aut.deterministic = deterministic
        aut.sink = sink
        aut._steps = {}
        return aut

    def _validate(self) -> None:
        if self.width < 0:
            raise AutomatonError("width must be non-negative")
        if self.initial not in self.states:
            raise AutomatonError(f"initial state {self.initial!r} not a state")
        if not self.finals <= self.states:
            raise AutomatonError("final states must be states")
        if self.sink is not None:
            if self.sink not in self.states:
                raise AutomatonError(f"sink {self.sink!r} not a state")
            if self.sink in self.finals:
                raise AutomatonError("sink cannot be final")
        for (left, right), entries in self.transitions.items():
            if left not in self.states or right not in self.states:
                raise AutomatonError(f"transition from unknown pair ({left}, {right})")
            for guard, targets in entries:
                gp.check_guard(guard, self.width)
                if not targets <= self.states:
                    raise AutomatonError(f"transition to unknown state(s) {set(targets)}")
                if self.deterministic and len(targets) != 1:
                    raise AutomatonError("deterministic automaton with multi-target entry")
            if self.deterministic:
                clash = _overlap(g for g, _ in entries)
                if clash is not None:
                    raise AutomatonError(
                        f"overlapping guards {clash[0]!r}/{clash[1]!r} on pair ({left}, {right})")
            if self.sink is not None:
                for guard, targets in entries:
                    if (left == self.sink or right == self.sink) and targets != {self.sink}:
                        raise AutomatonError("sink must absorb from both child positions")

    def __repr__(self):
        kind = "det" if self.deterministic else "nondet"
        return (f"<TreeAutomaton {kind} width={self.width} "
                f"states={len(self.states)} finals={len(self.finals)}>")

    # ------------------------------------------------------------------
    # construction helpers

    @staticmethod
    def all_trees(width: int) -> "TreeAutomaton":
        """Accepts every tree of the given width, including the empty tree."""
        return TreeAutomaton(
            width, {"q0"}, "q0", {"q0"},
            {("q0", "q0"): {gp.all_star(width): "q0"}})

    @staticmethod
    def empty_language(width: int) -> "TreeAutomaton":
        """The canonical automaton of the empty language."""
        return TreeAutomaton(width, {"q0"}, "q0", set(), {}, sink="q0")

    # ------------------------------------------------------------------
    # runs and membership

    def run(self, tree: Tree) -> str | None:
        """State reached on the tree (deterministic mode); None = dead."""
        if not self.deterministic:
            raise AutomatonError("run() requires a deterministic automaton")
        return self._fold(tree, self.initial, self._fill_state)

    def run_set(self, tree: Tree) -> frozenset[str]:
        """All states reachable on the tree (nondeterministic reading)."""
        return self._fold(tree, frozenset({self.initial}), self._fill_states)

    def accepts(self, tree: Tree) -> bool:
        if self.deterministic:
            state = self.run(tree)
            return state is not None and state in self.finals
        return bool(self.run_set(tree) & self.finals)

    def _fold(self, tree: Tree, leaf, fill):
        """The tree's bottom-up value, without recursion.  Nodes are listed
        in preorder and valued in reverse, so when a node is valued its left
        child's value is on top of the value stack and its right child's
        below it.  Each step is read from the ``_steps`` memo and computed by
        ``fill`` the first time its key is seen.  Keys are (left, right,
        label) for ``run`` and (lefts, rights, label) for ``run_set``; state
        names are strings and state sets frozensets, so they never collide."""
        if tree is None:
            return leaf
        steps = self._steps
        values: list = []
        push, pop = values.append, values.pop
        for node in reversed(preorder(tree)):
            left = leaf if node.left is None else pop()
            right = leaf if node.right is None else pop()
            key = (left, right, node.label)
            try:
                push(steps[key])
            except KeyError:
                push(fill(key, tree))
        return values[0]

    def _fill_state(self, key: tuple, tree: Tree) -> str | None:
        left, right, label = key
        self._check_label(label, tree)
        target = self.sink
        if left is not None and right is not None:
            for guard, targets in self.transitions.get((left, right), ()):
                if gp.matches(guard, label):
                    target = next(iter(targets))
                    break
        self._steps[key] = target
        return target

    def _fill_states(self, key: tuple, tree: Tree) -> frozenset[str]:
        lefts, rights, label = key
        self._check_label(label, tree)
        out: set[str] = set()
        for left in lefts:
            for right in rights:
                for guard, targets in self.transitions.get((left, right), ()):
                    if gp.matches(guard, label):
                        out.update(targets)
        self._steps[key] = targets = frozenset(out)
        return targets

    def _check_label(self, label: str, tree: Tree) -> None:
        """A label of another width or with a character other than 0/1
        makes the whole-tree check raise, so the error and its message are
        those of the first bad label in preorder."""
        if len(label) != self.width or not _BITS.issuperset(label):
            self._check_tree(tree)

    def _check_tree(self, tree: Tree) -> None:
        width = validate_tree(tree)
        if width is not None and width != self.width:
            raise AutomatonError(
                f"tree labels have width {width}, automaton has width {self.width}")

    # ------------------------------------------------------------------
    # reachability and emptiness

    def reachable_states(self) -> frozenset[str]:
        reached, _ = self.reachable_states_detailed()
        return reached

    def reachable_states_detailed(self) -> tuple[frozenset[str], int]:
        """Least fixpoint of bottom-up reachability plus the pass count.

        A state's height is the sweep pass that first reaches it: 0 for the
        initial state, else 1 + the higher child height of a pair leading
        to it.  A designated sink is led to by any pair that leaves symbols
        uncovered, and an unlisted pair leaves them all uncovered.

        Only listed pairs are read.  States are settled first in, first
        out, and a listed pair is expanded when the later of its two
        children is settled, so states settle in nondecreasing height and
        the first height recorded is the least.  Settling the k-th state
        completes 2k - 1 pairs; when fewer of them are listed with every
        symbol covered, one leads to the sink.
        """
        by_child: dict[str, list[PairKey]] = {}
        for pair in self.transitions:
            for child in set(pair):
                by_child.setdefault(child, []).append(pair)
        height = {self.initial: 0}
        queue = deque([self.initial])
        settled: set[str] = set()

        def reach(target: str, at: int) -> None:
            if target not in height:
                height[target] = at
                queue.append(target)

        while queue:
            state = queue.popleft()
            settled.add(state)
            up = 1 + height[state]
            sink_pending = self.sink is not None and self.sink not in height
            covered = 0
            for pair in by_child.get(state, ()):
                if not settled.issuperset(pair):
                    continue
                entries = self.transitions[pair]
                for _, targets in entries:
                    for target in targets:
                        reach(target, up)
                if sink_pending and gp.covers_all([g for g, _ in entries], self.width):
                    covered += 1
            if sink_pending and covered < 2 * len(settled) - 1:
                reach(self.sink, up)
        return frozenset(height), 1 + max(height.values())

    def is_empty(self) -> bool:
        return self.initial not in self.finals and \
            not self.reachable_states() & self.finals

    # ------------------------------------------------------------------
    # totality

    def with_materialized_sink(self) -> "TreeAutomaton":
        """Make the implicit dead state explicit: every state pair covers the
        whole symbol space.  Deterministic automata only."""
        if not self.deterministic:
            raise AutomatonError("cannot materialize the sink of a nondeterministic automaton")
        sink = self.sink if self.sink is not None else fresh_name("dead", self.states)
        states = self.states | {sink}
        dead = frozenset({sink})
        transitions: dict[PairKey, tuple[Entry, ...]] = {}
        for pair in itertools.product(sorted(states), repeat=2):
            listed = self.transitions.get(pair, ())
            transitions[pair] = tuple(sorted([*listed, *(
                (cube, dead) for cube in gp.uncovered([g for g, _ in listed], self.width))]))
        return TreeAutomaton._canonical(self.width, states, self.initial,
                                        self.finals, transitions, True, sink)

    # ------------------------------------------------------------------
    # boolean operations

    def intersect(self, other: "TreeAutomaton") -> "TreeAutomaton":
        return self._product(other, operator.and_)

    def union(self, other: "TreeAutomaton") -> "TreeAutomaton":
        return self._product(other, operator.or_)

    def _product(self, other: "TreeAutomaton",
                 accept: Callable[[bool, bool], bool]) -> "TreeAutomaton":
        """The product automaton; a pair state is final when ``accept`` holds
        of its components' finality.  The dead states are materialized when
        a pair with one or two dead components can be final (``operator.eq``
        holds on two).  Only pairs both operands list are queued, and the
        entries of two listed pairs are met once per call."""
        if self.width != other.width:
            raise AutomatonError(
                f"width mismatch: {self.width} vs {other.width}")
        a = self if self.deterministic else self.determinize()
        b = other if other.deterministic else other.determinize()
        if accept(True, False) or accept(False, True) or accept(False, False):
            a = a.with_materialized_sink()
            b = b.with_materialized_sink()
        met: dict[tuple, list[tuple[str, PairKey]]] = {}

        def step(left: PairKey, right: PairKey) -> list[tuple[str, PairKey]]:
            rows = (a.transitions.get((left[0], right[0]), ()),
                    b.transitions.get((left[1], right[1]), ()))
            if rows not in met:
                met[rows] = [(m, (next(iter(t1)), next(iter(t2))))
                             for g1, t1 in rows[0] for g2, t2 in rows[1]
                             if (m := gp.meet(g1, g2)) is not None]
            return met[rows]

        def linked(left: PairKey, right: PairKey) -> bool:
            return ((left[0], right[0]) in a.transitions
                    and (left[1], right[1]) in b.transitions)

        return _explored_automaton(
            self.width, (a.initial, b.initial), step,
            lambda pair: accept(pair[0] in a.finals, pair[1] in b.finals),
            linked)

    def complement(self) -> "TreeAutomaton":
        if not self.deterministic:
            raise AutomatonError("complement requires a deterministic automaton")
        total = self.with_materialized_sink()
        return TreeAutomaton._canonical(total.width, total.states, total.initial,
                                        total.states - total.finals,
                                        total.transitions, True)

    # ------------------------------------------------------------------
    # determinization

    def determinize(self) -> "TreeAutomaton":
        """Subset construction restricted to reachable state sets.

        The output is deterministic and total (missing entries fall to the
        implicit dead state, which corresponds to the empty subset).  Every
        pair of subsets is tried; its step depends only on the set of rows
        its members list, so each distinct set's step is computed once.
        """
        memo: dict[frozenset, list[Entry]] = {frozenset(): []}  # no rows, no entries

        def step(left: frozenset[str], right: frozenset[str]) -> list[Entry]:
            rows = frozenset(row for p in left for q in right
                             if (row := self.transitions.get((p, q))))
            if rows in memo:
                return memo[rows]
            collected = [entry for row in rows for entry in row]
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
            memo[rows] = [(pattern, subset) for subset in sorted(by_target, key=sorted)
                          for pattern in gp.merge_patterns(by_target[subset])]
            return memo[rows]

        return _explored_automaton(self.width, frozenset({self.initial}), step,
                                   lambda subset: bool(subset & self.finals))

    # ------------------------------------------------------------------
    # projection and cylindrification

    def project(self, pos: int) -> "TreeAutomaton":
        """Erase one bit position from the alphabet; the result is marked
        nondeterministic since transitions differing only at ``pos`` merge."""
        if not 0 <= pos < self.width:
            raise AutomatonError(f"position {pos} out of range for width {self.width}")
        transitions = {
            pair: [(gp.drop_position(g, pos), ts) for g, ts in pair_entries]
            for pair, pair_entries in self.transitions.items()
        }
        return TreeAutomaton(self.width - 1, self.states, self.initial,
                             self.finals, transitions,
                             deterministic=False, sink=None, validate=False)

    def cylindrify(self, pos: int) -> "TreeAutomaton":
        """Insert a don't-care bit position; inverse image of projection."""
        if not 0 <= pos <= self.width:
            raise AutomatonError(f"position {pos} out of range for width {self.width}")
        return self.remap([i + (i >= pos) for i in range(self.width)],
                          self.width + 1)

    def remap(self, positions, width: int) -> "TreeAutomaton":
        """Move bit ``i`` to ``positions[i]`` in a ``width``-bit alphabet,
        every other bit don't-care.  ``positions`` is strictly increasing,
        so every guard gets its ``*`` columns in the same places and guards
        keep their sort order: an operation on remapped automata makes the
        same choices as on the originals."""
        positions = list(positions)
        if len(positions) != self.width:
            raise AutomatonError(
                f"{len(positions)} position(s) for width {self.width}")
        bounds = [-1, *positions, width]
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise AutomatonError(
                f"positions {positions} not increasing within width {width}")
        if width == self.width:  # so positions is range(width)
            return self
        gaps = ["*" * (b - a - 1) for a, b in zip(bounds, bounds[1:])]
        last = gaps.pop()

        def spread(guard: str) -> str:
            return "".join(gap + bit for gap, bit in zip(gaps, guard)) + last

        transitions = {
            pair: tuple((spread(g), ts) for g, ts in pair_entries)
            for pair, pair_entries in self.transitions.items()
        }
        return TreeAutomaton._canonical(width, self.states, self.initial,
                                        self.finals, transitions,
                                        self.deterministic, self.sink)

    # ------------------------------------------------------------------
    # minimization

    def minimize(self) -> "TreeAutomaton":
        """Quotient by state equivalence after dropping unreachable states.

        The result is the minimal total deterministic automaton of the
        language, unique up to state renaming.  Transitions into the dead
        class are stripped and the class is designated as the sink, so empty
        languages come out as a single non-final initial state.  Every state
        of the result is reachable, so its language is empty exactly when it
        has no final state.

        The implicit dead state (``sink``, or a fresh name) is an ordinary
        state that every uncovered symbol goes to.  Each listed pair of
        reachable states has its symbol->target map built as a reduced
        ordered decision diagram over bit positions whose nodes are shared
        across pairs and whose split nodes carry their position; pairs with
        equal entries share one diagram, built once, and an unlisted pair's
        map is the dead leaf.  Moore refinement then only relabels the
        diagrams' leaves by block and reduces them again, and two states
        stay together while their rows and columns of relabelled diagrams
        agree.  Rows and columns are kept sparse: they list (partner, label)
        only where the label is not the dead leaf's.  The dead state is
        refined even when unreachable, so its block is the dead class.
        """
        if not self.deterministic:
            raise AutomatonError("minimize requires a deterministic automaton")
        dead = self.sink if self.sink is not None else fresh_name("dead", self.states)
        reached = self.reachable_states()
        # Diagram nodes are (target,) leaves or (pos, lo, hi) splits,
        # hash-consed, each listed after its children.
        nodes: list[tuple] = []
        ids: dict[tuple, int] = {}

        def node(key: tuple) -> int:
            if key not in ids:
                ids[key] = len(nodes)
                nodes.append(key)
            return ids[key]

        dead_leaf = node((dead,))
        # A state's row and column: (partner, diagram) for each listed pair
        # of reached states, in partner order (``transitions`` is sorted).
        rows: dict[str, list[tuple[str, int]]] = {s: [] for s in reached | {dead}}
        cols: dict[str, list[tuple[str, int]]] = {s: [] for s in reached | {dead}}
        listed = 0
        gap = False  # whether a listed diagram has the dead leaf
        # Pairs with equal entries have equal diagrams: each is built once.
        diagrams: dict[tuple[Entry, ...], int] = {}
        for (left, right), pair_entries in self.transitions.items():
            if left not in reached or right not in reached:
                continue
            listed += 1
            diagram = diagrams.get(pair_entries)
            if diagram is None:
                targets = [next(iter(ts)) for _, ts in pair_entries]
                coded = [gp.masks(g) for g, _ in pair_entries]
                ones = [one for one, _ in coded]
                zeros = [zero for _, zero in coded]
                memo: dict[tuple[int, tuple[int, ...]], int] = {}

                def build(pos: int, live: tuple[int, ...]) -> int:
                    nonlocal gap
                    # Skip to the next position some live guard constrains;
                    # at any position before it, both branches would agree.
                    care = 0
                    for i in live:
                        care |= ones[i] | zeros[i]
                    care >>= pos
                    if not care:
                        if live:
                            return node((targets[live[0]],))
                        gap = True
                        return dead_leaf
                    pos += (care & -care).bit_length() - 1
                    if (pos, live) not in memo:
                        bit = 1 << pos
                        lo = build(pos + 1, tuple(i for i in live if not ones[i] & bit))
                        hi = build(pos + 1, tuple(i for i in live if not zeros[i] & bit))
                        memo[pos, live] = lo if lo == hi else node((pos, lo, hi))
                    return memo[pos, live]

                diagram = build(0, tuple(range(len(pair_entries))))
                diagrams[pair_entries] = diagram
            rows[left].append((right, diagram))
            cols[right].append((left, diagram))
        # The dead state is reached when a reached pair is unlisted or sends
        # a symbol to the dead leaf.  It always takes part, after the
        # reachable states when unreached, so every state equivalent to it
        # lands in its block; an unreached one has no diagrams.
        dead_reached = dead in reached or gap or listed < len(reached) ** 2
        states = sorted(reached | {dead}) if dead_reached else [*sorted(reached), dead]

        # Moore refinement; a pair's signature is its diagram with the
        # leaves relabelled by block and reduced again.
        block: dict[str, int] = {s: (1 if s in self.finals else 0) for s in states}
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

            void = label[dead_leaf]
            groups: dict[tuple, list[str]] = {}
            for s in states:
                signature = (block[s],
                             tuple((t, lab) for t, n in rows[s] if (lab := label[n]) != void),
                             tuple((t, lab) for t, n in cols[s] if (lab := label[n]) != void))
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
        if not dead_reached and list(block.values()).count(sink) == 1:
            del rep[sink]
            sink = None

        name = {b: f"m{b}" for b in rep}
        target = {b: frozenset({name[b]}) for b in rep}
        quotient: dict[PairKey, tuple[Entry, ...]] = {}
        for bl in rep:
            for br in rep:
                if sink in (bl, br):
                    continue
                merged: dict[int, list[str]] = {}
                for guard, targets in self.transitions.get((rep[bl], rep[br]), ()):
                    b = block[next(iter(targets))]
                    if b != sink:
                        merged.setdefault(b, []).append(guard)
                if merged:
                    quotient[name[bl], name[br]] = tuple(sorted(
                        (pattern, target[b]) for b, pats in merged.items()
                        for pattern in (pats if len(pats) == 1 else gp.merge_patterns(pats))))

        return TreeAutomaton._canonical(
            self.width, name.values(), name[block[self.initial]],
            {name[block[s]] for s in states if s in self.finals},
            dict(sorted(quotient.items())), True, None if sink is None else name[sink])

    # ------------------------------------------------------------------
    # language comparison and witnesses

    def equivalent(self, other: "TreeAutomaton") -> bool:
        """Whether no tree is accepted by exactly one of the two."""
        return self._product(other, operator.ne).is_empty()

    def witness(self) -> Tree:
        """The least accepted tree under ``tree_sort_key`` (don't-care bits
        resolve to 0), or None for the empty language.

        Lightest-derivation search (Knuth 1977): a tree's key exceeds its
        subtrees' and grows with theirs, so the first tree popped for a
        state is its least.  Equal keys mean equal trees, so the heap never
        has to order two ``Node``s.
        """
        best: dict[str, Tree] = {}
        heap = [(tree_sort_key(None), self.initial, None)]
        while heap:
            _, state, tree = heapq.heappop(heap)
            if state in best:
                continue
            if state in self.finals:
                return tree
            best[state] = tree
            for other in best:
                for left, right in {(state, other), (other, state)}:
                    for guard, targets in self.transitions.get((left, right), ()):
                        node = Node(gp.least_symbol(guard), best[left], best[right])
                        for target in targets:
                            if target not in best:
                                heapq.heappush(heap, (tree_sort_key(node), target, node))
        return None

    # ------------------------------------------------------------------
    # canonical renaming and the text format

    def renumbered(self) -> "TreeAutomaton":
        """Rename states q0..qN in a canonical discovery order, independent
        of the current names (for reachable automata)."""
        def step(left: str, right: str) -> Iterator[tuple[str, str]]:
            for guard, targets in sorted(self.transitions.get((left, right), ())):
                for target in sorted(targets):
                    yield guard, target

        order, _ = _explore(self.initial, step,
                            lambda left, right: (left, right) in self.transitions)
        for leftover in sorted(self.states - set(order)):
            if leftover != self.sink:
                order.append(leftover)
        if self.sink is not None and self.sink not in order:
            order.append(self.sink)
        names = {s: f"q{i}" for i, s in enumerate(order)}
        transitions = {
            (names[l], names[r]): tuple((g, frozenset(map(names.get, ts)))
                                        for g, ts in entries)
            for (l, r), entries in self.transitions.items()
        }
        return TreeAutomaton._canonical(
            self.width, names.values(), names[self.initial],
            {names[f] for f in self.finals}, dict(sorted(transitions.items())),
            self.deterministic, None if self.sink is None else names[self.sink])

    def to_text(self) -> str:
        def key(name: str) -> tuple[int, str]:
            return (len(name), name)

        lines = [f"width {self.width}", f"states {len(self.states)}",
                 f"initial {self.initial}"]
        lines.append(("finals " + " ".join(sorted(self.finals, key=key))).rstrip())
        if self.sink is not None:
            lines.append(f"sink {self.sink}")
        for (left, right) in sorted(self.transitions, key=lambda p: (key(p[0]), key(p[1]))):
            for guard, targets in self.transitions[(left, right)]:
                for target in sorted(targets, key=key):
                    lines.append(f"trans {left} {right} {guard or '-'} -> {target}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TreeAutomaton":
        width = None
        count = None
        initial = None
        finals: list[str] = []
        sink = None
        raw: list[tuple[str, str, str, str]] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "width":
                    width = int(parts[1])
                elif parts[0] == "states":
                    count = int(parts[1])
                elif parts[0] == "initial":
                    initial = parts[1]
                elif parts[0] == "finals":
                    finals = parts[1:]
                elif parts[0] == "sink":
                    sink = parts[1]
                elif parts[0] == "trans":
                    if len(parts) != 6 or parts[4] != "->":
                        raise ValueError("malformed transition")
                    guard = "" if parts[3] == "-" else parts[3]
                    raw.append((parts[1], parts[2], guard, parts[5]))
                else:
                    raise ValueError(f"unknown directive {parts[0]!r}")
            except (IndexError, ValueError) as exc:
                raise AutomatonError(f"line {lineno}: {exc}") from None
        if width is None or initial is None:
            raise AutomatonError("missing width or initial line")
        mentioned = {initial, *finals, *(s for t in raw for s in (t[0], t[1], t[3]))}
        if sink is not None:
            mentioned.add(sink)
        if count is not None:
            if count == len(mentioned) + 1 and sink is None:
                sink = fresh_name("sink", mentioned)
                mentioned.add(sink)
            elif count != len(mentioned):
                raise AutomatonError(
                    f"states {count} does not match {len(mentioned)} mentioned states")
        transitions: dict[PairKey, list[tuple[str, str]]] = {}
        for left, right, guard, target in raw:
            transitions.setdefault((left, right), []).append((guard, target))
        deterministic = not any(_overlap(g for g, _ in pair_entries)
                                for pair_entries in transitions.values())
        if sink is not None and not deterministic:
            sink = None
        return cls(width, mentioned, initial, finals, transitions,
                   deterministic=deterministic, sink=sink)


def fresh_name(base: str, taken) -> str:
    """``base``, or ``base`` followed by the least positive number, whichever
    is first not in ``taken``."""
    name, n = base, 0
    while name in taken:
        n += 1
        name = f"{base}{n}"
    return name


def _overlap(guards) -> tuple[str, str] | None:
    """The first pair of listed guards that share a symbol, if any."""
    guards = list(guards)
    for i, g1 in enumerate(guards):
        for g2 in guards[i + 1:]:
            if not gp.disjoint(g1, g2):
                return g1, g2
    return None


def _explore(root, step, linked=None):
    """Discover every state key reachable from ``root``, bottom-up.

    A newly found key is paired with every known key in both orders (with
    itself once), and pairs are expanded first in, first out.
    ``step(left, right)`` yields the pair's ``(guard, target_key)`` entries.
    When given, ``linked(left, right)`` must hold of every pair whose step
    yields an entry, and only such pairs are queued; the pairs it drops
    would have yielded nothing, so the order and the table stay the same.
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
                    if linked is None or linked(key, order[known]):
                        queue.append((k, known))
                    if known != k and (linked is None or linked(order[known], key)):
                        queue.append((known, k))
            out.append((guard, k))
        if out:
            table[(i, j)] = out
    return order, table


def _explored_automaton(width: int, root, step, is_final, linked=None) -> TreeAutomaton:
    """The deterministic automaton ``_explore`` finds from ``root``, state
    ``i`` named ``q<i>``; ``is_final`` decides on the state keys and
    ``linked`` is passed on to ``_explore``."""
    order, table = _explore(root, step, linked)
    names = [f"q{i}" for i in range(len(order))]
    targets = [frozenset({name}) for name in names]
    transitions = {(names[i], names[j]): tuple((g, targets[k]) for g, k in sorted(entries))
                   for (i, j), entries in table.items()}
    finals = {name for name, key in zip(names, order) if is_final(key)}
    return TreeAutomaton._canonical(width, names, names[0], finals,
                                    dict(sorted(transitions.items())), True)
