"""Deterministic and nondeterministic bottom-up tree automata.

An automaton assigns states to finite binary trees leaf-to-root: the empty
tree gets the initial state, and a node's state is looked up from the pair of
child states and the node label.  A tree is accepted when its root state is
final.  Labels are fixed-width bit strings; transitions are guarded by
patterns over {0, 1, *}, each one int (see ``guards``).  Text guards are
read by the public constructor (so ``from_text``) and printed by ``to_text``
and error messages; runs parse tree labels and ``witness`` makes them.

Conventions:

* In deterministic mode the guards attached to one (left, right) state pair
  are pairwise disjoint.  Symbols not covered by any listed transition go to
  an implicit dead state, so deterministic automata are always total.  The
  ``sink`` attribute optionally designates that dead state; a designated
  sink is never final and absorbs from both child positions.  Where the
  dead state has to be a state and none is designated, it is state ``n``.
* Automata are immutable after construction.  Every operation returns a
  fresh automaton, so values can be shared freely across threads.  Three
  memo fields change: ``_steps``, a nested memo ``_steps[left][right][label]``
  of the transition function that runs fill the first time they meet a
  step, each level with one atomic ``setdefault`` or store; ``_reached``,
  the reached states, and ``_renumbered``, whose result is its own, each
  one store.  A memo entry never changes once written, and two threads
  that fill the same one store equal values, so sharing stays safe.
* Two bottom-up loops stay, because they answer different questions.
  ``_explore`` discovers new states: the constructions (product, subset
  construction) and ``renumbered`` compute each pair's entries on the fly,
  and the discovery order numbers the states; it skips a pair whose step
  reads no row.  ``reachable_states_detailed`` only reads a table that
  already exists, so it visits the listed pairs alone.  ``is_empty`` and
  ``minimize`` read ``reachable_states``: it runs at most once, and never
  after the product, subset construction, ``minimize`` or ``remap``.
* An operation does the work it would repeat once, in memos that do not
  outlive the call: ``_explore`` steps each distinct read once, and
  ``minimize`` sums symbol counts and merges a quotient row once per row,
  and builds diagrams, a shape once per guard list, only for the states
  symbol counts leave in blocks of two or more.
* Runs (``run``, ``run_set``, ``accepts``) have two walks.  ``_lookup``
  only reads the memo, one recursive call per node, so warm runs pay
  nothing else; a miss, a bad label, the empty tree or a tree deeper than
  the recursion limit goes to ``_fold``, which fills the memo from the
  root, names the first bad label and, with an explicit stack below its
  top ``_RECURSION_BUDGET`` levels, takes trees of any depth.
* States are ``0..n-1`` (``states`` is ``range(n)``), meaningless across
  automata (compare languages with ``equivalent``).  A deterministic
  entry's target is an int, a nondeterministic one's a frozenset of them.
  Names exist only at the text boundary: the public constructor (so
  ``from_text``) validates with the names it is given, then numbers the
  states and keeps the names for ``to_text``, which prints an unnamed
  state ``i`` as ``q<i>``; no operation passes names on.  Constructions
  number states by discovery index; ``renumbered`` numbers reachable
  deterministic automata canonically.
* The constructions build their tables in canonical form and hand them to
  ``_canonical``, which neither normalizes nor validates.  The public
  constructor, called only by ``from_text`` and the compiler's relation
  memo, does both.  ``project`` and the compiler's closure ``_normalize``
  first: dropping a column or copying entries can make guards collide.

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
from typing import Callable

from . import guards as gp
from .trees import Node, Tree, tree_sort_key, validate_tree

PairKey = tuple[int, int]
Entry = tuple[int, "int | frozenset[int]"]

# The filling walk values this many top levels of a tree by recursion and
# the subtrees below them with an explicit stack (see ``TreeAutomaton._fold``).
_RECURSION_BUDGET = 64
_MISSES = (KeyError, RecursionError, AttributeError)  # see _lookup


class AutomatonError(ValueError):
    pass


def _normalize(transitions) -> dict[PairKey, tuple[Entry, ...]]:
    """Accepts {pair: {guard: target-or-targets}} or {pair: iterable of
    (guard, target-or-targets)}, the guards of a pair all text or all
    ints; returns the canonical sorted form, guards as given.  Its callers
    are the public constructor, ``project`` and the compiler's closure."""
    norm: dict[tuple, dict[str | int, set]] = {}
    for pair, entries in transitions.items():
        items = entries.items() if isinstance(entries, dict) else entries
        bucket = norm.setdefault(pair, {})
        for guard, target in items:
            targets = {target} if isinstance(target, (str, int)) else set(target)
            bucket.setdefault(guard, set()).update(targets)
    return {
        pair: tuple((g, frozenset(ts)) for g, ts in sorted(bucket.items()))
        for pair, bucket in sorted(norm.items())
    }


class TreeAutomaton:
    __slots__ = ("width", "states", "initial", "finals", "transitions",
                 "deterministic", "sink", "names", "_steps", "_reached", "_renumbered")

    def __init__(self, width, states, initial, finals, transitions,
                 deterministic=True, sink=None, validate=True):
        """Validates with the given state names, then numbers the states in
        ``to_text``'s order and keeps the names; ``range(n)`` has none."""
        self._assign(int(width), frozenset(states), initial, frozenset(finals),
                     _normalize(transitions), bool(deterministic), sink, None)
        if validate:
            self._validate()
        names = None if isinstance(states, range) else tuple(
            sorted(self.states, key=lambda s: (len(str(s)), str(s))))
        number = {s: i for i, s in enumerate(names or states)}.__getitem__
        table = {(number(left), number(right)): tuple(  # text guards become ints
            (gp.parse(g, self.width), number(next(iter(ts))) if self.deterministic
             else frozenset(map(number, ts))) for g, ts in entries)
            for (left, right), entries in self.transitions.items()}
        self._assign(self.width, range(len(self.states)), number(initial),
                     frozenset(map(number, self.finals)), dict(sorted(table.items())),
                     self.deterministic, None if sink is None else number(sink), names)

    @classmethod
    def _canonical(cls, width, n, initial, finals, transitions,
                   deterministic, sink=None) -> "TreeAutomaton":
        """The automaton of these fields over the states ``0..n-1``, without
        names, trusted: neither normalized nor validated.  ``transitions``
        must already be canonical, its pairs in sorted order and each value
        a tuple of entries with strictly increasing guards."""
        aut = cls.__new__(cls)
        aut._assign(width, range(n), initial, frozenset(finals), transitions,
                    deterministic, sink, None)
        return aut

    def _assign(self, width, states, initial, finals, transitions, deterministic, sink, names):
        """Set all eleven slots; the three memos start empty."""
        self.width = width
        self.states = states
        self.initial = initial
        self.finals = finals
        self.transitions = transitions
        self.deterministic = deterministic
        self.sink = sink
        self.names = names
        self._steps: dict = {}  # _steps[left][right][label], see _fold
        self._reached: frozenset[int] | None = None  # see reachable_states
        self._renumbered: TreeAutomaton | None = None  # see renumbered

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
                gp.parse(guard, self.width)
                if not targets <= self.states:
                    raise AutomatonError(f"transition to unknown state(s) {set(targets)}")
                if self.deterministic and len(targets) != 1:
                    raise AutomatonError("deterministic automaton with multi-target entry")
            if self.deterministic:
                clash = _overlap(entries, self.width)
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
        return TreeAutomaton._canonical(
            width, 1, 0, {0}, {(0, 0): ((0, 0),)}, True)  # guard 0 is all-*

    @staticmethod
    def empty_language(width: int) -> "TreeAutomaton":
        """The canonical automaton of the empty language."""
        return TreeAutomaton._canonical(width, 1, 0, (), {}, True, 0)

    # ------------------------------------------------------------------
    # runs and membership

    def run(self, tree: Tree) -> int | None:
        """The number of the state reached on the tree (deterministic mode):
        the sink, or None when the dead state is implicit.  Runs recurse in
        ``_lookup`` and go to ``_fold`` on a miss or at the recursion limit."""
        if not self.deterministic:
            raise AutomatonError("run() requires a deterministic automaton")
        try:
            return _lookup(tree, self._steps, self.initial)
        except _MISSES:
            return self._fold(tree, self.initial, self._fill_state)

    def run_set(self, tree: Tree) -> frozenset[int]:
        """All states reachable on the tree (nondeterministic reading)."""
        try:
            return _lookup(tree, self._steps, frozenset({self.initial}))
        except _MISSES:
            return self._fold(tree, frozenset({self.initial}), self._fill_states)

    def accepts(self, tree: Tree) -> bool:
        if not self.deterministic:
            return bool(self.run_set(tree) & self.finals)
        try:
            return _lookup(tree, self._steps, self.initial) in self.finals
        except _MISSES:
            return self._fold(tree, self.initial, self._fill_state) in self.finals

    def _fold(self, tree: Tree, leaf, fill):
        """The tree's value when ``_lookup`` misses, filling the memo from the
        root: ``fill`` computes a step the first time it is met and is handed
        the whole tree, so a bad label is named as the first in preorder.
        ``run`` keys the memo by states and ``run_set`` by state sets, so the
        two never collide.  The top ``_RECURSION_BUDGET`` levels recurse
        (``_fold_levels``); each subtree below them goes to ``_fold_stack``."""
        if tree is None:
            return leaf
        return _fold_levels(tree, _RECURSION_BUDGET, self._steps, leaf, fill, tree)

    def _fill_state(self, left, right, label: str, tree: Tree) -> int | None:
        self._check_label(label, tree)
        target = self.sink
        entries = self.transitions.get((left, right))  # None if unlisted or a child is dead
        if entries:
            symbol = gp.parse(label, self.width)
            for guard, state in entries:
                if gp.matches(guard, symbol):
                    target = state
                    break
        self._steps.setdefault(left, {}).setdefault(right, {})[label] = target
        return target

    def _fill_states(self, lefts, rights, label: str, tree: Tree) -> frozenset[int]:
        self._check_label(label, tree)
        rows = [row for left in lefts for right in rights
                if (row := self.transitions.get((left, right)))]
        symbol = gp.parse(label, self.width) if rows else None
        self._steps.setdefault(lefts, {}).setdefault(rights, {})[label] = targets = frozenset(
            t for row in rows for guard, ts in row if gp.matches(guard, symbol)
            for t in _targets(ts))
        return targets

    def _check_label(self, label: str, tree: Tree) -> None:
        """A label of another width or with a character other than 0/1
        makes the whole-tree check raise, so the error and its message are
        those of the first bad label in preorder.  The label is parsed only
        where a guard is read."""
        if len(label) != self.width or label.strip("01"):
            width = validate_tree(tree)
            if width is not None and width != self.width:
                raise AutomatonError(
                    f"tree labels have width {width}, automaton has width {self.width}")

    # ------------------------------------------------------------------
    # reachability and emptiness

    def reachable_states(self) -> frozenset[int]:
        """The reached states, computed at most once (module docstring)."""
        if self._reached is None:
            self._reached, _ = self.reachable_states_detailed()
        return self._reached

    def reachable_states_detailed(self) -> tuple[frozenset[int], int]:
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
        by_child: dict[int, list[PairKey]] = {}
        for pair in self.transitions:
            for child in set(pair):
                by_child.setdefault(child, []).append(pair)
        height = {self.initial: 0}
        queue = deque([self.initial])
        settled: set[int] = set()

        def reach(target: int, at: int) -> None:
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
                    for target in _targets(targets):
                        reach(target, up)
                if sink_pending and gp.covers_all([g for g, _ in entries]):
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
        whole symbol space, and pairs that list one row, or none, share one
        total row.  Deterministic automata only."""
        if not self.deterministic:
            raise AutomatonError("cannot materialize the sink of a nondeterministic automaton")
        n = len(self.states) + (self.sink is None)
        sink = n - 1 if self.sink is None else self.sink
        transitions: dict[PairKey, tuple[Entry, ...]] = {}
        total: dict[int, tuple[Entry, ...]] = {}  # by the listed row's identity
        for pair in itertools.product(range(n), repeat=2):
            listed = self.transitions.get(pair, ())
            if (row := total.get(id(listed))) is None:
                row = total[id(listed)] = tuple(sorted([*listed, *(
                    (cube, sink) for cube in gp.uncovered([g for g, _ in listed]))]))
            transitions[pair] = row
        return TreeAutomaton._canonical(self.width, n, self.initial,
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
        holds on two).  A pair's read is its two rows, empty unless both
        operands list them, and two rows are met once."""
        if self.width != other.width:
            raise AutomatonError(
                f"width mismatch: {self.width} vs {other.width}")
        a = self if self.deterministic else self.determinize()
        b = other if other.deterministic else other.determinize()
        if accept(True, False) or accept(False, True) or accept(False, False):
            a = a.with_materialized_sink()
            b = b.with_materialized_sink()

        def rows(left: PairKey, right: PairKey):
            return ((row_a := a.transitions.get((left[0], right[0])))
                    and (row_b := b.transitions.get((left[1], right[1])))
                    and (row_a, row_b))

        def step(read) -> list[tuple[int, PairKey]]:
            return [(m, (t1, t2)) for g1, t1 in read[0] for g2, t2 in read[1]
                    if (m := gp.meet(g1, g2)) is not None]

        return _explored_automaton(
            self.width, (a.initial, b.initial), rows, step,
            lambda pair: accept(pair[0] in a.finals, pair[1] in b.finals))

    def complement(self) -> "TreeAutomaton":
        if not self.deterministic:
            raise AutomatonError("complement requires a deterministic automaton")
        total = self.with_materialized_sink()
        return TreeAutomaton._canonical(total.width, len(total.states), total.initial,
                                        frozenset(total.states) - total.finals,
                                        total.transitions, True)

    # ------------------------------------------------------------------
    # determinization

    def determinize(self) -> "TreeAutomaton":
        """Subset construction restricted to reachable state sets.

        The output is deterministic and total (missing entries fall to the
        implicit dead state, which corresponds to the empty subset).  A pair
        of subsets reads the set of rows its members list, so pairs that
        list none are skipped and each distinct set is stepped once.
        """
        def rows(left: frozenset[int], right: frozenset[int]) -> frozenset:
            return frozenset(row for p in left for q in right
                             if (row := self.transitions.get((p, q))))

        def step(read: frozenset) -> list[Entry]:
            collected = [entry for row in read for entry in row]
            columns = gp.constrained_positions(g for g, _ in collected)
            # Minterm cubes: concrete exactly at the constrained columns, so
            # every collected guard is the union of those it expands to.
            minterms: dict[int, set[int]] = {}
            for g, ts in collected:
                for cube in gp.expand(g, columns):
                    minterms.setdefault(cube, set()).update(_targets(ts))
            by_target: dict[frozenset[int], list[int]] = {}
            for cube, targets in minterms.items():
                if targets:
                    by_target.setdefault(frozenset(targets), []).append(cube)
            return [(pattern, subset) for subset in sorted(by_target, key=sorted)
                    for pattern in gp.merge_patterns(by_target[subset])]

        return _explored_automaton(self.width, frozenset({self.initial}), rows, step,
                                   lambda subset: bool(subset & self.finals))

    # ------------------------------------------------------------------
    # projection and cylindrification

    def project(self, pos: int) -> "TreeAutomaton":
        """Erase one bit position from the alphabet; the result is marked
        nondeterministic since transitions differing only at ``pos`` merge."""
        if not 0 <= pos < self.width:
            raise AutomatonError(f"position {pos} out of range for width {self.width}")
        transitions = {
            pair: [(gp.drop_position(g, pos, self.width), ts) for g, ts in pair_entries]
            for pair, pair_entries in self.transitions.items()
        }
        return TreeAutomaton._canonical(self.width - 1, len(self.states), self.initial,
                                        self.finals, _normalize(transitions), False)

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
        # Columns that move by the same number of bits move as one mask.
        moves: dict[int, int] = {}
        for i, pos in enumerate(positions):
            shift = 2 * (width - self.width - pos + i)
            moves[shift] = moves.get(shift, 0) | 3 << 2 * (self.width - 1 - i)
        transitions = {
            pair: tuple((sum((g & mask) << shift for shift, mask in moves.items()), ts)
                        for g, ts in pair_entries)
            for pair, pair_entries in self.transitions.items()
        }
        out = TreeAutomaton._canonical(width, len(self.states), self.initial,
                                       self.finals, transitions,
                                       self.deterministic, self.sink)
        out._reached = self._reached  # the same states and pairs
        return out

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

        The implicit dead state (``sink``, or else state ``n``) takes part
        even when unreached, so its block is the dead class; a reached pair
        reaches it when unlisted or when its guards, 2**(free columns)
        symbols each, add up to fewer than 2**width.  Refinement starts from
        finals against non-finals.  Each round signs the states of blocks of
        two or more by their rows and columns: (partner, tag of the pair's
        row) for each listed pair of reached states, where a row is an entry
        tuple that pairs share by identity, and a tag that reads only the
        dead class is left out.  It stops when no such block is left or a
        round splits none.  Stage one tags a row with its symbol count per
        block, summed from per-target sizes made once per row: a function
        of the row's symbol->block map, so it never splits equivalent
        states.  Stage two runs only if a block still holds two states, and
        tags a row with that map itself: its reduced ordered decision
        diagram over bit positions, nodes shared across rows (as in MONA),
        leaves relabelled by block and reduced again.  Only the rows of
        pairs that touch such a state get a diagram, and each distinct guard
        list a shape (``_shape``), once.  Blocks are then renumbered by
        first member in state order: block ``b`` is the quotient's state
        ``b``, its row its first member's, each shared row merged once.
        """
        if not self.deterministic:
            raise AutomatonError("minimize requires a deterministic automaton")
        n = len(self.states)
        dead = n if self.sink is None else self.sink
        reached = self.reachable_states()
        listed = [(pair, entries) for pair, entries in self.transitions.items()
                  if pair[0] in reached and pair[1] in reached]
        # A state's row and column: (partner, row) for each listed pair of
        # reached states, in partner order (``transitions`` is sorted).  Pairs
        # share a row (entry tuple) by identity, and rows go by their ids.
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        cols: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        distinct: dict[int, tuple[Entry, ...]] = {}
        for (left, right), pair_entries in listed:
            distinct[id(pair_entries)] = pair_entries
            rows[left].append((right, id(pair_entries)))
            cols[right].append((left, id(pair_entries)))
        # Each row's symbols per target, 2**(free columns) per guard.
        sizes: dict[int, dict[int, int]] = {}
        for r, entries in distinct.items():
            size = sizes[r] = {}
            for g, t in entries:
                size[t] = size.get(t, 0) + (1 << self.width - g.bit_count())
        # The dead state always takes part, after the reachable states when
        # unreached, so every state equivalent to it lands in its block; an
        # unreached one has no rows.
        dead_reached = dead in reached or len(listed) < len(reached) ** 2 or any(
            sum(size.values()) < 1 << self.width for size in sizes.values())
        states = sorted(reached | {dead}) if dead_reached else [*sorted(reached), dead]
        block = [0] * (n + 1)  # by state; only ``states`` are read
        live: list[list[int]] = [[], []]  # members of blocks that may split
        for s in states:
            block[s] = int(s in self.finals)
            live[block[s]].append(s)
        count = 2

        def refine(round_tags) -> None:
            """Split blocks by signature (see above) until none holds two
            states or a round splits none; ``round_tags()`` makes each
            round's tags by row, falsy for the dead class alone.  Split
            blocks take fresh numbers."""
            nonlocal count, live
            while live := [members for members in live if len(members) > 1]:
                tag = round_tags()
                groups: dict[tuple, list[int]] = {}
                for members in live:
                    for s in members:
                        groups.setdefault((block[s],
                                           tuple((t, x) for t, r in rows[s] if (x := tag[r])),
                                           tuple((t, x) for t, r in cols[s] if (x := tag[r]))),
                                          []).append(s)
                if len(groups) == len(live):
                    return
                live = list(groups.values())
                for number, members in enumerate(live, count):
                    for s in members:
                        block[s] = number
                count += len(live)

        def counts() -> dict[int, frozenset]:
            # A row's symbol count per block, the dead block's left out: a
            # function of its symbol->block map, so equals never split.
            void = block[dead]
            tags = {}
            for r, size in sizes.items():
                per: dict[int, int] = {}
                for t, k in size.items():
                    if (b := block[t]) != void:
                        per[b] = per.get(b, 0) + k
                tags[r] = frozenset(per.items())
            return tags

        refine(counts)
        # Diagram nodes are (target,) leaves or (pos, lo, hi) splits,
        # hash-consed to their ids in ``ids``, each listed after its children.
        dead_leaf = 0
        ids: dict[tuple, int] = {(dead,): dead_leaf}
        # A shape per distinct guard list and a diagram per row, each built
        # once, and only for pairs that touch a state the counts left unsplit.
        diagrams: dict[int, int] = {}  # by row
        shapes: dict[tuple[int, ...], list[tuple]] = {}
        for s in itertools.chain.from_iterable(live):
            for _, r in itertools.chain(rows[s], cols[s]):
                if r in diagrams:
                    continue
                guards = tuple(g for g, _ in distinct[r])
                if guards not in shapes:
                    shapes[guards] = _shape(guards, self.width)
                # Shape leaf i becomes entry i's target, leaf -1 the dead leaf.
                leaves = [ids.setdefault((t,), len(ids)) for _, t in distinct[r]]
                leaves.append(dead_leaf)
                out: list[int] = []
                for key in shapes[guards]:
                    if len(key) == 1:
                        out.append(leaves[key[0]])
                    else:
                        lo, hi = out[key[1]], out[key[2]]
                        out.append(lo if lo == hi else ids.setdefault((key[0], lo, hi), len(ids)))
                diagrams[r] = out[-1]

        def relabelled() -> dict[int, int]:
            # A row's diagram with the leaves relabelled by block and reduced
            # again; the dead leaf comes first, so its label is 0.
            label: list[int] = []
            interned: dict[tuple, int] = {}
            for key in ids:
                if len(key) == 1:
                    key = (block[key[0]],)
                elif label[key[1]] == label[key[2]]:
                    label.append(label[key[1]])
                    continue
                else:
                    key = (key[0], label[key[1]], label[key[2]])
                label.append(interned.setdefault(key, len(interned)))
            return {r: label[d] for r, d in diagrams.items()}

        refine(relabelled)
        # Blocks are renumbered by first member in ``states`` order, so block
        # ``b`` is the quotient's state ``b`` and its first member ``rep[b]``.
        number: dict[int, int] = {}
        rep: list[int] = []
        for s in states:
            b = block[s] = number.setdefault(block[s], len(number))
            if b == len(rep):
                rep.append(s)
        count = len(rep)
        # The dead class is the sink; transitions into it are stripped.  An
        # unreached dead state alone in its block is dropped; blocks are
        # numbered in ``states`` order, so that block is the last.
        sink: int | None = block[dead]
        if not dead_reached and [block[s] for s in states].count(sink) == 1:
            count, sink = sink, None

        # Blocks' rows are their representatives'; a shared row merges once.
        quotient: dict[PairKey, tuple[Entry, ...]] = {}
        merged_rows: dict[int, tuple[Entry, ...]] = {}  # by the row's id
        for (left, right), pair_entries in listed:
            bl, br = block[left], block[right]
            if sink in (bl, br) or rep[bl] != left or rep[br] != right:
                continue
            row = merged_rows.get(id(pair_entries))
            if row is None:
                merged: dict[int, list[int]] = {}
                for guard, target in pair_entries:
                    b = block[target]
                    if b != sink:
                        merged.setdefault(b, []).append(guard)
                row = merged_rows[id(pair_entries)] = tuple(sorted(
                    (pattern, b) for b, pats in merged.items()
                    for pattern in (pats if len(pats) == 1 else gp.merge_patterns(pats))))
            if row:
                quotient[bl, br] = row

        minimal = TreeAutomaton._canonical(
            self.width, count, block[self.initial],
            {block[s] for s in states if s in self.finals},
            dict(sorted(quotient.items())), True, sink)
        minimal._reached = frozenset(minimal.states)  # each block holds a reached state
        return minimal

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
        has to order two ``Node``s.  Each reached state keeps its tree's key
        beside the tree, and a candidate's key is built from its children's.
        """
        best: dict[int, tuple] = {}  # state: (its tree's key, its tree)
        labels: dict[int, str] = {}  # guard: its label, made once
        heap = [(tree_sort_key(None), self.initial, None)]
        while heap:
            key, state, tree = heapq.heappop(heap)
            if state in best:
                continue
            if state in self.finals:
                return tree
            best[state] = key, tree
            for other in best:
                for left, right in {(state, other), (other, state)}:
                    if not (row := self.transitions.get((left, right))):
                        continue
                    (count_l, labels_l, shape_l), tree_l = best[left]
                    (count_r, labels_r, shape_r), tree_r = best[right]
                    for guard, targets in row:
                        fresh = [t for t in _targets(targets) if t not in best]
                        if not fresh:
                            continue
                        label = labels.get(guard)
                        if label is None:
                            label = labels[guard] = gp.text(guard, self.width).replace("*", "0")
                        # tree_sort_key(node), from the children's keys
                        key = (1 + count_l + count_r, (label,) + labels_l + labels_r,
                               "(" + shape_l + shape_r + ")")
                        node = Node(label, tree_l, tree_r)
                        for target in fresh:
                            heapq.heappush(heap, (key, target, node))
        return None

    # ------------------------------------------------------------------
    # canonical renaming and the text format

    def renumbered(self) -> "TreeAutomaton":
        """Renumber the states in a discovery order, without names.  The
        order is canonical, independent of the current numbering, only for
        reachable deterministic automata: a nondeterministic entry's targets
        are discovered, and the states no listed entry reaches appended, in
        their current order.  A pair reads its entries, so only listed
        pairs are explored.  The result is kept, and is its own."""
        if self._renumbered is not None:
            return self._renumbered
        order, _ = _explore(
            self.initial, lambda left, right: self.transitions.get((left, right)),
            lambda entries: [(g, t) for g, ts in entries for t in sorted(_targets(ts))])
        # then the states not found in their order, the sink last
        order += sorted(set(self.states) - set(order), key=lambda s: (s == self.sink, s))
        new = {s: i for i, s in enumerate(order)}
        target = new.__getitem__ if self.deterministic else (
            lambda ts: frozenset(map(new.__getitem__, ts)))
        transitions = sorted(((new[left], new[right]), tuple((g, target(ts)) for g, ts in entries))
                             for (left, right), entries in self.transitions.items())
        out = self._renumbered = TreeAutomaton._canonical(
            self.width, len(order), new[self.initial], map(new.__getitem__, self.finals),
            dict(transitions), self.deterministic,
            None if self.sink is None else new[self.sink])
        out._renumbered = out
        if self._reached is not None:  # the same states, renamed
            out._reached = frozenset(map(new.__getitem__, self._reached))
        return out

    def to_text(self) -> str:
        """The text format, states by their names or else as ``q<i>``."""
        names = self.names or [f"q{i}" for i in self.states]
        lines = [f"width {self.width}", f"states {len(self.states)}",
                 f"initial {names[self.initial]}"]
        lines.append(" ".join(["finals", *(names[f] for f in sorted(self.finals))]))
        if self.sink is not None:
            lines.append(f"sink {names[self.sink]}")
        for (left, right), entries in sorted(self.transitions.items()):
            for guard, targets in entries:
                for target in sorted(_targets(targets)):
                    lines.append(f"trans {names[left]} {names[right]} "
                                 f"{gp.text(guard, self.width) or '-'} -> {names[target]}")
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
        # A malformed guard that determinism depends on (one of two or more
        # on a pair) is reported first; a negative width is left to __init__.
        deterministic = width >= 0 and not any(
            len(pair_entries) > 1 and _overlap(sorted(pair_entries), width)
            for _, pair_entries in sorted(transitions.items()))
        if sink is not None and not deterministic:
            sink = None
        return cls(width, mentioned, initial, finals, transitions,
                   deterministic=deterministic, sink=sink)


def _targets(target) -> "tuple[int] | frozenset[int]":
    """An entry's targets: its one int in deterministic mode, else its set."""
    return (target,) if isinstance(target, int) else target


def fresh_name(base: str, taken) -> str:
    """``base``, or ``base`` followed by the least positive number, whichever
    is first not in ``taken``."""
    name, n = base, 0
    while name in taken:
        n += 1
        name = f"{base}{n}"
    return name


def _lookup(node: Node, steps: dict, leaf):
    """The value of ``node`` from the memo ``steps[left][right][label]``
    alone.  A step not in it (a bad label never is), a tree deeper than the
    recursion limit or the empty tree raises one of ``_MISSES``."""
    left = leaf if node.left is None else _lookup(node.left, steps, leaf)
    right = leaf if node.right is None else _lookup(node.right, steps, leaf)
    return steps[left][right][node.label]


def _fold_levels(node: Node, budget: int, steps: dict, leaf, fill, tree: Node):
    """``TreeAutomaton._fold``'s value of ``node``, a subtree of ``tree``,
    by recursion over its top ``budget`` levels.  A module function, not a
    closure: a closure that calls itself is a reference cycle, left to the
    garbage collector on every run."""
    if not budget:
        return _fold_stack(node, steps, leaf, fill, tree)
    budget -= 1
    left = leaf if node.left is None else _fold_levels(node.left, budget, steps, leaf, fill, tree)
    right = leaf if node.right is None else _fold_levels(node.right, budget, steps, leaf, fill, tree)
    try:
        return steps[left][right][node.label]
    except KeyError:
        return fill(left, right, node.label, tree)


def _fold_stack(subtree: Node, steps: dict, leaf, fill, tree: Node):
    """``TreeAutomaton._fold``'s value of ``subtree``, a subtree of
    ``tree``, without recursion.  Nodes are listed breadth-first, so read
    in reverse each comes after its children, and the children's values
    are taken first in, first out: a node's right child's value, then its
    left child's."""
    nodes = [subtree]
    for node in nodes:  # the list grows while it is read
        if node.left is not None:
            nodes.append(node.left)
        if node.right is not None:
            nodes.append(node.right)
    values: list = []
    push, take = values.append, iter(values).__next__
    for node in reversed(nodes):
        right = leaf if node.right is None else take()
        left = leaf if node.left is None else take()
        try:
            push(steps[left][right][node.label])
        except KeyError:
            push(fill(left, right, node.label, tree))
    return values[-1]


def _overlap(entries, width: int) -> tuple[str, str] | None:
    """The first pair of guards listed in the entries, text or ints, that
    share a symbol, as text, if any.  ValueError if a guard does not parse."""
    guards = [gp.parse(g, width) for g, _ in entries]
    for i, g1 in enumerate(guards):
        for g2 in guards[i + 1:]:
            if gp.meet(g1, g2) is not None:
                return gp.text(g1, width), gp.text(g2, width)
    return None


def _shape(guards: tuple[int, ...], width: int) -> list[tuple]:
    """The reduced ordered decision diagram over bit positions of a row
    with these guards, its leaves entry indices: ``(i,)`` where guard ``i``
    is the first to match, ``(-1,)`` where none does, and ``(pos, lo, hi)``
    splits on position ``pos`` over earlier nodes' list indices.  Nodes are
    hash-consed and each is listed after its children, so the root is last.
    Sets of guards are bitmasks over their indices."""
    fixed, ones = [0] * width, [0] * width  # the guards fixing each column, to 1
    for i, g in enumerate(guards):
        while g:  # a fixed column's code has one bit, the high one for 1
            top = g.bit_length() - 1
            fixed[width - 1 - top // 2] |= 1 << i
            ones[width - 1 - top // 2] |= (top & 1) << i
            g ^= 1 << top
    ids: dict[tuple, int] = {}
    memo: dict[tuple[int, int], int] = {}

    def build(pos: int, live: int) -> int:
        # Skip to the next column some live guard fixes; before it, both
        # branches agree.
        while pos < width and not fixed[pos] & live:
            pos += 1
        if pos == width:
            return ids.setdefault(((live & -live).bit_length() - 1,), len(ids))
        if (pos, live) not in memo:
            lo = build(pos + 1, live & ~ones[pos])  # drop those fixed to 1
            hi = build(pos + 1, live & ~(fixed[pos] ^ ones[pos]))  # to 0
            memo[pos, live] = lo if lo == hi else ids.setdefault((pos, lo, hi), len(ids))
        return memo[pos, live]

    build(0, (1 << len(guards)) - 1)
    return list(ids)


def _explore(root, rows, step):
    """Discover every state key reachable from ``root``, bottom-up.

    A newly found key is paired with every known key in both orders (with
    itself once), and pairs are expanded first in, first out.
    ``rows(left, right)`` is what the pair's step reads, hashable and falsy
    when the step would yield nothing; such a pair is never queued.
    ``step(read)`` yields the ``(guard, target_key)`` entries, once per
    distinct read.  Returns the keys in discovery order and the entries
    keyed by index pairs, with targets as indices.
    """
    order = [root]
    index = {root: 0}
    read = rows(root, root)
    queue: deque[tuple[int, int, object]] = deque([(0, 0, read)] if read else ())
    table: dict[tuple[int, int], list[tuple[int, int]]] = {}
    stepped: dict[object, list[tuple[int, int]]] = {}
    while queue:
        i, j, read = queue.popleft()
        out = stepped.get(read)
        if out is None:
            out = stepped[read] = []
            for guard, key in step(read):
                k = index.get(key)
                if k is None:
                    k = index[key] = len(order)
                    order.append(key)
                    for known in range(k + 1):
                        if pair_read := rows(key, order[known]):
                            queue.append((k, known, pair_read))
                        if known != k and (pair_read := rows(order[known], key)):
                            queue.append((known, k, pair_read))
                out.append((guard, k))
        if out:
            table[(i, j)] = out
    return order, table


def _explored_automaton(width: int, root, rows, step, is_final) -> TreeAutomaton:
    """The deterministic automaton ``_explore`` finds from ``root``, its
    states the discovery indices; ``is_final`` decides on the state keys.
    Pairs that read alike share one entry tuple."""
    order, table = _explore(root, rows, step)
    shared = {id(entries): entries for entries in table.values()}  # _explore: one list per read
    built = {i: tuple(sorted(entries)) for i, entries in shared.items()}
    aut = TreeAutomaton._canonical(
        width, len(order), 0, [i for i, key in enumerate(order) if is_final(key)],
        {pair: built[id(entries)] for pair, entries in sorted(table.items())}, True)
    aut._reached = frozenset(aut.states)  # each was found from the root
    return aut
