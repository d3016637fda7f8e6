"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

On a shared virtual machine the speed of a core drifts by a third or more
over stretches of ten seconds to minutes, longer than one benchmark run.  The
runner times this reference work beside every item and reports the item's
time as a multiple of it (unit ``ref``): the drift slows both alike and
cancels, while a change to treelogic moves only the item.

The work mixes what treelogic's time goes to, in three parts of about 10 ms
each on a 2-vCPU Xeon: integer arithmetic in a loop, a recursive bottom-up
run over binary trees of small objects with a dict lookup per node (as
``TreeAutomaton.accepts`` does), and building frozensets, tuples and dicts
(as product, subset construction and guard algebra do).  It does not touch
treelogic, so no change to the program moves it.
"""

from __future__ import annotations

import random
import time


class _Node:
    __slots__ = ("label", "left", "right")

    def __init__(self, label, left, right):
        self.label = label
        self.left = left
        self.right = right


def _tree(rng: random.Random, size: int):
    if size == 0:
        return None
    k = rng.randrange(size)
    return _Node(rng.choice("0123"), _tree(rng, k), _tree(rng, size - 1 - k))


_RNG = random.Random(20000)
_TREES = [_tree(_RNG, 1000) for _ in range(15)]
_TABLE = {(a, b): [(str(c), (a + b + c) % 3) for c in range(4)]
          for a in range(3) for b in range(3)}


def _arith(n: int = 70_000) -> int:
    s = 0
    for i in range(n):
        s = (s + i * i) % 1_000_003
    return s


def _run(node) -> int:
    if node is None:
        return 0
    left, right = _run(node.left), _run(node.right)
    for label, state in _TABLE[(left, right)]:
        if label == node.label:
            return state
    return 0


def _walk() -> int:
    return sum(_run(tree) for tree in _TREES)


def _sets(n: int = 1800) -> int:
    seen = set()
    for i in range(n):
        members = frozenset((i * j) % 97 for j in range(8))
        seen.add(members)
        pairs = {m: (m, i) for m in members}
        seen.add(tuple(sorted(pairs)))
    return len(seen)


def reference_s() -> float:
    """Seconds the reference work takes now."""
    start = time.perf_counter()
    _arith()
    _walk()
    _sets()
    return time.perf_counter() - start
