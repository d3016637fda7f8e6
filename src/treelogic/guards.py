"""Guard patterns: fixed-width strings over {0, 1, *} denoting sets of symbols.

Automata in this package read bit-string symbols, one bit per tracked
variable.  Enumerating all 2**n symbols explodes quickly, so transitions
carry *guards* instead: a guard matches every concrete symbol obtained by
filling its don't-care (``*``) positions.  A guard without ``*`` denotes a
single symbol.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Iterator

GUARD_CHARS = frozenset("01*")


def check_guard(pattern: str, width: int) -> None:
    if len(pattern) != width:
        raise ValueError(f"guard {pattern!r} has length {len(pattern)}, expected {width}")
    bad = set(pattern) - GUARD_CHARS
    if bad:
        raise ValueError(f"guard {pattern!r} contains invalid characters {sorted(bad)}")


def all_star(width: int) -> str:
    return "*" * width


def matches(pattern: str, symbol: str) -> bool:
    """Does the concrete symbol fall into the set the guard denotes?"""
    if len(pattern) != len(symbol):
        return False
    return all(p == "*" or p == s for p, s in zip(pattern, symbol))


def meet(a: str, b: str) -> str | None:
    """Intersection of two guards, or None when they conflict at some position."""
    out = []
    for x, y in zip(a, b):
        if x == "*":
            out.append(y)
        elif y == "*" or x == y:
            out.append(x)
        else:
            return None
    return "".join(out)


def disjoint(a: str, b: str) -> bool:
    return meet(a, b) is None


_ONES = str.maketrans("01*", "010")
_ZEROS = str.maketrans("01*", "100")


def masks(pattern: str) -> tuple[int, int]:
    """The guard as two ints: bit ``i`` of the first is set where
    ``pattern[i]`` is ``1``, of the second where it is ``0``."""
    mirrored = pattern[::-1]
    return (int("0" + mirrored.translate(_ONES), 2),
            int("0" + mirrored.translate(_ZEROS), 2))


def drop_position(pattern: str, pos: int) -> str:
    return pattern[:pos] + pattern[pos + 1:]


def least_symbol(pattern: str) -> str:
    """The lexicographically smallest concrete symbol matching the guard."""
    return pattern.replace("*", "0")


def expand(pattern: str, positions: list[int]) -> Iterator[str]:
    """All guards obtained from the pattern by filling the given ``*``
    positions with every combination of bits."""
    base = list(pattern)
    for bits in itertools.product("01", repeat=len(positions)):
        for i, b in zip(positions, bits):
            base[i] = b
        yield "".join(base)


def constrained_positions(patterns: Iterable[str]) -> list[int]:
    positions: set[int] = set()
    for p in patterns:
        positions.update(i for i, c in enumerate(p) if c != "*")
    return sorted(positions)


def subtract(cube: str, other: str) -> list[str]:
    """cube minus other, as a list of pairwise-disjoint guards."""
    if meet(cube, other) is None:
        return [cube]
    out = []
    cur = list(cube)
    for i, (c, o) in enumerate(zip(cube, other)):
        if o == "*" or c != "*":
            continue
        piece = cur.copy()
        piece[i] = "1" if o == "0" else "0"
        out.append("".join(piece))
        cur[i] = o
    return out


def uncovered(patterns: Iterable[str], width: int) -> list[str]:
    """Guards covering exactly the symbols matched by none of the patterns."""
    space = [all_star(width)]
    for p in patterns:
        space = [piece for cube in space for piece in subtract(cube, p)]
        if not space:
            break
    return sorted(space)


def covers_all(patterns: Iterable[str], width: int) -> bool:
    return not uncovered(patterns, width)


def merge_patterns(patterns: Iterable[str]) -> list[str]:
    """Compact a set of pairwise-disjoint guards by cube merging.

    Duplicates collapse.  The result is sorted, pairwise disjoint and denotes
    the same symbols, because merging a cube with its one-bit flip gives
    exactly their union.  Greedy, not minimal: each step merges the least
    cube ``a`` (in sorted order) that has a partner ``b > a`` differing in one
    position where both are concrete with its least such partner.  The only
    partners ``b > a`` are the flips of a ``0`` of ``a`` to ``1``, so finding
    them takes one set lookup per position; a heap of candidate cubes yields
    the least ``a`` without a rescan.  After a merge, the merged cube and
    those of its flip-neighbours that sort below it are pushed, and stale
    entries are skipped when popped.  The result is that of restarting the
    all-pairs scan after every merge.
    """
    pats = set(patterns)
    if len(pats) < 2:
        return sorted(pats)

    def flip(a: str, i: int, ch: str) -> str:
        return a[:i] + ch + a[i + 1:]

    heap = sorted(pats)
    while heap:
        a = heapq.heappop(heap)
        if a not in pats:
            continue
        # The partner flipping the last possible position is the least one.
        i = next((i for i in range(len(a) - 1, -1, -1)
                  if a[i] == "0" and flip(a, i, "1") in pats), -1)
        if i < 0:
            continue
        pats -= {a, flip(a, i, "1")}
        merged = flip(a, i, "*")
        pats.add(merged)
        heapq.heappush(heap, merged)
        for j, c in enumerate(merged):
            if c == "1" and flip(merged, j, "0") in pats:
                heapq.heappush(heap, flip(merged, j, "0"))
    return sorted(pats)
