"""Guards: sets of symbols over a fixed number of columns, one int each.

Automata in this package read bit-string symbols, one bit (column) per
tracked variable.  Enumerating all 2**n symbols explodes quickly, so
transitions carry *guards* instead: a guard fixes some columns to 0 or 1,
leaves the others don't-care (``*``), and matches every symbol that agrees
with it where it is fixed.  A guard without ``*`` is a single symbol.

A width-``w`` guard is an int with two bits per column, column 0 in the
highest pair: ``00`` is ``*``, ``01`` is ``0`` and ``10`` is ``1`` (``11``
never occurs).  Read base 4, it is its text with ``*``, ``0`` and ``1`` as
the digits 0, 1 and 2, so guards of one width sort exactly as their text
does, and the all-``*`` guard is 0 at every width.  Text is read by
``parse`` and written by ``text`` only.  ``LOW`` holds the low bit of each
column up to 2**16 columns, the widest alphabet supported.
"""

from __future__ import annotations

import heapq
from typing import Iterable

LOW = (1 << 2 ** 17) // 3  # 0b0101...01
_DIGITS = str.maketrans("*01", "012")
_QUADS = ["".join("*01?"[byte >> s & 3] for s in (6, 4, 2, 0)) for byte in range(256)]


def parse(guard: str | int, width: int) -> int:
    """The int guard of a width-``width`` pattern over {0, 1, *}; an int
    guard is checked and returned as it is.  ValueError if it is not one."""
    if isinstance(guard, int):
        if 0 <= guard < 1 << 2 * width and not guard & guard >> 1 & LOW:
            return guard
        raise ValueError(f"guard {guard!r} is not a guard of width {width}")
    if len(guard) != width:
        raise ValueError(f"guard {guard!r} has length {len(guard)}, expected {width}")
    if guard.strip("01*"):
        bad = sorted(set(guard) - set("01*"))
        raise ValueError(f"guard {guard!r} contains invalid characters {bad}")
    return int("0" + guard.translate(_DIGITS), 4)


def text(guard: int, width: int) -> str:
    """The guard as a pattern over {0, 1, *}; empty at width 0."""
    n = -(-width // 4)  # bytes, four columns each
    return "".join([_QUADS[byte] for byte in guard.to_bytes(n, "big")])[4 * n - width:]


def matches(guard: int, symbol: int) -> bool:
    """Does the concrete symbol (a guard without ``*``) fall into the set
    the guard denotes?"""
    return not guard & ~symbol


def meet(a: int, b: int) -> int | None:
    """Intersection of two guards, or None when they conflict at some column."""
    c = a | b
    return None if c & c >> 1 & LOW else c


def drop_position(guard: int, pos: int, width: int) -> int:
    """The guard without column ``pos``, one column narrower."""
    shift = 2 * (width - 1 - pos)
    return (guard >> shift + 2 << shift) | (guard & (1 << shift) - 1)


def constrained_positions(guards: Iterable[int]) -> int:
    """The columns some guard fixes, as the low bit of each."""
    care = 0
    for guard in guards:
        care |= guard
    return (care | care >> 1) & LOW


def expand(guard: int, columns: int) -> list[int]:
    """All guards obtained from the guard by filling its ``*`` columns
    among ``columns`` (low bits, as ``constrained_positions`` gives them)
    with every combination of bits."""
    out = [guard]
    free = columns & ~(guard | guard >> 1)
    while free:
        bit = 1 << free.bit_length() - 1
        free ^= bit
        out = [g | code for g in out for code in (bit, bit << 1)]
    return out


def subtract(cube: int, other: int) -> list[int]:
    """cube minus other, as a list of pairwise-disjoint guards."""
    if meet(cube, other) is None:
        return [cube]
    out = []
    todo = other & ~(3 * ((cube | cube >> 1) & LOW))  # other's codes where cube is *
    while todo:
        column = 3 << (todo.bit_length() - 1 & ~1)
        code = todo & column
        out.append(cube | code ^ column)
        cube |= code
        todo ^= code
    return out


def uncovered(patterns: Iterable[int]) -> list[int]:
    """Guards covering exactly the symbols matched by none of the patterns."""
    space = [0]
    for p in patterns:
        space = [piece for cube in space for piece in subtract(cube, p)]
    return sorted(space)


def covers_all(patterns: Iterable[int]) -> bool:
    return not uncovered(patterns)


def merge_patterns(patterns: Iterable[int]) -> list[int]:
    """Compact a set of pairwise-disjoint guards by cube merging.

    Duplicates collapse.  The result is sorted, pairwise disjoint and denotes
    the same symbols, because merging a cube with its one-bit flip gives
    exactly their union.  Greedy, not minimal: each step merges the least
    cube ``a`` that has a partner ``b > a`` differing in one column where
    both are concrete with its least such partner, a flip of a ``0`` of
    ``a`` to ``1``.  A heap yields the least ``a``; after a merge, the
    merged cube and those of its flip-neighbours that sort below it are
    pushed, and stale entries are skipped when popped.  The result is that
    of restarting the all-pairs scan after every merge.
    """
    pats = set(patterns)
    if len(pats) < 2:
        return sorted(pats)
    heap = sorted(pats)
    while heap:
        a = heapq.heappop(heap)
        if a not in pats:
            continue
        # A 0 column's low bit turns it into 1 when added and into * when
        # subtracted; the partner flipping the last possible column is the
        # least one.
        zeros = a & LOW
        while zeros and a + (zeros & -zeros) not in pats:
            zeros &= zeros - 1
        if not zeros:
            continue
        bit = zeros & -zeros
        pats -= {a, a + bit}
        merged = a - bit
        pats.add(merged)
        heapq.heappush(heap, merged)
        ones = merged >> 1 & LOW
        while ones:
            bit = ones & -ones
            if merged - bit in pats:
                heapq.heappush(heap, merged - bit)
            ones ^= bit
    return sorted(pats)
