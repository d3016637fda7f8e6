import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle as ref
from treelogic import guards as gp

from oracle import greedy_merge_patterns, random_guard

patterns = st.text(alphabet="01*", min_size=3, max_size=3)
symbols = st.text(alphabet="01", min_size=3, max_size=3)


def g(pattern: str) -> int:
    """The int guard of a text guard, at its own length."""
    return gp.parse(pattern, len(pattern))


def test_matches_basic():
    assert gp.matches(g("1*0"), g("110"))
    assert gp.matches(g("1*0"), g("100"))
    assert not gp.matches(g("1*0"), g("101"))
    # a symbol of another width never reaches a guard: parsing rejects it
    with pytest.raises(ValueError):
        gp.parse("101", 2)


def test_meet_and_disjoint():
    assert gp.meet(g("1*"), g("*0")) == g("10")
    assert gp.meet(g("1*"), g("0*")) is None
    assert gp.meet(g("11"), g("10")) is None
    assert gp.meet(g("1*"), g("*1")) is not None


def test_positions():
    assert gp.drop_position(g("1*0"), 1, 3) == g("10")
    # the low bit of each fixed column, which is the code of 0
    assert gp.constrained_positions([g("*1*"), g("0**")]) == g("00*")


def test_subtract_and_uncovered():
    assert sorted(gp.subtract(g("**"), g("00"))) == [g("01"), g("1*")]
    assert gp.subtract(g("1*"), g("0*")) == [g("1*")]
    assert gp.uncovered([g("00"), g("01"), g("1*")]) == []
    assert gp.uncovered([g("0*")]) == [g("1*")]
    assert gp.covers_all([g("*")])
    assert not gp.covers_all([])
    assert gp.covers_all([g("")])


def test_merge_patterns():
    def merged(*pats):
        return [gp.text(m, len(pats[0])) for m in gp.merge_patterns(map(g, pats))]

    assert merged("00", "01") == ["0*"]
    assert merged("00", "01", "10", "11") == ["**"]
    assert merged("01", "10") == ["01", "10"]
    assert merged("01", "01", "00") == ["0*"]
    assert merged("0*", "10", "11") == ["**"]
    assert merged("1*0", "000", "001") == ["00*", "1*0"]
    assert merged("*1", "10") == ["*1", "10"]


def _random_merge_input(rng: random.Random, width: int) -> list[str]:
    if rng.random() < 0.5:
        # concrete symbols only, as subset construction passes them
        return ["".join(rng.choice("01") for _ in range(width))
                for _ in range(rng.randint(0, 40))]
    # disjoint cubes, as minimize passes them: some of the pieces that
    # random guards leave uncovered
    pieces = ref.uncovered([random_guard(rng, width)
                            for _ in range(rng.randint(0, 6))], width)
    return rng.sample(pieces, rng.randint(0, len(pieces)))


def _merged(pats: list[str], width: int) -> list[str]:
    return [gp.text(m, width)
            for m in gp.merge_patterns(gp.parse(p, width) for p in pats)]


def test_merge_patterns_equals_greedy_randomized():
    rng = random.Random(20261018)
    for _ in range(6000):
        width = rng.randint(0, 6)
        pats = _random_merge_input(rng, width)
        merged = _merged(pats, width)
        assert merged == greedy_merge_patterns(pats), pats
        assert all(gp.meet(g(a), g(b)) is None
                   for a, b in itertools.combinations(merged, 2)), pats
    for pats in ([], [""], ["01"], ["01", "01"], ["00", "01"], ["01", "10"],
                 ["1*", "0*"], ["0*", "10", "11"], ["*0", "01", "11"]):
        width = len(pats[0]) if pats else 0
        assert _merged(pats, width) == greedy_merge_patterns(pats), pats


def test_parse_rejects_bad_guards():
    with pytest.raises(ValueError):
        gp.parse("0*2", 3)
    with pytest.raises(ValueError):
        gp.parse("0*", 3)
    # an int guard is checked too: too wide, or with a column coded 11
    with pytest.raises(ValueError):
        gp.parse(g("0*0"), 2)
    with pytest.raises(ValueError):
        gp.parse(0b11, 1)


def test_int_operations_agree_with_the_text_reference():
    # Every int operation against the string implementation it replaced
    # (tests/oracle.py), converting through parse and text at the boundary.
    rng = random.Random(2023)
    for _ in range(3000):
        width = rng.randint(0, 6)

        def text(guard: int) -> str:
            return gp.text(guard, width)

        a, b = random_guard(rng, width), random_guard(rng, width)
        symbol = "".join(rng.choice("01") for _ in range(width))
        ia, ib, isym = (gp.parse(x, width) for x in (a, b, symbol))
        assert (text(ia), text(isym)) == (a, symbol)
        assert (ia < ib, ia == ib) == (a < b, a == b)
        assert gp.matches(ia, isym) == ref.matches(a, symbol)
        met = gp.meet(ia, ib)
        assert (met if met is None else text(met)) == ref.meet(a, b)
        assert [text(x) for x in gp.subtract(ia, ib)] == ref.subtract(a, b)
        if width:
            pos = rng.randrange(width)
            assert gp.text(gp.drop_position(ia, pos, width), width - 1) == \
                ref.drop_position(a, pos)

        pats = [random_guard(rng, width) for _ in range(rng.randint(0, 4))]
        ints = [gp.parse(p, width) for p in pats]
        assert sorted(ints) == [gp.parse(p, width) for p in sorted(pats)]
        assert [text(x) for x in gp.uncovered(ints)] == ref.uncovered(pats, width)
        assert gp.covers_all(ints) == ref.covers_all(pats, width)
        positions = ref.constrained_positions(pats)
        columns = gp.constrained_positions(ints)
        assert text(columns) == "".join("0" if i in positions else "*"
                                        for i in range(width))
        assert [text(x) for x in gp.expand(ia, columns)] == \
            list(ref.expand(a, [i for i in positions if a[i] == "*"]))

        cubes = _random_merge_input(rng, width)
        assert _merged(cubes, width) == ref.merge_patterns(cubes), cubes

        bad = "".join(rng.choice("01*x") for _ in range(rng.randint(0, 7)))
        try:
            ref.check_guard(bad, width)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                gp.parse(bad, width)
            assert str(raised.value) == str(exc)
        else:
            assert text(gp.parse(bad, width)) == bad


@given(patterns, symbols)
def test_meet_agrees_with_matching(p, s):
    p, s = g(p), g(s)
    both = gp.matches(p, s)
    assert both == gp.matches(p, s)
    # symbol matches the meet of p and itself-as-pattern iff p matches it
    m = gp.meet(p, s)
    assert (m is not None and gp.matches(m, s)) == both


@given(patterns, patterns, symbols)
def test_meet_is_intersection(p, q, s):
    p, q, s = g(p), g(q), g(s)
    m = gp.meet(p, q)
    in_both = gp.matches(p, s) and gp.matches(q, s)
    assert in_both == (m is not None and gp.matches(m, s))


@given(patterns, patterns, symbols)
def test_subtract_is_difference(p, q, s):
    p, q, s = g(p), g(q), g(s)
    pieces = gp.subtract(p, q)
    in_difference = gp.matches(p, s) and not gp.matches(q, s)
    assert in_difference == any(gp.matches(piece, s) for piece in pieces)
    # pieces are pairwise disjoint
    assert sum(gp.matches(piece, s) for piece in pieces) <= 1


@given(st.lists(patterns, max_size=4), symbols)
def test_merge_preserves_denotation(pats, s):
    pats, s = [g(p) for p in pats], g(s)
    merged = gp.merge_patterns(pats)
    assert any(gp.matches(p, s) for p in pats) == \
        any(gp.matches(p, s) for p in merged)
