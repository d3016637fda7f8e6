import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treelogic import guards as gp

from oracle import greedy_merge_patterns, random_guard

patterns = st.text(alphabet="01*", min_size=3, max_size=3)
symbols = st.text(alphabet="01", min_size=3, max_size=3)


def test_matches_basic():
    assert gp.matches("1*0", "110")
    assert gp.matches("1*0", "100")
    assert not gp.matches("1*0", "101")
    assert not gp.matches("10", "101")


def test_meet_and_disjoint():
    assert gp.meet("1*", "*0") == "10"
    assert gp.meet("1*", "0*") is None
    assert gp.disjoint("11", "10")
    assert not gp.disjoint("1*", "*1")


def test_positions():
    assert gp.drop_position("1*0", 1) == "10"
    assert gp.constrained_positions(["*1*", "0**"]) == [0, 1]


def test_subtract_and_uncovered():
    assert sorted(gp.subtract("**", "00")) == ["01", "1*"]
    assert gp.subtract("1*", "0*") == ["1*"]
    assert gp.uncovered(["00", "01", "1*"], 2) == []
    assert gp.uncovered(["0*"], 2) == ["1*"]
    assert gp.covers_all(["*"], 1)
    assert not gp.covers_all([], 1)
    assert gp.covers_all([""], 0)


def test_merge_patterns():
    assert gp.merge_patterns(["00", "01"]) == ["0*"]
    assert gp.merge_patterns(["00", "01", "10", "11"]) == ["**"]
    assert gp.merge_patterns(["01", "10"]) == ["01", "10"]
    assert gp.merge_patterns(["01", "01", "00"]) == ["0*"]
    assert gp.merge_patterns(["0*", "10", "11"]) == ["**"]
    assert gp.merge_patterns(["1*0", "000", "001"]) == ["00*", "1*0"]
    assert gp.merge_patterns(["*1", "10"]) == ["*1", "10"]


def _random_merge_input(rng: random.Random, width: int) -> list[str]:
    if rng.random() < 0.5:
        # concrete symbols only, as subset construction passes them
        return ["".join(rng.choice("01") for _ in range(width))
                for _ in range(rng.randint(0, 40))]
    # disjoint cubes, as minimize passes them: some of the pieces that
    # random guards leave uncovered
    pieces = gp.uncovered([random_guard(rng, width)
                           for _ in range(rng.randint(0, 6))], width)
    return rng.sample(pieces, rng.randint(0, len(pieces)))


def test_merge_patterns_equals_greedy_randomized():
    rng = random.Random(20261018)
    for _ in range(6000):
        pats = _random_merge_input(rng, rng.randint(0, 6))
        merged = gp.merge_patterns(pats)
        assert merged == greedy_merge_patterns(pats), pats
        assert all(gp.disjoint(a, b)
                   for a, b in itertools.combinations(merged, 2)), pats
    for pats in ([], [""], ["01"], ["01", "01"], ["00", "01"], ["01", "10"],
                 ["1*", "0*"], ["0*", "10", "11"], ["*0", "01", "11"]):
        assert gp.merge_patterns(pats) == greedy_merge_patterns(pats), pats


def test_check_guard():
    with pytest.raises(ValueError):
        gp.check_guard("0*2", 3)
    with pytest.raises(ValueError):
        gp.check_guard("0*", 3)


@given(patterns, symbols)
def test_meet_agrees_with_matching(p, s):
    both = gp.matches(p, s)
    assert both == gp.matches(p, s)
    # symbol matches the meet of p and itself-as-pattern iff p matches it
    m = gp.meet(p, s)
    assert (m is not None and gp.matches(m, s)) == both


@given(patterns, patterns, symbols)
def test_meet_is_intersection(p, q, s):
    m = gp.meet(p, q)
    in_both = gp.matches(p, s) and gp.matches(q, s)
    assert in_both == (m is not None and gp.matches(m, s))


@given(patterns, patterns, symbols)
def test_subtract_is_difference(p, q, s):
    pieces = gp.subtract(p, q)
    in_difference = gp.matches(p, s) and not gp.matches(q, s)
    assert in_difference == any(gp.matches(piece, s) for piece in pieces)
    # pieces are pairwise disjoint
    assert sum(gp.matches(piece, s) for piece in pieces) <= 1


@given(st.lists(patterns, max_size=4), symbols)
def test_merge_preserves_denotation(pats, s):
    merged = gp.merge_patterns(pats)
    assert any(gp.matches(p, s) for p in pats) == \
        any(gp.matches(p, s) for p in merged)
