import itertools
import operator
import random
import sys
import threading

import pytest

from treelogic import AutomatonError, TreeAutomaton, automata, compiler
from treelogic import guards as gp
from treelogic.cli import main
from treelogic.compiler import zero_pad_closure
from treelogic.trees import (Node, format_tree, node_count, parse_tree,
                             tree_sort_key, validate_tree)

from conftest import FIXTURES, automaton_fields, fixture_text
from oracle import matches as oracle_matches
from oracle import (entry_targets, iter_trees, language_sample, random_deterministic,
                    random_label_deterministic, random_nondeterministic,
                    random_tree, recursive_accepts, recursive_run,
                    recursive_run_set, ref_count_classes, ref_determinize, ref_explore,
                    ref_minimize, ref_named_project, ref_named_zero_pad_closure,
                    ref_product, ref_reachable_states_detailed, ref_witness)
from test_acceptance import CONTRADICTIONS, ORACLE_SUITE, compiled

sys.path.append(str(FIXTURES.parent.parent / "benchmarks"))
from workloads import chain_text  # noqa: E402

T_ACCEPT = Node("00", Node("10"), Node("00", Node("01"), None))
T_SIBLINGS = Node("00", Node("10"), Node("01"))


def sing_automaton(width=1, pos=0):
    from treelogic.compiler import base_automaton
    return base_automaton("sing", (pos,), width)


# ----------------------------------------------------------------------
# membership


def test_membership_on_reference(ac_com_automaton):
    assert ac_com_automaton.accepts(T_ACCEPT)
    assert not ac_com_automaton.accepts(T_SIBLINGS)


def test_membership_empty_tree(ac_com_automaton):
    assert not ac_com_automaton.accepts(None)
    allw = TreeAutomaton.all_trees(2)
    assert allw.accepts(None)


def test_membership_width_mismatch(ac_com_automaton):
    with pytest.raises(AutomatonError):
        ac_com_automaton.accepts(Node("101"))


def test_run_states(ac_com_automaton):
    # run() gives a state number; the file's names are kept in ``names``
    aut = ac_com_automaton
    assert aut.names[aut.run(Node("10"))] == "a3"
    assert aut.names[aut.run(Node("00", Node("01"), None))] == "a2"
    assert aut.names[aut.run(T_ACCEPT)] == "a4"
    assert aut.run(T_SIBLINGS) == aut.sink


def _run_cases(rng, count):
    """Random automata of every kind the runs distinguish: deterministic with
    an implicit sink, with a named sink whose pairs are unlisted (minimize)
    or listed (with_materialized_sink), label-dependent, nondeterministic."""
    for _ in range(count):
        width = rng.randint(0, 2)
        make = rng.choice([random_deterministic, random_label_deterministic,
                           random_nondeterministic])
        aut = make(rng, width)
        if aut.deterministic:
            aut = rng.choice([aut, aut.minimize(), aut.with_materialized_sink()])
        yield aut


def test_runs_match_recursive_runs_randomized():
    rng = random.Random(61)
    for aut in _run_cases(rng, 36):
        trees = list(iter_trees(4, aut.width))
        trees += [random_tree(rng, 200, aut.width) for _ in range(5)]
        for tree in trees:
            for _ in range(2):  # the second call reads the memo
                assert aut.accepts(tree) == recursive_accepts(aut, tree)
                assert aut.run_set(tree) == recursive_run_set(aut, tree)
                if aut.deterministic:
                    assert aut.run(tree) == recursive_run(aut, tree)


def _chain(depth, label, bottom):
    return _chain_of([label] * (depth - 1) + [bottom])


def _chain_of(labels):
    """A left chain with these labels, the root's first."""
    tree = None
    for label in reversed(labels):
        tree = Node(label, tree, None)
    return tree


@pytest.mark.parametrize("tree, error, message", [
    (Node("00", Node("1"), None), ValueError, "bad label '1', expected 2 bits"),
    (Node("101", Node("10"), None), ValueError, "bad label '10', expected 3 bits"),
    (_chain(50, "01", "0a"), ValueError, "bad label '0a', expected 2 bits"),
    (Node("101", Node("011"), None), AutomatonError,
     "tree labels have width 3, automaton has width 2"),
    # The run meets "1b" first (it is last breadth-first), but "0a" comes
    # first in preorder.
    (Node("00", Node("0a", Node("00")), Node("00", None, Node("00", None, Node("1b")))),
     ValueError, "bad label '0a', expected 2 bits"),
    # Down a chain: the run meets "1b" first, at the bottom, but the whole
    # tree is checked, so "0a", 64 levels above it, is named.
    (_chain_of(["01"] * 5 + ["0a"] + ["01"] * 64 + ["1b"]),
     ValueError, "bad label '0a', expected 2 bits"),
])
def test_run_errors_name_the_first_bad_label(ac_com_automaton, tree, error,
                                             message):
    nondet = ac_com_automaton.project(1).cylindrify(1)
    for aut in (ac_com_automaton, nondet):
        aut.accepts(_chain(50, "00", "10"))  # fill part of the memo first
        for call in (aut.accepts, aut.run_set):
            with pytest.raises(error) as raised:
                call(tree)
            assert type(raised.value) is error
            assert str(raised.value) == message


def test_bad_label_above_a_dead_child_or_an_unlisted_pair_raises(monkeypatch):
    # "1" leads to the dead state and "0" to p, whose pair with q is
    # unlisted: no step above either reads a guard, so its label is not
    # parsed, but it is still checked.
    parses = 0
    parse = gp.parse

    def counted(guard, width):
        nonlocal parses
        parses += 1
        return parse(guard, width)

    for sink in (None, "s"):
        aut = TreeAutomaton(1, {"q", "p", "s"}, "q", {"p"}, {("q", "q"): {"0": "p"}},
                            sink=sink)
        nondet = TreeAutomaton(1, {"q", "p", "s"}, "q", {"p"}, {("q", "q"): {"0": "p"}},
                               deterministic=False)
        for call in (aut.accepts, nondet.accepts):
            for child in ("1", "0"):
                monkeypatch.setattr(gp, "parse", counted)
                parses = 0
                assert not call(Node("1", Node(child), None))
                monkeypatch.undo()
                assert parses == 1
                with pytest.raises(ValueError) as raised:
                    call(Node("x", Node(child), None))
                assert str(raised.value) == "bad label 'x', expected 1 bits"


def test_runs_finish_on_deep_chain(monkeypatch):
    # With the recursion limit just above the frames in use, deep trees
    # still finish, and every fill is called from a filling walk that runs
    # straight below a run method: the walk never recurses.
    sing = sing_automaton()
    closed = zero_pad_closure(sing)
    tree = _chain(10**5, "0", "1")
    zigzag = Node("1")
    for i in range(10**5 - 1):
        zigzag = Node("0", zigzag, None) if i % 2 else Node("0", None, zigzag)
    assert validate_tree(tree) == validate_tree(zigzag) == 1
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    walks = set()
    for name in ("_fill_state", "_fill_states"):
        def fill(self, *args, fill=getattr(TreeAutomaton, name)):
            frame, depth = sys._getframe(1), 0
            walks.add(frame.f_code.co_name)
            while frame is not None:
                depth, frame = depth + 1, frame.f_back
            # this test, then accepts, run or run_set (and run_set below a
            # nondeterministic accepts), then the walk
            assert depth - frames in (2, 3)
            return fill(self, *args)
        monkeypatch.setattr(TreeAutomaton, name, fill)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 20)
    try:
        for deep in (tree, zigzag):
            assert sing.accepts(deep)
            assert closed.accepts(deep)
            assert sing.run_set(deep) == {sing.run(deep)} <= sing.finals
        assert closed.run_set(_chain(10**5, "0", "0")).isdisjoint(closed.finals)
        with pytest.raises(ValueError, match="bad label '2'"):
            sing.accepts(_chain(10**5, "0", "2"))
    finally:
        sys.setrecursionlimit(limit)
    assert walks == {"_fold"}


def test_run_errors_on_deep_trees_chain_no_recursion_error():
    # ``_lookup`` meets the recursion limit on a 10^5-deep chain; the
    # filling walk's bad-label error must not carry that RecursionError
    # (and its frames) in its context chain.
    sing = sing_automaton()
    tree = _chain(10**5, "0", "2")
    for aut in (sing, zero_pad_closure(sing)):
        calls = [aut.run_set, aut.accepts] + ([aut.run] if aut.deterministic else [])
        for call in calls:
            with pytest.raises(ValueError, match="bad label '2'") as raised:
                call(tree)
            chain, error = [], raised.value
            while error is not None:
                chain, error = chain + [type(error)], error.__context__
            assert RecursionError not in chain


def _lopsided_trees(rng, width, depth=12):
    """A left-only chain, a right-only chain and a zig-zag of ``depth``
    nodes and a complete tree of depth 4, each node with a random label."""
    def label():
        return "".join(rng.choice("01") for _ in range(width))

    def complete(height):
        return Node(label(), complete(height - 1), complete(height - 1)) if height else None

    left = right = zigzag = None
    for i in range(depth):
        left, right = Node(label(), left, None), Node(label(), None, right)
        zigzag = Node(label(), zigzag, None) if i % 2 else Node(label(), None, zigzag)
    return [left, right, zigzag, complete(4)]


def test_second_pass_reads_only_the_memo(ac_com_automaton, monkeypatch):
    # Every step of a second pass over the same trees is a memo hit, so no
    # guard is read; both passes agree with the recursive runs.
    rng = random.Random(71)
    matched = 0
    matches = gp.matches

    def counted(guard, symbol):
        nonlocal matched
        matched += 1
        return matches(guard, symbol)

    for _ in range(4):  # four rounds of random automata and trees
        for aut in [*_run_cases(rng, 40), ac_com_automaton,
                    ac_com_automaton.project(1).cylindrify(1),
                    zero_pad_closure(sing_automaton(2, 1))]:
            trees = _lopsided_trees(rng, aut.width) + [random_tree(rng, 60, aut.width)]
            for second in (False, True):
                with monkeypatch.context() as patch:
                    patch.setattr(gp, "matches", counted)
                    matched = 0
                    sets = [aut.run_set(tree) for tree in trees]
                    states = [aut.run(tree) for tree in trees] if aut.deterministic else []
                    verdicts = [aut.accepts(tree) for tree in trees]
                if second:
                    assert matched == 0
                assert sets == [recursive_run_set(aut, tree) for tree in trees]
                if aut.deterministic:
                    assert states == [recursive_run(aut, tree) for tree in trees]
                assert verdicts == [recursive_accepts(aut, tree) for tree in trees]


def _comb(rng, width, spine, tooth):
    """A right spine of ``spine`` nodes, each with a left chain of
    ``tooth`` nodes, random labels."""
    def label():
        return "".join(rng.choice("01") for _ in range(width))

    tree = None
    for _ in range(spine):
        tooth_tree = None
        for _ in range(tooth):
            tooth_tree = Node(label(), tooth_tree, None)
        tree = Node(label(), tooth_tree, tree)
    return tree


@pytest.mark.parametrize("height", [0, 1, 2, 64])
def test_runs_agree_across_the_depth_line(height):
    # Lopsided trees of heights height - 1 to height + 2, and a comb of
    # height + 3 teeth, agree with the recursive runs.
    rng = random.Random(79)
    auts = [*_run_cases(rng, 24), zero_pad_closure(sing_automaton(2, 1)),
            TreeAutomaton.from_text(fixture_text("ac_com.aut"))]
    kinds = {(aut.deterministic, aut.sink is None) for aut in auts}
    assert kinds == {(True, True), (True, False), (False, True)}
    for aut in auts:
        trees = [tree for h in range(max(height - 1, 1), height + 3)
                 for tree in _lopsided_trees(rng, aut.width, h)[:3]]
        trees.append(_comb(rng, aut.width, height + 3, 3))
        for tree in trees:
            assert aut.accepts(tree) == recursive_accepts(aut, tree)
            assert aut.run_set(tree) == recursive_run_set(aut, tree)
            if aut.deterministic:
                assert aut.run(tree) == recursive_run(aut, tree)


def _memo_steps(aut):
    """Every (left, right, label) step in the run memo, with its value."""
    return {(left, right, label): value for left, rows in aut._steps.items()
            for right, labels in rows.items() for label, value in labels.items()}


def _runs(aut, trees):
    """Each run of every tree: states (deterministic only), state sets and
    verdicts."""
    return ([aut.run(tree) for tree in trees] if aut.deterministic else None,
            [aut.run_set(tree) for tree in trees], [aut.accepts(tree) for tree in trees])


def _recursive_runs(aut, trees):
    return ([recursive_run(aut, tree) for tree in trees] if aut.deterministic else None,
            [recursive_run_set(aut, tree) for tree in trees],
            [recursive_accepts(aut, tree) for tree in trees])


def test_warm_runs_read_only_the_memo(monkeypatch):
    # After one pass, a second pass over the same trees never reaches the
    # filling walk or a fill: ``_lookup`` reads every step from the memo.
    rng = random.Random(83)
    auts = [*_run_cases(rng, 24), zero_pad_closure(sing_automaton(2, 1)),
            TreeAutomaton.from_text(fixture_text("ac_com.aut"))]
    kinds = {(aut.deterministic, aut.sink is None) for aut in auts}
    assert kinds == {(True, True), (True, False), (False, True)}
    cases = [(aut, _lopsided_trees(rng, aut.width, 150)
              + [random_tree(rng, 200, aut.width), _comb(rng, aut.width, 80, 5)])
             for aut in auts]
    first = [_runs(aut, trees) for aut, trees in cases]

    def refuse(*args):
        raise AssertionError("a warm run reached the filling walk")

    with monkeypatch.context() as patch:
        for name in ("_fold", "_fill_state", "_fill_states"):
            patch.setattr(TreeAutomaton, name, refuse)
        assert [_runs(aut, trees) for aut, trees in cases] == first
    assert first == [_recursive_runs(aut, trees) for aut, trees in cases]


def test_a_miss_at_the_root_fills_that_step_alone():
    # The memo holds every step of both subtrees but not the root's, the
    # last node ``_lookup`` reaches: the filling walk from the root gives
    # the recursive run's answer and adds that one step.
    rng = random.Random(89)
    auts = [TreeAutomaton.from_text(fixture_text("ac_com.aut")),
            zero_pad_closure(sing_automaton(2, 1)), *_run_cases(rng, 12)]
    tested = 0
    for aut in auts:
        labels = ["".join(bits) for bits in itertools.product("01", repeat=aut.width)]
        calls = [(aut.run_set, recursive_run_set, aut.run_set)]
        if aut.deterministic:
            calls += [(aut.run, recursive_run, aut.run), (aut.accepts, recursive_accepts, aut.run)]
        for call, reference, key in calls:
            for _ in range(4):
                aut._steps.clear()
                left, right = (random_tree(rng, rng.randint(1, 8), aut.width) for _ in range(2))
                call(left), call(right)
                before = _memo_steps(aut)
                missing = [label for label in labels
                           if (key(left), key(right), label) not in before]
                if not missing:
                    continue
                tree = Node(rng.choice(missing), left, right)
                assert call(tree) == reference(aut, tree)
                step = (key(left), key(right), tree.label)
                assert _memo_steps(aut) == {**before, step: key(tree)}
                tested += 1
    assert tested >= 40


def _path_runs(aut, tree):
    """``_recursive_runs(aut, [tree])`` of a tree whose nodes have one child
    at most, bottom-up without recursion."""
    path = []
    while tree is not None:
        path.append(tree)
        tree = tree.left if tree.left is not None else tree.right
    leaf = states = frozenset({aut.initial})
    for node in reversed(path):
        lefts = states if node.left is not None else leaf
        rights = states if node.right is not None else leaf
        states = frozenset(
            t for left in lefts for right in rights
            for guard, targets in aut.transitions.get((left, right), ())
            if oracle_matches(gp.text(guard, aut.width), node.label)
            for t in entry_targets(targets))
    return ([next(iter(states), aut.sink)] if aut.deterministic else None,
            [states], [bool(states & aut.finals)])


def test_warm_runs_fall_back_on_trees_past_the_recursion_limit():
    # On a warm memo, ``_lookup`` meets the recursion limit on a 10^5-deep
    # chain and zig-zag; the filling walk takes over and answers as the
    # reference does, a bottom-up walk along the path.
    rng = random.Random(97)

    def label():
        return "".join(rng.choice("01") for _ in range(2))

    chain, zigzag = _chain(10**5, "10", "01"), Node(label())
    for i in range(10**5 - 1):
        zigzag = Node(label(), zigzag, None) if i % 2 else Node(label(), None, zigzag)
    ac_com = TreeAutomaton.from_text(fixture_text("ac_com.aut"))
    auts = [ac_com, ac_com.project(1).cylindrify(1), zero_pad_closure(sing_automaton(2, 1)),
            random_deterministic(rng, 2)]
    for aut in auts:
        for short in _lopsided_trees(rng, 2, 30)[:3]:
            assert _path_runs(aut, short) == _recursive_runs(aut, [short])
        for tree in (chain, zigzag):
            want = _path_runs(aut, tree)
            assert _runs(aut, [tree]) == want
            with pytest.raises(RecursionError):
                automata._lookup(tree, aut._steps, frozenset({aut.initial}))
            assert _runs(aut, [tree]) == want


@pytest.mark.parametrize("make", [
    lambda label: Node(label, Node("10"), Node("01")),
    lambda label: Node("00", Node("10", None, Node(label)), Node("01")),
    lambda label: _chain(50, "01", label),
    lambda label: _chain_of(["01"] * 5 + [label] + ["01"] * 70 + [label]),
])
@pytest.mark.parametrize("bad", ["0a", "1", "011"])
def test_bad_label_on_a_warm_memo_reads_as_on_a_cold_one(make, bad):
    # The memo is warm with the tree's steps but for the bad label's, which
    # is never memoized: the run names the same label as a cold one does.
    def fresh():
        aut = TreeAutomaton.from_text(fixture_text("ac_com.aut"))
        return [aut, aut.project(1).cylindrify(1)]

    for cold, warm in zip(fresh(), fresh()):
        _runs(warm, [make("00")])
        calls = ["run_set", "accepts"] + (["run"] if warm.deterministic else [])
        for call in calls:
            with pytest.raises(ValueError) as want:
                getattr(cold, call)(make(bad))
            with pytest.raises(ValueError) as got:
                getattr(warm, call)(make(bad))
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def _in_threads(work, count=8):
    """Run ``work`` in ``count`` threads that switch every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_shared_automaton_runs_agree_across_threads():
    # Threads fill one automaton's memo concurrently; every answer must still
    # be the recursive run's.
    rng = random.Random(67)
    aut = random_label_deterministic(rng, 2, max_states=4)
    trees = [random_tree(rng, 40, 2) for _ in range(60)]
    want = [recursive_accepts(aut, t) for t in trees]
    failures = []

    def work():
        if [aut.accepts(t) for t in trees] != want:
            failures.append(1)

    _in_threads(work)
    assert not failures


def test_shared_nondeterministic_run_sets_agree_across_threads(monkeypatch):
    # The nondeterministic twin: threads fill one memo keyed by state sets.
    # No filled step may be lost, so a pass after them reads no guard.
    rng = random.Random(73)
    auts = [zero_pad_closure(sing_automaton(2, 0)),
            random_nondeterministic(rng, 2, max_states=4)]
    trees = [random_tree(rng, 40, 2) for _ in range(60)]
    want = [[recursive_run_set(aut, t) for t in trees] for aut in auts]
    failures = []

    def work():
        if [[aut.run_set(t) for t in trees] for aut in auts] != want:
            failures.append(1)

    _in_threads(work)
    assert not failures
    monkeypatch.setattr(gp, "matches", lambda guard, symbol: failures.append(1))
    work()
    assert not failures


# ----------------------------------------------------------------------
# reachability and emptiness


def _named(aut, states):
    """The names of the given states of an automaton that has names."""
    return {aut.names[s] for s in states}


def _with_added_sink(aut):
    """The deterministic ``aut`` with one more state, designated the sink."""
    n = len(aut.states)
    return TreeAutomaton(aut.width, range(n + 1), aut.initial, aut.finals,
                         aut.transitions, sink=n)


def test_reachable_on_reference(ac_com_automaton):
    reached = ac_com_automaton.reachable_states()
    assert _named(ac_com_automaton, reached) == \
        _named(ac_com_automaton, ac_com_automaton.states) == \
        {"a0", "a1", "a2", "a3", "a4", ac_com_automaton.names[ac_com_automaton.sink]}


def test_reachable_trivial_cases():
    single = TreeAutomaton(1, {"q"}, "q", set(), {})
    assert _named(single, single.reachable_states()) == {"q"}
    looped = TreeAutomaton(1, {"q", "r"}, "q", set(),
                           {("q", "q"): {"*": "q"}})
    assert _named(looped, looped.reachable_states()) == {"q"}


def test_reachable_pass_bound():
    rng = random.Random(7)
    for _ in range(40):
        aut = random_deterministic(rng, width=1, max_states=6)
        _, passes = aut.reachable_states_detailed()
        assert passes <= max(1, len(aut.states))


_GENERATORS = (random_deterministic, random_label_deterministic,
               random_nondeterministic)


def _random_automata(rng, count, widths, max_states):
    """``count`` automata, taking the three generators in turn."""
    return [_GENERATORS[i % 3](rng, rng.randint(*widths), max_states)
            for i in range(count)]


def _variants(aut):
    """``aut`` and what the automaton operations make of it."""
    out = [aut, aut.determinize()]
    if aut.deterministic:
        out += [aut.minimize(), aut.with_materialized_sink(), aut.complement()]
    return out


def test_reachable_matches_sink_pending_scan_randomized():
    # criterion 4's automata, then each with a named sink, minimized and
    # with its sink materialized
    rng = random.Random(2024)
    for _ in range(40):
        aut = random_deterministic(rng, width=rng.randint(0, 2), max_states=50)
        named = TreeAutomaton._canonical(aut.width, len(aut.states), aut.initial,
                                         aut.finals, aut.transitions, True,
                                         rng.choice(sorted(aut.states)))
        for variant in (aut, named, aut.minimize(), aut.with_materialized_sink()):
            _assert_reachable_matches_scan(variant)
    # every generator, and the complement and subset construction too
    for aut in _random_automata(random.Random(2025), 60, (0, 3), 6):
        for variant in _variants(aut):
            _assert_reachable_matches_scan(variant)


def test_stored_reached_states_match_a_fresh_fixpoint(monkeypatch):
    # The product, the subset construction, minimize and remap store the
    # reached states they know; each stored set must be what the fixpoint
    # finds on a fresh copy of the same fields.
    rng = random.Random(2047)
    cases = _random_automata(rng, 200, (0, 3), 4)
    made = _trusted(monkeypatch, lambda: [_run_operations(rng, aut) for aut in cases])
    fixtures = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.mso"))]
    made += _trusted(monkeypatch, lambda: [compiled(text) for text in
                                           fixtures + [chain_text(12, "v", "S")]])
    assert sum(aut._reached is not None for aut in made) > 1000

    def fresh(aut):
        return TreeAutomaton._canonical(aut.width, len(aut.states), aut.initial,
                                        aut.finals, aut.transitions, aut.deterministic,
                                        aut.sink)

    for aut in made:
        assert aut.reachable_states() == fresh(aut).reachable_states_detailed()[0], \
            aut.to_text()
    # One shared automaton with unreached states, its memo filled by threads.
    shared = fresh(next(aut for aut in made
                        if aut.reachable_states() < frozenset(aut.states)))
    want = shared.reachable_states_detailed()[0]
    failures = []

    def work():
        if shared.reachable_states() != want:
            failures.append(1)

    _in_threads(work)
    assert not failures and shared._reached == want


def _assert_reachable_matches_scan(aut):
    """Reached set and passes as the scan's; emptiness as the scan that
    stops at the first final."""
    assert aut.reachable_states_detailed() == ref_reachable_states_detailed(aut)
    reached, _ = ref_reachable_states_detailed(aut, stop_on_final=True)
    assert aut.is_empty() == (aut.initial not in aut.finals
                              and not reached & aut.finals)


def test_is_empty(ac_com_automaton):
    assert not ac_com_automaton.is_empty()
    assert TreeAutomaton(1, {"q"}, "q", set(), {}).is_empty()
    assert not TreeAutomaton(1, {"q"}, "q", {"q"}, {}).is_empty()
    assert TreeAutomaton.empty_language(2).is_empty()


# ----------------------------------------------------------------------
# boolean operations


def test_intersection_idempotent(ac_com_automaton):
    assert ac_com_automaton.intersect(ac_com_automaton).equivalent(ac_com_automaton)


def test_intersection_with_complement_is_empty(ac_com_automaton):
    assert ac_com_automaton.intersect(ac_com_automaton.complement()).is_empty()


def test_union_identity(ac_com_automaton):
    empty = TreeAutomaton.empty_language(2)
    assert empty.union(ac_com_automaton).equivalent(ac_com_automaton)


def test_width_mismatch_errors(ac_com_automaton):
    with pytest.raises(AutomatonError):
        ac_com_automaton.intersect(TreeAutomaton.all_trees(3))
    with pytest.raises(AutomatonError):
        ac_com_automaton.equivalent(TreeAutomaton.all_trees(1))


def test_product_language_against_brute_force():
    rng = random.Random(13)
    for _ in range(15):
        a = random_deterministic(rng, width=1)
        b = random_deterministic(rng, width=1)
        both = language_sample(a, 4) & language_sample(b, 4)
        either = language_sample(a, 4) | language_sample(b, 4)
        assert language_sample(a.intersect(b), 4) == both
        assert language_sample(a.union(b), 4) == either


def test_eq_product_language_against_brute_force():
    # operator.eq holds of two dead components, so the dead states must be
    # materialized although no pair with one dead component is final
    rng = random.Random(71)
    makers = (random_deterministic, random_label_deterministic)
    everything = frozenset(format_tree(t) for t in iter_trees(4, 1))
    for _ in range(200):
        a, b = (rng.choice(makers)(rng, 1) for _ in range(2))
        differ = language_sample(a, 4) ^ language_sample(b, 4)
        same = a._product(b, operator.eq)
        assert language_sample(same, 4) == everything - differ, (a.to_text(), b.to_text())


def _assert_product_matches_all_pairs(a, b, accept):
    got, want = a._product(b, accept), ref_product(a, b, accept)
    for name in _FIELDS:
        assert getattr(got, name) == getattr(want, name), \
            (name, accept, a.to_text(), b.to_text())


def test_product_matches_all_pairs_product(monkeypatch):
    # Queueing only the pairs both operands list changes no state name,
    # table or final set of intersect, union or the ne product.
    rng = random.Random(2053)
    makers = (random_deterministic, random_label_deterministic)
    for _ in range(300):
        width = rng.randint(0, 3)
        a, b = (rng.choice(makers)(rng, width) for _ in range(2))
        for accept in (operator.and_, operator.or_, operator.ne):
            _assert_product_matches_all_pairs(a, b, accept)
    # every product the compiler builds for the fixtures, the chains and
    # the alternation ladders (a chain's singleton steps build none)
    seen = []
    product = TreeAutomaton._product

    def recorded(self, other, accept):
        seen.append((self, other, accept))
        return product(self, other, accept)

    monkeypatch.setattr(TreeAutomaton, "_product", recorded)
    fixtures = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.mso"))]
    for text in fixtures + [chain_text(width, "v", "S") for width in range(8, 17, 2)] \
            + [ladder_text(k) for k in range(1, 6)]:
        compiled(text)
    monkeypatch.undo()
    assert len(seen) > 100
    for a, b, accept in seen:
        _assert_product_matches_all_pairs(a, b, accept)


def test_width_16_chain_meets_few_guards(monkeypatch):
    # The product meets only pairs both operands list, and the entries of
    # two listed pairs once per product: 6,506 calls here, against 16,239
    # when every pair of product states was met.
    calls = 0
    meet = gp.meet

    def counted(a, b):
        nonlocal calls
        calls += 1
        return meet(a, b)

    monkeypatch.setattr(gp, "meet", counted)
    compiled(chain_text(16, "v", "S"))
    assert calls <= 8000


def test_width_16_chain_normalizes_only_its_atom_tables(monkeypatch):
    # Constructions hand their tables over in canonical form; only the
    # literal atom tables (in and prec) go through _normalize, and only
    # on their first build in the process, against 66 calls when every
    # construction normalized its own table.
    calls = 0
    normalize = automata._normalize

    def counted(transitions):
        nonlocal calls
        calls += 1
        return normalize(transitions)

    monkeypatch.setattr(automata, "_normalize", counted)
    compiled(chain_text(16, "v", "S"))
    assert calls <= 3


def test_width_16_chain_builds_each_shape_and_quotient_row_once(monkeypatch):
    # minimize builds at most one diagram shape per distinct guard list of
    # its reached pairs, and none when the reached states are one final
    # state, where no block can split, or when symbol counts alone leave
    # every block a singleton: 6 over the chain's minimizations, against 32
    # when every minimization whose first partition had a block of two
    # built its shapes and 233 distinct entry lists in their inputs.  It
    # merges each distinct entry list's quotient row once: 124
    # merge_patterns calls, against 333 when every pair of representatives
    # merged its own row.
    wanted: list[set[tuple[int, ...]]] = []
    built: list[list[tuple[int, ...]]] = []
    one_final: list[bool] = []
    counted_apart: list[bool] = []
    merges = 0
    minimize, shape, merge = TreeAutomaton.minimize, automata._shape, gp.merge_patterns

    def minimized(aut):
        reached = aut.reachable_states()
        wanted.append({tuple(g for g, _ in entries)
                       for (left, right), entries in aut.transitions.items()
                       if left in reached and right in reached})
        built.append([])
        one_final.append(len(reached) == 1 and reached <= aut.finals)
        counted_apart.append(all(len(members) == 1 for members in ref_count_classes(aut)))
        return minimize(aut)

    def shaped(guards, width):
        built[-1].append(guards)
        return shape(guards, width)

    def merged(patterns):
        nonlocal merges
        merges += 1
        return merge(patterns)

    monkeypatch.setattr(TreeAutomaton, "minimize", minimized)
    monkeypatch.setattr(automata, "_shape", shaped)
    monkeypatch.setattr(gp, "merge_patterns", merged)
    compiled(chain_text(16, "v", "S"))
    assert any(one_final) and not all(one_final)
    assert any(counted_apart) and not all(counted_apart)
    for want, got, alone, apart in zip(wanted, built, one_final, counted_apart):
        assert set(got) <= want
        assert len(set(got)) == len(got)
        assert not (alone and got)
        assert not (apart and got)
    assert sum(map(len, built)) == 6
    assert merges <= 130


def test_product_state_names_cannot_collide():
    # Naming a pair from its components would give both (x,y | z) and
    # (x | y,z) the name "(x,y,z)".
    a = TreeAutomaton(1, {"x,y", "x"}, "x,y", {"x"},
                      {("x,y", "x,y"): {"1": "x"}})
    b = TreeAutomaton(1, {"z", "y,z"}, "z", {"y,z"},
                      {("z", "z"): {"1": "y,z"}})
    leaf = Node("1")
    assert a.accepts(leaf) and b.accepts(leaf)
    assert not a.accepts(None) and not b.accepts(None)
    both = a.intersect(b)
    assert both.accepts(leaf)
    assert not both.accepts(None)
    assert language_sample(both, 3) == language_sample(a, 3) & language_sample(b, 3)
    either = a.union(b)
    assert not either.accepts(None)
    assert language_sample(either, 3) == language_sample(a, 3) | language_sample(b, 3)


def test_complement_involution(ac_com_automaton):
    twice = ac_com_automaton.complement().complement()
    assert twice.equivalent(ac_com_automaton)


def test_complement_of_all_is_empty():
    assert TreeAutomaton.all_trees(2).complement().is_empty()


def test_complement_accepts_rejected_tree(ac_com_automaton):
    comp = ac_com_automaton.complement()
    assert comp.accepts(T_SIBLINGS)
    assert not comp.accepts(T_ACCEPT)


def test_complement_requires_deterministic():
    rng = random.Random(3)
    nd = random_nondeterministic(rng, width=1)
    with pytest.raises(AutomatonError):
        nd.complement()


# ----------------------------------------------------------------------
# determinization


def test_determinize_preserves_deterministic(ac_com_automaton):
    det = ac_com_automaton.determinize()
    assert det.deterministic
    assert det.equivalent(ac_com_automaton)


def test_determinize_of_projected_singleton():
    projected = sing_automaton().project(0)
    det = projected.determinize()
    # the erased language keeps every shape with at least one node
    for tree in iter_trees(4, 0):
        assert det.accepts(tree) == (tree is not None)


def test_determinize_without_finals_is_empty():
    rng = random.Random(5)
    nd = random_nondeterministic(rng, width=1)
    nd = TreeAutomaton(nd.width, nd.states, nd.initial, set(), nd.transitions,
                       deterministic=False)
    assert nd.determinize().is_empty()


def test_subset_state_names_cannot_collide():
    # Naming a subset from its members would give both {a, b} and {"a,b"}
    # the name "{a,b}".
    nd = TreeAutomaton(1, {"i", "a", "b", "a,b"}, "i", {"a,b"},
                       {("i", "i"): [("1", {"a", "b"}), ("0", "a,b")]},
                       deterministic=False)
    det = nd.determinize()
    assert nd.accepts(Node("0")) and det.accepts(Node("0"))
    assert not nd.accepts(Node("1"))
    assert not det.accepts(Node("1"))
    assert language_sample(det, 3) == language_sample(nd, 3)


def test_determinize_language_preserved_randomized():
    rng = random.Random(11)
    for _ in range(30):
        nd = random_nondeterministic(rng, width=1)
        det = nd.determinize()
        assert det.deterministic
        assert language_sample(nd, 5) == language_sample(det, 5)


def ladder_text(k):
    """The alternation ladder ``L(k)``: block ``i`` (for ``i`` = 1..k) is
    ``ex1 vi. (Ci & ...)`` when ``i`` is odd and ``all1 vi. (in(vi, X) ->
    (Ci & ...))`` when it is even, where ``Ci`` conjoins
    ``(prec(vj, vi) | pdom(vi, vj))`` over ``j < i`` and the innermost
    ``...`` is ``true``."""
    body = "true"
    for i in range(k, 0, -1):
        conj = " & ".join([f"(prec(v{j}, v{i}) | pdom(v{i}, v{j}))"
                           for j in range(1, i)] + [body])
        body = (f"ex1 v{i}. ({conj})" if i % 2
                else f"all1 v{i}. (in(v{i}, X) -> ({conj}))")
    return body


def test_determinize_matches_reference(monkeypatch):
    # The step is computed once per distinct row set; the automaton is the
    # one of computing it for every pair of subsets, field for field.
    rng = random.Random(2207)
    inputs = [random_nondeterministic(rng, rng.randint(0, 3), 5)
              for _ in range(300)]
    determinize = TreeAutomaton.determinize

    def recorded(self):
        inputs.append(self)
        return determinize(self)

    monkeypatch.setattr(TreeAutomaton, "determinize", recorded)
    fixtures = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.mso"))]
    for text in fixtures + [ladder_text(k) for k in range(1, 6)]:
        compiled(text)
    monkeypatch.undo()
    assert len(inputs) > 300
    for aut in inputs:
        assert automaton_fields(aut.determinize()) == \
            automaton_fields(ref_determinize(aut))


def test_ladder_5_computes_few_subset_steps(monkeypatch):
    # One constrained_positions call per distinct non-empty row set: 96 at
    # L(5), against 1,849 when every pair of subsets with entries made one.
    calls = 0
    constrained_positions = gp.constrained_positions

    def counted(patterns):
        nonlocal calls
        calls += 1
        return constrained_positions(patterns)

    monkeypatch.setattr(gp, "constrained_positions", counted)
    compiled(ladder_text(5))
    assert calls <= 120


def test_project_and_closure_match_named_builds(monkeypatch):
    # Both hand their normalized tables to the trusted constructor; the
    # automata are those the public constructor made of the same tables.
    inputs = _random_automata(random.Random(3107), 150, (1, 3), 5)
    projected, closed = [], []
    project, closure = TreeAutomaton.project, compiler.zero_pad_closure
    monkeypatch.setattr(TreeAutomaton, "project", lambda self, pos:
                        projected.append((self, pos)) or project(self, pos))
    monkeypatch.setattr(compiler, "zero_pad_closure",
                        lambda aut: closed.append(aut) or closure(aut))
    for k in range(1, 6):
        compiled(ladder_text(k))
    monkeypatch.undo()
    # one quantifier per block: 1 + 2 + 3 + 4 + 5
    assert len(projected) == len(closed) == 15
    cases = [(aut, pos) for aut in inputs for pos in range(aut.width)]
    for aut, pos in cases + projected:
        assert automaton_fields(aut.project(pos)) == \
            automaton_fields(ref_named_project(aut, pos))
    for aut in inputs + closed:
        assert automaton_fields(zero_pad_closure(aut)) == \
            automaton_fields(ref_named_zero_pad_closure(aut))


# ----------------------------------------------------------------------
# minimization


def test_minimize_empty_language_shape():
    noisy = TreeAutomaton(2, {"a", "b", "c"}, "a", set(),
                          {("a", "a"): {"0*": "b"}, ("a", "b"): {"**": "c"}})
    minimal = noisy.minimize()
    assert len(minimal.states) == 1
    assert not minimal.finals
    assert minimal.initial in minimal.states
    assert not minimal.transitions


def test_minimize_reference_is_already_minimal(ac_com_automaton):
    minimal = ac_com_automaton.minimize()
    assert len(minimal.states) == 6
    assert minimal.equivalent(ac_com_automaton)


def test_minimize_preserves_language_randomized():
    rng = random.Random(17)
    for _ in range(25):
        aut = random_deterministic(rng, width=1)
        minimal = aut.minimize()
        assert minimal.equivalent(aut)
        again = minimal.minimize()
        assert len(again.states) == len(minimal.states)


def test_minimize_keeps_states_that_test_different_bits():
    # (a, i) and (b, i) lead to f on the same number of symbols, but through
    # different bits; a diagram node without its position would merge a and b.
    aut = TreeAutomaton.from_text(
        "width 2\ninitial i\nfinals f\n"
        "trans i i 10 -> a\ntrans i i 01 -> b\n"
        "trans a i 1* -> f\ntrans b i *1 -> f\n")
    minimal = aut.minimize()
    assert len(minimal.states) == 5
    assert minimal.equivalent(aut)
    assert not minimal.accepts(Node("10", Node("01"), None))


def test_minimize_label_dependent_guards_randomized():
    rng = random.Random(41)
    for width, count in ((1, 30), (2, 20), (3, 3)):
        trees = list(iter_trees(4, width))
        for _ in range(count):
            aut = random_label_deterministic(rng, width)
            minimal = aut.minimize()
            assert all(minimal.accepts(t) == aut.accepts(t) for t in trees)
            again = minimal.minimize()
            assert len(again.states) == len(minimal.states)
            text = minimal.renumbered().to_text()
            assert again.renumbered().to_text() == text
            # The same automaton with a named implicit sink, and with that
            # sink made explicit on every uncovered symbol.
            named = _with_added_sink(aut)
            explicit = named.with_materialized_sink()
            assert named.minimize().renumbered().to_text() == text
            assert explicit.minimize().renumbered().to_text() == text


def test_language_equal_automata_minimize_to_equal_sizes(ac_com_automaton):
    redundant = ac_com_automaton.intersect(TreeAutomaton.all_trees(2))
    assert len(redundant.minimize().states) == \
        len(ac_com_automaton.minimize().states)


def test_minimize_finds_undeclared_absorbing_class_randomized():
    # A double complement keeps the materialized dead state as an ordinary,
    # undeclared one; minimize must still find it and strip it.
    rng = random.Random(53)
    for _ in range(600):
        width = rng.randint(0, 3)
        make = rng.choice([random_deterministic, random_label_deterministic])
        a = make(rng, width)
        twice = a.complement().complement()
        assert twice.sink is None
        assert (twice.minimize().renumbered().to_text()
                == a.minimize().renumbered().to_text())


_FIELDS = ("width", "states", "initial", "finals", "transitions", "sink",
           "deterministic")


def _assert_minimize_matches_dense(aut):
    got, want = aut.minimize(), ref_minimize(aut)
    for name in _FIELDS:
        assert getattr(got, name) == getattr(want, name), (name, aut.to_text())


def _minimize_inputs(monkeypatch, texts):
    """Every automaton the compiler minimizes while compiling ``texts``."""
    seen = []
    minimize = TreeAutomaton.minimize

    def recorded(self):
        seen.append(self)
        return minimize(self)

    monkeypatch.setattr(TreeAutomaton, "minimize", recorded)
    for text in texts:
        compiled(text)
    monkeypatch.undo()
    return seen


def test_minimize_matches_dense_minimize(monkeypatch):
    rng = random.Random(2031)
    cases = []
    for aut in _random_automata(rng, 360, (0, 3), 6):
        for variant in _variants(aut):
            if not variant.deterministic:
                continue
            # an added absorbing sink, and a listed state designated the sink
            named = _with_added_sink(variant)
            renamed = TreeAutomaton._canonical(variant.width, len(variant.states),
                                               variant.initial,
                                               variant.finals - {max(variant.states)},
                                               variant.transitions, True, max(variant.states))
            cases += [variant, named, renamed]
    assert len(cases) >= 300
    # unreachable states, and a state literally named after the fresh sink
    cases.append(TreeAutomaton(1, {"a", "b", "c", "u"}, "a", {"b", "u"},
                               {("a", "a"): {"1": "b"}, ("u", "a"): {"*": "c"},
                                ("b", "u"): {"0": "u"}}))
    cases.append(TreeAutomaton(1, {"a", "dead", "dead1"}, "a", {"dead1"},
                               {("a", "a"): {"0": "dead"},
                                ("dead", "a"): {"1": "dead1"}}))
    for aut in cases:
        _assert_minimize_matches_dense(aut)
    # One final state reaches only itself and maybe the dead state, its row
    # covering every symbol or not, with and without a designated sink: no
    # block can split, so no diagram shape is built.
    alone = []
    for width in range(4):
        rows = [{}, {"*" * width: "f"}]
        if width:
            rows += [{"0" + "*" * (width - 1): "f", "1" + "*" * (width - 1): "f"},
                     {"1" * width: "f"}, {"0" * width: "f", "1" * width: "f"}]
        for row in rows:
            table = {("f", "f"): row} if row else {}
            alone += [TreeAutomaton(width, {"f"}, "f", {"f"}, table),
                      TreeAutomaton(width, {"f", "s"}, "f", {"f"}, table, sink="s")]
    shapes = []
    shape = automata._shape
    monkeypatch.setattr(automata, "_shape", lambda *args: shapes.append(args) or shape(*args))
    for aut in alone:
        _assert_minimize_matches_dense(aut)
    monkeypatch.undo()
    assert not shapes
    fixtures = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.mso"))]
    chains = [chain_text(width, "v", "S") for width in range(8, 17, 2)]
    steps = _minimize_inputs(monkeypatch, fixtures + chains)
    assert len(steps) > len(fixtures + chains)
    for aut in steps:
        _assert_minimize_matches_dense(aut)


def test_minimize_splits_states_whose_symbol_counts_collide():
    # p and q send one symbol each to a and to b, through opposite bits, so
    # symbol counts per block cannot tell them apart and only the diagrams
    # of the second stage can.  r and s send every symbol to a, through one
    # guard and through two, and must merge.
    aut = TreeAutomaton(1, {"i", "p", "q", "a", "b", "r", "s"}, "i", {"a"},
                        {("i", "i"): {"0": "p", "1": "q"},
                         ("p", "i"): {"0": "a", "1": "b"},
                         ("q", "i"): {"1": "a", "0": "b"},
                         ("b", "i"): {"*": "a"},
                         ("a", "i"): {"0": "r", "1": "s"},
                         ("r", "i"): {"*": "a"},
                         ("s", "i"): {"0": "a", "1": "a"}})
    names = aut.names + ("dead",)
    classes = [sorted(names[s] for s in members) for members in ref_count_classes(aut)]
    assert ["p", "q"] in classes and ["b", "r", "s"] in classes
    _assert_minimize_matches_dense(aut)
    minimal = aut.minimize()
    to_a = Node("0", Node("0"), None)  # through p
    assert minimal.accepts(to_a)
    assert not minimal.accepts(Node("0", Node("1"), None))  # through q
    assert minimal.run(Node("0", to_a, None)) == minimal.run(Node("1", to_a, None))  # r, s
    assert len(minimal.states) == 6  # i, p, q, a, {b, r, s} and the dead class


def _twinned(rng, width):
    """A random deterministic automaton over 2k states in which state x + k
    twins x: its pairs' rows are x's with one column's 0 and 1 swapped in
    every guard, in either position, so the two always have equal symbol
    counts per block.  Most rows split on that column first."""
    k, column = rng.randint(1, 4), rng.randrange(width)

    def cubes(pattern, free):
        if not free or rng.random() < 0.5:
            return [pattern]
        j = rng.choice(free)
        return [cube for bit in "01"
                for cube in cubes(pattern[:j] + bit + pattern[j + 1:], [f for f in free if f != j])]

    def flipped(guard):
        return guard[:column] + {"0": "1", "1": "0", "*": "*"}[guard[column]] + guard[column + 1:]

    star, others = "*" * width, [j for j in range(width) if j != column]
    table = {}
    for left, right in itertools.product(range(k), repeat=2):
        if rng.random() < 0.3:
            continue
        halves = ([star[:column] + bit + star[column + 1:] for bit in "01"]
                  if rng.random() < 0.8 else [star])
        row = {cube: rng.randrange(2 * k) for half in halves for cube in cubes(half, others)
               if rng.random() < 0.8}
        flip = {flipped(g): t for g, t in row.items()}
        table.update({(left, right): row, (left + k, right): flip,
                      (left, right + k): flip, (left + k, right + k): row})
    finals = {s for s in range(k) if rng.random() < 0.4}
    return TreeAutomaton(width, range(2 * k), 0, finals | {f + k for f in finals}, table)


def test_minimize_twins_with_colliding_counts_randomized():
    # Twins stay together through the symbol counts; the diagrams then split
    # those that differ.  515 cases leave a block of two after the counts,
    # and in 208 of them the diagrams split a block.
    rng = random.Random(2029)
    second_stage = split = 0
    for _ in range(150):
        aut = _twinned(rng, rng.randint(1, 3))
        for variant in (aut, aut.complement(), aut.with_materialized_sink(),
                        _with_added_sink(aut)):
            _assert_minimize_matches_dense(variant)
            minimal = variant.minimize()
            classes = ref_count_classes(variant)
            if any(len(members) > 1 for members in classes):
                second_stage += 1
                # an unreached dead state alone in its block is dropped
                split += len(minimal.states) + (minimal.sink is None) > len(classes)
            canonical = minimal.renumbered()
            assert automaton_fields(_unmemoized(canonical).renumbered()) == \
                automaton_fields(canonical)
            assert automaton_fields(canonical.minimize()) == automaton_fields(canonical)
    assert second_stage >= 400 and split >= 150


def test_minimize_requires_deterministic():
    nd = sing_automaton().project(0)
    with pytest.raises(AutomatonError):
        nd.minimize()


def test_merge_patterns_traffic_is_pairwise_disjoint(monkeypatch, capsys):
    # determinize and minimize pass merge_patterns pairwise-disjoint cubes,
    # the only input it is specified for; its output is pairwise disjoint
    calls = []
    merge = gp.merge_patterns

    def recording(patterns):
        patterns = list(patterns)
        out = merge(patterns)
        calls.append((patterns, out))
        return out

    monkeypatch.setattr(gp, "merge_patterns", recording)
    texts = [fixture_text(path.name) for path in sorted(FIXTURES.glob("*.mso"))]
    texts.append(chain_text(16, "v", "S"))
    texts += [text for text, _, _ in ORACLE_SUITE
              if any(q in text for q in ("ex1", "ex2", "all1", "all2"))]
    for text in texts:
        compiled(text)
    assert main(["solve", "--all", str(FIXTURES / "lexicon.clp"),
                 "?- lexicon(x)."]) == 0
    assert main(["solve", "--all", str(FIXTURES / "parse_pipeline.clp"),
                 "?- { in(a, John) & in(b, Sees) & in(c, Mary) & prec(a, b) "
                 "& prec(b, c) } & parse(a, b, c)."]) == 0
    capsys.readouterr()
    assert calls
    for patterns, out in calls:
        for cubes in (patterns, out):
            assert all(gp.meet(a, b) is None for a, b in
                       itertools.combinations(set(cubes), 2)), patterns


# ----------------------------------------------------------------------
# projection and cylindrification


def test_project_reference_y(ac_com_automaton):
    det = ac_com_automaton.project(1).determinize()
    expected = parse_tree("(0 (1 () ()) (0 (0 () ()) ()))")
    assert det.accepts(expected)
    # brute force: erased tree accepted iff some y-placement is accepted
    for shape in iter_trees(4, 1):
        placements = _with_second_bit(shape)
        assert det.accepts(shape) == any(
            ac_com_automaton.accepts(p) for p in placements)


def _with_second_bit(shape):
    """All width-2 relabelings of a width-1 tree adding one extra bit."""
    nodes = node_count(shape)
    combos = []
    for mask in range(2 ** nodes):
        counter = [0]

        def relabel(t):
            if t is None:
                return None
            bit = "1" if mask >> counter[0] & 1 else "0"
            counter[0] += 1
            return Node(t.label + bit, relabel(t.left), relabel(t.right))

        combos.append(relabel(shape))
    return combos


def test_project_to_width_zero():
    projected = sing_automaton().project(0)
    assert projected.width == 0


def test_project_empty_stays_empty():
    assert TreeAutomaton.empty_language(2).project(1).determinize().is_empty()


def test_project_position_range(ac_com_automaton):
    with pytest.raises(AutomatonError):
        ac_com_automaton.project(2)
    with pytest.raises(AutomatonError):
        ac_com_automaton.cylindrify(3)


def test_cylindrify_section_law(ac_com_automaton):
    for pos in range(3):
        cyl = ac_com_automaton.cylindrify(pos)
        assert cyl.width == 3
        back = cyl.project(pos).determinize()
        assert back.equivalent(ac_com_automaton)


def _remap_cases(seed):
    """Random automata, each with a wider width and increasing positions."""
    rng = random.Random(seed)
    for aut in _random_automata(rng, 60, (0, 3), 6):
        width = aut.width + rng.randint(0, 3)
        yield aut, sorted(rng.sample(range(width), aut.width)), width


def test_remap_places_bits_and_keeps_guard_order():
    for aut, positions, width in _remap_cases(1414):
        remapped = aut.remap(positions, width)
        assert remapped.width == width
        assert (remapped.states, remapped.initial, remapped.finals,
                remapped.sink, remapped.deterministic) == \
            (aut.states, aut.initial, aut.finals, aut.sink, aut.deterministic)
        assert list(remapped.transitions) == list(aut.transitions)
        for pair, entries in aut.transitions.items():
            # the remapped guards come out of the constructor's sort in
            # the order of the guards they came from
            expected = []
            for guard, targets in entries:
                chars = ["*"] * width
                for bit, pos in zip(gp.text(guard, aut.width), positions):
                    chars[pos] = bit
                expected.append((gp.parse("".join(chars), width), targets))
            assert list(remapped.transitions[pair]) == expected


def test_remap_commutes_with_the_operations():
    # an operation on remapped automata gives the remapped result, field
    # for field: the solver's compile cache and the compiler's atom table
    # rest on this
    cases = list(_remap_cases(1515))
    for (a, positions, width), (b, _, _) in zip(cases, cases[1:]):
        if b.width != a.width:
            continue
        ra, rb = a.remap(positions, width), b.remap(positions, width)
        assert automaton_fields(ra.intersect(rb).minimize()) == \
            automaton_fields(a.intersect(b).minimize().remap(positions, width))
        assert automaton_fields(ra.union(rb).minimize()) == \
            automaton_fields(a.union(b).minimize().remap(positions, width))
        assert automaton_fields(ra.determinize().minimize().complement()) == \
            automaton_fields(a.determinize().minimize().complement().remap(positions, width))


def test_remap_rejects_positions_out_of_order(ac_com_automaton):
    assert automaton_fields(ac_com_automaton.remap([0, 1], 2)) == automaton_fields(ac_com_automaton)
    assert automaton_fields(ac_com_automaton.remap([0, 2], 3)) == \
        automaton_fields(ac_com_automaton.cylindrify(1))
    for positions, width in [([1, 0], 2), ([0, 0], 2), ([0, 2], 2),
                             ([0], 2), ([-1, 0], 2), ([0, 1, 2], 3)]:
        with pytest.raises(AutomatonError):
            ac_com_automaton.remap(positions, width)


def test_cylindrify_all_trees():
    cyl = TreeAutomaton.all_trees(1).cylindrify(0)
    assert cyl.equivalent(TreeAutomaton.all_trees(2))


def test_cylindrify_ignores_new_bit(ac_com_automaton):
    cyl = ac_com_automaton.cylindrify(0)
    for first_bits in ("0000", "1111", "0101"):
        bits = iter(first_bits)

        def pad(t):
            if t is None:
                return None
            return Node(next(bits) + t.label, pad(t.left), pad(t.right))

        padded = pad(T_ACCEPT)
        assert cyl.accepts(padded)


# ----------------------------------------------------------------------
# equivalence and witnesses


def test_equivalent_through_pipeline(ac_com_automaton):
    pipeline = ac_com_automaton.determinize().minimize()
    assert ac_com_automaton.equivalent(pipeline)


def test_equivalent_complement_differs(ac_com_automaton):
    assert not ac_com_automaton.equivalent(ac_com_automaton.complement())


def _two_sided_complement_equivalent(a, b):
    a = a if a.deterministic else a.determinize()
    b = b if b.deterministic else b.determinize()
    return (a.intersect(b.complement()).is_empty()
            and b.intersect(a.complement()).is_empty())


def test_equivalent_matches_two_sided_complement_randomized():
    rng = random.Random(67)
    makers = [random_deterministic, random_label_deterministic,
              random_nondeterministic]
    answers = []
    for _ in range(300):
        width = rng.randint(0, 2)
        a = rng.choice(makers)(rng, width)
        other = rng.choice(makers)(rng, width)
        b = rng.choice([other, a.union(other), a.determinize().minimize(),
                        a.determinize().complement()])
        want = _two_sided_complement_equivalent(a, b)
        assert a.equivalent(b) == want
        assert b.equivalent(a) == want
        answers.append(want)
    assert any(answers) and not all(answers)


def test_witness_of_empty_is_missing():
    assert TreeAutomaton.empty_language(1).witness() is None


def test_witness_lambda_when_initial_final():
    aut = TreeAutomaton(1, {"q"}, "q", {"q"}, {})
    assert aut.witness() is None  # the empty tree
    assert aut.accepts(None)


def test_witness_reference(ac_com_automaton):
    tree = ac_com_automaton.witness()
    assert node_count(tree) == 4
    assert ac_com_automaton.accepts(tree)
    assert tree == T_ACCEPT


def test_witness_is_minimal_randomized():
    rng = random.Random(23)
    cases = [random_deterministic(rng, width=1) for _ in range(20)]
    # every generator at widths 1-2; ties on size are common at this size.
    # Only these skip the search for witnesses over 5 nodes.
    cases += _random_automata(random.Random(24), 300, (1, 2), 4)
    for i, aut in enumerate(cases):
        tree = aut.witness()
        if aut.is_empty():
            assert tree is None and not aut.accepts(None)
            continue
        assert aut.accepts(tree)
        if i >= 20 and node_count(tree) > 5:
            continue
        best = min((t for t in iter_trees(node_count(tree), aut.width)
                    if aut.accepts(t)), key=tree_sort_key)
        assert tree == best


def test_witness_matches_sweep():
    # oracle.ref_witness sweeps the whole table to a fixpoint: equal trees,
    # None included
    automata = []
    for aut in _random_automata(random.Random(31), 300, (0, 3), 6):
        automata += _variants(aut)
    texts = [fixture_text(path.name) for path in sorted(FIXTURES.glob("*.mso"))]
    texts += [chain_text(width, "v", "S") for width in range(8, 17, 2)]
    texts += CONTRADICTIONS + [text for text, _, _ in ORACLE_SUITE]
    for text in texts:
        aut = compiled(text)[0]
        automata += [aut, aut.complement()]
    assert len(texts) == 4 + 5 + 10 + len(ORACLE_SUITE)
    for aut in automata:
        assert aut.witness() == ref_witness(aut)


# ----------------------------------------------------------------------
# totality


def test_deterministic_totality_exactly_one_transition():
    rng = random.Random(29)
    for _ in range(20):
        aut = random_deterministic(rng, width=2).with_materialized_sink()
        states = sorted(aut.states)
        for left in states:
            for right in states:
                entries = aut.transitions.get((left, right), ())
                for symbol in ("00", "01", "10", "11"):
                    hits = [t for g, t in entries
                            if gp.matches(g, gp.parse(symbol, 2))]
                    assert len(hits) == 1


def test_materialized_sink_shares_rows():
    # Pairs that read one listed row, by identity, share one total row, and
    # so do the unlisted pairs; pairs that read different rows do not.
    rng = random.Random(3011)
    shared_somewhere = False
    for _ in range(40):
        aut = random_deterministic(rng, width=2, max_states=6).minimize()
        total = aut.with_materialized_sink()
        pairs = list(itertools.product(total.states, repeat=2))
        listed = [id(aut.transitions.get(pair)) for pair in pairs]  # None if unlisted
        rows = [id(total.transitions[pair]) for pair in pairs]
        assert len(set(zip(listed, rows))) == len(set(listed)) == len(set(rows))
        shared_somewhere |= len(set(rows)) < len(pairs)
    assert shared_somewhere
    row = ((gp.parse("0", 1), 1),)
    aut = TreeAutomaton._canonical(1, 2, 0, {1}, {(0, 0): row, (0, 1): row}, True)
    total = aut.with_materialized_sink()
    assert total.transitions[0, 0] is total.transitions[0, 1]
    assert len({id(r) for r in total.transitions.values()}) == 2


# ----------------------------------------------------------------------
# serialization


def test_text_roundtrip(ac_com_automaton):
    text = ac_com_automaton.to_text()
    again = TreeAutomaton.from_text(text)
    assert again.equivalent(ac_com_automaton)
    assert again.to_text() == text


def test_text_roundtrip_width_zero():
    aut = TreeAutomaton.all_trees(0).minimize()
    text = aut.to_text()
    assert "trans q0 q0 - -> q0" in text
    assert TreeAutomaton.from_text(text).equivalent(aut)


def test_from_text_sink_synthesis(ac_com_automaton):
    # fixture mentions five states but declares six: one implicit sink
    assert len(ac_com_automaton.states) == 6
    assert ac_com_automaton.sink is not None


def test_from_text_errors():
    with pytest.raises(AutomatonError):
        TreeAutomaton.from_text("states 2\ninitial q\n")
    with pytest.raises(AutomatonError):
        TreeAutomaton.from_text("width 1\nstates 5\ninitial q\nfinals q\n")
    with pytest.raises(AutomatonError):
        TreeAutomaton.from_text("width 1\ninitial q\ntrans q q 0 q\n")


_CONSTRUCTOR_ERRORS = [
    # (width, states, initial, finals, sink, transitions, error, message)
    (2, {"q"}, "q", set(), None, {("q", "q"): {"0": "q"}},
     ValueError, "guard '0' has length 1, expected 2"),
    (0, {"q"}, "q", set(), None, {("q", "q"): {"0": "q"}},
     ValueError, "guard '0' has length 1, expected 0"),
    (2, {"q"}, "q", set(), None, {("q", "q"): {"0x": "q"}},
     ValueError, "guard '0x' contains invalid characters ['x']"),
    (2, {"q"}, "q", set(), None, {("q", "q"): {"0*": "q", "01": "q"}},
     AutomatonError, "overlapping guards '0*'/'01' on pair (q, q)"),
    # several errors in one input: the first in _validate's order wins
    (2, {"q"}, "p", set(), None, {("q", "q"): {"0x": "q"}},
     AutomatonError, "initial state 'p' not a state"),
    (2, {"q", "s"}, "q", {"s"}, "s", {("q", "q"): {"0x": "q"}},
     AutomatonError, "sink cannot be final"),
    (2, {"a", "b"}, "a", set(), None,
     {("a", "b"): {"0*": "a", "01": "a"}, ("b", "a"): {"0x": "a"}},
     AutomatonError, "overlapping guards '0*'/'01' on pair (a, b)"),
    (2, {"a", "b"}, "a", set(), None,
     {("b", "a"): {"0*": "a", "01": "a"}, ("a", "b"): {"0x": "a"}},
     ValueError, "guard '0x' contains invalid characters ['x']"),
    (2, {"q"}, "q", set(), None, {("q", "q"): {"**": "zz", "0x": "q"}},
     AutomatonError, "transition to unknown state(s) {'zz'}"),
    (2, {"q"}, "q", set(), None, {("q", "q"): {"0x": "zz"}},
     ValueError, "guard '0x' contains invalid characters ['x']"),
    (2, {"q"}, "q", set(), None, {("q", "q"): {"0*": "q", "01": "q", "1x": "q"}},
     ValueError, "guard '1x' contains invalid characters ['x']"),
]


@pytest.mark.parametrize("case", _CONSTRUCTOR_ERRORS)
def test_constructor_guard_errors_keep_their_texts(case):
    width, states, initial, finals, sink, transitions, error, message = case
    with pytest.raises(error) as raised:
        TreeAutomaton(width, states, initial, finals, transitions, sink=sink)
    assert str(raised.value) == message


_TEXT_ERRORS = [
    ("width 2\ninitial q\ntrans q q 0 -> q\n",
     "guard '0' has length 1, expected 2"),
    ("width 2\ninitial q\ntrans q q - -> q\n",
     "guard '' has length 0, expected 2"),
    ("width 0\ninitial q\ntrans q q 0 -> q\n",
     "guard '0' has length 1, expected 0"),
    ("width 2\ninitial q\ntrans q q 0x -> q\n",
     "guard '0x' contains invalid characters ['x']"),
    # several errors: the sink line is read first; an overlap elsewhere
    # only makes the automaton nondeterministic
    ("width 2\nstates 2\ninitial q\nfinals s\nsink s\ntrans q q 0x -> q\n",
     "sink cannot be final"),
    ("width 2\ninitial q\ntrans q q 1* -> q\ntrans q q 0x -> q\n"
     "trans q r 0* -> q\ntrans q r 01 -> r\n",
     "guard '0x' contains invalid characters ['x']"),
    # a malformed guard that determinism depends on, and so the sink check,
    # is reported first
    ("width 2\nstates 2\ninitial q\nfinals s\nsink s\ntrans q q 0x -> q\n"
     "trans q q 0* -> q\n",
     "guard '0x' contains invalid characters ['x']"),
]


@pytest.mark.parametrize("text, message", _TEXT_ERRORS)
def test_text_guard_errors_keep_their_texts(text, message, tmp_path, capsys):
    with pytest.raises(ValueError) as raised:
        TreeAutomaton.from_text(text)
    assert str(raised.value) == message
    (tmp_path / "a.aut").write_text(text)
    (tmp_path / "t.tree").write_text("()\n")
    assert main(["member", str(tmp_path / "a.aut"), str(tmp_path / "t.tree")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_text_and_int_guards_build_equal_automata():
    rng = random.Random(7)
    for aut in _random_automata(rng, 100, (0, 3), 4):
        as_text = {pair: [(gp.text(g, aut.width), ts) for g, ts in entries]
                   for pair, entries in aut.transitions.items()}
        built = [TreeAutomaton(aut.width, aut.states, aut.initial, aut.finals,
                               table, aut.deterministic, aut.sink)
                 for table in (as_text, aut.transitions)]
        assert automaton_fields(built[0]) == automaton_fields(built[1]) == \
            automaton_fields(aut)


def test_renumbered_is_canonical(ac_com_automaton):
    aut = ac_com_automaton
    one = aut.renumbered()
    # renaming states should not change the canonical form; these names
    # number the states in the reverse order
    name = [f"s{len(aut.states) - i}" for i in aut.states]
    shuffled = TreeAutomaton(
        aut.width, set(name), name[aut.initial], {name[s] for s in aut.finals},
        {(name[l], name[r]): [(g, name[t]) for g, t in entries]
         for (l, r), entries in aut.transitions.items()},
        sink=name[aut.sink])
    assert shuffled.transitions != aut.transitions
    assert shuffled.renumbered().to_text() == one.to_text()


def _unmemoized(aut):
    """``aut``'s fields in a new automaton, its memos empty."""
    return TreeAutomaton._canonical(aut.width, len(aut.states), aut.initial, aut.finals,
                                    aut.transitions, aut.deterministic, aut.sink)


def test_renumbered_is_idempotent_and_memoized():
    # a second call, or one on the result, returns the result; renumbering
    # a copy of the result without its memo changes no field; and the
    # reached states, when known, come along renamed
    rng = random.Random(6000)
    for i, aut in enumerate(_random_automata(rng, 6000, (0, 3), 5)):
        if i % 2:
            aut.reachable_states()
        one = aut.renumbered()
        assert aut.renumbered() is one and one.renumbered() is one
        assert automaton_fields(_unmemoized(one).renumbered()) == automaton_fields(one)
        if i % 2:
            assert one._reached == one.reachable_states_detailed()[0]


AWKWARD_NAMES = ("dead", "sink", "z", "q10", "q2", "m0", "0")


def _renamed(aut, rng):
    """``aut`` read back from its text with every state name replaced, by a
    seeded bijection, with one of ``AWKWARD_NAMES``."""
    names = aut.names or [f"q{i}" for i in aut.states]
    new = dict(zip(names, rng.sample(AWKWARD_NAMES, len(names))))
    lines = []
    for line in aut.to_text().splitlines():
        words = line.split()
        if words[0] in ("initial", "finals", "sink"):
            words[1:] = [new[w] for w in words[1:]]
        elif words[0] == "trans":
            words[1], words[2], words[5] = new[words[1]], new[words[2]], new[words[5]]
        lines.append(" ".join(words))
    return TreeAutomaton.from_text("\n".join(lines) + "\n")


def _structure(aut, number):
    """The automaton's fields but its names, its states renumbered by ``number``."""
    return (aut.width, len(aut.states), number[aut.initial],
            frozenset(number[f] for f in aut.finals),
            None if aut.sink is None else number[aut.sink], aut.deterministic,
            frozenset((number[l], number[r], g, number[t])
                      for (l, r), entries in aut.transitions.items()
                      for g, ts in entries for t in entry_targets(ts)))


def _assert_same_canonical_form(one, two):
    """``renumbered()`` prints both alike, except where it orders states by
    their numbers, which a renaming changes: the states no listed entry
    reaches come last in input order, and a nondeterministic entry's targets
    are found in input order.  Those states may differ by a permutation."""
    one, two = one.renumbered(), two.renumbered()
    if one.to_text() == two.to_text():
        return
    found = {one.initial}
    while grown := {t for (l, r), entries in one.transitions.items()
                    if l in found and r in found
                    for _, ts in entries for t in entry_targets(ts)} - found:
        found |= grown
    rest = [s for s in one.states
            if not one.deterministic or s not in found and s != one.sink]
    assert len(rest) > 1, (one.to_text(), two.to_text())
    want = _structure(one, list(one.states))
    for perm in itertools.permutations(rest):
        number = list(two.states)
        for s, t in zip(rest, perm):
            number[s] = t
        if _structure(two, number) == want:
            return
    raise AssertionError((one.to_text(), two.to_text()))


def test_no_output_depends_on_state_names():
    # 200 seeded random automata of every generator, each read back from its
    # text with its states renamed onto awkward names, which number them in
    # another order; every operation gives both the same canonical form,
    # emptiness, witness and verdicts.
    rng = random.Random(2053)
    trips = 0
    trees_by_width: dict[int, list] = {}
    compared = 0
    for aut in _random_automata(rng, 200, (0, 2), 4):
        renamed = _renamed(aut, rng)
        for one in (aut, renamed):
            back = TreeAutomaton.from_text(one.to_text())
            # The text carries every field unless an unlisted state becomes
            # the sink or disjoint single-target entries read as deterministic.
            if back.deterministic == one.deterministic and back.sink == one.sink:
                trips += 1
                assert automaton_fields(back) == automaton_fields(one)
                assert back.names == one.names
        if (renamed.deterministic, renamed.sink is None) != \
                (aut.deterministic, aut.sink is None):
            continue  # not the same automaton under other names
        compared += 1
        other = _GENERATORS[rng.randrange(3)](rng, aut.width, 3)
        pos = rng.randrange(aut.width) if aut.width else None

        def operations(a):
            out = [a.renumbered(), a.determinize(), a.intersect(other),
                   a.union(other), zero_pad_closure(a)]
            if pos is not None:
                out.append(a.project(pos))
            if a.deterministic:
                out += [a.minimize(), a.complement()]
            return out

        for one, two in zip(operations(aut), operations(renamed)):
            _assert_same_canonical_form(one, two)
            assert one.is_empty() == two.is_empty()
            assert one.witness() == two.witness()
            trees = trees_by_width.setdefault(one.width, list(iter_trees(4, one.width)))
            assert [one.accepts(t) for t in trees] == [two.accepts(t) for t in trees]
    assert trips > 350 and compared > 180


# ----------------------------------------------------------------------
# trusted construction


def _trusted(monkeypatch, build):
    """Every automaton built through ``TreeAutomaton._canonical`` while
    ``build()`` runs."""
    made = []
    canonical = TreeAutomaton._canonical.__func__

    def recorded(cls, *fields):
        made.append(canonical(cls, *fields))
        return made[-1]

    monkeypatch.setattr(TreeAutomaton, "_canonical", classmethod(recorded))
    build()
    monkeypatch.undo()
    return made


def _assert_canonical(aut):
    """The table is what the public constructor would make of it, with
    int targets in deterministic mode and frozensets of them otherwise."""
    table = aut.transitions
    again = TreeAutomaton(aut.width, aut.states, aut.initial, aut.finals, table,
                          aut.deterministic, aut.sink)
    assert list(table.items()) == list(again.transitions.items())
    assert all(type(entries) is tuple for entries in table.values())
    assert all(type(ts) is (int if aut.deterministic else frozenset)
               for entries in table.values() for _, ts in entries)


def _run_operations(rng, aut):
    """Every trusted construction of ``aut``, with a second automaton of
    its width where one is needed."""
    other = _GENERATORS[rng.randrange(3)](rng, aut.width, 3)
    aut.intersect(other)
    aut.union(other)
    aut._product(other, operator.ne)
    aut.determinize()
    aut.renumbered()
    width = aut.width + rng.randint(1, 2)
    aut.remap(sorted(rng.sample(range(width), aut.width)), width)
    if aut.deterministic:
        aut.complement()
        aut.with_materialized_sink()
        aut.minimize()


def test_trusted_tables_are_canonical(monkeypatch):
    rng = random.Random(2041)
    cases = []
    for aut in _random_automata(rng, 200, (0, 3), 4):
        cases.append(aut)
        if aut.deterministic:
            cases.append(_with_added_sink(aut))
    made = _trusted(monkeypatch, lambda: [_run_operations(rng, aut)
                                          for aut in cases])
    fixtures = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.mso"))]
    chains = [chain_text(width, "v", "S") for width in range(8, 17)]
    made += _trusted(monkeypatch, lambda: [compiled(text)
                                           for text in fixtures + chains])
    assert len(made) > 3000
    for aut in made:
        _assert_canonical(aut)


# ----------------------------------------------------------------------
# exploration


def test_explore_steps_each_distinct_read_once(monkeypatch):
    # The product, the subset construction and renumbered hand _explore
    # their reads; each pair is probed once, a falsy read is never stepped,
    # a truthy one is stepped once, and order and table are those of
    # stepping every pair.
    rng = random.Random(2511)
    calls = []
    explore = automata._explore

    def recorded(root, rows, step):
        calls.append((root, rows, step))
        return explore(root, rows, step)

    monkeypatch.setattr(automata, "_explore", recorded)
    for aut in _random_automata(rng, 200, (0, 3), 4):
        _run_operations(rng, aut)
    monkeypatch.undo()
    assert len(calls) > 1000
    for root, rows, step in calls:
        probes = 0
        stepped = []

        def counted_rows(left, right):
            nonlocal probes
            probes += 1
            return rows(left, right)

        def counted_step(read):
            stepped.append(read)
            return step(read)

        order, table = automata._explore(root, counted_rows, counted_step)
        assert probes == len(order) ** 2
        assert all(stepped) and len(set(stepped)) == len(stepped)
        assert set(stepped) == {read for left in order for right in order
                                if (read := rows(left, right))}
        ref_order, ref_table = ref_explore(
            root, lambda left, right: step(read) if (read := rows(left, right)) else ())
        assert order == ref_order
        assert list(table.items()) == list(ref_table.items())
