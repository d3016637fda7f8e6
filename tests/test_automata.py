import itertools
import operator
import random
import sys
import threading

import pytest

from treelogic import AutomatonError, TreeAutomaton, automata
from treelogic import guards as gp
from treelogic.cli import main
from treelogic.compiler import zero_pad_closure
from treelogic.trees import (Node, format_tree, node_count, parse_tree,
                             tree_sort_key, validate_tree)

from conftest import FIXTURES, automaton_fields, fixture_text
from oracle import (iter_trees, language_sample, random_deterministic,
                    random_label_deterministic, random_nondeterministic,
                    random_tree, recursive_accepts, recursive_run,
                    recursive_run_set, ref_determinize, ref_minimize, ref_product,
                    ref_reachable_states_detailed, ref_witness)
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
    aut = ac_com_automaton
    assert aut.run(Node("10")) == "a3"
    assert aut.run(Node("00", Node("01"), None)) == "a2"
    assert aut.run(T_ACCEPT) == "a4"
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
    tree = Node(bottom)
    for _ in range(depth - 1):
        tree = Node(label, tree, None)
    return tree


@pytest.mark.parametrize("tree, error, message", [
    (Node("00", Node("1"), None), ValueError, "bad label '1', expected 2 bits"),
    (Node("101", Node("10"), None), ValueError, "bad label '10', expected 3 bits"),
    (_chain(50, "01", "0a"), ValueError, "bad label '0a', expected 2 bits"),
    (Node("101", Node("011"), None), AutomatonError,
     "tree labels have width 3, automaton has width 2"),
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


def test_runs_finish_on_deep_chain():
    sing = sing_automaton()
    closed = zero_pad_closure(sing)
    tree = _chain(10**5, "0", "1")
    assert validate_tree(tree) == 1
    assert sing.accepts(tree)
    assert closed.accepts(tree)
    assert closed.run_set(_chain(10**5, "0", "0")).isdisjoint(closed.finals)
    with pytest.raises(ValueError, match="bad label '2'"):
        sing.accepts(_chain(10**5, "0", "2"))


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

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


# ----------------------------------------------------------------------
# reachability and emptiness


def test_reachable_on_reference(ac_com_automaton):
    reached = ac_com_automaton.reachable_states()
    assert reached == frozenset({"a0", "a1", "a2", "a3", "a4",
                                 ac_com_automaton.sink})


def test_reachable_trivial_cases():
    single = TreeAutomaton(1, {"q"}, "q", set(), {})
    assert single.reachable_states() == frozenset({"q"})
    looped = TreeAutomaton(1, {"q", "r"}, "q", set(),
                           {("q", "q"): {"*": "q"}})
    assert looped.reachable_states() == frozenset({"q"})


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
        named = TreeAutomaton(aut.width, aut.states, aut.initial, aut.finals,
                              aut.transitions, sink=rng.choice(sorted(aut.states)),
                              validate=False)
        for variant in (aut, named, aut.minimize(), aut.with_materialized_sink()):
            _assert_reachable_matches_scan(variant)
    # every generator, and the complement and subset construction too
    for aut in _random_automata(random.Random(2025), 60, (0, 3), 6):
        for variant in _variants(aut):
            _assert_reachable_matches_scan(variant)


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
    # every product the compiler builds for the fixtures and the chains
    seen = []
    product = TreeAutomaton._product

    def recorded(self, other, accept):
        seen.append((self, other, accept))
        return product(self, other, accept)

    monkeypatch.setattr(TreeAutomaton, "_product", recorded)
    fixtures = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.mso"))]
    for text in fixtures + [chain_text(width, "v", "S") for width in range(8, 17, 2)]:
        compiled(text)
    monkeypatch.undo()
    assert len(seen) > 100
    for a, b, accept in seen:
        _assert_product_matches_all_pairs(a, b, accept)


def test_width_16_chain_meets_few_guards(monkeypatch):
    # The product meets only pairs both operands list, and the entries of
    # two listed pairs once per product: 7,111 calls here, against 16,239
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
    # literal atom tables (in, prec, sing) go through _normalize, against
    # 66 calls when every construction normalized its own table.
    calls = 0
    normalize = automata._normalize

    def counted(transitions):
        nonlocal calls
        calls += 1
        return normalize(transitions)

    monkeypatch.setattr(automata, "_normalize", counted)
    compiled(chain_text(16, "v", "S"))
    assert calls <= 3


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
            named = TreeAutomaton(width, aut.states | {"a"}, aut.initial,
                                  aut.finals, aut.transitions, sink="a")
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
            named = TreeAutomaton(variant.width, variant.states | {"sink"},
                                  variant.initial, variant.finals,
                                  variant.transitions, sink="sink")
            renamed = TreeAutomaton(variant.width, variant.states, variant.initial,
                                    variant.finals - {max(variant.states)},
                                    variant.transitions, sink=max(variant.states),
                                    validate=False)
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
    fixtures = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.mso"))]
    chains = [chain_text(width, "v", "S") for width in range(8, 17, 2)]
    steps = _minimize_inputs(monkeypatch, fixtures + chains)
    assert len(steps) > len(fixtures + chains)
    for aut in steps:
        _assert_minimize_matches_dense(aut)


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
            assert all(gp.disjoint(a, b) for a, b in
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
                for bit, pos in zip(guard, positions):
                    chars[pos] = bit
                expected.append(("".join(chars), targets))
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
                    hits = [t for g, t in entries if gp.matches(g, symbol)]
                    assert len(hits) == 1


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
    assert "trans m0 m0 - -> m0" in text
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


def test_renumbered_is_canonical(ac_com_automaton):
    one = ac_com_automaton.renumbered()
    # renaming states should not change the canonical form
    shuffled = TreeAutomaton(
        ac_com_automaton.width,
        {f"s_{s}" for s in ac_com_automaton.states},
        f"s_{ac_com_automaton.initial}",
        {f"s_{s}" for s in ac_com_automaton.finals},
        {(f"s_{l}", f"s_{r}"): [(g, {f"s_{t}" for t in ts}) for g, ts in entries]
         for (l, r), entries in ac_com_automaton.transitions.items()},
        sink=f"s_{ac_com_automaton.sink}")
    assert shuffled.renumbered().to_text() == one.to_text()


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
    """The table is what the public constructor would make of it."""
    table = aut.transitions
    assert list(table.items()) == list(automata._normalize(table).items())
    assert all(type(entries) is tuple for entries in table.values())
    assert all(type(ts) is frozenset
               for entries in table.values() for _, ts in entries)
    if aut.deterministic:
        aut._validate()


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
            cases.append(TreeAutomaton(aut.width, aut.states | {"sink"},
                                       aut.initial, aut.finals,
                                       aut.transitions, sink="sink"))
    made = _trusted(monkeypatch, lambda: [_run_operations(rng, aut)
                                          for aut in cases])
    fixtures = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.mso"))]
    chains = [chain_text(width, "v", "S") for width in range(8, 17)]
    made += _trusted(monkeypatch, lambda: [compiled(text)
                                           for text in fixtures + chains])
    assert len(made) > 3000
    for aut in made:
        _assert_canonical(aut)
