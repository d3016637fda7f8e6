import itertools
import random
import sys

import pytest

from treelogic import AutomatonError, TreeAutomaton, compiler
from treelogic.compiler import (CompilationContext, CompileError,
                                WidthOverflowError, base_automaton,
                                compile_formula, is_satisfiable, stats_lines,
                                zero_pad_closure)
from treelogic.formulas import (ATOM_SORTS, FIRST, Atom, VarTable,
                                build_var_table, expand_macros, parse_formula)
from treelogic.trees import Node, node_count

from conftest import FIXTURES, automaton_fields, fixture_text
from oracle import (evaluate, iter_trees, language_sample, random_formula,
                    ref_base_automaton, ref_compile, ref_compile_formula)
from test_acceptance import ORACLE_SUITE

sys.path.append(str(FIXTURES.parent.parent / "benchmarks"))
from workloads import chain_text  # noqa: E402

T_SIBLINGS = Node("00", Node("10"), Node("01"))


def compiled(text, ambient=None, **kw):
    formula, defs = parse_formula(text)
    expanded = expand_macros(formula, defs)
    table = build_var_table(expanded, ambient)
    ctx = CompilationContext(table=table, **kw)
    return compile_formula(expanded, ctx), table, ctx


# ----------------------------------------------------------------------
# base automata


def test_singleton_base_shape_and_language():
    aut = base_automaton("sing", (0,), 1)
    assert len(aut.states) == 3
    assert not aut.accepts(None)
    # brute force over every labeling with up to 3 nodes
    for tree in iter_trees(3, 1):
        ones = sum(label.count("1") for label in _labels_of(tree))
        assert aut.accepts(tree) == (ones == 1)


def _labels_of(tree):
    if tree is None:
        return []
    return [tree.label] + _labels_of(tree.left) + _labels_of(tree.right)


def test_precedence_with_singletons_accepts_sibling_order():
    prec = base_automaton("prec", (0, 1), 2)
    both = prec.intersect(base_automaton("sing", (0,), 2)) \
               .intersect(base_automaton("sing", (1,), 2))
    assert both.accepts(T_SIBLINGS)
    assert not both.accepts(Node("00", Node("01"), Node("10")))


def test_proper_domination_needs_dominating_node():
    pdom = base_automaton("pdom", (0, 1), 2)
    assert not pdom.accepts(Node("00", Node("01"), None))  # no x at all
    assert pdom.accepts(Node("10", Node("01"), None))
    assert not pdom.accepts(Node("11"))  # same node is not proper


def test_base_positions_validated():
    with pytest.raises(CompileError):
        base_automaton("prec", (0, 2), 2)
    with pytest.raises(CompileError):
        base_automaton("sing", (0, 1), 2)


def test_reflexive_instances():
    assert base_automaton("rdom", (1, 1), 2).equivalent(TreeAutomaton.all_trees(2))
    assert base_automaton("prec", (1, 1), 2).is_empty()
    assert base_automaton("idom", (0, 0), 1).is_empty()


def test_atom_table_matches_base_automaton():
    # one context per width, so later position tuples hit shapes that
    # earlier ones stored
    for width in range(1, 6):
        ctx = CompilationContext(VarTable())
        table = VarTable(tuple((f"p{i}", FIRST) for i in range(width)))
        for kind, sorts in ATOM_SORTS.items():
            for positions in itertools.product(range(width), repeat=len(sorts)):
                atom = Atom(kind, tuple(f"p{i}" for i in positions))
                assert automaton_fields(compiler._compact(
                    ctx, compiler._atom, atom, table)) == \
                    automaton_fields(base_automaton(kind, positions, width)), \
                    (kind, positions, width)
        # one entry per kind and pattern of ranks: sing, and each binary
        # relation on one position and, from width 2 on, on two in both
        # orders
        assert len(ctx.compiled) == 1 + 8 * (1 if width == 1 else 3)
    assert "compiled" not in repr(ctx)


def test_base_automaton_matches_full_width_reference():
    for width in range(1, 7):
        for kind, sorts in ATOM_SORTS.items():
            for positions in itertools.product(range(width), repeat=len(sorts)):
                assert automaton_fields(base_automaton(kind, positions, width)) == \
                    automaton_fields(ref_base_automaton(kind, positions, width)), \
                    (kind, positions, width)
    # each relation's table is minimal as written: minimizing it keeps its
    # states, plus the sink
    for kind, (states, _, _) in compiler._TABLES.items():
        arity = len(ATOM_SORTS[kind])
        assert len(base_automaton(kind, range(arity), arity).states) == \
            len(states) + 1, kind


def test_atom_table_is_read_by_the_compiler(monkeypatch):
    built = []
    real = compiler.base_automaton
    monkeypatch.setattr(compiler, "base_automaton",
                        lambda *args: built.append(args) or real(*args))
    aut, table, ctx = compiled("prec(x, y) & prec(y, z) & prec(z, x) & sub(X, X) "
                               "& in(x, X) & in(y, X)")
    # each shape once at its compact width: prec, sub, in, the top-level
    # singletons
    assert sorted(built) == [("in", (0, 1), 2), ("prec", (0, 1), 2),
                             ("prec", (1, 0), 2), ("sing", (0,), 1),
                             ("sub", (0, 0), 1)]
    assert aut.is_empty()


def test_base_against_oracle_on_small_trees():
    cases = ["rdom(x, y)", "pdom(x, y)", "idom(x, y)", "prec(x, y)",
             "eq1(x, y)", "in(x, Y)", "sub(X, Y)", "eqset(X, Y)", "sing(X)"]
    for text in cases:
        aut, table, _ = compiled(text)
        for tree in iter_trees(3, table.width):
            assert aut.accepts(tree) == evaluate(parse_formula(text)[0], tree, table), \
                (text, tree)


# ----------------------------------------------------------------------
# zero-padding closure


def test_closure_is_idempotent(ac_com_automaton):
    once = zero_pad_closure(ac_com_automaton)
    twice = zero_pad_closure(once)
    assert once.equivalent(twice)
    # the reference automaton is already closed
    assert once.equivalent(ac_com_automaton)


def test_closure_of_single_tree_language():
    # accepts exactly one two-node tree
    one = TreeAutomaton(
        1, {"q0", "q1", "q2"}, "q0", {"q2"},
        {("q0", "q0"): {"1": "q1"}, ("q1", "q0"): {"0": "q2"}})
    target = Node("0", Node("1"), None)
    assert language_sample(one, 3) == frozenset({"(0 (1 () ()) ())"})
    closed = zero_pad_closure(one)
    # brute force: closure accepts exactly the zero-frontier variants
    for tree in iter_trees(4, 1):
        assert closed.accepts(tree) == (_strip_zero_frontier(tree) ==
                                        _strip_zero_frontier(target)), tree


def _strip_zero_frontier(tree):
    if tree is None:
        return None
    left = _strip_zero_frontier(tree.left)
    right = _strip_zero_frontier(tree.right)
    if left is None and right is None and set(tree.label) <= {"0"}:
        return None
    return Node(tree.label, left, right)


def test_quantifier_runs_one_closure_and_one_subset_construction(monkeypatch):
    determinized, closed = [], []
    determinize = TreeAutomaton.determinize

    def counted_determinize(self):
        determinized.append(self)
        return determinize(self)

    def counted_closure(aut):
        closed.append(aut)
        return zero_pad_closure(aut)

    monkeypatch.setattr(TreeAutomaton, "determinize", counted_determinize)
    monkeypatch.setattr(compiler, "zero_pad_closure", counted_closure)
    aut, _, ctx = compiled("ex1 z. idom(z, x)")
    assert (len(determinized), len(closed)) == (1, 1)
    assert [s.op for s in ctx.stats] == ["atom:idom", "sing:z", "close",
                                         "exists1", "sing:x"]
    # The close record reports the body and the (nondeterministic) closure of
    # its projection, which keeps the body's states and adds one.
    close = ctx.stats[2]
    assert close.states_in == ctx.stats[1].states_out
    assert close.states_out == close.states_in + 1
    assert ctx.stats[3].states_in == close.states_out


@pytest.mark.parametrize("width", [2, 3])
def test_atoms_are_closed_under_zero_padding(width):
    # The induction base of the one closure per quantifier: the body of a
    # quantifier needs no closure because every atom's language is closed.
    for kind, sorts in sorted(ATOM_SORTS.items()):
        for positions in {p[:len(sorts)] for p in [(0, 1), (1, 0), (0, 0)]}:
            aut = base_automaton(kind, positions, width)
            assert zero_pad_closure(aut).determinize().equivalent(aut), \
                (kind, positions, width)


def _quantifier_parity_formulas():
    fixtures = ["ac_com.mso", "chain8.mso", "local_c_command.mso",
                "union_negation_ex1.mso"]
    for text in ([fixture_text(name) for name in fixtures]
                 + [text for text, _, _ in ORACLE_SUITE]):
        formula, defs = parse_formula(text)
        yield expand_macros(formula, defs)
    rng = random.Random(12)
    for _ in range(150):
        yield random_formula(rng, 2)


def test_quantifier_step_matches_two_closure_step(monkeypatch):
    formulas = list(_quantifier_parity_formulas())

    def compile_all(minimize_steps):
        out = []
        for formula in formulas:
            ctx = CompilationContext(table=build_var_table(formula),
                                     minimize_steps=minimize_steps)
            out.append((compile_formula(formula, ctx), stats_lines(ctx.stats)))
        return out

    new, new_unminimized = compile_all(True), compile_all(False)
    monkeypatch.setattr(compiler, "_compile", ref_compile)
    ref, ref_unminimized = compile_all(True), compile_all(False)
    for formula, (a, a_stats), (b, b_stats) in zip(formulas, new, ref):
        assert a.renumbered().to_text() == b.renumbered().to_text(), formula
        assert a_stats == b_stats, formula
    for formula, (a, _), (b, _) in zip(formulas, new_unminimized,
                                       ref_unminimized):
        assert a.equivalent(b), formula


def test_compile_matches_whole_table_reference():
    # CLI-shaped: the table is the formula's own free variables, so the
    # cached compile over its own columns prints what a compile over the
    # whole table prints
    rng = random.Random(16)
    for _ in range(150):
        formula = random_formula(rng, 3)
        table = build_var_table(formula)
        ctx, ref_ctx = CompilationContext(table), CompilationContext(table)
        aut = compile_formula(formula, ctx)
        ref = ref_compile_formula(formula, ref_ctx)
        assert aut.renumbered().to_text() == ref.renumbered().to_text(), formula
        assert stats_lines(ctx.stats) == stats_lines(ref_ctx.stats), formula


def _count_minimize(monkeypatch) -> list:
    calls = []
    minimize = TreeAutomaton.minimize

    def counted(self):
        calls.append(self)
        return minimize(self)

    monkeypatch.setattr(TreeAutomaton, "minimize", counted)
    return calls


@pytest.mark.parametrize("text, minimizations", [
    ("sub(X, Y)", 1), ("sub(X, X)", 1),
    ("pdom(x, x)", 3),  # pdom, then x's singleton and its "sing:x" step
])
def test_atom_is_minimized_once(monkeypatch, text, minimizations):
    # base_automaton's result is minimal, reflexive shortcuts included, so
    # the compiler records it without minimizing it again.
    minimize = TreeAutomaton.minimize
    calls = _count_minimize(monkeypatch)
    formula, _ = parse_formula(text)
    table = build_var_table(formula)
    aut = base_automaton(formula.kind, [table.position(a) for a in formula.args],
                         table.width)
    assert minimize(aut).to_text() == aut.to_text()
    calls.clear()
    _, _, ctx = compiled(text)
    assert len(calls) == minimizations
    assert ctx.stats[0].op == f"atom:{formula.kind}"
    assert ctx.stats[0].states_in == ctx.stats[0].states_out == len(aut.states)


@pytest.mark.parametrize("text, minimizations", [
    # 19, 25 and 37 without reuse: on a chain, every top-level sing after
    # the first rebuilds the product minimized just before it
    (chain_text(12, "v", "S"), 14), (chain_text(16, "v", "S"), 18),
    (fixture_text("local_c_command.mso"), 35),
], ids=["chain12", "chain16", "local_c_command"])
def test_repeated_minimization_is_reused(monkeypatch, text, minimizations):
    minimize = TreeAutomaton.minimize
    calls = _count_minimize(monkeypatch)
    helper = compiler._minimize
    returned = []

    def recorded(ctx, aut):
        result = helper(ctx, aut)
        returned.append((aut, result))
        return result

    monkeypatch.setattr(compiler, "_minimize", recorded)
    for _ in range(2):  # a fresh context starts with nothing remembered
        calls.clear()
        compiled(text)
        assert len(calls) == minimizations
    assert len(returned) > minimizations
    for aut, result in returned:
        assert automaton_fields(result) == automaton_fields(minimize(aut))


def _guard_variant(field: str | None) -> TreeAutomaton:
    base = {"states": {"a", "b", "s", "t"}, "initial": "a", "finals": {"b"},
            "sink": "s"}
    changed = {"states": {"a", "b", "s", "t", "u"}, "initial": "b",
               "finals": {"a", "b"}, "sink": "t"}
    fields = dict(base, **({field: changed[field]} if field else {}))
    return TreeAutomaton(
        1, fields["states"], fields["initial"], fields["finals"],
        {("a", "a"): {"0": "a", "1": "b"}, ("a", "b"): {"0": "b"},
         ("b", "a"): {"0": "b"}},
        sink=fields["sink"])


@pytest.mark.parametrize("field", ["finals", "initial", "sink", "states"])
def test_minimization_reuse_compares_every_field(monkeypatch, field):
    minimize = TreeAutomaton.minimize
    calls = _count_minimize(monkeypatch)
    ctx = CompilationContext(VarTable())
    base, variant = _guard_variant(None), _guard_variant(field)
    assert variant.transitions == base.transitions
    first = compiler._minimize(ctx, base)
    assert compiler._minimize(ctx, _guard_variant(None)) is first
    assert len(calls) == 1
    result = compiler._minimize(ctx, variant)
    assert calls == [base, variant]
    assert automaton_fields(result) == automaton_fields(minimize(variant))
    nondet = TreeAutomaton(1, base.states, base.initial, base.finals,
                           base.transitions, deterministic=False,
                           sink=base.sink)
    compiler._minimize(ctx, base)
    with pytest.raises(AutomatonError):
        compiler._minimize(ctx, nondet)


def test_closure_accepts_nondeterministic_input():
    from oracle import random_nondeterministic
    rng = random.Random(29)
    for _ in range(60):
        nfa = random_nondeterministic(rng, width=rng.randint(0, 2))
        closed = zero_pad_closure(nfa)
        assert not closed.deterministic
        assert closed.equivalent(zero_pad_closure(nfa.determinize()))


def test_closure_of_empty_is_empty():
    assert zero_pad_closure(TreeAutomaton.empty_language(2)).is_empty()


def test_closure_against_brute_force_randomized():
    # Two trees encode the same assignment iff they share the nonzero core;
    # the closed language holds a tree iff its class meets the language.
    # Accepted trees with up to 8 nodes (5 grafted zero nodes over a 3-node
    # core) surface every inhabited class for these tiny automata; the bound
    # was cross-checked against direct graft enumeration.
    import random
    from oracle import random_deterministic
    rng = random.Random(71)
    for _ in range(12):
        aut = random_deterministic(rng, width=1, max_states=3)
        closed = zero_pad_closure(aut)
        memo = {}
        inhabited = {_strip_zero_frontier(u)
                     for u in iter_trees(8, 1)
                     if _memo_run(aut, u, memo, store=False) in aut.finals}
        for tree in iter_trees(3, 1):
            want = _strip_zero_frontier(tree) in inhabited
            assert closed.accepts(tree) == want, tree


def _memo_run(aut, tree, memo, store=True):
    # The enumeration caches and shares subtrees, so runs can be memoized on
    # object identity; streamed top-level nodes are transient (their ids get
    # recycled) and must not be stored.
    if tree is None:
        return aut.initial
    key = id(tree)
    if store and key in memo:
        return memo[key]
    from treelogic import guards as gp
    left = _memo_run(aut, tree.left, memo)
    right = _memo_run(aut, tree.right, memo)
    state = aut.sink
    if left is not None and right is not None:
        for guard, targets in aut.transitions.get((left, right), ()):
            if gp.matches(guard, tree.label):
                state = next(iter(targets))
                break
    if store:
        memo[key] = state
    return state


# ----------------------------------------------------------------------
# compiling the headline relations


def test_compile_c_command_matches_reference(ac_com_automaton):
    aut, table, _ = compiled(fixture_text("ac_com.mso"))
    assert table.names() == ("x", "y")
    assert len(aut.states) == 6
    assert zero_pad_closure(aut).equivalent(
        zero_pad_closure(ac_com_automaton.minimize()))


def test_compile_local_c_command_matches_reference(local_c_command_automaton):
    aut, table, _ = compiled(fixture_text("local_c_command.mso"))
    assert table.names() == ("P", "x", "y")
    assert len(aut.states) == 6
    assert zero_pad_closure(aut).equivalent(
        zero_pad_closure(local_c_command_automaton.minimize()))


def test_compile_quantified_c_command_is_satisfiable(ac_com_automaton):
    text = fixture_text("ac_com.mso").replace(
        "CCom(x, y) & ~CCom(y, x) & prec(x, y)",
        "ex1 x. ex1 y. CCom(x, y) & ~CCom(y, x) & prec(x, y)")
    aut, table, _ = compiled(text)
    assert table.width == 0
    assert not aut.is_empty()
    # The configuration can always be placed somewhere in the infinite tree,
    # so every finite stand-in (even the empty one) satisfies the formula;
    # the smallest tree whose own labels realize the relation has 4 nodes.
    assert aut.equivalent(TreeAutomaton.all_trees(0))
    assert node_count(ac_com_automaton.witness()) == 4


def test_compile_contradictions_are_empty():
    rng = random.Random(41)
    pool = ["prec(x, y)", "pdom(x, y)", "in(x, X)", "eq1(x, y)",
            "sing(X)", "rdom(y, x)"]
    for _ in range(8):
        base = rng.choice(pool)
        aut, _, _ = compiled(f"({base}) & ~({base})")
        assert aut.is_empty()
        assert len(aut.states) == 1 and not aut.finals


def test_compile_errors():
    formula, _ = parse_formula("prec(x, y)")
    with pytest.raises(CompileError):
        compile_formula(formula, CompilationContext(table=VarTable()))
    with pytest.raises(WidthOverflowError):
        compiled("prec(x, y) & in(z, Z)", max_width=2)


# ----------------------------------------------------------------------
# semantics against the oracle (a slice; the full suite is in acceptance)


ORACLE_CASES = [
    # (formula, margin, why the margin suffices)
    ("sing(X)", 2, "no quantifier; sets come from the labels"),
    ("ex1 y. pdom(x, y)", 2,
     "a dominated node exists among x's children, within one margin level"),
    ("ex1 y. idom(y, x)", 2, "x's parent is in the labeled tree unless x is the root"),
    ("all1 y. rdom(x, y)", 2,
     "a counterexample to total domination exists at the root or beside x"),
    ("ex1 y. ex1 z. prec(y, z)", 2,
     "two ordered nodes exist among the margin children of any node"),
]


@pytest.mark.parametrize("text,margin,why", ORACLE_CASES)
def test_compiled_membership_matches_oracle(text, margin, why):
    formula, _ = parse_formula(text)
    aut, table, _ = compiled(text)
    for tree in iter_trees(4, table.width):
        assert aut.accepts(tree) == evaluate(formula, tree, table, margin), \
            (text, tree, why)


def test_c_command_agrees_with_oracle_on_small_trees():
    # Margin 2 suffices: a counterexample to either universal clause is a
    # proper ancestor of x or y, hence a labeled node.
    formula, defs = parse_formula(fixture_text("ac_com.mso"))
    expanded = expand_macros(formula, defs)
    aut, table, _ = compiled(fixture_text("ac_com.mso"))
    for tree in iter_trees(4, table.width):
        assert aut.accepts(tree) == evaluate(expanded, tree, table), tree


def test_existential_reaches_outside_the_labeled_tree():
    # the quantified node may live beyond the tree's frontier
    aut, table, _ = compiled("ex1 y. pdom(x, y)")
    leaf_only = Node("1")
    assert aut.accepts(leaf_only)
    sing_only, _, _ = compiled("sing(X)")
    assert aut.equivalent(sing_only)


def test_closed_formula_accepts_empty_tree():
    aut, table, _ = compiled("ex1 x. eq1(x, x)")
    assert table.width == 0
    assert aut.accepts(None)
    assert aut.equivalent(TreeAutomaton.all_trees(0))


# ----------------------------------------------------------------------
# invariants


def test_universal_equals_negated_existential():
    for text_a, text_b in [
        ("all1 z. pdom(z, x) -> pdom(z, y)",
         "~(ex1 z. ~(pdom(z, x) -> pdom(z, y)))"),
        ("all2 Z. sub(Z, Z)", "~(ex2 Z. ~sub(Z, Z))"),
    ]:
        a, table, _ = compiled(text_a)
        b, _, _ = compiled(text_b)
        assert a.equivalent(b)


def test_equivalent_formulations_share_state_count():
    pairs = [
        ("pdom(x, y)", "rdom(x, y) & ~eq1(x, y)"),
        ("sub(X, Y)", "all1 z. in(z, X) -> in(z, Y)"),
    ]
    for text_a, text_b in pairs:
        a, ta, _ = compiled(text_a)
        b, tb, _ = compiled(text_b)
        assert ta.entries == tb.entries
        assert a.equivalent(b)
        assert len(a.states) == len(b.states)


def test_compiled_automata_are_padding_closed():
    rng = random.Random(59)
    for text in ["prec(x, y)", "in(x, Y) & sing(Y)",
                 "ex1 z. idom(z, x)", "sub(X, Y)"]:
        aut, table, _ = compiled(text)
        accepted = [t for t in iter_trees(3, table.width) if aut.accepts(t)]
        for tree in rng.sample(accepted, min(10, len(accepted))):
            grown = _grow_once(tree, table.width)
            assert aut.accepts(grown), (text, tree)
            assert aut.accepts(_strip_zero_frontier(tree)), (text, tree)


def _grow_once(tree, width):
    zero = "0" * width
    if tree is None:
        return Node(zero)
    return Node(tree.label, _grow_once(tree.left, width),
                _grow_once(tree.right, width))


def test_stats_record_every_step():
    aut, _, ctx = compiled(fixture_text("ac_com.mso"))
    assert ctx.stats, "compilation must leave a step trace"
    assert ctx.stats[-1].states_out == len(aut.states) == 6
    lines = stats_lines(ctx.stats)
    assert all(line.startswith(f"step={i} op=") for i, line in
               enumerate(lines, 1))
    assert all("states_in=" in line and "states_out=" in line for line in lines)


def test_minimization_policy_switch():
    aut_on, _, ctx_on = compiled("prec(x, y) & prec(y, z)")
    aut_off, _, ctx_off = compiled("prec(x, y) & prec(y, z)",
                                   minimize_steps=False)
    assert aut_on.equivalent(aut_off.determinize() if not aut_off.deterministic
                             else aut_off)
    assert len(aut_off.states) >= len(aut_on.states)


def test_satisfiability_detectors_agree(ac_com_automaton):
    assert is_satisfiable(ac_com_automaton)
    assert not is_satisfiable(TreeAutomaton.empty_language(2))
    aut, _, _ = compiled("prec(x, x)")
    assert not is_satisfiable(aut)
