import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treelogic.formulas import (And, Atom, Call, Exists1, Forall1, FormulaError,
                                Iff, Implies, MacroError, Not, Or, SortError,
                                VarTable, _has_call, _map_vars, _Parser,
                                build_var_table, desugar, expand_macros,
                                format_formula, free_variables, parse_formula,
                                rename_bound_apart, substitute, tokenize)

import oracle
from conftest import fixture_text


def parse_one(text):
    formula, defs = parse_formula(text)
    return expand_macros(formula, defs)


# ----------------------------------------------------------------------
# parsing


def test_parse_simple_conjunction():
    formula, defs = parse_formula("prec(x,y) & ~rdom(x,y)")
    assert defs == []
    assert formula == And(Atom("prec", ("x", "y")),
                          Not(Atom("rdom", ("x", "y"))))


def test_parse_c_command_definition():
    formula, defs = parse_formula(fixture_text("ac_com.mso"))
    assert len(defs) == 1
    assert defs[0].name == "CCom"
    # three top-level conjuncts: CCom(x,y), ~CCom(y,x), prec(x,y)
    assert isinstance(formula, And)
    assert formula.right == Atom("prec", ("x", "y"))
    assert isinstance(formula.left, And)
    assert formula.left.left == Call("CCom", ("x", "y"))
    assert formula.left.right == Not(Call("CCom", ("y", "x")))
    # the macro body embeds a universal quantifier and a negation
    assert isinstance(defs[0].body, And)
    assert isinstance(defs[0].body.left, Forall1)
    assert isinstance(defs[0].body.right, Not)


def test_parse_precedence_and_associativity():
    f, _ = parse_formula("~in(x,X) & in(y,Y) | sing(Z) -> true <-> false")
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, Or)
    assert isinstance(f.left.left.left, And)
    assert isinstance(f.left.left.left.left, Not)
    g, _ = parse_formula("in(x,X) -> in(y,Y) -> in(z,Z)")
    assert isinstance(g, Implies)
    assert isinstance(g.right, Implies)  # right-associative


def test_parse_quantifier_scope_and_sugar():
    f, _ = parse_formula("ex1 x, y. prec(x, y) & eq1(x, x)")
    assert isinstance(f, Exists1) and f.var == "x"
    assert isinstance(f.body, Exists1) and f.body.var == "y"
    assert isinstance(f.body.body, And)  # scope runs to the end


def test_parse_variable_is_not_a_formula():
    with pytest.raises(SortError):
        parse_formula("ex1 x. X")


def test_parse_sort_violations():
    with pytest.raises(SortError):
        parse_formula("pdom(X, y)")
    with pytest.raises(SortError):
        parse_formula("in(X, Y)")
    with pytest.raises(SortError):
        parse_formula("sing(x)")
    with pytest.raises(SortError):
        parse_formula("ex1 X. sing(X)")


def test_parse_errors_carry_position():
    with pytest.raises(FormulaError) as err:
        parse_formula("prec(x,\n  %comment\n  )")
    assert err.value.line == 3


def _parse_outcome(parser):
    try:
        return parser.parse_file()[0]
    except FormulaError as exc:
        return type(exc), str(exc)


def test_precedence_table_matches_per_level_parser_randomized():
    # One precedence function over a table must give the per-level
    # methods' trees, and their errors where the text is malformed.
    rng = random.Random(23)
    errors = 0
    for _ in range(3000):
        tokens = tokenize(oracle.random_formula_text(rng))
        expected = _parse_outcome(oracle.PerLevelParser(tokens))
        assert _parse_outcome(_Parser(tokens)) == expected
        errors += isinstance(expected, tuple)
    assert 100 < errors < 2900


def test_parse_unknown_relation():
    with pytest.raises(MacroError):
        parse_formula("dominates(x, y)")


# ----------------------------------------------------------------------
# macros


def test_macro_expansion_inlines_body():
    text = """
    def Gap(a, b) := pdom(a, b) & ~idom(a, b);
    Gap(x, y) | Gap(y, x)
    """
    expanded = parse_one(text)
    assert expanded == Or(
        And(Atom("pdom", ("x", "y")), Not(Atom("idom", ("x", "y")))),
        And(Atom("pdom", ("y", "x")), Not(Atom("idom", ("y", "x")))))


def test_macro_expansion_identity_without_calls():
    f, _ = parse_formula("prec(x, y)")
    assert expand_macros(f, []) == f


def test_macro_recursion_rejected():
    with pytest.raises(MacroError):
        parse_formula("def A(x) := A(x); A(y)")


def test_macro_nonparameter_variable_rejected():
    with pytest.raises(MacroError):
        parse_formula("def Bad(x) := in(x, Hidden); Bad(y)")


def test_macro_arity_and_sort_checked_at_call():
    with pytest.raises(MacroError):
        parse_formula("def P(x) := eq1(x, x); P(x, y)")
    with pytest.raises(SortError):
        parse_formula("def P(x) := eq1(x, x); P(X)")


@pytest.mark.parametrize("text, cls, message, position", [
    ("in(x)", FormulaError, "in takes 2 argument(s), got 1", (1, 1)),
    ("in(X, y)", SortError, "argument 'X' of in must be first-order", (1, 1)),
    ("def M(a, B) := in(a, B);\nM(x)", MacroError,
     "macro M takes 2 argument(s), got 1", (2, 1)),
    ("def M(a, B) := in(a, B);\nM(X, Y)", SortError,
     "argument 'X' of macro M must be first-order", (2, 1)),
])
def test_call_argument_errors_are_pinned(text, cls, message, position):
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert type(err.value) is cls
    assert (err.value.message, (err.value.line, err.value.column)) == \
        (message, position)


def test_macro_expansion_avoids_capture():
    text = """
    def Above(a) := ex1 z. pdom(z, a);
    Above(z)
    """
    expanded = parse_one(text)
    assert isinstance(expanded, Exists1)
    assert expanded.var != "z"
    assert expanded.body == Atom("pdom", (expanded.var, "z"))


def test_expansion_preserves_free_variables():
    formula, defs = parse_formula(fixture_text("ac_com.mso"))
    assert free_variables(expand_macros(formula, defs)) == \
        free_variables(formula)


# ----------------------------------------------------------------------
# variable tables


def test_var_table_from_c_command():
    table = build_var_table(parse_one(fixture_text("ac_com.mso")))
    assert table.entries == (("x", "first"), ("y", "first"))
    assert table.width == 2
    assert table.position("y") == 1


def test_var_table_closed_formula_keeps_ambient():
    ambient = VarTable((("x", "first"),))
    table = build_var_table(parse_one("ex1 z. eq1(z, z)"), ambient)
    assert table is ambient or table.entries == ambient.entries


def test_var_table_intervention_order():
    table = build_var_table(parse_one(fixture_text("local_c_command.mso")))
    assert table.names() == ("P", "x", "y")
    assert table.sort_of("P") == "second"


def test_var_table_sort_clash():
    table = VarTable((("x", "second"),))
    with pytest.raises(SortError):
        table.extended("x", "first")


# ----------------------------------------------------------------------
# transformations


def test_desugar_eliminates_derived_connectives():
    f = parse_one("(in(x,X) -> in(y,Y)) & (all1 z. eq1(z, z))")
    d = desugar(f)

    def scan(g):
        assert not isinstance(g, (Implies, Iff, Forall1))
        for attr in ("left", "right", "body"):
            if hasattr(g, attr):
                scan(getattr(g, attr))

    scan(d)


def test_rename_bound_apart():
    f = parse_one("(ex1 z. pdom(z, x)) & (ex1 z. pdom(z, y))")
    renamed = rename_bound_apart(f)
    assert renamed.left.var != renamed.right.var
    assert free_variables(renamed) == free_variables(f)


def test_substitute_capture_avoidance():
    f = parse_one("ex1 z. prec(z, other)")
    g = substitute(f, {"other": "z"})
    assert isinstance(g, Exists1)
    assert g.var != "z"
    assert g.body == Atom("prec", (g.var, "z"))


def _logged(log, fn):
    def wrapped(name):
        log.append(name)
        return fn(name)
    return wrapped


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MacroError as exc:
        return type(exc), str(exc)


def _fresh_names():
    counter = itertools.count(1)
    return lambda v: f"{v}_{next(counter)}"


def _check_walks_match(f, macros, rng):
    assert free_variables(f) == oracle.ref_free_variables(f)
    bound = frozenset(rng.sample(["x", "z", "z_1", "X", "Y_1"], 2))
    assert [(name, sort) for name, sort in free_variables(f) if name not in bound] \
        == oracle.ref_free_variables(f, bound)
    assert _has_call(f) == oracle.ref_has_call(f)
    assert desugar(f) == oracle.ref_desugar(f)
    avoid = frozenset(rng.sample(["x", "y", "z", "z_1", "z_2", "X", "Y"], 3))
    assert rename_bound_apart(f) == oracle.ref_rename_bound_apart(f)
    assert rename_bound_apart(f, avoid) == oracle.ref_rename_bound_apart(f, avoid)
    names = {"x": "z", "y": "y_1", "X": "Y"}
    new_log, ref_log = [], []
    assert _map_vars(f, _logged(new_log, lambda a: names.get(a, a))) == \
        oracle.ref_map_vars(f, _logged(ref_log, lambda a: names.get(a, a)))
    assert new_log == ref_log
    mapping = {"x": rng.choice(["z", "z_1", "y"]), "z": "x",
               rng.choice(["X", "Y"]): rng.choice(["Y", "Y_1"])}
    assert substitute(f, mapping) == oracle.ref_substitute(f, mapping)
    new_log, ref_log = [], []
    assert substitute(f, mapping, _logged(new_log, _fresh_names())) == \
        oracle.ref_substitute(f, mapping, _logged(ref_log, _fresh_names()))
    assert new_log == ref_log
    expanded = _outcome(expand_macros, f, macros)
    assert expanded == _outcome(oracle.ref_expand_macros, f, macros)
    return expanded


def test_walks_match_per_kind_walks_randomized():
    # The shared-dispatch walks must give the old per-kind walks' results
    # and invent the same fresh names in the same order.
    rng = random.Random(7)
    for _ in range(400):
        macros = oracle.random_macros(rng)
        f = oracle.random_formula(rng, 5, macros)
        expanded = _check_walks_match(f, macros, rng)
        if not isinstance(expanded, tuple):
            _check_walks_match(expanded, [], rng)
    for name in ("ac_com.mso", "local_c_command.mso", "chain8.mso",
                 "union_negation_ex1.mso"):
        formula, defs = parse_formula(fixture_text(name))
        _check_walks_match(expand_macros(formula, defs), [], rng)
        for macro in defs:
            _check_walks_match(macro.body, defs, rng)


# ----------------------------------------------------------------------
# printing round-trip


def _formulas():
    first = st.sampled_from(["x", "y", "z"])
    second = st.sampled_from(["X", "Y"])
    atoms = st.one_of(
        st.builds(lambda a, b: Atom("prec", (a, b)), first, first),
        st.builds(lambda a, b: Atom("pdom", (a, b)), first, first),
        st.builds(lambda a, b: Atom("in", (a, b)), first, second),
        st.builds(lambda a: Atom("sing", (a,)), second),
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
            st.builds(Exists1, first, children),
            st.builds(Forall1, first, children),
        )

    return st.recursive(atoms, extend, max_leaves=8)


def test_printer_matches_printer_with_own_tables_randomized():
    rng = random.Random(5)
    for _ in range(400):
        f = oracle.random_formula(rng, 5, oracle.random_macros(rng))
        assert format_formula(f) == oracle.ref_format_formula(f)


def test_printer_takes_deep_formulas():
    negated = Atom("sing", ("X",))
    for _ in range(10 ** 5):
        negated = Not(negated)
    assert format_formula(negated) == "~" * 10 ** 5 + "sing(X)"
    chain = Atom("sing", ("X",))
    for _ in range(10 ** 5 - 1):
        chain = And(chain, Atom("sing", ("X",)))
    # A left operand of ``&`` is parenthesised, so 10**5 - 2 groups open.
    assert format_formula(chain) == ("(" * (10 ** 5 - 2) + "sing(X) & sing(X)"
                                     + ") & sing(X)" * (10 ** 5 - 2))


@given(_formulas())
def test_print_parse_roundtrip(f):
    text = format_formula(f)
    parsed, defs = parse_formula(text)
    assert defs == []
    assert parsed == f
