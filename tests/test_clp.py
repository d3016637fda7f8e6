import pytest

from treelogic.clp import (ProgramError, Solver, SolveError, entails,
                           initial_store, load_program, parse_query, solve)
from treelogic.formulas import FormulaError, parse_formula
from treelogic.trees import addresses

from conftest import fixture_text
from oracle import evaluate, is_prec


def fml(text):
    return parse_formula(text)[0]


# ----------------------------------------------------------------------
# parsing


def test_load_lexicon():
    program = load_program(fixture_text("lexicon.clp"))
    assert len(program.clauses) == 3
    assert all(c.name == "lexicon" and c.params == ("x",)
               for c in program.clauses)
    assert all(not c.body for c in program.clauses)
    assert program.warnings == []


def test_load_driver_clause_shape():
    program = load_program(
        "parse(Words, Parse) <- { sub(Words, Parse) } "
        "& yield(Words, Parse) & xbar(Parse) & ecp(Parse).")
    clause = program.clauses[0]
    assert clause.params == ("Words", "Parse")
    assert len(clause.body) == 3
    assert [g.name for g in clause.body] == ["yield", "xbar", "ecp"]
    assert clause.constraint == fml("sub(Words, Parse)")


def test_load_empty_program():
    program = load_program("% nothing here\n")
    assert program.clauses == []


def test_load_errors():
    with pytest.raises(ProgramError):
        load_program("Upper(x) <- { true }.")
    with pytest.raises(ProgramError):
        load_program("p(x, x).")
    with pytest.raises(ProgramError):
        load_program("p(x) <- q(x) & { true }.")
    with pytest.raises(ProgramError):
        load_program("p(x) <- { pdom(X, y) }.")


def test_load_errors_are_formula_errors_with_positions():
    with pytest.raises(FormulaError) as err:
        load_program("p(x).\n\nq(x) <- { pdom(X, y) }.")
    assert isinstance(err.value, ProgramError)
    assert (err.value.line, err.value.column) == (3, 11)
    with pytest.raises(ProgramError) as err:
        parse_query("?- p(x).\n  q")
    assert (err.value.line, err.value.column) == (2, 3)


def test_recursion_warning_on_second_order():
    program = load_program("walk(X) <- { sub(X, X) } & walk(X).")
    assert any("second-order" in w for w in program.warnings)
    fine = load_program("walk(x) <- { eq1(x, x) } & walk(x).")
    assert fine.warnings == []


def test_parse_query_shapes():
    q = parse_query("?- { prec(x, y) } & p(x) & q(y).")
    assert [g.name for g in q.goals] == ["p", "q"]
    q2 = parse_query("?- p(x).")
    assert q2.constraint == fml("true")
    with pytest.raises(ProgramError):
        parse_query("p(x).")


# ----------------------------------------------------------------------
# solving


@pytest.fixture(scope="module")
def lexicon():
    return load_program(fixture_text("lexicon.clp"))


def test_lexicon_three_solutions_with_entailments(lexicon):
    solutions = list(solve(lexicon, parse_query("?- lexicon(x).")))
    assert len(solutions) == 3
    expected = ["in(x, Sees) & in(x, V)",
                "in(x, John) & in(x, N)",
                "in(x, Mary) & in(x, N)"]
    for solution, text in zip(solutions, expected):
        assert entails(solution.store, fml(text))
    # entailment is not vacuous: the first store leaves V's extent open
    assert not entails(solutions[0].store, fml("~in(x, Sees)"))
    assert not entails(solutions[0].store, fml("eqset(Sees, V)"))


def test_unsatisfiable_query_constraint(lexicon):
    solutions = list(solve(lexicon, parse_query("?- { prec(x, x) } & lexicon(x).")))
    assert solutions == []


def test_unknown_predicate(lexicon):
    with pytest.raises(SolveError):
        list(solve(lexicon, parse_query("?- missing(x).")))


def test_solution_assignment_is_singleton(lexicon):
    solution = next(iter(solve(lexicon, parse_query("?- lexicon(x)."))))
    assert len(solution.assignment["x"]) == 1
    addr = solution.assignment["x"][0]
    assert addr in addresses(solution.tree)


def test_clause_order_only_permutes_solutions(lexicon):
    reordered = load_program("\n".join(reversed(
        [line for line in fixture_text("lexicon.clp").splitlines()
         if line and not line.startswith("%")])))
    a = list(solve(lexicon, parse_query("?- lexicon(x).")))
    b = list(solve(reordered, parse_query("?- lexicon(x).")))
    assert len(a) == len(b) == 3
    matched = set()
    for sa in a:
        for j, sb in enumerate(b):
            if j in matched:
                continue
            if sa.store.table.entries == sb.store.table.entries and \
                    sa.store.automaton.equivalent(sb.store.automaton):
                matched.add(j)
                break
    assert len(matched) == 3


def test_store_shrinks_along_branch(lexicon):
    # capture before/after stores of every constraint-solving step
    solver = Solver(lexicon)
    stores = []
    original = solver._constrain

    def capture(store, formula):
        result = original(store, formula)
        stores.append((store, result))
        return result

    solver._constrain = capture
    list(solver.solve(parse_query("?- { sing(A) } & lexicon(x).")))
    for before, after in stores:
        if after is None:
            continue
        widened = before.automaton
        for pos in range(before.table.width, after.table.width):
            widened = widened.cylindrify(pos)
        assert after.automaton.intersect(widened.complement()).is_empty()


def test_quantified_clause_variable_may_collide_with_table_name():
    # the clause's bound y must stay independent of the query's global y
    program = load_program("above(x) <- { ex1 y. pdom(y, x) }.")
    query = parse_query("?- { in(y, A) } & above(x).")
    solutions = list(solve(program, query))
    assert len(solutions) == 1
    assert entails(solutions[0].store, fml("ex1 z. pdom(z, x)"))


def test_depth_bound_terminates_and_reports():
    looping = load_program("loop(x) <- { eq1(x, x) } & loop(x).")
    solver = Solver(looping, depth=12)
    assert list(solver.solve(parse_query("?- loop(x)."))) == []
    assert solver.truncated_branches == 1


def test_iterative_deepening_finds_solutions_once():
    program = load_program("""
        step(x) <- { in(x, Done) }.
        step(x) <- { eq1(x, x) } & step(x).
    """)
    solver = Solver(program, depth=8, iterative_deepening=True)
    solutions = list(solver.solve(parse_query("?- step(x).")))
    assert len(solutions) == 8  # one per unrolling depth, no duplicates
    assert all(entails(s.store, fml("in(x, Done)")) for s in solutions)


def test_solution_witnesses_satisfy_applied_constraints(lexicon):
    applied = []
    solver = Solver(lexicon)
    original = solver._constrain

    def capture(store, formula):
        result = original(store, formula)
        if result is not None:
            applied.append((formula, result))
        return result

    solver._constrain = capture
    solutions = list(solver.solve(parse_query("?- { sing(Q) } & lexicon(x).")))
    assert len(solutions) == 3
    for solution in solutions:
        for formula, _ in applied:
            names = {n for n, _ in solution.store.table.entries}
            from treelogic.formulas import free_variables
            if all(n in names for n, _ in free_variables(formula)):
                assert evaluate(formula, solution.tree, solution.store.table)


# ----------------------------------------------------------------------
# the toy parsing pipeline


@pytest.fixture(scope="module")
def pipeline():
    return load_program(fixture_text("parse_pipeline.clp"))


GOOD_INPUT = ("?- { in(a, John) & in(b, Sees) & in(c, Mary) "
              "& prec(a, b) & prec(b, c) } & parse(a, b, c).")
BAD_INPUT = ("?- { in(a, Sees) & in(b, John) & in(c, Mary) "
             "& prec(a, b) & prec(b, c) } & parse(a, b, c).")


def test_toy_parse_accepts_ordered_input(pipeline):
    solutions = list(solve(pipeline, parse_query(GOOD_INPUT)))
    assert len(solutions) == 1
    solution = solutions[0]
    john = solution.assignment["John"]
    sees = solution.assignment["Sees"]
    mary = solution.assignment["Mary"]
    assert len(john) == len(sees) == len(mary) == 1
    assert is_prec(john[0], sees[0])
    assert is_prec(sees[0], mary[0])


def test_toy_parse_rejects_permuted_input(pipeline):
    assert list(solve(pipeline, parse_query(BAD_INPUT))) == []


# ----------------------------------------------------------------------
# entailment basics


def test_entails_true_and_reflexive():
    store = initial_store()
    assert entails(store, fml("true"))
    q = parse_query("?- { in(x, A) } & ok.")
    program = load_program("ok.")
    solution = next(iter(solve(program, q)))
    assert entails(solution.store, fml("in(x, A)"))
    with pytest.raises(SolveError):
        entails(solution.store, fml("in(y, A)"))
