import random

import pytest

from treelogic.clp import (Clause, GoalAtom, Program, ProgramError, Query,
                           Solver, SolveError, entails,
                           initial_store, load_program, parse_query, solve)
from treelogic import clp, compiler
from treelogic.cli import main
from treelogic.compiler import CompilationContext, compile_formula
from treelogic.formulas import (FormulaError, _binder_depth, free_variables,
                                parse_formula)
from treelogic.trees import addresses, format_tree

from conftest import FIXTURES, automaton_fields, fixture_text
from oracle import (RecursiveSolver, evaluate, is_prec, random_formula,
                    ref_compile_formula)


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
    with pytest.raises(FormulaError) as err:
        load_program("p(x) <- { in(x) }.")
    assert type(err.value) is ProgramError
    assert (err.value.message, (err.value.line, err.value.column)) == \
        ("in constraint: in takes 2 argument(s), got 1", (1, 11))


def test_recursion_warning_on_second_order():
    program = load_program("walk(X) <- { sub(X, X) } & walk(X).")
    assert any("second-order" in w for w in program.warnings)
    fine = load_program("walk(x) <- { eq1(x, x) } & walk(x).")
    assert fine.warnings == []
    # a cycle through q: r calls into it and s an undefined predicate, and
    # neither warns; a cycle over first-order variables only does not warn
    program = load_program("p(X) <- { sub(X, X) } & q(X).\n"
                           "q(X) <- p(X).\n"
                           "r(X) <- p(X).\n"
                           "s(x) <- t(x).\n")
    assert program.warnings == [
        f"clause {i} ({name}/1): recursive predicate uses second-order "
        "variable(s) X; derivations may not terminate"
        for i, name in [(1, "p"), (2, "q")]]
    assert load_program("p(x) <- q(x).\nq(x) <- p(x).").warnings == []


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


LOOP = "loop(x) <- { eq1(x, x) } & loop(x)."
STEP = """
    step(x) <- { in(x, Done) }.
    step(x) <- { eq1(x, x) } & step(x).
"""


def test_deep_derivation_is_cut_without_recursion_error():
    solver = Solver(load_program(LOOP), depth=2000)
    assert list(solver.solve(parse_query("?- loop(x)."))) == []
    assert solver.truncated_branches == 1


def test_iterative_deepening_finds_solutions_once():
    program = load_program(STEP)
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


# ----------------------------------------------------------------------
# one search loop: the same solutions, events, fresh names and cut
# branches as the plain and iterative-deepening loops it replaced


def _search(solver_class, program, query, **options):
    events = []
    solver = solver_class(program, **options,
                          on_event=lambda kind, detail: events.append((kind, detail)))
    solutions = [(format_tree(s.tree), s.assignment,
                  s.store.automaton.renumbered().to_text())
                 for s in solver.solve(parse_query(query))]
    return solutions, events, solver.truncated_branches


def _parity_cases():
    lexicon = fixture_text("lexicon.clp")
    pipeline = fixture_text("parse_pipeline.clp")
    yield lexicon, "?- lexicon(x).", {}
    yield lexicon, "?- { sing(Q) } & lexicon(x) & lexicon(y).", {}
    yield pipeline, GOOD_INPUT, {}
    yield pipeline, BAD_INPUT, {}
    for depth in range(10):
        yield STEP, "?- step(x).", {"depth": depth, "iterative_deepening": True}
        yield STEP, "?- step(x).", {"depth": depth}
    for depth in range(6):
        yield LOOP, "?- loop(x).", {"depth": depth, "iterative_deepening": True}
        yield LOOP, "?- loop(x).", {"depth": depth}


def test_search_matches_recursive_search():
    for text, query, options in _parity_cases():
        program = load_program(text)
        assert _search(Solver, program, query, **options) == \
            _search(RecursiveSolver, program, query, **options), (query, options)


# ----------------------------------------------------------------------
# compiling once per query: an applied constraint is a fresh context's
# compile, and a compile over the whole table gives the same automaton
# (field for field) or, with a quantifier, an equivalent one


def _applications(program, query, **options):
    """The solver after running the query to the end, each constraint it
    compiled with its table and the automaton it intersected, and its
    events."""
    events = []
    solver = Solver(program, **options,
                    on_event=lambda kind, detail: events.append((kind, detail)))
    applied = []

    def capture(formula, ctx):
        automaton = compile_formula(formula, ctx)
        applied.append((formula, ctx.table, automaton))
        return automaton

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clp, "compile_formula", capture)
        list(solver.solve(query))
    return solver, applied, events


THREE_WORDS = ("?- { prec(x, y) & prec(y, z) } "
               "& lexicon(x) & lexicon(y) & lexicon(z).")
UP = """
    up(x) <- { idom(y, x) } & up(y).
    up(x) <- { ~(ex1 z. idom(z, x)) }.
"""


def _random_clause_programs(count):
    """Seeded programs whose constraints come from ``random_formula``:
    ``?- { f0 } & p.`` against ``p <- { f1 } & q & q.``, ``q <- { f2 }.``
    and ``q <- { f3 }.``  Lowercase variables of a clause are fresh at every
    application and uppercase ones shared, so the two ``q`` goals meet the
    same constraints over other columns."""
    def formula(rng):
        while True:
            f = random_formula(rng, 1)
            if len(free_variables(f)) <= 2:
                return f

    q = GoalAtom("q", ())
    for seed in range(count):
        rng = random.Random(seed)
        f0, f1, f2, f3 = (formula(rng) for _ in range(4))
        program = Program([Clause("p", (), f1, (q, q)), Clause("q", (), f2, ()),
                           Clause("q", (), f3, ())])
        yield program, Query(f0, (GoalAtom("p", ()),))


def _check_against_references(applied):
    for formula, table, automaton in applied:
        fresh = compile_formula(formula, CompilationContext(table))
        assert automaton_fields(automaton) == automaton_fields(fresh), (formula, table)
        full = ref_compile_formula(formula, CompilationContext(table))
        if _binder_depth(formula):
            assert automaton.equivalent(full), (formula, table)
        else:
            assert automaton_fields(automaton) == automaton_fields(full), (formula, table)


def _solver_cases(lexicon, pipeline):
    cases = [(lexicon, parse_query("?- lexicon(x)."), {}),
             (lexicon, parse_query(THREE_WORDS), {}),
             (pipeline, parse_query(GOOD_INPUT), {}),
             (pipeline, parse_query(BAD_INPUT), {}),
             (load_program(UP), parse_query("?- up(x)."), {"depth": 8})]
    return cases + [(program, query, {})
                    for program, query in _random_clause_programs(60)]


def test_cached_constraints_equal_full_width_compiles(lexicon, pipeline):
    compiles = hits = 0
    for program, query, options in _solver_cases(lexicon, pipeline):
        solver, applied, _ = _applications(program, query, **options)
        _check_against_references(applied)
        compiles += len(applied)
        hits += solver.cache_hits
    assert (compiles, hits) == (368, 159)


def _whole_formulas(solver):
    return [key for key in solver._context.compiled if key[0] is compiler._whole]


def test_three_word_lexicon_query_hits_the_cache(lexicon):
    solver, applied, events = _applications(lexicon, parse_query(THREE_WORDS))
    cached = [detail["cached"] for kind, detail in events if kind == "constrain"]
    # the query's constraint is compiled first and has no event
    assert (len(applied), len(cached), solver.cache_hits) == (40, 39, 37)
    assert cached.count(True) == 37
    assert len(_whole_formulas(solver)) == 3


def test_quantified_constraint_applied_twice_is_compiled_once(pipeline):
    solver, applied, events = _applications(
        pipeline, parse_query("?- classes_ok & classes_ok."))
    constrains = [d for kind, d in events if kind == "constrain"]
    assert [d["cached"] for d in constrains] == [False, True]
    assert solver.cache_hits == 1
    # the query's ``true`` and classes_ok's quantified constraint
    assert len(_whole_formulas(solver)) == 2
    [_, first, second] = applied
    assert first[0] == second[0] and _binder_depth(first[0]) == 1
    assert automaton_fields(first[2]) == automaton_fields(second[2])
    _check_against_references(applied)


# ----------------------------------------------------------------------
# the store-step memo: a step found there is the step made afresh, and the
# memo never holds more than its bound


def _store_steps(program, query, **options):
    """The solver after running the query to the end, and each store step
    it made: the store, the compiled constraint and the step's result."""
    solver = Solver(program, **options)
    steps, compiled = [], []
    constrain = solver._constrain

    def capture(formula, ctx):
        compiled.append(compile_formula(formula, ctx))
        return compiled[-1]

    def recorded(store, formula):
        result = constrain(store, formula)
        steps.append((store, compiled.pop(), result))
        assert len(solver._steps) <= clp.STORE_STEPS
        return result

    solver._constrain = recorded
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clp, "compile_formula", capture)
        list(solver.solve(query))
    return solver, steps


# The root is in X, or it is not: the two constraints compile to automata
# that differ in their finals alone, so only the finals tell the two store
# steps from the same store apart.
ROOT = """
    root(X) <- { ex1 r. (in(r, X) & ~ex1 y. pdom(y, r)) }.
    root(X) <- { ~ex1 r. (in(r, X) & ~ex1 y. pdom(y, r)) }.
"""


def _check_against_fresh_steps(steps):
    for store, compiled, result in steps:
        fresh = (store.automaton.remap(range(store.table.width), compiled.width)
                 .intersect(compiled).minimize())
        if result is None:
            assert not fresh.finals
        else:
            assert automaton_fields(result.automaton) == automaton_fields(fresh)


@pytest.mark.parametrize("bound, expected_hits", [(32, 49), (4, 30)])
def test_store_memo_hits_equal_fresh_steps(lexicon, pipeline, monkeypatch,
                                           bound, expected_hits):
    # Every store step, found in the memo or not, is the product of the
    # store and the compiled constraint, minimized afresh; _store_steps
    # checks the bound after each one.
    monkeypatch.setattr(clp, "STORE_STEPS", bound)
    steps_made = hits = 0
    cases = _solver_cases(lexicon, pipeline)
    cases.append((load_program(ROOT), parse_query("?- root(X)."), {}))
    for program, query, options in cases:
        solver, steps = _store_steps(program, query, **options)
        _check_against_fresh_steps(steps)
        steps_made += len(steps)
        hits += solver.store_hits
    assert (steps_made, hits) == (371, expected_hits)


def test_three_word_lexicon_query_hits_the_store_memo(lexicon):
    # 40 store steps, the query's own first; 25 repeat an earlier step
    solver, steps = _store_steps(lexicon, parse_query(THREE_WORDS))
    assert (len(steps), solver.store_hits) == (40, 25)
    assert len(solver._steps) <= clp.STORE_STEPS


def test_small_store_memo_solves_alike(capsys, monkeypatch):
    # A memo of 4 steps evicts often; the solutions and stores stay the same.
    queries = [("lexicon.clp", THREE_WORDS), ("parse_pipeline.clp", GOOD_INPUT),
               ("parse_pipeline.clp", BAD_INPUT)]

    def outputs():
        runs = []
        for name, query in queries:
            code = main(["solve", "--all", str(FIXTURES / name), query])
            runs.append((code, capsys.readouterr()))
        return runs

    default = outputs()
    monkeypatch.setattr(clp, "STORE_STEPS", 4)
    assert outputs() == default
    assert [code for code, _ in default] == [0, 0, 3]
