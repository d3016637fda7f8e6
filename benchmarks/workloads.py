"""The treelogic workloads: inputs made from a seed, the program's set-up,
the timed items of one pass, and checks of every answer against references
that do not come from the compiler (the fixtures' ``.aut`` files, the
brute-force evaluator in ``tests/oracle.py``, and known solution counts).

The seed renames the variables of the generated formulas and programs
(their order, and so every automaton, stays the same) and draws the trees
of the membership workload.  Calls go through module attributes, such as
``compiler.compile_formula``, so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import string
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
for _sub in ("tests", "src"):
    if str(ROOT / _sub) not in sys.path:
        sys.path.insert(0, str(ROOT / _sub))

import oracle  # noqa: E402  (tests/oracle.py: the brute-force evaluator)
from treelogic import automata, clp, compiler, formulas, trees  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


@dataclass
class Answer:
    """What one item gave, with what the runner needs to time, compare and
    check it.  ``first_s`` is the time from the item's start to its first
    answer (the first solution of a query), None when there is none."""

    first_s: float | None
    digest: str
    peak_states: int
    states_out: int
    trans_out: int
    payload: object = None


@dataclass
class Item:
    name: str
    run: Callable[[], Answer]
    check: Callable[[Answer], list[tuple[str, bool]]]


@dataclass
class Workload:
    """``inputs(seed, tiny)`` draws the inputs, untimed; ``setup(inputs,
    hook)`` is the program's timed set-up and returns the items of a pass,
    with ``hook`` receiving the solver's events.  first_solution_ref sums the
    first answers of all items when ``sum_first`` is set (the satisfiable
    queries); otherwise it is the first item's."""

    name: str
    hardest: str
    inputs: Callable[..., object]
    setup: Callable[..., list[Item]]
    sum_first: bool


def entry_count(aut) -> int:
    return sum(len(entries) for entries in aut.transitions.values())


def peak_states(ctx) -> int:
    return max(max(s.states_in, s.states_out) for s in ctx.stats)


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


# ----------------------------------------------------------------------
# compile-chain


def prepare(text: str):
    """Parse, expand macros and build the variable table."""
    formula, defs = formulas.parse_formula(text)
    expanded = formulas.expand_macros(formula, defs)
    return expanded, formulas.build_var_table(expanded)


def chain_text(width: int, node: str, sets: str) -> str:
    """``in(v0,S0) & ... & prec(v0,v1) & ...`` over width/2 node variables."""
    k = width // 2
    ins = [f"in({node}{i}, {sets}{i})" for i in range(k)]
    precs = [f"prec({node}{i}, {node}{i + 1})" for i in range(k - 1)]
    return " & ".join(ins + precs)


def scale_text(node: str, sets: str) -> str:
    """Criterion 9's 8-variable formula."""
    a, b, c, d = (f"{node}{v}" for v in "abcd")
    w, x, y, z = (f"{sets}{v}" for v in "WXYZ")
    return (f"in({a}, {w}) & in({b}, {x}) & in({c}, {y}) & in({d}, {z}) "
            f"& prec({a}, {b}) & prec({b}, {c}) & prec({c}, {d})")


def compile_answer(expanded, table) -> Answer:
    """Compile, decide satisfiability, find the witness and write the
    automaton out, as ``treelogic compile`` and ``witness`` do."""
    start = time.perf_counter()
    ctx = compiler.CompilationContext(table=table)
    aut = compiler.compile_formula(expanded, ctx)
    tree = None if aut.is_empty() else aut.witness()
    text = aut.renumbered().to_text()
    return Answer(first_s=time.perf_counter() - start,
                  digest=text + trees.format_tree(tree),
                  peak_states=peak_states(ctx), states_out=len(aut.states),
                  trans_out=entry_count(aut), payload=(aut, tree))


def witness_check(name: str, expanded, table):
    """The witness satisfies the formula by the brute-force evaluator; the
    formulas have no quantifiers, so the margin does not matter."""
    def check(answer: Answer) -> list[tuple[str, bool]]:
        _, tree = answer.payload
        return [(f"{name}: witness exists", tree is not None),
                (f"{name}: witness satisfies the formula",
                 tree is not None and oracle.evaluate(expanded, tree, table, 1))]
    return check


def chain_inputs(seed: int, tiny: bool = False) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    node, sets = f"v{_tag(rng)}_", f"S{_tag(rng)}_"
    named = [] if tiny else [("scale-8", scale_text(node, sets))]
    return named + [(f"chain-{w}", chain_text(w, node, sets))
                    for w in ((4, 6) if tiny else (10, 12))]


def compile_setup(named: list[tuple[str, str]], hook=None) -> list[Item]:
    items = []
    for name, text in named:
        expanded, table = prepare(text)
        items.append(Item(name, lambda e=expanded, t=table: compile_answer(e, t),
                          witness_check(name, expanded, table)))
    return items


# ----------------------------------------------------------------------
# membership


CRITERION5_FORMULA = "in(x, Y) | in(x, Z)"


def enumerated_levels(max_nodes: int, width: int) -> list[list]:
    """All labelled trees of each size below max_nodes, built from shared
    subtrees as tests/oracle.py enumerates them."""
    labels = ["".join(bits) for bits in itertools.product("01", repeat=width)]
    levels: list[list] = [[None]]
    for n in range(1, max_nodes):
        levels.append([trees.Node(label, left, right)
                       for k in range(n)
                       for left in levels[k]
                       for right in levels[n - 1 - k]
                       for label in labels])
    return levels


def sample_enumerated(rng: random.Random, count: int, max_nodes: int,
                      width: int) -> list:
    """A uniform sample, with repetition, of all labelled trees with at most
    max_nodes nodes; a top-size tree is a new root over shared subtrees."""
    levels = enumerated_levels(max_nodes, width)
    n = max_nodes
    smaller = [tree for level in levels for tree in level]
    cum = list(itertools.accumulate(
        len(levels[k]) * len(levels[n - 1 - k]) << width for k in range(n)))
    total = len(smaller) + cum[-1]
    out = []
    for _ in range(count):
        r = rng.randrange(total)
        if r < len(smaller):
            out.append(smaller[r])
            continue
        k = rng.choices(range(n), cum_weights=cum)[0]
        out.append(trees.Node(format(rng.getrandbits(width), f"0{width}b"),
                              rng.choice(levels[k]), rng.choice(levels[n - 1 - k])))
    return out


def random_shape(rng: random.Random, size: int) -> list[list]:
    """A random binary tree shape as [left, right] child indices in preorder;
    the left subtree size is uniform, so depth stays logarithmic."""
    nodes = [[None, None] for _ in range(size)]
    stack = [(0, size)]  # (first node index, subtree size)
    while stack:
        first, n = stack.pop()
        k = rng.randrange(n)
        if k:
            nodes[first][0] = first + 1
            stack.append((first + 1, k))
        if n - 1 - k:
            nodes[first][1] = first + 1 + k
            stack.append((first + 1 + k, n - 1 - k))
    return nodes


def build_tree(nodes: list[list], labels: list[str]):
    built: list = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):  # children come later in preorder
        left, right = nodes[i]
        built[i] = trees.Node(labels[i],
                              None if left is None else built[left],
                              None if right is None else built[right])
    return built[0]


def subtree_end(nodes: list[list], i: int) -> int:
    """One past the last preorder index of node i's subtree."""
    while nodes[i] != [None, None]:
        i = nodes[i][1] if nodes[i][1] is not None else nodes[i][0]
    return i + 1


def random_c_command_tree(rng: random.Random, size: int):
    """Labels over (P, x, y): P on about 5 % of the nodes, x and y on one
    node each.  In half the trees x is a left child and y sits strictly
    below x's right sibling, so x locally c-commands y unless P intervenes."""
    nodes = random_shape(rng, size)
    planted = [i for i, (left, right) in enumerate(nodes)
               if left is not None and right is not None
               and nodes[right] != [None, None]]
    if planted and rng.random() < 0.5:
        x, right = nodes[rng.choice(planted)]
        y = rng.randrange(right + 1, subtree_end(nodes, right))
    else:
        x, y = rng.sample(range(size), 2)
    labels = [("1" if rng.random() < 0.05 else "0")
              + ("1" if i == x else "0") + ("1" if i == y else "0")
              for i in range(size)]
    return build_tree(nodes, labels)


def random_criterion5_tree(rng: random.Random, size: int):
    """Labels over (x, Y, Z): x on one node, Y and Z on about 30 % each."""
    nodes = random_shape(rng, size)
    x = rng.randrange(size)
    labels = [("1" if i == x else "0")
              + ("1" if rng.random() < 0.3 else "0")
              + ("1" if rng.random() < 0.3 else "0") for i in range(size)]
    return build_tree(nodes, labels)


@dataclass
class MembershipInputs:
    enumerated: list
    random_c_command: list
    random_criterion5: list
    picks: dict[str, list[int]]  # per item, the trees checked by the evaluator


def membership_inputs(seed: int, tiny: bool = False) -> MembershipInputs:
    rng = random.Random(seed)
    n_small, n_big, size = (200, 2, 50) if tiny else (30000, 120, 1000)
    small = sample_enumerated(rng, n_small, 5, 3)
    big_c = [random_c_command_tree(rng, size) for _ in range(n_big)]
    big_5 = [random_criterion5_tree(rng, size) for _ in range(n_big)]
    picks = {}
    for label in ("c-command", "criterion5"):
        picks[f"{label}/enumerated"] = sorted(rng.sample(range(n_small), 40))
        picks[f"{label}/random-1000"] = sorted(rng.sample(range(n_big), 2))
    return MembershipInputs(small, big_c, big_5, picks)


def fixture_check(aut, name: str) -> list[tuple[str, bool]]:
    """Criterion 2: six states, and the same zero-padded language as the
    reference automaton in tests/fixtures."""
    reference = automata.TreeAutomaton.from_text(fixture(f"{name}.aut"))
    same = compiler.zero_pad_closure(aut).equivalent(
        compiler.zero_pad_closure(reference.minimize()))
    return [(f"{name}: 6 states", len(aut.states) == 6),
            (f"{name}: equivalent to {name}.aut", same)]


def membership_item(name: str, compiled, tree_set: list, picks: list[int],
                    counts: tuple[int, int, int], reference: str | None) -> Item:
    aut, expanded, table = compiled
    peak, states, entries = counts

    def run() -> Answer:
        start = time.perf_counter()
        verdicts = bytes(aut.accepts(t) for t in tree_set)
        return Answer(first_s=time.perf_counter() - start,
                      digest=hashlib.sha256(verdicts).hexdigest(),
                      peak_states=peak, states_out=states, trans_out=entries,
                      payload=verdicts)

    def check(answer: Answer) -> list[tuple[str, bool]]:
        # Both formulas quantify only over labelled nodes and their
        # ancestors (criterion 5's has no quantifier), so margin 1 is exact.
        out = [(f"{name}: verdict on tree {i} agrees with the evaluator",
                bool(answer.payload[i])
                == oracle.evaluate(expanded, tree_set[i], table, 1))
               for i in picks]
        return out + (fixture_check(aut, reference) if reference else [])
    return Item(name, run, check)


def membership_setup(inputs: MembershipInputs, hook=None) -> list[Item]:
    """Compiles the two automata.  Each one's counts, and the fixture check
    of the c-command automaton, ride on one of its items, so each automaton
    is counted and checked once."""
    items = []
    for label, text, big, reference in (
            ("c-command", fixture("local_c_command.mso"), inputs.random_c_command,
             "local_c_command"),
            ("criterion5", CRITERION5_FORMULA, inputs.random_criterion5, None)):
        expanded, table = prepare(text)
        ctx = compiler.CompilationContext(table=table)
        aut = compiler.compile_formula(expanded, ctx)
        compiled = (aut, expanded, table)
        counts = (peak_states(ctx), len(aut.states), entry_count(aut))
        for suffix, tree_set, item_counts, item_reference in (
                ("enumerated", inputs.enumerated, counts, reference),
                ("random-1000", big, (0, 0, 0), None)):
            name = f"{label}/{suffix}"
            items.append(membership_item(name, compiled, tree_set,
                                         inputs.picks[name], item_counts,
                                         item_reference))
    return items


# ----------------------------------------------------------------------
# solve


@dataclass
class Query:
    name: str
    program: str
    query: str
    solutions: int
    order: list[str]  # node sets that must be singletons in this order


def pipeline_program(words: list[str], node: str) -> str:
    """parse_pipeline.clp's shape over len(words) words; classes_ok states
    that the word sets are pairwise disjoint."""
    xs = ", ".join(f"{node}{i}" for i in range(len(words)))
    order = " & ".join(f"prec({node}{i}, {node}{i + 1})"
                       for i in range(len(words) - 1))
    labels = " & ".join(f"in({node}{i}, {w})" for i, w in enumerate(words))
    disjoint = " & ".join(f"~(in(w, {a}) & in(w, {b}))"
                          for i, a in enumerate(words) for b in words[i + 1:])
    return (f"parse({xs}) <- {{ true }} & input_shape({xs}) & gram({xs}).\n"
            f"input_shape({xs}) <- {{ {order} }}.\n"
            f"gram({xs}) <- {{ {labels} }} & classes_ok.\n"
            f"classes_ok <- {{ all1 w. ({disjoint}) }}.\n")


def pipeline_query(words: list[str], args: list[str]) -> str:
    labels = " & ".join(f"in({a}, {w})" for a, w in zip(args, words))
    order = " & ".join(f"prec({a}, {b})" for a, b in zip(args, args[1:]))
    return f"?- {{ {labels} & {order} }} & parse({', '.join(args)})."


def solve_inputs(seed: int, tiny: bool = False) -> list[Query]:
    rng = random.Random(seed)
    x, y, z = (f"{v}{_tag(rng)}" for v in "xyz")
    abc = [f"{v}{_tag(rng)}" for v in "abc"]
    lexicon, pipeline = fixture("lexicon.clp"), fixture("parse_pipeline.clp")
    good = ["John", "Sees", "Mary"]
    queries = [
        Query("lexicon", lexicon,
              f"?- {{ prec({x}, {y}) & prec({y}, {z}) }} "
              f"& lexicon({x}) & lexicon({y}) & lexicon({z}).", 27, [x, y, z]),
        Query("pipeline-3", pipeline, pipeline_query(good, abc), 1, good),
        Query("pipeline-3-permuted", pipeline,
              pipeline_query(["Sees", "John", "Mary"], abc), 0, []),
    ]
    if not tiny:
        words = [f"W{_tag(rng)}{i}" for i in range(3)]
        program = pipeline_program(words, f"p{_tag(rng)}_")
        args = [f"n{_tag(rng)}{i}" for i in range(3)]
        swapped = [words[1], words[0]] + words[2:]
        queries += [Query("pipeline-gen", program, pipeline_query(words, args),
                          1, words),
                    Query("pipeline-gen-swapped", program,
                          pipeline_query(swapped, args), 0, [])]
    return queries


def solve_answer(program, query, hook) -> Answer:
    """All solutions, each with its witness and store automaton, as
    ``treelogic solve --all`` prints them."""
    peak = 0

    def on_event(kind: str, detail: dict) -> None:
        nonlocal peak
        if kind == "constrain" and detail["satisfiable"]:
            peak = max(peak, detail["states"])
        if hook is not None:
            hook(kind, detail)

    start = time.perf_counter()
    first = None
    solutions, texts = [], []
    for solution in clp.Solver(program, on_event=on_event).solve(query):
        if first is None:
            first = time.perf_counter() - start
        solutions.append(solution)
        texts.append(trees.format_tree(solution.tree) + "\n"
                     + solution.store.automaton.renumbered().to_text())
    stores = [s.store.automaton for s in solutions]
    return Answer(first_s=first, digest="".join(texts), peak_states=peak,
                  states_out=sum(len(a.states) for a in stores),
                  trans_out=sum(entry_count(a) for a in stores),
                  payload=solutions)


def in_order(solution, names: list[str]) -> bool:
    """The named node sets are singletons, each left of the next."""
    addrs = [solution.assignment[n] for n in names]
    return (all(len(a) == 1 for a in addrs)
            and all(oracle.is_prec(u[0], v[0]) for u, v in zip(addrs, addrs[1:])))


def query_check(q: Query):
    def check(answer: Answer) -> list[tuple[str, bool]]:
        solutions = answer.payload
        return ([(f"{q.name}: {q.solutions} solution(s)",
                  len(solutions) == q.solutions)]
                + [(f"{q.name}: solution {i + 1} in order", in_order(s, q.order))
                   for i, s in enumerate(solutions)])
    return check


def solve_setup(queries: list[Query], hook=None) -> list[Item]:
    items = []
    for q in queries:
        program = clp.load_program(q.program)
        query = clp.parse_query(q.query)
        items.append(Item(q.name, lambda p=program, g=query: solve_answer(p, g, hook),
                          query_check(q)))
    return items


WORKLOADS = {w.name: w for w in [
    Workload("compile-chain", "chain-12", chain_inputs, compile_setup, False),
    Workload("membership", "c-command/random-1000", membership_inputs,
             membership_setup, False),
    Workload("solve", "lexicon", solve_inputs, solve_setup, True),
]}
