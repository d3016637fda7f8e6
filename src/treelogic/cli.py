"""Command-line interface.

Exit codes are a stable contract: 0 for success / SAT / ACCEPT / EQUIVALENT,
3 for UNSAT / REJECT / INEQUIVALENT / no solutions, 1 for usage, parse and
sort errors, 2 for resource limits (width overflow, input nested too
deeply).  Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from .automata import TreeAutomaton
from .clp import Solver, assignment, load_program, parse_query
from .compiler import (CompilationContext, WidthOverflowError, compile_formula,
                       stats_lines)
from .formulas import build_var_table, expand_macros, parse_formula
from .trees import format_tree, parse_tree


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _compile_file(path: str, max_width: int, minimize_steps: bool):
    formula, defs = parse_formula(_read(path))
    expanded = expand_macros(formula, defs)
    table = build_var_table(expanded)
    ctx = CompilationContext(table=table, minimize_steps=minimize_steps,
                             max_width=max_width)
    automaton = compile_formula(expanded, ctx)
    return automaton, table, ctx


def _format_address(addr: str) -> str:
    return addr if addr else "e"


def _assignment_lines(table, sets) -> list[str]:
    lines = []
    for name, _ in table.entries:
        addrs = " ".join(_format_address(a) for a in sets[name])
        lines.append(f"{name} = {addrs}".rstrip())
    return lines


def cmd_compile(args) -> int:
    automaton, _, ctx = _compile_file(args.formula, args.max_width,
                                      not args.no_minimize)
    text = automaton.renumbered().to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.stats:
        for line in stats_lines(ctx.stats):
            print(line, file=sys.stderr)
    return 0


def cmd_sat(args) -> int:
    automaton, _, _ = _compile_file(args.formula, args.max_width, True)
    if automaton.is_empty():
        print("UNSAT")
        return 3
    print("SAT")
    return 0


def cmd_witness(args) -> int:
    automaton, table, _ = _compile_file(args.formula, args.max_width, True)
    if automaton.is_empty():
        print("UNSAT")
        return 3
    tree = automaton.witness()
    print(f"witness {format_tree(tree)}")
    for line in _assignment_lines(table, assignment(tree, table)):
        print(line)
    return 0


def cmd_member(args) -> int:
    automaton = TreeAutomaton.from_text(_read(args.automaton))
    tree = parse_tree(_read(args.tree))
    if automaton.accepts(tree):
        print("ACCEPT")
        return 0
    print("REJECT")
    return 3


def cmd_equiv(args) -> int:
    a = TreeAutomaton.from_text(_read(args.first))
    b = TreeAutomaton.from_text(_read(args.second))
    if a.equivalent(b):
        print("EQUIVALENT")
        return 0
    print("INEQUIVALENT")
    return 3


def cmd_solve(args) -> int:
    program = load_program(_read(args.program))
    for warning in program.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    query = parse_query(args.query)

    def trace(kind, detail):
        if kind == "reduce":
            print(f"trace: reduce {detail['goal']} with clause "
                  f"{detail['clause']} of {detail['predicate']}", file=sys.stderr)
        elif kind == "constrain":
            if detail["satisfiable"]:
                print(f"trace: store satisfiable, states={detail['states']} "
                      f"width={detail['width']}", file=sys.stderr)
            else:
                print("trace: store unsatisfiable, backtracking", file=sys.stderr)
        elif kind == "depth":
            print(f"trace: depth bound hit at {detail['depth']} "
                  f"on {detail['goal']}", file=sys.stderr)

    solver = Solver(program, depth=args.depth, max_width=args.max_width,
                    on_event=trace if args.trace else None)
    count = 0
    for solution in solver.solve(query):
        count += 1
        print(f"solution {count}")
        print(f"witness {format_tree(solution.tree)}")
        for line in _assignment_lines(solution.store.table, solution.assignment):
            print(line)
        sys.stdout.write(solution.store.automaton.renumbered().to_text())
        if not args.all:
            break
    if solver.truncated_branches:
        print(f"note: {solver.truncated_branches} branch(es) cut at depth "
              f"{args.depth}", file=sys.stderr)
    if count == 0:
        print("no solutions")
        return 3
    return 0


def depth_bound(text: str) -> int:
    bound = int(text)
    if bound < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {bound}")
    return bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelogic",
        description="Compile tree-logic formulas to tree automata, decide "
                    "satisfiability, and run constraint-clause programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_width(p):
        p.add_argument("--max-width", type=int, default=16,
                       help="maximum number of tracked variables (default 16)")

    p = sub.add_parser("compile", help="compile a formula file to an automaton")
    p.add_argument("formula")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--stats", action="store_true",
                   help="print per-step state counts to stderr")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip per-step minimization")
    add_width(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("sat", help="decide satisfiability of a formula file")
    p.add_argument("formula")
    add_width(p)
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("witness", help="print a minimal satisfying tree")
    p.add_argument("formula")
    add_width(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("member", help="run an automaton on a tree")
    p.add_argument("automaton")
    p.add_argument("tree")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("equiv", help="compare two automata for language equality")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("solve", help="run a query against a clause program")
    p.add_argument("program")
    p.add_argument("query")
    p.add_argument("--all", action="store_true", help="enumerate all solutions")
    p.add_argument("--depth", type=depth_bound, default=64,
                   help="per-branch derivation depth bound (default 64)")
    p.add_argument("--trace", action="store_true",
                   help="log goal reductions and store sizes to stderr")
    add_width(p)
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except WidthOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"error: input nested too deeply ({exc})", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
