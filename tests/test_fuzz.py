"""Fuzzing of the text front ends: whatever the input, only ValueError
subclasses (FormulaError, ProgramError, AutomatonError, ...) may escape."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from treelogic.automata import TreeAutomaton
from treelogic.clp import load_program, parse_query
from treelogic.formulas import parse_formula
from treelogic.trees import parse_tree

_WORDS = ["def", "ex1", "ex2", "all1", "all2", "true", "false", "~", "&", "|",
          "->", "<->", "<-", "?-", "(", ")", ".", ",", ";", ":=", "{", "}",
          "% note\n", "x", "y", "X", "Y", "p", "q", "M", "sing", "in", "prec",
          "pdom", "rdom", "idom", "eq1", "sub", "eqset", "@"]


def _words(words, max_size=30):
    return st.lists(st.sampled_from(words), max_size=max_size).map(" ".join)


_formula_text = st.one_of(st.text(max_size=40), _words(_WORDS))
_program_text = st.one_of(
    _formula_text,
    st.builds(lambda head, block, goals: f"{head} <- {{ {block} }} & {goals}.",
              _words(["p", "q", "(", ")", "x", "Y", ","], 6), _words(_WORDS),
              _words(["p", "q", "(", ")", "x", "Y", ",", "&"], 6)))
_query_text = st.one_of(
    _formula_text,
    st.builds(lambda block, goals: f"?- {{ {block} }} & {goals}.",
              _words(_WORDS), _words(["p", "q", "(", ")", "x", "Y", ",", "&"], 6)))
_automaton_line = st.builds(
    lambda directive, args: " ".join([directive, *args]),
    st.sampled_from(["width", "states", "initial", "finals", "sink", "trans",
                     "bogus", "#"]),
    st.lists(st.sampled_from(["0", "1", "2", "-1", "-", "*", "01", "1*", "a",
                              "b", "->", "x"]), max_size=6))
_automaton_text = st.one_of(st.text(max_size=40),
                            st.lists(_automaton_line, max_size=8).map("\n".join))
_tree_text = st.one_of(st.text(max_size=40),
                       _words(["(", ")", "0", "1", "01", "-", "a"]))


def _only_value_errors(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@settings(deadline=None)
@given(_formula_text)
@example("")
@example("% only a comment\n")
def test_parse_formula_raises_only_value_errors(text):
    _only_value_errors(parse_formula, text)


@settings(deadline=None)
@given(_program_text, _query_text)
@example("p(x) <- { } & q(x).", "?- { } & p(x).")
def test_program_and_query_parsers_raise_only_value_errors(program, query):
    _only_value_errors(load_program, program)
    _only_value_errors(parse_query, query)


@settings(deadline=None)
@given(_automaton_text)
def test_automaton_text_raises_only_value_errors(text):
    _only_value_errors(TreeAutomaton.from_text, text)


@settings(deadline=None)
@given(_tree_text)
@example("(")
@example("(0 (1 () ()) (")
def test_parse_tree_raises_only_value_errors(text):
    _only_value_errors(parse_tree, text)
