"""Concrete and abstract syntax for the monadic second-order tree logic.

Variables follow a case convention: names starting with a lowercase letter
are first-order (they denote single nodes, encoded as singleton sets), names
starting with an uppercase letter are second-order (finite node sets).

Grammar::

    file     := macrodef* formula
    macrodef := "def" NAME "(" params ")" ":=" formula ";"
    formula  := quantified | binary connectives over atoms
    atoms    := rdom(x,y) pdom(x,y) idom(x,y) prec(x,y) eq1(x,y)
                in(x,X) sub(X,Y) eqset(X,Y) sing(X) | true | false
    unary    := "~" f
    binary   := "&" "|" "->" "<->"   (precedence ~ > & > | > -> > <->)
    quant    := ("ex1"|"ex2"|"all1"|"all2") vars "." formula

``->`` is right-associative and quantifiers scope as far right as possible.
``#`` and ``%`` start line comments.  Macro calls are expanded by syntactic
substitution and may not be recursive.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

FIRST = "first"
SECOND = "second"

# relation name -> expected argument sorts
ATOM_SORTS: dict[str, tuple[str, ...]] = {
    "rdom": (FIRST, FIRST),    # reflexive domination
    "pdom": (FIRST, FIRST),    # proper domination
    "idom": (FIRST, FIRST),    # immediate domination
    "prec": (FIRST, FIRST),    # proper precedence
    "eq1": (FIRST, FIRST),
    "in": (FIRST, SECOND),
    "sub": (SECOND, SECOND),
    "eqset": (SECOND, SECOND),
    "sing": (SECOND,),
}

KEYWORDS = {"def", "ex1", "ex2", "all1", "all2", "true", "false"}


class FormulaError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.message, self.line, self.column = message, line, column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SortError(FormulaError):
    pass


class MacroError(FormulaError):
    pass


def sort_of_name(name: str) -> str:
    return FIRST if name[0].islower() else SECOND


# ----------------------------------------------------------------------
# abstract syntax


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    kind: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists1(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists2(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall1(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall2(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Call(Formula):
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class MacroDef:
    name: str
    params: tuple[str, ...]
    body: Formula


# binary operators, weakest first
_BINARY_OPS = (("<->", Iff), ("->", Implies), ("|", Or), ("&", And))
_QUANT = {
    "ex1": Exists1, "ex2": Exists2, "all1": Forall1, "all2": Forall2,
}
_QUANT_SORT = {"ex1": FIRST, "ex2": SECOND, "all1": FIRST, "all2": SECOND}


# ----------------------------------------------------------------------
# tokenizer


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>[#%][^\n]*)
  | (?P<op>:=|<->|<-|\?-|->|[()~&|.,;{}])
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise FormulaError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(Token(lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    return tokens


# ----------------------------------------------------------------------
# parser


class _Parser:
    error = FormulaError  # the class ``fail`` raises unless told otherwise

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.defs: dict[str, MacroDef] = {}
        self.in_progress: set[str] = set()

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        if self.pos >= len(self.tokens):
            self.fail("unexpected end of input")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def at(self, text: str) -> bool:
        return self.pos < len(self.tokens) and self.tokens[self.pos].text == text

    def fail(self, message: str, tok: Token | None = None,
             cls: type | None = None):
        tok = tok or self.peek() or (self.tokens[-1] if self.tokens
                                     else Token("", 1, 1))
        raise (cls or self.error)(message, tok.line, tok.column)

    # ---- entry points

    def parse_file(self) -> tuple[Formula, list[MacroDef]]:
        while self.at("def"):
            self.parse_macrodef()
        formula = self.parse_formula()
        if self.peek() is not None:
            self.fail(f"trailing input {self.peek().text!r}")
        return formula, list(self.defs.values())

    def parse_macrodef(self) -> None:
        self.expect("def")
        name_tok = self.next()
        name = name_tok.text
        if not name[0].isalpha() or name in KEYWORDS or name in ATOM_SORTS:
            self.fail(f"invalid macro name {name!r}", name_tok, MacroError)
        if name in self.defs:
            self.fail(f"duplicate macro {name!r}", name_tok, MacroError)
        self.expect("(")
        params = self.parse_list(self.parse_var)
        if len(set(params)) != len(params):
            self.fail(f"duplicate parameter in macro {name!r}", name_tok, MacroError)
        self.expect(")")
        self.expect(":=")
        self.in_progress.add(name)
        body = self.parse_formula()
        self.in_progress.discard(name)
        self.expect(";")
        extra = [v for v, _ in free_variables(body) if v not in params]
        if extra:
            self.fail(f"macro {name!r} body uses non-parameter variable(s) {extra}",
                      name_tok, MacroError)
        self.defs[name] = MacroDef(name, tuple(params), body)

    def parse_var(self) -> str:
        tok = self.next()
        if not tok.text[0].isalpha() or tok.text in KEYWORDS or tok.text in ATOM_SORTS:
            self.fail(f"expected a variable, found {tok.text!r}", tok)
        return tok.text

    def parse_list(self, item) -> list[str]:
        """Comma-separated ``item()`` results, none when at ``)``."""
        items = [] if self.at(")") else [item()]
        while items and self.at(","):
            self.next()
            items.append(item())
        return items

    # ---- precedence climbing

    def parse_formula(self, level: int = 0) -> Formula:
        """The formula whose binary operators bind no weaker than
        ``_BINARY_OPS[level]``; ``->`` and ``<->`` group right, ``|`` and
        ``&`` left."""
        if level == len(_BINARY_OPS):
            return self.parse_unary()
        op, ctor = _BINARY_OPS[level]
        left = self.parse_formula(level + 1)
        while self.at(op):
            self.next()
            if ctor in (Iff, Implies):
                return ctor(left, self.parse_formula(level))
            left = ctor(left, self.parse_formula(level + 1))
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        if tok.text == "~":
            self.next()
            return Not(self.parse_unary())
        if tok.text in _QUANT:
            return self.parse_quantifier()
        return self.parse_primary()

    def parse_quantifier(self) -> Formula:
        tok = self.next()
        ctor = _QUANT[tok.text]
        want = _QUANT_SORT[tok.text]
        names: list[tuple[str, Token]] = []
        names.append((self.parse_var(), self.tokens[self.pos - 1]))
        while self.at(","):
            self.next()
            names.append((self.parse_var(), self.tokens[self.pos - 1]))
        self.expect(".")
        body = self.parse_formula()
        for name, name_tok in reversed(names):
            if sort_of_name(name) != want:
                self.fail(f"{tok.text} binds a {want}-order variable, "
                          f"got {name!r}", name_tok, SortError)
            body = ctor(name, body)
        return body

    def parse_primary(self) -> Formula:
        tok = self.next()
        if tok.text == "(":
            inner = self.parse_formula()
            self.expect(")")
            return inner
        if tok.text == "true":
            return TrueF()
        if tok.text == "false":
            return FalseF()
        if not tok.text[0].isalpha() or tok.text in KEYWORDS:
            self.fail(f"expected a formula, found {tok.text!r}", tok)
        name = tok.text
        if not self.at("("):
            self.fail(f"expected a formula: variable {name!r} is not a formula "
                      "(missing relation symbol?)", tok, SortError)
        self.next()
        args = self.parse_list(self.parse_var)
        self.expect(")")
        if name in ATOM_SORTS:
            expected = ATOM_SORTS[name]
            if len(args) != len(expected):
                self.fail(f"{name} takes {len(expected)} argument(s), got {len(args)}",
                          tok)
            for arg, want in zip(args, expected):
                if sort_of_name(arg) != want:
                    self.fail(f"argument {arg!r} of {name} must be {want}-order",
                              tok, SortError)
            return Atom(name, tuple(args))
        if name in self.in_progress:
            self.fail(f"recursive macro {name!r} (recursion belongs to clause "
                      "programs, not macros)", tok, MacroError)
        if name not in self.defs:
            self.fail(f"unknown relation or macro {name!r}", tok, MacroError)
        macro = self.defs[name]
        if len(args) != len(macro.params):
            self.fail(f"macro {name} takes {len(macro.params)} argument(s), "
                      f"got {len(args)}", tok, MacroError)
        for arg, param in zip(args, macro.params):
            if sort_of_name(arg) != sort_of_name(param):
                self.fail(f"argument {arg!r} of macro {name} must be "
                          f"{sort_of_name(param)}-order", tok, SortError)
        return Call(name, tuple(args))


def parse_formula(text: str) -> tuple[Formula, list[MacroDef]]:
    """Parse a formula file: macro definitions followed by one main formula."""
    return _Parser(tokenize(text)).parse_file()


def parse_formula_fragment(tokens: list[Token], pos: int) -> tuple[Formula, int]:
    """Parse a bare formula (no macros) from ``tokens[pos]`` on; return it
    with the position of the first token after it."""
    parser = _Parser(tokens)
    parser.pos = pos
    return parser.parse_formula(), parser.pos


# ----------------------------------------------------------------------
# traversals


_BINARY = (And, Or, Implies, Iff)
_BINDERS = (Exists1, Exists2, Forall1, Forall2)


def _parts(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas, left to right."""
    if isinstance(f, _BINARY):
        return f.left, f.right
    if isinstance(f, Not) or isinstance(f, _BINDERS):
        return f.body,
    return ()


def _map_parts(f: Formula, fn, *args) -> Formula:
    """``f`` rebuilt with ``fn(part, *args)`` in place of each immediate
    subformula, left to right; leaves come back unchanged."""
    if isinstance(f, _BINARY):
        return type(f)(fn(f.left, *args), fn(f.right, *args))
    if isinstance(f, Not):
        return Not(fn(f.body, *args))
    if isinstance(f, _BINDERS):
        return type(f)(f.var, fn(f.body, *args))
    return f


def free_variables(formula: Formula, bound: frozenset[str] = frozenset()
                   ) -> list[tuple[str, str]]:
    """Free variables with sorts, in first-occurrence order."""
    seen: dict[str, str] = {}

    def walk(f: Formula, bound: frozenset[str]) -> None:
        if isinstance(f, (Atom, Call)):
            for a in f.args:
                if a not in bound and a not in seen:
                    seen[a] = sort_of_name(a)
        elif isinstance(f, _BINDERS):
            walk(f.body, bound | {f.var})
        else:
            for part in _parts(f):
                walk(part, bound)

    walk(formula, bound)
    return list(seen.items())


def _map_vars(f: Formula, rename) -> Formula:
    """Apply a renaming to free variable occurrences (captures not checked)."""
    if isinstance(f, Atom):
        return Atom(f.kind, tuple(rename(a) for a in f.args))
    if isinstance(f, Call):
        return Call(f.name, tuple(rename(a) for a in f.args))
    if isinstance(f, _BINDERS):
        shadowed = lambda a: a if a == f.var else rename(a)
        return type(f)(f.var, _map_vars(f.body, shadowed))
    return _map_parts(f, _map_vars, rename)


def substitute(f: Formula, mapping: dict[str, str],
               fresh=None) -> Formula:
    """Capture-avoiding substitution of variables for variables."""
    if fresh is None:
        counter = itertools.count(1)
        fresh = lambda v: f"{v}_{next(counter)}"
    if isinstance(f, (Atom, Call)):
        return _map_vars(f, lambda a: mapping.get(a, a))
    if isinstance(f, _BINDERS):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        if not inner:
            return f
        var, body = f.var, f.body
        if var in inner.values():
            renamed = fresh(var)
            while renamed in inner.values() or renamed in inner:
                renamed = fresh(var)
            body = substitute(body, {var: renamed}, fresh)
            var = renamed
        return type(f)(var, substitute(body, inner, fresh))
    return _map_parts(f, substitute, mapping, fresh)


def expand_macros(formula: Formula, defs: list[MacroDef] | dict[str, MacroDef]
                  ) -> Formula:
    """Replace Call nodes by macro bodies; result is Call-free."""
    table = defs if isinstance(defs, dict) else {d.name: d for d in defs}
    counter = itertools.count(1)
    fresh = lambda v: f"{v}_{next(counter)}"

    def expand(f: Formula, stack: tuple[str, ...]) -> Formula:
        if isinstance(f, Call):
            if f.name in stack:
                raise MacroError(f"recursive macro {f.name!r}")
            macro = table.get(f.name)
            if macro is None:
                raise MacroError(f"unknown macro {f.name!r}")
            if len(f.args) != len(macro.params):
                raise MacroError(f"macro {f.name} takes {len(macro.params)} "
                                 f"argument(s), got {len(f.args)}")
            body = substitute(macro.body, dict(zip(macro.params, f.args)), fresh)
            return expand(body, stack + (f.name,))
        return _map_parts(f, expand, stack)

    return expand(formula, ())


def desugar(f: Formula) -> Formula:
    """Rewrite ->, <-> and universal quantifiers into ~, &, |, exists."""
    f = _map_parts(f, desugar)
    if isinstance(f, Implies):
        return Or(Not(f.left), f.right)
    if isinstance(f, Iff):
        a, b = f.left, f.right
        return And(Or(Not(a), b), Or(Not(b), a))
    if isinstance(f, Forall1):
        return Not(Exists1(f.var, Not(f.body)))
    if isinstance(f, Forall2):
        return Not(Exists2(f.var, Not(f.body)))
    return f


def rename_bound_apart(f: Formula, avoid: frozenset[str] = frozenset()) -> Formula:
    """Give every binder a name distinct from all free names, other bound
    names, and the given avoid set (e.g. an ambient variable table)."""
    used = {name for name, _ in free_variables(f)} | set(avoid)
    counter = itertools.count(1)

    def pick(v: str) -> str:
        if v not in used:
            used.add(v)
            return v
        while True:
            cand = f"{v}_{next(counter)}"
            if cand not in used:
                used.add(cand)
                return cand

    def walk(f: Formula, env: dict[str, str]) -> Formula:
        if isinstance(f, (Atom, Call)):
            return _map_vars(f, lambda a: env.get(a, a))
        if isinstance(f, _BINDERS):
            new = pick(f.var)
            return type(f)(new, walk(f.body, {**env, f.var: new}))
        return _map_parts(f, walk, env)

    return walk(f, {})


# ----------------------------------------------------------------------
# printing


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4}


def format_formula(f: Formula) -> str:
    def fmt(f: Formula, level: int) -> str:
        if isinstance(f, TrueF):
            return "true"
        if isinstance(f, FalseF):
            return "false"
        if isinstance(f, Atom):
            return f"{f.kind}({', '.join(f.args)})"
        if isinstance(f, Call):
            return f"{f.name}({', '.join(f.args)})"
        if isinstance(f, Not):
            return "~" + fmt(f.body, 5)
        if isinstance(f, (Exists1, Exists2, Forall1, Forall2)):
            word = {Exists1: "ex1", Exists2: "ex2",
                    Forall1: "all1", Forall2: "all2"}[type(f)]
            text = f"{word} {f.var}. {fmt(f.body, 0)}"
            return f"({text})" if level > 0 else text
        prec = _PREC[type(f)]
        op = {Iff: "<->", Implies: "->", Or: "|", And: "&"}[type(f)]
        right_level = prec - 1 if type(f) in (Implies, Iff) else prec
        text = f"{fmt(f.left, prec)} {op} {fmt(f.right, right_level)}"
        return f"({text})" if level >= prec else text

    return fmt(f, 0)


# ----------------------------------------------------------------------
# variable tables


@dataclass(frozen=True)
class VarTable:
    """Ordered map from variable names to bit positions; position = index."""

    entries: tuple[tuple[str, str], ...] = ()

    @property
    def width(self) -> int:
        return len(self.entries)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.entries)

    def position(self, name: str) -> int:
        for i, (n, _) in enumerate(self.entries):
            if n == name:
                return i
        raise KeyError(name)

    def sort_of(self, name: str) -> str:
        return self.entries[self.position(name)][1]

    def extended(self, name: str, sort: str | None = None) -> "VarTable":
        sort = sort or sort_of_name(name)
        if self.has(name):
            if self.sort_of(name) != sort:
                raise SortError(f"variable {name!r} already declared as "
                                f"{self.sort_of(name)}-order")
            return self
        return VarTable(self.entries + ((name, sort),))


def build_var_table(formula: Formula, ambient: VarTable | None = None) -> VarTable:
    """Append the free variables of the formula to the ambient table in
    first-occurrence order.  The formula must be Call-free."""
    if _has_call(formula):
        raise FormulaError("expand macros before building a variable table")
    table = ambient or VarTable()
    for name, sort in free_variables(formula):
        table = table.extended(name, sort)
    return table


def _has_call(f: Formula) -> bool:
    return isinstance(f, Call) or any(map(_has_call, _parts(f)))
