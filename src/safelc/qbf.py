"""Quantified Boolean formulas: AST, parser, printer.

Surface syntax: a nonempty `forall x.` / `exists y.` prefix followed by a
matrix over `&`, `|`, `!` and parentheses, e.g.

    forall x. exists y. (x | y) & (!x | !y)

`&` binds tighter than `|`, `!` tighter than both; both binary connectives
associate to the left.  A QBF is closed by construction: every matrix
variable must appear in the prefix.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Union

from .syntax import ParseError, _position, _scan


class Quantifier(enum.Enum):
    FORALL = "forall"
    EXISTS = "exists"


@dataclass(frozen=True)
class BoolVar:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Union[BoolVar, Not, And, Or]


def formula_vars(f: Formula) -> frozenset[str]:
    """The variables of `f`, gathered with an explicit stack."""
    names: set[str] = set()
    todo = [f]
    while todo:
        f = todo.pop()
        kind = type(f)
        if kind is BoolVar:
            names.add(f.name)
        elif kind is Not:
            todo.append(f.operand)
        else:
            todo += (f.left, f.right)
    return frozenset(names)


def count_nodes(f: Formula) -> int:
    """The connectives plus the atoms of `f`: one per node, counted with
    an explicit stack."""
    n = 0
    todo = [f]
    while todo:
        f = todo.pop()
        n += 1
        kind = type(f)
        if kind is Not:
            todo.append(f.operand)
        elif kind is not BoolVar:
            todo += (f.left, f.right)
    return n


@dataclass(frozen=True)
class QBF:
    prefix: tuple[tuple[Quantifier, str], ...]
    matrix: Formula

    def __post_init__(self):
        if not self.prefix:
            raise ValueError("prefix must not be empty")
        names = [name for _, name in self.prefix]
        if len(set(names)) != len(names):
            raise ValueError("prefix names must be distinct")
        free = formula_vars(self.matrix) - set(names)
        if free:
            raise ValueError(f"matrix uses unquantified variable(s): {sorted(free)}")

    @property
    def size(self) -> int:
        """Prefix length plus matrix connectives plus matrix atoms, which
        together are the nodes of the matrix."""
        return len(self.prefix) + count_nodes(self.matrix)

    def __str__(self) -> str:
        return qbf_text(self)


# --------------------------------------------------------------------------
# printing

# precedence levels: or 0, and 1, not and atoms 2


def formula_text(f: Formula, level: int = 0) -> str:
    """The text of `f` at precedence `level`, printed with an explicit
    stack, so nesting depth is not limited by Python's recursion limit."""
    out: list[str] = []
    todo: list = [(f, level)]  # a (formula, level) to print, or a str to emit
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        f, level = item
        kind = type(f)
        if kind is BoolVar:
            out.append(f.name)
        elif kind is Not:
            out.append("!")
            todo.append((f.operand, 2))
        elif kind is And:
            if level > 1:
                out.append("(")
                todo.append(")")
            todo += ((f.right, 2), " & ", (f.left, 1))
        else:
            if level > 0:
                out.append("(")
                todo.append(")")
            todo += ((f.right, 1), " | ", (f.left, 0))
    return "".join(out)


def qbf_text(q: QBF) -> str:
    prefix = " ".join(f"{quant.value} {name}." for quant, name in q.prefix)
    return f"{prefix} {formula_text(q.matrix)}"


# --------------------------------------------------------------------------
# parsing

# a token, or any other non-space character, which is an error
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_']*|[.&|!()])|\S")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.offsets = _scan(text, _TOKEN)
        self.i = 0

    def error(self, message: str) -> ParseError:
        pos = self.offsets[self.i] if self.i < len(self.tokens) else len(self.text)
        return ParseError(message, *_position(self.text, pos))

    def peek(self) -> str:
        return self.tokens[self.i] if self.i < len(self.tokens) else ""

    def take(self) -> str:
        if self.i >= len(self.tokens):
            raise self.error("unexpected end of input")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.peek()
        if got != tok:
            raise self.error(f"expected {tok!r}" + (f", got {got!r}" if got else ""))
        self.i += 1

    def parse(self) -> QBF:
        prefix = []
        while self.peek() in ("forall", "exists"):
            quant = Quantifier(self.take())
            name = self.take()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", name) or name in (
                "forall",
                "exists",
            ):
                raise self.error(f"bad quantified variable name {name!r}")
            self.expect(".")
            prefix.append((quant, name))
        if not prefix:
            raise self.error("expected 'forall' or 'exists'")
        matrix = self.parse_or()
        if self.i < len(self.tokens):
            raise self.error(f"trailing input {self.peek()!r}")
        try:
            return QBF(tuple(prefix), matrix)
        except ValueError as e:
            raise self.error(str(e)) from None

    def parse_or(self) -> Formula:
        out = self.parse_and()
        while self.peek() == "|":
            self.i += 1
            out = Or(out, self.parse_and())
        return out

    def parse_and(self) -> Formula:
        out = self.parse_unary()
        while self.peek() == "&":
            self.i += 1
            out = And(out, self.parse_unary())
        return out

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.i += 1
            return Not(self.parse_unary())
        if tok == "(":
            self.i += 1
            out = self.parse_or()
            self.expect(")")
            return out
        if not tok:
            raise self.error("unexpected end of input")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", tok) or tok in (
            "forall",
            "exists",
        ):
            raise self.error(f"expected a variable, got {tok!r}")
        self.i += 1
        return BoolVar(tok)


def parse_qbf(text: str) -> QBF:
    return _Parser(text).parse()
