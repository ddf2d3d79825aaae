r"""Concrete and abstract syntax for simply-typed lambda terms.

The term language is Church-style (every binder annotated) over a single
ground type ``o``::

    type   ::= 'o' | type '->' type        (right associative)
             | '(' type ')'
    term   ::= var
             | '\\' binder+ '.' term
             | atom+                       (application, left associative)
             | '(' term ')'
    binder ::= ident ':' type

Terms are kept in a *grouped* canonical form: consecutive abstractions are
one ``Abs`` node with a block of binders, and an application head is never
itself an ``App``.  The grouping is not a cosmetic choice; the safety
judgment in :mod:`safelc.safety` attaches its side condition to whole
blocks, so ``\\x:o f:o->o. f x`` and ``\\x:o. (\\f:o->o. f x)`` are
different terms with different verdicts.  ``parse`` canonicalizes by
default and offers ``canonical=False`` for when the written grouping must
survive.

>>> parse(r"\f:o->o. \x:o. f x")
Abs(binders=(('f', o->o), ('x', o)), body=App(head=Var(name='f'), args=(Var(name='x'),)))
>>> pretty(parse(r"(\x:o. x) ((\y:o. y) z)"))
'(\\x:o. x) ((\\y:o. y) z)'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional


class ParseError(Exception):
    """Syntax error with 1-based line/column information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class SimpleType:
    """A simple type over the single atom ``o``, curried-normalized.

    The result of every type is the ground atom, so a type is just the
    tuple of its argument types; ``o`` is ``SimpleType(())`` and
    ``A -> B`` is ``SimpleType((A,) + B.arguments)``.
    """

    arguments: tuple["SimpleType", ...] = ()

    @property
    def is_ground(self) -> bool:
        return not self.arguments

    @cached_property
    def order(self) -> int:
        if not self.arguments:
            return 0
        return 1 + max(a.order for a in self.arguments)

    def __str__(self) -> str:
        return type_text(self, spaced=True)

    def __repr__(self) -> str:  # keeps dataclass reprs of terms readable
        return type_text(self)


GROUND = SimpleType()


def arrow(*parts: SimpleType) -> SimpleType:
    """arrow(A, B, C) is A -> B -> C with the last part as the result."""
    if not parts:
        raise ValueError("arrow() needs at least a result type")
    *args, result = parts
    return SimpleType(tuple(args) + result.arguments)


def type_text(t: SimpleType, spaced: bool = False) -> str:
    sep = " -> " if spaced else "->"
    if t.is_ground:
        return "o"
    pieces = []
    for a in t.arguments:
        inner = type_text(a, spaced)
        pieces.append(f"({inner})" if a.arguments else inner)
    return sep.join(pieces) + sep + "o"


# ---------------------------------------------------------------------------
# Terms

Binder = tuple[str, SimpleType]


@dataclass(frozen=True)
class Term:
    @cached_property
    def free_names(self) -> frozenset[str]:
        raise NotImplementedError

    @cached_property
    def size(self) -> int:
        """Node count, binders included; the measure used by budgets."""
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Term):
    name: str

    @cached_property
    def free_names(self) -> frozenset[str]:
        return frozenset((self.name,))

    @cached_property
    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class Abs(Term):
    binders: tuple[Binder, ...]
    body: Term

    def __post_init__(self):
        if not self.binders:
            raise ValueError("Abs needs at least one binder")
        names = [n for n, _ in self.binders]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate binder name in block: {names}")

    @cached_property
    def free_names(self) -> frozenset[str]:
        return self.body.free_names - {n for n, _ in self.binders}

    @cached_property
    def size(self) -> int:
        return 1 + len(self.binders) + self.body.size

    @cached_property
    def binder_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.binders)


@dataclass(frozen=True)
class App(Term):
    head: Term
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.args:
            raise ValueError("App needs at least one argument")

    @cached_property
    def free_names(self) -> frozenset[str]:
        out = self.head.free_names
        for a in self.args:
            out = out | a.free_names
        return out

    @cached_property
    def size(self) -> int:
        return 1 + self.head.size + sum(a.size for a in self.args)


TypeEnv = Mapping[str, SimpleType]


def subterms(term: Term) -> Iterator[Term]:
    """All subterms in pre-order, the term itself first."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Abs):
            stack.append(t.body)
        elif isinstance(t, App):
            stack.extend(reversed(t.args))
            stack.append(t.head)


def fresh_names(prefix: str, used: set[str]) -> Iterator[str]:
    """prefix1, prefix2, ... in order, skipping names in `used`.

    The one fresh-name supply: each name handed out is added to `used`,
    so later suppliers over the same set avoid it too.
    """
    k = 0
    while True:
        k += 1
        name = f"{prefix}{k}"
        if name not in used:
            used.add(name)
            yield name


def primed(base: str, used: set[str]) -> str:
    """Smallest name base'1, base'2, ... not in `used`, added to `used`."""
    return next(fresh_names(base + "'", used))


def rename_reserved(names, reserved) -> dict[str, str]:
    """Map each of `names` to itself, or, when `reserved`, to a primed name.

    Fresh names avoid `reserved`, `names` and each other, so a template
    that binds the reserved names can take the others as parameters.
    """
    used = set(reserved) | set(names)
    out = {}
    for name in names:
        out[name] = primed(name, used) if name in reserved else name
    return out


def all_names(term: Term) -> frozenset[str]:
    """Every variable name occurring anywhere, bound, binding or free."""
    out: set[str] = set()
    for t in subterms(term):
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, Abs):
            out.update(n for n, _ in t.binders)
    return frozenset(out)


def canonicalize(term: Term) -> Term:
    """Merge nested Abs blocks and flatten App heads, recursively.

    Idempotent.  If merging two blocks would put the same name twice in
    one block, the earlier (necessarily vacuous, since the later binder
    shadows it over its entire scope) binder is renamed with the primed
    fresh-name scheme.
    """
    if isinstance(term, Var):
        return term
    if isinstance(term, Abs):
        binders = list(term.binders)
        body = term.body
        while isinstance(body, Abs):
            binders.extend(body.binders)
            body = body.body
        body = canonicalize(body)
        # later binders win a name clash; rename the shadowed earlier ones
        seen: set[str] = set()
        taken = set(n for n, _ in binders) | all_names(body)
        for i in range(len(binders) - 1, -1, -1):
            name, ty = binders[i]
            if name in seen:
                binders[i] = (primed(name, taken), ty)
            else:
                seen.add(name)
        out = Abs(tuple(binders), body)
        return out
    if isinstance(term, App):
        head = canonicalize(term.head)
        args = tuple(canonicalize(a) for a in term.args)
        while isinstance(head, App):
            args = head.args + args
            head = head.head
        return App(head, args)
    raise TypeError(f"not a term: {term!r}")


def mk_abs(binders: tuple[Binder, ...], body: Term) -> Term:
    """Abs that stays canonical; with no binders it is just the body."""
    if not binders:
        return body
    if isinstance(body, Abs):
        return canonicalize(Abs(binders, body))
    return Abs(binders, body)


def mk_app(head: Term, args: tuple[Term, ...]) -> Term:
    """App that stays canonical; with no arguments it is just the head."""
    if not args:
        return head
    if isinstance(head, App):
        return App(head.head, head.args + args)
    return App(head, args)


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to renaming of bound variables.

    Grouping is compared as-is: a two-binder block is not alpha-equal to
    the same binders split over two nested blocks.  Binder annotations
    must match exactly.
    """

    def go(a: Term, b: Term, ma: dict[str, int], mb: dict[str, int], depth: int) -> bool:
        if isinstance(a, Var) and isinstance(b, Var):
            sa, sb = ma.get(a.name), mb.get(b.name)
            if sa is None and sb is None:
                return a.name == b.name
            return sa is not None and sa == sb
        if isinstance(a, Abs) and isinstance(b, Abs):
            if len(a.binders) != len(b.binders):
                return False
            if any(ta != tb for (_, ta), (_, tb) in zip(a.binders, b.binders)):
                return False
            ma2, mb2 = dict(ma), dict(mb)
            for i, ((na, _), (nb, _)) in enumerate(zip(a.binders, b.binders)):
                ma2[na] = depth + i
                mb2[nb] = depth + i
            return go(a.body, b.body, ma2, mb2, depth + len(a.binders))
        if isinstance(a, App) and isinstance(b, App):
            if len(a.args) != len(b.args):
                return False
            if not go(a.head, b.head, ma, mb, depth):
                return False
            return all(go(x, y, ma, mb, depth) for x, y in zip(a.args, b.args))
        return False

    return go(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# Parsing

# a token, or any other non-space character, which is an error
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_']*|->|[\\.():])|\S")

_RESERVED = {"\\", ".", "(", ")", ":", "->"}


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset into `text`."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _scan(text: str, token_re: re.Pattern) -> tuple[list[str], list[int]]:
    """Tokens of `text` and their offsets, in one `finditer` scan.

    Group 1 of `token_re` is a token; a match outside it (the pattern's
    catch-all last alternative) is a character no token starts with, and
    raises ParseError.
    """
    tokens: list[str] = []
    offsets: list[int] = []
    for m in token_re.finditer(text):
        tok = m.group(1)
        if tok is None:
            at = _position(text, m.start())
            raise ParseError(f"unexpected character {m.group()!r}", *at)
        tokens.append(tok)
        offsets.append(m.start())
    return tokens, offsets


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # token texts and offsets; the None sentinel sits at end of input
        self.tokens, self.offsets = _scan(text, _TOKEN_RE)
        self.offsets.append(self.offsets[-1] + len(self.tokens[-1]) if self.tokens else 0)
        self.tokens.append(None)
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i]

    def fail_at(self, offset: int, msg: str):
        raise ParseError(msg, *_position(self.text, offset))

    def fail(self, msg: str):
        self.fail_at(self.offsets[self.i], msg)

    def advance(self) -> str:
        tok = self.tokens[self.i]
        if tok is None:
            self.fail("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, text: str) -> str:
        if self.tokens[self.i] != text:
            self.fail(f"expected {text!r}, found {self.peek()!r}")
        return self.advance()

    def ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.i]
        if tok is None or tok in _RESERVED:
            self.fail(f"expected {what}, found {tok!r}")
        self.i += 1
        return tok

    # type ::= tatom ('->' type)?
    def parse_type(self) -> SimpleType:
        left = self.parse_type_atom()
        if self.peek() == "->":
            self.advance()
            right = self.parse_type()
            return SimpleType((left,) + right.arguments)
        return left

    def parse_type_atom(self) -> SimpleType:
        if self.peek() == "(":
            self.advance()
            t = self.parse_type()
            self.expect(")")
            return t
        at = self.offsets[self.i]
        tok = self.ident("type")
        if tok != "o":
            self.fail_at(at, f"unknown type atom {tok!r}")
        return GROUND

    def parse_term(self) -> Term:
        if self.peek() == "\\":
            return self.parse_abs()
        return self.parse_app_seq()

    def parse_abs(self) -> Term:
        self.expect("\\")
        binders: list[Binder] = []
        names_seen: set[str] = set()
        while self.peek() != ".":
            at = self.offsets[self.i]
            name = self.ident("binder")
            if name in names_seen:
                self.fail_at(at, f"duplicate binder {name!r} in one block")
            names_seen.add(name)
            if self.peek() != ":":
                self.fail(f"binder {name!r} lacks a type annotation")
            self.advance()
            binders.append((name, self.parse_type()))
        self.expect(".")
        body = self.parse_term()
        return Abs(tuple(binders), body)

    def parse_app_seq(self) -> Term:
        atoms = [self.parse_atom()]
        while self.peek() is not None and (self.peek() == "(" or self.peek() not in _RESERVED):
            atoms.append(self.parse_atom())
        if len(atoms) == 1:
            return atoms[0]
        return App(atoms[0], tuple(atoms[1:]))

    def parse_atom(self) -> Term:
        if self.peek() == "(":
            self.advance()
            t = self.parse_term()
            self.expect(")")
            return t
        return Var(self.ident("variable"))


def parse(text: str, canonical: bool = True) -> Term:
    """Parse a term; by default the result is canonicalized.

    Pass canonical=False to keep the grouping exactly as written, e.g. to
    feed the safety checker an ungrouped abstraction chain.
    """
    p = _Parser(text)
    if p.peek() is None:
        p.fail("empty input")
    t = p.parse_term()
    if p.peek() is not None:
        p.fail(f"trailing input starting at {p.peek()!r}")
    return canonicalize(t) if canonical else t


def parse_type(text: str) -> SimpleType:
    p = _Parser(text)
    if p.peek() is None:
        p.fail("empty input")
    t = p.parse_type()
    if p.peek() is not None:
        p.fail(f"trailing input starting at {p.peek()!r}")
    return t


def parse_env(text: str) -> dict[str, SimpleType]:
    """Parse 'f:o->o, y:o' into an environment mapping."""
    env: dict[str, SimpleType] = {}
    text = text.strip()
    if not text:
        return env
    for part in text.split(","):
        name, _, ty = part.partition(":")
        name = name.strip()
        if not name or not ty.strip():
            raise ValueError(f"bad environment entry {part!r}")
        if name in env:
            raise ValueError(f"duplicate environment entry {name!r}")
        env[name] = parse_type(ty)
    return env


# ---------------------------------------------------------------------------
# Printing
#
# Precedence levels, TAPL style: 0 = top or lambda body (nothing wrapped),
# 1 = head of an application (lambdas wrapped), 2 = argument position
# (lambdas and applications wrapped).


def pretty(term: Term, level: int = 0) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Abs):
        binders = " ".join(f"{n}:{type_text(t)}" for n, t in term.binders)
        body = pretty(term.body, 0)
        if isinstance(term.body, Abs):
            body = f"({body})"  # keep a deliberately ungrouped chain ungrouped
        s = f"\\{binders}. {body}"
        return f"({s})" if level > 0 else s
    if isinstance(term, App):
        head = pretty(term.head, 1)
        if isinstance(term.head, App):
            head = f"({head})"
        parts = [head]
        parts.extend(pretty(a, 2) for a in term.args)
        s = " ".join(parts)
        return f"({s})" if level >= 2 else s
    raise TypeError(f"not a term: {term!r}")
