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

``parse``, ``parse_type`` and ``parse_env`` read the text in one pass over
its tokens with an explicit stack, so nesting depth is not limited by
Python's recursion limit; ``pretty`` and ``type_text`` print with one
too.  ``parse`` reads each binder block ``\\ ... .`` as one token and
takes its binders from a bounded table keyed by the block text, since few
block texts recur in many terms; on any failure it reads the text again
token by token, which spells the error out.  Within one text it builds
each repeated subterm once, so facts kept on a node serve every copy.
The parser builds the written grouping; only when it is not canonical
(an abstraction stands directly in an abstraction body or an application
in head position) does it run the rebuild that ``canonicalize`` uses, a
bottom-up fold over ``mk_abs`` and ``mk_app``.  A term's ``size`` and
whether it is ``canonical`` are set when its node is built, from its
children's, which always exist first, so no code walks a term to learn
either.  Nodes have
``__slots__`` and no instance dict, one slot per field and per cached
fact, so a term held in memory costs 48 to 104 bytes a node.  Nodes are
immutable, but an ``Abs`` or ``App`` is built with plain slot stores,
since every contraction rebuilds the nodes on its path.  Only
``free_names`` is filled lazily, once per node, bottom-up without
recursion: a set on every node would cost more than the node.  ``==``
and ``hash`` walk with an explicit stack too.

Simple types are interned: there is one ``SimpleType`` object per type,
so building a type is a table lookup and two types are compared with
``is``.

>>> parse(r"\f:o->o. \x:o. f x")
Abs(binders=(('f', o->o), ('x', o)), body=App(head=Var(name='f'), args=(Var(name='x'),)))
>>> pretty(parse(r"(\x:o. x) ((\y:o. y) z)"))
'(\\x:o. x) ((\\y:o. y) z)'
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from itertools import repeat
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


class SimpleType:
    """A simple type over the single atom ``o``, curried-normalized.

    The result of every type is the ground atom, so a type is just the
    tuple of its argument types; ``o`` is ``SimpleType(())`` and
    ``A -> B`` is ``SimpleType((A,) + B.arguments)``.

    Types are interned: ``SimpleType(arguments)`` looks its arguments up
    in a module table and returns the one object for that type, built,
    with its order, the first time it is asked for.  So two types are
    equal exactly when they are the same object, and ``==`` and ``hash``
    are those of identity; ``pickle`` and ``copy`` hand back the interned
    object too.  A type is immutable.
    """

    __slots__ = ("arguments", "order")

    arguments: tuple["SimpleType", ...]
    order: int

    def __new__(cls, arguments: tuple["SimpleType", ...] = ()):
        if type(arguments) is not tuple:
            arguments = tuple(arguments)
        t = _TYPES.get(arguments)
        if t is not None:
            return t
        order = 0
        for a in arguments:
            if a.order >= order:
                order = a.order + 1
        t = object.__new__(cls)
        _set(t, "arguments", arguments)
        _set(t, "order", order)
        return _TYPES.setdefault(arguments, t)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SimpleType, (self.arguments,)

    def __str__(self) -> str:
        return type_text(self, spaced=True)

    def __repr__(self) -> str:  # keeps the reprs of terms readable
        return type_text(self)


_TYPES: dict[tuple[SimpleType, ...], SimpleType] = {}  # every type built, by its arguments
_set = object.__setattr__  # SimpleType is immutable
GROUND = SimpleType()


def arrow(*parts: SimpleType) -> SimpleType:
    """arrow(A, B, C) is A -> B -> C with the last part as the result."""
    if not parts:
        raise ValueError("arrow() needs at least a result type")
    *args, result = parts
    return SimpleType(tuple(args) + result.arguments)


def type_text(t: SimpleType, spaced: bool = False) -> str:
    """The text of `t`, arrows spaced out when `spaced`, printed with an
    explicit stack, so nesting depth is not limited by Python's recursion
    limit."""
    if not t.arguments:
        return "o"
    sep = " -> " if spaced else "->"
    out: list[str] = []
    todo: list = [t]  # a type to print, or a str to emit
    while todo:
        t = todo.pop()
        if type(t) is str:
            out.append(t)
            continue
        todo.append("o")
        for a in reversed(t.arguments):
            todo.append(sep)
            if a.arguments:
                todo += (")", a, "(")
            else:
                todo.append("o")
    return "".join(out)


# ---------------------------------------------------------------------------
# Terms

Binder = tuple[str, SimpleType]


class Term:
    """A term node: a `Var`, an `Abs` or an `App`, immutable.

    Every node has `size`, its node count with binders included (the
    measure budgets use), and `canonical`, whether no Abs stands directly
    in an Abs body and no App as an App head anywhere in it; both are set
    when the node is built.  `closed_type` and `closed_safe` are the simple
    type of a closed, well-typed Abs or App and whether it is Safe, kept
    together in its node by `keep_closed_type` the first time the walk of
    `simple_type_of` or `safety_check` finds it closed.  `closed_type` is
    None until then and on every other term; `closed_safe` is set with it
    only, so a node is built without it.  `eta_type` is the type of a
    closed, canonical, eta-long Abs or App, kept on it by `keep_eta_type`
    the first time a typing walk under the empty environment finds it so
    (:func:`safelc.safety.eta_types` then does not walk it again); None
    until then and on every other term.

    Nodes have slots and no instance dict: a slot per field and per cached
    fact, the lazy ones (`free_names`, `binder_names`) None until first
    read.  Assigning to or deleting a slot raises; `Abs` and `App` are
    built in a private subclass that stores the slots plainly and then
    hands the node out under its public class.  Two nodes are equal when
    they are of the same class with equal fields; `==` and `hash` walk the
    terms with an explicit stack.  `repr`, `pickle` and `copy` see the
    fields alone, as a dataclass's would.
    """

    __slots__ = ("_free_names",)

    size: int
    canonical: bool
    closed_type: Optional[SimpleType] = None
    eta_type: Optional[SimpleType] = None

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self, other)

    def __hash__(self) -> int:
        return _hash(self)

    def __repr__(self) -> str:
        return _repr(self)

    @property
    def free_names(self) -> frozenset[str]:
        """Names of the variables occurring free."""
        names = self._free_names
        return _fill_free_names(self) if names is None else names


# Abs and App are built in `__new__`, in a private subclass whose
# `__setattr__` and `__delattr__` are `object`'s, so each slot is set by a
# plain store; the node then takes its public class.  Both must be
# `object`'s: they share one C slot, and one Python override leaves every
# store on the slow path.  The checks run before anything is allocated.
# Var keeps the descriptor setter: with two slots the class swap costs
# about what it saves.


class Var(Term):
    __slots__ = ("name",)

    name: str

    size = 1
    canonical = True

    def __init__(self, name: str):
        _var_name(self, name)
        _set_free_names(self, None)

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"

    def __reduce__(self):
        return Var, (self.name,)


class Abs(Term):
    __slots__ = (
        "binders", "body", "size", "canonical", "closed_type", "closed_safe", "eta_type", "_binder_names"
    )

    binders: tuple[Binder, ...]
    body: Term

    def __new__(cls, binders: tuple[Binder, ...], body: Term):
        if len(binders) != 1:  # one binder has no name to clash with
            if not binders:
                raise ValueError("Abs needs at least one binder")
            names = [n for n, _ in binders]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate binder name in block: {names}")
        self = _new(_BuildAbs)
        self.binders = binders
        self.body = body
        self.size = 1 + len(binders) + body.size
        self.canonical = type(body) is not Abs and body.canonical
        self.closed_type = None
        self.eta_type = None
        self._free_names = None
        self._binder_names = None
        self.__class__ = Abs
        return self

    def __reduce__(self):
        return Abs, (self.binders, self.body)

    @property
    def binder_names(self) -> tuple[str, ...]:
        names = self._binder_names
        if names is None:
            names = tuple(n for n, _ in self.binders)
            _abs_binder_names(self, names)
        return names


class App(Term):
    __slots__ = ("head", "args", "size", "canonical", "closed_type", "closed_safe", "eta_type")

    head: Term
    args: tuple[Term, ...]

    def __new__(cls, head: Term, args: tuple[Term, ...]):
        if not args:
            raise ValueError("App needs at least one argument")
        size = 1 + head.size
        canonical = type(head) is not App and head.canonical
        for a in args:
            size += a.size
            canonical = canonical and a.canonical
        self = _new(_BuildApp)
        self.head = head
        self.args = args
        self.size = size
        self.canonical = canonical
        self.closed_type = None
        self.eta_type = None
        self._free_names = None
        self.__class__ = App
        return self

    def __reduce__(self):
        return App, (self.head, self.args)


class _BuildAbs(Abs):
    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


class _BuildApp(App):
    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


_new = object.__new__
_set_free_names = Term._free_names.__set__
_var_name = Var.name.__set__
_abs_binder_names = Abs._binder_names.__set__
_CLOSED_FACTS = {  # the setters of `closed_type` and `closed_safe`, by kind
    Abs: (Abs.closed_type.__set__, Abs.closed_safe.__set__),
    App: (App.closed_type.__set__, App.closed_safe.__set__),
}


def keep_closed_type(term: Term, ty: SimpleType, safe: bool) -> None:
    """Keep `ty` as the `closed_type` of `term`, a closed Abs or App, and
    `safe` as its `closed_safe`."""
    set_type, set_safe = _CLOSED_FACTS[type(term)]
    set_type(term, ty)
    set_safe(term, safe)


_ETA_TYPE = {Abs: Abs.eta_type.__set__, App: App.eta_type.__set__}  # its setter, by kind


def keep_eta_type(term: Term, ty: SimpleType) -> None:
    """Keep `ty` as the `eta_type` of `term`, a closed, canonical, eta-long
    Abs or App."""
    _ETA_TYPE[type(term)](term, ty)


def _fill_free_names(node: Term) -> frozenset[str]:
    """`node.free_names`, filling the slot of each descendant that lacks
    it first, bottom-up with an explicit stack, so each node's set is
    built once from its children's and no call recurses."""
    todo = [node]
    while todo:
        t = todo[-1]
        if t._free_names is not None:
            todo.pop()
            continue
        kind = type(t)
        if kind is Var:
            _set_free_names(t, frozenset((t.name,)))
            todo.pop()
            continue
        children = (t.body,) if kind is Abs else (t.head, *t.args)
        waiting = len(todo)
        for c in children:
            if c._free_names is None:
                if type(c) is Var:  # a leaf: no need to come back
                    _set_free_names(c, frozenset((c.name,)))
                else:
                    todo.append(c)
        if len(todo) == waiting:  # every child's set is there
            todo.pop()
            if kind is Abs:
                names = t.body._free_names - {n for n, _ in t.binders}
            else:
                names = t.head._free_names
                for a in t.args:
                    names = names | a._free_names
            _set_free_names(t, names)
    return node._free_names


def _equal(a: Term, b: Term) -> bool:
    """Same class and equal fields, node by node with an explicit stack."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        kind = type(x)
        if kind is not type(y) or x.size != y.size:
            return False
        if kind is Var:
            if x.name != y.name:
                return False
        elif kind is Abs:
            if x.binders != y.binders:
                return False
            todo.append((x.body, y.body))
        else:
            if len(x.args) != len(y.args):
                return False
            todo += zip(x.args, y.args)
            todo.append((x.head, y.head))
    return True


def _repr(term: Term) -> str:
    """The dataclass-style text of `term`, printed with an explicit stack."""
    out: list[str] = []
    todo: list = [term]  # a term to print, or a str to emit
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is str:
            out.append(t)
        elif kind is Abs:
            out.append(f"Abs(binders={t.binders!r}, body=")
            todo += (")", t.body)
        elif kind is App:
            out.append("App(head=")
            args = t.args
            todo.append(",))" if len(args) == 1 else "))")
            for a in reversed(args[1:]):
                todo += (a, ", ")
            todo += (args[0], ", args=(", t.head)
        else:
            out.append(f"Var(name={t.name!r})")
    return "".join(out)


def _hash(term: Term) -> int:
    """A hash of the node fields in pre-order, which with each App's
    argument count spell the whole term, so equal terms hash alike."""
    h = 0
    for t in subterms(term):
        kind = type(t)
        h = hash((h, t.name if kind is Var else t.binders if kind is Abs else len(t.args)))
    return h


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
    """Merge nested Abs blocks and flatten App heads, at every level.

    Idempotent.  If merging two blocks would put the same name twice in
    one block, the earlier (necessarily vacuous, since the later binder
    shadows it over its entire scope) binder is renamed with the primed
    fresh-name scheme, as `mk_abs` does.  A term that is already
    canonical is returned as it is, on the flag its node carries.
    """
    return term if term.canonical else _regroup(term)


def _regroup(term: Term) -> Term:
    """Rebuild every non-canonical node bottom-up with `mk_abs` and
    `mk_app`, with an explicit stack; canonical subterms are kept as the
    same objects, and a node met twice is rebuilt once."""
    done: list[Term] = []  # rebuilt subterms, in order
    todo: list = [term]  # a term to enter, or (term,) to rebuild
    rebuilt: dict[int, Term] = {}  # by the id of the node, which `term` holds
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            t = t[0]
            if type(t) is Abs:
                new = mk_abs(t.binders, done.pop())
            else:
                n = len(t.args)
                args = tuple(done[-n:])
                del done[-n:]
                new = mk_app(done.pop(), args)
            done.append(new)
            rebuilt[id(t)] = new
        elif t.canonical:
            done.append(t)
        elif id(t) in rebuilt:
            done.append(rebuilt[id(t)])
        elif type(t) is Abs:
            todo += ((t,), t.body)
        else:
            todo.append((t,))
            todo += reversed(t.args)
            todo.append(t.head)
    return done[0]


def mk_abs(binders: tuple[Binder, ...], body: Term) -> Term:
    """Abs that stays canonical; with no binders it is just the body.

    `body` must be canonical.  An Abs body merges into one block with
    `binders`.  An outer binder named as one of the inner block is
    shadowed over its whole scope, so vacuous; such binders are renamed,
    right to left, with the primed fresh-name scheme, avoiding every name
    of the block and of its body.
    """
    if not binders:
        return body
    if type(body) is not Abs:
        return Abs(binders, body)
    inner = body.binder_names
    for n, _ in binders:  # loops: comprehensions would make `inner` and `taken` cells
        if n in inner:
            taken = set(all_names(body)).union(m for m, _ in binders)
            renamed = []
            for m, ty in reversed(binders):
                renamed.append((primed(m, taken) if m in inner else m, ty))
            binders = tuple(reversed(renamed))
            break
    return Abs(binders + body.binders, body.body)


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
    must match exactly.  The terms are walked with an explicit stack, so
    nesting depth is not limited by Python's recursion limit.
    """
    if a is b:
        return True
    # subterm pairs to compare, with each side's bound names' depths and the depth
    todo = [(a, b, {}, {}, 0)]
    while todo:
        a, b, ma, mb, depth = todo.pop()
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Var:  # a bound name stands for its depth, a free one for itself
            if ma.get(a.name, a.name) != mb.get(b.name, b.name):
                return False
        elif kind is Abs:
            if len(a.binders) != len(b.binders):
                return False
            if any(ta is not tb for (_, ta), (_, tb) in zip(a.binders, b.binders)):
                return False
            ma, mb = dict(ma), dict(mb)
            for (na, _), (nb, _) in zip(a.binders, b.binders):
                ma[na] = mb[nb] = depth
                depth += 1
            todo.append((a.body, b.body, ma, mb, depth))
        elif kind is App:
            if len(a.args) != len(b.args):
                return False
            todo += zip(reversed(a.args), reversed(b.args), repeat(ma), repeat(mb), repeat(depth))
            todo.append((a.head, b.head, ma, mb, depth))
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Parsing

_NAME = r"[A-Za-z_][A-Za-z0-9_']*"  # a variable's name
_NAME_RE = re.compile(_NAME)
# a token, or any other non-space character, which is an error
_TOKEN_RE = re.compile(rf"({_NAME}|->|[\\.():])|\S")
# the same tokens, except that a whole binder block '\ ... .' is one token:
# the grammar puts no '\' or '.' inside a block, so it ends at the first '.';
# a block token holds only characters of its tokens, and spaces
_BLOCK_TOKEN_RE = re.compile(rf"(\\[A-Za-z0-9_'\s():>-]*\.|{_NAME}|->|[.():])|\S")

_RESERVED = {"\\", ".", "(", ")", ":", "->"}
_NO_ATOM = "\\.):-"  # first characters of the tokens no atom starts with
_NAME_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"

# the binders of each block token read, at most _BLOCKS_MAX; emptied when full
_BLOCKS: dict[str, tuple[Binder, ...]] = {}
_BLOCKS_MAX = 256


class _Reread(Exception):
    """The block reading failed: read the text again token by token,
    which spells the error out."""


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
    """One left-to-right pass over the tokens with an explicit stack.

    A parser reads one of two token streams.  Token by token (the
    default), each '\\' is a token of its own and `block_at` reads the
    binders after it.  With `blocks`, each binder block '\\ ... .' is one
    token whose binders come from a bounded table keyed by the block text,
    so a block that recurs is read once and `new_block` reads one the
    table lacks; `term_at` reads both streams, and tells a block from an
    atom by a token's first character.  A block stream spells no error
    out: any failure, from a character no token starts with to a bad block
    or a grammar error, raises `_Reread`, and `parse` reads the text again
    token by token.  Types, environments and every ParseError are read
    token by token.

    Offsets are only worked out, by a second `_scan`, when an error is
    raised; a well-formed text is read with one `findall`.
    """

    def __init__(self, text: str, blocks: bool = False):
        self.text = text
        self.blocks = blocks
        tokens = (_BLOCK_TOKEN_RE if blocks else _TOKEN_RE).findall(text)
        if "" in tokens:  # the catch-all matched: a character no token starts with
            if blocks:
                raise _Reread
            _scan(text, _TOKEN_RE)
        tokens.append(None)  # end of input
        self.tokens = tokens

    def fail(self, i: int, msg: str):
        """Raise ParseError at token i (len(tokens) - 1 is the end), or
        `_Reread` from a block stream."""
        if self.blocks:
            raise _Reread
        tokens, offsets = _scan(self.text, _TOKEN_RE)
        offsets.append(offsets[-1] + len(tokens[-1]) if tokens else 0)
        raise ParseError(msg, *_position(self.text, offsets[i]))

    def expected(self, i: int, what: str):
        """Raise the error that token i is not `what`."""
        tok = self.tokens[i]
        self.fail(i, f"expected {what}, found {'end of input' if tok is None else repr(tok)}")

    def whole(self, read_at):
        """What `read_at` (`term_at` or `type_at`) reads from the whole text."""
        if self.tokens[0] is None:
            self.fail(0, "empty input")
        t, i = read_at(self, 0)
        tok = self.tokens[i]
        if tok is not None:
            self.fail(i, f"trailing input starting at {tok!r}")
        return t

    # type  ::= tatom ('->' type)?
    # tatom ::= '(' type ')' | 'o'
    def type_at(self, i: int) -> tuple[SimpleType, int]:
        """The type starting at token i, and the index after it."""
        tokens = self.tokens
        if tokens[i] == "o" and tokens[i + 1] != "->":
            return GROUND, i + 1  # the most common annotation
        outer: list[list[SimpleType]] = []  # atoms of each enclosing '(' level
        atoms: list[SimpleType] = []  # the '->'-separated atoms of this level
        while True:
            tok = tokens[i]
            if tok == "(":
                outer.append(atoms)
                atoms = []
                i += 1
                continue
            if tok is None or tok in _RESERVED:
                self.expected(i, "type")
            if tok != "o":
                self.fail(i, f"unknown type atom {tok!r}")
            i += 1
            t = GROUND
            while True:  # t ends an atom: close the levels it completes
                atoms.append(t)
                if tokens[i] == "->":
                    i += 1
                    break
                if len(atoms) > 1:
                    t = SimpleType(tuple(atoms[:-1]) + atoms[-1].arguments)
                if not outer:
                    return t, i
                if tokens[i] != ")":
                    self.expected(i, "')'")
                i += 1
                atoms = outer.pop()

    # term   ::= '\' (ident ':' type)+ '.' term | atom+
    # atom   ::= '(' term ')' | ident
    def term_at(self, i: int) -> tuple[Term, int]:
        """The term starting at token i, as written, and the index after it."""
        tokens, no_atom = self.tokens, _NO_ATOM
        # the nodes built, so a subterm written twice is one object: a Var by
        # its name, an Abs or App by its class and the ids of its parts, which
        # stay valid while the nodes holding those parts are here
        nodes: dict = {}
        # frames: a binder tuple waits for its body, a list gathers the
        # atoms of an application, None waits for a ')'
        stack: list = []
        while True:
            tok = tokens[i]
            if tok is not None and tok[0] == "\\":
                if len(tok) == 1:  # token by token
                    binders, i = self.block_at(i + 1)
                else:  # a whole block
                    binders = _BLOCKS.get(tok) or self.new_block(tok)
                    i += 1
                stack.append(binders)
                continue
            atoms: list[Term] = []
            stack.append(atoms)
            while True:  # the atoms of one application
                tok = tokens[i]
                if tok == "(":
                    stack.append(None)
                    i += 1
                    break  # a parenthesized term starts
                if tok is None or tok[0] in no_atom:
                    self.expected(i, "variable")
                i += 1
                t: Term = nodes.get(tok) or nodes.setdefault(tok, Var(tok))
                while True:  # t is an atom of the application on top
                    atoms = stack[-1]
                    atoms.append(t)
                    tok = tokens[i]
                    if tok is not None and tok[0] not in no_atom:
                        break  # another atom follows
                    stack.pop()
                    t = atoms[0]
                    if len(atoms) > 1:
                        if not stack:  # the root, which no other node repeats
                            t = App(t, tuple(atoms[1:]))
                        else:
                            key = (App, id(t), id(atoms[1])) if len(atoms) == 2 else (App, *map(id, atoms))
                            t = nodes.get(key) or nodes.setdefault(key, App(t, tuple(atoms[1:])))
                    while stack and type(stack[-1]) is tuple:
                        binders = stack.pop()
                        if not stack:
                            t = Abs(binders, t)
                        else:
                            key = (Abs, id(binders), id(t))
                            t = nodes.get(key) or nodes.setdefault(key, Abs(binders, t))
                    if not stack:
                        return t, i
                    if tokens[i] != ")":
                        self.expected(i, "')'")
                    i += 1
                    stack.pop()  # the parenthesized term is an atom again

    def new_block(self, block: str) -> tuple[Binder, ...]:
        """The binders of a block token missing from the table, read by
        `block_at` and added to the table.

        A block token holds only identifier characters, spaces and the
        symbols '(', ')', ':', '-' and '>'.  Once every '-' and '>' is
        known to stand in a '->', spacing the symbols out splits the block
        into the tokens `_TOKEN_RE` finds in it, except that a run starting
        with a digit or "'" stays whole where `_TOKEN_RE` stops at a bad
        character; `block_at` takes no such run.  So a miss builds no second
        parser and scans the block with string methods, not a second
        regular expression.  The split tokens stand in for the text's
        while `block_at` reads them; a failure raises `_Reread`, which
        drops this parser.
        """
        arrowless = block.replace("->", "")
        if "-" in arrowless or ">" in arrowless:
            raise _Reread  # a '-' or '>' outside '->'
        tokens = self.tokens
        self.tokens = block_tokens = (
            block[1:-1].replace("->", " -> ").replace(":", " : ")
            .replace("(", " ( ").replace(")", " ) ").split()
        )
        block_tokens += (".", None)
        binders, _ = self.block_at(0)
        self.tokens = tokens
        if len(_BLOCKS) >= _BLOCKS_MAX:
            _BLOCKS.clear()
        _BLOCKS[block] = binders
        return binders

    def block_at(self, i: int) -> tuple[tuple[Binder, ...], int]:
        """The binders from token i on, after a '\\', and the index after '.'."""
        tokens = self.tokens
        binders: list[Binder] = []
        names_seen: set[str] = set()
        while True:
            name = tokens[i]
            if name is None or name[0] not in _NAME_START:
                self.expected(i, "binder")
            if name in names_seen:
                self.fail(i, f"duplicate binder {name!r} in one block")
            names_seen.add(name)
            i += 1
            if tokens[i] != ":":
                self.fail(i, f"binder {name!r} lacks a type annotation")
            ty, i = self.type_at(i + 1)
            binders.append((name, ty))
            if tokens[i] == ".":
                return tuple(binders), i + 1


def parse(text: str, canonical: bool = True) -> Term:
    """Parse a term; by default the result is canonicalized.

    Pass canonical=False to keep the grouping exactly as written, e.g. to
    feed the safety checker an ungrouped abstraction chain.  Within the
    text, a subterm written twice is one object, as is each name's `Var`.
    """
    try:
        t = _Parser(text, blocks=True).whole(_Parser.term_at)
    except _Reread:
        t = _Parser(text).whole(_Parser.term_at)
    return _regroup(t) if canonical and not t.canonical else t


def parse_type(text: str) -> SimpleType:
    return _Parser(text).whole(_Parser.type_at)


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
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad variable name {name!r}")
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
    """The text of `term` at precedence `level`, printed with an explicit
    stack, so nesting depth is not limited by Python's recursion limit."""
    out: list[str] = []
    todo: list = [(term, level)]  # a (term, level) to print, or a str to emit
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, level = item
        if type(t) is Var:
            out.append(t.name)
        elif type(t) is Abs:
            if level > 0:
                out.append("(")
                todo.append(")")
            binders = " ".join(f"{n}:{type_text(ty)}" for n, ty in t.binders)
            out.append(f"\\{binders}. ")
            body = t.body
            if type(body) is Abs:  # keep a deliberately ungrouped chain ungrouped
                todo += (")", (body, 0), "(")
            else:
                todo.append((body, 0))
        elif type(t) is App:
            if level >= 2:
                out.append("(")
                todo.append(")")
            for a in reversed(t.args):
                todo += ((a, 2), " ")
            head = t.head
            if type(head) is App:
                todo += (")", (head, 1), "(")
            else:
                todo.append((head, 1))
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)
