r"""Simple type checking and the safety judgment.

A well-typed term is *safe* when every abstraction block and every
application block satisfies the order condition: each variable occurring
free in the block has order at least the order of the type of the term
the block forms.  Variables alone are unconstrained, so the judgment is
exactly a walk over the Abs and App nodes of the AST as written, which is
why grouping matters:

>>> from safelc.syntax import parse
>>> safety_check({}, parse(r"\x:o f:o->o. f x")).level.name
'SAFE'
>>> safety_check({}, parse(r"\x:o. (\f:o->o. f x)", canonical=False)).level.name
'UNSAFE_TYPABLE'

The inner block of the second term has the order-2 type (o->o)->o but x,
free in it, has order 0.

Levels are ordered by permissiveness.  ALMOST_SAFE waives the condition
at the root node only (the shape application sequences pass through while
being built up, and the shape a partial block contraction re-wraps into);
everything below the root must still pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    GROUND,
    Abs,
    App,
    SimpleType,
    Term,
    TypeEnv,
    Var,
    all_names,
    canonicalize,
    fresh_names,
    mk_app,
    type_text,
)


class TypeCheckError(Exception):
    def __init__(self, message: str, location: str = ""):
        where = location or "<root>"
        super().__init__(f"{message} (at {where})")
        self.message = message
        self.location = location


class UnboundVariableError(TypeCheckError):
    pass


class ArgumentMismatchError(TypeCheckError):
    pass


class TooManyArgumentsError(TypeCheckError):
    pass


class Level(enum.IntEnum):
    ILL_TYPED = 0
    UNSAFE_TYPABLE = 1
    ALMOST_SAFE = 2
    SAFE = 3

    def __str__(self) -> str:
        return {
            Level.SAFE: "Safe",
            Level.ALMOST_SAFE: "AlmostSafe",
            Level.UNSAFE_TYPABLE: "UnsafeTypable",
            Level.ILL_TYPED: "IllTyped",
        }[self]


@dataclass(frozen=True)
class TraceEntry:
    """One rule application in a safety derivation.

    For abs/app entries the comparison performed is
    min(order of free variables) >= order of the node's type; free_name
    and free_order record the variable attaining the minimum (None for a
    closed node).  ok is False when the comparison failed; the root node
    of an AlmostSafe term keeps its failing entry in the trace.
    """

    rule: str
    location: str
    term_order: Optional[int] = None
    free_name: Optional[str] = None
    free_order: Optional[int] = None
    ok: bool = True
    note: str = ""

    def describe(self) -> str:
        where = self.location or "<root>"
        if self.rule == "type-error":
            return f"type error at {where}: {self.note}"
        if self.rule == "var":
            return f"(var) {where}: order {self.term_order}"
        cmp = ""
        if self.free_name is not None:
            op = ">=" if self.ok else "<"
            cmp = f": free {self.free_name} order {self.free_order} {op} term order {self.term_order}"
        else:
            cmp = f": no free variables, term order {self.term_order}"
        status = "ok" if self.ok else "VIOLATION"
        return f"({self.rule}) {where} {status}{cmp}"


@dataclass(frozen=True)
class SafetyVerdict:
    level: Level
    type: Optional[SimpleType]
    trace: tuple[TraceEntry, ...]

    @property
    def failures(self) -> tuple[TraceEntry, ...]:
        return tuple(e for e in self.trace if not e.ok)

    @property
    def first_failure(self) -> Optional[TraceEntry]:
        for e in self.trace:
            if not e.ok:
                return e
        return None

    def describe(self) -> str:
        head = str(self.level)
        if self.type is not None:
            head += f" : {self.type}"
        return head


def _join(prefix: str, step: str) -> str:
    return f"{prefix}.{step}" if prefix else step


def _where(path) -> str:
    """Spell out a location kept as linked (parent, step) pairs."""
    steps = []
    while path is not None:
        path, step = path
        steps.append(step if isinstance(step, str) else f"arg{step}")
    return ".".join(reversed(steps))


def _arg_error(head: SimpleType, nargs: int, i: int, got: SimpleType, location: str) -> TypeCheckError:
    """The error for argument i of nargs, of type got, given to head."""
    if i >= len(head.arguments):
        return TooManyArgumentsError(
            f"term of type {type_text(head)} applied to {nargs} arguments", location
        )
    return ArgumentMismatchError(
        f"argument type mismatch: expected {type_text(head.arguments[i])}, got {type_text(got)}",
        location,
    )


def _type_of(ctx: dict[str, SimpleType], term: Term, path=None) -> SimpleType:
    # the location is only spelled out when an error is raised
    if isinstance(term, Var):
        ty = ctx.get(term.name)
        if ty is None:
            raise UnboundVariableError(f"unbound variable {term.name!r}", _where(path))
        return ty
    if isinstance(term, Abs):
        inner = dict(ctx)
        inner.update(term.binders)
        body = _type_of(inner, term.body, (path, "body"))
        return SimpleType(tuple(t for _, t in term.binders) + body.arguments)
    if isinstance(term, App):
        head = _type_of(ctx, term.head, (path, "head"))
        wanted = head.arguments
        for i, arg in enumerate(term.args):
            got = _type_of(ctx, arg, (path, i))
            if i >= len(wanted) or got != wanted[i]:
                raise _arg_error(head, len(term.args), i, got, _where((path, i)))
        return SimpleType(wanted[len(term.args):])
    raise TypeError(f"not a term: {term!r}")


def simple_type_of(env: TypeEnv, term: Term) -> SimpleType:
    """The unique simple type of a Church-annotated term, or a TypeCheckError."""
    return _type_of(dict(env), term)


def safety_check(env: TypeEnv, term: Term) -> SafetyVerdict:
    """Classify a term as Safe / AlmostSafe / UnsafeTypable / IllTyped.

    The trace holds one entry per node in pre-order.  Failures below the
    root demote the verdict to UnsafeTypable; a failure at the root alone
    gives AlmostSafe.  Typing happens in the same walk, in the order of
    `simple_type_of`, so an ill-typed term reports the same first error.
    """
    trace: list[Optional[TraceEntry]] = []
    root_failed = False
    inner_failed = False

    def walk(t: Term, ctx: dict[str, SimpleType], location: str) -> SimpleType:
        nonlocal root_failed, inner_failed
        if isinstance(t, Var):
            ty = ctx.get(t.name)
            if ty is None:
                raise UnboundVariableError(f"unbound variable {t.name!r}", location)
            trace.append(TraceEntry(rule="var", location=location, term_order=ty.order))
            return ty
        pos = len(trace)
        trace.append(None)  # this block's entry, filled in below
        if isinstance(t, Abs):
            rule = "abs"
            inner = dict(ctx)
            inner.update(t.binders)
            body = walk(t.body, inner, _join(location, "body"))
            ty = SimpleType(tuple(b for _, b in t.binders) + body.arguments)
        elif isinstance(t, App):
            rule = "app"
            head = walk(t.head, ctx, _join(location, "head"))
            wanted = head.arguments
            for i, arg in enumerate(t.args):
                where = _join(location, f"arg{i}")
                got = walk(arg, ctx, where)
                if i >= len(wanted) or got != wanted[i]:
                    raise _arg_error(head, len(t.args), i, got, where)
            ty = SimpleType(wanted[len(t.args):])
        else:
            raise TypeError(f"not a term: {t!r}")

        # the block's order condition against its free variables
        worst_name, worst_order = None, None
        if t.free_names:
            worst_name = min(t.free_names, key=lambda n: (ctx[n].order, n))
            worst_order = ctx[worst_name].order
        ok = worst_order is None or worst_order >= ty.order
        trace[pos] = TraceEntry(
            rule=rule,
            location=location,
            term_order=ty.order,
            free_name=worst_name,
            free_order=worst_order,
            ok=ok,
        )
        if not ok:
            if location == "":
                root_failed = True
            else:
                inner_failed = True
        return ty

    try:
        ty = walk(term, dict(env), "")
    except TypeCheckError as e:
        entry = TraceEntry(rule="type-error", location=e.location, ok=False, note=e.message)
        return SafetyVerdict(Level.ILL_TYPED, None, (entry,))
    if inner_failed:
        level = Level.UNSAFE_TYPABLE
    elif root_failed:
        level = Level.ALMOST_SAFE
    else:
        level = Level.SAFE
    return SafetyVerdict(level, ty, tuple(trace))


def homogeneity_check(t: SimpleType) -> bool:
    """True iff argument orders are non-increasing, hereditarily."""
    orders = [a.order for a in t.arguments]
    if any(orders[i] < orders[i + 1] for i in range(len(orders) - 1)):
        return False
    return all(homogeneity_check(a) for a in t.arguments)


def eta_long(env: TypeEnv, term: Term) -> Term:
    """Fully eta-expand a well-typed term.

    Every subterm of arrow type ends up abstracted and every head fully
    applied, with deterministic fresh binder names (_e1, _e2, ...).
    Idempotent, and beta-eta equal to the input.
    """
    term = canonicalize(term)
    ctx0 = dict(env)
    ty = _type_of(ctx0, term)  # surface type errors before rewriting

    fresh = fresh_names("_e", set(all_names(term)) | set(env))

    def expand(t: Term, ty: SimpleType, ctx: dict[str, SimpleType]) -> Term:
        if not ty.arguments:
            return expand_ground(t, ctx)
        if isinstance(t, Abs):
            binders = t.binders
            body: Term = t.body
        else:
            binders = ()
            body = t
        extra = tuple((next(fresh), a) for a in ty.arguments[len(binders):])
        inner = dict(ctx)
        inner.update(binders)
        inner.update(extra)
        if extra:
            body = mk_app(body, tuple(Var(n) for n, _ in extra))
        return Abs(binders + extra, expand_ground(body, inner))

    def expand_ground(t: Term, ctx: dict[str, SimpleType]) -> Term:
        if isinstance(t, Var):
            return t
        assert isinstance(t, App), "ground-typed subterm must be a variable or application"
        if isinstance(t.head, Var):
            head_type = ctx[t.head.name]
            head: Term = t.head
        else:
            head_type = _type_of(ctx, t.head)
            head = expand(t.head, head_type, ctx)
        new_args = tuple(expand(a, w, ctx) for a, w in zip(t.args, head_type.arguments))
        return mk_app(head, new_args)

    return expand(term, ty, ctx0)
