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

``simple_type_of`` and ``safety_check`` share one typing walk with an
explicit stack, so neither recurses however deep the term is; the safety
check is that walk with a trace.  ``eta_long`` still recurses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional

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


class TraceEntry(NamedTuple):
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


_binder_name, _binder_type = itemgetter(0), itemgetter(1)


def _walk(ctx: dict[str, SimpleType], term: Term, trace: Optional[list]) -> tuple[SimpleType, bool]:
    """Type `term` in `ctx` in one depth-first pass with an explicit stack.

    `ctx` is updated on entering a block and restored on leaving it.  The
    head of an App is typed before its arguments, and each argument is
    checked as soon as it is typed, so the first error is the one a
    left-to-right recursive typing would meet.  Given a `trace` list, the
    walk also appends the safety derivation in pre-order: an entry per
    variable, and per block a slot filled with its order condition when
    the block is left.  Returns the type and whether a block below the
    root failed its condition.

    Locations are spelled out for each trace entry; without a trace they
    are kept as linked (parent, step) pairs and spelled out on an error.
    """
    traced = trace is not None
    inner_failed = False
    # a frame per block entered and not yet left: [Abs, location, trace
    # slot, shadowed types] or [App, location, trace slot, head type, index
    # of the argument typed last]
    stack: list = []
    t, loc = term, ("" if traced else None)
    while True:
        # go down through blocks to the variable they start with
        while True:
            if isinstance(t, App):
                frame = [t, loc, 0, None, 0]
                t, step = t.head, "head"
            elif isinstance(t, Abs):
                binders = t.binders
                # the types the binders shadow, None where nothing is shadowed
                frame = [t, loc, 0, tuple(map(ctx.get, map(_binder_name, binders)))]
                ctx.update(binders)
                t, step = t.body, "body"
            else:
                break
            stack.append(frame)
            if traced:
                frame[2] = len(trace)
                trace.append(None)  # this block's entry, filled in on leaving
                loc = f"{loc}.{step}" if loc else step
            else:
                loc = (loc, step)
        if not isinstance(t, Var):
            raise TypeError(f"not a term: {t!r}")
        ty = ctx.get(t.name)
        if ty is None:
            raise UnboundVariableError(f"unbound variable {t.name!r}", loc if traced else _where(loc))
        if traced:
            trace.append(TraceEntry("var", loc, ty.order))

        # ty is the type of the node just typed: go on with its siblings,
        # typing variable arguments in place, and leave the blocks it ends
        while stack:
            frame = stack[-1]
            node, at = frame[0], frame[1]
            if isinstance(node, Abs):
                for (n, _), old in zip(node.binders, frame[3]):
                    if old is None:
                        del ctx[n]
                    else:
                        ctx[n] = old
                ty = SimpleType(tuple(map(_binder_type, node.binders)) + ty.arguments)
                rule = "abs"
            else:
                head, i, args = frame[3], frame[4], node.args
                if head is None:
                    frame[3] = head = ty
                    i = -1  # no argument typed yet
                wanted = head.arguments
                while True:
                    if i >= 0 and (i >= len(wanted) or (ty is not wanted[i] and ty != wanted[i])):
                        where = (f"{at}.arg{i}" if at else f"arg{i}") if traced else _where((at, i))
                        raise _arg_error(head, len(args), i, ty, where)
                    i += 1
                    if i == len(args):
                        break
                    t = args[i]
                    if not isinstance(t, Var):
                        break
                    ty = ctx.get(t.name)
                    if ty is None or traced:
                        where = (f"{at}.arg{i}" if at else f"arg{i}") if traced else _where((at, i))
                        if ty is None:
                            raise UnboundVariableError(f"unbound variable {t.name!r}", where)
                        trace.append(TraceEntry("var", where, ty.order))
                if i < len(args):
                    frame[4] = i
                    loc = (f"{at}.arg{i}" if at else f"arg{i}") if traced else (at, i)
                    break
                rest = wanted[len(args):]
                ty = SimpleType(rest) if rest else GROUND
                rule = "app"
            stack.pop()
            if traced:
                # the block's order condition against its free variables
                free = node.free_names
                if free:
                    worst_order, worst_name = min([(ctx[n].order, n) for n in free])
                    ok = worst_order >= ty.order
                    trace[frame[2]] = TraceEntry(rule, at, ty.order, worst_name, worst_order, ok)
                    if not ok and stack:
                        inner_failed = True
                else:
                    trace[frame[2]] = TraceEntry(rule, at, ty.order)
        else:
            return ty, inner_failed


def _type_of(ctx: dict[str, SimpleType], term: Term) -> SimpleType:
    """The type of `term` in `ctx`; `ctx` is as it was when this returns."""
    return _walk(ctx, term, None)[0]


def simple_type_of(env: TypeEnv, term: Term) -> SimpleType:
    """The unique simple type of a Church-annotated term, or a TypeCheckError."""
    return _type_of(dict(env), term)


def safety_check(env: TypeEnv, term: Term) -> SafetyVerdict:
    """Classify a term as Safe / AlmostSafe / UnsafeTypable / IllTyped.

    The trace holds one entry per node in pre-order.  Failures below the
    root demote the verdict to UnsafeTypable; a failure at the root alone
    gives AlmostSafe.  Typing happens in the same walk as
    `simple_type_of`, so an ill-typed term reports the same first error.
    """
    trace: list[TraceEntry] = []
    try:
        ty, inner_failed = _walk(dict(env), term, trace)
    except TypeCheckError as e:
        entry = TraceEntry(rule="type-error", location=e.location, ok=False, note=e.message)
        return SafetyVerdict(Level.ILL_TYPED, None, (entry,))
    if inner_failed:
        level = Level.UNSAFE_TYPABLE
    elif not trace[0].ok:
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
