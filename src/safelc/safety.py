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

As in the paper, one derivation gives a term's type and shows whether it
is safe: ``simple_type_of`` and ``safety_check`` run the same walk, with
an explicit stack, so neither recurses however deep the term is.  The
walk decides each block's condition from a few (binding depth, order)
pairs per open block, with no free-variable sets and no trace.  The
derivation, one ``TraceEntry`` per node, is spelled out by the same walk
only when a verdict's ``trace`` is first read, as ``safelc check
--trace`` does, or its failures are listed for a term that is not Safe.
``eta_long`` types the term in the same walk, which notes whether it is
eta-long already instead of its level.  When it is not, the walk that
builds the computation tree (:mod:`safelc.games`) expands it, the one
expansion for ``safelc traverse`` and ``eta_long`` alike, and
``eta_long`` reads the eta-long form back off the tree.  A closed
subterm has one type and one level (Safe or UnsafeTypable) wherever it
stands, so it is typed and checked once per object: the walk keeps both
on each closed block it leaves (:func:`safelc.syntax.keep_closed_type`)
and takes such a node below the root as typed and checked without
entering it.  The first walk to find a closed, canonical term eta-long,
that of ``safety_check``, ``simple_type_of`` or ``eta_types``, keeps its
type on it as its ``eta_type``, so neither ``eta_long`` nor the tree
build, which both start from ``eta_types``, types it again.
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
    canonicalize,
    keep_closed_type,
    keep_eta_type,
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
    """A level, the simple type (None when ill-typed) and the derivation.

    A verdict from `safety_check` spells its `trace` out from the term the
    first time it is read, so reading only the level and the type never
    builds it.  A Safe verdict has no failures, so reading them builds
    nothing either.
    """

    level: Level
    type: Optional[SimpleType]
    trace: tuple[TraceEntry, ...]

    def __getattr__(self, name: str):
        # reached only while `trace` is missing, as in a verdict from
        # `safety_check` that kept its `_source`: spell it out once and keep it
        source = self.__dict__.get("_source")
        if name != "trace" or source is None:
            raise AttributeError(name)
        trace = self.__dict__["trace"] = tuple(_walk(*source, _TRACE)[2])
        return trace

    @property
    def failures(self) -> tuple[TraceEntry, ...]:
        if self.level is Level.SAFE:
            return ()
        return tuple(e for e in self.trace if not e.ok)

    @property
    def first_failure(self) -> Optional[TraceEntry]:
        failures = self.failures
        return failures[0] if failures else None

    def describe(self) -> str:
        head = str(self.level)
        if self.type is not None:
            head += f" : {self.type}"
        return head


def _where(stack: list) -> str:
    """Spell out the location below the open frames of `_walk`."""
    return ".".join(
        "body" if isinstance(f[0], Abs) else "head" if f[4] is None else f"arg{f[5]}"
        for f in stack
    )


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

# what `_walk` works out besides the type: whether the term is eta-long,
# the safety level, or the level and the derivation
_ETA, _LEVEL, _TRACE = range(3)


def _add(stair: list, depth: int, key) -> None:
    """Note a variable bound at stack index `depth` with `key` in a staircase.

    A staircase is a list of (depth, key) pairs with depths increasing and
    keys decreasing: a pair stays only while no pair at an equal or lower
    depth has an equal or lower key.  So the least key among the variables
    bound below depth k is the key of the last pair with depth below k,
    and there is at most one pair per distinct key.
    """
    d, k = stair[-1]
    if d <= depth:  # the common case: nothing deeper to drop
        if k > key:
            if d == depth:
                stair[-1] = (depth, key)
            else:
                stair.append((depth, key))
        return
    j = len(stair) - 1
    while j and stair[j - 1][0] > depth:
        j -= 1
    if j:
        d, k = stair[j - 1]
        if k <= key:
            return
        if d == depth:
            j -= 1
    # the pairs at `depth` or deeper that the new one makes redundant
    e = j
    while e < len(stair) and stair[e][1] >= key:
        e += 1
    stair[j:e] = ((depth, key),)


def _walk(env: TypeEnv, term: Term, mode: int) -> tuple[SimpleType, Optional[Level], Optional[list]]:
    """Type `term` in `env` in one depth-first pass with an explicit stack.

    The walk types in a context `ctx` that places each name at the stack
    index of the frame binding it (-1 for the names of `env`).  The head
    of an App is typed before its arguments, and each argument is checked
    as soon as it is typed, so the first error is the one a left-to-right
    recursive typing would meet.

    Under `_LEVEL` and `_TRACE` the walk decides each block's order
    condition.  Every open block keeps a staircase (see `_add`) of the
    variables occurring in it so far, keyed by their order.  The
    variables free in the block at index i are those placed below i, so
    its least free order is the key of the last pair placed below i; on
    leaving it, the pairs placed below i-1 go on to the parent.  Under
    `_TRACE` keys are (order, name), so the least one also names the
    variable attaining it, and the walk appends the derivation in
    pre-order: an entry per variable, and per block a slot filled with
    its order condition when the block is left.

    A block is closed when its staircase holds no pair placed below its
    own index.  Under `_LEVEL` the walk keeps on each closed block it
    leaves its type and whether no failure came since it was entered
    (:func:`safelc.syntax.keep_closed_type`); a node below the root that
    keeps them is taken as typed, and as a failure when it is not Safe,
    without entering it.

    `_ETA` notes no staircases; it notes instead whether the term, taken
    as canonical, is eta-long: every abstraction body is ground, and so is
    every variable or application standing as the root or as an argument.
    It keeps the frame of each application whose head is an abstraction,
    in pre-order, to read the head's type off at the end.  `_LEVEL` makes
    the same two checks on a canonical term in the empty environment,
    unless it takes a node as typed without entering it.  Either keeps
    the type of a term it finds eta-long there, closed, as its `eta_type`
    (:func:`safelc.syntax.keep_eta_type`).

    Returns the type, the level (None under `_ETA`) and the derivation
    under `_TRACE`.  Under `_ETA` the third item is None when the term is
    eta-long, and otherwise the types of its abstractions in head
    position, in pre-order.  Locations are spelled out for each trace
    entry; otherwise they are spelled out from the stack on an error.
    """
    levels, traced, memo = mode != _ETA, mode == _TRACE, mode == _LEVEL  # memo: kept facts serve
    # whether the term is eta-long, until a block or an argument shows
    # otherwise: noted under `_ETA`, and under `_LEVEL` where the fact can
    # be kept, on a canonical term in the empty environment
    eta = not levels or (memo and not env and term.canonical)
    redexes: Optional[list] = None if levels else []
    ctx = {n: (ty, -1) for n, ty in env.items()} if env else {}
    trace: Optional[list] = [] if traced else None
    root_failed = False
    mark = 0  # the failures below the root so far
    # a frame per block entered and not yet left: [Abs, location,
    # staircase, mark, shadowed entries of ctx] or [App, location,
    # staircase, mark, head type, index of the argument typed last], where
    # mark is its value on entry (under `_TRACE`, the trace slot of the
    # block instead); the staircase is None while empty
    stack: list = []
    t = term
    loc = at = ""
    while True:
        # go down through blocks to the variable they start with, or a node kept typed
        while True:
            if type(t) is Var:
                break
            if memo and stack and t.closed_type is not None:
                break
            if type(t) is App:
                frame = [t, loc, None, mark, None, 0]
                if redexes is not None and type(t.head) is Abs:
                    redexes.append(frame)
                t, step = t.head, "head"
            elif type(t) is Abs:
                binders = t.binders
                # the entries the binders shadow, None where nothing is shadowed
                frame = [t, loc, None, mark, tuple(map(ctx.get, map(_binder_name, binders)))]
                depth = len(stack)
                for name, bound in binders:  # a loop: no comprehension frame
                    ctx[name] = (bound, depth)
                t, step = t.body, "body"
            else:
                raise TypeError(f"not a term: {t!r}")
            stack.append(frame)
            if traced:
                frame[3] = len(trace)
                trace.append(None)  # this block's entry, filled in on leaving
                loc = f"{loc}.{step}" if loc else step
        if type(t) is Var:
            ty = ctx.get(t.name)
            if ty is None:
                raise UnboundVariableError(f"unbound variable {t.name!r}", loc if traced else _where(stack))
            ty, depth = ty
            if traced:
                trace.append(TraceEntry("var", loc, ty.order))
            if levels and stack:
                frame = stack[-1]
                key = (ty.order, t.name) if traced else ty.order
                if frame[2] is None:
                    frame[2] = [(depth, key)]
                else:
                    _add(frame[2], depth, key)
        else:  # typed and checked before, and closed: nothing free to note
            ty = t.closed_type
            eta = False  # not entered, so not known to be eta-long
            if not t.closed_safe:
                mark += 1

        # ty is the type of the node just typed: go on with its siblings,
        # typing variable arguments in place, and leave the blocks it ends
        while stack:
            frame = stack[-1]
            node = frame[0]
            if type(node) is Abs:
                for (n, _), old in zip(node.binders, frame[4]):
                    if old is None:
                        del ctx[n]
                    else:
                        ctx[n] = old
                if ty.arguments:
                    eta = False  # a body of arrow type
                ty = SimpleType(tuple(map(_binder_type, node.binders)) + ty.arguments)
                rule = "abs"
            else:
                head, i, args = frame[4], frame[5], node.args
                if head is None:
                    frame[4] = head = ty
                    i = -1  # no argument typed yet
                wanted = head.arguments
                if traced:
                    at = frame[1]
                while True:
                    if i >= 0:
                        if i >= len(wanted) or ty is not wanted[i]:
                            frame[5] = i
                            where = (f"{at}.arg{i}" if at else f"arg{i}") if traced else _where(stack)
                            raise _arg_error(head, len(args), i, ty, where)
                        if eta and ty.arguments and type(args[i]) is not Abs:
                            eta = False  # an argument of arrow type, not abstracted
                    i += 1
                    if i == len(args):
                        break
                    t = args[i]
                    if type(t) is not Var:
                        break
                    ty = ctx.get(t.name)
                    if ty is None:
                        frame[5] = i
                        where = (f"{at}.arg{i}" if at else f"arg{i}") if traced else _where(stack)
                        raise UnboundVariableError(f"unbound variable {t.name!r}", where)
                    ty, depth = ty
                    if not levels:
                        continue
                    key = ty.order
                    if traced:
                        trace.append(TraceEntry("var", f"{at}.arg{i}" if at else f"arg{i}", key))
                        key = (key, t.name)
                    if frame[2] is None:
                        frame[2] = [(depth, key)]
                    else:
                        _add(frame[2], depth, key)
                if i < len(args):
                    frame[5] = i
                    if traced:
                        loc = f"{at}.arg{i}" if at else f"arg{i}"
                    break
                rest = wanted[len(args):]
                ty = SimpleType(rest) if rest else GROUND
                rule = "app"
            stack.pop()
            if not levels:
                continue
            # the block's order condition against its free variables
            stair, depth = frame[2], len(stack)
            n = len(stair) if stair else 0
            if n and stair[n - 1][0] == depth:  # bound by this block
                n -= 1
            if n:
                key = stair[n - 1][1]
                ok = (key[0] if traced else key) >= ty.order
                if not ok:
                    if stack:
                        mark += 1
                    else:
                        root_failed = True
                if traced:
                    trace[frame[3]] = TraceEntry(rule, frame[1], ty.order, key[1], key[0], ok)
                # hand on what is free in the parent too
                while n and stair[n - 1][0] >= depth - 1:
                    n -= 1
                if n:
                    above = stack[-1]
                    if above[2] is None:
                        del stair[n:]
                        above[2] = stair
                    else:
                        for d, key in stair[:n]:
                            _add(above[2], d, key)
            elif traced:
                trace[frame[3]] = TraceEntry(rule, frame[1], ty.order)
            else:  # closed: Safe when no failure came since it was entered
                keep_closed_type(node, ty, mark == frame[3])
        else:
            eta = eta and (not ty.arguments or type(term) is Abs)
            if eta and not env:  # closed, since it is typed in no environment
                keep_eta_type(term, ty)
            if not levels:
                return ty, None, None if eta else [f[4] for f in redexes]
            if mark:
                level = Level.UNSAFE_TYPABLE
            elif root_failed:
                level = Level.ALMOST_SAFE
            else:
                level = Level.SAFE
            return ty, level, trace


def simple_type_of(env: TypeEnv, term: Term) -> SimpleType:
    """The unique simple type of a Church-annotated term, or a TypeCheckError.

    The walk is the one of `safety_check`, so it also keeps on each closed
    block whether it is Safe.  A closed term typed or checked before is
    not walked again: its type is the `closed_type` the first walk kept
    on it.
    """
    if not env:
        ty = term.closed_type
        if ty is not None:
            return ty
    return _walk(env, term, _LEVEL)[0]


def safety_check(env: TypeEnv, term: Term) -> SafetyVerdict:
    """Classify a term as Safe / AlmostSafe / UnsafeTypable / IllTyped.

    Failures below the root demote the verdict to UnsafeTypable; a failure
    at the root alone gives AlmostSafe.  Typing happens in the same walk
    as `simple_type_of`, so an ill-typed term reports the same first
    error, and its trace is that one entry.  Otherwise the trace, one
    entry per node in pre-order, is spelled out when first read.
    """
    ctx = dict(env)
    try:
        ty, level, _ = _walk(ctx, term, _LEVEL)
    except TypeCheckError as e:
        entry = TraceEntry(rule="type-error", location=e.location, ok=False, note=e.message)
        return SafetyVerdict(Level.ILL_TYPED, None, (entry,))
    verdict = object.__new__(SafetyVerdict)  # with no trace until it is read
    verdict.__dict__.update(level=level, type=ty, _source=(ctx, term))
    return verdict


def eta_long(env: TypeEnv, term: Term) -> Term:
    """Fully eta-expand a well-typed term.

    Every subterm of arrow type ends up abstracted and every head fully
    applied, with deterministic fresh binder names (_e1, _e2, ...).
    Idempotent, and beta-eta equal to the input.  The canonical form of
    the input is typed once; when it is already eta-long it is returned
    as it is, so canonical eta-long input comes back as the same object.
    Otherwise the term's computation tree, which is expanded as it is
    built (:func:`safelc.games.build_computation_tree`), is built and
    the eta-long form read back off its nodes.
    """
    term, ty, heads = eta_types(env, term)  # surface type errors before rewriting
    if heads is None:
        return term
    from .games import _build, _term_of  # games imports this module

    return _term_of(_build(env, term, ty, heads))


def eta_types(env: TypeEnv, term: Term) -> tuple[Term, SimpleType, Optional[list[SimpleType]]]:
    """What eta-expanding `term` needs, from one typing walk: its canonical
    form, its type in `env` and the types of its abstractions in head
    position in pre-order, or None for those when it is eta-long already.
    A canonical form that keeps its `eta_type` is not walked again."""
    term = canonicalize(term)
    ty = term.eta_type
    if ty is not None:  # typed before and found eta-long
        return term, ty, None
    ty, _, heads = _walk(env, term, _ETA)
    return term, ty, heads
