r"""Substitution and reduction.

Two substitution disciplines live here.  `subst_capture_avoiding` is the
classical one: it renames bound variables out of the way and serves as the
oracle.  `subst_no_rename` replaces variables textually and never renames;
instead it reports the binders that captured.  On terms that stay inside
the safety discipline the two agree and that set stays empty, which is the
whole point of the restriction.  Either walk goes down only the paths to
the substituted variables: a subterm in which no substituted name is free
comes back as the same object, unvisited.

The step functions differ in how much of a redex they consume:

>>> from safelc.syntax import parse, pretty
>>> t = parse(r"(\f:o->o x:o. f x) g a")
>>> pretty(beta_step(t))
'(\\x:o. g x) a'
>>> pretty(safe_step(t))
'g a'

`beta_step` peels a single binder per step, so it walks through states
that can fall outside the safe fragment even when start and finish are
both safe.  `safe_step` contracts the whole block in one simultaneous
substitution and preserves safety; if its no-rename substitution ever
reports a capture, something violated the discipline and we abort loudly
rather than return a wrong term.

Both strategies contract the leftmost-outermost redex, and one driver
finds it for `beta_step`, `safe_step`, `reduction_sequence` and
`normalize`.  Each of them reduces the canonical form of its input, as
`canonicalize` gives it, and every contraction keeps a canonical term
canonical, so the paper's redex blocks (\x1..xn. M) N1..Nk are the nodes
the driver meets.  It walks down a stack of contexts (a zipper) into
abstraction bodies and into the arguments, left to right, of applications
headed by a variable, and contracts at the first redex it meets.  An
abstraction or a one-argument application is its own frame on that
stack; only an application of more arguments takes a list that records
which argument the walk is in.  It then
goes on from the contractum rather than from the root: the nodes above it
are still abstractions and variable-headed applications and everything
to its left is still normal, so a search from the root would come back to
the same place.  No normal subterm is walked twice, the term size is kept
up to date by differences, and `normalize` builds no intermediate term.

One block contraction serves both strategies: the j = min(n, k) arguments
of a redex block (\x1..xn. M) N1..Nk replace their binders in one
simultaneous no-rename substitution, the binders left re-wrap the body
and the arguments left re-apply to it.  It is `safe_step`'s contraction,
and `normalize` under the plain strategy takes it too where it can,
counted as the j one-binder steps it stands for.  The names of a block
are distinct, so the two differ only by a binder that a step renames and
that reaches the result.  Step i renames the later binders of the block
that are free in Ni, when xi is free in M.  A binder the block consumes
never reaches the result, its size or the step count: step i renames
x(i+1) to x', and step i+1 substitutes N(i+1) for x', which gives the
simultaneous M[N1/x1, N2/x2, ...].  So only the binders the block leaves,
x(j+1)..xn, are checked against those Ni.  A binder inside M is renamed
where an image that lands under it has its name free, which the walk
reports as a capture, or where it bears the name x'1, x'1'1, ... that a
rename of the x landing under it would take, which the walk reports as
well.  A canonical body only grows under substitution, so no
term on the way is larger than (\x2..xn. M') N2..Nk with the whole
substituted body M' in place; the size budget is checked against that.
The block is stepped instead when M is one of x1..x(j-1) (an argument
then regroups the block mid-way), or when a budget could run out inside
it.  So results, step counts and budget errors are those of one binder
per step, which `beta_step`, `reduction_sequence` and the traced CLI keep
showing.

Equality does not step.  `beta_eta_equal` evaluates both terms into
closures and reads back their eta-long normal forms from the common type
(normalization by evaluation), so no substitution, renaming or separate
eta-expansion happens on that path.  The step functions stay as the
reference engines, and the tests check the two paths against each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .safety import TypeCheckError, simple_type_of
from .syntax import (
    Abs,
    App,
    SimpleType,
    Term,
    TypeEnv,
    Var,
    canonicalize,
    mk_abs,
    mk_app,
    new_app,
    primed,
)

Substitution = Mapping[str, Term]


class CaptureViolation(Exception):
    """A no-rename contraction captured a free variable of an argument.

    Raised by safe_step; never raised for terms that actually satisfy the
    safety discipline, so seeing one means the input did not.
    """

    def __init__(self, names: frozenset[str], message: str):
        super().__init__(message)
        self.names = names


class BudgetExceededError(Exception):
    def __init__(self, steps: int, size: int, message: str):
        super().__init__(message)
        self.steps = steps
        self.size = size


@dataclass(frozen=True)
class ReductionBudget:
    max_steps: int = 100_000
    max_term_size: int = 1_000_000

    def __post_init__(self):
        if self.max_steps < 1 or self.max_term_size < 1:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = ReductionBudget()


class Strategy(enum.Enum):
    PLAIN = "plain"
    SAFE = "safe"


def _coerce_strategy(strategy: "Strategy | str") -> Strategy:
    if isinstance(strategy, Strategy):
        return strategy
    try:
        return Strategy(str(strategy).lower())
    except ValueError:
        raise ValueError(f"unknown strategy: {strategy!r}") from None


# --------------------------------------------------------------------------
# substitution


_NO_CAPTURE: frozenset[str] = frozenset()


def _subst(term: Term, mapping: Substitution, rename: Optional[bool]) -> tuple[Term, frozenset[str]]:
    # One walk for both disciplines.  Returns the substituted term plus
    # the binder names that captured a free variable of some landed image.
    # A binder clashes when it names a free variable of an image that lands
    # under it; with `rename` the binder is renamed out of the way (so the
    # set stays empty), without it the clash is reported.  `rename` None
    # is a plain redex block contracted at once: a binder under which a
    # mapped x lands and that a rename of x could be named (x'1, x'1'1,
    # ...) is reported too (see `_contract_block`).
    if not mapping:
        return term, _NO_CAPTURE
    kind = type(term)
    if kind is Var:
        return mapping.get(term.name, term), _NO_CAPTURE
    captured = _NO_CAPTURE
    if kind is App:
        # a child in which no mapped name is free comes back as it is
        head = new_head = term.head
        if type(head) is Var:
            new_head = mapping.get(head.name, head)
        elif not (head._free_names or head.free_names).isdisjoint(mapping):
            new_head, captured = _subst(head, mapping, rename)
        args = term.args
        if len(args) == 1:  # a numeral's spine: no list to build
            c = args[0]
            if type(c) is Var:
                new = mapping.get(c.name, c)
            elif (c._free_names or c.free_names).isdisjoint(mapping):
                new = c
            else:
                new, more = _subst(c, mapping, rename)
                if more:
                    captured |= more
            if new is not c:
                args = (new,)
            elif new_head is head:
                return term, captured
        else:
            changed = new_head is not head
            new_args = []
            for c in args:
                if type(c) is Var:
                    new = mapping.get(c.name, c)
                elif (c._free_names or c.free_names).isdisjoint(mapping):
                    new = c
                else:
                    new, more = _subst(c, mapping, rename)
                    if more:
                        captured |= more
                if new is not c:
                    changed = True
                new_args.append(new)
            if not changed:
                return term, captured
            args = tuple(new_args)
        if type(new_head) is App:  # flattened, as `mk_app` would
            return new_app(new_head.head, new_head.args + args), captured
        return new_app(new_head, args), captured
    # loops, not comprehensions: one would turn the locals it reads into
    # cells, which every call of this function would then create
    shadowed = term.binder_names
    body = term.body
    free = body._free_names or body.free_names
    active = {}
    clashing = _NO_CAPTURE
    for x, u in mapping.items():
        if x in free and x not in shadowed:
            active[x] = u
            names = u._free_names or u.free_names
            if not names.isdisjoint(shadowed):
                clashing = clashing.union(names.intersection(shadowed))
    if not active:
        return term, _NO_CAPTURE
    if rename is None:
        for y in shadowed:
            if "'" in y:
                for x in active:
                    if y.startswith(x + "'"):
                        clashing = clashing.union((y,))
    binders = term.binders
    if clashing and rename:
        used = set(free) | set(shadowed) | set(active)
        for u in active.values():
            used |= u.free_names
        renamed = []
        for y, ty in binders:
            if y in clashing:
                active[y] = Var(primed(y, used))
                y = active[y].name
            renamed.append((y, ty))
        binders = tuple(renamed)
        clashing = _NO_CAPTURE
    new_body, captured = _subst(body, active, rename)
    if clashing:
        captured = clashing | captured
    if binders is term.binders and new_body is body:
        return term, captured
    if type(new_body) is Abs:
        return mk_abs(binders, new_body), captured
    return Abs(binders, new_body), captured


def subst_no_rename(term: Term, s: Substitution) -> tuple[Term, frozenset[str]]:
    """Textual simultaneous substitution, no renaming ever.

    Returns the term and the names of the binders that captured: those
    some substituted occurrence landed under while they also name a free
    variable of its image.  Inside the safety discipline the set provably
    stays empty; on arbitrary terms the caller must check it.
    """
    return _subst(term, s, rename=False)


def subst_capture_avoiding(term: Term, s: Substitution) -> Term:
    """Classical simultaneous substitution (the oracle).

    Bound variables are renamed only when a capture would occur; fresh
    names come from the deterministic primed scheme (y, y'1, y'2, ...).
    """
    return _subst(term, s, rename=True)[0]


# --------------------------------------------------------------------------
# contractions


def _contract_plain(head: Abs, args: tuple[Term, ...]) -> Term:
    x, _ = head.binders[0]
    rest = mk_abs(head.binders[1:], head.body)
    return mk_app(subst_capture_avoiding(rest, {x: args[0]}), args[1:])


def _contract_block(head: Abs, args: tuple[Term, ...], room: Optional[int] = None) -> Optional[Term]:
    """The canonical redex block `head args` in one no-rename substitution.

    Without `room` this is the safe step, and a capture raises
    CaptureViolation.  With it this is j = min(n, k) one-binder plain
    steps, or None when they might differ from it or a term on the way
    might outgrow `room`, the nodes the size budget has left; the module
    docstring says why.
    """
    binders, body = head.binders, head.body
    names = head._binder_names or head.binder_names
    n, k = len(binders), len(args)
    j = n if n < k else k
    plain = room is not None
    # an argument standing as the body mid-block would regroup the block
    if plain and type(body) is Var and body.name in names[: j - 1]:
        return None
    left = _NO_CAPTURE
    if j < n:  # binders the block leaves, free in an image: captured, or renamed by a step
        free = body._free_names or body.free_names
        for i in range(j):
            if names[i] in free:
                left = left | (args[i]._free_names or args[i].free_names).intersection(names[j:])
        if left and plain:
            return None
    new, captured = _subst(body, dict(zip(names, args)), None if plain else False)
    if plain:
        # the largest term on the way is at most (\x2..xn. new) N2..Nk
        if captured or new.size - body.size - 1 - args[0].size > room:
            return None
    elif captured or left:
        captured = captured | left
        raise CaptureViolation(
            captured,
            f"no-rename contraction captured free variable(s): {', '.join(sorted(captured))}",
        )
    if j < n:
        rest = binders[j:]
        return mk_abs(rest, new) if type(new) is Abs else Abs(rest, new)
    if j < k:
        rest = args[j:]
        return new_app(new.head, new.args + rest) if type(new) is App else new_app(new, rest)
    return new


# --------------------------------------------------------------------------
# the step driver
#
# The driver reduces canonical terms, and every contraction keeps them
# canonical: a head is never an application and a body never an
# abstraction.  Each frame of its stack is the node the walk went down
# from: an Abs stands for its body and a one-argument App for its
# argument, and only an App with more arguments takes a list
# [node, argument index, new arguments or None].  An argument is put back
# with `new_app`; a body with `mk_abs`, and a contractum that is an
# abstraction directly in a body merges into that block at once.


def _plug(stack: list, term: Term) -> Term:
    """The whole term: `term` put back into the context `stack`."""
    for frame in reversed(stack):
        kind = type(frame)
        if kind is Abs:
            term = mk_abs(frame.binders, term)
        elif kind is App:
            term = new_app(frame.head, (term,))
        else:
            node, i, args = frame
            before = node.args[:i] if args is None else tuple(args[:i])
            term = new_app(node.head, before + (term,) + node.args[i + 1 :])
    return term


class _Reducer:
    """Leftmost-outermost reduction of one canonical term, one contraction
    per step.

    The size of the whole term starts at the input's recorded size and is
    kept up to date by the difference each contraction makes.  It is
    checked only under a budget.

    With `blocks` and a budget, a plain redex block is contracted by
    `_contract_block` when that gives what its steps one by one would,
    and counts as that many steps.
    """

    __slots__ = ("plain", "budget", "stack", "focus", "steps", "size", "blocks")

    def __init__(
        self,
        term: Term,
        strategy: "Strategy | str",
        budget: Optional[ReductionBudget],
        blocks: bool = False,
    ):
        self.plain = _coerce_strategy(strategy) is Strategy.PLAIN
        self.budget = budget
        self.stack: list = []  # frames: Abs, one-argument App, or [App, index, new args]
        self.focus = term
        self.steps = 0
        self.size = term.size
        self.blocks = blocks and self.plain and budget is not None

    def term(self) -> Term:
        return _plug(self.stack, self.focus)

    def step(self) -> bool:
        """Contract the next redex.

        False on a normal form, which the focus then holds whole.
        """
        stack, focus = self.stack, self.focus
        while True:
            kind = type(focus)
            if kind is App:
                if type(focus.head) is Abs:
                    break
                args = focus.args
                stack.append(focus if len(args) == 1 else [focus, 0, None])
                focus = args[0]
                continue
            if kind is Abs:
                stack.append(focus)
                focus = focus.body
                continue
            # the focus is normal: climb to the next argument left to walk
            while stack:
                frame = stack.pop()
                kind = type(frame)
                if kind is Abs:
                    focus = frame if focus is frame.body else mk_abs(frame.binders, focus)
                elif kind is App:
                    focus = frame if focus is frame.args[0] else new_app(frame.head, (focus,))
                else:
                    node, i, args = frame
                    if args is not None:
                        args[i] = focus
                    elif focus is not node.args[i]:
                        args = frame[2] = list(node.args)
                        args[i] = focus
                    i += 1
                    if i < len(node.args):
                        frame[1] = i
                        stack.append(frame)
                        focus = node.args[i]
                        break
                    focus = node if args is None else new_app(node.head, tuple(args))
            else:
                self.focus = focus
                return False

        head, args = focus.head, focus.args
        budget = self.budget
        size = self.size
        new = None
        if self.blocks:
            j = min(len(head.binders), len(args))
            if j > 1 and self.steps + j <= budget.max_steps:
                new = _contract_block(head, args, budget.max_term_size - size)
        if new is None:
            new = _contract_plain(head, args) if self.plain else _contract_block(head, args)
            j = 1
        if budget is not None and self.steps >= budget.max_steps:
            raise BudgetExceededError(
                self.steps,
                size,
                f"no normal form within {budget.max_steps} steps "
                f"(current term size {size})",
            )
        self.steps += j
        if stack and type(stack[-1]) is Abs and type(new) is Abs:
            # an abstraction in a body joins the enclosing block
            binders = stack.pop().binders
            merged = mk_abs(binders, new)
            size += merged.size - (1 + len(binders) + focus.size)
            new = merged
        else:
            size += new.size - focus.size
        if budget is not None and size > budget.max_term_size:
            raise BudgetExceededError(
                self.steps,
                size,
                f"term size {size} exceeds budget {budget.max_term_size} "
                f"after {self.steps} steps",
            )
        self.focus, self.size = new, size
        return True


def beta_step(term: Term) -> Optional[Term]:
    """One leftmost-outermost beta step: one binder, one argument.

    Remaining binders and arguments are re-grouped around the result.
    Uses capture-avoiding substitution, so it is sound on any term.
    Returns None on a beta-normal form.
    """
    reducer = _Reducer(canonicalize(term), Strategy.PLAIN, None)
    return reducer.term() if reducer.step() else None


def safe_step(term: Term) -> Optional[Term]:
    """One safe-reduction step: the whole redex block at once.

    At the leftmost-outermost redex (\\x1..xn. M) N1..Nk all j = min(n, k)
    available arguments are substituted in ONE simultaneous no-rename
    substitution.  With k < n the leftover binders re-wrap the body; with
    k > n the leftover arguments re-apply to it.  Returns None on a normal
    form; raises CaptureViolation if the no-rename discipline fails, which
    cannot happen on safe input.
    """
    reducer = _Reducer(canonicalize(term), Strategy.SAFE, None)
    return reducer.term() if reducer.step() else None


# --------------------------------------------------------------------------
# normalization


def reduction_sequence(
    term: Term,
    strategy: "Strategy | str" = Strategy.PLAIN,
    budget: ReductionBudget = DEFAULT_BUDGET,
) -> Iterator[Term]:
    """Yield the reduction chain from the canonical form of `term` on
    (that form included)."""
    term = canonicalize(term)
    reducer = _Reducer(term, strategy, budget)
    yield term
    while reducer.step():
        yield reducer.term()


def _normalize_counted(
    term: Term,
    strategy: "Strategy | str" = Strategy.PLAIN,
    budget: ReductionBudget = DEFAULT_BUDGET,
) -> tuple[Term, int]:
    """The normal form and the number of steps taken to reach it."""
    reducer = _Reducer(canonicalize(term), strategy, budget, blocks=True)
    while reducer.step():
        pass
    return reducer.focus, reducer.steps


def normalize(
    term: Term,
    strategy: "Strategy | str" = Strategy.PLAIN,
    budget: ReductionBudget = DEFAULT_BUDGET,
) -> Term:
    """Beta-normal form under the chosen strategy.

    Both strategies reach the same normal form up to alpha equivalence;
    the safe strategy additionally expects a term inside the safety
    discipline and raises CaptureViolation when that trust is betrayed.
    No intermediate term is built.  Under the plain strategy a redex
    block whose one-binder steps would rename nothing is contracted in
    one substitution walk, with the same result, step count and budget
    errors as those steps (see the module docstring).
    """
    return _normalize_counted(term, strategy, budget)[0]


# --------------------------------------------------------------------------
# beta-eta equality by normalization by evaluation
#
# A term evaluates to a value in weak head normal form: a closure (a lambda
# block, its environment and the arguments it has received so far) or a
# neutral (a variable applied to argument values).  Arguments that still
# need work are delayed in thunks and evaluated at most once, so a shared
# argument is never copied.  Read-back turns a value into its eta-long
# beta-normal form, driven by the type: a value of type A1 -> .. -> An -> o
# is applied to n fresh variables and the resulting ground neutral is read
# back argument by argument.  Bound variables are de Bruijn levels (ints)
# and free ones keep their names (strs); the binders themselves are implied
# by the type, so a normal form is its application nodes in pre-order,
# each a head and its number of arguments, kept in one flat list, and two
# well-typed terms of one type are beta-eta equal exactly when their lists
# are equal (Berger & Schwichtenberg, LICS 1991).  Read-back keeps the
# nodes still to visit on an explicit stack, so neither it nor the
# comparison recurses however deep the normal form is.  A closed
# abstraction, one with a `closed_type`, closes over the empty environment.

_NO_ENV: dict = {}  # never written: `enter` copies an environment first


class _Closure:
    __slots__ = ("term", "env", "bound")

    def __init__(self, term: Abs, env: dict, bound: tuple):
        self.term = term
        self.env = env
        self.bound = bound


class _Neutral:
    __slots__ = ("head", "type", "args")

    def __init__(self, head: "int | str", ty: SimpleType, args: tuple):
        self.head = head
        self.type = ty  # of the head, so the arguments can be read back
        self.args = args


class _Thunk:
    __slots__ = ("term", "env", "value")

    def __init__(self, term: Term, env: dict):
        self.term = term
        self.env = env
        self.value = None


class _Evaluator:
    """Evaluation and read-back for one term, metered by a budget."""

    def __init__(self, budget: ReductionBudget):
        self.budget = budget
        self.steps = 0
        self.size = 0

    def force(self, thunk: _Thunk):
        if thunk.value is None:
            thunk.value = self.eval(thunk.term, thunk.env)
            thunk.term = thunk.env = None
        return thunk.value

    def enter(self, f: _Closure, values: tuple, fresh: bool) -> dict:
        """The environment of f's body with its block bound to `values`.

        A closure entered with no argument from the term (`fresh`, and
        nothing bound yet) is read-back going under a lambda, which is no
        contraction and costs no step.
        """
        if f.bound or not fresh:
            if self.steps >= self.budget.max_steps:
                raise BudgetExceededError(
                    self.steps,
                    self.size,
                    f"no normal form within {self.budget.max_steps} steps",
                )
            self.steps += 1
        env = dict(f.env)
        env.update(zip(f.term.binder_names, values))
        return env

    def eval(self, term: Term, env: dict, args: tuple = (), fresh: bool = False):
        """Weak head normal form of `term` in `env`, applied to `args`.

        `fresh` is true while every value in `args` is a read-back variable.
        Forcing a thunk pushes an update frame instead of recursing, so a
        long chain of demands does not deepen the Python stack.
        """
        updates = []
        while True:
            kind = type(term)
            if kind is App:
                pending = []
                for a in term.args:
                    k = type(a)
                    if k is Var:
                        pending.append(env[a.name])
                    elif k is Abs:
                        pending.append(_Closure(a, _NO_ENV if a.closed_type is not None else env, ()))
                    else:
                        pending.append(_Thunk(a, env))
                args = tuple(pending) + args
                fresh = False
                term = term.head
                continue
            if kind is Abs:
                f = _Closure(term, _NO_ENV if term.closed_type is not None else env, ())
            else:
                f = env[term.name]
                if type(f) is _Thunk:
                    if f.value is None:
                        updates.append((f, args, fresh))
                        term, env, args, fresh = f.term, f.env, (), False
                        continue
                    f = f.value
            # apply f to args; a finished value goes to the newest update
            while True:
                if args and type(f) is _Closure:
                    values = f.bound + args
                    n = len(f.term.binders)
                    if len(values) >= n:
                        env = self.enter(f, values, fresh)
                        term, args = f.term.body, values[n:]
                        break
                    f = _Closure(f.term, f.env, values)
                elif args:
                    f = _Neutral(f.head, f.type, f.args + args)
                if not updates:
                    return f
                thunk, args, fresh = updates.pop()
                thunk.value = f
                thunk.term = thunk.env = None

    def read_back(self, value, ty: SimpleType) -> list:
        """The eta-long normal form of `value` at type `ty`, flat.

        Each node is read back in pre-order, as a head followed by its
        number of arguments, with the nodes still to read on a stack.
        """
        out = []
        todo = [(value, ty, 0)]
        while todo:
            value, ty, level = todo.pop()
            if type(value) is _Thunk:
                value = self.force(value)
            arity = len(ty.arguments)
            if arity:
                fresh = tuple(
                    _Neutral(level + i, t, ()) for i, t in enumerate(ty.arguments)
                )
                level += arity
                if type(value) is _Neutral:
                    value = _Neutral(value.head, value.type, value.args + fresh)
                else:
                    values = value.bound + fresh
                    n = len(value.term.binders)
                    env = self.enter(value, values, True)
                    value = self.eval(value.term.body, env, values[n:], True)
            args = value.args
            # one node for the head, one for an application, 1 + arity for a block
            self.size += 1 + (arity + 1 if arity else 0) + (1 if args else 0)
            if self.size > self.budget.max_term_size:
                raise BudgetExceededError(
                    self.steps,
                    self.size,
                    f"normal form size exceeds budget {self.budget.max_term_size} "
                    f"after {self.steps} steps",
                )
            out.append(value.head)
            out.append(len(args))
            wanted = value.type.arguments
            for i in range(len(args) - 1, -1, -1):  # the first argument on top
                todo.append((args[i], wanted[i], level))
        return out


def _normal_form(
    env: TypeEnv, term: Term, ty: SimpleType, budget: ReductionBudget
) -> list:
    values = {name: _Neutral(name, t, ()) for name, t in env.items()}
    evaluator = _Evaluator(budget)
    return evaluator.read_back(evaluator.eval(term, values), ty)


def beta_eta_equal(
    env: TypeEnv,
    a: Term,
    b: Term,
    budget: ReductionBudget = DEFAULT_BUDGET,
) -> bool:
    """Beta-eta equality by normalization by evaluation.

    Both sides are type-checked; different types raise TypeCheckError.
    A closed side typed before, as `safety_check` types it, keeps its
    type and is not walked again.  Each side is then evaluated into
    closures, with the free variables of `env` as neutral values, and its
    eta-long beta-normal form is read back from the common type into a
    flat list; the two lists are compared.
    Each side is metered against `budget` on its own: one step per
    closure entered with an argument from the term (one block
    contraction) counts against max_steps, and the nodes of its read-back
    normal form count against max_term_size.  Passing either limit raises
    BudgetExceededError.
    """
    ta = simple_type_of(env, a)
    tb = simple_type_of(env, b)
    if ta is not tb:
        raise TypeCheckError(
            f"compared terms have different types: {ta} vs {tb}"
        )
    return _normal_form(env, a, ta, budget) == _normal_form(env, b, ta, budget)
