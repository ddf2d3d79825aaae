r"""Built-in term corpus and property suites.

Two populations: a hand-written corpus of labelled terms covering every
verdict level (the regression set), and a seeded generator of closed Safe
terms used for the statistical properties.  The generator builds safety in
by construction: abstraction blocks are full, applications are fully
applied at ground type, and the context is filtered by order before
descending into an argument abstraction, so a free variable of too-low
order can never appear.  Generated safety is still asserted downstream
rather than trusted.
"""

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .games import (
    build_computation_tree,
    enumerate_traversals,
    reconstruct_p_pointers,
    traversal_normal_form,
    uncover,
)
from .reduction import (
    BudgetExceededError,
    CaptureViolation,
    Strategy,
    normalize,
)
from .safety import Level, eta_long, safety_check
from .syntax import (
    GROUND,
    Abs,
    App,
    SimpleType,
    Term,
    Var,
    alpha_eq,
    arrow,
    fresh_names,
    parse,
    pretty,
)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    term: Term
    level: Level
    env: dict


def _entry(name: str, src: str, level: Level, env=None, canonical=True):
    return CorpusEntry(name, parse(src, canonical=canonical), level, env or {})


HAND_CORPUS: tuple[CorpusEntry, ...] = (
    # safe
    _entry("identity", r"\x:o. x", Level.SAFE),
    _entry("grouped-block", r"\x:o f:o->o. f x", Level.SAFE),
    _entry("church-two", r"\s:o->o z:o. s (s z)", Level.SAFE),
    _entry("flip", r"\p:o->o->o x:o y:o. p y x", Level.SAFE),
    _entry("true", r"\x:o y:o. x", Level.SAFE),
    _entry(
        "addition",
        r"\m:(o->o)->o->o n:(o->o)->o->o s:o->o z:o. m s (n s z)",
        Level.SAFE,
    ),
    _entry(
        "kierstead", r"\f:(o->o)->o. f (\x:o. f (\y:o. y))", Level.SAFE
    ),
    _entry(
        "block-redex",
        r"\a:o g:o->o. (\x:o f:o->o. f x) a g",
        Level.SAFE,
    ),
    _entry("partial-redex", r"(\s:o->o z:o. s z) (\u:o. u)", Level.SAFE),
    _entry(
        "doubling-redex",
        r"(\n:(o->o)->o->o s:o->o z:o. n s (n s z)) (\s:o->o z:o. s z)",
        Level.SAFE,
    ),
    _entry(
        "kierstead-order4",
        r"\d:((o->o)->o)->o f:(o->o)->o. f (\x:o. f (\y:o. y))",
        Level.SAFE,
    ),
    _entry(
        "delegation-order4",
        r"\d:((o->o)->o)->o f:(o->o)->o. d (\g:o->o. f (\x:o. g x))",
        Level.SAFE,
    ),
    _entry(
        "order3-iterate",
        r"\F:((o->o)->o->o)->o->o x:o. F (\s:o->o z:o. s z) x",
        Level.SAFE,
    ),
    _entry(
        "letter-chain", r"\a1:o->o a2:o->o w:o. a1 (a2 w)", Level.SAFE
    ),
    # typable but unsafe
    _entry(
        "ungrouped-block",
        r"\x:o. \f:o->o. f x",
        Level.UNSAFE_TYPABLE,
        canonical=False,
    ),
    _entry(
        "ungrouped-constant",
        r"\z:o. \f:o->o. f z",
        Level.UNSAFE_TYPABLE,
        canonical=False,
    ),
    _entry(
        "kierstead-twist",
        r"\f:(o->o)->o. f (\x:o. f (\y:o. x))",
        Level.UNSAFE_TYPABLE,
    ),
    _entry(
        "kierstead-twist-order4",
        r"\d:((o->o)->o)->o f:(o->o)->o. f (\x:o. f (\y:o. x))",
        Level.UNSAFE_TYPABLE,
    ),
    _entry(
        "inner-escape",
        r"(\x:o g:o->o. (\f:o->o. f x) g) z",
        Level.UNSAFE_TYPABLE,
        env={"z": GROUND},
    ),
    _entry(
        "capture-bait",
        r"\y:o. (\x:o y:o. x) y",
        Level.UNSAFE_TYPABLE,
    ),
    _entry(
        "constant-argument",
        r"\g:(o->o)->o x:o. g (\u:o. x)",
        Level.UNSAFE_TYPABLE,
    ),
    _entry(
        "if-zero-shape",
        r"\m:(o->o)->o->o x:o y:o. m (\u:o. y) x",
        Level.UNSAFE_TYPABLE,
    ),
    # safe except at the root
    _entry(
        "root-application",
        r"(\x:o y:o. x) z",
        Level.ALMOST_SAFE,
        env={"z": GROUND},
    ),
    _entry(
        "free-body", r"\y:o. a", Level.ALMOST_SAFE, env={"a": GROUND}
    ),
    _entry(
        "low-order-operand",
        "g a",
        Level.ALMOST_SAFE,
        env={"g": arrow(GROUND, GROUND, GROUND), "a": GROUND},
    ),
    _entry(
        "free-under-binder",
        r"\h:o->o. h c",
        Level.ALMOST_SAFE,
        env={"c": GROUND},
    ),
    _entry(
        "partial-root-redex",
        r"(\x:o s:o->o z:o. s x) c",
        Level.ALMOST_SAFE,
        env={"c": GROUND},
    ),
    # not even typable
    _entry("self-application", r"\x:o. x x", Level.ILL_TYPED),
    _entry(
        "argument-mismatch", "f f", Level.ILL_TYPED, env={"f": arrow(GROUND, GROUND)}
    ),
    _entry("unbound", "x", Level.ILL_TYPED),
    _entry(
        "over-application",
        r"(\x:o. x) y z",
        Level.ILL_TYPED,
        env={"y": GROUND, "z": GROUND},
    ),
    _entry(
        "ground-head",
        "a b",
        Level.ILL_TYPED,
        env={"a": GROUND, "b": GROUND},
    ),
)


def hand_entries(level: Optional[Level] = None) -> tuple[CorpusEntry, ...]:
    if level is None:
        return HAND_CORPUS
    return tuple(e for e in HAND_CORPUS if e.level is level)


# --------------------------------------------------------------------------
# generated corpus

# every root block and argument block below contains a ground binder, so
# the generator can always bottom out at a variable
_MENU = (
    arrow(GROUND, GROUND),
    arrow(GROUND, GROUND, GROUND),
    arrow(arrow(GROUND, GROUND), GROUND, GROUND),
    arrow(arrow(GROUND, GROUND), arrow(GROUND, GROUND), GROUND, GROUND),
    arrow(arrow(GROUND, GROUND, GROUND), GROUND, GROUND),
    arrow(arrow(arrow(GROUND, GROUND), GROUND), arrow(GROUND, GROUND), GROUND, GROUND),
)

# closed arguments used when turning a generated term into a partial redex,
# with a slot index keeping binder names distinct across argument positions
_CLOSED_ARGS = {
    arrow(GROUND, GROUND): "\\u{i}:o. u{i}",
    arrow(GROUND, GROUND, GROUND): "\\u{i}:o w{i}:o. w{i}",
}


def random_safe_term(rng: random.Random, max_depth: int = 2) -> Term:
    """One closed Safe term over a fixed menu of inhabited types."""
    fresh = fresh_names("v", set())

    def gen_abs(at: SimpleType, ctx: dict, depth: int) -> Term:
        binders = tuple((next(fresh), a) for a in at.arguments)
        inner = dict(ctx)
        inner.update(binders)
        return Abs(binders, gen_ground(inner, depth))

    def gen_ground(ctx: dict, depth: int) -> Term:
        names = sorted(ctx)
        grounds = [n for n in names if ctx[n].order == 0]
        if depth <= 0 or rng.random() < 0.25:
            return Var(rng.choice(grounds))
        head = rng.choice(names)
        ty = ctx[head]
        if not ty.arguments:
            return Var(head)
        args = []
        for aty in ty.arguments:
            if aty.order == 0:
                args.append(gen_ground(ctx, depth - 1))
            else:
                kept = {n: t for n, t in ctx.items() if t.order >= aty.order}
                args.append(gen_abs(aty, kept, depth - 1))
        return App(Var(head), tuple(args))

    return gen_abs(rng.choice(_MENU), {}, max_depth)


def _inject_partial_redex(rng: random.Random, term: Term) -> Optional[Term]:
    """Apply a block to a strict prefix of its binders, keeping safety."""
    if not isinstance(term, Abs) or len(term.binders) < 2:
        return None
    prefix = []
    for i, (_, bty) in enumerate(term.binders[:-1]):  # strict prefix only
        if bty not in _CLOSED_ARGS:
            break
        prefix.append(parse(_CLOSED_ARGS[bty].format(i=i + 1)))
    if not prefix:
        return None
    take = rng.randrange(1, len(prefix) + 1)
    return App(term, tuple(prefix[:take]))


def generate_safe_corpus(count: int, seed: int = 0) -> tuple[Term, ...]:
    """Deterministic stream of closed Safe terms, partial redexes mixed in."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        term = random_safe_term(rng, max_depth=rng.randrange(1, 4))
        if rng.random() < 0.3:
            wrapped = _inject_partial_redex(rng, term)
            if wrapped is not None:
                term = wrapped
        out.append(term)
    return tuple(out)


# --------------------------------------------------------------------------
# property suites (shared by the CLI's `corpus` command and the tests)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _suite_verdicts(generated) -> SuiteResult:
    failures = []
    for e in HAND_CORPUS:
        got = safety_check(e.env, e.term).level
        if got is not e.level:
            failures.append(f"{e.name}: expected {e.level}, got {got}")
    return SuiteResult("hand-verdicts", len(HAND_CORPUS), tuple(failures))


def _suite_no_capture(generated) -> SuiteResult:
    terms = [e.term for e in hand_entries(Level.SAFE)] + list(generated)
    failures = []
    for t in terms:
        try:
            normalize(t, strategy=Strategy.SAFE)
        except CaptureViolation as exc:
            failures.append(f"{pretty(t)}: {exc}")
    return SuiteResult("no-capture", len(terms), tuple(failures))


def _suite_strategy_agreement(generated) -> SuiteResult:
    terms = [e.term for e in hand_entries(Level.SAFE)] + list(generated)
    failures = []
    for t in terms:
        a = normalize(t, strategy=Strategy.PLAIN)
        b = normalize(t, strategy=Strategy.SAFE)
        if not alpha_eq(a, b):
            failures.append(pretty(t))
    return SuiteResult("strategy-agreement", len(terms), tuple(failures))


def _closed_typable_hand() -> list[CorpusEntry]:
    return [
        e
        for e in HAND_CORPUS
        if e.level is not Level.ILL_TYPED and not e.env
    ]


def _suite_traversal_normal_form(generated) -> SuiteResult:
    entries = [(e.name, e.term) for e in _closed_typable_hand()]
    entries += [(f"generated-{i}", t) for i, t in enumerate(generated)]
    failures = []
    for name, t in entries:
        try:
            got = traversal_normal_form(build_computation_tree({}, t))
        except BudgetExceededError as exc:
            failures.append(f"{name}: {exc}")
            continue
        if not alpha_eq(got, eta_long({}, normalize(t))):
            failures.append(name)
    return SuiteResult("traversal-normal-form", len(entries), tuple(failures))


def _suite_reconstruction(generated) -> SuiteResult:
    terms = [e.term for e in hand_entries(Level.SAFE) if not e.env]
    terms += list(generated)
    failures = []
    for t in terms:
        tree = build_computation_tree({}, t)
        for traversal in enumerate_traversals(tree, max_len=40):
            if not traversal.maximal:
                continue
            if reconstruct_p_pointers(uncover(traversal), tree) != traversal:
                failures.append(pretty(t))
                break
    return SuiteResult("safe-reconstruction", len(terms), tuple(failures))


_SUITES: tuple[Callable[..., SuiteResult], ...] = (
    _suite_verdicts,
    _suite_no_capture,
    _suite_strategy_agreement,
    _suite_traversal_normal_form,
    _suite_reconstruction,
)


def run_suites(count: int = 200, seed: int = 0) -> list[SuiteResult]:
    """All property suites over the hand corpus plus `count` generated terms."""
    generated = generate_safe_corpus(count, seed)
    return [suite(generated) for suite in _SUITES]
