import itertools
import tracemalloc
from typing import Optional

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from safelc import safety
from safelc.corpus import HAND_CORPUS, generate_safe_corpus
from safelc.encodings import conditional_candidates
from safelc.hardness import enumerate_qbfs, equality_instance, qbf_to_term
from safelc.qbf import parse_qbf
from safelc.reduction import (
    BudgetExceededError,
    CaptureViolation,
    ReductionBudget,
    Strategy,
    beta_eta_equal,
    normalize,
)
from safelc.safety import (
    ArgumentMismatchError,
    Level,
    SafetyVerdict,
    TooManyArgumentsError,
    TraceEntry,
    TypeCheckError,
    UnboundVariableError,
    _arg_error,
    eta_long,
    safety_check,
    simple_type_of,
)
from safelc.syntax import (
    Abs,
    App,
    ParseError,
    SimpleType,
    Term,
    TypeEnv,
    Var,
    all_names,
    alpha_eq,
    canonicalize,
    fresh_names,
    keep_closed_type,
    mk_app,
    parse,
    parse_env,
    parse_type,
    pretty,
    subterms,
)
from termgen import copy_term, homogeneity_check, names, recursion_limit, terms, types


def check(src, env="", canonical=True):
    return safety_check(parse_env(env), parse(src, canonical=canonical))


def test_order_of():
    assert parse_type("o").order == 0
    assert parse_type("o->o->o").order == 1
    assert parse_type("(o->o)->o").order == 2


def test_simple_type_of():
    assert simple_type_of({}, parse(r"\f:o->o. \x:o. f x")) == parse_type("(o->o)->o->o")
    assert simple_type_of({}, parse(r"\x:o. x")) == parse_type("o->o")
    assert simple_type_of(parse_env("y:o"), parse(r"(\x:o. x) y")) == parse_type("o")


def test_type_errors():
    with pytest.raises(ArgumentMismatchError):
        simple_type_of(parse_env("f:o->o"), parse("f f"))
    with pytest.raises(UnboundVariableError):
        simple_type_of({}, parse("x"))
    with pytest.raises(TooManyArgumentsError):
        simple_type_of(parse_env("x:o, y:o"), parse("x y"))
    with pytest.raises(TooManyArgumentsError):
        simple_type_of(parse_env("f:o->o, x:o, y:o"), parse("f x y"))


def test_grouped_block_is_safe():
    assert check(r"\f:o->o x:o. f x").level == Level.SAFE
    assert check(r"\x:o f:o->o. f x").level == Level.SAFE


def test_ungrouped_chain_is_unsafe():
    v = check(r"\x:o. (\f:o->o. f x)", canonical=False)
    assert v.level == Level.UNSAFE_TYPABLE
    f = v.first_failure
    assert f.free_name == "x" and f.free_order == 0 and f.term_order == 2


def test_kierstead_terms():
    safe = check(r"\f:(o->o)->o. f (\x:o. f (\y:o. y))")
    unsafe = check(r"\f:(o->o)->o. f (\x:o. f (\y:o. x))")
    assert safe.level == Level.SAFE
    assert unsafe.level == Level.UNSAFE_TYPABLE
    f = unsafe.first_failure
    assert f.free_name == "x" and f.free_order == 0 and f.term_order == 1


def test_almost_safe_root_application():
    v = check(r"(\x:o y:o. x) z", env="z:o")
    assert v.level == Level.ALMOST_SAFE
    assert v.first_failure.location == ""
    assert v.first_failure.free_name == "z"


def test_almost_safe_root_abstraction():
    # the shape a partial contraction re-wraps into: binder block whose
    # body keeps a too-low free variable
    v = check(r"\y:o. a", env="a:o")
    assert v.level == Level.ALMOST_SAFE


def test_inner_failure_beats_root_failure():
    # both the root and an inner block fail: verdict is UnsafeTypable
    v = check(r"(\x:o g:o->o. (\f:o->o. f x) g) z", env="z:o")
    assert v.level == Level.UNSAFE_TYPABLE
    assert any(e.location == "" for e in v.failures)
    assert any(e.location != "" for e in v.failures)


def test_ill_typed_is_a_verdict():
    v = check("f x")
    assert v.level == Level.ILL_TYPED
    assert v.type is None
    assert v.trace[0].rule == "type-error"


def test_level_ordering():
    assert Level.SAFE > Level.ALMOST_SAFE > Level.UNSAFE_TYPABLE > Level.ILL_TYPED
    assert str(Level.ALMOST_SAFE) == "AlmostSafe"


def test_safe_verdict_carries_simple_type():
    t = parse(r"\f:(o->o)->o. f (\x:o. f (\y:o. y))")
    v = safety_check({}, t)
    assert v.type == simple_type_of({}, t)


def test_trace_orders_hold_for_safe_terms():
    v = check(r"\f:(o->o)->o. f (\x:o. f (\y:o. y))")
    for e in v.trace:
        assert e.ok
        if e.rule in ("abs", "app") and e.free_order is not None:
            assert e.free_order >= e.term_order


def test_homogeneity():
    assert homogeneity_check(parse_type("(o->o)->o->o"))
    assert not homogeneity_check(parse_type("o->(o->o)->o"))
    assert homogeneity_check(parse_type("o"))
    # hereditary: the argument itself must be homogeneous
    assert not homogeneity_check(parse_type("(o->(o->o)->o)->o"))


def test_homogeneity_is_not_a_precondition():
    # a safe term of non-homogeneous type
    v = check(r"\x:o f:o->o. f x")
    assert v.level == Level.SAFE
    assert not homogeneity_check(v.type)


def test_eta_long_order_one():
    e = eta_long(parse_env("f:o->o"), parse("f"))
    assert alpha_eq(e, parse(r"\x:o. f x"))


def test_eta_long_fixed_point():
    t = parse(r"\f:o->o x:o. f x")
    assert eta_long({}, t) == t


def test_eta_long_order_two():
    e = eta_long(parse_env("g:(o->o)->o"), parse("g"))
    assert alpha_eq(e, parse(r"\h:o->o. g (\x:o. h x)"))


def test_eta_long_idempotent():
    env = parse_env("g:(o->o)->o")
    e = eta_long(env, parse("g"))
    assert eta_long(env, e) == e


def test_eta_long_expands_arguments():
    env = parse_env("F:((o->o)->o)->o, g:(o->o)->o")
    e = eta_long(env, parse("F g"))
    assert alpha_eq(e, parse(r"F (\h:o->o. g (\u:o. h u))"))


def test_eta_long_propagates_type_errors():
    with pytest.raises(TypeCheckError):
        eta_long({}, parse("x"))


def test_eta_long_inside_redex():
    env = parse_env("g:o->o")
    e = eta_long(env, parse(r"(\f:o->o x:o. f x) g"))
    assert alpha_eq(e, parse(r"\u:o. (\f:o->o x:o. f x) (\w:o. g w) u"))


@hyp.given(terms)
def test_safety_check_never_raises(t):
    v = safety_check({}, t)
    assert v.level in set(Level)
    if v.level >= Level.UNSAFE_TYPABLE:
        assert v.type == simple_type_of({}, t)


@hyp.given(terms)
def test_safe_traces_have_no_failures(t):
    v = safety_check({}, t)
    if v.level == Level.SAFE:
        assert not v.failures
    if v.level == Level.ALMOST_SAFE:
        assert all(e.location == "" for e in v.failures)


@hyp.given(terms, st.dictionaries(names, types))
def test_ill_typed_entry_matches_simple_type_of(t, env):
    v = safety_check(env, t)
    try:
        simple_type_of(env, t)
    except TypeCheckError as e:
        assert v.level == Level.ILL_TYPED
        (entry,) = v.trace
        assert (entry.rule, entry.note, entry.location) == ("type-error", e.message, e.location)
    else:
        assert v.level != Level.ILL_TYPED


def test_trace_entry_keeps_its_fields_and_text():
    e = TraceEntry(rule="app", location="body", term_order=1, free_name="x", free_order=0, ok=False)
    assert e == TraceEntry("app", "body", 1, "x", 0, False, "")
    assert repr(e) == (
        "TraceEntry(rule='app', location='body', term_order=1, free_name='x', "
        "free_order=0, ok=False, note='')"
    )
    assert e.describe() == "(app) body VIOLATION: free x order 0 < term order 1"
    assert TraceEntry("var", "").describe() == "(var) <root>: order None"


# --------------------------------------------------------------------------
# the iterative walk against the recursive checkers
#
# `_reference_type_of` and `_reference_safety_check` are the checkers the
# walk replaced, kept verbatim.  Verdicts, types and the first error
# (class, message, location) must be `==` on any input.


def _join(prefix: str, step: str) -> str:
    return f"{prefix}.{step}" if prefix else step


def _where(path) -> str:
    """Spell out a location kept as linked (parent, step) pairs."""
    steps = []
    while path is not None:
        path, step = path
        steps.append(step if isinstance(step, str) else f"arg{step}")
    return ".".join(reversed(steps))


def _reference_type_of(ctx: dict[str, SimpleType], term: Term, path=None) -> SimpleType:
    # the location is only spelled out when an error is raised
    if isinstance(term, Var):
        ty = ctx.get(term.name)
        if ty is None:
            raise UnboundVariableError(f"unbound variable {term.name!r}", _where(path))
        return ty
    if isinstance(term, Abs):
        inner = dict(ctx)
        inner.update(term.binders)
        body = _reference_type_of(inner, term.body, (path, "body"))
        return SimpleType(tuple(t for _, t in term.binders) + body.arguments)
    if isinstance(term, App):
        head = _reference_type_of(ctx, term.head, (path, "head"))
        wanted = head.arguments
        for i, arg in enumerate(term.args):
            got = _reference_type_of(ctx, arg, (path, i))
            if i >= len(wanted) or got != wanted[i]:
                raise _arg_error(head, len(term.args), i, got, _where((path, i)))
        return SimpleType(wanted[len(term.args):])
    raise TypeError(f"not a term: {term!r}")


def _reference_safety_check(env: TypeEnv, term: Term) -> SafetyVerdict:
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


def _typed(env: TypeEnv, term: Term, type_of):
    try:
        return ("ok", type_of(env, term))
    except TypeCheckError as e:
        return (type(e).__name__, e.message, e.location)


def _assert_checkers_match_reference(env: TypeEnv, term: Term):
    got, want = safety_check(env, term), _reference_safety_check(env, term)
    # the level and type come from the walk that builds no trace: read
    # them, and the failures of a Safe verdict, before the trace exists
    assert (got.level, got.type) == (want.level, want.type)
    if got.level is Level.SAFE:
        assert (got.failures, got.first_failure) == ((), None)
    if got.level is not Level.ILL_TYPED:
        assert "trace" not in vars(got)
    assert got == want
    assert (got.failures, got.first_failure) == (want.failures, want.first_failure)
    want = _typed(env, term, lambda env, t: _reference_type_of(dict(env), t))
    # cold on a copy, which no walk has typed, and warm after the check
    assert _typed(env, copy_term(term), simple_type_of) == want
    assert _typed(env, term, simple_type_of) == want


@hyp.settings(max_examples=300)
@hyp.given(terms, st.dictionaries(names, types))
def test_checkers_match_reference_on_raw_terms(t, env):
    _assert_checkers_match_reference(env, t)


def test_checkers_match_reference_on_hand_corpus():
    for entry in HAND_CORPUS:
        _assert_checkers_match_reference(entry.env, entry.term)


@pytest.mark.parametrize("seed", [3, 17])
def test_checkers_match_reference_on_generated_corpus(seed):
    for t in generate_safe_corpus(300, seed):
        _assert_checkers_match_reference({}, t)


def test_checkers_match_reference_on_conditional_candidates():
    for term, verdict in conditional_candidates():
        assert verdict == _reference_safety_check({}, term)
        _assert_checkers_match_reference({}, term)


def test_checkers_match_reference_on_criterion_5_left_sides():
    for f in itertools.islice(enumerate_qbfs(3, 3), 0, 200 * 212, 212):
        _assert_checkers_match_reference({}, equality_instance(f)[0])


# the closed type kept on the term


def test_simple_type_of_reads_the_type_safety_check_kept(monkeypatch):
    closed = [entry.term for entry in HAND_CORPUS if not entry.env]
    verdicts = [safety_check({}, t) for t in closed]

    def no_walk(*args):
        raise AssertionError("a term typed before was walked again")

    monkeypatch.setattr(safety, "_walk", no_walk)
    typed = 0
    for t, verdict in zip(closed, verdicts):
        if verdict.level is Level.ILL_TYPED:
            assert t.closed_type is None
        else:
            assert simple_type_of({}, t) is verdict.type
            typed += 1
    assert typed >= 10


def test_ill_typed_and_open_terms_keep_no_closed_type():
    ill = parse(r"\x:o. x x")
    with pytest.raises(TypeCheckError):
        simple_type_of({}, ill)
    assert safety_check({}, ill).level is Level.ILL_TYPED
    with pytest.raises(TypeCheckError):
        eta_long({}, ill)
    assert ill.closed_type is None

    env = parse_env("f:o->o")
    open_term = parse(r"\x:o. f x")
    assert simple_type_of(env, open_term) == parse_type("o->o")
    assert safety_check(env, open_term).level is Level.SAFE
    assert eta_long(env, open_term) is open_term
    assert open_term.closed_type is None
    with pytest.raises(UnboundVariableError):
        simple_type_of({}, open_term)
    assert open_term.closed_type is None


def test_simple_type_of_matches_reference_cold_and_warm():
    population = list(generate_safe_corpus(300, 7))
    for f in itertools.islice(enumerate_qbfs(3, 3), 0, 200 * 212, 212):
        population.append(equality_instance(f)[0])
    for term in population:
        t = copy_term(term)  # no walk has kept a type on it yet
        want = _reference_type_of({}, t)
        assert t.closed_type is None
        assert simple_type_of({}, t) is want
        assert t.closed_type is want
        assert simple_type_of({}, t) is want


def test_each_walk_keeps_the_type_of_each_closed_block():
    t = parse(r"\y:o. (\x:o. x) ((\x:o. x) y)")
    identity, inner = t.body.head, t.body.args[0]
    assert identity is inner.head  # one object: the parser shares it
    assert simple_type_of({}, t) == parse_type("o->o")
    assert (identity.closed_type, identity.closed_safe) == (parse_type("o->o"), True)
    assert (t.closed_type, t.closed_safe) == (parse_type("o->o"), True)
    assert (t.body.closed_type, inner.closed_type) == (None, None)  # y is free
    assert safety_check({}, t).level is Level.SAFE
    assert t.body.closed_type is None


def test_a_kept_type_stands_in_for_the_walk_below_the_root():
    t = parse(r"\y:o. (\x:o. x) y")
    keep_closed_type(t.body.head, parse_type("o"), True)  # planted: not its type
    with pytest.raises(TooManyArgumentsError):
        simple_type_of({}, t)
    # at the root the block is walked, unless read off from the empty context
    assert simple_type_of(parse_env("z:o"), t.body.head) == parse_type("o->o")


_T = "((o->o)->o)->o"
_TWIST = r"(\f:(o->o)->o. f (\x:o. f (\y:o. x)))"  # 7b's Kierstead twist


def test_a_closed_unsafe_subterm_written_twice_fails_at_each_copy():
    for typed_first in (False, True):
        t = parse(rf"(\a:{_T} b:{_T}. a) {_TWIST} {_TWIST}")
        twist = t.args[0]
        assert twist is t.args[1]
        want = _reference_safety_check({}, copy_term(t))
        if typed_first:  # the facts the check reads are kept by typing alone
            assert simple_type_of({}, t) is parse_type(_T)
            assert (twist.closed_type, twist.closed_safe) == (parse_type(_T), False)
        for _ in range(2):  # cold or typed first, then warm
            verdict = safety_check({}, t)
            assert (verdict.level, verdict.type) == (Level.UNSAFE_TYPABLE, parse_type(_T))
            assert [e.location for e in verdict.failures] == [
                "arg0.body.arg0.body.arg0",
                "arg1.body.arg0.body.arg0",
            ]
            assert verdict == want
        assert (twist.closed_type, twist.closed_safe) == (parse_type(_T), False)


def _assert_closed_facts_hold(term: Term, reference: dict) -> set:
    """Every node of `term` keeps both closed facts or neither, and a kept
    `closed_safe` is the reference checker's verdict on the node; returns
    the `closed_safe` values kept."""
    kept = set()
    for node in {id(s): s for s in subterms(term)}.values():
        safe = getattr(node, "closed_safe", None)  # a node is built without it
        if node.closed_type is None:
            assert safe is None
            continue
        assert safe is not None
        want = reference.get(id(node))
        if want is None:
            want = reference[id(node)] = _reference_safety_check({}, node)
        assert (node.closed_type, safe) == (want.type, want.level is Level.SAFE)
        kept.add(safe)
    return kept


def _closed_facts_population():
    population = [(entry.env, entry.term) for entry in HAND_CORPUS]
    population += [({}, t) for t in generate_safe_corpus(300, 7)]
    for f in itertools.islice(enumerate_qbfs(3, 3), 0, 200 * 212, 212):
        population.append(({}, equality_instance(f)[0]))
    return population


@pytest.mark.parametrize(
    "order",
    [("type", "check", "trace", "eta"), ("check", "trace", "type", "eta"), ("eta", "type", "check", "trace")],
)
def test_each_public_walk_keeps_both_closed_facts_or_neither(order):
    kept = set()
    for env, term in _closed_facts_population():
        t = copy_term(term)  # no walk has kept a fact on it yet
        reference: dict = {}
        verdict = None
        for walk in order:
            if walk == "check":
                verdict = safety_check(env, t)
            elif walk == "trace":
                verdict.trace
            else:
                try:
                    (simple_type_of if walk == "type" else eta_long)(env, t)
                except TypeCheckError:
                    pass
            kept |= _assert_closed_facts_hold(t, reference)
    assert kept == {True, False}


@pytest.mark.parametrize("level, body", [(Level.SAFE, "y"), (Level.UNSAFE_TYPABLE, "x")])
def test_facts_kept_under_an_environment_hold_under_any_other(level, body):
    closed = parse(rf"\f:(o->o)->o. f (\x:o. f (\y:o. {body}))")
    env = parse_env(f"g:({_T})->o, f:o")
    assert safety_check(env, App(Var("g"), (closed,))).level is level
    assert (closed.closed_type, closed.closed_safe) == (parse_type(_T), level is Level.SAFE)
    for env, term in (
        ({}, closed),  # the kept block at the root, its kept inner blocks below
        ({}, Abs((("h", parse_type(f"({_T})->o")),), App(Var("h"), (closed,)))),
        (parse_env("x:o->o"), App(closed, (Abs((("k", parse_type("o->o")),), Var("x")),))),
    ):
        want = _reference_safety_check(env, copy_term(term))
        assert safety_check(env, term) == want
        assert _typed(env, term, simple_type_of) == _typed(env, copy_term(term), simple_type_of)


# sharing changes no output: each parse, shared, against an unshared copy

# small enough that a diverging ill-typed input stops in a few ms
_BUDGET = ReductionBudget(max_steps=300, max_term_size=3_000)


def _outputs(env: TypeEnv, term: Term, other: Term) -> list:
    verdict = safety_check(env, term)
    out = [verdict.level, verdict.type, verdict.trace, verdict.failures]
    out.append(_typed(env, term, simple_type_of))
    for run in (
        lambda: eta_long(env, term),
        lambda: normalize(term, Strategy.PLAIN, _BUDGET),
        lambda: normalize(term, Strategy.SAFE, _BUDGET),
        lambda: beta_eta_equal(env, term, other, _BUDGET),
    ):
        try:
            out.append(run())
        except (TypeCheckError, BudgetExceededError, CaptureViolation) as e:
            out.append((type(e).__name__, str(e)))
    return out


def _assert_sharing_changes_no_output(text: str, env: TypeEnv, other_text: str = r"\x:o. x"):
    for canonical in (True, False):
        try:
            shared = parse(text, canonical=canonical)
        except ParseError:
            continue
        other = parse(other_text)
        unshared = copy_term(shared)
        want = _outputs(env, unshared, copy_term(other))
        assert _outputs(env, shared, other) == want  # cold
        assert _outputs(env, shared, other) == want  # warm
        assert _outputs(env, unshared, copy_term(other)) == want


def test_sharing_changes_no_output_on_hand_corpus():
    for entry in HAND_CORPUS:
        _assert_sharing_changes_no_output(pretty(entry.term), entry.env)


def test_sharing_changes_no_output_on_generated_corpus():
    for t in generate_safe_corpus(300, 3):
        _assert_sharing_changes_no_output(pretty(t), {}, r"\x:o y:o. x")


def test_sharing_changes_no_output_on_criterion_5_pairs():
    for f in itertools.islice(enumerate_qbfs(3, 3), 5, 60 * 706, 706):
        lhs, rhs = equality_instance(f)
        _assert_sharing_changes_no_output(pretty(lhs), {}, pretty(rhs))


_EDITS = [r"\x:o.", "x", " ", "(", ")", "o->o", "f"]


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(terms, st.dictionaries(names, types), st.data())
def test_sharing_changes_no_output_on_repeated_and_mutated_texts(t, env, data):
    text = pretty(App(t, (t, t)))
    _assert_sharing_changes_no_output(text, env)
    for _ in range(data.draw(st.integers(1, 2))):
        at = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:at] + data.draw(st.sampled_from(_EDITS)) + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    _assert_sharing_changes_no_output(text, env)


@hyp.given(st.lists(st.tuples(st.integers(-1, 5), st.integers(0, 4)), min_size=1, max_size=12))
def test_staircase_keeps_the_least_key_below_every_depth(pairs):
    stair = [pairs[0]]
    for depth, key in pairs[1:]:
        safety._add(stair, depth, key)
    for below in range(-1, 7):
        want = min((k for d, k in pairs if d < below), default=None)
        got = next((k for d, k in reversed(stair) if d < below), None)
        assert got == want


def test_safe_verdict_builds_no_trace_and_no_free_names(monkeypatch):
    t = parse(r"\f:(o->o)->o. f (\x:o. f (\y:o. y))")

    def no_entries(*args, **kwargs):
        raise AssertionError("a trace entry was built")

    with monkeypatch.context() as m:
        m.setattr(safety, "TraceEntry", no_entries)
        v = safety_check({}, t)
        assert (v.level, v.failures, v.first_failure) == (Level.SAFE, (), None)
    assert "trace" not in vars(v)
    assert all(u._free_names is None for u in subterms(t))  # never filled
    assert v.trace == _reference_safety_check({}, t).trace


def test_checkers_match_reference_on_errors():
    cases = [
        ("", "x"),
        ("f:o->o", "f f"),
        ("x:o, y:o", "x y"),
        ("f:o->o, x:o, y:o", "f x y"),
        ("f:o->o->o, x:o", r"f x (\y:o. y)"),
        ("f:(o->o)->o", r"f (\y:o. z)"),
        ("", r"\x:o. (\y:o. y) (x w)"),
        ("g:o->o", r"\x:o. g ((\y:o->o. y) x)"),
    ]
    for env, src in cases:
        for canonical in (True, False):
            _assert_checkers_match_reference(parse_env(env), parse(src, canonical=canonical))


def test_checkers_restore_shadowed_binders():
    env = parse_env("x:o->o, y:o")
    t = parse(r"(\x:o. x) (x y)")
    _assert_checkers_match_reference(env, t)
    assert simple_type_of(env, t) == parse_type("o")


def _numeral(n: int) -> Term:
    body: Term = Var("z")
    for _ in range(n):
        body = App(Var("s"), (body,))
    return Abs((("s", parse_type("o->o")), ("z", parse_type("o"))), body)


def test_simple_type_of_at_default_recursion_limit():
    term = parse(r"\s:o->o z:o. " + "s (" * 10_000 + "z" + ")" * 10_000)
    with recursion_limit(1_000):
        ty = simple_type_of({}, term)
    assert ty == parse_type("(o->o)->o->o")


def test_safety_check_of_deep_numeral_keeps_memory_flat():
    # without the trace the check keeps a few pairs per open block, so its
    # memory grows with the depth only; the trace would take hundreds of MB
    n = 10_000
    term = _numeral(n)
    with recursion_limit(1_000):
        tracemalloc.start()
        try:
            v = safety_check({}, term)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (v.level, v.type) == (Level.SAFE, parse_type("(o->o)->o->o"))
    assert peak < 30 * 2**20


def test_safety_check_at_default_recursion_limit():
    # the trace spells out one location per node, so its size grows with
    # the square of the depth: 3,000 keeps it near 50 MB
    n = 3_000
    term = _numeral(n)
    with recursion_limit(1_000):
        v = safety_check({}, term)
    assert (v.level, v.type) == (Level.SAFE, parse_type("(o->o)->o->o"))
    assert len(v.trace) == 2 * n + 2
    assert v.trace[-1] == TraceEntry("var", "body" + ".arg0" * n, 0)


# --------------------------------------------------------------------------
# eta_long against the recursive expansion
#
# `_reference_eta_long` is the expansion `eta_long` replaced, kept
# verbatim but for typing with `_reference_type_of`: it rebuilds every
# node and types every abstraction in head position again.  Outputs must
# be `==` on any input.


def _reference_eta_long(env: TypeEnv, term: Term) -> Term:
    term = canonicalize(term)
    ctx0 = dict(env)
    ty = _reference_type_of(ctx0, term)  # surface type errors before rewriting

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
            head_type = _reference_type_of(ctx, t.head)
            head = expand(t.head, head_type, ctx)
        new_args = tuple(expand(a, w, ctx) for a, w in zip(t.args, head_type.arguments))
        return mk_app(head, new_args)

    return expand(term, ty, ctx0)


def _assert_eta_long_matches_reference(env: TypeEnv, term: Term):
    try:
        want = _reference_eta_long(env, term)
    except TypeCheckError as e:
        with pytest.raises(type(e)) as got:
            eta_long(env, term)
        assert (got.value.message, got.value.location) == (e.message, e.location)
        return
    got = eta_long(env, term)
    assert got == want
    if want == term:
        assert got is term  # eta-long input comes back as it is


def _eta_long_populations(top_rung: int):
    """The hand corpus with its environments, two generated corpora,
    every 212th criterion-5 left side and the alternating QBF ladder up
    to `top_rung` quantifiers."""
    out = [(entry.env, entry.term) for entry in HAND_CORPUS]
    for seed in (3, 17):
        out += [({}, t) for t in generate_safe_corpus(300, seed)]
    for f in itertools.islice(enumerate_qbfs(3, 3), 0, 200 * 212, 212):
        out.append(({}, equality_instance(f)[0]))
    for rung in range(2, top_rung + 1):
        vs = [f"v{i + 1}" for i in range(rung)]
        prefix = "".join(f"{'exists' if i % 2 else 'forall'} {v}. " for i, v in enumerate(vs))
        for connective in "|&":
            out.append(({}, qbf_to_term(parse_qbf(prefix + f" {connective} ".join(vs)))))
    return out


def test_eta_long_matches_reference_on_populations():
    for env, term in _eta_long_populations(12):
        _assert_eta_long_matches_reference(env, term)


def test_eta_long_matches_reference_on_plain_normal_forms():
    # rungs 11 and 12 of the ladder exceed the size budget of `normalize`
    for env, term in _eta_long_populations(10):
        _assert_eta_long_matches_reference(env, normalize(term, Strategy.PLAIN))


@hyp.settings(max_examples=300)
@hyp.given(terms, st.dictionaries(names, types))
def test_eta_long_matches_reference_on_raw_terms(t, env):
    _assert_eta_long_matches_reference(env, t)


def test_eta_long_types_nested_redex_heads_once(monkeypatch):
    # 401 abstractions in head position, h0 = \x:o. g f and h(j+1) =
    # \x:o. h(j) x, with the innermost argument f to expand: the
    # recursive expansion typed each head again, 402 walks in all
    env = parse_env("g:(o->o)->o, f:o->o, z:o")
    head: Term = Abs((("x", parse_type("o")),), App(Var("g"), (Var("f"),)))
    for _ in range(400):
        head = Abs((("x", parse_type("o")),), App(head, (Var("x"),)))
    term = App(head, (Var("z"),))
    modes = []
    walk = safety._walk

    def counted(ctx, t, mode):
        modes.append(mode)
        return walk(ctx, t, mode)

    monkeypatch.setattr(safety, "_walk", counted)
    got = eta_long(env, term)
    assert modes == [safety._ETA]
    assert got == _reference_eta_long(env, term)
