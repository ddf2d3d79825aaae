import itertools
import random
from functools import reduce
from typing import Optional

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from safelc import safety
from safelc.corpus import HAND_CORPUS, generate_safe_corpus
from safelc.encodings import church_nat, compile_polynomial, decode_nat, parse_polynomial
from safelc.hardness import qbf_to_term
from safelc.qbf import QBF, And, BoolVar, Or, Quantifier
from safelc.reduction import (
    _NO_CAPTURE,
    DEFAULT_BUDGET,
    BudgetExceededError,
    CaptureViolation,
    ReductionBudget,
    Strategy,
    _contract_plain,
    _contract_block,
    _normalize_counted,
    _subst,
    beta_eta_equal,
    beta_step,
    normalize,
    reduction_sequence,
    safe_step,
    subst_capture_avoiding,
    subst_no_rename,
)
from safelc.safety import Level, TypeCheckError, eta_long, safety_check, simple_type_of
from safelc.syntax import (
    GROUND,
    Abs,
    App,
    Term,
    Var,
    all_names,
    alpha_eq,
    arrow,
    canonicalize,
    mk_abs,
    mk_app,
    parse,
    parse_env,
    primed,
    subterms,
)
from termgen import criterion3_polynomials, is_canonical, recursion_limit, terms

CHURCH_TWO = parse(r"\s:o->o z:o. s (s z)")
CHURCH_THREE = parse(r"\s:o->o z:o. s (s (s z))")
CHURCH_FOUR = parse(r"\s:o->o z:o. s (s (s (s z)))")


# --------------------------------------------------------------------------
# substitution


def test_oracle_renames_on_capture():
    out = subst_capture_avoiding(parse(r"\y:o. x"), {"x": Var("y")})
    assert out == parse(r"\y'1:o. y")


def test_oracle_shares_when_var_not_free():
    t = parse(r"\y:o. y")
    assert subst_capture_avoiding(t, {"x": Var("z")}) is t


def test_oracle_substitutes_into_application():
    out = subst_capture_avoiding(parse("f x"), {"x": parse(r"\z:o. z")})
    assert out == parse(r"f (\z:o. z)")


def test_no_rename_reports_capture():
    out, captured = subst_no_rename(parse(r"\y:o. x"), {"x": Var("y")})
    assert out == parse(r"\y:o. y")
    assert captured
    assert captured == {"y"}
    # a capture below an application, beside an untouched argument
    out, captured = subst_no_rename(parse(r"f a (\y:o. x)"), {"x": Var("y")})
    assert out == parse(r"f a (\y:o. y)")
    assert captured == {"y"}


def test_no_rename_identity():
    t = parse("f x")
    out, captured = subst_no_rename(t, {})
    assert out is t and not captured


def test_no_rename_shares_when_var_not_free():
    t = parse(r"\y:o. g y")
    out, captured = subst_no_rename(t, {"x": Var("z")})
    assert out is t and not captured


def test_substitution_is_simultaneous():
    swap = {"x": Var("y"), "y": Var("x")}
    t = parse("f x y")
    assert subst_capture_avoiding(t, swap) == parse("f y x")
    assert subst_no_rename(t, swap)[0] == parse("f y x")


def test_no_capture_under_unrelated_binder():
    out, captured = subst_no_rename(parse(r"\y:o. f x"), {"x": Var("z")})
    assert out == parse(r"\y:o. f z")
    assert not captured


def test_substitution_keeps_terms_canonical():
    # an abstraction image landing in body position merges into the block
    out = subst_capture_avoiding(parse(r"\w:o. x"), {"x": parse(r"\u:o. u")})
    assert out == parse(r"\w:o u:o. u")
    # an application image landing in head position flattens
    out2, _ = subst_no_rename(parse("x a"), {"x": parse("f b")})
    assert out2 == parse("f b a")


# --------------------------------------------------------------------------
# single steps


def test_beta_step_basics():
    assert beta_step(parse(r"(\x:o. x) y")) == Var("y")
    assert beta_step(parse(r"\x:o. x")) is None


def test_beta_step_splits_binder_block():
    t = parse(r"(\f:o->o x:o. f x) g a")
    one = beta_step(t)
    assert one == parse(r"(\x:o. g x) a")
    assert beta_step(one) == parse("g a")


def test_safe_step_contracts_whole_block():
    t = parse(r"(\f:o->o x:o. f x) g a")
    assert safe_step(t) == parse("g a")


def test_safe_step_partial_block():
    assert safe_step(parse(r"(\x:o y:o. x) a")) == parse(r"\y:o. a")


def test_safe_step_leftover_arguments():
    assert safe_step(parse(r"(\x:o->o. x) g a")) == parse("g a")


def test_safe_step_normal_form():
    assert safe_step(parse(r"\x:o. x")) is None
    assert safe_step(parse("f (g x)")) is None


def test_safe_step_capture_is_loud():
    # UnsafeTypable on purpose: contracting the inner redex would bind the
    # free y of the argument under the re-wrapped binder block
    bad = parse(r"\y:o. (\x:o y:o. x) y")
    assert safety_check({}, bad).level == Level.UNSAFE_TYPABLE
    with pytest.raises(CaptureViolation) as e:
        safe_step(bad)
    assert e.value.names == frozenset({"y"})


def test_safe_step_capture_under_inner_binder():
    bad = parse(r"(\x:o. (\w:o. f x w) z) w", canonical=False)
    with pytest.raises(CaptureViolation) as e:
        safe_step(bad)
    assert e.value.names == frozenset({"w"})


def test_steps_share_leftmost_outermost_order():
    # redexes in both arguments: the left one goes first under either step
    t = parse(r"f ((\x:o. x) a) ((\y:o. y) b)")
    assert beta_step(t) == parse(r"f a ((\y:o. y) b)")
    assert safe_step(t) == parse(r"f a ((\y:o. y) b)")


# --------------------------------------------------------------------------
# the preservation story


def test_plain_beta_leaves_the_safe_fragment():
    w = parse(r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    assert safety_check({}, w).level == Level.SAFE
    mid = beta_step(w)
    assert mid == parse(r"\a:o g:o->o. (\f:o->o. f a) g", canonical=False)
    assert safety_check({}, mid).level == Level.UNSAFE_TYPABLE


def test_safe_step_preserves_safety_on_witness():
    w = parse(r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    chain = list(reduction_sequence(w, Strategy.SAFE))
    assert all(safety_check({}, t).level == Level.SAFE for t in chain)
    assert chain[-1] == parse(r"\a:o g:o->o. g a")


def test_strategies_agree_on_witness():
    w = parse(r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    assert alpha_eq(normalize(w, Strategy.PLAIN), normalize(w, Strategy.SAFE))


# --------------------------------------------------------------------------
# normalization


def test_normalize_identity_redex():
    t = parse(r"(\x:o. x) y")
    assert normalize(t, Strategy.PLAIN) == Var("y")
    assert normalize(t, Strategy.SAFE) == Var("y")


def test_normalize_exponentiation():
    two_lifted = parse(r"\f:(o->o)->o->o x:o->o. f (f x)")
    exp = App(two_lifted, (CHURCH_TWO,))
    assert alpha_eq(normalize(exp, Strategy.PLAIN), CHURCH_FOUR)
    assert alpha_eq(normalize(exp, Strategy.SAFE), CHURCH_FOUR)
    for t in reduction_sequence(exp, Strategy.SAFE):
        assert safety_check({}, t).level == Level.SAFE


def test_reduction_sequence_endpoints():
    t = parse(r"(\f:o->o x:o. f x) g a")
    chain = list(reduction_sequence(t, Strategy.PLAIN))
    assert chain[0] is t
    assert beta_step(chain[-1]) is None


def test_budget_steps_exhausted():
    two_lifted = parse(r"\f:(o->o)->o->o x:o->o. f (f x)")
    exp = App(two_lifted, (CHURCH_TWO,))
    with pytest.raises(BudgetExceededError) as e:
        normalize(exp, Strategy.PLAIN, ReductionBudget(max_steps=2))
    assert e.value.steps == 2
    assert e.value.size > 0


def test_budget_size_exceeded():
    two_lifted = parse(r"\f:(o->o)->o->o x:o->o. f (f x)")
    exp = App(two_lifted, (CHURCH_TWO,))
    with pytest.raises(BudgetExceededError) as e:
        normalize(exp, Strategy.PLAIN, ReductionBudget(max_term_size=10))
    assert e.value.size > 10


def test_budget_validation():
    with pytest.raises(ValueError):
        ReductionBudget(max_steps=0)
    with pytest.raises(ValueError):
        ReductionBudget(max_term_size=-1)


def test_strategy_coercion():
    t = parse(r"(\x:o. x) y")
    assert normalize(t, "safe") == Var("y")
    assert normalize(t, "PLAIN") == Var("y")
    with pytest.raises(ValueError):
        normalize(t, "eager")


# --------------------------------------------------------------------------
# beta-eta equality


def test_beta_eta_equal_alpha():
    assert beta_eta_equal({}, parse(r"\x:o. x"), parse(r"\y:o. y"))


def test_beta_eta_equal_eta():
    env = parse_env("f:o->o")
    assert beta_eta_equal(env, parse("f"), parse(r"\x:o. f x"))


def test_beta_eta_equal_distinguishes_numerals():
    assert not beta_eta_equal({}, CHURCH_TWO, CHURCH_THREE)


def test_beta_eta_equal_type_mismatch():
    with pytest.raises(TypeCheckError):
        beta_eta_equal({}, parse(r"\x:o. x"), CHURCH_TWO)


def test_beta_eta_equal_step_budget():
    two_lifted = parse(r"\f:(o->o)->o->o x:o->o. f (f x)")
    exp = App(two_lifted, (CHURCH_TWO,))
    assert beta_eta_equal({}, exp, CHURCH_FOUR)
    with pytest.raises(BudgetExceededError) as e:
        beta_eta_equal({}, exp, CHURCH_FOUR, ReductionBudget(max_steps=2))
    assert e.value.steps == 2
    # a normal form needs no contraction: going under its three blocks is free
    kierstead = parse(r"\f:(o->o)->o. f (\x:o. f (\y:o. y))")
    assert beta_eta_equal({}, kierstead, kierstead, ReductionBudget(max_steps=1))


def test_beta_eta_equal_size_budget():
    # the eta-long normal form of four is four itself, 12 nodes
    assert CHURCH_FOUR.size == 12
    assert beta_eta_equal({}, CHURCH_FOUR, CHURCH_FOUR, ReductionBudget(max_term_size=12))
    with pytest.raises(BudgetExceededError) as e:
        beta_eta_equal({}, CHURCH_FOUR, CHURCH_FOUR, ReductionBudget(max_term_size=11))
    assert e.value.size > 11


def test_beta_eta_equal_types_a_checked_left_side_once(monkeypatch):
    left = parse(r"\f:o->o x:o. (\g:o->o y:o. g (g y)) f x")
    right = parse(r"\f:o->o x:o. f (f x)")
    assert safety_check({}, left).level is Level.SAFE
    walked = []
    walk = safety._walk

    def counted(ctx, t, mode):
        walked.append(t)
        return walk(ctx, t, mode)

    monkeypatch.setattr(safety, "_walk", counted)
    assert beta_eta_equal({}, left, right)
    assert walked == [right]
    assert beta_eta_equal({}, left, right)
    assert walked == [right]


def test_beta_eta_equal_of_deep_numeral_at_default_recursion_limit():
    # read-back and the comparison of the flat normal forms do not recurse
    n = 10_000
    a, b, c = church_nat(n), church_nat(n), church_nat(n - 1)
    with recursion_limit(1_000):
        assert beta_eta_equal({}, a, b)
        assert not beta_eta_equal({}, a, c)


# equality against the reference path kept in the code: plain
# normalization by capture-avoiding substitution, full eta-expansion,
# comparison up to alpha


def _reference_normal_form(env, term):
    return eta_long(env, normalize(term, Strategy.PLAIN))


def _closed_terms():
    closed_hand = [
        e.term for e in HAND_CORPUS if e.level is not Level.ILL_TYPED and not e.env
    ]
    return closed_hand + list(generate_safe_corpus(300, seed=21))


def test_beta_eta_equal_agrees_with_reference_on_corpus_pairs():
    by_type = {}
    for term in _closed_terms():
        by_type.setdefault(simple_type_of({}, term), []).append(
            (term, _reference_normal_form({}, term))
        )
    verdicts = set()
    for group in by_type.values():
        for (a, na), (b, nb) in itertools.combinations(group, 2):
            expected = alpha_eq(na, nb)
            assert beta_eta_equal({}, a, b) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_terms_equal_their_normal_forms():
    for term in _closed_terms():
        assert beta_eta_equal({}, term, normalize(term))
    for e in HAND_CORPUS:
        if e.level is not Level.ILL_TYPED:
            assert beta_eta_equal(e.env, e.term, normalize(e.term))
            assert beta_eta_equal(e.env, e.term, _reference_normal_form(e.env, e.term))


# --------------------------------------------------------------------------
# properties

SMALL = ReductionBudget(max_steps=40, max_term_size=2000)


@hyp.given(terms, terms)
def test_no_rename_agrees_with_oracle_without_capture(t, u):
    out, captured = subst_no_rename(t, {"x": u})
    if not captured:
        assert out == subst_capture_avoiding(t, {"x": u})


@hyp.given(terms, terms)
def test_oracle_never_captures(t, u):
    out = subst_capture_avoiding(t, {"x": u})
    expected = set(t.free_names) - {"x"}
    if "x" in t.free_names:
        expected |= set(u.free_names)
    assert set(out.free_names) == expected


@hyp.given(terms)
def test_subst_shares_object_when_domain_not_free(t):
    hyp.assume("qq" not in t.free_names)
    assert subst_no_rename(t, {"qq": Var("x")})[0] is t
    assert subst_capture_avoiding(t, {"qq": Var("x")}) is t


OPEN_ENV = parse_env(
    "a:o, b:o, c:o, d:o->o, f:o->o, g:o->o->o, h:(o->o)->o, x:o, y:o, z:o"
)


@hyp.given(terms, terms)
def test_beta_eta_equal_agrees_with_reference_on_open_terms(t, u):
    # raw terms, often non-canonical; only pairs typable at one type count
    try:
        ty, tu = simple_type_of(OPEN_ENV, t), simple_type_of(OPEN_ENV, u)
    except TypeCheckError:
        return
    try:
        nt = eta_long(OPEN_ENV, normalize(canonicalize(t), Strategy.PLAIN, SMALL))
        nu = eta_long(OPEN_ENV, normalize(canonicalize(u), Strategy.PLAIN, SMALL))
    except BudgetExceededError:
        return
    assert beta_eta_equal(OPEN_ENV, t, nt)
    if ty == tu:
        assert beta_eta_equal(OPEN_ENV, t, u) == alpha_eq(nt, nu)


@hyp.given(terms)
def test_strategies_agree_within_budget(t):
    # raw generated terms can be non-canonical; reduction rebuilds with the
    # canonical smart constructors, so compare from a canonical start
    t = canonicalize(t)
    try:
        a = normalize(t, Strategy.PLAIN, SMALL)
        b = normalize(t, Strategy.SAFE, SMALL)
    except (BudgetExceededError, CaptureViolation):
        return
    assert alpha_eq(a, b)
    assert is_canonical(a) and is_canonical(b)


def test_every_reduct_and_eta_long_form_is_canonical():
    # the engines rely on each node's `canonical` flag: every term they hand
    # back must carry it, and the walk must agree
    population = [(e.env, e.term) for e in HAND_CORPUS]
    population += [({}, t) for t in generate_safe_corpus(300, 7)]
    for env, t in population:
        for strategy in Strategy:
            for u in _chain(reduction_sequence(t, strategy, SMALL)):
                if isinstance(u, Term):
                    assert u.canonical and is_canonical(u)
        try:
            long = eta_long(env, t)
        except TypeCheckError:
            continue
        assert long.canonical and is_canonical(long)


# --------------------------------------------------------------------------
# the step driver against the root-first reference
#
# `_reference_step` and `_reference_sequence` are the engine the driver
# replaced, kept verbatim: each step searches from the root and rebuilds
# the root-to-redex path.  The driver reduces the canonical form of its
# input, so on any input, canonical or not, it must give `==` results,
# errors included, to the reference run from that canonical form.


def _reference_step(term: Term, contract) -> Optional[Term]:
    if isinstance(term, App):
        if isinstance(term.head, Abs):
            return contract(term.head, term.args)
        head = _reference_step(term.head, contract)
        if head is not None:
            return mk_app(head, term.args)
        for i, a in enumerate(term.args):
            new = _reference_step(a, contract)
            if new is not None:
                return App(term.head, term.args[:i] + (new,) + term.args[i + 1 :])
        return None
    if isinstance(term, Abs):
        body = _reference_step(term.body, contract)
        return None if body is None else mk_abs(term.binders, body)
    return None


_CONTRACT = {Strategy.PLAIN: _contract_plain, Strategy.SAFE: _contract_block}


def _reference_sequence(term, strategy, budget=DEFAULT_BUDGET):
    contract = _CONTRACT[strategy]
    current = term
    yield current
    steps = 0
    while True:
        nxt = _reference_step(current, contract)
        if nxt is None:
            return
        if steps >= budget.max_steps:
            raise BudgetExceededError(
                steps,
                current.size,
                f"no normal form within {budget.max_steps} steps "
                f"(current term size {current.size})",
            )
        steps += 1
        if nxt.size > budget.max_term_size:
            raise BudgetExceededError(
                steps,
                nxt.size,
                f"term size {nxt.size} exceeds budget {budget.max_term_size} "
                f"after {steps} steps",
            )
        yield nxt
        current = nxt


def _failure(exc):
    if isinstance(exc, BudgetExceededError):
        return ("budget", exc.steps, exc.size, str(exc))
    return ("capture", exc.names, str(exc))


def _outcome(run):
    try:
        return ("ok", run())
    except (BudgetExceededError, CaptureViolation) as exc:
        return _failure(exc)


def _chain(sequence):
    """Every term of a reduction sequence, then its failure if it has one."""
    out = []
    try:
        for t in sequence:
            out.append(t)
    except (BudgetExceededError, CaptureViolation) as exc:
        out.append(_failure(exc))
    return out


def _assert_driver_matches_reference(term, budget=DEFAULT_BUDGET):
    start = canonicalize(term)
    for contract, step in ((_contract_plain, beta_step), (_contract_block, safe_step)):
        want = _outcome(lambda: _reference_step(start, contract))
        assert _outcome(lambda: step(term)) == want
    for strategy in Strategy:
        chain = _chain(_reference_sequence(start, strategy, budget))
        assert _chain(reduction_sequence(term, strategy, budget)) == chain
        counted = _outcome(lambda: _normalize_counted(term, strategy, budget))
        if isinstance(chain[-1], tuple):
            assert counted == chain[-1]
        else:
            assert counted == ("ok", (chain[-1], len(chain) - 1))
            assert normalize(term, strategy, budget) == chain[-1]


@hyp.settings(max_examples=300)
@hyp.given(terms)
def test_driver_matches_reference_on_raw_terms(t):
    # non-canonical and ill-typed input included, so the budget is small
    _assert_driver_matches_reference(t, ReductionBudget(max_steps=30, max_term_size=400))


def test_driver_matches_reference_on_hand_corpus():
    for e in HAND_CORPUS:
        _assert_driver_matches_reference(e.term)
        _assert_driver_matches_reference(e.term, ReductionBudget(max_steps=2, max_term_size=30))


@pytest.mark.parametrize("seed", [3, 17])
def test_driver_matches_reference_on_generated_corpus(seed):
    for t in generate_safe_corpus(300, seed):
        _assert_driver_matches_reference(t)


def test_driver_matches_reference_at_every_budget_cut():
    for text, point in (("x*y", (3, 2)), ("x^2 + 2*y", (2, 3)), ("x*y*z + 1", (1, 2, 2))):
        applied = mk_app(
            compile_polynomial(parse_polynomial(text)),
            tuple(church_nat(n) for n in point),
        )
        for strategy in Strategy:
            steps = len(list(reduction_sequence(applied, strategy))) - 1
            assert steps >= 5
            cuts = [ReductionBudget(max_steps=k) for k in range(1, steps + 1)]
            cuts += [ReductionBudget(max_term_size=m) for m in (5, 30, 60, 120)]
            for budget in cuts:
                last = _chain(_reference_sequence(applied, strategy, budget))[-1]
                want = last if isinstance(last, tuple) else ("ok", last)
                assert _outcome(lambda: normalize(applied, strategy, budget)) == want


def test_driver_keeps_normal_input_and_untouched_subterms():
    normal = parse(r"\f:o->o->o x:o. f (f x x) x")
    for strategy in Strategy:
        assert normalize(normal, strategy) is normal
        assert _normalize_counted(normal, strategy) == (normal, 0)
    # only the second argument has a redex: the first comes back as it was
    left = parse(r"\y:o. g y")
    t = App(Var("f"), (left, parse(r"(\x:o. x) a")))
    out = normalize(t)
    assert out == App(Var("f"), (left, Var("a")))
    assert out.args[0] is left


def test_driver_merges_an_abstraction_contractum_into_its_block():
    t = parse(r"\a:o. (\x:o y:o. x) a")
    assert beta_step(t) == parse(r"\a:o y:o. a")
    assert normalize(t, Strategy.SAFE) == parse(r"\a:o y:o. a")


def test_non_canonical_input_reduces_as_its_canonical_form():
    # an application in head position and blocks directly in bodies: the
    # engines reduce the canonical form, so every result, step count and
    # budget error is the one that form gives, under every budget cut
    texts = (
        r"((f ((\x:o. x) a)) b) (\u:o. \v:o. (\w:o. w) v)",
        r"(\x:o y:o. f (\u:o. \v:o. g x y)) a ((h c) d)",
        r"\a:o. \s:o->o. (\x:o. \y:o. s ((\z:o. z) x)) a",
    )
    raw = [parse(text, canonical=False) for text in texts]
    raw += [e.term for e in HAND_CORPUS if not is_canonical(e.term)]
    for t in raw:
        c = canonicalize(t)
        assert c != t
        assert beta_step(t) == beta_step(c)
        assert _outcome(lambda: safe_step(t)) == _outcome(lambda: safe_step(c))
        for strategy in Strategy:
            most = _normalize_counted(c, strategy)[1]
            cuts = [DEFAULT_BUDGET]
            cuts += [ReductionBudget(max_steps=k) for k in range(1, most + 1)]
            cuts += [ReductionBudget(max_term_size=m) for m in range(1, c.size + 1)]
            for budget in cuts:
                assert _chain(reduction_sequence(t, strategy, budget)) == _chain(
                    reduction_sequence(c, strategy, budget)
                )
                assert _outcome(lambda: _normalize_counted(t, strategy, budget)) == _outcome(
                    lambda: _normalize_counted(c, strategy, budget)
                )
        _assert_driver_matches_reference(t)
    assert normalize(raw[0]) == parse(r"f a b (\u:o v:o. v)")
    assert normalize(raw[1]) == parse(r"f (\u:o v:o. g a (h c d))")


def test_driver_restarts_under_non_canonical_nesting():
    # an application in head position and a block directly in a body: the
    # regrouping a contraction under either once forced mid-walk is now done
    # on entry, and the chain and each size cut are the reference's
    t = parse(r"((f ((\x:o. x) a)) b) (\u:o. \v:o. (\w:o. w) v)", canonical=False)
    _assert_driver_matches_reference(t)
    assert normalize(t) == parse(r"f a b (\u:o v:o. v)")
    for m in range(1, t.size + 1):
        _assert_driver_matches_reference(t, ReductionBudget(max_term_size=m))


def test_normalize_deep_numeral_at_default_recursion_limit():
    # x*y at (30, 30) builds a 900-deep numeral, spine first from the outside
    applied = mk_app(
        compile_polynomial(parse_polynomial("x*y")), (church_nat(30), church_nat(30))
    )
    with recursion_limit(1_000):
        values = [decode_nat(normalize(applied, strategy)) for strategy in Strategy]
    assert values == [900, 900]


def test_normalize_contracts_over_a_deep_argument_at_default_recursion_limit():
    # the first contraction measures the whole input: Term.size and
    # free_names must not recurse down the 3,000-deep argument
    deep: Term = Var("z")
    for _ in range(3_000):
        deep = App(Var("s"), (deep,))
    binders = (("s", arrow(GROUND, GROUND)), ("z", GROUND))
    term = Abs(binders, App(Abs((("x", GROUND),), Var("x")), (deep,)))
    with recursion_limit(1_000):
        results = [normalize(term, strategy) for strategy in Strategy]
        assert results == [Abs(binders, deep)] * 2


def test_normalize_partial_application_of_a_deep_numeral_at_default_recursion_limit():
    # the numeral becomes the body of the block left over: the merge
    # joins its block to y and must not walk the 3,000-deep body
    numeral = church_nat(3_000)
    term = App(parse(r"\x:(o->o)->o->o y:o. x"), (numeral,))
    with recursion_limit(1_000):
        results = [_normalize_counted(term, strategy) for strategy in Strategy]
    merged = Abs((("y", GROUND),) + numeral.binders, numeral.body)
    assert results == [(merged, 1)] * 2


def test_normalize_deep_merge_at_default_recursion_limit():
    # (\x:o y:o. s (s (... y))) a leaves \y. s (s (... y)), which merges
    # into the enclosing block when there is one
    deep: Term = Var("y")
    for _ in range(3_000):
        deep = App(Var("s"), (deep,))
    redex = App(Abs((("x", GROUND), ("y", GROUND)), deep), (Var("a"),))
    outer = (("a", GROUND), ("s", arrow(GROUND, GROUND)))
    with recursion_limit(1_000):
        results = [normalize(t, strategy) for t in (redex, Abs(outer, redex)) for strategy in Strategy]
    contractum = Abs((("y", GROUND),), deep)
    merged = Abs(outer + (("y", GROUND),), deep)
    assert results == [contractum, contractum, merged, merged]


# --------------------------------------------------------------------------
# plain block contraction against one binder per step
#
# `_normalize_counted` contracts a plain redex block in one no-rename walk
# when that provably gives what its one-binder steps give.  Each case below
# is one where it must not, or where a budget cuts the block, and the
# result, step count and error must still be those of `_reference_sequence`.

RENAME_WITNESS = parse(r"\f:o->o->o y:o b:o. (\x:o y:o. f x y) y b")


@pytest.fixture
def single_steps(monkeypatch):
    """The one-binder contractions made since the fixture was set up."""
    calls = []

    def counted(head, args):
        calls.append(head)
        return _contract_plain(head, args)

    monkeypatch.setattr("safelc.reduction._contract_plain", counted)
    return calls


def test_block_falls_back_where_a_step_renames(single_steps):
    # the first step substitutes y under the block's own y, which it
    # renames; the second step consumes the renamed binder, so the block
    # gives what the two steps give and is taken in one walk
    assert _normalize_counted(RENAME_WITNESS)[1] == 2
    assert len(single_steps) == 0
    chain = list(_reference_sequence(RENAME_WITNESS, Strategy.PLAIN))
    assert chain[1] == parse(r"\f:o->o->o y:o b:o. (\y'1:o. f y y'1) b")
    assert chain[2] == parse(r"\f:o->o->o y:o b:o. f y b")
    _assert_driver_matches_reference(RENAME_WITNESS)
    # here an inner binder of the body is renamed instead
    t = parse(r"(\x:o y:o. f (\z:o. x) y) z b")
    assert normalize(t) == parse(r"f (\z'1:o. z) b")
    _assert_driver_matches_reference(t)


def test_block_falls_back_where_a_step_renames_a_binder_it_leaves(single_steps):
    # y is renamed by the first step and not consumed: it stays in the result
    t = parse(r"\f:o->o->o->o y:o a:o. (\x:o w:o y:o. f x w y) y a")
    assert _normalize_counted(t) == (parse(r"\f:o->o->o->o y:o a:o y'1:o. f y a y'1"), 2)
    assert len(single_steps) == 2
    _assert_driver_matches_reference(t)


def test_block_falls_back_where_a_rename_meets_an_inner_binder(single_steps):
    # the first step renames the block's y to y'1, which an inner binder of
    # the body already names: that binder is renamed in turn, so the steps
    # end at \y'1'1 where one walk would keep \y'1
    t = parse(r"\f:o->(o->o)->o y:o b:o. (\x:o y:o. f x (\y'1:o. y)) y b")
    chain = list(_reference_sequence(t, Strategy.PLAIN))
    assert chain[1] == parse(r"\f:o->(o->o)->o y:o b:o. (\y'1:o. f y (\y'1'1:o. y'1)) b")
    assert chain[2] == parse(r"\f:o->(o->o)->o y:o b:o. f y (\y'1'1:o. b)")
    assert _normalize_counted(t) == (chain[2], 2)
    assert len(single_steps) == 2
    _assert_driver_matches_reference(t)


def test_block_not_taken_on_non_canonical_input(single_steps):
    # the written grouping is never walked as a block: \u. \v. and (h c) d
    # are regrouped on entry, and the one walk runs on the canonical form
    t = parse(r"(\x:o y:o. f (\u:o. \v:o. g x y)) a ((h c) d)", canonical=False)
    assert _normalize_counted(t) == (parse(r"f (\u:o v:o. g a (h c d))"), 2)
    assert single_steps == []
    _assert_driver_matches_reference(t)


def test_block_whose_body_is_a_binder_bound_to_an_abstraction():
    # the argument for x becomes the body mid-block and merges with the
    # binders left, one of which it shadows
    for text in (
        r"(\x:o->o y:o. x) (\y:o. y) b",
        r"(\x:o->o y:o. x) (\u:o. u) a b",
        r"\a:o. (\x:o->o y:o z:o. x) (\z:o. a) a",
        r"(\x:o y:o z:o. y) a (\y:o w:o. y) c d",
        # the merge renames the shadowed b, avoiding the b'1 still in the block
        r"(\a:o->o b'1:o b:o. a) (\b:o. b) c",
    ):
        _assert_driver_matches_reference(parse(text))


def test_block_size_cut_crossed_only_mid_block():
    # sizes 7, 5, 1: the final term fits a budget of 4 and the step before
    # it does not
    t = parse(r"(\x:o y:o. y) a b")
    cut = ReductionBudget(max_term_size=4)
    with pytest.raises(BudgetExceededError) as e:
        _normalize_counted(t, Strategy.PLAIN, cut)
    assert (e.value.steps, e.value.size) == (1, 5)
    _assert_driver_matches_reference(t, cut)
    # copies of an argument grow the body, then the block is used up
    grow = parse(r"\f:o->o->o->o. (\x:o->o y:o z:o. f (x y) (x y) z) (\u:o. f u u u) a b")
    for m in range(1, normalize(grow).size + 12):
        _assert_driver_matches_reference(grow, ReductionBudget(max_term_size=m))


def test_block_step_cut_inside_a_block(single_steps):
    t = parse(r"(\x:o y:o z:o. f x y z) a b c")
    assert _normalize_counted(t, Strategy.PLAIN, ReductionBudget(max_steps=3))[1] == 3
    assert single_steps == []
    for k in (1, 2):
        _assert_driver_matches_reference(t, ReductionBudget(max_steps=k))


def test_fully_applied_block_takes_no_single_step(single_steps):
    t = parse(r"(\x:o y:o z:o. f x (g y) z z) a (h b) c")
    assert _normalize_counted(t, Strategy.PLAIN) == (parse("f a (g (h b)) c c"), 3)
    assert single_steps == []
    _assert_driver_matches_reference(t)


# Multi-binder redexes over three names that both bind the block and occur
# free in the arguments, so that renaming steps, captures and
# substitutions into earlier arguments all come up.  All binders are
# ground: the terms are often ill-typed, and the budgets stay small.
_POOL = ("x", "y", "z")


def _ground_block(names, body):
    return Abs(tuple((n, GROUND) for n in names), body)


_pool_binders = st.lists(st.sampled_from(_POOL), min_size=1, max_size=2, unique=True)
_pool_terms = st.recursive(
    st.builds(Var, st.sampled_from(_POOL + ("f",))),
    lambda sub: st.one_of(
        st.builds(_ground_block, _pool_binders, sub),
        st.builds(lambda h, a: App(h, tuple(a)), sub, st.lists(sub, min_size=1, max_size=2)),
    ),
    max_leaves=6,
)


@st.composite
def block_redexes(draw):
    names = draw(st.lists(st.sampled_from(_POOL), min_size=2, max_size=3, unique=True))
    # often a binder of the body stands over the block's variables
    inner = st.builds(_ground_block, _pool_binders, _pool_terms)
    body = draw(st.one_of(_pool_terms, inner.map(lambda a: App(Var("f"), (a,)))))
    # from 2 arguments to one more than the binders, often a bare name
    arg = st.one_of(st.builds(Var, st.sampled_from(_POOL)), _pool_terms)
    args = [draw(arg) for _ in range(draw(st.integers(2, len(names) + 1)))]
    term = App(_ground_block(names, body), tuple(args))
    outer = draw(st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
    return canonicalize(_ground_block(outer, term) if outer else term)


@hyp.settings(max_examples=200)
@hyp.given(
    block_redexes(),
    st.builds(
        ReductionBudget,
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=100),
    ),
)
def test_driver_matches_reference_on_block_redexes(t, budget):
    _assert_driver_matches_reference(t, budget)


# Seeded raw terms whose redex blocks have three binders over a pool of
# three or four names, with bare names as arguments, so that a step often
# renames a later binder of its block.  Inner binders also take the primed
# names (x'1, ...) such a rename picks.  The driver must match the
# reference on each, and the counts pin how often a block is taken where
# one of its steps renames a binder the block consumes, and how often one
# is stepped because such a rename would meet an inner binder.

_RAW_POOLS = (("x", "y", "z"), ("x", "y", "z", "w"), ("x", "y", "z", "y'1"))


def _raw_term(rng, pool, depth):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return Var(rng.choice(pool))
    if r < 0.6:
        primes = sorted(set(pool) | {n + "'1" for n in pool if "'" not in n})
        return _ground_block(rng.sample(primes, rng.randint(1, 2)), _raw_term(rng, pool, depth - 1))
    if r < 0.75:
        return _raw_block(rng, pool, depth - 1)
    args = tuple(_raw_term(rng, pool, depth - 1) for _ in range(rng.randint(1, 2)))
    return App(Var(rng.choice(pool)), args)


def _raw_block(rng, pool, depth):
    head = _ground_block(rng.sample(pool, 3), _raw_term(rng, pool, depth))
    return App(head, tuple(_raw_term(rng, pool, depth - 2) for _ in range(rng.randint(2, 4))))


def _a_step_renames(head: Abs, args) -> bool:
    """Whether one of the block's one-binder steps renames a later binder."""
    names = head.binder_names
    j = min(len(names), len(args))
    free = head.body.free_names
    return any(
        names[i] in free and not args[i].free_names.isdisjoint(names[i + 1 :])
        for i in range(min(j, len(names) - 1))
    )


def test_driver_matches_reference_on_seeded_raw_blocks(monkeypatch):
    seen = {"taken": 0, "taken, a step renames": 0, "stepped": 0, "stepped, a rename meets a binder": 0}

    def spied(head, args, room=None):
        out = _contract_block(head, args, room)
        if room is not None:
            if out is not None:
                seen["taken"] += 1
                seen["taken, a step renames"] += _a_step_renames(head, args)
            else:
                seen["stepped"] += 1
                mapping = dict(zip(head.binder_names, args))
                met = _subst(head.body, mapping, None)[1] - _subst(head.body, mapping, False)[1]
                seen["stepped, a rename meets a binder"] += bool(met)
        return out

    monkeypatch.setattr("safelc.reduction._contract_block", spied)
    rng = random.Random(11)
    budget = ReductionBudget(max_steps=30, max_term_size=300)
    for i in range(1_500):
        _assert_driver_matches_reference(_raw_block(rng, _RAW_POOLS[i % 3], 3), budget)
    assert seen == {
        "taken": 3_628,
        "taken, a step renames": 622,
        "stepped": 2_686,
        "stepped, a rename meets a binder": 148,
    }


# --------------------------------------------------------------------------
# step counts pinned
#
# Steps are deterministic, so exact totals on fixed inputs catch a change
# to either strategy's contraction, or to which blocks the plain strategy
# takes in one walk, that timings would lose in noise.


def _criterion3_slice() -> list[Term]:
    """Every 10th (polynomial, point) pair of criterion 3, applied, as
    the acceptance test builds them."""
    pairs = [
        (term, point)
        for p in criterion3_polynomials()
        for term in [compile_polynomial(p)]
        for point in itertools.product(range(4), repeat=len(p.variables))
    ]
    return [mk_app(term, tuple(church_nat(n) for n in point)) for term, point in pairs[::10]]


def _ladder(rung: int, connective) -> Term:
    """forall v1 exists v2 forall v3 ... . v1 op v2 op ... op v<rung>"""
    names = [f"v{i + 1}" for i in range(rung)]
    prefix = tuple(
        (Quantifier.FORALL if i % 2 == 0 else Quantifier.EXISTS, name)
        for i, name in enumerate(names)
    )
    return qbf_to_term(QBF(prefix, reduce(connective, [BoolVar(n) for n in names])))


def test_step_counts_are_pinned():
    pairs = _criterion3_slice()
    assert len(pairs) == 322
    totals = [sum(_normalize_counted(t, strategy)[1] for t in pairs) for strategy in Strategy]
    assert totals == [16_264, 7_116]
    ladder = {
        Or: ([13, 28, 40, 78, 102, 194, 242, 458, 554], [(30, 1_107_269), (30, 1_113_332)]),
        And: ([16, 25, 48, 63, 116, 143, 264, 315, 588], [(33, 1_001_234), (28, 1_092_397)]),
    }
    for connective, (steps, failures) in ladder.items():
        got = [_normalize_counted(_ladder(r, connective), Strategy.SAFE)[1] for r in range(2, 11)]
        assert got == steps
        cut = []
        for r in (11, 12):
            with pytest.raises(BudgetExceededError) as e:
                _normalize_counted(_ladder(r, connective), Strategy.SAFE)
            cut.append((e.value.steps, e.value.size))
        assert cut == failures


# --------------------------------------------------------------------------
# sizes and substitution against the walks they replaced
#
# `_reference_size` is the recursive node count `Term.size` once was, and
# `_reference_subst` is the substitution walk that visited every subterm,
# kept verbatim.  Sizes set at construction, and a walk that skips the
# children in which no mapped name is free, must give `==` results,
# captured sets and shared objects.


def _reference_size(t: Term) -> int:
    if isinstance(t, Abs):
        return 1 + len(t.binders) + _reference_size(t.body)
    if isinstance(t, App):
        return 1 + _reference_size(t.head) + sum(_reference_size(a) for a in t.args)
    return 1


def _reference_subst(term: Term, mapping, rename: bool) -> tuple[Term, frozenset[str]]:
    # One walk for both disciplines.  Returns the substituted term plus
    # the binder names that captured a free variable of some landed image.
    # A binder clashes when it names a free variable of an image that lands
    # under it; with `rename` the binder is renamed out of the way (so the
    # set stays empty), without it the clash is reported.
    if not mapping:
        return term, _NO_CAPTURE
    if isinstance(term, Var):
        return mapping.get(term.name, term), _NO_CAPTURE
    if isinstance(term, App):
        head, captured = _reference_subst(term.head, mapping, rename)
        args = []
        changed = head is not term.head
        for a in term.args:
            new, c = _reference_subst(a, mapping, rename)
            if c:
                captured |= c
            changed = changed or new is not a
            args.append(new)
        if not changed:
            return term, captured
        return mk_app(head, tuple(args)), captured
    assert isinstance(term, Abs)
    shadowed = term.binder_names
    active = {
        x: u
        for x, u in mapping.items()
        if x in term.body.free_names and x not in shadowed
    }
    if not active:
        return term, _NO_CAPTURE
    clashing = frozenset(
        y for y in shadowed if any(y in u.free_names for u in active.values())
    )
    binders = term.binders
    if clashing and rename:
        used = set(term.body.free_names) | set(shadowed) | set(active)
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
    body, captured = _reference_subst(term.body, active, rename)
    if binders is term.binders and body is term.body:
        return term, clashing | captured
    return mk_abs(binders, body), clashing | captured


def _reference_contract_safe(head: Abs, args: tuple[Term, ...]) -> Term:
    """The safe contraction spelled out with the reference walk: the j =
    min(n, k) arguments substituted at once, the binders left re-wrapped
    and the arguments left re-applied.  An argument lands where its
    binder occurs free in the body, and a binder left over it captures
    each of its free variables that it names, as an inner binder does."""
    j = min(len(head.binders), len(args))
    used, left = head.binders[:j], head.binders[j:]
    mapping = {x: a for (x, _), a in zip(used, args)}
    body, captured = _reference_subst(head.body, mapping, rename=False)
    left_names = {y for y, _ in left}
    for (x, _), a in zip(used, args):
        if x in head.body.free_names:
            captured = captured | (a.free_names & left_names)
    if captured:
        names = ", ".join(sorted(captured))
        raise CaptureViolation(
            frozenset(captured), f"no-rename contraction captured free variable(s): {names}"
        )
    return mk_app(mk_abs(left, body), args[j:])


def _safe_contractions(term: Term, budget=DEFAULT_BUDGET) -> list:
    """The outcome of each safe contraction `normalize` makes on `term`,
    each checked `==` against `_reference_contract_safe` as it is made."""
    made = []
    engine = _contract_block

    def checked(head, args):
        want = _outcome(lambda: _reference_contract_safe(head, args))
        assert _outcome(lambda: engine(head, args)) == want
        made.append(want[0])
        return engine(head, args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("safelc.reduction._contract_block", checked)
        _outcome(lambda: _normalize_counted(term, Strategy.SAFE, budget))
    return made


def test_safe_contraction_matches_reference_on_corpora():
    made = []
    for e in HAND_CORPUS:
        made += _safe_contractions(e.term)
    for t in generate_safe_corpus(300, 7):
        made += _safe_contractions(t)
    assert "capture" in made and made.count("ok") >= 80
    made = [m for t in _criterion3_slice() for m in _safe_contractions(t)]
    assert made == ["ok"] * 7_116


@hyp.settings(max_examples=200)
@hyp.given(block_redexes())
def test_safe_contraction_matches_reference_on_block_redexes(t):
    _safe_contractions(t, ReductionBudget(max_steps=10, max_term_size=400))


def _kept(before: Term, after: Term) -> set[int]:
    """Identities of the nodes of `before` that `after` still holds."""
    old = {id(t) for t in subterms(before)}
    return {id(t) for t in subterms(after) if id(t) in old}


@hyp.given(terms, st.data())
def test_subst_matches_reference_and_keeps_untouched_children(t, data):
    mapping = data.draw(
        st.dictionaries(st.sampled_from(sorted(all_names(t))), terms, max_size=3)
    )
    for rename in (False, True):
        got = _subst(t, mapping, rename)
        want = _reference_subst(t, mapping, rename)
        assert got == want
        assert _kept(t, got[0]) == _kept(t, want[0])
        # down the applications from the root the mapping applies as
        # given: a child in which no mapped name is free is the same
        # object, or, an application in head position, flattened into
        # the rebuilt application
        kept = _kept(t, got[0])
        apps = [t]
        while apps:
            node = apps.pop()
            if not isinstance(node, App):
                continue
            for c in (node.head, *node.args):
                if not c.free_names.isdisjoint(mapping):
                    apps.append(c)
                elif c is node.head and isinstance(c, App) and id(c) not in kept:
                    assert {id(c.head), *map(id, c.args)} <= kept
                else:
                    assert id(c) in kept


@hyp.given(terms)
def test_size_matches_reference_count_on_raw_terms(t):
    assert t.size == _reference_size(t)
    assert canonicalize(t).size == _reference_size(canonicalize(t))


@pytest.mark.parametrize("seed", [5, 7])
def test_size_matches_reference_count_along_reduction_sequences(seed):
    for term in generate_safe_corpus(300, seed):
        for strategy in Strategy:
            for t in reduction_sequence(term, strategy):
                assert t.size == _reference_size(t)
