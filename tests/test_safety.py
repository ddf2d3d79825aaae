import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from safelc.safety import (
    ArgumentMismatchError,
    Level,
    TooManyArgumentsError,
    TypeCheckError,
    UnboundVariableError,
    eta_long,
    homogeneity_check,
    safety_check,
    simple_type_of,
)
from safelc.syntax import alpha_eq, parse, parse_env, parse_type, pretty
from termgen import names, terms, types


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
