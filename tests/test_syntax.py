import hypothesis as hyp
import pytest

from safelc.syntax import (
    GROUND,
    Abs,
    App,
    ParseError,
    SimpleType,
    Var,
    all_names,
    alpha_eq,
    arrow,
    canonicalize,
    fresh_names,
    parse,
    parse_env,
    parse_type,
    pretty,
    primed,
    type_text,
)
from termgen import is_canonical, terms

O = GROUND
OO = SimpleType((O,))


def test_parse_identity():
    assert parse(r"\x:o. x") == Abs((("x", O),), Var("x"))


def test_parse_merges_abstraction_chain():
    t = parse(r"\f:o->o. \x:o. f x")
    assert t == Abs((("f", OO), ("x", O)), App(Var("f"), (Var("x"),)))


def test_parse_nested_application():
    t = parse(r"(\x:o. x) ((\y:o. y) z)")
    inner = App(Abs((("y", O),), Var("y")), (Var("z"),))
    assert t == App(Abs((("x", O),), Var("x")), (inner,))


def test_parse_noncanonical_keeps_grouping():
    t = parse(r"\x:o. (\f:o->o. f x)", canonical=False)
    assert isinstance(t, Abs) and isinstance(t.body, Abs)
    assert not is_canonical(t)
    assert is_canonical(parse(r"\x:o. (\f:o->o. f x)"))


def test_application_associates_left():
    assert parse("f x y") == App(Var("f"), (Var("x"), Var("y")))
    assert parse("f (x y)") == App(Var("f"), (App(Var("x"), (Var("y"),)),))


def test_type_parsing_right_assoc():
    assert parse_type("o->o->o") == SimpleType((O, O))
    assert parse_type("(o->o)->o") == SimpleType((OO,))
    assert parse_type("o -> (o -> o)") == SimpleType((O, O))


def test_type_orders():
    assert parse_type("o").order == 0
    assert parse_type("o->o->o").order == 1
    assert parse_type("(o->o)->o").order == 2
    assert parse_type("((o->o)->o)->o").order == 3


def test_arrow_helper():
    assert arrow(O, O) == OO
    assert arrow(OO, O, O) == SimpleType((OO, O))
    assert str(arrow(OO, O)) == "(o -> o) -> o"
    assert type_text(arrow(OO, O)) == "(o->o)->o"


def test_pretty_examples():
    assert pretty(parse(r"\x:o. x")) == r"\x:o. x"
    assert pretty(App(Var("f"), (Var("x"), Var("y")))) == "f x y"
    assert pretty(parse(r"(\x:o. x) y")) == r"(\x:o. x) y"


def test_pretty_keeps_ungrouped_chain():
    t = parse(r"\x:o. (\f:o->o. f x)", canonical=False)
    assert pretty(t) == r"\x:o. (\f:o->o. f x)"
    assert parse(pretty(t), canonical=False) == t


def test_canonicalize_merges_and_flattens():
    t = Abs((("f", OO),), Abs((("x", O),), Var("x")))
    assert canonicalize(t) == Abs((("f", OO), ("x", O)), Var("x"))
    u = App(App(Var("f"), (Var("x"),)), (Var("y"),))
    assert canonicalize(u) == App(Var("f"), (Var("x"), Var("y")))


def test_canonicalize_renames_shadowed_duplicate():
    t = canonicalize(Abs((("x", O),), Abs((("x", O),), Var("x"))))
    assert t == Abs((("x'1", O), ("x", O)), Var("x"))


def test_freshness_scheme():
    assert primed("y", set()) == "y'1"
    used = {"y'1", "y'2"}
    assert primed("y", used) == "y'3"
    assert used == {"y'1", "y'2", "y'3"}
    # one supply: names in order, used ones skipped, each one recorded
    used = {"n2", "x"}
    names = fresh_names("n", used)
    assert [next(names), next(names)] == ["n1", "n3"]
    used.add("n4")  # taken by someone else after the supply started
    assert next(names) == "n5"
    assert used == {"n1", "n2", "n3", "n4", "n5", "x"}


def test_alpha_eq():
    assert alpha_eq(parse(r"\x:o. x"), parse(r"\y:o. y"))
    assert alpha_eq(parse(r"\x:o f:o->o. f x"), parse(r"\a:o b:o->o. b a"))
    assert not alpha_eq(parse(r"\x:o. x"), parse(r"\x:o y:o. x"))
    assert not alpha_eq(parse(r"\x:o. x"), parse(r"\x:o->o. x"))
    # free variables match by name only
    assert alpha_eq(Var("z"), Var("z"))
    assert not alpha_eq(Var("z"), Var("w"))
    # grouping is part of the structure
    grouped = parse(r"\x:o y:o. x")
    split = parse(r"\x:o. (\y:o. x)", canonical=False)
    assert not alpha_eq(grouped, split)


def test_alpha_eq_shadowing():
    a = parse(r"\x:o. (\x:o. x) x", canonical=False)
    b = parse(r"\y:o. (\x:o. x) y", canonical=False)
    assert alpha_eq(a, b)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("\\x:o.\n  x (")
    assert e.value.line == 2
    with pytest.raises(ParseError, match="lacks a type"):
        parse(r"\x. x")
    with pytest.raises(ParseError, match="duplicate binder"):
        parse(r"\x:o x:o. x")
    with pytest.raises(ParseError, match="trailing"):
        parse("x y)")
    with pytest.raises(ParseError, match="unexpected character"):
        parse("x @ y")
    with pytest.raises(ParseError, match="unknown type atom"):
        parse(r"\x:nat. x")
    with pytest.raises(ParseError, match="unexpected character '@'") as e:
        parse("\\x:o f:o->o.\n  f\n   (x @ x)")
    assert (e.value.line, e.value.column) == (3, 7)
    with pytest.raises(ParseError, match=r"expected '\)', found None") as e:
        parse("\\x:o.\n  (x\n  x  \n")
    assert (e.value.line, e.value.column) == (3, 4)


def test_parse_env():
    env = parse_env("f:o->o, y:o")
    assert env == {"f": OO, "y": O}
    assert parse_env("") == {}
    with pytest.raises(ValueError):
        parse_env("f:o->o, f:o")


def test_all_names():
    assert all_names(parse(r"\x:o. f x")) == frozenset({"x", "f"})


@hyp.given(terms)
def test_canonicalize_idempotent(t):
    c = canonicalize(t)
    assert is_canonical(c)
    assert canonicalize(c) == c


@hyp.given(terms)
def test_canonicalize_preserves_free_names(t):
    assert canonicalize(t).free_names == t.free_names


@hyp.given(terms)
def test_pretty_parse_round_trip(t):
    c = canonicalize(t)
    assert parse(pretty(c)) == c


@hyp.given(terms)
def test_pretty_parse_round_trip_raw(t):
    assert parse(pretty(t), canonical=False) == t


@hyp.given(terms)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)
