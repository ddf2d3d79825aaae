import copy
import gc
import pickle
import sys
from dataclasses import FrozenInstanceError
from typing import Optional

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from safelc.corpus import HAND_CORPUS, generate_safe_corpus
from safelc.encodings import church_nat, compile_polynomial, parse_polynomial
from safelc.games import build_computation_tree
from safelc.reduction import Strategy, normalize, reduction_sequence
from safelc.safety import eta_long
from safelc.syntax import (
    _BLOCKS,
    _BLOCKS_MAX,
    _RESERVED,
    _TOKEN_RE,
    _BuildAbs,
    _BuildApp,
    GROUND,
    Abs,
    App,
    Binder,
    ParseError,
    SimpleType,
    Term,
    Var,
    _Parser,
    _position,
    _Reread,
    _scan,
    all_names,
    alpha_eq,
    arrow,
    canonicalize,
    fresh_names,
    new_app,
    mk_abs,
    parse,
    parse_env,
    parse_type,
    pretty,
    primed,
    subterms,
    type_text,
)
from termgen import (
    copy_term,
    is_canonical,
    recursion_limit,
    term_strategy,
    terms,
    types,
)

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


def _reference_order(t: SimpleType) -> int:
    return max((_reference_order(a) + 1 for a in t.arguments), default=0)


@hyp.given(types)
def test_types_are_interned(t):
    # however a type is come by, it is the one object for that type
    assert parse_type(type_text(t)) is t
    assert SimpleType(t.arguments) is t
    assert SimpleType(list(t.arguments)) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy(t) is t
    assert copy.copy(t) is t
    assert t.order == _reference_order(t)


def test_types_compare_by_identity_and_stay_immutable():
    assert SimpleType.__eq__ is object.__eq__ and SimpleType.__hash__ is object.__hash__
    assert SimpleType() is GROUND and SimpleType((O,)) is OO
    assert arrow(O, O) is OO
    with pytest.raises(AttributeError):
        OO.order = 0
    with pytest.raises(AttributeError):
        del OO.arguments
    assert (OO.order, OO.arguments, repr(OO), str(OO)) == (1, (O,), "o->o", "o -> o")


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


def test_pretty_round_trips_a_deep_numeral_at_default_recursion_limit():
    n = 10_000
    numeral = church_nat(n)
    with recursion_limit(1_000):
        text = pretty(numeral)
        back = parse(text)
        assert back == numeral
    assert text == r"\s:o->o z:o. " + "s (" * (n - 1) + "s z" + ")" * (n - 1)


def _fields_equal(a: Term, b: Term) -> bool:
    """The meaning `==` keeps: same class and equal fields, recursively."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Abs):
        return a.binders == b.binders and _fields_equal(a.body, b.body)
    return len(a.args) == len(b.args) and all(
        _fields_equal(x, y) for x, y in zip((a.head, *a.args), (b.head, *b.args))
    )


@hyp.given(terms, terms)
def test_term_eq_agrees_with_fieldwise_comparison(a, b):
    assert (a == b) == (b == a) == _fields_equal(a, b)
    assert (a != b) != (a == b)
    c = copy_term(a)
    assert a == c and hash(a) == hash(c)


def test_term_eq_and_hash_at_default_recursion_limit():
    n = 10_000
    a, b = church_nat(n), church_nat(n)
    spine: Term = Var("y")  # unlike a numeral only in its innermost leaf
    for _ in range(n):
        spine = App(Var("s"), (spine,))
    other = Abs(a.binders, spine)
    with recursion_limit(1_000):
        assert a == b and hash(a) == hash(b)
        assert a != other and a != church_nat(n - 1)


def test_term_nodes_keep_dataclass_equality_repr_pickle_and_copy():
    x = Var("x")
    assert x == Var("x") and hash(x) == hash(Var("x")) and x != Var("y")
    assert x != "x" and Abs((("x", O),), x) != App(x, (x,))
    assert repr(x) == "Var(name='x')"
    one = Abs((("x", O),), x)
    two = parse(r"\f:o->o x:o. f x")
    # slots and no instance dict; every field and cached fact is frozen
    for t in (x, one, two):
        assert not hasattr(t, "__dict__")
        with pytest.raises(FrozenInstanceError):
            t.closed_type = O
        with pytest.raises(FrozenInstanceError):
            t.size = 0
    with pytest.raises(FrozenInstanceError):
        x.name = "y"
    with pytest.raises(FrozenInstanceError):
        del two.body
    assert (one.size, one.canonical) == (3, True)
    assert repr(one) == "Abs(binders=(('x', o),), body=Var(name='x'))"
    assert repr(two.body) == "App(head=Var(name='f'), args=(Var(name='x'),))"
    for t in (x, one, two):
        assert pickle.loads(pickle.dumps(t)) == t
        assert copy.copy(t) == t and copy.deepcopy(t) == t
    with pytest.raises(ValueError, match="at least one binder"):
        Abs((), x)
    with pytest.raises(ValueError, match="duplicate binder name"):
        Abs((("x", O), ("x", O)), x)


def _reference_repr(t: Term) -> str:
    """The text the nodes printed as dataclasses, recursively."""
    if isinstance(t, Var):
        return f"Var(name={t.name!r})"
    if isinstance(t, Abs):
        return f"Abs(binders={t.binders!r}, body={_reference_repr(t.body)})"
    args = ", ".join(map(_reference_repr, t.args))
    return f"App(head={_reference_repr(t.head)}, args=({args}{',' if len(t.args) == 1 else ''}))"


@hyp.given(terms)
def test_term_repr_matches_the_recursive_reference(t):
    assert repr(t) == _reference_repr(t)


def test_term_repr_matches_the_recursive_reference_on_corpora():
    for t in [e.term for e in HAND_CORPUS] + list(generate_safe_corpus(300, 3)):
        assert repr(t) == _reference_repr(t)


def test_term_repr_at_default_recursion_limit():
    n = 3_000
    numeral = church_nat(n)
    with recursion_limit(1_000):
        text = repr(numeral)
    s = "App(head=Var(name='s'), args=("
    assert text == "Abs(binders=(('s', o->o), ('z', o)), body=" + s * n + "Var(name='z')" + ",))" * n + ")"


def test_no_build_class_leaks_from_any_construction_path():
    text = r"\f:o->o->o y:o b:o. (\x:o. \y:o. f x y) y b"  # plain renames y
    poly = compile_polynomial(parse_polynomial("x*y + 2"))
    applied = App(poly, (church_nat(2), church_nat(3)))
    made = [
        parse(text),
        parse(text, canonical=False),
        canonicalize(parse(text, canonical=False)),
        normalize(parse(text), Strategy.PLAIN),
        normalize(applied, Strategy.PLAIN),
        normalize(applied, Strategy.SAFE),
        eta_long(parse_env("f:(o->o)->o"), parse(r"\s:o->o. f s")),
        build_computation_tree({}, parse(r"\f:(o->o)->o. f")).term,
        church_nat(3),
        poly,
        # the kernel's own App builds: climbing, substitution, leftover arguments
        *reduction_sequence(parse(r"f ((\x:o. x) a) ((\y:o. g y y) b) ((\u:o->o v:o. u) h c d)")),
        normalize(parse(r"(\x:o->o->o y:o. x y) (\u:o v:o. f v u) a b"), Strategy.SAFE),
        new_app(Var("f"), (Var("a"), church_nat(2))),
    ]
    made += [copy.copy(t) for t in made] + [copy.deepcopy(t) for t in made]
    made += [pickle.loads(pickle.dumps(t)) for t in made]
    field = {Var: "name", Abs: "body", App: "head"}
    for term in made:
        assert "_Build" not in repr(term)
        assert b"_Build" not in pickle.dumps(term)
        for t in subterms(term):
            kind = type(t)
            assert kind is Var or kind is Abs or kind is App, kind
            for name in (field[kind], "size"):
                with pytest.raises(FrozenInstanceError):
                    setattr(t, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(t, name)
    x = Var("x")
    with pytest.raises(ValueError, match="at least one binder") as no_binder:
        Abs((), x)
    with pytest.raises(ValueError, match="duplicate binder name") as duplicate:
        Abs((("x", O), ("y", O), ("x", O)), x)
    with pytest.raises(ValueError, match="at least one argument") as no_arg:
        App(x, ())
    # the checks run before a node is allocated, so even the frames the
    # tracebacks keep alive hold no half-built node
    assert all(e.traceback for e in (no_binder, duplicate, no_arg))
    assert not any(type(o) is _BuildAbs or type(o) is _BuildApp for o in gc.get_objects())


def test_new_app_builds_what_app_builds():
    pairs = [(Var("f"), (Var("a"),)), (App(Var("f"), (Var("a"),)), (Var("b"), Var("c")))]
    population = [e.term for e in HAND_CORPUS] + list(generate_safe_corpus(200, 3))
    for t in population:
        pairs += [(u.head, u.args) for u in subterms(t) if type(u) is App]
        pairs.append((t, (t,)))
    for head, args in pairs:
        built, public = new_app(head, args), App(head, args)
        assert type(built) is App and built == public and hash(built) == hash(public)
        assert (built.size, built.canonical) == (public.size, public.canonical)
        assert repr(built) == repr(public)
        assert pickle.dumps(built) == pickle.dumps(public)
        assert built.head is head and built.args is args
        assert (built.closed_type, built.eta_type, built._free_names) == (None, None, None)
        with pytest.raises(FrozenInstanceError):
            built.head = None


def test_build_classes_keep_objects_setattr_and_delattr():
    # `__setattr__` and `__delattr__` share one C slot: overriding only one
    # of them would send every slot store through a Python-level wrapper
    for build, public in ((_BuildAbs, Abs), (_BuildApp, App)):
        assert build.__bases__ == (public,) and build.__slots__ == ()
        assert build.__setattr__ is object.__setattr__
        assert build.__delattr__ is object.__delattr__
    # a bare `__class__` in a method body would make it a closure
    for fn in (Abs.__new__, App.__new__):
        assert fn.__code__.co_freevars == (), fn.__qualname__


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
    with pytest.raises(ParseError, match=r"expected '\)', found end of input") as e:
        parse("\\x:o.\n  (x\n  x  \n")
    assert (e.value.line, e.value.column) == (3, 4)


def test_parse_rejects_empty_binder_block():
    for canonical in (True, False):
        with pytest.raises(ParseError, match="expected binder, found '.'") as e:
            parse(r"\. x", canonical=canonical)
        assert (e.value.line, e.value.column) == (1, 2)
    with pytest.raises(ParseError, match="expected binder, found '.'") as e:
        parse("\\x:o.\n  (\\ . x)")
    assert (e.value.line, e.value.column) == (2, 6)


def test_parse_env():
    env = parse_env("f:o->o, y:o")
    assert env == {"f": OO, "y": O}
    assert parse_env("") == {}
    assert parse_env("_a:o, y':o") == {"_a": O, "y'": O}
    # a duplicate, and names no term can use: not identifiers of the parser
    for bad in ("f:o->o, f:o", "x y:o", "1z:o->o", "(:o", "x y:o, 1z:o->o, (:o"):
        with pytest.raises(ValueError):
            parse_env(bad)


def test_all_names():
    assert all_names(parse(r"\x:o. f x")) == frozenset({"x", "f"})


@hyp.given(terms)
def test_canonicalize_idempotent(t):
    c = canonicalize(t)
    assert is_canonical(c)
    assert canonicalize(c) == c


@hyp.given(terms)
def test_canonicalize_returns_canonical_input_itself(t):
    c = canonicalize(t)
    assert canonicalize(c) is c
    # on names without a prime, the result is the rebuild canonicalize
    # once ran on every input
    assert c == _reference_regroup(t)


# --------------------------------------------------------------------------
# the `canonical` flag each node records when it is built, against the
# walk `is_canonical` as the reference


@hyp.given(terms)
def test_canonical_flag_matches_the_walk(t):
    written = parse(pretty(t), canonical=False)
    for s in (*subterms(t), *subterms(written)):
        assert s.canonical == is_canonical(s)


@hyp.given(terms)
def test_regroup_hands_canonical_children_back_as_the_same_objects(t):
    # each canonical child that no merge or flattening absorbs (an Abs
    # body that is no Abs, an App head that is no App, an App argument)
    # comes back as the very same object
    kept = {id(s) for s in subterms(canonicalize(t))}
    for parent in subterms(t):
        if parent.canonical:
            continue
        if isinstance(parent, Abs):
            children = () if isinstance(parent.body, Abs) else (parent.body,)
        else:
            children = parent.args if isinstance(parent.head, App) else (parent.head, *parent.args)
        for child in children:
            assert not child.canonical or id(child) in kept


def test_regroup_keeps_a_canonical_argument_and_body():
    arg, body = parse(r"\y:o. g y"), parse("h a b")
    t = App(App(Var("f"), (arg,)), (Abs((("x", O),), Abs((("z", O),), body)),))
    c = canonicalize(t)
    assert c == parse(r"f (\y:o. g y) (\x:o z:o. h a b)")
    assert c.args[0] is arg and c.args[1].body is body


# --------------------------------------------------------------------------
# the bottom-up merge against the chain-collecting one
#
# `_reference_regroup` is the rebuild `canonicalize` once ran, kept
# verbatim: it collects a whole chain of nested blocks, then renames the
# shadowed binders over all the names of the chain.  `canonicalize` now
# folds `mk_abs`, which merges one level at a time.  Both prime right to
# left, so they agree exactly unless a name the fold primes at an inner
# level is already a binder further out (`\x'1. \x. \x. x` gives
# `x'1'1 x'1 x` by the fold and `x'1 x'2 x` by the chain), which only
# happens on names that contain a prime; then the two are alpha-equal.


def _reference_regroup(term: Term) -> Term:
    """`canonicalize` without the check: rebuild every node."""
    if isinstance(term, Var):
        return term
    if isinstance(term, Abs):
        binders = list(term.binders)
        body = term.body
        while isinstance(body, Abs):
            binders.extend(body.binders)
            body = body.body
        body = _reference_regroup(body)
        # later binders win a name clash; rename the shadowed earlier ones
        seen: set[str] = set()
        taken = set(n for n, _ in binders) | all_names(body)
        for i in range(len(binders) - 1, -1, -1):
            name, ty = binders[i]
            if name in seen:
                binders[i] = (primed(name, taken), ty)
            else:
                seen.add(name)
        out = Abs(tuple(binders), body)
        return out
    if isinstance(term, App):
        head = _reference_regroup(term.head)
        args = tuple(_reference_regroup(a) for a in term.args)
        while isinstance(head, App):
            args = head.args + args
            head = head.head
        return App(head, args)
    raise TypeError(f"not a term: {term!r}")


# binder names that shadow one another, some already primed
_primed_terms = term_strategy(st.sampled_from(["x", "x'1", "x'2", "y", "y'1", "f"]), 8)


@hyp.settings(max_examples=300)
@hyp.given(_primed_terms)
def test_canonicalize_alpha_equal_to_reference_on_primed_names(t):
    c = canonicalize(t)
    assert is_canonical(c)
    assert alpha_eq(c, _reference_regroup(t))
    assert c.free_names == t.free_names


def test_canonicalize_primes_where_the_chain_would_not():
    t = Abs((("x'1", O),), Abs((("x", O),), Abs((("x", O),), Var("x"))))
    assert canonicalize(t) == Abs((("x'1'1", O), ("x'1", O), ("x", O)), Var("x"))
    assert _reference_regroup(t) == Abs((("x'1", O), ("x'2", O), ("x", O)), Var("x"))


def test_mk_abs_merges_one_level_and_reads_names_only_on_a_clash(monkeypatch):
    walked = []

    def counted(term):
        walked.append(term)
        return all_names(term)

    monkeypatch.setattr("safelc.syntax.all_names", counted)
    body = parse(r"\y:o x:o. f x y'1")
    assert mk_abs((("a", O), ("b", OO)), body) == parse(r"\a:o b:o->o y:o x:o. f x y'1")
    assert walked == []
    # the outer x and y are shadowed: primed right to left, past y'1
    merged = mk_abs((("x", O), ("a", O), ("y", OO)), body)
    assert merged == parse(r"\x'1:o a:o y'2:o->o y:o x:o. f x y'1")
    assert walked == [body]
    # a body that is no block is not walked either
    assert mk_abs((("x", O),), Var("x")) == Abs((("x", O),), Var("x"))
    assert mk_abs((), body) is body
    assert len(walked) == 1


def _split_block_nest(depth: int) -> Term:
    r"""f (\x0:o. \y0:o. f (\x1:o. \y1:o. ... z)), each block split in two."""
    t: Term = Var("z")
    for i in reversed(range(depth)):
        t = App(Var("f"), (Abs(((f"x{i}", O),), Abs(((f"y{i}", O),), t)),))
    return t


def test_canonicalize_deep_non_canonical_input_at_default_recursion_limit():
    n = 2_000
    t = _split_block_nest(n)
    with recursion_limit(1_000):
        c = canonicalize(t)
        assert is_canonical(c)
        blocks = 0
        while isinstance(c, App):
            (c,) = c.args
            assert c.binder_names == (f"x{blocks}", f"y{blocks}")
            c = c.body
            blocks += 1
    assert (blocks, c) == (n, Var("z"))


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
    assert alpha_eq(t, copy_term(t))  # a copy: a term is alpha-equal to itself at once


def test_recursion_limit_turns_an_overflow_into_a_short_failure():
    def down(n):
        return down(n + 1)

    saved = sys.getrecursionlimit()
    with pytest.raises(pytest.fail.Exception, match="overflowed at recursion limit 200"):
        with recursion_limit(200):
            down(0)
    assert sys.getrecursionlimit() == saved


def test_term_measures_at_default_recursion_limit():
    n = 3_000
    t: Term = Var("z")
    for _ in range(n):
        t = App(Var("s"), (t,))
    t = Abs((("z", O),), t)
    with recursion_limit(1_000):
        assert (t.size, t.free_names) == (2 * n + 3, frozenset({"s"}))


def test_type_text_at_default_recursion_limit():
    n = 3_000
    text = "(" * (n - 1) + "o->o" + ")->o" * (n - 1)
    t = parse_type(text)
    with recursion_limit(1_000):
        assert type_text(t) == text
        assert type_text(t, spaced=True) == text.replace("->", " -> ")


def test_alpha_eq_of_a_term_and_itself_at_default_recursion_limit():
    # a term is alpha-equal to itself with no walk, as `safelc corpus`
    # finds when both strategies return an already-normal input as it is
    t = parse(r"\s:o->o z:o. " + "s (" * 3_000 + "z" + ")" * 3_000)
    with recursion_limit(1_000):
        assert alpha_eq(t, t)


def test_alpha_eq_of_two_copies_at_default_recursion_limit():
    copied, shorter = copy_term(church_nat(3_000)), church_nat(2_999)
    renamed = parse(pretty(church_nat(3_000)).replace("s", "t"))
    with recursion_limit(1_000):
        assert alpha_eq(copied, church_nat(3_000))
        assert alpha_eq(renamed, church_nat(3_000))
        assert not alpha_eq(copied, shorter)


# --------------------------------------------------------------------------
# nodes shared within one parse


@pytest.mark.parametrize(
    "text",
    [
        r"\f:o->o->o y:o. f ((\x:o. f x x) y) ((\x:o. f x x) y)",
        r"\f:o->o->o y:o. f ((\x:o. \z:o. f x z) y y) ((\x:o. \z:o. f x z) y y)",
    ],
)
def test_parse_shares_a_repeated_group_and_each_name(text):
    for canonical in (True, False):
        t = parse(text, canonical=canonical)
        first, second = t.body.args
        assert first is second
        for name in ("f", "x", "y"):
            occurrences = [v for v in subterms(t) if type(v) is Var and v.name == name]
            assert len(occurrences) > 1 and all(v is occurrences[0] for v in occurrences)
        unshared = copy_term(t)
        assert unshared.body.args[0] is not unshared.body.args[1]
        assert t == unshared and hash(t) == hash(unshared)
        assert (repr(t), pretty(t), t.size) == (repr(unshared), pretty(unshared), unshared.size)


def test_parse_shares_nothing_between_texts():
    text = r"(\x:o. x) ((\x:o. x) y)"
    a, b = parse(text), parse(text)
    assert a == b and not {id(t) for t in subterms(a)} & {id(t) for t in subterms(b)}


@hyp.given(terms)
def test_parse_shares_each_copy_of_a_repeated_term(t):
    _BLOCKS.clear()  # so no table flush falls between the copies
    text = pretty(App(t, (t, t)))
    shared = parse(text, canonical=False)
    assert shared.head is shared.args[0] is shared.args[1]
    assert shared == App(t, (t, t))
    for canonical in (True, False):
        got = parse(text, canonical=canonical)
        unshared = copy_term(got)
        assert got == unshared and hash(got) == hash(unshared)
        assert (repr(got), pretty(got), got.size) == (repr(unshared), pretty(unshared), unshared.size)
        assert got == _reference_parse(text, canonical=canonical)


# --------------------------------------------------------------------------
# the iterative parser against the recursive one
#
# `_ReferenceParser`, `_reference_parse` and `_reference_parse_type` are
# the parser the iterative one replaced, kept verbatim.  Results and
# errors must be `==`, except that an empty binder block is now a
# ParseError at its '.' instead of Abs's ValueError, and that an error at
# the end of the input says "found end of input" where the reference
# says "found None".


class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        # token texts and offsets; the None sentinel sits at end of input
        self.tokens, self.offsets = _scan(text, _TOKEN_RE)
        self.offsets.append(self.offsets[-1] + len(self.tokens[-1]) if self.tokens else 0)
        self.tokens.append(None)
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i]

    def fail_at(self, offset: int, msg: str):
        raise ParseError(msg, *_position(self.text, offset))

    def fail(self, msg: str):
        self.fail_at(self.offsets[self.i], msg)

    def advance(self) -> str:
        tok = self.tokens[self.i]
        if tok is None:
            self.fail("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, text: str) -> str:
        if self.tokens[self.i] != text:
            self.fail(f"expected {text!r}, found {self.peek()!r}")
        return self.advance()

    def ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.i]
        if tok is None or tok in _RESERVED:
            self.fail(f"expected {what}, found {tok!r}")
        self.i += 1
        return tok

    # type ::= tatom ('->' type)?
    def parse_type(self) -> SimpleType:
        left = self.parse_type_atom()
        if self.peek() == "->":
            self.advance()
            right = self.parse_type()
            return SimpleType((left,) + right.arguments)
        return left

    def parse_type_atom(self) -> SimpleType:
        if self.peek() == "(":
            self.advance()
            t = self.parse_type()
            self.expect(")")
            return t
        at = self.offsets[self.i]
        tok = self.ident("type")
        if tok != "o":
            self.fail_at(at, f"unknown type atom {tok!r}")
        return GROUND

    def parse_term(self) -> Term:
        if self.peek() == "\\":
            return self.parse_abs()
        return self.parse_app_seq()

    def parse_abs(self) -> Term:
        self.expect("\\")
        binders: list[Binder] = []
        names_seen: set[str] = set()
        while self.peek() != ".":
            at = self.offsets[self.i]
            name = self.ident("binder")
            if name in names_seen:
                self.fail_at(at, f"duplicate binder {name!r} in one block")
            names_seen.add(name)
            if self.peek() != ":":
                self.fail(f"binder {name!r} lacks a type annotation")
            self.advance()
            binders.append((name, self.parse_type()))
        self.expect(".")
        body = self.parse_term()
        return Abs(tuple(binders), body)

    def parse_app_seq(self) -> Term:
        atoms = [self.parse_atom()]
        while self.peek() is not None and (self.peek() == "(" or self.peek() not in _RESERVED):
            atoms.append(self.parse_atom())
        if len(atoms) == 1:
            return atoms[0]
        return App(atoms[0], tuple(atoms[1:]))

    def parse_atom(self) -> Term:
        if self.peek() == "(":
            self.advance()
            t = self.parse_term()
            self.expect(")")
            return t
        return Var(self.ident("variable"))


def _reference_parse(text: str, canonical: bool = True) -> Term:
    """Parse a term; by default the result is canonicalized.

    Pass canonical=False to keep the grouping exactly as written, e.g. to
    feed the safety checker an ungrouped abstraction chain.
    """
    p = _ReferenceParser(text)
    if p.peek() is None:
        p.fail("empty input")
    t = p.parse_term()
    if p.peek() is not None:
        p.fail(f"trailing input starting at {p.peek()!r}")
    return canonicalize(t) if canonical else t


def _reference_parse_type(text: str) -> SimpleType:
    p = _ReferenceParser(text)
    if p.peek() is None:
        p.fail("empty input")
    t = p.parse_type()
    if p.peek() is not None:
        p.fail(f"trailing input starting at {p.peek()!r}")
    return t


def _numeral_text(n: int) -> str:
    return r"\s:o->o z:o. " + "s (" * n + "z" + ")" * n


def _numeral_depth(t: Term) -> Optional[int]:
    """n when t is the Church numeral n, else None; without recursion."""
    if not (isinstance(t, Abs) and t.binders == (("s", OO), ("z", O))):
        return None
    t, n = t.body, 0
    while isinstance(t, App) and t.head == Var("s") and len(t.args) == 1:
        t, n = t.args[0], n + 1
    return n if t == Var("z") else None


def _parsed(parser, text: str, *args):
    """What parsing `text` gives: the result, or the error's facts."""
    try:
        return ("ok", parser(text, *args))
    except ParseError as e:
        return ("ParseError", e.message, e.line, e.column)
    except ValueError as e:
        return ("ValueError", str(e))


def _empty_block_at(text: str, line: int, column: int) -> bool:
    """True when the character at (line, column) is a '.' right after a
    '\\', spaces between them allowed: an empty binder block."""
    tokens, offsets = _scan(text, _TOKEN_RE)
    for k, (tok, offset) in enumerate(zip(tokens, offsets)):
        if _position(text, offset) == (line, column):
            return tok == "." and k > 0 and tokens[k - 1] == "\\"
    return False


def _end_named(result: tuple) -> tuple:
    """A reference result with the end of the input named as `parse` names it."""
    if result[0] == "ParseError" and result[1].endswith(", found None"):
        return (result[0], result[1][: -len("None")] + "end of input", *result[2:])
    return result


def _assert_parse_matches_reference(text: str):
    for canonical in (True, False):
        got = _parsed(parse, text, canonical)
        want = _end_named(_parsed(_reference_parse, text, canonical))
        if got != want:
            # the one intended difference: the reference let Abs refuse an
            # empty block (ValueError) or went on to an error further right
            assert got[:2] == ("ParseError", "expected binder, found '.'"), (text, got, want)
            assert _empty_block_at(text, got[2], got[3]), (text, got, want)
    assert _parsed(parse_type, text) == _end_named(_parsed(_reference_parse_type, text))


@hyp.settings(max_examples=300)
@hyp.given(terms)
def test_parser_matches_reference_on_printed_raw_terms(t):
    _assert_parse_matches_reference(pretty(t))


_EDIT_CHARS = list("\\.():->oxyfz \n") + ["o->o", "\\x:o."]


@hyp.settings(max_examples=500)
@hyp.given(terms, st.data())
def test_parser_matches_reference_on_mutated_texts(t, data):
    text = pretty(t)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["truncate", "insert", "delete"]))
        if edit == "truncate":
            text = text[:at]
        elif edit == "insert":
            text = text[:at] + data.draw(st.sampled_from(_EDIT_CHARS)) + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    _assert_parse_matches_reference(text)


def test_parser_matches_reference_on_hand_corpus():
    for entry in HAND_CORPUS:
        _assert_parse_matches_reference(pretty(entry.term))


@pytest.mark.parametrize("seed", [3, 17])
def test_parser_matches_reference_on_generated_corpus(seed):
    for t in generate_safe_corpus(300, seed):
        _assert_parse_matches_reference(pretty(t))


def test_parser_matches_reference_on_hand_written_texts():
    texts = [
        r"\x:o. \x:o. x",
        r"\x'1:o. \x:o. (\x:o. x)",
        r"((f x) y) ((g) (z))",
        r"\f:(o->o)->o. f (\x:o. f (\y:o. x))",
        r"\x:((o)). x",
        r"\x:o->. x",
        r"\x:(o->o. x",
        "",
        "  \n ",
        r"\. x",
        r"\x:o. \ . x",
        r"(\.)",
        "f \\x:o. x",
    ]
    for text in texts:
        _assert_parse_matches_reference(text)


def test_parse_at_default_recursion_limit():
    n = 10_000
    text = _numeral_text(n)
    with recursion_limit(1_000):
        grouped = parse(text)
        written = parse(text, canonical=False)
    assert _numeral_depth(grouped) == _numeral_depth(written) == n


def test_parse_type_at_default_recursion_limit():
    n = 10_000
    with recursion_limit(1_000):
        nested = parse_type("(" * n + "o" + ")->o" * n)
        spine = parse_type("o->" * n + "o")
    assert nested.order == n
    for _ in range(n):
        (nested,) = nested.arguments
    assert nested == O
    assert spine.order == 1 and spine.arguments == (O,) * n


# --------------------------------------------------------------------------
# the block reading against the token-by-token one
#
# `parse` reads a text with each binder block '\ ... .' as one token and,
# on any failure, again token by token.  Both readings must give the same
# term, and the block reading must fail exactly where the token reading
# does, so every ParseError is the token reading's.


def _token_by_token(text: str, canonical: bool = True) -> Term:
    t = _Parser(text).whole(_Parser.term_at)
    return canonicalize(t) if canonical else t


def _assert_readings_agree(text: str):
    try:
        _Parser(text, blocks=True).whole(_Parser.term_at)
        in_blocks = "ok"
    except _Reread:
        in_blocks = "ParseError"
    for canonical in (True, False):
        want = _parsed(_token_by_token, text, canonical)
        assert _parsed(parse, text, canonical) == want, text
        assert in_blocks == want[0], (text, want)


_TEXT_PIECES = ["\\", "x", "y", "o", ":", ".", "(", ")", "->", "@", "x'", "\\x:o.", "\\y:o->o."]
# what a block token may hold besides its tokens, which `new_block` must
# turn away as `_TOKEN_RE` does
_BLOCK_PIECES = ["-", ">", "1", "'", "_", "\u00e9"]
_SPACES = [" ", "\t", "\n"]


@hyp.settings(max_examples=500)
@hyp.given(st.lists(st.sampled_from(_TEXT_PIECES + _BLOCK_PIECES + _SPACES), max_size=24).map("".join))
def test_block_reading_matches_token_reading_on_random_texts(text):
    _assert_readings_agree(text)


@hyp.settings(max_examples=500)
@hyp.given(terms, st.data())
def test_block_reading_matches_token_reading_on_mutated_texts(t, data):
    text = pretty(t)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["truncate", "insert", "delete"]))
        if edit == "truncate":
            text = text[:at]
        elif edit == "insert":
            piece = data.draw(st.sampled_from(_TEXT_PIECES + _BLOCK_PIECES + _SPACES))
            text = text[:at] + piece + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    _assert_readings_agree(text)


def test_block_reading_matches_token_reading_on_corpora():
    texts = [pretty(e.term) for e in HAND_CORPUS]
    texts += [pretty(t) for t in generate_safe_corpus(300, 3)]
    texts += [
        "\\x:(o->o. x",
        "\\x:o\n  y:o->o. y x",
        "\\x:o $. x",
        "\\x:o. \\x:o x:o. x",
        "\\x:o. \\y:o. \\",
        "x \\y:o. y",
        "(\\f:o->o. f) \\x:o.",
        "\\x:o. x . y",
        "\\x:o. .y",
        "\\x-y:o. x",
        "\\x>:o. x",
        "\\x:o-->o. x",
        "\\x:o->>o. x",
        "\\x:o- >o. x",
        "\\1x:o. x",
        "\\'x:o. x",
        "\\x:o'. x",
        "\\x:o 1:o. x",
        "\\x:o\u00a0y:o. x",
        "\\x:o \u00e9:o. x",
        "\\_:o x':o. _ x'",
        "\\x:(o)->o y:((o->o))->o. y x",
        "\\x : o -> o\ty\n:\no . x y",
    ]
    for text in texts:
        _assert_readings_agree(text)


def test_a_recurring_block_is_read_once(monkeypatch):
    read = []
    new_block = _Parser.new_block

    def counted(self, block):
        read.append(block)
        return new_block(self, block)

    monkeypatch.setattr(_Parser, "new_block", counted)
    _BLOCKS.clear()
    text = r"\p:o->o q:o. (\x:o. p x) ((\x:o. p x) q)"
    assert parse(text) == parse(text) == _token_by_token(text)
    assert read == [r"\p:o->o q:o.", r"\x:o."]


def test_block_table_stays_at_its_bound():
    _BLOCKS.clear()
    texts = [rf"\x{k}:o->o y:o. x{k} (\z:o. y)" for k in range(_BLOCKS_MAX + 100)]
    sizes = []
    for text in texts:
        assert parse(text) == _token_by_token(text)
        sizes.append(len(_BLOCKS))
    # the table filled up to its bound, never past it, and was emptied
    assert max(sizes) == _BLOCKS_MAX and sizes[-1] < _BLOCKS_MAX
    assert r"\x0:o->o y:o." not in _BLOCKS and rf"\x{_BLOCKS_MAX + 99}:o->o y:o." in _BLOCKS
    # dropped blocks are read again
    for text in texts[:5] + texts[-5:]:
        assert parse(text, canonical=False) == _token_by_token(text, canonical=False)
    assert len(_BLOCKS) <= _BLOCKS_MAX
    _BLOCKS.clear()
