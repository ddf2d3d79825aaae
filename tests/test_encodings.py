import itertools

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from safelc.encodings import (
    ADD,
    MUL,
    AppendConst,
    Compose,
    ConstWord,
    DecodeError,
    LetterHom,
    NAT,
    Polynomial,
    PrependConst,
    Word,
    apply_word_function,
    church_nat,
    church_nat_at,
    church_word,
    compile_polynomial,
    compile_word_function,
    conditional_candidates,
    decode_nat,
    decode_word,
    parse_polynomial,
    word_spec_from_json,
    word_spec_to_json,
    word_type,
)
from safelc.reduction import Strategy, normalize
from safelc.safety import Level, safety_check, simple_type_of
from safelc.syntax import App, parse, parse_type


def run(term, strategy=Strategy.PLAIN):
    return decode_nat(normalize(term, strategy))


# --------------------------------------------------------------------------
# numerals


def test_church_zero():
    assert church_nat(0) == parse(r"\s:o->o z:o. z")
    assert decode_nat(church_nat(0)) == 0


def test_nat_roundtrip():
    for n in range(51):
        assert decode_nat(church_nat(n)) == n
        assert decode_word(church_nat(n), "a").letters == "a" * n


def test_numerals_are_safe():
    for n in range(21):
        assert safety_check({}, church_nat(n)).level == Level.SAFE


def test_decode_handles_eta_short_forms():
    assert decode_nat(parse(r"\s:o->o. s")) == 1


def test_decode_rejects_non_numerals():
    with pytest.raises(DecodeError):
        decode_nat(parse(r"\x:o. x"))
    with pytest.raises(DecodeError):
        decode_nat(parse(r"\s:o->o z:o. s"))
    with pytest.raises(DecodeError):
        decode_nat(parse("x"))
    with pytest.raises(DecodeError):
        decode_nat(parse(r"\s:o z:o->o. z s"))
    with pytest.raises(DecodeError):
        decode_nat(parse(r"\s:o->o z:o. (\x:o. x) z"))


def test_church_nat_at_ground_is_plain():
    assert church_nat_at(3, parse_type("o")) == church_nat(3)


def test_combinators():
    assert safety_check({}, ADD).level == Level.SAFE
    assert safety_check({}, MUL).level == Level.SAFE
    assert run(App(ADD, (church_nat(2), church_nat(3)))) == 5
    assert run(App(MUL, (church_nat(2), church_nat(3)))) == 6


# --------------------------------------------------------------------------
# polynomials


def test_parse_polynomial():
    p = parse_polynomial("x^2*y + 3*x + 2")
    assert p.variables == ("x", "y")
    assert dict(p.monomials) == {(2, 1): 1, (1, 0): 3, (0, 0): 2}


def test_parse_polynomial_combines_like_monomials():
    assert dict(parse_polynomial("x + y + x").monomials) == {(1, 0): 2, (0, 1): 1}
    assert dict(parse_polynomial("2*x*x + x^2").monomials) == {(2,): 3}


def test_parse_polynomial_orders_variables_and_monomials_by_first_appearance():
    # a zero coefficient still registers its variable; x^0 does not
    p = parse_polynomial("0*z + x^0*y + y*x + x*y")
    assert p.variables == ("z", "y", "x")
    assert list(p.monomials.items()) == [((0, 1, 0), 1), ((0, 1, 1), 2)]


def test_parse_polynomial_zero():
    p = parse_polynomial("0")
    assert p.variables == () and dict(p.monomials) == {}


def test_parse_polynomial_errors():
    for bad in ("", "x +", "x ^", "x^y", "x - y", "2 3"):
        with pytest.raises(ValueError):
            parse_polynomial(bad)


def test_parse_polynomial_accepts_surrounding_whitespace():
    for text in ("x + y ", "x + y\n", " x + y\t", "x\n+ y"):
        assert parse_polynomial(text) == parse_polynomial("x + y")
    for blank in (" ", "\n", " \t\n"):
        with pytest.raises(ValueError, match="empty polynomial"):
            parse_polynomial(blank)


def test_parse_polynomial_trailing_star_is_a_value_error():
    for bad in ("x*", "2*", "x^2*", "x + y*", "x * y *"):
        with pytest.raises(ValueError, match=r"trailing '\*'"):
            parse_polynomial(bad)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(("x", "x"), {})
    with pytest.raises(ValueError):
        Polynomial(("x",), {(1, 2): 1})
    with pytest.raises(ValueError):
        Polynomial(("x",), {(1,): 0})
    with pytest.raises(ValueError):
        Polynomial(("x",), {(-1,): 2})


def test_polynomial_evaluate():
    assert parse_polynomial("x*y").evaluate({"x": 2, "y": 3}) == 6
    assert parse_polynomial("x^2*y + 3*x + 2").evaluate({"x": 2, "y": 1}) == 12
    with pytest.raises(ValueError):
        parse_polynomial("x*y").evaluate({"x": 2})


def test_compile_polynomial_type_and_verdict():
    t = compile_polynomial(parse_polynomial("x^2*y + 3*x + 2"))
    assert simple_type_of({}, t) == parse_type(
        "((o->o)->o->o)->((o->o)->o->o)->(o->o)->o->o"
    )
    assert safety_check({}, t).level == Level.SAFE


def test_compile_polynomial_values():
    p = parse_polynomial("x^2*y + 3*x + 2")
    t = compile_polynomial(p)
    applied = App(t, (church_nat(2), church_nat(1)))
    assert run(applied) == 12
    assert run(applied, Strategy.SAFE) == 12


def test_compile_zero_polynomial():
    t = compile_polynomial(parse_polynomial("0"))
    assert run(t) == 0


def test_compile_constant_polynomial():
    assert run(compile_polynomial(parse_polynomial("7"))) == 7


def test_compiled_variables_may_shadow_combinator_names():
    # polynomial variables named like the combinator binders get primed
    # internally, keeping one type per name in the emitted term
    p = parse_polynomial("s*z + 2*s")
    t = compile_polynomial(p)
    assert safety_check({}, t).level == Level.SAFE
    applied = App(t, (church_nat(3), church_nat(2)))
    assert run(applied, Strategy.SAFE) == p.evaluate({"s": 3, "z": 2})


@st.composite
def polynomials(draw):
    k = draw(st.integers(0, 2))
    variables = ("x", "y")[:k]
    entries = draw(
        st.dictionaries(
            st.tuples(*([st.integers(0, 2)] * k)),
            st.integers(1, 4),
            max_size=3,
        )
    )
    return Polynomial(variables, entries)


@hyp.settings(max_examples=25, deadline=None)
@hyp.given(polynomials(), st.integers(0, 2), st.integers(0, 2))
def test_compiled_polynomials_match_arithmetic(p, vx, vy):
    point = dict(zip(p.variables, (vx, vy)))
    t = compile_polynomial(p)
    assert safety_check({}, t).level == Level.SAFE
    args = tuple(church_nat(point[v]) for v in p.variables)
    applied = App(t, args) if args else t
    assert run(applied, Strategy.SAFE) == p.evaluate(point)


# --------------------------------------------------------------------------
# the conditional catalogue


def test_conditional_catalogue_size():
    assert len(conditional_candidates()) >= 3


def test_no_catalogued_conditional_is_safe():
    for term, verdict in conditional_candidates():
        assert verdict.level == Level.UNSAFE_TYPABLE
        assert verdict.level == safety_check({}, term).level


def test_catalogued_conditionals_really_compute_if_zero():
    for term, _ in conditional_candidates():
        ty = simple_type_of({}, term)
        carrier = ty.arguments[0].arguments[1]
        for n in (0, 1, 2):
            scrutinee = church_nat_at(n, carrier)
            out = normalize(App(term, (scrutinee, church_nat(3), church_nat(5))))
            assert decode_nat(out) == (3 if n == 0 else 5)


# --------------------------------------------------------------------------
# words


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield Word(alphabet, "".join(tup))


def test_word_type():
    assert word_type("ab") == parse_type("(o->o)->(o->o)->o->o")


def test_church_word_examples():
    assert church_word(Word("ab", "")) == parse(r"\a:o->o b:o->o z:o. z")
    assert church_word(Word("ab", "ab")) == parse(r"\a:o->o b:o->o z:o. a (b z)")


def test_word_roundtrip_and_safety():
    for w in all_words("ab", 6):
        t = church_word(w)
        assert safety_check({}, t).level == Level.SAFE
        assert decode_word(t, "ab") == w


def test_word_validation():
    with pytest.raises(ValueError):
        Word("", "")
    with pytest.raises(ValueError):
        Word("aa", "a")
    with pytest.raises(ValueError):
        Word("ab", "abc")


def test_decode_word_rejects_non_words():
    with pytest.raises(DecodeError):
        decode_word(church_nat(2), "ab")
    with pytest.raises(DecodeError):
        decode_word(parse(r"\a:o->o b:o->o z:o. a a", canonical=False), "ab")


CATALOGUE = (
    ConstWord(""),
    ConstWord("ba"),
    AppendConst("ab"),
    PrependConst("ba"),
    LetterHom((("a", "bb"), ("b", "a"))),
    Compose(AppendConst("a"), LetterHom((("a", "b"), ("b", "a")))),
    Compose(PrependConst("b"), Compose(AppendConst("a"), ConstWord("ab"))),
)


def test_word_functions_are_safe_and_agree_with_oracle():
    for spec in CATALOGUE:
        t = compile_word_function(spec, "ab")
        assert safety_check({}, t).level == Level.SAFE
        for w in all_words("ab", 4):
            got = decode_word(
                normalize(App(t, (church_word(w),)), Strategy.SAFE), "ab"
            )
            assert got == apply_word_function(spec, w), (spec, w)


def test_word_function_json_roundtrip():
    for spec in CATALOGUE:
        assert word_spec_from_json(word_spec_to_json(spec)) == spec


def test_word_function_bad_specs():
    with pytest.raises(ValueError):
        word_spec_from_json({"kind": "reverse"})
    with pytest.raises(ValueError):
        word_spec_from_json(["const"])
    with pytest.raises(ValueError):
        compile_word_function(LetterHom((("a", "b"),)), "ab")
    with pytest.raises(ValueError):
        compile_word_function(ConstWord("xy"), "ab")
    with pytest.raises(ValueError):
        apply_word_function(LetterHom((("a", "b"),)), Word("ab", "a"))
