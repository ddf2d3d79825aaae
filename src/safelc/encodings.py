r"""Church encodings: numerals, polynomials, words, word functions.

Numerals live at nat = (o->o)->o->o.  Addition and multiplication have
safe combinators (ADD, MUL below), and any multivariate polynomial with
nonnegative integer coefficients compiles to a Safe term by folding them:

>>> from safelc.reduction import normalize
>>> from safelc.syntax import App
>>> p = parse_polynomial("x^2*y + 3*x + 2")
>>> t = App(compile_polynomial(p), (church_nat(2), church_nat(1)))
>>> decode_nat(normalize(t))
12

The conditional (case on zero) is the standard counterexample: it is
computable by plenty of simply-typed terms, none of them safe.  The
catalogue in `conditional_candidates` pairs textbook definitions with
their verdicts so the failure is checked, not assumed.

Words over a finite alphabet get one order-1 parameter per letter, the
leftmost letter applied outermost.  `WordFunctionSpec` describes the word
functions that compile to safe terms: constant words, appending or
prepending a constant, letter homomorphisms, and compositions of these.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .safety import SafetyVerdict, TypeCheckError, eta_long, safety_check
from .syntax import (
    GROUND,
    Abs,
    App,
    SimpleType,
    Term,
    Var,
    arrow,
    mk_abs,
    parse,
    rename_reserved,
    type_text,
)


class DecodeError(Exception):
    """The term is not a normal form of the expected encoded shape."""


NAT = arrow(arrow(GROUND, GROUND), GROUND, GROUND)

_NAT_TEXT = type_text(NAT)

ADD = parse(rf"\m:{_NAT_TEXT} n:{_NAT_TEXT} s:o->o z:o. m s (n s z)")
MUL = parse(rf"\m:{_NAT_TEXT} n:{_NAT_TEXT} s:o->o z:o. m (n s) z")

# binder names used by the combinators and the encoding templates; user
# variable names colliding with these get primed so that every name keeps
# a single type inside any term we emit
_RESERVED = frozenset({"m", "n", "s", "z", "w", "u"})


# --------------------------------------------------------------------------
# Church spines
#
# A numeral is a word over a one-letter alphabet: both are k letter
# binders of type o->o and a base z:o around a spine a_i1 (a_i2 (.. z)),
# leftmost letter outermost.  These two helpers build and read every spine.


def _spine(text: str, letter_term, end: Term) -> Term:
    out = end
    for ch in reversed(text):
        out = App(letter_term(ch), (out,))
    return out


def _read_spine(term: Term, k: int, what: str) -> list[int]:
    """Letter indices, outermost first, of a closed normal term with k
    letters; anything else raises DecodeError naming `what` it is not.

    A term that already is a closed eta-long spine is read as it is, since
    `eta_long` would return a term equal to it; any other term is
    eta-expanded first and read again.
    """
    try:
        return _spine_letters(term, k, what)
    except DecodeError:
        pass  # not an eta-long spine as it stands
    try:
        t = eta_long({}, term)
    except TypeCheckError as e:
        raise DecodeError(f"not a {what}: {e}") from e
    return _spine_letters(t, k, what)


def _spine_letters(t: Term, k: int, what: str) -> list[int]:
    """The letter indices of `t` read as it stands."""
    if not isinstance(t, Abs) or len(t.binders) != k + 1:
        raise DecodeError(f"not a {what}: expected {k + 1} binders")
    unary = arrow(GROUND, GROUND)
    for name, ty in t.binders[:k]:
        if ty != unary:
            raise DecodeError(f"not a {what}: letter binder {name} has type {ty}")
    z, z_ty = t.binders[k]
    if z_ty != GROUND:
        raise DecodeError(f"not a {what}: final binder has type {z_ty}")
    index = {name: i for i, (name, _) in enumerate(t.binders[:k])}
    out = []
    cur = t.body
    while isinstance(cur, App) and len(cur.args) == 1:
        if not isinstance(cur.head, Var) or cur.head.name not in index:
            raise DecodeError(f"not a {what}: spine head is not a letter")
        out.append(index[cur.head.name])
        cur = cur.args[0]
    if cur != Var(z):
        raise DecodeError(f"not a {what}: spine does not end at the base")
    return out


# --------------------------------------------------------------------------
# numerals


def church_nat(n: int) -> Term:
    """The numeral \\s:o->o z:o. s (s ... (s z))."""
    return church_nat_at(n, GROUND)


def church_nat_at(n: int, a: SimpleType) -> Term:
    """The numeral relativized to carrier type `a`.

    Exponentiation and the conditional candidates consume numerals whose
    carrier is itself a higher type; church_nat_at(n, GROUND) is the plain
    church_nat(n).
    """
    if n < 0:
        raise ValueError("numerals encode nonnegative integers")
    return Abs((("s", arrow(a, a)), ("z", a)), _spine("s" * n, Var, Var("z")))


def decode_nat(term: Term) -> int:
    """Read a natural back off a closed beta-normal term of numeral type."""
    return len(_read_spine(term, 1, "numeral"))


# --------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial with nonnegative integer coefficients.

    `monomials` maps exponent vectors (one entry per variable, in
    `variables` order) to coefficients; zero coefficients are not stored.
    """

    variables: tuple[str, ...]
    monomials: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate polynomial variables")
        for exps, coeff in self.monomials.items():
            if len(exps) != len(self.variables):
                raise ValueError(
                    f"exponent vector {exps} does not match "
                    f"{len(self.variables)} variable(s)"
                )
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if coeff <= 0:
                raise ValueError("coefficients must be positive (zeros dropped)")

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValueError(f"missing value(s) for {', '.join(missing)}")
        total = 0
        for exps, coeff in self.monomials.items():
            prod = coeff
            for v, e in zip(self.variables, exps):
                prod *= assignment[v] ** e
            total += prod
        return total


_POLY_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|\^|\*|\+)")


def parse_polynomial(text: str) -> Polynomial:
    """Parse `+`-separated monomials of `*`-separated factors.

    A factor is a decimal coefficient, a variable, or a power `x^3`.
    Variables are ordered by first appearance; like monomials combine.
    """
    text = text.rstrip()
    pos = 0
    tokens: list[str] = []
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            raise ValueError(f"polynomial syntax error at {rest[:10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial")

    variables: list[str] = []
    terms: list[tuple[int, dict[str, int]]] = []
    i = 0
    while i < len(tokens):
        coeff, powers = 1, {}
        while True:
            tok = tokens[i]
            if tok.isdigit():
                coeff *= int(tok)
                i += 1
            elif tok not in ("^", "*", "+"):
                var = tok
                i += 1
                exp = 1
                if i < len(tokens) and tokens[i] == "^":
                    if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                        raise ValueError("exponent must be a decimal literal")
                    exp = int(tokens[i + 1])
                    i += 2
                powers[var] = powers.get(var, 0) + exp
            else:
                raise ValueError(f"unexpected {tok!r} in polynomial")
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                if i == len(tokens):
                    raise ValueError("trailing '*'")
                continue
            break
        # a positive power registers a variable, even under a zero coefficient
        for v, e in powers.items():
            if e > 0 and v not in variables:
                variables.append(v)
        terms.append((coeff, powers))
        if i < len(tokens):
            if tokens[i] != "+":
                raise ValueError(f"expected '+' before {tokens[i]!r}")
            i += 1
            if i == len(tokens):
                raise ValueError("trailing '+'")

    monomials: dict[tuple[int, ...], int] = {}
    for coeff, powers in terms:
        if coeff:
            key = tuple(powers.get(v, 0) for v in variables)
            monomials[key] = monomials.get(key, 0) + coeff
    return Polynomial(tuple(variables), monomials)


def compile_polynomial(p: Polynomial) -> Term:
    """A Safe term of type nat -> ... -> nat computing `p`.

    Monomials fold through MUL, the results through ADD; argument order
    follows p.variables.
    """
    params = rename_reserved(p.variables, _RESERVED)

    def monomial(exps: tuple[int, ...], coeff: int) -> Term:
        factors: list[Term] = []
        if coeff != 1 or not any(exps):
            factors.append(church_nat(coeff))
        for v, e in zip(p.variables, exps):
            factors.extend([Var(params[v])] * e)
        acc = factors[0]
        for f in factors[1:]:
            acc = App(MUL, (acc, f))
        return acc

    ordered = sorted(p.monomials.items(), reverse=True)
    if not ordered:
        body: Term = church_nat(0)
    else:
        body = monomial(*ordered[0])
        for exps, coeff in ordered[1:]:
            body = App(ADD, (body, monomial(exps, coeff)))
    return mk_abs(tuple((params[v], NAT) for v in p.variables), body)


# --------------------------------------------------------------------------
# the conditional catalogue

_LIFTED_NAT = f"(({_NAT_TEXT})->{_NAT_TEXT})->({_NAT_TEXT})->{_NAT_TEXT}"
_PAIR = f"(({_NAT_TEXT})->({_NAT_TEXT})->{_NAT_TEXT})->{_NAT_TEXT}"
_LIFTED_PAIR = f"(({_PAIR})->{_PAIR})->({_PAIR})->{_PAIR}"


def conditional_candidates() -> tuple[tuple[Term, SafetyVerdict], ...]:
    """Textbook if-zero definitions over Church numerals, with verdicts.

    Each term takes the scrutinee numeral, then the zero branch, then the
    nonzero branch, and each genuinely computes the conditional; none of
    them is Safe.  The scrutinee's carrier differs per candidate (read it
    off the term's type): ground iteration, iteration at nat, and pair
    iteration.
    """
    ground_iter = parse(
        rf"\n:{_NAT_TEXT} a:{_NAT_TEXT} b:{_NAT_TEXT} s:o->o z:o."
        r" n (\x:o. b s z) (a s z)"
    )
    nat_iter = parse(
        rf"\n:{_LIFTED_NAT} a:{_NAT_TEXT} b:{_NAT_TEXT}."
        rf" n (\x:{_NAT_TEXT}. b) a"
    )
    pair_iter = parse(
        rf"\n:{_LIFTED_PAIR} a:{_NAT_TEXT} b:{_NAT_TEXT}."
        rf" n (\p:{_PAIR} f:({_NAT_TEXT})->({_NAT_TEXT})->{_NAT_TEXT}. f b b)"
        rf" (\f:({_NAT_TEXT})->({_NAT_TEXT})->{_NAT_TEXT}. f a a)"
        rf" (\x:{_NAT_TEXT} y:{_NAT_TEXT}. x)"
    )
    return tuple(
        (t, safety_check({}, t)) for t in (ground_iter, nat_iter, pair_iter)
    )


# --------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class Word:
    """A word over a fixed, ordered alphabet of single-letter symbols."""

    alphabet: str
    letters: str

    def __post_init__(self):
        if not self.alphabet:
            raise ValueError("alphabet must not be empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet letters must be distinct")
        for ch in self.alphabet:
            if not (ch.isalpha() and ch.isascii()):
                raise ValueError(f"alphabet letter {ch!r} is not a letter")
        bad = set(self.letters) - set(self.alphabet)
        if bad:
            raise ValueError(f"letters {sorted(bad)} outside alphabet")


def word_type(alphabet: str) -> SimpleType:
    return SimpleType(
        tuple(arrow(GROUND, GROUND) for _ in alphabet) + (GROUND,)
    )


def church_word(w: Word) -> Term:
    """One order-1 parameter per letter; leftmost letter outermost."""
    params = rename_reserved(w.alphabet, _RESERVED)
    binders = tuple((params[ch], arrow(GROUND, GROUND)) for ch in w.alphabet)
    binders += (("z", GROUND),)
    body = _spine(w.letters, lambda ch: Var(params[ch]), Var("z"))
    return Abs(binders, body)


def decode_word(term: Term, alphabet: str) -> Word:
    """Read a word back off a closed beta-normal term of word type."""
    indices = _read_spine(term, len(alphabet), "word")
    return Word(alphabet, "".join(alphabet[i] for i in indices))


# --------------------------------------------------------------------------
# word functions


class WordFunctionSpec:
    """Base of the compilable word-function constructors."""


@dataclass(frozen=True)
class ConstWord(WordFunctionSpec):
    word: str


@dataclass(frozen=True)
class AppendConst(WordFunctionSpec):
    word: str


@dataclass(frozen=True)
class PrependConst(WordFunctionSpec):
    word: str


@dataclass(frozen=True)
class LetterHom(WordFunctionSpec):
    rules: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.rules)


@dataclass(frozen=True)
class Compose(WordFunctionSpec):
    outer: WordFunctionSpec
    inner: WordFunctionSpec


def _json_word(data) -> str:
    word = data["word"]
    if not isinstance(word, str):
        raise ValueError(f"'word' must be a string, not {type(word).__name__}")
    return word


def word_spec_from_json(data) -> WordFunctionSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("word-function spec must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "const":
        return ConstWord(_json_word(data))
    if kind == "append_const":
        return AppendConst(_json_word(data))
    if kind == "prepend_const":
        return PrependConst(_json_word(data))
    if kind == "letter_hom":
        rules = data["mapping"]
        if not isinstance(rules, dict) or not all(
            isinstance(image, str) for image in rules.values()
        ):
            raise ValueError("'mapping' must map letters to words")
        return LetterHom(tuple(sorted(rules.items())))
    if kind == "compose":
        return Compose(
            word_spec_from_json(data["outer"]),
            word_spec_from_json(data["inner"]),
        )
    raise ValueError(f"unknown word-function constructor {kind!r}")


def word_spec_to_json(spec: WordFunctionSpec):
    if isinstance(spec, ConstWord):
        return {"kind": "const", "word": spec.word}
    if isinstance(spec, AppendConst):
        return {"kind": "append_const", "word": spec.word}
    if isinstance(spec, PrependConst):
        return {"kind": "prepend_const", "word": spec.word}
    if isinstance(spec, LetterHom):
        return {"kind": "letter_hom", "mapping": spec.as_dict()}
    if isinstance(spec, Compose):
        return {
            "kind": "compose",
            "outer": word_spec_to_json(spec.outer),
            "inner": word_spec_to_json(spec.inner),
        }
    raise ValueError(f"unknown word-function constructor {spec!r}")


def apply_word_function(spec: WordFunctionSpec, w: Word) -> Word:
    """Direct string semantics; the oracle the compiled terms are tested
    against."""
    if isinstance(spec, ConstWord):
        return Word(w.alphabet, spec.word)
    if isinstance(spec, AppendConst):
        return Word(w.alphabet, w.letters + spec.word)
    if isinstance(spec, PrependConst):
        return Word(w.alphabet, spec.word + w.letters)
    if isinstance(spec, LetterHom):
        rules = spec.as_dict()
        missing = set(w.alphabet) - set(rules)
        if missing:
            raise ValueError(f"homomorphism misses letter(s) {sorted(missing)}")
        return Word(w.alphabet, "".join(rules[ch] for ch in w.letters))
    if isinstance(spec, Compose):
        return apply_word_function(spec.outer, apply_word_function(spec.inner, w))
    raise ValueError(f"unknown word-function constructor {spec!r}")


def _check_letters(text: str, alphabet: str):
    bad = set(text) - set(alphabet)
    if bad:
        raise ValueError(f"letters {sorted(bad)} outside alphabet {alphabet!r}")


def compile_word_function(spec: WordFunctionSpec, alphabet: str) -> Term:
    """A Safe closed term of type word -> word computing `spec`."""
    wt = word_type(alphabet)
    params = rename_reserved(alphabet, _RESERVED)
    letter = lambda ch: Var(params[ch])
    param_vars = tuple(letter(ch) for ch in alphabet)
    binders = (("w", wt),)
    binders += tuple((params[ch], arrow(GROUND, GROUND)) for ch in alphabet)
    binders += (("z", GROUND),)

    if isinstance(spec, ConstWord):
        _check_letters(spec.word, alphabet)
        body = _spine(spec.word, letter, Var("z"))
    elif isinstance(spec, AppendConst):
        _check_letters(spec.word, alphabet)
        tail = _spine(spec.word, letter, Var("z"))
        body = App(Var("w"), param_vars + (tail,))
    elif isinstance(spec, PrependConst):
        _check_letters(spec.word, alphabet)
        body = _spine(spec.word, letter, App(Var("w"), param_vars + (Var("z"),)))
    elif isinstance(spec, LetterHom):
        rules = spec.as_dict()
        for ch in alphabet:
            if ch not in rules:
                raise ValueError(f"homomorphism misses letter {ch!r}")
            _check_letters(rules[ch], alphabet)
        images = tuple(
            Abs((("u", GROUND),), _spine(rules[ch], letter, Var("u")))
            for ch in alphabet
        )
        body = App(Var("w"), images + (Var("z"),))
    elif isinstance(spec, Compose):
        outer = compile_word_function(spec.outer, alphabet)
        inner = compile_word_function(spec.inner, alphabet)
        body = App(
            outer,
            (App(inner, (Var("w"),)),) + param_vars + (Var("z"),),
        )
    else:
        raise ValueError(f"unknown word-function constructor {spec!r}")
    return Abs(binders, body)
