import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from safelc.qbf import (
    And,
    BoolVar,
    Not,
    Or,
    QBF,
    Quantifier,
    count_nodes,
    formula_text,
    formula_vars,
    parse_qbf,
    qbf_text,
)
from safelc.qbf_oracle import MAX_QUANTIFIERS, eval_qbf
from safelc.syntax import ParseError

from termgen import recursion_limit


def test_parse_example():
    q = parse_qbf("forall x. exists y. (x | y) & (!x | !y)")
    assert q.prefix == (
        (Quantifier.FORALL, "x"),
        (Quantifier.EXISTS, "y"),
    )
    assert q.matrix == And(
        Or(BoolVar("x"), BoolVar("y")),
        Or(Not(BoolVar("x")), Not(BoolVar("y"))),
    )


def test_connective_precedence():
    q = parse_qbf("forall x. x | x & !x")
    assert q.matrix == Or(BoolVar("x"), And(BoolVar("x"), Not(BoolVar("x"))))


def test_left_associativity():
    q = parse_qbf("exists x. x | x | x")
    assert q.matrix == Or(Or(BoolVar("x"), BoolVar("x")), BoolVar("x"))
    q = parse_qbf("exists x. x & x & x")
    assert q.matrix == And(And(BoolVar("x"), BoolVar("x")), BoolVar("x"))


def test_printer_minimal_parens():
    text = "forall x. exists y. (x | y) & (!x | !y)"
    assert qbf_text(parse_qbf(text)) == text
    assert qbf_text(parse_qbf("forall x. x | x & x")) == "forall x. x | x & x"


def test_parse_errors():
    for bad in (
        "",
        "x & y",
        "forall x",
        "forall x. ",
        "forall x. y",
        "forall x. forall x. x",
        "forall x. x)",
        "forall x. x $ x",
        "forall forall. x",
    ):
        with pytest.raises(ParseError):
            parse_qbf(bad)


def test_qbf_validation():
    with pytest.raises(ValueError):
        QBF((), BoolVar("x"))
    with pytest.raises(ValueError):
        QBF(
            ((Quantifier.FORALL, "x"), (Quantifier.EXISTS, "x")),
            BoolVar("x"),
        )
    with pytest.raises(ValueError):
        QBF(((Quantifier.FORALL, "x"),), BoolVar("y"))


def test_formula_size():
    q = parse_qbf("forall x. exists y. (x | y) & (!x | !y)")
    # 2 quantifiers + 5 connectives + 4 atoms
    assert q.size == 11
    assert formula_vars(q.matrix) == frozenset({"x", "y"})


names = st.sampled_from(("x", "y", "z"))
formulas = st.recursive(
    st.builds(BoolVar, names),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
    ),
    max_leaves=8,
)


@hyp.given(formulas)
def test_print_parse_roundtrip(matrix):
    prefix = tuple((Quantifier.FORALL, n) for n in ("x", "y", "z"))
    q = QBF(prefix, matrix)
    assert parse_qbf(qbf_text(q)) == q


# --------------------------------------------------------------------------
# the brute-force oracle


def test_oracle_basics():
    assert not eval_qbf(parse_qbf("forall x. x"))
    assert eval_qbf(parse_qbf("exists x. x"))
    assert eval_qbf(parse_qbf("forall x. x | !x"))
    assert not eval_qbf(parse_qbf("exists x. x & !x"))


def test_oracle_two_quantifiers():
    assert eval_qbf(parse_qbf("forall x. exists y. (x & y) | (!x & !y)"))
    assert not eval_qbf(parse_qbf("exists x. forall y. (x & y) | (!x & !y)"))
    assert eval_qbf(parse_qbf("forall x. exists y. (x | y) & (!x | !y)"))


def test_oracle_quantifier_order_matters():
    assert eval_qbf(parse_qbf("forall x. exists y. x & y | !x & !y"))
    assert not eval_qbf(parse_qbf("exists y. forall x. x & y | !x & !y"))


def test_oracle_unused_quantifier():
    assert eval_qbf(parse_qbf("forall x. exists y. x | !x"))


def test_oracle_quantifier_bound():
    prefix = tuple(
        (Quantifier.FORALL, f"v{i}") for i in range(MAX_QUANTIFIERS + 1)
    )
    big = QBF(prefix, Or(BoolVar("v0"), Not(BoolVar("v0"))))
    with pytest.raises(ValueError):
        eval_qbf(big)


@hyp.given(formulas)
def test_oracle_negation_duality(matrix):
    # !(forall x y z. m) == exists x y z. !m
    all_prefix = tuple((Quantifier.FORALL, n) for n in ("x", "y", "z"))
    any_prefix = tuple((Quantifier.EXISTS, n) for n in ("x", "y", "z"))
    assert eval_qbf(QBF(all_prefix, matrix)) != eval_qbf(
        QBF(any_prefix, Not(matrix))
    )


def _reference_formula_text(f, level=0):
    """The recursive printer the explicit-stack one replaced."""
    if isinstance(f, BoolVar):
        return f.name
    if isinstance(f, Not):
        return "!" + _reference_formula_text(f.operand, 2)
    if isinstance(f, And):
        s = f"{_reference_formula_text(f.left, 1)} & {_reference_formula_text(f.right, 2)}"
        return f"({s})" if level > 1 else s
    s = f"{_reference_formula_text(f.left, 0)} | {_reference_formula_text(f.right, 1)}"
    return f"({s})" if level > 0 else s


def _reference_vars_and_count(f):
    if isinstance(f, BoolVar):
        return {f.name}, 1
    if isinstance(f, Not):
        names, n = _reference_vars_and_count(f.operand)
        return names, n + 1
    (a, m), (b, n) = _reference_vars_and_count(f.left), _reference_vars_and_count(f.right)
    return a | b, m + n + 1


formulas = st.recursive(
    st.builds(BoolVar, st.sampled_from("xyz")),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
    max_leaves=12,
)


@hyp.given(formulas)
def test_formula_walks_match_the_recursive_references(f):
    names, n = _reference_vars_and_count(f)
    assert (formula_vars(f), count_nodes(f)) == (names, n)
    for level in (0, 1, 2):
        assert formula_text(f, level) == _reference_formula_text(f, level)


def test_deep_formula_at_default_recursion_limit():
    # !(y & !(x & !(y & ... z))), 3,000 connective pairs deep, built from AST nodes
    n = 3_000
    f = BoolVar("z")
    for i in range(n):
        f = Not(And(BoolVar("xy"[i % 2]), f))
    prefix = ((Quantifier.FORALL, "x"), (Quantifier.EXISTS, "y"), (Quantifier.FORALL, "z"))
    with recursion_limit(1_000):
        q = QBF(prefix, f)
        size = q.size
        text = str(q)
    assert size == 3 + 3 * n + 1
    matrix = "".join(f"!({'xy'[i % 2]} & " for i in reversed(range(n))) + "z" + ")" * n
    assert text == "forall x. exists y. forall z. " + matrix
