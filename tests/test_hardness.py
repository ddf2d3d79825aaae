from safelc.hardness import (
    AND_GADGET,
    BOOL,
    CHURCH_FALSE,
    CHURCH_TRUE,
    NOT_GADGET,
    OR_GADGET,
    enumerate_matrices,
    enumerate_qbfs,
    equality_instance,
    qbf_to_term,
)
from safelc.qbf import parse_qbf
from safelc.qbf_oracle import eval_qbf
from safelc.reduction import beta_eta_equal, normalize
from safelc.safety import Level, safety_check
from safelc.syntax import alpha_eq, arrow


def is_safe(term):
    return safety_check({}, term).level is Level.SAFE


def test_gadgets_are_safe_booleans():
    for term in (CHURCH_TRUE, CHURCH_FALSE, NOT_GADGET):
        assert is_safe(term)
    for term in (AND_GADGET, OR_GADGET):
        assert is_safe(term)
    assert safety_check({}, CHURCH_TRUE).type == BOOL
    assert safety_check({}, NOT_GADGET).type == arrow(BOOL, BOOL)


def test_single_quantifier():
    t = qbf_to_term(parse_qbf("exists x. x"))
    assert not t.free_names
    verdict = safety_check({}, t)
    assert verdict.level is Level.SAFE
    assert verdict.type == BOOL
    assert alpha_eq(normalize(t, strategy="plain"), CHURCH_TRUE)
    assert alpha_eq(normalize(t, strategy="safe"), CHURCH_TRUE)
    f = qbf_to_term(parse_qbf("forall x. x"))
    assert alpha_eq(normalize(f, strategy="plain"), CHURCH_FALSE)
    assert alpha_eq(normalize(f, strategy="safe"), CHURCH_FALSE)


def test_equality_instance():
    lhs, rhs = equality_instance(parse_qbf("exists x. x"))
    assert beta_eta_equal({}, lhs, rhs)
    lhs, rhs = equality_instance(parse_qbf("forall x. x"))
    assert not beta_eta_equal({}, lhs, rhs)


def test_formula_variables_may_shadow_gadget_names():
    # x, y, p, q collide with the binder names used inside the gadgets
    f = parse_qbf("forall x. exists y. forall p. (x | y) & (!p | !y)")
    t = qbf_to_term(f)
    assert not t.free_names
    assert is_safe(t)
    assert beta_eta_equal({}, t, CHURCH_TRUE) == eval_qbf(f)


def test_agreement_slice():
    instances = list(enumerate_qbfs(3, 3))
    assert len(instances) == 42496
    checked = 0
    for f in instances[::97]:
        t = qbf_to_term(f)
        verdict = safety_check({}, t)
        assert verdict.level is Level.SAFE
        assert verdict.type == BOOL
        assert t.size <= 4 * (f.size + 2) ** 2
        expected = CHURCH_TRUE if eval_qbf(f) else CHURCH_FALSE
        assert alpha_eq(normalize(t), expected)
        checked += 1
    assert checked >= 400


def test_safe_strategy_agrees_on_slice():
    for f in list(enumerate_qbfs(2, 2))[::31]:
        t = qbf_to_term(f)
        plain = normalize(t, strategy="plain")
        assert alpha_eq(normalize(t, strategy="safe"), plain)


def test_enumeration_counts():
    # levels: v | !v, a&b, a|b | ... (counts fixed by the recurrence)
    assert len(list(enumerate_matrices(("v1",), 3))) == 112
    assert len(list(enumerate_matrices(("v1", "v2"), 3))) == 1112
    assert len(list(enumerate_matrices(("v1", "v2", "v3"), 3))) == 4728
    # 1 var, <=1 connective: v1, !v1, v1&v1, v1|v1; two prefix choices
    assert len(list(enumerate_qbfs(1, 1))) == 2 * 4


def test_term_size_growth_is_modest():
    for f in (
        parse_qbf("forall v1. v1"),
        parse_qbf("forall v1. exists v2. v1 & v2"),
        parse_qbf("forall v1. exists v2. forall v3. (v1 | v2) & !v3"),
    ):
        assert qbf_to_term(f).size <= 4 * (f.size + 2) ** 2
