from collections import deque
from dataclasses import FrozenInstanceError

import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from safelc.corpus import HAND_CORPUS, generate_safe_corpus
from safelc.encodings import church_nat, compile_polynomial
from safelc.games import (
    AppNode,
    ComputationTree,
    LambdaNode,
    Occurrence,
    PlayEntry,
    ReconstructionError,
    Traversal,
    UncoveredPlay,
    VarNode,
    build_computation_tree,
    enumerate_traversals,
    p_view_indices,
    parity,
    reconstruct_p_pointers,
    traversal_normal_form,
    uncover,
)
from safelc.hardness import CHURCH_FALSE, CHURCH_TRUE, qbf_to_term
from safelc.qbf import parse_qbf
from safelc.qbf_oracle import eval_qbf
from safelc.reduction import BudgetExceededError, normalize
from safelc import games, reduction, safety, syntax
from safelc.safety import Level, TypeCheckError, eta_long, eta_types, safety_check, simple_type_of
from safelc.syntax import (
    GROUND,
    Abs,
    App,
    SimpleType,
    Var,
    alpha_eq,
    arrow,
    canonicalize,
    parse,
    parse_env,
    pretty,
    subterms,
)

from termgen import copy_term, criterion3_polynomials, names, recursion_limit, terms, types
from test_safety import _reference_eta_long, _reference_type_of

Y = {"y": GROUND}

KIERSTEAD = parse(r"\f:(o->o)->o. f (\x:o. f (\y:o. y))")
KIERSTEAD_TWIST = parse(r"\f:(o->o)->o. f (\x:o. f (\y:o. x))")

# order-4 trio: two safe controls and the unsafe witness
K4 = parse(r"\d:((o->o)->o)->o f:(o->o)->o. f (\x:o. f (\y:o. y))")
K4_TWIST = parse(r"\d:((o->o)->o)->o f:(o->o)->o. f (\x:o. f (\y:o. x))")
D4 = parse(r"\d:((o->o)->o)->o f:(o->o)->o. d (\g:o->o. f (\x:o. g x))")


def tree_of(src, env=None):
    return build_computation_tree(env or {}, parse(src))


def ladder_term(rung, connective):
    """The alternating QBF forall v1. exists v2. ... v1 c v2 c ... as a term."""
    names = [f"v{i + 1}" for i in range(rung)]
    quantifiers = "".join(
        f"{'forall' if i % 2 == 0 else 'exists'} {n}. " for i, n in enumerate(names)
    )
    return qbf_to_term(parse_qbf(quantifiers + f" {connective} ".join(names)))


def shape(traversal):
    return [(o.node.id, o.justifier, o.rule) for o in traversal.occurrences]


def core_indices(occurrences):
    """Positions whose justification chain never crosses an @ occurrence,
    recomputed from the occurrences: the reference for `Traversal.core`."""
    keep: list[bool] = []
    out: list[int] = []
    for i, occ in enumerate(occurrences):
        ok = not isinstance(occ.node, AppNode) and (
            occ.justifier is None or keep[occ.justifier]
        )
        keep.append(ok)
        if ok:
            out.append(i)
    return out


def traversal_of(occurrences, maximal=True):
    """A Traversal built from its occurrences, with reference core flags."""
    core = set(core_indices(occurrences))
    return Traversal(
        tuple(o.node for o in occurrences),
        tuple(o.justifier for o in occurrences),
        tuple(o.rule for o in occurrences),
        tuple(i in core for i in range(len(occurrences))),
        maximal,
    )


def play_of(entries, maximal=True):
    """An UncoveredPlay built from its entries; parity follows the node."""
    return UncoveredPlay(
        tuple(e.node for e in entries),
        tuple(e.justifier for e in entries),
        tuple(e.rule for e in entries),
        maximal,
    )


def reference_uncover_entries(traversal):
    """The play entries of `uncover`, built one per occurrence."""
    entries = []
    for occ in traversal.occurrences:
        p = "O" if isinstance(occ.node, LambdaNode) else "P"
        entries.append(
            PlayEntry(occ.node, occ.justifier if p == "O" else None, p, occ.rule)
        )
    return tuple(entries)


def the_traversal(tree):
    traversals = enumerate_traversals(tree)
    assert len(traversals) == 1
    return traversals[0]


# --------------------------------------------------------------------------
# tree construction


def test_smallest_tree():
    t = tree_of(r"\x:o. x")
    assert len(t.nodes) == 2
    root, x = t.nodes
    assert isinstance(root, LambdaNode) and root.binders[0][0] == "x"
    assert isinstance(x, VarNode) and x.binder is root
    assert root.order == 1 and x.order == 0


def test_eta_long_inserts_empty_lambda():
    t = tree_of(r"\f:o->o x:o. f x")
    assert [n.label for n in t.nodes] == ["\\f x", "f", "\\", "x"]
    assert [n.order for n in t.nodes] == [2, 1, 0, 0]
    f = t.nodes[1]
    assert isinstance(f, VarNode) and len(f.children) == 1


def test_tree_built_from_eta_short_input():
    # the build expands as it goes, so \f. f grows the same 4-node tree,
    # and its eta-long term is made only when read
    t = tree_of(r"\f:o->o. f")
    assert len(t.nodes) == 4
    assert isinstance(t.nodes[3], VarNode)
    assert "term" not in t.__dict__
    assert pretty(t.term) == r"\f:o->o _e1:o. f _e1"


def test_redex_tree():
    t = tree_of(r"(\x:o. x) y", Y)
    assert [n.label for n in t.nodes] == ["\\", "@", "\\x", "x", "\\", "y"]
    assert isinstance(t.nodes[1], AppNode)
    app = t.nodes[1]
    assert app.children[0] is t.nodes[2]  # operator lambda comes first
    assert [n.id for n in t.nodes] == list(range(6))
    assert t.nodes[5].binder is None  # y is free


def test_alternation_and_arity_invariants():
    for src, env in (
        (r"\a:o g:o->o. (\x:o f:o->o. f x) a g", {}),
        (r"\f:(o->o)->o. f (\x:o. f (\y:o. x))", {}),
        (r"f a b", {"f": arrow(GROUND, GROUND, GROUND), "a": GROUND, "b": GROUND}),
    ):
        t = tree_of(src, env)
        for node in t.nodes:
            if isinstance(node, LambdaNode):
                assert len(node.children) == 1
                assert not isinstance(node.children[0], LambdaNode)
            else:
                assert all(isinstance(c, LambdaNode) for c in node.children)
            if isinstance(node, VarNode):
                assert len(node.children) == len(node.ty.arguments)


def test_binders_resolved_in_deep_and_shadowed_scopes():
    # \f:(o->o)->o. f (\x0:o. f (\x1:o. ... x<d-1>)), every name bound once
    d = 10_000
    body = Var(f"x{d - 1}")
    for k in range(d - 1, -1, -1):
        body = App(Var("f"), (Abs(((f"x{k}", GROUND),), body),))
    term = Abs((("f", arrow(arrow(GROUND, GROUND), GROUND)),), body)
    with recursion_limit(1_000):
        tree = build_computation_tree({}, term)
    binding = {
        name: node
        for node in tree.nodes
        if isinstance(node, LambdaNode)
        for name, _ in node.binders
    }
    variables = [n for n in tree.nodes if isinstance(n, VarNode)]
    assert len(variables) == d + 1
    for node in variables:
        assert node.binder is binding[node.name]
        assert node.binder.binders[node.slot] == (node.name, node.ty)
    # the inner \x shadows the root's x only inside the redex
    t = tree_of(r"\f:o->o->o x:o. f ((\x:o. x) x) x")
    assert [(n.name, n.binder.id, n.slot) for n in t.nodes if isinstance(n, VarNode)] == [
        ("f", 0, 0),
        ("x", 4, 0),
        ("x", 0, 1),
        ("x", 0, 1),
    ]


def test_root_order_covers_the_context():
    # the root stands for the context lambda, so free names raise its order
    assert tree_of(r"(\x:o. x) y", Y).root.order == 1
    assert tree_of("f a", {"f": arrow(GROUND, GROUND), "a": GROUND}).root.order == 2


def test_tree_type_errors_propagate():
    with pytest.raises(TypeCheckError):
        build_computation_tree({}, parse(r"\x:o. x x"))


# --------------------------------------------------------------------------
# traversal enumeration


def test_identity_traversal():
    t = tree_of(r"\x:o. x")
    tr = the_traversal(t)
    assert tr.maximal
    assert shape(tr) == [(0, None, "root"), (1, 0, "lam")]


def test_redex_traversal():
    t = tree_of(r"(\x:o. x) y", Y)
    tr = the_traversal(t)
    assert shape(tr) == [
        (0, None, "root"),
        (1, 0, "lam"),
        (2, 1, "app"),
        (3, 2, "lam"),
        (4, 3, "var"),
        (5, 0, "lam"),
    ]
    assert core_indices(tr.occurrences) == [0, 5]


def test_block_redex_traversal():
    # twelve occurrences; the two arguments are consumed via var hops
    t = tree_of(r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    tr = the_traversal(t)
    assert shape(tr) == [
        (0, None, "root"),
        (1, 0, "lam"),
        (2, 1, "app"),
        (3, 2, "lam"),
        (8, 3, "var"),
        (9, 0, "lam"),
        (10, 5, "ivar"),
        (11, 4, "lam"),
        (4, 7, "var"),
        (5, 2, "lam"),
        (6, 9, "var"),
        (7, 0, "lam"),
    ]
    assert core_indices(tr.occurrences) == [0, 5, 6, 11]


def test_traversals_of_normal_form_are_its_branches():
    t = tree_of(r"\f:o->o->o x:o y:o. f x y")
    traversals = enumerate_traversals(t)
    assert len(traversals) == 2
    spelled = []
    for tr in traversals:
        assert core_indices(tr.occurrences) == list(range(len(tr)))  # no @ anywhere
        spelled.append([o.node.label for o in tr.occurrences])
    assert spelled == [
        ["\\f x y", "f", "\\", "x"],
        ["\\f x y", "f", "\\", "y"],
    ]


def test_length_budget_marks_unfinished_branches():
    t = tree_of(r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    traversals = enumerate_traversals(t, max_len=5)
    assert len(traversals) == 1 and not traversals[0].maximal
    assert len(traversals[0]) == 5
    with pytest.raises(ValueError):
        enumerate_traversals(t, max_len=0)


def test_p_view_hand_computed():
    t = tree_of(r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    occs = the_traversal(t).occurrences
    assert p_view_indices(occs[:5]) == [0, 1, 2, 3, 4]
    assert p_view_indices(occs[:3]) == [0, 1, 2]
    assert p_view_indices(occs) == list(range(12))
    assert p_view_indices(()) == []


# --------------------------------------------------------------------------
# normalization by traversal


def test_normal_form_of_redex():
    assert alpha_eq(traversal_normal_form(tree_of(r"(\x:o. x) y", Y)), parse("y"))


def test_normal_form_idempotent_on_normal_terms():
    for src in (r"\x:o. x", r"\f:o->o x:o. f x", r"\f:o->o->o x:o y:o. f x y"):
        t = tree_of(src)
        assert alpha_eq(traversal_normal_form(t), eta_long({}, parse(src)))


def test_normal_form_differential():
    cases = [
        (r"\a:o g:o->o. (\x:o f:o->o. f x) a g", {}),
        (r"(\n:(o->o)->o->o s:o->o z:o. n s (n s z)) (\s:o->o z:o. s z)", {}),
        (r"\h:(o->o)->o. h (\u:o. h (\w:o. u))", {}),
        (r"(\p:o->o->o. p a) (\u:o w:o. w)", {"a": GROUND}),
        (r"f a b", {"f": arrow(GROUND, GROUND, GROUND), "a": GROUND, "b": GROUND}),
    ]
    for src, env in cases:
        term = parse(src)
        got = traversal_normal_form(build_computation_tree(env, term))
        want = eta_long(env, normalize(term))
        assert alpha_eq(got, want), (src, pretty(got), pretty(want))


@pytest.mark.parametrize(
    "src, text",
    [
        (r"\a:o g:o->o. (\x:o f:o->o. f x) a g", r"\n1:o n2:o->o. n2 n1"),
        (r"\p:o->o->o x:o y:o. p x y", r"\n1:o->o->o n2:o n3:o. n1 n2 n3"),
        (
            r"\h:(o->o)->o. h (\u:o. h (\w:o. u))",
            r"\n1:(o->o)->o. n1 (\n2:o. n1 (\n3:o. n2))",
        ),
        (
            r"(\n:(o->o)->o->o s:o->o z:o. n s (n s z)) (\s:o->o z:o. s z)",
            r"\n1:o->o n2:o. n1 (n1 n2)",
        ),
    ],
)
def test_normal_form_text(src, text):
    # binders are renamed n1, n2, ... in the pre-order of the core lambdas
    assert pretty(traversal_normal_form(tree_of(src))) == text


def test_normal_form_of_deep_numeral_at_default_recursion_limit():
    numeral = church_nat(600)
    with recursion_limit(1_000):
        tree = build_computation_tree({}, numeral)
        got = traversal_normal_form(tree, 10_000)
    assert alpha_eq(got, eta_long({}, numeral))


def test_tree_of_deep_numeral_at_default_recursion_limit():
    numeral = church_nat(3000)
    with recursion_limit(1_000):
        tree = build_computation_tree({}, numeral)
    assert tree.term is numeral  # already eta-long
    # the root, then per s its occurrence and the empty lambda below it, then z
    assert len(tree.nodes) == 2 * 3000 + 2


def test_deep_term_expanded_at_default_recursion_limit():
    # \f:(o->o)->o s:o->o z:o. s (s (... (f s))), 600 deep: only the
    # innermost s, an argument of f, needs expanding.  The results are
    # read along their spines, as their expanded binders are fresh names.
    n = 600
    body = App(Var("f"), (Var("s"),))
    for _ in range(n):
        body = App(Var("s"), (body,))
    binders = (
        ("f", arrow(arrow(GROUND, GROUND), GROUND)),
        ("s", arrow(GROUND, GROUND)),
        ("z", GROUND),
    )
    term = Abs(binders, body)
    with recursion_limit(1_000):
        tree = build_computation_tree({}, term)
        nf = traversal_normal_form(tree, 10_000)
        expanded = tree.term
        long = eta_long({}, term)
    for t in (expanded, long, nf):
        assert [ty for _, ty in t.binders] == [ty for _, ty in binders]
        f, s, _ = (name for name, _ in t.binders)
        u = t.body
        for _ in range(n):
            assert u.head == Var(s)
            (u,) = u.args
        assert u.head == Var(f)
        (arg,) = u.args
        assert isinstance(arg, Abs) and [ty for _, ty in arg.binders] == [GROUND]
        assert arg.body == App(Var(s), (Var(arg.binders[0][0]),))


def test_tree_term_and_eta_long_type_the_input_once(monkeypatch):
    # the tree's term is read off its nodes with no typing walk, and
    # eta_long of a term to expand types it once and reads it off a tree
    env = parse_env("g:(o->o)->o, f:o->o")
    term = parse(r"(\h:(o->o)->o. h f) g")
    modes = []
    walk = safety._walk

    def counted(ctx, t, mode):
        modes.append(mode)
        return walk(ctx, t, mode)

    monkeypatch.setattr(safety, "_walk", counted)
    tree = build_computation_tree(env, term)
    assert modes == [safety._ETA]
    modes.clear()
    want = r"(\h:(o->o)->o. h (\_e1:o. f _e1)) (\_e2:o->o. g (\_e3:o. _e2 _e3))"
    assert pretty(tree.term) == want
    assert modes == []
    assert eta_long(env, term) == tree.term
    assert modes == [safety._ETA]


def test_normal_form_church_one_applied_to_itself():
    from safelc.encodings import church_nat_at

    lifted = church_nat_at(1, arrow(GROUND, GROUND))
    t = build_computation_tree({}, App(lifted, (church_nat(1),)))
    assert alpha_eq(traversal_normal_form(t), eta_long({}, church_nat(1)))


def test_normal_form_budget():
    t = tree_of(r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    with pytest.raises(BudgetExceededError):
        traversal_normal_form(t, budget=5)


# --------------------------------------------------------------------------
# uncovering and reconstruction


def test_uncover_erases_exactly_p_pointers():
    t = tree_of(r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    tr = the_traversal(t)
    play = uncover(tr)
    assert len(play) == len(tr)
    for occ, entry in zip(tr.occurrences, play.entries):
        assert entry.node is occ.node
        assert entry.parity == parity(occ.node)
        if entry.parity == "O":
            assert entry.justifier == occ.justifier
        else:
            assert entry.justifier is None
    assert [e.parity for e in play.entries] == ["O", "P"] * 6


def test_uncover_empty_traversal():
    assert len(uncover(traversal_of(()))) == 0


def test_safe_round_trips():
    for src in (
        r"\x:o. x",
        r"\x:o f:o->o. f x",
        r"\a:o g:o->o. (\x:o f:o->o. f x) a g",
        r"\s:o->o z:o. s (s z)",
    ):
        term = parse(src)
        assert safety_check({}, term).level is Level.SAFE
        t = build_computation_tree({}, term)
        for tr in enumerate_traversals(t):
            assert reconstruct_p_pointers(uncover(tr), t) == tr


def test_kierstead_dichotomy():
    assert safety_check({}, KIERSTEAD).level is Level.SAFE
    assert safety_check({}, KIERSTEAD_TWIST).level is Level.UNSAFE_TYPABLE
    t = build_computation_tree({}, KIERSTEAD)
    tr = the_traversal(t)
    assert reconstruct_p_pointers(uncover(tr), t) == tr

    t = build_computation_tree({}, KIERSTEAD_TWIST)
    tr = the_traversal(t)
    back = reconstruct_p_pointers(uncover(tr), t)
    assert back != tr
    # the final x answers \x in the real traversal but the order rule
    # lands on the nearer \y, the pointer K would have used
    assert tr.occurrences[5].justifier == 2
    assert back.occurrences[5].justifier == 4


def test_order4_witness_and_safe_controls():
    assert safety_check({}, K4).level is Level.SAFE
    assert safety_check({}, D4).level is Level.SAFE
    assert safety_check({}, K4_TWIST).level is Level.UNSAFE_TYPABLE
    for term, survives in ((K4, True), (D4, True), (K4_TWIST, False)):
        t = build_computation_tree({}, term)
        traversals = enumerate_traversals(t)
        assert traversals
        for tr in traversals:
            back = reconstruct_p_pointers(uncover(tr), t)
            assert (back == tr) == survives, pretty(term)


def test_reconstruction_error_on_malformed_play():
    t = tree_of(r"\x:o. x")
    x_node = t.nodes[1]
    stray = play_of((PlayEntry(x_node, None, "P", "lam"),))
    with pytest.raises(ReconstructionError):
        reconstruct_p_pointers(stray, t)
    # an @ entry at position 0 would answer position -1
    t = tree_of(r"(\x:o. x) y", Y)
    app = next(n for n in t.nodes if isinstance(n, AppNode))
    stray = play_of((PlayEntry(app, None, parity(app), "lam"),))
    with pytest.raises(ReconstructionError) as err:
        reconstruct_p_pointers(stray, t)
    assert err.value.position == 0


def test_round_trip_keeps_rules_and_flags():
    t = tree_of(r"(\x:o. x) y", Y)
    tr = the_traversal(t)
    back = reconstruct_p_pointers(uncover(tr), t)
    assert [o.rule for o in back.occurrences] == [o.rule for o in tr.occurrences]
    assert back.maximal


def test_reconstruction_rejects_o_pointer_off_the_previous_position():
    # the engine reads the P-view as the whole prefix, which holds only
    # while every O pointer names the position just before it
    t = tree_of(r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    entries = list(uncover(the_traversal(t)).entries)
    assert entries[6].justifier == 5
    entries[6] = entries[6]._replace(justifier=0)
    with pytest.raises(ReconstructionError) as err:
        reconstruct_p_pointers(play_of(entries), t)
    assert err.value.position == 6


# --------------------------------------------------------------------------
# the engine against the breadth-first algorithm it replaced


def reference_traversals(tree, max_len):
    """Breadth first, rebuilding the P-view at every extension: O(L^2)."""

    def binder(occs, node):
        target = node.binder or tree.root
        return next(i for i in reversed(p_view_indices(occs)) if occs[i].node is target)

    def extensions(occs):
        if not occs:
            return [Occurrence(tree.root, None, "root")]
        here = len(occs) - 1
        node = occs[here].node
        if isinstance(node, LambdaNode):
            child = node.children[0]
            j = here if isinstance(child, AppNode) else binder(occs, child)
            return [Occurrence(child, j, "lam")]
        if isinstance(node, AppNode):
            return [Occurrence(node.children[0], here, "app")]
        if here in core_indices(occs):  # an input variable
            return [Occurrence(c, here, "ivar") for c in node.children]
        b = occs[here].justifier
        parent = occs[occs[b].justifier].node
        k = [n for n, _ in occs[b].node.binders].index(node.name)
        return [Occurrence(parent.children[k + isinstance(parent, AppNode)], here, "var")]

    done, frontier = [], deque([()])
    while frontier:
        occs = frontier.popleft()
        exts = extensions(occs)
        if not exts or len(occs) >= max_len:
            done.append(traversal_of(occs, maximal=not exts))
        else:
            frontier.extend(occs + (e,) for e in exts)
    return tuple(done)


def reference_reconstruct(play, tree):
    """Pointer reconstruction walking the P-view at every variable."""
    occs = []
    for i, e in enumerate(play.entries):
        node, j = e.node, e.justifier
        if isinstance(node, AppNode):
            j = i - 1
        elif isinstance(node, VarNode):
            view = p_view_indices(occs)[::-1]
            target = node.binder or tree.root
            j = next(k for k in view if occs[k].node is target)
            core = set(core_indices(occs))
            if j in core:
                j = next(
                    k
                    for k in view
                    if k in core
                    and isinstance(occs[k].node, LambdaNode)
                    and occs[k].node.order > node.order
                )
        occs.append(Occurrence(node, j, e.rule))
    return traversal_of(occs, play.maximal)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ReconstructionError, StopIteration):
        return "no pointer"


def assert_flat_form_matches(t):
    """The flat tuples against the per-occurrence views built from them."""
    assert traversal_of(t.occurrences, t.maximal) == t
    assert [i for i, flag in enumerate(t.core) if flag] == core_indices(t.occurrences)


def assert_matches_reference(tree, lengths=(1, 3, 7, 40, 200)):
    for max_len in lengths:
        got = enumerate_traversals(tree, max_len)
        assert got == reference_traversals(tree, max_len)
        for t in got:
            assert_flat_form_matches(t)
            play = uncover(t)
            assert play.entries == reference_uncover_entries(t)
            assert play_of(play.entries, play.maximal) == play
            back = outcome(reconstruct_p_pointers, play, tree)
            assert back == outcome(reference_reconstruct, play, tree)
            if isinstance(back, Traversal):
                assert_flat_form_matches(back)


def test_engine_matches_reference_on_hand_corpus():
    for e in HAND_CORPUS:
        if e.level is not Level.ILL_TYPED:
            assert_matches_reference(build_computation_tree(e.env, e.term))


@pytest.mark.parametrize("seed", [3, 17])
def test_engine_matches_reference_on_generated_corpus(seed):
    for term in generate_safe_corpus(300, seed):
        assert_matches_reference(build_computation_tree({}, term))


@hyp.settings(max_examples=300, deadline=None)
@hyp.given(terms)
def test_engine_matches_reference_on_closed_typed_terms(raw):
    free = tuple((n, GROUND) for n in sorted(raw.free_names))
    term = Abs(free, raw) if free else raw
    try:
        simple_type_of({}, term)
    except TypeCheckError:
        hyp.reject()
    assert_matches_reference(build_computation_tree({}, term))


@pytest.mark.parametrize("rung", [10, 12, 16, 20])
@pytest.mark.parametrize("connective", ["|", "&"])
def test_traversal_decides_the_alternating_ladder(rung, connective):
    t = build_computation_tree({}, ladder_term(rung, connective))
    names = [f"v{i + 1}" for i in range(rung)]
    quantifiers = "".join(
        f"{'forall' if i % 2 == 0 else 'exists'} {n}. " for i, n in enumerate(names)
    )
    f = parse_qbf(quantifiers + f" {connective} ".join(names))
    traversals = enumerate_traversals(t, max_len=1_000_000)
    assert all(tr.maximal for tr in traversals)
    assert all(reconstruct_p_pointers(uncover(tr), t) == tr for tr in traversals)
    want = eta_long({}, CHURCH_TRUE if eval_qbf(f) else CHURCH_FALSE)
    assert alpha_eq(traversal_normal_form(t, budget=1_000_000), want)



# --------------------------------------------------------------------------
# the tree built while expanding, against eta_long and a walk of its copy


def reference_tree(env, term):
    """The tree built the slow way: `eta_long` first, then a walk of the
    eta-long copy it makes."""
    expanded = eta_long(env, term)
    top = expanded.binders if isinstance(expanded, Abs) else ()
    free = expanded.free_names if env else ()
    root_order = max(
        [SimpleType(tuple(bty for _, bty in top)).order]
        + [env[n].order + 1 for n in free]
    )
    nodes = []
    scope = {}
    undo = []
    todo = [(expanded, root_order, 0, [])]
    while todo:
        t, order, mark, siblings = todo.pop()
        while len(undo) > mark:
            name, shadowed = undo.pop()
            if shadowed is None:
                del scope[name]
            else:
                scope[name] = shadowed
        while True:
            here = len(nodes)
            binders, body = (t.binders, t.body) if type(t) is Abs else ((), t)
            lam = LambdaNode(binders, order, here)
            for slot, (name, bty) in enumerate(binders):
                undo.append((name, scope.get(name)))
                scope[name] = (lam, slot, bty)
            siblings.append(lam)
            nodes.append(lam)
            head, args = (body, ()) if type(body) is Var else (body.head, body.args)
            if type(head) is Var:
                binder, slot, vty = scope.get(head.name) or (None, None, env[head.name])
                op = VarNode(head.name, vty, binder, slot, vty.order, here + 1, [])
                arg_types = vty.arguments
            else:
                head_ty = SimpleType(tuple(bty for _, bty in head.binders))
                op = AppNode(0, here + 1, [])
                args, arg_types = (head,) + args, (head_ty,) + head_ty.arguments
            lam.children = (op,)
            nodes.append(op)
            if not args:
                break
            for k in range(len(args) - 1, 0, -1):
                todo.append((args[k], arg_types[k].order, len(undo), op.children))
            t, order, siblings = args[0], arg_types[0].order, op.children
    for op in nodes[1::2]:
        op.children = tuple(op.children)
    return ComputationTree(nodes[0], tuple(nodes), expanded, dict(env))


def node_fields(tree):
    """Each node's fields, with its binder and children as ids."""
    assert tree.root is tree.nodes[0]
    rows = []
    for n in tree.nodes:
        binder = getattr(n, "binder", None)
        rows.append((
            n.kind,
            n.label,
            n.order,
            n.id,
            None if binder is None else binder.id,
            getattr(n, "slot", None),
            getattr(n, "ty", None),
            tuple(c.id for c in n.children),
        ))
        assert all(tree.nodes[c.id] is c for c in n.children)
        assert binder is None or tree.nodes[binder.id] is binder
    return rows


def built_or_error(build, env, term):
    try:
        return build(env, term)
    except TypeCheckError as e:
        return type(e), str(e)


def assert_builders_agree(env, term):
    got = built_or_error(build_computation_tree, env, term)
    want = built_or_error(reference_tree, env, term)
    if isinstance(want, tuple):
        assert got == want
        return
    assert node_fields(got) == node_fields(want)
    assert got.term == eta_long(env, term) == want.term


def test_builder_matches_reference_on_hand_corpus():
    for e in HAND_CORPUS:
        assert_builders_agree(e.env, e.term)


@pytest.mark.parametrize("seed", [3, 17])
def test_builder_matches_reference_on_generated_corpus(seed):
    for term in generate_safe_corpus(300, seed):
        assert_builders_agree({}, term)


@pytest.mark.parametrize("connective", ["|", "&"])
def test_builder_matches_reference_on_the_ladder(connective):
    for rung in range(2, 13):
        assert_builders_agree({}, ladder_term(rung, connective))


@hyp.settings(max_examples=300, deadline=None)
@hyp.given(terms)
def test_builder_matches_reference_on_closed_typed_terms(raw):
    free = tuple((n, GROUND) for n in sorted(raw.free_names))
    assert_builders_agree({}, Abs(free, raw) if free else raw)


def test_builder_matches_reference_on_eta_short_and_clashing_input():
    for src, env in (
        (r"\f:o->o. f", ""),
        (r"(\f:o->o. f) g y", "g:o->o, y:o"),
        (r"\_e1:o->o. _e1", ""),
        ("_e1", "_e1:o->o"),
        ("f", "f:(o->o)->o"),
        (r"\x:o. x x", ""),
        ("f a", "f:o->o"),
    ):
        assert_builders_agree(parse_env(env), parse(src))


@pytest.mark.parametrize("connective", ["|", "&"])
def test_ladder_tree_sizes_and_expansion_names(connective):
    sizes = {}
    for rung in (2, 4, 6, 8, 10, 12, 16, 20):
        tree = build_computation_tree({}, ladder_term(rung, connective))
        expanded = sum(
            name.startswith("_e")
            for n in tree.nodes
            if isinstance(n, LambdaNode)
            for name, _ in n.binders
        )
        sizes[rung] = (len(tree.nodes), expanded)
    assert sizes == {
        2: (122, 29),
        4: (332, 88),
        6: (614, 175),
        8: (968, 290),
        10: (1394, 433),
        12: (1892, 604),
        16: (3104, 1030),
        20: (4604, 1568),
    }


def test_expansion_names_avoid_every_name_of_the_input():
    t = tree_of(r"\_e1:o->o. _e1")
    assert [n.label for n in t.nodes] == ["\\_e1 _e2", "_e1", "\\", "_e2"]
    assert build_computation_tree(parse_env("_e1:o->o"), parse("_e1")).root.label == "\\_e2"
    t = build_computation_tree(parse_env("f:(o->o)->o"), parse("f"))
    assert t.root.order == 3
    assert pretty(t.term) == r"\_e1:o->o. f (\_e2:o. _e1 _e2)"


def test_hot_functions_make_no_cells():
    # a local read inside a comprehension or closure becomes a cell,
    # which every call allocates
    for fn in (
        syntax.mk_abs,
        games.build_computation_tree,
        games._build,
        games._term_of,
        games.traversal_normal_form,
        games._walk,
        reduction._subst,
        reduction._contract_block,
        reduction._plug,
        reduction._Reducer.step,
        syntax.Abs.__new__,
        syntax.App.__new__,
        safety.eta_types,
        games.enumerate_traversals,
        games.uncover,
        games.reconstruct_p_pointers,
    ):
        # a method that reads a bare `__class__` or calls `super()` gets a
        # free variable, not a cell of its own
        assert fn.__code__.co_cellvars == (), fn.__qualname__
        assert fn.__code__.co_freevars == (), fn.__qualname__


# --------------------------------------------------------------------------
# the eta-long type a typing walk keeps on a closed term


def eta_outputs(env, term):
    """What eta-expanding `term` gives: `eta_types`, the tree's node
    fields and `eta_long`, or the error."""
    try:
        canonical, ty, heads = eta_types(env, term)
        fields = node_fields(build_computation_tree(env, term))
        return canonical, ty, heads, fields, eta_long(env, term)
    except TypeCheckError as e:
        return type(e), str(e)


def first_walk(walk, env, term):
    try:
        walk(env, term)
    except TypeCheckError:
        pass


FIRST_WALKS = (safety_check, simple_type_of, eta_types)


def assert_kept_type_changes_no_output(env, term):
    want = eta_outputs(env, copy_term(term))
    for walk in FIRST_WALKS:
        t = copy_term(term)
        first_walk(walk, env, t)
        assert eta_outputs(env, t) == want, walk.__name__


def fact_populations():
    """The hand corpus with its environments, two generated corpora, ladder
    rungs 2-12 for both connectives and criterion 3's compiled polynomials."""
    out = [(e.env, e.term) for e in HAND_CORPUS]
    for seed in (3, 17):
        out += [({}, t) for t in generate_safe_corpus(300, seed)]
    for connective in "|&":
        out += [({}, ladder_term(rung, connective)) for rung in range(2, 13)]
    out += [({}, compile_polynomial(p)) for p in criterion3_polynomials()]
    return out


def test_kept_eta_type_changes_no_output_on_populations():
    for env, term in fact_populations():
        assert_kept_type_changes_no_output(env, term)


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(terms, st.dictionaries(names, types))
def test_kept_eta_type_changes_no_output_on_raw_terms(raw, env):
    free = tuple((n, GROUND) for n in sorted(raw.free_names))
    assert_kept_type_changes_no_output({}, Abs(free, raw) if free else raw)
    assert_kept_type_changes_no_output(env, raw)


def assert_kept_only_where_it_holds(env, term):
    """After each first walk the root keeps its eta-long type exactly when
    it is closed, canonical, eta-long and typed in the empty environment,
    and no other node keeps one."""
    try:  # the recursive references decide, not the walk under test
        ty = _reference_type_of(dict(env), term)
        holds = not env and term.canonical and _reference_eta_long(env, term) == term
    except TypeCheckError:
        holds = False
    for walk in FIRST_WALKS:
        t = copy_term(term)
        first_walk(walk, env, t)
        assert t.eta_type is (ty if holds else None), walk.__name__
        assert all(s.eta_type is None for s in subterms(t) if s is not t)


def test_eta_type_kept_only_on_closed_canonical_eta_long_terms():
    for env, term in fact_populations():
        assert_kept_only_where_it_holds(env, term)
        assert_kept_only_where_it_holds(parse_env("q:o"), term)
    for src, env in (
        (r"\x:o. \y:o. x", ""),  # not canonical, as parsed below
        (r"\f:o->o->o x:o. (f x) x", ""),  # eta-long, but not canonical as parsed below
        (r"\f:o->o. f", ""),  # an arrow-typed body
        (r"(\f:o->o x:o. f x) (\y:o. y)", ""),  # an arrow-typed root, not abstracted
        (r"(\x:o. x) ((\f:o->o. f) (\y:o. y) c)", "c:o"),  # open
        (r"\g:(o->o)->o. g (\y:o. y)", ""),
        (r"\x:o. x x", ""),  # ill-typed
    ):
        for canonical in (True, False):
            assert_kept_only_where_it_holds(parse_env(env), parse(src, canonical=canonical))


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(terms, st.dictionaries(names, types))
def test_eta_type_kept_only_where_it_holds_on_raw_terms(raw, env):
    free = tuple((n, GROUND) for n in sorted(raw.free_names))
    assert_kept_only_where_it_holds({}, Abs(free, raw) if free else raw)
    assert_kept_only_where_it_holds(env, raw)


def test_eta_type_not_kept_past_a_subterm_taken_as_typed():
    # the closed argument \x:o. x is typed first, so the check of the whole
    # takes it as typed without entering it and cannot tell it eta-long
    inner = parse(r"\x:o. x")
    term = Abs((("c", GROUND),), App(parse(r"\f:o->o. f c"), (inner,)))
    assert copy_term(term).canonical and eta_types({}, copy_term(term))[2] is None
    simple_type_of({}, inner)
    for walk in (safety_check, simple_type_of):
        walk({}, term)
        assert term.eta_type is None
    ty = eta_types({}, term)[1]
    assert term.eta_type is ty
    # and a walk under an environment keeps nothing
    other = copy_term(term)
    for walk in FIRST_WALKS:
        walk(parse_env("c:o"), other)
        assert other.eta_type is None


def counted_walks(monkeypatch):
    modes = []
    walk = safety._walk

    def counted(ctx, t, mode):
        modes.append(mode)
        return walk(ctx, t, mode)

    monkeypatch.setattr(safety, "_walk", counted)
    return modes


def test_checked_term_not_typed_again_for_its_tree_or_eta_long(monkeypatch):
    modes = counted_walks(monkeypatch)
    closed = [parse(r"\f:o->o x:o. f x"), church_nat(3), KIERSTEAD, *generate_safe_corpus(40, 7)]
    eta_long_terms = [t for t in closed if eta_types({}, copy_term(t))[2] is None]
    assert len(eta_long_terms) > 30
    for term in eta_long_terms:
        term = copy_term(term)
        safety_check({}, term)
        modes.clear()
        build_computation_tree({}, term)
        assert eta_long({}, term) is term
        assert modes == []
    for src, env, canonical in (
        ("f x", "f:o->o, x:o", True),  # open
        (r"\x:o. \y:o. x", "", False),  # not canonical
        (r"\f:o->o. f", "", True),  # not eta-long
        (r"\x:o. x", "y:o", True),  # a non-empty environment
    ):
        term, env = parse(src, canonical=canonical), parse_env(env)
        safety_check(env, term)
        for build in (build_computation_tree, eta_long):
            modes.clear()
            build(env, term)
            assert modes == [safety._ETA], (src, build.__name__)


def test_engine_records_equal_public_constructions_and_stay_frozen():
    tree = build_computation_tree({}, K4_TWIST)
    public = ComputationTree(tree.root, tree.nodes, tree.source, tree.env)
    assert tree == public and repr(tree) == repr(public)
    assert list(vars(tree)) == list(vars(public))
    assert "term" not in tree.__dict__
    records = [tree]
    for t in enumerate_traversals(tree):
        play = uncover(t)
        back = reconstruct_p_pointers(play, tree)
        for got in (t, back):
            want = Traversal(got.nodes, got.justifiers, got.rules, got.core, got.maximal)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert vars(got) == vars(want) and list(vars(got)) == list(vars(want))
        want = UncoveredPlay(play.nodes, play.justifiers, play.rules, play.maximal)
        assert play == want and hash(play) == hash(want) and repr(play) == repr(want)
        assert list(vars(play)) == list(vars(want))
        records += [t, play, back]
    for record in records:
        assert type(record) in (ComputationTree, Traversal, UncoveredPlay)
        with pytest.raises(FrozenInstanceError):
            record.nodes = ()
        with pytest.raises(FrozenInstanceError):
            del record.nodes


# --------------------------------------------------------------------------
# flat reprs


def test_node_reprs_are_flat():
    t = tree_of(r"(\x:o. x) y", Y)
    assert [repr(n) for n in t.nodes] == [
        "LambdaNode(id=0, label='\\\\', order=1, children=(1,))",  # y is free
        "AppNode(id=1, label='@', order=0, children=(2, 4))",
        "LambdaNode(id=2, label='\\\\x', order=1, children=(3,))",
        "VarNode(id=3, label='x', order=0, binder=2, children=())",
        "LambdaNode(id=4, label='\\\\', order=0, children=(5,))",
        "VarNode(id=5, label='y', order=0, binder=None, children=())",
    ]
    assert repr(t).startswith(f"ComputationTree(root={t.nodes[0]!r}, nodes=(")


def test_tree_reprs_print_each_node_once():
    tree = build_computation_tree({}, ladder_term(4, "&"))
    assert len(tree.nodes) == 332
    text = repr(tree)
    nodes = ", ".join(map(repr, tree.nodes))
    assert text == (
        f"ComputationTree(root={tree.root!r}, nodes=({nodes}), "
        f"source={tree.source!r}, env={{}})"
    )
    assert len(text) < 30_000  # about 2 MB when each variable printed its binder's subtree


def test_reprs_of_deep_numeral_tree_at_default_recursion_limit():
    numeral = church_nat(3000)
    tree = build_computation_tree({}, numeral)
    with recursion_limit(1_000):
        root = repr(tree.root)
        text = repr(tree)
    assert root == "LambdaNode(id=0, label='\\\\s z', order=2, children=(1,))"
    assert text.startswith(f"ComputationTree(root={root}, nodes=({root}, ")
