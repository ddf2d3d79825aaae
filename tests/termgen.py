"""Hypothesis strategies and helpers shared by the test modules.

The strategies generate arbitrary raw ASTs (frequently ill-typed,
frequently non-canonical); the seeded generator of well-typed Safe terms
lives in safelc.corpus and is exercised separately.
"""

import itertools
import random
import sys
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest

from safelc.encodings import Polynomial, parse_polynomial
from safelc.syntax import GROUND, Abs, App, SimpleType, Term, Var, subterms

names = st.sampled_from("a b c d f g h x y z".split())

types = st.recursive(
    st.just(GROUND),
    lambda t: st.builds(lambda args: SimpleType(tuple(args)), st.lists(t, min_size=1, max_size=2)),
    max_leaves=4,
)


def _abs(binders, body):
    return Abs(tuple(binders), body)


def _app(head, args):
    return App(head, tuple(args))


def term_strategy(names, max_leaves: int):
    """Raw terms over the variable and binder names `names` draws."""
    return st.recursive(
        st.builds(Var, names),
        lambda sub: st.one_of(
            st.builds(
                _abs,
                st.lists(st.tuples(names, types), min_size=1, max_size=2, unique_by=lambda b: b[0]),
                sub,
            ),
            st.builds(_app, sub, st.lists(sub, min_size=1, max_size=2)),
        ),
        max_leaves=max_leaves,
    )


terms = term_strategy(names, 10)


def copy_term(term: Term) -> Term:
    """A structurally equal copy of `term` sharing no node with it."""
    if isinstance(term, Var):
        return Var(term.name)
    if isinstance(term, Abs):
        return Abs(term.binders, copy_term(term.body))
    return App(copy_term(term.head), tuple(copy_term(a) for a in term.args))


def is_canonical(term: Term) -> bool:
    """No Abs directly under an Abs body, and no App as an App head."""
    for t in subterms(term):
        if isinstance(t, Abs) and isinstance(t.body, Abs):
            return False
        if isinstance(t, App) and isinstance(t.head, App):
            return False
    return True


def homogeneity_check(t: SimpleType) -> bool:
    """True iff argument orders are non-increasing, hereditarily."""
    orders = [a.order for a in t.arguments]
    if any(orders[i] < orders[i + 1] for i in range(len(orders) - 1)):
        return False
    return all(homogeneity_check(a) for a in t.arguments)


@contextmanager
def recursion_limit(limit: int):
    """Run the block at `limit`, Python's default being 1,000.

    An overflow in the block fails the test with a one-line message: a
    traceback about `limit` frames deep would take pytest minutes and
    hundreds of megabytes to format.
    """
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    except RecursionError:
        raise pytest.fail.Exception(
            f"overflowed at recursion limit {limit}", pytrace=False
        ) from None
    finally:
        sys.setrecursionlimit(saved)


def criterion3_polynomials() -> list[Polynomial]:
    """The polynomials of acceptance criterion 3: the worked example, the
    constants 0..5, each single monomial of degree 1..3 with coefficient
    1, 2 or 5, and 30 random ones drawn with seed 2026."""
    polys = [parse_polynomial("x^2*y + 3*x + 2")]
    for c in range(6):  # constants, including zero
        polys.append(Polynomial((), {(): c} if c else {}))
    names = ("x", "y", "z")
    for k in (1, 2, 3):
        variables = names[:k]
        vectors = [
            e
            for e in itertools.product(range(4), repeat=k)
            if 0 < sum(e) <= 3 and e[-1] > 0  # new shapes only at this k
        ]
        for e in vectors:
            for coeff in (1, 2, 5):
                polys.append(Polynomial(variables, {e: coeff}))
    rng = random.Random(2026)
    for _ in range(30):
        k = rng.randrange(1, 4)
        variables = names[:k]
        vectors = [
            e
            for e in itertools.product(range(4), repeat=k)
            if 0 < sum(e) <= 3
        ]
        chosen = rng.sample(vectors, k=min(len(vectors), rng.randrange(2, 4)))
        polys.append(
            Polynomial(
                variables, {e: rng.randrange(1, 6) for e in chosen}
            )
        )
    return polys
