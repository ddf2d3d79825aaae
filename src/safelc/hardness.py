r"""Compiling closed QBFs to safe terms whose normal form decides them.

The target type is the Church booleans B = o->o->o with

    TRUE  = \x:o y:o. x        FALSE = \x:o y:o. y

and connective gadgets that stay safe because every subterm lives at
order <= 1 under closed order-2 abstractions.  A quantifier over the
innermost remaining variable becomes a binder G that receives the rest of
the formula ONCE and samples it at TRUE and at FALSE:

    forall: \G:B^k->B v1..v_{k-1}:B. AND (G v TRUE) (G v FALSE)

so the emitted term grows quadratically in the quantifier count instead
of exponentially, and `qbf_to_term(f)` normalizes to TRUE exactly when
the brute-force oracle says f holds.  Every emitted term is plain Safe.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .qbf import (
    And,
    BoolVar,
    Formula,
    Not,
    Or,
    QBF,
    Quantifier,
)
from .syntax import GROUND, Abs, App, SimpleType, Term, Var, arrow, parse, rename_reserved

BOOL = arrow(GROUND, GROUND, GROUND)

CHURCH_TRUE = parse(r"\x:o y:o. x")
CHURCH_FALSE = parse(r"\x:o y:o. y")

AND_GADGET = parse(r"\p:o->o->o q:o->o->o x:o y:o. p (q x y) y")
OR_GADGET = parse(r"\p:o->o->o q:o->o->o x:o y:o. p x (q x y)")
NOT_GADGET = parse(r"\p:o->o->o x:o y:o. p y x")

# binder names the templates introduce; formula variables that collide get
# primed so each name keeps one type inside the emitted term
_RESERVED = frozenset({"p", "q", "x", "y", "G"})


def _boolean_function_type(k: int) -> SimpleType:
    return arrow(*([BOOL] * k), BOOL)


def _compile_matrix(f: Formula, names: dict[str, str]) -> Term:
    if isinstance(f, BoolVar):
        return Var(names[f.name])
    if isinstance(f, Not):
        return App(NOT_GADGET, (_compile_matrix(f.operand, names),))
    if isinstance(f, And):
        gadget = AND_GADGET
    elif isinstance(f, Or):
        gadget = OR_GADGET
    else:
        raise TypeError(f"not a formula: {f!r}")
    return App(
        gadget,
        (_compile_matrix(f.left, names), _compile_matrix(f.right, names)),
    )


def qbf_to_term(f: QBF) -> Term:
    """A closed Safe term of type o->o->o normalizing to TRUE iff f holds.

    Quantifiers fold from the inside out; step k wraps the current
    B^k -> B term in the sampling gadget for quantifier k, so the result
    has size O(q^2 + |matrix|).
    """
    names = rename_reserved([name for _, name in f.prefix], _RESERVED)
    binders = tuple((names[name], BOOL) for _, name in f.prefix)
    term: Term = Abs(binders, _compile_matrix(f.matrix, names))
    for k in range(len(f.prefix) - 1, -1, -1):
        quant, _ = f.prefix[k]
        outer = tuple(Var(names[f.prefix[i][1]]) for i in range(k))
        connective = AND_GADGET if quant is Quantifier.FORALL else OR_GADGET
        body = App(
            connective,
            (
                App(Var("G"), outer + (CHURCH_TRUE,)),
                App(Var("G"), outer + (CHURCH_FALSE,)),
            ),
        )
        gadget_binders = (("G", _boolean_function_type(k + 1)),) + tuple(
            (names[f.prefix[i][1]], BOOL) for i in range(k)
        )
        term = App(Abs(gadget_binders, body), (term,))
    return term


def equality_instance(f: QBF) -> tuple[Term, Term]:
    """A term pair that is beta-eta equal exactly when f holds."""
    return qbf_to_term(f), CHURCH_TRUE


# --------------------------------------------------------------------------
# instance generation


def _variable_names(count: int) -> tuple[str, ...]:
    return tuple(f"v{i + 1}" for i in range(count))


def enumerate_matrices(
    names: tuple[str, ...], max_connectives: int
) -> Iterator[Formula]:
    """All formulas over `names` with at most max_connectives connectives."""
    by_count: list[list[Formula]] = [[BoolVar(n) for n in names]]
    for c in range(1, max_connectives + 1):
        level: list[Formula] = [Not(g) for g in by_count[c - 1]]
        for i in range(c):
            for left in by_count[i]:
                for right in by_count[c - 1 - i]:
                    level.append(And(left, right))
                    level.append(Or(left, right))
        by_count.append(level)
    for level in by_count:
        yield from level


def enumerate_qbfs(
    max_quantifiers: int = 3, max_connectives: int = 3
) -> Iterator[QBF]:
    """Every closed QBF over canonical variable names v1, v2, ... with the
    given prefix and matrix bounds; deterministic order."""
    for m in range(1, max_quantifiers + 1):
        names = _variable_names(m)
        matrices = list(enumerate_matrices(names, max_connectives))
        for quants in itertools.product(
            (Quantifier.FORALL, Quantifier.EXISTS), repeat=m
        ):
            prefix = tuple(zip(quants, names))
            for matrix in matrices:
                yield QBF(prefix, matrix)
