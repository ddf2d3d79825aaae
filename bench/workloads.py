"""The four benchmark workloads.

Each workload builds its inputs and reference answers from the seed in its
constructor; that is the set-up `setup_s` times.  The runner then cycles
through `items` in a closed loop: `prepare` makes the item's private copy
of its inputs (untimed, so no cached term field survives from one item to
the next), `run` does the timed work and raises on a failure, and
`counters` is the untimed counting pass that describes the inputs with
deterministic numbers.

Every call into safelc goes through `calls.span`, so a traced run can
time it; reference answers come from code outside the engine under test
(the brute-force QBF oracle, `Polynomial.evaluate`, the corpus labels).
"""

import itertools
import random
from collections import Counter
from functools import reduce

from safelc.corpus import HAND_CORPUS, generate_safe_corpus
from safelc.encodings import (
    Polynomial,
    church_nat,
    compile_polynomial,
    decode_nat,
    parse_polynomial,
)
from safelc.games import (
    build_computation_tree,
    enumerate_traversals,
    reconstruct_p_pointers,
    traversal_normal_form,
    uncover,
)
from safelc.hardness import (
    CHURCH_FALSE,
    CHURCH_TRUE,
    enumerate_qbfs,
    equality_instance,
    qbf_to_term,
)
from safelc.qbf import QBF, And, BoolVar, Or, Quantifier
from safelc.qbf_oracle import eval_qbf
from safelc.reduction import (
    BudgetExceededError,
    Strategy,
    beta_eta_equal,
    normalize,
    reduction_sequence,
)
from safelc.safety import Level, eta_long, safety_check
from safelc.syntax import Abs, App, Var, alpha_eq, mk_app, parse, pretty


class Mismatch(Exception):
    """An output disagreed with its reference answer."""


def fresh(term):
    """A structurally equal copy of `term` sharing no node with it."""
    if isinstance(term, Var):
        return Var(term.name)
    if isinstance(term, Abs):
        return Abs(term.binders, fresh(term.body))
    return App(fresh(term.head), tuple(fresh(a) for a in term.args))


def round_trip(traversals, tree):
    """True when erasing and reconstructing P pointers gives back every
    maximal traversal."""
    return all(
        reconstruct_p_pointers(uncover(t), tree) == t
        for t in traversals
        if t.maximal
    )


COUNTER_NAMES = (
    "syntax.parse_nodes",
    "reduction.plain_steps",
    "reduction.safe_steps",
    "reduction.peak_size",
    "reduction.nf_size",
    "games.traversals",
    "games.occurrences",
    "games.max_len",
)


class Counts(Counter):
    """Deterministic work counts, every name present even when zero."""

    def __init__(self):
        super().__init__({name: 0 for name in COUNTER_NAMES})

    def reductions(self, term, strategies):
        # reduction_sequence is the step-by-step reference engine, so the
        # counts describe the input whatever engine normalize uses
        for strategy in strategies:
            peak = self["reduction.peak_size"]
            try:
                for steps, t in enumerate(reduction_sequence(term, strategy)):
                    peak = max(peak, t.size)
                nf_size = t.size
            except BudgetExceededError as exc:  # counts up to the cut
                steps, nf_size, peak = exc.steps, 0, max(peak, exc.size)
            self[f"reduction.{strategy.value}_steps"] += steps
            self["reduction.peak_size"] = peak
            self["reduction.nf_size"] += nf_size

    def traversals(self, traversals):
        self["games.traversals"] += len(traversals)
        for t in traversals:
            self["games.occurrences"] += len(t)
            self["games.max_len"] = max(self["games.max_len"], len(t))


BOTH = (Strategy.PLAIN, Strategy.SAFE)


class Workload:
    """Defaults: items are labelled with the workload's name, and they
    hold no term whose cached fields could carry over between items, so
    they need no copy."""

    def label(self, item):
        return self.name

    def prepare(self, item):
        return item


class QbfEq(Workload):
    """Seeded draws from criterion 5's population, decided by equality."""

    name = "qbf-eq"
    population = 42_496  # len(enumerate_qbfs(3, 3))

    def __init__(self, seed, tiny, calls):
        pool = 32 if tiny else 1200
        rng = random.Random(seed)
        # one draw from each of `pool` equal slices of the enumeration,
        # which is ordered by prefix length and matrix size, so every seed
        # gets the same mix of small and large formulas
        cuts = [self.population * i // pool for i in range(pool + 1)]
        chosen = {rng.randrange(lo, hi) for lo, hi in zip(cuts, cuts[1:])}
        items = []
        seen = 0
        for i, f in enumerate(enumerate_qbfs(3, 3)):
            seen += 1
            if i in chosen:
                lhs, rhs = equality_instance(f)
                items.append((pretty(lhs), pretty(rhs), eval_qbf(f)))
        if seen != self.population:
            raise RuntimeError(f"criterion 5 population has {seen} formulas")
        rng.shuffle(items)
        self.items = items
        self.counted = items[: 16 if tiny else 256]

    def run(self, item, calls):
        lhs_text, rhs_text, holds = item
        lhs = calls.span("syntax.parse", parse, lhs_text)
        rhs = calls.span("syntax.parse", parse, rhs_text)
        verdict = calls.span("safety.safety_check", safety_check, {}, lhs)
        if verdict.level is not Level.SAFE:
            raise Mismatch(f"left side is {verdict.level}, not Safe")
        if calls.span("reduction.beta_eta_equal", beta_eta_equal, {}, lhs, rhs) != holds:
            raise Mismatch("beta-eta equality disagrees with the QBF oracle")

    def counters(self):
        c = Counts()
        for lhs_text, rhs_text, _ in self.counted:
            for text in (lhs_text, rhs_text):
                term = parse(text)
                c["syntax.parse_nodes"] += term.size
                c.reductions(term, BOTH)
        return c


def criterion3_polynomials():
    """The 94 polynomials of acceptance criterion 3, built the same way:
    the worked example, the constants 0..5, each single monomial of degree
    1..3 with coefficient 1, 2 or 5, and 30 random ones drawn with seed
    2026."""
    polys = [parse_polynomial("x^2*y + 3*x + 2")]
    polys += [Polynomial((), {(): c} if c else {}) for c in range(6)]
    names = ("x", "y", "z")
    for k in (1, 2, 3):
        for e in itertools.product(range(4), repeat=k):
            if 0 < sum(e) <= 3 and e[-1] > 0:  # new shapes only at this k
                polys += [Polynomial(names[:k], {e: c}) for c in (1, 2, 5)]
    rng = random.Random(2026)
    for _ in range(30):
        k = rng.randrange(1, 4)
        vectors = [
            e for e in itertools.product(range(4), repeat=k) if 0 < sum(e) <= 3
        ]
        chosen = rng.sample(vectors, k=min(len(vectors), rng.randrange(2, 4)))
        polys.append(Polynomial(names[:k], {e: rng.randrange(1, 6) for e in chosen}))
    return polys


class PolyGrid(Workload):
    """Criterion 3's population: every (polynomial, point) pair, each
    polynomial at every point of {0..3}^k."""

    name = "poly-grid"
    population = 3214

    def __init__(self, seed, tiny, calls):
        # The whole population makes every pass, in an order the seed sets.
        # A seeded sample would not be steady: the heaviest 1% of pairs
        # costs 110-330 ms each, so over draws of 1,000 pairs p99 has an
        # interquartile range of 16% of its median across seeds.
        items = [
            (p, point, p.evaluate(dict(zip(p.variables, point))))
            for p in criterion3_polynomials()
            for point in itertools.product(range(4), repeat=len(p.variables))
        ]
        if len(items) != self.population:
            raise RuntimeError(f"criterion 3 population has {len(items)} pairs")
        if tiny:
            items = items[::50]
        random.Random(seed).shuffle(items)
        self.items = items
        self.counted = items[: 16 if tiny else 128]

    def run(self, item, calls):
        p, point, value = item
        term = calls.span("encodings.compile", compile_polynomial, p)
        applied = mk_app(term, tuple(church_nat(v) for v in point))
        plain = calls.span("reduction.normalize_plain", normalize, applied, Strategy.PLAIN)
        safe = calls.span("reduction.normalize_safe", normalize, applied, Strategy.SAFE)
        for nf in (plain, safe):
            if calls.span("encodings.decode", decode_nat, nf) != value:
                raise Mismatch(f"p{point} decodes wrong, expected {value}")

    def counters(self):
        c = Counts()
        for p, point, _ in self.counted:
            applied = mk_app(
                compile_polynomial(p), tuple(church_nat(v) for v in point)
            )
            c.reductions(applied, BOTH)
        return c


def ladder_qbf(rung, connective):
    """forall v1 exists v2 forall v3 ... . v1 op v2 op ... op v<rung>"""
    names = [f"v{i + 1}" for i in range(rung)]
    prefix = tuple(
        (Quantifier.FORALL if i % 2 == 0 else Quantifier.EXISTS, name)
        for i, name in enumerate(names)
    )
    return QBF(prefix, reduce(connective, [BoolVar(n) for n in names]))


class QbfLadder(Workload):
    """Alternating QBFs of growing depth, decided by both engines."""

    name = "qbf-ladder"
    max_len = 20_000  # far above the longest traversal (4,678 at rung 8)
    # a pass up to rung 8 takes about 4.5 s, so a 20 s run makes four;
    # rung 10 alone would take about 18 s
    games_rungs = (2, 4, 6, 8)

    def __init__(self, seed, tiny, calls):
        engines = (
            ("traversal", self.games_rungs[:2] if tiny else self.games_rungs),
            # tiny keeps rungs 11 and 12, the known budget failures
            ("reduction", (2, 3, 4, 11, 12) if tiny else range(2, 13)),
        )
        items = []
        for engine, rungs in engines:
            for rung in rungs:
                for connective in (Or, And):
                    f = ladder_qbf(rung, connective)
                    boolean = CHURCH_TRUE if eval_qbf(f) else CHURCH_FALSE
                    label = f"{engine}/{connective.__name__.lower()}/r{rung}"
                    items.append((label, engine, qbf_to_term(f), eta_long({}, boolean)))
        random.Random(seed).shuffle(items)
        self.items = items
        self.counted = items

    def label(self, item):
        return item[0]

    def prepare(self, item):
        _, engine, term, want = item
        return engine, fresh(term), want

    def run(self, job, calls):
        engine, term, want = job
        if engine == "reduction":
            nf = calls.span("reduction.normalize_safe", normalize, term, Strategy.SAFE)
            got = calls.span("safety.eta_long", eta_long, {}, nf)
        else:
            tree = calls.span("games.tree_build", build_computation_tree, {}, term)
            traversals = calls.span(
                "games.enumerate", enumerate_traversals, tree, self.max_len
            )
            calls.tag(sum(len(t) for t in traversals))
            if not calls.span("games.reconstruct", round_trip, traversals, tree):
                raise Mismatch("pointer reconstruction is not the identity")
            got = calls.span(
                "games.normal_form", traversal_normal_form, tree, self.max_len
            )
        if not calls.span("syntax.alpha_eq", alpha_eq, got, want):
            raise Mismatch("normal form is not the oracle's Church boolean")

    def counters(self):
        c = Counts()
        for _, engine, term, _ in self.counted:
            if engine == "reduction":
                c.reductions(term, BOTH)
            else:
                tree = build_computation_tree({}, term)
                c.traversals(enumerate_traversals(tree, self.max_len))
        return c


class SafeCorpus(Workload):
    """`safelc corpus`'s checks, term by term, over generated Safe terms
    and the hand corpus."""

    name = "safe-corpus"
    reconstruct_len = 40  # the corpus suite's traversal length cut

    def __init__(self, seed, tiny, calls):
        generated = calls.span(
            "corpus.generate", generate_safe_corpus, 50 if tiny else 15_000, seed
        )
        items = [(term, Level.SAFE, {}) for term in generated]
        items += [(e.term, e.level, e.env) for e in HAND_CORPUS]
        random.Random(seed).shuffle(items)
        self.items = items
        self.counted = items[: 64 if tiny else 2000]

    def prepare(self, item):
        term, level, env = item
        return fresh(term), level, env

    def run(self, job, calls):
        term, level, env = job
        verdict = calls.span("safety.safety_check", safety_check, env, term)
        if verdict.level is not level:
            raise Mismatch(f"verdict {verdict.level}, corpus says {level}")
        plain = None
        if level is Level.SAFE:
            safe = calls.span("reduction.normalize_safe", normalize, term, Strategy.SAFE)
            plain = calls.span("reduction.normalize_plain", normalize, term, Strategy.PLAIN)
            if not calls.span("syntax.alpha_eq", alpha_eq, safe, plain):
                raise Mismatch("plain and safe normal forms differ")
        if level is Level.ILL_TYPED or env:
            return
        tree = calls.span("games.tree_build", build_computation_tree, {}, term)
        if plain is None:
            plain = calls.span("reduction.normalize_plain", normalize, term, Strategy.PLAIN)
        want = calls.span("safety.eta_long", eta_long, {}, plain)
        got = calls.span("games.normal_form", traversal_normal_form, tree)
        if not calls.span("syntax.alpha_eq", alpha_eq, got, want):
            raise Mismatch("traversal normal form differs from reduction's")
        if level is Level.SAFE:
            traversals = calls.span(
                "games.enumerate", enumerate_traversals, tree, self.reconstruct_len
            )
            calls.tag(sum(len(t) for t in traversals))
            if not calls.span("games.reconstruct", round_trip, traversals, tree):
                raise Mismatch("pointer reconstruction is not the identity")

    def counters(self):
        c = Counts()
        for term, level, env in self.counted:
            if level is Level.ILL_TYPED:
                continue
            c.reductions(term, BOTH if level is Level.SAFE else (Strategy.PLAIN,))
            if level is Level.SAFE and not env:
                tree = build_computation_tree({}, term)
                c.traversals(enumerate_traversals(tree, self.reconstruct_len))
        return c


WORKLOADS = {w.name: w for w in (QbfEq, PolyGrid, QbfLadder, SafeCorpus)}
