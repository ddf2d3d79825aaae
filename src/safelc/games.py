r"""Computation trees and traversals.

A well-typed term unfolds, after full eta-expansion, into a computation
tree whose levels alternate between lambda nodes and variable/application
nodes.  The tree is expanded as it is built, with no eta-long copy: this
is the one eta-expansion, and the tree's `term` and `eta_long` read the
eta-long form off its nodes.  Walking the
tree under the traversal rules simulates evaluation without performing a
single substitution; justification pointers do the bookkeeping that
renaming would otherwise do.  One depth-first walk over a shared prefix
finds every traversal: `enumerate_traversals` copies each one out, and
`traversal_normal_form` copies none, assembling the beta-eta-normal form
from the cores of the maximal traversals, which spell out its branches,
as the walk reaches them.  `uncover` / `reconstruct_p_pointers` probe
when the pointers carried by variable occurrences are redundant.

A traversal is stored flat, as parallel tuples: its nodes, their
justifiers (back-indices) and the rules that licensed them, plus the
core flags the walk computes on the way.  An uncovered play shares the
node and rule tuples of its traversal and has a justifier tuple of its
own, so walking, enumerating, uncovering and reconstructing allocate no
object per occurrence.  The per-step views, `Occurrence` and
`PlayEntry`, are built only when `occurrences` or `entries` is read.

The root lambda node stands in for the context: free variables answer to
it, and its order accounts for the types of the free names so that order
comparisons against it behave as if the context were abstracted.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import NamedTuple, Optional, Union

from .reduction import BudgetExceededError
from .safety import eta_types
from .syntax import (
    Abs,
    App,
    Binder,
    SimpleType,
    Term,
    TypeEnv,
    Var,
    all_names,
    fresh_names,
    mk_abs,
    mk_app,
)

# node kinds, a class constant of each node type
LAM, APP, VAR = 0, 1, 2

# the traversal length at which enumeration and read-back stop by default
_DEFAULT_MAX_LEN = 200

# the engine builds its frozen records (`ComputationTree`, `Traversal`,
# `UncoveredPlay`) as `safety_check` builds a verdict: a bare object and
# its instance dict filled in field order, which skips the dataclass
# `__init__` and its `object.__setattr__` per field
_new = object.__new__


class _Node:
    """A tree node's repr is flat: its id, label and order, its binder's
    id and its children's ids, so printing a node or a tree of any depth
    neither recurses nor prints a subtree twice."""

    def __repr__(self) -> str:
        binder = ""
        if self.kind == VAR:
            binder = f", binder={None if self.binder is None else self.binder.id}"
        children = tuple(c.id for c in self.children)
        return (
            f"{type(self).__name__}(id={self.id}, label={self.label!r}, "
            f"order={self.order}{binder}, children={children})"
        )


@dataclass(eq=False, repr=False)
class LambdaNode(_Node):
    binders: tuple[Binder, ...]
    order: int
    id: int
    children: tuple["TreeNode", ...] = ()

    kind = LAM

    @property
    def label(self) -> str:
        names = " ".join(n for n, _ in self.binders)
        return "\\" + names if names else "\\"


@dataclass(eq=False, repr=False)
class AppNode(_Node):
    order: int
    id: int
    children: tuple["TreeNode", ...] = ()

    kind = APP
    label = "@"


@dataclass(eq=False, repr=False)
class VarNode(_Node):
    name: str
    ty: SimpleType
    binder: Optional[LambdaNode]  # None = free in the source term
    slot: Optional[int]  # position in the binder's block; None when free
    order: int
    id: int
    children: tuple["TreeNode", ...] = ()

    kind = VAR

    @property
    def label(self) -> str:
        return self.name


TreeNode = Union[LambdaNode, AppNode, VarNode]


@dataclass(frozen=True)
class ComputationTree:
    root: LambdaNode
    nodes: tuple[TreeNode, ...]  # pre-order; nodes[i].id == i
    source: Term  # the canonical input, eta-expanded while the tree was built
    env: dict

    @cached_property
    def term(self) -> Term:
        """The eta-long form the tree is the tree of, read off its nodes
        when first read: the source itself when that is eta-long."""
        term = _term_of(self)
        return self.source if term == self.source else term


def build_computation_tree(env: TypeEnv, term: Term) -> ComputationTree:
    """Tree of the eta-long form of `term`, with binder links resolved.

    Lambda nodes alternate with variable/application nodes; ground-typed
    arguments get an empty lambda node above them so the alternation
    holds everywhere.  Where a lambda's type has more arguments than the
    term there has binders, the node gets fresh binders, drawn in
    pre-order, each passed on as an argument of the body's head.  Type
    errors surface before any node is built.
    """
    return _build(env, *eta_types(env, term))  # the one type check


def _build(env: TypeEnv, term: Term, ty: SimpleType, heads: Optional[list]) -> ComputationTree:
    """The tree of canonical `term`, of type `ty`, given what `eta_types` gives."""
    heads = iter(heads or ())  # None when eta-long: binders then give the types
    fresh = None  # the supply of expansion names, made when the first is needed
    nodes: list[TreeNode] = []
    # one scope for the whole build: name -> (binder, slot, type), with a
    # log of the entries each binding shadowed, undone on the way back up
    scope: dict[str, tuple[LambdaNode, int, SimpleType]] = {}
    undo: list[tuple[str, Optional[tuple]]] = []
    # lambda positions still to build: (term or expansion name, its type, the
    # log length of its scope, the parent's children, a list until the end)
    todo = [(term, ty, 0, [])]
    while todo:
        t, ty, mark, siblings = todo.pop()
        while len(undo) > mark:
            name, shadowed = undo.pop()
            if shadowed is None:
                del scope[name]
            else:
                scope[name] = shadowed
        while True:
            here = len(nodes)
            binders, body = (t.binders, t.body) if type(t) is Abs else ((), t)
            head, args = (body.head, body.args) if type(body) is App else (body, ())
            if type(head) is Var:
                head = head.name  # as an expansion name stands for its variable
            wanted = ty.arguments[len(binders):]
            if wanted:
                if fresh is None:
                    fresh = fresh_names("_e", set(all_names(term)).union(env))
                extra = tuple(islice(fresh, len(wanted)))
                binders += tuple(zip(extra, wanted))
                args += extra
            lam = LambdaNode(binders, ty.order, here)
            for slot, (name, bty) in enumerate(binders):
                undo.append((name, scope.get(name)))
                scope[name] = (lam, slot, bty)
            siblings.append(lam)
            nodes.append(lam)
            if type(head) is str:
                binder, slot, vty = scope.get(head) or (None, None, env[head])
                op = VarNode(head, vty, binder, slot, vty.order, here + 1, [])
                arg_types = vty.arguments
            else:
                # redex: the operator is an abstraction, kept under an @ node
                head_ty = next(heads, None) or SimpleType(tuple(bty for _, bty in head.binders))
                op = AppNode(0, here + 1, [])
                args, arg_types = (head,) + args, (head_ty,) + head_ty.arguments
            lam.children = (op,)
            nodes.append(op)
            if not args:
                break
            for k in range(len(args) - 1, 0, -1):
                todo.append((args[k], arg_types[k], len(undo), op.children))
            t, ty, siblings = args[0], arg_types[0], op.children
    # pre-order puts each lambda right before its one child, so the
    # variable and @ nodes, whose children are still lists, sit at odd ids
    for op in nodes[1::2]:
        op.children = tuple(op.children)
    root = nodes[0]  # it stands for the context: free names raise its order
    for n in term.free_names if env else ():  # none in an empty env
        root.order = max(root.order, env[n].order + 1)
    tree = _new(ComputationTree)
    tree.__dict__.update(root=root, nodes=tuple(nodes), source=term, env=dict(env))
    return tree


def _term_of(tree: ComputationTree) -> Term:
    """The term `tree` is the tree of, built bottom-up in plain loops, so
    with neither recursion nor a cell: in reverse pre-order each node
    comes after its subtrees, whose terms then top a stack, first on top."""
    done: list[Term] = []
    for node in reversed(tree.nodes):
        if node.kind == LAM:
            if node.binders:
                done.append(Abs(node.binders, done.pop()))
            continue
        n = len(node.children)
        parts = done[:-n - 1:-1]  # the children's terms, in order
        del done[len(done) - n:]
        if node.kind == VAR:
            head = Var(node.name)
            done.append(App(head, tuple(parts)) if parts else head)
        else:  # @: the operator, an abstraction, applied to the rest
            done.append(App(parts[0], tuple(parts[1:])))
    return done[0]


# --------------------------------------------------------------------------
# traversals


class Occurrence(NamedTuple):
    node: TreeNode
    justifier: Optional[int]  # back-index; None only for the root
    rule: str  # which rule licensed this occurrence


@dataclass(frozen=True)
class Traversal:
    """A justified sequence of tree nodes, as parallel tuples.

    `core` holds, per position, whether the justification chain never
    crosses an @ occurrence: the core is the external part of the
    traversal, which spells a branch of the normal form.  It follows from
    the nodes and justifiers, so equality and hash leave it out."""

    nodes: tuple[TreeNode, ...]
    justifiers: tuple[Optional[int], ...]  # back-indices; None only for the root
    rules: tuple[str, ...]  # which rule licensed each occurrence
    core: tuple[bool, ...] = field(compare=False, repr=False)
    maximal: bool = True  # False when cut off by the length budget

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def occurrences(self) -> tuple[Occurrence, ...]:
        return tuple(map(Occurrence, self.nodes, self.justifiers, self.rules))


def parity(node: TreeNode) -> str:
    """Lambda occurrences are O-moves, everything else is a P-move."""
    return "O" if node.kind == LAM else "P"


def p_view_indices(occurrences) -> list[int]:
    """Indices of the P-view of the sequence, ending at its last element.

    Walk backwards: from a lambda occurrence jump to its justifier, from
    any other occurrence step to the element just before it; stop at the
    initial occurrence.  Every rule justifies a non-root lambda
    occurrence by the occurrence just before it, so on a traversal (or a
    prefix of one) the view is the whole sequence; the engine below
    relies on that instead of building views.
    """
    if not occurrences:
        return []
    i = len(occurrences) - 1
    out = [i]
    while occurrences[i].justifier is not None:
        if occurrences[i].node.kind == LAM:
            i = occurrences[i].justifier
        else:
            i -= 1
        out.append(i)
    out.reverse()
    return out


def _walk(tree: ComputationTree, max_len: int):
    """Walk every traversal depth first over one shared prefix.

    At each finished traversal yield the live prefix as parallel lists
    (nodes, justifiers, rules and core flags), whether it is maximal, and
    how many positions it shares with the traversal yielded before it;
    the lists are the walk's own and change once the walk resumes.
    Children of an input variable are explored in order, so traversals
    come in the pre-order of the branches they spell.

    Every rule alternates lambda and non-lambda nodes, so lambda
    occurrences sit at the even positions and each turn of the loop takes
    one of each.  As every P-view is the whole prefix (see
    `p_view_indices`), a variable's binder is the latest occurrence of
    its lambda node, kept in a table undone on backtrack, and a variable
    is an input when its binder's occurrence is in the core: O(1)
    amortised per occurrence.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    root = tree.root
    last = max_len - 1  # the position at which a traversal is cut
    nodes: list[TreeNode] = []
    justs: list[Optional[int]] = []
    rules: list[str] = []
    core: list[bool] = []  # no @ on the justification chain
    latest = [-1] * len(tree.nodes)  # lambda node id -> its latest position
    shadowed: list[int] = []  # per lambda occurrence, the entry it replaced
    add_node, add_just, add_rule = nodes.append, justs.append, rules.append
    add_core, add_shadowed = core.append, shadowed.append
    # branches still to walk, each resuming at a lambda node:
    # (prefix length, the lambda, its justifier, its rule)
    pending = [(0, root, None, "root")]
    while pending:
        here, lam, j, rule = pending.pop()
        depth = here
        for k in range(len(shadowed) - 1, depth // 2 - 1, -1):
            latest[nodes[2 * k].id] = shadowed[k]
        del nodes[depth:], justs[depth:], rules[depth:], core[depth:]
        del shadowed[depth // 2:]
        while True:
            # the O move: a lambda, justified by the occurrence before it
            add_node(lam)
            add_just(j)
            add_rule(rule)
            add_core(j is None or core[j])
            add_shadowed(latest[lam.id])
            latest[lam.id] = here
            if here == last:
                yield nodes, justs, rules, core, False, depth
                break
            # the P move: the lambda's child
            node = lam.children[0]
            here += 1
            add_node(node)
            add_rule("lam")
            if node.kind == APP:
                add_just(here - 1)
                add_core(False)
                lam, j, rule = node.children[0], here, "app"
            else:
                j = latest[(node.binder or root).id]
                if j < 0:
                    raise ValueError(f"binder of {node.name} missing from the view")
                add_just(j)
                if core[j]:
                    # an input: the environment may answer with any argument
                    add_core(True)
                    children = node.children
                    if not children:
                        yield nodes, justs, rules, core, True, depth
                        break
                    if len(children) > 1 and here != last:
                        for c in reversed(children[1:]):  # no cell for `here`
                            pending.append((here + 1, c, here, "ivar"))
                    lam, j, rule = children[0], here, "ivar"
                else:
                    # internal variable: the next lambda is the argument
                    # standing for it, found under the occurrence its binder
                    # points back to
                    add_core(False)
                    parent = nodes[justs[j]]
                    lam = parent.children[node.slot + (parent.kind == APP)]
                    j, rule = here, "var"
            if here == last:
                yield nodes, justs, rules, core, False, depth
                break
            here += 1


def enumerate_traversals(
    tree: ComputationTree, max_len: int = _DEFAULT_MAX_LEN
) -> tuple[Traversal, ...]:
    """All maximal traversals in canonical order: by length, then by the
    child order at the first choice where two part, as a breadth-first
    walk finds them.  Traversals that could still grow at max_len come
    back with maximal=False.

    One depth-first walk (`_walk`) finds them; each is copied into
    tuples as it finishes, and a stable sort by length restores the
    canonical order.
    """
    done = []
    for nodes, justs, rules, core, maximal, _ in _walk(tree, max_len):
        t = _new(Traversal)
        t.__dict__.update(
            nodes=tuple(nodes), justifiers=tuple(justs), rules=tuple(rules), core=tuple(core), maximal=maximal
        )
        done.append(t)
    done.sort(key=len)
    return tuple(done)


# --------------------------------------------------------------------------
# uncovering and pointer reconstruction


class PlayEntry(NamedTuple):
    node: TreeNode
    justifier: Optional[int]  # erased (None) on P entries
    parity: str
    rule: str


@dataclass(frozen=True)
class UncoveredPlay:
    """A traversal with the justifiers of its P moves erased."""

    nodes: tuple[TreeNode, ...]
    justifiers: tuple[Optional[int], ...]  # None on P moves
    rules: tuple[str, ...]
    maximal: bool = True

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def entries(self) -> tuple[PlayEntry, ...]:
        return tuple(
            PlayEntry(node, j, parity(node), rule)
            for node, j, rule in zip(self.nodes, self.justifiers, self.rules)
        )


class ReconstructionError(Exception):
    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position


def uncover(t: Traversal) -> UncoveredPlay:
    """Erase the justifiers of P occurrences, keeping O justifiers.
    Length is preserved, and the node and rule tuples are shared."""
    erased = [j if node.kind == LAM else None for node, j in zip(t.nodes, t.justifiers)]
    play = _new(UncoveredPlay)
    play.__dict__.update(nodes=t.nodes, justifiers=tuple(erased), rules=t.rules, maximal=t.maximal)
    return play


def reconstruct_p_pointers(
    play: UncoveredPlay, tree: ComputationTree
) -> Traversal:
    """Reassign the erased P justifiers.

    @ occurrences answer the lambda just before them, and hidden variable
    occurrences (those under an @ in the chain) have their pointer forced
    by the tree structure.  The interesting case is a variable occurrence
    in the core: its pointer is recomputed purely by order comparison,
    taking the most recent core lambda occurrence in the P-view whose
    order strictly exceeds the variable's.  For traversals of safe terms that
    choice always lands on the binder, so uncovering loses nothing; where
    it lands elsewhere, the pointer was genuinely informative.

    A play must start at the root and every O pointer must name the
    position just before it, as in every uncovered traversal, or
    ReconstructionError is raised.  The P-view is then the whole prefix,
    so tables of the latest occurrence per lambda node and of the latest core
    lambda per order answer both lookups.
    """
    root = tree.root
    nodes = play.nodes
    if nodes and nodes[0] is not root:
        raise ReconstructionError(0, "the play does not start at the root")
    justs: list[Optional[int]] = []
    core: list[bool] = []
    latest = [-1] * len(tree.nodes)  # lambda node id -> its latest position
    top: list[int] = []  # order -> position of the latest core lambda of it
    add_just, add_core = justs.append, core.append
    for i, (node, j) in enumerate(zip(nodes, play.justifiers)):
        kind = node.kind
        if kind == LAM:
            if j != (i - 1 if i else None):
                raise ReconstructionError(
                    i, f"O pointer {j} is not the previous position"
                )
            is_core = j is None or core[j]
            latest[node.id] = i
            if is_core:
                if node.order >= len(top):
                    top.extend([-1] * (node.order + 1 - len(top)))
                top[node.order] = i
        elif kind == APP:
            j, is_core = i - 1, False
        else:
            j = latest[(node.binder or root).id]
            if j < 0:
                raise ReconstructionError(i, f"binder of {node.name} not in the view")
            is_core = core[j]
            if is_core:  # otherwise hidden: no choice to reconstruct
                j = max(top[node.order + 1:], default=-1)
                if j < 0:
                    raise ReconstructionError(
                        i,
                        f"no pending lambda of order above {node.order} for {node.name}",
                    )
        add_just(j)
        add_core(is_core)
    t = _new(Traversal)
    t.__dict__.update(
        nodes=nodes, justifiers=tuple(justs), rules=play.rules, core=tuple(core), maximal=play.maximal
    )
    return t


# --------------------------------------------------------------------------
# normalization by traversal


def traversal_normal_form(tree: ComputationTree, budget: int = _DEFAULT_MAX_LEN) -> Term:
    """The beta-eta-long normal form, assembled from the traversal cores
    during one depth-first walk, with no traversal stored.

    Core positions alternate lambda and variable occurrences, and the
    core of each maximal traversal spells one branch of the normal form.
    A stack holds one open frame per core lambda on the current branch;
    when the walk backtracks, the frames past the shared prefix are
    complete and close into arguments of the frame below.  Core lambdas
    are renamed n1, n2, ... in the order the walk first meets them.
    Raises BudgetExceededError when some traversal is still extendable
    at the length budget.
    """
    # the tree's term is typed in its env, so every free name is in env
    fresh = fresh_names("n", set(tree.env))
    frames: list[list] = []  # [position, binders, head name, arguments]
    frame_at: dict[int, list] = {}  # position of a core lambda -> its frame
    cut = 0
    for nodes, justs, _, core, maximal, shared in _walk(tree, budget):
        if not maximal:
            cut += 1
        if cut:
            continue  # keep walking only to count the cut traversals
        _close_from(frames, shared)
        for i in range(shared, len(nodes)):
            if not core[i]:
                continue
            node = nodes[i]
            if node.kind == LAM:
                types = [bty for _, bty in node.binders]
                frame_at[i] = [i, tuple(zip(islice(fresh, len(types)), types)), None, []]
                frames.append(frame_at[i])
            elif node.binder is None:
                frames[-1][2] = node.name
            else:
                frames[-1][2] = frame_at[justs[i]][1][node.slot][0]
    if cut:
        raise BudgetExceededError(
            budget, cut, f"{cut} traversal(s) still extendable at length {budget}"
        )
    return _close_from(frames, 0)


def _close_from(frames: list[list], position: int) -> Optional[Term]:
    """Close the frames at or past `position`; the last one's term."""
    term = None
    while frames and frames[-1][0] >= position:
        _, binders, head, args = frames.pop()
        term = mk_abs(binders, mk_app(Var(head), tuple(args)))
        if frames:
            frames[-1][3].append(term)
    return term
