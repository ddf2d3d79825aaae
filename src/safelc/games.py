r"""Computation trees and traversals.

A well-typed term unfolds, after full eta-expansion, into a computation
tree whose levels alternate between lambda nodes and variable/application
nodes.  Walking the tree under the traversal rules simulates evaluation
without performing a single substitution; justification pointers do the
bookkeeping that renaming would otherwise do.  One depth-first walk over
a shared prefix finds every traversal: `enumerate_traversals` copies
each one out, and `traversal_normal_form` copies none, assembling the
beta-eta-normal form from the cores of the maximal traversals, which
spell out its branches, as the walk reaches them.  `uncover` /
`reconstruct_p_pointers` probe when the pointers carried by variable
occurrences are redundant.

The root lambda node stands in for the context: free variables answer to
it, and its order accounts for the types of the free names so that order
comparisons against it behave as if the context were abstracted.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .reduction import BudgetExceededError
from .safety import eta_long
from .syntax import (
    Abs,
    Binder,
    SimpleType,
    Term,
    TypeEnv,
    Var,
    fresh_names,
    mk_abs,
    mk_app,
)


@dataclass(eq=False)
class LambdaNode:
    binders: tuple[Binder, ...]
    order: int
    id: int
    children: tuple["TreeNode", ...] = ()

    @property
    def label(self) -> str:
        names = " ".join(n for n, _ in self.binders)
        return "\\" + names if names else "\\"


@dataclass(eq=False)
class AppNode:
    order: int
    id: int
    children: tuple["TreeNode", ...] = ()

    label = "@"


@dataclass(eq=False)
class VarNode:
    name: str
    ty: SimpleType
    binder: Optional[LambdaNode]  # None = free in the source term
    order: int
    id: int
    children: tuple["TreeNode", ...] = ()

    @property
    def label(self) -> str:
        return self.name


TreeNode = Union[LambdaNode, AppNode, VarNode]


@dataclass(frozen=True)
class ComputationTree:
    root: LambdaNode
    nodes: tuple[TreeNode, ...]  # pre-order; nodes[i].id == i
    term: Term  # the eta-long form the tree was built from
    env: dict


def build_computation_tree(env: TypeEnv, term: Term) -> ComputationTree:
    """Tree of the eta-long form of `term`, with binder links resolved.

    Lambda nodes alternate with variable/application nodes; ground-typed
    arguments get an empty lambda node above them so the alternation
    holds everywhere.  Type errors surface before any node is built.
    """
    expanded = eta_long(env, term)  # the one type check
    # an eta-long term abstracts every argument of its type
    top = expanded.binders if isinstance(expanded, Abs) else ()
    # a well-typed term has no free names in an empty env
    free = expanded.free_names if env else ()
    root_order = max(
        [SimpleType(tuple(bty for _, bty in top)).order]
        + [env[n].order + 1 for n in free]
    )
    nodes: list[TreeNode] = []
    # lambda nodes still to build: (term, order, scope, the parent's
    # children, a list until every node is built)
    todo = [(expanded, root_order, {}, [])]
    while todo:
        t, order, scope, siblings = todo.pop()
        while True:
            binders, body = (t.binders, t.body) if isinstance(t, Abs) else ((), t)
            lam = LambdaNode(binders=binders, order=order, id=len(nodes))
            siblings.append(lam)
            nodes.append(lam)
            if binders:
                scope = dict(scope)
                scope.update((name, (lam, bty)) for name, bty in binders)
            head, args = (body, ()) if isinstance(body, Var) else (body.head, body.args)
            if isinstance(head, Var):
                binder, vty = scope.get(head.name) or (None, env[head.name])
                op = VarNode(head.name, vty, binder, vty.order, len(nodes), [])
                arg_types = vty.arguments
            else:
                # redex: the operator is an abstraction, kept under an @ node
                head_ty = SimpleType(tuple(bty for _, bty in head.binders))
                op = AppNode(order=0, id=len(nodes), children=[])
                args, arg_types = (head,) + args, (head_ty,) + head_ty.arguments
            lam.children = (op,)
            nodes.append(op)
            if not args:
                break
            for k in range(len(args) - 1, 0, -1):
                todo.append((args[k], arg_types[k].order, scope, op.children))
            t, order, siblings = args[0], arg_types[0].order, op.children
    for node in nodes:
        node.children = tuple(node.children)
    return ComputationTree(nodes[0], tuple(nodes), expanded, dict(env))


# --------------------------------------------------------------------------
# traversals


class Occurrence(NamedTuple):
    node: TreeNode
    justifier: Optional[int]  # back-index; None only for the root
    rule: str  # which rule licensed this occurrence


@dataclass(frozen=True)
class Traversal:
    occurrences: tuple[Occurrence, ...]
    maximal: bool = True  # False when cut off by the length budget

    def __len__(self) -> int:
        return len(self.occurrences)


def parity(node: TreeNode) -> str:
    """Lambda occurrences are O-moves, everything else is a P-move."""
    return "O" if isinstance(node, LambdaNode) else "P"


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
        if isinstance(occurrences[i].node, LambdaNode):
            i = occurrences[i].justifier
        else:
            i -= 1
        out.append(i)
    out.reverse()
    return out


def _walk(tree: ComputationTree, max_len: int):
    """Walk every traversal depth first over one shared prefix.

    At each finished traversal yield the live prefix (a list of
    occurrences), its core flags, whether it is maximal, and how many
    positions it shares with the traversal yielded before it; the lists
    are the walk's own and change once the walk resumes.  Children of an
    input variable are explored in order, so traversals come in the
    pre-order of the branches they spell.

    As every P-view is the whole prefix (see `p_view_indices`), a
    variable's binder is the latest occurrence of its node, kept in a
    table undone on backtrack, and a variable is an input when the core
    flag stored as it is appended holds: O(1) amortised per occurrence.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    root = tree.root
    occs: list[Occurrence] = []
    core: list[bool] = []  # no @ on the justification chain
    latest = [-1] * len(tree.nodes)  # node id -> its latest index in occs
    shadowed: list[int] = []  # the `latest` entry each occurrence replaced
    pending = [(0, Occurrence(root, None, "root"))]  # (prefix length, next)
    while pending:
        depth, occ = pending.pop()
        while len(occs) > depth:
            latest[occs.pop().node.id] = shadowed.pop()
            core.pop()
        while True:
            node, j = occ.node, occ.justifier
            here = len(occs)
            occs.append(occ)
            core.append(not isinstance(node, AppNode) and (j is None or core[j]))
            shadowed.append(latest[node.id])
            latest[node.id] = here
            others = ()
            if isinstance(node, LambdaNode):
                child = node.children[0]
                if isinstance(child, AppNode):
                    occ = Occurrence(child, here, "lam")
                else:
                    at = latest[(child.binder or root).id]
                    if at < 0:
                        raise ValueError(f"binder of {child.name} missing from the view")
                    occ = Occurrence(child, at, "lam")
            elif isinstance(node, AppNode):
                occ = Occurrence(node.children[0], here, "app")
            elif core[here]:
                # an input: the environment may answer with any argument
                if not node.children:
                    yield occs, core, True, depth
                    break
                occ = Occurrence(node.children[0], here, "ivar")
                others = node.children[1:]
            else:
                # internal variable: the next node is the argument standing
                # for it, found under the occurrence its binder points back to
                parent = occs[occs[j].justifier].node
                index = node.binder.binders.index((node.name, node.ty))
                if isinstance(parent, AppNode):
                    index += 1
                occ = Occurrence(parent.children[index], here, "var")
            if here + 1 >= max_len:
                yield occs, core, False, depth
                break
            if others:
                pending.extend((here + 1, Occurrence(c, here, "ivar")) for c in reversed(others))


def enumerate_traversals(
    tree: ComputationTree, max_len: int = 200
) -> tuple[Traversal, ...]:
    """All maximal traversals in canonical order: by length, then by the
    child order at the first choice where two part, as a breadth-first
    walk finds them.  Traversals that could still grow at max_len come
    back with maximal=False.

    One depth-first walk (`_walk`) finds them; each is copied into a
    tuple as it finishes, and a stable sort by length restores the
    canonical order.
    """
    done = [
        Traversal(tuple(occs), maximal)
        for occs, _, maximal, _ in _walk(tree, max_len)
    ]
    done.sort(key=len)
    return tuple(done)


def core_indices(t: Traversal) -> list[int]:
    """Positions whose justification chain never crosses an @ occurrence.

    The core is the external part of the traversal: it spells a branch of
    the normal form, pointers staying within the core."""
    keep: list[bool] = []
    out: list[int] = []
    for i, occ in enumerate(t.occurrences):
        ok = not isinstance(occ.node, AppNode) and (
            occ.justifier is None or keep[occ.justifier]
        )
        keep.append(ok)
        if ok:
            out.append(i)
    return out


# --------------------------------------------------------------------------
# uncovering and pointer reconstruction


class PlayEntry(NamedTuple):
    node: TreeNode
    justifier: Optional[int]  # erased (None) on P entries
    parity: str
    rule: str


@dataclass(frozen=True)
class UncoveredPlay:
    entries: tuple[PlayEntry, ...]
    maximal: bool = True

    def __len__(self) -> int:
        return len(self.entries)


class ReconstructionError(Exception):
    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position


def uncover(t: Traversal) -> UncoveredPlay:
    """Erase the justifiers of P occurrences, keeping O justifiers and
    recording each occurrence's parity.  Length is preserved."""
    entries = []
    for occ in t.occurrences:
        p = parity(occ.node)
        entries.append(
            PlayEntry(occ.node, occ.justifier if p == "O" else None, p, occ.rule)
        )
    return UncoveredPlay(tuple(entries), t.maximal)


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
    so tables of the latest occurrence per node and of the latest core
    lambda per order answer both lookups.
    """
    root = tree.root
    if play.entries and play.entries[0].node is not root:
        raise ReconstructionError(0, "the play does not start at the root")
    occs: list[Occurrence] = []
    core: list[bool] = []
    latest = [-1] * len(tree.nodes)  # node id -> its latest index
    top: list[int] = []  # order -> index of the latest core lambda of it
    for i, entry in enumerate(play.entries):
        node = entry.node
        if isinstance(node, LambdaNode):
            j = entry.justifier
            if j != (i - 1 if i else None):
                raise ReconstructionError(
                    i, f"O pointer {j} is not the previous position"
                )
        elif isinstance(node, AppNode):
            j = i - 1
        else:
            j = latest[(node.binder or root).id]
            if j < 0:
                raise ReconstructionError(i, f"binder of {node.name} not in the view")
            if core[j]:  # otherwise hidden: no choice to reconstruct
                j = max(top[node.order + 1:], default=-1)
                if j < 0:
                    raise ReconstructionError(
                        i,
                        f"no pending lambda of order above {node.order} for {node.name}",
                    )
        occs.append(Occurrence(node, j, entry.rule))
        core.append(
            not isinstance(node, AppNode) and (j is None or core[j])
        )
        latest[node.id] = i
        if core[i] and isinstance(node, LambdaNode):
            top.extend([-1] * (node.order + 1 - len(top)))
            top[node.order] = i
    return Traversal(tuple(occs), play.maximal)


# --------------------------------------------------------------------------
# normalization by traversal


def traversal_normal_form(tree: ComputationTree, budget: int = 200) -> Term:
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

    def close_from(position: int) -> Optional[Term]:
        """Close the frames at or past `position`; the last one's term."""
        term = None
        while frames and frames[-1][0] >= position:
            _, binders, head, args = frames.pop()
            term = mk_abs(binders, mk_app(Var(head), tuple(args)))
            if frames:
                frames[-1][3].append(term)
        return term

    for occs, core, maximal, shared in _walk(tree, budget):
        if not maximal:
            cut += 1
        if cut:
            continue  # keep walking only to count the cut traversals
        close_from(shared)
        for i in range(shared, len(occs)):
            if not core[i]:
                continue
            node = occs[i].node
            if isinstance(node, LambdaNode):
                renamed = tuple((next(fresh), bty) for _, bty in node.binders)
                frame_at[i] = [i, renamed, None, []]
                frames.append(frame_at[i])
            elif node.binder is None:
                frames[-1][2] = node.name
            else:
                block = [n for n, _ in node.binder.binders]
                binders = frame_at[occs[i].justifier][1]
                frames[-1][2] = binders[block.index(node.name)][0]
    if cut:
        raise BudgetExceededError(
            budget, cut, f"{cut} traversal(s) still extendable at length {budget}"
        )
    return close_from(0)
