"""Guarantee-certified greedy agreement matchers.

``match1`` matches a balanced rooted tree against an arbitrary rooted tree
and returns a caterpillar-shaped agreement of at least
max(1, match1_bound(m, t, delta)) leaves.  ``match2`` matches two balanced
rooted trees and returns an agreement of at least
max(1, match2_bound(m1, m2, t, delta)) leaves.  Both emit traces from which
the per-step shrink inequalities of their analyses can be re-checked.

Unrooted wrappers reduce edge-centered (class B) and vertex-centered
(class C) balanced trees to the rooted algorithms.  The almost-balanced
entry point runs the same walks on small-radius trees rooted near their
centers.  Growing each leaf of such a tree into a subtree of new labels
makes it balanced without changing what the walks return, so the balanced
guarantees carry over.

Every "choose any leaf" step picks the smallest label, and every "swap if
necessary" performs no swap when the required inequalities already hold, so
runs are exactly reproducible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .bounds import BETA_DELTA_SUP, SLACK, delta_for_alpha_k, delta_for_beta_k
from .treecore import (
    CLASS_B,
    CLASS_C,
    RootedTree,
    TreeError,
    UnrootedTree,
    center,
    classify_balanced,
    postorder,
    radius,
    root_at_edge,
    root_at_leaf_edge,
    side_leaves,
)
from .treeops import extract_balanced, max_balanced_height, restrict

logger = logging.getLogger(__name__)


def _leaf_sets(*trees) -> dict:
    """{node: frozenset of the leaf labels below it} for every node of the
    trees.  Θ(n²) labels on a caterpillar: build it only for the length of
    one call."""
    sets = {}
    for t in trees:
        for node in postorder(t):
            if node.is_leaf:
                sets[node] = frozenset((node.label,))
            else:
                sets[node] = sets[node.left] | sets[node.right]
    return sets


def _orient(u: RootedTree, v: RootedTree, sets: dict):
    """Swap children (virtually) so that the cross counts do not exceed the
    diagonal counts and t_ll <= t_rr; no swap when already admissible.
    ``sets`` maps each node to its leaf set.

    Returns ((u_left, u_right, v_left, v_right), (t_ll, t_lr, t_rl, t_rr)).
    """
    ku = (u.left, u.right)
    kv = (v.left, v.right)
    c = [[len(sets[ku[i]] & sets[kv[j]]) for j in (0, 1)] for i in (0, 1)]
    for su, sv in ((0, 0), (0, 1), (1, 0), (1, 1)):
        t_ll = c[su][sv]
        t_lr = c[su][1 - sv]
        t_rl = c[1 - su][sv]
        t_rr = c[1 - su][1 - sv]
        if t_lr + t_rl <= t_ll + t_rr and t_ll <= t_rr:
            return (ku[su], ku[1 - su], kv[sv], kv[1 - sv]), (t_ll, t_lr, t_rl, t_rr)
    raise AssertionError("some orientation always satisfies both inequalities")


# --------------------------------------------------------------------------
# match1: one balanced tree vs an arbitrary tree
# --------------------------------------------------------------------------


@dataclass
class Match1Step:
    rule: str  # base | case1 | skip-left | skip-right | cross | heavy
    t: int  # shared-leaf count at this call
    u_size: int
    v_size: int
    emitted: int | None = None


@dataclass
class Match1Trace:
    """Single-path recursion record.

    The emitted-leaf count is (#case1 + #cross + 1), and the shrink factors
    per rule are: case1 >= 1/4, cross >= delta/2, heavy > 1-delta, with the
    two skip rules keeping t unchanged.
    """

    delta: float
    m: int
    t0: int
    steps: list = field(default_factory=list)

    def counts(self) -> dict:
        out = {"base": 0, "case1": 0, "skip-left": 0, "skip-right": 0, "cross": 0, "heavy": 0}
        for s in self.steps:
            out[s.rule] += 1
        return out

    def product_lower_bound(self) -> float:
        c = self.counts()
        return (
            self.t0
            * 0.25 ** c["case1"]
            * (self.delta / 2) ** c["cross"]
            * (1 - self.delta) ** c["heavy"]
        )

    def check_product_inequality(self) -> bool:
        """Final-call t against t0 * (1/4)^a * (delta/2)^d * (1-delta)^e."""
        return self.steps[-1].t >= self.product_lower_bound() - SLACK


def match1(t1: RootedTree, t2: RootedTree, delta: float):
    """Greedy agreement of a balanced t1 against t2 with L(t2) <= L(t1).

    Walks one root-to-base path, emitting one leaf per "case1" step (both
    left pairs share a leaf) and per "cross" step (the antidiagonal carries
    at least a delta fraction), descending into the heavy diagonal
    otherwise.  Returns (leaf set, trace); the restriction of either tree to
    the leaf set is a caterpillar.
    """
    if not isinstance(t1, RootedTree) or not isinstance(t2, RootedTree):
        raise TreeError("match1 needs two rooted trees")
    if not t1.balanced:
        raise TreeError("match1 requires the first tree to be balanced")
    return _match1_walk(t1, t2, delta)


def _match1_walk(t1: RootedTree, t2: RootedTree, delta: float):
    """match1 without the balance check on t1.

    Make t1 balanced by growing each shallow leaf x into a subtree of x and
    new labels.  The walk reads only shared-leaf counts, and from a node
    that shares x alone it only skips or shrinks until it emits x.  So it
    returns on t1 the set that match1 returns on the balanced tree."""
    sets = _leaf_sets(t1, t2)
    if not sets[t2] <= sets[t1]:
        raise TreeError("match1 requires L(t2) to be a subset of L(t1)")
    if not 0 < delta < 0.5:
        raise ValueError(f"match1 needs delta in (0, 1/2), got {delta}")
    trace = Match1Trace(delta, t1.height, t2.nleaves)
    out = []
    u, v = t1, t2
    while True:
        shared = sets[u] & sets[v]
        t_uv = len(shared)
        if t_uv == 0:
            raise AssertionError("recursed into an empty intersection")
        if u.nleaves == 1 or v.nleaves == 1:
            z = min(shared)
            trace.steps.append(Match1Step("base", t_uv, u.nleaves, v.nleaves, z))
            out.append(z)
            break
        (ul, ur, vl, vr), (t_ll, t_lr, t_rl, t_rr) = _orient(u, v, sets)
        if t_ll > 0:
            z = min(sets[ul] & sets[vl])
            trace.steps.append(Match1Step("case1", t_uv, u.nleaves, v.nleaves, z))
            out.append(z)
            u, v = ur, vr
            continue
        if t_rl == 0:
            # nothing under v's left child is shared with u
            trace.steps.append(Match1Step("skip-left", t_uv, u.nleaves, v.nleaves))
            v = vr
            continue
        if t_lr == 0:
            # nothing under u's left child is shared with v
            trace.steps.append(Match1Step("skip-right", t_uv, u.nleaves, v.nleaves))
            u = ur
            continue
        if t_lr + t_rl >= delta * t_uv:
            if t_lr > t_rl:
                ul, ur, vl, vr = ur, ul, vr, vl
                t_lr, t_rl = t_rl, t_lr
            z = min(sets[ul] & sets[vr])
            trace.steps.append(Match1Step("cross", t_uv, u.nleaves, v.nleaves, z))
            out.append(z)
            u, v = ur, vl
            continue
        trace.steps.append(Match1Step("heavy", t_uv, u.nleaves, v.nleaves))
        u, v = ur, vr
    return frozenset(out), trace


# --------------------------------------------------------------------------
# match2: two balanced trees
# --------------------------------------------------------------------------


@dataclass
class Match2Node:
    rule: str  # base | diag | anti | shrink | skip1 | skip2
    t: int
    u_size: int
    v_size: int
    emitted: int | None = None
    children: list = field(default_factory=list)


@dataclass
class Match2Trace:
    """The recursion-call tree.  ``diag``/``anti`` branch into two calls
    with t >= delta * t_parent each; ``shrink`` keeps one call with
    t > (1-3 delta) t_parent; ``skip1``/``skip2`` keep one call with
    t > (1-2 delta) t_parent and descend only one tree."""

    delta: float
    m1: int
    m2: int
    t0: int
    root: Match2Node = None

    def paths(self):
        """Yield every root-to-leaf path as a list of nodes."""
        path = []

        def walk(node):
            path.append(node)
            if not node.children:
                yield list(path)
            for child in node.children:
                yield from walk(child)
            path.pop()

        yield from walk(self.root)

    def check_path_bounds(self) -> bool:
        """Per-step shrink factors and the 2m step budget, on every path."""
        d = self.delta
        factor = {"diag": d, "anti": d, "shrink": 1 - 3 * d, "skip1": 1 - 2 * d, "skip2": 1 - 2 * d}
        for path in self.paths():
            if len(path) - 1 > self.m1 + self.m2:
                return False
            for parent, child in zip(path, path[1:]):
                if child.t < factor[parent.rule] * parent.t - SLACK:
                    return False
        return True


def match2(t1: RootedTree, t2: RootedTree, delta: float):
    """Greedy agreement of two balanced rooted trees sharing t > 0 leaves.

    Branches into both child pairs whenever both the diagonal (or both the
    antidiagonal) pairs carry at least a delta fraction of the shared
    leaves; otherwise discards sub-delta sides.  Returns (leaf set, trace).
    """
    if not isinstance(t1, RootedTree) or not isinstance(t2, RootedTree):
        raise TreeError("match2 needs two rooted trees")
    if not (t1.balanced and t2.balanced):
        raise TreeError("match2 requires both trees to be balanced")
    return _match2_walk(t1, t2, delta)


def _match2_walk(t1: RootedTree, t2: RootedTree, delta: float):
    """match2 without the balance checks.  It returns the set that match2
    returns after both trees are made balanced as in ``_match1_walk``, with
    new labels that the two trees do not share."""
    if not 0 < delta < 0.25:
        raise ValueError(f"match2 needs delta in (0, 1/4), got {delta}")
    sets = _leaf_sets(t1, t2)
    t0 = len(sets[t1] & sets[t2])
    if t0 == 0:
        raise TreeError("match2 requires a nonempty shared leaf set")
    trace = Match2Trace(delta, t1.height, t2.height, t0)

    out = []
    top = []
    stack = [(t1, t2, top)]  # calls still to make, with their parent's children
    while stack:
        u, v, siblings = stack.pop()
        shared = sets[u] & sets[v]
        t_uv = len(shared)
        if t_uv == 0:
            raise AssertionError("recursed into an empty intersection")
        node = Match2Node("base", t_uv, u.nleaves, v.nleaves)
        siblings.append(node)
        if u.nleaves == 1 or v.nleaves == 1:
            node.emitted = min(shared)
            out.append(node.emitted)
            continue
        (ul, ur, vl, vr), (t_ll, t_lr, t_rl, t_rr) = _orient(u, v, sets)
        need = delta * t_uv
        if t_ll >= need and t_rr >= need:
            node.rule, calls = "diag", ((ul, vl), (ur, vr))
        elif t_lr >= need and t_rl >= need:
            node.rule, calls = "anti", ((ul, vr), (ur, vl))
        elif t_lr < need and t_rl < need:
            node.rule, calls = "shrink", ((ur, vr),)
        elif t_lr < need:  # t_rl >= need: drop u's left side only
            node.rule, calls = "skip1", ((ur, v),)
        else:  # t_rl < need <= t_lr: drop v's left side only
            node.rule, calls = "skip2", ((u, vr),)
        stack.extend((a, b, node.children) for a, b in reversed(calls))
    trace.root = top[0]
    return frozenset(out), trace


# --------------------------------------------------------------------------
# Unrooted wrappers
# --------------------------------------------------------------------------


def _center_branches(t: UnrootedTree) -> list:
    """The leaf sets of the three branches at the center vertex of a
    vertex-centered tree, sorted by smallest leaf label."""
    (z,) = center(t)
    return sorted((side_leaves(t, z, w) for w in t.adj[z]), key=min)


def _root_near_center(t: UnrootedTree) -> RootedTree:
    """Root at the central edge, or (vertex center) at the center edge
    leading toward the smallest leaf; height <= radius + 1."""
    c = center(t)
    if len(c) == 2:
        return root_at_edge(t, tuple(sorted(c)))
    (z,) = c
    w = min(t.adj[z], key=lambda w: min(side_leaves(t, z, w)))
    return root_at_edge(t, (z, w))


def match1_unrooted(t1: UnrootedTree, t2: UnrootedTree, delta: float) -> frozenset:
    """One-balanced matching for unrooted trees.

    Edge-centered t1: root t1 at its central edge and t2 at the pendant
    edge of leaf min(L); run match1.  Vertex-centered t1: drop the branch
    whose leaf set has the largest minimum label, restrict both trees to
    the remaining leaves (now edge-centered), and proceed as above.
    """
    if not isinstance(t1, UnrootedTree) or not isinstance(t2, UnrootedTree):
        raise TreeError("match1_unrooted needs two unrooted trees")
    cls = classify_balanced(t1)
    if cls.kind not in (CLASS_B, CLASS_C):
        raise TreeError("match1_unrooted requires a balanced unrooted first tree")
    if t1.leaves != t2.leaves:
        raise TreeError("match1_unrooted requires identical leaf sets")
    if cls.kind == CLASS_C:
        if cls.m == 1:
            return frozenset(t1.leaves)  # 3 leaves: the unique topology
        keep = t1.leaves - max(_center_branches(t1), key=min)
        return match1_unrooted(restrict(t1, keep), restrict(t2, keep), delta)
    leaves, _ = match1(_root_near_center(t1), root_at_leaf_edge(t2), delta)
    return leaves


def class_c_prunings(t1: UnrootedTree, t2: UnrootedTree):
    """Leaf sets (X, Y) after deleting one center branch from each
    vertex-centered tree, chosen to maximise |X & Y| over the 3x3 choices
    (ties toward the branch pair with the smallest minimum labels)."""
    branches2 = _center_branches(t2)
    best = None
    for b1 in _center_branches(t1):
        for b2 in branches2:
            overlap = len(b1 & b2)
            if best is None or overlap > best[0]:
                best = (overlap, b1, b2)
    return t1.leaves - best[1], t2.leaves - best[2]


def match2_unrooted(t1: UnrootedTree, t2: UnrootedTree, delta: float) -> frozenset:
    """Two-balanced matching for unrooted trees of the same balance class.

    Edge-centered: root both at their central edges and run match2.
    Vertex-centered: delete one center branch from each (maximising the
    remaining overlap, which is always at least 2^(m+1)/3), root the pruned
    trees at their centers, and run match2 on those.
    """
    c1 = classify_balanced(t1)
    c2 = classify_balanced(t2)
    if c1.kind not in (CLASS_B, CLASS_C) or c1 != c2:
        raise TreeError(
            f"match2_unrooted requires two balanced unrooted trees of the same "
            f"class, got {c1} and {c2}"
        )
    if t1.leaves != t2.leaves:
        raise TreeError("match2_unrooted requires identical leaf sets")
    if c1.kind == CLASS_C:
        if c1.m == 1:
            return frozenset(t1.leaves)  # 3 leaves: the unique topology
        X, Y = class_c_prunings(t1, t2)
        t1, t2 = restrict(t1, X), restrict(t2, Y)
    leaves, _ = match2(_root_near_center(t1), _root_near_center(t2), delta)
    return leaves


def match2_multi(trees, delta: float) -> frozenset:
    """Iterated matching of 2 or more equal-height balanced rooted trees.

    Match the first two; inside the agreement keep its largest balanced
    restriction (one leaf per deepest-level subtree; at full overlap this
    is at least ceil(beta * m) high); match that against the third; and so
    on.  If an intermediate shared leaf set empties, the best prefix result
    is returned and a warning logged.  The final set is a pairwise
    agreement of every input."""
    trees = list(trees)
    if len(trees) < 2:
        raise TreeError("match2_multi needs at least two trees")
    if not all(isinstance(t, RootedTree) for t in trees):
        raise TreeError("match2_multi needs rooted trees")
    heights = {t.height for t in trees}
    if len(heights) != 1 or not all(t.balanced for t in trees):
        raise TreeError("match2_multi requires balanced rooted trees of equal height")
    if not 0 < delta < BETA_DELTA_SUP:
        raise ValueError(
            f"match2_multi needs delta in (0, {BETA_DELTA_SUP:.6f}) so that the "
            f"guaranteed extraction depth beta*m is positive, got {delta}"
        )
    leaves, _ = match2(trees[0], trees[1], delta)
    cur = restrict(trees[0], leaves)
    for pos, nxt in enumerate(trees[2:], start=2):
        kept = extract_balanced(cur, max_balanced_height(cur))
        cur_bal = restrict(cur, kept)
        if not cur_bal.leaves & nxt.leaves:
            logger.warning(
                "match2_multi: empty intersection with tree %d; "
                "returning the agreement of the first %d trees",
                pos,
                pos,
            )
            return frozenset(cur.leaves)
        leaves, _ = match2(cur_bal, nxt, delta)
        cur = restrict(cur_bal, leaves)
    return frozenset(cur.leaves)


# --------------------------------------------------------------------------
# Almost-balanced trees
# --------------------------------------------------------------------------


def match_almost_balanced(
    t1: UnrootedTree,
    t2: UnrootedTree,
    k: float,
    delta: float | None = None,
    mode: str = "auto",
):
    """Matching for small-radius ("almost balanced") unrooted trees.

    mode "single" (radius(t1) <= k log n - 1): root t1 near its center
    (height at most k log n), root t2 at a leaf edge, and run match1's walk;
    guarantees alpha_k log n leaves.  mode "both" (both radii <= k log n):
    root both near their centers and run match2's walk; guarantees
    n^beta_k leaves.  mode "auto" picks "both" when both radii allow it.
    The walks return the set that the balanced matchers return on the
    rooted trees made balanced of height about k log n (see
    ``_match1_walk``), so their guarantees hold.  Returns (leaf set, mode
    used, delta used)."""
    if not isinstance(t1, UnrootedTree) or not isinstance(t2, UnrootedTree):
        raise TreeError("match_almost_balanced needs two unrooted trees")
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"k must be a finite positive number, got {k}")
    if t1.leaves != t2.leaves:
        raise TreeError("match_almost_balanced requires identical leaf sets")
    logn = math.log2(t1.nleaves)
    r1 = radius(t1)
    r2 = radius(t2)
    if mode == "auto":
        mode = "both" if (r1 <= k * logn and r2 <= k * logn) else "single"
    if mode == "single":
        if r1 > k * logn - 1:
            raise TreeError(
                f"radius {r1} exceeds k log n - 1 = {k * logn - 1:.3f}"
            )
        if delta is None:
            delta = delta_for_alpha_k(k)
        leaves, _ = _match1_walk(_root_near_center(t1), root_at_leaf_edge(t2), delta)
        return leaves, mode, delta
    if mode != "both":
        raise ValueError(f"mode must be auto, single, or both, got {mode!r}")
    if r1 > k * logn or r2 > k * logn:
        raise TreeError(
            f"radii ({r1}, {r2}) exceed k log n = {k * logn:.3f}"
        )
    if delta is None:
        delta = delta_for_beta_k(k)
    leaves, _ = _match2_walk(_root_near_center(t1), _root_near_center(t2), delta)
    return leaves, mode, delta
