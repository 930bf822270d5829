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

The walks keep no leaf set per tree node.  They run on the preorder
numbers of both trees' DFS indexes (``RootedTree.dfs``, kept on each tree,
O(n) memory), where every node is a slice of the DFS leaf order and every
label has a position.  match1 takes each step's 2x2 shared-leaf counts
from one kernel (``_kernel``) that scans smaller child slices against the
other tree's positions.  Its single path can keep t unchanged for n
steps, each passing a leaf of the second tree that lies outside u, as
against a caterpillar; such a step reads that leaf's position alone, not
the kernel, so the walk carries nothing.  match2 on two balanced trees
carries each pending pair's shared leaves (at most t0 in all) and splits
them into the four child blocks (``_split``), so its counting costs the
sum of the shared-leaf counts t over the pairs it visits; on other trees,
as the almost-balanced matcher gives it, it counts with match1's kernel.
Both walks orient the four counts by one rule (``_orientation``).
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product

from .bounds import BETA_DELTA_SUP, SLACK, delta_for_alpha_k, delta_for_beta_k
from .treecore import (
    CLASS_B,
    CLASS_C,
    DfsIndex,
    RootedTree,
    TreeError,
    UnrootedTree,
    _within,
    center,
    classify_balanced,
    radius,
    root_at_edge,
    same_leaves,
)
from .treeops import largest_balanced, restrict

logger = logging.getLogger(__name__)


def _kernel(a: DfsIndex, b: DfsIndex):
    """The walks' one counting kernel, on the index arrays of ``a`` and
    ``b`` held in its closure: (common, counts).  ``common(x, y)`` is
    L(x) & L(y) for node x of ``a`` and y of ``b``, from one comprehension
    over the smaller leaf slice against the other tree's positions.

    ``counts(u, v, t, rows)`` is (ku, kv, c00, c01, c10, c11): the
    children of u and v, and cij = |L(ku[i]) & L(kv[j])|.  ``t`` is
    |L(u) & L(v)| and ``rows`` the pair of |L(ku[i]) & L(v)|, or None to
    scan u's smaller child for it.  Then v's smaller child w is scanned
    (a leaf by one position read) for one column, and the rows minus it
    give the other.  Each scan walks the smaller of the two leaf slices
    it intersects, so a walk down a balanced tree takes O(n log n) time."""
    na, fa, oa, pa = a.nleaves, a.first, a.order, a.pos
    nb, fb, ob, pb, lb = b.nleaves, b.first, b.order, b.pos, b.label

    def common(x, y):
        i, n, j, m = fa[x], na[x], fb[y], nb[y]  # x's leaves are oa[i : i + n], y's ob[j : j + m]
        return _within(oa[i : i + n], pb, j, j + m) if n <= m else _within(ob[j : j + m], pa, i, i + n)

    def counts(u, v, t, rows):
        ku = u0, u1 = u + 1, u + 2 * na[u + 1]
        kv = v0, v1 = v + 1, v + 2 * nb[v + 1]
        if rows is None:
            k = len(common(u0, v)) if na[u0] <= na[u1] else t - len(common(u1, v))
            rows = k, t - k
        w = v0 if nb[v0] <= nb[v1] else v1
        lo, mid, hi = fa[u], fa[u1], fa[u] + na[u]
        if nb[w] == 1:
            try:
                p = pa[lb[w]]
            except IndexError:  # a label above the array
                p = -1
            c0, c1 = int(lo <= p < mid), int(mid <= p < hi)
        else:
            inner = common(u, w)
            c0 = len(_within(inner, pa, lo, mid))
            c1 = len(inner) - c0
        r0, r1 = rows
        return (ku, kv, c0, r0 - c0, c1, r1 - c1) if w == v0 else (ku, kv, r0 - c0, c0, r1 - c1, c1)

    return common, counts


def _orientation(c00: int, c01: int, c10: int, c11: int) -> tuple:
    """Swap children (virtually) so that the cross counts do not exceed the
    diagonal counts and t_ll <= t_rr; no swap when already admissible.

    ``cij`` counts the leaves shared by u's child i and v's child j.
    Returns (su, sv, (t_ll, t_lr, t_rl, t_rr)) for the first admissible
    choice, in the order (0, 0), (0, 1), (1, 0), (1, 1), of u's child su
    and v's child sv as the left ones.  One always is: the larger of the
    diagonal and the antidiagonal sums holds a choice."""
    if c01 + c10 <= c00 + c11 and c00 <= c11:
        return 0, 0, (c00, c01, c10, c11)
    if c00 + c11 <= c01 + c10:
        return (0, 1, (c01, c00, c11, c10)) if c01 <= c10 else (1, 0, (c10, c11, c00, c01))
    return 1, 1, (c11, c10, c01, c00)


# --------------------------------------------------------------------------
# match1: one balanced tree vs an arbitrary tree
# --------------------------------------------------------------------------


@dataclass(slots=True)
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


def _match1_walk(t1: RootedTree, t2, delta: float):
    """match1 without the balance check on t1; an unrooted t2 is read as
    its default rooting, which its DFS index numbers.

    Make t1 balanced by growing each shallow leaf x into a subtree of x and
    new labels.  The walk reads only shared-leaf counts, and from a node
    that shares x alone it only skips or shrinks until it emits x.  So it
    returns on t1 the set that match1 returns on the balanced tree.

    While u has two children and v's smaller child w (the one ``counts``
    scans) is a leaf whose position in t1 lies outside u's slice, the step
    is taken without the kernel.  Its counts would be (0, r0, 0, r1) or
    (r0, 0, r1, 0) as w is v's left or right child, which every case of
    ``_orientation`` turns into t_ll = t_rl = 0: "skip-left" to v's other
    child, with t and the rows (r0, r1) kept, so ``rows`` stays as it is."""
    a, b = t1.dfs(), t2.dfs()
    b.pos  # names a repeated label of t2, as covers names one of t1
    if not a.covers(b.order):
        raise TreeError("match1 requires L(t2) to be a subset of L(t1)")
    if not 0 < delta < 0.5:
        raise ValueError(f"match1 needs delta in (0, 1/2), got {delta}")
    trace = Match1Trace(delta, t1.height, t2.nleaves)
    common, counts = _kernel(a, b)
    na, nb, fa, pa, lb, steps = a.nleaves, b.nleaves, a.first, a.pos, b.label, trace.steps
    u, v, t_uv, rows = 0, 0, t2.nleaves, None
    while True:
        if t_uv == 0:
            raise AssertionError("recursed into an empty intersection")
        n_u, lo, hi = na[u], fa[u], fa[u] + na[u]
        while n_u > 1 and nb[v] > 1:  # v's smaller child a leaf outside u: skip it uncounted
            v0, v1 = v + 1, v + 2 * nb[v + 1]
            w, x = (v0, v1) if nb[v0] <= nb[v1] else (v1, v0)
            if nb[w] > 1 or lo <= pa[lb[w]] < hi:  # t1 covers t2's labels: no read above the array
                break
            steps.append(Match1Step("skip-left", t_uv, n_u, nb[v]))
            v = x
        step = Match1Step("base", t_uv, na[u], nb[v])
        steps.append(step)
        if step.u_size == 1 or step.v_size == 1:
            step.emitted = min(common(u, v))
            break
        ku, kv, c00, c01, c10, c11 = counts(u, v, t_uv, rows)
        su, sv, (t_ll, t_lr, t_rl, t_rr) = _orientation(c00, c01, c10, c11)
        ul, ur, vl, vr = ku[su], ku[1 - su], kv[sv], kv[1 - sv]
        rows = None
        if t_ll > 0:
            step.rule, step.emitted = "case1", min(common(ul, vl))
            u, v, t_uv = ur, vr, t_rr
        elif t_rl == 0:  # nothing under v's left child is shared with u
            step.rule = "skip-left"
            v, rows = vr, ((t_rr, t_lr) if su else (t_lr, t_rr))
        elif t_lr == 0:  # nothing under u's left child is shared with v
            step.rule = "skip-right"
            u = ur
        elif t_lr + t_rl >= delta * t_uv:
            if t_lr > t_rl:
                ul, ur, vl, vr = ur, ul, vr, vl
                t_lr, t_rl = t_rl, t_lr
            step.rule, step.emitted = "cross", min(common(ul, vr))
            u, v, t_uv = ur, vl, t_rl
        else:
            step.rule = "heavy"
            u, v, t_uv = ur, vr, t_rr
    return frozenset(s.emitted for s in trace.steps if s.emitted is not None), trace


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


def _split(u: int, v: int, shared: list, a: DfsIndex, b: DfsIndex):
    """A carried match2 step at node u of ``a`` and node v of ``b``.

    ``shared`` is L(u) & L(v) in a's DFS order.  It is split at u's right
    child, a bisection on a's positions, and each half at v's right child,
    in one pass over b's positions.  Returns (ku, kv, c, part): u's and
    v's children, the 2x2 counts c = [c00, c01, c10, c11] with
    cij = |L(ku[i]) & L(kv[j])|, and part(i, j), that block in a's DFS
    order, where i or j None stands for u or v itself.
    """
    ku = u + 1, u + 2 * a.nleaves[u + 1]
    kv = v + 1, v + 2 * b.nleaves[v + 1]
    mid = bisect_left(shared, a.first[ku[1]], key=a.pos.__getitem__)
    rows = shared[:mid], shared[mid:]
    pos, cut = b.pos, b.first[kv[1]]
    blocks = ([], []), ([], [])
    for row, (lo, hi) in zip(rows, blocks):
        for x in row:
            (lo if pos[x] < cut else hi).append(x)

    def part(i, j):
        if j is None:
            return rows[i]
        if i is None:
            return blocks[0][j] + blocks[1][j]
        return blocks[i][j]

    return ku, kv, [len(x) for row in blocks for x in row], part


def _scanned(u: int, v: int, counted: tuple, counts):
    """A match2 step that counts with the kernel, as match1's do: ``counted``
    is the (t, rows) that ``counts`` reads.  Returns what ``_split``
    returns, with each part(i, j) the (t, rows) of that block."""
    ku, kv, *c = counts(u, v, *counted)

    def part(i, j):
        if i is None:
            return c[j] + c[2 + j], (c[j], c[2 + j])
        return (c[2 * i] + c[2 * i + 1] if j is None else c[2 * i + j]), None

    return ku, kv, c, part


def _match2_walk(t1: RootedTree, t2: RootedTree, delta: float):
    """match2 without the balance checks.  It returns the set that match2
    returns after both trees are made balanced as in ``_match1_walk``, with
    new labels that the two trees do not share.

    When both trees are balanced (every call from match2), each pending
    call (u, v) carries L(u) & L(v) in t1's DFS order and a step splits it
    (``_split``), so the counting costs the sum of t over the pairs
    visited: at most t0 (m1 + m2), as the walk is at most m1 + m2 deep,
    and about 2 t0 on relabelled balanced pairs.  An almost-balanced tree
    can be a path about n long, where that sum grows as n^2, so otherwise
    each step counts by the kernel's scans (``_scanned``), whose cost on
    such a path is its smaller children."""
    if not 0 < delta < 0.25:
        raise ValueError(f"match2 needs delta in (0, 1/4), got {delta}")
    a, b = t1.dfs(), t2.dfs()
    common, counts = _kernel(a, b)
    carry = t1.balanced and t2.balanced
    if carry:
        first = b.shared(a.order)
        t0 = len(first)
    else:
        t0 = len(common(0, 0))
        first = t0, None
    if t0 == 0:
        raise TreeError("match2 requires a nonempty shared leaf set")
    trace = Match2Trace(delta, t1.height, t2.height, t0)

    out = []
    top = []
    stack = [(0, 0, first, top)]  # calls still to make: (u, v, what the step reads, parent's children)
    while stack:
        u, v, shared, siblings = stack.pop()
        t_uv = len(shared) if carry else shared[0]
        if t_uv == 0:
            raise AssertionError("recursed into an empty intersection")
        node = Match2Node("base", t_uv, a.nleaves[u], b.nleaves[v])
        siblings.append(node)
        if node.u_size == 1 or node.v_size == 1:
            node.emitted = min(shared if carry else common(u, v))
            out.append(node.emitted)
            continue
        ku, kv, c, part = _split(u, v, shared, a, b) if carry else _scanned(u, v, shared, counts)
        su, sv, (t_ll, t_lr, t_rl, t_rr) = _orientation(*c)
        need = delta * t_uv
        # each call is (i, j): the pair (ku[i], kv[j]), with None keeping u or v
        if t_ll >= need and t_rr >= need:
            node.rule, calls = "diag", ((su, sv), (1 - su, 1 - sv))
        elif t_lr >= need and t_rl >= need:
            node.rule, calls = "anti", ((su, 1 - sv), (1 - su, sv))
        elif t_lr < need and t_rl < need:
            node.rule, calls = "shrink", ((1 - su, 1 - sv),)
        elif t_lr < need:  # t_rl >= need: drop u's left side only
            node.rule, calls = "skip1", ((1 - su, None),)
        else:  # t_rl < need <= t_lr: drop v's left side only
            node.rule, calls = "skip2", ((None, 1 - sv),)
        stack.extend(
            (u if i is None else ku[i], v if j is None else kv[j], part(i, j), node.children)
            for i, j in reversed(calls)
        )
    trace.root = top[0]
    return frozenset(out), trace


# --------------------------------------------------------------------------
# Unrooted wrappers
# --------------------------------------------------------------------------


def _center_neighbours(t: UnrootedTree):
    """The center vertex z of a vertex-centered tree, the middle of its
    diameter path, and z's neighbours: its parent in the DFS index (its
    smaller path neighbour, or ``Diameter.above`` when z is the path's top
    vertex), then its children z + 1 and z + 2 * nleaves[z + 2]."""
    d = t.diameter()
    if len(d.path) % 2 == 0:
        raise TreeError("the tree's center is an edge, not a vertex")
    j = len(d.path) // 2
    z, parent = d.path[j], min(d.path[j - 1], d.path[j + 1])
    return z, (parent if parent < z else d.above, z + 1, z + 2 * t.dfs().nleaves[z + 2])


def _center_branches(t: UnrootedTree) -> list:
    """The leaf sets of the three branches at the center vertex of a
    vertex-centered tree, sorted by smallest leaf label."""
    z, neighbours = _center_neighbours(t)
    return sorted((t.dfs().side(z, w) for w in neighbours), key=min)


def _root_near_center(t: UnrootedTree) -> RootedTree:
    """Root at the central edge, or (vertex center) at the center edge
    leading toward the smallest leaf, z's parent; height <= radius + 1."""
    c = sorted(center(t))
    if len(c) == 1:
        c.append(_center_neighbours(t)[1][0])
    return root_at_edge(t, tuple(c))


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
    if not same_leaves(t1, t2):
        raise TreeError("match1_unrooted requires identical leaf sets")
    if cls.kind == CLASS_C:
        if cls.m == 1:
            return frozenset(t1.leaves)  # 3 leaves: the unique topology
        keep = t1.leaves - max(_center_branches(t1), key=min)
        return match1_unrooted(restrict(t1, keep), restrict(t2, keep), delta)
    leaves, _ = _match1_walk(_root_near_center(t1), t2, delta)  # t1 is class B: balanced
    return leaves


def class_c_prunings(t1: UnrootedTree, t2: UnrootedTree):
    """Leaf sets (X, Y) after deleting one center branch from each
    vertex-centered tree, chosen to maximise |X & Y| over the 3x3 choices
    (ties toward the branch pair with the smallest minimum labels)."""
    pairs = product(_center_branches(t1), _center_branches(t2))
    b1, b2 = max(pairs, key=lambda pair: len(pair[0] & pair[1]))  # the first maximum
    return t1.leaves - b1, t2.leaves - b2


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
    if not same_leaves(t1, t2):
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
        _, kept = largest_balanced(cur)
        cur_bal = restrict(cur, kept)
        if not nxt.dfs().shared(cur_bal.dfs().order):
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
    if not same_leaves(t1, t2):
        raise TreeError("match_almost_balanced requires identical leaf sets")
    logn = math.log2(t1.nleaves)
    r1 = radius(t1)
    if mode == "auto":  # "single" never reads t2's radius
        mode = "both" if (r1 <= k * logn and radius(t2) <= k * logn) else "single"
    if mode == "single":
        if r1 > k * logn - 1:
            raise TreeError(f"radius {r1} exceeds k log n - 1 = {k * logn - 1:.3f}")
        if delta is None:
            delta = delta_for_alpha_k(k)
        leaves, _ = _match1_walk(_root_near_center(t1), t2, delta)
        return leaves, mode, delta
    if mode != "both":
        raise ValueError(f"mode must be auto, single, or both, got {mode!r}")
    r2 = radius(t2)
    if r1 > k * logn or r2 > k * logn:
        raise TreeError(f"radii ({r1}, {r2}) exceed k log n = {k * logn:.3f}")
    if delta is None:
        delta = delta_for_beta_k(k)
    leaves, _ = _match2_walk(_root_near_center(t1), _root_near_center(t2), delta)
    return leaves, mode, delta
