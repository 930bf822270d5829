"""Tree constructions: balanced trees, caterpillars, seeded random models,
the extremal bounded-balance trees, swap-permutation pairs, and exhaustive
topology enumeration for tiny leaf counts.

Random generation is deterministic per (model, seed, n) using the portable
splitmix64 stream, so every generated tree is reproducible from its recorded
seed.  Every construction but the extremal trees (``rebuild``) writes the
tree's preorder labels outright; the random models draw their insertion
points in one ``SplitMix64.randranges`` call and insert on the child
slots of flat lists.  ``DfsIndex.derive`` makes the index, which a rooted
root or an unrooted tree (``_unroot_index``) holds: no node or adjacency
is built until one is read.  Enumeration is guarded against combinatorial
explosion; set ``AGREETREE_GUARDS=off`` (or pass ``force=True``) to lift
the guard.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from ._rng import SplitMix64
from .bounds import f_closed
from .treecore import DfsIndex, RootedTree, TreeError, UnrootedTree, rebuild, unroot
from .treecore import _check_distinct, _check_label, _nodes, _perfect, _unroot_index

UNIFORM = "uniform"
YULE = "yule"

MAX_M = 20  # balanced height and class-B/C m <= MAX_M, gen_extremal_fhk <= 2^MAX_M leaves
ENUM_GUARD_UNROOTED = 7
ENUM_GUARD_ROOTED = 6


def guards_lifted() -> bool:
    return os.environ.get("AGREETREE_GUARDS", "").lower() == "off"


@dataclass(frozen=True)
class RandomModel:
    """A named random-tree model plus the 64-bit seed that fixes it."""

    kind: str  # UNIFORM (uniform over labelled topologies) or YULE
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (UNIFORM, YULE):
            raise ValueError(f"unknown random model {self.kind!r}")
        if not 0 <= self.seed < 2**64:  # SplitMix64 would reduce it mod 2^64
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")


# --------------------------------------------------------------------------
# Deterministic constructions
# --------------------------------------------------------------------------


def _balanced_preorder(labels, m: int) -> list:
    """The preorder labels of the balanced tree of height m over the 2^m
    ``labels`` in leaf order: tz(k) internal nodes come before leaf k, where
    tz(k) counts the trailing zero bits of k, and m before leaf 0, so leaf
    k sits at m + 2k - popcount(k).  Its ``nleaves`` is ``_perfect(m)``."""
    label = [None] * (2 * len(labels) - 1)
    for k, x in enumerate(labels):
        label[m + 2 * k - k.bit_count()] = x
    return label


def _balanced(labels, m: int) -> RootedTree:
    """The balanced tree of height m over ``labels`` in leaf order."""
    return _nodes(DfsIndex.derive(_balanced_preorder(labels, m), _perfect(m)))


def gen_balanced(m: int) -> RootedTree:
    """Balanced rooted tree of height m with leaves 1..2^m left-to-right."""
    if not 0 <= m <= MAX_M:
        raise ValueError(f"balanced height m={m} out of range [0, {MAX_M}]")
    return _balanced(range(1, 2**m + 1), m)


def gen_caterpillar(n: int, rooted: bool = False):
    """Caterpillar (1,(2,(…,(n-1,n)))) on leaves 1..n in spine order, unrooted unless rooted."""
    if rooted:
        if n < 1:
            raise ValueError("rooted caterpillar needs n >= 1")
        label = [None] * (2 * n - 1)
        label[1::2], label[-1] = range(1, n), n  # [None, 1, None, 2, ..., None, n - 1, n]
        return _nodes(DfsIndex.derive(label))
    if n < 3:
        raise ValueError("unrooted caterpillar needs n >= 3")
    return unroot(gen_caterpillar(n, rooted=True))


def gen_class_b(m: int) -> UnrootedTree:
    """Unrooted balanced tree with an edge center and 2^m leaves (m >= 2)."""
    if m < 2:
        raise ValueError("class-B trees need m >= 2 (at least 4 leaves)")
    return unroot(gen_balanced(m))


def gen_class_c(m: int) -> UnrootedTree:
    """Unrooted balanced tree with a vertex center and 3 * 2^(m-1) leaves: (B1,(B2,B3)) unrooted."""
    if m < 1:
        raise ValueError("class-C trees need m >= 1")
    if m > MAX_M:
        raise ValueError(f"class-C m={m} out of range [1, {MAX_M}]")
    h, p = 2 ** (m - 1), _perfect(m - 1)
    b1, b2, b3 = (_balanced_preorder(range(i * h + 1, i * h + h + 1), m - 1) for i in range(3))
    return unroot(_nodes(DfsIndex.derive([None, *b1, None, *b2, *b3], [3 * h, *p, 2 * h, *p, *p])))


def gen_extremal_fhk(h: int, k: int) -> RootedTree:
    """The extremal tree of height <= h whose balanced restrictions top out
    at height k: balanced when h == k or k == 0, otherwise the join of the
    (h-1, k) and (h-1, k-1) extremal trees.  Leaves are 1..f(h,k), at most
    2^MAX_M (``gen_balanced``'s cap)."""
    if not 0 <= k <= h:
        raise ValueError(f"need 0 <= k <= h, got h={h}, k={k}")
    # f(h, k) >= 2^k, and f(h, k) >= f(h, 1) = h + 1 for k >= 1: bound both
    # before f_closed, whose cost grows with k.
    if k > MAX_M or (k and h >= 2**MAX_M) or f_closed(h, k) > 2**MAX_M:
        raise ValueError(f"f(h={h}, k={k}) is above the cap of 2^{MAX_M} leaves")
    labels = itertools.count(1)

    def expand(item):
        h, k = item
        if k == 0:
            return next(labels)
        if h == k:
            return (h - 1, k - 1), (h - 1, k - 1)
        return (h - 1, k), (h - 1, k - 1)

    return rebuild((h, k), expand)


def swap_sequence(k: int) -> tuple:
    """The recursive quarter-swap permutation of (1, ..., 4^k)."""
    if k < 0:
        raise ValueError("k must be >= 0")

    def rec(seq):
        if len(seq) == 1:
            return seq
        q = len(seq) // 4
        s1, s2, s3, s4 = seq[:q], seq[q : 2 * q], seq[2 * q : 3 * q], seq[3 * q :]
        return rec(s1) + rec(s3) + rec(s2) + rec(s4)

    return rec(tuple(range(1, 4**k + 1)))


def gen_swap_pair(k: int, rooted: bool = True):
    """The conjectured-extremal pair: two balanced trees of height 2k, the
    second with leaves permuted by swap_sequence(k).  The unrooted variant
    removes both roots."""
    if k < 1:
        raise ValueError("swap pairs need k >= 1")
    t1 = gen_balanced(2 * k)
    t2 = _balanced(swap_sequence(k), 2 * k)
    if rooted:
        return t1, t2
    return unroot(t1), unroot(t2)


def relabel(t, mapping: dict):
    """Replace every leaf label via ``mapping`` (a bijection on the labels).
    The copy keeps t's index, labels mapped; an unrooted one is rerooted
    if its smallest leaf moved, and builds its adjacency when it is read."""
    ix, get = t.dfs(), mapping.__getitem__
    ix = DfsIndex([x and get(x) for x in ix.label], ix.nleaves, ix.first, list(map(get, ix.order)))
    for x in ix.order:
        _check_label(x)
    if isinstance(t, RootedTree):
        if len(set(ix.order)) != len(ix.order):
            raise TreeError("relabel mapping is not injective on the leaves")
        return _nodes(ix)
    _check_distinct(ix.order)  # named in t's leaf order, before any rerooting
    return _unroot_index(ix)


# --------------------------------------------------------------------------
# Random models
# --------------------------------------------------------------------------


def _preorder(root: int, kids: list, head=()) -> list:
    """The preorder label list of a tree on flat lists, after ``head``: a
    leaf x is -x, internal node j has children kids[2 * j] (left) and
    kids[2 * j + 1]."""
    label, stack = list(head), [root]
    while stack:
        v = stack.pop()
        if v < 0:
            label.append(-v)
        else:
            label.append(None)
            stack += (kids[2 * v + 1], kids[2 * v])
    return label


def _uniform_rooted(n: int, rng: SplitMix64) -> list:
    """Uniform over the (2n-3)!! labelled rooted topologies: each new leaf
    goes into a uniformly random edge (counting the edge above the root).
    The edges are the child slots of ``kids`` in the order they were made,
    after the edge above the root; returns the tree's preorder labels."""
    root, kids = -1, []
    for lab, pick in zip(range(2, n + 1), rng.randranges(range(1, 2 * n - 2, 2))):
        if pick == 0:
            kids += (root, -lab)
            root = len(kids) // 2 - 1
        else:
            kids += (kids[pick - 1], -lab)
            kids[pick - 1] = len(kids) // 2 - 1
    return _preorder(root, kids)


def _yule_rooted(n: int, rng: SplitMix64) -> list:
    """Yule (random splitting): repeatedly bifurcate a uniformly random
    extant leaf; the new tip takes the next unused label.  ``tips`` lists
    the slots of ``kids`` that hold leaves; returns the preorder labels."""
    if n == 1:
        return [1]
    kids, tips = [-1, -2], [0, 1]
    for lab, i in zip(range(3, n + 1), rng.randranges(range(2, n))):
        slot, j = tips[i], len(kids) // 2
        kids += (kids[slot], -lab)
        kids[slot], tips[i] = j, 2 * j
        tips.append(2 * j + 1)
    return _preorder(0, kids)


def _uniform_unrooted(n: int, rng: SplitMix64) -> list:
    """Uniform over the (2n-5)!! labelled unrooted topologies by sequential
    insertion of leaves 4..n into a uniformly random edge; returns the
    preorder labels of the tree rooted at leaf 1's pendant edge, as
    ``_unroot_index`` reads them.  That rooting is kept on ``_preorder``'s
    child slots: internal node 0 is the first centre, lab - 3 the node
    added with leaf lab, ``top`` the node below leaf 1 and ``up[c]`` c's
    parent.  Children keep the order nodes were added in, so a new node
    goes last at its parent, above the child c whose edge it split.  Edge
    k, numbered as the draws number them, has lower end ``low[k]``;
    ``near[k]`` says that end is nearer the centre (the path to leaf 1),
    and a split edge's half nearer the centre keeps its number."""
    kids, top, up = [-2, -3], 0, [0] * (2 * n)  # a leaf -x's parent sits x from the end of up
    low, near = [0, -2, -3], bytearray(b"\1\0\0")
    for lab, pick in zip(range(4, n + 1), rng.randranges(range(3, 2 * n - 4, 2))):
        c, j = low[pick], lab - 3
        kids += (c, -lab)
        if c == top:
            top = j
        else:
            p = up[c]
            kids[2 * p] += kids[2 * p + 1] - c  # c's sibling first, then j
            kids[2 * p + 1], up[j] = j, p
        up[c] = up[-lab] = j
        if near[pick]:
            low += (j, -lab)
            near += b"\1\0"
        else:
            low[pick] = j
            low += (c, -lab)
            near += b"\0\0"
    return _preorder(top, kids, (None, 1))


def gen_random(n: int, model: RandomModel, rooted: bool = False):
    """Random tree on leaves 1..n; identical for identical (model, seed, n)."""
    rng = SplitMix64(model.seed)
    if rooted:
        if n < 1:
            raise ValueError("rooted random trees need n >= 1")
        build = _uniform_rooted if model.kind == UNIFORM else _yule_rooted
        return _nodes(DfsIndex.derive(build(n, rng)))
    if n < 3:
        raise ValueError("unrooted random trees need n >= 3")
    build = _uniform_unrooted if model.kind == UNIFORM else _yule_rooted
    return _unroot_index(DfsIndex.derive(build(n, rng)))


# --------------------------------------------------------------------------
# Exhaustive enumeration (tiny n)
# --------------------------------------------------------------------------


def _rooted_insertions(t: RootedTree, lab: int):
    """All trees obtained by inserting ``lab`` at any edge or above the root."""
    yield RootedTree.branch(t, RootedTree.leaf(lab))
    if not t.is_leaf:
        for left in _rooted_insertions(t.left, lab):
            yield RootedTree.branch(left, t.right)
        for right in _rooted_insertions(t.right, lab):
            yield RootedTree.branch(t.left, right)


def _unrooted_insert(adj: dict, labels: dict, edge, lab: int):
    adj = {v: list(ns) for v, ns in adj.items()}
    u, v = edge
    w = max(adj) + 1
    x = w + 1
    adj[u][adj[u].index(v)] = w
    adj[v][adj[v].index(u)] = w
    adj[w] = [u, v, x]
    adj[x] = [w]
    return adj, {**labels, x: lab}


def enumerate_topologies(n: int, rooted: bool = False, force: bool = False):
    """Yield every labelled topology on leaves 1..n exactly once:
    (2n-3)!! rooted, (2n-5)!! unrooted."""
    limit = ENUM_GUARD_ROOTED if rooted else ENUM_GUARD_UNROOTED
    if n > limit and not force and not guards_lifted():
        raise ValueError(
            f"enumeration of n={n} exceeds the guard (n <= {limit}); "
            "pass force=True or set AGREETREE_GUARDS=off"
        )
    if rooted:
        if n < 1:
            raise ValueError("rooted enumeration needs n >= 1")

        def rec_r(k):
            if k == 1:
                yield RootedTree.leaf(1)
                return
            for t in rec_r(k - 1):
                yield from _rooted_insertions(t, k)

        yield from rec_r(n)
        return
    if n < 3:
        raise ValueError("unrooted enumeration needs n >= 3")

    def rec_u(k):  # on insertion ids, which fix the order of the topologies
        if k == 3:
            yield {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}, {1: 1, 2: 2, 3: 3}
            return
        for adj, labels in rec_u(k - 1):
            for edge in sorted((u, v) for u, ns in adj.items() for v in ns if u < v):
                yield _unrooted_insert(adj, labels, edge, k)

    yield from (UnrootedTree(adj, labels) for adj, labels in rec_u(n))
