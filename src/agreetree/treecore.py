"""Binary phylogenetic trees with integer leaf labels, plus Newick I/O.

Two kinds of tree live here:

* ``RootedTree``: a node structure.  Every internal node has exactly two
  children; a single-leaf tree is one node that is both root and leaf.
  A root made from an index (the parse, ``rebuild``, rootings,
  restrictions, the generators) holds the index and builds its nodes on
  the first ``left`` or ``right``; its ``height`` and ``balanced`` are
  read off the index.  Nodes cache no leaf sets.  No function recurses.
* ``UnrootedTree``: an adjacency map over its index.  Every internal
  vertex has degree 3, leaves have degree 1, and at least three leaves are
  required (degree constraints force this).  A tree the package builds
  valid (parse, ``unroot``, restrictions, ``relabel``, the generators)
  skips the full validation and holds its index alone; its adjacency is
  built on the first read of ``adj``, ``leaf_label`` or ``label_vertex``.

Either kind's one numbering is its ``DfsIndex``, written by the parse's
scan, ``_reroot`` or ``rebuild``, or walked once by ``dfs()``, and kept.
An unrooted tree's indexes its default rooting (below), and every one has
vertex v at node v + 1 (``_unroot_index``), so an edge's lower end is its
larger id and ``DfsIndex.side`` reads either side.  Restriction, the
matchers, the exact DP, the balanced fold, the diameter fold
(``Diameter``: centers, radii, balance classes) and the writer read it.

Leaf labels are positive integers (not bools), distinct within a tree.
There are no branch lengths and no internal labels.

Newick grammar (exact):

    tree    := subtree ";"
    subtree := LABEL | "(" subtree "," subtree ")"
    LABEL   := [1-9][0-9]*

with one extension: the *top-level* node may have three children, which
denotes an unrooted tree (the standard trifurcation convention).  Whitespace
between tokens is ignored.  Serialisation is canonical (children are
ordered by the smallest leaf label in their subtree), so label-respecting
isomorphic trees serialise identically.

An unrooted tree is rooted one way by default: ``root_at_leaf_edge`` roots
it on the pendant edge of its smallest leaf m, and ``to_newick`` writes it,
from its DFS index, as that rooting "(m,(A,B));" with the inner
parentheses dropped, "(m,A,B);".  Rootings, restrictions (``keep``) and
the renumbering of rooted indexes are ``_reroot`` on an index, writing
the result's preorder: a branch kept whole is a slice of the index, and
only the nodes over the kept leaves are visited.

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate


class TreeError(ValueError):
    """Invalid tree construction or operation argument."""


class NewickError(TreeError):
    """Newick text rejected; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_label(x):
    if not isinstance(x, int) or isinstance(x, bool) or x <= 0:
        raise TreeError(f"leaf label must be a positive integer, got {x!r}")


# --------------------------------------------------------------------------
# Rooted trees
# --------------------------------------------------------------------------


class RootedTree:
    """A rooted binary tree node; a node doubles as the subtree below it.

    Attributes
    ----------
    label    : int | None   leaf label; None for internal nodes
    left     : RootedTree | None
    right    : RootedTree | None
    nleaves  : int          number of leaves below (inclusive)
    height   : int          max root-to-leaf distance in edges; 0 for a leaf
    balanced : bool         True iff every leaf is at depth == height

    A root built from a DFS index (``_nodes``) starts with ``label``,
    ``nleaves`` and the index alone.  Its first ``height`` or ``balanced``
    compares the index's ``nleaves`` with the balanced tree's (``_perfect``)
    when it has 2^m leaves, and otherwise folds the index once.  Its first
    ``left`` or ``right`` builds every node below it, kept in its slots.
    Copies and pickles of a root with an index carry the index, not the
    nodes.
    """

    __slots__ = ("label", "left", "right", "nleaves", "height", "balanced", "_dfs")

    def __init__(self, label, left, right, nleaves, height, balanced):
        self.label = label
        self.left = left
        self.right = right
        self.nleaves = nleaves
        self.height = height
        self.balanced = balanced
        self._dfs = None

    def __getattr__(self, name):  # reached only for a slot not yet set: a lazy root's
        if name in ("height", "balanced"):
            m = self.nleaves.bit_length() - 1
            if self.nleaves == 1 << m and self._dfs.nleaves == _perfect(m):
                self.height, self.balanced = m, True
            else:  # balanced means 2^height leaves in the one shape _perfect lists
                self.height, self.balanced = _height(self._dfs), False
        elif name in ("left", "right"):
            top = _build(self._dfs)
            self.left, self.right = top.left, top.right
            self.height, self.balanced = top.height, top.balanced
        else:
            raise AttributeError(name)
        return object.__getattribute__(self, name)

    def __reduce_ex__(self, protocol):
        if self._dfs is None:
            return super().__reduce_ex__(protocol)
        return _nodes, (self._dfs,)

    @classmethod
    def leaf(cls, label: int) -> "RootedTree":
        _check_label(label)
        return cls(label, None, None, 1, 0, True)

    @classmethod
    def branch(cls, left: "RootedTree", right: "RootedTree") -> "RootedTree":
        """Internal node over two subtrees.  Leaf-set disjointness is the
        caller's responsibility (``treeops.join`` checks it)."""
        height = 1 + max(left.height, right.height)
        balanced = left.balanced and right.balanced and left.height == right.height
        return cls(None, left, right, left.nleaves + right.nleaves, height, balanced)

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    @property
    def leaves(self) -> frozenset:
        """Leaf-label set below this node, read from its kept DFS index or
        from one built for the call."""
        return frozenset((self._dfs or DfsIndex.walk(self)).order)

    def dfs(self) -> "DfsIndex":
        """The DFS index below this node (of an unrooted tree: of its
        default rooting), built once and kept."""
        if self._dfs is None:
            self._dfs = DfsIndex.walk(self)
        return self._dfs

    def __repr__(self):
        return f"<RootedTree {to_newick(self)!r}>"


class DfsIndex:
    """A tree's nodes numbered in preorder, left child first, as the parse
    writes them, ``walk`` finds them or ``derive`` reads them off their
    labels: node i has ``label[i]`` (None if internal), ``nleaves[i]`` and
    ``first[i]``, the DFS position of its first leaf; ``order`` lists the
    leaf labels in DFS order and ``pos`` maps each to its position.  The
    children of internal node i are i + 1 and i + 2 * nleaves[i + 1], so
    reversed preorder lists children first.  An unrooted tree is indexed
    as ``root_at_leaf_edge`` roots it; its vertex v is node v + 1."""

    __slots__ = ("label", "nleaves", "first", "order", "_pos")

    def __init__(self, label, nleaves, first, order):
        self.label, self.nleaves, self.first, self.order = label, nleaves, first, order
        self._pos = None

    @classmethod
    def walk(cls, t) -> "DfsIndex":
        """The index of t by one explicit-stack walk over its nodes, or over
        its adjacency from its smallest leaf (``_adjacency_preorder``)."""
        if isinstance(t, RootedTree):
            label, stack = [], [t]
            while stack:
                node = stack.pop()
                label.append(node.label)
                if node.label is None:
                    stack += (node.right, node.left)
            return cls.derive(label)
        return cls.derive(_adjacency_preorder(t.adj, t.leaf_label, t.label_vertex[min(t.label_vertex)]))

    @classmethod
    def derive(cls, label: list, nleaves=None) -> "DfsIndex":
        """The index of the preorder ``label``: ``nleaves``, unless the
        caller knows them, by one pass in reverse, children first, and
        ``first`` by a running leaf count."""
        if nleaves is None:
            nleaves = [1] * len(label)
            for i in range(len(label) - 1, -1, -1):
                if label[i] is None:
                    left = nleaves[i + 1]
                    nleaves[i] = left + nleaves[i + 2 * left]
        first = array("i", accumulate([x is not None for x in label[:-1]], initial=0))
        return cls(label, nleaves, first, [x for x in label if x is not None])

    @property
    def pos(self) -> dict:
        """Built on first use; a repeated label (``RootedTree.branch`` allows
        one) raises TreeError, naming the first one in DFS order."""
        if self._pos is None:
            pos = {x: i for i, x in enumerate(self.order)}  # a repeat keeps its last position
            if len(pos) < len(self.order):
                x = next(x for i, x in enumerate(self.order) if pos[x] != i)
                raise TreeError(f"duplicate leaf label {x}")
            self._pos = pos
        return self._pos

    def positions(self, labels: frozenset) -> list:
        """The sorted DFS positions of ``labels``; TreeError names those
        not in the tree."""
        pos = self.pos
        if not labels <= pos.keys():
            raise TreeError(f"labels {sorted(labels - pos.keys())} not in tree")
        return sorted(map(pos.__getitem__, labels))

    def leaves(self, i: int) -> list:
        """The leaf labels below node i, in DFS order."""
        return self.order[self.first[i] : self.first[i] + self.nleaves[i]]

    def below(self, labels, i: int) -> list:
        """The members of ``labels`` that are leaves below node i."""
        lo, get = self.first[i], self.pos.get
        hi = lo + self.nleaves[i]
        return [x for x in labels if lo <= get(x, -1) < hi]

    def side(self, p, w) -> frozenset:
        """The leaf labels on vertex w's side of edge p-w of an unrooted
        tree: the slice of ``order`` below the edge's lower end (node
        max(p, w) + 1), or the rest of ``order``."""
        k, order = max(p, w) + 1, self.order
        lo, hi = self.first[k], self.first[k] + self.nleaves[k]
        return frozenset(order[lo:hi] if w > p else order[:lo] + order[hi:])


def _adjacency_preorder(adj, leaf_label: dict, v0: int) -> list:
    """The preorder labels of the unrooted tree on ``adj`` (vertex ->
    sorted neighbours) rooted at leaf v0's pendant edge, v0 left, each
    vertex's branches in the order of its neighbours."""
    label, stack = [None, leaf_label[v0]], [(v0, adj[v0][0])]  # (p, w): the branch at w away from p
    while stack:
        p, w = stack.pop()
        if w in leaf_label:
            label.append(leaf_label[w])
            continue
        label.append(None)
        a, b, c = adj[w]
        stack += ((w, c), (w, b)) if a == p else ((w, c), (w, a)) if b == p else ((w, b), (w, a))
    return label


def rebuild(top, expand) -> RootedTree:
    """Build a RootedTree, with its index, from ``top``: ``expand(item)``
    returns a leaf label or a tuple (left item, right item), and left
    subtrees are expanded before right ones."""
    label, stack = [], [top]
    while stack:
        out = expand(stack.pop())
        if type(out) is tuple:
            label.append(None)
            stack += (out[1], out[0])
        else:
            _check_label(out)
            label.append(out)
    return _nodes(DfsIndex.derive(label))


def _nodes(ix: DfsIndex) -> RootedTree:
    """The root of index ``ix``, which it keeps: a leaf, or an internal
    root with ``label`` and ``nleaves`` set, whose other slots are filled
    when first read (``RootedTree.__getattr__``)."""
    if ix.label[0] is not None:
        t = RootedTree(ix.label[0], None, None, 1, 0, True)
    else:
        t = RootedTree.__new__(RootedTree)
        t.label, t.nleaves = None, ix.nleaves[0]
    t._dfs = ix
    return t


def _build(ix: DfsIndex) -> RootedTree:
    """Every node of index ``ix``'s tree, by one pass in reverse, children
    first; the root is returned."""
    label, nleaves, built = ix.label, ix.nleaves, []
    for i in range(len(label) - 1, -1, -1):
        x = label[i]
        if x is not None:
            built.append(RootedTree(x, None, None, 1, 0, True))
            continue
        left, right = built.pop(), built[-1]
        lh, rh = left.height, right.height  # RootedTree.branch, inlined
        balanced = lh == rh and left.balanced and right.balanced
        built[-1] = RootedTree(None, left, right, nleaves[i], 1 + (lh if lh > rh else rh), balanced)
    return built[0]


def _perfect(m: int) -> list:
    """The preorder ``nleaves`` of the balanced tree of height m:
    P(0) = [1] and P(k) = [2^k] + P(k - 1) + P(k - 1)."""
    p = [1]
    for k in range(1, m + 1):
        p = [1 << k] + p + p
    return p


def _height(ix: DfsIndex) -> int:
    """The height of index ``ix``'s tree, by one fold in reverse."""
    label, nleaves = ix.label, ix.nleaves
    h = [0] * len(label)
    for i in range(len(label) - 1, -1, -1):
        if label[i] is None:
            a, b = h[i + 1], h[i + 2 * nleaves[i + 1]]
            h[i] = 1 + (a if a > b else b)
    return h[0]


# --------------------------------------------------------------------------
# Unrooted trees
# --------------------------------------------------------------------------


class UnrootedTree:
    """Unrooted binary phylogenetic tree, held as its DFS index.

    ``adj`` maps vertex id -> sorted tuple of neighbour ids; ``leaf_label``
    maps leaf vertex id -> label.  Vertex v is node v + 1 of ``dfs()``: the
    smallest leaf is 0 and its neighbour 1.  The constructor checks the
    caller's ids, then renumbers them so.  A tree the package builds
    (``_unroot_index``) holds only its index: ``adj``, ``leaf_label`` and
    ``label_vertex`` are built from it when one is first read, and copies
    and pickles carry the index.  Instances are treated as immutable.
    """

    __slots__ = ("adj", "leaf_label", "label_vertex", "_leaves", "_dfs", "_diameter")

    def __init__(self, adj: dict, leaf_label: dict):
        self.adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self.leaf_label, self.label_vertex = dict(leaf_label), {}
        self._validate()
        t = _unroot_index(DfsIndex.walk(self))
        self.adj, self.leaf_label, self.label_vertex = t.adj, t.leaf_label, t.label_vertex
        self._leaves, self._dfs, self._diameter = None, t._dfs, None

    def __getattr__(self, name):  # reached only for a slot not yet set: a lazy tree's
        if name not in ("adj", "leaf_label", "label_vertex"):
            raise AttributeError(name)
        self.adj, self.leaf_label = _adjacency(self._dfs)
        self.label_vertex = dict(zip(self.leaf_label.values(), self.leaf_label))
        return object.__getattribute__(self, name)

    def __reduce_ex__(self, protocol):
        return _unroot_index, (self.dfs(),)

    def _validate(self):
        adj = self.adj
        nvert = len(adj)
        nedges = sum(len(ns) for ns in adj.values())
        if nedges % 2 != 0 or nedges // 2 != nvert - 1:
            raise TreeError("unrooted tree must have exactly |V|-1 edges")
        for v, ns in adj.items():
            deg = len(ns)
            if deg not in (1, 3):
                raise TreeError(f"vertex {v} has degree {deg}; must be 1 or 3")
            if len(set(ns)) != deg or v in ns:
                raise TreeError(f"vertex {v} has repeated or self neighbours")
            for w in ns:
                if w not in adj or v not in adj[w]:
                    raise TreeError(f"edge {v}-{w} is not symmetric")
            if (deg == 1) != (v in self.leaf_label):
                raise TreeError(f"vertex {v}: exactly the degree-1 vertices carry labels")
        if len(self.leaf_label) < 3:
            raise TreeError("an unrooted tree needs at least 3 leaves")
        for v, lab in self.leaf_label.items():
            _check_label(lab)
            if lab in self.label_vertex:
                raise TreeError(f"duplicate leaf label {lab}")
            self.label_vertex[lab] = v
        seen, stack = set(), [next(iter(adj))]
        while stack:  # connectivity; acyclicity follows from the edge count
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack += adj[v]
        if len(seen) != nvert:
            raise TreeError("unrooted tree is not connected")

    @property
    def leaves(self) -> frozenset:
        if self._leaves is None:
            self._leaves = frozenset(self.dfs().order)
        return self._leaves

    @property
    def nleaves(self) -> int:
        return len(self.dfs().order)

    dfs = RootedTree.dfs

    def diameter(self) -> "Diameter":
        """The tree's ``Diameter``, built once and kept."""
        if self._diameter is None:
            self._diameter = Diameter(self)
        return self._diameter

    def edges(self) -> list:
        """Undirected edges as (u, v) with u < v, sorted: read off the index
        as each internal vertex v's edges to its children, v + 1 and
        v + 2 * nleaves[v + 2], after leaf 0's to vertex 1."""
        ix = self.dfs()
        label, nleaves, out = ix.label, ix.nleaves, [(0, 1)]
        for v in range(1, len(label) - 1):
            if label[v + 1] is None:
                out += ((v, v + 1), (v, v + 2 * nleaves[v + 2]))
        return out

    def __repr__(self):
        return f"<UnrootedTree {to_newick(self)!r}>"


class Diameter:
    """An unrooted tree's longest path, by one fold over its DFS index read
    as rooted at node 1, the smallest leaf.  Keys rank leaves by (distance,
    -vertex id): each node's is its farthest leaf below, then outside.
    ``path`` runs from u, farthest from the smallest leaf, to w, farthest
    from u: up the descent from node 0 to u, then down the one to w.
    ``above`` is the parent of the path's top vertex, the neighbour off
    the path on the smallest leaf's side, or None when the path holds that
    leaf.  ``balanced`` says every leaf is that far from another.
    ``hanging`` is left None for ``decompose._spine`` to fill once."""

    __slots__ = ("path", "above", "balanced", "hanging")

    def __init__(self, t: "UnrootedTree"):
        ix = t.dfs()
        label, nleaves, size = ix.label, ix.nleaves, len(ix.label)
        span = size - 1  # key at node i: distance * span + span - i, so ties go to the smaller id
        key = list(range(span, -1, -1))
        for i in range(size - 1, 1, -1):
            if label[i] is None:
                key[i] = max(key[i + 1], key[i + 2 * nleaves[i + 1]]) + span
        below, key[2] = key[2], key[1] + span  # outside node 2 lies node 1 alone
        for i in range(2, size):
            if label[i] is None:
                a, b = i + 1, i + 2 * nleaves[i + 1]
                up = key[i] + span
                key[a], key[b] = max(up, key[b] + 2 * span), max(up, key[a] + 2 * span)
        u = span - below % span
        least = min(key[i] for i in range(2, size) if label[i] is not None)  # leaves but node 1
        self.balanced = below // span + 1 == key[u] // span == least // span
        du, dw = _descent(nleaves, u), _descent(nleaves, span - key[u] % span)  # to u and to w
        c = 1  # du[:c] == dw[:c]; u and w are leaves, so neither descent ends first
        while du[c] == dw[c]:
            c += 1
        top = du[c - 1]  # node 0, between vertices 0 and 1, is no vertex
        self.path = [i - 1 for i in du[: c - 1 : -1] + [top] * (top > 0) + dw[c:]]
        self.above = None if top == 0 else 0 if top == 2 else du[c - 2] - 1
        self.hanging = None


def diameter_path(t: UnrootedTree) -> list:
    """A longest leaf-to-leaf path, as a vertex list (deterministic)."""
    return list(t.diameter().path)


def center(t: UnrootedTree) -> frozenset:
    """The 1 or 2 vertices of minimum eccentricity (2 => adjacent)."""
    path = t.diameter().path
    return frozenset(path[(len(path) - 1) // 2 : len(path) // 2 + 1])


def radius(t: UnrootedTree) -> int:
    """Eccentricity of a center vertex: ceil(diameter / 2)."""
    return len(t.diameter().path) // 2


# --------------------------------------------------------------------------
# Balance classification
# --------------------------------------------------------------------------

ROOTED_BALANCED = "rooted-balanced"
CLASS_B = "class-b"  # unrooted, center is an edge, 2^m leaves
CLASS_C = "class-c"  # unrooted, center is a vertex, 3 * 2^(m-1) leaves
NOT_BALANCED = "not-balanced"


@dataclass(frozen=True)
class BalanceClass:
    kind: str
    m: int | None = None


def classify_balanced(t) -> BalanceClass:
    """Balance class of a rooted or unrooted tree.

    Rooted: balanced of height m iff every leaf is at depth m.  Unrooted:
    class B_m when the center is an adjacent pair and every leaf is at
    distance m-1 from it (2^m leaves); class C_m when the center is a single
    vertex and every leaf is at distance m from it (3 * 2^(m-1) leaves).
    """
    if not (t.balanced if isinstance(t, RootedTree) else t.diameter().balanced):
        return BalanceClass(NOT_BALANCED)
    if isinstance(t, RootedTree):
        return BalanceClass(ROOTED_BALANCED, t.height)
    return BalanceClass(CLASS_C if len(t.diameter().path) % 2 else CLASS_B, radius(t))


def is_caterpillar(t) -> bool:
    """True iff the internal vertices form a single path.

    Rooted form: every internal node has at most one internal child (so each
    spine node hangs at least one leaf).  Unrooted form: a longest path
    holds all n - 2 internal vertices, so n vertices.
    """
    if isinstance(t, RootedTree):  # down the index's spine while a child is a leaf
        nleaves, i = t.dfs().nleaves, 0
        while nleaves[i] > 1:
            if nleaves[i + 1] == 1:
                i += 2  # the left child is a leaf: on to the right one
            elif nleaves[i] - nleaves[i + 1] == 1:
                i += 1
            else:
                return False
        return True
    return len(t.diameter().path) == t.nleaves


# --------------------------------------------------------------------------
# Rooting and unrooting
# --------------------------------------------------------------------------


def root_at_edge(t: UnrootedTree, edge, keep=None) -> RootedTree:
    """Subdivide ``edge`` = (u, v) with a new degree-2 root: u's side left,
    v's side right, every vertex's branches in the order of its sorted
    neighbours.  With ``keep`` set (a non-empty subset of the leaves) the
    result is the restriction to ``keep``, rooted at its MRCA.  Its index
    is written from t's by ``_reroot``; its nodes are built when read."""
    return _nodes(_edge_index(t, edge, keep))


def _edge_index(t: UnrootedTree, edge, keep=None) -> DfsIndex:
    """The DFS index of ``root_at_edge(t, edge, keep)``."""
    if not isinstance(t, UnrootedTree):
        raise TreeError(f"only an unrooted tree can be rooted at an edge, got {type(t).__name__}")
    u, v = edge
    ix, P = t.dfs(), None
    if not _adjacent(ix, u, v):
        raise TreeError(f"edge {edge!r} not in tree")
    if keep is not None:
        keep = frozenset(keep)
        if not keep:
            raise TreeError("cannot restrict to an empty leaf set")
        P = ix.positions(keep)
    return DfsIndex.derive(_reroot(ix, max(u, v) + 1, u > v, P))


def _adjacent(ix: DfsIndex, u, v) -> bool:
    """Whether vertices u and v of the unrooted tree indexed by ``ix`` share
    an edge: the larger is a child of the smaller (vertex v is node v + 1),
    or they are leaf 0 and its neighbour 1."""
    vertices = range(len(ix.label) - 1)  # ids compare as dict keys would: True is 1
    if u not in vertices or v not in vertices:
        return False
    a, b = (u, v) if u < v else (v, u)
    if a == 0:
        return b == 1
    return ix.label[a + 1] is None and b in (a + 1, a + 2 * ix.nleaves[a + 2])


def _reroot(ix: DfsIndex, k: int, left: bool = True, P=None) -> list:
    """The preorder ``label`` of ``ix``'s tree as ``_unroot_index`` reads
    it, rooted at the edge above node k with k's side left (right if not
    ``left``), or at node 0 for k = 0, and pruned to P, the sorted DFS
    positions of the leaves kept (all if None): branches without one go, as
    do nodes left with one child.  A branch below a node is a slice of ``label``
    when it keeps all its leaves, else a preorder pruned by bisection.  The
    branch above k climbs the ancestors a descent from node 0 finds, each
    adding its parent's branch, then its other child (at node 1, the
    other child first: its parent's branch is node 0's second child).  The
    climb compares a node's leaves with the first and last kept, and
    bisects only to ask whether a branch keeps a leaf; with no P, never."""
    label, nleaves, first = ix.label, ix.nleaves, ix.first
    p0, p1 = (0, nleaves[0] - 1) if P is None else (P[0], P[-1])  # the first and last kept positions

    def whole(i):  # every kept leaf is below node i
        return first[i] <= p0 and p1 < first[i] + nleaves[i]

    def kept(i):  # some kept leaf is below node i
        if P is None:
            return True
        j = bisect_left(P, first[i])
        return j < len(P) and P[j] < first[i] + nleaves[i]

    parts = [k]  # node i: the branch below it; None: a node over the next two
    if not whole(k):
        path = _descent(nleaves, k)
        up, c = [], k  # the other children of the ancestors kept, lowest first
        for w in reversed(path[:-1]):
            o = w + 2 * nleaves[w + 1] if c == w + 1 else w + 1
            if w == 1:  # vertex 0 meets its other child before node 0's second child
                top = [x for x in (o, 2 * nleaves[1]) if kept(x)]
                break
            if whole(w):  # nothing kept above w, as at node 0
                top = [o]
                break
            if kept(o):
                up.append(o)
            c = w
        up = [None] * (len(up) + len(top) - 1) + top + up[::-1]
        parts = up if not kept(k) else [None, k, *up] if left else [None, *up, k]
    out = []
    for part in parts:
        if part is None:
            out.append(None)
            continue
        if P is None:  # every branch is whole
            out += label[part : part + 2 * nleaves[part] - 1]
            continue
        stack = [(part, bisect_left(P, first[part]), bisect_left(P, first[part] + nleaves[part]))]
        while stack:  # (node, indexes into P of the kept leaves below it)
            i, lo, hi = stack.pop()
            if hi - lo == nleaves[i]:
                out += label[i : i + 2 * nleaves[i] - 1]
                continue
            a, b = i + 1, i + 2 * nleaves[i + 1]
            mid = bisect_left(P, first[b], lo, hi)
            if lo < mid < hi:
                out.append(None)
                stack += ((b, mid, hi), (a, lo, mid))
            else:
                stack.append((a, lo, hi) if mid == hi else (b, lo, hi))
    return out


def _descent(nleaves, k: int) -> list:
    """The nodes of a DFS index from node 0 down to node k."""
    path, i = [0], 0
    while i != k:
        b = i + 2 * nleaves[i + 1]
        i = b if k >= b else i + 1
        path.append(i)
    return path


def root_at_leaf_edge(t: UnrootedTree, keep=None) -> RootedTree:
    """Root at the pendant edge of the smallest leaf, which becomes the
    left child; ``keep`` as for ``root_at_edge``."""
    return root_at_edge(t, (0, 1), keep)


def unroot(t: RootedTree) -> UnrootedTree:
    """Suppress the degree-2 root, merging its two incident edges.  A
    repeated label, which ``RootedTree.branch`` allows, raises TreeError
    naming the first repeat in the result's leaf order."""
    if t.nleaves < 3:
        raise TreeError("unrooting needs at least 3 leaves")
    u = _unroot_index(t.dfs())
    _check_distinct(u.dfs().order)
    return u


def _unroot_index(ix: DfsIndex) -> UnrootedTree:
    """The unrooted tree of rooted index ``ix``, whose labels are distinct,
    holding only its index: ``ix`` if node 1 is the smallest leaf, else
    ``ix`` rerooted at that leaf's pendant edge."""
    m = min(ix.order)
    if ix.label[1] != m:
        ix = DfsIndex.derive(_reroot(ix, ix.label.index(m)))
    t = UnrootedTree.__new__(UnrootedTree)
    t._leaves, t._dfs, t._diameter = None, ix, None
    return t


def _check_distinct(order: list):
    """Raise TreeError naming the first label of ``order`` seen before."""
    if len(set(order)) < len(order):
        seen = set()
        raise TreeError(f"duplicate leaf label {next(x for x in order if x in seen or seen.add(x))}")


def _adjacency(ix: DfsIndex):
    """(adj, leaf_label) of the unrooted tree indexed by ``ix``, vertex v at
    node v + 1, each vertex's parent its first neighbour: leaf 0 hangs from
    vertex 1, and the children of vertex v are v + 1 and
    v + 2 * nleaves[v + 2]."""
    label, nleaves = ix.label, ix.nleaves
    adj, leaf_label, parent = {0: (1,)}, {0: label[1]}, [0] * len(label)
    for v in range(1, len(label) - 1):
        x = label[v + 1]
        if x is None:
            a, b = v + 1, v + 2 * nleaves[v + 2]
            parent[a] = parent[b] = v
            adj[v] = (parent[v], a, b)
        else:
            adj[v] = (parent[v],)
            leaf_label[v] = x
    return adj, leaf_label


# --------------------------------------------------------------------------
# Newick parsing
# --------------------------------------------------------------------------


_LEAF = re.compile(r"(\(*)((?!0)\d+)(\)*)[,;]|.")  # '(' run, leaf, ')' run before its separator; or junk
_SPLIT = re.compile(r"\d\s+\d")  # whitespace between digits: two labels, not one
_TOKEN = re.compile(r"\d+|\S")  # a label or one other non-space character
_CHUNK = 1 << 13  # text per findall: a chunk's match tuples are held at once


def parse_newick(text: str):
    """Parse Newick text into a RootedTree (top arity 1-2) or UnrootedTree
    (top arity 3).  Raises NewickError with a character position.

    One scan, a leaf at a time, writes the DFS index arrays in text
    preorder, which are a rooted tree's index: its root keeps them
    (``_nodes``) and builds its nodes when they are read.  An unrooted
    text "(m,A,B)" whose first top-level child is its smallest leaf is read
    as the rooted "(m,(A,B))"; any other "(A,B,C)" as "((A,B),C)", rerooted
    at its smallest leaf.  A text the scan refuses is read again token by
    token for its first fault."""
    label, nleaves, first, order = _scan(text)
    if len(label) == 2 * len(order) - 1:  # rooted
        return _nodes(DfsIndex(label, nleaves, array("i", first), order))
    at = 2 if label[1] == min(order) else 1  # group the two top-level children from here
    label.insert(at, None)
    nleaves.insert(at, nleaves[at] + nleaves[at + 2 * nleaves[at] - 1])
    first.insert(at, first[at])
    return _unroot_index(DfsIndex(label, nleaves, array("i", first), order))


def _scan(text: str):
    """(label, nleaves, first, order) in text preorder, from one match per
    leaf over the text without its whitespace; ``_fault``'s error when the
    text breaks the grammar.  A valid text has at most 2 * commas + 1
    nodes, so the arrays are sized once and trimmed.  The matches are taken
    a chunk at a time, each cut just after a ',': a leaf's match ends at
    its own separator, so no cut splits one.  A group's leaf count is
    written when its ')' closes; it has two children exactly when its
    subtree has 2 * nleaves - 1 nodes, once every group inside it has."""
    s = "".join(text.split())
    if len(s) < len(text) and _SPLIT.search(text):
        raise _fault(text)
    size = 2 * s.count(",") + 1
    label, nleaves, first = [None] * size, [1] * size, [0] * size  # a group's nleaves is written when it closes
    groups, j, k, at = [], 0, 0, 0  # the open groups, the next node and the leaves so far
    try:  # refused: junk (no label), a label past int()'s digit limit, an unmatched ')',
        # a node past the end or a group without two children
        while at < len(s):
            cut = s.find(",", at + _CHUNK) + 1 or len(s)
            for opens, x, closes in _LEAF.findall(s, at, cut):
                for _ in opens:
                    groups.append(j)
                    first[j] = k
                    j += 1
                label[j] = int(x)
                first[j] = k
                j += 1
                k += 1
                for _ in closes:
                    g = groups.pop()
                    nleaves[g] = n = k - first[g]
                    if g and j - g != 2 * n - 1:
                        raise IndexError
            at = cut
    except (ValueError, IndexError):
        raise _fault(text) from None
    del label[j:], nleaves[j:], first[j:]
    order = [x for x in label if x is not None]
    top = j == 1 or k and label[0] is None and nleaves[0] == k  # one leaf, or a top group that closes last
    if not top or 2 * k - j not in (1, 2) or groups or s[-1] != ";":
        raise _fault(text)
    if s.count(";") > 1 or len(set(order)) < k:  # a ';' before the end, or a repeated label
        raise _fault(text)
    return label, nleaves, first, order


def _fault(text: str) -> NewickError:
    """The error of a text ``_scan`` refused, found token by token: the
    first syntax error, else the first repeated label (at the end of its
    second occurrence), else the leftmost '(' with the wrong number of
    children.  A label past int()'s digit limit is a syntax error."""
    tokens = _TOKEN.findall(text) + [""]  # "" ends the input
    at = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    groups = []  # [children so far, token index of its '('] per open group
    seen = set()
    duplicate = arity = None  # (message, position) of the first such fault
    i = 0
    while True:
        token = tokens[i]
        if groups:
            groups[-1][0] += 1
        if token == "(":
            groups.append([0, i])
            i += 1
            continue
        if not token:
            return NewickError("unexpected end of input", at[i])
        if not token.isdecimal():
            return NewickError(f"expected a leaf label or '(', found {token!r}", at[i])
        if token[0] == "0":
            return NewickError("leaf labels may not start with 0", at[i])
        try:
            label = int(token)
        except ValueError:
            return NewickError(f"leaf label of {len(token)} digits is too long", at[i])
        if label in seen and duplicate is None:
            duplicate = (f"duplicate leaf label {label}", at[i] + len(token))
        seen.add(label)
        i += 1
        while groups and tokens[i] == ")":
            count, opened = groups.pop()
            if count != 2 and (groups or count != 3) and (arity is None or at[opened] < arity[1]):
                node, expected = ("internal", "2") if groups else ("top-level", "2 or 3")
                arity = (f"{node} node has {count} children (expected {expected})", at[opened])
            i += 1
        if not groups:
            break
        if tokens[i] != ",":
            return NewickError("expected ',' or ')'", at[i])
        i += 1
    if tokens[i] != ";":
        return NewickError("expected ';'", at[i])
    if tokens[i + 1]:
        return NewickError("trailing text after ';'", at[i + 1])
    return NewickError(*(duplicate or arity))


# --------------------------------------------------------------------------
# Canonical serialisation
# --------------------------------------------------------------------------


def to_newick(t) -> str:
    """Canonical Newick text; children ordered by smallest leaf label.  An
    unrooted tree is written as its rooting at the smallest leaf m's
    pendant edge, "(m,(A,B));", with the inner parentheses dropped."""
    return "".join(_newick_tokens(t.dfs(), isinstance(t, RootedTree)))


def _newick_tokens(ix: DfsIndex, rooted: bool) -> list:
    """``to_newick``'s tokens of the tree of index ``ix``, rooted or an
    unrooted tree's default rooting: leaf labels (as str), "(", ",", ")"
    and ";".  One pass over the reversed index, children first, finds each
    node's smallest label and flags the internal nodes whose second child
    holds the smaller, to be written first."""
    label, nleaves = ix.label, ix.nleaves
    swap, small = bytearray(len(label)), label[:]  # small: the smallest label below
    for i in range(len(label) - 1, -1, -1):
        if label[i] is None:
            a, b = small[i + 1], small[i + 2 * nleaves[i + 1]]
            if a <= b:
                small[i] = a
            else:
                small[i], swap[i] = b, 1
    out, stack = [], [";", 0]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif label[x] is not None:
            out.append(str(label[x]))
        else:
            a, b = x + 1, x + 2 * nleaves[x + 1]
            out.append("(")
            stack += (")", a, ",", b) if swap[x] else (")", b, ",", a)
    if not rooted:  # "(m,(A,B));" loses its second "(" and that one's ")"
        del out[-3], out[3]
    return out
