"""Binary phylogenetic trees with integer leaf labels, plus Newick I/O.

Two kinds of tree live here:

* ``RootedTree``: a plain node structure.  Every internal node has
  exactly two children; a single-leaf tree is one node that is both root
  and leaf.  Nodes cache no leaf sets.  No function recurses.
* ``UnrootedTree``: an adjacency map.  Every internal vertex has degree 3,
  leaves have degree 1, and at least three leaves are required (degree
  constraints force this).  Trees the package builds valid (parse,
  ``unroot``, the uniform generator) skip the full validation.

Either kind's one numbering is its ``DfsIndex``, written by the parse's
scan or walked once by ``dfs()`` and kept.  An unrooted tree's indexes
its default rooting (below), and every unrooted tree, however built, has
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
parentheses dropped, "(m,A,B);".  ``root_at_edge`` and
``root_at_leaf_edge`` take ``keep``, a leaf subset, and then walk only the
vertices spanning it and the branches they prune, which the DFS positions
in the tree's index find.

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass


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
    """A tree's nodes numbered in preorder, left child first, as
    ``parse_newick`` writes them or ``walk`` finds them: node i has
    ``label[i]`` (None if internal), ``nleaves[i]`` and ``first[i]``, the
    DFS position of its first leaf; ``order`` lists the leaf labels in DFS
    order and ``pos`` maps each to its position.  The children of internal
    node i are i + 1 and i + 2 * nleaves[i + 1], so reversed preorder lists
    children first.  An unrooted tree is indexed as ``root_at_leaf_edge``
    roots it, and its vertex v is node v + 1."""

    __slots__ = ("label", "nleaves", "first", "order", "_pos")

    def __init__(self, label, nleaves, first, order):
        self.label, self.nleaves, self.first, self.order = label, nleaves, first, order
        self._pos = None

    @classmethod
    def walk(cls, t) -> "DfsIndex":
        """The index of t by one explicit-stack walk over its nodes, or over
        its adjacency in sorted-neighbour order by ``root_at_edge``'s ``expand``."""
        label, first, order = [], array("i"), []
        if isinstance(t, RootedTree):
            nleaves = []
            stack = [t]
            while stack:
                node = stack.pop()
                label.append(node.label)
                nleaves.append(node.nleaves)
                first.append(len(order))
                if node.label is None:
                    stack += (node.right, node.left)
                else:
                    order.append(node.label)
        else:
            v0 = t.label_vertex[min(t.label_vertex)]
            expand = _branches(t, (v0, t.adj[v0][0]))
            stack = [None]
            while stack:
                first.append(len(order))
                out = expand(stack.pop())
                if type(out) is tuple:
                    label.append(None)
                    stack += (out[1], out[0])
                else:
                    label.append(out)
                    order.append(out)
            nleaves = [1] * len(label)
            for i in range(len(label) - 1, -1, -1):  # children first
                if label[i] is None:
                    left = nleaves[i + 1]
                    nleaves[i] = left + nleaves[i + 2 * left]
        return cls(label, nleaves, first, order)

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


_JOIN = object()  # stack marker: join the last two built subtrees


def rebuild(top, expand, keep=None):
    """Build a RootedTree from ``top`` with an explicit stack.

    ``expand(item)`` returns a leaf label or a tuple (left item, right
    item); left subtrees are expanded before right ones.  With ``keep``
    set, leaves outside it are dropped and nodes left with one child are
    suppressed; the result is None when no leaf is kept."""
    built = []  # finished subtrees (None when empty), left before right
    stack = [top]
    while stack:
        item = stack.pop()
        if item is _JOIN:
            right = built.pop()
            left = built.pop()
            built.append(RootedTree.branch(left, right) if left and right else left or right)
            continue
        out = expand(item)
        if type(out) is tuple:
            stack += [_JOIN, out[1], out[0]]
        else:
            built.append(RootedTree.leaf(out) if keep is None or out in keep else None)
    return built[0]


# --------------------------------------------------------------------------
# Unrooted trees
# --------------------------------------------------------------------------


class UnrootedTree:
    """Unrooted binary phylogenetic tree as an adjacency map.

    ``adj`` maps vertex id -> sorted tuple of neighbour ids; ``leaf_label``
    maps leaf vertex id -> label.  Vertex v is node v + 1 of ``dfs()``: the
    smallest leaf is 0 and its neighbour 1.  The constructor checks the
    caller's ids, then renumbers them so.  Instances are treated as immutable.
    """

    __slots__ = ("adj", "leaf_label", "label_vertex", "_leaves", "_dfs", "_diameter")

    def __init__(self, adj: dict, leaf_label: dict):
        self.adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self.leaf_label, self.label_vertex = dict(leaf_label), {}
        self._validate()
        t = _unroot_index(DfsIndex.walk(self))
        self.adj, self.leaf_label, self.label_vertex = t.adj, t.leaf_label, t.label_vertex
        self._leaves, self._dfs, self._diameter = None, t._dfs, None

    @classmethod
    def _built(cls, adj: dict, leaf_label: dict) -> "UnrootedTree":
        """A tree the package built valid (neighbours in sorted sequences),
        numbered as it was built: only a repeated label, which
        ``RootedTree.branch`` allows, gets the full check."""
        t = cls.__new__(cls)
        t.adj, t.leaf_label, t._leaves, t._dfs, t._diameter = adj, leaf_label, None, None, None
        t.label_vertex = dict(zip(leaf_label.values(), leaf_label))
        return t if len(t.label_vertex) == len(leaf_label) else cls(adj, leaf_label)

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
            self._leaves = frozenset(self.leaf_label.values())
        return self._leaves

    @property
    def nleaves(self) -> int:
        return len(self.leaf_label)

    dfs = RootedTree.dfs

    def diameter(self) -> "Diameter":
        """The tree's ``Diameter``, built once and kept."""
        if self._diameter is None:
            self._diameter = Diameter(self)
        return self._diameter

    def edges(self) -> list:
        """Undirected edges as (u, v) with u < v, sorted."""
        return sorted((u, v) for u, ns in self.adj.items() for v in ns if u < v)

    def __repr__(self):
        return f"<UnrootedTree {to_newick(self)!r}>"


class Diameter:
    """An unrooted tree's longest path, by one fold over its DFS index read
    as rooted at node 1, the smallest leaf.  Keys rank leaves by (distance,
    -vertex id): each node's is its farthest leaf below, then outside.
    ``path`` runs from u, farthest from the smallest leaf, to w, farthest
    from u; ``balanced`` says every leaf is that far from another."""

    __slots__ = ("path", "balanced")

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
        at, climbs = [u - 1, span - 1 - key[u] % span], ([], [])  # vertices u and w climb to meet
        while at[0] != at[1]:
            k = at[0] < at[1]  # the larger id is no ancestor of the other
            climbs[k].append(at[k])
            at[k] = t.adj[at[k]][0]  # its parent: its smallest neighbour
        self.path = climbs[0] + [at[0]] + climbs[1][::-1]


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
    if isinstance(t, RootedTree):  # down the spine while a child is a leaf
        node = t
        while node.label is None and min(node.left.nleaves, node.right.nleaves) == 1:
            node = node.left if node.right.nleaves == 1 else node.right
        return node.label is not None
    return len(t.diameter().path) == t.nleaves


# --------------------------------------------------------------------------
# Rooting and unrooting
# --------------------------------------------------------------------------


def root_at_edge(t: UnrootedTree, edge, keep=None) -> RootedTree:
    """Subdivide ``edge`` = (u, v) with a new degree-2 root: u's side left,
    v's side right, every vertex's branches in the order of its sorted
    neighbours.  With ``keep`` set (a non-empty subset of the leaves) the
    result is the restriction to ``keep``, rooted at its MRCA; only nodes
    over ``keep`` and the branches they prune are visited."""
    u, v = edge
    if u not in t.adj or v not in t.adj[u]:
        raise TreeError(f"edge {edge!r} not in tree")
    if keep is not None:
        keep = frozenset(keep)
        if not keep:
            raise TreeError("cannot restrict to an empty leaf set")
        if not keep <= t.leaves:
            raise TreeError(f"labels {sorted(keep - t.leaves)} not in tree")
    return rebuild(None, _branches(t, edge, keep), keep)


def _branches(t: UnrootedTree, edge, keep=None):
    """``root_at_edge``'s ``expand``: item None is the new root over the
    two sides of ``edge``, item (p, w) the branch at w away from p; with
    ``keep``, a branch holding none of it is the label 0 (``rebuild`` drops it)."""
    u, v = edge
    adj, leaf_label = t.adj, t.leaf_label
    if keep is not None:
        ix = t.dfs()
        first, nleaves = ix.first, ix.nleaves
        P = sorted(first[t.label_vertex[x] + 1] for x in keep)

    def expand(item):
        if item is None:
            return (v, u), (u, v)
        p, w = item
        if w in leaf_label:
            return leaf_label[w]
        if keep is not None:  # the branch is node w + 1's DFS interval, or the complement of node p + 1's
            k = (w if w > p else p) + 1  # the lower end: the larger id
            held = bisect_left(P, first[k] + nleaves[k]) - bisect_left(P, first[k])
            if held == (0 if w > p else len(P)):
                return 0
        a, b, c = adj[w]
        if a == p:
            return (w, b), (w, c)
        return ((w, a), (w, c)) if b == p else ((w, a), (w, b))

    return expand


def root_at_leaf_edge(t: UnrootedTree, keep=None) -> RootedTree:
    """Root at the pendant edge of the smallest leaf, which becomes the
    left child; ``keep`` as for ``root_at_edge``."""
    return root_at_edge(t, (0, 1), keep)


def unroot(t: RootedTree) -> UnrootedTree:
    """Suppress the degree-2 root, merging its two incident edges."""
    if t.nleaves < 3:
        raise TreeError("unrooting needs at least 3 leaves")
    return _unroot_index(t.dfs())


def _unroot_index(ix: DfsIndex) -> UnrootedTree:
    """The unrooted tree of rooted index ``ix``, vertex v at node v + 1: ``ix``
    is its index if node 1 is the smallest leaf, else one walk renumbers it."""
    if ix.label[1] != min(ix.order):  # the walk's node 1 is the smallest leaf
        ix = DfsIndex.walk(_unrooted(ix.label[1:], ix.nleaves[1:]))
    t = _unrooted(ix.label[1:], ix.nleaves[1:])
    t._dfs = ix
    return t


def _unrooted(label: list, nleaves: list) -> UnrootedTree:
    """The UnrootedTree whose vertex v is node v of a preorder in which the
    children of internal node i are i + 1 and i + 2 * nleaves[i + 1].
    Node 0 is a leaf hanging from node 1, or has a third neighbour: the
    node after its second child's subtree."""
    if label[0] is None:
        b = 2 * nleaves[1]
        adj, leaf_label = {0: (1, b, b + 2 * nleaves[b] - 1)}, {}
    else:
        adj, leaf_label = {0: (1,)}, {0: label[0]}
    parent = [0] * len(label)
    for i in range(1, len(label)):
        x = label[i]
        if x is None:
            a, b = i + 1, i + 2 * nleaves[i + 1]
            parent[a] = parent[b] = i
            adj[i] = (parent[i], a, b)
        else:
            adj[i] = (parent[i],)
            leaf_label[i] = x
    return UnrootedTree._built(adj, leaf_label)


# --------------------------------------------------------------------------
# Newick parsing
# --------------------------------------------------------------------------


_LEAF = re.compile(r"(\(*)((?!0)\d+)(\)*)([,;])|.")  # '(' run, leaf, ')' run, separator; or junk
_SPLIT = re.compile(r"\d\s+\d")  # whitespace between digits: two labels, not one
_TOKEN = re.compile(r"\d+|\S")  # a label or one other non-space character


def parse_newick(text: str):
    """Parse Newick text into a RootedTree (top arity 1-2) or UnrootedTree
    (top arity 3).  Raises NewickError with a character position.

    One scan, a leaf at a time, writes the DFS index arrays in text
    preorder, which are a rooted tree's index: its root keeps them, and one
    pass in reverse builds the nodes.  An unrooted text "(m,A,B)" whose
    first top-level child is its smallest leaf is read as the rooted
    "(m,(A,B))"; any other is built in text order, the centre 0, and
    renumbered once.  A text the scan refuses is read again token by token
    for its first fault."""
    label, nleaves, first, order = _scan(text)
    n = len(order)
    if len(label) == 2 * n - 1:  # rooted
        built = []
        for i in range(len(label) - 1, -1, -1):
            x = label[i]
            if x is not None:
                built.append(RootedTree(x, None, None, 1, 0, True))
                continue
            left, right = built.pop(), built[-1]
            lh, rh = left.height, right.height  # RootedTree.branch, inlined
            built[-1] = RootedTree(
                None, left, right, nleaves[i],
                1 + (lh if lh > rh else rh), lh == rh and left.balanced and right.balanced,
            )
        built[0]._dfs = DfsIndex(label, nleaves, array("i", first), order)
        return built[0]
    if label[1] != min(order):
        return _unroot_index(DfsIndex.walk(_unrooted(label, nleaves)))
    label.insert(2, None)
    nleaves.insert(2, n - 1)
    first.insert(2, 1)
    return _unroot_index(DfsIndex(label, nleaves, array("i", first), order))


def _scan(text: str):
    """(label, nleaves, first, order) in text preorder, from one match per
    leaf over the text without its whitespace; ``_fault``'s error when the
    text breaks the grammar.  A group's leaf count is written when its ')'
    closes; it has two children exactly when its subtree has
    2 * nleaves - 1 nodes, once every group inside it has."""
    s = "".join(text.split())
    if len(s) < len(text) and _SPLIT.search(text):
        raise _fault(text)
    label, nleaves, first, order, groups = [], [], [], [], []
    for m in _LEAF.finditer(s):
        opens, x, closes, _ = m.groups()
        if x is None:
            raise _fault(text)
        k = len(order)
        if opens:  # most leaves open no group
            for _ in opens:
                groups.append(len(label))
                label.append(None)
                first.append(k)
                nleaves.append(0)  # written when the group closes
        try:
            x = int(x)
        except ValueError:  # past int()'s digit limit: the token scan says what comes first
            raise _fault(text) from None
        label.append(x)
        first.append(k)
        nleaves.append(1)
        order.append(x)
        if closes:
            if len(closes) > len(groups):
                raise _fault(text)
            size, k = len(label), k + 1
            for _ in closes:
                g = groups.pop()
                nleaves[g] = k - first[g]
                if g and size - g != 2 * nleaves[g] - 1:
                    raise _fault(text)
    n = len(order)  # one leaf, or a top group that closes last with 2 or 3 children
    top = len(label) == 1 or n and label[0] is None and nleaves[0] == n
    if not top or 2 * n - len(label) not in (1, 2) or groups or s[-1] != ";":
        raise _fault(text)
    if s.count(";") > 1 or len(set(order)) < n:  # a ';' before the end, or a repeated label
        raise _fault(text)
    return label, nleaves, first, order


def _fault(text: str) -> NewickError:
    """The error of a text ``_scan`` refused, found token by token: the
    first syntax error, else the first repeated label (at the end of its
    second occurrence), else the leftmost '(' with the wrong number of
    children."""
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
        label = int(token)
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
    return "".join(map(str, _newick_tokens(t)))


def _newick_tokens(t) -> list:
    """``to_newick``'s tokens: leaf labels (ints), "(", ",", ")" and ";".
    One pass over the reversed DFS index, children first, orders each
    internal node's two children by their smallest labels."""
    ix = t.dfs()
    label, nleaves = ix.label, ix.nleaves
    kids, small = [None] * len(label), label[:]  # small: the smallest label below
    for i in range(len(label) - 1, -1, -1):
        if label[i] is None:
            a, b = i + 1, i + 2 * nleaves[i + 1]
            kids[i] = (a, b) if small[a] <= small[b] else (b, a)
            small[i] = small[kids[i][0]]
    out, stack = [], [";", 0]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif kids[x] is None:
            out.append(label[x])
        else:
            out.append("(")
            stack += (")", kids[x][1], ",", kids[x][0])
    if not isinstance(t, RootedTree):  # "(m,(A,B));" loses its second "(" and that one's ")"
        del out[-3], out[3]
    return out
