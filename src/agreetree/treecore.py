"""Binary phylogenetic trees with integer leaf labels, plus Newick I/O.

Two kinds of tree live here:

* ``RootedTree``: a plain node structure.  Every internal node has
  exactly two children; a single-leaf tree is one node that is both root
  and leaf.  Nodes cache no leaf sets, and no function here recurses.
* ``UnrootedTree``: an adjacency map.  Every internal vertex has degree 3,
  leaves have degree 1, and at least three leaves are required (degree
  constraints force this).

Leaf labels are positive integers, distinct within a tree.  There are no
branch lengths and no internal labels.

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
it on the pendant edge of its smallest leaf m, and ``to_newick`` writes it
as that rooting "(m,(A,B));" with the inner parentheses dropped,
"(m,A,B);".  ``root_at_edge`` and ``root_at_leaf_edge`` take ``keep``, a
leaf subset, and then build only the restriction to it.

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass


class TreeError(ValueError):
    """Invalid tree construction or operation argument."""


class NewickError(TreeError):
    """Newick text rejected; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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

    __slots__ = ("label", "left", "right", "nleaves", "height", "balanced")

    def __init__(self, label, left, right, nleaves, height, balanced):
        self.label = label
        self.left = left
        self.right = right
        self.nleaves = nleaves
        self.height = height
        self.balanced = balanced

    @classmethod
    def leaf(cls, label: int) -> "RootedTree":
        if not isinstance(label, int) or label <= 0:
            raise TreeError(f"leaf label must be a positive integer, got {label!r}")
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
        """Leaf-label set below this node (one walk per call, not cached)."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.label is None:
                stack.append(node.right)
                stack.append(node.left)
            else:
                out.append(node.label)
        return frozenset(out)

    def __repr__(self):
        return f"<RootedTree {to_newick(self)!r}>"


def postorder(t: RootedTree) -> list:
    """All nodes of ``t``, children before parents, root last."""
    out = []
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or node.is_leaf:
            out.append(node)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return out


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
    maps leaf vertex id -> label.  Vertices are small integers with no other
    meaning.  Instances are treated as immutable.
    """

    __slots__ = ("adj", "leaf_label", "label_vertex", "_leaves")

    def __init__(self, adj: dict, leaf_label: dict):
        self.adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self.leaf_label = dict(leaf_label)
        self.label_vertex = {}
        self._leaves = None
        self._validate()

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
            if not isinstance(lab, int) or lab <= 0:
                raise TreeError(f"leaf label must be a positive integer, got {lab!r}")
            if lab in self.label_vertex:
                raise TreeError(f"duplicate leaf label {lab}")
            self.label_vertex[lab] = v
        # Connectivity (acyclicity follows from the edge count).
        if len(_bfs(self, [next(iter(adj))])) != nvert:
            raise TreeError("unrooted tree is not connected")

    @property
    def leaves(self) -> frozenset:
        if self._leaves is None:
            self._leaves = frozenset(self.leaf_label.values())
        return self._leaves

    @property
    def nleaves(self) -> int:
        return len(self.leaf_label)

    def edges(self) -> list:
        """Undirected edges as (u, v) with u < v, sorted."""
        return sorted((u, v) for u, ns in self.adj.items() for v in ns if u < v)

    def __repr__(self):
        return f"<UnrootedTree {to_newick(self)!r}>"


def directed_postorder(t: UnrootedTree, starts) -> list:
    """The directed edges below the ``starts``, each once, children before
    parents.  A directed edge (u, v) names the branch on v's side of edge
    u-v; its children are the edges (v, w) with w != u."""
    out = []
    seen = set()
    for start in starts:
        if start in seen:
            continue  # already walked below an earlier start
        seen.add(start)
        stack = [(start, False)]
        while stack:
            edge, expanded = stack.pop()
            if expanded:
                out.append(edge)
                continue
            stack.append((edge, True))
            u, v = edge
            for w in t.adj[v]:
                if w != u and (v, w) not in seen:
                    seen.add((v, w))
                    stack.append(((v, w), False))
    return out


def side_leaves(t: UnrootedTree, u: int, v: int) -> frozenset:
    """Leaf labels on v's side of edge u-v."""
    return frozenset(
        t.leaf_label[b] for _, b in directed_postorder(t, [(u, v)]) if b in t.leaf_label
    )


def _bfs(t: UnrootedTree, sources) -> dict:
    """Distances from a set of source vertices."""
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for w in t.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _farthest(t: UnrootedTree, source):
    """(vertex, distance map) for the farthest vertex from ``source``;
    ties broken toward the smallest vertex id."""
    dist = _bfs(t, [source])
    return max(dist, key=lambda v: (dist[v], -v)), dist


def diameter_path(t: UnrootedTree) -> list:
    """A longest leaf-to-leaf path, as a vertex list (deterministic)."""
    v0 = t.label_vertex[min(t.leaves)]
    u, _ = _farthest(t, v0)
    w, dist = _farthest(t, u)
    path = [w]
    while dist[path[-1]]:  # the one neighbour nearer to u comes next
        path.append(min(t.adj[path[-1]], key=dist.__getitem__))
    path.reverse()  # runs u -> w
    return path


def center(t: UnrootedTree) -> frozenset:
    """The 1 or 2 vertices of minimum eccentricity (2 => adjacent)."""
    path = diameter_path(t)
    d = len(path) - 1
    if d % 2 == 0:
        return frozenset((path[d // 2],))
    return frozenset((path[d // 2], path[d // 2 + 1]))


def radius(t: UnrootedTree) -> int:
    """Eccentricity of a center vertex: ceil(diameter / 2)."""
    return (len(diameter_path(t))) // 2


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
    if isinstance(t, RootedTree):
        if t.balanced:
            return BalanceClass(ROOTED_BALANCED, t.height)
        return BalanceClass(NOT_BALANCED)
    c = center(t)
    dist = _bfs(t, list(c))
    leaf_dists = {dist[v] for v in t.leaf_label}
    if len(leaf_dists) != 1:
        return BalanceClass(NOT_BALANCED)
    d = leaf_dists.pop()
    if len(c) == 2:
        return BalanceClass(CLASS_B, d + 1)
    return BalanceClass(CLASS_C, d)


def is_caterpillar(t) -> bool:
    """True iff the internal vertices form a single path.

    Rooted form: every internal node has at most one internal child (so each
    spine node hangs at least one leaf).  Unrooted form: every internal
    vertex has at most two internal neighbours.
    """
    if isinstance(t, RootedTree):
        node = t
        while not node.is_leaf:
            internal = [c for c in (node.left, node.right) if not c.is_leaf]
            if len(internal) == 2:
                return False
            if not internal:
                return True
            node = internal[0]
        return True
    for v, ns in t.adj.items():
        if v in t.leaf_label:
            continue
        if sum(1 for w in ns if w not in t.leaf_label) > 2:
            return False
    return True


# --------------------------------------------------------------------------
# Rooting and unrooting
# --------------------------------------------------------------------------


def root_at_edge(t: UnrootedTree, edge, keep=None) -> RootedTree:
    """Subdivide ``edge`` = (u, v) with a new degree-2 root: u's side left,
    v's side right, every vertex's branches in the order of its sorted
    neighbours.  With ``keep`` set (a non-empty subset of the leaves) the
    result is the restriction to ``keep``, rooted at its MRCA; only nodes
    over ``keep`` are built."""
    u, v = edge
    if u not in t.adj or v not in t.adj[u]:
        raise TreeError(f"edge {edge!r} not in tree")
    if keep is not None:
        keep = frozenset(keep)
        if not keep:
            raise TreeError("cannot restrict to an empty leaf set")
        if not keep <= t.leaves:
            raise TreeError(f"labels {sorted(keep - t.leaves)} not in tree")
    adj, leaf_label = t.adj, t.leaf_label

    def expand(item):
        """Item (p, w) is the branch at w away from p."""
        if item is None:
            return (v, u), (u, v)
        p, w = item
        if w in leaf_label:
            return leaf_label[w]
        a, b, c = adj[w]
        if a == p:
            return (w, b), (w, c)
        return ((w, a), (w, c)) if b == p else ((w, a), (w, b))

    return rebuild(None, expand, keep)


def root_at_leaf_edge(t: UnrootedTree, keep=None) -> RootedTree:
    """Root at the pendant edge of the smallest leaf, which becomes the
    left child; ``keep`` as for ``root_at_edge``."""
    v = t.label_vertex[min(t.leaves)]
    return root_at_edge(t, (v, t.adj[v][0]), keep)


def unroot(t: RootedTree) -> UnrootedTree:
    """Suppress the degree-2 root, merging its two incident edges.  Vertex
    ids follow preorder from the left child of the root."""
    if t.nleaves < 3:
        raise TreeError("unrooting needs at least 3 leaves")
    return _number_preorder({}, [(t.right, 0), (t.left, None)])


def _number_preorder(adj: dict, stack: list) -> UnrootedTree:
    """The UnrootedTree of ``adj`` plus the rooted subtrees on ``stack``,
    pairs (node, vertex it hangs from or None), the next one last; the new
    vertices are numbered on from len(adj) in preorder."""
    labels = {}
    while stack:
        node, parent = stack.pop()
        vid = len(adj)
        if parent is None:
            adj[vid] = []
        else:
            adj[vid] = [parent]
            adj[parent].append(vid)
        if node.label is None:
            stack += ((node.right, vid), (node.left, vid))
        else:
            labels[vid] = node.label
    return UnrootedTree(adj, labels)


# --------------------------------------------------------------------------
# Newick parsing
# --------------------------------------------------------------------------


_TOKEN = re.compile(r"\d+|\S")  # a label or one other non-space character


def parse_newick(text: str):
    """Parse Newick text into a RootedTree (top arity 1-2) or UnrootedTree
    (top arity 3).  Raises NewickError with a character position.

    One token scan builds each node when its ')' closes.  The first syntax
    error stops it; after a clean scan the first repeated label is reported
    (at the end of its second occurrence), then the leftmost '(' with the
    wrong number of children.  An unrooted tree numbers its vertices in
    text order, the centre 0."""
    tokens = _TOKEN.findall(text)
    tokens.append("")  # end of input

    def at(i):
        """Text position of token i, worked out only for an error."""
        return ([m.start() for m in _TOKEN.finditer(text)] + [len(text)])[i]

    built = []  # finished subtrees of the open groups, left before right
    groups = []  # (len(built) at its '(', token index of it) per open group
    seen = set()
    duplicate = arity = None  # (message, token index, offset) of the first such fault
    i = 0
    while True:
        token = tokens[i]
        if token == "(":
            groups.append((len(built), i))
            i += 1
            continue
        if not token:
            raise NewickError("unexpected end of input", at(i))
        if not token.isdecimal():
            raise NewickError(f"expected a leaf label or '(', found {token!r}", at(i))
        if token[0] == "0":
            raise NewickError("leaf labels may not start with 0", at(i))
        label = int(token)
        if label in seen and duplicate is None:
            duplicate = (f"duplicate leaf label {label}", i, len(token))
        seen.add(label)
        built.append(RootedTree(label, None, None, 1, 0, True))
        i += 1
        while groups and tokens[i] == ")":
            start, opened = groups.pop()
            count = len(built) - start
            if count == 2:
                right = built.pop()
                left = built[-1]
                lh, rh = left.height, right.height  # RootedTree.branch, inlined
                built[-1] = RootedTree(
                    None, left, right, left.nleaves + right.nleaves,
                    1 + (lh if lh > rh else rh), lh == rh and left.balanced and right.balanced,
                )
            elif groups or count != 3:
                fault = (
                    f"internal node has {count} children (expected 2)"
                    if groups
                    else f"top-level node has {count} children (expected 2 or 3)"
                )
                if arity is None or opened < arity[1]:
                    arity = (fault, opened, 0)
                del built[start + 1 :]  # the group's first child stands in for it
            i += 1
        if not groups:
            break
        if tokens[i] != ",":
            raise NewickError("expected ',' or ')'", at(i))
        i += 1
    if tokens[i] != ";":
        raise NewickError("expected ';'", at(i))
    if tokens[i + 1]:
        raise NewickError("trailing text after ';'", at(i + 1))
    for fault in (duplicate, arity):
        if fault:
            message, i, offset = fault
            raise NewickError(message, at(i) + offset)
    if len(built) == 3:  # unrooted: the centre, then its subtrees in text order
        return _number_preorder({0: []}, [(node, 0) for node in reversed(built)])
    return built[0]


# --------------------------------------------------------------------------
# Canonical serialisation
# --------------------------------------------------------------------------


def to_newick(t) -> str:
    """Canonical Newick text; children ordered by smallest leaf label.  An
    unrooted tree is written as its rooting at the smallest leaf m's
    pendant edge, "(m,(A,B));", with the inner parentheses dropped."""
    if isinstance(t, UnrootedTree):
        r = root_at_leaf_edge(t)
        return f"({r.left.label},{to_newick(r.right)[1:]}"
    first = {}  # node -> smallest leaf label below it
    for node in postorder(t):
        first[node] = node.label or min(first[node.left], first[node.right])
    out = []
    stack = [";", t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node.label is not None:
            out.append(str(node.label))
        else:
            a, b = sorted((node.left, node.right), key=first.get)
            out.append("(")
            stack += [")", b, ",", a]
    return "".join(out)
