"""Binary phylogenetic trees with integer leaf labels, plus Newick I/O.

Two kinds of tree live here:

* ``RootedTree``: a recursive node structure.  Every internal node has
  exactly two children; a single-leaf tree is one node that is both root
  and leaf.
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

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass

# Caterpillar-shaped trees produce recursion as deep as the leaf count; the
# default limit of 1000 is too small for the n <= 4096 scale used here.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 12_000))


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

    __slots__ = ("label", "left", "right", "nleaves", "height", "balanced", "_leaves")

    def __init__(self, label, left, right, nleaves, height, balanced):
        self.label = label
        self.left = left
        self.right = right
        self.nleaves = nleaves
        self.height = height
        self.balanced = balanced
        self._leaves = None

    @classmethod
    def leaf(cls, label: int) -> "RootedTree":
        if not isinstance(label, int) or label <= 0:
            raise TreeError(f"leaf label must be a positive integer, got {label!r}")
        node = cls(label, None, None, 1, 0, True)
        node._leaves = frozenset((label,))
        return node

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
        """Leaf-label set below this node (computed lazily, cached)."""
        if self._leaves is None:
            # Iterative postorder: deep caterpillar chains overflow the stack
            # with the naive recursive union.
            stack = [self]
            while stack:
                node = stack[-1]
                if node._leaves is not None:
                    stack.pop()
                    continue
                pending = [c for c in (node.left, node.right) if c._leaves is None]
                if pending:
                    stack.extend(pending)
                else:
                    node._leaves = node.left._leaves | node.right._leaves
                    stack.pop()
        return self._leaves

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
        start = next(iter(adj))
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
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

    def edges(self) -> list:
        """Undirected edges as (u, v) with u < v, sorted."""
        return sorted((u, v) for u, ns in self.adj.items() for v in ns if u < v)

    def is_leaf_vertex(self, v: int) -> bool:
        return v in self.leaf_label

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


def _bfs(t: UnrootedTree, sources):
    """Distances (and BFS parents) from a set of source vertices."""
    dist = {s: 0 for s in sources}
    parent = {s: None for s in sources}
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for w in t.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
    return dist, parent


def _farthest(t: UnrootedTree, source):
    """(vertex, dist, parent-map) for the farthest vertex from ``source``;
    ties broken toward the smallest vertex id."""
    dist, parent = _bfs(t, [source])
    best = max(dist, key=lambda v: (dist[v], -v))
    return best, dist[best], parent


def diameter_path(t: UnrootedTree) -> list:
    """A longest leaf-to-leaf path, as a vertex list (deterministic)."""
    v0 = t.label_vertex[min(t.leaves)]
    u, _, _ = _farthest(t, v0)
    w, _, parent = _farthest(t, u)
    path = [w]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
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


def height(t: RootedTree) -> int:
    return t.height


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

    @property
    def is_balanced(self) -> bool:
        return self.kind != NOT_BALANCED


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
    dist, _ = _bfs(t, list(c))
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
        if t.is_leaf_vertex(v):
            continue
        if sum(1 for w in ns if not t.is_leaf_vertex(w)) > 2:
            return False
    return True


# --------------------------------------------------------------------------
# Rooting and unrooting
# --------------------------------------------------------------------------


def root_at_edge(t: UnrootedTree, edge) -> RootedTree:
    """Subdivide ``edge`` with a new degree-2 root; leaf-set unchanged."""
    u, v = edge
    if u not in t.adj or v not in t.adj[u]:
        raise TreeError(f"edge {edge!r} not in tree")

    def build(w, parent):
        if t.is_leaf_vertex(w):
            return RootedTree.leaf(t.leaf_label[w])
        a, b = (x for x in t.adj[w] if x != parent)
        return RootedTree.branch(build(a, w), build(b, w))

    return RootedTree.branch(build(u, v), build(v, u))


def root_at_leaf_edge(t: UnrootedTree, label=None) -> RootedTree:
    """Root at the pendant edge of ``label`` (default: the smallest leaf)."""
    if label is None:
        label = min(t.leaves)
    v = t.label_vertex[label]
    return root_at_edge(t, (v, t.adj[v][0]))


def unroot(t: RootedTree) -> UnrootedTree:
    """Suppress the degree-2 root, merging its two incident edges."""
    if t.nleaves < 3:
        raise TreeError("unrooting needs at least 3 leaves")
    adj = {}
    labels = {}
    counter = [0]

    def emit(node):
        vid = counter[0]
        counter[0] += 1
        adj[vid] = []
        if node.is_leaf:
            labels[vid] = node.label
            return vid
        for child in (node.left, node.right):
            cid = emit(child)
            adj[vid].append(cid)
            adj[cid].append(vid)
        return vid

    a = emit(t.left)
    b = emit(t.right)
    adj[a].append(b)
    adj[b].append(a)
    return UnrootedTree(adj, labels)


# --------------------------------------------------------------------------
# Newick parsing
# --------------------------------------------------------------------------


def parse_newick(text: str):
    """Parse Newick text into a RootedTree (top arity 1-2) or UnrootedTree
    (top arity 3).  Raises NewickError with a character position."""
    n = len(text)
    i = 0

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_label(i):
        j = i
        while j < n and text[j].isdigit():
            j += 1
        if j == i:
            raise NewickError(f"expected a leaf label or '(', found {text[i:i+1]!r}", i)
        if text[i] == "0":
            raise NewickError("leaf labels may not start with 0", i)
        return int(text[i:j]), j

    # Build nested ('leaf', label, pos) / ('group', children, pos) via an
    # explicit stack so arbitrarily deep trees parse.
    stack = []  # open groups: [position, children...]
    top = None

    def close_item(item, i):
        nonlocal top
        i = skip_ws(i)
        if stack:
            stack[-1].append(item)
            if i < n and text[i] == ",":
                return i + 1, False
            if i < n and text[i] == ")":
                return i, True
            raise NewickError("expected ',' or ')'", i)
        top = item
        return i, False

    i = skip_ws(i)
    while True:
        i = skip_ws(i)
        if i < n and text[i] == "(":
            stack.append([i])
            i += 1
            continue
        if i >= n:
            raise NewickError("unexpected end of input", i)
        label, i = read_label(i)
        i, at_close = close_item(("leaf", label, i), i)
        while at_close:
            group = stack.pop()
            item = ("group", group[1:], group[0])
            i, at_close = close_item(item, i + 1)
        if top is not None:
            break

    i = skip_ws(i)
    if i >= n or text[i] != ";":
        raise NewickError("expected ';'", i)
    i = skip_ws(i + 1)
    if i < n:
        raise NewickError("trailing text after ';'", i)

    seen_labels = {}

    def check_labels(item):
        kind = item[0]
        if kind == "leaf":
            _, label, pos = item
            if label in seen_labels:
                raise NewickError(f"duplicate leaf label {label}", pos)
            seen_labels[label] = pos
        else:
            for child in item[1]:
                check_labels(child)

    def check_binary(item, is_top):
        if item[0] == "leaf":
            return
        _, children, pos = item
        if is_top:
            if len(children) not in (2, 3):
                raise NewickError(
                    f"top-level node has {len(children)} children (expected 2 or 3)", pos
                )
        elif len(children) != 2:
            raise NewickError(
                f"internal node has {len(children)} children (expected 2)", pos
            )
        for child in children:
            check_binary(child, False)

    check_labels(top)
    check_binary(top, True)

    def build_rooted(item):
        if item[0] == "leaf":
            return RootedTree.leaf(item[1])
        a, b = item[1]
        return RootedTree.branch(build_rooted(a), build_rooted(b))

    if top[0] == "leaf" or len(top[1]) == 2:
        return build_rooted(top)

    # Trifurcating top level: unrooted tree around a center vertex.
    adj = {0: []}
    labels = {}
    counter = [1]

    def build_branch(item, parent):
        vid = counter[0]
        counter[0] += 1
        adj[vid] = [parent]
        adj[parent].append(vid)
        if item[0] == "leaf":
            labels[vid] = item[1]
        else:
            for child in item[1]:
                build_branch(child, vid)
        return vid

    for child in top[1]:
        build_branch(child, 0)
    return UnrootedTree(adj, labels)


# --------------------------------------------------------------------------
# Canonical serialisation
# --------------------------------------------------------------------------


def _rooted_newick_body(t: RootedTree) -> str:
    parts = {}  # id(node) -> (text, min leaf label)
    stack = [t]
    while stack:
        node = stack[-1]
        if id(node) in parts:
            stack.pop()
            continue
        if node.is_leaf:
            parts[id(node)] = (str(node.label), node.label)
            stack.pop()
            continue
        pending = [c for c in (node.left, node.right) if id(c) not in parts]
        if pending:
            stack.extend(pending)
            continue
        ls, lm = parts[id(node.left)]
        rs, rm = parts[id(node.right)]
        if lm <= rm:
            parts[id(node)] = (f"({ls},{rs})", lm)
        else:
            parts[id(node)] = (f"({rs},{ls})", rm)
        stack.pop()
    return parts[id(t)][0]


def to_newick(t) -> str:
    """Canonical Newick text; children ordered by smallest leaf label."""
    if isinstance(t, RootedTree):
        return _rooted_newick_body(t) + ";"
    # Canonical top: the internal vertex adjacent to the smallest leaf.
    leaf_v = t.label_vertex[min(t.leaves)]
    top = t.adj[leaf_v][0]
    starts = [(top, w) for w in t.adj[top]]
    parts = {}  # (u, v) -> (text, min label) of the branch on v's side
    for u, v in directed_postorder(t, starts):
        if v in t.leaf_label:
            parts[(u, v)] = (str(t.leaf_label[v]), t.leaf_label[v])
        else:
            (a, am), (b, _) = sorted(
                (parts[(v, w)] for w in t.adj[v] if w != u), key=lambda p: p[1]
            )
            parts[(u, v)] = (f"({a},{b})", am)
    branches = sorted((parts[e] for e in starts), key=lambda p: p[1])
    return "(" + ",".join(p[0] for p in branches) + ");"
