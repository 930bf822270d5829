"""Independent brute-force oracles used to validate the fast paths.

Everything here is deliberately naive: exhaustive search, all-pairs BFS,
quadratic DP.  None of it shares code with the implementations it checks,
except the subtree tables of ``exactmast`` that the reference DP reads.
``_mast_table`` is that reference: the node-pair DP with two value types,
sizes and sorted witness leaf tuples, every row kept.  The
``mast_*_reference`` functions and ``unrooted_best_rooting_by_pairs`` run
it to check the packed kernel and how ``mast_unrooted`` picks its rootings.
``count_calls`` is the one patch-and-record helper of the tests that
count builds, folds and checks.
"""

import operator
import re
import sys
from bisect import bisect_left
from collections import deque
from itertools import combinations, count, product

from agreetree._rng import SplitMix64
from agreetree.exactmast import _rooted_table, _unrooted_table
from agreetree.matchers import Match1Step, Match1Trace, Match2Node, Match2Trace
from agreetree.treecore import (
    CLASS_B,
    CLASS_C,
    NOT_BALANCED,
    BalanceClass,
    NewickError,
    DfsIndex,
    RootedTree,
    TreeError,
    UnrootedTree,
    rebuild,
    root_at_edge,
    unroot,
)
from agreetree.treecore import _adjacency_preorder, _fault, _reroot
from agreetree.treeops import restrict


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


def lca_by_postorder(t: RootedTree, X) -> RootedTree:
    """The first node in postorder whose subtree holds all of X."""
    count = {}  # node -> number of labels of X below it
    for node in postorder(t):
        if node.is_leaf:
            count[node] = node.label in X
        else:
            count[node] = count[node.left] + count[node.right]
        if count[node] == len(X):
            return node


def dfs_index_by_nodes(t: RootedTree) -> dict:
    """The fields of ``t.dfs()`` worked out on node objects: nodes numbered
    by a left-first preorder stack, leaf counts and first-leaf positions
    folded in postorder, children looked up by node identity."""
    nodes, stack = [], [t]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack += [node.right, node.left]
    number = {id(node): i for i, node in enumerate(nodes)}
    order = [node.label for node in nodes if node.is_leaf]
    pos = {x: i for i, x in enumerate(order)}
    count, first = {}, {}
    for node in postorder(t):
        if node.is_leaf:
            count[id(node)], first[id(node)] = 1, pos[node.label]
        else:
            count[id(node)] = count[id(node.left)] + count[id(node.right)]
            first[id(node)] = first[id(node.left)]
    return {
        "label": [node.label for node in nodes],
        "nleaves": [count[id(node)] for node in nodes],
        "first": [first[id(node)] for node in nodes],
        "order": order,
        "pos": pos,
        "children": {
            number[id(node)]: (number[id(node.left)], number[id(node.right)])
            for node in nodes
            if not node.is_leaf
        },
    }


def label_map_content(ix) -> dict:
    """``ix.pos`` as a dict from each label it holds to that label's
    position, whichever form it has: a dict's items, or the labels of an
    array's non-negative slots."""
    pos = ix.pos
    return dict(pos.items() if isinstance(pos, dict) else ((x, p) for x, p in enumerate(pos) if p >= 0))


def dfs_index_fields(t) -> dict:
    """The same fields read from ``t.dfs()`` (either tree kind), the
    children of internal node i by its rule: i + 1 and
    i + 2 * nleaves[i + 1]."""
    ix = t.dfs()
    return {
        "label": ix.label,
        "nleaves": ix.nleaves,
        "first": list(ix.first),
        "order": ix.order,
        "pos": label_map_content(ix),
        "children": {
            i: (i + 1, i + 2 * ix.nleaves[i + 1]) for i, x in enumerate(ix.label) if x is None
        },
    }


def unrooted_index_by_adjacency(t: UnrootedTree) -> dict:
    """The fields of an unrooted ``t.dfs()`` worked out on the adjacency:
    nodes numbered by a preorder stack from a new root on the smallest
    leaf's pendant edge, that leaf first and every vertex's other
    neighbours in increasing id order.  ``vertex`` lists each node's
    vertex (None for the root); ``children`` lists the internal nodes'."""
    m = min(t.leaf_label, key=t.leaf_label.get)
    w = t.adj[m][0]
    vertex, kids, stack = [None], {0: []}, [(0, m, w), (0, w, m)]  # (parent node, far end, vertex)
    while stack:
        parent, p, v = stack.pop()
        i = len(vertex)
        kids[parent].append(i)
        kids[i] = []
        vertex.append(v)
        stack += [(i, v, x) for x in sorted(t.adj[v], reverse=True) if x != p]
    label = [t.leaf_label.get(v) for v in vertex]
    nleaves, first, order = [0] * len(vertex), [0] * len(vertex), []
    for i, x in enumerate(label):
        first[i] = len(order)
        if x is not None:
            order.append(x)
    for i in range(len(vertex) - 1, -1, -1):
        nleaves[i] = sum(nleaves[c] for c in kids[i]) if kids[i] else 1
    return {
        "label": label,
        "nleaves": nleaves,
        "first": first,
        "order": order,
        "pos": {x: i for i, x in enumerate(order)},
        "children": {i: tuple(cs) for i, cs in kids.items() if cs},
        "vertex": vertex,
    }


def clusters(t: RootedTree) -> frozenset:
    """{ leaf set of every node }; 2n-1 clusters for n leaves."""
    out = set()
    stack = [t]
    while stack:
        node = stack.pop()
        out.add(node.leaves)
        if not node.is_leaf:
            stack += [node.left, node.right]
    return frozenset(out)


def splits(t: UnrootedTree) -> frozenset:
    """One leaf bipartition per edge, each a frozenset of the two sides;
    n + (n-3) distinct splits for n leaves."""
    out = set()
    for u in t.adj:
        for v in t.adj[u]:
            seen = {u, v}
            stack = [v]
            side = set()
            while stack:  # everything reachable from v without crossing u
                w = stack.pop()
                if w in t.leaf_label:
                    side.add(t.leaf_label[w])
                for x in t.adj[w]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            out.add(frozenset((frozenset(side), t.leaves - side)))
    return frozenset(out)


def iso_rooted_search(t1: RootedTree, t2: RootedTree) -> bool:
    """Label-respecting rooted isomorphism by direct recursive matching."""
    if t1.leaves != t2.leaves:
        return False

    def rec(a, b):
        if a.is_leaf or b.is_leaf:
            return a.is_leaf and b.is_leaf and a.label == b.label
        return (rec(a.left, b.left) and rec(a.right, b.right)) or (
            rec(a.left, b.right) and rec(a.right, b.left)
        )

    return rec(t1, t2)


def iso_unrooted_search(t1: UnrootedTree, t2: UnrootedTree) -> bool:
    """Unrooted isomorphism by rooting both at the same leaf's pendant edge."""
    if t1.leaves != t2.leaves:
        return False
    pivot = min(t1.leaves)

    def rooted_at(t):
        v = t.label_vertex[pivot]
        return root_at_edge(t, (v, t.adj[v][0]))

    return iso_rooted_search(rooted_at(t1), rooted_at(t2))


def restrict_unrooted_by_paths(t: UnrootedTree, X) -> UnrootedTree:
    """Union of pairwise vertex paths, then suppress degree-2 vertices."""
    X = sorted(X)
    vertices = set()
    edges = set()
    for a, b in combinations(X, 2):
        path = vertex_path(t, t.label_vertex[a], t.label_vertex[b])
        vertices.update(path)
        edges.update(frozenset(e) for e in zip(path, path[1:]))
    adj = {v: [] for v in vertices}
    for e in edges:
        u, v = tuple(e)
        adj[u].append(v)
        adj[v].append(u)
    # Suppress degree-2 vertices.
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if len(adj[v]) == 2:
                a, b = adj[v]
                adj[a].remove(v)
                adj[b].remove(v)
                adj[a].append(b)
                adj[b].append(a)
                del adj[v]
                changed = True
    labels = {t.label_vertex[x]: x for x in X}
    return UnrootedTree(adj, labels)


def ordered_text(t: RootedTree) -> str:
    """Newick text with the children in stored order; ``to_newick`` sorts
    them, so it cannot see a left/right swap."""
    out = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.is_leaf:
            out.append(str(item.label))
        else:
            out.append("(")
            stack += [")", item.right, ",", item.left]
    return "".join(out)


# The copy loops that ``treecore.rebuild`` replaced, kept as references for
# child order and unrooted vertex numbering.


def root_at_edge_by_stack(t: UnrootedTree, edge) -> RootedTree:
    u, v = edge
    built = []  # finished subtrees, left before right
    stack = [(u, v, False), (v, u, False)]  # (parent, vertex, children pushed)
    while stack:
        parent, w, expanded = stack.pop()
        if w in t.leaf_label:
            built.append(RootedTree.leaf(t.leaf_label[w]))
        elif expanded:
            right = built.pop()
            built[-1] = RootedTree.branch(built[-1], right)
        else:
            a, b = (x for x in t.adj[w] if x != parent)
            stack += [(parent, w, True), (w, b, False), (w, a, False)]
    return RootedTree.branch(*built)


def restrict_rooted_by_postorder(t: RootedTree, X) -> RootedTree:
    kept = []  # restricted subtrees (None when empty), left before right
    for node in postorder(t):
        if node.is_leaf:
            kept.append(node if node.label in X else None)
            continue
        right = kept.pop()
        left = kept.pop()
        if left is not None and right is not None:
            kept.append(RootedTree.branch(left, right))
        else:
            kept.append(right if left is None else left)
    return kept[0]


def restrict_unrooted_by_rooting(t: UnrootedTree, X) -> UnrootedTree:
    """Root at the pendant edge of min(X), restrict, unroot."""
    v = t.label_vertex[min(X)]
    return unroot(restrict_rooted_by_postorder(root_at_edge_by_stack(t, (v, t.adj[v][0])), X))


# The node-building path that ``treecore._reroot`` replaced, kept as the
# reference for its child order and unrooted vertex ids: ``rebuild`` with
# ``keep`` over ``root_at_edge``'s ``expand``, and an ``unroot`` that
# builds the adjacency of the rooted index and, unless node 1 is the
# smallest leaf, walks it once to build it again.

_JOIN = object()


def rebuild_keeping(top, expand, keep=None):
    """``rebuild`` with ``keep``: leaves outside it are dropped and nodes
    left with one child suppressed; None when no leaf is kept."""
    built, stack = [], [top]  # finished subtrees (None when empty), left before right
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


def edge_branches(t: UnrootedTree, edge, keep=None):
    """The ``expand`` of ``root_at_edge``: item None is the new root over
    the two sides of ``edge``, item (p, w) the branch at w away from p;
    with ``keep``, a branch holding none of it is the label 0."""
    u, v = edge
    if keep is not None:
        ix = t.dfs()
        P = sorted(ix.first[t.label_vertex[x] + 1] for x in keep)

    def expand(item):
        if item is None:
            return (v, u), (u, v)
        p, w = item
        if w in t.leaf_label:
            return t.leaf_label[w]
        if keep is not None:  # the branch is node w + 1's DFS interval, or the complement of node p + 1's
            k = max(p, w) + 1
            held = bisect_left(P, ix.first[k] + ix.nleaves[k]) - bisect_left(P, ix.first[k])
            if held == (0 if w > p else len(P)):
                return 0
        a, b = (x for x in t.adj[w] if x != p)
        return (w, a), (w, b)

    return expand


def root_at_edge_by_branches(t: UnrootedTree, edge, keep=None) -> RootedTree:
    return rebuild_keeping(None, edge_branches(t, edge, keep), None if keep is None else frozenset(keep))


def adjacency_of_preorder(label: list, nleaves: list):
    """(adj, leaf_label) with vertex v at node v of the preorder: node 0 a
    leaf hanging from node 1, or with a third neighbour, the node after its
    second child's subtree."""
    if label[0] is None:
        b = 2 * nleaves[1]
        adj, leaf_label = {0: (1, b, b + 2 * nleaves[b] - 1)}, {}
    else:
        adj, leaf_label = {0: (1,)}, {0: label[0]}
    parent = [0] * len(label)
    for i in range(1, len(label)):
        if label[i] is None:
            a, b = i + 1, i + 2 * nleaves[i + 1]
            parent[a] = parent[b] = i
            adj[i] = (parent[i], a, b)
        else:
            adj[i] = (parent[i],)
            leaf_label[i] = label[i]
    return adj, leaf_label


def tree_as_given(adj: dict, leaf_label: dict, ix=None) -> UnrootedTree:
    """An ``UnrootedTree`` holding ``adj`` and ``leaf_label`` as they are,
    unchecked and not renumbered, with index ``ix`` (walked on first use
    if None)."""
    t = UnrootedTree.__new__(UnrootedTree)
    t.adj, t.leaf_label, t._leaves, t._dfs, t._diameter = adj, leaf_label, None, ix, None
    t.label_vertex = dict(zip(leaf_label.values(), leaf_label))
    return t


def unrooted_eagerly(ix: DfsIndex) -> UnrootedTree:
    """The unrooted tree of rooted index ``ix`` with its adjacency built at
    once, by the loop that built every unrooted tree before trees held only
    their index: ``ix`` rerooted at its smallest leaf's pendant edge unless
    node 1 is that leaf, then vertex v at node v + 1, each vertex's parent
    its first neighbour."""
    m = min(ix.order)
    if ix.label[1] != m:
        ix = DfsIndex.derive(_reroot(ix, ix.label.index(m)))
    label, nleaves = ix.label, ix.nleaves
    adj, leaf_label, parent = {0: (1,)}, {0: m}, [0] * len(label)
    for v in range(1, len(label) - 1):
        x = label[v + 1]
        if x is None:
            a, b = v + 1, v + 2 * nleaves[v + 2]
            parent[a] = parent[b] = v
            adj[v] = (parent[v], a, b)
        else:
            adj[v] = (parent[v],)
            leaf_label[v] = x
    return tree_as_given(adj, leaf_label, ix)


def edges_by_adjacency(t: UnrootedTree) -> list:
    """Undirected edges (u, v), u < v, sorted, read off ``t.adj``."""
    return sorted((u, v) for u, ns in t.adj.items() for v in ns if u < v)


def renumber_by_walk(adj: dict, leaf_label: dict) -> UnrootedTree:
    """The tree on ``adj`` renumbered by one rebuild from its smallest
    leaf's pendant edge: vertex v is node v + 1 of that rooting."""
    t = tree_as_given(adj, leaf_label)
    v = t.label_vertex[min(t.label_vertex)]
    index = dfs_index_by_nodes(rebuild_keeping(None, edge_branches(t, (v, adj[v][0]))))
    return tree_as_given(*adjacency_of_preorder(index["label"][1:], index["nleaves"][1:]))


def unroot_by_walk(t: RootedTree) -> UnrootedTree:
    index = dfs_index_by_nodes(t)
    return renumber_by_walk(*adjacency_of_preorder(index["label"][1:], index["nleaves"][1:]))


def restrict_by_branches(t, X):
    """``restrict`` by the node-building path: a rooted tree by ``rebuild``
    over its index, pruned by DFS positions; an unrooted one rooted at
    min(X)'s pendant edge keeping X, then unrooted."""
    if isinstance(t, RootedTree):
        ix = t.dfs()
        P = sorted(ix.pos[x] for x in X)

        def expand(i):
            if ix.label[i] is not None:
                return ix.label[i]
            if bisect_left(P, ix.first[i]) == bisect_left(P, ix.first[i] + ix.nleaves[i]):
                return 0
            return i + 1, i + 2 * ix.nleaves[i + 1]

        return rebuild_keeping(0, expand, frozenset(X))
    v = t.label_vertex[min(X)]
    return unroot_by_walk(root_at_edge_by_branches(t, (v, t.adj[v][0]), X))


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
    """Leaf labels on v's side of edge u-v, by walking that branch."""
    return frozenset(
        t.leaf_label[b] for _, b in directed_postorder(t, [(u, v)]) if b in t.leaf_label
    )


def unrooted_table_by_directed_edges(t: UnrootedTree):
    """An unrooted MAST table as (children, labels): the 2E directed edges
    in postorder, each the branch on its far side, then one root entry per
    edge (u, v) of ``t.edges()`` with children (u side, v side)."""
    dirs = directed_postorder(t, [(u, v) for u in t.adj for v in t.adj[u]])
    index = {e: i for i, e in enumerate(dirs)}
    kids = [
        None if v in t.leaf_label else tuple(index[(v, w)] for w in t.adj[v] if w != u)
        for u, v in dirs
    ]
    labels = [t.leaf_label.get(v) for _, v in dirs]
    for u, v in t.edges():
        kids.append((index[(v, u)], index[(u, v)]))
        labels.append(None)
    return kids, labels


def _merge(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b)) if a and b else a or b  # an empty side: the other, already sorted


def _pick(*candidates):
    """Largest witness; ties toward the lexicographically smallest tuple."""
    return min(candidates, key=lambda w: (-len(w), w))


# Value types of the recurrence: (single-leaf value, empty value, merge, pick).
_SIZES = (lambda x: 1, 0, operator.add, max)
_WITNESSES = (lambda x: (x,), (), _merge, _pick)


def _mast_table(table1, table2, one, zero, merge, pick):
    """T[i][j] = MAST value of entry i of table1 against entry j of table2.

    A leaf against a subtree holds its value iff it lies in one of the
    subtree's two sides, so leaf rows and columns copy the non-empty child
    value and no leaf set is ever built."""
    kids1, labels1 = table1
    kids2, labels2 = table2
    T = []
    for k1, x in zip(kids1, labels1):
        row = []
        if k1 is None:
            for k2, y in zip(kids2, labels2):
                if k2 is None:
                    row.append(one(x) if x == y else zero)
                else:
                    row.append(row[k2[0]] or row[k2[1]])
        else:
            A, B = T[k1[0]], T[k1[1]]
            for j, k2 in enumerate(kids2):
                if k2 is None:
                    row.append(A[j] or B[j])
                else:
                    a2, b2 = k2
                    row.append(
                        pick(
                            merge(A[a2], B[b2]),
                            merge(A[b2], B[a2]),
                            row[a2],
                            row[b2],
                            A[j],
                            B[j],
                        )
                    )
        T.append(row)
    return T


def unrooted_best_rooting_by_pairs(t1: UnrootedTree, t2: UnrootedTree):
    """(value, edge of t1, edge of t2) for the first maximising pair of edge
    rootings in ``edges()`` order: the sweep over every pair of rootings
    that ``exactmast`` made before it rooted t1 once, on the directed-edge
    tables above, with the reference DP ``_mast_table``."""
    tables = (unrooted_table_by_directed_edges(t) for t in (t1, t2))
    T = _mast_table(*tables, *_SIZES)
    edges1, edges2 = t1.edges(), t2.edges()
    root1, root2 = len(T) - len(edges1), len(T[0]) - len(edges2)
    a, b = max(
        product(range(len(edges1)), range(len(edges2))),
        key=lambda p: T[root1 + p[0]][root2 + p[1]],
    )
    return T[root1 + a][root2 + b], edges1[a], edges2[b]


def mast_rooted_reference(t1: RootedTree, t2: RootedTree):
    """(size, witness) of rooted MAST: the root cell of the reference
    witness table."""
    best = _mast_table(_rooted_table(t1), _rooted_table(t2), *_WITNESSES)[-1][-1]
    return len(best), frozenset(best)


def mast_unrooted_reference(t1: UnrootedTree, t2: UnrootedTree):
    """(size, witness) of unrooted MAST by two reference DPs: a size table
    of t1 rooted at its first edge against t2's unrooted table, then the
    witness table of that rooting against t2 rooted at the first edge of
    ``edges()`` whose root entry reaches the maximum."""
    r1, edges2 = root_at_edge(t1, t1.edges()[0]), t2.edges()
    roots = _mast_table(_rooted_table(r1), _unrooted_table(t2), *_SIZES)[-1][-len(edges2) :]
    e2 = edges2[roots.index(max(roots))]
    return mast_rooted_reference(r1, root_at_edge(t2, e2))


def to_newick_by_directed_edges(t: UnrootedTree) -> str:
    """Canonical unrooted Newick as a fold over directed edges: the top is
    the internal vertex next to the smallest leaf, and every branch's
    children go in order of their smallest leaf label."""
    leaf_v = t.label_vertex[min(t.leaves)]
    top = t.adj[leaf_v][0]
    starts = [(top, w) for w in t.adj[top]]
    first = {}  # (u, v) -> smallest leaf label on v's side
    for u, v in directed_postorder(t, starts):
        if v in t.leaf_label:
            first[(u, v)] = t.leaf_label[v]
        else:
            first[(u, v)] = min(first[(v, w)] for w in t.adj[v] if w != u)
    a, b, c = sorted(starts, key=first.get)
    out = ["("]
    stack = [");", c, ",", b, ",", a]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item[1] in t.leaf_label:
            out.append(str(t.leaf_label[item[1]]))
        else:
            u, v = item
            x, y = sorted(((v, w) for w in t.adj[v] if w != u), key=first.get)
            out.append("(")
            stack += [")", y, ",", x]
    return "".join(out)


def to_newick_by_bfs(t: UnrootedTree) -> str:
    """Canonical unrooted Newick written from the adjacency in BFS order
    from the smallest leaf v0: a reversed pass orders each internal
    vertex's two children (its neighbours farther from v0) by their
    smallest labels, then "(m,A,B);" is written from v0's neighbour."""
    v0 = t.label_vertex[min(t.leaves)]
    dist = {v0: 0}
    queue = [v0]
    for v in queue:  # grows while it is read: BFS order
        for w in t.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    kids, small = {}, {}
    for w in reversed(queue):
        if w in t.leaf_label:
            kids[w], small[w] = None, t.leaf_label[w]
        else:
            a, b = [x for x in t.adj[w] if dist[x] > dist[w]]
            kids[w] = (a, b) if small[a] <= small[b] else (b, a)
            small[w] = small[kids[w][0]]
    a, b = kids[t.adj[v0][0]]
    out = []
    stack = [";", ")", b, ",", a, ",", v0, "("]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif kids[x] is None:
            out.append(str(t.leaf_label[x]))
        else:
            out.append("(")
            stack += (")", kids[x][1], ",", kids[x][0])
    return "".join(out)


def relabel_by_postorder(t: RootedTree, mapping: dict) -> RootedTree:
    built = []  # relabelled subtrees, left before right
    for node in postorder(t):
        if node.is_leaf:
            built.append(RootedTree.leaf(mapping[node.label]))
        else:
            right = built.pop()
            built[-1] = RootedTree.branch(built[-1], right)
    return built[0]


def extremal_fhk_by_stack(h: int, k: int) -> RootedTree:
    def balanced(labels):
        if len(labels) == 1:
            return RootedTree.leaf(labels[0])
        half = len(labels) // 2
        return RootedTree.branch(balanced(labels[:half]), balanced(labels[half:]))

    built = []  # finished subtrees, left before right
    first = 1  # the next unused label
    stack = [(h, k, False)]  # (h, k, children built)
    while stack:
        h, k, expanded = stack.pop()
        if expanded:
            right = built.pop()
            built[-1] = RootedTree.branch(built[-1], right)
        elif h == k or k == 0:
            built.append(balanced(range(first, first + 2**k)))
            first += 2**k
        else:
            stack += [(h, k, True), (h - 1, k - 1, False), (h - 1, k, False)]
    return built[0]


def vertex_path(t: UnrootedTree, src, dst):
    """The vertices on the path from src to dst, by a DFS from src."""
    parent = {src: None}
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            break
        for w in t.adj[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def all_pairs_eccentricities(t: UnrootedTree) -> dict:
    """vertex -> eccentricity by BFS from every vertex."""
    ecc = {}
    for s in t.adj:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in t.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        ecc[s] = max(dist.values())
    return ecc


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


def diameter_path_by_bfs(t: UnrootedTree) -> list:
    """A longest leaf-to-leaf path by three BFS passes: u farthest from the
    smallest leaf, w farthest from u, then back from w toward u."""
    v0 = t.label_vertex[min(t.leaves)]
    u, _ = _farthest(t, v0)
    w, dist = _farthest(t, u)
    path = [w]
    while dist[path[-1]]:  # the one neighbour nearer to u comes next
        path.append(min(t.adj[path[-1]], key=dist.__getitem__))
    path.reverse()  # runs u -> w
    return path


def diameter_path_by_climb(t: UnrootedTree) -> list:
    """``Diameter.path`` as the fold found it before it descended the
    index: ends u and w from the same keys, then each climbs its parent in
    ``t.adj`` (its smallest neighbour), the larger id first, until they
    meet."""
    ix = t.dfs()
    label, nleaves, size = ix.label, ix.nleaves, len(ix.label)
    span = size - 1
    key = list(range(span, -1, -1))
    for i in range(size - 1, 1, -1):
        if label[i] is None:
            key[i] = max(key[i + 1], key[i + 2 * nleaves[i + 1]]) + span
    below, key[2] = key[2], key[1] + span
    for i in range(2, size):
        if label[i] is None:
            a, b = i + 1, i + 2 * nleaves[i + 1]
            up = key[i] + span
            key[a], key[b] = max(up, key[b] + 2 * span), max(up, key[a] + 2 * span)
    u = span - below % span
    at, climbs = [u - 1, span - 1 - key[u] % span], ([], [])
    while at[0] != at[1]:
        k = at[0] < at[1]
        climbs[k].append(at[k])
        at[k] = t.adj[at[k]][0]
    return climbs[0] + [at[0]] + climbs[1][::-1]


def center_by_bfs(t: UnrootedTree) -> frozenset:
    """The middle vertex or vertices of ``diameter_path_by_bfs``."""
    path = diameter_path_by_bfs(t)
    d = len(path) - 1
    if d % 2 == 0:
        return frozenset((path[d // 2],))
    return frozenset((path[d // 2], path[d // 2 + 1]))


def classify_balanced_by_bfs(t: UnrootedTree) -> BalanceClass:
    """An unrooted tree's balance class from a BFS out of its center."""
    c = center_by_bfs(t)
    dist = _bfs(t, list(c))
    leaf_dists = {dist[v] for v in t.leaf_label}
    if len(leaf_dists) != 1:
        return BalanceClass(NOT_BALANCED)
    d = leaf_dists.pop()
    if len(c) == 2:
        return BalanceClass(CLASS_B, d + 1)
    return BalanceClass(CLASS_C, d)


def mast_subsets_unrooted(t1: UnrootedTree, t2: UnrootedTree) -> int:
    """Unrooted MAST by subset enumeration over shared leaves."""
    common = sorted(t1.leaves & t2.leaves)
    for size in range(len(common), 3, -1):
        for X in combinations(common, size):
            if splits(restrict(t1, X)) == splits(restrict(t2, X)):
                return size
    return min(len(common), 3)


def max_caterpillar_subsets(t: UnrootedTree) -> int:
    """Largest |X| whose restriction is a caterpillar, by enumeration."""
    from agreetree.treecore import is_caterpillar

    labels = sorted(t.leaves)
    for size in range(len(labels), 3, -1):
        for X in combinations(labels, size):
            if is_caterpillar(restrict(t, X)):
                return size
    return 3  # any 3 leaves restrict to the (caterpillar) star


def max_balanced_height_subsets(t: RootedTree) -> int:
    """Largest balanced-restriction height by leaf-subset enumeration."""
    from agreetree.treecore import classify_balanced

    labels = sorted(t.leaves)
    best = 0
    for size in range(1, len(labels) + 1):
        if size & (size - 1):
            continue  # balanced restrictions have power-of-two size
        for X in combinations(labels, size):
            cls = classify_balanced(restrict(t, X))
            if cls.kind == "rooted-balanced":
                best = max(best, cls.m)
    return best


def lis_quadratic(seq) -> int:
    """Longest monotone subsequence length by the O(n^2) DP."""
    n = len(seq)
    if n == 0:
        return 0
    best = 1
    for cmp in (lambda a, b: a < b, lambda a, b: a > b):
        dp = [1] * n
        for i in range(n):
            for j in range(i):
                if cmp(seq[j], seq[i]):
                    dp[i] = max(dp[i], dp[j] + 1)
        best = max(best, max(dp))
    return best


def rooted_shapes_up_to_height(h: int):
    """All rooted binary tree shapes of height <= h, as labelled trees with
    leaves numbered in-order (labels are irrelevant to shape functions)."""
    shapes = {0: [("leaf",)]}
    for height in range(1, h + 1):
        level = list(shapes[height - 1])
        new = []
        for i, a in enumerate(shapes[height - 1]):
            for b in level[i:]:
                new.append(("node", a, b))
            for lower in range(height - 1):
                for b in shapes[lower]:
                    new.append(("node", a, b))
        shapes[height] = new
    out = []
    for height in range(h + 1):
        out.extend(shapes[height])
    return [_shape_to_tree(s) for s in out]


def _shape_to_tree(shape, counter=None):
    if counter is None:
        counter = iter(range(1, 1 << 20))
    if shape[0] == "leaf":
        return RootedTree.leaf(next(counter))
    return RootedTree.branch(
        _shape_to_tree(shape[1], counter), _shape_to_tree(shape[2], counter)
    )


PAD_LABEL_BASE = 10**9


def pad_to_balanced(
    t: RootedTree, target_height: int, dummy_start: int = PAD_LABEL_BASE + 1
) -> RootedTree:
    """Balanced supertree of height ``target_height`` that holds ``t`` as a
    subtree; every added leaf takes the next label from ``dummy_start`` on.
    It materialises 2^target_height leaves."""
    if target_height < t.height:
        raise ValueError(
            f"target height {target_height} is below the tree height {t.height}"
        )
    counter = count(dummy_start)

    def dummy(h):
        if h == 0:
            return RootedTree.leaf(next(counter))
        return RootedTree.branch(dummy(h - 1), dummy(h - 1))

    def rec(node, h):
        if node.is_leaf:
            if h == 0:
                return node
            return RootedTree.branch(rec(node, h - 1), dummy(h - 1))
        return RootedTree.branch(rec(node.left, h - 1), rec(node.right, h - 1))

    return rec(t, target_height)


def _orient_by_sets(u: RootedTree, v: RootedTree):
    """The matchers' child orientation, from intersections of the four
    children's ``.leaves`` sets."""
    ku = (u.left, u.right)
    kv = (v.left, v.right)
    c = [[len(a.leaves & b.leaves) for b in kv] for a in ku]
    for su, sv in ((0, 0), (0, 1), (1, 0), (1, 1)):
        t_ll = c[su][sv]
        t_lr = c[su][1 - sv]
        t_rl = c[1 - su][sv]
        t_rr = c[1 - su][1 - sv]
        if t_lr + t_rl <= t_ll + t_rr and t_ll <= t_rr:
            return (ku[su], ku[1 - su], kv[sv], kv[1 - sv]), (t_ll, t_lr, t_rl, t_rr)
    raise AssertionError("some orientation always satisfies both inequalities")


def match1_walk_by_sets(t1: RootedTree, t2: RootedTree, delta: float):
    """The match1 walk (no input checks) with every count taken from leaf
    sets: (leaf set, Match1Trace)."""
    trace = Match1Trace(delta, t1.height, t2.nleaves)
    out = []
    u, v = t1, t2
    while True:
        shared = u.leaves & v.leaves
        t_uv = len(shared)
        if u.nleaves == 1 or v.nleaves == 1:
            trace.steps.append(Match1Step("base", t_uv, u.nleaves, v.nleaves, min(shared)))
            out.append(min(shared))
            return frozenset(out), trace
        (ul, ur, vl, vr), (t_ll, t_lr, t_rl, t_rr) = _orient_by_sets(u, v)
        step = Match1Step("heavy", t_uv, u.nleaves, v.nleaves)
        trace.steps.append(step)
        if t_ll > 0:
            step.rule, step.emitted = "case1", min(ul.leaves & vl.leaves)
            u, v = ur, vr
        elif t_rl == 0:
            step.rule, v = "skip-left", vr
        elif t_lr == 0:
            step.rule, u = "skip-right", ur
        elif t_lr + t_rl >= delta * t_uv:
            if t_lr > t_rl:
                ul, ur, vl, vr = ur, ul, vr, vl
            step.rule, step.emitted = "cross", min(ul.leaves & vr.leaves)
            u, v = ur, vl
        else:
            u, v = ur, vr
        if step.emitted is not None:
            out.append(step.emitted)


def match2_walk_by_sets(t1: RootedTree, t2: RootedTree, delta: float):
    """The match2 walk (no input checks) with every count taken from leaf
    sets: (leaf set, Match2Trace)."""
    out = []

    def call(u, v):
        shared = u.leaves & v.leaves
        node = Match2Node("base", len(shared), u.nleaves, v.nleaves)
        if u.nleaves == 1 or v.nleaves == 1:
            node.emitted = min(shared)
            out.append(node.emitted)
            return node
        (ul, ur, vl, vr), (t_ll, t_lr, t_rl, t_rr) = _orient_by_sets(u, v)
        need = delta * len(shared)
        if t_ll >= need and t_rr >= need:
            node.rule, calls = "diag", ((ul, vl), (ur, vr))
        elif t_lr >= need and t_rl >= need:
            node.rule, calls = "anti", ((ul, vr), (ur, vl))
        elif t_lr < need and t_rl < need:
            node.rule, calls = "shrink", ((ur, vr),)
        elif t_lr < need:
            node.rule, calls = "skip1", ((ur, v),)
        else:
            node.rule, calls = "skip2", ((u, vr),)
        node.children = [call(a, b) for a, b in calls]
        return node

    trace = Match2Trace(delta, t1.height, t2.height, len(t1.leaves & t2.leaves))
    trace.root = call(t1, t2)
    return frozenset(out), trace


# The counting by scans that the matchers used before their flat kernel,
# copied unchanged: ``match1_walk_by_scans`` is match1's walk on it, and
# ``match2_walk_by_scans`` the match2 walk from before it carried each
# pair's shared leaves.  Both are kept as the references for the walks'
# sets and traces.


def _shared_by_scan(u: int, v: int, a: DfsIndex, b: DfsIndex) -> list:
    """L(u) & L(v), scanning only the smaller of the two leaf slices."""
    if a.nleaves[u] <= b.nleaves[v]:
        return b.below(a.leaves(u), v)
    return a.below(b.leaves(v), u)


def _scan_by_lists(u: int, v: int, t: int, rows, a: DfsIndex, b: DfsIndex):
    """The 2x2 shared-leaf counts of the children of node u of ``a`` and
    node v of ``b``, by scans.

    ``t`` is |L(u) & L(v)|, and ``rows`` maps each child of u to its
    shared-leaf count with v; when it is None, u's smaller child is
    scanned for it.  Then v's smaller child is scanned for one column of
    the 2x2 counts, and the rows minus that column give the other.  Each
    scan walks the smaller of the two leaf slices it intersects, so a walk
    down a balanced tree takes O(n log n) time.

    Returns (ku, kv, c): u's and v's children, and c[i][j] = |L(ku[i]) &
    L(kv[j])|.
    """
    ku = u + 1, u + 2 * a.nleaves[u + 1]
    kv = v + 1, v + 2 * b.nleaves[v + 1]
    if rows is None:
        s = 0 if a.nleaves[ku[0]] <= a.nleaves[ku[1]] else 1
        k = len(_shared_by_scan(ku[s], v, a, b))
        rows = {ku[s]: k, ku[1 - s]: t - k}
    j = 0 if b.nleaves[kv[0]] <= b.nleaves[kv[1]] else 1
    inner = _shared_by_scan(u, kv[j], a, b)
    top = len(a.below(inner, ku[0]))
    col = (top, len(inner) - top)
    c = [[0, 0], [0, 0]]
    for i in (0, 1):
        c[i][j] = col[i]
        c[i][1 - j] = rows[ku[i]] - col[i]
    return ku, kv, c


def _orientation_by_lists(c) -> tuple:
    """Swap children (virtually) so that the cross counts do not exceed the
    diagonal counts and t_ll <= t_rr; no swap when already admissible.

    ``c[i][j]`` counts the leaves shared by u's child i and v's child j.
    Returns (su, sv, (t_ll, t_lr, t_rl, t_rr)) for the first admissible
    choice of u's child su and v's child sv as the left ones.
    """
    for su, sv in ((0, 0), (0, 1), (1, 0), (1, 1)):
        t_ll = c[su][sv]
        t_lr = c[su][1 - sv]
        t_rl = c[1 - su][sv]
        t_rr = c[1 - su][1 - sv]
        if t_lr + t_rl <= t_ll + t_rr and t_ll <= t_rr:
            return su, sv, (t_ll, t_lr, t_rl, t_rr)
    raise AssertionError("some orientation always satisfies both inequalities")


def match1_walk_by_scans(t1: RootedTree, t2, delta: float):
    """match1 without the balance check on t1; an unrooted t2 is read as
    its default rooting, which its DFS index numbers.

    Make t1 balanced by growing each shallow leaf x into a subtree of x and
    new labels.  The walk reads only shared-leaf counts, and from a node
    that shares x alone it only skips or shrinks until it emits x.  So it
    returns on t1 the set that match1 returns on the balanced tree."""
    a, b = t1.dfs(), t2.dfs()
    b.pos  # names a repeated label of t2, as covers names one of t1
    if not a.covers(b.order):
        raise TreeError("match1 requires L(t2) to be a subset of L(t1)")
    if not 0 < delta < 0.5:
        raise ValueError(f"match1 needs delta in (0, 1/2), got {delta}")
    trace = Match1Trace(delta, t1.height, t2.nleaves)
    u, v, t_uv, rows = 0, 0, t2.nleaves, None
    while True:
        if t_uv == 0:
            raise AssertionError("recursed into an empty intersection")
        step = Match1Step("base", t_uv, a.nleaves[u], b.nleaves[v])
        trace.steps.append(step)
        if step.u_size == 1 or step.v_size == 1:
            step.emitted = min(_shared_by_scan(u, v, a, b))
            break
        ku, kv, c = _scan_by_lists(u, v, t_uv, rows, a, b)
        su, sv, (t_ll, t_lr, t_rl, t_rr) = _orientation_by_lists(c)
        ul, ur, vl, vr = ku[su], ku[1 - su], kv[sv], kv[1 - sv]
        rows = None
        if t_ll > 0:
            step.rule, step.emitted = "case1", min(_shared_by_scan(ul, vl, a, b))
            u, v, t_uv = ur, vr, t_rr
        elif t_rl == 0:  # nothing under v's left child is shared with u
            step.rule = "skip-left"
            v, rows = vr, {ul: t_lr, ur: t_rr}
        elif t_lr == 0:  # nothing under u's left child is shared with v
            step.rule = "skip-right"
            u = ur
        elif t_lr + t_rl >= delta * t_uv:
            if t_lr > t_rl:
                ul, ur, vl, vr = ur, ul, vr, vl
                t_lr, t_rl = t_rl, t_lr
            step.rule, step.emitted = "cross", min(_shared_by_scan(ul, vr, a, b))
            u, v, t_uv = ur, vl, t_rl
        else:
            step.rule = "heavy"
            u, v, t_uv = ur, vr, t_rr
    return frozenset(s.emitted for s in trace.steps if s.emitted is not None), trace


def _orient_by_scans(u: int, v: int, t: int, rows, a: DfsIndex, b: DfsIndex):
    """The oriented 2x2 counts from one scan of u's smaller child (unless
    ``rows`` has u's children's counts) and one of v's smaller child."""
    ku, kv, c = _scan_by_lists(u, v, t, rows, a, b)
    su, sv, counts = _orientation_by_lists(c)
    return (ku[su], ku[1 - su], kv[sv], kv[1 - sv]), counts


def match2_walk_by_scans(t1: RootedTree, t2: RootedTree, delta: float):
    """The match2 walk (no input checks) counting by scans: (leaf set,
    Match2Trace)."""
    a, b = t1.dfs(), t2.dfs()
    t0 = len(_shared_by_scan(0, 0, a, b))
    trace = Match2Trace(delta, t1.height, t2.height, t0)
    out = []
    top = []
    stack = [(0, 0, t0, None, top)]
    while stack:
        u, v, t_uv, rows, siblings = stack.pop()
        node = Match2Node("base", t_uv, a.nleaves[u], b.nleaves[v])
        siblings.append(node)
        if node.u_size == 1 or node.v_size == 1:
            node.emitted = min(_shared_by_scan(u, v, a, b))
            out.append(node.emitted)
            continue
        (ul, ur, vl, vr), (t_ll, t_lr, t_rl, t_rr) = _orient_by_scans(u, v, t_uv, rows, a, b)
        need = delta * t_uv
        if t_ll >= need and t_rr >= need:
            node.rule, calls = "diag", ((ul, vl, t_ll, None), (ur, vr, t_rr, None))
        elif t_lr >= need and t_rl >= need:
            node.rule, calls = "anti", ((ul, vr, t_lr, None), (ur, vl, t_rl, None))
        elif t_lr < need and t_rl < need:
            node.rule, calls = "shrink", ((ur, vr, t_rr, None),)
        elif t_lr < need:
            node.rule, calls = "skip1", ((ur, v, t_rl + t_rr, None),)
        else:
            node.rule, calls = "skip2", ((u, vr, t_lr + t_rr, {ul: t_lr, ur: t_rr}),)
        stack.extend((*call, node.children) for call in reversed(calls))
    trace.root = top[0]
    return frozenset(out), trace


# The two-pass Newick parser that ``treecore.parse_newick`` replaced, kept as
# the reference for its trees, unrooted vertex ids, messages and positions.

_NEWICK_TOKEN = re.compile(r"\d+|\S")


def parse_newick_two_pass(text: str):
    """A token scan into per-item child and label lists (items numbered in
    text order), then a loop that builds the nodes from the last item back."""
    tokens = _NEWICK_TOKEN.findall(text)
    tokens.append("")
    positions = [m.start() for m in _NEWICK_TOKEN.finditer(text)] + [len(text)]
    kids = []  # per item: its child items, None for a leaf
    labels = []  # per item: its leaf label, None for a group
    groups = []  # (item, token index of its '(') per open group
    seen = set()
    duplicate = arity = None
    i = 0
    while True:
        token = tokens[i]
        item = len(kids)
        if groups:
            kids[groups[-1][0]].append(item)
        if token == "(":
            kids.append([])
            labels.append(None)
            groups.append((item, i))
            i += 1
            continue
        if not token:
            raise NewickError("unexpected end of input", positions[i])
        if not token.isdecimal():
            raise NewickError(f"expected a leaf label or '(', found {token!r}", positions[i])
        if token[0] == "0":
            raise NewickError("leaf labels may not start with 0", positions[i])
        label = int(token)
        if label in seen and duplicate is None:
            duplicate = (f"duplicate leaf label {label}", i, len(token))
        seen.add(label)
        kids.append(None)
        labels.append(label)
        i += 1
        while groups and tokens[i] == ")":
            group, opened = groups.pop()
            n = len(kids[group])
            if groups and n != 2:
                fault = f"internal node has {n} children (expected 2)"
            elif not groups and n not in (2, 3):
                fault = f"top-level node has {n} children (expected 2 or 3)"
            else:
                fault = None
            if fault and (arity is None or opened < arity[1]):
                arity = (fault, opened, 0)
            i += 1
        if not groups:
            break
        if tokens[i] != ",":
            raise NewickError("expected ',' or ')'", positions[i])
        i += 1
    if tokens[i] != ";":
        raise NewickError("expected ';'", positions[i])
    if tokens[i + 1]:
        raise NewickError("trailing text after ';'", positions[i + 1])
    for fault in (duplicate, arity):
        if fault:
            message, i, offset = fault
            raise NewickError(message, positions[i] + offset)
    if labels[0] is None and len(kids[0]) == 3:
        adj = {v: list(ks or ()) for v, ks in enumerate(kids)}
        for v, ks in enumerate(kids):
            for child in ks or ():
                adj[child].append(v)
        return UnrootedTree(adj, {v: lab for v, lab in enumerate(labels) if lab is not None})
    nodes = [None] * len(kids)
    for item in range(len(kids) - 1, -1, -1):
        ks = kids[item]
        if ks is None:
            nodes[item] = RootedTree.leaf(labels[item])
        else:
            nodes[item] = RootedTree.branch(nodes[ks[0]], nodes[ks[1]])
    return nodes[0]


_SCAN_LEAF = re.compile(r"(\(*)((?!0)\d+)(\)*)([,;])|.")
_SCAN_SPLIT = re.compile(r"\d\s+\d")


def scan_by_leaf(text: str):
    """``treecore._scan`` as one ``finditer`` loop that appends each node:
    (label, nleaves, first, order), or ``treecore._fault``'s error."""
    s = "".join(text.split())
    if len(s) < len(text) and _SCAN_SPLIT.search(text):
        raise _fault(text)
    label, nleaves, first, order, groups = [], [], [], [], []
    for m in _SCAN_LEAF.finditer(s):
        opens, x, closes, _ = m.groups()
        if x is None:
            raise _fault(text)
        k = len(order)
        for _ in opens:
            groups.append(len(label))
            label.append(None)
            first.append(k)
            nleaves.append(0)
        try:
            x = int(x)
        except ValueError:
            raise _fault(text) from None
        label.append(x)
        first.append(k)
        nleaves.append(1)
        order.append(x)
        if len(closes) > len(groups):
            raise _fault(text)
        size, k = len(label), k + 1
        for _ in closes:
            g = groups.pop()
            nleaves[g] = k - first[g]
            if g and size - g != 2 * nleaves[g] - 1:
                raise _fault(text)
    n = len(order)
    top = len(label) == 1 or n and label[0] is None and nleaves[0] == n
    if not top or 2 * n - len(label) not in (1, 2) or groups or s[-1] != ";":
        raise _fault(text)
    if s.count(";") > 1 or len(set(order)) < n:
        raise _fault(text)
    return label, nleaves, first, order


def caterpillar_by_adjacency(n: int) -> UnrootedTree:
    """The unrooted caterpillar on leaves 1..n from hand-built adjacency
    lists: leaf i is vertex i - 1, the spine runs over vertices n .. 2n - 3,
    and leaf i hangs off spine vertex i - 2, clamped to the spine."""
    spine = list(range(n, 2 * n - 2))
    adj = {v: [] for v in spine}
    edges = list(zip(spine, spine[1:]))
    for i in range(1, n + 1):
        adj[i - 1] = []
        edges.append((i - 1, spine[min(max(i - 2, 0), n - 3)]))
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return UnrootedTree(adj, {i - 1: i for i in range(1, n + 1)})


def class_c_by_recursion(m: int) -> UnrootedTree:
    """The class-C tree on 3 * 2^(m-1) leaves built by a recursive walk:
    centre 0, then three balanced branches of height m-1, vertices and
    labels numbered in preorder."""
    adj = {0: []}
    labels = {}
    vertices = count(1)
    next_label = count(1)

    def bal(parent, depth):
        vid = next(vertices)
        adj[vid] = [parent]
        adj[parent].append(vid)
        if depth == 0:
            labels[vid] = next(next_label)
        else:
            bal(vid, depth - 1)
            bal(vid, depth - 1)

    for _ in range(3):
        bal(0, m - 1)
    return UnrootedTree(adj, labels)


def is_caterpillar_by_nodes(t: RootedTree) -> bool:
    """Rooted ``is_caterpillar`` down the spine of node objects, while one
    child is a leaf."""
    node = t
    while node.label is None and min(node.left.nleaves, node.right.nleaves) == 1:
        node = node.left if node.right.nleaves == 1 else node.right
    return node.label is not None


def leaf_depths_by_nodes(t: RootedTree) -> list:
    """The depth of every leaf of ``t``, by a stack over its node objects."""
    depths, stack = [], [(t, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            depths.append(depth)
        else:
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
    return depths


class _MNode:
    """A mutable node of the random models' node-object builds."""

    __slots__ = ("label", "left", "right")

    def __init__(self, label, left=None, right=None):
        self.label = label
        self.left = left
        self.right = right

    def expand(self):
        """``rebuild`` callback: the leaf label, or the two children."""
        return self.label if self.label is not None else (self.left, self.right)


def _uniform_rooted_by_nodes(n: int, rng: SplitMix64) -> RootedTree:
    root = _MNode(1)
    edges = []  # (parent, "left"/"right"); the root position is index 0
    for lab in range(2, n + 1):
        pick = rng.randrange(len(edges) + 1)
        new_leaf = _MNode(lab)
        if pick == 0:
            root = _MNode(None, root, new_leaf)
            edges.append((root, "left"))
            edges.append((root, "right"))
        else:
            parent, side = edges[pick - 1]
            child = getattr(parent, side)
            mid = _MNode(None, child, new_leaf)
            setattr(parent, side, mid)
            edges.append((mid, "left"))
            edges.append((mid, "right"))
    return rebuild(root, _MNode.expand)


def _yule_rooted_by_nodes(n: int, rng: SplitMix64) -> RootedTree:
    if n == 1:
        return RootedTree.leaf(1)
    root = _MNode(None, _MNode(1), _MNode(2))
    tips = [root.left, root.right]
    for lab in range(3, n + 1):
        i = rng.randrange(len(tips))
        node = tips[i]
        node.left = _MNode(node.label)
        node.right = _MNode(lab)
        node.label = None
        tips[i] = node.left
        tips.append(node.right)
    return rebuild(root, _MNode.expand)


def _uniform_unrooted_by_insertion_ids(n: int, rng: SplitMix64) -> UnrootedTree:
    """The insertion on adjacency dicts, vertices numbered as inserted."""
    adj = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}
    labels = {1: 1, 2: 2, 3: 3}
    edges = [(0, 1), (0, 2), (0, 3)]
    for lab in range(4, n + 1):
        pick = rng.randrange(len(edges))
        u, v = edges[pick]
        w, x = len(adj), len(adj) + 1
        adj[u] = [y for y in adj[u] if y != v] + [w]  # w is the largest id yet,
        adj[v] = [y for y in adj[v] if y != u] + [w]  # so every list stays sorted
        adj[w] = sorted((u, v)) + [x]
        adj[x] = [w]
        labels[x] = lab
        edges[pick] = (u, w)
        edges += ((w, v), (w, x))
    return tree_as_given(adj, labels)


def random_tree_by_nodes(n: int, kind: str, seed: int, rooted: bool):
    """``gen_random`` by node objects: the rooted models on ``_MNode``s
    through ``rebuild``, the unrooted uniform model on insertion ids,
    walked once and renumbered, the unrooted Yule model by unrooting; an
    unrooted tree's adjacency is built at once (``unrooted_eagerly``)."""
    rng = SplitMix64(seed)
    if kind == "yule":
        t = _yule_rooted_by_nodes(n, rng)
        return t if rooted else unrooted_eagerly(t.dfs())
    if rooted:
        return _uniform_rooted_by_nodes(n, rng)
    return unrooted_eagerly(DfsIndex.walk(_uniform_unrooted_by_insertion_ids(n, rng)))


class PerDrawSplitMix64:
    """The splitmix64 stream one draw at a time, as ``SplitMix64`` drew
    before ``randranges``: each ``randrange`` a rejection loop of
    ``next_u64`` calls, and ``shuffle`` one ``randrange`` per swap."""

    def __init__(self, seed: int):
        self.state = seed & (2**64 - 1)

    def next_u64(self) -> int:
        mask = 2**64 - 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & mask
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = 2**64 - 1 - 2**64 % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def uniform_unrooted_by_neighbour_lists(n: int, rng) -> list:
    """``generators._uniform_unrooted`` on one sorted neighbour list per
    vertex, a label dict and the edges as two lists, numbered as inserted,
    then walked from leaf 1 by ``_adjacency_preorder``."""
    nbrs, labels = [[1, 2, 3], [0], [0], [0]], {1: 1, 2: 2, 3: 3}
    eu, ev = [0, 0, 0], [1, 2, 3]  # edge k joins eu[k] and ev[k]
    for lab in range(4, n + 1):
        pick = rng.randrange(len(eu))
        u, v, w = eu[pick], ev[pick], len(nbrs)
        nbrs[u].remove(v)  # w is the largest id yet, so every list stays sorted
        nbrs[u].append(w)
        nbrs[v].remove(u)
        nbrs[v].append(w)
        nbrs += ([u, v, w + 1] if u < v else [v, u, w + 1], [w])
        labels[w + 1] = lab
        ev[pick] = w
        eu += (w, w)
        ev += (v, w + 1)
    return _adjacency_preorder(nbrs, labels, 1)


# The ``rebuild`` forms of the fixed-shape generators, which now write
# their preorder and leaf counts outright.


def halves(labels):
    """``rebuild`` callback for the balanced tree over ``labels`` in order."""
    half = len(labels) // 2
    return (labels[:half], labels[half:]) if half else labels[0]


def balanced_by_rebuild(labels) -> RootedTree:
    return rebuild(labels, halves)


def caterpillar_rooted_by_rebuild(n: int) -> RootedTree:
    return rebuild(range(1, n + 1), lambda r: (r[:1], r[1:]) if len(r) > 1 else r[0])


def class_c_by_rebuild(m: int) -> UnrootedTree:
    h = 2 ** (m - 1)
    return unroot(rebuild(range(1, 3 * h + 1), lambda r: (r[:h], r[h:]) if len(r) > 2 * h else halves(r)))


def count_calls(monkeypatch, owner, name, record=lambda args, out: args) -> list:
    """Patch ``owner.name`` there and wherever agreetree imported it; the
    list returned collects ``record(args, result)`` for every call from
    then on."""
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(record(args, out))
        return out

    monkeypatch.setattr(owner, name, counting)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("agreetree") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def built_leaves(args, out) -> int:
    """``count_calls``'s record for ``DfsIndex.derive``, which every
    rooting, restriction and walk builds its index with: the leaf count of
    the index built."""
    return len(out.order)


def lines_run(build, *modules):
    """(``build()``, the number of lines of ``modules`` it ran), counted by
    ``sys.settrace``."""
    files, count = {module.__file__ for module in modules}, [0]

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        count[0] += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        out = build()
    finally:
        sys.settrace(previous)
    return out, count[0]
