"""Independent brute-force oracles used to validate the fast paths.

Everything here is deliberately naive: exhaustive search, all-pairs BFS,
quadratic DP.  None of it shares code with the implementations it checks.
"""

import re
from itertools import combinations, count

from agreetree.matchers import Match1Step, Match1Trace, Match2Node, Match2Trace
from agreetree.treecore import (
    NewickError,
    RootedTree,
    UnrootedTree,
    directed_postorder,
    postorder,
    root_at_edge,
    unroot,
)
from agreetree.treeops import restrict


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
        path = _vertex_path(t, t.label_vertex[a], t.label_vertex[b])
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


def _vertex_path(t: UnrootedTree, src, dst):
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
    from collections import deque

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
