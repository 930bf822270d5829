"""Operations on trees: restriction, ancestors, joins, balanced
restrictions, isomorphism, and agreement-certificate verification.

Tree identity has one test: two trees of the same kind are
label-respecting isomorphic iff their canonical Newick texts (``to_newick``)
are equal, so isomorphism and agreement certificates compare texts.  A
rooted restriction is rooted at the most recent common ancestor of the kept
leaves.  A restriction walks only the kept leaves' span and the branches it
prunes, found by DFS positions (``RootedTree._leaf_order``, ``_span_index``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .treecore import (
    RootedTree,
    TreeError,
    postorder,
    rebuild,
    root_at_edge,
    to_newick,
    unroot,
)


class AgreementError(TreeError):
    """The two restrictions differ; the message names the leaf set and both
    canonical texts."""


def lca(t: RootedTree, labels) -> RootedTree:
    """Most recent common ancestor of a non-empty set of leaf labels: the
    first node in postorder whose subtree holds all of them."""
    X = frozenset(labels)
    if not X:
        raise TreeError("lca of an empty set")
    count = {}  # node -> number of labels of X below it
    for node in postorder(t):
        if node.is_leaf:
            count[node] = node.label in X
        else:
            count[node] = count[node.left] + count[node.right]
        if count[node] == len(X):
            return node
    raise TreeError(f"labels {sorted(X - t.leaves)} not in tree")


def restrict(t, labels):
    """Restriction T|X: the minimal subgraph spanning X with degree-2
    vertices suppressed; rooted restrictions are rooted at the MRCA of X.

    X must be a subset of the leaf labels; unrooted restrictions need
    |X| >= 3.
    """
    X = frozenset(labels)
    if isinstance(t, RootedTree):
        if not X:
            raise TreeError("cannot restrict to an empty leaf set")
        P = [i for i, x in enumerate(t._leaf_order(keep=True)) if x in X]
        if len(P) != len(X):
            raise TreeError(f"labels {sorted(X - t.leaves)} not in tree")

        def expand(item):  # item (node, lo): its leaves sit at DFS positions lo on
            node, lo = item
            if node.label is not None:
                return node.label
            if bisect_left(P, lo) == bisect_left(P, lo + node.nleaves):
                return 0  # no kept leaf below: rebuild drops the label 0
            return (node.left, lo), (node.right, lo + node.left.nleaves)

        return rebuild((t, 0), expand, keep=X)
    if len(X) < 3:
        raise TreeError("unrooted restriction needs at least 3 leaves")
    if not X <= t.leaves:
        raise TreeError(f"labels {sorted(X - t.leaves)} not in tree")
    v = t.label_vertex[min(X)]
    return unroot(root_at_edge(t, (v, t.adj[v][0]), keep=X))


def join(s_left: RootedTree, s_right: RootedTree) -> RootedTree:
    """New root over two rooted trees with disjoint leaf sets."""
    if s_left.leaves & s_right.leaves:
        raise TreeError(
            f"joined trees share leaves {sorted(s_left.leaves & s_right.leaves)}"
        )
    return RootedTree.branch(s_left, s_right)


def _balanced_heights(t: RootedTree) -> dict:
    """{node: (b, smallest leaf label)} where b is the height of the highest
    balanced restriction below the node: b(leaf) = 0,
    b(u) = max(b(l), b(r), 1 + min(b(l), b(r)))."""
    vals = {}
    for node in postorder(t):
        if node.is_leaf:
            vals[node] = (0, node.label)
        else:
            (bl, ml), (br, mr) = vals[node.left], vals[node.right]
            vals[node] = (max(bl, br, 1 + min(bl, br)), min(ml, mr))
    return vals


def max_balanced_height(t: RootedTree) -> int:
    """Largest k such that some leaf subset restricts to a balanced tree of
    height k."""
    return _balanced_heights(t)[t][0]


def extract_balanced(t: RootedTree, k: int) -> frozenset:
    """A leaf set whose restriction is balanced of height k (2^k leaves).

    Splits k-1/k-1 across the children whenever both support it, otherwise
    descends into a child that supports k; leaf picks take the smallest
    label."""
    if k < 0:
        raise TreeError(f"balanced height k must be >= 0, got k={k}")
    vals = _balanced_heights(t)
    if k > vals[t][0]:
        raise TreeError(f"tree has no balanced restriction of height {k}")
    return _pick_balanced(t, k, vals)


def largest_balanced(t: RootedTree):
    """(max_balanced_height(t), extract_balanced(t, that height)) from one
    fold of the tree."""
    vals = _balanced_heights(t)
    return vals[t][0], _pick_balanced(t, vals[t][0], vals)


def _pick_balanced(t: RootedTree, k: int, vals: dict) -> frozenset:
    """``extract_balanced``'s descent over the ``_balanced_heights`` table."""
    out = []
    stack = [(t, k)]
    while stack:
        node, k = stack.pop()
        if k == 0:
            out.append(vals[node][1])
            continue
        bl, br = vals[node.left][0], vals[node.right][0]
        if 1 + min(bl, br) >= k:
            stack += [(node.left, k - 1), (node.right, k - 1)]
        elif bl >= k:
            stack.append((node.left, k))
        else:
            stack.append((node.right, k))
    return frozenset(out)


def _same_kind(t1, t2):
    if isinstance(t1, RootedTree) != isinstance(t2, RootedTree):
        raise TreeError("cannot compare a rooted tree with an unrooted tree")


def is_isomorphic(t1, t2) -> bool:
    """Label-respecting isomorphism: equal canonical texts (so False for
    distinct leaf sets)."""
    _same_kind(t1, t2)
    return to_newick(t1) == to_newick(t2)


def is_subtree(s, t) -> bool:
    """True iff restricting t to s's leaves recovers s exactly."""
    _same_kind(s, t)
    if not s.leaves <= t.leaves:
        return False
    return is_isomorphic(s, restrict(t, s.leaves))


@dataclass(frozen=True)
class AgreementCertificate:
    """Evidence that two trees agree on a leaf set: the set plus the
    canonical serialisation of the (common) restricted shape."""

    leaves: frozenset
    restricted_shape: str


def verify_agreement(t1, t2, labels) -> AgreementCertificate:
    """Check T1|X == T2|X and return a certificate; raise AgreementError
    otherwise.

    Unrooted conventions: any X with |X| <= 2 agrees trivially (there is
    only one topology on up to three leaves); such degenerate certificates
    serialise as "a;" or "(a,b);".  An empty X yields an empty certificate.
    """
    _same_kind(t1, t2)
    X = frozenset(labels)
    if isinstance(t1, RootedTree):  # keep each DFS leaf order for restrict
        t1._leaf_order(keep=True), t2._leaf_order(keep=True)
    common = t1.leaves & t2.leaves
    if not X <= common:
        raise TreeError(f"labels {sorted(X - common)} not shared by both trees")
    if not X:
        return AgreementCertificate(X, "")
    if not isinstance(t1, RootedTree) and len(X) <= 2:
        body = ",".join(str(x) for x in sorted(X))
        shape = f"{body};" if len(X) == 1 else f"({body});"
        return AgreementCertificate(X, shape)
    shape1 = to_newick(restrict(t1, X))
    shape2 = to_newick(restrict(t2, X))
    if shape1 != shape2:
        raise AgreementError(f"restrictions to {sorted(X)} differ: {shape1} vs {shape2}")
    return AgreementCertificate(X, shape1)
