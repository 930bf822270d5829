"""Operations on trees: restriction, ancestors, joins, balanced
restrictions, isomorphism, and agreement-certificate verification.

Tree identity has one test: two trees of the same kind are
label-respecting isomorphic iff their canonical Newick texts (``to_newick``)
are equal, so isomorphism and agreement certificates compare texts.  A
rooted restriction is rooted at the most recent common ancestor of the kept
leaves.  A restriction's index is written from the tree's ``DfsIndex`` by
``treecore._reroot``, visiting only the nodes over the kept leaves (an
unrooted tree's index is that of its default rooting, as the fold reads).
"""

from __future__ import annotations

from dataclasses import dataclass

from .treecore import DfsIndex, RootedTree, TreeError, _newick_tokens, _nodes, _reroot, _unroot_index
from .treecore import to_newick


class AgreementError(TreeError):
    """The two restrictions differ; the message names the leaf set and both
    canonical texts."""


def lca(t: RootedTree, labels) -> RootedTree:
    """Most recent common ancestor of a non-empty set of leaf labels: the
    lowest node whose DFS positions span all of theirs."""
    X = frozenset(labels)
    if not X:
        raise TreeError("lca of an empty set")
    P = t.dfs().positions(X)
    node, start = t, 0  # node's leaves sit at DFS positions start on
    while node.label is None:
        mid = start + node.left.nleaves
        if P[-1] < mid:
            node = node.left
        elif P[0] >= mid:
            node, start = node.right, mid
        else:
            break
    return node


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
        return _nodes(DfsIndex.derive(_reroot(t.dfs(), 0, P=t.dfs().positions(X))))
    if len(X) < 3:
        raise TreeError("unrooted restriction needs at least 3 leaves")
    return _unroot_index(_unrooted_index(t, X))


def _unrooted_index(t, X: frozenset) -> DfsIndex:
    """The index of unrooted ``restrict(t, X)``: t rooted at the pendant
    edge of min(X), that leaf left, and pruned to X."""
    ix = t.dfs()
    P = ix.positions(X)
    return DfsIndex.derive(_reroot(ix, ix.label.index(min(X)), True, P))


def join(s_left: RootedTree, s_right: RootedTree) -> RootedTree:
    """New root over two rooted trees with disjoint leaf sets."""
    shared = s_left.dfs().pos.keys() & s_right.dfs().pos.keys()
    if shared:
        raise TreeError(f"joined trees share leaves {sorted(shared)}")
    return RootedTree.branch(s_left, s_right)


def _balanced_heights(t: RootedTree) -> list:
    """b per node of t's DFS index, the height of the highest balanced
    restriction below the node: b(leaf) = 0,
    b(u) = max(b(l), b(r), 1 + min(b(l), b(r)))."""
    ix = t.dfs()
    label, nleaves = ix.label, ix.nleaves
    b = [0] * len(label)
    for i in range(len(label) - 1, -1, -1):
        if label[i] is None:
            bl, br = b[i + 1], b[i + 2 * nleaves[i + 1]]
            b[i] = bl + 1 if bl == br else max(bl, br)
    return b


def max_balanced_height(t: RootedTree) -> int:
    """Largest k such that some leaf subset restricts to a balanced tree of
    height k."""
    return _balanced_heights(t)[0]


def extract_balanced(t: RootedTree, k: int) -> frozenset:
    """A leaf set whose restriction is balanced of height k (2^k leaves).

    Splits k-1/k-1 across the children whenever both support it, otherwise
    descends into a child that supports k; leaf picks take the smallest
    label."""
    if k < 0:
        raise TreeError(f"balanced height k must be >= 0, got k={k}")
    b = _balanced_heights(t)
    if k > b[0]:
        raise TreeError(f"tree has no balanced restriction of height {k}")
    return _pick_balanced(t, k, b)


def largest_balanced(t):
    """(max_balanced_height(t), extract_balanced(t, that height)) from one
    fold of the tree; an unrooted tree is folded as ``root_at_leaf_edge``
    roots it."""
    b = _balanced_heights(t)
    return b[0], _pick_balanced(t, b[0], b)


def _pick_balanced(t: RootedTree, k: int, b: list) -> frozenset:
    """``extract_balanced``'s descent over the ``_balanced_heights`` list."""
    ix = t.dfs()
    out = []
    stack = [(0, k)]
    while stack:
        i, k = stack.pop()
        if k == 0:
            out.append(min(ix.leaves(i)))
            continue
        left, right = i + 1, i + 2 * ix.nleaves[i + 1]
        if 1 + min(b[left], b[right]) >= k:
            stack += [(left, k - 1), (right, k - 1)]
        elif b[left] >= k:
            stack.append((left, k))
        else:
            stack.append((right, k))
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
    if isinstance(s, RootedTree):  # the DFS indexes that restrict and to_newick read
        X, Y = s.dfs().pos.keys(), t.dfs().pos.keys()
    else:
        X, Y = s.leaves, t.leaves
    return X <= Y and is_isomorphic(s, restrict(t, X))


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
    if isinstance(t1, RootedTree):  # the DFS indexes that restrict reads too
        common = t1.dfs().pos.keys() & t2.dfs().pos.keys()
    else:
        common = t1.leaves & t2.leaves
    if not X <= common:
        raise TreeError(f"labels {sorted(X - common)} not shared by both trees")
    if not X:
        return AgreementCertificate(X, "")
    if not isinstance(t1, RootedTree) and len(X) <= 2:
        body = ",".join(str(x) for x in sorted(X))
        shape = f"{body};" if len(X) == 1 else f"({body});"
        return AgreementCertificate(X, shape)
    if isinstance(t1, RootedTree):
        shape1, shape2 = to_newick(restrict(t1, X)), to_newick(restrict(t2, X))
    else:  # each restriction written from its index, without its adjacency
        shape1, shape2 = ("".join(_newick_tokens(_unrooted_index(t, X), False)) for t in (t1, t2))
    if shape1 != shape2:
        raise AgreementError(f"restrictions to {sorted(X)} differ: {shape1} vs {shape2}")
    return AgreementCertificate(X, shape1)
