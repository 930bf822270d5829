"""Ground-truth maximum-agreement computation.

One recurrence, the quadratic node-pair DP of Steel & Warnow ("Kaikoura
tree theorems", IPL 1993), fills every exact table here, with one value
type: the int ``size << N | mask``, N the first tree's leaf count, where
the leaf of sorted rank r sets mask bit N - 1 - r.  Merge is ``+``, pick
is ``max``, empty is 0, and integer order is "largest, then smallest
sorted leaf tuple", so one table gives the size and the witness: the
lexicographically smallest maximum agreement set.

The rows are the first tree's nodes, children first and the larger child
first; each row is dropped once its parent's is built, so about log2 n + 2
are alive.  The columns list the second tree's subtrees children before
parents: a rooted tree's nodes in reversed DFS preorder (``RootedTree.dfs``),
root last; for an unrooted tree, read from the index of its default
rooting, the branch below each node, the branch above each node, then one
root entry per edge, as ``root_at_edge`` roots it.

``mast_rooted`` reads the root cell.  ``mast_unrooted`` roots t1 at its
first edge in ``edges()`` order against t2's unrooted table: every rooting
of t1 reaches the maximum against some rooting of t2.  Its witness is the
root entry of t2's first maximising edge, the witness of the first
maximising pair of rootings.  ``mast_bruteforce`` is the independent
subset-enumeration oracle used to validate both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .generators import enumerate_topologies, guards_lifted
from .treecore import RootedTree, UnrootedTree, root_at_edge
from .treeops import AgreementCertificate, is_isomorphic, restrict, verify_agreement

BRUTEFORCE_GUARD = 12
FLOOR_GUARD = 6


@dataclass
class MastResult:
    size: int
    witness: frozenset
    certificate: AgreementCertificate


def _rooted_table(t):
    """(children, labels) per node of ``t.dfs()`` in reversed preorder;
    children are entry indices (None for a leaf) and the root entry is the
    last."""
    ix = t.dfs()
    label, nleaves, _ = ix.label, ix.nleaves, ix.pos  # pos names a repeated label before the DP
    last = len(label) - 1  # preorder number i is entry last - i
    kids = [
        None if label[i] else (last - i - 1, last - i - 2 * nleaves[i + 1]) for i in range(last, -1, -1)
    ]
    return kids, label[::-1]


def _unrooted_table(t: UnrootedTree):
    """(children, labels) for ``_rooted_table`` of ``t.dfs()``, one entry
    below each node; then the branch above each node i >= 3, (above its
    parent, its sibling), in the order of the parents (above node 1 or 2 is
    its sibling); then one root entry per edge of ``t.edges()``, (its lower
    end, above it)."""
    kids, labels = _rooted_table(t)
    ix, size = t.dfs(), len(kids)  # node i is entry size - 1 - i
    up = [None, size - 3, size - 2] + [None] * (size - 3)  # entry above node i
    for p in range(2, size):
        if ix.label[p] is None:
            a, b = p + 1, p + 2 * ix.nleaves[p + 1]
            for c, sibling in ((a, b), (b, a)):
                up[c] = len(kids)
                kids.append((up[p], size - 1 - sibling))
    for _, v in t.edges():  # the lower end v > u is node v + 1
        kids.append((size - 2 - v, up[v + 1]))
    return kids, labels + [None] * (len(kids) - size)


def _leaf_row(value, j, inner, width):
    """A leaf's row: ``value`` in every entry holding column ``j`` (None:
    the leaf is in no entry), 0 elsewhere."""
    row = [0] * width
    if j is not None:
        row[j] = value
        for k, a, b in inner:
            row[k] = row[a] or row[b]
    return row


def _node_row(A, B, inner):
    """The row of a node whose children have rows A and B.  A leaf column
    holds the one child value that is not 0."""
    row = list(map(max, A, B))
    for j, a, b in inner:  # max of six candidates, by comparisons (faster than a max call)
        v, w = A[a] + B[b], A[b] + B[a]
        if w > v:
            v = w
        if row[a] > v:
            v = row[a]
        if row[b] > v:
            v = row[b]
        if v > row[j]:
            row[j] = v
    return row


def _mast_row(t1: RootedTree, t2, table):
    """The row of t1's root against every entry of ``table(t2)``, each
    ``size << N | mask``, and t1's sorted leaf labels."""
    ix = t1.dfs()
    label, nleaves, _ = ix.label, ix.nleaves, ix.pos  # pos names a repeated label before any row
    kids2, labels2 = table(t2)
    ranked, N = sorted(ix.order), len(ix.order)
    one = {x: 1 << N | 1 << N - 1 - r for r, x in enumerate(ranked)}
    column = {y: j for j, y in enumerate(labels2) if y is not None}
    inner = [(j, *k) for j, k in enumerate(kids2) if k is not None]
    rows, stack = [], [0]  # rows waiting for a sibling; nodes to visit, ~i to build i
    while stack:
        i = stack.pop()
        if i < 0:
            rows[-2:] = [_node_row(*rows[-2:], inner)]
        elif label[i] is None:
            a, b = i + 1, i + 2 * nleaves[i + 1]
            stack += (~i, a, b) if nleaves[a] < nleaves[b] else (~i, b, a)
        else:
            rows.append(_leaf_row(one[label[i]], column.get(label[i]), inner, len(kids2)))
    return rows[0], ranked


def _witness(value: int, ranked: list) -> frozenset:
    top = len(ranked) - 1  # built in sorted order, as a sorted tuple would be
    return frozenset(x for r, x in enumerate(ranked) if value >> top - r & 1)


def mast_rooted(t1: RootedTree, t2: RootedTree) -> MastResult:
    """Exact rooted MAST with its witness, the smallest maximum set."""
    row, ranked = _mast_row(t1, t2, _rooted_table)
    witness = _witness(row[-1], ranked)
    return MastResult(len(witness), witness, verify_agreement(t1, t2, witness))


def _rooted_size(t1: RootedTree, t2: RootedTree) -> int:
    row, ranked = _mast_row(t1, t2, _rooted_table)
    return row[-1] >> len(ranked)


def _unrooted_best_rooting(t1: UnrootedTree, t2: UnrootedTree):
    """(size, witness, the first edge of t2 in ``edges()`` order whose
    rooting reaches size against t1 rooted at its first edge)."""
    r1, edges2 = root_at_edge(t1, t1.edges()[0]), t2.edges()
    row, ranked = _mast_row(r1, t2, _unrooted_table)
    sizes = [v >> len(ranked) for v in row[-len(edges2) :]]
    k = sizes.index(max(sizes))
    return sizes[k], _witness(row[k - len(edges2)], ranked), edges2[k]


def mast_unrooted(t1: UnrootedTree, t2: UnrootedTree) -> MastResult:
    """Exact unrooted MAST: t1 rooted once against every edge rooting of
    t2; the witness is the first root entry of maximum size."""
    size, witness, _ = _unrooted_best_rooting(t1, t2)
    return MastResult(size, witness, verify_agreement(t1, t2, witness))


# --------------------------------------------------------------------------
# Brute-force oracle and the minimum over topology pairs
# --------------------------------------------------------------------------


def mast_bruteforce(t1, t2, force: bool = False) -> int:
    """Subset-enumeration MAST (descending size, early exit); guarded to at
    most 12 shared leaves."""
    common = sorted(t1.leaves & t2.leaves)
    if len(common) > BRUTEFORCE_GUARD and not force and not guards_lifted():
        raise ValueError(
            f"{len(common)} shared leaves exceeds the brute-force guard "
            f"({BRUTEFORCE_GUARD}); pass force=True or set AGREETREE_GUARDS=off"
        )
    # Any 2 shared leaves agree rooted; any 3 agree unrooted.
    trivial = 2 if isinstance(t1, RootedTree) else 3
    for size in range(len(common), trivial, -1):
        for X in combinations(common, size):
            if is_isomorphic(restrict(t1, X), restrict(t2, X)):
                return size
    return min(len(common), trivial)


def mast_floor(n: int, rooted: bool = False, force: bool = False) -> int:
    """Exact min of MAST over all pairs of topologies on leaves 1..n."""
    if n > FLOOR_GUARD and not force and not guards_lifted():
        raise ValueError(
            f"mast_floor guard is n <= {FLOOR_GUARD}; "
            "pass force=True or set AGREETREE_GUARDS=off"
        )
    tops = list(enumerate_topologies(n, rooted=rooted, force=force))
    size_fn = _rooted_size if rooted else lambda a, b: _unrooted_best_rooting(a, b)[0]
    best = n
    for i in range(len(tops)):
        for j in range(i + 1, len(tops)):
            best = min(best, size_fn(tops[i], tops[j]))
            if best <= (2 if rooted else 3):
                return best  # cannot go lower: small subsets agree trivially
    return best
