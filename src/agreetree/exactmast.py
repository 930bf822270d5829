"""Ground-truth maximum-agreement computation.

One recurrence, the quadratic node-pair DP of Steel & Warnow ("Kaikoura
tree theorems", IPL 1993), fills every exact table here.  It runs over
tables of subtrees listed children before parents: a rooted tree is its
nodes in reversed DFS preorder (``RootedTree.dfs``), so the root entry is
the last.  An unrooted tree is read from the same index of its default
rooting: the branch below each node, then the branch above each node, then
one root entry per edge, as ``root_at_edge`` roots it.  The recurrence
takes one of two value types: sizes (merged by ``+``, picked by ``max``)
or sorted witness leaf tuples.

``mast_rooted`` reads the root cell of the witness table.  ``mast_unrooted``
roots t1 once, at its first edge in ``edges()`` order, against t2's unrooted
table: every rooting of t1 reaches the maximum against some rooting of t2,
so the first maximising pair of all rootings has that edge, and its
``mast_rooted`` witness is returned.  ``mast_bruteforce`` is the independent
subset-enumeration oracle used to validate both.  These are oracles, not
performance-tuned algorithms; they are exact and fast enough at desk scale.

Witnesses are deterministic: each cell keeps the candidate with the
lexicographically smallest sorted leaf tuple among the largest, so the
rooted witness is the lexicographically smallest maximum agreement set.
"""

from __future__ import annotations

import operator
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


def _merge(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b)) if a and b else a or b  # an empty side: the other, already sorted


def _pick(*candidates):
    """Largest witness; ties toward the lexicographically smallest tuple."""
    return min(candidates, key=lambda w: (-len(w), w))


# Value types of the recurrence: (single-leaf value, empty value, merge, pick).
_SIZES = (lambda x: 1, 0, operator.add, max)
_WITNESSES = (lambda x: (x,), (), _merge, _pick)


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


def mast_rooted(t1: RootedTree, t2: RootedTree) -> MastResult:
    """Exact rooted MAST with a reconstructed witness leaf set."""
    best = _mast_table(_rooted_table(t1), _rooted_table(t2), *_WITNESSES)[-1][-1]
    witness = frozenset(best)
    return MastResult(len(best), witness, verify_agreement(t1, t2, witness))


def _rooted_size(t1: RootedTree, t2: RootedTree) -> int:
    """Size-only rooted DP (no witness bookkeeping)."""
    return _mast_table(_rooted_table(t1), _rooted_table(t2), *_SIZES)[-1][-1]


def _unrooted_best_rooting(t1: UnrootedTree, t2: UnrootedTree):
    """(value, t1 rooted at its first edge, the first edge of t2 in
    ``edges()`` order whose rooting reaches value against it)."""
    r1, edges2 = root_at_edge(t1, t1.edges()[0]), t2.edges()
    roots = _mast_table(_rooted_table(r1), _unrooted_table(t2), *_SIZES)[-1][-len(edges2) :]
    value = max(roots)
    return value, r1, edges2[roots.index(value)]


def mast_unrooted(t1: UnrootedTree, t2: UnrootedTree) -> MastResult:
    """Exact unrooted MAST: t1 rooted once against every edge rooting of
    t2; the witness is that of the first maximising pair of rootings."""
    value, r1, e2 = _unrooted_best_rooting(t1, t2)
    rooted = mast_rooted(r1, root_at_edge(t2, e2))
    if rooted.size != value:
        raise AssertionError(
            f"rooting sweep found {value} but the witness DP returned {rooted.size}"
        )
    witness = rooted.witness
    return MastResult(value, witness, verify_agreement(t1, t2, witness))


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
