"""Structural decompositions and the general agreement pipeline.

A binary tree either contains a balanced restriction of substantial height
or a long path (and hence a large caterpillar restriction); ``ramsey_split``
decides which, with thresholds phi(n, a) for the balanced height and
(log n)^psi(n, 1 - a) for the path length.  ``caterpillar_agree`` handles a
caterpillar first tree through monotone subsequences, and ``agree_general``
combines everything into the unconditional pipeline whose output is at
least (alpha*/2) sqrt(log n) + alpha* log(2/3) leaves.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass

from .bounds import (
    GuaranteeReport,
    clamp,
    general_bound,
    optimal_delta_match1,
    phi,
    psi,
    slack_ceil,
)
from .exactmast import mast_unrooted
from .matchers import match1
from .treecore import (
    TreeError,
    UnrootedTree,
    _newick_tokens,
    is_caterpillar,
    root_at_leaf_edge,
    unroot,
)
from .treeops import largest_balanced, restrict, verify_agreement


# --------------------------------------------------------------------------
# Paths and caterpillars
# --------------------------------------------------------------------------


def _spine(t: UnrootedTree):
    """t's ``Diameter``, with ``hanging`` filled: for each internal vertex
    v of its path, in path order, v's neighbour off the path.  They are
    found once per tree (``_hanging``)."""
    d = t.diameter()
    if d.hanging is None:
        d.hanging = _hanging(d, t.dfs().nleaves)
    return d


def _hanging(d, nleaves) -> array:
    """For each internal vertex v of the path of ``d``, in path order, its
    neighbour off the path: the child of v in the DFS index (vertex v's
    are v + 1 and v + 2 * nleaves[v + 2]) that is not on the path, or, when
    both are (v is the path's top vertex), the parent ``Diameter`` keeps."""
    onpath = set(d.path)
    hanging = array("i")
    for v in d.path[1:-1]:
        off = [w for w in (v + 1, v + 2 * nleaves[v + 2]) if w not in onpath]
        hanging.append(off[0] if off else d.above)
    return hanging


def max_caterpillar(t: UnrootedTree) -> frozenset:
    """Leaf set of a maximum caterpillar restriction: both endpoints of a
    diameter path plus the smallest leaf hanging off each internal path
    vertex, so one leaf more than the path has edges.  A child w's leaves
    are the slice below node w + 1; a parent's side holds the smallest
    leaf, vertex 0."""
    d, ix = _spine(t), t.dfs()
    labels = [ix.label[d.path[0] + 1], ix.label[d.path[-1] + 1]]
    return frozenset(labels + [min(ix.leaves(w + 1)) if w > v else ix.order[0] for v, w in zip(d.path[1:-1], d.hanging)])


# --------------------------------------------------------------------------
# Longest monotone subsequence
# --------------------------------------------------------------------------


def _longest_increasing(seq):
    """Patience-style O(n log n) LIS with back pointers."""
    tails = []  # smallest tail value per length
    tail_pos = []  # index in seq of that tail
    prev = [None] * len(seq)
    for i, x in enumerate(seq):
        j = bisect_left(tails, x)
        if j == len(tails):
            tails.append(x)
            tail_pos.append(i)
        else:
            tails[j] = x
            tail_pos[j] = i
        if j > 0:
            prev[i] = tail_pos[j - 1]
    if not tail_pos:
        return []
    out = []
    i = tail_pos[-1]
    while i is not None:
        out.append(seq[i])
        i = prev[i]
    out.reverse()
    return out


def lis(seq):
    """Longest monotone subsequence of distinct integers.

    Returns (subsequence, direction); the longer of increasing/decreasing,
    increasing on ties.  Always at least ceil(sqrt(n)) long."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        raise ValueError("lis needs distinct values")
    inc = _longest_increasing(seq)
    dec = [-x for x in _longest_increasing([-x for x in seq])]
    if len(inc) >= len(dec):
        return inc, "increasing"
    return dec, "decreasing"


# --------------------------------------------------------------------------
# The balanced-or-path split
# --------------------------------------------------------------------------


@dataclass
class RamseyOutcome:
    """Either a balanced restriction meeting the phi threshold or a long
    path meeting the (log n)^psi threshold; one always exists for n > 2."""

    kind: str  # "balanced" or "path"
    leaves: frozenset
    height: int | None
    path_edges: int | None
    phi_value: float
    psi_value: float
    balanced_threshold: int
    path_threshold: int

    def meets_threshold(self) -> bool:
        if self.kind == "balanced":
            return self.height >= self.balanced_threshold
        return self.path_edges >= self.path_threshold

    def as_dict(self):
        return {
            "kind": self.kind,
            "leaves": sorted(self.leaves),
            "height": self.height,
            "path_edges": self.path_edges,
            "phi": self.phi_value,
            "psi": self.psi_value,
            "balanced_threshold": self.balanced_threshold,
            "path_threshold": self.path_threshold,
            "meets_threshold": self.meets_threshold(),
        }


def ramsey_split(t, a: float = 0.5) -> RamseyOutcome:
    """Find a balanced restriction of height >= ceil(phi(n, a)) or report
    the maximum caterpillar around a longest path (guaranteed to have at
    least (log n)^psi(n, 1 - a) edges when no such balanced restriction
    exists)."""
    n = t.nleaves
    if n <= 2:
        raise TreeError("ramsey_split needs more than 2 leaves")
    phi_v = phi(n, a)
    psi_v = psi(n, 1 - a)
    bal_threshold = slack_ceil(phi_v)
    path_threshold = slack_ceil(math.log2(n) ** psi_v)
    best_height, leaves = largest_balanced(t)
    if best_height >= bal_threshold:
        return RamseyOutcome(
            "balanced", leaves, best_height, None, phi_v, psi_v, bal_threshold, path_threshold
        )
    leaves = max_caterpillar(t if isinstance(t, UnrootedTree) else unroot(t))
    return RamseyOutcome(
        "path", leaves, None, len(leaves) - 1, phi_v, psi_v, bal_threshold, path_threshold
    )


# --------------------------------------------------------------------------
# Caterpillar agreement
# --------------------------------------------------------------------------


def caterpillar_spine_order(t: UnrootedTree) -> list:
    """Leaf labels of a caterpillar in spine order.

    A spine order is unique only up to reversal and swapping the two leaves
    of each end cherry; the lexicographically smallest equivalent form is
    returned."""
    if not is_caterpillar(t):
        raise TreeError("not a caterpillar")
    d, label = _spine(t), t.dfs().label
    order = [label[x + 1] for x in (d.path[0], *d.hanging, d.path[-1])]
    if len(order) == 3:
        return sorted(order)
    front, back, middle = sorted(order[:2]), sorted(order[-2:]), order[2:-2]
    return min(front + middle + back, back + middle[::-1] + front)  # each end cherry sorted


def circular_leaf_order(t: UnrootedTree) -> list:
    """Leaves in the circular order of the canonical planar embedding, cut
    so the smallest label comes first: the labels of ``to_newick(t)`` in
    text order, read off its tokens."""
    return [int(x) for x in _newick_tokens(t.dfs(), False) if x.isdigit()]


def caterpillar_agree(t1: UnrootedTree, t2: UnrootedTree) -> frozenset:
    """Agreement of a caterpillar t1 with an arbitrary t2 on the same
    leaves; at least max(1, log2(n) / 3) leaves.

    Pipeline: read t1's spine order; linearise t2's circular leaf order;
    take the longest monotone subsequence X of the spine positions (at
    least sqrt n leaves); inside t2|X keep a maximum caterpillar Y (at
    least log |X| leaves); both restrictions to Y are caterpillars, and
    their exact agreement is computed by the unrooted oracle (cheap, since
    |Y| is logarithmic)."""
    if not is_caterpillar(t1):
        raise TreeError("caterpillar_agree requires a caterpillar first tree")
    if t1.leaves != t2.leaves:
        raise TreeError("caterpillar_agree requires identical leaf sets")
    spine = caterpillar_spine_order(t1)
    position = {lab: i for i, lab in enumerate(spine)}
    linear = circular_leaf_order(t2)
    subseq, _ = lis([position[lab] for lab in linear])
    X = frozenset(spine[p] for p in subseq)
    if len(X) < 3:
        return X  # up to three leaves agree trivially
    Y = max_caterpillar(restrict(t2, X))
    result = mast_unrooted(restrict(t1, Y), restrict(t2, Y))
    return result.witness


# --------------------------------------------------------------------------
# The general pipeline
# --------------------------------------------------------------------------

EXACT_CUTOFF = 64  # run the exact oracle as an extra attempt up to here


def agree_general(t1: UnrootedTree, t2: UnrootedTree):
    """Agreement of two arbitrary unrooted trees on the same n > 2 leaves.

    Tries the balanced-or-path split on each tree (matching a balanced
    restriction with match1, or a maximum caterpillar with
    caterpillar_agree), plus the exact oracle for n <= 64, and returns the
    largest result with its guarantee report, whose ``certificate`` is the
    check of that result on t1 and t2."""
    if not isinstance(t1, UnrootedTree) or not isinstance(t2, UnrootedTree):
        raise TreeError("agree_general works on unrooted trees")
    if t1.leaves != t2.leaves:
        raise TreeError("agree_general requires identical leaf sets")
    n = t1.nleaves
    if n <= 2:
        raise TreeError("agree_general needs more than 2 leaves")
    delta_star = optimal_delta_match1()[0]
    attempts = []
    for first, second in ((t1, t2), (t2, t1)):
        outcome = ramsey_split(first)
        A = outcome.leaves
        if outcome.kind == "balanced":
            if len(A) < 3:
                attempts.append(frozenset(A))
                continue
            balanced_first = root_at_leaf_edge(first, A)
            rooted_second = root_at_leaf_edge(restrict(second, A))
            leaves, _ = match1(balanced_first, rooted_second, delta_star)
            attempts.append(frozenset(leaves))
        elif A == first.leaves:  # first is a caterpillar: no copy to restrict
            attempts.append(caterpillar_agree(first, second))
        else:
            attempts.append(caterpillar_agree(restrict(first, A), restrict(second, A)))
    if n <= EXACT_CUTOFF:
        attempts.append(mast_unrooted(t1, t2).witness)
    best = min(attempts, key=lambda X: (-len(X), tuple(sorted(X))))
    report = GuaranteeReport(
        "agree", clamp(general_bound(n)), len(best), {"n": n, "delta": delta_star},
        certificate=verify_agreement(t1, t2, best),
    )
    return best, report
