import math
import sys
import tracemalloc
import weakref
from itertools import combinations

import pytest

from agreetree import exactmast
from agreetree.exactmast import (
    _rooted_size,
    _unrooted_best_rooting,
    _unrooted_table,
    mast_bruteforce,
    mast_floor,
    mast_rooted,
    mast_unrooted,
)
from agreetree.generators import (
    RandomModel,
    gen_balanced,
    gen_caterpillar,
    gen_class_b,
    gen_class_c,
    gen_random,
    gen_swap_pair,
    relabel,
)
from agreetree._rng import SplitMix64
from agreetree.decompose import agree_general
from agreetree.treecore import DfsIndex, UnrootedTree, parse_newick, root_at_edge, to_newick
from agreetree.treeops import restrict, verify_agreement

from oracles import (
    _SIZES,
    _WITNESSES,
    _mast_table,
    clusters,
    count_calls,
    mast_rooted_reference,
    mast_subsets_unrooted,
    mast_unrooted_reference,
    smallest_agreement_unrooted,
    unrooted_best_rooting_by_pairs,
    unrooted_table_by_directed_edges,
)


def _random_rooted(n, seed):
    return gen_random(n, RandomModel("uniform", seed), rooted=True)


def _random_unrooted(n, seed):
    return gen_random(n, RandomModel("uniform", seed))


class TestRooted:
    def test_identical(self):
        t = _random_rooted(9, 13)
        res = mast_rooted(t, t)
        assert res.size == 9 and res.witness == t.leaves

    def test_disjoint(self):
        a = gen_balanced(1)
        b = relabel(gen_balanced(1), {1: 5, 2: 6})
        assert mast_rooted(a, b).size == 0

    def test_swap_pair_k1(self):
        assert mast_rooted(*gen_swap_pair(1)).size == 2

    def test_matches_bruteforce_randoms(self):
        rng = SplitMix64(99)
        for _ in range(60):
            n = 4 + rng.randrange(5)
            a = _random_rooted(n, rng.next_u64())
            b = _random_rooted(n, rng.next_u64())
            res = mast_rooted(a, b)
            assert res.size == mast_bruteforce(a, b)
            verify_agreement(a, b, res.witness)

    def test_partial_overlap(self):
        a = _random_rooted(8, 3)
        b = relabel(_random_rooted(8, 4), {i: i + 4 for i in range(1, 9)})
        res = mast_rooted(a, b)
        assert res.size == mast_bruteforce(a, b)
        assert res.witness <= a.leaves & b.leaves

    def test_monotone_under_restriction(self):
        rng = SplitMix64(5)
        for _ in range(10):
            a = _random_rooted(8, rng.next_u64())
            b = _random_rooted(8, rng.next_u64())
            whole = mast_rooted(a, b).size
            X = sorted(a.leaves)[:5]
            assert mast_rooted(restrict(a, X), restrict(b, X)).size <= whole

    def test_witness_deterministic_and_lex_small(self):
        a = _random_rooted(7, 70)
        b = _random_rooted(7, 71)
        w1 = mast_rooted(a, b).witness
        w2 = mast_rooted(a, b).witness
        assert w1 == w2
        # The witness is the lexicographically smallest maximum agreement
        # set: the first agreeing subset in combinations(sorted(common)) order.
        rng = SplitMix64(72)
        for _ in range(200):
            n = 2 + rng.randrange(7)
            a = _random_rooted(n, rng.next_u64())
            b = _random_rooted(n, rng.next_u64())
            res = mast_rooted(a, b)
            first = next(
                X
                for X in combinations(sorted(a.leaves & b.leaves), res.size)
                if clusters(restrict(a, X)) == clusters(restrict(b, X))
            )
            assert res.witness == frozenset(first), (a, b)


class TestUnrooted:
    def test_identical(self):
        t = _random_unrooted(8, 21)
        assert mast_unrooted(t, t).size == 8

    def test_swap_pair_k1(self):
        assert mast_unrooted(*gen_swap_pair(1, rooted=False)).size == 3

    def test_matches_subset_bruteforce(self):
        rng = SplitMix64(7)
        for _ in range(40):
            n = 4 + rng.randrange(4)
            a = _random_unrooted(n, rng.next_u64())
            b = _random_unrooted(n, rng.next_u64())
            res = mast_unrooted(a, b)
            assert res.size == mast_subsets_unrooted(a, b)
            verify_agreement(a, b, res.witness)

    def test_monotone_under_restriction(self):
        rng = SplitMix64(6)
        for _ in range(8):
            a = _random_unrooted(7, rng.next_u64())
            b = _random_unrooted(7, rng.next_u64())
            whole = mast_unrooted(a, b).size
            X = sorted(a.leaves)[:5]
            assert mast_unrooted(restrict(a, X), restrict(b, X)).size <= whole

    def test_agrees_with_per_rooting_sweep(self):
        a = _random_unrooted(6, 100)
        b = _random_unrooted(6, 101)
        sweep = max(
            _rooted_size(root_at_edge(a, e1), root_at_edge(b, e2))
            for e1 in a.edges()
            for e2 in b.edges()
        )
        assert mast_unrooted(a, b).size == sweep

    def test_witness_from_first_best_rooting_pair(self):
        rng = SplitMix64(8)
        for _ in range(60):
            n = 3 + rng.randrange(5)
            a = _random_unrooted(n, rng.next_u64())
            b = _random_unrooted(n, rng.next_u64())
            pairs = [(e1, e2) for e1 in a.edges() for e2 in b.edges()]
            e1, e2 = max(
                pairs,
                key=lambda p: _rooted_size(root_at_edge(a, p[0]), root_at_edge(b, p[1])),
            )
            want = mast_rooted(root_at_edge(a, e1), root_at_edge(b, e2)).witness
            assert mast_unrooted(a, b).witness == want, (a, b)

    def test_table_from_index_equals_directed_edge_table(self):
        """The table read from each tree's DFS index gives the same value at
        every pair of rootings as the table of directed edges: sizes on
        seeded uniform and Yule pairs, caterpillars, parsed and shifted
        vertex ids; witnesses on the smaller pairs."""
        rng = SplitMix64(15)
        pairs = []
        for model in ("uniform", "yule"):
            for n in list(range(3, 40, 3)) + [64]:
                a, b = (gen_random(n, RandomModel(model, rng.next_u64())) for _ in "ab")
                pairs.append((a, b))
                pairs.append((parse_newick(to_newick(b)), a))
        pairs.append((gen_caterpillar(17), _random_unrooted(17, 4)))
        a, b = pairs[5]  # n = 9, parsed first tree
        shifted = UnrootedTree(
            {v + 7: [w + 7 for w in ns] for v, ns in b.adj.items()},
            {v + 7: lab for v, lab in b.leaf_label.items()},
        )
        pairs.append((a, shifted))
        for a, b in pairs:
            E1, E2 = len(a.edges()), len(b.edges())
            for values in (_SIZES, _WITNESSES) if a.nleaves <= 12 else (_SIZES,):
                blocks = [
                    [row[-E2:] for row in _mast_table(table(a), table(b), *values)[-E1:]]
                    for table in (_unrooted_table, unrooted_table_by_directed_edges)
                ]
                assert blocks[0] == blocks[1], (to_newick(a), to_newick(b))

    def test_one_rooting_of_the_first_tree_equals_the_pair_sweep(self):
        """Rooting t1 once, at its first edge, finds the smallest maximum set
        over all pairs of rootings, and the first pair that reaches it: the
        same size, witness and edge of t2, and t1's first edge.  That pair's
        rooted witness is the same set."""
        pairs = _rooting_pairs()
        assert len(pairs) >= 700
        differ = []
        for a, b in pairs:
            got = _unrooted_best_rooting(a, b)
            size, witness, e1, e2 = unrooted_best_rooting_by_pairs(a, b)
            rooted = mast_rooted(root_at_edge(a, e1), root_at_edge(b, e2)).witness
            if got != (size, witness, e2) or e1 != a.edges()[0] or rooted != witness:
                differ.append((to_newick(a), to_newick(b)))
        assert differ == []

    def test_witness_same_in_both_orders(self):
        """The witness depends only on the two trees: the same in both
        argument orders, for re-parsed copies and for copies with their
        vertex ids shuffled, which list their edges in another order.  So
        is ``agree_general``'s result, which at n <= 64 is that witness."""
        rng = SplitMix64(19)
        differ = []
        for model in ("uniform", "yule"):
            for n in (*range(4, 41), 64):
                a, b = (gen_random(n, RandomModel(model, rng.next_u64())) for _ in "ab")
                want = mast_unrooted(a, b).witness
                for x, y in ((b, a), (_shuffled_ids(b, rng), _shuffled_ids(a, rng)), (parse_newick(to_newick(a)), b)):
                    if mast_unrooted(x, y).witness != want:
                        differ.append((to_newick(a), to_newick(b)))
                if not agree_general(a, b)[0] == agree_general(b, a)[0] == want:
                    differ.append((to_newick(a), to_newick(b), "agree"))
        assert differ == []

    def test_witness_is_the_smallest_maximum_set(self):
        """At n <= 12 the witness is the lexicographically smallest maximum
        agreement set that subset enumeration finds first."""
        rng = SplitMix64(20)
        differ = []
        for model in ("uniform", "yule"):
            for n in range(4, 13):
                for _ in range(4 if n < 11 else 1):  # enumeration takes 0.2-0.5 s a pair there
                    a, b = (gen_random(n, RandomModel(model, rng.next_u64())) for _ in "ab")
                    if mast_unrooted(a, b).witness != frozenset(smallest_agreement_unrooted(a, b)):
                        differ.append((to_newick(a), to_newick(b)))
        assert differ == []

    def test_parsed_inputs_walk_nothing(self, monkeypatch):
        """The rootings of parsed trees carry the indexes they are built
        from, which the DP and the certificate read: no ``DfsIndex.walk``."""
        a, b = (parse_newick(to_newick(_random_unrooted(30, seed))) for seed in (40, 41))
        walks = count_calls(monkeypatch, DfsIndex, "walk")
        mast_unrooted(a, b)
        assert walks == []

    def test_one_unrooted_table_per_call(self, monkeypatch):
        """The first tree is only rooted: its unrooted table is never built."""
        built = count_calls(monkeypatch, exactmast, "_unrooted_table", lambda args, out: args[0])
        a, b = _random_unrooted(20, 30), _random_unrooted(20, 31)
        for t1, t2 in ((a, b), (b, a), (a, a)):
            del built[:]
            mast_unrooted(t1, t2)
            assert len(built) == 1 and built[0] is t2

    def test_caterpillar_vs_balanced_at_most_logarithmic(self):
        for m in (2, 3, 4):
            n = 2**m
            cat = gen_caterpillar(n)
            bal = gen_class_b(m)
            assert mast_unrooted(cat, bal).size <= 2 * m + 1


def _shuffled_ids(t: UnrootedTree, rng) -> UnrootedTree:
    """A copy of t with its vertex ids permuted, so ``edges()`` lists its
    edges in another order."""
    ids = list(t.adj)
    rng.shuffle(ids)
    new = dict(zip(t.adj, ids))
    return UnrootedTree(
        {new[v]: [new[w] for w in ns] for v, ns in t.adj.items()},
        {new[v]: x for v, x in t.leaf_label.items()},
    )


def _rooting_pairs() -> list:
    """Seeded unrooted pairs: uniform and Yule pairs (n = 3 … 40 and 64),
    their canonical re-parses, copies with shuffled vertex ids, caterpillars
    against uniform trees in both orders, class B and C trees, swap pairs
    k <= 3 and pairs sharing only part of their leaves."""
    rng = SplitMix64(18)
    pairs = []
    for model in ("uniform", "yule"):
        for n in list(range(3, 41)) + [64]:
            for _ in range(3):
                a, b = (gen_random(n, RandomModel(model, rng.next_u64())) for _ in "ab")
                pairs += [(a, b), (parse_newick(to_newick(b)), parse_newick(to_newick(a)))]
            pairs += [(_shuffled_ids(a, rng), b), (a, _shuffled_ids(b, rng))]
    for n in range(3, 41):
        cat, uni = gen_caterpillar(n), _random_unrooted(n, rng.next_u64())
        pairs += [(cat, uni), (uni, cat)]
    for t in [gen_class_b(m) for m in range(2, 6)] + [gen_class_c(m) for m in range(1, 5)]:
        n, labels = t.nleaves, sorted(t.leaves)
        rng.shuffle(labels)
        other = relabel(t, dict(zip(sorted(t.leaves), labels)))
        pairs += [(t, other), (t, _random_unrooted(n, rng.next_u64())), (gen_caterpillar(n), t)]
    for k in (1, 2, 3):
        a, b = gen_swap_pair(k, rooted=False)
        pairs += [(a, b), (b, a)]
    for n in range(6, 31, 2):
        a = _random_unrooted(n, rng.next_u64())
        b = relabel(_random_unrooted(n, rng.next_u64()), {i: i + n // 3 for i in range(1, n + 1)})
        pairs += [(a, b), (b, a)]
    return pairs


def _label_variants(a, b, rng) -> list:
    """The pair with its labels as generated (1..n), shifted by 10**9,
    spread sparsely, and with one label of each tree that the other lacks
    (b's largest label moved above every label of a)."""
    labels = sorted(a.leaves | b.leaves)
    shifted = {x: x + 10**9 for x in labels}
    sparse = {x: 7 * x + rng.randrange(7) for x in labels}
    top = max(b.leaves)
    moved = {x: x for x in b.leaves} | {top: max(labels) + 1}
    return [
        (a, b),
        (relabel(a, shifted), relabel(b, shifted)),
        (relabel(a, sparse), relabel(b, sparse)),
        (a, relabel(b, moved)),
    ]


def _kernel_pairs(rooted: bool) -> list:
    """Seeded pairs of one kind, n = 3 … 64: uniform and Yule pairs,
    caterpillars against uniform trees in both orders, balanced trees
    against a uniform tree and against a relabelled copy, and swap pairs
    k <= 3 in both orders; each in every label variant."""
    rng = SplitMix64(30)
    pairs = []
    for model in ("uniform", "yule"):
        for n in list(range(3, 17)) + [24, 40, 64]:
            pairs.append(tuple(gen_random(n, RandomModel(model, rng.next_u64()), rooted) for _ in "ab"))
    for n in (3, 5, 9, 17, 33, 64):
        cat, uni = gen_caterpillar(n, rooted), gen_random(n, RandomModel("uniform", rng.next_u64()), rooted)
        pairs += [(cat, uni), (uni, cat)]
    for m in range(2, 7):
        t = gen_balanced(m) if rooted else gen_class_b(m)
        labels = sorted(t.leaves)
        rng.shuffle(labels)
        pairs.append((t, relabel(t, dict(zip(sorted(t.leaves), labels)))))
        pairs.append((t, gen_random(t.nleaves, RandomModel("uniform", rng.next_u64()), rooted)))
    for k in (1, 2, 3):
        a, b = gen_swap_pair(k, rooted)
        pairs += [(a, b), (b, a)]
    return [variant for a, b in pairs for variant in _label_variants(a, b, rng)]


class TestPackedKernel:
    """One table of ``size << N | mask`` values gives the size and the
    witness that the reference DP (``oracles._mast_table``) gives with its
    two value types, and keeps only the rows a parent still needs."""

    def test_rooted_equals_reference(self):
        differ = []
        for a, b in _kernel_pairs(rooted=True):
            res = mast_rooted(a, b)
            if (res.size, res.witness) != mast_rooted_reference(a, b):
                differ.append((to_newick(a), to_newick(b)))
        assert differ == []

    def test_unrooted_equals_reference_in_both_orders(self):
        """Same size and witness as the reference witness DP, the smallest
        maximum set over every rooting of t2, in both argument orders."""
        differ = []
        for a, b in _kernel_pairs(rooted=False):
            want = [mast_unrooted_reference(a, b), mast_unrooted_reference(b, a)]
            got = [mast_unrooted(a, b), mast_unrooted(b, a)]
            if [(r.size, r.witness) for r in got] != want:
                differ.append((to_newick(a), to_newick(b)))
        assert differ == []

    @pytest.mark.parametrize("first", ["caterpillar", "uniform"])
    @pytest.mark.parametrize("rooted", [True, False], ids=["rooted", "unrooted"])
    def test_live_rows_at_most_log_n_plus_two(self, monkeypatch, first, rooted):
        """Each row is dropped once its parent's row is built, and the
        larger child is visited first: at most floor(log2 n) + 2 rows are
        alive, the one being built included, on a caterpillar first tree
        (the deepest) and on a uniform one."""
        alive, most = [0], [0]

        class Row(list):  # a list that can be weakly referenced
            pass

        def freed():
            alive[0] -= 1

        def counted(build):
            def row(*args):
                out = Row(build(*args))
                alive[0] += 1
                most[0] = max(most[0], alive[0])
                weakref.finalize(out, freed)
                return out

            return row

        for name in ("_leaf_row", "_node_row"):
            monkeypatch.setattr(exactmast, name, counted(getattr(exactmast, name)))
        n = 128
        a = gen_caterpillar(n, rooted) if first == "caterpillar" else gen_random(n, RandomModel("uniform", 1), rooted)
        b = gen_random(n, RandomModel("uniform", 2), rooted)
        (mast_rooted if rooted else mast_unrooted)(a, b)
        assert 2 <= most[0] <= math.floor(math.log2(n)) + 2

    @pytest.mark.parametrize("first", ["caterpillar", "uniform"])
    @pytest.mark.parametrize("rooted", [True, False], ids=["rooted", "unrooted"])
    def test_peak_memory_of_live_rows(self, first, rooted):
        """The traced peak of a 128-leaf MAST fits floor(log2 n) + 2 rows
        of fresh (n + 8)-bit ints, one per column of the second tree's
        table; keeping all 2n - 1 rows takes about ten times that."""
        n = 128
        a = gen_caterpillar(n, rooted) if first == "caterpillar" else gen_random(n, RandomModel("uniform", 1), rooted)
        b = gen_random(n, RandomModel("uniform", 2), rooted)
        columns = len((exactmast._rooted_table if rooted else _unrooted_table)(b)[0])
        budget = (math.floor(math.log2(n)) + 2) * columns * (sys.getsizeof(1 << n + 8) + 8)
        a.dfs(), b.dfs()
        tracemalloc.start()
        try:
            (mast_rooted if rooted else mast_unrooted)(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget


class TestBruteforce:
    def test_disjoint(self):
        a = parse_newick("(1,2);")
        b = parse_newick("(3,4);")
        assert mast_bruteforce(a, b) == 0

    def test_single_common(self):
        a = parse_newick("(1,2);")
        b = parse_newick("(2,3);")
        assert mast_bruteforce(a, b) == 1

    def test_conflicting_quartets(self):
        a = parse_newick("((1,2),3,4);")
        b = parse_newick("((1,3),2,4);")
        assert mast_bruteforce(a, b) == 3

    def test_guard(self):
        a = _random_rooted(13, 1)
        b = _random_rooted(13, 2)
        with pytest.raises(ValueError, match="guard"):
            mast_bruteforce(a, b)


class TestFloor:
    def test_three_unrooted(self):
        assert mast_floor(3) == 3

    def test_three_rooted(self):
        assert mast_floor(3, rooted=True) == 2

    def test_four_unrooted(self):
        assert mast_floor(4) == 3

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            mast_floor(7)
