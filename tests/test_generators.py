from collections import Counter

import pytest

from agreetree import treecore
from agreetree._rng import SplitMix64
from agreetree.bounds import f_closed
from agreetree.treeops import max_balanced_height
from agreetree.generators import (
    RandomModel,
    enumerate_topologies,
    gen_balanced,
    gen_caterpillar,
    gen_class_c,
    gen_extremal_fhk,
    gen_random,
    gen_swap_pair,
    relabel,
    swap_sequence,
)
from agreetree.generators import _uniform_unrooted
from agreetree.treecore import (
    CLASS_C,
    ROOTED_BALANCED,
    DfsIndex,
    RootedTree,
    TreeError,
    UnrootedTree,
    center,
    classify_balanced,
    diameter_path,
    is_caterpillar,
    parse_newick,
    to_newick,
    unroot,
)

from oracles import (
    PerDrawSplitMix64,
    balanced_by_rebuild,
    caterpillar_by_adjacency,
    caterpillar_rooted_by_rebuild,
    class_c_by_rebuild,
    class_c_by_recursion,
    count_calls,
    ordered_text,
    random_tree_by_nodes,
    uniform_unrooted_by_neighbour_lists,
    unrooted_index_by_adjacency,
)

INDEX_FIELDS = ("label", "nleaves", "first", "order")


def assert_same_index(t, ref, case):
    for name in INDEX_FIELDS:
        assert getattr(t.dfs(), name) == getattr(ref.dfs(), name), (case, name)


class TestFixedShapesEqualRebuild:
    """The fixed shapes write their preorder (and the balanced ones their
    leaf counts); their indexes equal those of the ``rebuild`` forms they
    replaced."""

    def test_balanced(self):
        for m in range(13):
            assert_same_index(gen_balanced(m), balanced_by_rebuild(range(1, 2**m + 1)), m)

    def test_rooted_caterpillar(self):
        for n in range(1, 201):
            assert_same_index(gen_caterpillar(n, rooted=True), caterpillar_rooted_by_rebuild(n), n)

    def test_class_c(self):
        for m in range(1, 9):
            assert_same_index(gen_class_c(m), class_c_by_rebuild(m), m)

    def test_swap_pairs(self):
        for k in range(1, 5):
            t1, t2 = gen_swap_pair(k)
            assert_same_index(t1, balanced_by_rebuild(range(1, 4**k + 1)), k)
            assert_same_index(t2, balanced_by_rebuild(swap_sequence(k)), k)
            u1, u2 = gen_swap_pair(k, rooted=False)
            assert_same_index(u1, unroot(balanced_by_rebuild(range(1, 4**k + 1))), k)
            assert_same_index(u2, unroot(balanced_by_rebuild(swap_sequence(k))), k)


class TestBalanced:
    def test_single_leaf(self):
        assert to_newick(gen_balanced(0)) == "1;"

    def test_m2(self):
        assert to_newick(gen_balanced(2)) == "((1,2),(3,4));"

    def test_child_order(self):
        assert ordered_text(gen_balanced(3)) == "(((1,2),(3,4)),((5,6),(7,8)))"

    def test_contract(self):
        for m in range(0, 13):
            cls = classify_balanced(gen_balanced(m))
            assert cls.kind == ROOTED_BALANCED and cls.m == m

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gen_balanced(-1)
        with pytest.raises(ValueError):
            gen_balanced(21)


class TestCaterpillar:
    def test_three(self):
        assert to_newick(gen_caterpillar(3)) == "(1,2,3);"

    def test_four_spine_order(self):
        from oracles import splits

        got = splits(gen_caterpillar(4))
        assert frozenset({frozenset({1, 2}), frozenset({3, 4})}) in got

    def test_eight_diameter(self):
        # n-2 internal spine vertices: 5 spine edges plus 2 pendant edges
        assert len(diameter_path(gen_caterpillar(8))) - 1 == 7

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_caterpillar(2)

    def test_rooted_child_order(self):
        assert ordered_text(gen_caterpillar(1, rooted=True)) == "1"
        assert ordered_text(gen_caterpillar(5, rooted=True)) == "(1,(2,(3,(4,5))))"

    def test_unrooted_vertex_ids(self):
        """The unrooted caterpillar is ``unroot`` of the rooted one: vertex v
        is node v + 1 of its preorder, and the rooted build's index stays."""
        t = gen_caterpillar(5)
        assert t.adj == {
            0: (1,), 1: (0, 2, 3), 2: (1,), 3: (1, 4, 5),
            4: (3,), 5: (3, 6, 7), 6: (5,), 7: (5,),
        }
        assert t.leaf_label == {0: 1, 2: 2, 4: 3, 6: 4, 7: 5}
        assert t._dfs is not None and unrooted_index_by_adjacency(t)["vertex"] == [None, *range(8)]

    def test_kept_index_equals_a_walk(self):
        """The kept index is the walk of a hand-built copy, which the
        constructor renumbers to the same ids."""
        for n in (3, 4, 5, 17, 64):
            t = gen_caterpillar(n)
            copy = UnrootedTree(t.adj, t.leaf_label)
            walked = DfsIndex.walk(copy)
            assert (copy.adj, copy.leaf_label) == (t.adj, t.leaf_label), n
            for name in ("label", "nleaves", "first", "order"):
                assert getattr(t._dfs, name) == getattr(walked, name), (n, name)

    def test_equals_adjacency_construction(self):
        for n in range(3, 301):
            t, ref = gen_caterpillar(n), caterpillar_by_adjacency(n)
            assert to_newick(t) == to_newick(ref), n
            assert is_caterpillar(t) and is_caterpillar(ref), n

    def test_written_without_walking_the_adjacency(self, monkeypatch):
        """Building and writing the caterpillar walks nothing: the rooted
        build writes its index, which ``unroot`` keeps (the rooted build was
        walked while ``rebuild`` built bare nodes)."""
        want = to_newick(caterpillar_by_adjacency(50))
        walks = count_calls(monkeypatch, DfsIndex, "walk", lambda args, out: type(args[0]))
        assert to_newick(gen_caterpillar(50)) == want
        assert walks == []


class TestClassC:
    def test_equals_recursive_construction(self):
        """Same tree as the recursive walk: canonical text and balance class."""
        for m in range(1, 9):
            t, ref = gen_class_c(m), class_c_by_recursion(m)
            assert to_newick(t) == to_newick(ref), m
            assert classify_balanced(t) == classify_balanced(ref), m
            assert classify_balanced(t).kind == CLASS_C and classify_balanced(t).m == m

    def test_centre_vertex(self):
        """Vertex v is node v + 1 of the rooting at leaf 1: the walk climbs
        from leaf 1 (vertex 0) to B1's root (vertex m - 1) and visits the
        other half of B1, 2^(m-1) - 1 vertices, before the centre."""
        for m in range(1, 9):
            assert center(gen_class_c(m)) == {2 ** (m - 1) + m - 1}, m

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="^class-C trees need m >= 1$"):
            gen_class_c(0)
        with pytest.raises(ValueError, match=r"^class-C m=21 out of range \[1, 20\]$"):
            gen_class_c(21)


class TestRandom:
    def test_rooted_child_order(self):
        """The node structure is copied left child first, as it was built."""
        t = gen_random(9, RandomModel("uniform", 3), rooted=True)
        assert ordered_text(t) == "(((((1,2),(3,4)),5),(7,8)),(6,9))"
        t = gen_random(9, RandomModel("yule", 3), rooted=True)
        assert ordered_text(t) == "((((1,9),7),4),(((2,8),5),(3,6)))"

    def test_three_leaves_unique(self):
        assert to_newick(gen_random(3, RandomModel("uniform", 123))) == "(1,2,3);"

    @pytest.mark.parametrize("kind", ["uniform", "yule"])
    @pytest.mark.parametrize("rooted", [True, False])
    def test_equals_node_reference(self, kind, rooted, monkeypatch):
        """The flat-list models give the index fields, and an unrooted
        tree's adjacency, of the node-object builds they replaced, with no
        node built and no walk."""
        walks = count_calls(monkeypatch, DfsIndex, "walk")
        nodes = count_calls(monkeypatch, RootedTree, "__init__")
        for n in (1, 2, 3, 4, 5, 8, 17, 100, 1000, 5000):
            if n < 3 and not rooted:
                continue
            for seed in (0, 1, 2**64 - 1) if n > 100 else range(6):
                walks.clear()
                nodes.clear()
                t = gen_random(n, RandomModel(kind, seed), rooted=rooted)
                assert walks == [] and len(nodes) == (n == 1), (n, seed)  # a leaf is built as one node
                want = random_tree_by_nodes(n, kind, seed, rooted)
                for name in ("label", "nleaves", "first", "order"):
                    assert getattr(t.dfs(), name) == getattr(want.dfs(), name), (name, n, seed)
                if not rooted:
                    assert (t.adj, t.leaf_label) == (want.adj, want.leaf_label), (n, seed)

    def test_slot_insertion_equals_neighbour_lists(self):
        """The insertion on child slots writes the preorder of the one on
        sorted neighbour lists, from the same draws."""
        cases = [(n, seed) for n in range(3, 201) for seed in range(10)] + [(16384, 0)]
        for n, seed in cases:
            rng, ref = SplitMix64(seed), PerDrawSplitMix64(seed)
            assert _uniform_unrooted(n, rng) == uniform_unrooted_by_neighbour_lists(n, ref), (n, seed)
            assert rng.state == ref.state, (n, seed)

    def test_determinism(self):
        for kind in ("uniform", "yule"):
            m = RandomModel(kind, 42)
            assert to_newick(gen_random(25, m)) == to_newick(gen_random(25, m))
            assert to_newick(gen_random(25, m, rooted=True)) == to_newick(
                gen_random(25, m, rooted=True)
            )

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    def test_seed_outside_64_bits(self, seed):
        """``SplitMix64`` would reduce these mod 2^64 to another seed's tree."""
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\^64\), got {seed}$"):
            RandomModel("uniform", seed)
        assert to_newick(gen_random(12, RandomModel("yule", 2**64 - 1)))

    def test_different_seeds_differ(self):
        a = to_newick(gen_random(20, RandomModel("uniform", 1)))
        b = to_newick(gen_random(20, RandomModel("uniform", 2)))
        assert a != b

    def test_uniform_frequencies_n4(self):
        # 3 topologies; each should appear with frequency 1/3 +- 0.02
        counts = Counter()
        for seed in range(10_000):
            counts[to_newick(gen_random(4, RandomModel("uniform", seed)))] += 1
        assert len(counts) == 3
        for topo, count in counts.items():
            assert abs(count / 10_000 - 1 / 3) < 0.02, (topo, count)

    def test_uniform_frequencies_n4_rooted(self):
        counts = Counter()
        for seed in range(10_000):
            counts[to_newick(gen_random(4, RandomModel("uniform", seed), rooted=True))] += 1
        assert len(counts) == 15
        for topo, count in counts.items():
            assert abs(count / 10_000 - 1 / 15) < 0.02, (topo, count)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            RandomModel("coalescent", 1)


class TestExtremal:
    def test_balanced_cases(self):
        for k in range(0, 6):
            assert classify_balanced(gen_extremal_fhk(k, k)).m == k

    def test_leaf_counts(self):
        assert gen_extremal_fhk(3, 2).nleaves == 7
        assert gen_extremal_fhk(4, 2).nleaves == 11

    def test_leaf_count_matches_f(self):
        for h in range(0, 17):
            for k in range(0, h + 1):
                assert gen_extremal_fhk(h, k).nleaves == f_closed(h, k)

    def test_balanced_restriction_height_is_exactly_k(self):
        for h in range(0, 11):
            for k in range(0, h + 1):
                assert max_balanced_height(gen_extremal_fhk(h, k)) == k

    def test_invalid(self):
        with pytest.raises(ValueError):
            gen_extremal_fhk(2, 3)

    @pytest.mark.parametrize(
        "h, k", [(40, 20), (21, 21), (2**20, 1), (10**30, 5), (10**9, 10**9 // 2), (30, 9)]
    )
    def test_more_than_2_to_the_20_leaves_rejected(self, h, k):
        with pytest.raises(ValueError, match=r"above the cap of 2\^20 leaves"):
            gen_extremal_fhk(h, k)

    def test_cap_spares_single_leaves(self):
        assert gen_extremal_fhk(10**30, 0).nleaves == 1


class TestSwap:
    def test_base(self):
        assert swap_sequence(0) == (1,)

    def test_k1(self):
        assert swap_sequence(1) == (1, 3, 2, 4)

    def test_k2(self):
        assert swap_sequence(2) == (
            1, 3, 2, 4, 9, 11, 10, 12, 5, 7, 6, 8, 13, 15, 14, 16,
        )

    def test_permutation_validity(self):
        for k in range(0, 6):
            seq = swap_sequence(k)
            assert sorted(seq) == list(range(1, 4**k + 1))

    def test_pair_shapes(self):
        t1, t2 = gen_swap_pair(2)
        assert t1.balanced and t2.balanced
        assert t1.height == t2.height == 4
        assert t1.leaves == t2.leaves

    def test_child_order(self):
        t1, t2 = gen_swap_pair(1)
        assert (ordered_text(t1), ordered_text(t2)) == ("((1,2),(3,4))", "((1,3),(2,4))")

    def test_unrooted_pair(self):
        u1, u2 = gen_swap_pair(1, rooted=False)
        assert u1.leaves == u2.leaves == frozenset({1, 2, 3, 4})

    def test_one_adjacency_per_tree(self, monkeypatch):
        """``unroot`` of a rooted build whose first child is not its smallest
        leaf (the second swap tree; a Yule tree whose leaf 1 was split)
        reroots the build's index, walking nothing (it built a first
        adjacency to walk it), and builds no adjacency until ``adj`` is
        read, then one per tree (one per tree at once before)."""
        yule = gen_random(200, RandomModel("yule", 3), rooted=True)
        assert yule.dfs().label[1] is None
        built = count_calls(monkeypatch, treecore, "_adjacency", lambda args, out: args[0])
        walks = count_calls(monkeypatch, DfsIndex, "walk")
        u1, u2 = gen_swap_pair(2, rooted=False)
        assert (built, walks) == ([], [])
        assert to_newick(unroot(yule)) == to_newick(gen_random(200, RandomModel("yule", 3)))
        assert (built, walks) == ([], [])
        for t in (u1, u2, u1, u2):
            assert t.adj is t.adj and t.leaf_label and t.label_vertex
        assert built == [u1._dfs, u2._dfs] and walks == []


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 3), (5, 15), (6, 105), (7, 945)])
    def test_unrooted_counts(self, n, count):
        tops = [to_newick(t) for t in enumerate_topologies(n)]
        assert len(tops) == count
        assert len(set(tops)) == count  # pairwise distinct topologies

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 3), (4, 15), (5, 105), (6, 945)])
    def test_rooted_counts(self, n, count):
        tops = [to_newick(t) for t in enumerate_topologies(n, rooted=True)]
        assert len(tops) == count
        assert len(set(tops)) == count

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            list(enumerate_topologies(8))
        with pytest.raises(ValueError, match="guard"):
            list(enumerate_topologies(7, rooted=True))

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("AGREETREE_GUARDS", "off")
        first = next(enumerate_topologies(8))
        assert first.nleaves == 8

    def test_guard_force_override(self):
        assert next(enumerate_topologies(7, rooted=True, force=True)).nleaves == 7


class TestRelabel:
    def test_rooted(self):
        t = relabel(gen_balanced(1), {1: 5, 2: 9})
        assert t.leaves == {5, 9}

    @pytest.mark.parametrize("text", ["((1,2),3);", "(1,2,3);"])
    def test_not_injective(self, text):
        with pytest.raises(TreeError):
            relabel(parse_newick(text), {1: 5, 2: 5, 3: 6})

    @pytest.mark.parametrize("tree", [gen_balanced(1), gen_caterpillar(3)], ids=["rooted", "unrooted"])
    def test_bool_label_rejected(self, tree):
        with pytest.raises(TreeError, match="^leaf label must be a positive integer, got True$"):
            relabel(tree, {1: True, 2: 5, 3: 6})

    def test_unrooted(self):
        t = relabel(gen_caterpillar(4), {1: 10, 2: 20, 3: 30, 4: 40})
        assert t.leaves == {10, 20, 30, 40}
        assert is_caterpillar(t)

    def test_unrooted_not_injective_message(self):
        with pytest.raises(TreeError, match="^duplicate leaf label 5$"):
            relabel(gen_caterpillar(4), {1: 2, 2: 5, 3: 5, 4: 6})

    @staticmethod
    def _counted(monkeypatch, build):
        """(result, types walked, validations) of ``build()``."""
        walks = count_calls(monkeypatch, DfsIndex, "walk", lambda args, out: type(args[0]))
        checks = count_calls(monkeypatch, UnrootedTree, "_validate")
        return build(), walks, checks

    def test_unrooted_smallest_leaf_kept(self, monkeypatch):
        """With the smallest leaf still on vertex 0, the copy keeps the
        index, labels mapped: nothing is walked (the caterpillar's rooted
        build writes its index) or validated, and no adjacency is built
        until the copy's is read, which equals t's (shared with t's before
        unrooted trees held only their index)."""
        n = 50
        perm = {1: 1, **{x: n + 2 - x for x in range(2, n + 1)}}
        want = to_newick(unroot(relabel(gen_caterpillar(n, rooted=True), perm)))
        built = count_calls(monkeypatch, treecore, "_adjacency")
        text, walks, checks = self._counted(monkeypatch, lambda: to_newick(relabel(gen_caterpillar(n), perm)))
        assert (text, walks, checks, built) == (want, [], [], [])
        t = gen_caterpillar(n)
        copy = relabel(t, perm)
        assert built == [] and copy._dfs.nleaves is t._dfs.nleaves
        assert copy.adj == t.adj and len(built) == 2

    def test_unrooted_smallest_leaf_moved(self, monkeypatch):
        """Otherwise the copy is t's index rerooted at its smallest leaf,
        unvalidated: no walk (one of the copy's adjacency while that was
        how it was renumbered, and one of the rooted build)."""
        n = 50
        perm = {x: n + 1 - x for x in range(1, n + 1)}
        want = to_newick(unroot(relabel(gen_caterpillar(n, rooted=True), perm)))
        t, walks, checks = self._counted(monkeypatch, lambda: relabel(gen_caterpillar(n), perm))
        assert (to_newick(t), walks, checks) == (want, [], [])
        assert t.leaf_label[0] == 1 and t.adj[0] == (1,)
