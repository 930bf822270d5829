import pytest
from hypothesis import given, strategies as st

from agreetree._rng import SplitMix64
from agreetree import exactmast, treecore
from agreetree.exactmast import mast_rooted
from agreetree.generators import (
    RandomModel,
    enumerate_topologies,
    gen_balanced,
    gen_caterpillar,
    gen_random,
    gen_swap_pair,
    relabel,
)
from agreetree.matchers import match1, match2
from agreetree.treecore import (
    DfsIndex,
    RootedTree,
    TreeError,
    UnrootedTree,
    parse_newick,
    root_at_leaf_edge,
    to_newick,
    unroot,
)
from agreetree.treeops import (
    AgreementError,
    is_isomorphic,
    is_subtree,
    join,
    lca,
    restrict,
    verify_agreement,
)

from oracles import (
    clusters,
    count_calls,
    iso_rooted_search,
    iso_unrooted_search,
    lca_by_postorder,
    lines_run,
    restrict_rooted_by_postorder,
    restrict_unrooted_by_paths,
    root_at_edge_by_branches,
    splits,
    unrooted_index_by_adjacency,
)


class TestLca:
    def test_single_leaf(self):
        t = gen_balanced(2)
        assert lca(t, {3}).label == 3

    def test_cherry_side(self):
        t = parse_newick("((1,2),(3,4));")
        assert lca(t, {1, 2}) is t.left

    def test_across_root(self):
        t = parse_newick("((1,2),(3,4));")
        assert lca(t, {1, 3}) is t

    def test_missing_label(self):
        with pytest.raises(TreeError):
            lca(gen_balanced(2), {9})

    @pytest.mark.parametrize("model", ["uniform", "yule"])
    def test_matches_postorder_count(self, model):
        """The descent over DFS positions finds the node that the first
        full count in postorder finds, for random X of every size."""
        rng = SplitMix64(11)
        for n in range(1, 60):
            t = gen_random(n, RandomModel(model, rng.next_u64()), rooted=True)
            labels = sorted(t.leaves)
            for _ in range(5):
                rng.shuffle(labels)
                X = labels[: 1 + rng.randrange(n)]
                assert lca(t, X) is lca_by_postorder(t, frozenset(X)), (n, X)


def _repeating_one():
    leaf, branch = RootedTree.leaf, RootedTree.branch
    return branch(branch(leaf(1), leaf(2)), branch(leaf(3), leaf(1)))


class TestRepeatedLabel:
    """``RootedTree.branch`` lets a hand-built tree repeat a label.  Every
    reader of the DFS positions names it; the writer does not need them,
    and ``relabel`` keeps its own message."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: restrict(t, {1, 2}),
            lambda t: verify_agreement(t, t, {1, 2}),
            lambda t: mast_rooted(t, t),
            lambda t: match1(t, t, 0.3),
            lambda t: match2(t, t, 0.2),
            lambda t: lca(t, {2, 3}),
        ],
        ids=["restrict", "verify_agreement", "mast_rooted", "match1", "match2", "lca"],
    )
    def test_named_as_duplicate(self, call):
        with pytest.raises(TreeError, match="^duplicate leaf label 1$"):
            call(_repeating_one())

    def test_mast_rooted_names_it_before_the_table(self, monkeypatch):
        """The exact DP reads the DFS positions first, so a repeated label
        fails before any row of the quadratic table is filled."""

        def row(*args):
            raise AssertionError("a row was filled")

        monkeypatch.setattr(exactmast, "_leaf_row", row)
        monkeypatch.setattr(exactmast, "_node_row", row)
        with pytest.raises(TreeError, match="^duplicate leaf label 1$"):
            mast_rooted(_repeating_one(), _repeating_one())

    def test_text_still_written(self):
        t = _repeating_one()
        assert to_newick(t) == "((1,2),(1,3));"
        assert repr(t) == "<RootedTree '((1,2),(1,3));'>"
        with pytest.raises(TreeError, match="^relabel mapping is not injective on the leaves$"):
            relabel(t, {1: 1, 2: 2, 3: 3})


class TestRestrict:
    def test_identity(self):
        t = gen_random(12, RandomModel("uniform", 3), rooted=True)
        assert is_isomorphic(restrict(t, t.leaves), t)

    def test_suppresses_degree_two(self):
        t = parse_newick("((1,2),(3,4));")
        assert to_newick(restrict(t, {1, 3, 4})) == "(1,(3,4));"

    def test_rooted_at_mrca(self):
        t = parse_newick("((1,2),(3,4));")
        assert to_newick(restrict(t, {3, 4})) == "(3,4);"

    def test_not_subset(self):
        with pytest.raises(TreeError):
            restrict(gen_balanced(2), {1, 99})

    def test_unrooted_too_small(self):
        with pytest.raises(TreeError):
            restrict(parse_newick("(1,2,3);"), {1, 2})

    @given(st.integers(0, 2**63), st.integers(7, 24))
    def test_unrooted_equals_path_union_oracle(self, seed, n):
        t = gen_random(n, RandomModel("uniform", seed))
        rng_labels = sorted(t.leaves)[: max(3, n // 3)]
        got = restrict(t, rng_labels)
        want = restrict_unrooted_by_paths(t, rng_labels)
        assert splits(got) == splits(want)

    @pytest.mark.parametrize("kind", ["rooted", "unrooted"])
    def test_walk_is_pruned_to_the_kept_leaves(self, kind):
        """A restriction visits only the nodes spanning the kept leaves and
        the pruned branches next to them, not all 2^15 - 1 nodes: it runs
        at most 16 lines of ``treecore`` and ``treeops`` per node on the
        kept leaves' paths (about 8), where a walk over every node runs
        over 30,000."""
        import agreetree.treeops as treeops

        t = gen_balanced(14) if kind == "rooted" else unroot(gen_balanced(14))
        t.dfs().pos  # the label positions, built once per tree on first use
        X = {1, 1000, 2047, 5000, 8193, 12000, 15001, 16384}
        got, lines = lines_run(lambda: restrict(t, X), treecore, treeops)
        assert lines <= 16 * len(X) * 15, lines
        if kind == "rooted":
            assert to_newick(got) == to_newick(restrict_rooted_by_postorder(t, X))
        else:
            assert splits(got) == splits(restrict_unrooted_by_paths(t, X))

    def test_deep_caterpillar_restriction_bisects_per_kept_leaf(self, monkeypatch):
        """Restricting a 4,096-leaf caterpillar to 38 labels, the size of
        the set ``agree``'s path branch restricts ``deep``'s caterpillar to,
        bisects at most once per kept leaf and twice more: 39 times, where
        the walk that bisected at every spine node it passed ran 4,020."""
        t = gen_caterpillar(4096)
        labels = list(range(1, 4097))
        SplitMix64(38).shuffle(labels)
        X = labels[:38]
        t.dfs().pos  # the label positions, built once per tree on first use
        bisects = count_calls(monkeypatch, treecore, "bisect_left")
        got = restrict(t, X)
        assert len(bisects) <= len(X) + 2, len(bisects)
        assert splits(got) == splits(restrict_unrooted_by_paths(t, X))

    def test_unrooted_keeps_the_index_it_is_unrooted_from(self):
        """An unrooted restriction keeps the index of the rooted restriction
        ``unroot`` reads: field by field the walk over a hand-built copy,
        which the constructor renumbers to the same ids, and vertex v at
        node v + 1."""
        rng = SplitMix64(19)
        trees = [
            gen_random(n, RandomModel(model, rng.next_u64()))
            for model in ("uniform", "yule")
            for n in (3, 4, 9, 30, 64)
        ]
        trees += [gen_caterpillar(20), unroot(gen_balanced(5))]
        trees += [parse_newick(to_newick(t)) for t in trees]
        for t in trees:
            labels = sorted(t.leaves)
            for size in sorted({3, len(labels) // 2 + 2, len(labels)}):
                rng.shuffle(labels)
                r = restrict(t, labels[:size])
                assert r._dfs is not None
                copy = UnrootedTree(r.adj, r.leaf_label)
                walked = DfsIndex.walk(copy)
                assert (copy.adj, copy.leaf_label) == (r.adj, r.leaf_label), to_newick(r)
                for name in ("label", "nleaves", "first", "order"):
                    assert getattr(r._dfs, name) == getattr(walked, name), (name, to_newick(r))
                assert unrooted_index_by_adjacency(r)["vertex"] == [None, *range(len(r.adj))]

    def test_unrooted_written_without_a_second_walk(self, monkeypatch):
        """Writing an unrooted restriction of a parsed tree walks nothing:
        the restriction's index is written from the tree's (the rooted
        restriction that ``unroot`` read was walked while it was built as
        nodes)."""
        t = parse_newick(to_newick(gen_random(128, RandomModel("uniform", 5))))
        X = sorted(t.leaves)[::2]
        want = to_newick(restrict_unrooted_by_paths(t, X))
        walks = count_calls(monkeypatch, DfsIndex, "walk", lambda args, out: type(args[0]))
        assert to_newick(restrict(t, X)) == want
        assert walks == []

    def test_unrooted_builds_no_nodes(self, monkeypatch):
        """On parsed unrooted trees ``restrict``, ``root_at_leaf_edge(t,
        keep)`` and ``verify_agreement`` walk nothing and build no
        ``RootedTree`` and no adjacency: a restriction's index is written
        from the tree's and rooted from its own, and ``verify_agreement``
        writes the index alone (no ``_unroot_index``)."""
        t1 = parse_newick(to_newick(gen_random(300, RandomModel("uniform", 1))))
        t2 = parse_newick(to_newick(gen_random(300, RandomModel("yule", 2))))
        X = sorted(t1.leaves)[::7]
        walks = count_calls(monkeypatch, DfsIndex, "walk")
        nodes = count_calls(monkeypatch, RootedTree, "__init__")
        adjacencies = count_calls(monkeypatch, treecore, "_adjacency")
        restricted = [restrict(t1, X), restrict(t2, X[:3])]
        shapes = [to_newick(r) for r in restricted]
        rooted = [to_newick(root_at_leaf_edge(t, X)) for t in (t1, t2)]
        rooted += [to_newick(root_at_leaf_edge(r, X[:3])) for r in restricted]
        unroots = count_calls(monkeypatch, treecore, "_unroot_index")
        assert shapes == [verify_agreement(t1, t1, X).restricted_shape, verify_agreement(t1, t2, X[:3]).restricted_shape]
        with pytest.raises(AgreementError):
            verify_agreement(t1, t2, X)
        assert (walks, nodes, unroots, adjacencies) == ([], [], [], [])
        assert rooted == [to_newick(root_at_edge_by_branches(t, (0, 1), keep)) for t, keep in (
            (t1, X), (t2, X), (restricted[0], X[:3]), (restricted[1], X[:3]))]

    @given(st.integers(0, 2**63))
    def test_restriction_composes(self, seed):
        t = gen_random(20, RandomModel("uniform", seed), rooted=True)
        X = sorted(t.leaves)[:12]
        Y = X[:5]
        assert is_isomorphic(restrict(restrict(t, X), Y), restrict(t, Y))


class TestJoin:
    def test_two_leaves(self):
        s = join(RootedTree.leaf(1), RootedTree.leaf(2))
        assert to_newick(s) == "(1,2);"

    def test_balanced_join(self):
        s = join(parse_newick("(1,2);"), parse_newick("(3,4);"))
        assert to_newick(s) == "((1,2),(3,4));"

    def test_overlap_rejected(self):
        with pytest.raises(TreeError, match=r"joined trees share leaves \[2\]"):
            join(parse_newick("(1,2);"), parse_newick("(2,3);"))

    def test_reads_the_kept_indexes(self, monkeypatch):
        """The disjointness check reads the DFS index each side keeps, which
        ``restrict`` wrote: no build (one per side while ``restrict`` built
        bare nodes, two while the check read ``.leaves``)."""
        t = gen_random(80, RandomModel("yule", 5), rooted=True)
        left, right = restrict(t, range(1, 41)), restrict(t, range(41, 81))
        built = count_calls(monkeypatch, treecore.DfsIndex, "__init__")
        join(left, right)
        join(left, right)
        assert built == [] and left._dfs is not None and right._dfs is not None

    @given(st.integers(0, 2**63))
    def test_join_of_subtrees_is_subtree(self, seed):
        t = gen_random(16, RandomModel("uniform", seed), rooted=True)
        if t.left.nleaves < 2 or t.right.nleaves < 2:
            return
        xl = sorted(t.left.leaves)[:2]
        xr = sorted(t.right.leaves)[:2]
        s = join(restrict(t.left, xl), restrict(t.right, xr))
        assert is_subtree(s, t)


class TestClustersSplits:
    def test_cherry_clusters(self):
        assert clusters(parse_newick("(1,2);")) == {
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        }

    def test_three_leaf_clusters(self):
        got = clusters(parse_newick("((1,2),3);"))
        assert frozenset({1, 2}) in got and frozenset({1, 2, 3}) in got
        assert len(got) == 5

    def test_cluster_count(self):
        t = gen_random(17, RandomModel("uniform", 4), rooted=True)
        assert len(clusters(t)) == 2 * 17 - 1

    def test_star_splits(self):
        assert len(splits(parse_newick("(1,2,3);"))) == 3

    def test_quartet_split(self):
        got = splits(parse_newick("((1,2),3,4);"))
        assert frozenset({frozenset({1, 2}), frozenset({3, 4})}) in got

    def test_split_count(self):
        t = gen_random(16, RandomModel("uniform", 9))
        assert len(splits(t)) == 16 + (16 - 3)


class TestIsomorphism:
    def test_child_order_ignored(self):
        assert is_isomorphic(parse_newick("((1,2),3);"), parse_newick("(3,(2,1));"))

    def test_different_quartets(self):
        assert not is_isomorphic(parse_newick("((1,2),3,4);"), parse_newick("((1,3),2,4);"))

    def test_distinct_leafsets(self):
        assert not is_isomorphic(parse_newick("(1,2);"), parse_newick("(1,3);"))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TreeError):
            is_isomorphic(parse_newick("(1,2);"), parse_newick("(1,2,3);"))

    def test_agrees_with_search_unrooted(self):
        for n in (4, 5, 6):
            tops = list(enumerate_topologies(n))
            for i, a in enumerate(tops):
                for b in tops[i:]:
                    assert is_isomorphic(a, b) == iso_unrooted_search(a, b)

    def test_agrees_with_search_rooted(self):
        for n in (3, 4, 5):
            tops = list(enumerate_topologies(n, rooted=True))
            for i, a in enumerate(tops):
                for b in tops[i:]:
                    assert is_isomorphic(a, b) == iso_rooted_search(a, b)

    @given(st.integers(0, 2**63))
    def test_mutual_subtree_iff_isomorphic(self, seed):
        a = gen_random(8, RandomModel("uniform", seed), rooted=True)
        b = gen_random(8, RandomModel("uniform", seed + 1), rooted=True)
        both = is_subtree(a, b) and is_subtree(b, a)
        assert both == is_isomorphic(a, b)


class TestIsSubtree:
    def test_restriction_is_subtree(self):
        t = gen_random(14, RandomModel("uniform", 2), rooted=True)
        X = sorted(t.leaves)[:6]
        assert is_subtree(restrict(t, X), t)

    def test_single_leaf(self):
        t = gen_balanced(3)
        assert is_subtree(RootedTree.leaf(5), t)

    def test_wrong_quartet(self):
        host = parse_newick("((1,3),2,4);")
        assert not is_subtree(parse_newick("((1,2),3,4);"), host)

    def test_builds_no_throwaway_index(self, monkeypatch):
        """The leaf-subset check reads the DFS indexes of s and t, which
        ``restrict`` and ``to_newick`` reuse: 1 ``DfsIndex`` build, the
        restriction's, as s carries the index ``restrict`` wrote and the
        parsed t the one its parse wrote (2 while s's nodes were walked, 3
        while t's were too, 6 while the check read ``.leaves``)."""
        text = to_newick(gen_random(200, RandomModel("yule", 3), rooted=True))
        t = parse_newick(text)
        s = restrict(parse_newick(text), sorted(t.leaves)[::3][:59])
        built = count_calls(monkeypatch, treecore.DfsIndex, "__init__")
        assert is_subtree(s, t)
        assert len(built) == 1


class TestVerifyAgreement:
    def test_single_common_leaf(self):
        t1 = gen_balanced(2)
        t2 = parse_newick("((1,3),(2,4));")
        cert = verify_agreement(t1, t2, {1})
        assert cert.restricted_shape == "1;"

    def test_matcher_style_output(self):
        t1, t2 = gen_swap_pair(1)
        cert = verify_agreement(t1, t2, {1, 4})
        assert cert.leaves == {1, 4}

    def test_swap_pair_full_set_fails(self):
        t1, t2 = gen_swap_pair(1)
        with pytest.raises(AgreementError) as err:
            verify_agreement(t1, t2, {1, 2, 3, 4})
        assert str(err.value) == (
            "restrictions to [1, 2, 3, 4] differ: ((1,2),(3,4)); vs ((1,3),(2,4));"
        )

    def test_unrooted_quartets_differ(self):
        t1, t2 = parse_newick("((1,2),3,4);"), parse_newick("((1,3),2,4);")
        with pytest.raises(AgreementError) as err:
            verify_agreement(t1, t2, {1, 2, 3, 4})
        assert str(err.value) == (
            "restrictions to [1, 2, 3, 4] differ: (1,2,(3,4)); vs (1,(2,4),3);"
        )

    def test_unrooted_trivial_pair(self):
        u1, u2 = gen_swap_pair(1, rooted=False)
        cert = verify_agreement(u1, u2, {1, 2})
        assert cert.restricted_shape == "(1,2);"

    def test_label_not_shared(self):
        with pytest.raises(TreeError):
            verify_agreement(gen_balanced(1), gen_balanced(2), {3})
