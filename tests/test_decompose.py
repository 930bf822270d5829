import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agreetree._rng import SplitMix64
import agreetree.treecore as treecore
from agreetree import cli, decompose
from agreetree.bounds import general_bound
from agreetree.decompose import (
    _spine,
    agree_general,
    caterpillar_agree,
    caterpillar_spine_order,
    circular_leaf_order,
    lis,
    max_caterpillar,
    ramsey_split,
)
from agreetree.exactmast import mast_unrooted
from agreetree.generators import (
    RandomModel,
    gen_balanced,
    gen_caterpillar,
    gen_class_b,
    gen_class_c,
    gen_extremal_fhk,
    gen_random,
    relabel,
)
from agreetree.treecore import (
    ROOTED_BALANCED,
    TreeError,
    classify_balanced,
    diameter_path,
    is_caterpillar,
    parse_newick,
    to_newick,
)
from agreetree.treeops import extract_balanced, max_balanced_height, restrict, verify_agreement

from oracles import (
    built_leaves,
    count_calls,
    lis_quadratic,
    max_balanced_height_subsets,
    max_caterpillar_subsets,
)


class TestMaxBalancedHeight:
    def test_balanced(self):
        for m in (0, 1, 4, 7):
            assert max_balanced_height(gen_balanced(m)) == m

    def test_rooted_caterpillar_is_one(self):
        for n in (2, 5, 8):
            assert max_balanced_height(gen_caterpillar(n, rooted=True)) == 1

    def test_extremal_trees(self):
        for h in range(0, 13):
            for k in range(0, h + 1):
                assert max_balanced_height(gen_extremal_fhk(h, k)) == k

    def test_matches_subset_bruteforce(self):
        rng = SplitMix64(11)
        for _ in range(8):
            t = gen_random(6 + rng.randrange(4), RandomModel("uniform", rng.next_u64()), rooted=True)
            assert max_balanced_height(t) == max_balanced_height_subsets(t)


class TestExtractBalanced:
    def test_zero_is_smallest_leaf(self):
        t = gen_random(10, RandomModel("uniform", 2), rooted=True)
        assert extract_balanced(t, 0) == {min(t.leaves)}

    def test_full_height_of_balanced(self):
        t = gen_balanced(4)
        assert extract_balanced(t, 4) == t.leaves

    def test_always_classifies_balanced(self):
        rng = SplitMix64(12)
        for _ in range(20):
            t = gen_random(
                8 + rng.randrange(57), RandomModel("uniform", rng.next_u64()), rooted=True
            )
            k = max_balanced_height(t)
            leaves = extract_balanced(t, k)
            assert len(leaves) == 2**k
            cls = classify_balanced(restrict(t, leaves))
            assert cls.kind == ROOTED_BALANCED and cls.m == k

    def test_too_large(self):
        with pytest.raises(TreeError):
            extract_balanced(gen_balanced(2), 3)

    def test_negative_height(self):
        with pytest.raises(TreeError, match="k=-1"):
            extract_balanced(gen_balanced(2), -1)


class TestPathsAndCaterpillars:
    def test_caterpillar_is_its_own_maximum(self):
        for n in (3, 6, 10):
            assert max_caterpillar(gen_caterpillar(n)) == frozenset(range(1, n + 1))

    def test_class_b_caterpillar_size(self):
        for m in (2, 3, 4):
            assert len(max_caterpillar(gen_class_b(m))) == 2 * m

    def test_matches_subset_bruteforce(self):
        rng = SplitMix64(13)
        for _ in range(8):
            t = gen_random(6 + rng.randrange(4), RandomModel("uniform", rng.next_u64()))
            got = max_caterpillar(t)
            assert is_caterpillar(restrict(t, got))
            assert len(got) == max_caterpillar_subsets(t)

    def test_longest_path_is_diameter(self):
        t = gen_caterpillar(9)
        assert len(diameter_path(t)) - 1 == 8

    def test_spine_read_off_the_index(self):
        """The hanging edges, the maximum caterpillar and the spine order
        equal those read from the adjacency: each internal path vertex's
        neighbour off the path, its side's smallest leaf (``side``), and
        the leaf labels of the path's ends and hanging leaves."""
        rng = SplitMix64(14)
        trees = [gen_random(n, RandomModel(model, rng.next_u64())) for model in ("uniform", "yule") for n in (3, 4, 7, 30, 300)]
        trees += [gen_class_b(5), gen_class_c(4)] + [gen_caterpillar(n) for n in (3, 4, 9)]
        trees += [relabel(gen_caterpillar(40), {x: (7 * x) % 41 for x in range(1, 41)}), parse_newick("(5,(1,2),(3,4));")]
        for t in trees:
            text = to_newick(t)
            d = _spine(t)
            path, hanging = d.path, list(zip(d.path[1:-1], d.hanging))
            onpath = set(path)
            assert hanging == [(v, w) for v in path[1:-1] for w in t.adj[v] if w not in onpath], text
            ends = [t.leaf_label[path[0]], t.leaf_label[path[-1]]]
            assert max_caterpillar(t) == frozenset(ends + [min(t.dfs().side(v, w)) for v, w in hanging]), text
            if is_caterpillar(t):
                spine = [t.leaf_label[path[0]], *(t.leaf_label[w] for _, w in hanging), t.leaf_label[path[-1]]]
                assert sorted(caterpillar_spine_order(t)) == sorted(spine), text
        assert any(w < v for d in map(_spine, trees) for v, w in zip(d.path[1:-1], d.hanging))  # a top vertex's parent hangs


class TestLis:
    def test_increasing(self):
        assert lis([1, 2, 3]) == ([1, 2, 3], "increasing")

    def test_four_elements(self):
        sub, _ = lis([3, 1, 4, 2])
        assert len(sub) == 2 == math.isqrt(4)

    def test_decreasing_preferred_when_longer(self):
        sub, direction = lis([5, 4, 3, 2, 1, 6])
        assert direction == "decreasing" and sub == [5, 4, 3, 2, 1]

    def test_tie_prefers_increasing(self):
        # both directions reach length 2 here
        _, direction = lis([2, 1, 3])
        assert direction == "increasing"

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            lis([1, 1, 2])

    @given(st.permutations(list(range(1, 41))))
    @settings(max_examples=60)
    def test_matches_quadratic_dp_and_sqrt_bound(self, perm):
        sub, _ = lis(perm)
        assert len(sub) == lis_quadratic(perm)
        assert len(sub) >= math.ceil(math.sqrt(len(perm)))
        # it really is a monotone subsequence of perm
        pos = {v: i for i, v in enumerate(perm)}
        assert all(pos[a] < pos[b] for a, b in zip(sub, sub[1:]))


class TestRamseySplit:
    def test_balanced_input(self):
        out = ramsey_split(gen_balanced(4))
        assert out.kind == "balanced" and out.height == 4
        assert out.meets_threshold()

    def test_caterpillar_input(self):
        out = ramsey_split(gen_caterpillar(16))
        assert out.meets_threshold()

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            ramsey_split(gen_balanced(3), 1.5)

    def test_random_sweep(self):
        rng = SplitMix64(14)
        for _ in range(40):
            n = 4 + rng.randrange(500)
            t = gen_random(n, RandomModel("uniform", rng.next_u64()))
            out = ramsey_split(t)
            assert out.meets_threshold(), (n, out.as_dict())

    def test_adversarial_extremal_trees(self):
        for h, k in ((6, 2), (8, 3), (10, 2), (12, 4)):
            out = ramsey_split(gen_extremal_fhk(h, k))
            assert out.meets_threshold(), (h, k, out.as_dict())


class TestCaterpillarAgree:
    def test_identical(self):
        t = gen_caterpillar(32)
        assert caterpillar_agree(t, t) == t.leaves

    def test_spine_order(self):
        assert caterpillar_spine_order(gen_caterpillar(6)) == [1, 2, 3, 4, 5, 6]

    def test_circular_order_has_all_leaves(self):
        t = gen_random(20, RandomModel("uniform", 5))
        order = circular_leaf_order(t)
        assert sorted(order) == sorted(t.leaves)
        assert order[0] == min(t.leaves)
        # The order is the leaf order of the canonical Newick text.
        rng = SplitMix64(16)
        samples = [gen_caterpillar(30), gen_class_c(4)] + [
            gen_random(3 + rng.randrange(60), RandomModel("uniform", rng.next_u64()))
            for _ in range(400)
        ]
        for t in samples:
            text = to_newick(t)
            assert circular_leaf_order(t) == [int(x) for x in re.findall(r"\d+", text)], text

    def test_circular_order_reads_the_index(self, monkeypatch):
        """``circular_leaf_order`` walks the index in the order the
        writer's swap flags give, writing no Newick tokens, and lists the
        labels of the canonical text, shifted labels too."""
        rng = SplitMix64(29)
        samples = [gen_caterpillar(40), gen_class_c(4), relabel(gen_caterpillar(9), {x: x + 10**9 for x in range(1, 10)})]
        samples += [gen_random(3 + rng.randrange(80), RandomModel(model, rng.next_u64())) for model in ("uniform", "yule")]
        texts = [to_newick(t) for t in samples]
        tokens = count_calls(monkeypatch, treecore, "_newick_tokens")
        for t, text in zip(samples, texts):
            assert circular_leaf_order(t) == [int(x) for x in re.findall(r"\d+", text)], text
        assert tokens == []

    def test_vs_balanced(self):
        got = caterpillar_agree(gen_caterpillar(16), gen_class_b(4))
        assert len(got) >= 2  # ceil(log2(16) / 3)
        exact = mast_unrooted(gen_caterpillar(16), gen_class_b(4)).size
        assert len(got) <= exact

    def test_random_second_tree(self):
        rng = SplitMix64(15)
        for n in (8, 32, 128):
            t1 = gen_caterpillar(n)
            for _ in range(10):
                t2 = gen_random(n, RandomModel("uniform", rng.next_u64()))
                got = caterpillar_agree(t1, t2)
                assert len(got) >= max(1, math.log2(n) / 3) - 1e-9
                verify_agreement(t1, t2, got)

    def test_not_caterpillar_rejected(self):
        t = gen_class_b(3)
        with pytest.raises(TreeError):
            caterpillar_agree(t, t)


class TestAgreeGeneral:
    def test_identical(self):
        t = gen_random(24, RandomModel("uniform", 44))
        leaves, report = agree_general(t, t)
        assert leaves == t.leaves
        assert report.satisfied

    def test_caterpillar_vs_balanced(self):
        for m in (3, 4, 5):
            n = 2**m
            t1 = gen_caterpillar(n)
            t2 = gen_class_b(m)
            leaves, report = agree_general(t1, t2)
            assert report.satisfied
            exact = mast_unrooted(t1, t2).size
            assert len(leaves) <= exact
            verify_agreement(t1, t2, leaves)

    def test_random_pairs(self):
        rng = SplitMix64(16)
        for n in (8, 64, 200):
            for _ in range(5):
                t1 = gen_random(n, RandomModel("uniform", rng.next_u64()))
                t2 = gen_random(n, RandomModel("uniform", rng.next_u64()))
                leaves, report = agree_general(t1, t2)
                assert report.satisfied
                assert len(leaves) >= max(1, general_bound(n)) - 1e-9
                verify_agreement(t1, t2, leaves)

    def test_small_n_uses_exact(self):
        t1 = gen_random(10, RandomModel("uniform", 91))
        t2 = gen_random(10, RandomModel("uniform", 92))
        leaves, _ = agree_general(t1, t2)
        assert len(leaves) == mast_unrooted(t1, t2).size

    def test_leafset_mismatch(self):
        with pytest.raises(TreeError):
            agree_general(gen_caterpillar(4), gen_caterpillar(5))

    @pytest.mark.parametrize("n", [40, 300])
    def test_parsed_inputs_walk_nothing(self, n, monkeypatch):
        """On parsed unrooted inputs the pipeline, its exact attempt (n <=
        64) and its certificate read the indexes that the parse, the
        rootings and the restrictions wrote: no ``DfsIndex.walk``, and no
        adjacency is built (the exact attempt built both inputs', and the
        balanced branch that of ``restrict(second, A)``, to root it)."""
        t1 = parse_newick(to_newick(gen_random(n, RandomModel("uniform", 1))))
        t2 = parse_newick(to_newick(gen_random(n, RandomModel("yule", 2))))
        walks = count_calls(monkeypatch, treecore.DfsIndex, "walk")
        adjacencies = count_calls(monkeypatch, treecore, "_adjacency", lambda args, out: len(out[1]))
        agree_general(t1, t2)
        assert (walks, adjacencies) == ([], [])

    def test_deep_ops_build_no_adjacency(self, monkeypatch, tmp_path, capsys):
        """The benchmark's ``deep`` agree and decompose ops take the path
        branch on the index: no adjacency (4,096 + 122 leaves per agree and
        4,096 for decompose while the diameter climbed ``t.adj``)."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import SIZES, build_deep

        ops = [op for op in build_deep(0, SIZES["full"], str(tmp_path)) if op.command in ("agree", "decompose")]
        capsys.readouterr()
        adjacencies = count_calls(monkeypatch, treecore, "_adjacency", lambda args, out: len(out[1]))
        outputs = []
        for op in ops:
            assert cli.main(op.argv) == 0
            outputs.append(capsys.readouterr().out)
        assert len(ops) == 3 and adjacencies == []
        for op, out in zip(ops, outputs):
            op.check(out)

    def test_deep_agree_walks_each_spine_once(self, monkeypatch, tmp_path, capsys):
        """A ``deep`` agree op finds the hanging edges of two spines: the
        4,096-leaf caterpillar's, kept with its ``Diameter`` from
        ``max_caterpillar`` for ``caterpillar_spine_order``, and that of
        the restriction to about 120 leaves (3 while each caller walked
        the spine)."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import SIZES, build_deep

        ops = [op for op in build_deep(0, SIZES["full"], str(tmp_path)) if op.command == "agree"]
        capsys.readouterr()
        walks = count_calls(monkeypatch, decompose, "_hanging", lambda args, out: (len(args[1]) + 1) // 2)
        per_op = []
        for op in ops:
            walks.clear()
            assert cli.main(op.argv) == 0
            op.check(capsys.readouterr().out)
            per_op.append(list(walks))
        assert per_op == [[4096, 122], [4096, 123]]

    def test_deep_agree_compares_leaf_sets_once(self, monkeypatch, tmp_path, capsys):
        """A ``deep`` agree op compares its two leaf sets once, in
        ``agree_general``: the path branch runs ``caterpillar_agree``'s
        body without its checks, on a pair that ``agree_general`` has
        checked (two comparisons while it ran them again)."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import SIZES, build_deep

        ops = [op for op in build_deep(0, SIZES["full"], str(tmp_path)) if op.command == "agree"]
        capsys.readouterr()
        compared = count_calls(monkeypatch, treecore, "same_leaves")
        per_op = []
        for op in ops:
            compared.clear()
            assert cli.main(op.argv) == 0
            op.check(capsys.readouterr().out)
            per_op.append(len(compared))
        assert per_op == [1, 1]

    def test_balanced_branch_builds_no_full_size_tree(self, monkeypatch):
        """``ramsey_split`` folds each input's DFS index, not a rooted copy
        (2 full-size trees while it rooted both); the balanced branch roots
        the first tree keeping just the balanced leaf set, and roots the
        second's restriction from its index, building no adjacency."""
        n = 512
        t1 = gen_random(n, RandomModel("uniform", 1))
        t2 = gen_random(n, RandomModel("uniform", 2))
        assert [ramsey_split(t).kind for t in (t1, t2)] == ["balanced", "balanced"]
        built = count_calls(monkeypatch, treecore.DfsIndex, "derive", built_leaves)
        adjacencies = count_calls(monkeypatch, treecore, "_adjacency", lambda args, out: len(out[1]))
        agree_general(t1, t2)
        assert built.count(n) == 0 and adjacencies == [], (built, adjacencies)

    def test_path_branch_builds_no_full_size_tree(self, monkeypatch):
        """When the first tree is a caterpillar its maximum caterpillar is
        every leaf, and ``caterpillar_agree`` reads both inputs as they are,
        not restricted copies, and ``circular_leaf_order`` and
        ``ramsey_split`` read the trees' DFS indexes, so no full-size tree
        is built (2 while ``ramsey_split`` rooted both inputs, 3 while the
        circular order was read from ``to_newick``, 5 when the branch
        copied)."""
        n = 512
        t1 = gen_caterpillar(n)
        t2 = gen_random(n, RandomModel("uniform", 3))
        assert ramsey_split(t1).kind == "path"
        built = count_calls(monkeypatch, treecore.DfsIndex, "derive", built_leaves)
        for first, second in ((t1, t2), (t2, t1)):
            built.clear()
            agree_general(first, second)
            assert built.count(n) == 0, built

    def test_path_branch_folds_the_caterpillar_once(self, monkeypatch):
        """``ramsey_split`` and ``caterpillar_spine_order`` read one kept
        ``Diameter`` of the caterpillar."""
        t1 = gen_caterpillar(128)
        t2 = gen_random(128, RandomModel("uniform", 3))
        folded = count_calls(monkeypatch, treecore.Diameter, "__init__", lambda args, out: args[1])
        agree_general(t1, t2)
        assert sum(t is t1 for t in folded) == 1, folded
