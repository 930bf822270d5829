import dataclasses
import math
import sys
from pathlib import Path

import pytest

from agreetree import matchers, treecore
from agreetree._rng import SplitMix64
from agreetree.bounds import (
    alpha,
    beta,
    beta_k,
    delta_for_beta_k,
    match1_bound,
    match2_bound,
    optimal_delta_match1,
    optimal_delta_match2,
    t2_constant,
)
from agreetree.treeops import max_balanced_height
from agreetree.exactmast import mast_rooted
from agreetree.generators import (
    RandomModel,
    gen_balanced,
    gen_caterpillar,
    gen_class_b,
    gen_class_c,
    gen_extremal_fhk,
    gen_random,
    gen_swap_pair,
    relabel,
)
from agreetree.matchers import (
    _center_neighbours,
    _match1_walk,
    _match2_walk,
    _root_near_center,
    class_c_prunings,
    match1,
    match1_unrooted,
    match2,
    match2_multi,
    match2_unrooted,
    match_almost_balanced,
)
from agreetree.treecore import (
    TreeError,
    center,
    is_caterpillar,
    parse_newick,
    radius,
    root_at_edge,
    root_at_leaf_edge,
    to_newick,
)
from agreetree.treeops import is_subtree, restrict, verify_agreement

from oracles import (
    PAD_LABEL_BASE,
    built_leaves,
    count_calls,
    lines_run,
    match1_walk_by_scans,
    match1_walk_by_sets,
    match2_walk_by_scans,
    match2_walk_by_sets,
    ordered_text,
    pad_to_balanced,
    vertex_path,
)

DELTA1 = 0.1705
DELTA2 = 0.0248


def random_subset_tree(m, t, seed, model="uniform"):
    """A random rooted tree (uniform, yule or caterpillar shape) over a
    random t-subset of 1..2^m."""
    rng = SplitMix64(seed)
    labels = list(range(1, 2**m + 1))
    rng.shuffle(labels)
    chosen = sorted(labels[:t])
    if model == "caterpillar":
        shape = gen_caterpillar(t, rooted=True)
    else:
        shape = gen_random(t, RandomModel(model, rng.next_u64()), rooted=True)
    return relabel(shape, {i + 1: chosen[i] for i in range(t)})


def permuted_balanced(m, seed):
    rng = SplitMix64(seed)
    perm = list(range(1, 2**m + 1))
    rng.shuffle(perm)
    return relabel(gen_balanced(m), {i + 1: perm[i] for i in range(2**m)})


class TestMatch1:
    def test_single_leaf_base_case(self):
        t1 = gen_balanced(3)
        t2 = random_subset_tree(3, 1, 5)
        leaves, trace = match1(t1, t2, DELTA1)
        assert leaves == t2.leaves
        assert [s.rule for s in trace.steps] == ["base"]

    def test_identical_trees_emit_one_leaf_per_level(self):
        for m in (1, 2, 5, 8):
            leaves, trace = match1(gen_balanced(m), gen_balanced(m), DELTA1)
            assert len(leaves) == m + 1
            counts = trace.counts()
            assert counts["case1"] == m and counts["base"] == 1

    def test_count_identity(self):
        # emitted leaves == case1 + cross + 1
        for seed in range(25):
            t1 = gen_balanced(6)
            t2 = random_subset_tree(6, 2 + seed, seed)
            leaves, trace = match1(t1, t2, DELTA1)
            counts = trace.counts()
            assert len(leaves) == counts["case1"] + counts["cross"] + 1

    @pytest.mark.parametrize("delta", [DELTA1, 0.05, 0.30])
    def test_guarantee_and_shape(self, delta):
        rng = SplitMix64(17)
        for m in range(2, 8):
            for _ in range(20):
                t = 2 + rng.randrange(2**m - 1)
                t1 = gen_balanced(m)
                t2 = random_subset_tree(m, t, rng.next_u64())
                leaves, trace = match1(t1, t2, delta)
                bound = max(1, match1_bound(m, t, delta))
                assert len(leaves) >= bound - 1e-9
                verify_agreement(t1, t2, leaves)
                assert is_caterpillar(restrict(t1, leaves))
                assert trace.check_product_inequality()

    def test_trace_records_t0(self):
        t1 = gen_balanced(4)
        t2 = random_subset_tree(4, 9, 3)
        _, trace = match1(t1, t2, DELTA1)
        assert trace.t0 == 9 and trace.m == 4

    def test_unbalanced_first_tree_rejected(self):
        with pytest.raises(TreeError, match="balanced"):
            match1(gen_caterpillar(8, rooted=True), gen_balanced(3), DELTA1)

    def test_leafset_containment_required(self):
        t2 = relabel(gen_balanced(1), {1: 100, 2: 200})
        with pytest.raises(TreeError, match="subset"):
            match1(gen_balanced(2), t2, DELTA1)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            match1(gen_balanced(2), gen_balanced(2), 0.5)


class TestMatch2:
    def test_identical_trees_return_everything(self):
        for m in (1, 3, 6):
            t = gen_balanced(m)
            leaves, trace = match2(t, t, DELTA2)
            assert leaves == t.leaves
            assert trace.check_path_bounds()

    def test_swap_pair_k1(self):
        t1, t2 = gen_swap_pair(1)
        leaves, _ = match2(t1, t2, DELTA2)
        assert len(leaves) >= 2
        assert mast_rooted(t1, t2).size == 2
        verify_agreement(t1, t2, leaves)

    @pytest.mark.parametrize("delta", [DELTA2, 0.01, 0.06])
    def test_guarantee_random_permutations(self, delta):
        rng = SplitMix64(23)
        for m in range(2, 7):
            for _ in range(20):
                t1 = permuted_balanced(m, rng.next_u64())
                t2 = permuted_balanced(m, rng.next_u64())
                leaves, trace = match2(t1, t2, delta)
                bound = max(1, match2_bound(m, m, 2**m, delta))
                assert len(leaves) >= bound - 1e-9
                verify_agreement(t1, t2, leaves)
                assert trace.check_path_bounds()

    def test_partial_overlap(self):
        rng = SplitMix64(31)
        for m1, m2, shift in ((3, 4, 5), (4, 4, 9), (5, 3, 20)):
            t1 = gen_balanced(m1)
            t2 = relabel(
                gen_balanced(m2), {i: i + shift for i in range(1, 2**m2 + 1)}
            )
            t = len(t1.leaves & t2.leaves)
            if t == 0:
                continue
            leaves, trace = match2(t1, t2, DELTA2)
            assert len(leaves) >= max(1, match2_bound(m1, m2, t, DELTA2)) - 1e-9
            verify_agreement(t1, t2, leaves)
            assert trace.check_path_bounds()

    def test_balanced_restriction_depth_at_full_overlap(self):
        rng = SplitMix64(41)
        for m in (4, 5, 6, 7):
            floor_height = math.floor(beta(DELTA2) * m)
            for _ in range(10):
                t1 = permuted_balanced(m, rng.next_u64())
                t2 = permuted_balanced(m, rng.next_u64())
                leaves, _ = match2(t1, t2, DELTA2)
                shape = restrict(t1, leaves)
                assert max_balanced_height(shape) >= floor_height

    def test_empty_intersection_rejected(self):
        t2 = relabel(gen_balanced(2), {i: i + 100 for i in range(1, 5)})
        with pytest.raises(TreeError, match="nonempty"):
            match2(gen_balanced(2), t2, DELTA2)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            match2(gen_balanced(2), gen_balanced(2), 0.25)


def same_run(got, want):
    """Equal leaf sets and equal traces, field by field."""
    return got[0] == want[0] and dataclasses.asdict(got[1]) == dataclasses.asdict(want[1])


class TestWalksEqualSetReference:
    """The walks' leaf-order counts give the same leaf sets and traces as
    counts taken from leaf-set intersections (``tests/oracles.py``)."""

    @pytest.mark.parametrize("model", ["uniform", "yule", "caterpillar"])
    def test_match1(self, model):
        rng = SplitMix64(80)
        for m in (*range(1, 8), *range(1, 8)):
            for t in (2**m, 1 + rng.randrange(2**m), 1 + rng.randrange(2**m)):
                t2 = random_subset_tree(m, t, rng.next_u64(), model)
                t1 = permuted_balanced(m, rng.next_u64())
                u1 = gen_random(2**m, RandomModel("yule", rng.next_u64()), rooted=True)
                for delta in (0.05, 0.2, 0.45):
                    assert same_run(match1(t1, t2, delta), match1_walk_by_sets(t1, t2, delta))
                    assert same_run(
                        _match1_walk(u1, t2, delta), match1_walk_by_sets(u1, t2, delta)
                    )

    @pytest.mark.parametrize("model", ["uniform", "yule", "caterpillar"])
    def test_match2(self, model, monkeypatch):
        """Up to m = 10, on shifted label ranges and random subsets (partial
        overlaps), through steps that take u's second child as its left.
        The set walk recurses once per level, so caterpillars, 2^m - 1
        deep, stop at m = 7."""
        rng = SplitMix64(81)
        oriented = count_calls(monkeypatch, matchers, "_orientation", lambda args, out: out[0])
        for m in (*range(1, 11), *range(1, 8), *range(1, 8)):
            t1 = permuted_balanced(m, rng.next_u64())
            shift = rng.randrange(2**m)
            t2 = relabel(
                permuted_balanced(m, rng.next_u64()),
                {i: i + shift for i in range(1, 2**m + 1)},
            )
            u1 = random_subset_tree(m, 2**m, rng.next_u64(), model)
            u2 = random_subset_tree(m, 1 + rng.randrange(2**m), rng.next_u64(), model)
            for delta in (0.05, 0.12, 0.24):
                assert same_run(match2(t1, t2, delta), match2_walk_by_sets(t1, t2, delta))
                if model == "caterpillar" and m > 7:
                    continue
                assert same_run(_match2_walk(u1, u2, delta), match2_walk_by_sets(u1, u2, delta))
                assert same_run(_match2_walk(u2, t1, delta), match2_walk_by_sets(u2, t1, delta))
        assert 1 in oriented


class TestCarriedWalk:
    """match2 carries each pair's shared leaves and splits them, where it
    counted them by scans (``oracles.match2_walk_by_scans``)."""

    @staticmethod
    def wide_pairs(seed, monkeypatch, tmp_path):
        """The two (balanced, relabelled balanced) pairs of 2^14 leaves that
        the benchmark's ``wide`` workload matches, parsed from its files."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import SIZES, build_wide

        ops = build_wide(seed, SIZES["full"], str(tmp_path))
        return [[parse_newick(Path(path).read_text()) for path in op.argv[1:3]] for op in ops if op.command == "match2"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_scanning_walk_on_wide_pairs(self, seed, monkeypatch, tmp_path):
        delta = optimal_delta_match2()[0]
        for t1, t2 in self.wide_pairs(seed, monkeypatch, tmp_path):
            assert t1.nleaves == t2.nleaves == 2**14
            assert same_run(match2(t1, t2, delta), match2_walk_by_scans(t1, t2, delta))

    def test_no_scan_and_no_height_fold(self, monkeypatch, tmp_path):
        (t1, t2), _ = self.wide_pairs(0, monkeypatch, tmp_path)
        scans = count_calls(monkeypatch, treecore.DfsIndex, "below")
        folds = count_calls(monkeypatch, treecore, "_height")
        leaves, trace = match2(t1, t2, optimal_delta_match2()[0])
        assert scans == [] and folds == []
        assert (trace.m1, trace.m2, trace.t0) == (14, 14, 2**14) and len(leaves) > 100

    @staticmethod
    def preorder(trace) -> list:
        """The trace's nodes in preorder, each with its child count."""
        out, stack = [], [trace.root]
        while stack:
            node = stack.pop()
            out.append((node.rule, node.t, node.u_size, node.v_size, node.emitted, len(node.children)))
            stack.extend(reversed(node.children))
        return out

    def test_other_roots_scan(self, monkeypatch):
        """Roots that are not both balanced, as ``match_almost_balanced``
        gives them, take no carried step: on a path about n long carrying
        would cost about n^2 / 8.  Their runs equal the scanning walk's."""
        splits = count_calls(monkeypatch, matchers, "_split")
        rng = SplitMix64(29)
        perm = list(range(1, 2049))
        rng.shuffle(perm)
        t1, t2 = gen_caterpillar(2048), relabel(gen_caterpillar(2048), dict(zip(range(1, 2049), perm)))
        r1, r2 = _root_near_center(t1), _root_near_center(t2)
        assert r1.height > 1000 and not r2.balanced
        (got, g), (want, w) = _match2_walk(r1, r2, 0.1), match2_walk_by_scans(r1, r2, 0.1)
        assert got == want and (g.m1, g.m2, g.t0) == (w.m1, w.m2, w.t0)
        assert self.preorder(g) == self.preorder(w)  # asdict recurses too deep here
        leaves, mode, _ = match_almost_balanced(t1, t2, 2048, mode="both")
        assert mode == "both" and leaves == _match2_walk(r1, r2, delta_for_beta_k(2048))[0]
        for n in (64, 300, 1000):
            u1 = _root_near_center(gen_random(n, RandomModel("yule", rng.next_u64())))
            u2 = _root_near_center(gen_random(n, RandomModel("uniform", rng.next_u64())))
            b = gen_balanced(n.bit_length())
            for x, y in ((u1, u2), (b, u1), (u2, b)):
                assert same_run(_match2_walk(x, y, 0.2), match2_walk_by_scans(x, y, 0.2))
        assert splits == []


class TestKernelWalk:
    """The walks count with one flat kernel (``matchers._kernel``), where
    they counted by ``_scan`` over dicts and nested lists
    (``oracles.match1_walk_by_scans`` and ``match2_walk_by_scans``)."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_scanning_walk_on_deep_pair(self, seed, monkeypatch, tmp_path):
        """The (balanced, rooted caterpillar) pair of 2^12 leaves that the
        benchmark's ``deep`` workload matches, parsed from its files."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import SIZES, build_deep

        ops = build_deep(seed, SIZES["full"], str(tmp_path))
        (t1, t2), = [[parse_newick(Path(p).read_text()) for p in op.argv[1:3]] for op in ops if op.command == "match1"]
        assert t1.balanced and t1.nleaves == 4096 and is_caterpillar(t2)
        delta = optimal_delta_match1()[0]
        got = match1(t1, t2, delta)
        assert same_run(got, match1_walk_by_scans(t1, t2, delta))
        assert len(got[1].steps) == 4096

    @pytest.mark.parametrize("model", ["uniform", "yule", "caterpillar"])
    def test_equals_scanning_walk(self, model):
        """Balanced and unbalanced first trees up to 2^12 leaves against
        random subsets, with labels 1..n (array maps) and shifted by 10^9
        (dict maps): the second tree's array is shorter than the first's
        labels whenever it misses the largest ones."""
        rng = SplitMix64(82)
        for m in (*range(1, 9), 10, 12):
            n = 2**m
            for t in (n, 1 + rng.randrange(n), 1 + rng.randrange(n)):
                t2 = random_subset_tree(m, t, rng.next_u64(), model)
                firsts = (permuted_balanced(m, rng.next_u64()), random_subset_tree(m, n, rng.next_u64(), model))
                for t1 in firsts:
                    shifted = [relabel(x, {y: y + PAD_LABEL_BASE for y in x.leaves}) for x in (t1, t2)]
                    for x, y in ((t1, t2), shifted):
                        for delta in (0.05, 0.2, 0.45):
                            assert same_run(_match1_walk(x, y, delta), match1_walk_by_scans(x, y, delta))
                if m > 8:
                    break

    @pytest.mark.parametrize("shape", ["caterpillar", "yule"])
    def test_almost_balanced_walks(self, shape):
        """``match_almost_balanced`` in both modes runs the walks whose
        scanning steps the kernel counts: they equal the scanning walks on
        the same rootings."""
        rng = SplitMix64(83)
        for n in (5, 64, 300, 1000):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            draw = lambda: gen_caterpillar(n) if shape == "caterpillar" else gen_random(n, RandomModel("yule", rng.next_u64()))
            t1, t2 = draw(), relabel(draw(), dict(zip(range(1, n + 1), perm)))
            r1, r2 = _root_near_center(t1), _root_near_center(t2)
            leaves, _, delta = match_almost_balanced(t1, t2, n, mode="single")
            want = match1_walk_by_scans(r1, t2, delta)
            assert leaves == want[0] and same_run(_match1_walk(r1, t2, delta), want)
            leaves, _, delta = match_almost_balanced(t1, t2, n, mode="both")
            (got, g), (want, w) = _match2_walk(r1, r2, delta), match2_walk_by_scans(r1, r2, delta)
            assert leaves == got == want and (g.m1, g.m2, g.t0) == (w.m1, w.m2, w.t0)
            assert TestCarriedWalk.preorder(g) == TestCarriedWalk.preorder(w)

    def test_leaf_label_above_the_first_trees_array(self):
        """match2's scanned steps read a leaf child of the second tree in
        the first tree's position array.  Each cherry of this second tree
        holds a label above that array, which is not shared, and one that
        is."""
        for m in (3, 5, 8):
            n = 2 ** (m - 1)
            t2 = relabel(gen_balanced(m), {x: (x + 1) // 2 + n * (x % 2) for x in range(1, 2 * n + 1)})
            for t1 in (gen_caterpillar(n, rooted=True), gen_random(n, RandomModel("yule", m), rooted=True)):
                assert not isinstance(t1.dfs().pos, dict) and len(t1.dfs().pos) == n + 1
                for delta in (0.05, 0.12, 0.24):
                    assert same_run(_match2_walk(t1, t2, delta), match2_walk_by_scans(t1, t2, delta))

    def test_step_runs_few_lines(self):
        """Against a rooted caterpillar, 2,036 of match1's 2,048 steps
        skip one spine leaf.  A step runs at most 35 lines of ``matchers``
        and ``treecore``: the kernel reads a leaf child's position once
        (the steps by ``_scan``, ``_shared`` and ``DfsIndex.below`` ran
        57)."""
        t1, t2 = gen_balanced(11), gen_caterpillar(2048, rooted=True)
        t1.dfs().pos, t2.dfs().pos, t1.height  # built before the count: they are not the walk's
        (leaves, trace), lines = lines_run(lambda: _match1_walk(t1, t2, DELTA1), matchers, treecore)
        assert trace.counts()["skip-left"] == 2036 and len(trace.steps) == 2048
        assert (leaves, trace) == match1_walk_by_scans(t1, t2, DELTA1)
        assert lines <= 35 * len(trace.steps), lines


class TestPadding:
    def test_already_balanced(self):
        t = gen_balanced(3)
        padded = pad_to_balanced(t, 3)
        assert padded.balanced and padded.height == 3
        assert is_subtree(t, padded)

    def test_single_leaf_to_height_two(self):
        from agreetree.treecore import RootedTree

        leaf = RootedTree.leaf(1)
        padded = pad_to_balanced(leaf, 2)
        assert padded.nleaves == 4 and padded.balanced
        assert is_subtree(leaf, padded)

    def test_extremal_tree(self):
        t = gen_extremal_fhk(4, 2)
        padded = pad_to_balanced(t, 4)
        assert padded.balanced and padded.height == 4
        assert is_subtree(t, padded)

    def test_dummy_labels_reserved(self):
        padded = pad_to_balanced(gen_balanced(1), 3)
        dummies = padded.leaves - {1, 2}
        assert dummies and all(lab > PAD_LABEL_BASE for lab in dummies)

    def test_target_too_small(self):
        with pytest.raises(ValueError):
            pad_to_balanced(gen_balanced(3), 2)


class TestMatch1Unrooted:
    def test_identical_class_b(self):
        t = gen_class_b(3)
        leaves = match1_unrooted(t, t, DELTA1)
        n = t.nleaves
        assert len(leaves) >= max(1, alpha(DELTA1) * math.log2(2 * n / 3)) - 1e-9
        verify_agreement(t, t, leaves)

    def test_class_c_random_second(self):
        rng = SplitMix64(8)
        for m in (2, 3, 4):
            t1 = gen_class_c(m)
            n = t1.nleaves
            t2 = gen_random(n, RandomModel("uniform", rng.next_u64()))
            leaves = match1_unrooted(t1, t2, DELTA1)
            assert len(leaves) >= max(1, alpha(DELTA1) * math.log2(2 * n / 3)) - 1e-9
            verify_agreement(t1, t2, leaves)

    def test_class_b_random_second(self):
        rng = SplitMix64(9)
        for m in (2, 3, 5):
            t1 = gen_class_b(m)
            t2 = gen_random(2**m, RandomModel("uniform", rng.next_u64()))
            leaves = match1_unrooted(t1, t2, DELTA1)
            assert len(leaves) >= max(1, alpha(DELTA1) * m) - 1e-9
            verify_agreement(t1, t2, leaves)

    def test_unbalanced_rejected(self):
        t = gen_caterpillar(8)
        with pytest.raises(TreeError, match="balanced"):
            match1_unrooted(t, t, DELTA1)

    def test_equals_match1_on_the_leaf_edge_rooting(self):
        """The second tree is walked through its DFS index, which numbers
        its rooting at the smallest leaf's pendant edge."""
        rng = SplitMix64(10)
        for m in range(2, 8):
            t1 = gen_class_b(m)
            t2 = gen_random(2**m, RandomModel("yule", rng.next_u64()))
            want, _ = match1(_root_near_center(t1), root_at_leaf_edge(t2), DELTA1)
            assert match1_unrooted(t1, t2, DELTA1) == want, m

    def test_builds_one_full_size_tree(self, monkeypatch):
        """Only the first tree is rooted in full, at its central edge (2
        full-size trees while the second was rooted at its leaf edge)."""
        t1 = gen_class_b(9)
        t2 = gen_random(512, RandomModel("uniform", 4))
        built = count_calls(monkeypatch, treecore.DfsIndex, "derive", built_leaves)
        match1_unrooted(t1, t2, DELTA1)
        assert built.count(512) == 1, built


class TestMatch2Unrooted:
    def test_identical_class_b(self):
        for m in (2, 3, 4):
            t = gen_class_b(m)
            assert match2_unrooted(t, t, DELTA2) == t.leaves

    def test_class_c_prunings_overlap(self):
        rng = SplitMix64(77)
        for m in (2, 3, 4, 5):
            n = 3 * 2 ** (m - 1)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            t1 = gen_class_c(m)
            t2 = relabel(gen_class_c(m), {i + 1: perm[i] for i in range(n)})
            X, Y = class_c_prunings(t1, t2)
            assert len(X & Y) >= math.ceil(2 ** (m + 1) / 3)

    def test_class_c_guarantee(self):
        rng = SplitMix64(78)
        for m in (2, 3, 4):
            n = 3 * 2 ** (m - 1)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            t1 = gen_class_c(m)
            t2 = relabel(gen_class_c(m), {i + 1: perm[i] for i in range(n)})
            leaves = match2_unrooted(t1, t2, DELTA2)
            bound = 2.0 ** (beta(DELTA2) * m - t2_constant(DELTA2))
            assert len(leaves) >= max(1, bound) - 1e-9
            verify_agreement(t1, t2, leaves)

    def test_class_mismatch_rejected(self):
        with pytest.raises(TreeError, match="same"):
            match2_unrooted(gen_class_b(2), gen_class_c(2), DELTA2)


class TestCenterNeighbours:
    def test_read_off_the_index(self):
        """A vertex center's neighbours, parent first, are its adjacency
        list, also when the center is the path's top vertex."""
        rng = SplitMix64(15)
        trees = [gen_class_c(m) for m in range(1, 7)]
        for _ in range(20):
            perm = list(range(1, 25))
            rng.shuffle(perm)
            trees.append(relabel(gen_class_c(4), dict(zip(range(1, 25), perm))))
        trees += [gen_random(n, RandomModel(model, rng.next_u64())) for model in ("uniform", "yule") for n in range(4, 60)]
        tops = 0
        for t in trees:
            if len(center(t)) == 1:
                (z,) = center(t)
                assert _center_neighbours(t) == (z, t.adj[z]), to_newick(t)
                tops += z == min(t.diameter().path)
        assert tops > 5

    def test_refuses_an_edge_center(self):
        for t in (gen_class_b(3), gen_caterpillar(6)):
            with pytest.raises(TreeError, match="center is an edge, not a vertex"):
                class_c_prunings(t, gen_class_c(2))

    def test_unrooted_wrappers_build_no_adjacency(self, monkeypatch):
        c1 = gen_class_c(5)
        c2 = relabel(gen_class_c(5), {x: 49 - x for x in range(1, 49)})
        b1, u = gen_class_b(6), gen_random(64, RandomModel("yule", 3))
        adjacencies = count_calls(monkeypatch, treecore, "_adjacency")
        match1_unrooted(c1, c2, DELTA1), match2_unrooted(c1, c2, DELTA2)
        match1_unrooted(b1, u, DELTA1), match_almost_balanced(b1, u, 2, mode="single")
        match_almost_balanced(c1, c2, 2, mode="both")
        assert adjacencies == []


class TestDiameterFolds:
    """A call folds each distinct unrooted tree it reads once (``Diameter``);
    its center, radius and class are read from the kept fold."""

    @staticmethod
    def folds(monkeypatch) -> list:
        return count_calls(monkeypatch, treecore.Diameter, "__init__", lambda args, out: args[1])

    @pytest.mark.parametrize("mode, want", [("single", 1), ("auto", 2)])
    def test_almost_balanced(self, monkeypatch, mode, want):
        """Mode "single" reads only the first tree's radius (6 BFS passes
        while it found t2's radius and t1's center again)."""
        t1, t2 = gen_class_b(8), gen_random(256, RandomModel("yule", 5))
        folded = self.folds(monkeypatch)
        match_almost_balanced(t1, t2, 2, mode=mode)
        assert len(folded) == want

    def test_match2_unrooted_class_c(self, monkeypatch):
        """Both inputs and both pruned restrictions (15 BFS passes while
        classification, pruning and rooting each found the center)."""
        n = 96
        perm = list(range(1, n + 1))
        SplitMix64(1).shuffle(perm)
        t1 = gen_class_c(6)
        t2 = relabel(gen_class_c(6), {i + 1: perm[i] for i in range(n)})
        folded = self.folds(monkeypatch)
        match2_unrooted(t1, t2, DELTA2)
        assert len(folded) == len({id(t) for t in folded}) == 4

    def test_match1_unrooted_class_b(self, monkeypatch):
        t1, t2 = gen_class_b(6), gen_random(64, RandomModel("uniform", 3))
        folded = self.folds(monkeypatch)
        match1_unrooted(t1, t2, DELTA1)
        assert folded == [t1]


class TestMatch2Multi:
    def test_identical_trees(self):
        t = gen_balanced(4)
        assert match2_multi([t, t, t], DELTA2) == t.leaves

    def test_three_random_balanced(self):
        trees = [permuted_balanced(6, seed) for seed in (1, 2, 3)]
        leaves = match2_multi(trees, DELTA2)
        assert leaves
        for i in range(3):
            for j in range(i + 1, 3):
                verify_agreement(trees[i], trees[j], leaves)

    def test_builds_no_throwaway_index(self, monkeypatch):
        """The shared-leaf check reads the DFS indexes ``match2`` goes on
        to use: 3 ``DfsIndex`` builds on three permuted balanced trees (4
        while it intersected ``.leaves``, which builds one and drops it)."""
        trees = [permuted_balanced(6, seed) for seed in (1, 2, 3)]
        built = count_calls(monkeypatch, treecore.DfsIndex, "__init__")
        match2_multi(trees, DELTA2)
        assert len(built) == 3

    def test_needs_two(self):
        with pytest.raises(TreeError):
            match2_multi([gen_balanced(2)], DELTA2)


class TestMatchAlmostBalanced:
    def test_balanced_input_single_mode(self):
        # a class-B tree has radius m = log n, within k log n - 1 for k = 2
        t1 = gen_class_b(4)
        t2 = gen_random(16, RandomModel("uniform", 55))
        leaves, mode, _ = match_almost_balanced(t1, t2, 2, mode="single")
        assert leaves and mode == "single"
        verify_agreement(t1, t2, leaves)
        assert leaves <= t1.leaves

    def test_single_mode_builds_one_full_size_tree(self, monkeypatch):
        """Mode "single" roots only the first tree in full, near its center
        (2 full-size trees while the second was rooted at its leaf edge)."""
        t1 = gen_class_b(9)
        t2 = gen_random(512, RandomModel("yule", 4))
        built = count_calls(monkeypatch, treecore.DfsIndex, "derive", built_leaves)
        match_almost_balanced(t1, t2, 2, mode="single")
        assert built.count(512) == 1, built

    def test_both_mode_guarantee(self):
        rng = SplitMix64(60)
        k = 2
        hits = 0
        for _ in range(20):
            n = 32
            t1 = gen_random(n, RandomModel("yule", rng.next_u64()))
            t2 = gen_random(n, RandomModel("yule", rng.next_u64()))
            logn = math.log2(n)
            if radius(t1) > k * logn or radius(t2) > k * logn:
                continue
            hits += 1
            leaves, mode, d = match_almost_balanced(t1, t2, k, mode="both")
            assert mode == "both" and d == delta_for_beta_k(k)
            assert len(leaves) >= max(1, n ** beta_k(k, d)) - 1e-9
            verify_agreement(t1, t2, leaves)
        assert hits > 0

    def test_deeper_than_recursion_limit(self):
        # k = 1000 admits a 2400-leaf caterpillar, which roots at height 1200
        t = gen_caterpillar(2400)
        assert _root_near_center(t).height > sys.getrecursionlimit()
        leaves, mode, _ = match_almost_balanced(t, t, 1000)
        assert mode == "both" and leaves == t.leaves

    def test_vertex_center_roots_toward_the_smallest_leaf(self):
        """A vertex center z is rooted at its edge on the path to the
        smallest leaf, z's side left."""
        rng = SplitMix64(71)
        hits = 0
        for n in range(5, 40):
            t = gen_random(n, RandomModel("yule", rng.next_u64()))
            if len(center(t)) == 2:
                continue
            (z,) = center(t)
            w = vertex_path(t, z, t.label_vertex[min(t.leaves)])[1]
            assert ordered_text(_root_near_center(t)) == ordered_text(root_at_edge(t, (z, w)))
            hits += 1
        assert hits >= 10

    def test_radius_precondition(self):
        t1 = gen_caterpillar(64)  # radius 16 >> 2 log 64 = 12
        t2 = gen_random(64, RandomModel("uniform", 5))
        with pytest.raises(TreeError, match="radius"):
            match_almost_balanced(t1, t2, 2, mode="single")

    @pytest.mark.parametrize("mode", ["single", "both"])
    @pytest.mark.parametrize("model", ["uniform", "yule"])
    def test_equals_padded_matchers(self, model, mode):
        """Same leaf set as the public matcher run on the trees padded to a
        balanced height (at most 14), with the dummy leaves dropped."""
        rng = SplitMix64(70)
        hits = 0
        for n in (6, 11, 19, 32, 50):
            logn = math.log2(n)
            for k in (1.2, 1.6, 2, 3):
                for _ in range(3):
                    t1 = gen_random(n, RandomModel(model, rng.next_u64()))
                    t2 = gen_random(n, RandomModel(model, rng.next_u64()))
                    r1, r2 = radius(t1), radius(t2)
                    a, b = _root_near_center(t1), _root_near_center(t2)
                    if mode == "single":
                        h = math.ceil(k * logn)
                        fits = r1 <= k * logn - 1
                    else:
                        h = max(math.ceil(k * logn), a.height, b.height)
                        fits = max(r1, r2) <= k * logn
                    if not fits or h > 14:
                        continue
                    leaves, _, delta = match_almost_balanced(t1, t2, k, mode=mode)
                    if mode == "single":
                        padded, _ = match1(pad_to_balanced(a, h), root_at_leaf_edge(t2), delta)
                    else:
                        pb = pad_to_balanced(b, h, dummy_start=2 * PAD_LABEL_BASE + 1)
                        padded, _ = match2(pad_to_balanced(a, h), pb, delta)
                    assert leaves == {x for x in padded if x <= PAD_LABEL_BASE}
                    hits += 1
        assert hits >= 15
