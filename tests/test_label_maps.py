"""Dense and sparse label maps give the same results.

``DfsIndex.pos`` is an ``array('i')`` indexed by label when the largest
label is at most 2n, and a dict otherwise.  Each tree here is run once with
labels 1..n (the array) and once with every label x shifted to x + S (the
dict); the shift keeps the labels' order, so every result must be the
first one shifted.
"""

import re
import tracemalloc
from array import array

import pytest

from agreetree._rng import SplitMix64
from agreetree.decompose import agree_general, caterpillar_agree
from agreetree.generators import RandomModel, gen_balanced, gen_caterpillar, gen_random, relabel
from agreetree.matchers import match1, match2
from agreetree.treecore import RootedTree, TreeError, label_positions, parse_newick, to_newick
from agreetree.treeops import restrict, verify_agreement

S = 10**9


def shifted(t, by=S):
    return relabel(t, {x: x + by for x in t.dfs().order})


def shift_text(text: str, by=S) -> str:
    return re.sub(r"\d+", lambda m: str(int(m.group()) + by), text)


def forms(*trees) -> list:
    """Each tree's map form: ``array`` or ``dict``."""
    return [array if isinstance(t.dfs().pos, array) else dict for t in trees]


def message(call) -> str:
    with pytest.raises(TreeError) as caught:
        call()
    return str(caught.value)


def random_pair(rng, n, rooted=False):
    return (gen_random(n, RandomModel(model, rng.next_u64()), rooted=rooted) for model in ("uniform", "yule"))


class TestParity:
    @pytest.mark.parametrize("n", [3, 5, 17, 64, 301])
    def test_restrict_positions_and_below(self, n):
        rng = SplitMix64(270 + n)
        for t in (*random_pair(rng, n), *random_pair(rng, n, rooted=True)):
            s = shifted(t)
            ix, sx = t.dfs(), s.dfs()
            assert forms(t, s) == [array, dict]
            assert sx.order == [x + S for x in ix.order]
            for _ in range(6):
                X = frozenset(x for x in range(1, n + 1) if rng.randrange(3)) or frozenset({1})
                if isinstance(t, RootedTree) or len(X) >= 3:
                    assert to_newick(restrict(s, {x + S for x in X})) == shift_text(to_newick(restrict(t, X)))
                assert sx.positions(frozenset(x + S for x in X)) == ix.positions(X)
                assert sx.covers([x + S for x in X]) and ix.covers(list(X))
                labels = sorted(X | {n + 1, 2 * n + 1, 3 * n + 7})  # above the array
                assert not ix.covers(labels) and not sx.covers([x + S for x in labels])
                assert sx.shared([x + S for x in labels]) == [x + S for x in ix.shared(labels)]
                for i in range(0, len(ix.label), max(1, len(ix.label) // 25)):
                    assert sx.below([x + S for x in labels], i) == [x + S for x in ix.below(labels, i)]

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_matchers(self, m):
        rng = SplitMix64(27 + m)
        n = 2**m
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        balanced = gen_balanced(m)
        other = relabel(gen_balanced(m), dict(zip(range(1, n + 1), perm)))
        for t2, run, delta in (
            (next(random_pair(rng, n, rooted=True)), match1, 0.3),
            (other, match2, 0.2),
        ):
            (got, trace), (want, w) = run(shifted(balanced), shifted(t2), delta), run(balanced, t2, delta)
            assert forms(shifted(balanced), balanced) == [dict, array]
            assert got == {x + S for x in want}
            if run is match1:
                assert [(s.rule, s.t, s.emitted) for s in trace.steps] == [
                    (s.rule, s.t, s.emitted and s.emitted + S) for s in w.steps
                ]

    def test_match1_across_forms(self):
        """A sparse first tree against a dense second one: the scans read
        labels of the first tree above the second one's array."""
        rng = SplitMix64(2701)
        m, n = 6, 64
        move = {x: x for x in range(1, n + 1)} | {n: S}
        t1 = relabel(gen_balanced(m), move)
        t2 = restrict(relabel(next(random_pair(rng, n, rooted=True)), move), range(1, n))
        assert forms(t1, t2) == [dict, array]
        got, _ = match1(t1, t2, 0.3)
        want, _ = match1(shifted(t1), shifted(t2), 0.3)
        assert {x + S for x in got} == want

    @pytest.mark.parametrize("n", [5, 40, 150])
    def test_agreement_pipeline(self, n):
        rng = SplitMix64(2702 + n)
        t1, t2 = random_pair(rng, n)
        cat = gen_caterpillar(n)
        for a, b in ((t1, t2), (cat, t2)):
            s1, s2 = shifted(a), shifted(b)
            assert forms(a, b, s1, s2) == [array, array, dict, dict]
            best, report = agree_general(a, b)
            got, got_report = agree_general(s1, s2)
            assert got == {x + S for x in best}
            assert (got_report.bound_value, got_report.params) == (report.bound_value, report.params)
            assert got_report.certificate.restricted_shape == shift_text(report.certificate.restricted_shape)
            cert = verify_agreement(s1, s2, {x + S for x in best})
            assert cert.restricted_shape == shift_text(verify_agreement(a, b, best).restricted_shape)
        assert caterpillar_agree(shifted(cat), shifted(t2)) == {x + S for x in caterpillar_agree(cat, t2)}

    def test_label_positions_of_a_spine(self):
        """``caterpillar_agree``'s map from label to spine index."""
        spine = [5, 2, 8, 1, 7]
        for order in (spine, [x + S for x in spine]):
            pos = label_positions(order)
            assert list(map(pos.__getitem__, order)) == [0, 1, 2, 3, 4]


class TestRefusals:
    """The same messages from either form, for labels that neither tree
    holds: inside the array's range, above it, 0 and negative ones."""

    @pytest.fixture
    def trees(self):
        rng = SplitMix64(2703)
        n = 20
        evens = {x: 2 * x for x in range(1, n + 1)}  # largest label 2n: an array with gaps
        out = []
        for t in (next(random_pair(rng, n)), gen_random(n, RandomModel("uniform", 5), rooted=True)):
            dense = relabel(t, evens)
            out.append((dense, shifted(dense)))
        return out

    @pytest.mark.parametrize("missing", [[3], [41], [10**12], [0], [-1], [-40], [-41, 0, 5]])
    def test_unknown_labels(self, trees, missing):
        for dense, sparse in trees:
            assert forms(dense, sparse) == [array, dict]
            X, Y = {2, 4, 6, *missing}, {2 + S, 4 + S, 6 + S, *missing}
            want = f"labels {sorted(missing)} not in tree"
            assert message(lambda: restrict(dense, X)) == message(lambda: restrict(sparse, Y)) == want
            assert message(lambda: dense.dfs().positions(frozenset(X))) == want
            assert not dense.dfs().covers(X) and not sparse.dfs().covers(Y)
            shared = f"labels {sorted(missing)} not shared by both trees"
            assert message(lambda: verify_agreement(dense, dense, X)) == shared
            assert message(lambda: verify_agreement(sparse, sparse, Y)) == shared

    def test_minus_one_is_not_the_last_slot(self, trees):
        """-1 would read the array's last slot, the largest label's."""
        for dense, _ in trees:
            ix = dense.dfs()
            assert ix.pos[-1] >= 0  # the slot of label 40
            assert not ix.covers([-1]) and ix.covers([40])
            assert message(lambda: ix.positions(frozenset({-1, 40}))) == "labels [-1] not in tree"

    def test_bool_reads_as_one(self):
        rng = SplitMix64(2704)
        for t in random_pair(rng, 12, rooted=True):
            sparse = relabel(t, {x: x for x in range(1, 12)} | {12: S})
            for tree in (t, sparse):
                assert to_newick(restrict(tree, {True, 2, 3})) == to_newick(restrict(tree, {1, 2, 3}))
                assert tree.dfs().positions(frozenset({True})) == tree.dfs().positions(frozenset({1}))
                assert tree.dfs().covers([True, 2])
            assert forms(t, sparse) == [array, dict]

    def test_other_types_compare_as_dict_keys(self):
        """A label that equals a leaf's, as 1.0 equals 1, is that leaf's in
        either form, and one of another type is no leaf's."""
        t = parse_newick("((1,2),(3,4));")
        s = relabel(t, {1: 1, 2: 2, 3: 3, 4: S})
        assert forms(t, s) == [array, dict]
        for tree in (t, s):
            assert tree.dfs().positions(frozenset({1.0, 2})) == [0, 1]
            assert tree.dfs().covers([1.0]) and not tree.dfs().covers(["1"])
            assert message(lambda: tree.dfs().positions(frozenset({"a", 1}))) == "labels ['a'] not in tree"

    @pytest.mark.parametrize(
        "order, named",
        [([1, 2, 1, 3], 1), ([2, 3, 3, 2], 2), ([3, 1, 2, 2], 2), ([4, 1, 4, 2, 1], 4)],
    )
    def test_repeated_label(self, order, named):
        """The first label in DFS order that repeats is named, in either
        form, as ``TestDfsIndex`` pins for the dict."""
        leaf, branch = RootedTree.leaf, RootedTree.branch
        for by in (0, S):
            t = leaf(order[-1] + by)
            for x in reversed(order[:-1]):
                t = branch(leaf(x + by), t)
            with pytest.raises(TreeError, match=f"^duplicate leaf label {named + by}$"):
                t.dfs().pos
            with pytest.raises(TreeError, match=f"^duplicate leaf label {named + by}$"):
                label_positions(t.dfs().order)


def test_dense_map_of_16384_leaves_stays_small():
    """The array of a 16,384-leaf tree's labels takes about 0.06 MB; the
    dict it replaced took about 0.99 MB."""
    ix = gen_random(16384, RandomModel("uniform", 0)).dfs()
    tracemalloc.start()
    try:
        ix.pos
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(ix.pos, array) and held < 0.25 * 2**20, held
