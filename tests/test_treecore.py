import copy
import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from agreetree import treecore
from agreetree._rng import SplitMix64
from agreetree.decompose import agree_general
from agreetree.generators import (
    RandomModel,
    enumerate_topologies,
    gen_balanced,
    gen_caterpillar,
    gen_class_b,
    gen_class_c,
    gen_extremal_fhk,
    gen_random,
    gen_swap_pair,
    relabel,
)
from agreetree.treecore import (
    CLASS_B,
    CLASS_C,
    NOT_BALANCED,
    ROOTED_BALANCED,
    BalanceClass,
    DfsIndex,
    NewickError,
    RootedTree,
    TreeError,
    UnrootedTree,
    center,
    classify_balanced,
    diameter_path,
    is_caterpillar,
    parse_newick,
    radius,
    rebuild,
    root_at_edge,
    root_at_leaf_edge,
    to_newick,
    unroot,
)
from agreetree.matchers import match1, match2
from agreetree.treecore import _scan
from agreetree.treeops import is_isomorphic, lca, restrict

from oracles import (
    adjacency_of_preorder,
    all_pairs_eccentricities,
    center_by_bfs,
    classify_balanced_by_bfs,
    count_calls,
    dfs_index_by_nodes,
    dfs_index_fields,
    diameter_path_by_bfs,
    diameter_path_by_climb,
    edges_by_adjacency,
    extremal_fhk_by_stack,
    is_caterpillar_by_nodes,
    leaf_depths_by_nodes,
    lines_run,
    ordered_text,
    parse_newick_two_pass,
    postorder,
    random_tree_by_nodes,
    relabel_by_postorder,
    renumber_by_walk,
    restrict_by_branches,
    restrict_rooted_by_postorder,
    restrict_unrooted_by_rooting,
    root_at_edge_by_branches,
    root_at_edge_by_stack,
    scan_by_leaf,
    side_leaves,
    to_newick_by_bfs,
    to_newick_by_directed_edges,
    unroot_by_walk,
    unrooted_eagerly,
    unrooted_index_by_adjacency,
)


class TestParse:
    def test_cherry(self):
        t = parse_newick("(1,2);")
        assert isinstance(t, RootedTree)
        assert t.leaves == {1, 2}
        assert t.height == 1

    def test_single_leaf(self):
        t = parse_newick("7;")
        assert t.is_leaf and t.label == 7

    def test_balanced_four(self):
        t = parse_newick("((1,2),(3,4));")
        assert classify_balanced(t) == BalanceClass(ROOTED_BALANCED, 2)

    def test_three_leaf_star(self):
        t = parse_newick("(1,2,3);")
        assert isinstance(t, UnrootedTree)
        assert t.leaves == {1, 2, 3}

    def test_whitespace_ignored(self):
        assert to_newick(parse_newick(" ( 1 ,\n2 ) ;\n")) == "(1,2);"

    @pytest.mark.parametrize(
        "text",
        ["", "1", "(1,2)", "(1;", "1,2;", "(1,2));", "((1,2);", "(x,2);", "(01,2);"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(NewickError):
            parse_newick(text)

    def test_syntax_error_position(self):
        with pytest.raises(NewickError) as err:
            parse_newick("(1,x);")
        assert err.value.position == 3

    def test_duplicate_label(self):
        with pytest.raises(NewickError, match="duplicate"):
            parse_newick("(1,(2,1));")

    def test_nonbinary_internal(self):
        with pytest.raises(NewickError, match="internal node has 3"):
            parse_newick("(1,(2,3,4));")

    def test_top_level_arity(self):
        with pytest.raises(NewickError, match="top-level"):
            parse_newick("(1,2,3,4);")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            # syntax errors
            ("", "unexpected end of input", 0),
            ("(", "unexpected end of input", 1),
            ("(1,", "unexpected end of input", 3),
            ("1", "expected ';'", 1),
            ("(1,2)", "expected ';'", 5),
            ("1,2;", "expected ';'", 1),
            ("(1,2));", "expected ';'", 5),
            ("(1,2)x", "expected ';'", 5),
            ("12a;", "expected ';'", 2),
            ("(1;", "expected ',' or ')'", 2),
            ("((1,2);", "expected ',' or ')'", 6),
            ("(1;2);", "expected ',' or ')'", 2),
            ("((1,2);(3,4));", "expected ',' or ')'", 6),
            ("(1 2);", "expected ',' or ')'", 3),
            ("(x,2);", "expected a leaf label or '(', found 'x'", 1),
            ("()", "expected a leaf label or '(', found ')'", 1),
            ("(01,2);", "leaf labels may not start with 0", 1),
            ("(1,2); x", "trailing text after ';'", 7),
            ("(1,2);;", "trailing text after ';'", 6),
            # a duplicate label, at the end of its second occurrence
            (" (1,(2,1));", "duplicate leaf label 1", 8),
            ("(2,(1,(2,1)));", "duplicate leaf label 2", 8),
            # wrong arity, at the '(' of the node
            ("(1,(2,3,4));", "internal node has 3 children (expected 2)", 3),
            ("((1),2);", "internal node has 1 children (expected 2)", 1),
            ("(1,2,3,4);", "top-level node has 4 children (expected 2 or 3)", 0),
            ("(1);", "top-level node has 1 children (expected 2 or 3)", 0),
            # two faults: syntax, then duplicate, then the leftmost arity fault
            ("(1,1", "expected ',' or ')'", 4),
            ("(1,(1,2,3)", "expected ',' or ')'", 10),
            ("(1,1,2,3);", "duplicate leaf label 1", 4),
            ("((1,2,3),1);", "duplicate leaf label 1", 10),
            ("(1,(2,3,4),5,6);", "top-level node has 4 children (expected 2 or 3)", 0),
            ("((1,2,3),(4,5,6,7));", "internal node has 3 children (expected 2)", 1),
            ("((1,(2)),(3,4,5));", "internal node has 1 children (expected 2)", 4),
        ],
    )
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(NewickError) as err:
            parse_newick(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


def _parse_like_reference(text):
    """``parse_newick`` and the two-pass reference give the same tree (the
    ordered text and every node's fields, or the vertex ids) or the same
    error message and position."""
    try:
        want = parse_newick_two_pass(text)
    except NewickError as exc:
        with pytest.raises(NewickError) as err:
            parse_newick(text)
        assert (str(err.value), err.value.position) == (str(exc), exc.position), text
        return
    got = parse_newick(text)
    assert type(got) is type(want), text
    if isinstance(want, RootedTree):
        def fields(t):
            return [(x.label, x.nleaves, x.height, x.balanced) for x in postorder(t)]

        assert ordered_text(got) == ordered_text(want)
        assert fields(got) == fields(want)
    else:
        assert (got.adj, got.leaf_label) == (want.adj, want.leaf_label), text


def _valid_texts(sizes):
    """Seeded rooted and unrooted texts, children in random (not canonical)
    order: an unrooted one is a rooted one with the top right node's two
    children moved up."""
    rng = SplitMix64(2024)
    for n in sizes:
        for model in ("uniform", "yule"):
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            t = gen_random(n, RandomModel(model, rng.next_u64()), rooted=True)
            t = relabel(t, {i + 1: lab for i, lab in enumerate(labels)})
            text = ordered_text(t)
            yield text + ";"
            if not t.is_leaf and not t.right.is_leaf:
                yield f"({ordered_text(t.left)},{ordered_text(t.right)[1:-1]});"
    yield to_newick(gen_caterpillar(40)) + "\n"
    yield " " + to_newick(gen_balanced(5)).replace(",", " , ")


class TestParseAgainstReference:
    def test_valid_trees(self):
        for text in _valid_texts(range(1, 65)):
            _parse_like_reference(text)

    def test_mutated_texts(self):
        """Delete, insert or swap one character of a valid text: both parsers
        raise the same message at the same position (or accept the text and
        build the same tree)."""
        rng = SplitMix64(7)
        alphabet = "(),; 0123456789x"
        bases = list(_valid_texts([2, 3, 4, 5, 7, 10]))
        cases = 0
        for text in bases:
            for _ in range(150):
                i = rng.next_u64() % (len(text) + 1)
                kind = rng.next_u64() % 3
                if kind == 0 and i < len(text):
                    mutated = text[:i] + text[i + 1 :]
                elif kind == 1:
                    mutated = text[:i] + alphabet[rng.next_u64() % len(alphabet)] + text[i:]
                elif i + 1 < len(text):
                    mutated = text[:i] + text[i + 1] + text[i] + text[i + 2 :]
                else:
                    continue
                _parse_like_reference(mutated)
                cases += 1
        assert cases > 2000


class _Chunks:
    """Stands in for ``treecore._LEAF``, recording where each chunk of
    ``_scan`` starts."""

    def __init__(self):
        self.starts, self.leaf = [], treecore._LEAF

    def findall(self, s, pos, endpos):
        self.starts.append(pos)
        return self.leaf.findall(s, pos, endpos)


class TestScan:
    """``_scan`` fills arrays sized from the comma count with ``findall``
    chunks cut after a ','.  The per-leaf ``finditer`` loop it replaced
    (``oracles.scan_by_leaf``) is the reference: the same four arrays, or
    the same error message and position."""

    @staticmethod
    def same(text) -> bool:
        """Whether ``text`` is valid, once both scans agree on it."""
        try:
            want = scan_by_leaf(text)
        except NewickError as exc:
            with pytest.raises(NewickError) as err:
                _scan(text)
            assert (str(err.value), err.value.position) == (str(exc), exc.position), text
            return False
        assert _scan(text) == want, text
        return True

    @pytest.mark.parametrize("chunk", [1, 16, treecore._CHUNK])
    def test_mutation_fuzz(self, chunk, monkeypatch):
        """One to three deletions, insertions, swaps or copied spans per
        valid text; chunk 1 cuts after nearly every ','."""
        monkeypatch.setattr(treecore, "_CHUNK", chunk)
        rng = SplitMix64(26)
        alphabet = "(),;0123456789 x"
        bases = list(_valid_texts([1, 2, 3, 4, 6, 9, 17, 40]))
        valid = cases = 0
        for text in bases * 150:
            for _ in range(1 + rng.randrange(3)):
                i, kind = rng.randrange(len(text) + 1), rng.randrange(4)
                if kind == 0:
                    text = text[:i] + text[i + 1 :]
                elif kind == 1:
                    text = text[:i] + alphabet[rng.randrange(len(alphabet))] + text[i:]
                elif kind == 2:
                    text = text[:i] + text[i + 1 : i + 2] + text[i : i + 1] + text[i + 2 :]
                else:
                    j = rng.randrange(len(text) + 1)
                    text = text[:j] + text[i : i + 1 + rng.randrange(6)] + text[j:]
            valid += self.same(text)
            cases += 1
        assert cases > 3000 and 300 < valid < cases - 1000, (valid, cases)

    @pytest.mark.parametrize(
        "text, start",
        [
            ("(1,,2);", 3),  # junk ',' opens a chunk
            ("((1,2),x,3);", 7),  # junk 'x' opens a chunk
            ("(1,2x,3);", 3),  # junk '2', a label without its separator
            ("(1,2)),3);", 3),  # an unmatched ')' ends a chunk
            ("((1,2),3)),4);", 7),
            ("(1,;2);", 3),  # ';' opens a chunk
            ("(1;,2);", 0),  # a ';' separator, then junk ',', end a chunk
            ("((1,2),3;4);", 7),  # a ';' before the end
            ("((1,2),(3,4));", 10),  # valid
        ],
    )
    def test_chunk_cut_next_to_a_fault(self, text, start, monkeypatch):
        chunks = _Chunks()
        monkeypatch.setattr(treecore, "_CHUNK", 1)
        monkeypatch.setattr(treecore, "_LEAF", chunks)
        self.same(text)
        assert start in chunks.starts, chunks.starts

    def test_long_labels(self):
        """A label past int()'s digit limit is a NewickError at its start,
        not int()'s ValueError."""
        for text, digits, position in (("1" * 5000 + ";", 5000, 0), ("(1,2," + "3" * 4301 + ");", 4301, 5)):
            with pytest.raises(NewickError) as err:
                parse_newick(text)
            assert str(err.value) == f"leaf label of {digits} digits is too long (at position {position})"
            assert err.value.position == position

    def test_holds_one_chunk_of_matches(self):
        """One parse of a 16,384-leaf text (about 120,000 characters) peaks
        at about 2.5 MB under tracemalloc, as the per-leaf loop did; one
        ``findall`` over the whole text, holding every leaf's tuple at
        once, peaks at about 3.9 MB."""
        text = to_newick(gen_random(16384, RandomModel("uniform", 0)))
        tracemalloc.start()
        try:
            parse_newick(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak


class TestSerialise:
    def test_canonical_child_order(self):
        assert to_newick(parse_newick("(2,1);")) == "(1,2);"

    def test_unrooted_star(self):
        assert to_newick(parse_newick("(3,1,2);")) == "(1,2,3);"

    def test_extremal_tree_2_1(self):
        assert to_newick(gen_extremal_fhk(2, 1)) == "((1,2),3);"

    def test_unrooted_text_equals_directed_edge_fold(self):
        """Unrooted text is written from the tree's DFS index; the reference
        fold over directed edges, the BFS writer it replaced, and the
        rooting at the smallest leaf's pendant edge with its inner
        parentheses dropped, give the same bytes."""
        rng = SplitMix64(5)
        trees = [
            gen_random(n, RandomModel(model, n))
            for model in ("uniform", "yule")
            for n in range(3, 65)
        ]
        trees += [gen_caterpillar(n) for n in range(3, 40)]
        trees += [gen_class_b(m) for m in range(2, 7)]
        trees += [gen_class_c(m) for m in range(1, 7)]
        for t in trees:
            labels = list(range(1, 3 * t.nleaves + 1))
            rng.shuffle(labels)
            t = relabel(t, dict(zip(sorted(t.leaves), labels)))
            assert to_newick(t) == to_newick_by_directed_edges(t) == to_newick_by_bfs(t)
            r = root_at_leaf_edge(t)
            assert to_newick(t) == f"({r.left.label},{to_newick(r.right)[1:]}"

    @given(st.integers(0, 2**63), st.integers(4, 40))
    def test_roundtrip_rooted(self, seed, n):
        t = gen_random(n, RandomModel("uniform", seed), rooted=True)
        assert is_isomorphic(parse_newick(to_newick(t)), t)

    @given(st.integers(0, 2**63), st.integers(4, 40))
    def test_roundtrip_unrooted(self, seed, n):
        t = gen_random(n, RandomModel("uniform", seed))
        assert is_isomorphic(parse_newick(to_newick(t)), t)


class TestDfsIndex:
    """``RootedTree.dfs`` against a walk over the node objects."""

    @pytest.mark.parametrize("model", ["uniform", "yule"])
    def test_random_trees(self, model):
        rng = SplitMix64(7)
        for n in range(1, 90, 4):
            t = gen_random(n, RandomModel(model, rng.next_u64()), rooted=True)
            assert dfs_index_fields(t) == dfs_index_by_nodes(t), n

    def test_balanced_trees(self):
        for m in range(9):
            t = gen_balanced(m)
            assert dfs_index_fields(t) == dfs_index_by_nodes(t), m
            assert t.dfs().order == list(range(1, 2**m + 1))

    def test_single_leaf(self):
        for t in (RootedTree.leaf(7), parse_newick("7;")):
            assert dfs_index_fields(t) == dfs_index_by_nodes(t)
            assert (t.dfs().label, t.dfs().first.tolist(), t.dfs().pos) == ([7], [0], {7: 0})

    def test_unrooted_is_the_leaf_edge_rooting(self):
        """``UnrootedTree.dfs`` equals the index of ``root_at_leaf_edge``,
        and vertex w heads the branch of node w + 1, also when the tree was
        built by hand on other ids.  ``side`` reads either side of every
        edge as the walk over that branch finds it."""
        rng = SplitMix64(11)
        trees = [
            gen_random(n, RandomModel(model, rng.next_u64()))
            for model in ("uniform", "yule")
            for n in range(3, 90, 4)
        ]
        trees += [gen_caterpillar(n) for n in (3, 4, 5, 17, 40)]
        trees += [gen_class_b(m) for m in range(2, 6)] + [gen_class_c(m) for m in range(1, 6)]
        last = trees[-1]
        trees.append(
            UnrootedTree(
                {v + 100: [w + 100 for w in ns] for v, ns in last.adj.items()},
                {v + 100: lab for v, lab in last.leaf_label.items()},
            )
        )
        for t in trees:
            assert dfs_index_fields(t) == dfs_index_fields(root_at_leaf_edge(t)), to_newick(t)
            ix = t.dfs()
            assert sorted(t.adj) == list(range(len(ix.label) - 1))
            for w, ns in t.adj.items():
                below = frozenset(ix.leaves(w + 1))
                assert sum(below == side_leaves(t, p, w) for p in ns) == 1
                for p in ns:
                    assert ix.side(p, w) == side_leaves(t, p, w), (to_newick(t), p, w)
        assert (trees[-1].adj, trees[-1].leaf_label) == (last.adj, last.leaf_label)
        assert trees[0].dfs() is trees[0].dfs()

    def test_kept_on_the_node_asked(self):
        """A parsed root carries the index its parse wrote; any other node's
        is built once, when asked, and reading a node's leaves keeps none."""
        t = parse_newick("((1,2),(3,4));")
        assert t._dfs is not None and t.dfs() is t._dfs and t.leaves == {1, 2, 3, 4}
        assert t.left._dfs is None and t.left.leaves == {1, 2} and t.left._dfs is None
        assert t.left.dfs() is t.left.dfs()


def _unrooted_trees(seed):
    """Unrooted trees made every way the package makes them, from one seed."""
    rng = SplitMix64(seed)
    generated = [
        gen_random(n, RandomModel(model, rng.next_u64())) for model in ("uniform", "yule") for n in (3, 4, 7, 20, 45)
    ]
    generated += [gen_caterpillar(n) for n in (3, 6, 25)] + [gen_class_b(m) for m in (2, 3, 5)]
    generated += [gen_class_c(m) for m in (1, 2, 4)] + list(gen_swap_pair(2, rooted=False))
    yield from generated
    yield from enumerate_topologies(6)
    for t in generated:
        yield parse_newick(to_newick(t))
        ids = list(t.adj)
        rng.shuffle(ids)
        for new in ([v + 7 for v in t.adj], ids):  # shifted, permuted
            yield UnrootedTree(
                {new[v]: [new[w] for w in ns] for v, ns in t.adj.items()},
                {new[v]: x for v, x in t.leaf_label.items()},
            )
        labels = sorted(t.leaves)
        rng.shuffle(labels)
        yield restrict(t, labels[: max(3, len(labels) // 2)])
        yield relabel(t, dict(zip(sorted(t.leaves), labels)))
        yield relabel(t, {x: x + 1 if x > 1 else 1 for x in t.leaves})  # the smallest leaf stays
        yield relabel(t, {x: len(labels) + 1 - x for x in t.leaves})  # it moves
        for rooted in (root_at_leaf_edge(t), root_at_edge(t, t.edges()[rng.randrange(len(t.edges()))])):
            yield unroot(rooted)  # the first has the smallest leaf left of the root
            yield unroot(rebuild(rooted, lambda node: node.label or (node.right, node.left)))  # mirrored
    for text in _valid_texts(range(3, 40)):
        t = parse_newick(text)
        if isinstance(t, UnrootedTree):
            yield t


class TestOneNumbering:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_vertex_v_is_node_v_plus_1(self, seed):
        """Whichever way an unrooted tree was made, its index is the walk
        from its smallest leaf over its adjacency, field by field, and
        that walk meets vertex v at node v + 1."""
        ways = 0
        for t in _unrooted_trees(seed):
            want = unrooted_index_by_adjacency(t)
            assert want.pop("vertex") == [None, *range(len(t.adj))], to_newick(t)
            assert dfs_index_fields(t) == want, to_newick(t)
            ways += 1
        assert ways > 400

    def test_pickled_copy_keeps_the_ids(self):
        """The constructor renumbers in ``__init__``, so unpickling, which
        skips it, restores the tree as it was."""
        for t in (gen_caterpillar(9), UnrootedTree({5: [7], 6: [7], 7: [5, 6, 8], 8: [7]}, {5: 3, 6: 1, 8: 2})):
            copy = pickle.loads(pickle.dumps(t))
            assert (copy.adj, copy.leaf_label, to_newick(copy)) == (t.adj, t.leaf_label, to_newick(t))


class TestParseWritesIndex:
    """The index ``parse_newick`` writes during its scan equals the one the
    walk builds over the parsed rooted tree's nodes, or over a hand-built
    copy of the parsed unrooted tree, which the constructor renumbers to
    the same ids.  No text is walked: one whose first top-level child is not
    its smallest leaf is rerooted on its index (it was walked once, and so
    renumbered, while that took a built adjacency)."""

    @staticmethod
    def check(text, monkeypatch):
        """Compare the two indexes of ``text``, the parse's written with no
        walk; the tree."""
        with monkeypatch.context() as patch:
            walks = count_calls(patch, DfsIndex, "walk", lambda args, out: type(args[0]))
            t = parse_newick(text)
        assert t._dfs is not None and walks == [], text
        if isinstance(t, RootedTree):
            walked = DfsIndex.walk(t)
        else:
            copy = UnrootedTree(t.adj, t.leaf_label)
            assert (copy.adj, copy.leaf_label) == (t.adj, t.leaf_label), text
            assert unrooted_index_by_adjacency(t)["vertex"] == [None, *range(len(t.adj))], text
            walked = copy.dfs()
        got = t.dfs()
        for name in ("label", "nleaves", "first", "order"):
            assert getattr(got, name) == getattr(walked, name), (name, text)
        return t

    def test_valid_texts(self, monkeypatch):
        """Children in random order: an unrooted text starts with its
        smallest leaf only sometimes, so both cases occur."""
        starts = []
        for text in _valid_texts(range(1, 65)):
            t = self.check(text, monkeypatch)
            if isinstance(t, UnrootedTree):
                first = re.match(r"\s*\(\s*(\d+)", text)  # the first top-level child is a leaf
                starts.append(first is not None and int(first[1]) == min(t.leaves))
        assert 0 < sum(starts) < len(starts)

    def test_canonical_texts(self, monkeypatch):
        rng = SplitMix64(17)
        trees = [
            gen_random(n, RandomModel(model, rng.next_u64()), rooted=rooted)
            for model in ("uniform", "yule")
            for rooted in (True, False)
            for n in range(1 if rooted else 3, 65)
        ]
        trees += [gen_caterpillar(n, rooted=True) for n in range(1, 65)]
        trees += [gen_caterpillar(n) for n in range(3, 65)]
        trees += [gen_class_b(m) for m in range(2, 7)] + [gen_class_c(m) for m in range(1, 6)]
        for t in trees:
            self.check(to_newick(t), monkeypatch)

    def test_deep_caterpillars(self, monkeypatch):
        """20,000 leaves: unrooted, rooted nested to the right, and rooted
        nested to the left (one run of 19,999 '(')."""
        n = 20_000
        rooted = gen_caterpillar(n, rooted=True)
        flipped = relabel(rooted, {x: n + 1 - x for x in range(1, n + 1)})
        texts = [to_newick(t) for t in (gen_caterpillar(n), rooted, flipped)]
        assert texts[2].startswith("(" * (n - 1) + "1,2)")
        for text in texts:
            self.check(text, monkeypatch)


class TestMetrics:
    def test_height(self):
        assert parse_newick("5;").height == 0
        assert gen_balanced(3).height == 3
        assert gen_extremal_fhk(4, 2).height == 4

    def test_center_of_star(self):
        t = parse_newick("(1,2,3);")
        (z,) = center(t)
        assert z not in t.leaf_label

    def test_center_of_quartet_is_pair(self):
        t = parse_newick("((1,2),3,4);")  # quartet written unrooted
        c = center(t)
        assert len(c) == 2
        u, v = sorted(c)
        assert v in t.adj[u]

    def test_caterpillar_center(self):
        t = gen_caterpillar(6)
        c = center(t)
        assert len(c) == 2 and all(v not in t.leaf_label for v in c)

    def test_radius_star(self):
        assert radius(parse_newick("(1,2,3);")) == 1

    def test_radius_class_b(self):
        for m in range(2, 7):
            assert radius(gen_class_b(m)) == m

    def test_radius_matches_all_pairs_bfs(self):
        t = gen_random(32, RandomModel("uniform", 7))
        ecc = all_pairs_eccentricities(t)
        assert radius(t) == min(ecc.values())
        assert center(t) == frozenset(
            v for v, e in ecc.items() if e == min(ecc.values())
        )

    def test_diameter_endpoints_are_leaves(self):
        t = gen_random(40, RandomModel("uniform", 3))
        path = diameter_path(t)
        assert path[0] in t.leaf_label and path[-1] in t.leaf_label
        ecc = all_pairs_eccentricities(t)
        assert len(path) - 1 == max(ecc.values())


class TestDiameterFold:
    @staticmethod
    def family():
        """Seeded uniform and Yule trees, caterpillars, classes B and C,
        then each one's canonical re-parse, a restriction, and a copy with
        vertex ids shifted by 5 (indexed through a dict)."""
        trees = [
            gen_random(n, RandomModel(model, 7 * n + 1))
            for model in ("uniform", "yule")
            for n in [*range(3, 90), 128, 257, 1000]
        ]
        trees += [gen_caterpillar(n) for n in range(3, 40)]
        trees += [gen_class_b(m) for m in range(2, 8)] + [gen_class_c(m) for m in range(1, 8)]
        for t in list(trees):
            labels = sorted(t.leaves)
            yield from (t, parse_newick(to_newick(t)))
            if t.nleaves > 3:
                yield restrict(t, labels[::2] if t.nleaves > 5 else labels[1:])
            yield UnrootedTree(
                {v + 5: [w + 5 for w in ns] for v, ns in t.adj.items()},
                {v + 5: x for v, x in t.leaf_label.items()},
            )

    def test_equals_the_bfs_references(self):
        """Same path, center, radius and class as three BFS passes and a
        BFS from the center, which break ties the same way."""
        count = 0
        for t in self.family():
            path = diameter_path_by_bfs(t)
            assert diameter_path(t) == path, to_newick(t)
            assert center(t) == center_by_bfs(t) and radius(t) == len(path) // 2
            assert classify_balanced(t) == classify_balanced_by_bfs(t), to_newick(t)
            count += 1
        assert count > 900

    def test_descents_equal_the_climb(self):
        """The path read off the two descents from node 0 is the one the
        ends' climb through ``t.adj`` found; ``above`` is the parent of the
        path's top vertex, its smallest id, or None when that is vertex 0."""
        for t in self.family():
            d = t.diameter()
            assert d.path == diameter_path_by_climb(t), to_newick(t)
            top = min(d.path)
            assert d.above == (t.adj[top][0] if top else None), to_newick(t)

    def test_kept_once(self):
        t = gen_random(64, RandomModel("yule", 2))
        assert t.diameter() is t.diameter()
        assert diameter_path(t) == t.diameter().path
        assert diameter_path(t) is not t.diameter().path


class TestClassify:
    def test_rooted_balanced(self):
        for m in range(0, 13):
            assert classify_balanced(gen_balanced(m)) == BalanceClass(ROOTED_BALANCED, m)

    def test_rooted_unbalanced(self):
        assert classify_balanced(gen_caterpillar(8, rooted=True)).kind == NOT_BALANCED

    def test_class_b_leaf_counts(self):
        for m in range(2, 11):
            t = gen_class_b(m)
            assert classify_balanced(t) == BalanceClass(CLASS_B, m)
            assert t.nleaves == 2**m

    def test_class_c_leaf_counts(self):
        for m in range(1, 11):
            t = gen_class_c(m)
            assert classify_balanced(t) == BalanceClass(CLASS_C, m)
            assert t.nleaves == 3 * 2 ** (m - 1)

    def test_six_leaf_single_center_uniform_distance(self):
        t = gen_class_c(2)
        assert t.nleaves == 6
        assert classify_balanced(t) == BalanceClass(CLASS_C, 2)

    def test_caterpillar_not_balanced(self):
        assert classify_balanced(gen_caterpillar(8)).kind == NOT_BALANCED


class TestCaterpillar:
    def test_star(self):
        assert is_caterpillar(parse_newick("(1,2,3);"))

    def test_balanced_false(self):
        assert not is_caterpillar(gen_class_b(3))
        assert not is_caterpillar(gen_balanced(3))

    def test_generator_contract(self):
        for n in (3, 4, 5, 9):
            assert is_caterpillar(gen_caterpillar(n))
        for n in (1, 2, 5, 9):
            assert is_caterpillar(gen_caterpillar(n, rooted=True))

    def test_quartet_is_caterpillar_unrooted(self):
        assert is_caterpillar(parse_newick("((1,2),3,4);"))

    def test_rooted_equals_node_loop(self, monkeypatch):
        """The spine read on the index agrees with the loop over nodes, and
        builds none."""
        rng = SplitMix64(31)
        trees = [parse_newick(text) for text in ("4;", "(1,2);", "(1,(2,((3,4),(5,6))));", "((1,(2,3)),(4,(5,6)));")]
        for n in (1, 2, 3, 4, 9, 40):
            rooted = gen_caterpillar(n, rooted=True)
            trees += [rooted, rebuild(rooted, lambda node: node.label or (node.right, node.left))]  # mirrored
            trees.append(parse_newick(f"({n + 1},{to_newick(rooted)[:-1]});"))  # one more leaf, left of the root
        trees += [gen_balanced(m) for m in range(4)] + [gen_extremal_fhk(6, 2)]
        trees += [
            gen_random(n, RandomModel(model, rng.next_u64()), rooted=True)
            for model in ("uniform", "yule")
            for n in (3, 4, 5, 6, 8, 12, 30)
            for _ in range(6)
        ]
        for t in trees:
            want = is_caterpillar_by_nodes(copy.copy(t))
            nodes = count_calls(monkeypatch, RootedTree, "__init__")
            assert is_caterpillar(t) == want and nodes == [], ordered_text(t)
            monkeypatch.undo()
        assert 0 < sum(map(is_caterpillar, trees)) < len(trees)


class TestRooting:
    def test_root_star_at_leaf_edge(self):
        t = parse_newick("(1,2,3);")
        v = t.label_vertex[1]
        r = root_at_edge(t, (v, t.adj[v][0]))
        assert to_newick(r) == "(1,(2,3));"

    def test_root_class_b_at_central_edge(self):
        for m in (2, 3, 4):
            t = gen_class_b(m)
            r = root_at_edge(t, tuple(sorted(center(t))))
            assert classify_balanced(r) == BalanceClass(ROOTED_BALANCED, m)

    def test_root_quartet_internal_edge(self):
        t = parse_newick("((1,2),3,4);")
        r = root_at_edge(t, tuple(sorted(center(t))))
        assert classify_balanced(r) == BalanceClass(ROOTED_BALANCED, 2)

    def test_bad_edge(self):
        t = parse_newick("(1,2,3);")
        with pytest.raises(TreeError):
            root_at_edge(t, (99, 100))

    def test_rooted_tree_refused(self):
        t = gen_balanced(2)
        for root in (lambda: root_at_edge(t, (0, 1)), lambda: root_at_leaf_edge(t, {1, 2})):
            with pytest.raises(TreeError, match="^only an unrooted tree can be rooted at an edge, got RootedTree$"):
                root()

    def test_keep_drops_leaves_and_suppresses_single_children(self):
        """A rooted restriction and a pruned rooting keep the child order,
        drop the leaves outside the set and suppress nodes left with one
        child; an empty set is refused."""
        t, u = parse_newick("((1,2),(3,(4,5)));"), parse_newick("(1,2,(3,(4,5)));")
        assert ordered_text(restrict(t, t.leaves)) == "((1,2),(3,(4,5)))"
        assert ordered_text(root_at_leaf_edge(u, u.leaves)) == "(1,(2,(3,(4,5))))"
        for restricted in (lambda X: restrict(t, X), lambda X: root_at_leaf_edge(u, X)):
            assert ordered_text(restricted({2, 4, 5})) == "(2,(4,5))"
            assert ordered_text(restricted({3})) == "3"
            with pytest.raises(TreeError, match="^cannot restrict to an empty leaf set$"):
                restricted(set())

    def test_keep_equals_restricting_the_rooting(self):
        rng = SplitMix64(7)
        for model, n in (("uniform", 9), ("yule", 14), ("uniform", 23)):
            t = gen_random(n, RandomModel(model, n))
            labels = sorted(t.leaves)
            rng.shuffle(labels)
            subsets = [{labels[0]}, {1}, t.leaves - {1}, set(labels[: n // 2]), t.leaves]
            for u, v in t.edges():
                for edge in ((u, v), (v, u)):
                    for X in subsets:
                        assert ordered_text(root_at_edge(t, edge, keep=X)) == ordered_text(
                            restrict(root_at_edge(t, edge), X)
                        )
            for X in subsets:
                assert ordered_text(root_at_leaf_edge(t, X)) == ordered_text(
                    restrict(root_at_leaf_edge(t), X)
                )

    def test_keep_on_shifted_vertex_ids(self):
        """A tree built by hand is renumbered to the preorder of its default
        rooting: on shifted vertex ids it is the generated tree, edges and
        pruned rootings alike; on permuted ids, whose neighbour order
        differs, it has other ids but the same restrictions."""
        t = gen_random(40, RandomModel("uniform", 5))
        ids = list(t.adj)
        SplitMix64(5).shuffle(ids)
        shifted, permuted = (
            UnrootedTree(
                {new[v]: [new[w] for w in ns] for v, ns in t.adj.items()},
                {new[v]: lab for v, lab in t.leaf_label.items()},
            )
            for new in ([v + 100 for v in t.adj], ids)
        )
        assert (shifted.adj, shifted.leaf_label) == (t.adj, t.leaf_label)
        assert permuted.adj != t.adj and sorted(permuted.adj) == sorted(t.adj)
        for X in ({3, 17, 29}, set(range(1, 41, 3)), t.leaves - {1}):
            for u, v in t.edges()[:10]:
                assert ordered_text(root_at_edge(shifted, (u, v), keep=X)) == (
                    ordered_text(root_at_edge(t, (u, v), keep=X))
                )
            assert to_newick(restrict(shifted, X)) == to_newick(restrict(permuted, X)) == (
                to_newick(restrict(t, X))
            )

    @pytest.mark.parametrize(
        "keep, message",
        [(set(), "empty leaf set"), ({1, 6}, r"labels \[6\] not in tree"), ([9], r"labels \[9\]")],
    )
    def test_keep_must_be_a_nonempty_subset(self, keep, message):
        t = parse_newick("((1,2),3,(4,5));")
        with pytest.raises(TreeError, match=message):
            root_at_edge(t, t.edges()[0], keep=keep)
        with pytest.raises(TreeError, match=message):
            root_at_leaf_edge(t, keep)

    def test_unroot_small(self):
        assert to_newick(unroot(parse_newick("((1,2),3);"))) == "(1,2,3);"

    def test_unroot_needs_three(self):
        with pytest.raises(TreeError):
            unroot(parse_newick("(1,2);"))

    def test_unroot_balanced_gives_class_b(self):
        for m in (2, 3, 4, 5):
            assert classify_balanced(unroot(gen_balanced(m))) == BalanceClass(CLASS_B, m)

    @given(st.integers(0, 2**63), st.integers(4, 64))
    def test_unroot_inverts_rooting_on_every_edge(self, seed, n):
        t = gen_random(n, RandomModel("uniform", seed))
        for edge in t.edges():
            assert is_isomorphic(unroot(root_at_edge(t, edge)), t)


class TestLazyRoot:
    """A root made from an index builds no node below it until ``left`` or
    ``right`` is read; ``height`` and ``balanced`` come from one fold of
    the index and equal the values the nodes give."""

    @staticmethod
    def _made(t, nodes):
        """``t`` was made with no node built; its first ``left`` builds them
        all, once, and keeps them."""
        assert nodes == [] and t.label is None, ordered_text(t)
        left, right = t.left, t.right
        assert len(nodes) == 2 * t.nleaves - 1 and t.left is left and t.right is right
        assert lca(t, left.leaves) is left and lca(t, right.leaves) is right
        assert len(nodes) == 2 * t.nleaves - 1

    def test_made_without_nodes(self, monkeypatch):
        u = gen_random(40, RandomModel("uniform", 3))
        r = parse_newick(to_newick(gen_random(40, RandomModel("yule", 4), rooted=True)))
        nodes = count_calls(monkeypatch, RootedTree, "__init__")
        made = [
            parse_newick("((1,2),(3,(4,5)));"),
            rebuild(range(1, 9), lambda r: (r[:1], r[1:]) if len(r) > 1 else r[0]),
            restrict(r, range(5, 30)),
            root_at_edge(u, u.edges()[7]),
            root_at_edge(u, u.edges()[7], keep=range(1, 20)),
            relabel(r, {x: 100 - x for x in r.leaves}),
            gen_random(30, RandomModel("uniform", 5), rooted=True),
        ]
        for t in made:
            self._made(t, nodes)
            nodes.clear()

    def test_matchers_and_agree_build_no_nodes(self, monkeypatch):
        balanced = parse_newick(to_newick(gen_balanced(5)))
        other = parse_newick(to_newick(relabel(gen_balanced(5), {x: 33 - x for x in range(1, 33)})))
        yule = parse_newick(to_newick(gen_random(32, RandomModel("yule", 6), rooted=True)))
        u1, u2 = (parse_newick(to_newick(gen_random(40, RandomModel(m, 7)))) for m in ("uniform", "yule"))
        nodes = count_calls(monkeypatch, RootedTree, "__init__")
        match1(balanced, yule, 0.3)
        match2(balanced, other, 0.1)
        agree_general(u1, u2)
        assert nodes == []
        for t in (balanced, other, yule):
            self._made(t, nodes)
            nodes.clear()

    def test_fold_equals_nodes(self, monkeypatch):
        rng = SplitMix64(32)
        trees = [parse_newick("6;")] + [gen_balanced(m) for m in range(9)]
        trees += [gen_caterpillar(n, rooted=True) for n in (2, 3, 10, 100)]
        trees += [gen_extremal_fhk(7, k) for k in range(8)]
        trees += [
            gen_random(n, RandomModel(model, rng.next_u64()), rooted=True)
            for model in ("uniform", "yule")
            for n in (1, 2, 3, 4, 7, 8, 16, 50, 300)
        ]
        for t in trees:
            nodes = count_calls(monkeypatch, RootedTree, "__init__")
            folded = (t.height, t.balanced)
            assert nodes == [], ordered_text(t)
            monkeypatch.undo()
            depths = leaf_depths_by_nodes(t)  # builds the nodes
            assert folded == (max(depths), min(depths) == max(depths)) == (t.height, t.balanced), ordered_text(t)
        assert sum(t.balanced for t in trees) >= 10

    @staticmethod
    def _shapes(n):
        """Every rooted binary shape on n leaves, children ordered, as
        nested pairs over 0s (the leaves)."""
        if n == 1:
            return [0]
        return [(a, b) for k in range(1, n) for a in TestLazyRoot._shapes(k) for b in TestLazyRoot._shapes(n - k)]

    @staticmethod
    def _cherry_moved(m, rng):
        """A balanced tree of 2^m leaves (m >= 2) in shuffled order, as
        nested pairs, with one cherry pruned and regrafted above a random
        node (it may land where it was)."""
        labels = list(range(1, 2**m + 1))
        rng.shuffle(labels)

        def nest(r):
            return r[0] if len(r) == 1 else (nest(r[: len(r) // 2]), nest(r[len(r) // 2 :]))

        def at(node, path):
            for b in path:
                node = node[b]
            return node

        def put(node, path, new):
            if not path:
                return new
            kids = list(node)
            kids[path[0]] = put(node[path[0]], path[1:], new)
            return tuple(kids)

        tree = nest(labels)
        cherry = [rng.randrange(2) for _ in range(m - 1)]  # its path from the root
        sibling = cherry[:-1] + [1 - cherry[-1]]
        moved, tree = at(tree, cherry), put(tree, cherry[:-1], at(tree, sibling))
        target = []
        while type(at(tree, target)) is tuple and rng.randrange(3):
            target.append(rng.randrange(2))
        here = at(tree, target)
        return put(tree, target, (here, moved) if rng.randrange(2) else (moved, here))

    def test_balance_check_equals_fold(self, monkeypatch):
        """A lazy root's ``height`` and ``balanced``, read off its index
        with no fold when it is balanced, equal the fold's and the nodes':
        every shape of up to 8 leaves, seeded balanced trees with one cherry
        moved, and the 1- and 2-leaf trees, as ``rebuild`` roots and parsed
        roots."""
        rng = SplitMix64(33)
        built = []
        for n in range(1, 9):
            for shape in self._shapes(n):
                labels = iter(range(1, n + 1))
                built.append(rebuild(shape, lambda x: next(labels) if x == 0 else x))
        for m in range(2, 9):
            built += [rebuild(self._cherry_moved(m, rng), lambda x: x) for _ in range(12)]
        trees = [t for b in built for t in (b, parse_newick(to_newick(b)))]
        trees += [parse_newick("6;"), parse_newick("(1,2);"), rebuild((7, 3), lambda x: x)]
        balanced = 0
        for t in trees:
            folds = count_calls(monkeypatch, treecore, "_height")
            got = (t.height, t.balanced)
            monkeypatch.undo()
            height = treecore._height(t.dfs())
            assert got == (height, t.nleaves == 1 << height), ordered_text(t)
            assert (folds == []) == (got[1] or t.nleaves == 1), ordered_text(t)
            depths = leaf_depths_by_nodes(t)
            assert got == (max(depths), min(depths) == max(depths)), ordered_text(t)
            balanced += got[1]
        assert len(trees) > 1400 and 20 < balanced < len(trees) - 1000

    def test_copies(self, monkeypatch):
        """Copies and pickles of a root carry its index, lazy or built."""
        lazy = gen_random(60, RandomModel("yule", 8), rooted=True)
        built = gen_random(60, RandomModel("uniform", 8), rooted=True)
        assert built.left.nleaves < 60  # its nodes built
        for t in (lazy, built):
            nodes = count_calls(monkeypatch, RootedTree, "__init__")
            copies = [copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))]
            assert nodes == []
            monkeypatch.undo()
            for c in copies:
                assert c is not t and to_newick(c) == to_newick(t)
                assert to_newick(c.left) == to_newick(t.left) and c.height == t.height
        assert copy.deepcopy(built.left).leaves == built.left.leaves  # a node with no index


def _rooted_reading(text: str) -> str:
    """The rooted text the parse reads an unrooted "(A,B,C);" as: "(A,(B,C));"
    when A is the smallest leaf, else "((A,B),C);"."""
    s, depth, cuts = "".join(text.split()), 0, []
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 1:
            cuts.append(i)
    a, b, c = s[1 : cuts[0]], s[cuts[0] + 1 : cuts[1]], s[cuts[1] + 1 : -2]
    smallest = min(map(int, re.findall(r"\d+", s)))
    return f"({a},({b},{c}));" if a == str(smallest) else f"(({a},{b}),{c});"


class TestLazyUnrooted:
    """An unrooted tree the package builds holds only its index: ``adj``,
    ``leaf_label`` and ``label_vertex`` are built on first read, and equal
    what the eager loop that built them at once gives
    (``tests/oracles.py::unrooted_eagerly``)."""

    @staticmethod
    def _made(monkeypatch, build):
        """``build()``, checked to build no adjacency."""
        built = count_calls(monkeypatch, treecore, "_adjacency")
        out = build()
        assert built == [], out
        monkeypatch.undo()
        return out

    @staticmethod
    def _equal(monkeypatch, got, want):
        """``got``'s adjacency, built once on first read and kept, and its
        edges and diameter path equal the eager reference's."""
        text = to_newick(want)
        built = count_calls(monkeypatch, treecore, "_adjacency")
        assert (got.adj, got.leaf_label, got.label_vertex) == (want.adj, want.leaf_label, want.label_vertex), text
        assert got.edges() == edges_by_adjacency(want), text
        assert got.diameter().path == diameter_path_by_bfs(want), text
        assert (got.adj, got.leaf_label, got.label_vertex) == (want.adj, want.leaf_label, want.label_vertex), text
        assert len(built) == 1 and to_newick(got) == text
        monkeypatch.undo()

    def test_parse(self, monkeypatch):
        """Canonical texts, and texts in random child order whose first
        top-level child is or is not the smallest leaf."""
        texts = [*_valid_texts(range(3, 48))]
        texts += [to_newick(gen_random(n, RandomModel(model, n))) for n in (3, 4, 9, 100) for model in ("uniform", "yule")]
        unrooted = 0
        for text in texts:
            t = self._made(monkeypatch, lambda: parse_newick(text))
            if isinstance(t, UnrootedTree):
                unrooted += 1
                self._equal(monkeypatch, t, unrooted_eagerly(parse_newick(_rooted_reading(text)).dfs()))
        assert unrooted >= 70

    def test_unroot_and_generators(self, monkeypatch):
        rng = SplitMix64(31)
        for n in (3, 4, 5, 17, 64, 300):
            for kind in ("uniform", "yule"):
                seed = rng.next_u64()
                r = gen_random(n, RandomModel(kind, seed), rooted=True)
                self._equal(monkeypatch, self._made(monkeypatch, lambda: unroot(r)), unrooted_eagerly(r.dfs()))
                got = self._made(monkeypatch, lambda: gen_random(n, RandomModel(kind, seed)))
                self._equal(monkeypatch, got, random_tree_by_nodes(n, kind, seed, False))
            got = self._made(monkeypatch, lambda: gen_caterpillar(n))
            self._equal(monkeypatch, got, unrooted_eagerly(gen_caterpillar(n, rooted=True).dfs()))
        for m in range(2, 7):
            got = self._made(monkeypatch, lambda: gen_class_b(m))
            self._equal(monkeypatch, got, unrooted_eagerly(gen_balanced(m).dfs()))
        for m in range(1, 6):
            h = 2 ** (m - 1)
            b1, b2, b3 = (ordered_text(relabel(gen_balanced(m - 1), {x: x + i * h for x in range(1, h + 1)})) for i in range(3))
            got = self._made(monkeypatch, lambda: gen_class_c(m))
            self._equal(monkeypatch, got, unrooted_eagerly(parse_newick(f"({b1},({b2},{b3}));").dfs()))
        for k in (1, 2, 3):
            pair = self._made(monkeypatch, lambda: gen_swap_pair(k, rooted=False))
            for got, rooted in zip(pair, gen_swap_pair(k)):
                self._equal(monkeypatch, got, unrooted_eagerly(rooted.dfs()))

    def test_restrict_and_relabel(self, monkeypatch):
        """Restrictions, and relabellings that keep the smallest leaf on
        vertex 0 (the index kept, labels mapped) or move it."""
        rng = SplitMix64(32)
        for n in (4, 9, 40, 200):
            t = parse_newick(to_newick(gen_random(n, RandomModel("uniform", rng.next_u64()))))
            labels = sorted(t.leaves)
            for size in sorted({3, n // 2 + 1, n}):
                rng.shuffle(labels)
                X = labels[:size]
                got = self._made(monkeypatch, lambda: restrict(t, X))
                self._equal(monkeypatch, got, restrict_by_branches(t, X))
            kept = {1: 1, **{x: n + 2 - x for x in range(2, n + 1)}}
            moved = {x: n + 1 - x for x in range(1, n + 1)}
            for mapping in (kept, moved):
                got = self._made(monkeypatch, lambda: relabel(t, mapping))
                mapped = DfsIndex.derive([x and mapping[x] for x in t.dfs().label])
                self._equal(monkeypatch, got, unrooted_eagerly(mapped))
            assert relabel(t, kept).dfs().nleaves is t.dfs().nleaves

    def test_repeats_checked_only_where_they_can_occur(self, monkeypatch):
        """The parse, ``restrict`` and ``gen_random`` write distinct labels
        and check none; ``unroot`` (also under the fixed-shape generators)
        and unrooted ``relabel`` check once."""
        r = gen_random(30, RandomModel("yule", 3), rooted=True)
        u = gen_random(30, RandomModel("uniform", 3))
        text = to_newick(u)
        checks = count_calls(monkeypatch, treecore, "_check_distinct")
        parse_newick(text), parse_newick(text.replace("(1,", "(", 1)[:-2] + ",1);")  # "(1,A,B);", "(A,B,1);"
        restrict(u, range(1, 20)), gen_random(30, RandomModel("yule", 4))
        assert checks == []
        unroot(r)
        assert len(checks) == 1
        relabel(u, {x: 31 - x for x in u.leaves})
        assert len(checks) == 2
        gen_caterpillar(9), gen_class_b(3), gen_class_c(3), gen_swap_pair(1, rooted=False)
        assert len(checks) == 7

    def test_copies_stay_lazy(self, monkeypatch):
        """Copies and pickles of an unrooted tree carry its index, whether
        its adjacency was read or not, and build none until it is read."""
        lazy = gen_random(60, RandomModel("yule", 9))
        read = gen_random(60, RandomModel("uniform", 9))
        assert read.adj
        for t in (lazy, read):
            copies = self._made(monkeypatch, lambda: [copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))])
            for c in copies:
                assert c is not t and type(c) is UnrootedTree and to_newick(c) == to_newick(t)
                self._made(monkeypatch, lambda: (c.leaves, c.nleaves, c.edges(), root_at_leaf_edge(c, range(1, 9))))
                self._equal(monkeypatch, c, unrooted_eagerly(t.dfs()))

    def test_root_at_edge_refuses_as_the_adjacency_did(self):
        """``root_at_edge`` accepts exactly the (u, v) that
        ``u in t.adj and v in t.adj[u]`` accepts: either orientation of an
        edge, and bools as the ids they equal.  A non-adjacent pair, an id
        out of range or negative, (v, v) and a non-int id are refused with
        the same message."""
        t = gen_random(12, RandomModel("uniform", 4))
        want = unrooted_eagerly(t.dfs())
        ids = [*range(-2, len(want.adj) + 2), True, False, "1", None, 1.5]
        accepted = []
        for u in ids:
            for v in ids:
                if u in want.adj and v in want.adj[u]:
                    accepted.append((u, v))
                    got = ordered_text(root_at_edge(t, (u, v)))
                    assert got == ordered_text(root_at_edge_by_branches(want, (int(u), int(v)))), (u, v)
                else:
                    with pytest.raises(TreeError, match=f"^edge {re.escape(repr((u, v)))} not in tree$"):
                        root_at_edge(t, (u, v))
        assert len(accepted) > 2 * len(edges_by_adjacency(want)) and (True, False) in accepted

    @staticmethod
    def _message(build) -> str:
        with pytest.raises(TreeError) as caught:
            build()
        return str(caught.value)

    def test_duplicate_label_messages(self):
        """A repeated label is named as the eager build's full check named
        it: the first repeat in the leaf order, after ``unroot``'s
        rerooting and before ``relabel``'s.  On an order like [a, b, b, a]
        that is b, where ``DfsIndex.pos`` names a."""
        leaf, branch = RootedTree.leaf, RootedTree.branch
        rooted = [
            branch(leaf(1), branch(leaf(2), leaf(1))),
            branch(leaf(2), branch(branch(leaf(3), leaf(3)), leaf(2))),  # order [2, 3, 3, 2]
            branch(branch(leaf(3), leaf(2)), branch(leaf(2), leaf(3))),  # rerooted at the first 2
            branch(branch(leaf(4), leaf(2)), branch(leaf(1), branch(leaf(4), leaf(2)))),
        ]
        for r in rooted:
            want = unrooted_eagerly(r.dfs())
            message = self._message(lambda: UnrootedTree(want.adj, want.leaf_label))
            assert self._message(lambda: unroot(r)) == message, message
        assert self._message(lambda: unroot(rooted[1])) == "duplicate leaf label 3"
        assert self._message(lambda: rooted[1].dfs().pos) == "duplicate leaf label 2"
        t = gen_caterpillar(4)  # leaf order [1, 2, 3, 4]
        for mapping, named in (({1: 5, 2: 6, 3: 6, 4: 5}, 6), ({1: 7, 2: 5, 3: 5, 4: 7}, 5), ({1: 9, 2: 5, 3: 9, 4: 5}, 9)):
            message = self._message(lambda: UnrootedTree(t.adj, {v: mapping[x] for v, x in t.leaf_label.items()}))
            assert self._message(lambda: relabel(t, mapping)) == message == f"duplicate leaf label {named}"


class TestRebuild:
    """``rebuild`` and the rootings and restrictions on the index keep the
    child order and unrooted vertex ids of the loops they replaced
    (``tests/oracles.py``)."""

    @pytest.mark.parametrize("model", ["uniform", "yule", "caterpillar"])
    def test_copies_equal_reference(self, model):
        rng = SplitMix64(11)
        for seed in range(10):
            n = 3 + 9 * seed
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            mapping = dict(zip(range(1, n + 1), labels))
            if model == "caterpillar":
                t = relabel(gen_caterpillar(n), mapping)
                rooted = relabel_by_postorder(gen_caterpillar(n, rooted=True), mapping)
            else:
                t = gen_random(n, RandomModel(model, seed))
                rooted = gen_random(n, RandomModel(model, seed), rooted=True)
            for edge in t.edges():
                assert ordered_text(root_at_edge(t, edge)) == ordered_text(
                    root_at_edge_by_stack(t, edge)
                )
            for size in sorted({3, max(3, n // 3), max(3, n // 2 + 1), n}):
                rng.shuffle(labels)
                X = frozenset(labels[:size])
                got, want = restrict(t, X), restrict_unrooted_by_rooting(t, X)
                assert list(got.adj.items()) == list(want.adj.items())
                assert list(got.leaf_label.items()) == list(want.leaf_label.items())
                assert ordered_text(restrict(rooted, X)) == ordered_text(
                    restrict_rooted_by_postorder(rooted, X)
                )
            assert ordered_text(relabel(rooted, mapping)) == ordered_text(
                relabel_by_postorder(rooted, mapping)
            )

    def test_extremal_equals_reference(self):
        for h in range(0, 11):
            for k in range(0, h + 1):
                assert ordered_text(gen_extremal_fhk(h, k)) == ordered_text(
                    extremal_fhk_by_stack(h, k)
                )


def _same_tree(got, want):
    """``got`` equals the reference ``want`` field by field: a rooted tree's
    index against the one worked out on ``want``'s nodes, an unrooted
    tree's ids, labels and index against ``want``'s adjacency."""
    if isinstance(want, RootedTree):
        assert isinstance(got, RootedTree) and dfs_index_fields(got) == dfs_index_by_nodes(want), ordered_text(want)
        return
    fields = unrooted_index_by_adjacency(want)
    assert fields.pop("vertex") == [None, *range(len(want.adj))], to_newick(want)
    assert (got.adj, got.leaf_label) == (want.adj, want.leaf_label), to_newick(want)
    assert dfs_index_fields(got) == fields, to_newick(want)


class TestIndexRooting:
    """Rooting, restriction and renumbering on the DFS index give, field by
    field, what the node-building path they replaced gave (``rebuild`` with
    ``keep`` over the branches at an edge, then ``unroot`` by a walk over a
    built adjacency; ``tests/oracles.py``), so vertex ids and child order
    are unchanged."""

    def test_rootings_and_restrictions(self):
        rng = SplitMix64(21)
        for n in range(3, 33):
            for model in ("uniform", "yule"):
                t = gen_random(n, RandomModel(model, rng.next_u64()))
                r = gen_random(n, RandomModel(model, rng.next_u64()), rooted=True)
                labels = sorted(t.leaves)
                for size in sorted({3, n // 2 + 2, n}):
                    rng.shuffle(labels)
                    for tree in (t, r):
                        _same_tree(restrict(tree, labels[:size]), restrict_by_branches(tree, labels[:size]))
                for u, v in t.edges():
                    for edge in ((u, v), (v, u)):
                        rng.shuffle(labels)
                        for keep in (None, labels[: 1 + rng.randrange(n)]):
                            _same_tree(root_at_edge(t, edge, keep), root_at_edge_by_branches(t, edge, keep))
                for keep in (None, labels[:1], labels[:3]):
                    _same_tree(root_at_leaf_edge(t, keep), root_at_edge_by_branches(t, (0, 1), keep))

    def test_unpruned_rootings_bisect_nothing(self, monkeypatch):
        """With no kept set every branch is whole: a rooting at either
        orientation of every edge equals the reference with no
        ``bisect_left`` call, and a caterpillar indexed from its far end
        reroots at its smallest leaf in 33 lines of ``treecore`` per
        ancestor (the climb that bisected a range of every position ran
        38, beside two bisections per ancestor and per part)."""
        rng = SplitMix64(26)
        trees = [gen_caterpillar(n) for n in (3, 4, 5, 9, 40)]
        trees += [relabel(t, {x: t.nleaves + 1 - x for x in t.leaves}) for t in trees]
        trees += [gen_random(n, RandomModel(model, rng.next_u64())) for model in ("uniform", "yule") for n in (6, 33, 100)]
        for t in trees:
            edges = [e for u, v in t.edges() for e in ((u, v), (v, u))]
            with monkeypatch.context() as patch:
                bisects = count_calls(patch, treecore, "bisect_left")
                got = [root_at_edge(t, edge) for edge in edges]
            assert bisects == [], to_newick(t)
            for edge, r in zip(edges, got):
                _same_tree(r, root_at_edge_by_branches(t, edge))
        n = 2000
        far = relabel(gen_caterpillar(n, rooted=True), {x: n + 1 - x for x in range(1, n + 1)}).dfs()
        assert far.label[-1] == 1
        with monkeypatch.context() as patch:
            bisects = count_calls(patch, treecore, "bisect_left")
            t, lines = lines_run(lambda: treecore._unroot_index(far), treecore)
        assert to_newick(t) == to_newick(gen_caterpillar(n)) and bisects == []
        assert lines <= 35 * n, lines

    def test_unroot_relabel_and_parse(self):
        """``unroot`` of Yule, balanced, class-C and swap-pair builds,
        ``relabel`` and the parse of unrooted texts in random child order."""
        rng = SplitMix64(22)
        rooted = [gen_random(n, RandomModel("yule", rng.next_u64()), rooted=True) for n in range(3, 40)]
        rooted += [gen_balanced(m) for m in range(2, 7)] + [t for k in (1, 2, 3) for t in gen_swap_pair(k)]
        for m in range(1, 6):
            h = 2 ** (m - 1)
            b1, b2, b3 = (ordered_text(relabel(gen_balanced(m - 1), {x: x + i * h for x in range(1, h + 1)})) for i in range(3))
            rooted.append(parse_newick(f"({b1},({b2},{b3}));"))
            _same_tree(gen_class_c(m), unroot_by_walk(rooted[-1]))
        for t in rooted:
            _same_tree(unroot(t), unroot_by_walk(t))
        for k in (1, 2, 3):
            for got, t in zip(gen_swap_pair(k, rooted=False), gen_swap_pair(k)):
                _same_tree(got, unroot_by_walk(t))
        for t in (unroot(t) for t in rooted):
            labels = sorted(t.leaves)
            rng.shuffle(labels)
            for mapping in (dict(zip(sorted(t.leaves), labels)), {x: len(labels) + 1 - x for x in labels}):
                want = renumber_by_walk(t.adj, {v: mapping[x] for v, x in t.leaf_label.items()})
                _same_tree(relabel(t, mapping), want)
        for text in _valid_texts(range(3, 40)):
            t = parse_newick(text)
            if isinstance(t, UnrootedTree):
                _same_tree(t, renumber_by_walk(*adjacency_of_preorder(*_scan(text)[:2])))


class TestValidation:
    def test_degree_two_rejected(self):
        with pytest.raises(TreeError):
            UnrootedTree({0: [1, 2], 1: [0], 2: [0]}, {1: 1, 2: 2})

    def test_disconnected_rejected(self):
        with pytest.raises(TreeError):
            UnrootedTree(
                {0: [1, 2, 3], 1: [0], 2: [0], 3: [0], 4: [5], 5: [4]},
                {1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
            )

    def test_unroot_keeps_the_duplicate_check(self):
        """``unroot`` skips the full validation of a tree it builds valid,
        but a hand-built ``RootedTree.branch`` may still repeat a label."""
        leaf = RootedTree.leaf
        t = RootedTree.branch(leaf(1), RootedTree.branch(leaf(2), leaf(1)))
        with pytest.raises(TreeError, match="^duplicate leaf label 1$"):
            unroot(t)

    def test_nonpositive_label_rejected(self):
        with pytest.raises(TreeError):
            RootedTree.leaf(0)

    def test_bool_label_rejected(self):
        """``bool`` subclasses ``int``, but ``True`` is not a label: it
        would be written as text the parser rejects."""
        message = "^leaf label must be a positive integer, got True$"
        with pytest.raises(TreeError, match=message):
            RootedTree.leaf(True)
        with pytest.raises(TreeError, match=message):
            UnrootedTree({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}, {1: True, 2: 2, 3: 3})
