import pytest
from hypothesis import given, strategies as st

from agreetree._rng import SplitMix64
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
    CLASS_B,
    CLASS_C,
    NOT_BALANCED,
    ROOTED_BALANCED,
    BalanceClass,
    NewickError,
    RootedTree,
    TreeError,
    UnrootedTree,
    center,
    classify_balanced,
    diameter_path,
    is_caterpillar,
    parse_newick,
    postorder,
    radius,
    rebuild,
    root_at_edge,
    root_at_leaf_edge,
    to_newick,
    unroot,
)
from agreetree.treeops import is_isomorphic, restrict

from oracles import (
    all_pairs_eccentricities,
    extremal_fhk_by_stack,
    ordered_text,
    parse_newick_two_pass,
    relabel_by_postorder,
    restrict_rooted_by_postorder,
    restrict_unrooted_by_rooting,
    root_at_edge_by_stack,
    to_newick_by_directed_edges,
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


class TestSerialise:
    def test_canonical_child_order(self):
        assert to_newick(parse_newick("(2,1);")) == "(1,2);"

    def test_unrooted_star(self):
        assert to_newick(parse_newick("(3,1,2);")) == "(1,2,3);"

    def test_extremal_tree_2_1(self):
        assert to_newick(gen_extremal_fhk(2, 1)) == "((1,2),3);"

    def test_unrooted_text_equals_directed_edge_fold(self):
        """Unrooted text goes through the smallest-leaf rooting; the
        reference fold over directed edges gives the same bytes."""
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
            assert to_newick(t) == to_newick_by_directed_edges(t)

    @given(st.integers(0, 2**63), st.integers(4, 40))
    def test_roundtrip_rooted(self, seed, n):
        t = gen_random(n, RandomModel("uniform", seed), rooted=True)
        assert is_isomorphic(parse_newick(to_newick(t)), t)

    @given(st.integers(0, 2**63), st.integers(4, 40))
    def test_roundtrip_unrooted(self, seed, n):
        t = gen_random(n, RandomModel("uniform", seed))
        assert is_isomorphic(parse_newick(to_newick(t)), t)


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


class TestRebuild:
    """``rebuild`` is the one copy walk; its copies keep the child order and
    unrooted vertex ids of the loops it replaced (``tests/oracles.py``)."""

    def test_keep_drops_leaves_and_suppresses_single_children(self):
        t = parse_newick("((1,2),(3,(4,5)));")

        def expand(node):
            return node.label or (node.left, node.right)

        assert ordered_text(rebuild(t, expand)) == "((1,2),(3,(4,5)))"
        assert ordered_text(rebuild(t, expand, keep={2, 4, 5})) == "(2,(4,5))"
        assert ordered_text(rebuild(t, expand, keep={3})) == "3"
        assert rebuild(t, expand, keep=set()) is None

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

    def test_nonpositive_label_rejected(self):
        with pytest.raises(TreeError):
            RootedTree.leaf(0)
