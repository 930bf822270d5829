import pytest
from hypothesis import given, strategies as st

from agreetree.generators import (
    RandomModel,
    gen_balanced,
    gen_caterpillar,
    gen_class_b,
    gen_class_c,
    gen_extremal_fhk,
    gen_random,
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
    radius,
    root_at_edge,
    to_newick,
    unroot,
)
from agreetree.treeops import is_isomorphic

from oracles import all_pairs_eccentricities


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


class TestSerialise:
    def test_canonical_child_order(self):
        assert to_newick(parse_newick("(2,1);")) == "(1,2);"

    def test_unrooted_star(self):
        assert to_newick(parse_newick("(3,1,2);")) == "(1,2,3);"

    def test_extremal_tree_2_1(self):
        assert to_newick(gen_extremal_fhk(2, 1)) == "((1,2),3);"

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
