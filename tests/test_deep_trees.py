"""Deep trees: every builder and walk handles a 20,000-leaf caterpillar,
and tree identity (isomorphism, agreement certificates) and restriction
stay linear in memory on caterpillars and on a 20,000-leaf uniform tree.
``match-ab`` runs on a 4096-leaf Yule pair at k = 3, where a balanced
supertree of the required height would have 2^36 leaves.  ``match1`` runs a balanced
2^14-leaf tree against a 16,384-leaf rooted caterpillar (Θ(n²) labels of
per-node leaf sets), and ``match2`` two balanced 2^14-leaf trees.  CLI
``agree`` runs the 20,000-leaf caterpillar (path branch) against a
relabelled 20,000-leaf uniform tree (balanced branch).  The rooted
caterpillar's DFS index equals the naive node walk of ``tests/oracles.py``,
the unrooted one's equals that of its rooting at the smallest leaf's
pendant edge, and its text equals the oracles' BFS writer.  Its diameter
path and balance class, and those of the 2^14-leaf class-B tree, equal the
oracles' BFS references.

The checks run in a fresh interpreter whose address space is capped at
1 GiB, so a quadratic leaf-set cache fails there with MemoryError instead of
taking the test process down, and the interpreter's own recursion limit is
the one in force.
"""

import pathlib
import subprocess
import sys

from cliproc import cli_env

CHILD = r"""
import contextlib
import io
import os
import resource
import sys
import tempfile

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
limit = sys.getrecursionlimit()
import agreetree
from agreetree import (
    RandomModel, RootedTree, SplitMix64, classify_balanced, extract_balanced,
    f_closed, f_recurrence, gen_balanced, gen_caterpillar, gen_class_b,
    gen_extremal_fhk, gen_random, is_caterpillar, is_isomorphic, match1,
    match1_bound, match2, match2_bound, optimal_delta_match1,
    optimal_delta_match2, parse_newick, ramsey_split, relabel, restrict,
    root_at_edge, to_newick, unroot, verify_agreement,
)
from agreetree.cli import main
from agreetree.treecore import diameter_path, root_at_leaf_edge

sys.path.insert(0, sys.argv[1])
from oracles import (
    classify_balanced_by_bfs, dfs_index_by_nodes, dfs_index_fields,
    diameter_path_by_bfs, to_newick_by_bfs,
)

assert sys.getrecursionlimit() == limit, (limit, sys.getrecursionlimit())

N = 20_000
sample = range(1, N + 1, N // 1000)
rooted = gen_caterpillar(N, rooted=True)
assert dfs_index_fields(rooted) == dfs_index_by_nodes(rooted)
unrooted = gen_caterpillar(N)
unrooted_text = to_newick(unrooted)
assert unrooted_text == to_newick_by_bfs(unrooted)
assert dfs_index_fields(unrooted) == dfs_index_fields(root_at_leaf_edge(unrooted))
for t in (unrooted, gen_class_b(14)):
    assert diameter_path(t) == diameter_path_by_bfs(t)
    assert classify_balanced(t) == classify_balanced_by_bfs(t)
reverse = {i: N + 1 - i for i in range(1, N + 1)}
for t in (rooted, unrooted):
    text = to_newick(t)
    assert to_newick(parse_newick(text)) == text
    if isinstance(t, RootedTree):
        assert to_newick(unroot(t)) == unrooted_text
    else:
        for edge in (t.edges()[0], t.edges()[-1]):
            assert to_newick(unroot(root_at_edge(t, edge))) == text
        assert to_newick(unroot(root_at_leaf_edge(t))) == text
    part = restrict(t, sample)
    assert part.nleaves == len(sample) and is_caterpillar(part)
    assert to_newick(relabel(relabel(t, reverse), reverse)) == text
    assert ramsey_split(t).kind == "path"
    assert len(verify_agreement(t, t, range(1, 51)).leaves) == 50
    assert verify_agreement(t, t, range(1, N + 1)).restricted_shape == text
    assert is_isomorphic(t, parse_newick(text))

uniform = gen_random(N, RandomModel("uniform", 1))
assert is_isomorphic(uniform, parse_newick(to_newick(uniform)))
part = restrict(uniform, sample)
assert part.leaves == frozenset(sample)
assert is_isomorphic(restrict(part, sample[:100]), restrict(uniform, sample[:100]))

spine = RootedTree.branch(
    RootedTree.branch(RootedTree.leaf(N - 3), RootedTree.leaf(N - 2)),
    RootedTree.branch(RootedTree.leaf(N - 1), RootedTree.leaf(N)),
)
for label in range(N - 4, 0, -1):
    spine = RootedTree.branch(RootedTree.leaf(label), spine)
assert extract_balanced(spine, 2) == {N - 3, N - 2, N - 1, N}

assert gen_extremal_fhk(N, 1).nleaves == f_closed(N, 1) == f_recurrence(N, 1)

M = 14
rng = SplitMix64(3)


def shuffled(t):
    labels = list(range(1, t.nleaves + 1))
    rng.shuffle(labels)
    return relabel(t, {i + 1: x for i, x in enumerate(labels)})


balanced = gen_balanced(M)
for t1, t2, matcher, bound, delta in (
    (balanced, shuffled(gen_caterpillar(1 << M, rooted=True)), match1,
     lambda d: match1_bound(M, 1 << M, d), optimal_delta_match1()[0]),
    (shuffled(balanced), shuffled(balanced), match2,
     lambda d: match2_bound(M, M, 1 << M, d), optimal_delta_match2()[0]),
):
    leaves, _ = matcher(t1, t2, delta)
    assert len(leaves) >= max(1, bound(delta)) - 1e-9, (matcher, len(leaves))
    verify_agreement(t1, t2, leaves)

with tempfile.TemporaryDirectory() as tmp:
    paths = []
    for seed in (1, 2):
        paths.append(os.path.join(tmp, f"yule{seed}.nwk"))
        with open(paths[-1], "w") as fh:
            fh.write(to_newick(gen_random(4096, RandomModel("yule", seed))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["match-ab", *paths, "--k", "3"]) == 0
    assert "bound_met: True" in out.getvalue()
    paths = [os.path.join(tmp, "caterpillar.nwk"), os.path.join(tmp, "uniform.nwk")]
    for path, t in zip(paths, (unrooted, shuffled(uniform))):
        with open(path, "w") as fh:
            fh.write(to_newick(t))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["agree", *paths]) == 0
    assert "bound_met: True" in out.getvalue()
print("ok")
"""


def test_20000_leaf_caterpillars():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(pathlib.Path(__file__).resolve().parent)],
        capture_output=True,
        timeout=600,
        env=cli_env(),
    )
    err = proc.stderr.decode()
    assert proc.returncode == 0, err[-3000:]
    assert proc.stdout.decode() == "ok\n"
