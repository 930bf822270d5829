"""Benchmark workloads: seeded inputs, the ops of one cycle, and output checks.

An op is one ``agreetree.cli.main(argv)`` call on Newick files written in
set-up.  A workload builds its files from the seed and returns the ops of
one round-robin cycle.  Every op has a check that reads only the op's
stdout and the input files, so the harness keeps no tree in memory between
ops.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from agreetree import generators as gen
from agreetree.treecore import UnrootedTree, is_caterpillar, parse_newick, to_newick
from agreetree.treeops import restrict

DEFAULT_SEED = 0

# Leaf counts per size.  "full" is the benchmark; "tiny" is the
# self-test mode.  `deep` stops at 4096 leaves: at the seed commit
# caterpillars of about 12,000 leaves raise RecursionError and restricting a
# 20,000-leaf one was OOM-killed, so a deeper workload waits for the
# array-backed tree core.
SIZES = {
    "full": {"wide_n": 16384, "wide_m": 14, "deep_n": 4096, "deep_m": 12,
             "mast_n": 256, "mast_un": 96, "swap_k": 4},
    "tiny": {"wide_n": 64, "wide_m": 6, "deep_n": 64, "deep_m": 6,
             "mast_n": 16, "mast_un": 12, "swap_k": 2},
}


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    label: str  # unique within the workload, keys the recorded digests
    command: str  # the CLI subcommand
    argv: list
    check: callable  # check(stdout) raises CheckError


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return parse_newick(fh.read().strip())


def _certificate(tree, witness):
    """The certificate ``verify_agreement`` prints for ``witness``: the
    canonical Newick of the restriction; an unrooted set of at most two
    leaves has the fixed degenerate forms "a;" and "(a,b);"."""
    if isinstance(tree, UnrootedTree) and len(witness) <= 2:
        body = ",".join(str(x) for x in sorted(witness))
        return f"{body};" if len(witness) == 1 else f"({body});"
    return to_newick(restrict(tree, witness))


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"stdout is not one JSON object: {exc}") from None


def _check_witness(payload, paths, exact_size=None):
    witness = frozenset(payload["witness"])
    if len(witness) != payload["result_size"] or not witness:
        raise CheckError("result_size does not match the witness")
    if exact_size is not None and len(witness) != exact_size:
        raise CheckError(f"expected MAST size {exact_size}, got {len(witness)}")
    for path in paths:
        tree = _read(path)
        if not witness <= tree.leaves:
            raise CheckError(f"witness is not a leaf subset of {path}")
        if _certificate(tree, witness) != payload["certificate"]:
            raise CheckError(f"certificate differs from the restriction of {path}")


def check_guarantee(paths):
    """match1 / match2 / agree: the bound is met and the certificate is
    the restriction of both trees to the witness."""

    def check(stdout):
        payload = _json(stdout)
        if payload.get("bound_met") is not True:
            raise CheckError("bound_met is not true")
        _check_witness(payload, paths)

    return check


def check_mast(paths, exact_size=None):
    def check(stdout):
        _check_witness(_json(stdout), paths, exact_size)

    return check


def check_decompose_path(path):
    """decompose on a caterpillar: the path branch, meeting its threshold,
    with a caterpillar restriction."""

    def check(stdout):
        payload = _json(stdout)
        if payload.get("kind") != "path" or payload.get("meets_threshold") is not True:
            raise CheckError("expected the path branch meeting its threshold")
        tree = _read(path)
        leaves = frozenset(payload["leaves"])
        if not leaves <= tree.leaves or not is_caterpillar(restrict(tree, leaves)):
            raise CheckError("path branch did not return a caterpillar restriction")

    return check


def check_gen(n, caterpillar=False):
    """gen: an unrooted tree on leaves 1..n, printed in canonical form."""

    def check(stdout):
        text = stdout.strip()
        tree = parse_newick(text)
        if not isinstance(tree, UnrootedTree) or tree.leaves != frozenset(range(1, n + 1)):
            raise CheckError("gen output is not an unrooted tree on 1..n")
        if to_newick(tree) != text:
            raise CheckError("gen output is not canonical Newick")
        if caterpillar and not is_caterpillar(tree):
            raise CheckError("gen caterpillar output is not a caterpillar")

    return check


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def _write(workdir, name, tree):
    path = os.path.join(workdir, name + ".nwk")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_newick(tree) + "\n")
    return path


# Random trees take their shape from this fixed stream; the benchmark seed
# shuffles the leaf labels 2..n, and label 1 stays where the generator put
# it.  `agree` and `decompose` root each tree at its smallest label, and the
# shape and that root alone move the cost a lot: the total leaf-set size of
# a 16384-leaf uniform tree (what the per-node leaf caches hold) has a
# quartile spread of 31% of its median over ten shapes, and of 38% over ten
# root leaves of one shape, wider than any bound the benchmark could set.
SHAPE_SEED = 20121201


def _relabelling(rng, n):
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    return {1: 1, **{i + 2: label for i, label in enumerate(rest)}}


def _random_tree(shapes, rng, n, model, rooted=False):
    tree = gen.gen_random(n, gen.RandomModel(model, shapes.next_u64()), rooted=rooted)
    return gen.relabel(tree, _relabelling(rng, n))


def _pair_op(label, command, paths, check):
    return Op(label, command, [command, *paths, "--format", "json"], check)


def build_wide(seed, size, workdir):
    n, m = size["wide_n"], size["wide_m"]
    shapes, rng = gen.SplitMix64(SHAPE_SEED), gen.SplitMix64(seed)
    ops = []
    for model in (gen.UNIFORM, gen.YULE):
        paths = [_write(workdir, f"{model}_{side}", _random_tree(shapes, rng, n, model)) for side in "ab"]
        ops.append(_pair_op(f"agree-{model}", "agree", paths, check_guarantee(paths)))
    balanced = _write(workdir, "balanced", gen.gen_balanced(m))
    yule = _write(workdir, "yule_rooted", _random_tree(shapes, rng, 2**m, gen.YULE, rooted=True))
    ops.append(_pair_op("match1", "match1", [balanced, yule], check_guarantee([balanced, yule])))
    # Two match2 relabellings make seven ops per cycle, so the median op
    # falls inside the match ops and the p90 inside agree-uniform, not on
    # the edge between two commands.
    for side in "ab":
        permuted = _write(workdir, f"balanced_perm_{side}",
                          gen.relabel(gen.gen_balanced(m), _relabelling(rng, 2**m)))
        ops.append(_pair_op(f"match2-{side}", "match2", [balanced, permuted],
                            check_guarantee([balanced, permuted])))
    for model in (gen.UNIFORM, gen.YULE):
        argv = ["gen", "random", "--n", str(n), "--seed", str(rng.next_u64() >> 1), "--model", model]
        ops.append(Op(f"gen-{model}", "gen", argv, check_gen(n)))
    return ops


def build_deep(seed, size, workdir):
    # One seeded relabelling is applied to every caterpillar and to the
    # balanced tree, so match1 still walks the whole spine (n steps).
    n, m = size["deep_n"], size["deep_m"]
    shapes, rng = gen.SplitMix64(SHAPE_SEED), gen.SplitMix64(seed)
    perm = _relabelling(rng, n)
    cat = _write(workdir, "caterpillar", gen.relabel(gen.gen_caterpillar(n), perm))
    # Two relabellings of one uniform partner for agree put the median op
    # inside the agree ops, not on the edge between two commands.
    uniform = gen.gen_random(n, gen.RandomModel(gen.UNIFORM, shapes.next_u64()))
    ops = []
    for side in "ab":
        partner = _write(workdir, f"uniform_{side}", gen.relabel(uniform, _relabelling(rng, n)))
        ops.append(_pair_op(f"agree-{side}", "agree", [cat, partner], check_guarantee([cat, partner])))
    balanced = _write(workdir, "balanced", gen.relabel(gen.gen_balanced(m), perm))
    rcat = _write(workdir, "caterpillar_rooted",
                  gen.relabel(gen.gen_caterpillar(n, rooted=True), perm))
    return ops + [
        _pair_op("match1", "match1", [balanced, rcat], check_guarantee([balanced, rcat])),
        Op("decompose", "decompose", ["decompose", cat], check_decompose_path(cat)),
        Op("gen", "gen", ["gen", "caterpillar", "--n", str(n)], check_gen(n, caterpillar=True)),
    ]


def build_oracle(seed, size, workdir):
    shapes, rng = gen.SplitMix64(SHAPE_SEED), gen.SplitMix64(seed)
    ops = []
    for model in (gen.UNIFORM, gen.YULE):
        paths = [
            _write(workdir, f"{model}_{side}", _random_tree(shapes, rng, size["mast_n"], model, rooted=True))
            for side in "ab"
        ]
        ops.append(_pair_op(f"mast-{model}", "mast", paths, check_mast(paths)))
    paths = [
        _write(workdir, f"unrooted_{side}", _random_tree(shapes, rng, size["mast_un"], gen.UNIFORM))
        for side in "ab"
    ]
    ops.append(_pair_op("mast-unrooted", "mast", paths, check_mast(paths)))
    # The swap pair under one seeded relabelling of both trees: the MAST
    # size is unchanged, and rooted it is exactly 2^k.
    k = size["swap_k"]
    perm = _relabelling(rng, 4**k)
    for rooted in (True, False):
        kind = "rooted" if rooted else "unrooted"
        pair = gen.gen_swap_pair(k, rooted=rooted)
        paths = [_write(workdir, f"swap_{kind}_{side}", gen.relabel(t, perm)) for side, t in zip("ab", pair)]
        exact = 2**k if rooted else None
        ops.append(_pair_op(f"mast-swap-{kind}", "mast", paths, check_mast(paths, exact)))
    return ops


WORKLOADS = {"wide": build_wide, "deep": build_deep, "oracle": build_oracle}
