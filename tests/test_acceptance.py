"""End-to-end acceptance checks.

Each test is one numbered criterion run at full scale with its stated
tolerance and time budget, printing one PASS/FAIL line (run with ``-s`` to
see them stream).  Randomness is seeded splitmix64 throughout, so every run
checks the identical instances.
"""

import contextlib
import json
import math
import pathlib
import subprocess
import sys
import time

from agreetree._rng import SplitMix64
from agreetree.bounds import (
    alpha,
    beta,
    f_closed,
    f_recurrence,
    fhk_upper,
    general_bound,
    match1_bound,
    match2_bound,
    optimal_delta_match1,
    optimal_delta_match2,
    t2_constant,
)
from agreetree.decompose import (
    agree_general,
    caterpillar_agree,
    circular_leaf_order,
    caterpillar_spine_order,
    lis,
    ramsey_split,
)
from agreetree.exactmast import (
    mast_bruteforce,
    mast_floor,
    mast_rooted,
    mast_unrooted,
)
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
from agreetree.matchers import class_c_prunings, match1, match1_unrooted, match2, match2_unrooted
from agreetree.treecore import is_caterpillar
from agreetree.treeops import max_balanced_height, restrict, verify_agreement

from cliproc import cli_env
from oracles import lis_quadratic, mast_subsets_unrooted, rooted_shapes_up_to_height

GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens" / "mast_floor.json"
SLACK = 1e-9


@contextlib.contextmanager
def criterion(name, budget=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{name}] FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    elapsed = time.perf_counter() - started
    within = budget is None or elapsed < budget
    label = "PASS" if within else "FAIL (over time budget)"
    suffix = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"[{name}] {label} ({elapsed:.1f}s{suffix})")
    assert within, f"{name} exceeded its {budget}s budget at {elapsed:.1f}s"


def random_rooted(n, seed):
    return gen_random(n, RandomModel("uniform", seed), rooted=True)


def random_unrooted(n, seed):
    return gen_random(n, RandomModel("uniform", seed))


def random_subset_tree(m, t, rng):
    labels = list(range(1, 2**m + 1))
    rng.shuffle(labels)
    chosen = sorted(labels[:t])
    shape = random_rooted(t, rng.next_u64())
    return relabel(shape, {i + 1: chosen[i] for i in range(t)})


def permuted(tree, rng):
    labels = sorted(tree.leaves)
    perm = list(labels)
    rng.shuffle(perm)
    return relabel(tree, {labels[i]: perm[i] for i in range(len(labels))})


def test_a01_exact_oracles_agree():
    with criterion("A01 exact oracles agree", budget=180):
        rng = SplitMix64(101)
        start = time.perf_counter()
        for _ in range(500):
            n = 4 + rng.randrange(5)  # n <= 8
            a = random_rooted(n, rng.next_u64())
            b = random_rooted(n, rng.next_u64())
            assert mast_rooted(a, b).size == mast_bruteforce(a, b)
        assert time.perf_counter() - start < 60
        start = time.perf_counter()
        for _ in range(200):
            n = 4 + rng.randrange(4)  # n <= 7
            a = random_unrooted(n, rng.next_u64())
            b = random_unrooted(n, rng.next_u64())
            assert mast_unrooted(a, b).size == mast_subsets_unrooted(a, b)
        assert time.perf_counter() - start < 120


def test_a02_extremal_leaf_count_function():
    with criterion("A02 extremal leaf counts", budget=300):
        for h in range(0, 25):
            for k in range(0, h + 1):
                assert f_closed(h, k) == f_recurrence(h, k)
        for h in range(0, 13):
            for k in range(0, h + 1):
                t = gen_extremal_fhk(h, k)
                assert t.nleaves == f_closed(h, k)
                assert max_balanced_height(t) == k
        # Exhaustive maximality for h <= 4: any shape of height <= h with
        # more than f(h, k) leaves must contain a balanced restriction
        # higher than k.
        shapes = rooted_shapes_up_to_height(4)
        for h in range(0, 5):
            for k in range(0, h + 1):
                cap = f_closed(h, k)
                for t in shapes:
                    if t.height <= h and t.nleaves > cap:
                        assert max_balanced_height(t) > k, (h, k, t.nleaves)


def test_a03_extremal_upper_bound():
    with criterion("A03 f(h,k) <= (2h)^k"):
        for h in range(1, 21):
            for k in range(1, h + 1):
                assert fhk_upper(h, k)


def test_a04_optimal_constants():
    with criterion("A04 optimal matcher constants"):
        d_star, a_star = optimal_delta_match1()
        assert abs(a_star - 0.2055) < 1e-3
        assert abs(d_star - 0.1705) < 3e-3


def test_a05_one_balanced_matcher_guarantee():
    with criterion("A05 one-balanced matcher guarantee", budget=120):
        rng = SplitMix64(105)
        for m in range(2, 11):
            t1 = gen_balanced(m)
            for trial in range(200):
                t = 2 + rng.randrange(2**m - 1)
                t2 = random_subset_tree(m, t, rng)
                for delta in (0.1705, 0.05, 0.30):
                    leaves, trace = match1(t1, t2, delta)
                    bound = max(1.0, match1_bound(m, t, delta))
                    assert len(leaves) >= bound - SLACK, (m, t, delta)
                    assert trace.check_product_inequality()
                # agreement validity and caterpillar shape once per instance
                verify_agreement(t1, t2, leaves)
                assert is_caterpillar(restrict(t1, leaves))


def test_a06_two_balanced_matcher_guarantee():
    with criterion("A06 two-balanced matcher guarantee", budget=180):
        rng = SplitMix64(106)
        d_star = optimal_delta_match2()[0]
        deltas = (d_star, 0.01, 0.06)
        for m in range(2, 9):
            base = gen_balanced(m)
            n = 2**m
            for trial in range(200):
                t1 = permuted(base, rng)
                if trial % 4 == 0 and m >= 3:
                    # partial overlap: shift a quarter of the label range
                    shift = 2 ** (m - 2)
                    t2 = relabel(
                        permuted(base, rng),
                        {lab: lab + shift for lab in range(1, n + 1)},
                    )
                else:
                    t2 = permuted(base, rng)
                t = len(t1.leaves & t2.leaves)
                for delta in deltas:
                    leaves, trace = match2(t1, t2, delta)
                    bound = max(1.0, match2_bound(m, m, t, delta))
                    assert len(leaves) >= bound - SLACK, (m, t, delta)
                    assert trace.check_path_bounds()
                    if t == n:
                        floor_height = math.floor(beta(delta) * m)
                        shape = restrict(t1, leaves)
                        assert max_balanced_height(shape) >= floor_height
                verify_agreement(t1, t2, leaves)


def test_a07_unrooted_wrappers():
    with criterion("A07 unrooted balanced wrappers", budget=240):
        rng = SplitMix64(107)
        d1 = 0.1705
        d2 = optimal_delta_match2()[0]
        c = t2_constant(d2)
        for cls_kind in ("B", "C"):
            for trial in range(100):
                m = 2 + trial % 6  # m <= 7
                canonical = gen_class_b(m) if cls_kind == "B" else gen_class_c(m)
                n = canonical.nleaves
                t1 = permuted(canonical, rng)
                # one-balanced wrapper against an arbitrary tree
                t2 = random_unrooted(n, rng.next_u64())
                leaves = match1_unrooted(t1, t2, d1)
                assert len(leaves) >= max(1.0, alpha(d1) * math.log2(2 * n / 3)) - SLACK
                verify_agreement(t1, t2, leaves)
                # two-balanced wrapper against a tree of the same class
                t3 = permuted(canonical, rng)
                leaves = match2_unrooted(t1, t3, d2)
                assert len(leaves) >= max(1.0, 2.0 ** (beta(d2) * m - c)) - SLACK
                verify_agreement(t1, t3, leaves)
                if cls_kind == "C":
                    X, Y = class_c_prunings(t1, t3)
                    assert len(X & Y) >= math.ceil(2 ** (m + 1) / 3)


def test_a08_caterpillar_agreement():
    with criterion("A08 caterpillar agreement", budget=240):
        rng = SplitMix64(108)
        for n in (8, 64, 512, 4096):
            t1 = gen_caterpillar(n)
            position = {lab: i for i, lab in enumerate(caterpillar_spine_order(t1))}
            for _ in range(100):
                t2 = random_unrooted(n, rng.next_u64())
                got = caterpillar_agree(t1, t2)
                assert len(got) >= max(1.0, math.log2(n) / 3) - SLACK, n
                verify_agreement(t1, t2, got)
                seq = [position[lab] for lab in circular_leaf_order(t2)]
                sub, _ = lis(seq)
                assert len(sub) >= math.ceil(math.sqrt(n))
        # patience output equals the quadratic DP up to length 200
        for length in (5, 17, 63, 200):
            for _ in range(10):
                perm = list(range(1, length + 1))
                rng.shuffle(perm)
                assert len(lis(perm)[0]) == lis_quadratic(perm)


def test_a09_general_agreement():
    with criterion("A09 general agreement pipeline", budget=300):
        rng = SplitMix64(109)
        for n in (8, 64, 512, 4096):
            floor = max(1.0, general_bound(n))
            for _ in range(100):
                t1 = random_unrooted(n, rng.next_u64())
                t2 = random_unrooted(n, rng.next_u64())
                leaves, report = agree_general(t1, t2)
                assert len(leaves) >= floor - SLACK
                assert report.satisfied
                verify_agreement(t1, t2, leaves)
        # adversarial family: caterpillar against a balanced tree
        for m in range(2, 13):
            n = 2**m
            t1 = gen_caterpillar(n)
            t2 = gen_class_b(m)
            leaves, report = agree_general(t1, t2)
            assert len(leaves) >= max(1.0, general_bound(n)) - SLACK
            assert report.satisfied


def test_a10_balanced_or_path_split():
    with criterion("A10 balanced-or-path split", budget=240):
        rng = SplitMix64(110)
        for _ in range(400):
            n = 4 + rng.randrange(4093)  # n in 4..4096
            t = random_unrooted(n, rng.next_u64())
            out = ramsey_split(t)
            assert out.meets_threshold(), (n, out.as_dict())
        for h, k in ((4, 1), (6, 2), (8, 2), (10, 3), (12, 4), (12, 1)):
            out = ramsey_split(gen_extremal_fhk(h, k))
            assert out.meets_threshold(), (h, k, out.as_dict())


def test_a11_swap_pair_extremal_values():
    with criterion("A11 swap-pair extremal values", budget=120):
        assert mast_rooted(*gen_swap_pair(1)).size == 2
        assert mast_unrooted(*gen_swap_pair(1, rooted=False)).size == 3
        observed = {1: 2}
        r2 = mast_rooted(*gen_swap_pair(2)).size
        observed[2] = r2
        assert r2 <= 4
        start = time.perf_counter()
        r3 = mast_rooted(*gen_swap_pair(3)).size
        assert time.perf_counter() - start < 60
        observed[3] = r3
        assert r3 <= 8
        # Informational only: whether the observed values reach 2^k, as the
        # open question about balanced pairs would have it.
        for k, size in observed.items():
            print(f"  swap pair k={k}: exact mast {size} (2^k = {2**k})")
        assert all(observed[k] == mast_rooted(*gen_swap_pair(k)).size for k in (1, 2))


def test_a12_minimum_agreement_floor():
    with criterion("A12 minimum agreement floor", budget=120):
        assert mast_floor(3) == 3
        golden = json.loads(GOLDEN_PATH.read_text())
        for n in (3, 4, 5):
            assert mast_floor(n) == golden["unrooted"][str(n)]
        for n in (3, 4, 5):
            assert mast_floor(n, rooted=True) == golden["rooted"][str(n)]


def _cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "agreetree.cli", *argv],
        capture_output=True,
        timeout=300,
        cwd=cwd,
        env=cli_env(),
    )


def test_a13_cli_determinism(tmp_path):
    with criterion("A13 CLI determinism", budget=240):
        t1 = tmp_path / "t1.nwk"
        t2 = tmp_path / "t2.nwk"
        u1 = tmp_path / "u1.nwk"
        u2 = tmp_path / "u2.nwk"
        for path, argv in (
            (t1, ("gen", "balanced", "--m", "4")),
            (t2, ("gen", "random", "--n", "16", "--rooted", "--seed", "3")),
            (u1, ("gen", "random", "--n", "24", "--seed", "4")),
            (u2, ("gen", "random", "--n", "24", "--seed", "5")),
        ):
            proc = _cli(*argv)
            assert proc.returncode == 0, (argv, proc.stderr)
            path.write_bytes(proc.stdout)
        commands = [
            ("gen", "random", "--n", "50", "--seed", "12"),
            ("gen", "random", "--n", "50", "--model", "yule", "--seed", "12"),
            ("gen", "enumerate", "--n", "5"),
            ("gen", "swap-pair", "--k", "2"),
            ("mast", str(t1), str(t2)),
            ("match1", str(t1), str(t2), "--trace"),
            ("match2", str(t1), str(t1)),
            ("agree", str(u1), str(u2)),
            ("decompose", str(u1)),
            ("bounds", "--n", "4096"),
            (
                "bench", "--n", "8,16", "--trials", "3", "--seed", "21",
                "--algorithms", "match1,match2,agree", "--out", "trials.csv",
            ),
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                proc = _cli(*argv, cwd=tmp_path)
                assert proc.returncode == 0, (argv, proc.stderr)
                extra = b""
                if "bench" in argv[0]:
                    extra = (tmp_path / "trials.csv").read_bytes()
                runs.append(proc.stdout + extra)
            assert runs[0] == runs[1], argv
