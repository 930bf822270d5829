"""Command-line front end.

Subcommands: gen (tree construction), mast (exact oracle), match1 / match2 /
match-multi / match-ab (guaranteed greedy matchers), agree (general
pipeline), decompose (balanced-or-path split), bounds (constant tables),
and bench (trial harness with CSV persistence).

Exit codes: 0 success with every guarantee met; 1 usage or input errors,
or out of memory; 2 a guarantee bound was violated (the loudest signal this
harness can produce, since it would contradict a proved inequality).

Every command is deterministic given explicit seeds; bench rows carry
runtime_ms = 0 unless --measure-time is passed, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import bounds as bnd
from . import decompose as dc
from . import exactmast as xm
from . import generators as gen
from . import matchers as mt
from .treecore import (
    RootedTree,
    TreeError,
    classify_balanced,
    parse_newick,
    to_newick,
)
from .treeops import verify_agreement

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND_VIOLATED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is 2; we use 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_tree(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_newick(fh.read().strip())


def _parse_delta(text: str):
    if text == "optimal":
        return None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--delta must be a number or 'optimal', got {text!r}") from None


def _emit_report(args, payload: dict):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            if key == "witness":
                value = " ".join(str(x) for x in value)
            print(f"{key}: {value}")


def _finish(args, algorithm, trees, witness, bound_value, params, extra=None, cert=None):
    """Verify (unless ``cert`` already checked the first two trees), report,
    and turn a matcher result into an exit code."""
    witness = frozenset(witness)
    if cert is None:
        cert = verify_agreement(trees[0], trees[1], witness)
    for other in trees[2:]:
        verify_agreement(trees[0], other, witness)
        verify_agreement(trees[1], other, witness)
    report = bnd.GuaranteeReport(algorithm, bnd.clamp(bound_value), len(witness), params)
    payload = {
        "algorithm": algorithm,
        "result_size": len(witness),
        "witness": sorted(witness),
        "certificate": cert.restricted_shape,
        "bound_value": round(report.bound_value, 9),
        "achieved": report.achieved,
        "bound_met": report.satisfied,
        **{k: (round(v, 9) if isinstance(v, float) else v) for k, v in params.items()},
    }
    if extra:
        payload.update(extra)
    _emit_report(args, payload)
    return EXIT_OK if report.satisfied else EXIT_BOUND_VIOLATED


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------


def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "balanced":
        print(to_newick(gen.gen_balanced(_req(args, "m"))))
    elif kind == "caterpillar":
        print(to_newick(gen.gen_caterpillar(_req(args, "n"), rooted=args.rooted)))
    elif kind == "random":
        model = gen.RandomModel(args.model, args.seed)
        print(to_newick(gen.gen_random(_req(args, "n"), model, rooted=args.rooted)))
    elif kind == "fhk":
        print(to_newick(gen.gen_extremal_fhk(_req(args, "h"), _req(args, "k"))))
    elif kind == "swap-pair":
        t1, t2 = gen.gen_swap_pair(_req(args, "k"), rooted=not args.unrooted)
        print(to_newick(t1))
        print(to_newick(t2))
    elif kind == "enumerate":
        for t in gen.enumerate_topologies(_req(args, "n"), rooted=args.rooted):
            print(to_newick(t))
    return EXIT_OK


def _req(args, name):
    value = getattr(args, name, None)
    if value is None:
        print(f"gen {args.kind}: missing --{name}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return value


# --------------------------------------------------------------------------
# compute commands
# --------------------------------------------------------------------------


def cmd_mast(args) -> int:
    t1 = _read_tree(args.tree1)
    t2 = _read_tree(args.tree2)
    if isinstance(t1, RootedTree) != isinstance(t2, RootedTree):
        raise TreeError("both trees must be of the same kind")
    result = xm.mast_rooted(t1, t2) if isinstance(t1, RootedTree) else xm.mast_unrooted(t1, t2)
    _emit_report(
        args,
        {
            "algorithm": "mast-exact",
            "result_size": result.size,
            "witness": sorted(result.witness),
            "certificate": result.certificate.restricted_shape,
        },
    )
    return EXIT_OK


def cmd_match1(args) -> int:
    t1 = _read_tree(args.tree1)
    t2 = _read_tree(args.tree2)
    delta = _parse_delta(args.delta)
    if delta is None:
        delta = bnd.optimal_delta_match1()[0]
    if isinstance(t1, RootedTree):
        leaves, trace = mt.match1(t1, t2, delta)
        if args.trace:
            for step in trace.steps:
                print(json.dumps(asdict(step), sort_keys=True))
        bound = bnd.match1_bound(trace.m, trace.t0, delta)
        return _finish(
            args, "match1", (t1, t2), leaves, bound,
            {"delta": delta, "m": trace.m, "t": trace.t0},
        )
    leaves = mt.match1_unrooted(t1, t2, delta)
    n = t1.nleaves
    bound = bnd.alpha(delta) * math.log2(2 * n / 3)
    return _finish(
        args, "match1-unrooted", (t1, t2), leaves, bound, {"delta": delta, "n": n}
    )


def cmd_match2(args) -> int:
    t1 = _read_tree(args.tree1)
    t2 = _read_tree(args.tree2)
    delta = _parse_delta(args.delta)
    if delta is None:
        delta = bnd.optimal_delta_match2()[0]
    if isinstance(t1, RootedTree):
        leaves, trace = mt.match2(t1, t2, delta)
        if args.trace:
            print(json.dumps(asdict(trace.root), sort_keys=True))
        bound = bnd.match2_bound(trace.m1, trace.m2, trace.t0, delta)
        return _finish(
            args, "match2", (t1, t2), leaves, bound,
            {"delta": delta, "m1": trace.m1, "m2": trace.m2, "t": trace.t0},
        )
    cls = classify_balanced(t1)
    leaves = mt.match2_unrooted(t1, t2, delta)
    bound = 2.0 ** (bnd.beta(delta) * cls.m - bnd.t2_constant(delta))
    return _finish(
        args, "match2-unrooted", (t1, t2), leaves, bound,
        {"delta": delta, "m": cls.m, "class": cls.kind},
    )


def cmd_match_multi(args) -> int:
    trees = [_read_tree(path) for path in args.trees]
    delta = _parse_delta(args.delta)
    if delta is None:
        delta = min(bnd.optimal_delta_match2()[0], bnd.BETA_DELTA_SUP / 2)
    leaves = mt.match2_multi(trees, delta)
    # The only unconditional guarantee for the iterated scheme is >= 1; the
    # composed two-stage estimate is reported informationally.
    m = trees[0].height
    composed = 2.0 ** (bnd.beta(delta) ** (len(trees) - 1) * m)
    return _finish(
        args, "match2-multi", tuple(trees), leaves, 1.0,
        {"delta": delta, "m": m, "trees": len(trees)},
        extra={"composed_estimate": round(composed, 6)},
    )


def cmd_match_ab(args) -> int:
    t1 = _read_tree(args.tree1)
    t2 = _read_tree(args.tree2)
    k = args.k
    n = t1.nleaves
    leaves, mode, delta = mt.match_almost_balanced(
        t1, t2, k, delta=_parse_delta(args.delta), mode=args.mode
    )
    if mode == "both":
        bound = n ** bnd.beta_k(k, delta)
    else:
        bound = bnd.alpha_k(k, delta) * math.log2(n)
    return _finish(
        args, "match-almost-balanced", (t1, t2), leaves, bound,
        {"delta": delta, "k": k, "mode": mode, "n": n},
    )


def cmd_agree(args) -> int:
    t1 = _read_tree(args.tree1)
    t2 = _read_tree(args.tree2)
    leaves, report = dc.agree_general(t1, t2)
    return _finish(
        args, "agree", (t1, t2), leaves, report.bound_value, report.params,
        cert=report.certificate,
    )


def cmd_decompose(args) -> int:
    t = _read_tree(args.tree)
    outcome = dc.ramsey_split(t, args.a)
    print(json.dumps(outcome.as_dict(), sort_keys=True))
    return EXIT_OK if outcome.meets_threshold() else EXIT_BOUND_VIOLATED


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    if args.fmax < 0:
        raise ValueError(f"--fmax must be at least 0, got {args.fmax}")
    if args.n is not None and args.n <= 2:
        raise ValueError(f"--n must be greater than 2, got {args.n}")
    d1, a1 = bnd.optimal_delta_match1()
    d2, b2 = bnd.optimal_delta_match2()
    print(f"delta1*: {d1:.6f}")
    print(f"alpha*:  {a1:.6f}")
    print(f"delta2*: {d2:.6f}")
    print(f"beta*:   {b2:.6f}")
    print(f"c(delta2*): {bnd.t2_constant(d2):.6f}")
    print()
    hmax = args.fmax
    print(f"f(h,k) for h <= {hmax} (rows h, columns k):")
    for h in range(hmax + 1):
        row = " ".join(str(bnd.f_closed(h, k)) for k in range(h + 1))
        print(f"  h={h}: {row}")
    if args.n is not None:
        n = args.n
        print()
        print(f"thresholds for n={n} (a = b = 1/2):")
        print(f"  phi: {bnd.phi(n, 0.5):.6f}")
        print(f"  psi: {bnd.psi(n, 0.5):.6f}")
        print(f"  balanced height threshold: {bnd.slack_ceil(bnd.phi(n, 0.5))}")
        print(f"  path length threshold: {bnd.slack_ceil(math.log2(n) ** bnd.psi(n, 0.5))}")
        print(f"  general bound: {bnd.clamp(bnd.general_bound(n)):.6f}")
    return EXIT_OK


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------

@dataclass
class TrialRecord:
    """One bench trial; the CSV schema is exactly this field order."""

    n: int
    model: str
    seed: int
    algorithm: str
    delta: float | str
    result_size: int
    bound_value: float | str
    exact_size: int | str
    runtime_ms: int
    certificate_ok: bool

    def as_row(self) -> dict:
        row = dict(self.__dict__)
        if isinstance(self.delta, float):
            row["delta"] = f"{self.delta:.9f}"
        if isinstance(self.bound_value, float):
            row["bound_value"] = f"{self.bound_value:.9f}"
        return row


TRIAL_FIELDS = list(TrialRecord.__dataclass_fields__)
BENCH_ALGORITHMS = ("match1", "match2", "agree", "mast-floor")


def _bench_trial(algorithm: str, n: int, model_kind: str, seed: int, measure: bool) -> TrialRecord:
    """One trial; deterministic for a given seed."""
    started = time.perf_counter()
    delta = ""
    bound = ""
    exact = ""
    model = model_kind
    if algorithm == "mast-floor":
        result = exact = xm.mast_floor(n)
        ok = True
        model = "enumeration"
    else:
        if algorithm == "match1":
            m = int(math.log2(n))
            t1 = gen.gen_balanced(m)
            t2 = gen.gen_random(n, gen.RandomModel(model_kind, seed), rooted=True)
            delta = bnd.optimal_delta_match1()[0]
            leaves, _ = mt.match1(t1, t2, delta)
            bound = bnd.clamp(bnd.match1_bound(m, n, delta))
        elif algorithm == "match2":
            m = int(math.log2(n))
            rng = gen.SplitMix64(seed)
            t1 = gen.gen_balanced(m)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            t2 = gen.relabel(gen.gen_balanced(m), {i + 1: perm[i] for i in range(n)})
            delta = bnd.optimal_delta_match2()[0]
            leaves, _ = mt.match2(t1, t2, delta)
            bound = bnd.clamp(bnd.match2_bound(m, m, n, delta))
            model = "permutation"
        else:  # agree
            rng = gen.SplitMix64(seed)
            t1 = gen.gen_random(n, gen.RandomModel(model_kind, rng.next_u64()))
            t2 = gen.gen_random(n, gen.RandomModel(model_kind, rng.next_u64()))
            leaves, report = dc.agree_general(t1, t2)
            delta = report.params.get("delta", "")
            bound = report.bound_value
        try:  # agree_general has checked its witness: the report holds the certificate
            cert = report.certificate if algorithm == "agree" else verify_agreement(t1, t2, leaves)
            ok = cert is not None
        except TreeError:
            ok = False
        if n <= dc.EXACT_CUTOFF:  # agree_general's attempts include the exact MAST there
            exact = len(leaves) if algorithm == "agree" else xm.mast_rooted(t1, t2).size
        result = len(leaves)
    runtime_ms = int((time.perf_counter() - started) * 1000) if measure else 0
    return TrialRecord(
        n, model, seed, algorithm, delta, result, bound, exact, runtime_ms, ok
    )


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    last = args.seed + args.trials - 1
    if args.seed < 0 or last >= 2**64:
        raise ValueError(f"trial seeds must be in [0, 2^64), got {args.seed} to {last}")
    items = args.n.split(",")
    for item in items:
        if not item.strip().isdecimal() or int(item) < 1:
            raise ValueError(f"--n items must be positive integers, got {item!r}")
    ns = [int(item) for item in items]
    algorithms = args.algorithms.split(",")
    for flag, plan in (("--n", ns), ("--algorithms", algorithms)):
        for i, item in enumerate(plan):
            if item in plan[:i]:
                raise ValueError(f"{flag} items must be distinct, got {item!r} twice")
    for algorithm in algorithms:
        if algorithm not in BENCH_ALGORITHMS:
            raise ValueError(
                f"--algorithms items must be {', '.join(BENCH_ALGORITHMS)}, got {algorithm!r}"
            )
        for n in ns:
            if algorithm in ("match1", "match2") and n & (n - 1):
                raise ValueError(f"--n items must be powers of 2 for {algorithm}, got {n}")
            if algorithm in ("agree", "mast-floor") and n < 3:
                raise ValueError(f"--n items must be at least 3 for {algorithm}, got {n}")
            if algorithm == "mast-floor" and n > xm.FLOOR_GUARD and not gen.guards_lifted():
                raise ValueError(
                    f"--n items must be at most {xm.FLOOR_GUARD} for mast-floor "
                    f"unless AGREETREE_GUARDS=off, got {n}"
                )
    out_dir = os.path.dirname(args.out) or "."
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        raise OSError(f"cannot write {args.out}: {out_dir!r} is not a writable directory")
    rows = []
    for algorithm in algorithms:
        for n in ns:
            if algorithm == "mast-floor":
                rows.append(_bench_trial(algorithm, n, args.model, args.seed, args.measure_time))
                continue
            for trial in range(args.trials):
                rows.append(
                    _bench_trial(algorithm, n, args.model, args.seed + trial, args.measure_time)
                )
    bad = [r for r in rows if not r.certificate_ok]
    if bad and not args.allow_invalid:
        print(
            f"agreetree bench: {len(bad)} trial(s) produced invalid certificates; "
            "refusing to persist (use --allow-invalid to keep them)",
            file=sys.stderr,
        )
        return EXIT_BOUND_VIOLATED
    rows.sort(key=lambda r: (r.algorithm, r.n, r.seed))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=TRIAL_FIELDS)
    writer.writeheader()
    writer.writerows(r.as_row() for r in rows)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buffer.getvalue())
    except OSError as exc:
        raise OSError(f"cannot write {args.out}: {exc}") from exc
    violated = False
    for algorithm in algorithms:
        for n in ns:
            group = [r for r in rows if r.algorithm == algorithm and r.n == n]
            if not group:
                continue
            sizes = [r.result_size for r in group]
            bounds_ = [r.bound_value for r in group if isinstance(r.bound_value, float)]
            bound_txt = f"{max(bounds_):.6f}" if bounds_ else "n/a"
            mean = sum(sizes) / len(sizes)
            print(
                f"summary algorithm={algorithm} n={n} trials={len(group)} "
                f"min={min(sizes)} mean={mean:.3f} bound={bound_txt}"
            )
            if any(
                isinstance(r.bound_value, float)
                and r.result_size < r.bound_value - bnd.SLACK
                for r in group
            ):
                violated = True
    return EXIT_BOUND_VIOLATED if violated else EXIT_OK


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="agreetree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit trees as Newick text")
    p.add_argument("kind", choices=["balanced", "caterpillar", "random", "fhk", "swap-pair", "enumerate"])
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--model", choices=[gen.UNIFORM, gen.YULE], default=gen.UNIFORM)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rooted", action="store_true")
    p.add_argument("--unrooted", action="store_true")

    options = {
        "--delta": {"default": "optimal"},
        "--trace": {"action": "store_true"},
        "--format": {"choices": ["text", "json"], "default": "text"},
    }

    def compute(name, flags, ntrees=2):
        """A compute command with its tree arguments and only the options
        its handler reads."""
        q = sub.add_parser(name)
        if ntrees == 1:
            q.add_argument("tree")
        elif ntrees == 2:
            q.add_argument("tree1")
            q.add_argument("tree2")
        else:
            q.add_argument("trees", nargs="+")
        for flag in flags:
            q.add_argument(flag, **options[flag])
        return q

    compute("mast", ["--format"])
    compute("match1", ["--delta", "--trace", "--format"])
    compute("match2", ["--delta", "--trace", "--format"])
    compute("match-multi", ["--delta", "--format"], ntrees=3)
    q = compute("match-ab", ["--delta", "--format"])
    q.add_argument("--k", type=float, required=True)
    q.add_argument("--mode", choices=["auto", "single", "both"], default="auto")
    compute("agree", ["--format"])
    q = compute("decompose", [], ntrees=1)
    q.add_argument("--a", type=float, default=0.5)

    p = sub.add_parser("bounds", help="print guarantee constants and tables")
    p.add_argument("--n", type=int)
    p.add_argument("--fmax", type=int, default=10)

    p = sub.add_parser("bench", help="run trials and persist a CSV")
    p.add_argument("--n", required=True, help="comma-separated leaf counts")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--model", choices=[gen.UNIFORM, gen.YULE], default=gen.UNIFORM)
    p.add_argument("--algorithms", default="match1,match2,agree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--measure-time", action="store_true")
    p.add_argument("--allow-invalid", action="store_true")

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built by a process's first command and kept: a caller
    running many commands in one process (tests, the bench) builds one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # A command allocates hundreds of thousands of tree objects and no
    # cycles, so the cyclic collector's passes are pure cost; reference
    # counting frees the trees.  The caller's GC state comes back after.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # by name, so a handler replaced after the parser was built runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:  # TreeError is a ValueError
        print(f"agreetree {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"agreetree {args.command}: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
