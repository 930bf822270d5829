"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this file as a fresh child process per workload, so
``ru_maxrss`` belongs to that workload alone, and the child caps its own
address space so that a memory regression shows up as counted
``MemoryError`` failures instead of an OOM kill of the machine.

The loop is closed: one client, one process, no threads.  Every op is one
in-process ``agreetree.cli.main(argv)`` call; ops of a workload run
round-robin in whole cycles until the next cycle would overrun the
measuring time.  ``gc.collect()``, the output checks and the host-speed
samples (see hostspeed.py) run outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

ADDRESS_SPACE_CAP = 2 << 30  # bytes; deep peaks near 370 MB resident
SETUP_REPS = 3

# Probe figures from ROADMAP.md that the traced run overlaps.
PROBE_AGREE_GENERAL_S = 2.1  # agree_general, uniform pair, n = 16384
PROBE_MATCH1_LEAVES_SHARE = 0.9  # match1 at m = 14, share in RootedTree.leaves


@dataclass
class Sample:
    label: str
    command: str
    seconds: float  # wall clock
    ok: bool
    scale: float = 1.0  # hostspeed.scale() of the op's cycle

    @property
    def scaled(self):
        return self.seconds * self.scale


def execute(cli, op):
    """Run one op; return (seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # MemoryError, RecursionError: a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return seconds, out.getvalue(), error


class Verifier:
    """Checks op outputs.  On the default seed the stdout digest must equal
    the one recorded at the seed commit; on every seed the first output of
    each op gets the full semantic check, and later outputs must repeat it
    byte for byte (the CLI is deterministic)."""

    def __init__(self, expected):
        self.expected = expected
        self.verified = {}
        self.failures = []

    def verify(self, op, stdout, error):
        if error is None:
            error = self._check(op, stdout)
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
        return error is None

    def _check(self, op, stdout):
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.expected is not None and self.expected.get(op.label) != digest:
            return "stdout digest differs from the one recorded at the seed commit"
        if op.label in self.verified:
            if self.verified[op.label] != digest:
                return "stdout differs from an earlier run of the same op"
            return None
        try:
            op.check(stdout)
        except Exception as exc:  # a malformed output is a failed op
            return f"check failed: {type(exc).__name__}: {exc}"
        self.verified[op.label] = digest
        return None


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def _percentile_report(times):
    """Highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return None
    rank = len(ordered) - 10
    return {"percentile": round(100 * rank / len(ordered), 1), "ms": ordered[rank - 1] * 1000}


def run_workload(name, seed, seconds, trace, size="full", import_s=0.0, expected=None, workdir=None):
    """Set up, warm up and measure one workload; return the result dict.

    ``expected`` maps op labels to recorded stdout digests (None: no digest
    check).  The metrics dict holds every end-to-end metric with
    ``trace=False`` and every per-layer metric with ``trace=True``.
    """
    import agreetree.cli as cli
    from workloads import SIZES, WORKLOADS

    workdir = Path(workdir) if workdir is not None else WORK / f"{name}-{os.getpid()}"
    build = WORKLOADS[name]
    try:
        rep_times, speeds = [], []
        for _ in range(SETUP_REPS):
            speeds.append(hostspeed.sample())
            started = time.perf_counter()
            _fresh_dir(workdir)
            ops = build(seed, SIZES[size], str(workdir))
            rep_times.append(time.perf_counter() - started)

        # One untimed warm-up op per command.  A traced run has tracemalloc
        # on here, so its alloc peak costs no measuring time.
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracemalloc.start()
        alloc_peak = 0
        warmup_s = 0.0
        for command in dict.fromkeys(op.command for op in ops):
            op = next(op for op in ops if op.command == command)
            speeds.append(hostspeed.sample())
            if trace:
                tracemalloc.reset_peak()
            warm_started = time.perf_counter()
            execute(cli, op)
            warmup_s += time.perf_counter() - warm_started
            if trace:
                alloc_peak = max(alloc_peak, tracemalloc.get_traced_memory()[1])
        if trace:
            tracemalloc.stop()
        setup_scale = hostspeed.scale(speeds)
        setup_wall_s = import_s + statistics.median(rep_times) + warmup_s

        verifier = Verifier(expected)
        plain, traced, per_op = [], [], {}
        totals = {"inclusive": Counter(), "calls": Counter(), "self": Counter(), "root_ns": 0}
        cycles = 0
        started = time.perf_counter()
        last = 0.0
        while cycles == 0 or time.perf_counter() - started + last <= seconds:
            cycle_started = time.perf_counter()
            speeds = []
            for op in ops:
                speeds.append(hostspeed.sample())
                elapsed, stdout, error = execute(cli, op)
                plain.append(Sample(op.label, op.command, elapsed, verifier.verify(op, stdout, error)))
            scale = hostspeed.scale(speeds)
            for sample in plain[-len(ops):]:
                sample.scale = scale
            if trace:
                for op_id, op in enumerate(ops):
                    tracer.op_id = cycles * len(ops) + op_id
                    traced.append(_traced_op(tracer, cli, op, verifier, totals, per_op))
            cycles += 1
            last = time.perf_counter() - cycle_started

        samples = plain + traced
        failed = sum(not s.ok for s in samples)
        result = {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "failures": verifier.failures[:5],
            "cycles": cycles,
            "ops_per_cycle": len(ops),
        }
        if trace:
            result["metrics"] = _layer_metrics(tracer, totals, cycles, plain, traced, alloc_peak)
            result["report"] = _sanity(name, size, per_op)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{name}-{size}-seed{seed}.csv")
        else:
            result["metrics"], result["report"] = _end_to_end(plain, setup_wall_s, setup_scale)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_op(tracer, cli, op, verifier, totals, per_op):
    """Run one op with the tracer installed and add its spans to the totals."""
    first = len(tracer.spans)
    tracer.install()
    try:
        elapsed, stdout, error = execute(cli, op)
    finally:
        tracer.remove()
    inclusive, calls, own, root_ns, nested = tracer.collect(first)
    if sum(own.values()) != root_ns:
        raise RuntimeError(f"{op.label}: layer self times do not add up to the op")
    totals["inclusive"].update(inclusive)
    totals["calls"].update(calls)
    totals["self"].update(own)
    totals["root_ns"] += root_ns
    per_op.setdefault(op.label, []).append((inclusive, nested))
    return Sample(op.label, op.command, elapsed, verifier.verify(op, stdout, error))


def _timings(times, ok):
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return {"ops_per_s": ok / sum(times), "op_p50_ms": statistics.median(times) * 1000,
            "op_p90_ms": p90 * 1000}


def _end_to_end(samples, setup_wall_s, setup_scale):
    """Times are scaled to the reference host speed (hostspeed.py); the
    report keeps the wall-clock ones.  ops_per_s counts verified ops per
    second spent in ops; the checks, host-speed samples and gc.collect()
    between ops are the benchmark's time, not the user's."""
    times = [s.scaled for s in samples]
    ok = sum(s.ok for s in samples)
    metrics = {
        "setup_s": setup_wall_s * setup_scale,
        **_timings(times, ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p90 = metrics["op_p90_ms"] / 1000
    by_command = {}
    for s in samples:
        by_command.setdefault(s.command, []).append(s.scaled)
    report = {
        "fail_ratio": (len(samples) - ok) / len(samples),
        "samples": len(samples),
        "beyond_p90": sum(t > p90 for t in times),
        "tail": _percentile_report(times),
        "command_ms": {f"{c}_ms": statistics.median(v) * 1000 for c, v in by_command.items()},
        "command_samples": {c: len(v) for c, v in by_command.items()},
        "wall": {"setup_s": setup_wall_s, **_timings([s.seconds for s in samples], ok)},
        "host_slowdown": statistics.median(1 / s.scale for s in samples),
    }
    return metrics, report


def _layer_metrics(tracer, totals, cycles, plain, traced, alloc_peak):
    """Per-layer values per cycle, keyed as in BENCHMARK.json."""
    from tracer import LAYERS

    ns = 1e-9 / cycles
    metrics = {f"{layer}.self_s": totals["self"][layer] * ns for layer in LAYERS}
    for name in tracer.names:
        metrics[f"{name}.s"] = totals["inclusive"][name] * ns
        metrics[f"{name}.calls"] = totals["calls"][name] / cycles
    for key, value in tracer.counts.items():
        metrics[key] = value / cycles
    steps = metrics["matchers.match1.steps"]
    metrics["matchers.match1.emit_ratio"] = metrics["matchers.match1.emitted"] / steps if steps else 0.0
    traced_s = sum(s.seconds for s in traced)
    metrics["trace.wall_s"] = totals["root_ns"] * ns
    metrics["trace.overhead_pct"] = 100 * (traced_s / sum(s.seconds for s in plain) - 1)
    metrics["trace.alloc_peak_mb"] = alloc_peak / 2**20
    return metrics


def _sanity(name, size, per_op):
    """Compare the traced run with the overlapping ROADMAP.md probe figures."""
    notes = []
    if name != "wide" or size != "full":
        return {"baseline_sanity": notes}
    agree = [inc["decompose.agree_general"] * 1e-9 for inc, _ in per_op.get("agree-uniform", [])]
    if agree:
        value = statistics.median(agree)
        ratio = value / PROBE_AGREE_GENERAL_S
        notes.append(
            f"agree_general uniform n=16384: {value:.2f} s traced vs {PROBE_AGREE_GENERAL_S} s probe"
            + (" (differs by more than 2x)" if not 0.5 <= ratio <= 2 else " (within 2x)")
        )
    shares = [
        nested["matchers.match1>treecore.leaves"] / inc["matchers.match1"]
        for inc, nested in per_op.get("match1", [])
        if inc["matchers.match1"]
    ]
    if shares:
        share = statistics.median(shares)
        notes.append(
            f"match1 m=14: {100 * share:.0f}% of match1 in RootedTree.leaves vs "
            f"{100 * PROBE_MATCH1_LEAVES_SHARE:.0f}% probe"
            + (" (differs by more than 2x)" if share < PROBE_MATCH1_LEAVES_SHARE / 2 else " (within 2x)")
        )
    return {"baseline_sanity": notes}


def cap_address_space():
    """Lower this process's soft address-space limit to ADDRESS_SPACE_CAP."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def load_expected(name, size, seed):
    """Recorded digests for the default seed, else None."""
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[f"{name}/{size}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], required=True)
    parser.add_argument("--spawned-at-ns", type=int, required=True)
    args = parser.parse_args(argv)
    cap_address_space()
    sys.path.insert(0, str(ROOT / "src"))
    import agreetree.cli  # noqa: F401  (the import is part of set-up)

    import_s = (time.monotonic_ns() - args.spawned_at_ns) * 1e-9
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size, import_s,
        load_expected(args.workload, args.size, args.seed),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
