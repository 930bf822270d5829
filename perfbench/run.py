"""agreetree benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload wide --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Workloads (see workloads.py): ``wide``
(large shallow trees, parse-bound) and ``deep`` (4096-leaf caterpillars,
the deepest shape that runs at the seed commit), both in BENCHMARK.json,
and ``oracle`` (the exact MAST dynamic programs), which runs the same way
but is left out of BENCHMARK.json because its timings are not steady
enough to gate on (see README.md).

The workload runs in a fresh child process (worker.py).  With ``--trace 0``
the last line carries the end-to-end metrics of BENCHMARK.json, with times
scaled to the reference host speed (hostspeed.py); with
``--trace 1`` the per-layer metrics from a traced run, whose spans are
written to ``.perfbench_out/``.  Lines before it are a readable report:
every metric with its unit, the per-command medians, the failure ratio,
the wall-clock times and the host's slowdown, the environment and, for
traced runs, the baseline sanity notes.

The exit code is 0 only if a result was printed.  ``--size tiny`` is the
self-test mode (see test_perfbench.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
COMMANDS = ("agree", "match1", "match2", "mast", "decompose", "gen")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _environment():
    sources = sorted((ROOT / "src" / "agreetree").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "none (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["wide", "deep", "oracle"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "agreetree" / "__init__.py").is_file():
        _fail(f"no agreetree sources under {ROOT / 'src'}; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {spec_path}: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = _environment()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
        "--spawned-at-ns", str(time.monotonic_ns()),
    ]
    try:
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _fail(f"workload {args.workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        _fail(f"worker exited with code {child.returncode}")
    result = json.loads(lines[-1])

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        _fail(f"worker did not measure {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{result['cycles']} cycles x {result['ops_per_cycle']} ops in {args.seconds:g} s")
    print("environment: " + " ".join(f"{k}={_fmt(v)}" for k, v in env.items()))
    for name, entry in metrics.items():
        print(f"  {name:32s} {_fmt(entry['value']):>14s} {entry['unit']}")
    report = result["report"]
    if args.trace:
        for note in report["baseline_sanity"]:
            print(f"  baseline sanity: {note}")
    else:
        print(f"  {'fail_ratio':32s} {_fmt(report['fail_ratio']):>14s} ratio")
        print(f"  host slowdown (wall / scaled time): {_fmt(report['host_slowdown'])}; "
              "wall clock: " + ", ".join(f"{k} {_fmt(v)}" for k, v in report["wall"].items()))
        for command in COMMANDS:
            value = report["command_ms"].get(f"{command}_ms")
            shown = f"{_fmt(value):>14s} ms (n={report['command_samples'][command]})" if value is not None else (
                f"{'n/a':>14s}    (not in this workload)")
            print(f"  {command + '_ms':32s} {shown}")
        tail = report["tail"]
        print(f"  op_p90_ms is over {report['samples']} samples, {report['beyond_p90']} beyond it; "
              + (f"highest percentile with 10 beyond: p{tail['percentile']} = {_fmt(tail['ms'])} ms"
                 if tail else "no percentile has 10 samples beyond it"))
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
