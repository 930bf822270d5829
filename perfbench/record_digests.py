"""Record the stdout digest of every op at the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  Run it only on a commit whose CLI output is
the reference (byte-identical CLI output is a ROADMAP invariant): the
benchmark then fails every default-seed op whose stdout differs.  Each
output must pass its semantic check before it is recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

from worker import DIGESTS, ROOT, WORK, Verifier, execute

sys.path.insert(0, str(ROOT / "src"))

import agreetree.cli as cli  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402


def main():
    digests = {}
    for name, build in WORKLOADS.items():
        for size in SIZES:
            workdir = WORK / f"record-{name}-{size}-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                verifier = Verifier(None)
                entry = {}
                for op in build(DEFAULT_SEED, SIZES[size], str(workdir)):
                    _, stdout, error = execute(cli, op)
                    if not verifier.verify(op, stdout, error):
                        raise SystemExit(f"{name}/{size}: {verifier.failures[-1]}")
                    entry[op.label] = hashlib.sha256(stdout.encode()).hexdigest()
                digests[f"{name}/{size}"] = entry
                print(f"{name}/{size}: {len(entry)} ops", file=sys.stderr)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
