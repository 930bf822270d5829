"""Smoke tests for the scripts under ``scripts/``, run as a user would run
them, in a fresh interpreter.

``derive_mast_floor.py`` is not run: it rewrites
``tests/goldens/mast_floor.json``.
"""

import pathlib
import subprocess
import sys

from cliproc import cli_env

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_swap_pair_study_small():
    """The exact oracles give MAST 2^k rooted and 3 * 2^(k-1) unrooted on
    the swap pairs k = 1, 2."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "swap_pair_study.py"), "--kmax", "2"],
        capture_output=True,
        text=True,
        timeout=300,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "k=1 n=4: rooted mast=2 " in proc.stdout
    assert "k=2 n=16: rooted mast=4 " in proc.stdout
    rows = {line.split(":")[0]: line for line in proc.stdout.splitlines()}
    assert "unrooted mast=3 " in rows["k=1 n=4"]
    assert "unrooted mast=6 " in rows["k=2 n=16"]
