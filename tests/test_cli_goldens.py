"""CLI goldens: the stdout, exit code and CSV of fixed commands, byte for byte.

Each case runs ``agreetree.cli.main`` in-process and compares its output
with the files under ``tests/goldens/cli/``: ``<case>.out`` (stdout),
``<case>.csv`` (the ``bench`` CSV) and ``exit_codes.json``.  The tree
inputs are the recorded stdout of the ``gen`` cases (``gen`` with fixed
seeds, at most 128 leaves), plus four literal balanced unrooted trees, so a
change to ``gen`` fails only the ``gen`` cases.

A deliberate output change re-records every golden with

    PYTHONPATH=src python tests/test_cli_goldens.py

and names the change in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from agreetree.cli import main

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens" / "cli"

CASES = {
    # gen: also the inputs of the cases below
    "gen-balanced-m3": ["gen", "balanced", "--m", "3"],
    "gen-balanced-m4": ["gen", "balanced", "--m", "4"],
    "gen-balanced-m7": ["gen", "balanced", "--m", "7"],
    "gen-caterpillar-n24": ["gen", "caterpillar", "--n", "24"],
    "gen-caterpillar-n16-rooted": ["gen", "caterpillar", "--n", "16", "--rooted"],
    "gen-random-n16-rooted-s9": ["gen", "random", "--n", "16", "--rooted", "--seed", "9"],
    "gen-random-n128-rooted-yule-s3": [
        "gen", "random", "--n", "128", "--rooted", "--model", "yule", "--seed", "3",
    ],
    "gen-random-n24-s1": ["gen", "random", "--n", "24", "--seed", "1"],
    "gen-random-n24-s2": ["gen", "random", "--n", "24", "--seed", "2"],
    "gen-random-n100-s1": ["gen", "random", "--n", "100", "--seed", "1"],
    "gen-random-n100-s2": ["gen", "random", "--n", "100", "--seed", "2"],
    "gen-random-n32-yule-s4": ["gen", "random", "--n", "32", "--model", "yule", "--seed", "4"],
    "gen-random-n32-yule-s5": ["gen", "random", "--n", "32", "--model", "yule", "--seed", "5"],
    "gen-random-n128-yule-s1": ["gen", "random", "--n", "128", "--model", "yule", "--seed", "1"],
    "gen-random-n128-yule-s2": ["gen", "random", "--n", "128", "--model", "yule", "--seed", "2"],
    "gen-fhk-h6-k2": ["gen", "fhk", "--h", "6", "--k", "2"],
    "gen-swap-pair-k2": ["gen", "swap-pair", "--k", "2"],
    "gen-swap-pair-k3": ["gen", "swap-pair", "--k", "3"],
    "gen-swap-pair-k2-unrooted": ["gen", "swap-pair", "--k", "2", "--unrooted"],
    "gen-enumerate-n5": ["gen", "enumerate", "--n", "5"],
    "gen-enumerate-n4-rooted": ["gen", "enumerate", "--n", "4", "--rooted"],
    # exact oracle
    "mast-rooted": ["mast", "{bal4}", "{rnd16r}"],
    "mast-unrooted-json": ["mast", "{uni24a}", "{uni24b}", "--format", "json"],
    "mast-swap-k3": ["mast", "{swap3a}", "{swap3b}"],
    "mast-kinds-rooted-first": ["mast", "{bal4}", "{classb4}"],
    "mast-kinds-unrooted-first": ["mast", "{classb4}", "{bal4}"],
    # matchers
    "match1-rooted-trace": ["match1", "{bal4}", "{rnd16r}", "--trace"],
    "match1-rooted-128-trace-json": [
        "match1", "{bal7}", "{yule128r}", "--trace", "--format", "json",
    ],
    "match1-delta": ["match1", "{bal4}", "{rnd16r}", "--delta", "0.3"],
    "match1-class-b": ["match1", "{classb4}", "{classb4p}"],
    "match1-class-c-trace": ["match1", "{classc4}", "{classc4p}", "--trace"],
    "match1-kinds-rooted-first": ["match1", "{bal4}", "{classb4}"],
    "match2-rooted-trace": ["match2", "{swap3a}", "{swap3b}", "--trace"],
    "match2-class-b-json": ["match2", "{classb4}", "{classb4p}", "--format", "json"],
    "match2-class-c": ["match2", "{classc4}", "{classc4p}"],
    "match2-swap-unrooted": ["match2", "{swapu2a}", "{swapu2b}"],
    "match2-kinds-rooted-first": ["match2", "{bal4}", "{classb4}"],
    "match-multi": ["match-multi", "{swap2a}", "{swap2b}", "{bal4}"],
    "match-ab-single": ["match-ab", "{yule128a}", "{yule128b}", "--k", "3", "--mode", "single"],
    "match-ab-both": ["match-ab", "{yule128a}", "{yule128b}", "--k", "4", "--mode", "both"],
    "match-ab-auto": ["match-ab", "{yule32a}", "{yule32b}", "--k", "3"],
    # pipeline and split
    "agree-n24": ["agree", "{uni24a}", "{uni24b}"],
    "agree-n100-json": ["agree", "{uni100a}", "{uni100b}", "--format", "json"],
    "agree-caterpillar": ["agree", "{cat24}", "{uni24a}"],
    "decompose-balanced": ["decompose", "{bal7}"],
    "decompose-path": ["decompose", "{cat24}"],
    "decompose-fhk-a03": ["decompose", "{fhk}", "--a", "0.3"],
    # constants
    "bounds-default": ["bounds"],
    "bounds-n4096": ["bounds", "--n", "4096", "--fmax", "4"],
    "bounds-n65536": ["bounds", "--n", "65536", "--fmax", "0"],
    # bench: stdout and CSV
    "bench-match1": [
        "bench", "--n", "16,32", "--trials", "3", "--algorithms", "match1",
        "--seed", "5", "--out", "{csv}",
    ],
    "bench-match2": [
        "bench", "--n", "16,64", "--trials", "3", "--algorithms", "match2", "--out", "{csv}",
    ],
    "bench-agree": [
        "bench", "--n", "24,100", "--trials", "2", "--algorithms", "agree",
        "--seed", "3", "--out", "{csv}",
    ],
    "bench-mast-floor": ["bench", "--n", "3,4,5", "--algorithms", "mast-floor", "--out", "{csv}"],
    "bench-yule-default-algorithms": [
        "bench", "--n", "16", "--trials", "2", "--model", "yule", "--out", "{csv}",
    ],
}

# input name -> (gen case, line of its stdout)
GEN_INPUTS = {
    "bal3": ("gen-balanced-m3", 0),
    "bal4": ("gen-balanced-m4", 0),
    "bal7": ("gen-balanced-m7", 0),
    "cat24": ("gen-caterpillar-n24", 0),
    "rnd16r": ("gen-random-n16-rooted-s9", 0),
    "yule128r": ("gen-random-n128-rooted-yule-s3", 0),
    "uni24a": ("gen-random-n24-s1", 0),
    "uni24b": ("gen-random-n24-s2", 0),
    "uni100a": ("gen-random-n100-s1", 0),
    "uni100b": ("gen-random-n100-s2", 0),
    "yule32a": ("gen-random-n32-yule-s4", 0),
    "yule32b": ("gen-random-n32-yule-s5", 0),
    "yule128a": ("gen-random-n128-yule-s1", 0),
    "yule128b": ("gen-random-n128-yule-s2", 0),
    "fhk": ("gen-fhk-h6-k2", 0),
    "swap2a": ("gen-swap-pair-k2", 0),
    "swap2b": ("gen-swap-pair-k2", 1),
    "swap3a": ("gen-swap-pair-k3", 0),
    "swap3b": ("gen-swap-pair-k3", 1),
    "swapu2a": ("gen-swap-pair-k2-unrooted", 0),
    "swapu2b": ("gen-swap-pair-k2-unrooted", 1),
}

# Balanced unrooted trees: class B_4 and class C_4 (gen_class_b(4),
# gen_class_c(4)), and copies relabelled by seeded splitmix64 shuffles.
LITERAL_INPUTS = {
    "classb4": "(1,2,((3,4),(((5,6),(7,8)),(((9,10),(11,12)),((13,14),(15,16))))));",
    "classb4p": "(1,2,(((((3,5),(10,15)),((7,14),(8,16))),((6,9),(12,13))),(4,11)));",
    "classc4": (
        "(1,2,((3,4),(((5,6),(7,8)),((((9,10),(11,12)),((13,14),(15,16))),"
        "(((17,18),(19,20)),((21,22),(23,24)))))));"
    ),
    "classc4p": (
        "(1,((((((2,15),(10,11)),((3,24),(6,23))),(((5,7),(13,19)),((14,17),"
        "(16,18)))),((4,21),(8,20))),(9,22)),12);"
    ),
}


def write_inputs(directory: pathlib.Path) -> dict:
    """Write every input tree into ``directory``; {name: path}."""
    paths = {}
    texts = dict(LITERAL_INPUTS)
    for name, (case, line) in GEN_INPUTS.items():
        texts[name] = (GOLDENS / f"{case}.out").read_text().splitlines()[line]
    for name, text in texts.items():
        path = directory / f"{name}.nwk"
        path.write_text(text + "\n")
        paths[name] = str(path)
    return paths


def run_case(name: str, directory: pathlib.Path, paths: dict):
    """(exit code, stdout, CSV bytes or None) of one case."""
    csv_path = directory / f"{name}.csv"
    argv = [arg.format(csv=csv_path, **paths) for arg in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    csv = csv_path.read_bytes() if csv_path.exists() else None
    return code, stdout.getvalue(), csv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    return directory, write_inputs(directory)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_golden(name, inputs, monkeypatch):
    monkeypatch.delenv("AGREETREE_GUARDS", raising=False)
    directory, paths = inputs
    code, stdout, csv = run_case(name, directory, paths)
    assert code == json.loads((GOLDENS / "exit_codes.json").read_text())[name]
    assert stdout == (GOLDENS / f"{name}.out").read_text()
    golden_csv = GOLDENS / f"{name}.csv"
    assert csv == (golden_csv.read_bytes() if golden_csv.exists() else None)


def record():
    """Re-record every golden from the code on ``sys.path``."""
    import os
    import tempfile

    os.environ.pop("AGREETREE_GUARDS", None)
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for stale in GOLDENS.iterdir():
        stale.unlink()
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        paths = {}
        for name in CASES:
            if not name.startswith("gen-") and not paths:
                paths = write_inputs(directory)  # after every gen case ran
            codes[name], stdout, csv = run_case(name, directory, paths)
            (GOLDENS / f"{name}.out").write_text(stdout)
            if csv is not None:
                (GOLDENS / f"{name}.csv").write_bytes(csv)
    (GOLDENS / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(record())
