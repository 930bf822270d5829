import gc
import json
import subprocess
import sys

import pytest

from agreetree import cli
from agreetree.cli import main

from cliproc import cli_env
from oracles import count_calls


def run_cli(*argv):
    """Run the CLI in-process; returns (exit_code, stdout)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_proc(*argv):
    """Run the CLI in a fresh interpreter; returns the CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "agreetree.cli", *argv],
        capture_output=True,
        timeout=300,
        env=cli_env(),
    )


@pytest.fixture
def trees(tmp_path):
    def write(name, argv):
        code, out = run_cli("gen", *argv)
        assert code == 0
        path = tmp_path / name
        path.write_text(out)
        return str(path)

    return write


class TestGen:
    def test_balanced(self):
        assert run_cli("gen", "balanced", "--m", "2") == (0, "((1,2),(3,4));\n")

    def test_swap_pair(self):
        code, out = run_cli("gen", "swap-pair", "--k", "1")
        assert code == 0
        assert out.splitlines()[1] == "((1,3),(2,4));"

    def test_fhk_leaf_count(self):
        code, out = run_cli("gen", "fhk", "--h", "4", "--k", "2")
        assert code == 0
        assert out.count(",") == 10  # 11 leaves

    def test_fhk_size_cap(self, capsys):
        assert main(["gen", "fhk", "--h", "40", "--k", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "agreetree gen: f(h=40, k=20) is above the cap of 2^20 leaves" in captured.err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
    def test_random_seed_outside_64_bits(self, capsys, seed):
        """2^64 would print the seed-0 tree, and -1 that of 2^64 - 1."""
        assert main(["gen", "random", "--n", "12", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"agreetree gen: seed must be in [0, 2^64), got {seed}\n"

    def test_enumerate(self):
        code, out = run_cli("gen", "enumerate", "--n", "4")
        assert code == 0 and len(out.splitlines()) == 3

    def test_missing_param(self):
        with pytest.raises(SystemExit):
            run_cli("gen", "balanced")

    def test_enumerate_guard_env(self, monkeypatch, capsys):
        assert main(["gen", "enumerate", "--n", "8"]) == 1
        capsys.readouterr()
        monkeypatch.setenv("AGREETREE_GUARDS", "off")
        assert main(["gen", "enumerate", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 10395


class TestCompute:
    def test_mast_identical(self, trees):
        path = trees("a.nwk", ["balanced", "--m", "2"])
        code, out = run_cli("mast", path, path)
        assert code == 0
        assert "result_size: 4" in out

    def test_match1_rooted(self, trees):
        t1 = trees("t1.nwk", ["balanced", "--m", "3"])
        t2 = trees("t2.nwk", ["random", "--n", "8", "--rooted", "--seed", "3"])
        code, out = run_cli("match1", t1, t2)
        assert code == 0
        assert "bound_met: True" in out

    def test_match1_json(self, trees):
        t1 = trees("t1.nwk", ["balanced", "--m", "3"])
        t2 = trees("t2.nwk", ["random", "--n", "8", "--rooted", "--seed", "3"])
        code, out = run_cli("match1", t1, t2, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_met"] is True
        assert payload["achieved"] == payload["result_size"]

    def test_match1_trace(self, trees):
        t1 = trees("t1.nwk", ["balanced", "--m", "3"])
        t2 = trees("t2.nwk", ["random", "--n", "8", "--rooted", "--seed", "3"])
        code, out = run_cli("match1", t1, t2, "--trace")
        rules = [json.loads(line)["rule"] for line in out.splitlines() if line.startswith("{")]
        assert code == 0 and rules[-1] == "base"

    def test_match2_swap_pair(self, trees, tmp_path):
        code, out = run_cli("gen", "swap-pair", "--k", "2")
        lines = out.splitlines()
        p1 = tmp_path / "s1.nwk"
        p2 = tmp_path / "s2.nwk"
        p1.write_text(lines[0] + "\n")
        p2.write_text(lines[1] + "\n")
        code, out = run_cli("match2", str(p1), str(p2))
        assert code == 0
        assert "bound_met: True" in out

    def test_match2_unrooted(self, trees, tmp_path):
        code, out = run_cli("gen", "swap-pair", "--k", "1", "--unrooted")
        lines = out.splitlines()
        p1 = tmp_path / "u1.nwk"
        p2 = tmp_path / "u2.nwk"
        p1.write_text(lines[0] + "\n")
        p2.write_text(lines[1] + "\n")
        code, out = run_cli("match2", str(p1), str(p2))
        assert code == 0

    def test_agree(self, trees):
        t1 = trees("a.nwk", ["random", "--n", "32", "--seed", "1"])
        t2 = trees("b.nwk", ["random", "--n", "32", "--seed", "2"])
        code, out = run_cli("agree", t1, t2)
        assert code == 0 and "bound_met: True" in out

    def test_match_ab(self, trees):
        t1 = trees("a.nwk", ["random", "--n", "32", "--model", "yule", "--seed", "4"])
        t2 = trees("b.nwk", ["random", "--n", "32", "--model", "yule", "--seed", "5"])
        code, out = run_cli("match-ab", t1, t2, "--k", "3")
        assert code == 0 and "bound_met: True" in out

    def test_match_ab_yule_128_single(self, trees):
        t1 = trees("a.nwk", ["random", "--n", "128", "--model", "yule", "--seed", "1"])
        t2 = trees("b.nwk", ["random", "--n", "128", "--model", "yule", "--seed", "2"])
        code, out = run_cli("match-ab", t1, t2, "--k", "3", "--mode", "single")
        assert code == 0
        assert out == (
            "algorithm: match-almost-balanced\n"
            "result_size: 7\n"
            "witness: 1 4 7 48 61 88 115\n"
            "certificate: (1,(4,(48,((61,88),115))),7);\n"
            "bound_value: 1.0\n"
            "achieved: 7\n"
            "bound_met: True\n"
            "delta: 0.109101282\n"
            "k: 3.0\n"
            "mode: single\n"
            "n: 128\n"
        )

    def test_match_ab_large_k(self, trees):
        # a balanced tree of height ceil(4 log 128) = 28 would have 2^28 leaves
        t1 = trees("a.nwk", ["random", "--n", "128", "--model", "yule", "--seed", "1"])
        t2 = trees("b.nwk", ["random", "--n", "128", "--model", "yule", "--seed", "2"])
        code, out = run_cli("match-ab", t1, t2, "--k", "4")
        assert code == 0
        assert "mode: both" in out and "bound_met: True" in out

    def test_match_multi(self, trees):
        paths = [trees(f"m{i}.nwk", ["balanced", "--m", "3"]) for i in range(3)]
        code, out = run_cli("match-multi", *paths)
        assert code == 0
        assert "result_size: 8" in out

    def test_decompose(self, trees):
        path = trees("c.nwk", ["caterpillar", "--n", "16"])
        code, out = run_cli("decompose", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["meets_threshold"] is True

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.nwk"
        bad.write_text("(1,2;")
        code = main(["mast", str(bad), str(bad)])
        assert code == 1

    def test_precondition_error_exit_code(self, trees):
        t1 = trees("c.nwk", ["caterpillar", "--n", "8", "--rooted"])
        t2 = trees("d.nwk", ["random", "--n", "8", "--rooted", "--seed", "1"])
        assert main(["match1", t1, t2]) == 1

    @pytest.mark.parametrize(
        "command, texts, extra",
        [
            ("match1", ["((1,2),3,4);", "((1,2),(3,4));"], []),
            ("match-ab", ["((1,2),(3,4));", "((1,3),(2,4));"], ["--k", "3"]),
            ("match-multi", ["((1,2),(3,4));", "((1,3),(2,4));", "((1,2),3,4);"], []),
            ("match1", ["((1,2),(3,4));", "((1,2),3,4);"], []),
            ("match2", ["((1,2),(3,4));", "((1,2),3,4);"], []),
            ("mast", ["((1,2),(3,4));", "((1,2),3,4);"], []),
            ("mast", ["((1,2),3,4);", "((1,2),(3,4));"], []),
        ],
    )
    def test_tree_kind_error_exit_code(self, tmp_path, command, texts, extra):
        paths = []
        for i, text in enumerate(texts):
            path = tmp_path / f"t{i}.nwk"
            path.write_text(text)
            paths.append(str(path))
        proc = run_proc(command, *paths, *extra)
        err = proc.stderr.decode()
        assert proc.returncode == 1, err
        assert f"agreetree {command}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0")])
    def test_match_ab_bad_k(self, tmp_path, k, shown):
        path = tmp_path / "t.nwk"
        path.write_text("((1,2),3,4);")
        proc = run_proc("match-ab", str(path), str(path), "--k", k)
        err = proc.stderr.decode()
        assert proc.returncode == 1, err
        assert f"agreetree match-ab: k must be a finite positive number, got {shown}" in err
        assert "Traceback" not in err

    def test_bad_delta_message(self, trees, capsys):
        t1 = trees("a.nwk", ["balanced", "--m", "3"])
        assert main(["match1", t1, t1, "--delta", "abc"]) == 1
        assert "--delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, ntrees, unread",
        [
            ("mast", 2, ["--delta", "0.1"]),
            ("mast", 2, ["--trace"]),
            ("agree", 2, ["--delta", "0.1"]),
            ("agree", 2, ["--trace"]),
            ("match-multi", 3, ["--trace"]),
            ("match-ab", 2, ["--trace"]),
            ("decompose", 1, ["--delta", "0.1"]),
            ("decompose", 1, ["--trace"]),
            ("decompose", 1, ["--format", "json"]),
        ],
    )
    def test_unread_option_rejected(self, trees, capsys, command, ntrees, unread):
        path = trees("b.nwk", ["balanced", "--m", "2"])
        required = ["--k", "3"] if command == "match-ab" else []
        with pytest.raises(SystemExit) as exit_:
            main([command, *[path] * ntrees, *required, *unread])
        assert exit_.value.code == 1
        captured = capsys.readouterr()
        assert f"error: unrecognized arguments: {' '.join(unread)}\n" in captured.err
        assert captured.out == ""


class TestBounds:
    def test_constants(self):
        code, out = run_cli("bounds", "--n", "65536")
        assert code == 0
        assert "alpha*:  0.205597" in out
        assert "delta1*: 0.170536" in out
        assert "path length threshold: 16" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--fmax", "3", "--n", "1"], "--n must be greater than 2, got 1"),
            (["--n", "2"], "--n must be greater than 2, got 2"),
            (["--fmax", "-1"], "--fmax must be at least 0, got -1"),
        ],
    )
    def test_bad_arguments(self, capsys, argv, message):
        assert main(["bounds", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"agreetree bounds: {message}\n"


class TestBench:
    def test_csv_schema_and_summary(self, tmp_path):
        out_path = tmp_path / "trials.csv"
        code, out = run_cli(
            "bench", "--n", "16", "--trials", "4", "--algorithms", "match1,match2",
            "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == (
            "n,model,seed,algorithm,delta,result_size,bound_value,exact_size,"
            "runtime_ms,certificate_ok"
        )
        assert len(lines) == 1 + 2 * 4
        assert all(line.endswith(",0,True") for line in lines[1:])
        assert "summary algorithm=match1 n=16 trials=4" in out

    def test_mast_floor_rows(self, tmp_path):
        out_path = tmp_path / "floor.csv"
        code, out = run_cli(
            "bench", "--n", "3,4", "--algorithms", "mast-floor", "--out", str(out_path)
        )
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        sizes = [int(r.split(",")[5]) for r in rows]
        assert sizes == [3, 3]

    def test_unwritable_path(self, tmp_path):
        code, _ = run_cli(
            "bench", "--n", "16", "--trials", "1", "--algorithms", "match1",
            "--out", str(tmp_path / "nodir" / "x.csv"),
        )
        assert code == 1


    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one(self, tmp_path, capsys, trials):
        out_path = tmp_path / "trials.csv"
        code = main(["bench", "--n", "4", "--trials", trials, "--out", str(out_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"agreetree bench: --trials must be at least 1, got {trials}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "seed, trials, last",
        [("-1", "1", "-1"), ("18446744073709551615", "2", "18446744073709551616"), ("2" + "0" * 19, "1", "2" + "0" * 19)],
    )
    def test_seeds_outside_64_bits(self, tmp_path, capsys, seed, trials, last):
        """Every trial's seed, --seed to --seed + trials - 1, is checked
        before any trial runs."""
        out_path = tmp_path / "seeds.csv"
        code = main(["bench", "--n", "4", "--seed", seed, "--trials", trials, "--out", str(out_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"agreetree bench: trial seeds must be in [0, 2^64), got {seed} to {last}\n"
        )
        assert not out_path.exists()

    def test_last_64_bit_seed(self, tmp_path):
        out_path = tmp_path / "seeds.csv"
        argv = ["bench", "--n", "4", "--algorithms", "agree", "--seed", str(2**64 - 2), "--trials", "2"]
        assert main([*argv, "--out", str(out_path)]) == 0
        assert out_path.read_text().count(",agree,") == 2

    @pytest.mark.parametrize("n, item", [("0", "0"), ("-4", "-4"), ("abc", "abc"), ("8,,16", "")])
    def test_bad_n(self, tmp_path, capsys, n, item):
        out_path = tmp_path / "trials.csv"
        code = main(["bench", f"--n={n}", "--trials", "1", "--out", str(out_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"agreetree bench: --n items must be positive integers, got {item!r}\n"
        )
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "n, algorithms, message",
        [
            ("16,24", "match1", "--n items must be powers of 2 for match1, got 24"),
            ("24", "agree,match2", "--n items must be powers of 2 for match2, got 24"),
            ("4,2", "match1,agree", "--n items must be at least 3 for agree, got 2"),
            ("3,1", "mast-floor", "--n items must be at least 3 for mast-floor, got 1"),
            (
                "16",
                "match1,foo",
                "--algorithms items must be match1, match2, agree, mast-floor, got 'foo'",
            ),
            (
                "8,16,32",
                "match1,match2,agree,mast-floor",
                "--n items must be at most 6 for mast-floor unless AGREETREE_GUARDS=off, got 8",
            ),
            ("16,32,16", "match1", "--n items must be distinct, got 16 twice"),
            ("16", "match1,agree,match1", "--algorithms items must be distinct, got 'match1' twice"),
        ],
        ids=[
            "match1-24", "match2-24", "agree-2", "floor-1", "unknown", "floor-guard",
            "repeated-n", "repeated-algorithm",
        ],
    )
    def test_plan_checked_before_any_trial(
        self, tmp_path, capsys, monkeypatch, n, algorithms, message
    ):
        monkeypatch.delenv("AGREETREE_GUARDS", raising=False)
        trials = []
        monkeypatch.setattr(cli, "_bench_trial", lambda *a: trials.append(a))
        out_path = tmp_path / "trials.csv"
        code = main(["bench", "--n", n, "--algorithms", algorithms, "--out", str(out_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"agreetree bench: {message}\n"
        assert trials == []
        assert not out_path.exists()

    def test_out_checked_before_any_trial(self, tmp_path, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(cli, "_bench_trial", lambda *a: trials.append(a))
        out_path = tmp_path / "missing_dir" / "x.csv"
        code = main(["bench", "--n", "16", "--algorithms", "match1", "--out", str(out_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"agreetree bench: cannot write {out_path}: "
            f"{str(out_path.parent)!r} is not a writable directory\n"
        )
        assert trials == []

    def test_invalid_certificates_refused(self, tmp_path, capsys, monkeypatch):
        def bad_trial(algorithm, n, model, seed, measure):
            return cli.TrialRecord(n, model, seed, algorithm, "", 1, "", "", 0, False)

        monkeypatch.setattr(cli, "_bench_trial", bad_trial)
        out_path = tmp_path / "trials.csv"
        code = main(["bench", "--n", "16", "--trials", "2", "--algorithms", "match1",
                     "--out", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "agreetree bench: 2 trial(s) produced invalid certificates; "
            "refusing to persist (use --allow-invalid to keep them)\n"
        )
        assert not out_path.exists()

    def test_floor_guard_lifted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AGREETREE_GUARDS", "off")

        def first_trial(*args):  # the plan passed: stop before enumerating
            raise SystemExit(args)

        monkeypatch.setattr(cli, "_bench_trial", first_trial)
        with pytest.raises(SystemExit) as stop:
            main(["bench", "--n", "8", "--algorithms", "mast-floor", "--out", str(tmp_path / "x")])
        assert stop.value.code[:2] == ("mast-floor", 8)


class TestDeterminism:
    def test_gen_byte_identical(self):
        a = run_proc("gen", "random", "--n", "40", "--seed", "11")
        b = run_proc("gen", "random", "--n", "40", "--seed", "11")
        assert a.stdout == b.stdout and a.returncode == 0

    def test_bench_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            proc = run_proc(
                "bench", "--n", "16,32", "--trials", "3",
                "--algorithms", "match1,match2,agree", "--seed", "5",
                "--out", str(path),
            )
            assert proc.returncode == 0
            outs.append((proc.stdout, path.read_bytes()))
        assert outs[0] == outs[1]

    def test_match_byte_identical(self, tmp_path):
        t1 = tmp_path / "t1.nwk"
        t2 = tmp_path / "t2.nwk"
        for path, argv in (
            (t1, ("gen", "balanced", "--m", "4")),
            (t2, ("gen", "random", "--n", "16", "--rooted", "--seed", "9")),
        ):
            proc = run_proc(*argv)
            assert proc.returncode == 0, (argv, proc.stderr)
            path.write_bytes(proc.stdout)
        a = run_proc("match1", str(t1), str(t2), "--trace")
        b = run_proc("match1", str(t1), str(t2), "--trace")
        assert a.stdout == b.stdout and a.returncode == 0


class TestGcPause:
    """``main`` pauses the cyclic GC for the command and hands the caller's
    GC state back on every way out."""

    @pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_exit_0(self, gc_state, monkeypatch):
        seen = []
        original = cli.cmd_gen

        def probe(args):
            seen.append(gc.isenabled())
            return original(args)

        monkeypatch.setattr(cli, "cmd_gen", probe)
        assert run_cli("gen", "balanced", "--m", "3")[0] == 0
        assert seen == [False]
        assert gc.isenabled() == gc_state

    def test_exit_1_bad_newick(self, gc_state, tmp_path, capsys):
        bad = tmp_path / "bad.nwk"
        bad.write_text("(1,2;")
        assert main(["agree", str(bad), str(bad)]) == 1
        assert gc.isenabled() == gc_state

    def test_exit_1_label_past_the_digit_limit(self, gc_state, tmp_path, capsys):
        """A label past int()'s digit limit is a NewickError with its
        position, not Python's own ValueError text."""
        bad = tmp_path / "long.nwk"
        bad.write_text("1" * 5000 + ";")
        assert main(["decompose", str(bad)]) == 1
        assert capsys.readouterr().err == "agreetree decompose: leaf label of 5000 digits is too long (at position 0)\n"
        assert gc.isenabled() == gc_state

    def test_memory_error(self, gc_state, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_bounds", exhausted)
        assert main(["bounds"]) == 1
        assert capsys.readouterr().err == "agreetree bounds: out of memory\n"
        assert gc.isenabled() == gc_state

    def test_argparse_error(self, gc_state, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["agree", "--no-such-option"])
        assert exc.value.code == 1
        assert gc.isenabled() == gc_state

    def test_no_cycles_grow_with_n(self, trees):
        """A command's cyclic garbage (argparse's) does not depend on the
        tree size, so no per-node cycle leaks while the GC is paused."""
        found = []
        for n in ("256", "2048"):
            t1 = trees(f"a{n}.nwk", ["random", "--n", n, "--seed", "1"])
            t2 = trees(f"b{n}.nwk", ["random", "--n", n, "--seed", "2"])
            gc.collect()
            assert run_cli("agree", t1, t2)[0] == 0
            found.append(gc.collect())
        assert found[0] == found[1], found


def test_agree_checks_its_witness_once(trees, monkeypatch):
    """``agree_general``'s certificate is the one the report prints."""
    import agreetree.treeops as treeops

    calls = count_calls(monkeypatch, treeops, "verify_agreement", lambda args, out: len(args[2]))
    t1 = trees("a.nwk", ["random", "--n", "512", "--seed", "1"])
    t2 = trees("b.nwk", ["random", "--n", "512", "--seed", "2"])
    code, out = run_cli("agree", t1, t2)
    assert code == 0 and "bound_met: True" in out
    assert len(calls) == 1, calls


def test_bench_agree_runs_the_exact_mast_once(tmp_path, monkeypatch):
    """At n <= EXACT_CUTOFF ``agree_general`` already tries the exact MAST,
    and its result, a certified maximum, is the ``exact_size`` column."""
    import agreetree.exactmast as exactmast

    calls = count_calls(monkeypatch, exactmast, "mast_unrooted", lambda args, out: out.size)
    out_path = tmp_path / "bench.csv"
    code, _ = run_cli(
        "bench", "--n", "16,24", "--trials", "2", "--algorithms", "agree", "--out", str(out_path)
    )
    assert code == 0 and len(calls) == 4, calls
    rows = [line.split(",") for line in out_path.read_text().splitlines()]
    header = rows[0]
    result, exact = header.index("result_size"), header.index("exact_size")
    assert [int(row[exact]) for row in rows[1:]] == calls
    assert all(row[result] == row[exact] for row in rows[1:])


def test_bench_agree_checks_each_witness_once(tmp_path, monkeypatch):
    """``bench --algorithms agree`` reads ``certificate_ok`` from the
    report of ``agree_general``, which has checked the witness."""
    import agreetree.treeops as treeops

    calls = count_calls(monkeypatch, treeops, "verify_agreement", lambda args, out: len(args[2]))
    out_path = tmp_path / "bench.csv"
    code, _ = run_cli(
        "bench", "--n", "256", "--trials", "1", "--algorithms", "agree", "--out", str(out_path)
    )
    assert code == 0
    assert calls == [6], calls
    assert out_path.read_text().splitlines()[1].endswith(",True")


def test_one_parser_per_process(monkeypatch):
    """``main`` builds its parser on a process's first command only; each
    later command, a usage error too, parses with the same one."""
    cli._parser.cache_clear()
    built = count_calls(monkeypatch, cli, "build_parser")
    assert run_cli("bounds", "--n", "64")[0] == 0
    assert run_cli("gen", "balanced", "--m", "3")[0] == 0
    with pytest.raises(SystemExit):
        main(["agree", "--no-such-option"])
    assert run_cli("gen", "caterpillar", "--n", "5") == (0, "(1,2,(3,(4,5)));\n")
    assert len(built) == 1
