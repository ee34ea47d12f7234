"""Tests for the armada CLI."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.lang.parser import MAX_NESTING

EXAMPLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "running_example.arm",
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the default proof cache at a per-test directory so CLI
    tests neither share verdicts nor write into the repository."""
    monkeypatch.setenv("ARMADA_CACHE_DIR", str(tmp_path / "proof-cache"))


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.arm"
    path.write_text(
        "level Low { var x: uint32; void main() "
        "{ x := 1; print_uint32(x); } }\n"
        "level High { var x: uint32; void main() "
        "{ x := *; print_uint32(x); } }\n"
        "proof P { refinement Low High nondet_weakening }\n"
    )
    return str(path)


class TestCommands:
    def test_check(self, program_file, capsys):
        assert main(["check", program_file]) == 0
        out = capsys.readouterr().out
        assert "2 level(s)" in out

    def test_verify_success(self, program_file, capsys):
        assert main(["verify", program_file]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "Low -> High" in out

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.arm"
        path.write_text(
            "level A { var x: uint32; void main() { x := 1; } }\n"
            "level B { var x: uint32; void main() { x := 2; } }\n"
            "proof P { refinement A B weakening }\n"
        )
        assert main(["verify", str(path)]) == 1

    def test_verify_budget_cut_prints_inconclusive(self, tmp_path,
                                                   capsys):
        path = tmp_path / "loop.arm"
        path.write_text(
            "level A { var i: uint32; void main() { i := 0; "
            "while i < 40 { i := i + 1; } } }\n"
            "level B { var i: uint32; void main() { i := 0; "
            "while i < 40 { i := i + 1; } } }\n"
            "proof P { refinement A B weakening }\n"
        )
        assert main(["verify", str(path), "--validate", "always",
                     "--max-states", "5"]) == 1
        out = capsys.readouterr().out
        assert "P [weakening]: INCONCLUSIVE" in out
        assert "FAILED" not in out

    def test_compile_c(self, program_file, capsys):
        assert main(["compile", program_file, "--level", "Low"]) == 0
        assert "#include <stdint.h>" in capsys.readouterr().out

    def test_compile_python(self, program_file, capsys):
        assert main([
            "compile", program_file, "--level", "Low", "--backend", "sc",
        ]) == 0
        assert "def main():" in capsys.readouterr().out

    def test_run(self, program_file, capsys):
        assert main(["run", program_file, "--level", "Low"]) == 0
        assert "log: [1]" in capsys.readouterr().out

    def test_strategies_listing(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "tso_elim" in out and "reduction" in out

    def test_casestudy(self, capsys):
        assert main(["casestudy", "pointers"]) == 0
        out = capsys.readouterr().out
        assert "pointers: verified" in out

    def test_casestudy_unknown_name(self, capsys):
        assert main(["casestudy", "nosuch"]) == 1
        err = capsys.readouterr().err
        assert "unknown case study 'nosuch'" in err
        for name in ("barrier", "mcslock", "pointers", "queue", "tsp"):
            assert name in err

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("armada ")
        version = out.split()[1]
        assert version[0].isdigit()

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.arm"
        path.write_text("level {")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestAnalyzeCommand:
    @pytest.fixture()
    def racy_file(self, tmp_path):
        path = tmp_path / "sb.arm"
        path.write_text(
            "level L { var x: uint32; var y: uint32; "
            "var r1: uint32; var r2: uint32; "
            "void t1() { x := 1; r1 := y; fence(); } "
            "void main() { var a: uint64 := 0; "
            "a := create_thread t1(); "
            "y := 1; r2 := x; join a; fence(); print_uint32(r2); } }\n"
        )
        return str(path)

    def test_analyze_text_report(self, racy_file, capsys):
        assert main(["analyze", racy_file]) == 0
        out = capsys.readouterr().out
        assert "analysis of level L" in out
        assert "RACY" in out
        assert "witness:" in out

    def test_analyze_json(self, racy_file, capsys):
        import json

        assert main(["analyze", racy_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["level"] == "L"
        assert any(
            f["classification"] == "RACY" for f in data["findings"]
        )

    def test_analyze_fail_on_race(self, racy_file):
        assert main(["analyze", racy_file, "--fail-on-race"]) == 1

    def test_analyze_expect_racy_match(self, racy_file):
        assert main(
            ["analyze", racy_file, "--expect-racy", "x,y"]
        ) == 0

    def test_analyze_expect_racy_mismatch(self, racy_file, capsys):
        assert main(["analyze", racy_file, "--expect-racy", "x"]) == 1
        assert "expected RACY" in capsys.readouterr().err

    def test_analyze_casestudy_race_free(self, capsys):
        assert main(
            ["analyze", "--casestudy", "pointers", "--expect-racy", ""]
        ) == 0

    def test_analyze_requires_one_input(self, capsys):
        assert main(["analyze"]) == 1
        assert "FILE or --casestudy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["explore", "analyze", "compile", "run"]
    )
    def test_unknown_level(self, command, racy_file, capsys):
        assert main([command, racy_file, "--level", "Nope"]) == 1
        err = capsys.readouterr().err
        assert "no level named Nope (levels: " in err
        assert "Traceback" not in err

    def test_analyze_suggests_the_running_example_predicate(
        self, capsys
    ):
        assert main(["analyze", EXAMPLE, "--level", "ArbitraryGuard"]) \
            == 0
        assert 'suggest: tso_elim best_len "mutex == $me"' in (
            capsys.readouterr().out
        )


class TestFileHandling:
    """Unreadable inputs exit 1 with a one-line stderr message."""

    @pytest.mark.parametrize(
        "command", ["check", "verify", "compile", "run"]
    )
    def test_missing_file(self, command, capsys):
        assert main([command, "/nonexistent.arm"]) == 1
        err = capsys.readouterr().err
        assert "cannot read /nonexistent.arm" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_directory_argument(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err


class TestVerifyFarmFlags:
    def test_verify_prints_farm_summary(self, program_file, capsys):
        assert main(["verify", program_file]) == 0
        assert "farm:" in capsys.readouterr().out

    def test_verify_jobs_and_report(self, program_file, capsys):
        assert main(["verify", program_file, "--farm-report"]) == 0
        out = capsys.readouterr().out
        assert "verification farm [sequential]" in out
        assert "obligations queued" in out

    @pytest.mark.parametrize("command", ["verify", "serve"])
    def test_no_worker_pool_options(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--max-states" in out or "--slots" in out
        # Nor the retry budget and the fault-injection plan.
        for option in ("--jobs", "--farm-mode", "--max-retries",
                       "--inject-faults"):
            assert option not in out

    @pytest.mark.parametrize("argv", [
        ["verify", "{file}", "--journal", "run.jsonl"],
        ["verify", "{file}", "--analyze"],
        ["submit", "{file}", "--analyze"],
    ], ids=["verify-journal", "verify-analyze", "submit-analyze"])
    def test_removed_options_exit_2(self, argv, program_file, capsys):
        argv = [arg.format(file=program_file) for arg in argv]
        assert main(argv) == 2
        assert f"unrecognized arguments: {argv[2]}" in (
            capsys.readouterr().err
        )

    def test_no_atomic_option(self, program_file, capsys):
        assert main(["verify", program_file, "--atomic"]) == 2
        assert "unrecognized arguments: --atomic" in (
            capsys.readouterr().err
        )
        assert main(["verify", "--help"]) == 0
        # Neither --atomic nor --no-atomic.
        assert "-atomic" not in capsys.readouterr().out

    def test_budget_cut_is_inconclusive_and_rechecked(self, tmp_path,
                                                      capsys):
        # A sweep cut by --max-states neither proves nor refutes: the
        # cut obligations of assume_intro and of the reduction
        # strategy's phase discipline print INCONCLUSIVE, and they are
        # never cached, so a second identical run executes all four
        # again.
        from repro.casestudies import load

        path = tmp_path / "mcslock.arm"
        path.write_text(load("mcslock").source)
        argv = ["verify", str(path), "--max-states", "300",
                "--cache", str(tmp_path / "cache")]
        for run in range(2):
            assert main(argv) == 1
            out = capsys.readouterr().out
            assert ("MCSCementsMutualExclusion [assume_intro]: "
                    "INCONCLUSIVE") in out
            assert ("MCSReducesCriticalSection [reduction]: "
                    "INCONCLUSIVE") in out
            assert "FAILED" not in out
        assert "42 from cache, 4 executed" in out

    @pytest.fixture()
    def obligation_file(self):
        """A program whose lemmas carry real (cacheable) obligations:
        identical levels produce only trivial subsumption plans, so use
        the shipped running example."""
        from pathlib import Path

        return str(
            Path(__file__).parent.parent / "examples"
            / "running_example.arm"
        )

    def test_verify_second_run_hits_cache(self, obligation_file,
                                          capsys):
        assert main(["verify", obligation_file]) == 0
        first = capsys.readouterr().out
        assert " 0 from cache" in first
        assert main(["verify", obligation_file]) == 0
        second = capsys.readouterr().out
        assert " 0 from cache" not in second
        assert "from cache" in second

    def test_verify_no_cache(self, obligation_file, capsys):
        assert main(["verify", obligation_file, "--no-cache"]) == 0
        assert main(["verify", obligation_file, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert " 0 from cache" in out

    def test_spent_chain_deadline_is_inconclusive_and_uncached(
        self, obligation_file, tmp_path, capsys
    ):
        # --chain-deadline 0 spends the budget before the first
        # obligation starts: every obligation goes TIMEOUT without
        # running, so the chain is inconclusive, never refuted, and
        # nothing reaches the cache.
        argv = ["verify", obligation_file,
                "--cache", str(tmp_path / "cache")]
        assert main(argv + ["--chain-deadline", "0"]) == 1
        out = capsys.readouterr().out
        assert ("ArbitraryGuardRefinesBestLenSequential [tso_elim]: "
                "INCONCLUSIVE") in out
        assert "chain INCONCLUSIVE" in out
        assert "farm: 5 obligations, 0 from cache, 0 executed" in out
        assert "FAILED" not in out
        # Without the deadline the same five obligations run and verify.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "farm: 5 obligations, 0 from cache, 5 executed" in out
        assert "INCONCLUSIVE" not in out

    def test_cache_keeps_the_verdicts_of_a_run_that_dies(
        self, obligation_file, tmp_path, capsys
    ):
        # The fourth obligation raises a programming error, which no
        # verdict wraps: the run dies mid-batch with a traceback.
        launcher = (
            "import sys\n"
            "from repro.proofs import engine\n"
            "make_jobs = engine.lemma_jobs\n"
            "calls = []\n"
            "def dying_jobs(script, fingerprint):\n"
            "    jobs = make_jobs(script, fingerprint)\n"
            "    for job in jobs:\n"
            "        def thunk(run=job.thunk):\n"
            "            calls.append(1)\n"
            "            if len(calls) == 4:\n"
            "                raise RuntimeError('died mid-batch')\n"
            "            return run()\n"
            "        job.thunk = thunk\n"
            "    return jobs\n"
            "engine.lemma_jobs = dying_jobs\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        cache = tmp_path / "cache"
        argv = ["verify", obligation_file, "--cache", str(cache),
                "--farm-report"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        done = subprocess.run(
            [sys.executable, "-c", launcher, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode != 0
        assert "died mid-batch" in done.stderr
        # The three obligations settled before the crash were kept,
        # so the same command runs only the other two.
        assert len(list(cache.glob("??/*.verdict"))) == 3
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "farm: 5 obligations, 3 from cache, 2 executed" in out
        assert "3 hits, 2 misses, 2 stores, 0 failed stores" in out

    def test_unwritable_cache_warns_once_and_keeps_the_exit_code(
        self, obligation_file, tmp_path, capsys
    ):
        not_a_directory = tmp_path / "README.md"
        not_a_directory.write_text("not a cache\n")
        argv = ["verify", obligation_file, "--cache",
                str(not_a_directory), "--farm-report"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "farm: 5 obligations, 0 from cache, 5 executed" in (
            captured.out
        )
        assert "0 stores, 5 failed stores," in captured.out
        warnings = [
            line for line in captured.err.splitlines()
            if "warning" in line
        ]
        assert warnings == [
            "armada: warning: could not store 5 verdict(s) in the "
            f"proof cache {not_a_directory}; a re-run executes them "
            "again"
        ]
        assert not_a_directory.read_text() == "not a cache\n"
        # A writable cache stores everything and warns about nothing.
        argv[3] = str(tmp_path / "cache")
        assert main(argv) == 0
        assert "warning" not in capsys.readouterr().err

    def test_farm_report_names_the_deadlines(self, obligation_file,
                                             capsys):
        argv = ["verify", obligation_file, "--no-cache", "--farm-report"]
        assert main(argv) == 0
        assert "policy: no deadlines" in capsys.readouterr().out
        assert main(argv + ["--obligation-timeout", "60",
                            "--chain-deadline", "600"]) == 0
        out = capsys.readouterr().out
        assert "policy: obligation<=60s, chain<=600s" in out
        assert "farm: 5 obligations, 0 from cache, 5 executed" in out
        assert "timeouts:" not in out

    def test_verify_chain_error_surfaced(self, tmp_path, capsys):
        path = tmp_path / "cycle.arm"
        path.write_text(
            "level A { var x: uint32; void main() { x := 1; } }\n"
            "level B { var x: uint32; void main() { x := 1; } }\n"
            "proof P { refinement A B weakening }\n"
            "proof Q { refinement B A weakening }\n"
        )
        main(["verify", str(path)])
        assert "chain error:" in capsys.readouterr().out


def _cli_subprocess(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


#: A bound, count or deadline that parses as a number but means nothing:
#: each used to run (or crash with a traceback) instead of being
#: refused.
_BAD_VALUES = [
    ("verify", "--obligation-timeout", "nan"),
    ("verify", "--obligation-timeout", "inf"),
    ("verify", "--obligation-timeout", "-1"),
    ("verify", "--chain-deadline", "nan"),
    ("verify", "--chain-deadline", "inf"),
    ("verify", "--chain-deadline", "-0.5"),
    ("verify", "--max-states", "0"),
    ("verify", "--max-states", "-5"),
    ("verify", "--cache-max-bytes", "-1"),
    ("verify", "--cache-max-bytes", "0"),
    ("explore", "--max-states", "0"),
    ("analyze", "--max-states", "0"),
    ("submit", "--max-states", "-5"),
    ("submit", "--timeout", "nan"),
    ("submit", "--timeout", "inf"),
    ("submit", "--timeout", "-1"),
    ("result", "--timeout", "nan"),
    ("result", "--timeout", "inf"),
    ("result", "--timeout", "-1"),
    ("run", "--max-steps", "0"),
    ("serve", "--slots", "0"),
    ("serve", "--slots", "-1"),
    ("serve", "--cache-max-bytes", "-1"),
    ("verify", "--max-states", "many"),
    ("verify", "--chain-deadline", "soon"),
]


@pytest.mark.parametrize("command,option,value", _BAD_VALUES)
def test_bad_bound_values_exit_2_with_usage(command, option, value,
                                            tmp_path):
    """Checked in a subprocess: a value that slipped through would run
    the command, crash or, for ``serve``, start a daemon."""
    argv = [command]
    if command == "serve":
        argv += ["--state-dir", str(tmp_path / "state")]
    elif command == "result":
        argv.append("job-1")
    else:
        argv.append(EXAMPLE)
    done = _cli_subprocess(*argv, f"{option}={value}")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("usage: armada")
    assert f"argument {option}: expected a" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def _deep_program(shape, n):
    """Two copies of one level, nested *n* deep in one of three shapes,
    and a proof between them."""
    init, body = "0", "x := x + 1;"
    if shape == "parentheses":
        init = "(" * n + "1" + ")" * n
    elif shape == "right-nested binary":
        expr = "x"
        for _ in range(n):
            expr = f"(1 + {expr})"
        body = f"x := {expr};"
    else:
        for _ in range(n):
            body = f"if x < 5 {{ {body} }}"
    level = (" { var x: uint32 := " + init + "; void main() { " + body
             + " print_uint32(x); } }\n")
    return ("level A" + level + "level B" + level
            + "proof P { refinement A B weakening }\n")


#: The deepest n of each shape that stays within MAX_NESTING: an
#: initializer is level 1 and each parenthesis one more; a statement in
#: a method body is level 1, its expression level 2, and the `+` of
#: `x + 1` or `1 + ...` one level deeper again.
_AT_LIMIT = {
    "parentheses": MAX_NESTING - 1,
    "right-nested binary": MAX_NESTING - 3,
    "nested if blocks": MAX_NESTING - 3,
}


class TestSyntaxErrorsExit2:
    def test_leading_zero_literal_is_a_syntax_error(self, tmp_path):
        source = open(EXAMPLE).read()
        assert ":= 255;" in source
        path = tmp_path / "zero.arm"
        path.write_text(source.replace(":= 255;", ":= 0255;"))
        done = _cli_subprocess("check", str(path))
        assert done.returncode == 2
        assert "leading zeros in decimal literal 0255" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("shape", sorted(_AT_LIMIT))
    def test_nesting_at_the_limit_checks_and_verifies(self, shape,
                                                      tmp_path, capsys):
        path = tmp_path / "deep.arm"
        path.write_text(_deep_program(shape, _AT_LIMIT[shape]))
        assert main(["check", str(path)]) == 0
        assert main(["verify", str(path), "--no-cache"]) == 0
        assert "P [weakening]: verified" in capsys.readouterr().out

    @pytest.mark.parametrize("shape", sorted(_AT_LIMIT))
    def test_one_level_deeper_is_a_parse_error(self, shape, tmp_path,
                                               capsys):
        path = tmp_path / "deep.arm"
        path.write_text(_deep_program(shape, _AT_LIMIT[shape] + 1))
        for argv in (["check", str(path)],
                     ["verify", str(path), "--no-cache"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"nested more than {MAX_NESTING} deep" in err

    @pytest.mark.parametrize("shape", sorted(_AT_LIMIT))
    def test_ten_thousand_deep_exits_2_without_a_traceback(self, shape,
                                                           tmp_path):
        path = tmp_path / "deep.arm"
        path.write_text(_deep_program(shape, 10_000))
        done = _cli_subprocess("check", str(path))
        assert done.returncode == 2
        assert f"nested more than {MAX_NESTING} deep" in done.stderr
        assert "Traceback" not in done.stderr


class TestShippedArmadaFile:
    def test_running_example_file_verifies(self):
        from pathlib import Path

        path = (
            Path(__file__).parent.parent / "examples"
            / "running_example.arm"
        )
        assert main(["verify", str(path)]) == 0

    def test_running_example_file_runs(self):
        from pathlib import Path

        path = (
            Path(__file__).parent.parent / "examples"
            / "running_example.arm"
        )
        assert main(["run", str(path), "--level", "Implementation"]) == 0


class TestImportFootprint:
    """What a command imports is part of its start-up cost.  Checked in
    a fresh interpreter, because pytest itself has already imported
    ``importlib.metadata`` into this one."""

    SCRIPT = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps({'exit': code, 'modules': sorted(sys.modules)}))\n"
    )

    def _modules(self, tmp_path, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env["ARMADA_STEPC_CACHE"] = str(tmp_path / "stepc")
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv],
            capture_output=True, text=True, env=env, timeout=120,
            check=True,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["exit"] == 0, done.stdout + done.stderr
        return set(report["modules"])

    def test_explore_loads_no_farm_verifier_or_analyzer(
        self, program_file, tmp_path
    ):
        modules = self._modules(tmp_path, "explore", program_file)
        for package in ("repro.farm", "repro.verifier", "repro.analysis",
                        "importlib.metadata"):
            loaded = sorted(
                m for m in modules
                if m == package or m.startswith(package + ".")
            )
            assert not loaded, loaded

    def test_verify_loads_no_worker_pool(self, program_file, tmp_path):
        modules = self._modules(tmp_path, "verify", program_file,
                                "--no-cache")
        for package in ("concurrent.futures", "multiprocessing"):
            loaded = sorted(
                m for m in modules
                if m == package or m.startswith(package + ".")
            )
            assert not loaded, loaded

    def test_check_does_not_look_up_the_version(
        self, program_file, tmp_path
    ):
        modules = self._modules(tmp_path, "check", program_file)
        assert "importlib.metadata" not in modules

    @pytest.mark.parametrize("argv", [
        ("check", "PROGRAM"),
        ("explore", "PROGRAM"),
        ("verify", "PROGRAM", "--no-cache"),
        ("casestudy", "pointers"),
    ], ids=lambda argv: argv[0])
    def test_command_loads_no_dataclasses_or_inspect(
        self, argv, program_file, tmp_path
    ):
        """``dataclasses`` compiles methods at import and loads
        ``inspect``, which loads ``ast``, ``dis`` and ``tokenize``;
        no command needs any of them."""
        argv = [program_file if arg == "PROGRAM" else arg for arg in argv]
        modules = self._modules(tmp_path, *argv)
        loaded = modules & {"dataclasses", "inspect", "ast", "dis",
                            "tokenize"}
        assert not loaded, sorted(loaded)
