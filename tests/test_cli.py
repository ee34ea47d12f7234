"""Tests for the armada CLI."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


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

    def test_analyze_unknown_level(self, racy_file, capsys):
        assert main(["analyze", racy_file, "--level", "Nope"]) == 1
        assert "no level named Nope" in capsys.readouterr().err

    def test_verify_analyze_notes(self, capsys):
        from pathlib import Path

        path = str(
            Path(__file__).parent.parent / "examples"
            / "running_example.arm"
        )
        assert main(["verify", path, "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "analysis[" in out
        assert "matches the analyzer's validated suggestion" in out


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
        assert "farm: 6 obligations, 0 from cache, 0 executed" in out
        assert "FAILED" not in out
        # Without the deadline the same six obligations run and verify.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "farm: 6 obligations, 0 from cache, 6 executed" in out
        assert "INCONCLUSIVE" not in out

    def test_journal_resumes_without_rerunning(self, obligation_file,
                                               tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        argv = ["verify", obligation_file, "--no-cache",
                "--journal", str(journal), "--farm-report"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "farm: 6 obligations, 0 from cache, 6 executed" in out
        assert len(journal.read_text().splitlines()) == 6
        # The same command again replays every settled verdict.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "farm: 6 obligations, 0 from cache, 0 executed" in out
        assert "replayed from journal:  6" in out
        assert "(6 entries, 6 replayed, 0 corrupt lines skipped)" in out

    def test_farm_report_names_the_deadlines(self, obligation_file,
                                             capsys):
        argv = ["verify", obligation_file, "--no-cache", "--farm-report"]
        assert main(argv) == 0
        assert "policy: no deadlines" in capsys.readouterr().out
        assert main(argv + ["--obligation-timeout", "60",
                            "--chain-deadline", "600"]) == 0
        out = capsys.readouterr().out
        assert "policy: obligation<=60s, chain<=600s" in out
        assert "farm: 6 obligations, 0 from cache, 6 executed" in out
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
