"""Golden tests for the CLI's machine-readable surfaces.

The ``--json`` outputs of ``armada analyze``, ``armada explore`` and
``armada stats`` are consumed by scripts (CI greps, the benchmark
harness, users' jq pipelines), so their key sets are contracts: a key
disappearing or changing name is a breaking change this file makes
loud.  The exit-code tests pin the CLI's error conventions — 1 for
user errors reported on stderr, 2 for internal ArmadaErrors — which CI
shell steps rely on.
"""

import json
import os

import pytest

from repro.cli import main

EXAMPLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "running_example.arm",
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ARMADA_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.arm"
    path.write_text(
        "level L { var x: uint32; void main() "
        "{ x := 1; print_uint32(x); } }\n"
    )
    return str(path)


class TestJsonSchemas:
    def test_explore_json_schema(self, toy_file, capsys):
        assert main(["explore", toy_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "hit_state_budget", "level", "memory_model",
            "outcomes", "states", "transitions", "ub", "violations",
        ]
        assert payload["memory_model"] == "tso"
        assert payload["level"] == "L"
        assert payload["states"] > 0
        for outcome in payload["outcomes"]:
            assert sorted(outcome) == ["kind", "log"]

    def test_explore_json_violation_rows(self, toy_file, capsys):
        assert main(["explore", toy_file, "--json",
                     "--invariant", "x == 0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"]
        for row in payload["violations"]:
            assert sorted(row) == ["invariant", "trace"]
            assert isinstance(row["trace"], list)

    def test_analyze_json_schema(self, toy_file, capsys):
        assert main(["analyze", toy_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The report's top-level contract (see analysis.report).
        assert sorted(payload) == ["findings", "level", "stats"]
        for finding in payload["findings"]:
            assert {"classification", "location",
                    "message"} <= set(finding)

    def test_stats_json_schema(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["verify", EXAMPLE, "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["stats", trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "chain", "counters", "events", "format", "histograms",
            "memory_models", "obligations", "phases", "proofs",
        ]
        assert payload["memory_models"] == ["tso"]
        assert sorted(payload["obligations"]) == [
            "cached", "executed", "rows", "seconds", "total",
        ]
        for row in payload["obligations"]["rows"]:
            assert sorted(row) == [
                "cached", "counters", "label", "seconds",
            ]
        for row in payload["phases"]:
            assert sorted(row) == ["phase", "seconds", "spans"]

    def test_stats_json_is_deterministically_ordered(self, tmp_path,
                                                     capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["verify", EXAMPLE, "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["stats", trace, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["stats", trace, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestExitCodes:
    @pytest.mark.parametrize("command", [
        ["check", "/nonexistent/prog.arm"],
        ["verify", "/nonexistent/prog.arm"],
        ["explore", "/nonexistent/prog.arm"],
        ["analyze", "/nonexistent/prog.arm"],
        ["compile", "/nonexistent/prog.arm"],
    ])
    def test_missing_file_exits_1(self, command, capsys):
        assert main(command) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_stats_missing_trace_exits_1(self, capsys):
        assert main(["stats", "/nonexistent/t.jsonl"]) == 1
        assert capsys.readouterr().err

    def test_unknown_casestudy_exits_1(self, capsys):
        assert main(["casestudy", "no-such-study"]) == 1
        err = capsys.readouterr().err
        assert "unknown case study" in err
        assert "valid names:" in err

    def test_analyze_unknown_casestudy_exits_1(self, capsys):
        assert main(["analyze", "--casestudy", "no-such-study"]) == 1
        assert "unknown case study" in capsys.readouterr().err

    def test_analyze_file_and_casestudy_conflict(self, toy_file,
                                                 capsys):
        assert main(["analyze", toy_file,
                     "--casestudy", "tsp"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_explore_unknown_level_exits_1(self, toy_file, capsys):
        assert main(["explore", toy_file, "--level", "Nope"]) == 1
        assert "no level named Nope" in capsys.readouterr().err

    def test_usage_error_is_nonzero(self, capsys):
        assert main(["no-such-subcommand"]) != 0
