"""Tests for repro.obs: spans, counters, aggregation, CLI.

The observer is a process-global singleton, so every test runs under a
fixture that guarantees it is disabled (and its trace file closed)
afterwards, no matter how the test exits.
"""

import json
import os

import pytest

from repro.obs import (
    OBS,
    TRACE_FORMAT,
    TraceError,
    aggregate,
    aggregate_file,
    load_trace,
)


@pytest.fixture(autouse=True)
def observer_reset():
    yield
    OBS.disable()


def read_records(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestObserverLifecycle:
    def test_disabled_by_default(self):
        assert not OBS.enabled

    def test_disabled_calls_are_noops(self):
        # No trace file, no error: the null span and guarded emitters.
        with OBS.span("anything", "phase", detail=1):
            OBS.count("some.counter", 3)

    def test_enable_writes_meta_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        OBS.enable(path)
        OBS.disable()
        records = read_records(path)
        assert records[0] == {"type": "meta", "format": TRACE_FORMAT}

    def test_double_enable_rejected(self, tmp_path):
        OBS.enable(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            OBS.enable(tmp_path / "other.jsonl")

    def test_disable_idempotent(self, tmp_path):
        OBS.enable(tmp_path / "t.jsonl")
        OBS.disable()
        OBS.disable()

    def test_enable_truncates_previous_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        OBS.enable(path)
        with OBS.span("first-run", "phase"):
            pass
        OBS.disable()
        OBS.enable(path)
        OBS.disable()
        names = [r.get("name") for r in read_records(path)]
        assert "first-run" not in names


class TestSpans:
    def test_span_record_shape(self, tmp_path):
        path = tmp_path / "t.jsonl"
        OBS.enable(path)
        with OBS.span("work", "obligation", cached=False):
            pass
        OBS.disable()
        spans = [r for r in read_records(path) if r["type"] == "span"]
        (span,) = spans
        assert span["name"] == "work"
        assert span["kind"] == "obligation"
        assert span["attrs"] == {"cached": False}
        assert span["parent"] is None
        assert span["seconds"] >= 0

    def test_spans_nest_via_parent_ids(self, tmp_path):
        path = tmp_path / "t.jsonl"
        OBS.enable(path)
        with OBS.span("outer", "chain"):
            with OBS.span("inner", "proof"):
                pass
        OBS.disable()
        spans = {r["name"]: r for r in read_records(path)
                 if r["type"] == "span"}
        # Inner closes (and is emitted) first; its parent is outer's id.
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None

    def test_counters_attach_to_innermost_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        OBS.enable(path)
        with OBS.span("outer", "chain"):
            OBS.count("outer.events")
            with OBS.span("inner", "proof"):
                OBS.count("inner.events", 2)
                OBS.count("inner.events", 3)
        OBS.disable()
        spans = {r["name"]: r for r in read_records(path)
                 if r["type"] == "span"}
        assert spans["inner"]["counters"] == {"inner.events": 5}
        assert spans["outer"]["counters"] == {"outer.events": 1}

    def test_counts_outside_spans_are_global(self, tmp_path):
        path = tmp_path / "t.jsonl"
        OBS.enable(path)
        OBS.count("free.counter", 7)
        OBS.disable()
        (globals_record,) = [
            r for r in read_records(path) if r["type"] == "counters"
        ]
        assert globals_record["counters"] == {"free.counter": 7}


class TestAggregation:
    def test_load_trace_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(TraceError):
            load_trace(str(path))

    def test_load_trace_rejects_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(str(tmp_path / "absent.jsonl"))

    def test_aggregate_counts_obligations_and_phases(self):
        # Traces from versions that recorded histograms carry a
        # "histograms" key, which aggregation ignores.
        records = [
            {"type": "meta", "format": TRACE_FORMAT},
            {"type": "span", "id": 1, "parent": None, "kind": "chain",
             "name": "Impl", "seconds": 1.0, "attrs": {},
             "counters": {}, "histograms": {}},
            {"type": "span", "id": 2, "parent": 1, "kind": "obligation",
             "name": "P:L1", "seconds": 0.25,
             "attrs": {"cached": False},
             "counters": {"prover.calls": 2}, "histograms": {}},
            {"type": "span", "id": 3, "parent": 1, "kind": "obligation",
             "name": "P:L2", "seconds": 0.0, "attrs": {"cached": True},
             "counters": {}, "histograms": {}},
            {"type": "counters", "counters": {"free": 1},
             "histograms": {"queue_wait": {"count": 1, "sum": 0.5,
                                           "min": 0.5, "max": 0.5}}},
        ]
        stats = aggregate(records)
        assert stats.format == TRACE_FORMAT
        assert stats.obligation_total == 2
        assert stats.obligation_cached == 1
        assert stats.counters == {"prover.calls": 2, "free": 1}
        phases = {row["phase"]: row for row in stats.phases}
        assert phases["chain"]["spans"] == 1
        assert phases["obligation"]["spans"] == 2
        payload = stats.to_dict()
        assert payload["obligations"]["total"] == 2
        assert payload["obligations"]["cached"] == 1
        assert payload["obligations"]["executed"] == 1
        assert "histograms" not in payload
        text = stats.render_text()
        assert "obligations: 2 (1 from cache, 1 executed)" in text
        assert "queue_wait" not in text


@pytest.fixture()
def program_file(tmp_path, monkeypatch):
    """The repo's running example: its tso_elim proof queues real farm
    obligations (the toy two-level programs discharge everything
    statically and would leave the farm — and the trace — empty)."""
    monkeypatch.setenv("ARMADA_CACHE_DIR", str(tmp_path / "cache"))
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "examples", "running_example.arm",
    )


class TestCliTrace:
    def test_verify_trace_then_stats(self, program_file, tmp_path,
                                     capsys):
        from repro.cli import main

        trace = str(tmp_path / "run.jsonl")
        assert main(["verify", program_file, "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert not OBS.enabled  # the CLI always closes the trace
        # The farm's reported obligation total...
        farm_total = int(
            [line for line in out.splitlines()
             if line.startswith("farm:")][0].split()[1]
        )
        # ...must equal the number of obligation spans in the trace.
        stats = aggregate_file(trace)
        assert stats.obligation_total == farm_total > 0
        assert stats.chain is not None
        assert len(stats.proofs) >= 1

        assert main(["stats", trace]) == 0
        text = capsys.readouterr().out
        assert "per-phase totals:" in text
        assert f"obligations: {farm_total}" in text

        assert main(["stats", trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["obligations"]["total"] == farm_total

    def test_cached_obligations_still_traced(self, program_file,
                                             tmp_path, capsys):
        from repro.cli import main

        cold = str(tmp_path / "cold.jsonl")
        warm = str(tmp_path / "warm.jsonl")
        assert main(["verify", program_file, "--trace", cold]) == 0
        assert main(["verify", program_file, "--trace", warm]) == 0
        capsys.readouterr()
        cold_stats = aggregate_file(cold)
        warm_stats = aggregate_file(warm)
        assert warm_stats.obligation_total == cold_stats.obligation_total
        assert cold_stats.obligation_cached == 0
        assert warm_stats.obligation_cached > 0

    def test_trace_with_obligation_deadline(self, program_file, tmp_path,
                                            capsys):
        # A deadline runs each obligation on a helper thread; its
        # obligation span and the farm's count must still agree.
        from repro.cli import main

        trace = str(tmp_path / "deadline.jsonl")
        assert main(["verify", program_file, "--no-cache",
                     "--obligation-timeout", "60",
                     "--trace", trace]) == 0
        out = capsys.readouterr().out
        queued = int(out.split("farm: ")[1].split(" obligations")[0])
        stats = aggregate_file(trace)
        assert queued > 0
        assert stats.obligation_total == queued

    def test_front_end_phases_are_traced(self, program_file, tmp_path,
                                         capsys):
        from repro.cli import main

        trace = str(tmp_path / "front.jsonl")
        assert main(["verify", program_file, "--no-cache",
                     "--trace", trace]) == 0
        capsys.readouterr()
        spans = [r for r in read_records(trace) if r["type"] == "span"
                 and r["kind"] == "phase"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        levels = ["Implementation", "ArbitraryGuard", "BestLenSequential"]
        assert len(by_name["parse"]) == 1
        for phase in ("resolve", "typecheck"):
            assert [s["attrs"]["level"] for s in by_name[phase]] == levels
        # The front end runs before the chain, so no span encloses it.
        assert all(s["parent"] is None for s in by_name["parse"])

        assert main(["stats", trace, "--json"]) == 0
        rows = {row["phase"]: row
                for row in json.loads(capsys.readouterr().out)["phases"]}
        assert rows["parse"]["spans"] == 1
        assert rows["resolve"]["spans"] == rows["typecheck"]["spans"] == 3

    def test_syntax_error_closes_the_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "broken.arm"
        path.write_text("level {")
        trace = str(tmp_path / "broken.jsonl")
        assert main(["verify", str(path), "--trace", trace]) == 2
        assert not OBS.enabled
        assert read_records(trace)[-1]["type"] == "counters"

    def test_stats_missing_file_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 1
        assert "armada stats:" in capsys.readouterr().err

    def test_trace_unwritable_path_exits_1(self, program_file, tmp_path,
                                           capsys):
        from repro.cli import main

        bad = str(tmp_path / "no-such-dir" / "t.jsonl")
        assert main(["verify", program_file, "--trace", bad]) == 1
        assert "cannot write trace" in capsys.readouterr().err
