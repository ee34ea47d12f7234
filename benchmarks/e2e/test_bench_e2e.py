"""Tests of the end-to-end benchmark itself (``pytest benchmarks/e2e``).

The smoke set runs once per module (under a minute); the tracer tests run
``armada casestudy tsp`` in-process, which takes well under a second.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench_e2e  # noqa: E402
import compare  # noqa: E402
import trace_layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TSP = [["casestudy", "tsp"]]


def _snapshot(top: Path, skip=(".git", ".pytest_cache")) -> dict:
    if not top.is_dir():
        return {}
    state = {}
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            path = Path(dirpath, name)
            stat = path.lstat()
            state[str(path.relative_to(top))] = (stat.st_size,
                                                 stat.st_mtime_ns)
    return state


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` set, with the repo tree and the user's armada
    cache recorded before and after."""
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    user_cache = Path.home() / ".cache" / "armada"
    before = (_snapshot(ROOT), _snapshot(user_cache))
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--seed", "1",
         "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    after = (_snapshot(ROOT), _snapshot(user_cache))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), before, after


@pytest.fixture
def isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("ARMADA_STEPC_CACHE", str(tmp_path / "stepc"))
    monkeypatch.setenv("ARMADA_CACHE_DIR", str(tmp_path / "proofs"))


def test_smoke_emits_every_benchmark_metric_with_units(smoke):
    result, _, _ = smoke
    assert result["failed"] == 0, result
    assert set(result["workloads"]) == {w["name"]
                                        for w in SPEC["workloads"]}
    for name, data in result["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            for metric in SPEC[kind]:
                got = data[kind].get(metric["name"])
                assert got is not None, (name, metric["name"])
                assert got["unit"] == metric["unit"], (name, metric)
        assert data["end_to_end"]["fail_frac"]["median"] == 0.0


def test_smoke_leaves_repo_and_user_cache_unchanged(smoke):
    _, before, after = smoke
    assert after[0] == before[0]
    assert after[1] == before[1]


def test_workload_mode_prints_the_contract_json():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench_e2e.py"), "--workload",
             "explore_ra", "--seed", "3", "--seconds", "1", "--trace",
             str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}


def test_self_times_are_span_minus_children():
    tracer = trace_layers.Tracer()

    def inner():
        time.sleep(0.03)

    timed_inner = tracer._timed("inner", inner)

    def outer():
        time.sleep(0.02)
        timed_inner()

    tracer._timed("outer", outer)()
    assert tracer.calls == {"outer": 1, "inner": 1}
    # Counting the inner span in the outer one would make it >= 0.05 s.
    assert 0.03 <= tracer.self_s["inner"] < 0.06
    assert 0.02 <= tracer.self_s["outer"] < 0.045


def test_traced_run_accounts_for_its_wall_time(isolated_caches):
    tracer = trace_layers.Tracer()
    report = trace_layers.run_commands(TSP, tracer)
    assert report["exits"] == [0]
    metrics = tracer.metrics()
    self_total = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and k.count(".") == 2)
    assert metrics["trace.unattributed_s"] >= 0
    assert self_total + metrics["trace.unattributed_s"] == \
        pytest.approx(metrics["trace.wall_s"], abs=1e-9)


def test_generator_wrappers_record_time(isolated_caches):
    tracer = trace_layers.Tracer()
    trace_layers.run_commands(TSP, tracer)
    for layer in ("explore.reachable_states",
                  "strategies.reachable_transitions"):
        assert tracer.calls[layer] > 0, layer
        assert tracer.self_s[layer] > 0, layer


def test_from_imported_translate_level_is_counted(isolated_caches):
    import repro.machine.translator as translator
    import repro.proofs.engine as engine

    original = translator.translate_level
    assert engine.translate_level is original
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        assert engine.translate_level is not original
        assert engine.translate_level is translator.translate_level
    finally:
        tracer.uninstall()
    tracer = trace_layers.Tracer()
    trace_layers.run_commands(TSP, tracer)
    # casestudy tsp reaches translate_level only through the engine's
    # ``from repro.machine.translator import translate_level``.
    assert tracer.calls["machine.translate_level"] == 3


def test_wrappers_are_removed_after_the_traced_run(isolated_caches):
    import repro.strategies.base as base

    trace_layers.import_all_repro()
    modules = {n: dict(vars(m)) for n, m in sys.modules.items()
               if n.startswith("repro") and m is not None}
    classes = {cls: dict(vars(cls)) for cls in
               (base.ProofRequest, *_subclasses(base.Strategy))}
    tracer = trace_layers.Tracer()
    trace_layers.run_commands(TSP, tracer)
    assert not tracer.installed
    for name, namespace in modules.items():
        current = vars(sys.modules[name])
        for attribute, value in namespace.items():
            assert current[attribute] is value, (name, attribute)
    for cls, namespace in classes.items():
        for attribute, value in namespace.items():
            assert vars(cls)[attribute] is value, (cls, attribute)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_check_outputs_flags_a_wrong_verdict():
    expected = json.loads((HERE / "expected.json").read_text())
    good = ("P0 [weakening]: verified (1 lemmas, 2 generated SLOC, 0.1s)\n"
            "P1 [nondet_weakening]: verified (1 lemmas, 2 generated "
            "SLOC, 0.1s)\nrefinement chain: L0 -> L1 -> L2\n")
    check = bench_e2e.check_outputs
    assert check(expected["refine_chain"], [0], [good], True) is None
    bad = good.replace("P1 [nondet_weakening]: verified",
                       "P1 [nondet_weakening]: FAILED")
    assert check(expected["refine_chain"], [0], [bad], True) is not None
    assert check(expected["refine_chain"], [1], [good], True) is not None


def test_compare_judges_against_the_bounds():
    def side(values):
        median = sorted(values)[len(values) // 2]
        return {"median": median, "q1": min(values), "q3": max(values),
                "values": values, "unit": "s"}

    before = {"workloads": {"w": {
        "end_to_end": {
            "wall_s": side([1.0, 1.01, 1.02]),
            "setup_s": side([0.2, 0.201, 0.202]),
            "peak_rss_mb": side([30.0, 30.0, 30.0]),
            "fail_frac": {"median": 0.0, "n": 3},
        },
        "per_layer": {"machine.next_state.calls":
                      {"unit": "count", "value": 10}},
    }}}
    rows, ok = compare.compare(before, copy.deepcopy(before), SPEC)
    assert ok
    assert {r[5] for r in rows} == {"unchanged", "same"}
    after = copy.deepcopy(before)
    after["workloads"]["w"]["end_to_end"]["wall_s"] = side([1.5, 1.51, 1.52])
    after["workloads"]["w"]["per_layer"]["machine.next_state.calls"][
        "value"] = 11
    rows, ok = compare.compare(before, after, SPEC)
    assert not ok
    verdicts = {r[1]: r[5] for r in rows}
    assert verdicts["wall_s"] == "worse"
    assert verdicts["machine.next_state.calls"] == "differs"
