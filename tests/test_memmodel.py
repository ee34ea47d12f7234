"""Tests for the pluggable memory-model subsystem (repro.memmodel).

Covers the model registry, the C11 release/acquire state machinery,
the full litmus allowed/forbidden matrix, and — critically — that the
memory model is part of every proof-cache identity: a verdict obtained
under one model must never be replayed for another, even when the two
runs share a cache directory or an outcome cache.
"""

from functools import lru_cache

import pytest

from repro.explore.explorer import Explorer, final_logs
from repro.farm import FarmConfig, VerificationFarm
from repro.lang.frontend import check_level, check_program
from repro.machine.translator import translate_level
from repro.memmodel import (
    DEFAULT_MODEL,
    MODELS,
    MemoryModel,
    RAModel,
    SCModel,
    TSOModel,
    get_model,
)
from repro.memmodel.litmus import CORPUS, TESTS, check_matrix, run_litmus
from repro.proofs.engine import ProofEngine

from tests.differential_harness import Sweep, sweep_rows


class TestRegistry:
    def test_shipped_models(self):
        assert sorted(MODELS) == ["ra", "sc", "tso"]
        assert DEFAULT_MODEL == "tso"

    def test_get_model_default_is_tso(self):
        assert get_model(None).name == "tso"
        assert get_model("tso") is get_model(None)

    def test_get_model_passes_instances_through(self):
        model = SCModel()
        assert get_model(model) is model

    def test_get_model_unknown_name_raises(self):
        with pytest.raises(ValueError, match="ra, sc, tso"):
            get_model("power")

    def test_model_kinds(self):
        assert isinstance(MODELS["sc"], SCModel)
        assert isinstance(MODELS["tso"], TSOModel)
        assert isinstance(MODELS["ra"], RAModel)
        assert all(
            isinstance(m, MemoryModel) for m in MODELS.values()
        )


def _machine(source: str, model: str):
    return translate_level(
        check_level("level L { " + source + " }"), memory_model=model
    )


class TestModelStateShapes:
    SOURCE = "var x: uint32; void main() { x := 1; fence(); }"

    def test_tso_state_carries_no_ra_fields(self):
        machine = _machine(self.SOURCE, "tso")
        state = machine.initial_state()
        assert state.histories is None
        assert all(t.view is None for t in state.threads.values())

    def test_sc_threads_never_buffer(self):
        machine = _machine(self.SOURCE, "sc")
        state = machine.initial_state()
        for transition in machine.enabled_transitions(state):
            assert not transition.is_drain
            state2 = machine.next_state(state, transition)
            thread = state2.threads[transition.tid]
            assert thread.store_buffer == ()

    def test_ra_write_appends_history_record(self):
        machine = _machine(self.SOURCE, "ra")
        state = machine.initial_state()
        assert state.histories is not None
        store = next(
            t for t in machine.enabled_transitions(state)
            if not t.is_drain
        )
        state2 = machine.next_state(state, store)
        (loc,) = [
            loc for loc in state2.histories
            if getattr(loc, "root", None) is not None
            and loc.root.name == "x"
        ]
        history = state2.histories.get(loc)
        # Lazily materialized init record plus the new release write,
        # whose message view names its own timestamp.
        assert [value for value, _view in history][-1] == 1
        writer = state2.threads[store.tid]
        assert writer.view.get(loc) == len(history) - 1

    def test_sc_and_tso_reach_different_state_counts_on_sb(self):
        source = TESTS["SB"].source
        machines = {
            model: translate_level(
                check_level("level L { " + source + " }"),
                memory_model=model,
            )
            for model in ("sc", "tso")
        }
        counts = {}
        for model, machine in machines.items():
            states = {machine.initial_state()}
            frontier = list(states)
            while frontier:
                state = frontier.pop()
                for tr in machine.enabled_transitions(state):
                    nxt = machine.next_state(state, tr)
                    if nxt not in states:
                        states.add(nxt)
                        frontier.append(nxt)
            counts[model] = len(states)
        assert counts["sc"] < counts["tso"]


class TestLitmusMatrix:
    """The corpus's allowed/forbidden table holds for every shipped
    model — the headline property of the subsystem."""

    @pytest.mark.parametrize("test", [t.name for t in CORPUS])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_expected_verdict(self, test, model):
        litmus = TESTS[test]
        logs = run_litmus(litmus, model)
        observed = litmus.weak_outcome in logs
        assert observed == litmus.allowed[model], (
            f"{test} under {model}: weak outcome "
            f"{litmus.weak_outcome} "
            f"{'observed' if observed else 'missing'} but expected "
            f"{'allowed' if litmus.allowed[model] else 'forbidden'}"
        )
        if litmus.strong_outcome is not None:
            assert litmus.strong_outcome in logs

    def test_check_matrix_is_all_ok(self):
        rows = check_matrix(models=("sc",), tests=("SB", "MP"))
        assert rows and all(row["ok"] for row in rows)

    def test_ra_is_strictly_weaker_than_tso_on_iriw(self):
        tso = run_litmus("IRIW", "tso")
        ra = run_litmus("IRIW", "ra")
        assert tso <= ra
        assert (1, 0, 1, 0) in ra - tso


_ROWS = sweep_rows()
_SWEEP = Sweep()


@lru_cache(maxsize=None)
def _observed(row_id, model):
    """Final outcomes and UB reasons of the complete exploration of a
    :func:`sweep_rows` row under *model*."""
    spec = dict(_ROWS)[row_id]
    result = Explorer(_SWEEP.machine(spec, model), 100_000).explore()
    assert not result.hit_state_budget, (row_id, model)
    return frozenset(result.final_outcomes), frozenset(result.ub_reasons)


class TestWeakModelsKeepScBehaviours:
    """x86-TSO and C11 release/acquire only add behaviours to SC: on
    every case-study level and litmus shape, each final outcome
    (deadlocks and assertion failures included) and each UB reason an
    SC exploration finds, the weaker model finds too."""

    @pytest.mark.parametrize("weak", ["tso", "ra"])
    @pytest.mark.parametrize("row_id", [r[0] for r in _ROWS])
    def test_sc_behaviours_survive(self, row_id, weak):
        sc_outcomes, sc_ub = _observed(row_id, "sc")
        outcomes, ub = _observed(row_id, weak)
        assert sc_outcomes
        assert sc_outcomes <= outcomes
        assert sc_ub <= ub


PROGRAM = """
level Impl {
  var x: uint32;
  void main() { x := 3; print_uint32(x); }
}
level Spec {
  var x: uint32;
  void main() { x ::= 3; print_uint32(x); }
}
proof P { refinement Impl Spec tso_elim x "true" }
"""


class TestCacheKeys:
    """The memory model is part of every cache identity."""

    def _engine(self, model, **kwargs):
        checked = check_program(PROGRAM)
        return ProofEngine(checked, memory_model=model, **kwargs)

    def test_job_fingerprints_differ_across_models(self):
        prints = {
            model: self._engine(model)._job_fingerprint()
            for model in MODELS
        }
        assert len(set(prints.values())) == len(MODELS)
        assert "mm=tso" in prints["tso"]

    def test_level_fingerprints_differ_across_models(self):
        prints = {
            model: self._engine(model).level_fingerprint("Impl")
            for model in MODELS
        }
        assert len(set(prints.values())) == len(MODELS)

    def test_proof_keys_differ_across_models(self):
        keys = {}
        for model in MODELS:
            engine = self._engine(model)
            proof = engine.checked.program.proofs[0]
            keys[model] = engine.proof_key(proof)
        assert len(set(keys.values())) == len(MODELS)

    def test_shared_cache_dir_never_replays_across_models(self, tmp_path):
        """Regression: with one on-disk proof cache, a TSO run must not
        seed cache hits for an SC run of the same program — only a
        repeat run under the *same* model may hit."""
        cache_dir = tmp_path / "cache"

        def run(model):
            farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
            engine = self._engine(model, farm=farm)
            return engine.run_all(), farm.summary()

        first, warm = run("tso")
        assert first.success
        assert warm.cache_hits == 0
        second, cold = run("sc")
        assert second.success
        assert cold.cache_hits == 0  # model changed: all keys miss
        third, hot = run("tso")
        assert third.success
        assert hot.cache_hits > 0  # same model: the cache does work

    def test_shared_outcome_cache_never_replays_across_models(self):
        from repro.serve.incremental import OutcomeCache

        cache = OutcomeCache()
        checked = check_program(PROGRAM)
        first = ProofEngine(
            checked, memory_model="tso", outcome_cache=cache
        ).run_all()
        assert first.success
        assert not any(o.from_cache for o in first.outcomes)
        second = ProofEngine(
            check_program(PROGRAM), memory_model="sc",
            outcome_cache=cache,
        ).run_all()
        assert second.success
        assert not any(o.from_cache for o in second.outcomes)
        third = ProofEngine(
            check_program(PROGRAM), memory_model="tso",
            outcome_cache=cache,
        ).run_all()
        assert third.success
        assert all(o.from_cache for o in third.outcomes)


class TestPerModelAnalysis:
    SB = (
        "var x: uint32; var y: uint32; "
        "var r1: uint32; var r2: uint32; "
        "void t1() { x := 1; r1 := y; fence(); } "
        "void main() { var a: uint64 := 0; a := create_thread t1(); "
        "y := 1; r2 := x; join a; fence(); "
        "var s: uint32 := 0; s := r1; print_uint32(s); } "
    )

    def _analysis(self, model):
        from repro.analysis import analyze_level

        return analyze_level(
            check_level("level L { " + self.SB + " }"),
            memory_model=model,
        )

    def test_sc_flags_no_weak_memory_sensitivity(self):
        result = self._analysis("sc")
        assert result.memory_model == "sc"
        assert not any(
            v.tso_sensitive for v in result.verdicts.values()
        )
        assert result.report().stats["memory_model"] == "sc"

    @pytest.mark.parametrize("model", ["tso", "ra"])
    def test_weak_models_flag_sb_stores(self, model):
        result = self._analysis(model)
        assert result.memory_model == model
        assert any(
            v.tso_sensitive for v in result.verdicts.values()
        )


class TestRaExecution:
    def test_lock_protected_program_agrees_across_models(self):
        source = (
            "var g: uint32 := 5; var mu: uint64; "
            "void worker() { var t: uint32 := 0; "
            "lock(&mu); t := g; g := t + 3; unlock(&mu); } "
            "void main() { var h: uint64 := 0; var t: uint32 := 0; "
            "initialize_mutex(&mu); h := create_thread worker(); "
            "lock(&mu); t := g; g := t * 2; unlock(&mu); "
            "join h; fence(); t := g; print_uint32(t); }"
        )
        logs = {}
        for model in sorted(MODELS):
            machine = _machine(source, model)
            logs[model] = {
                log for kind, log in final_logs(machine, 200_000)
                if kind == "normal"
            }
        assert logs["sc"] == logs["tso"] == logs["ra"] == {(13,), (16,)}

    def test_join_acquires_child_final_writes(self):
        # No fence: join itself must publish the child's plain write.
        source = (
            "var x: uint32; "
            "void child() { x := 7; } "
            "void main() { var h: uint64 := 0; var t: uint32 := 0; "
            "h := create_thread child(); join h; "
            "t := x; print_uint32(t); }"
        )
        machine = _machine(source, "ra")
        logs = {
            log for kind, log in final_logs(machine, 100_000)
            if kind == "normal"
        }
        assert logs == {(7,)}
