"""Compiled step specialization (:mod:`repro.compiler.stepc`).

The compiled ``enabled_and_next`` must be *observationally invisible*:
for every machine it covers, it returns exactly the interpreter's
``[(Transition, successor), ...]`` list — same order, same successor
states (bit-identical hashes), same UB reasons, same verdicts — under
all three memory models (SC, x86-TSO and C11 RA).  Step shapes it
cannot cover fall back to the interpreter inline, per step.  A warm
process loads the compiled code from the bytecode cache instead of
recompiling it; an unreadable, corrupt or foreign cache entry is a
miss and regenerates.
"""

import builtins
import json
from collections import deque
from pathlib import Path

import pytest

from repro.casestudies import ALL, load
from repro.compiler import stepc
from repro.compiler.stepc import (
    compile_stepper,
    stepper_for,
    successors_for,
)
from repro.errors import StateBudgetExceeded
from repro.explore.explorer import Explorer
from repro.lang.frontend import check_level, check_program
from repro.machine.translator import translate_level
from repro.memmodel.litmus import CORPUS, run_litmus
from repro.obs import OBS

from tests.differential_harness import Sweep, sweep_rows

#: Budget for the case-study equivalence sweeps — deliberately small
#: enough that truncation triggers on the big levels, so the compiled
#: and interpreted paths are also compared *at* the budget edge.
STUDY_CAP = 4_000

#: IRIW's full sweep needs millions of states; the other shapes cover
#: the same codegen paths (atomic ops, create/join, fences) in seconds.
LITMUS = [t.name for t in CORPUS if t.name != "IRIW"]


def machine_for(source: str, model: str = "tso"):
    return translate_level(
        check_level("level L { " + source + " }"), memory_model=model
    )


SMALL = (
    "var x: uint32; var mu: uint64; "
    "void worker() { var t: uint32 := 0; lock(&mu); t := x; "
    "x := t + 1; unlock(&mu); } "
    "void main() { var a: uint64 := 0; var t: uint32 := 0; "
    "initialize_mutex(&mu); a := create_thread worker(); "
    "lock(&mu); t := x; x := t + 1; unlock(&mu); join a; "
    "t := x; print_uint32(t); }"
)


def assert_same_exploration(interp_machine, compiled_machine,
                            max_states=2_000_000):
    """Explore both ways and require bit-identical observations."""
    ri = Explorer(interp_machine, max_states, compiled=False).explore()
    rc = Explorer(compiled_machine, max_states, compiled=True).explore()
    assert rc.final_outcomes == ri.final_outcomes
    assert sorted(rc.ub_reasons) == sorted(ri.ub_reasons)
    assert rc.states_visited == ri.states_visited
    assert rc.transitions_taken == ri.transitions_taken
    assert rc.assert_failures == ri.assert_failures
    assert rc.hit_state_budget == ri.hit_state_budget
    return ri, rc


#: Budget of the state-by-state sweeps over every level: enough to
#: reach every step of the small levels and to cut the large ones.
LEVEL_CAP = 2_000


def assert_exact_over_admitted(machine, fn):
    """*fn* returns the interpreter's pairs, with successors of equal
    hash, at every state an interpreted breadth-first sweep admits
    within LEVEL_CAP."""
    interpreted = successors_for(machine, compiled=False)
    initial = machine.initial_state()
    seen = {initial}
    frontier = deque((initial,))
    while frontier:
        state = frontier.popleft()
        expected = interpreted(state)
        pairs = fn(state)
        assert pairs == expected
        assert [hash(p[1]) for p in pairs] == \
            [hash(p[1]) for p in expected]
        for _, nxt in expected:
            if nxt not in seen and len(seen) < LEVEL_CAP:
                seen.add(nxt)
                frontier.append(nxt)


class TestExactRelation:
    """The compiled function reproduces the interpreter's transition
    list exactly, state by state, in order."""

    @pytest.mark.parametrize("model", ["sc", "tso", "ra"])
    def test_pairs_identical_over_reachable_set(self, model):
        machine = machine_for(SMALL, model)
        stepper = stepper_for(machine)
        assert stepper is not None
        assert_exact_over_admitted(machine, stepper.fn)

    def test_repeat_calls_are_stable(self):
        # Successor hash-consing must not leak state between calls.
        machine = machine_for(SMALL, "tso")
        stepper = stepper_for(machine)
        state = machine.initial_state()
        first = stepper.fn(state)
        second = stepper.fn(state)
        assert [p[0] for p in first] == [p[0] for p in second]
        assert [p[1] for p in first] == [p[1] for p in second]


class TestLitmusEquivalence:
    @pytest.mark.parametrize("model", ["sc", "tso", "ra"])
    @pytest.mark.parametrize("name", LITMUS)
    def test_logs_identical(self, name, model):
        compiled = run_litmus(name, model, compiled=True)
        interpreted = run_litmus(name, model, compiled=False)
        assert compiled == interpreted


class TestCaseStudyEquivalence:
    @pytest.mark.parametrize("model", ["sc", "tso", "ra"])
    @pytest.mark.parametrize("study_name", sorted(ALL))
    def test_every_level_identical(self, study_name, model):
        study = load(study_name)
        for level in check_program(
            study.source, f"<{study_name}>"
        ).program.levels:
            mi = translate_level(
                check_program(study.source, f"<{study_name}>")
                .contexts[level.name],
                memory_model=model,
            )
            mc = translate_level(
                check_program(study.source, f"<{study_name}>")
                .contexts[level.name],
                memory_model=model,
            )
            assert_same_exploration(mi, mc, max_states=STUDY_CAP)


_ROWS = sweep_rows()


@pytest.fixture(scope="module")
def sweep():
    return Sweep()


class TestEveryLevelExact:
    """State by state, on every case-study level and litmus shape, the
    compiled stepper returns the interpreter's transition list, whether
    it was generated in this process or loaded from the bytecode
    cache."""

    @pytest.mark.parametrize("model", ["sc", "tso", "ra"])
    @pytest.mark.parametrize("row", _ROWS, ids=[r[0] for r in _ROWS])
    def test_pairs_identical_over_reachable_set(self, sweep, row, model):
        machine = sweep.machine(row[1], model)
        stepper = stepper_for(machine)
        assert stepper is not None
        assert_exact_over_admitted(machine, stepper.fn)

    @pytest.mark.parametrize("model", ["sc", "tso", "ra"])
    @pytest.mark.parametrize("row", _ROWS, ids=[r[0] for r in _ROWS])
    def test_cached_stepper_is_exact(self, sweep, row, model, tmp_path,
                                     monkeypatch):
        monkeypatch.setenv("ARMADA_STEPC_CACHE", str(tmp_path))
        machine = sweep.machine(row[1], model)
        cold = compile_stepper(machine)
        warm = compile_stepper(machine)
        assert (cold.cache_hit, warm.cache_hit) == (False, True)
        assert warm.source == cold.source
        assert (warm.compiled_steps, warm.fallback_steps) == \
            (cold.compiled_steps, cold.fallback_steps)
        assert_exact_over_admitted(machine, warm.fn)


class TestFallback:
    def test_ra_machines_are_compiled(self):
        machine = machine_for(SMALL, "ra")
        stepper = stepper_for(machine)
        assert stepper is not None
        assert Explorer(machine, compiled=True).stepper is stepper
        _ri, rc = assert_same_exploration(machine_for(SMALL, "ra"), machine)
        assert rc.final_outcomes == {("normal", (2,))}

    def test_per_step_fallback_is_equivalent(self):
        # The pointers study takes addresses of locals, which the
        # specializer does not compile; those steps run through the
        # inline interpreter fallback.
        study = load("pointers")
        checked = check_program(study.source, "<pointers>")
        level = checked.program.levels[0].name
        machine = translate_level(checked.contexts[level])
        stepper = stepper_for(machine)
        assert stepper is not None
        assert stepper.fallback_steps > 0
        assert stepper.compiled_steps > 0
        mi = translate_level(
            check_program(study.source, "<pointers>").contexts[level]
        )
        assert_same_exploration(mi, machine)

    def test_compiled_off_disables_stepper(self):
        machine = machine_for(SMALL, "tso")
        assert Explorer(machine, compiled=False).stepper is None
        assert Explorer(machine, compiled=True).stepper is not None


class TestBudgetTruncation:
    """A truncated sweep is reported identically by both paths and is
    never silently completed."""

    @pytest.mark.parametrize("compiled", [False, True])
    def test_walk_reports_incomplete(self, compiled):
        machine = machine_for(SMALL, "tso")
        complete = Explorer(
            machine, max_states=5, compiled=compiled
        ).walk(lambda state, transitions: True)
        assert complete is False

    @pytest.mark.parametrize("compiled", [False, True])
    def test_reachable_states_raises(self, compiled):
        machine = machine_for(SMALL, "tso")
        explorer = Explorer(machine, max_states=5, compiled=compiled)
        with pytest.raises(StateBudgetExceeded):
            list(explorer.reachable_states())

    @pytest.mark.parametrize("compiled", [False, True])
    def test_budget_truncated_counter(self, compiled, tmp_path):
        machine = machine_for(SMALL, "tso")
        path = tmp_path / "trace.jsonl"
        OBS.enable(path)
        try:
            Explorer(machine, max_states=5, compiled=compiled).walk(
                lambda state, transitions: True
            )
            with pytest.raises(StateBudgetExceeded):
                list(
                    Explorer(
                        machine, max_states=5, compiled=compiled
                    ).reachable_states()
                )
        finally:
            OBS.disable()
        records = [
            json.loads(line)
            for line in path.read_text().splitlines() if line
        ]
        counters = {}
        for record in records:
            if record.get("type") == "counters":
                counters.update(record.get("counters", {}))
        assert counters.get("explorer.budget_truncated", 0) >= 2


class TestSourceCache:
    def test_second_compile_hits_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARMADA_STEPC_CACHE", str(tmp_path))
        first = compile_stepper(machine_for(SMALL, "tso"))
        assert first.cache_hit is False
        second = compile_stepper(machine_for(SMALL, "tso"))
        assert second.cache_hit is True
        assert second.source == first.source
        assert second.compiled_steps == first.compiled_steps
        assert second.fallback_steps == first.fallback_steps

    def test_corrupt_cache_entry_regenerates(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("ARMADA_STEPC_CACHE", str(tmp_path))
        first = compile_stepper(machine_for(SMALL, "tso"))
        (tmp_path / f"{first.cache_key}.marshal").write_text("syntax error(")
        recovered = compile_stepper(machine_for(SMALL, "tso"))
        assert recovered.cache_hit is False
        state = machine_for(SMALL, "tso").initial_state()
        # Successor states are machine-independent values (Transition
        # objects are not: they hold per-machine Step identities).
        assert [p[1] for p in recovered.fn(state)] == \
            [p[1] for p in first.fn(state)]

    def test_model_is_part_of_the_key(self):
        sc = compile_stepper(machine_for(SMALL, "sc"))
        tso = compile_stepper(machine_for(SMALL, "tso"))
        assert sc.cache_key != tso.cache_key

    def test_other_magic_number_is_a_miss(self, tmp_path, monkeypatch):
        # An entry written by another interpreter holds bytecode this
        # one cannot run: it must miss rather than load.
        monkeypatch.setenv("ARMADA_STEPC_CACHE", str(tmp_path))
        native_magic = stepc.MAGIC_NUMBER
        monkeypatch.setattr(stepc, "MAGIC_NUMBER", b"\xff\xff\r\n")
        foreign = compile_stepper(machine_for(SMALL, "tso"))
        monkeypatch.setattr(stepc, "MAGIC_NUMBER", native_magic)
        native = compile_stepper(machine_for(SMALL, "tso"))
        assert native.cache_key != foreign.cache_key
        assert native.cache_hit is False
        assert compile_stepper(machine_for(SMALL, "tso")).cache_hit is True

    def test_failed_store_leaves_no_tmp_file(self, tmp_path,
                                             monkeypatch):
        # A store whose final rename fails (full disk, permissions)
        # must not leave its temporary file behind, and the compiled
        # stepper must still work from the in-memory code object.
        monkeypatch.setenv("ARMADA_STEPC_CACHE", str(tmp_path))

        def failing_replace(self, target):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(Path, "replace", failing_replace)
        machine = machine_for(SMALL, "tso")
        stepper = compile_stepper(machine)
        assert stepper.cache_hit is False
        interpreted = successors_for(machine, compiled=False)
        states = list(Explorer(machine, compiled=False).reachable_states())
        assert len(states) > 1
        for state in states:
            assert stepper.fn(state) == interpreted(state)
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".*.tmp")) == []
        assert list(tmp_path.glob("*.marshal")) == []

    @pytest.mark.parametrize("model", ["tso", "ra"])
    def test_warm_compile_does_not_recompile(self, tmp_path, monkeypatch,
                                             model):
        monkeypatch.setenv("ARMADA_STEPC_CACHE", str(tmp_path))
        cold = compile_stepper(machine_for(SMALL, model))
        machine = machine_for(SMALL, model)
        real_compile = builtins.compile

        def no_compile(*args, **kwargs):
            raise AssertionError("compile() called on a warm cache")

        monkeypatch.setattr(builtins, "compile", no_compile)
        warm = compile_stepper(machine)
        monkeypatch.setattr(builtins, "compile", real_compile)
        assert warm.cache_hit is True
        assert warm.source == cold.source
        state = machine.initial_state()
        assert [p[1] for p in warm.fn(state)] == \
            [p[1] for p in cold.fn(state)]
