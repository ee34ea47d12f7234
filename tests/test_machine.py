"""Tests for state-machine translation and state structures."""

import pytest

from repro.errors import TranslationError
from repro.lang.frontend import check_level
from repro.machine.pmap import PMap
from repro.machine.state import ProgramState, ThreadState, Frame
from repro.machine.steps import (
    AssertStep,
    AssignStep,
    AssumeStep,
    BranchStep,
    CallStep,
    CreateThreadStep,
    ExternStep,
    JoinStep,
    MallocStep,
    ReturnStep,
    SomehowStep,
)
from repro.machine.translator import translate_level
from repro.machine.values import Location, Root


def machine_for(source: str):
    return translate_level(check_level("level L { " + source + " }"))


class TestPMap:
    def test_set_returns_new(self):
        a = PMap()
        b = a.set("k", 1)
        assert "k" not in a and b["k"] == 1

    def test_set_same_value_returns_self(self):
        a = PMap({"k": 1})
        assert a.set("k", 1) is a

    def test_hash_equals_structural(self):
        a = PMap({"x": 1, "y": 2})
        b = PMap({"y": 2}).set("x", 1)
        assert a == b and hash(a) == hash(b)

    def test_remove(self):
        a = PMap({"x": 1})
        assert len(a.remove("x")) == 0
        assert a.remove("zzz") is a

    def test_set_many(self):
        a = PMap().set_many({"a": 1, "b": 2})
        assert dict(a.items()) == {"a": 1, "b": 2}

    def test_incremental_hash_matches_fresh_build(self):
        # The hash accumulator is maintained incrementally across
        # set/remove/overwrite; any derivation chain reaching the same
        # contents must hash identically to a map built in one shot.
        a = PMap()
        for i in range(20):
            a = a.set(i, i * i)
        a = a.remove(3).remove(17).set(5, -1).set(5, -2)
        fresh = PMap(
            {i: i * i for i in range(20) if i not in (3, 5, 17)}
        ).set(5, -2)
        assert a == fresh
        assert hash(a) == hash(fresh)

    def test_set_many_hash_matches_fresh_build(self):
        derived = PMap({"a": 1}).set_many({"b": 2, "a": 3})
        assert hash(derived) == hash(PMap({"a": 3, "b": 2}))

    def test_hash_differs_by_size(self):
        # XOR-cancelling entries must not collide maps of different
        # sizes: the length is mixed into the final hash.
        a = PMap({"x": 1})
        b = PMap({"x": 1, "y": 2})
        assert hash(a) != hash(b)


class TestStateHashing:
    def _state(self, log=()):
        loc = Location(Root("global", "x"))
        frame = Frame("m", 1, PMap({"x": 0}))
        thread = ThreadState(tid=1, pc="m#0", frames=(frame,))
        return ProgramState(
            threads=PMap({1: thread}),
            memory=PMap({loc: 0}),
            allocation=PMap(),
            ghosts=PMap(),
            log=log,
        )

    def test_equal_states_hash_equal(self):
        a, b = self._state(), self._state()
        assert a == b
        assert hash(a) == hash(b)

    def test_replace_recomputes_cached_hash(self):
        state = self._state()
        hash(state)  # populate the cache
        replaced = state.replace(log=(1,))
        assert hash(replaced) == hash(self._state(log=(1,)))
        assert replaced != state

    def test_hash_stable_across_calls(self):
        state = self._state()
        assert hash(state) == hash(state)


class TestThreadState:
    def _thread(self):
        frame = Frame("m", 1, PMap({"x": 0}))
        return ThreadState(tid=1, pc="m#0", frames=(frame,))

    def test_store_buffer_fifo(self):
        t = self._thread()
        loc_a = Location(Root("global", "a"))
        loc_b = Location(Root("global", "b"))
        t = t.push_buffer(loc_a, 1).push_buffer(loc_b, 2)
        t, loc, val = t.pop_buffer()
        assert (loc, val) == (loc_a, 1)
        t, loc, val = t.pop_buffer()
        assert (loc, val) == (loc_b, 2)
        assert t.sb_empty

    def test_set_local(self):
        t = self._thread().set_local("x", 42)
        assert t.top.locals["x"] == 42

    def test_terminated(self):
        assert self._thread().with_pc(None).terminated


class TestLocalView:
    def test_youngest_buffered_write_wins(self):
        loc = Location(Root("global", "g"))
        frame = Frame("m", 1, PMap())
        thread = ThreadState(1, "m#0", (frame,))
        thread = thread.push_buffer(loc, 10).push_buffer(loc, 20)
        state = ProgramState(
            threads=PMap({1: thread}),
            memory=PMap({loc: 0}),
            allocation=PMap(),
            ghosts=PMap(),
        )
        assert state.local_view(1, loc) == 20

    def test_other_thread_sees_memory(self):
        loc = Location(Root("global", "g"))
        writer = ThreadState(1, "m#0", (Frame("m", 1, PMap()),))
        writer = writer.push_buffer(loc, 10)
        reader = ThreadState(2, "m#0", (Frame("m", 2, PMap()),))
        state = ProgramState(
            threads=PMap({1: writer, 2: reader}),
            memory=PMap({loc: 0}),
            allocation=PMap(),
            ghosts=PMap(),
        )
        assert state.local_view(2, loc) == 0
        assert state.local_view(1, loc) == 10

    def test_drain_moves_oldest_to_memory(self):
        loc = Location(Root("global", "g"))
        thread = ThreadState(1, "m#0", (Frame("m", 1, PMap()),))
        thread = thread.push_buffer(loc, 10).push_buffer(loc, 20)
        state = ProgramState(
            threads=PMap({1: thread}),
            memory=PMap({loc: 0}),
            allocation=PMap(),
            ghosts=PMap(),
        )
        state = state.drain_one(1)
        assert state.memory[loc] == 10
        state = state.drain_one(1)
        assert state.memory[loc] == 20


class TestTranslation:
    def test_pcs_are_program_specific(self):
        machine = machine_for(
            "void main() { var x: uint32 := 0; x := x + 1; }"
        )
        assert all(pc.startswith("main#") for pc in machine.pcs)

    def test_branch_yields_two_steps(self):
        machine = machine_for(
            "void main() { var x: uint32 := 0; if x > 0 { x := 1; } }"
        )
        guards = [
            s for s in machine.all_steps() if isinstance(s, BranchStep)
        ]
        assert len(guards) == 2
        assert {g.when for g in guards} == {True, False}

    def test_while_loops_back(self):
        machine = machine_for(
            "void main() { var i: uint32 := 0; "
            "while i < 3 { i := i + 1; } }"
        )
        guard_pc = next(
            s.pc for s in machine.all_steps() if isinstance(s, BranchStep)
        )
        body_steps = [
            s for s in machine.all_steps()
            if isinstance(s, AssignStep) and s.target == guard_pc
        ]
        assert body_steps, "loop body must jump back to the guard"

    def test_statement_kinds(self):
        machine = machine_for(
            "var mu: uint64; var g: uint32; "
            "void helper() { } "
            "void main() { var t: uint64 := 0; var p: ptr<uint32> := null;"
            " assert true; assume true; "
            "somehow modifies g; lock(&mu); helper(); "
            "t := create_thread helper(); join t; "
            "p := malloc(uint32); dealloc p; }"
        )
        kinds = {type(s).__name__ for s in machine.all_steps()}
        assert {
            "AssertStep", "AssumeStep", "SomehowStep", "ExternStep",
            "CallStep", "CreateThreadStep", "JoinStep", "MallocStep",
            "DeallocStep", "ReturnStep",
        } <= kinds

    def test_atomic_block_pcs_non_yieldable(self):
        machine = machine_for(
            "var x: uint32; void main() "
            "{ atomic { x := 1; x := 2; } x := 3; }"
        )
        yieldable = {
            pc: info.yieldable for pc, info in machine.pcs.items()
        }
        assert False in yieldable.values()
        assert True in yieldable.values()

    def test_explicit_yield_restores_yieldability(self):
        machine = machine_for(
            "var mu: uint64; void main() { explicit_yield { "
            "lock(&mu); unlock(&mu); yield; lock(&mu); unlock(&mu); } }"
        )
        # The yield point splits the region: at least one interior PC is
        # yieldable again.
        interior = [
            info for info in machine.pcs.values() if not info.yieldable
        ]
        yield_points = [
            info for info in machine.pcs.values() if info.yieldable
        ]
        assert interior and yield_points

    def test_label_attaches_to_step(self):
        machine = machine_for(
            "var x: uint32; void main() { label here: x := 1; }"
        )
        labeled = [s for s in machine.all_steps() if s.label == "here"]
        assert len(labeled) == 1

    def test_call_result_through_temp_for_complex_lhs(self):
        machine = machine_for(
            "var arr: uint32[2]; uint32 f() { return 7; } "
            "void main() { arr[1] := f(); }"
        )
        calls = [s for s in machine.all_steps()
                 if isinstance(s, CallStep)]
        assert calls[0].result_local.startswith("$ret")

    def test_direct_result_local_for_simple_lhs(self):
        machine = machine_for(
            "uint32 f() { return 7; } "
            "void main() { var x: uint32 := 0; x := f(); }"
        )
        call = next(s for s in machine.all_steps()
                    if isinstance(s, CallStep))
        assert call.result_local == "x"

    def test_missing_main_rejected(self):
        with pytest.raises(TranslationError):
            machine_for("void helper() { }")

    def test_break_outside_loop_rejected(self):
        with pytest.raises(TranslationError):
            machine_for("void main() { break; }")

    def test_newframe_locals_recorded(self):
        machine = machine_for(
            "void main() { var a: uint32; var b: uint32 := 0; }"
        )
        names = [n for n, _ in machine.newframe_locals["main"]]
        assert "a" in names and "b" in names

    def test_memory_locals_recorded(self):
        machine = machine_for(
            "void main() { var a: uint32 := 0; "
            "var p: ptr<uint32> := null; p := &a; }"
        )
        assert machine.memory_locals["main"] == ["a"]

    def test_initial_state_globals(self):
        machine = machine_for(
            "var x: uint32 := 9; ghost var g: int := 5; void main() { }"
        )
        state = machine.initial_state()
        loc = Location(Root("global", "x"))
        assert state.memory[loc] == 9
        assert state.ghosts["g"] == 5
        assert len(state.threads) == 1

    def test_step_count_metric(self):
        machine = machine_for("void main() { var x: uint32 := 0; }")
        assert machine.step_count() >= 2  # assignment + return
