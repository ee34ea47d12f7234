"""Tests for state-based expression evaluation (places, TSO views,
pointers, UB signalling)."""

import pytest

from repro.errors import TranslationError
from repro.lang.frontend import check_level
from repro.lang.parser import parse_expression
from repro.lang.typechecker import TypeChecker
from repro.machine.evaluator import (
    EvalContext,
    eval_expr,
    eval_formula,
    eval_place,
    GhostPlace,
    LocalPlace,
    MemoryPlace,
)
from repro.machine.state import UBSignal
from repro.machine.translator import translate_level
from repro.machine.values import NONE_OPTION, Pointer, some


SOURCE = """
level L {
  var g: uint32 := 5;
  var arr: uint32[4];
  ghost var ghost_n: int := 7;
  ghost var q: seq<uint64> := [];
  struct Pair { var a: uint32; var b: uint32; }
  var pair: Pair;
  void main() {
    var x: uint32 := 3;
    var addressed: uint32 := 0;
    var p: ptr<uint32> := null;
    p := &addressed;
    print_uint32(x);
  }
}
"""


@pytest.fixture()
def setup():
    ctx = check_level(SOURCE)
    machine = translate_level(ctx)
    state = machine.initial_state()
    return ctx, machine, state


def typed_expr(ctx, text):
    expr = parse_expression(text)
    checker = TypeChecker(ctx)
    checker._check_expr(
        expr, ctx.method_contexts["main"], None, two_state=False
    )
    return expr


def ev(ctx, state, text, tid=1):
    ec = EvalContext(ctx, state, tid, "main")
    return eval_expr(ec, typed_expr(ctx, text))


class TestReads:
    def test_global_read(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "g") == 5

    def test_ghost_read(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "ghost_n") == 7

    def test_local_read(self, setup):
        ctx, machine, state = setup
        thread = state.thread(1).set_local("x", 11)
        state = state.with_thread(thread)
        assert ev(ctx, state, "x + 1") == 12

    def test_array_element(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "arr[2]") == 0

    def test_array_index_out_of_bounds_ub(self, setup):
        ctx, machine, state = setup
        with pytest.raises(UBSignal):
            ev(ctx, state, "arr[9]")

    def test_struct_field(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "pair.a") == 0

    def test_meta_me(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "$me") == 1

    def test_meta_sb_empty(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "$sb_empty") is True

    def test_tso_local_view(self, setup):
        ctx, machine, state = setup
        from repro.machine.values import Location, Root

        loc = Location(Root("global", "g"))
        thread = state.thread(1).push_buffer(loc, 99)
        state = state.with_thread(thread)
        assert ev(ctx, state, "g", tid=1) == 99
        assert state.memory[loc] == 5

    def test_sequence_ghost(self, setup):
        ctx, machine, state = setup
        state = state.with_ghost("q", (4, 5))
        assert ev(ctx, state, "first(q)") == 4
        assert ev(ctx, state, "len(q)") == 2
        assert ev(ctx, state, "drop(q, 1)") == (5,)

    def test_option_values(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "Some(3)") == some(3)
        assert ev(ctx, state, "None") == NONE_OPTION


class TestPlaces:
    def test_global_place_is_memory(self, setup):
        ctx, machine, state = setup
        ec = EvalContext(ctx, state, 1, "main")
        place = eval_place(ec, typed_expr(ctx, "g"))
        assert isinstance(place, MemoryPlace)

    def test_local_place(self, setup):
        ctx, machine, state = setup
        ec = EvalContext(ctx, state, 1, "main")
        place = eval_place(ec, typed_expr(ctx, "x"))
        assert isinstance(place, LocalPlace)

    def test_ghost_place(self, setup):
        ctx, machine, state = setup
        ec = EvalContext(ctx, state, 1, "main")
        place = eval_place(ec, typed_expr(ctx, "ghost_n"))
        assert isinstance(place, GhostPlace)

    def test_address_taken_local_is_memory(self, setup):
        ctx, machine, state = setup
        ec = EvalContext(ctx, state, 1, "main")
        place = eval_place(ec, typed_expr(ctx, "addressed"))
        assert isinstance(place, MemoryPlace)
        assert place.location.root.kind == "local"

    def test_array_element_place(self, setup):
        ctx, machine, state = setup
        ec = EvalContext(ctx, state, 1, "main")
        place = eval_place(ec, typed_expr(ctx, "arr[1]"))
        assert isinstance(place, MemoryPlace)
        assert place.location.path == (1,)


class TestPointers:
    def test_address_of_global(self, setup):
        ctx, machine, state = setup
        pointer = ev(ctx, state, "&g")
        assert isinstance(pointer, Pointer)
        assert pointer.location.root.name == "g"

    def test_deref_roundtrip(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "*(&g)") == 5

    def test_pointer_equality(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "&g == &g") is True
        assert ev(ctx, state, "&g == &arr[0]") is False

    def test_pointer_ordering_same_array(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "&arr[0] < &arr[2]") is True

    def test_pointer_ordering_cross_object_ub(self, setup):
        ctx, machine, state = setup
        with pytest.raises(UBSignal):
            ev(ctx, state, "&g < &arr[0]")

    def test_pointer_offset_in_bounds(self, setup):
        ctx, machine, state = setup
        pointer = ev(ctx, state, "&arr[1] + 2")
        assert pointer.location.path == (3,)

    def test_pointer_offset_out_of_bounds_ub(self, setup):
        ctx, machine, state = setup
        with pytest.raises(UBSignal):
            ev(ctx, state, "&arr[1] + 9")

    def test_null_deref_ub(self, setup):
        ctx, machine, state = setup
        with pytest.raises(UBSignal):
            ev(ctx, state, "*p")

    def test_allocated_of_global(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "allocated(&g)") is True

    def test_allocated_array(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, "allocated_array(&arr[0])") is False


class TestUninterpreted:
    def test_deterministic(self, setup):
        ctx, machine, state = setup
        a = ev(ctx, state, "mystery(3)")
        b = ev(ctx, state, "mystery(3)")
        assert a == b

    def test_distinguishes_arguments(self, setup):
        ctx, machine, state = setup
        values = {ev(ctx, state, f"mystery({i})") for i in range(20)}
        assert len(values) > 1

    def test_method_in_expression_is_ub(self, setup):
        ctx, machine, state = setup
        expr = parse_expression("lock(p)")
        with pytest.raises(UBSignal):
            eval_expr(EvalContext(ctx, state, 1, "main"), expr)


class TestOneSemantics:
    """Quantifiers, formulas and global initializers mean what
    ``eval_expr`` says they mean."""

    BOOL_FORALL = "forall b: bool . b == true || b == false"

    def test_bool_quantifier_ranges_over_both_values(self, setup):
        ctx, machine, state = setup
        assert ev(ctx, state, self.BOOL_FORALL) is True

    def test_bool_quantifier_holds_as_an_explore_invariant(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "prog.arm"
        path.write_text("level L { var x: uint32; void main() { x := 1; } }")
        assert main(["explore", str(path),
                     "--invariant", self.BOOL_FORALL]) == 0
        assert "invariant violated" not in capsys.readouterr().out

    def test_formula_and_state_share_the_quantifier_window(self, setup):
        ctx, machine, state = setup
        expr = typed_expr(ctx, "exists i: uint8 . i == 11")
        assert eval_formula(expr, {}) is True
        assert eval_expr(EvalContext(ctx, state, 1, "main"), expr) is True

    @pytest.mark.parametrize("init, value", [
        ("0 - 1", 255), ("255 + 1", 0), ("2 * 200", 144),
    ])
    def test_initializer_wraps_like_an_assignment(self, init, value):
        ctx = check_level(
            f"level L {{ var x: uint8 := {init}; void main() {{ }} }}"
        )
        state = translate_level(ctx).initial_state()
        assert ev(ctx, state, "x") == value

    def test_initializer_overflow_names_the_global(self):
        ctx = check_level(
            "level L { var y: int8 := 100 + 100; void main() { } }"
        )
        machine = translate_level(ctx)
        with pytest.raises(TranslationError, match="global y"):
            machine.initial_state()
