"""Tests for the type checker."""

import pytest

from repro.cli import main
from repro.errors import TypeError_
from repro.lang import types as ty
from repro.lang.frontend import check_level


def check(source: str):
    return check_level("level L { " + source + " }")


def rejected(source: str) -> str:
    with pytest.raises(TypeError_) as info:
        check(source)
    return str(info.value)


class TestAssignments:
    def test_literal_adopts_target_width(self):
        ctx = check("var x: uint8; void m() { x := 255; }")
        assert ctx is not None

    def test_literal_out_of_range(self):
        assert "out of range" in rejected(
            "var x: uint8; void m() { x := 256; }"
        )

    def test_no_implicit_narrowing(self):
        rejected(
            "var a: uint8; var b: uint32; void m() { a := b; }"
        )

    def test_arity_mismatch(self):
        assert "right-hand sides" in rejected(
            "var a: uint8; void m() { a := 1, 2; }"
        )

    def test_assign_to_literal_rejected(self):
        rejected("void m() { 5 := 1; }")

    def test_multi_assign(self):
        check("var a: uint8; var b: uint8; void m() { a, b := 1, 2; }")


class TestOperators:
    def test_mixed_widths_rejected(self):
        rejected(
            "var a: uint8; var b: uint16; void m() { a := a + b; }"
        )

    def test_fixed_plus_literal(self):
        check("var a: uint32; void m() { a := a + 1; }")

    def test_mathint_absorbs_fixed(self):
        check("ghost var n: int; var a: uint32; "
              "void m() { n := n + a; }")

    def test_logic_requires_bool(self):
        rejected("var a: uint8; void m() { assert a && true; }")

    def test_shift_requires_fixed(self):
        rejected("ghost var n: int; void m() { n := n << 2; }")

    def test_bitand_on_mathint_rejected(self):
        rejected("ghost var n: int; void m() { n := n & 1; }")

    def test_comparison_result_is_bool(self):
        check("var a: uint8; void m() { assert a < 3; }")

    def test_negation(self):
        check("ghost var n: int; void m() { n := -n; }")

    @pytest.mark.parametrize("text", ["1 + y", "y + 1", "2 * (1 + y)"])
    def test_literal_takes_the_width_of_either_operand(self, text):
        ctx = check(f"var y: uint32; void m() {{ assert {text} == 0; }}")
        method = ctx.level.methods[0]
        assert method.body.stmts[0].cond.left.type == ty.UINT32

    def test_literal_left_of_a_fixed_width_operand_wraps(
        self, tmp_path, capsys
    ):
        program = tmp_path / "wrap.arm"
        program.write_text(
            "level L { var y: uint32 := 4294967295; void main() { "
            "var r: uint32 := 0; if (1 + y == y + 1) { r := 1; } "
            "print_uint32(r); } }"
        )
        assert main(["run", str(program)]) == 0
        assert "log: [1]" in capsys.readouterr().out


class TestPointers:
    def test_address_of_gives_pointer(self):
        check("var g: uint32; void m() "
              "{ var p: ptr<uint32> := null; p := &g; }")

    def test_pointer_type_mismatch(self):
        rejected("var g: uint64; void m() "
                 "{ var p: ptr<uint32> := null; p := &g; }")

    def test_deref_non_pointer(self):
        rejected("var g: uint32; void m() { g := *g; }")

    def test_null_assignable_to_any_pointer(self):
        check("void m() { var p: ptr<uint64> := null; }")

    def test_address_of_rvalue_rejected(self):
        rejected("void m() { var p: ptr<uint32> := null; p := &(1); }")

    def test_pointer_offset(self):
        check("var arr: uint32[4]; void m() "
              "{ var p: ptr<uint32> := null; p := &arr[0]; p := p + 1; }")

    def test_field_access_on_non_struct(self):
        rejected("var g: uint32; void m() { g := g.field; }")

    def test_index_into_scalar(self):
        rejected("var g: uint32; void m() { g := g[0]; }")


class TestStatements:
    def test_guard_must_be_bool(self):
        rejected("var a: uint8; void m() { if a { } }")

    def test_nondet_guard_allowed(self):
        check("void m() { if (*) { } }")

    def test_return_type_checked(self):
        rejected("uint32 m() { return true; }")

    def test_void_return_with_value(self):
        assert "void" in rejected("void m() { return 3; }")

    def test_value_return_without_value(self):
        rejected("uint32 m() { return; }")

    def test_join_requires_thread_id(self):
        rejected("var g: uint32; void m() { join g; }")

    def test_dealloc_requires_pointer(self):
        rejected("var g: uint32; void m() { dealloc g; }")

    def test_somehow_modifies_lvalues_only(self):
        rejected("void m() { somehow modifies 1 + 1; }")

    def test_old_only_in_two_state(self):
        assert "old" in rejected(
            "var g: uint32; void m() { assert old(g) == 0; }"
        )

    def test_old_in_somehow_ensures(self):
        check("var g: uint32; void m() "
              "{ somehow modifies g ensures g == old(g) + 1; }")

    def test_call_argument_types(self):
        rejected(
            "void callee(n: uint32) { } "
            "void m() { callee(true); }"
        )

    def test_call_arity(self):
        rejected("void callee(n: uint32) { } void m() { callee(); }")


class TestMethodCallsInExpressions:
    def test_method_call_in_guard_rejected(self):
        # The MCSLock bug class: effects silently dropped.
        message = rejected(
            "var t: uint64; void m() "
            "{ if (compare_and_swap(&t, 0, 1)) { } }"
        )
        assert "expression" in message

    def test_method_call_as_rhs_allowed(self):
        check(
            "var t: uint64; void m() { var ok: bool := false; "
            "ok := compare_and_swap(&t, 0, 1); }"
        )

    def test_uninterpreted_predicate_in_guard_allowed(self):
        check("void m() { if good_enough() { } }")


class TestGhostTypes:
    def test_seq_operations(self):
        check(
            "ghost var q: seq<uint64>; void m() "
            "{ q := q + [1]; assert len(q) > 0; q := drop(q, 1); }"
        )

    def test_first_requires_seq(self):
        rejected("ghost var n: int; void m() { n := first(n); }")

    def test_in_requires_collection(self):
        rejected("ghost var n: int; void m() { assert 1 in n; }")

    def test_set_membership(self):
        check("ghost var s: set<int>; void m() { assert 1 in s; }")

    def test_map_indexing(self):
        check("ghost var m1: map<int, bool>; void m() "
              "{ assert m1[0]; }")

    def test_option_compare_with_none(self):
        check("ghost var o: option<uint64>; void m() "
              "{ assert o == None; }")

    def test_some_constructor(self):
        check("ghost var o: option<uint64>; void m() "
              "{ o := Some(5); }")

    def test_nondet_needs_context(self):
        assert "infer" in rejected("void m() { assert (*) == (*); }")
