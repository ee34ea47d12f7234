"""Tests for the Armada parser."""

import pytest

from repro.errors import ParseError
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.parser import (
    _BINARY_LEVELS,
    MAX_NESTING,
    parse_expression,
    parse_program,
)


def parse_stmts(body: str) -> list[ast.Stmt]:
    program = parse_program(
        "level L { void main() { " + body + " } }"
    )
    return program.levels[0].methods[0].body.stmts


class TestLevelStructure:
    def test_empty_level(self):
        program = parse_program("level L { }")
        assert program.levels[0].name == "L"

    def test_global_variable_with_init(self):
        program = parse_program(
            "level L { var best_len: uint32 := 0xFFFFFFFF; }"
        )
        g = program.levels[0].globals[0]
        assert g.name == "best_len"
        assert g.var_type == ty.UINT32
        assert isinstance(g.init, ast.IntLit)

    def test_ghost_global(self):
        program = parse_program(
            "level L { ghost var lockholder: option<uint64>; }"
        )
        g = program.levels[0].globals[0]
        assert g.ghost
        assert isinstance(g.var_type, ty.OptionType)

    def test_struct_declaration(self):
        program = parse_program(
            "level L { struct S { var a: uint32; var b: uint64[4]; } }"
        )
        s = program.levels[0].structs[0].struct_type
        assert s.field_type("a") == ty.UINT32
        assert isinstance(s.field_type("b"), ty.ArrayType)

    def test_method_c_style(self):
        program = parse_program("level L { void main() { } }")
        m = program.levels[0].methods[0]
        assert m.name == "main"
        assert isinstance(m.return_type, ty.VoidType)

    def test_method_with_return_type(self):
        program = parse_program("level L { uint32 get(i: uint32) { } }")
        m = program.levels[0].methods[0]
        assert m.return_type == ty.UINT32
        assert m.params[0].name == "i"

    def test_extern_method(self):
        program = parse_program(
            "level L { method {:extern} f(n: uint32) modifies g; }"
        )
        m = program.levels[0].methods[0]
        assert m.is_extern
        assert m.body is None
        assert len(m.spec.modifies) == 1

    def test_duplicate_level_names_allowed_by_parser(self):
        program = parse_program("level L { } level L { }")
        assert len(program.levels) == 2


class TestProofRecipes:
    def test_weakening_recipe(self):
        program = parse_program(
            "proof P { refinement A B weakening }"
        )
        proof = program.proofs[0]
        assert (proof.low_level, proof.high_level) == ("A", "B")
        assert proof.strategy.name == "weakening"

    def test_tso_elim_recipe_with_predicate(self):
        program = parse_program(
            'proof P { refinement A B '
            'tso_elim best_len "mutex == $me" }'
        )
        strategy = program.proofs[0].strategy
        assert strategy.name == "tso_elim"
        assert strategy.args == ["best_len", "mutex == $me"]

    def test_use_regions_directive(self):
        program = parse_program(
            "proof P { refinement A B weakening use_regions }"
        )
        assert program.proofs[0].has_directive("use_regions")
        assert program.proofs[0].strategy.name == "weakening"

    def test_multiple_invariant_items(self):
        program = parse_program(
            'proof P { refinement A B assume_intro '
            'invariant "x >= 0" invariant "y >= 0" }'
        )
        assert len(program.proofs[0].directives("invariant")) == 2


class TestStatements:
    def test_assignment(self):
        (stmt,) = parse_stmts("x := 1;")
        assert isinstance(stmt, ast.AssignStmt)
        assert not stmt.tso_bypass

    def test_tso_bypassing_assignment(self):
        (stmt,) = parse_stmts("x ::= 1;")
        assert stmt.tso_bypass

    def test_multi_assignment(self):
        (stmt,) = parse_stmts("x, y := 1, 2;")
        assert len(stmt.lhss) == 2
        assert len(stmt.rhss) == 2

    def test_bare_call_statement(self):
        (stmt,) = parse_stmts("f(1, 2);")
        assert isinstance(stmt, ast.AssignStmt)
        assert stmt.lhss == []
        assert isinstance(stmt.rhss[0], ast.CallRhs)

    def test_var_decl_with_init(self):
        (stmt,) = parse_stmts("var i: int32 := 0;")
        assert isinstance(stmt, ast.VarDeclStmt)
        assert stmt.var_type == ty.INT32

    def test_multi_var_decl(self):
        (stmt,) = parse_stmts("var i: int32 := 0, s: uint64;")
        assert isinstance(stmt, ast.Block)
        assert len(stmt.stmts) == 2

    def test_if_else(self):
        (stmt,) = parse_stmts("if x < y { a := 1; } else { a := 2; }")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.els is not None

    def test_if_nondet_guard(self):
        (stmt,) = parse_stmts("if (*) { a := 1; }")
        assert isinstance(stmt.cond, ast.Nondet)

    def test_while_with_invariant(self):
        (stmt,) = parse_stmts(
            "while i < 100 invariant i >= 0 { i := i + 1; }"
        )
        assert isinstance(stmt, ast.WhileStmt)
        assert len(stmt.invariants) == 1

    def test_create_thread(self):
        (stmt,) = parse_stmts("a[i] := create_thread worker();")
        assert isinstance(stmt.rhss[0], ast.CreateThreadRhs)

    def test_join(self):
        (stmt,) = parse_stmts("join a[i];")
        assert isinstance(stmt, ast.JoinStmt)

    def test_malloc_and_dealloc(self):
        stmts = parse_stmts("p := malloc(uint32); dealloc p;")
        assert isinstance(stmts[0].rhss[0], ast.MallocRhs)
        assert isinstance(stmts[1], ast.DeallocStmt)

    def test_calloc(self):
        (stmt,) = parse_stmts("p := calloc(uint32, 10);")
        rhs = stmt.rhss[0]
        assert isinstance(rhs, ast.CallocRhs)
        assert rhs.alloc_type == ty.UINT32

    def test_somehow(self):
        (stmt,) = parse_stmts(
            "somehow requires x > 0 modifies s ensures valid(s);"
        )
        assert isinstance(stmt, ast.SomehowStmt)
        assert len(stmt.spec.requires) == 1
        assert len(stmt.spec.modifies) == 1
        assert len(stmt.spec.ensures) == 1

    def test_explicit_yield_and_yield(self):
        (stmt,) = parse_stmts(
            "explicit_yield { lock(&m); yield; unlock(&m); }"
        )
        assert isinstance(stmt, ast.ExplicitYieldBlock)
        kinds = [type(s).__name__ for s in stmt.body.stmts]
        assert "YieldStmt" in kinds

    def test_atomic_block(self):
        (stmt,) = parse_stmts("atomic { x := 1; y := 2; }")
        assert isinstance(stmt, ast.AtomicBlock)

    def test_assume(self):
        (stmt,) = parse_stmts("assume t >= ghost_best;")
        assert isinstance(stmt, ast.AssumeStmt)

    def test_label(self):
        (stmt,) = parse_stmts("label acq: lock(&m);")
        assert isinstance(stmt, ast.LabelStmt)
        assert stmt.label == "acq"

    def test_break_continue(self):
        stmts = parse_stmts("while true { break; continue; }")
        body = stmts[0].body.stmts
        assert isinstance(body[0], ast.BreakStmt)
        assert isinstance(body[1], ast.ContinueStmt)


class TestExpressions:
    def test_precedence_arith(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.Binary)
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_logic(self):
        expr = parse_expression("a && b || c")
        assert expr.op == "||"

    def test_implication_binds_loosest(self):
        expr = parse_expression("a && b ==> c")
        assert expr.op == "==>"

    def test_address_of_field(self):
        expr = parse_expression("&s.next")
        assert isinstance(expr, ast.AddressOf)
        assert isinstance(expr.operand, ast.FieldAccess)

    def test_deref(self):
        expr = parse_expression("*p + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.Deref)

    def test_nondet_vs_multiplication(self):
        expr = parse_expression("a * b")
        assert expr.op == "*"
        assert isinstance(expr.left, ast.Var)

    def test_old(self):
        expr = parse_expression("log == old(log) + [n]")
        assert isinstance(expr.right.left, ast.Old)

    def test_seq_literal(self):
        expr = parse_expression("[1, 2, 3]")
        assert isinstance(expr, ast.SeqLit)
        assert len(expr.elements) == 3

    def test_indexing_chain(self):
        expr = parse_expression("a[i][j]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.base, ast.Index)

    def test_conditional_expression(self):
        expr = parse_expression("if a then 1 else 2")
        assert isinstance(expr, ast.Conditional)

    def test_quantifier(self):
        expr = parse_expression("forall i: int . i >= 0 ==> f(i)")
        assert isinstance(expr, ast.Quantifier)
        assert expr.kind == "forall"

    def test_nested_generics_close(self):
        program = parse_program("level L { ghost var m: map<int, seq<int>>; }")
        t = program.levels[0].globals[0].var_type
        assert isinstance(t, ty.MapType)
        assert isinstance(t.value, ty.SeqType)


class TestParseErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_stmts("x := 1")

    def test_garbage_toplevel(self):
        with pytest.raises(ParseError):
            parse_program("banana")

    def test_array_size_must_be_literal(self):
        with pytest.raises(ParseError):
            parse_program("level L { var a: uint32[n]; }")

    def test_trailing_tokens_in_expression(self):
        with pytest.raises(ParseError):
            parse_expression("a b")


def _shape(expr):
    """A binary tree as nested ``(op, left, right)`` over variable names."""
    if isinstance(expr, ast.Binary):
        return (expr.op, _shape(expr.left), _shape(expr.right))
    return expr.name


_LEVEL_OF = {op: level for level, ops in enumerate(_BINARY_LEVELS)
             for op in ops}


class TestBinaryPrecedence:
    def test_every_operator_pair_nests_by_level(self):
        wrong = []
        for op1 in _LEVEL_OF:
            for op2 in _LEVEL_OF:
                expr = parse_expression(f"a {op1} b {op2} c")
                if _LEVEL_OF[op2] > _LEVEL_OF[op1]:
                    expected = (op1, "a", (op2, "b", "c"))
                else:  # op1 binds at least as tightly: group left
                    expected = (op2, (op1, "a", "b"), "c")
                if _shape(expr) != expected:
                    wrong.append((op1, op2, _shape(expr)))
        assert not wrong

    def test_implication_groups_left(self):
        expr = parse_expression("a ==> b ==> c")
        assert _shape(expr) == ("==>", ("==>", "a", "b"), "c")

    def test_twenty_one_operators_on_eleven_levels(self):
        assert len(_LEVEL_OF) == 21
        assert len(_BINARY_LEVELS) == 11


def _too_deep(source, *, program=False):
    with pytest.raises(ParseError) as caught:
        (parse_program if program else parse_expression)(source)
    assert caught.value.message == f"nested more than {MAX_NESTING} deep"
    return caught.value.loc.line, caught.value.loc.column


class TestNestingLimit:
    """Nesting past MAX_NESTING is a ParseError at the first token past
    it.  A statement, an expression, a prefix operator and each operator
    of a binary chain go one level deeper; a top-level expression is
    level 1."""

    def test_parentheses(self):
        at_limit = MAX_NESTING - 1
        parse_expression("(" * at_limit + "x" + ")" * at_limit)
        deeper = at_limit + 1
        assert _too_deep("(" * deeper + "x" + ")" * deeper) == (
            1, deeper + 1)
        assert _too_deep("(" * 10_000 + "x" + ")" * 10_000) == (
            1, deeper + 1)

    @staticmethod
    def _right_nested(n):
        expr = "x"
        for _ in range(n):
            expr = f"(1 + {expr})"
        return expr

    def test_right_nested_binary(self):
        # n parentheses, and the innermost `+` one level deeper still.
        at_limit = MAX_NESTING - 2
        parse_expression(self._right_nested(at_limit))
        source = self._right_nested(at_limit + 1)
        innermost_plus = source.index("x") - 2
        assert _too_deep(source) == (1, innermost_plus + 1)
        assert _too_deep(self._right_nested(10_000))[0] == 1

    def test_prefix_operators(self):
        parse_expression("-" * (MAX_NESTING - 1) + "x")
        assert _too_deep("!" * MAX_NESTING + "x") == (1, MAX_NESTING)
        assert _too_deep("-" * 10_000 + "x") == (1, MAX_NESTING)

    def test_binary_chain_nests_left(self):
        parse_expression("x" + " + x" * (MAX_NESTING - 1))
        source = "x" + " + x" * 10_000
        assert _too_deep(source) == (1, 4 * MAX_NESTING - 1)

    @staticmethod
    def _nested_ifs(n):
        body = "yield;"
        for _ in range(n):
            body = f"if c {{ {body} }}"
        return "level L { void main() { " + body + " } }"

    def test_nested_if_blocks(self):
        # The n-th `if` is level n, its guard and its body level n + 1.
        parse_program(self._nested_ifs(MAX_NESTING - 1))
        source = self._nested_ifs(MAX_NESTING)
        guard = len("level L { void main() { ") + 7 * (MAX_NESTING - 1) + 3
        assert _too_deep(source, program=True) == (1, guard + 1)
        assert _too_deep(self._nested_ifs(10_000), program=True) == (
            1, guard + 1)

    def test_else_if_chain(self):
        def chain(n):
            return ("level L { void main() { if c { }"
                    + " else if c { }" * n + " } }")
        # Each `else if` nests one level; the last guard is one deeper.
        parse_program(chain(MAX_NESTING - 2))
        assert _too_deep(chain(MAX_NESTING - 1), program=True)[0] == 1
        assert _too_deep(chain(10_000), program=True)[0] == 1
