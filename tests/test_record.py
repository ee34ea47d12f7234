"""Tests for the record base of the syntax-tree and type classes."""

import dataclasses
import inspect

import pytest

from repro.errors import NOWHERE, SourceLoc
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.record import FrozenRecord, Record

LOC = SourceLoc(3, 7, "f.arm")


class TestConstructor:
    def test_positional_order_is_declaration_order(self):
        node = ast.Binary("+", ast.Var("a"), ast.Var("b"), loc=LOC)
        assert (node.op, node.left.name, node.right.name) == ("+", "a", "b")
        assert node.loc == LOC
        assert ast.Binary._fields == ("loc", "type", "op", "left", "right")

    @pytest.mark.parametrize("cls, fields, positional_loc", [
        (ast.Expr, ("loc", "type"), lambda: ast.IntLit(1, LOC)),
        (ast.Rhs, ("loc",), lambda: ast.ExprRhs(ast.Var("x"), LOC)),
        (ast.Stmt, ("loc",), lambda: ast.BreakStmt(LOC)),
    ])
    def test_base_fields_are_keyword_only(self, cls, fields,
                                          positional_loc):
        for sub in (c for c in vars(ast).values()
                    if isinstance(c, type) and issubclass(c, cls)):
            assert not set(fields) & set(sub._positional), sub
        with pytest.raises(TypeError):
            positional_loc()

    @pytest.mark.parametrize("cls, args", [
        (ast.Param, ("p", ty.UINT8)),
        (ast.MethodDecl, ("m", [], ty.VOID, None, ast.MethodSpec(), False)),
        (ast.GlobalVarDecl, ("g", ty.UINT8, None, False)),
        (ast.StructDecl, ("S", None)),
        (ast.LevelDecl, ("L", [], [], [])),
        (ast.RecipeItem, ("weakening", [])),
        (ast.ProofDecl, ("P", "A", "B", [])),
    ])
    def test_trailing_loc_of_declarations_is_positional(self, cls, args):
        assert cls(*args, LOC).loc == LOC
        assert cls(*args, loc=LOC) == cls(*args, LOC)

    def test_defaults(self):
        decl = ast.VarDeclStmt("x", ty.UINT32)
        assert (decl.init, decl.ghost, decl.loc) == (None, False, NOWHERE)
        assert ast.Var("x").type is None

    def test_list_and_spec_defaults_are_fresh_per_node(self):
        first, second = ast.Block(), ast.Block()
        first.stmts.append(ast.YieldStmt())
        assert second.stmts == []
        a, b = ast.SomehowStmt(), ast.SomehowStmt()
        assert a.spec is not b.spec
        a.spec.requires.append(ast.BoolLit(True))
        assert b.spec.requires == []
        assert ast.LevelDecl("L").methods is not ast.LevelDecl("L").methods
        assert ast.MethodDecl("m", [], ty.VOID, None).spec.reads == []

    @pytest.mark.parametrize("build", [
        lambda: ast.Binary("+", ast.Var("a")),  # missing `right`
        lambda: ast.Var(),
        lambda: ast.Var("x", "y"),  # too many positional arguments
        lambda: ast.Var("x", nmae="y"),  # unexpected keyword
        lambda: ast.Var("x", name="y"),  # given twice
        lambda: ty.IntType(8),
        lambda: ty.IntType(8, True, colour=1),
    ])
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()


class TestEquality:
    def test_equal_by_fields_ignoring_type(self):
        a = ast.Var("x", loc=LOC)
        b = ast.Var("x", loc=LOC, type=ty.UINT8)
        assert a == b
        assert ast.Var("x") != ast.Var("y")
        assert ast.Var("x", loc=LOC) != ast.Var("x")

    def test_other_classes_are_never_equal(self):
        assert ast.Var("x") != ast.MetaVar("x")
        assert ast.Old(ast.Var("x")) != ast.Allocated(ast.Var("x"))
        assert ast.Var("x") != "x"

    def test_nested_lists_compare_structurally(self):
        assert ast.Block([ast.YieldStmt()]) == ast.Block([ast.YieldStmt()])
        assert ast.Block([ast.YieldStmt()]) != ast.Block([])

    def test_ast_nodes_are_unhashable_and_writable(self):
        node = ast.IntLit(1)
        with pytest.raises(TypeError):
            hash(node)
        node.type = ty.UINT8  # the type checker's annotation
        assert node.type is ty.UINT8
        assert "__setattr__" not in vars(Record)


class TestFrozenTypes:
    def test_types_hash_and_compare_by_value(self):
        assert ty.IntType(32, True) == ty.INT32
        assert hash(ty.IntType(32, True)) == hash(ty.INT32)
        assert ty.PtrType(ty.UINT8) == ty.PtrType(ty.UINT8)
        assert ty.MapType(ty.INT8, ty.BOOL) != ty.MapType(ty.BOOL, ty.INT8)
        assert len({ty.SeqType(ty.UINT8), ty.SeqType(ty.UINT8)}) == 1
        assert ty.StructField("a", ty.UINT8) == ty.StructField("a", ty.UINT8)

    @pytest.mark.parametrize("value", [
        ty.INT32, ty.MATHINT, ty.PtrType(ty.UINT8),
        ty.StructType("S"), ty.StructField("a", ty.UINT8),
    ])
    def test_types_reject_writes(self, value):
        with pytest.raises(AttributeError):
            value.name = "other"
        with pytest.raises(AttributeError):
            del value.name
        assert isinstance(value, FrozenRecord)

    def test_struct_equality_is_nominal(self):
        empty = ty.StructType("S")
        full = ty.StructType("S", (ty.StructField("a", ty.UINT8),))
        assert empty == full
        assert hash(empty) == hash(full)
        assert ty.StructType("S") != ty.StructType("T")


class TestRepr:
    def test_dataclass_format(self):
        assert repr(ty.IntType(8, False)) == "IntType(bits=8, signed=False)"
        assert repr(ty.MATHINT) == "MathIntType()"
        assert repr(ast.Var("x", loc=LOC)) == (
            "Var(loc=SourceLoc(line=3, column=7, filename='f.arm'), "
            "type=None, name='x')"
        )
        assert repr(ast.Param("p", ty.UINT8)) == (
            "Param(name='p', type=IntType(bits=8, signed=False), "
            f"loc={NOWHERE!r})"
        )


class TestNoDataclasses:
    """``@dataclass`` compiles methods at import; these modules must
    not pay for it."""

    @pytest.mark.parametrize("module", [ast, ty])
    def test_module_defines_no_dataclass(self, module):
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and c.__module__ == module.__name__]
        assert len(classes) > 10
        assert not [c for c in classes if dataclasses.is_dataclass(c)]
        assert "dataclasses" not in inspect.getsource(module)
