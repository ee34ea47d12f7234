"""Tests for the record bases and for the classes the hot paths build;
none compiles code at import."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import re

import pytest

import repro
from repro.analysis.accesses import ConcreteAccess
from repro.errors import NOWHERE, SourceLoc
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.frontend import check_level
from repro.lang.tokens import Token, TokenKind
from repro.machine.evaluator import GhostPlace, LocalPlace, MemoryPlace
from repro.machine.pmap import PMap
from repro.machine.program import Transition
from repro.machine.state import Frame, ProgramState, Termination, ThreadState
from repro.machine.steps import NondetVar
from repro.machine.translator import translate_level
from repro.machine.values import (
    NONE_OPTION,
    NULL,
    CompositeValue,
    GhostMap,
    Location,
    NullPointer,
    OptionValue,
    Pointer,
    Root,
    some,
)
from repro.record import FrozenRecord, Record, Slotted
from repro.verifier.prover import REFUTED, Verdict

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


#: Every module of the package, imported.
REPRO_MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


class TestNoDataclasses:
    """``@dataclass`` compiles methods at import and ``dataclasses``
    loads ``inspect``; no module of ``repro`` may pay for either."""

    @pytest.mark.parametrize("name", REPRO_MODULES)
    def test_module_defines_no_dataclass(self, name):
        module = importlib.import_module(name)
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and c.__module__ == name]
        assert not [c for c in classes if dataclasses.is_dataclass(c)]
        assert not re.search(r"^\s*(import|from) dataclasses\b",
                             inspect.getsource(module), re.M)

    def test_the_record_modules_are_covered(self):
        assert len(REPRO_MODULES) > 80
        for module in (ast, ty):
            assert module.__name__ in REPRO_MODULES
            assert len([c for c in vars(module).values()
                        if isinstance(c, type)
                        and issubclass(c, Record)]) > 10


# ---------------------------------------------------------------------------
# The classes built or hashed per state, token or step compute what their
# dataclasses computed.

ROOT = Root("global", "x")
LOCATION = Location(ROOT, (1, 2))
FRAME = Frame("m", 1, PMap({"x": 0}), "m#2", "r")

#: (instance, its dataclass field tuple, its repr at the last commit
#: that generated the class).
HOT_CLASSES = [
    (SourceLoc(3, 7, "f.arm"), (3, 7, "f.arm"),
     "SourceLoc(line=3, column=7, filename='f.arm')"),
    (Token(TokenKind.IDENT, "x", SourceLoc(1, 2)),
     (TokenKind.IDENT, "x", SourceLoc(1, 2)),
     "Token(kind=<TokenKind.IDENT: 'identifier'>, text='x', "
     "loc=SourceLoc(line=1, column=2, filename='<armada>'))"),
    (ROOT, ("global", "x", 0), "Root(kind='global', name='x', serial=0)"),
    (Root("alloc", serial=4), ("alloc", "", 4),
     "Root(kind='alloc', name='', serial=4)"),
    (LOCATION, (ROOT, (1, 2)),
     "Location(root=Root(kind='global', name='x', serial=0), "
     "path=(1, 2))"),
    (Location(ROOT), (ROOT, ()),
     "Location(root=Root(kind='global', name='x', serial=0), path=())"),
    (Pointer(LOCATION, ty.UINT8), (LOCATION, ty.UINT8),
     "Pointer(location=Location(root=Root(kind='global', name='x', "
     "serial=0), path=(1, 2)), target_type=IntType(bits=8, "
     "signed=False))"),
    (NULL, (), "NullPointer()"),
    (some(5), (5, True), "OptionValue(value=5, is_some=True)"),
    (NONE_OPTION, (None, False), "OptionValue(value=None, is_some=False)"),
    (CompositeValue((1, NULL)), ((1, NULL),),
     "CompositeValue(children=(1, NullPointer()))"),
    (Termination("assert_failure", "x"), ("assert_failure", "x"),
     "Termination(kind='assert_failure', detail='x')"),
    (FRAME, ("m", 1, PMap({"x": 0}), "m#2", "r"),
     "Frame(method='m', serial=1, locals=pmap({'x': 0}), "
     "return_pc='m#2', return_lhs_key='r')"),
    (ThreadState(1, "m#0", (FRAME,), ((LOCATION, 3),)),
     (1, "m#0", (FRAME,), ((LOCATION, 3),), None),
     "ThreadState(tid=1, pc='m#0', frames=(Frame(method='m', serial=1, "
     "locals=pmap({'x': 0}), return_pc='m#2', return_lhs_key='r'),), "
     "store_buffer=((Location(root=Root(kind='global', name='x', "
     "serial=0), path=(1, 2)), 3),), view=None)"),
    (ProgramState(PMap(), PMap({LOCATION: 0}), PMap(), PMap({"g": 1}),
                  (1,)),
     (PMap(), PMap({LOCATION: 0}), PMap(), PMap({"g": 1}), (1,), None, 1,
      1, None, None),
     "ProgramState(threads=pmap({}), memory=pmap({Location(root=Root("
     "kind='global', name='x', serial=0), path=(1, 2)): 0}), "
     "allocation=pmap({}), ghosts=pmap({'g': 1}), log=(1,), "
     "termination=None, next_tid=1, next_serial=1, atomic_owner=None, "
     "histories=None)"),
    (MemoryPlace(LOCATION, ty.UINT8), (LOCATION, ty.UINT8),
     "MemoryPlace(location=Location(root=Root(kind='global', name='x', "
     "serial=0), path=(1, 2)), type=IntType(bits=8, signed=False))"),
    (LocalPlace("v", (0,), ty.BOOL), ("v", (0,), ty.BOOL),
     "LocalPlace(name='v', path=(0,), type=BoolType())"),
    (GhostPlace("g", ty.MATHINT), ("g", ty.MATHINT),
     "GhostPlace(name='g', type=MathIntType())"),
    (NondetVar(7, ty.BOOL, "expr"), (7, ty.BOOL, "expr"),
     "NondetVar(key=7, type=BoolType(), kind='expr')"),
    (Transition(2, None, (("k", 1),)), (2, None, (("k", 1),)),
     "Transition(tid=2, step=None, params=(('k', 1),))"),
    (ConcreteAccess(LOCATION, "write", False, "m#1", "AssignStep"),
     (LOCATION, "write", False, "m#1", "AssignStep", False),
     "ConcreteAccess(location=Location(root=Root(kind='global', "
     "name='x', serial=0), path=(1, 2)), kind='write', atomic=False, "
     "pc='m#1', step_desc='AssignStep', buffered=False)"),
]
HOT_CLASS_IDS = [type(value).__name__ for value, _, _ in HOT_CLASSES]


def _rebuilt(value, fields):
    """An equal instance built from *fields*, sharing no object with
    *value* but its field values."""
    if isinstance(value, NullPointer):
        return NullPointer()
    return type(value)(*fields)


class TestHotClasses:
    def test_all_eighteen_classes_are_pinned(self):
        assert len({type(value) for value, _, _ in HOT_CLASSES}) == 18
        for value, _, _ in HOT_CLASSES:
            if isinstance(value, (NondetVar, ConcreteAccess)):
                # Built once per compiled step, and only by the dynamic
                # scan of ``armada analyze``: records suffice.
                assert isinstance(value, FrozenRecord)
            else:
                assert isinstance(value, Slotted), type(value)
                assert "__dict__" not in dir(value), type(value)

    @pytest.mark.parametrize("value, fields, text", HOT_CLASSES,
                             ids=HOT_CLASS_IDS)
    def test_repr(self, value, fields, text):
        assert repr(value) == text

    @pytest.mark.parametrize("value, fields, text", HOT_CLASSES,
                             ids=HOT_CLASS_IDS)
    def test_hash_is_the_hash_of_the_field_tuple(self, value, fields,
                                                 text):
        assert hash(value) == hash(fields)
        assert hash(_rebuilt(value, fields)) == hash(fields)

    @pytest.mark.parametrize("value, fields, text", HOT_CLASSES,
                             ids=HOT_CLASS_IDS)
    def test_equality_is_same_class_and_equal_fields(self, value, fields,
                                                      text):
        twin = _rebuilt(value, fields)
        assert twin is not value
        assert twin == value and not twin != value
        assert value != fields
        assert value.__eq__(fields) is NotImplemented
        if fields:
            changed = (("other",) + fields[1:])
            assert type(value)(*changed) != value

    def test_equal_fields_of_another_class_differ(self):
        assert GhostPlace("g", ty.BOOL) != LocalPlace("g", (), ty.BOOL)
        assert MemoryPlace(LOCATION, ty.BOOL) != Pointer(LOCATION, ty.BOOL)

    def test_a_copy_computes_its_own_hash(self):
        thread = ThreadState(1, "m#0", (FRAME,))
        state = ProgramState(PMap({1: thread}), PMap(), PMap(), PMap())
        for value in (thread, state):
            hash(value)  # fills the cache
            copy = value.replace()
            assert copy == value
            assert copy._hash is None
            assert hash(copy) == hash(value)


class TestReplace:
    def test_record_copy_keeps_every_field_but_the_changed(self):
        from repro.proofs.engine import ProofOutcome

        outcome = ProofOutcome("p", "weakening", False, None, "boom", True,
                               elapsed_seconds=2.5, inconclusive=True)
        reused = outcome.reused()
        assert reused is not outcome
        assert reused == ProofOutcome("p", "weakening", False, None, "boom",
                                      True, elapsed_seconds=0.0,
                                      inconclusive=True, from_cache=True)
        assert outcome.elapsed_seconds == 2.5 and not outcome.from_cache

    def test_frozen_and_keyword_only_fields_are_copied(self):
        loc = SourceLoc(1, 1)
        node = ast.Binary("+", ast.Var("a"), ast.IntLit(1), loc=loc)
        copy = node.replace(op="-")
        assert (copy.op, copy.left, copy.right, copy.loc) == (
            "-", node.left, node.right, loc)
        assert node.op == "+"
        width = ty.IntType(8, False).replace(bits=16)
        assert width == ty.UINT16 and hash(width) == hash(ty.UINT16)

    def test_summary_copy_and_dict_share_no_list(self):
        from repro.farm import FarmSummary

        summary = FarmSummary(jobs=3, cache_hits=1)
        summary.record_executed("a", 0.5)
        copy = summary.copy()
        data = summary.to_dict()
        summary.record_executed("b", 0.7)
        assert copy == FarmSummary(3, 1, 1, 0, worker_seconds=0.5,
                                   slowest=[("a", 0.5)])
        assert data == {
            "jobs": 3, "executed": 1, "cache_hits": 1, "cache_stores": 0,
            "timeouts": 0, "cache_quarantined": 0, "cache_evictions": 0,
            "cancelled": 0, "worker_seconds": 0.5, "slowest": [("a", 0.5)],
        }


class TestSteps:
    SOURCE = "level L { var g: uint8; void main() { label here: g := 3; } }"

    def _steps(self):
        machine = translate_level(check_level(self.SOURCE))
        return machine.steps_by_pc["main#0"][0], machine

    def test_repr_keeps_the_dataclass_format(self):
        step, _ = self._steps()
        assert repr(step) == (
            "AssignStep(pc='main#0', target='main#1', "
            "loc=SourceLoc(line=1, column=51, filename='<armada>'), "
            "label='here', lhss=[Var(loc=SourceLoc(line=1, column=51, "
            "filename='<armada>'), type=IntType(bits=8, signed=False), "
            "name='g')], rhss=[IntLit(loc=SourceLoc(line=1, column=56, "
            "filename='<armada>'), type=IntType(bits=8, signed=False), "
            "value=3)], tso_bypass=False, ghost_only=False)"
        )

    def test_a_step_equals_only_itself(self):
        step, _ = self._steps()
        twin, _ = self._steps()
        assert repr(twin) == repr(step)
        assert step == step and twin != step
        assert hash(step) == object.__hash__(step)
        assert len({step, twin, step}) == 2

    def test_loc_and_label_are_keyword_only(self):
        step, _ = self._steps()
        assert "loc" not in step._positional
        assert "label" not in step._positional
        assert step._fields[:4] == ("pc", "target", "loc", "label")


class TestVerdictPickle:
    """The proof cache pickles verdicts, counterexamples included."""

    def test_refuted_verdict_round_trips(self):
        counterexample = {
            "p": Pointer(LOCATION, ty.PtrType(ty.UINT8)),
            "cell": LOCATION,
            "o": some(CompositeValue((1, NULL))),
            "none": NONE_OPTION,
            "m": GhostMap({1: some(2)}),
            "n": NULL,
        }
        verdict = Verdict(REFUTED, counterexample, 17)
        restored = pickle.loads(pickle.dumps(verdict))
        assert restored == verdict
        assert repr(restored) == repr(verdict)
        assert restored.counterexample["n"] == NULL
        assert {k: hash(v) for k, v in restored.counterexample.items()} == {
            k: hash(v) for k, v in counterexample.items()
        }
