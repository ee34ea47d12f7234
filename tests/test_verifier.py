"""Tests for the verification backend: formula evaluation and the
bounded prover (the Dafny/Z3 substitute)."""

import pytest

from repro.lang import types as ty
from repro.lang.frontend import check_program
from repro.machine.evaluator import eval_formula
from repro.machine.state import UBSignal
from repro.verifier import Prover, ProverConfig
from repro.verifier.prover import REFUTED, UNKNOWN


def typed(text: str, decls: str = "var x: uint32; var y: uint32;"):
    """Parse and type a boolean expression against some declarations."""
    program = check_program(
        f"level L {{ {decls} void main() {{ assert {text}; }} }}"
    )
    return program.program.levels[0].methods[0].body.stmts[0].cond


class TestInterpreter:
    def test_arithmetic(self):
        e = typed("x + y == 5")
        assert eval_formula(e, {"x": 2, "y": 3}) is True
        assert eval_formula(e, {"x": 2, "y": 4}) is False

    def test_unsigned_wrap(self):
        e = typed("x + 1 == 0")
        assert eval_formula(e, {"x": 0xFFFFFFFF}) is True

    def test_signed_overflow_is_undef(self):
        e = typed("z + 1 > z", decls="var z: int32;")
        with pytest.raises(UBSignal):
            eval_formula(e, {"z": 2**31 - 1})

    def test_division_by_zero_undef(self):
        e = typed("x / y == 1")
        with pytest.raises(UBSignal):
            eval_formula(e, {"x": 1, "y": 0})

    def test_c_division_truncates_toward_zero(self):
        e = typed("a / b == 0 - 2", decls="var a: int32; var b: int32;")
        assert eval_formula(e, {"a": -7, "b": 3}) is True

    def test_modulo_sign(self):
        e = typed("a % b == 0 - 1", decls="var a: int32; var b: int32;")
        assert eval_formula(e, {"a": -7, "b": 3}) is True

    def test_shift_out_of_range_undef(self):
        e = typed("x << y == 0")
        with pytest.raises(UBSignal):
            eval_formula(e, {"x": 1, "y": 32})

    def test_shortcircuit_protects_undef(self):
        e = typed("y != 0 && x / y == 1")
        assert eval_formula(e, {"x": 3, "y": 0}) is False

    def test_implication_shortcircuit(self):
        e = typed("y != 0 ==> x / y >= 0")
        assert eval_formula(e, {"x": 3, "y": 0}) is True

    def test_undef_propagates_through_comparison(self):
        e = typed("x / y == x / y")
        with pytest.raises(UBSignal):
            eval_formula(e, {"x": 1, "y": 0})

    def test_bitwise(self):
        e = typed("(x & 3) == 1 && (x | 4) >= 4 && (x ^ x) == 0")
        assert eval_formula(e, {"x": 5}) is True

    def test_conditional_expression(self):
        e = typed("(if x > y then x else y) == 7")
        assert eval_formula(e, {"x": 7, "y": 3}) is True
        assert eval_formula(e, {"x": 3, "y": 7}) is True

    def test_sequence_builtins(self):
        e = typed(
            "len(q) == 2 && first(q) == 5 && drop(q, 1) == [6]",
            decls="ghost var q: seq<int>;",
        )
        assert eval_formula(e, {"q": (5, 6)}) is True

    def test_first_of_empty_undef(self):
        e = typed("first(q) == 0", decls="ghost var q: seq<int>;")
        with pytest.raises(UBSignal):
            eval_formula(e, {"q": ()})

    def test_quantifier_forall(self):
        e = typed("forall i: uint8 . i >= 0")
        assert eval_formula(e, {}) is True

    def test_quantifier_exists(self):
        e = typed("exists i: uint8 . i == 3")
        assert eval_formula(e, {}) is True

    def test_unknown_variable_raises(self):
        with pytest.raises(KeyError):
            eval_formula(typed("x == 0"), {})


class TestProver:
    def test_paper_bitvector_example(self):
        # §4.1.2: weakening y := x & 1 to y := x % 2.
        prover = Prover()
        goal = typed("(x & 1) == (x % 2)")
        assert prover.prove_valid(goal, {"x": ty.UINT32}).ok

    def test_refutes_wrong_mask(self):
        prover = Prover()
        goal = typed("(x & 3) == (x % 2)")
        verdict = prover.prove_valid(goal, {"x": ty.UINT32})
        assert not verdict.ok
        assert verdict.counterexample is not None
        # The counterexample must genuinely falsify the goal.
        x = verdict.counterexample["x"]
        assert (x & 3) != (x % 2)

    def test_corner_values_probed(self):
        prover = Prover()
        goal = typed("x < 4294967295")
        verdict = prover.prove_valid(goal, {"x": ty.UINT32})
        assert not verdict.ok
        assert verdict.counterexample["x"] == 0xFFFFFFFF

    def test_assumption_discharges(self):
        prover = Prover()
        goal = typed("x / x == 1")
        assume = typed("x > 0")
        assert not prover.prove_valid(goal, {"x": ty.UINT32}).ok
        assert prover.prove_valid(goal, {"x": ty.UINT32}, [assume]).ok

    def test_undef_goal_refuted(self):
        # Well-definedness: a goal that can be undefined where the
        # hypotheses hold is not proved.
        prover = Prover()
        goal = typed("x / y >= 0")
        verdict = prover.prove_valid(goal, {"x": ty.UINT32,
                                            "y": ty.UINT32})
        assert not verdict.ok

    def test_equivalence(self):
        prover = Prover()
        left = typed("(x & 1) == 0").left
        right = typed("(x % 2) == 0").left
        assert prover.equivalent(left, right, {"x": ty.UINT32}).ok

    def test_equivalence_refuted(self):
        prover = Prover()
        left = typed("(x + 1) == 0").left
        right = typed("(x + 2) == 0").left
        assert not prover.equivalent(left, right, {"x": ty.UINT32}).ok

    def test_boolean_exhaustive(self):
        prover = Prover()
        goal = typed("a || !a", decls="var a: bool;")
        verdict = prover.prove_valid(goal, {"a": ty.BOOL})
        assert verdict.ok
        assert verdict.assignments_checked == 2

    def test_mathint_window(self):
        prover = Prover()
        goal = typed("n * n >= 0", decls="ghost var n: int;")
        assert prover.prove_valid(goal, {"n": ty.MATHINT}).ok

    def test_budget_shrinking_terminates(self):
        # Six uint32 domains keep three corners each (0, 1, max), and
        # 3**6 assignments exceed the budget: the search stops at the
        # budget and, having skipped some, proves nothing.
        config = ProverConfig(max_assignments=500)
        prover = Prover(config)
        variables = {f"v{i}": ty.UINT32 for i in range(6)}
        goal = typed(
            " && ".join(f"v{i} >= 0" for i in range(6)),
            decls="".join(f"var v{i}: uint32;" for i in range(6)),
        )
        verdict = prover.prove_valid(goal, variables)
        assert verdict.status == UNKNOWN and verdict.inconclusive
        assert verdict.assignments_checked == 500

    def test_no_variables(self):
        prover = Prover()
        goal = typed("1 + 1 == 2")
        assert prover.prove_valid(goal, {}).ok

    def test_option_domain(self):
        prover = Prover()
        goal = typed(
            "o == None || o != None", decls="ghost var o: option<uint64>;"
        )
        assert prover.prove_valid(
            goal, {"o": ty.OptionType(ty.UINT64)}
        ).ok


FOUR_WORDS = "var a: uint32; var b: uint32; var c: uint32; var d: uint32;"
SUM = "a + b + c + d"
#: Differs from SUM only where a is the uint32 maximum.
CARRY = "a + b + c + d + (if a == 4294967295 then 1 else 0)"


class TestAssignmentBudget:
    """A search the assignment budget cuts short never proves: the
    budget shrinks the domains, a shrunk domain keeps its corners, and
    an enumeration still cut short is inconclusive."""

    VARIABLES = {name: ty.UINT32 for name in "abcd"}

    def test_shrunk_domains_keep_the_maximum(self):
        goal = typed(f"{SUM} == {CARRY}", decls=FOUR_WORDS)
        verdict = Prover().prove_valid(goal, self.VARIABLES)
        assert verdict.status == REFUTED
        assert verdict.counterexample["a"] == 4294967295

    def test_equivalence_shrinks_its_domains_too(self):
        pair = typed(f"({SUM} == 7) == ({CARRY} == 7)", decls=FOUR_WORDS)
        verdict = Prover().equivalent(pair.left, pair.right, self.VARIABLES)
        assert verdict.status == REFUTED
        assert verdict.counterexample["a"] == 4294967295

    def test_cut_enumeration_is_unknown(self):
        # 2**19 boolean assignments exceed the default budget, and the
        # one that refutes comes last.
        names = [f"b{i}" for i in range(19)]
        goal = typed(
            "!(" + " && ".join(names) + ")",
            decls="".join(f"var {n}: bool;" for n in names),
        )
        verdict = Prover().prove_valid(goal, dict.fromkeys(names, ty.BOOL))
        assert verdict.status == UNKNOWN and verdict.inconclusive
        assert verdict.assignments_checked == \
            ProverConfig().max_assignments
