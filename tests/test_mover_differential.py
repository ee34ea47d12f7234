"""Differential test of the reduction strategy's mover classification.

The strategy classifies region steps by lookups in one compiled sweep
(:func:`repro.strategies.reduction.classify_movers` over
:meth:`Explorer.successor_table`).  The oracle here is the
classification as it was first written: interpreted reachable states
and enabled transitions, with every commutativity check stepped by
``right_mover_at``/``left_mover_at`` through ``machine.next_state``.
Both must give the same right movers, left movers and witnesses.
"""

import pytest

from repro.casestudies import load
from repro.explore import Explorer
from repro.lang.frontend import check_program
from repro.proofs.engine import ProofEngine
from repro.proofs.library import left_mover_at, right_mover_at
from repro.proofs.render import step_constructor_name
from repro.strategies.base import ProofRequest
from repro.strategies.reduction import (
    MoverClassification,
    ReductionStrategy,
    classify_movers,
)

from tests import test_strategies
from tests.differential_harness import interpreted_stepping

MODELS = ("sc", "tso", "ra")


def _unprotected_source() -> str:
    """``TestReduction.test_unprotected_region_fails_phase_check``."""
    def level(name, body):
        return (
            f"level {name} {{ var x: uint32; var y: uint32; "
            f"void worker() {{ var t: uint32 := 0; "
            f"var u: uint32 := 0; {body} }} "
            "void main() { var a: uint64 := 0; "
            "a := create_thread worker(); x := 1; y := 1; join a; } }"
        )

    return (
        level("Low", "t := x; u := y;")
        + level("High", "atomic { t := x; u := y; }")
        + "proof P { refinement Low High reduction }"
    )


CASES = {
    "mcslock": (
        lambda: load("mcslock").source, "MCSReducesCriticalSection"
    ),
    "lock_protected": (
        lambda: test_strategies.TestReduction()._source(), "P"
    ),
    "unprotected": (_unprotected_source, "P"),
}


def _region(source: str, proof_name: str, model: str):
    """The low machine of one reduction proof and its region steps."""
    checked = check_program(source)
    proof = next(
        p for p in checked.program.proofs if p.name == proof_name
    )
    engine = ProofEngine(checked, memory_model=model)
    request = ProofRequest(
        proof=proof,
        low_ctx=checked.contexts[proof.low_level],
        high_ctx=checked.contexts[proof.high_level],
        low_machine=engine.machine(proof.low_level),
        high_machine=engine.machine(proof.high_level),
    )
    strategy = ReductionStrategy()
    reduced = strategy._check_correspondence(request)
    machine = request.low_machine
    return machine, strategy._region_steps(machine, reduced)


def _oracle(machine, region_steps) -> MoverClassification:
    """Interpreted classification: the same scan order, every check
    stepped through ``machine.next_state``."""
    with interpreted_stepping():
        states = list(Explorer(machine).reachable_states())
    enabled = {
        state: machine.enabled_transitions(state) for state in states
    }
    right, left, witnesses = set(), set(), {}
    for step in region_steps:
        key = step_constructor_name(step)
        is_right = is_left = True
        for state in states:
            for mover in enabled[state]:
                if mover.step is not step:
                    continue
                for other in enabled[state]:
                    if other.tid == mover.tid:
                        continue
                    name = (
                        "drain" if other.is_drain
                        else step_constructor_name(other.step)
                    )
                    if is_right and not right_mover_at(
                        machine, state, mover, other
                    ):
                        is_right = False
                        witnesses.setdefault(
                            key, f"right-mover fails against {name}"
                        )
                    if is_left and not left_mover_at(
                        machine, state, mover, other
                    ):
                        is_left = False
                        witnesses.setdefault(
                            key, f"left-mover fails against {name}"
                        )
                if not is_right and not is_left:
                    break
            if not is_right and not is_left:
                break
        if is_right:
            right.add(key)
        if is_left:
            left.add(key)
    return MoverClassification(right, left, witnesses)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_table_classification_matches_interpreter(case, model):
    make_source, proof_name = CASES[case]
    machine, region_steps = _region(make_source(), proof_name, model)
    assert region_steps
    table = Explorer(machine).successor_table()
    assert classify_movers(table, region_steps) == _oracle(
        machine, region_steps
    )

