"""The generic lemma library (§4, "Library").

"Our library of generic lemmas are useful in proving refinements
between programs.  Often, they are specific to a certain
correspondence."  Here the library has two faces:

* the interpreted right- and left-mover checks of §4.2.1
  (:func:`right_mover_at`, :func:`left_mover_at`), which step each
  commuted pair through ``NextState``.  The reduction strategy decides
  the same checks by lookups in one compiled sweep
  (:func:`repro.strategies.reduction.classify_movers`); these stay as
  its differential oracle and for the nondeterminism-encapsulation
  ablation bench;
* the rendered *library lemmas* themselves (:data:`LIBRARY_LEMMAS`),
  Dafny-like statements of the meta-theorems the strategies instantiate
  (Cohen–Lamport reduction, rely-guarantee soundness, refinement
  transitivity), included once per proof for SLOC accounting.
"""

from __future__ import annotations

from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState


def right_mover_at(
    machine: StateMachine,
    state: ProgramState,
    mover: Transition,
    other: Transition,
) -> bool:
    """Right-mover check: if *mover* then *other* both fire from *state*,
    the same final state is reachable by *other* then *mover*."""
    if mover.tid == other.tid:
        return True
    s2 = machine.next_state(state, mover)
    if not s2.running:
        return True  # terminal: nothing follows the mover
    if not _transition_enabled(machine, s2, other):
        return True  # the pair never executes in this order here
    s3 = machine.next_state(s2, other)
    if not _transition_enabled(machine, state, other):
        return False
    s2_alt = machine.next_state(state, other)
    if not s2_alt.running:
        return False
    if not _transition_enabled(machine, s2_alt, mover):
        return False
    return machine.next_state(s2_alt, mover) == s3


def left_mover_at(
    machine: StateMachine,
    state: ProgramState,
    mover: Transition,
    other: Transition,
) -> bool:
    """Left-mover check: if *other* then *mover* both fire from *state*,
    the same final state is reachable by *mover* then *other*."""
    if mover.tid == other.tid:
        return True
    if not _transition_enabled(machine, state, other):
        return True
    s2 = machine.next_state(state, other)
    if not s2.running:
        return True
    if not _transition_enabled(machine, s2, mover):
        return True
    s3 = machine.next_state(s2, mover)
    if not _transition_enabled(machine, state, mover):
        return False
    s2_alt = machine.next_state(state, mover)
    if not s2_alt.running:
        return False
    if not _transition_enabled(machine, s2_alt, other):
        return False
    return machine.next_state(s2_alt, other) == s3


def _transition_enabled(
    machine: StateMachine, state: ProgramState, transition: Transition
) -> bool:
    """Whether *transition* (possibly computed at another state) is
    enabled at *state*."""
    if not state.running:
        return False
    thread = state.threads.get(transition.tid)
    if thread is None:
        return False
    if (
        state.atomic_owner is not None
        and state.atomic_owner != transition.tid
    ):
        return False
    if transition.is_drain:
        return machine.memmodel.env_enabled(
            state, transition.tid, transition.params, machine
        )
    if thread.pc != transition.step.pc:
        return False
    try:
        return transition.step.enabled(
            machine, state, transition.tid, transition.params_dict()
        )
    except Exception:
        return True


#: Rendered library lemmas (the meta-theorems the strategies instantiate).
LIBRARY_LEMMAS: list[tuple[str, list[str]]] = [
    (
        "lemma RefinementTransitive(R: RefinementRelation)",
        [
            "  requires forall i, si, sj, sk ::",
            "    (si, sj) in R && (sj, sk) in R ==> (si, sk) in R",
            "  ensures BehaviorRefines(L0, LN) when each adjacent pair "
            "refines",
            "{ /* compose the per-level simulations end to end */ }",
        ],
    ),
    (
        "lemma AnnotatedBehaviorDeterminism()",
        [
            "  ensures forall s, step :: NextState(s, step) is a function",
            "{ /* all nondeterminism is encapsulated in step objects "
            "(sec. 4.1) */ }",
        ],
    ),
    (
        "lemma CohenLamportReduction()",
        [
            "  requires each phase-1 step commutes right across other "
            "threads",
            "  requires each phase-2 step commutes left across other "
            "threads",
            "  requires no step passes from phase 2 directly to phase 1",
            "  ensures sequences between yield points may be treated as "
            "atomic",
            "{ /* Cohen & Lamport, Reduction in TLA (CONCUR 1998) */ }",
        ],
    ),
    (
        "lemma RelyGuaranteeSoundness()",
        [
            "  requires every step of every thread maintains the "
            "guarantee",
            "  requires each thread's local proof tolerates the rely",
            "  ensures the postconditions hold in the concurrent "
            "composition",
            "{ /* Jones 1983; Liang, Feng & Fu 2012 */ }",
        ],
    ),
    (
        "lemma TsoElimination()",
        [
            "  requires an ownership predicate covers every access to "
            "the locations",
            "  requires releasing ownership implies an empty store "
            "buffer",
            "  ensures buffered assignments refine sequentially "
            "consistent ones",
            "{ /* data-race freedom implies SC for the owned locations "
            "(Adve & Hill 1990; Owens 2010) */ }",
        ],
    ),
]


def render_library_preamble() -> list[str]:
    lines = ["// Generic proof library (instantiated by this proof):"]
    for statement, body in LIBRARY_LEMMAS:
        lines.append(statement)
        lines.extend(body)
    return lines
