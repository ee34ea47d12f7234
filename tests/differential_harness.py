"""Shared harness for the exploration sweeps.

The suites that sweep every case-study level and litmus shape
(:mod:`tests.test_reduction_differential`,
:mod:`tests.test_search_contracts`, :mod:`tests.test_stepc`,
:mod:`tests.test_memmodel`, :mod:`tests.test_explorer`) and the
Hypothesis fuzz (:mod:`tests.test_fuzz_differential`) share this
module: the case-study and litmus corpus, the trace-replay check,
the check that the explorer's three entry points admit the same
states, and a memo of checked programs and machines so each (program,
model) machine is translated once per module, not once per
comparison.
"""

from repro.casestudies import ALL, load
from repro.errors import StateBudgetExceeded
from repro.explore import Explorer
from repro.lang.frontend import check_level, check_program
from repro.machine.translator import translate_level


def _print_regs(*names: str) -> str:
    parts = []
    for i, name in enumerate(names):
        parts.append(f"var s{i}: uint32 := 0; s{i} := {name}; "
                     f"print_uint32(s{i});")
    return " ".join(parts)


#: The x86-TSO litmus shapes of tests/test_tso_litmus.py.
LITMUS = {
    "SB": (
        "var x: uint32; var y: uint32; var r1: uint32; var r2: uint32; "
        "void t1() { x := 1; r1 := y; fence(); } "
        "void main() { var a: uint64 := 0; a := create_thread t1(); "
        "y := 1; r2 := x; join a; fence(); "
        + _print_regs("r1", "r2") + " }"
    ),
    "MP": (
        "var data: uint32; var flag: uint32; "
        "var rf: uint32; var rd: uint32; "
        "void writer() { data := 42; flag := 1; } "
        "void main() { var a: uint64 := 0; "
        "a := create_thread writer(); "
        "rf := flag; rd := data; join a; fence(); "
        + _print_regs("rf", "rd") + " }"
    ),
    "LB": (
        "var x: uint32; var y: uint32; "
        "var r1: uint32; var r2: uint32; "
        "void t1() { r1 := x; y := 1; } "
        "void main() { var a: uint64 := 0; a := create_thread t1(); "
        "r2 := y; x := 1; join a; fence(); "
        + _print_regs("r1", "r2") + " }"
    ),
    "CoRR": (
        "var x: uint32; var r1: uint32; var r2: uint32; "
        "void writer() { x := 1; } "
        "void main() { var a: uint64 := 0; "
        "a := create_thread writer(); "
        "r1 := x; r2 := x; join a; fence(); "
        + _print_regs("r1", "r2") + " }"
    ),
    "2+2W": (
        "var x: uint32; var r1: uint32; "
        "void main() { x := 1; x := 2; r1 := x; fence(); "
        + _print_regs("r1") + " }"
    ),
    "IRIW": (
        "var x: uint32; var y: uint32; "
        "var r1: uint32; var r2: uint32; "
        "var r3: uint32; var r4: uint32; "
        "void wx() { x ::= 1; } "
        "void wy() { y ::= 1; } "
        "void reader1() { r1 ::= x; r2 ::= y; } "
        "void main() { "
        "var a: uint64 := 0; var b: uint64 := 0; var c: uint64 := 0; "
        "a := create_thread wx(); b := create_thread wy(); "
        "c := create_thread reader1(); "
        "r3 ::= y; r4 ::= x; "
        "join a; join b; join c; "
        + _print_regs("r1", "r2", "r3", "r4") + " }"
    ),
}


def case_rows():
    """Every level of every case study, as (id, study, level) rows."""
    rows = []
    for name in sorted(ALL):
        study = load(name)
        checked = check_program(study.source, f"<{name}>")
        for level in checked.program.levels:
            rows.append((f"{name}/{level.name}", name, level.name))
    return rows


def sweep_rows():
    """Every case-study level and every litmus shape, as (id, spec)
    rows; :meth:`Sweep.machine` translates a spec."""
    return [
        (row_id, ("case", study, level))
        for row_id, study, level in case_rows()
    ] + [(name, ("litmus", name)) for name in sorted(LITMUS)]


def replay(machine, trace):
    """Drive *trace* through ``machine.next_state`` from the initial
    state and return the state it lands on."""
    state = machine.initial_state()
    for transition in trace:
        state = machine.next_state(state, transition)
    return state


def assert_entry_points_agree(machine, budget, explored=None):
    """``reachable_states``, ``walk`` and ``explore`` consume one
    search, so they must admit the same states, each exactly once, and
    agree on whether the budget cut the sweep short.  *explored* is an
    ``explore`` result of the same budget to reuse; one is computed
    when omitted."""
    reached = []
    cut = False
    try:
        for state in Explorer(machine, budget).reachable_states():
            reached.append(state)
    except StateBudgetExceeded:
        cut = True
    walked = []
    complete = Explorer(machine, budget).walk(
        lambda state, transitions: walked.append(state) is None
    )
    if explored is None:
        explored = Explorer(machine, budget).explore()
    assert len(set(reached)) == len(reached)
    assert len(walked) == len(reached)
    assert set(walked) == set(reached)
    assert len(reached) == explored.states_visited
    assert cut == (not complete) == explored.hit_state_budget


class Sweep:
    """Shared memo of checked programs and machines."""

    def __init__(self):
        self._checked = {}
        self._machines = {}

    def checked(self, study):
        if study not in self._checked:
            source = load(study).source
            self._checked[study] = check_program(source, f"<{study}>")
        return self._checked[study]

    def case_machine(self, study, level, model):
        key = (study, level, model)
        if key not in self._machines:
            ctx = self.checked(study).contexts[level]
            self._machines[key] = translate_level(ctx, memory_model=model)
        return self._machines[key]

    def litmus_machine(self, name, model):
        key = ("litmus", name, model)
        if key not in self._machines:
            ctx = check_level("level L { " + LITMUS[name] + " }")
            self._machines[key] = translate_level(ctx, memory_model=model)
        return self._machines[key]

    def machine(self, spec, model):
        """The machine of a :func:`sweep_rows` spec under *model*."""
        if spec[0] == "case":
            return self.case_machine(spec[1], spec[2], model)
        return self.litmus_machine(spec[1], model)
