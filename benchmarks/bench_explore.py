"""Exploration core: compiled step specialization, measured.

Two experiments land in ``benchmarks/results/explore.{md,json}`` and
``benchmarks/results/explore_relation.{md,json}``:

1. **Exploration sweep** — for every case-study level and a set of TSO
   litmus shapes, the state space is explored twice: with the
   interpreter (``repro.compiler.stepc.interpreted_successors``) and
   with the compiled stepper (``repro.compiler.stepc``).  The run
   asserts both are *observationally identical* (same states and
   transitions, same final outcomes, same UB reasons, same budget
   status) and records the wall-clock of each.

2. **Step-relation enumeration** — the paper's Figure-12 regime: how
   fast can the successor relation itself be enumerated over the
   reachable set of the largest level (QueueNondet, under TSO and
   under C11 RA)?  The compiled stepper's ``fn`` is compared
   against ``interpreted_successors`` (``enabled_transitions`` +
   ``next_state``) pair-for-pair
   (bit-identical transitions and successor states).  Under TSO it
   must be at least 10x faster (5x in smoke mode, which also shrinks
   the state cap); the RA row is recorded without a floor.

Set ``BENCH_EXPLORE_SMOKE=1`` to restrict the sweep to the smallest
case study and lower the speedup bar (CI's bench-smoke step).  A smoke
run records under ``benchmarks/results/smoke/`` instead.
"""

from __future__ import annotations

import gc
import os
import time
from functools import partial

from _common import fmt_table, record
from repro.casestudies import ALL, load
from repro.compiler.stepc import interpreted_successors, stepper_for
from repro.explore import Explorer
from repro.lang.frontend import check_level, check_program
from repro.machine.translator import translate_level

#: Explorer budget per study (mcslock/queue need the larger bound).
STUDY_BUDGETS = {
    "tsp": 200_000,
    "barrier": 200_000,
    "pointers": 200_000,
    "mcslock": 400_000,
    "queue": 400_000,
}

LITMUS_BUDGET = 200_000

SMOKE = os.environ.get("BENCH_EXPLORE_SMOKE") == "1"
#: Where this mode's reports go, under ``benchmarks/results/``.
RESULTS_PREFIX = "smoke/" if SMOKE else ""

#: Required step-relation speedup on QueueNondet/tso.
RELATION_SPEEDUP_FLOOR = 5.0 if SMOKE else 10.0
RELATION_CAP = 8_000 if SMOKE else 40_000


def _print_regs(*names: str) -> str:
    parts = []
    for i, name in enumerate(names):
        parts.append(f"var s{i}: uint32 := 0; s{i} := {name}; "
                     f"print_uint32(s{i});")
    return " ".join(parts)


#: The classic x86-TSO shapes (see tests/test_tso_litmus.py).  IRIW is
#: omitted: its 4M-state space makes the interpreted sweep too slow.
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
}


def _workloads():
    """Yield (name, machine, budget) for every benchmarked program."""
    studies = ["tsp"] if SMOKE else sorted(ALL)
    for name in studies:
        study = load(name)
        checked = check_program(study.source, f"<{name}>")
        for level in checked.program.levels:
            yield (
                f"{name}/{level.name}",
                translate_level(checked.contexts[level.name]),
                STUDY_BUDGETS[name],
            )
    if SMOKE:
        return
    for name, source in LITMUS.items():
        machine = translate_level(
            check_level("level L { " + source + " }")
        )
        yield f"litmus/{name}", machine, LITMUS_BUDGET


def _explore(machine, budget: int, *, interpreted: bool = False,
             repeats: int = 2):
    """Best-of-*repeats* exploration (min wall time counters noise; the
    stepper is built before the clock starts, so no row pays one-time
    costs).  *interpreted* steps through the interpreter instead."""
    best = None
    elapsed = float("inf")
    for _ in range(repeats):
        explorer = Explorer(machine, budget)
        if interpreted:
            explorer.successors = partial(interpreted_successors, machine)
        started = time.perf_counter()
        result = explorer.explore()
        elapsed = min(elapsed, time.perf_counter() - started)
        best = result
    return best, elapsed


def test_exploration_sweep_equivalence():
    rows = []
    data: dict = {"smoke": SMOKE, "programs": {}}

    for name, machine, budget in _workloads():
        interp, interp_s = _explore(
            machine, budget, interpreted=True, repeats=1,
        )
        compiled, compiled_s = _explore(machine, budget)

        # The compiled stepper must be observationally invisible.
        assert not interp.hit_state_budget, name
        assert compiled.hit_state_budget == interp.hit_state_budget, name
        assert compiled.final_outcomes == interp.final_outcomes, name
        assert set(compiled.ub_reasons) == set(interp.ub_reasons), name
        assert bool(compiled.assert_failures) == \
            bool(interp.assert_failures), name
        assert compiled.states_visited == interp.states_visited, name
        assert compiled.transitions_taken == \
            interp.transitions_taken, name

        rows.append([
            name,
            compiled.states_visited,
            compiled.transitions_taken,
            f"{interp_s * 1000:.1f}",
            f"{compiled_s * 1000:.1f}",
            f"{interp_s / compiled_s:.1f}x",
        ])
        data["programs"][name] = {
            "states": compiled.states_visited,
            "transitions": compiled.transitions_taken,
            "seconds_interpreted": interp_s,
            "seconds_compiled": compiled_s,
            "outcomes_equal": True,
        }

    lines = [
        "Identical states, transitions, final outcomes, UB reasons and "
        "assertion verdicts from the interpreted and the compiled "
        "sweep on every row.",
        "",
    ]
    lines += fmt_table(
        ["program", "states", "transitions", "interp (ms)",
         "compiled (ms)", "speedup"],
        rows,
    )
    record(RESULTS_PREFIX + "explore",
           "Exploration: interpreted and compiled stepping",
           lines, data)


def _relation_row(model: str) -> dict:
    """Enumerate QueueNondet's successor relation over its reachable set
    under *model* both ways, pair-for-pair identically, and time each."""
    from repro.errors import StateBudgetExceeded

    study = load("queue")
    checked = check_program(study.source, "<queue>")
    machine = translate_level(
        checked.contexts["QueueNondet"], memory_model=model
    )
    stepper = stepper_for(machine)
    assert stepper is not None and stepper.fallback_steps == 0

    explorer = Explorer(machine, RELATION_CAP)
    states = []
    try:
        for state in explorer.reachable_states():
            states.append(state)
    except StateBudgetExceeded:
        pass  # smoke cap: benchmark over the admitted prefix
    fn = stepper.fn

    # Bit-identical relation, checked pair-for-pair on a sample (the
    # exhaustive check lives in tests/test_stepc.py; here it guards the
    # numbers below against measuring different work).
    for state in states[:500]:
        assert fn(state) == interpreted_successors(machine, state)

    def time_interpreted() -> float:
        started = time.perf_counter()
        for state in states:
            interpreted_successors(machine, state)
        return time.perf_counter() - started

    def time_compiled() -> float:
        started = time.perf_counter()
        for state in states:
            fn(state)
        return time.perf_counter() - started

    # Warm both paths, then take the best of 3 rounds each with the GC
    # parked: its pauses scale with the retained state graph and would
    # otherwise dominate run-to-run noise.
    time_compiled()
    time_interpreted()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        interp_s = min(time_interpreted() for _ in range(3))
        compiled_s = min(time_compiled() for _ in range(3))
    finally:
        gc.enable()
        gc.unfreeze()
    return {
        "level": "QueueNondet",
        "model": model,
        "states": len(states),
        "seconds_interpreted": interp_s,
        "seconds_compiled": compiled_s,
        "speedup": interp_s / compiled_s,
    }


def test_compiled_step_relation_speedup():
    """Enumerate the successor relation over QueueNondet's reachable set
    both ways, under TSO and under RA: pair-for-pair identical, and the
    compiled path at least ``RELATION_SPEEDUP_FLOOR`` times faster under
    TSO."""
    rows = [_relation_row(model) for model in ("tso", "ra")]
    lines = [
        "QueueNondet's reachable states under each memory model: "
        "enumerating the full successor relation (enabled transitions + "
        "successor construction) pair-for-pair identically.",
        "",
    ]
    lines += fmt_table(
        ["model", "states", "interpreted (ms)", "compiled (ms)",
         "speedup"],
        [
            [row["model"], row["states"],
             f"{row['seconds_interpreted'] * 1000:.1f}",
             f"{row['seconds_compiled'] * 1000:.1f}",
             f"{row['speedup']:.1f}x"]
            for row in rows
        ],
    )
    record(RESULTS_PREFIX + "explore_relation",
           "Exploration: compiled step-relation enumeration", lines,
           {"smoke": SMOKE, "rows": rows})
    speedup = rows[0]["speedup"]
    assert speedup >= RELATION_SPEEDUP_FLOOR, (
        f"compiled step relation only {speedup:.1f}x faster on "
        f"QueueNondet/tso (floor {RELATION_SPEEDUP_FLOOR}x)"
    )
