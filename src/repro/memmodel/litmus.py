"""The per-model litmus corpus: SB, MP, LB, IRIW (and fence/coherence
controls) with expected allowed/forbidden outcome tables.

Each :class:`LitmusTest` is a self-contained Armada level whose threads
record their observations in global registers (``::=`` so the final
reads after ``join`` are unambiguous) and print them from ``main`` once
every thread has joined.  ``weak_outcome`` is the print log that
witnesses the test's characteristic reordering; ``allowed`` maps each
memory-model name to whether that log must be reachable.

The table encodes the classical hierarchy:

========  ====  =====  ====
test      sc    tso    ra
========  ====  =====  ====
SB        no    yes    yes
SB+fence  no    no     no
MP        no    no     no
LB        no    no     no
IRIW      no    no     yes
CoRR      no    no     no
========  ====  =====  ====

SB's store-load reordering is the only weakness x86-TSO admits; RA
additionally gives up multi-copy atomicity (IRIW) but, because every
store is a release and every read an acquire, still forbids the MP and
LB shapes.  CoRR (read coherence) holds everywhere.
"""

from __future__ import annotations


from repro.memmodel.models import MODELS
from repro.record import Fresh, FrozenRecord


class LitmusTest(FrozenRecord):
    """One litmus shape with its per-model expectation."""

    name: str
    description: str
    source: str  # body of a level (globals + methods)
    #: The characteristic weak print log.
    weak_outcome: tuple
    #: model name -> whether ``weak_outcome`` must be observable.
    allowed: dict[str, bool] = Fresh(dict)
    #: A control log that must be reachable under every model.
    strong_outcome: tuple | None = None
    max_states: int = 2_000_000


def _print_regs(*names: str) -> str:
    return " ".join(
        f"t := {name}; print_uint32(t);" for name in names
    )


SB = LitmusTest(
    name="SB",
    description="store buffering: both threads read the other's "
    "variable as 0 after writing their own",
    source=(
        "var x: uint32; var y: uint32; "
        "var r1: uint32; var r2: uint32; "
        "void t1() { x := 1; r1 ::= y; } "
        "void main() { var h: uint64 := 0; var t: uint32 := 0; "
        "h := create_thread t1(); y := 1; r2 ::= x; "
        "join h; fence(); " + _print_regs("r1", "r2") + " }"
    ),
    weak_outcome=(0, 0),
    allowed={"sc": False, "tso": True, "ra": True},
    strong_outcome=(1, 1),
)

SB_FENCE = LitmusTest(
    name="SB+fence",
    description="store buffering with fences between the store and "
    "the load: the weak outcome disappears everywhere",
    source=(
        "var x: uint32; var y: uint32; "
        "var r1: uint32; var r2: uint32; "
        "void t1() { x := 1; fence(); r1 ::= y; } "
        "void main() { var h: uint64 := 0; var t: uint32 := 0; "
        "h := create_thread t1(); y := 1; fence(); r2 ::= x; "
        "join h; fence(); " + _print_regs("r1", "r2") + " }"
    ),
    weak_outcome=(0, 0),
    allowed={"sc": False, "tso": False, "ra": False},
    strong_outcome=(1, 1),
)

MP = LitmusTest(
    name="MP",
    description="message passing: flag observed set but data still "
    "stale (forbidden under TSO's FIFO buffers and RA's "
    "release/acquire publication)",
    source=(
        "var data: uint32; var flag: uint32; "
        "var rf: uint32; var rd: uint32; "
        "void writer() { data := 42; flag := 1; } "
        "void main() { var h: uint64 := 0; var t: uint32 := 0; "
        "h := create_thread writer(); rf := flag; rd := data; "
        "join h; fence(); " + _print_regs("rf", "rd") + " }"
    ),
    weak_outcome=(1, 0),
    allowed={"sc": False, "tso": False, "ra": False},
    strong_outcome=(1, 42),
)

LB = LitmusTest(
    name="LB",
    description="load buffering: each thread reads the value the "
    "other writes afterwards (requires load-store reordering, absent "
    "from SC, TSO and RA alike)",
    source=(
        "var x: uint32; var y: uint32; "
        "var r1: uint32; var r2: uint32; "
        "void t1() { r1 ::= x; y := 1; } "
        "void main() { var h: uint64 := 0; var t: uint32 := 0; "
        "h := create_thread t1(); r2 ::= y; x := 1; "
        "join h; fence(); " + _print_regs("r1", "r2") + " }"
    ),
    weak_outcome=(1, 1),
    allowed={"sc": False, "tso": False, "ra": False},
    strong_outcome=(0, 0),
)

IRIW = LitmusTest(
    name="IRIW",
    description="independent reads of independent writes: two readers "
    "disagree on the order of two independent stores (needs the "
    "non-multi-copy-atomicity only RA provides)",
    source=(
        "var x: uint32; var y: uint32; "
        "var r1: uint32; var r2: uint32; "
        "var r3: uint32; var r4: uint32; "
        "void wx() { x ::= 1; } "
        "void wy() { y ::= 1; } "
        "void reader1() { r1 ::= x; r2 ::= y; } "
        "void main() { "
        "var a: uint64 := 0; var b: uint64 := 0; var c: uint64 := 0; "
        "var t: uint32 := 0; "
        "a := create_thread wx(); b := create_thread wy(); "
        "c := create_thread reader1(); "
        "r3 ::= y; r4 ::= x; "
        "join a; join b; join c; "
        + _print_regs("r1", "r2", "r3", "r4") + " }"
    ),
    weak_outcome=(1, 0, 1, 0),
    allowed={"sc": False, "tso": False, "ra": True},
    strong_outcome=(1, 1, 1, 1),
    max_states=8_000_000,
)

CORR = LitmusTest(
    name="CoRR",
    description="coherence of read-read: a thread's two reads of one "
    "location never observe the writes out of modification order "
    "(holds under every shipped model)",
    source=(
        "var x: uint32; "
        "var r1: uint32; var r2: uint32; "
        "void writer() { x := 1; x := 2; } "
        "void main() { var h: uint64 := 0; var t: uint32 := 0; "
        "h := create_thread writer(); r1 ::= x; r2 ::= x; "
        "join h; fence(); " + _print_regs("r1", "r2") + " }"
    ),
    weak_outcome=(2, 1),
    allowed={"sc": False, "tso": False, "ra": False},
    strong_outcome=(2, 2),
)


#: The shipped corpus, in presentation order.
CORPUS: tuple[LitmusTest, ...] = (SB, SB_FENCE, MP, LB, IRIW, CORR)

TESTS: dict[str, LitmusTest] = {t.name: t for t in CORPUS}


def run_litmus(
    test: LitmusTest | str, model: str, max_states: int | None = None,
) -> set[tuple]:
    """Explore *test* under *model* and return its normal-termination
    print logs."""
    from repro.explore.explorer import Explorer
    from repro.lang.frontend import check_level
    from repro.machine.translator import translate_level

    if isinstance(test, str):
        test = TESTS[test]
    ctx = check_level("level L { " + test.source + " }")
    machine = translate_level(ctx, memory_model=model)
    result = Explorer(
        machine, max_states=max_states or test.max_states,
    ).explore()
    if result.hit_state_budget:
        raise RuntimeError(
            f"litmus {test.name} under {model} exceeded the state budget"
        )
    return {
        tuple(log) for kind, log in result.final_outcomes
        if kind == "normal"
    }


def check_matrix(
    models: tuple[str, ...] | None = None,
    tests: tuple[str, ...] | None = None,
) -> list[dict]:
    """Run the corpus across *models* and compare against the expected
    table.  Returns one row per (test, model) with the observed verdict
    and whether it matches."""
    rows = []
    for test in CORPUS:
        if tests is not None and test.name not in tests:
            continue
        for model in models or tuple(sorted(MODELS)):
            logs = run_litmus(test, model)
            observed = test.weak_outcome in logs
            expected = test.allowed[model]
            strong_ok = (
                test.strong_outcome is None
                or test.strong_outcome in logs
            )
            rows.append({
                "test": test.name,
                "model": model,
                "weak_expected": expected,
                "weak_observed": observed,
                "strong_reachable": strong_ok,
                "ok": observed == expected and strong_ok,
            })
    return rows
