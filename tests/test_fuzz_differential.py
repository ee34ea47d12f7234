"""Hypothesis-driven differential fuzzing: the executable semantics
must agree with themselves.

The repo has two independent answers to "what does this program
compute": the compiled Python back ends (``repro.compiler.pybackend``)
and the explorer's small-step state enumeration.  This suite generates
random *core-safe* Armada programs (locals-only arithmetic, at most one
shared access per statement, structurally bounded loops, division only
by nonzero constants) and asserts that every observer reports the same
final stores:

* single-threaded programs are deterministic, so all three compiled
  modes (sc / conservative / tso) and the explorer's unique final
  outcome must produce the identical print log;
* two-threaded lock-protected programs may have several outcomes, but
  a compiled execution must land on one the explorer enumerated, and
  SC, TSO and RA explorations must enumerate the *same* outcome set;
* counterexample traces the explorer reports replay on a fresh machine
  to the exact claimed failure;
* random race-free programs *verify* identically with and without
  ``--atomic``: the engine-side lemma collapse changes farm job
  counts, never verdicts.

``derandomize=True`` keeps CI deterministic: the same ≥50 programs run
every time, and any divergence reproduces locally from the printed
source text alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.pybackend import compile_to_python
from repro.explore.explorer import Explorer
from repro.lang.frontend import check_level
from repro.machine.translator import translate_level

from tests.differential_harness import replay

MODES = ("sc", "conservative", "tso")

#: Shared wrap-around arithmetic: both semantics model uint32, so any
#: op is fair game as long as a divisor can never be zero.
_BIN_OPS = ("+", "-", "*", "&", "|", "^")
_CONST_DIV_OPS = ("/", "%")

_LOCALS = ("a", "b", "d")
_GLOBALS = ("g0", "g1")


def _const(draw):
    return draw(st.integers(min_value=0, max_value=97))


@st.composite
def _statements(draw, depth: int, counters: list[int]) -> list[str]:
    """A block of core-safe statements.  ``counters`` hands out unique
    loop-variable names so no generated statement can ever touch a
    live loop counter (that is what makes every loop terminate)."""
    out: list[str] = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(
            st.sampled_from(
                ["arith", "arith", "div", "read", "write"]
                + (["if", "while"] if depth > 0 else [])
            )
        )
        if kind == "arith":
            target = draw(st.sampled_from(_LOCALS))
            left = draw(st.sampled_from(_LOCALS))
            op = draw(st.sampled_from(_BIN_OPS))
            right = draw(
                st.one_of(
                    st.sampled_from(_LOCALS),
                    st.integers(min_value=0, max_value=97).map(str),
                )
            )
            out.append(f"{target} := {left} {op} {right};")
        elif kind == "div":
            target = draw(st.sampled_from(_LOCALS))
            left = draw(st.sampled_from(_LOCALS))
            op = draw(st.sampled_from(_CONST_DIV_OPS))
            divisor = draw(st.integers(min_value=1, max_value=9))
            out.append(f"{target} := {left} {op} {divisor};")
        elif kind == "read":
            # One shared access per statement: a lone global read.
            target = draw(st.sampled_from(_LOCALS))
            out.append(f"{target} := {draw(st.sampled_from(_GLOBALS))};")
        elif kind == "write":
            source = draw(st.sampled_from(_LOCALS))
            out.append(f"{draw(st.sampled_from(_GLOBALS))} := {source};")
        elif kind == "if":
            scrutinee = draw(st.sampled_from(_LOCALS))
            bound = _const(draw)
            then = draw(_statements(depth=depth - 1, counters=counters))
            els = draw(_statements(depth=depth - 1, counters=counters))
            out.append(
                f"if {scrutinee} < {bound} {{ " + " ".join(then)
                + " } else { " + " ".join(els) + " }"
            )
        else:  # while — structurally bounded by a dedicated counter
            name = f"i{counters[0]}"
            counters[0] += 1
            trips = draw(st.integers(min_value=1, max_value=4))
            body = draw(_statements(depth=depth - 1, counters=counters))
            out.append(
                f"var {name}: uint32 := 0; "
                f"while {name} < {trips} {{ " + " ".join(body)
                + f" {name} := {name} + 1; }}"
            )
    return out


@st.composite
def _single_thread_program(draw) -> str:
    inits = [_const(draw) for _ in range(len(_GLOBALS) + len(_LOCALS))]
    body = draw(_statements(depth=2, counters=[0]))
    globals_decl = " ".join(
        f"var {name}: uint32 := {value};"
        for name, value in zip(_GLOBALS, inits)
    )
    locals_decl = " ".join(
        f"var {name}: uint32 := {value};"
        for name, value in zip(_LOCALS, inits[len(_GLOBALS):])
    )
    # Print the full final store (globals via a local temp so the
    # print statement itself stays single-shared-access).
    prints = " ".join(
        f"t := {name}; print_uint32(t);" for name in _GLOBALS
    ) + " " + " ".join(f"print_uint32({name});" for name in _LOCALS)
    return (
        f"level L {{ {globals_decl} "
        f"void main() {{ {locals_decl} " + " ".join(body)
        + f" var t: uint32 := 0; {prints} }} }}"
    )


@st.composite
def _two_thread_program(draw) -> str:
    """Two threads bumping one lock-protected global.  The critical
    sections may be non-commutative, so several final values are
    legal — but only the ones the explorer enumerates."""

    def critical(draw):
        op = draw(st.sampled_from(("+", "*", "^", "|")))
        k = draw(st.integers(min_value=1, max_value=9))
        return f"t := g; g := t {op} {k};"

    worker_cs = critical(draw)
    main_cs = critical(draw)
    init = _const(draw)
    return (
        f"level L {{ var g: uint32 := {init}; var mu: uint64; "
        "void worker() { var t: uint32 := 0; "
        f"lock(&mu); {worker_cs} unlock(&mu); }} "
        "void main() { var h: uint64 := 0; var t: uint32 := 0; "
        "initialize_mutex(&mu); h := create_thread worker(); "
        f"lock(&mu); {main_cs} unlock(&mu); "
        "join h; fence(); t := g; print_uint32(t); } }"
    )


def _explore(source: str, memory_model: str | None = None):
    machine = translate_level(
        check_level(source), memory_model=memory_model
    )
    result = Explorer(machine, max_states=60_000).explore()
    assert not result.hit_state_budget, source
    return result


def _outcome_set(result):
    return sorted(
        (kind, tuple(log)) for kind, log in result.final_outcomes
    )


@settings(max_examples=25, derandomize=True, deadline=None)
@given(source=_single_thread_program())
def test_compiled_modes_agree_with_explorer_single_thread(source):
    ctx = check_level(source)
    logs = {mode: compile_to_python(ctx, mode).run() for mode in MODES}
    # One thread ⇒ one schedule ⇒ all three memory models coincide.
    assert logs["conservative"] == logs["sc"], source
    assert logs["tso"] == logs["sc"], source
    outcomes = _outcome_set(_explore(source))
    assert outcomes == [("normal", tuple(logs["sc"]))], source


@settings(max_examples=15, derandomize=True, deadline=None)
@given(source=_two_thread_program())
def test_compiled_execution_is_an_explored_outcome_two_threads(source):
    ctx = check_level(source)
    result = _explore(source)
    assert not result.has_ub, source
    legal_logs = {
        tuple(log) for kind, log in result.final_outcomes
        if kind == "normal"
    }
    assert legal_logs, source
    for mode in MODES:
        log = tuple(compile_to_python(ctx, mode).run())
        assert log in legal_logs, (mode, source)


@st.composite
def _racy_div_program(draw) -> str:
    """An unprotected divisor race: some interleavings divide by zero.
    Exercises counterexample traces."""
    init = draw(st.integers(min_value=1, max_value=9))
    pre = draw(st.integers(min_value=0, max_value=3))
    filler = " ".join("u := u + 1;" for _ in range(pre))
    return (
        f"level L {{ var d: uint32 := {init}; var out: uint32 := 0; "
        "void z() { d := 0; } "
        "void main() { var a: uint64 := 0; var t: uint32 := 0; "
        f"var u: uint32 := 0; a := create_thread z(); {filler} "
        "t := d; out := 10 / t; join a; fence(); } }"
    )


@settings(max_examples=10, derandomize=True, deadline=None)
@given(source=_racy_div_program())
def test_counterexample_traces_replay(source):
    """Every UB trace an exploration reports must replay, transition
    by transition, on a fresh machine to the exact claimed failure —
    a recorded trace is a witness, never a fabrication."""
    from repro.machine.state import TERM_UB

    result = _explore(source)
    assert result.has_ub, source
    for reason, trace in zip(result.ub_reasons, result.ub_traces):
        fresh = translate_level(check_level(source))
        final = replay(fresh, trace)
        assert final.termination is not None, source
        assert final.termination.kind == TERM_UB, source
        assert final.termination.detail == reason, source


@settings(max_examples=6, derandomize=True, deadline=None)
@given(source=_two_thread_program())
def test_race_free_programs_verify_identically_with_atomic(source):
    """Engine-level differential: a race-free program's self-refinement
    verifies to the identical outcome with and without ``--atomic`` —
    the collapse merges farm obligations but cannot flip a verdict."""
    from repro.proofs.engine import verify_source

    program = (
        source.replace("level L ", "level Low ", 1) + "\n"
        + source.replace("level L ", "level High ", 1) + "\n"
        + "proof P { refinement Low High weakening }"
    )
    baseline = verify_source(program)
    collapsed = verify_source(program, atomic=True)
    assert baseline.success == collapsed.success, source
    assert baseline.end_to_end == collapsed.end_to_end, source
    assert [o.success for o in baseline.outcomes] == \
        [o.success for o in collapsed.outcomes], source


@settings(max_examples=15, derandomize=True, deadline=None)
@given(source=_two_thread_program())
def test_memory_models_agree_on_race_free_programs(source):
    """DRF guarantee, checked differentially: a lock-protected program
    never exposes a weak behaviour, so exploring it under SC, x86-TSO
    and C11 release/acquire must enumerate the same outcome set."""
    baseline = _outcome_set(_explore(source, memory_model="tso"))
    for model in ("sc", "ra"):
        outcomes = _outcome_set(_explore(source, memory_model=model))
        assert outcomes == baseline, (model, source)
