"""Observability overhead: tracing must be free when it is off.

``repro.obs`` instruments the farm, the proof engine, the explorer and
the prover, but every site guards itself with one ``OBS.enabled``
attribute test and hot loops batch their counts into locals.  This
benchmark quantifies the bound behind that design:

* **micro** — the per-event cost of a guarded no-op (attribute test
  plus branch) and of a null span enter/exit, in nanoseconds;
* **macro** — the TSP implementation level explored with tracing off
  vs. on, plus a worst-case arithmetic bound: even if *every* state
  and transition of the disabled sweep evaluated one guard (the real
  sites batch far more coarsely), the total guard time must stay
  under 5% of the sweep's wall time.

Results land in ``benchmarks/results/smoke/obs_overhead.{md,json}``,
which git ignores: the timings change on every run, and CI runs this
benchmark on every push.
"""

from __future__ import annotations

import time

from _common import fmt_table, record
from repro.casestudies import load
from repro.explore import Explorer
from repro.lang.frontend import check_program
from repro.machine.translator import translate_level
from repro.obs import OBS

MICRO_ITERS = 200_000
ROUNDS = 3
MAX_DISABLED_OVERHEAD = 0.05


def _time_guard(iterations: int) -> float:
    """Seconds for *iterations* disabled-mode guard evaluations."""
    obs = OBS
    started = time.perf_counter()
    for _ in range(iterations):
        if obs.enabled:
            obs.count("never")
    return time.perf_counter() - started


def _time_null_span(iterations: int) -> float:
    obs = OBS
    started = time.perf_counter()
    for _ in range(iterations):
        with obs.span("never"):
            pass
    return time.perf_counter() - started


def _explore_seconds(machine, trace_path=None) -> tuple[float, object]:
    if trace_path is not None:
        OBS.enable(trace_path)
    try:
        started = time.perf_counter()
        result = Explorer(machine, max_states=200_000).explore()
        return time.perf_counter() - started, result
    finally:
        if trace_path is not None:
            OBS.disable()


def test_disabled_observability_is_under_5_percent(tmp_path):
    assert not OBS.enabled

    guard_ns = min(
        _time_guard(MICRO_ITERS) for _ in range(ROUNDS)
    ) / MICRO_ITERS * 1e9
    span_ns = min(
        _time_null_span(MICRO_ITERS) for _ in range(ROUNDS)
    ) / MICRO_ITERS * 1e9

    study = load("tsp")
    checked = check_program(study.source, "<tsp>")
    level = checked.program.levels[0].name
    machine = translate_level(checked.contexts[level])

    disabled_s, result = min(
        (_explore_seconds(machine) for _ in range(ROUNDS)),
        key=lambda pair: pair[0],
    )
    enabled_s, traced = min(
        (_explore_seconds(machine, tmp_path / f"t{i}.jsonl")
         for i in range(ROUNDS)),
        key=lambda pair: pair[0],
    )
    assert traced.final_outcomes == result.final_outcomes

    # Worst-case bound: one guard per visited state AND per transition.
    # The real instrumentation batches per exploration/obligation, so
    # the true count is orders of magnitude lower.
    worst_case_guards = result.states_visited + result.transitions_taken
    overhead = (worst_case_guards * guard_ns * 1e-9) / disabled_s

    rows = [
        ["guard (disabled)", f"{guard_ns:.1f} ns/event"],
        ["null span (disabled)", f"{span_ns:.1f} ns/span"],
        ["explore, tracing off", f"{disabled_s * 1e3:.1f} ms"],
        ["explore, tracing on", f"{enabled_s * 1e3:.1f} ms"],
        ["worst-case guard events", str(worst_case_guards)],
        ["worst-case disabled overhead", f"{overhead:.2%}"],
    ]
    record(
        "smoke/obs_overhead",
        "Observability overhead (repro.obs)",
        [
            f"TSP implementation level, {result.states_visited} "
            f"states / {result.transitions_taken} transitions; "
            f"best of {ROUNDS} rounds.",
            "",
            *fmt_table(["measurement", "value"], rows),
        ],
        data={
            "guard_ns": guard_ns,
            "null_span_ns": span_ns,
            "explore_disabled_seconds": disabled_s,
            "explore_enabled_seconds": enabled_s,
            "worst_case_guards": worst_case_guards,
            "worst_case_disabled_overhead": overhead,
            "bound": MAX_DISABLED_OVERHEAD,
        },
    )

    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled-mode worst-case overhead {overhead:.2%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%}"
    )


if __name__ == "__main__":
    import pathlib
    import sys
    import tempfile

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    with tempfile.TemporaryDirectory() as scratch:
        test_disabled_observability_is_under_5_percent(
            pathlib.Path(scratch)
        )
    print("ok — see benchmarks/results/smoke/obs_overhead.md")
