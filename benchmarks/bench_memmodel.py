"""Memory-model cost comparison: state counts and wall-clock per model.

The same programs — the litmus corpus plus the mcslock and queue case
studies — are explored under each shipped memory model (SC, x86-TSO,
C11 release/acquire) and the run records how much state space each
model's extra nondeterminism costs: SC is the floor (no environment
transitions at all), TSO adds drain interleavings, RA adds per-location
view advances.  For the lock-protected case studies the run also
asserts the *outcomes* agree across models (the DRF guarantee), so the
benchmark doubles as a differential check.  Results land in
``benchmarks/results/memmodel.{md,json}``.

Set ``BENCH_MEMMODEL_SMOKE=1`` to restrict the sweep to the litmus
corpus (CI's bench-smoke step).  A smoke run records under
``benchmarks/results/smoke/`` instead.
"""

from __future__ import annotations

import os
import time

from _common import fmt_table, record
from repro.casestudies import load
from repro.explore import Explorer
from repro.lang.frontend import check_level, check_program
from repro.machine.translator import translate_level
from repro.memmodel import MODELS
from repro.memmodel.litmus import CORPUS

MODELS_ORDER = ("sc", "tso", "ra")

#: Case studies with their explorer budgets.
STUDIES = {
    "mcslock": 600_000,
    "queue": 600_000,
}

SMOKE = os.environ.get("BENCH_MEMMODEL_SMOKE") == "1"
#: Where this mode's reports go, under ``benchmarks/results/``.
RESULTS_PREFIX = "smoke/" if SMOKE else ""


def _explore(source: str, model: str, budget: int):
    machine = translate_level(
        check_level(source), memory_model=model
    )
    started = time.perf_counter()
    result = Explorer(machine, max_states=budget).explore()
    elapsed = time.perf_counter() - started
    outcomes = {
        tuple(log) for kind, log in result.final_outcomes
        if kind == "normal"
    }
    return result, outcomes, elapsed


def main() -> None:
    assert sorted(MODELS) == sorted(MODELS_ORDER)
    rows: list[list] = []
    data: dict = {"litmus": {}, "casestudies": {}}

    for test in CORPUS:
        source = "level L { " + test.source + " }"
        per_model = {}
        for model in MODELS_ORDER:
            result, outcomes, elapsed = _explore(
                source, model, test.max_states
            )
            assert not result.hit_state_budget, (test.name, model)
            weak = test.weak_outcome in outcomes
            assert weak == test.allowed[model], (test.name, model)
            per_model[model] = {
                "states": result.states_visited,
                "seconds": round(elapsed, 4),
                "weak_observed": weak,
            }
        data["litmus"][test.name] = per_model
        rows.append(
            [test.name]
            + [per_model[m]["states"] for m in MODELS_ORDER]
            + [
                "/".join(
                    ("weak" if per_model[m]["weak_observed"] else "-")
                    for m in MODELS_ORDER
                )
            ]
        )

    study_rows: list[list] = []
    if not SMOKE:
        for name, budget in STUDIES.items():
            study = load(name)
            checked = check_program(study.source, f"<{name}>")
            level = checked.program.levels[0].name
            per_model = {}
            baseline = None
            for model in MODELS_ORDER:
                machine = translate_level(
                    checked.contexts[level], memory_model=model
                )
                started = time.perf_counter()
                result = Explorer(machine, max_states=budget).explore()
                elapsed = time.perf_counter() - started
                assert not result.hit_state_budget, (name, model)
                outcomes = sorted(
                    (kind, tuple(log))
                    for kind, log in result.final_outcomes
                )
                if baseline is None:
                    baseline = outcomes
                else:
                    # DRF: the lock-protected studies must agree.
                    assert outcomes == baseline, (name, model)
                per_model[model] = {
                    "states": result.states_visited,
                    "seconds": round(elapsed, 4),
                }
            data["casestudies"][name] = per_model
            study_rows.append(
                [name]
                + [per_model[m]["states"] for m in MODELS_ORDER]
                + [per_model[m]["seconds"] for m in MODELS_ORDER]
            )

    lines = [
        "Explorer state counts per memory model (identical budgets",
        "per program).  SC is the floor, TSO adds store-buffer",
        "drain interleavings, RA adds per-location view advances.",
        "",
        "## Litmus corpus",
        "",
    ]
    lines += fmt_table(
        ["test", "sc states", "tso states", "ra states",
         "weak (sc/tso/ra)"],
        rows,
    )
    if study_rows:
        lines += [
            "",
            "## Case studies (implementation levels; outcomes asserted",
            "identical across models — the DRF guarantee)",
            "",
        ]
        lines += fmt_table(
            ["study", "sc states", "tso states", "ra states",
             "sc s", "tso s", "ra s"],
            study_rows,
        )
    record(RESULTS_PREFIX + "memmodel", "Memory-model state-space cost",
           lines, data)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
