"""Static-analyzer cost.

How expensive is the analyzer?  Full ``analyze_level`` (access
extraction, locksets, bounded dynamic cross-check, ownership
synthesis) over each case study's implementation level, as best-of-3
wall-clock numbers under ``benchmarks/results/analysis.{md,json}``.
"""

from __future__ import annotations

import time

from _common import fmt_table, record
from repro.analysis import analyze_level
from repro.casestudies import ALL, load
from repro.lang.frontend import check_program

#: Explorer budget per study (mcslock/queue need the larger bound).
STUDY_BUDGETS = {
    "tsp": 200_000,
    "barrier": 200_000,
    "pointers": 200_000,
    "mcslock": 400_000,
    "queue": 400_000,
}

ROUNDS = 3


def _best(fn) -> tuple[float, object]:
    """Best-of-N wall time plus the (warmup) result value."""
    result = fn()
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_analysis_cost():
    rows = []
    data: dict = {"analyzer": {}}

    for name in sorted(ALL):
        study = load(name)
        checked = check_program(study.source, f"<{name}>")
        level_name = checked.program.levels[0].name
        ctx = checked.contexts[level_name]
        budget = STUDY_BUDGETS[name]

        elapsed, result = _best(
            lambda: analyze_level(ctx, max_states=budget)
        )
        assert result.dynamic is not None and result.dynamic.complete
        rows.append([
            name,
            level_name,
            len(result.verdicts),
            result.dynamic.states_visited,
            ",".join(result.racy()) or "—",
            f"{elapsed * 1000:.1f}",
        ])
        data["analyzer"][name] = {
            "level": level_name,
            "globals": len(result.verdicts),
            "states": result.dynamic.states_visited,
            "racy": result.racy(),
            "seconds": elapsed,
        }

    lines = ["## Analyzer wall time (implementation levels)", ""]
    lines += fmt_table(
        ["study", "level", "globals", "states scanned", "RACY",
         "analyze (ms)"],
        rows,
    )
    record("analysis", "Static analysis: cost", lines, data)
