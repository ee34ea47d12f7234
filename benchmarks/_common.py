"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's
evaluation (§6) and records a human-readable report under
``benchmarks/results/`` so EXPERIMENTS.md can cite the measured rows.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def record(name: str, title: str, lines: list[str],
           data: dict | None = None) -> None:
    """Write a markdown report (and optional JSON) for one experiment.

    *name* may name a subdirectory: smoke runs record under
    ``smoke/``, which git ignores, so a smoke run never overwrites the
    full-mode reports checked in beside it."""
    path = RESULTS_DIR / f"{name}.md"
    path.parent.mkdir(parents=True, exist_ok=True)
    body = [f"# {title}", ""]
    body.extend(lines)
    body.append("")
    path.write_text("\n".join(body))
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(data, indent=2, default=str)
        )


def fmt_table(headers: list[str], rows: list[list]) -> list[str]:
    """Render a markdown table."""
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def interleaved_best(workloads: dict[str, callable], rounds: int = 5
                     ) -> dict[str, float]:
    """Run each workload round-robin, returning the best (max) value per
    workload.  Interleaving plus best-of counters CPU-frequency noise,
    which dominates this environment."""
    best: dict[str, float] = {name: 0.0 for name in workloads}
    for name, fn in workloads.items():  # warmup
        fn()
    for _ in range(rounds):
        for name, fn in workloads.items():
            value = fn()
            if value > best[name]:
                best[name] = value
    return best
