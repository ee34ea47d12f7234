"""Regular-to-atomic reduction: obligation payoff.

The queue and mcslock proof chains verify twice, baseline and
``--atomic``; the result lands in ``benchmarks/results/atomic.{md,json}``.
The farm must schedule **strictly fewer** obligations under the
collapse (consecutive statement lemmas along non-breaking runs merge
into atomic blocks) with bit-identical per-proof verdicts and an
unchanged end-to-end refinement result.

Set ``BENCH_ATOMIC_SMOKE=1`` to restrict the experiment to the queue
study (CI's bench-smoke step).
"""

from __future__ import annotations

import os
import time

from _common import fmt_table, record
from repro.casestudies import load
from repro.farm import FarmConfig, VerificationFarm
from repro.lang.frontend import check_program
from repro.proofs.engine import ProofEngine

SMOKE = os.environ.get("BENCH_ATOMIC_SMOKE") == "1"

STUDIES = ("queue",) if SMOKE else ("queue", "mcslock")
BUDGET = 400_000


def _verify(study_name: str, atomic: bool):
    study = load(study_name)
    checked = check_program(study.source, f"<{study_name}>")
    farm = VerificationFarm(FarmConfig(cache_dir=None))
    try:
        engine = ProofEngine(
            checked, max_states=BUDGET, farm=farm, atomic=atomic,
        )
        started = time.perf_counter()
        outcome = engine.run_all()
        elapsed = time.perf_counter() - started
        summary = farm.summary()
    finally:
        farm.close()
    return outcome, summary, elapsed


def test_atomic_obligation_collapse():
    rows = []
    data: dict = {"smoke": SMOKE, "verify": {}}

    for study in STUDIES:
        base, base_farm, base_s = _verify(study, atomic=False)
        lifted, lifted_farm, lifted_s = _verify(study, atomic=True)
        # Bit-identical verdicts, strictly fewer farm obligations.
        assert lifted.success == base.success, study
        assert lifted.end_to_end == base.end_to_end, study
        assert [
            (o.proof_name, o.strategy, o.success)
            for o in lifted.outcomes
        ] == [
            (o.proof_name, o.strategy, o.success)
            for o in base.outcomes
        ], study
        assert lifted_farm.jobs < base_farm.jobs, (
            f"{study}: --atomic must schedule strictly fewer farm "
            f"obligations ({lifted_farm.jobs} vs {base_farm.jobs})"
        )
        saved = 1 - lifted_farm.jobs / base_farm.jobs
        rows.append([
            study, len(base.outcomes),
            base_farm.jobs, lifted_farm.jobs, f"{saved:.0%}",
            base.success and base.end_to_end,
            f"{base_s:.2f}s", f"{lifted_s:.2f}s",
        ])
        data["verify"][study] = {
            "proofs": len(base.outcomes),
            "baseline_obligations": base_farm.jobs,
            "atomic_obligations": lifted_farm.jobs,
            "saved": round(saved, 4),
            "verified": bool(base.success and base.end_to_end),
            "baseline_seconds": round(base_s, 4),
            "atomic_seconds": round(lifted_s, 4),
        }

    lines = [
        "Farm obligations of each chain with and without --atomic; "
        "per-proof verdicts and the end-to-end result are identical.",
        "",
    ]
    lines += fmt_table(
        ["chain", "proofs", "baseline obligations",
         "atomic obligations", "saved", "verified",
         "baseline time", "atomic time"],
        rows,
    )
    record("atomic", "Regular-to-atomic: farm obligations", lines, data)
