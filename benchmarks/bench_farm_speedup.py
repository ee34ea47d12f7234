"""Verification farm speedup: cold vs warm-cache discharge.

The paper's toolchain leans on Dafny/Z3 to skip re-verifying unchanged
modules.  The ``repro.farm`` proof cache reproduces that lever; this
benchmark measures what it buys on the four Table 1 case-study chains:

* **cold** — sequential discharge into an empty proof cache;
* **warm** — an identical re-run against the populated cache
  (incremental verification: every lemma obligation should be a hit).

Results land in ``benchmarks/results/farm_speedup.{md,json}``.
"""

from __future__ import annotations

import time

from _common import fmt_table, record
from repro.casestudies import TABLE1, run_case_study
from repro.farm import FarmConfig, VerificationFarm


def _timed_run(study, farm):
    started = time.perf_counter()
    report = run_case_study(study, farm=farm)
    elapsed = time.perf_counter() - started
    assert report.verified, [
        row for row in report.rows() if not row["verified"]
    ]
    return report, elapsed


def test_farm_speedup(tmp_path):
    rows = []
    data = {}
    for name in sorted(TABLE1):
        study = TABLE1[name]()
        cache_dir = tmp_path / f"{name}-cache"

        cold_farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        _, cold_s = _timed_run(study, cold_farm)

        warm_farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        _, warm_s = _timed_run(study, warm_farm)

        warm = warm_farm.summary()
        if warm.jobs:
            # Incrementality: every job of the warm run is a cache hit
            # or an execution; only an inconclusive verdict, never
            # stored, executes again.
            assert warm.cache_hits + warm.executed == warm.jobs
        rows.append(
            [
                name,
                warm.jobs,
                f"{cold_s:.2f}s",
                f"{warm_s:.2f}s",
                f"{cold_s / warm_s:.1f}x" if warm_s else "-",
                f"{warm.hit_rate:.0%}",
            ]
        )
        data[name] = {
            "obligations": warm.jobs,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "warm_cache_hits": warm.cache_hits,
            "warm_hit_rate": warm.hit_rate,
        }

    lines = [
        "Cold = sequential, empty cache.  Warm = identical re-run on "
        "the populated cache.",
        "",
    ]
    lines += fmt_table(
        ["study", "obligations", "cold", "warm", "warm speedup",
         "warm hit rate"],
        rows,
    )
    record(
        "farm_speedup",
        "Verification farm: cold vs warm-cache",
        lines,
        data,
    )
