"""``repro.obs`` — observability for the verification pipeline.

A zero-dependency tracing/metrics/profiling layer: the toolchain's
heavy machinery (lemma generation, farm discharge, state-space
exploration, bounded proving) records *where its time and states went*
as hierarchical spans plus counters, emitted as JSONL.

Two halves:

* :mod:`repro.obs.core` — the process-wide :data:`OBS` observer the
  instrumented hot sites talk to.  Disabled by default; one boolean
  guard per batched event keeps the disabled-mode cost negligible
  (measured by ``benchmarks/bench_obs_overhead.py``).
* :mod:`repro.obs.stats` — trace aggregation behind ``armada stats``:
  per-obligation and per-phase tables, text and ``--json``.

Entry points: ``armada verify --trace FILE`` records a run;
``armada stats FILE`` aggregates it.
"""

from __future__ import annotations

from repro.obs.core import (  # noqa: F401
    KIND_CHAIN,
    KIND_OBLIGATION,
    KIND_PHASE,
    KIND_PROOF,
    KIND_STRATEGY,
    OBS,
    Observer,
    TRACE_FORMAT,
)
from repro.obs.stats import (  # noqa: F401
    TraceError,
    TraceStats,
    aggregate,
    aggregate_file,
    load_trace,
)
