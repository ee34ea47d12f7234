"""``repro.faults`` — deterministic fault injection for the farm.

Chaos engineering for the verification farm: a :class:`FaultPlan` is a
seeded, JSON-serializable description of *exactly which* obligations
fail *in exactly which way* (delay, transient raise, forced timeout,
cache-entry corruption), threaded through the
scheduler/workers/cache behind a single disabled-by-default guard and
exposed as ``armada verify --inject-faults PLAN.json`` — so chaos runs
are reproducible in tests and CI instead of being flaky by
construction.

See :mod:`repro.faults.plan` for the rule/plan model and the JSON
format, and :mod:`repro.farm.resilience` for the policy knobs (retries,
deadlines) that determine how the farm *survives* what a plan throws
at it.
"""

from repro.faults.plan import (  # noqa: F401
    ACTIONS,
    CORRUPT_CACHE_ENTRY,
    DELAY,
    PHASE_CACHE_STORE,
    PHASE_EXECUTE,
    PHASES,
    RAISE,
    TIMEOUT_FAULT,
    FaultPlan,
    FaultRule,
    load_fault_plan,
)
