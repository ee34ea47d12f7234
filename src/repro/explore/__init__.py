"""Explicit-state bounded model checking: exploration, invariants,
partial-order reduction (static and dynamic), the regular-to-atomic
lift, and refinement (simulation) checking."""

from repro.errors import StateBudgetExceeded  # noqa: F401
from repro.explore.atomic import (  # noqa: F401
    AtomicClassification,
    AtomicLift,
    AtomicStats,
    MacroTransition,
    classify_atomic,
)
from repro.explore.dpor import (  # noqa: F401
    DynamicReducer,
    SleepSets,
    transition_key,
)
from repro.explore.explorer import (  # noqa: F401
    ExplorationResult,
    Explorer,
    InvariantViolation,
    final_logs,
)
from repro.explore.por import AmpleReducer, PorStats  # noqa: F401
from repro.explore.refinement_check import (  # noqa: F401
    RefinementCounterexample,
    RefinementResult,
    check_refinement,
    log_equal_relation,
    log_prefix_relation,
    with_ub_conjunct,
)
