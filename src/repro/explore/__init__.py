"""Explicit-state bounded model checking: breadth-first exploration
with invariants, and refinement (simulation) checking."""

from repro.errors import StateBudgetExceeded  # noqa: F401
from repro.explore.explorer import (  # noqa: F401
    ExplorationResult,
    Explorer,
    InvariantViolation,
    exploration_summary,
    final_logs,
)
from repro.explore.refinement_check import (  # noqa: F401
    RefinementCounterexample,
    RefinementResult,
    check_refinement,
    log_equal_relation,
    log_prefix_relation,
    with_ub_conjunct,
)
