"""Exploration as a farm job kind.

The farm historically schedules two kinds of checkable unit: lemma
obligations and whole-program refinement checks.  This module adds a
third — **state-space exploration**.  A level is enumerated under an
optional reduction stack (static POR, dynamic POR + sleep sets, the
regular-to-atomic lift; see :mod:`repro.explore`) and the verdict is
rendered as a JSON-able summary.

Every exploration entry point — ``armada explore``, ``armada submit
--kind explore``, and the serve daemon — routes through
:func:`run_exploration` / :func:`exploration_summary`, so they agree on
flag semantics (what combines with what, how unsupported memory models
degrade) and on the output shape.

Flag semantics, shared by all entry points:

* ``dpor`` takes precedence over ``por`` (the dynamic reducer subsumes
  the static one); ``atomic`` (the regular-to-atomic lift) composes
  with either.
* Under a memory model without reduction support (release/acquire),
  the explorer drops the reduction flags and explores unreduced; the
  summary carries the reason in ``reductions_disabled``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.farm.cache import structural_hash
from repro.farm.scheduler import Job
from repro.obs import OBS


def run_exploration(
    machine: Any,
    *,
    max_states: int = 200_000,
    por: bool = False,
    dpor: bool = False,
    atomic: bool = False,
    compiled: bool = True,
    invariants: dict[str, Callable] | None = None,
) -> tuple[Any, str | None]:
    """Explore *machine* under the requested reduction stack.

    Returns ``(result, reductions_disabled)`` where the second element
    is the explorer's reason for dropping requested reductions (``None``
    when they were honoured).
    """
    from repro.explore import Explorer

    explorer = Explorer(
        machine, max_states=max_states, por=por, dpor=dpor,
        atomic=atomic, compiled=compiled,
    )
    return explorer.explore(invariants), explorer.reductions_disabled


def exploration_summary(
    machine: Any,
    level: str,
    result: Any,
    reductions_disabled: str | None = None,
) -> dict[str, Any]:
    """Render an :class:`~repro.explore.explorer.ExplorationResult` as
    the JSON-able payload shared by the CLI, the daemon, and farm jobs."""
    outcomes = sorted(
        result.final_outcomes,
        key=lambda o: (o[0], tuple(map(str, o[1]))),
    )
    stats = result.por_stats
    memmodel = getattr(machine, "memmodel", None)
    return {
        "level": level,
        "memory_model": memmodel.name if memmodel is not None else "tso",
        "states": result.states_visited,
        "transitions": result.transitions_taken,
        "outcomes": [
            {"kind": kind, "log": list(log)} for kind, log in outcomes
        ],
        "ub": [
            {"reason": reason, "trace": [t.describe() for t in trace]}
            for reason, trace in zip(result.ub_reasons, result.ub_traces)
        ],
        "violations": [
            {
                "invariant": v.invariant_name,
                "trace": [t.describe() for t in v.trace],
            }
            for v in result.violations
        ],
        "hit_state_budget": result.hit_state_budget,
        "reductions_disabled": reductions_disabled,
        "atomic": {
            "chains": result.atomic_stats.chains,
            "micro_absorbed": result.atomic_stats.micro_absorbed,
        } if getattr(result, "atomic_stats", None) is not None else None,
        "por": (
            None if stats is None else {
                "ample_states": stats.ample_states,
                "full_states": stats.full_states,
                "transitions_pruned": stats.transitions_pruned,
                "dynamic_states": stats.dynamic_states,
                "sleep_pruned": stats.sleep_pruned,
            }
        ),
    }


def exploration_job(
    machine: Any,
    level: str,
    *,
    max_states: int = 200_000,
    por: bool = False,
    dpor: bool = False,
    atomic: bool = False,
    compiled: bool = True,
    invariants: dict[str, Callable] | None = None,
    apply: Callable[[Any], None] | None = None,
) -> Job:
    """One exploration as a farm queue citizen.

    Like whole-program refinement checks, the job is keyed by identity
    (level name + flags) and non-cacheable: its input is a state
    machine, which the structural hash does not cover.  The thunk
    returns the :func:`exploration_summary` payload.
    """

    def thunk() -> dict[str, Any]:
        result, disabled = run_exploration(
            machine,
            max_states=max_states,
            por=por,
            dpor=dpor,
            atomic=atomic,
            compiled=compiled,
            invariants=invariants,
        )
        return exploration_summary(machine, level, result, disabled)

    if OBS.enabled:
        OBS.count("farm.exploration_jobs_scheduled")
    mode = "dpor" if dpor else "por" if por else "full"
    if atomic:
        mode = "atomic" if mode == "full" else f"atomic+{mode}"
    return Job(
        key=structural_hash(
            "exploration", level, mode, str(max_states), str(compiled)
        ),
        label=f"{level}:Exploration[{mode}]",
        thunk=thunk,
        apply=apply if apply is not None else (lambda _result: None),
        cacheable=False,
        wrap_errors=False,
    )
