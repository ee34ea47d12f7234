"""``repro.analysis`` — static race & TSO-robustness analyzer.

The analyzer classifies every shared location of a translated level as
thread-local, lock-protected, atomic, ordered, or racy, flags the
stores whose TSO buffering is observable, and synthesizes candidate
``tso_elim`` ownership predicates — all cross-validated against the
bounded explicit-state explorer so static claims are adversarially
checked before a developer writes them into a recipe.  The analyzer
only advises (``armada analyze``): every recipe it suggests is still
proved by the strategy's own checked lemmas.

Entry point: :func:`analyze_level`.
"""

from __future__ import annotations


from repro.lang.resolver import LevelContext
from repro.machine.program import StateMachine

from repro.analysis.accesses import AccessMap, extract_accesses
from repro.analysis.lockset import LocksetResult, compute_locksets
from repro.analysis.ownership import (
    OwnershipSuggestion,
    suggest_ownership,
    validate_predicate,
)
from repro.analysis.report import AnalysisReport, Finding, build_report
from repro.analysis.robustness import (
    Classification,
    DynamicScan,
    LocationVerdict,
    RaceWitness,
    TsoWitness,
    classify,
    run_dynamic_scan,
)
from repro.record import Fresh, Record

__all__ = [
    "AccessMap",
    "AnalysisReport",
    "AnalysisResult",
    "Classification",
    "DynamicScan",
    "Finding",
    "LocationVerdict",
    "LocksetResult",
    "OwnershipSuggestion",
    "RaceWitness",
    "TsoWitness",
    "analyze_level",
    "build_report",
    "classify",
    "compute_locksets",
    "extract_accesses",
    "run_dynamic_scan",
    "suggest_ownership",
    "validate_predicate",
]


class AnalysisResult(Record):
    """Everything the analyzer learned about one level."""

    level_name: str
    ctx: LevelContext
    machine: StateMachine
    access_map: AccessMap
    locksets: LocksetResult
    dynamic: DynamicScan | None
    verdicts: dict[str, LocationVerdict]
    suggestions: list[OwnershipSuggestion] = Fresh(list)
    #: Name of the memory model the verdicts were computed under.
    memory_model: str = "tso"

    # ------------------------------------------------------------------

    def verdict(self, name: str) -> LocationVerdict | None:
        return self.verdicts.get(name)

    def classification(self, name: str) -> Classification | None:
        verdict = self.verdicts.get(name)
        return verdict.classification if verdict else None

    def racy(self) -> list[str]:
        """Locations still RACY after all cross-checks."""
        return sorted(
            name for name, v in self.verdicts.items()
            if v.classification is Classification.RACY
        )

    def suggestion_for(self, name: str) -> OwnershipSuggestion | None:
        for suggestion in self.suggestions:
            if suggestion.location == name and suggestion.validated:
                return suggestion
        return None

    def report(self) -> AnalysisReport:
        stats: dict = {
            "globals": len(self.verdicts),
            "accesses": len(self.access_map.all),
            "memory_model": self.memory_model,
        }
        if self.dynamic is not None and self.dynamic.ran:
            stats["dynamic_states"] = self.dynamic.states_visited
            stats["dynamic_complete"] = self.dynamic.complete
        return build_report(
            self.level_name, self.verdicts, self.suggestions, stats
        )


def analyze_level(
    ctx: LevelContext,
    machine: StateMachine | None = None,
    max_states: int = 200_000,
    dynamic: bool = True,
    suggest: bool = True,
    memory_model: str | None = None,
) -> AnalysisResult:
    """Run the full analysis pipeline over one level.

    ``dynamic=False`` skips the bounded cross-check (purely static
    verdicts: statically racy locations stay RACY/unchecked).

    ``memory_model`` selects the model the level's machine runs under
    (default ``tso``); a supplied *machine*'s own model wins.  Race
    classification is model-generic — the dynamic scan walks whichever
    state space the model induces — but the weak-memory sensitivity
    pass is per-model: under ``sc`` no store is ever delayed, so no
    location is flagged; under ``tso`` and ``ra`` the store-load
    (SB-shape) witness search runs, since both models observably delay
    plain stores past later loads.
    """
    if machine is None:
        from repro.machine.translator import translate_level

        machine = translate_level(ctx, memory_model=memory_model)
    model_name = machine.memmodel.name
    access_map = extract_accesses(ctx, machine)
    locksets = compute_locksets(machine, access_map)
    scan = (
        run_dynamic_scan(ctx, machine, access_map, max_states)
        if dynamic else None
    )
    verdicts = classify(
        ctx, machine, access_map, locksets, scan,
        memory_model=model_name,
    )
    suggestions = (
        suggest_ownership(ctx, machine, access_map, verdicts, max_states)
        if suggest else []
    )
    return AnalysisResult(
        level_name=ctx.level.name,
        ctx=ctx,
        machine=machine,
        access_map=access_map,
        locksets=locksets,
        dynamic=scan,
        verdicts=verdicts,
        suggestions=suggestions,
        memory_model=model_name,
    )
