"""Shared infrastructure for the evaluation case studies (Table 1).

Each case study packages the Armada source of its levels and proof
recipes, the paper's reported effort numbers (for the EXPERIMENTS.md
comparison), and a uniform runner that produces per-proof statistics
in the same shape §6 reports: implementation SLOC, per-level added
SLOC, recipe SLOC, and generated-proof SLOC.
"""

from __future__ import annotations


from repro.farm import VerificationFarm
from repro.lang.frontend import check_program
from repro.machine.program import DomainConfig
from repro.proofs.engine import ChainOutcome, ProofEngine
from repro.record import Fresh, Record


def sloc(text: str) -> int:
    """Source lines of code: non-blank, non-comment-only lines (the
    paper counts physical SLOC via SLOCCount [42])."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


class CaseStudy(Record):
    """One evaluation case study: levels, recipes, and paper numbers."""

    name: str
    description: str
    #: (level name, Armada source for that level) in chain order.
    levels: list[tuple[str, str]]
    #: (proof name, recipe source) in chain order.
    recipes: list[tuple[str, str]]
    #: Numbers the paper reports, keyed by a short label.
    paper_numbers: dict[str, int] = Fresh(dict)
    #: Exploration budget needed by the proofs of this study.
    max_states: int = 200_000

    @property
    def source(self) -> str:
        parts = [text for _, text in self.levels]
        parts += [text for _, text in self.recipes]
        return "\n".join(parts)

    @property
    def implementation_sloc(self) -> int:
        return sloc(self.levels[0][1])

    def level_sloc(self) -> dict[str, int]:
        return {name: sloc(text) for name, text in self.levels}

    def recipe_sloc(self) -> dict[str, int]:
        return {name: sloc(text) for name, text in self.recipes}


class CaseStudyReport(Record):
    """Measured results for one case study run."""

    study: CaseStudy
    outcome: ChainOutcome

    @property
    def verified(self) -> bool:
        return self.outcome.success

    @property
    def total_generated_sloc(self) -> int:
        return self.outcome.total_generated_sloc

    @property
    def total_recipe_sloc(self) -> int:
        return sum(self.study.recipe_sloc().values())

    def rows(self) -> list[dict]:
        """One row per proof: name, strategy, recipe/generated SLOC."""
        recipe_sizes = self.study.recipe_sloc()
        rows = []
        for outcome in self.outcome.outcomes:
            rows.append(
                {
                    "proof": outcome.proof_name,
                    "strategy": outcome.strategy,
                    "verified": outcome.success,
                    "recipe_sloc": recipe_sizes.get(outcome.proof_name, 0),
                    "generated_sloc": outcome.generated_sloc,
                    "lemmas": outcome.lemma_count,
                    "seconds": round(outcome.elapsed_seconds, 2),
                    "error": outcome.error,
                }
            )
        return rows

    def summary(self) -> dict:
        return {
            "name": self.study.name,
            "verified": self.verified,
            "implementation_sloc": self.study.implementation_sloc,
            "recipe_sloc": self.total_recipe_sloc,
            "generated_sloc": self.total_generated_sloc,
            "levels": len(self.study.levels),
            "proofs": len(self.outcome.outcomes),
        }


def run_case_study(
    study: CaseStudy,
    max_states: int | None = None,
    validate_refinement: str = "auto",
    farm: VerificationFarm | None = None,
) -> CaseStudyReport:
    """Check, translate, and verify a complete case study.

    ``farm`` routes lemma discharge through a shared verification farm
    (proof cache, deadlines); the default farm is uncached."""
    checked = check_program(study.source, filename=f"<{study.name}>")
    engine = ProofEngine(
        checked,
        max_states=max_states or study.max_states,
        validate_refinement=validate_refinement,
        farm=farm,
    )
    outcome = engine.run_all()
    return CaseStudyReport(study, outcome)
