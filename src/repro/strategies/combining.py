"""The combining strategy (§4.2.6).

"Two programs exhibit the combining correspondence if they are identical
except that an atomic block in the low-level program is replaced by a
single statement in the high-level program that has a superset of its
behaviors. ... The key lemma generated by the combining proof generator
establishes that all paths from the beginning of the atomic block to the
end of the atomic block exhibit behaviors permitted by the high-level
statement.  This involves breaking the proof into pieces, one for each
path prefix that starts at the beginning of the atomic block and does
not pass beyond the end of it."

The per-prefix lemmas are rendered; their aggregate-effect obligation is
discharged by the engine's whole-program bounded refinement check (the
atomic block executes without interruption, so its net effect is exactly
what the product simulation compares against the single high statement).
"""

from __future__ import annotations

from repro.errors import StrategyError
from repro.machine.steps import Step
from repro.proofs.artifacts import Lemma, ProofScript
from repro.proofs.render import (
    describe_step_effect,
    machine_definitions,
)
from repro.strategies.base import ProofRequest, Strategy
from repro.strategies.subsumption import steps_identical

MAX_PREFIXES = 2_000


class CombiningStrategy(Strategy):
    name = "combining"

    def generate(self, request: ProofRequest) -> ProofScript:
        script = ProofScript(
            proof_name=request.proof.name,
            strategy=self.name,
            low_level=request.proof.low_level,
            high_level=request.proof.high_level,
        )
        script.preamble.extend(
            machine_definitions(request.low_machine)
        )
        script.preamble.extend(
            machine_definitions(request.high_machine)
        )

        combined_any = False
        for method in self.common_methods(request):
            low_steps = self.ordered_steps(request.low_machine, method)
            high_steps = self.ordered_steps(request.high_machine, method)
            blocks = self._split_blocks(request, method, low_steps,
                                        high_steps)
            for block_steps, high_step in blocks:
                combined_any = True
                self._block_lemmas(
                    request, script, method, block_steps, high_step
                )
        if not combined_any:
            raise StrategyError(
                "combining: no atomic block is replaced by a single "
                "statement"
            )
        script.global_checks.append(
            "combining: aggregate block effect is contained in the "
            "high-level statement's behaviours"
        )
        return script

    # ------------------------------------------------------------------

    def _split_blocks(
        self,
        request: ProofRequest,
        method: str,
        low_steps: list[Step],
        high_steps: list[Step],
    ) -> list[tuple[list[Step], Step]]:
        """Align the step lists, isolating each run of non-yieldable
        low-level steps (an atomic block) that corresponds to exactly one
        high-level step."""
        low_machine = request.low_machine
        blocks: list[tuple[list[Step], Step]] = []
        i = j = 0
        while i < len(low_steps) or j < len(high_steps):
            low = low_steps[i] if i < len(low_steps) else None
            high = high_steps[j] if j < len(high_steps) else None
            if (
                low is not None
                and high is not None
                and steps_identical(low, high)
            ):
                i += 1
                j += 1
                continue
            # Mismatch: the low side must be inside an atomic block.
            if low is None or high is None:
                raise StrategyError(
                    f"combining: step counts disagree in {method}"
                )
            block: list[Step] = []
            while i < len(low_steps) and (
                not low_machine.pcs[low_steps[i].pc].yieldable
                or (
                    low_steps[i].target is not None
                    and low_steps[i].target in low_machine.pcs
                    and not low_machine.pcs[
                        low_steps[i].target
                    ].yieldable
                )
            ):
                block.append(low_steps[i])
                i += 1
                if (
                    i < len(low_steps)
                    and j + 1 < len(high_steps)
                    and steps_identical(low_steps[i], high_steps[j + 1])
                ):
                    break
                if (
                    i < len(low_steps)
                    and j + 1 >= len(high_steps)
                    and block
                    and low_machine.pcs[low_steps[i].pc].yieldable
                ):
                    break
            if not block:
                raise StrategyError(
                    "combining correspondence fails at "
                    f"{low.pc}: the mismatched low-level statement is "
                    "not inside an atomic block"
                )
            blocks.append((block, high))
            j += 1
        return blocks

    # ------------------------------------------------------------------

    def _block_lemmas(
        self,
        request: ProofRequest,
        script: ProofScript,
        method: str,
        block: list[Step],
        high_step: Step,
    ) -> None:
        prefixes = self._path_prefixes(block)
        for index, prefix in enumerate(prefixes[:MAX_PREFIXES]):
            is_complete = prefix[-1].target is None or (
                prefix[-1].target not in {s.pc for s in block}
            )
            kind = "complete path" if is_complete else "path prefix"
            script.add(
                Lemma(
                    name=f"Combine_{method}_prefix_{index}",
                    statement=(
                        f"the {kind} ["
                        + "; ".join(
                            describe_step_effect(s) for s in prefix
                        )
                        + "] through the atomic block exhibits behaviors "
                        f"permitted by [{describe_step_effect(high_step)}]"
                    ),
                    body=[
                        "// the atomic block executes without "
                        "interruption;",
                        "// compose the per-step effects and compare "
                        "against the",
                        "// high-level statement's transition relation",
                    ],
                )
            )

    def _path_prefixes(self, block: list[Step]) -> list[list[Step]]:
        """Every path prefix from the block's first PC that stays within
        the block (the paper's per-prefix decomposition)."""
        block_pcs = {step.pc for step in block}
        by_pc: dict[str, list[Step]] = {}
        for step in block:
            by_pc.setdefault(step.pc, []).append(step)
        entry = block[0].pc
        prefixes: list[list[Step]] = []

        def walk(pc: str | None, acc: list[Step], visited: frozenset[str]):
            if len(prefixes) >= MAX_PREFIXES:
                return
            if acc:
                prefixes.append(acc)
            if pc is None or pc not in block_pcs or pc in visited:
                return
            for step in by_pc.get(pc, []):
                walk(step.target, acc + [step], visited | {pc})

        walk(entry, [], frozenset())
        return prefixes
