"""The proof engine: runs recipes end to end (Figure 1).

For each ``proof`` declaration the engine translates both levels into
state machines, dispatches to the recipe's strategy to generate a
:class:`ProofScript`, mechanically checks every lemma obligation (the
role Dafny plays in the paper), and finally composes the per-pair
results by refinement transitivity into the end-to-end theorem "the
implementation refines the specification".  When the ``validate``
policy asks for it, the whole-program bounded refinement check is one
more lemma of the script (``WholeProgramRefinement``).

Obligation checking is delegated to the verification farm
(:mod:`repro.farm`): every lemma obligation across every proof of a
chain is collected into a job queue with stable content-addressed
keys, then discharged one at a time through the proof cache.  No
strategy steps a state while it generates its script: the state sweeps
and the refinement check run inside the obligations, so an obligation
served from the cache costs no sweep.  A default farm (no cache) checks
every obligation.
"""

from __future__ import annotations

import time

from repro.errors import (
    ArmadaError,
    ProofFailure,
    StateBudgetExceeded,
    StrategyError,
)
from repro.farm import VerificationFarm, lemma_jobs
from repro.farm.scheduler import Job
from repro.hashing import structural_hash
from repro.lang import asts as ast
from repro.lang.frontend import CheckedProgram, check_program
from repro.machine.program import DomainConfig, StateMachine
from repro.machine.translator import translate_level
from repro.obs import OBS
from repro.proofs.artifacts import Lemma, ProofScript, proved, refuted
from repro.record import Fresh, Record
from repro.strategies.base import ProofRequest
from repro.strategies.registry import lookup
from repro.strategies.regions import (
    address_invariant_lemmas,
    region_lemmas,
)
from repro.verifier.prover import UNKNOWN, Prover, Verdict


class ProofOutcome(Record):
    """Result of running one refinement recipe."""

    proof_name: str
    strategy: str
    success: bool
    script: ProofScript | None = None
    error: str | None = None
    refinement_checked: bool = False
    elapsed_seconds: float = 0.0
    #: Every unproved lemma timed out, hit a state budget or was
    #: cancelled (TIMEOUT/UNKNOWN): the proof is *inconclusive* — not
    #: refuted — and a re-run with larger bounds may still settle it.
    inconclusive: bool = False

    @property
    def generated_sloc(self) -> int:
        return self.script.sloc() if self.script is not None else 0

    @property
    def lemma_count(self) -> int:
        return len(self.script.lemmas) if self.script is not None else 0


class ChainOutcome(Record):
    """Result of running every recipe of a program and composing them."""

    outcomes: list[ProofOutcome] = Fresh(list)
    chain: list[str] = Fresh(list)
    end_to_end: bool = False
    #: Why the level chain failed to compose (broken, cyclic, or
    #: disconnected proof graph); None when ``chain`` is valid.
    chain_error: str | None = None

    @property
    def success(self) -> bool:
        return all(o.success for o in self.outcomes) and bool(self.outcomes)

    @property
    def inconclusive(self) -> bool:
        """The chain did not verify, but nothing was refuted either:
        every non-successful proof is inconclusive (timeouts/UNKNOWNs).
        Callers must not report this as 'the program is wrong'."""
        return (
            not self.success
            and bool(self.outcomes)
            and all(
                o.success or o.inconclusive for o in self.outcomes
            )
        )

    @property
    def status(self) -> str:
        """``verified`` / ``inconclusive`` / ``failed``."""
        if self.success:
            return "verified"
        if self.inconclusive:
            return "inconclusive"
        return "failed"

    @property
    def total_generated_sloc(self) -> int:
        return sum(o.generated_sloc for o in self.outcomes)


class _PreparedProof(Record):
    """One proof between script generation and outcome finalization."""

    proof: ast.ProofDecl
    script: ProofScript | None = None
    #: Early failure (strategy/correspondence error): finalize returns
    #: this outcome untouched and no jobs are scheduled.
    outcome: ProofOutcome | None = None
    refinement_checked: bool = False
    prepare_seconds: float = 0.0
    jobs: list[Job] = Fresh(list)
    #: The strategy's request, whose sweep cache is dropped once the
    #: proof is finalized.
    request: ProofRequest | None = None


class ProofEngine:
    """Drives proof generation and checking for one Armada program."""

    def __init__(
        self,
        checked: CheckedProgram,
        prover: Prover | None = None,
        max_states: int = 200_000,
        domains: DomainConfig | None = None,
        validate_refinement: str = "auto",
        farm: VerificationFarm | None = None,
        memory_model: str | None = None,
    ) -> None:
        """``validate_refinement``: ``"always"`` adds the whole-program
        bounded simulation check to every pair's script as the
        ``WholeProgramRefinement`` lemma, ``"auto"`` only when a
        strategy requests it (``global_checks``), ``"never"`` trusts the
        per-lemma obligations alone.

        ``farm``: the verification farm obligations are discharged
        through; defaults to a sequential, uncached farm.

        ``memory_model``: which memory model every level's machine runs
        under (``sc`` / ``tso`` / ``ra``; default ``tso``).  Part of
        every cache fingerprint — level fingerprints and job
        fingerprints both change with the model, so a verdict obtained
        under one model is never replayed for another.
        """
        from repro.memmodel import get_model

        self.checked = checked
        self.memory_model = get_model(memory_model).name
        self.prover = prover or Prover()
        self.max_states = max_states
        self.domains = domains
        self.validate_refinement = validate_refinement
        self.farm = farm or VerificationFarm()
        self._fingerprints: dict[str, str] = {}
        self._machines: dict[str, StateMachine] = {}

    # ------------------------------------------------------------------

    def machine(self, level_name: str) -> StateMachine:
        if level_name not in self._machines:
            ctx = self.checked.contexts.get(level_name)
            if ctx is None:
                raise ProofFailure(f"unknown level {level_name}")
            machine = translate_level(ctx, memory_model=self.memory_model)
            if self.domains is not None:
                machine.domains = self.domains
            self._machines[level_name] = machine
        return self._machines[level_name]

    # ------------------------------------------------------------------

    def _prepare(self, proof: ast.ProofDecl) -> _PreparedProof:
        """Generate the proof script (no obligation is checked yet)."""
        with OBS.span(proof.name, "proof", low=proof.low_level,
                      high=proof.high_level,
                      strategy=proof.strategy.name,
                      memory_model=self.memory_model):
            return self._prepare_inner(proof)

    def _prepare_inner(self, proof: ast.ProofDecl) -> _PreparedProof:
        started = time.perf_counter()
        prep = _PreparedProof(proof)
        try:
            strategy = lookup(proof.strategy.name)
            for level_name in (proof.low_level, proof.high_level):
                if level_name not in self.checked.contexts:
                    raise ProofFailure(
                        f"proof {proof.name} names unknown level "
                        f"{level_name}"
                    )
            request = ProofRequest(
                proof=proof,
                low_ctx=self.checked.contexts[proof.low_level],
                high_ctx=self.checked.contexts[proof.high_level],
                low_machine=self.machine(proof.low_level),
                high_machine=self.machine(proof.high_level),
                prover=self.prover,
                max_states=self.max_states,
            )
            prep.request = request
            with OBS.span(proof.strategy.name, "strategy",
                          proof=proof.name):
                script = strategy.generate(request)
            self._apply_directives(proof, request, script)
            if self.validate_refinement == "always" or (
                self.validate_refinement == "auto" and script.global_checks
            ):
                script.add(self._refinement_lemma(request, script))
                prep.refinement_checked = True
            prep.script = script
            if OBS.enabled:
                OBS.count("engine.lemmas_generated", len(script.lemmas))
        except StrategyError as error:
            prep.outcome = ProofOutcome(
                proof.name, proof.strategy.name, False, None,
                f"correspondence error: {error.message}",
                False, time.perf_counter() - started,
            )
        except StateBudgetExceeded as error:
            # No shipped strategy sweeps states while generating, but
            # a sweep that did and hit --max-states would leave the
            # proof neither verified nor refuted.
            prep.outcome = ProofOutcome(
                proof.name, proof.strategy.name, False, None,
                f"inconclusive: {error}", False,
                time.perf_counter() - started, inconclusive=True,
            )
        except ArmadaError as error:
            prep.outcome = ProofOutcome(
                proof.name, proof.strategy.name, False, None,
                str(error), False, time.perf_counter() - started,
            )
        prep.prepare_seconds = time.perf_counter() - started
        return prep

    def _job_fingerprint(self) -> str:
        """Everything beyond lemma content that can change a verdict."""
        domains = self.domains
        if domains is None:
            domain_part = "default-domains"
        else:
            overrides = sorted(
                (repr(k), repr(v)) for k, v in domains.overrides.items()
            )
            domain_part = (
                f"{domains.bool_values}:{domains.int_values}:"
                f"{domains.newframe_int_values}:{overrides}"
            )
        return (
            f"{self.prover.fingerprint()}|max_states={self.max_states}"
            f"|mm={self.memory_model}|{domain_part}"
        )

    def level_fingerprint(self, level_name: str) -> str:
        """Position-free fingerprint of one level's machine semantics.

        The rendered definitions cover PCs, datatypes, and step
        effects; global initial values are appended separately because
        the renderer omits them.  Every obligation of a proof is keyed
        with the machine-pair fingerprint of its two levels, so editing
        one level of a chain changes the cache keys of exactly the
        proofs that touch it.
        """
        cached = self._fingerprints.get(level_name)
        if cached is not None:
            return cached
        from repro.lang.astutil import expr_to_str
        from repro.proofs.render import machine_definitions

        ctx = self.checked.contexts.get(level_name)
        if ctx is None:
            raise ProofFailure(f"unknown level {level_name}")
        inits = [
            f"{g.name}:"
            f"{expr_to_str(g.init) if g.init is not None else '*'}"
            for g in ctx.level.globals
        ]
        fingerprint = structural_hash(
            "machine-level",
            level_name,
            self.memory_model,
            "\n".join(machine_definitions(self.machine(level_name))),
            inits,
        )
        self._fingerprints[level_name] = fingerprint
        return fingerprint

    def _machine_fingerprint(self, proof: ast.ProofDecl) -> str:
        """Fingerprint of both levels' semantics.

        Reachability-based obligations (rely-guarantee path lemmas,
        ownership predicates, phase invariants, the whole-program
        refinement check) quantify over the whole machine's reachable
        states, not only over the text of their lemma, so the cache key
        must change whenever either machine does.
        """
        return structural_hash(
            "machine-pair",
            self.level_fingerprint(proof.low_level),
            self.level_fingerprint(proof.high_level),
        )

    def _schedule(self, prep: _PreparedProof) -> list[Job]:
        """Collect this proof's lemma obligations into farm jobs."""
        fingerprint = (
            f"{self._job_fingerprint()}"
            f"|{self._machine_fingerprint(prep.proof)}"
        )
        prep.jobs = lemma_jobs(prep.script, fingerprint)
        return prep.jobs

    def _refinement_lemma(
        self, request: ProofRequest, script: ProofScript
    ) -> Lemma:
        """The whole-program bounded refinement check as a lemma.

        Its job key covers the lemma content, both machines and their
        initial values (the machine-pair fingerprint) and the memory
        model, domains and product-state budget (the job fingerprint).
        The recipe's ``relation`` text is in the statement, so the key
        covers R too; it is parsed here, so a bad relation is a proof
        error, not a verdict.  The body is static: the verdict is not
        part of the lemma text.
        """
        from repro.proofs.refinement import relation_from_recipe

        proof = request.proof
        relation = relation_from_recipe(
            proof, request.low_ctx, request.high_ctx
        )
        low_machine = request.low_machine
        high_machine = request.high_machine
        max_states = self.max_states

        def obligation() -> Verdict:
            from repro.explore.refinement_check import check_refinement

            result = check_refinement(
                low_machine, high_machine, relation=relation,
                max_product_states=max_states,
            )
            if result.holds:
                return proved()
            description = result.counterexample.description
            if result.inconclusive:
                # A bound cut the search: neither verified nor refuted.
                return Verdict(UNKNOWN, {
                    "error": "whole-program refinement check "
                             f"inconclusive: {description}"
                })
            return refuted(description)

        relations = proof.directives("relation")
        under = f" under R: {relations[0].args[0]}" if relations else ""
        return Lemma(
            name="WholeProgramRefinement",
            statement=(
                f"every finite behavior of {proof.low_level} simulates "
                f"a behavior of {proof.high_level} modulo stuttering"
                f"{under} (bounded check)"
            ),
            body=["// bounded simulation search over product states"]
            + [f"// discharges: {reason}"
               for reason in script.global_checks],
            obligation=obligation,
        )

    def _finalize(self, prep: _PreparedProof) -> ProofOutcome:
        """Fold checked verdicts into this proof's outcome.  Every
        obligation has run by now, so the sweeps they cached are
        dropped first: the outcome's script keeps the obligations, and
        with them the request."""
        if prep.request is not None:
            prep.request.release_sweeps()
        if prep.outcome is not None:
            return prep.outcome
        proof = prep.proof
        script = prep.script
        elapsed = prep.prepare_seconds + sum(
            job.wall_seconds for job in prep.jobs
        )
        failed = script.failed_lemmas()
        if failed:
            details = "; ".join(
                f"{lemma.name}: " + (
                    str(lemma.verdict.counterexample)
                    if lemma.verdict is not None
                    else "unchecked"
                )
                for lemma in failed[:3]
            )
            # If nothing was actually refuted — every unproved lemma
            # timed out, hit a bound or was cancelled — the proof is
            # inconclusive, not failed: a refutation claims the program
            # is wrong, a timeout only says the farm ran out of budget.
            if all(
                lemma.verdict is not None and lemma.verdict.inconclusive
                for lemma in failed
            ):
                return ProofOutcome(
                    proof.name, proof.strategy.name, False, script,
                    f"inconclusive: {details}",
                    prep.refinement_checked, elapsed,
                    inconclusive=True,
                )
            return ProofOutcome(
                proof.name, proof.strategy.name, False, script,
                f"verification failed: {details}",
                prep.refinement_checked, elapsed,
            )
        return ProofOutcome(
            proof.name, proof.strategy.name, True, script, None,
            prep.refinement_checked, elapsed,
        )

    # ------------------------------------------------------------------

    def _apply_directives(
        self,
        proof: ast.ProofDecl,
        request: ProofRequest,
        script: ProofScript,
    ) -> None:
        if proof.has_directive("use_regions"):
            for lemma in region_lemmas(request.low_ctx):
                script.add(lemma)
        if proof.has_directive("use_address_invariant"):
            for lemma in address_invariant_lemmas(request.low_ctx):
                script.add(lemma)
        for item in proof.directives("lemma"):
            # Lemma customization (§4.1.2): developer-supplied text is
            # appended to the named lemma (or the last one).
            target_name = item.args[0] if item.args else ""
            text = item.args[1] if len(item.args) > 1 else target_name
            target = next(
                (l for l in script.lemmas if l.name == target_name),
                script.lemmas[-1] if script.lemmas else None,
            )
            if target is not None:
                target.customization.append(text)

    # ------------------------------------------------------------------

    def run_all(self) -> ChainOutcome:
        """Run every proof and compose the chain by transitivity.

        Script generation stays per-proof, but the obligations of *all*
        proofs are collected into one farm batch, discharged in order.
        """
        levels = self.checked.program.levels
        chain_name = levels[0].name if levels else "chain"
        with OBS.span(chain_name, "chain",
                      levels=len(levels),
                      proofs=len(self.checked.program.proofs),
                      memory_model=self.memory_model):
            preps: list[_PreparedProof] = []
            batch: list[Job] = []
            for proof in self.checked.program.proofs:
                prep = self._prepare(proof)
                preps.append(prep)
                if prep.outcome is None:
                    batch.extend(self._schedule(prep))
            self.farm.discharge(batch)
        chain_outcome = ChainOutcome(
            outcomes=[self._finalize(prep) for prep in preps]
        )
        chain, chain_error = self._compose_chain()
        chain_outcome.chain = chain
        chain_outcome.chain_error = chain_error
        chain_outcome.end_to_end = (
            chain_outcome.success and len(chain_outcome.chain) >= 2
        )
        return chain_outcome

    def _compose_chain(self) -> tuple[list[str], str | None]:
        """Order the levels by following the proofs' low→high edges from
        the level that is never a high side (the implementation).

        Returns ``(chain, None)`` on success or ``([], reason)`` when
        the proof graph does not form a single linear chain."""
        proofs = self.checked.program.proofs
        if not proofs:
            return [], "no proofs declared"
        edges: dict[str, str] = {}
        for p in proofs:
            if p.low_level in edges and edges[p.low_level] != p.high_level:
                return [], (
                    f"level {p.low_level} is the low side of multiple "
                    f"proofs ({edges[p.low_level]} and {p.high_level})"
                )
            edges[p.low_level] = p.high_level
        highs = set(edges.values())
        starts = [low for low in edges if low not in highs]
        if not starts:
            return [], (
                "cyclic level chain: every level is the high side of "
                "some proof"
            )
        if len(starts) > 1:
            return [], (
                "broken level chain: multiple candidate implementation "
                "levels (" + ", ".join(sorted(starts)) + ")"
            )
        chain = [starts[0]]
        while chain[-1] in edges:
            nxt = edges[chain[-1]]
            if nxt in chain:
                return [], f"cyclic level chain at {nxt}"
            chain.append(nxt)
        if len(chain) != len(edges) + 1:
            unused = sorted(
                low for low in edges if low not in chain[:-1]
            )
            return [], (
                "disconnected proof graph: proofs from "
                + ", ".join(unused) + " are not reachable from "
                + chain[0]
            )
        return chain, None


def verify_source(
    source: str,
    filename: str = "<armada>",
    max_states: int = 200_000,
    validate_refinement: str = "auto",
    farm: VerificationFarm | None = None,
    memory_model: str | None = None,
) -> ChainOutcome:
    """Parse, check, and verify a complete Armada program text."""
    checked = check_program(source, filename)
    engine = ProofEngine(
        checked, max_states=max_states,
        validate_refinement=validate_refinement,
        farm=farm, memory_model=memory_model,
    )
    return engine.run_all()
