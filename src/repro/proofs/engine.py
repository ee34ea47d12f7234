"""The proof engine: runs recipes end to end (Figure 1).

For each ``proof`` declaration the engine translates both levels into
state machines, dispatches to the recipe's strategy to generate a
:class:`ProofScript`, mechanically checks every lemma obligation (the
role Dafny plays in the paper), runs any whole-program bounded
refinement checks the strategy requested, and finally composes the
per-pair results by refinement transitivity into the end-to-end theorem
"the implementation refines the specification".

Obligation checking is delegated to the verification farm
(:mod:`repro.farm`): every lemma obligation across every proof of a
chain — plus the whole-program refinement checks — is collected into a
job queue with stable content-addressed keys, then discharged one at a
time through the proof cache.  No strategy steps a state while it
generates its script: the state sweeps run inside the obligations, so
an obligation served from the cache costs no sweep.  A default farm
(no cache) checks every obligation.
"""

from __future__ import annotations

import time

from repro.errors import (
    ArmadaError,
    InconclusiveCheck,
    ProofFailure,
    StateBudgetExceeded,
    StrategyError,
)
from repro.farm import VerificationFarm, global_check_job, lemma_jobs
from repro.farm.scheduler import Job
from repro.hashing import code_version, structural_hash
from repro.lang import asts as ast
from repro.lang.frontend import CheckedProgram, check_program
from repro.machine.program import DomainConfig, StateMachine
from repro.machine.translator import translate_level
from repro.obs import OBS
from repro.proofs.artifacts import Lemma, ProofScript, bool_verdict
from repro.record import Fresh, Record
from repro.strategies.base import ProofRequest
from repro.strategies.registry import lookup
from repro.strategies.regions import (
    address_invariant_lemmas,
    region_lemmas,
)
from repro.verifier.prover import Prover


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
    #: Reused wholesale from an outcome cache (incremental
    #: re-verification): neither levels, recipe, prover budget, nor
    #: toolchain changed since this outcome was computed, so no
    #: obligation was re-discharged.
    from_cache: bool = False

    @property
    def generated_sloc(self) -> int:
        return self.script.sloc() if self.script is not None else 0

    @property
    def lemma_count(self) -> int:
        return len(self.script.lemmas) if self.script is not None else 0

    def reused(self) -> "ProofOutcome":
        """This outcome served again from an outcome cache: marked
        ``from_cache``, with no time spent."""
        return self.replace(elapsed_seconds=0.0, from_cache=True)


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
    validation_error: str | None = None
    #: The validation obligation never settled (drain/deadline): the
    #: proof is inconclusive, not failed.
    validation_inconclusive: bool = False
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
        outcome_cache: "object | None" = None,
        memory_model: str | None = None,
        compiled: bool = True,
    ) -> None:
        """``validate_refinement``: ``"always"`` runs the whole-program
        bounded simulation check for every pair, ``"auto"`` only when a
        strategy requests it (``global_checks``), ``"never"`` trusts the
        per-lemma obligations alone.

        ``farm``: the verification farm obligations are discharged
        through; defaults to a sequential, uncached farm.

        ``outcome_cache``: an object with ``get(key) -> ProofOutcome |
        None`` and ``put(key, outcome)`` (see
        :class:`repro.serve.incremental.OutcomeCache`).  When a proof's
        :meth:`proof_key` hits, the stored outcome is reused wholesale
        — no script generation, no obligation discharge, no
        whole-program check — which is how ``armada serve`` re-verifies
        only the proofs a resubmission invalidated.  Only *settled*
        outcomes (verified, or failed with a refutation) are stored:
        an inconclusive outcome must be retried, never pinned.

        ``memory_model``: which memory model every level's machine runs
        under (``sc`` / ``tso`` / ``ra``; default ``tso``).  Part of
        every cache fingerprint — level fingerprints, job fingerprints
        and proof keys all change with the model, so a verdict obtained
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
        # Compiled step specialization for every state sweep (bounded
        # obligations).  Bit-identical to the interpreter, so
        # deliberately NOT part of any cache fingerprint.
        self.compiled = compiled
        self.outcome_cache = outcome_cache
        self._level_fingerprints: dict[str, str] = {}
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

    def run_proof(self, proof: ast.ProofDecl) -> ProofOutcome:
        prep = self._prepare(proof)
        if prep.outcome is None:
            self.farm.discharge(self._schedule(prep))
        return self._finalize(prep)

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
                compiled=self.compiled,
            )
            prep.request = request
            with OBS.span(proof.strategy.name, "strategy",
                          proof=proof.name):
                script = strategy.generate(request)
            self._apply_directives(proof, request, script)
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
        the renderer omits them.  This is the unit of incremental
        re-verification: a proof's cache keys change exactly when one
        of its two levels' fingerprints does, so editing one level of a
        chain invalidates only the proofs that touch it.
        """
        cached = self._level_fingerprints.get(level_name)
        if cached is not None:
            return cached
        from repro.lang.astutil import expr_to_str
        from repro.proofs.render import render_machine_definitions

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
            "\n".join(render_machine_definitions(self.machine(level_name))),
            inits,
        )
        self._level_fingerprints[level_name] = fingerprint
        return fingerprint

    def level_fingerprints(self) -> dict[str, str]:
        """Fingerprints for every level of the program, by name — what
        the serve daemon diffs against its index to decide which
        proofs a resubmission invalidated."""
        return {
            level.name: self.level_fingerprint(level.name)
            for level in self.checked.program.levels
        }

    def _machine_fingerprint(self, proof: ast.ProofDecl) -> str:
        """Fingerprint of both levels' semantics.

        Reachability-based obligations (rely-guarantee path lemmas,
        ownership predicates, phase invariants) quantify over the whole
        machine's reachable states, not only over the text of their
        lemma, so the cache key must change whenever either machine
        does.
        """
        return structural_hash(
            "machine-pair",
            self.level_fingerprint(proof.low_level),
            self.level_fingerprint(proof.high_level),
        )

    def proof_key(self, proof: ast.ProofDecl) -> str:
        """Content address of one proof's *entire outcome*.

        Covers everything that can change any verdict the proof
        produces: both machines' semantics (level fingerprints), the
        full recipe (strategy, arguments, every directive — lemma
        customizations included), the prover/exploration configuration
        (:meth:`_job_fingerprint`, which also covers the domains), the
        refinement-validation policy (it decides whether the
        whole-program check runs), and the toolchain version.  Two runs
        with equal keys perform byte-identical obligation checks, so
        reusing the stored :class:`ProofOutcome`
        — the basis of ``armada serve``'s incremental re-verification
        — is sound even for the whole-program bounded checks the lemma
        cache cannot cover.
        """
        recipe = [
            (item.name, list(item.args)) for item in proof.items
        ]
        return structural_hash(
            "proof-outcome",
            proof.name,
            proof.low_level,
            proof.high_level,
            recipe,
            self.level_fingerprint(proof.low_level),
            self.level_fingerprint(proof.high_level),
            self._job_fingerprint(),
            self.validate_refinement,
            code_version(),
        )

    def _schedule(self, prep: _PreparedProof) -> list[Job]:
        """Collect this proof's checkable units into farm jobs."""
        script = prep.script
        assert script is not None
        fingerprint = (
            f"{self._job_fingerprint()}"
            f"|{self._machine_fingerprint(prep.proof)}"
        )
        jobs = lemma_jobs(script, fingerprint)
        should_validate = self.validate_refinement == "always" or (
            self.validate_refinement == "auto" and script.global_checks
        )
        if should_validate:
            jobs.append(self._global_check_job(prep))
            prep.refinement_checked = True
        prep.jobs = jobs
        return jobs

    def _global_check_job(self, prep: _PreparedProof) -> Job:
        proof = prep.proof
        script = prep.script
        low_machine = self.machine(proof.low_level)
        high_machine = self.machine(proof.high_level)
        low_ctx = self.checked.contexts[proof.low_level]
        high_ctx = self.checked.contexts[proof.high_level]
        max_states = self.max_states
        compiled = self.compiled

        def thunk():
            from repro.explore.refinement_check import check_refinement
            from repro.proofs.refinement import relation_from_recipe

            try:
                relation = relation_from_recipe(proof, low_ctx, high_ctx)
                result = check_refinement(
                    low_machine,
                    high_machine,
                    relation=relation,
                    max_product_states=max_states,
                    compiled=compiled,
                )
            except ArmadaError as error:
                return error
            if result.inconclusive:
                # A bound cut the search: neither verified nor refuted.
                return InconclusiveCheck(
                    "whole-program refinement check inconclusive: "
                    f"{result.counterexample.description}"
                )
            return result

        def apply(result) -> None:
            if isinstance(result, ArmadaError):
                prep.validation_error = str(result)
                prep.validation_inconclusive = isinstance(
                    result, InconclusiveCheck
                )
                return
            script.add(
                Lemma(
                    name="WholeProgramRefinement",
                    statement=(
                        f"every finite behavior of {proof.low_level} "
                        f"simulates a behavior of {proof.high_level} "
                        "modulo stuttering (bounded check)"
                    ),
                    body=[
                        "// product states explored: "
                        f"{result.product_states}"
                    ]
                    + [f"// discharges: {reason}"
                       for reason in script.global_checks]
                    + (
                        [
                            "// counterexample trace: "
                            + result.counterexample.format_trace()
                        ]
                        if result.counterexample is not None
                        else []
                    ),
                    obligation=(
                        (lambda: bool_verdict(False))
                        if not result.holds else None
                    ),
                    verdict=bool_verdict(
                        result.holds,
                        result.counterexample.description
                        if result.counterexample
                        else None,
                    ),
                )
            )

        return global_check_job(proof.name, thunk, apply)

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
        if prep.validation_error is not None:
            return ProofOutcome(
                proof.name, proof.strategy.name, False, None,
                prep.validation_error, False, elapsed,
                inconclusive=prep.validation_inconclusive,
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

    def _check_lemmas(
        self, script: ProofScript, proof: ast.ProofDecl | None = None
    ) -> None:
        """Discharge one script's lemma obligations through the farm."""
        fingerprint = self._job_fingerprint()
        if proof is not None:
            fingerprint += f"|{self._machine_fingerprint(proof)}"
        self.farm.discharge(lemma_jobs(script, fingerprint))

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
            # Incremental re-verification: a proof whose outcome key
            # hits the cache is reused wholesale — its levels, recipe,
            # prover budget, and toolchain are all unchanged, so
            # re-running it would perform byte-identical checks.  Only
            # the invalidated proofs are prepared and discharged.
            entries: list[tuple[_PreparedProof | None, ProofOutcome | None]] = []
            batch: list[Job] = []
            for proof in self.checked.program.proofs:
                reused = None
                if self.outcome_cache is not None:
                    reused = self.outcome_cache.get(self.proof_key(proof))
                if reused is not None:
                    entries.append((None, reused.reused()))
                    if OBS.enabled:
                        OBS.count("engine.proofs_reused")
                    continue
                prep = self._prepare(proof)
                entries.append((prep, None))
                if prep.outcome is None:
                    batch.extend(self._schedule(prep))
            self.farm.discharge(batch)
        chain_outcome = ChainOutcome()
        for prep, reused in entries:
            if reused is not None:
                chain_outcome.outcomes.append(reused)
                continue
            outcome = self._finalize(prep)
            chain_outcome.outcomes.append(outcome)
            # Inconclusive outcomes (timeouts, drains, budget cuts)
            # are environment-dependent and must be re-checked by the
            # next run, never pinned.
            if self.outcome_cache is not None and not outcome.inconclusive:
                self.outcome_cache.put(
                    self.proof_key(prep.proof), outcome
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
