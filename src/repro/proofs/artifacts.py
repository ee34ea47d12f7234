"""Proof artifacts: lemmas and proof scripts.

Armada "explicitly manifests" its generated lemmas (§1) so developers can
perform lemma customization.  We mirror that: every strategy produces a
:class:`ProofScript` of :class:`Lemma` objects.  Each lemma carries

* a *statement* (what it claims, in Dafny-like surface syntax),
* a *body* (the rendered proof text, used for generated-SLOC accounting
  against the paper's §6 numbers), and
* an *obligation*: a callable the engine invokes to mechanically check
  the lemma.  A lemma with no obligation is definitional (datatype and
  function declarations that accompany every generated proof).

Every obligation returns a :class:`repro.verifier.prover.Verdict`-like
object with ``ok``/``status``; a failed obligation fails the proof just
as a Dafny verification error would (§2.2).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.hashing import structural_hash
from repro.record import Fresh, FrozenRecord, Record
from repro.verifier.prover import PROVED, REFUTED, Verdict


class ObligationDescriptor(FrozenRecord):
    """The picklable, hashable identity of one lemma obligation.

    The obligation callable itself is a closure over machines and
    contexts and can cross neither a pickle boundary nor a run
    boundary; the descriptor captures everything the *content* of the
    obligation depends on, so the verification farm can use it as a
    stable job key and cache address.
    """

    lemma_name: str
    statement: str
    body: tuple[str, ...]
    customization: tuple[str, ...]

    @classmethod
    def of(cls, lemma: "Lemma") -> "ObligationDescriptor":
        return cls(
            lemma_name=lemma.name,
            statement=lemma.statement,
            body=tuple(lemma.body),
            customization=tuple(lemma.customization),
        )

    def digest(self) -> str:
        return structural_hash(
            self.lemma_name, self.statement, self.body,
            self.customization,
        )


class Lemma(Record):
    """One generated lemma."""

    name: str
    statement: str
    body: list[str] = Fresh(list)
    obligation: Callable[[], Verdict] | None = None
    #: Filled in by the engine after checking.
    verdict: Verdict | None = None
    customization: list[str] = Fresh(list)

    def descriptor(self) -> ObligationDescriptor:
        return ObligationDescriptor.of(self)

    def fingerprint(self) -> str:
        """Structural hash of everything the obligation's meaning
        depends on (name, statement, body, customizations)."""
        return self.descriptor().digest()

    def render(self) -> str:
        lines = [f"lemma {self.name}()", f"  ensures {self.statement}", "{"]
        for line in self.body:
            lines.append(f"  {line}")
        for line in self.customization:
            lines.append(f"  {line}  // lemma customization")
        lines.append("}")
        return "\n".join(lines)

    def sloc(self) -> int:
        return sum(
            1 for line in self.render().splitlines() if line.strip()
        )


class ProofScript(Record):
    """The complete generated proof for one refinement pair."""

    proof_name: str
    strategy: str
    low_level: str
    high_level: str
    preamble: list[str] = Fresh(list)
    lemmas: list[Lemma] = Fresh(list)
    #: Obligations beyond local lemma reasoning: the engine discharges
    #: each by a whole-program bounded refinement check.
    global_checks: list[str] = Fresh(list)

    def add(self, lemma: Lemma) -> Lemma:
        self.lemmas.append(lemma)
        return lemma

    def definitional(self, name: str, statement: str,
                     body: list[str]) -> Lemma:
        return self.add(Lemma(name, statement, body))

    def render(self) -> str:
        lines = [
            f"// Proof {self.proof_name}: {self.low_level} refines "
            f"{self.high_level}",
            f"// Generated by the {self.strategy} strategy.",
            f"module Proof_{self.proof_name} {{",
        ]
        for line in self.preamble:
            lines.append(f"  {line}")
        for lemma in self.lemmas:
            for line in lemma.render().splitlines():
                lines.append(f"  {line}")
            lines.append("")
        lines.append("}")
        return "\n".join(lines)

    def sloc(self) -> int:
        """Non-blank source lines of the rendered proof (the unit the
        paper's §6 'Armada generates N SLOC of proof' figures use)."""
        return sum(
            1 for line in self.render().splitlines() if line.strip()
        )

    @property
    def all_checked(self) -> bool:
        return all(
            lemma.verdict is not None and lemma.verdict.ok
            for lemma in self.lemmas
            if lemma.obligation is not None
        )

    def failed_lemmas(self) -> list[Lemma]:
        return [
            lemma
            for lemma in self.lemmas
            if lemma.obligation is not None
            and (lemma.verdict is None or not lemma.verdict.ok)
        ]


def proved() -> Verdict:
    return Verdict(PROVED)


def refuted(counterexample: Any = None) -> Verdict:
    cex = counterexample if isinstance(counterexample, dict) else (
        {"witness": counterexample} if counterexample is not None else None
    )
    return Verdict(REFUTED, cex)


def bool_verdict(ok: bool, counterexample: Any = None) -> Verdict:
    return proved() if ok else refuted(counterexample)
