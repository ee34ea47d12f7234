"""PC classification for the regular-to-atomic transformation
(SNIPPETS.md: F* RegularToAtomic).

Armada's experimental ``Strategies.RegularToAtomic`` collapses runs of
non-*PC-breaking* statements into single atomic actions: a program
counter is *breaking* when the step there is visible to other threads
(shared reads/writes under the active memory model, fences, RMWs, lock
operations, thread create/join, output), nondeterministic, a loop head,
or a method entry (``armada_created_threads_initially_breaking``).
Everything between two breaking PCs executes as one indivisible action.

:func:`classify_atomic` computes that verdict per PC.  Two consumers
share it: the ``regular_to_atomic`` proof strategy
(:mod:`repro.strategies.regular_to_atomic`), which builds its atomic
paths from it, and ``ProofEngine(atomic=True)``, which merges
consecutive statement lemmas along non-breaking runs into one
obligation.  The explorer does not use it: every search is unreduced.

Soundness (see DESIGN.md "Regular-to-atomic" for the full argument):

* A *chainable* step is an ``Assign``/``Branch``/``Assume`` step that
  the independence facts classify as local
  (:func:`repro.analysis.independence.step_independence`) **and** that
  performs **zero** shared-memory writes per the analyzer's access map.
  Such a step commutes in both directions with every transition of
  every other thread, and a state inside a run differs from the run's
  end only in the running thread's PC and registers — shared memory,
  ghosts, buffers and logs are bit-identical.
* The cycle proviso is discharged by classifying every loop head as
  breaking: any cycle must pass a breaking PC.

Memory models whose environment moves the independence argument does
not cover (C11 RA) disable the classification wholesale, as do levels
whose footprint extraction fails: :func:`classify_atomic` then reports
a ``disabled`` reason and both consumers leave the proof uncollapsed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.machine.steps import AssignStep, AssumeStep, BranchStep, Step

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.program import StateMachine

#: Memory models whose environment moves the independence argument
#: covers: TSO drains touch only the draining thread's buffer and the
#: drained location.  RA's view advances are not covered.
_CLASSIFIED_MODELS = frozenset({"sc", "tso"})


@dataclass(frozen=True)
class AtomicClassification:
    """Per-PC breaking verdicts for one machine.

    ``breaking`` maps every PC to its verdict; ``reasons`` records why
    each breaking PC breaks (tests and ``describe`` want the
    explanation, not just the bit); ``chain_pcs`` is the non-breaking
    complement.  ``disabled`` is the reason the whole classification is
    unavailable (RA model, footprint extraction failure) — conservative
    self-disable, never a guess."""

    breaking: dict[str, bool] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)
    chain_pcs: frozenset[str] = frozenset()
    loop_heads: frozenset[str] = frozenset()
    disabled: str | None = None

    @property
    def enabled(self) -> bool:
        return self.disabled is None and bool(self.chain_pcs)

    def describe(self) -> str:
        if self.disabled is not None:
            return f"atomic collapse disabled: {self.disabled}"
        total = len(self.breaking)
        return (
            f"atomic: {len(self.chain_pcs)}/{total} pcs non-breaking"
        )


def step_breaking_reason(
    step: Step, facts, access_map
) -> str | None:
    """Why *step* must end an atomic block (``None`` = chainable).

    The rule is strictly narrower than independence: a local step may
    still write a *private* global (invisible to other threads but
    visible to invariant predicates over shared state), so chainable
    steps additionally require an empty write footprint.
    """
    if not isinstance(step, (AssignStep, BranchStep, AssumeStep)):
        return f"{type(step).__name__} is thread-visible"
    if id(step) not in facts.local_step_ids:
        return "not provably independent of other threads"
    if step.nondet_vars():
        return "encapsulated nondeterminism"
    if isinstance(step, BranchStep) and step.cond is None:
        return "nondeterministic guard"
    for access in access_map.step_accesses(step):
        if access.kind == "write":
            return f"shared write to {access.location}"
    return None


def _loop_heads(machine: "StateMachine") -> frozenset[str]:
    """PCs that are targets of back edges (``target.index <=
    source.index`` within one method) — the F* snippet's loop heads,
    which must break so every cycle crosses a breaking PC."""
    heads: set[str] = set()
    pcs = machine.pcs
    for pc, steps in machine.steps_by_pc.items():
        source = pcs.get(pc)
        if source is None:
            continue
        for step in steps:
            target = pcs.get(step.target) if step.target else None
            if (
                target is not None
                and target.method == source.method
                and target.index <= source.index
            ):
                heads.add(step.target)
    return frozenset(heads)


def _classify(machine: "StateMachine") -> AtomicClassification:
    memmodel = getattr(machine, "memmodel", None)
    if memmodel is not None and memmodel.name not in _CLASSIFIED_MODELS:
        return AtomicClassification(
            disabled=(
                f"memory model {memmodel.name} does not support the "
                "atomic collapse"
            ),
        )
    ctx = getattr(machine, "ctx", None)
    if ctx is None:
        return AtomicClassification(
            disabled="machine exposes no level context"
        )
    try:
        from repro.analysis.accesses import extract_accesses
        from repro.analysis.independence import step_independence

        access_map = extract_accesses(ctx, machine)
        facts = step_independence(ctx, machine, access_map)
    except Exception as error:
        # Any PC whose classification is unknown must be breaking; if
        # the footprint extraction fails outright, every PC is unknown
        # and the classification self-disables.
        return AtomicClassification(
            disabled=f"classification unavailable: {error}"
        )

    loop_heads = _loop_heads(machine)
    entries = set(machine.method_entry.values())
    breaking: dict[str, bool] = {}
    reasons: dict[str, str] = {}
    for pc in machine.pcs:
        steps = machine.steps_by_pc.get(pc, [])
        reason: str | None = None
        if not steps:
            reason = "terminal pc (no steps)"
        elif not machine.pcs[pc].yieldable:
            reason = "inside an explicit atomic region"
        elif pc in entries:
            reason = "method entry (created threads start breaking)"
        elif pc in loop_heads:
            reason = "loop head (cycle proviso)"
        else:
            for step in steps:
                reason = step_breaking_reason(step, facts, access_map)
                if reason is not None:
                    break
        breaking[pc] = reason is not None
        if reason is not None:
            reasons[pc] = reason
    return AtomicClassification(
        breaking=breaking,
        reasons=reasons,
        chain_pcs=frozenset(
            pc for pc, broke in breaking.items() if not broke
        ),
        loop_heads=loop_heads,
    )


#: Classification is a whole-machine static analysis; cache it per
#: machine so the strategy and the engine's collapse pay for it once.
_CLASS_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def classify_atomic(machine: "StateMachine") -> AtomicClassification:
    """The (cached) breaking/non-breaking classification of *machine*."""
    try:
        cached = _CLASS_CACHE.get(machine)
    except TypeError:  # unweakrefable stand-ins in tests
        cached = None
    if cached is not None:
        return cached
    result = _classify(machine)
    try:
        _CLASS_CACHE[machine] = result
    except TypeError:
        pass
    return result
