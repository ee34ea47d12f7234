"""Ample-set partial-order reduction for the explicit-state explorer.

Naive exploration enumerates every interleaving of every thread, but
most of those interleavings only permute steps that cannot observe each
other.  The classical remedy is an *ample set* (Peled): at a state where
some thread's next moves are provably independent of everything the
other threads can do, explore only that thread and discard the sibling
interleavings — every pruned path is Mazurkiewicz-equivalent to a
retained one, so final outcomes, termination kinds, logs, deadlocks and
every property over non-private shared state are preserved exactly.

The reducer combines a **static** filter with a **dynamic** guard:

* Statically (:func:`repro.analysis.independence.step_independence`), a
  step qualifies only if its effects are confined to the firing thread's
  private pc/locals/buffer and *private globals* (locations only that
  thread can ever touch), and its reads cannot be influenced by any
  other thread (see that module for the TSO argument).  Store-buffer
  drains qualify when the drained entry targets a private global.
* Dynamically, before pruning at a concrete state, every transition of
  the candidate thread is executed and its successor checked to confirm
  the static promise — shared memory, ghosts, allocation, the log, the
  termination status, the atomic-region owner, the scheduler counters
  and every *other* thread must be bit-identical, the candidate must
  not terminate (a join elsewhere could observe that), and its store
  buffer may only have appended entries for private globals.

The four ample-set conditions map onto this as follows:

* **C0** (nonempty): an empty candidate set falls back to full
  expansion.
* **C1** (dependence): other threads' transitions are independent of
  the candidate's by the static argument; the candidate thread's *own*
  alternative steps all sit in the ample set because we require every
  step at its pc to be statically local — a disabled local twin (e.g.
  the false branch) has a guard over other-thread-unwritable data, so
  no other thread can enable it behind our back.  Pending drains are in
  the ample set too (the whole buffer must be private).
* **C2** (invisibility): the dynamic guard rejects any successor that
  changes the log or terminates.
* **C3** (cycle proviso): pruning is only allowed when every ample
  successor is a *new* state (not yet in the explorer's seen set), so
  an enabled-but-pruned transition can never be postponed around a
  cycle forever.

The reduction is sound for every property another thread or the
environment can observe — final outcomes, UB reasons, assert failures,
deadlocks, and invariants over multithreaded shared state.  It can hide
intermediate *private* configurations (a pruned sibling differs only in
the candidate thread's pc/locals/buffer and its private globals), so it
is **off by default** in the proof engine, whose obligation predicates
may inspect exactly such private state mid-stride (``--por`` opts in).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Container

from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.independence import IndependenceFacts


#: Machine -> IndependenceFacts, shared across reducer instances so a
#: fresh ``Explorer(machine, por=True)`` does not redo the static
#: analysis (that recomputation is what made POR lose wall-time to full
#: expansion on small graphs like barrier/BarrierImpl).
_FACTS_CACHE: "weakref.WeakKeyDictionary[StateMachine, IndependenceFacts]"
_FACTS_CACHE = weakref.WeakKeyDictionary()


@dataclass
class PorStats:
    """How much the reduction actually pruned during one exploration."""

    ample_states: int = 0  #: states expanded via a singleton-thread ample set
    full_states: int = 0  #: states that needed the full fan-out
    transitions_pruned: int = 0  #: enabled transitions not explored
    #: Ample states admitted by the dynamic buffered-write rule
    #: specifically (:class:`repro.explore.dpor.DynamicReducer`).
    dynamic_states: int = 0
    #: Enabled transitions skipped because they were asleep.
    sleep_pruned: int = 0

    def describe(self) -> str:
        total = self.ample_states + self.full_states
        text = (
            f"POR: {self.ample_states}/{total} states reduced, "
            f"{self.transitions_pruned} transitions pruned"
        )
        if self.dynamic_states:
            text += f", {self.dynamic_states} via dynamic rule"
        if self.sleep_pruned:
            text += f", {self.sleep_pruned} slept"
        return text

    def merge(self, other: "PorStats") -> None:
        self.ample_states += other.ample_states
        self.full_states += other.full_states
        self.transitions_pruned += other.transitions_pruned
        self.dynamic_states += other.dynamic_states
        self.sleep_pruned += other.sleep_pruned


class AmpleReducer:
    """Per-machine ample-set selector.

    One reducer instance serves every exploration of one machine: the
    static independence facts are computed once, lazily, on first use.
    """

    def __init__(
        self,
        machine: StateMachine,
        facts: "IndependenceFacts | None" = None,
    ) -> None:
        self.machine = machine
        self._facts = facts
        self.stats = PorStats()
        #: pc -> whether *every* step at that pc is statically local
        #: (the per-(statement, footprint) classification, amortized
        #: across states — the answer only depends on the pc).
        self._pc_local: dict[str | None, bool] = {None: True}

    @property
    def facts(self) -> "IndependenceFacts":
        if self._facts is None:
            cached = _FACTS_CACHE.get(self.machine)
            if cached is not None:
                self._facts = cached
                return cached
            # Deferred: repro.analysis reaches back into the strategy
            # layer, which imports repro.explore.
            from repro.analysis.independence import step_independence

            self._facts = step_independence(self.machine.ctx, self.machine)
            try:
                _FACTS_CACHE[self.machine] = self._facts
            except TypeError:  # unweakrefable machine stand-in (tests)
                pass
        return self._facts

    def _pc_all_local(self, pc: str | None) -> bool:
        cached = self._pc_local.get(pc)
        if cached is None:
            # Every step at this pc — enabled or not — must be local,
            # or a concurrently-enabled dependent twin could be missed
            # (C1).
            local_ids = self.facts.local_step_ids
            cached = all(
                id(step) in local_ids
                for step in self.machine.steps_at(pc)
            )
            self._pc_local[pc] = cached
        return cached

    # ------------------------------------------------------------------

    def _buffer_private(self, buffer: tuple) -> bool:
        """Every pending store targets a private global (so every drain
        of this buffer is invisible to other threads)."""
        private = self.facts.private_globals
        for location, _value in buffer:
            root = location.root
            if root.kind != "global" or root.name not in private:
                return False
        return True

    def ample(
        self,
        state: ProgramState,
        transitions: list[Transition],
        seen: Container[ProgramState],
        successors: list[ProgramState],
    ) -> tuple[list[Transition], list[ProgramState]] | None:
        """Select an ample subset of *transitions* at *state*, whose
        successor states are *successors* (aligned by index).

        Returns ``(ample_transitions, their_successors)`` when a sound
        singleton-thread reduction exists, or ``None`` to request full
        expansion.
        """
        if state.atomic_owner is not None or len(transitions) < 2:
            # Inside an atomic region only one thread schedules anyway;
            # with < 2 transitions there is nothing to prune.
            self.stats.full_states += 1
            return None

        by_tid: dict[int, list[int]] = {}
        for i, tr in enumerate(transitions):
            by_tid.setdefault(tr.tid, []).append(i)
        if len(by_tid) < 2:
            # Single runnable thread: nothing to prune, and no reason
            # to run the dynamic guard (this is the common case in
            # small graphs' sequential prologues/epilogues).
            self.stats.full_states += 1
            return None

        for tid in sorted(by_tid):
            indices = by_tid[tid]
            thread = state.threads[tid]
            if not self._buffer_private(thread.store_buffer):
                continue
            if not self._pc_all_local(thread.pc):
                continue
            candidate = [transitions[i] for i in indices]
            checked = self._check_successors(
                state, candidate, seen, [successors[i] for i in indices]
            )
            if checked is None:
                continue
            self.stats.ample_states += 1
            self.stats.transitions_pruned += (
                len(transitions) - len(candidate)
            )
            if OBS.enabled:
                OBS.count("por.ample_states")
                OBS.count("por.transitions_pruned",
                          len(transitions) - len(candidate))
            return candidate, checked

        self.stats.full_states += 1
        return None

    # ------------------------------------------------------------------

    def _check_successors(
        self,
        state: ProgramState,
        candidate: list[Transition],
        seen: Container[ProgramState],
        computed: list[ProgramState],
    ) -> list[ProgramState] | None:
        """Run the dynamic invisibility/commutation guard (C2, C3) over
        the *candidate* transitions and their *computed* successors."""
        tid = candidate[0].tid
        old_thread = state.threads[tid]
        old_sb = old_thread.store_buffer
        successors: list[ProgramState] = []
        for tr, nxt in zip(candidate, computed):
            if tr.is_drain:
                # A drain of a private entry only pops the candidate's
                # buffer and writes the private cell back; nothing else
                # can change.  C3 still applies.
                if nxt in seen:
                    return None
                successors.append(nxt)
                continue
            if nxt.termination is not None:
                return None
            if nxt.log != state.log:
                return None
            if nxt.memory is not state.memory and nxt.memory != state.memory:
                return None
            if nxt.ghosts is not state.ghosts and nxt.ghosts != state.ghosts:
                return None
            if (nxt.allocation is not state.allocation
                    and nxt.allocation != state.allocation):
                return None
            if (nxt.atomic_owner != state.atomic_owner
                    or nxt.next_tid != state.next_tid
                    or nxt.next_serial != state.next_serial
                    or len(nxt.threads) != len(state.threads)):
                return None
            moved = nxt.threads.get(tid)
            if moved is None or moved.pc is None:
                # Termination is visible: it enables joins elsewhere.
                return None
            new_sb = moved.store_buffer
            if new_sb != old_sb:
                # The step may only *append* stores to private globals.
                if new_sb[: len(old_sb)] != old_sb:
                    return None
                if not self._buffer_private(new_sb[len(old_sb):]):
                    return None
            for other_tid, other in state.threads.items():
                if other_tid == tid:
                    continue
                nxt_other = nxt.threads.get(other_tid)
                if nxt_other is not other and nxt_other != other:
                    return None
            # C3: never prune into an already-seen state, or a pruned
            # sibling could be postponed forever around a cycle.
            if nxt in seen:
                return None
            successors.append(nxt)
        return successors
