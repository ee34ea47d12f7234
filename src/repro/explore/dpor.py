"""Dynamic partial-order reduction: footprint-driven ample sets plus
sleep sets, computed at exploration time.

The static reducer (:mod:`repro.explore.por`) only prunes around steps
whose writes land on *private* globals — locations provably touched by a
single thread, ever.  That classification is whole-program and
per-location, so a lock implementation whose per-thread slots live in
one shared array (``locked[i]``) never qualifies and mcslock saves only
~8% of states.  This module relaxes the rule with facts only available
at a concrete state:

**Dynamic ample rule.**  Under x86-TSO a buffered store — to *any*
location — appends to the firing thread's store buffer and changes
nothing any other thread can observe; the later *drain* is the visible
action.  So thread *t* qualifies as an ample candidate at state *s*
when:

* every step at *t*'s pc is an Assign/Branch/Assume that never mentions
  ghost state, whose every static write access is buffered (plain
  ``:=``), and
* no location any of those steps may *read* can still be written by
  another live thread — checked against the per-pc forward-reachable
  write closure (:mod:`repro.analysis.futures`) of every other thread's
  current pc, return stack, and spawnable methods, plus the concrete
  cells sitting in other threads' store buffers at *s*.

The ample set is then *t*'s non-drain transitions.  This is a persistent
set: any execution from *s* by other threads (or *t*'s own pending
drains, which FIFO-commute with *t*'s buffer appends and cannot change
*t*'s read-own-write local view) can neither affect what *t*'s steps
read, nor observe their buffered effects, nor be disabled by them.
Every candidate is still executed and its successor re-checked by the
same dynamic guard as the static reducer — relaxed only to allow
non-private buffer appends — including C2 (no termination/log change)
and C3 (no successor already seen).  Under SC the static extraction
still marks writes "buffered" but the guard's memory-unchanged check
rejects them, so the rule degrades soundly to no reduction.

**Sleep sets.**  Orthogonally, :class:`SleepSets` implements
Godefroid-style sleep sets over *concrete* per-state footprints
(:func:`repro.analysis.accesses.concrete_footprint`): after exploring
sibling ``a`` before ``b`` at ``s``, the successor through ``b``
carries ``a`` in its sleep set as long as the two are independent, and
transitions in a state's sleep set are not re-fired there.  With state
interning, a state re-reached with a *smaller* sleep set is re-expanded
with the intersection (sets only shrink, so this terminates).  Sleep
sets prune redundant *transitions*, not states; the state savings come
from the ample rule and symmetry.  Independence is decided
conservatively: only Assign/Assume/Branch steps (ghost-free, no
atomic-region entry) and drains are eligible, same-thread pairs are
always dependent, and two footprints conflict when one performs a
*direct* write (TSO-bypassing, atomic, SC, or a drain) to a cell the
other touches.  Buffered TSO writes conflict with nothing — the drain,
a separate transition, carries the conflict.

Soundness caveats shared with the static reducer: properties over a
candidate thread's *private* mid-stride configuration may lose
intermediate states (the proof engine therefore keeps reductions
off by default), and reasons/failure counts are preserved as sets,
not multisets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Container

from repro.explore.por import AmpleReducer
from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState
from repro.machine.steps import AssignStep, AssumeStep, BranchStep
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.accesses import AccessMap
    from repro.analysis.futures import FutureAccesses


def transition_key(tr: Transition) -> tuple:
    """A hashable identity for one transition across states.

    Steps use identity equality and are unique per machine, so
    ``id(step)`` (with the params tuple) names a transition type
    stably within one process.  Drains key on ``None``.
    """
    return (tr.tid, id(tr.step) if tr.step is not None else None,
            tr.params)


class DynamicReducer(AmpleReducer):
    """Ample-set selector with the buffered-write persistent-set rule.

    Falls back to the inherited static rule first (it is cheaper and
    admits drains into the ample set); the dynamic rule only runs where
    the static classification is too coarse.  Shares the parent's
    ``stats`` (``dynamic_states`` counts states reduced by the dynamic
    rule specifically).
    """

    def __init__(self, machine: StateMachine, facts=None) -> None:
        super().__init__(machine, facts)
        self._amap: "AccessMap | None" = None
        self._futures: "FutureAccesses | None" = None
        #: Lazily invoked provider of the compiled stepper's per-step
        #: footprint table (see :meth:`attach_stepper`).
        self._meta = None
        #: pc -> frozenset of locations read (candidate eligible), or
        #: None (ineligible pc).  Like ``_pc_local``, the answer only
        #: depends on the pc, so it is computed once.
        self._pc_dyn: dict[str | None, "frozenset[str] | None"] = {
            None: None,
        }

    def attach_stepper(self, stepper) -> None:
        """Adopt a compiled stepper's per-step footprint metadata
        (:meth:`repro.compiler.stepc.CompiledStepper.step_footprints`)
        so the per-pc shape classification reads precomputed footprints
        instead of re-walking the access map and step expressions."""
        self._meta = stepper.step_footprints

    # -- lazy analysis inputs ------------------------------------------

    @property
    def access_map(self) -> "AccessMap":
        if self._amap is None:
            from repro.analysis.accesses import extract_accesses

            self._amap = extract_accesses(self.machine.ctx, self.machine)
        return self._amap

    @property
    def futures(self) -> "FutureAccesses":
        if self._futures is None:
            from repro.analysis.futures import future_accesses

            self._futures = future_accesses(self.machine, self.access_map)
        return self._futures

    # -- per-pc dynamic eligibility ------------------------------------

    def _dyn_reads(self, pc: str | None) -> "frozenset[str] | None":
        """If every step at *pc* fits the dynamic rule's step shape,
        the union of locations those steps may read; else None."""
        cached = self._pc_dyn.get(pc, "miss")
        if cached != "miss":
            return cached
        from repro.analysis.independence import _mentions_ghost

        amap = self.access_map
        meta_table = self._meta() if self._meta is not None else None
        method = self.machine.pcs[pc].method
        reads: set[str] = set()
        ok = True
        steps = self.machine.steps_at(pc)
        if not steps:
            ok = False
        for step in steps:
            if not isinstance(step, (AssignStep, BranchStep, AssumeStep)):
                ok = False
                break
            meta = (
                meta_table.get(id(step))
                if meta_table is not None else None
            )
            if meta is not None:
                # The compiled stepper precomputed this step's shape.
                # (Atomic *writes* are rejected via buffered_writes_only;
                # atomic reads are plain reads for this rule.)
                if (not meta.ghost_free
                        or not meta.buffered_writes_only
                        or (meta.reads | meta.writes) & amap.mutex_words):
                    ok = False
                    break
                reads |= meta.reads
                continue
            if _mentions_ghost(self.machine.ctx, method,
                               step.reads_exprs()):
                ok = False
                break
            for access in amap.step_accesses(step):
                if access.location in amap.mutex_words:
                    ok = False
                    break
                if access.kind == "write":
                    if not access.buffered or access.atomic:
                        ok = False
                        break
                else:
                    reads.add(access.location)
            if not ok:
                break
        result = frozenset(reads) if ok else None
        self._pc_dyn[pc] = result
        return result

    # -- per-state future-write closure --------------------------------

    def _other_writes(
        self, state: ProgramState, tid: int
    ) -> "frozenset[str] | None":
        """Every abstract location some *other* live thread may still
        write — statically reachable writes plus the concrete pending
        store-buffer entries.  None when imprecise (a pending store to
        a non-global cell, or a poisoned future set): the caller must
        not prune."""
        from repro.analysis.futures import POISON

        futures = self.futures
        acc: set[str] = set()
        for other_tid, other in state.threads.items():
            if other_tid == tid:
                continue
            if other.pc is None and not other.store_buffer:
                continue
            acc |= futures.thread_writes(other)
            for location, _value in other.store_buffer:
                root = location.root
                if root.kind != "global":
                    return None
                acc.add(root.name)
        if POISON in acc:
            return None
        return frozenset(acc)

    # -- selection ------------------------------------------------------

    def ample(
        self,
        state: ProgramState,
        transitions: list[Transition],
        seen: Container[ProgramState],
        successors: list[ProgramState],
    ) -> tuple[list[Transition], list[ProgramState]] | None:
        if state.atomic_owner is not None or len(transitions) < 2:
            self.stats.full_states += 1
            return None
        by_tid: dict[int, list[int]] = {}
        for i, tr in enumerate(transitions):
            by_tid.setdefault(tr.tid, []).append(i)
        if len(by_tid) < 2:
            self.stats.full_states += 1
            return None

        for tid in sorted(by_tid):
            indices = by_tid[tid]
            thread = state.threads[tid]
            dynamic = False
            if (self._buffer_private(thread.store_buffer)
                    and self._pc_all_local(thread.pc)):
                pass  # static rule: candidate includes pending drains
            else:
                needed = self._dyn_reads(thread.pc)
                if needed is None:
                    continue
                other = self._other_writes(state, tid)
                if other is None or (needed & other):
                    continue
                # Drains of non-private entries are visible; keep them
                # out of the persistent set (they commute with it and
                # stay enabled, so they are explored at the successors).
                indices = [
                    i for i in indices if not transitions[i].is_drain
                ]
                if not indices:
                    continue
                dynamic = True
            candidate = [transitions[i] for i in indices]
            check = (self._check_successors_dyn if dynamic
                     else self._check_successors)
            checked = check(
                state, candidate, seen, [successors[i] for i in indices]
            )
            if checked is None:
                continue
            pruned = len(transitions) - len(candidate)
            self.stats.ample_states += 1
            self.stats.transitions_pruned += pruned
            if dynamic:
                self.stats.dynamic_states += 1
            if OBS.enabled:
                OBS.count("por.ample_states")
                OBS.count("por.transitions_pruned", pruned)
                if dynamic:
                    OBS.count("dpor.dynamic_states")
            return candidate, checked

        self.stats.full_states += 1
        return None

    # -- relaxed dynamic guard -----------------------------------------

    def _check_successors_dyn(
        self,
        state: ProgramState,
        candidate: list[Transition],
        seen: Container[ProgramState],
        computed: list[ProgramState],
    ) -> list[ProgramState] | None:
        """The parent's invisibility guard (C2, C3), with the buffer
        restriction relaxed: the step may *append* stores for any
        location — under TSO an append is invisible until drained."""
        tid = candidate[0].tid
        old_thread = state.threads[tid]
        old_sb = old_thread.store_buffer
        successors: list[ProgramState] = []
        for nxt in computed:
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
                return None
            new_sb = moved.store_buffer
            if new_sb != old_sb and new_sb[: len(old_sb)] != old_sb:
                return None
            for other_tid, other in state.threads.items():
                if other_tid == tid:
                    continue
                nxt_other = nxt.threads.get(other_tid)
                if nxt_other is not other and nxt_other != other:
                    return None
            if nxt in seen:
                return None
            successors.append(nxt)
        return successors


# ---------------------------------------------------------------------------
# Sleep sets


class SleepSets:
    """Footprint-based sleep-set bookkeeping for the explorer loop.

    The explorer owns the per-state sleep dictionary and the frontier;
    this class answers the two per-expansion questions — *which enabled
    transitions are asleep here* and *what does a successor's sleep set
    look like* — against lazily cached per-step eligibility and
    per-state concrete footprints.
    """

    def __init__(self, machine: StateMachine, stepper=None) -> None:
        self.machine = machine
        memmodel = getattr(machine, "memmodel", None)
        #: Under TSO a buffered write conflicts with nothing (its drain
        #: does); under any other model "buffered" footprints are
        #: really direct writes.
        self._buffer_invisible = (
            memmodel is not None and memmodel.name == "tso"
        )
        #: Optional compiled stepper whose per-step footprint metadata
        #: answers the ghost-free part of eligibility without walking
        #: step expressions.
        self._stepper = stepper
        self._step_ok: dict[int, bool] = {}

    # -- eligibility ----------------------------------------------------

    def _step_eligible(self, step) -> bool:
        cached = self._step_ok.get(id(step))
        if cached is not None:
            return cached
        ok = isinstance(step, (AssignStep, BranchStep, AssumeStep))
        if ok:
            # Entering an atomic region changes the scheduler state —
            # visible to everyone.
            target = step.target
            if target is not None and not self.machine.pcs[target].yieldable:
                ok = False
        if ok:
            meta = (
                self._stepper.step_footprints().get(id(step))
                if self._stepper is not None else None
            )
            if meta is not None:
                ok = meta.ghost_free
            else:
                from repro.analysis.independence import _mentions_ghost

                method = self.machine.pcs[step.pc].method
                ok = not _mentions_ghost(self.machine.ctx, method,
                                         step.reads_exprs())
        self._step_ok[id(step)] = ok
        return ok

    def eligible(self, tr: Transition) -> bool:
        if tr.is_drain:
            # A plain TSO drain; parameterized env moves (RA) never get
            # here (reductions are disabled for models without POR
            # support).
            return not tr.params
        return self._step_eligible(tr.step)

    # -- footprints -----------------------------------------------------

    def _footprint(
        self, state: ProgramState, tr: Transition, cache: dict
    ) -> "list[tuple[Any, bool]] | None":
        """(cell, is_direct_write) pairs for *tr* at *state*; reads are
        ``(cell, False)`` entries too — conflicts pair a direct write
        with any touch.  None = unknown, dependent with everything."""
        key = transition_key(tr)
        if key in cache:
            return cache[key]
        result: "list[tuple[Any, bool]] | None"
        if tr.is_drain:
            thread = state.threads.get(tr.tid)
            if thread is None or not thread.store_buffer:
                result = None
            else:
                result = [(thread.store_buffer[0][0], True)]
        elif not self.eligible(tr):
            result = None
        else:
            from repro.analysis.accesses import concrete_footprint

            accesses = concrete_footprint(
                self.machine, state, tr.tid, tr.step, tr.params_dict()
            )
            result = []
            for access in accesses:
                if access.kind == "write":
                    buffered = access.buffered and self._buffer_invisible
                    if not buffered:
                        result.append((access.location, True))
                    # A buffered TSO write touches no shared cell.
                else:
                    result.append((access.location, False))
        cache[key] = result
        return result

    def independent(
        self,
        state: ProgramState,
        a: Transition,
        b: Transition,
        cache: dict,
    ) -> bool:
        if a.tid == b.tid:
            return False
        fa = self._footprint(state, a, cache)
        if fa is None:
            return False
        fb = self._footprint(state, b, cache)
        if fb is None:
            return False
        if not fa or not fb:
            return True
        cells_b: dict[Any, bool] = {}
        for cell, direct in fb:
            cells_b[cell] = cells_b.get(cell, False) or direct
        for cell, direct in fa:
            other = cells_b.get(cell)
            if other is None:
                continue
            if direct or other:
                return False
        return True

    # -- the two explorer-facing operations ----------------------------

    def split(
        self,
        transitions: list[Transition],
        sleep_keys: "frozenset[tuple]",
    ) -> tuple[list[int], list[Transition]]:
        """Indices of transitions to explore, and the enabled
        transitions that stay asleep here."""
        if not sleep_keys:
            return list(range(len(transitions))), []
        active: list[int] = []
        asleep: list[Transition] = []
        for i, tr in enumerate(transitions):
            if transition_key(tr) in sleep_keys:
                asleep.append(tr)
            else:
                active.append(i)
        return active, asleep

    def successor_sleep(
        self,
        state: ProgramState,
        taken: Transition,
        carried: list[Transition],
        cache: dict,
    ) -> "frozenset[tuple]":
        """The sleep set of the successor reached via *taken*: every
        carried transition (inherited sleep + earlier-explored
        siblings) that is independent of *taken* at *state*."""
        if not carried or not self.eligible(taken):
            return frozenset()
        keep = [
            transition_key(tr) for tr in carried
            if self.independent(state, tr, taken, cache)
        ]
        return frozenset(keep)
