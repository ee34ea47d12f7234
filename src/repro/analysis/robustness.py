"""Classification of shared locations and TSO store-buffer sensitivity.

The classifier combines three sources of evidence:

* the static footprints of :mod:`repro.analysis.accesses`,
* the Eraser-style locksets of :mod:`repro.analysis.lockset`,
* a bounded **dynamic race scan** that walks the explicit state space
  and looks for two threads whose conflicting accesses to the same
  memory cell are *simultaneously enabled* — the adversarial
  cross-check that separates real races from lockset false positives.

Each non-ghost global lands in one class:

``UNUSED``        no reachable access.
``READ_ONLY``     never written.
``ATOMIC``        a mutex word, or only accessed by LOCK-prefixed /
                  fencing externs (drained store buffer).
``THREAD_LOCAL``  only one thread context can ever touch it.
``LOCK_PROTECTED``a common mutex is held at every access.
``ORDERED``       statically racy, but the complete bounded scan found
                  no simultaneously enabled conflict: accesses are
                  ordered by program logic the lockset pass cannot see
                  (join ordering, ring-buffer indices, hand-built
                  locks).  A "benign race" downgrade, valid only for
                  the explored bounds.
``RACY``          a conflicting access pair was (or could not be ruled
                  out to be) concurrently enabled; carries a witness
                  when confirmed.

The TSO robustness pass then flags, among racy locations, the stores
whose *delayed buffering* is observable: a buffered store to a racy
location followed on a fence-free control path by a read of a
different racy location is the store-load reordering x86-TSO permits
and SC forbids (the SB litmus shape).
"""

from __future__ import annotations

from enum import Enum

from repro.lang.resolver import LevelContext
from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState
from repro.machine.steps import CallStep, ExternStep, Step

from repro.analysis.accesses import (
    Access,
    AccessMap,
    DRAINING_EXTERNS,
    concrete_footprint,
)
from repro.analysis.lockset import LocksetResult
from repro.record import Fresh, FrozenRecord, Record


class Classification(Enum):
    UNUSED = "UNUSED"
    READ_ONLY = "READ_ONLY"
    ATOMIC = "ATOMIC"
    THREAD_LOCAL = "THREAD_LOCAL"
    LOCK_PROTECTED = "LOCK_PROTECTED"
    ORDERED = "ORDERED"
    RACY = "RACY"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class RaceWitness(FrozenRecord):
    """Two simultaneously enabled conflicting accesses to one cell."""

    location: str  # abstract name
    cell: str  # concrete leaf cell, e.g. "&locked.2"
    first_tid: int
    first_pc: str
    first_kind: str
    second_tid: int
    second_pc: str
    second_kind: str

    def describe(self) -> str:
        return (
            f"{self.cell}: t{self.first_tid} {self.first_kind} at "
            f"{self.first_pc} || t{self.second_tid} {self.second_kind} "
            f"at {self.second_pc}"
        )


class TsoWitness(FrozenRecord):
    """A buffered racy store followed fence-free by a racy load."""

    store: Access
    load: Access

    def describe(self) -> str:
        return (
            f"buffered store to {self.store.location} at "
            f"{self.store.pc}, then load of {self.load.location} at "
            f"{self.load.pc} with no intervening fence"
        )


class DynamicScan(Record):
    """Result of the bounded simultaneous-enabledness race scan."""

    ran: bool = False
    complete: bool = False
    states_visited: int = 0
    witnesses: dict[str, RaceWitness] = Fresh(dict)
    #: abstract name -> tids observed accessing it (enabled steps).
    accessor_tids: dict[str, set[int]] = Fresh(dict)

    def refutes(self, location: str) -> bool:
        """A complete scan with no witness refutes a static race."""
        return self.ran and self.complete and location not in self.witnesses

    def corroborates_thread_local(self, location: str) -> bool:
        return (
            self.ran and self.complete
            and len(self.accessor_tids.get(location, ())) <= 1
        )


class LocationVerdict(Record):
    """Final verdict for one shared location."""

    name: str
    classification: Classification
    locks: tuple[str, ...] = ()
    contexts: tuple[str, ...] = ()
    access_count: int = 0
    static_racy: bool = False
    #: "confirmed" | "refuted" | "incomplete" | "unchecked"
    dynamic: str = "unchecked"
    witness: RaceWitness | None = None
    tso: TsoWitness | None = None

    @property
    def tso_sensitive(self) -> bool:
        return self.tso is not None

    def describe(self) -> str:
        label = self.classification.value
        if self.classification is Classification.LOCK_PROTECTED:
            label += "(" + ", ".join(self.locks) + ")"
        return label


# ---------------------------------------------------------------------------
# Dynamic race scan


def _local_method_index(ctx: LevelContext) -> dict[str, list[str]]:
    index: dict[str, list[str]] = {}
    for method, mctx in ctx.method_contexts.items():
        for name, info in mctx.locals.items():
            if info.address_taken:
                index.setdefault(name, []).append(method)
    return index


def run_dynamic_scan(
    ctx: LevelContext,
    machine: StateMachine,
    access_map: AccessMap,
    max_states: int = 200_000,
    compiled: bool = True,
) -> DynamicScan:
    """Walk the bounded state space hunting for simultaneously enabled
    conflicting accesses.  Store-buffer drain transitions count as
    writes of their head cell: a read racing with an in-flight store is
    a race even after the storing step has retired."""
    from repro.explore.explorer import Explorer

    scan = DynamicScan(ran=True)
    local_methods = _local_method_index(ctx)

    def resolve(cell) -> str:
        root = cell.root
        if root.kind == "global":
            return root.name
        if root.kind == "local":
            methods = local_methods.get(root.name, [])
            if len(methods) == 1:
                return f"local:{methods[0]}:{root.name}"
            return f"local:{root.name}"
        return f"alloc#{root.serial}"

    def visit(state: ProgramState, transitions: list[Transition]) -> bool:
        scan.states_visited += 1
        if not state.running:
            return True
        footprints: list[tuple[int, list]] = []
        for tr in transitions:
            if tr.is_drain:
                thread = state.threads[tr.tid]
                if thread.store_buffer:
                    cell = thread.store_buffer[0][0]
                    footprints.append(
                        (tr.tid,
                         [(cell, "write", False, "<drain>", "Drain")])
                    )
                continue
            if not access_map.touches_memory(tr.step):
                continue
            fp = concrete_footprint(
                machine, state, tr.tid, tr.step, tr.params_dict()
            )
            if fp:
                footprints.append((
                    tr.tid,
                    [(a.location, a.kind, a.atomic, a.pc, a.step_desc)
                     for a in fp],
                ))
        for tid, accesses in footprints:
            for cell, _kind, _atomic, _pc, _desc in accesses:
                scan.accessor_tids.setdefault(
                    resolve(cell), set()
                ).add(tid)
        for i, (tid1, acc1) in enumerate(footprints):
            index = {}
            for cell, kind, atomic, pc, desc in acc1:
                index.setdefault(cell, []).append((kind, atomic, pc, desc))
            for tid2, acc2 in footprints[i + 1:]:
                if tid2 == tid1:
                    continue
                for cell, kind2, atomic2, pc2, _desc2 in acc2:
                    for kind1, atomic1, pc1, _desc1 in index.get(cell, ()):
                        if kind1 == "read" and kind2 == "read":
                            continue
                        if atomic1 and atomic2:
                            continue
                        name = resolve(cell)
                        if name not in scan.witnesses:
                            scan.witnesses[name] = RaceWitness(
                                location=name,
                                cell=str(cell),
                                first_tid=tid1,
                                first_pc=pc1,
                                first_kind=kind1,
                                second_tid=tid2,
                                second_pc=pc2,
                                second_kind=kind2,
                            )
        return True

    scan.complete = Explorer(
        machine, max_states, compiled=compiled
    ).walk(visit)
    return scan


# ---------------------------------------------------------------------------
# TSO store-buffer sensitivity


def _successor_index(machine: StateMachine) -> dict[str, list[str]]:
    succ: dict[str, list[str]] = {}
    for step in machine.all_steps():
        targets = []
        if isinstance(step, ExternStep) and step.name in DRAINING_EXTERNS:
            continue  # the buffer is drained: reordering window closes
        if isinstance(step, CallStep):
            entry = machine.method_entry.get(step.method)
            if entry is not None:
                targets.append(entry)
        if step.target is not None:
            targets.append(step.target)
        if targets:
            succ.setdefault(step.pc, []).extend(targets)
    return succ


def find_tso_witnesses(
    machine: StateMachine,
    access_map: AccessMap,
    racy: set[str],
) -> dict[str, TsoWitness]:
    """For each racy location with a buffered store, search the CFG
    forward from the store for a read of a *different* racy location
    with no buffer-draining extern in between — the observable
    store-load reordering of x86-TSO."""
    succ = _successor_index(machine)
    reads_at: dict[str, list[Access]] = {}
    for access in access_map.all:
        # Atomic reads drain the buffer first and cannot be reordered
        # before the store; only plain loads witness the relaxation.
        if (access.kind == "read" and not access.atomic
                and access.location in racy):
            reads_at.setdefault(access.pc, []).append(access)
    witnesses: dict[str, TsoWitness] = {}
    for access in access_map.all:
        if (
            access.kind != "write"
            or not access.buffered
            or access.location not in racy
            or access.location in witnesses
        ):
            continue
        store_step_targets = [
            step.target
            for step in machine.steps_at(access.pc)
            if step.target is not None
        ]
        frontier = list(store_step_targets)
        seen: set[str] = set()
        while frontier:
            pc = frontier.pop()
            if pc in seen:
                continue
            seen.add(pc)
            for load in reads_at.get(pc, ()):
                if load.location != access.location:
                    witnesses[access.location] = TsoWitness(
                        store=access, load=load
                    )
                    frontier = []
                    break
            else:
                frontier.extend(succ.get(pc, ()))
    return witnesses


# ---------------------------------------------------------------------------
# Classification


def classify(
    ctx: LevelContext,
    machine: StateMachine,
    access_map: AccessMap,
    locksets: LocksetResult,
    dynamic: DynamicScan | None = None,
    memory_model: str = "tso",
) -> dict[str, LocationVerdict]:
    """Combine all passes into one verdict per non-ghost global.

    The race classification itself is memory-model-generic (the dynamic
    scan already walked the state space *of the selected model*), but
    the weak-memory sensitivity flags are per-model: under ``sc``
    stores commit in place, the SB reordering cannot occur, and no
    location is flagged; ``tso`` and ``ra`` both delay plain stores
    past later loads of other locations, so the same store-load witness
    search applies to either.
    """
    verdicts: dict[str, LocationVerdict] = {}
    for name, decl in ctx.globals.items():
        if decl.ghost:
            continue
        verdicts[name] = _classify_one(name, access_map, locksets, dynamic)
    if memory_model == "sc":
        return verdicts
    # Only locations that remain RACY can have buffered stores whose
    # delay is observable: an ORDERED location is never concurrently
    # observed, so nothing can see its stores arrive late.
    racy = {
        name for name, v in verdicts.items()
        if v.classification is Classification.RACY
    }
    for name, witness in find_tso_witnesses(
        machine, access_map, racy
    ).items():
        if name in verdicts:
            verdicts[name].tso = witness
    return verdicts


def _classify_one(
    name: str,
    access_map: AccessMap,
    locksets: LocksetResult,
    dynamic: DynamicScan | None,
) -> LocationVerdict:
    accesses = [
        a for a in access_map.by_location.get(name, [])
        if locksets.held_at.get(a.pc) is not None  # reachable only
    ]
    contexts = tuple(sorted(locksets.location_contexts.get(name, ())))
    verdict = LocationVerdict(
        name=name,
        classification=Classification.UNUSED,
        contexts=contexts,
        access_count=len(accesses),
    )
    if not accesses:
        return verdict
    if name in access_map.mutex_words or all(a.atomic for a in accesses):
        verdict.classification = Classification.ATOMIC
        return verdict
    if not any(a.kind == "write" for a in accesses):
        verdict.classification = Classification.READ_ONLY
        return verdict
    if not locksets.is_multithreaded(name):
        verdict.classification = Classification.THREAD_LOCAL
        if dynamic is not None and dynamic.ran:
            verdict.dynamic = (
                "confirmed"
                if dynamic.corroborates_thread_local(name)
                else "incomplete"
            )
        return verdict
    locks = locksets.location_locks.get(name) or frozenset()
    if locks:
        verdict.classification = Classification.LOCK_PROTECTED
        verdict.locks = tuple(sorted(locks))
        return verdict
    # Statically racy: multi-threaded, no common lock.
    verdict.static_racy = True
    verdict.classification = Classification.RACY
    if dynamic is None or not dynamic.ran:
        verdict.dynamic = "unchecked"
        return verdict
    witness = dynamic.witnesses.get(name)
    if witness is not None:
        verdict.classification = Classification.RACY
        verdict.dynamic = "confirmed"
        verdict.witness = witness
    elif dynamic.complete:
        verdict.classification = Classification.ORDERED
        verdict.dynamic = "refuted"
    else:
        verdict.dynamic = "incomplete"
    return verdict
