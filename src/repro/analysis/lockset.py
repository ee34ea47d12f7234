"""Eraser-style lockset analysis over the translated state machine.

Two cooperating dataflow facts are computed over the machine's CFG:

* **Held locks**: for every PC, the set of mutex globals *definitely*
  held when control reaches it (meet = intersection, the classic
  Eraser under-approximation).  ``lock(&m)`` / ``unlock(&m)`` externs
  are the acquire/release points; calls propagate the caller's held
  set into the callee and the callee's exit set back to every return
  site (context-insensitive merge).

* **Thread contexts**: which spawn contexts (``main`` or
  ``thread:<method>`` per ``create_thread`` target) can execute each
  method, with a multiplicity for spawn sites that can fire more than
  once (several sites, or one site inside a loop).

From these, each shared location gets a *candidate lockset* (the
intersection of held sets over all its accesses) and a verdict on
whether it is even potentially multi-threaded.
"""

from __future__ import annotations


from repro.machine.program import StateMachine
from repro.machine.steps import (
    CallStep,
    CreateThreadStep,
    ExternStep,
    ReturnStep,
    Step,
)

from repro.analysis.accesses import AccessMap
from repro.record import Fresh, Record

MAIN_CONTEXT = "main"


def _lock_targets(access_map: AccessMap, step: ExternStep) -> list[str]:
    """Static global names a lock/unlock extern may operate on."""
    return sorted({
        a.location for a in access_map.step_accesses(step)
        if a.atomic and ":" not in a.location
    })


class LocksetResult(Record):
    """Output of the lockset pass, consumed by the classifier."""

    #: PC -> locks definitely held (None = statically unreachable).
    held_at: dict[str, frozenset[str] | None] = Fresh(dict)
    #: Spawn context tag -> how many such threads may exist (2 = "many").
    multiplicity: dict[str, int] = Fresh(dict)
    #: Method -> context tags that may execute it.
    contexts_of_method: dict[str, set[str]] = Fresh(dict)
    #: Location -> context tags of its accessors.
    location_contexts: dict[str, set[str]] = Fresh(dict)
    #: Location -> candidate lockset (∩ held over reachable accesses);
    #: None when the location has no reachable accesses.
    location_locks: dict[str, frozenset[str] | None] = Fresh(dict)

    def held(self, pc: str) -> frozenset[str]:
        locks = self.held_at.get(pc)
        return locks if locks is not None else frozenset()

    def is_multithreaded(self, location: str) -> bool:
        """Whether two threads can ever both access *location*."""
        tags = self.location_contexts.get(location, set())
        if len(tags) > 1:
            return True
        return any(self.multiplicity.get(tag, 1) > 1 for tag in tags)


class _LocksetPass:
    def __init__(self, machine: StateMachine,
                 access_map: AccessMap) -> None:
        self.machine = machine
        self.access_map = access_map
        self.result = LocksetResult()
        #: callee -> return-site PCs of its call steps.
        self.return_sites: dict[str, list[str]] = {}
        #: callee -> exit lockset (meet over its ReturnStep PCs).
        self.exit_of: dict[str, frozenset[str] | None] = {}

    # -- held-locks dataflow -------------------------------------------

    def _meet_into(self, pc: str, locks: frozenset[str],
                   worklist: list[str]) -> None:
        held = self.result.held_at
        current = held.get(pc)
        updated = locks if current is None else (current & locks)
        if current is None or updated != current:
            held[pc] = updated
            worklist.append(pc)

    def _transfer(self, step: Step, held: frozenset[str]
                  ) -> frozenset[str]:
        if isinstance(step, ExternStep):
            targets = _lock_targets(self.access_map, step)
            if step.name == "lock" and len(targets) == 1:
                return held | set(targets)
            if step.name == "unlock":
                return held - set(targets) if targets else frozenset()
        return held

    def _flow(self) -> None:
        machine = self.machine
        held = self.result.held_at
        for pc in machine.pcs:
            held[pc] = None
        entries = [machine.method_entry[machine.main_method]]
        for step in machine.all_steps():
            if isinstance(step, CreateThreadStep):
                entry = machine.method_entry.get(step.method)
                if entry is not None:
                    entries.append(entry)
            elif isinstance(step, CallStep):
                if step.target is not None:
                    self.return_sites.setdefault(step.method, []).append(
                        step.target
                    )
        worklist: list[str] = []
        for entry in entries:
            self._meet_into(entry, frozenset(), worklist)
        while worklist:
            pc = worklist.pop()
            current = held.get(pc)
            if current is None:
                continue
            for step in self.machine.steps_at(pc):
                self._step_flow(step, current, worklist)

    def _step_flow(self, step: Step, held: frozenset[str],
                   worklist: list[str]) -> None:
        machine = self.machine
        if isinstance(step, CallStep):
            entry = machine.method_entry.get(step.method)
            if entry is not None:
                self._meet_into(entry, held, worklist)
            exit_locks = self.exit_of.get(step.method)
            if exit_locks is not None and step.target is not None:
                self._meet_into(step.target, exit_locks, worklist)
            return
        if isinstance(step, ReturnStep):
            method = machine.pcs[step.pc].method
            current = self.exit_of.get(method)
            updated = held if current is None else (current & held)
            if current is None or updated != current:
                self.exit_of[method] = updated
                for site in self.return_sites.get(method, []):
                    self._meet_into(site, updated, worklist)
            return
        if step.target is not None:
            self._meet_into(step.target, self._transfer(step, held),
                            worklist)

    # -- thread contexts -----------------------------------------------

    def _call_graph(self) -> dict[str, set[str]]:
        calls: dict[str, set[str]] = {}
        for step in self.machine.all_steps():
            if isinstance(step, CallStep):
                caller = self.machine.pcs[step.pc].method
                calls.setdefault(caller, set()).add(step.method)
        return calls

    def _spawn_multiplicity(self) -> dict[str, int]:
        """Spawn target -> 1 (one thread) or 2 (two or more threads).

        A spawn step that can re-execute (it is on a CFG cycle) or a
        target spawned from several sites counts as "many".
        """
        spawn_steps: dict[str, list[Step]] = {}
        for step in self.machine.all_steps():
            if isinstance(step, CreateThreadStep):
                spawn_steps.setdefault(step.method, []).append(step)
        succ: dict[str, set[str]] = {}
        for step in self.machine.all_steps():
            if step.target is not None:
                succ.setdefault(step.pc, set()).add(step.target)
        result: dict[str, int] = {}
        for target, steps in spawn_steps.items():
            many = len(steps) > 1
            for step in steps:
                if self._on_cycle(step.pc, succ):
                    many = True
            result[target] = 2 if many else 1
        return result

    @staticmethod
    def _on_cycle(pc: str, succ: dict[str, set[str]]) -> bool:
        frontier = list(succ.get(pc, ()))
        seen = set()
        while frontier:
            node = frontier.pop()
            if node == pc:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(succ.get(node, ()))
        return False

    def _contexts(self) -> None:
        calls = self._call_graph()

        def closure(method: str) -> set[str]:
            reached = set()
            frontier = [method]
            while frontier:
                m = frontier.pop()
                if m in reached:
                    continue
                reached.add(m)
                frontier.extend(calls.get(m, ()))
            return reached

        contexts: dict[str, set[str]] = {}
        for m in closure(self.machine.main_method):
            contexts.setdefault(m, set()).add(MAIN_CONTEXT)
        self.result.multiplicity[MAIN_CONTEXT] = 1
        for target, count in self._spawn_multiplicity().items():
            tag = f"thread:{target}"
            self.result.multiplicity[tag] = count
            for m in closure(target):
                contexts.setdefault(m, set()).add(tag)
        self.result.contexts_of_method = contexts

    # -- per-location summaries ----------------------------------------

    def _summarize_locations(self) -> None:
        result = self.result
        for access in self.access_map.all:
            held = result.held_at.get(access.pc)
            if held is None:
                continue  # statically unreachable access
            loc = access.location
            tags = result.contexts_of_method.get(access.method, set())
            result.location_contexts.setdefault(loc, set()).update(tags)
            current = result.location_locks.get(loc)
            result.location_locks[loc] = (
                held if current is None else (current & held)
            )

    def run(self) -> LocksetResult:
        self._flow()
        self._contexts()
        self._summarize_locations()
        return self.result


def compute_locksets(machine: StateMachine,
                     access_map: AccessMap) -> LocksetResult:
    """Run the lockset + thread-context pass over a machine."""
    return _LocksetPass(machine, access_map).run()
