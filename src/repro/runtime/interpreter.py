"""Concrete execution of Armada state machines.

Runs a translated level under a pluggable scheduler, resolving all
nondeterminism (thread choice, store-buffer drains, ``*`` values) at
each step.  This is the reference executor: slow but exactly the
semantics the proofs are about, which makes it the differential-testing
oracle for the compiled back ends.
"""

from __future__ import annotations

import random

from repro.errors import ExecutionError
from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState
from repro.record import Record


class Scheduler:
    """Chooses the next transition among the enabled ones."""

    def choose(
        self, state: ProgramState, transitions: list[Transition]
    ) -> Transition:
        raise NotImplementedError


class RoundRobinScheduler(Scheduler):
    """Rotates among threads, draining store buffers eagerly (a
    write-back-first policy: the resulting executions are sequentially
    consistent, the common case on real hardware)."""

    def __init__(self) -> None:
        self._last_tid = 0

    def choose(self, state, transitions):
        drains = [t for t in transitions if t.is_drain]
        if drains:
            return drains[0]
        tids = sorted({t.tid for t in transitions})
        for tid in tids:
            if tid > self._last_tid:
                self._last_tid = tid
                return next(t for t in transitions if t.tid == tid)
        self._last_tid = tids[0]
        return next(t for t in transitions if t.tid == tids[0])


class RandomScheduler(Scheduler):
    """Uniformly random choice (seeded, so runs are reproducible).
    Exercises weak-memory interleavings, including delayed drains."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(self, state, transitions):
        return self._rng.choice(transitions)


class RunResult(Record):
    state: ProgramState
    steps_taken: int

    @property
    def log(self) -> tuple:
        return self.state.log

    @property
    def termination_kind(self) -> str | None:
        t = self.state.termination
        return t.kind if t is not None else None

    @property
    def completed(self) -> bool:
        return self.state.termination is not None


class Interpreter:
    """Drives one program state to termination under a scheduler."""

    def __init__(
        self,
        machine: StateMachine,
        scheduler: Scheduler | None = None,
        max_steps: int = 1_000_000,
    ) -> None:
        self.machine = machine
        self.scheduler = scheduler or RoundRobinScheduler()
        self.max_steps = max_steps

    def run(self, start: ProgramState | None = None) -> RunResult:
        state = start if start is not None else self.machine.initial_state()
        steps = 0
        while state.running:
            transitions = self.machine.enabled_transitions(state)
            if not transitions:
                # Deadlock: every thread is blocked.
                return RunResult(state, steps)
            choice = self.scheduler.choose(state, transitions)
            state = self.machine.next_state(state, choice)
            steps += 1
            if steps >= self.max_steps:
                raise ExecutionError(
                    f"run exceeded {self.max_steps} steps (livelock?)"
                )
        return RunResult(state, steps)


def run_level(
    machine: StateMachine,
    seed: int | None = None,
    max_steps: int = 1_000_000,
) -> RunResult:
    """Convenience: run a machine once (round-robin, or random with the
    given seed)."""
    scheduler: Scheduler = (
        RandomScheduler(seed) if seed is not None else RoundRobinScheduler()
    )
    return Interpreter(machine, scheduler, max_steps).run()
