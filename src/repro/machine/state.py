"""Program states for the small-step semantics (§3.2).

A state contains the set of threads, the (shared, forest-structured)
heap/global memory, ghost state, the externally-visible console log,
and whether and how the program terminated.  Thread state includes the
program counter, the stack, and the x86-TSO store buffer (§3.2.1).

States are immutable and hashable so the explorer can deduplicate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.machine.pmap import EMPTY_PMAP, PMap
from repro.machine.values import Location, Root


# ---------------------------------------------------------------------------
# Termination (§3.2.3): normal exit, assert failure, or undefined behaviour.

TERM_NORMAL = "normal"
TERM_ASSERT = "assert_failure"
TERM_UB = "undefined_behavior"


@dataclass(frozen=True, slots=True)
class Termination:
    kind: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.kind}({self.detail})" if self.detail else self.kind


class UBSignal(Exception):
    """Internal signal: evaluating an expression invoked undefined
    behaviour (freed-pointer access, division by zero, signed overflow,
    out-of-bounds index, ...).  Converted into a UB-terminated state."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


# ---------------------------------------------------------------------------
# Threads


@dataclass(frozen=True, slots=True)
class Frame:
    """One stack frame: the method, a serial (for address-taken local
    roots), the local variable store, and where to resume on return."""

    method: str
    serial: int
    locals: PMap
    return_pc: str | None = None
    return_lhs_key: Any = None  # local name to receive the return value
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass(frozen=True, slots=True)
class ThreadState:
    """A thread: program counter, stack (top frame first), and its FIFO
    store buffer of pending (location, value) writes.

    ``view`` is the per-thread state of the release/acquire memory
    model (Location -> observed timestamp); it is ``None`` under
    SC/TSO, keeping those models' state equality untouched.
    """

    tid: int
    pc: str | None  # None once the thread has terminated (returned)
    frames: tuple[Frame, ...] = ()
    store_buffer: tuple[tuple[Location, Any], ...] = ()
    view: PMap | None = None
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def terminated(self) -> bool:
        return self.pc is None

    @property
    def top(self) -> Frame:
        return self.frames[0]

    def with_pc(self, pc: str | None) -> "ThreadState":
        return replace(self, pc=pc)

    def with_top_frame(self, frame: Frame) -> "ThreadState":
        return replace(self, frames=(frame,) + self.frames[1:])

    def set_local(self, name: str, value: Any) -> "ThreadState":
        top = self.frames[0]
        return self.with_top_frame(
            replace(top, locals=top.locals.set(name, value))
        )

    def push_buffer(self, location: Location, value: Any) -> "ThreadState":
        return replace(
            self, store_buffer=self.store_buffer + ((location, value),)
        )

    def pop_buffer(self) -> tuple["ThreadState", Location, Any]:
        (location, value), rest = self.store_buffer[0], self.store_buffer[1:]
        return replace(self, store_buffer=rest), location, value

    @property
    def sb_empty(self) -> bool:
        return not self.store_buffer


# ---------------------------------------------------------------------------
# Whole-program state


# Not ``frozen=True`` like the node classes above: successor states are
# the explorer's hottest allocation, and the frozen-dataclass ``__init__``
# (one ``object.__setattr__`` call per field) costs ~5x a plain slotted
# store.  States are still immutable by convention — nothing in the
# codebase mutates one after construction, and the memoized ``_hash``
# relies on that.
@dataclass(slots=True)
class ProgramState:
    """The complete state of an Armada program (one level)."""

    threads: PMap  # tid -> ThreadState
    memory: PMap  # Location -> value (global shared memory)
    allocation: PMap  # Root -> "valid" | "freed"
    ghosts: PMap  # name -> ghost value (sequentially consistent, §3.1.2)
    log: tuple = ()  # externally visible output (print_* externs)
    termination: Termination | None = None
    next_tid: int = 1
    next_serial: int = 1
    #: The thread currently inside an uninterruptible (atomic /
    #: explicit_yield) region, if any.  Other threads may not step.
    atomic_owner: int | None = None
    #: Release/acquire write histories (Location -> tuple of
    #: (value, message-view) records); ``None`` under SC/TSO.
    histories: PMap | None = None
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- convenience ----------------------------------------------------

    @property
    def running(self) -> bool:
        return self.termination is None

    def thread(self, tid: int) -> ThreadState:
        return self.threads[tid]

    def with_thread(self, thread: ThreadState) -> "ProgramState":
        return replace(self, threads=self.threads.set(thread.tid, thread))

    def with_memory(self, location: Location, value: Any) -> "ProgramState":
        return replace(self, memory=self.memory.set(location, value))

    def with_ghost(self, name: str, value: Any) -> "ProgramState":
        return replace(self, ghosts=self.ghosts.set(name, value))

    def terminate(self, kind: str, detail: str = "") -> "ProgramState":
        return replace(self, termination=Termination(kind, detail))

    def append_log(self, entry: Any) -> "ProgramState":
        return replace(self, log=self.log + (entry,))

    # -- memory-model reads ----------------------------------------------

    def local_view(self, tid: int, location: Location) -> Any:
        """A thread's local view of a memory cell.

        Under SC/TSO (``thread.view is None``): the youngest pending
        store-buffer entry for that location, else global memory.
        Under RA: the history record at the thread's current view
        timestamp (locations never release-written fall back to plain
        memory).
        """
        thread = self.threads[tid]
        if thread.view is not None:
            hist = (
                self.histories.get(location)
                if self.histories is not None else None
            )
            if hist is not None:
                return hist[thread.view.get(location, 0)][0]
            if location not in self.memory:
                raise UBSignal(f"access to unmapped location {location}")
            return self.memory[location]
        for loc, value in reversed(thread.store_buffer):
            if loc == location:
                return value
        if location not in self.memory:
            raise UBSignal(f"access to unmapped location {location}")
        return self.memory[location]

    def drain_one(self, tid: int) -> "ProgramState":
        """Asynchronously drain the oldest store-buffer entry of *tid*
        into global memory (the hardware's FIFO write-back)."""
        thread, location, value = self.threads[tid].pop_buffer()
        return replace(
            self,
            threads=self.threads.set(tid, thread),
            memory=self.memory.set(location, value),
        )

    def root_status(self, root: Root) -> str | None:
        return self.allocation.get(root)

    # -- factory ----------------------------------------------------------

    @staticmethod
    def initial(
        main_thread: ThreadState,
        memory: dict,
        allocation: dict,
        ghosts: dict,
    ) -> "ProgramState":
        return ProgramState(
            threads=PMap({main_thread.tid: main_thread}),
            memory=PMap(memory),
            allocation=PMap(allocation),
            ghosts=PMap(ghosts),
        )


# ---------------------------------------------------------------------------
# Cached hashing.  The explorer hashes every state it admits to the seen
# set; hashing whole states is the explorer's hottest operation.  Each
# node caches its hash in a ``_hash`` slot (init=False, so
# ``dataclasses.replace`` resets it on derived objects), and the PMap
# components hash incrementally, so a successor state re-hashes only the
# thread/cell that actually changed.  The ``__hash__`` assignments must
# come *after* the class definitions: ``@dataclass(frozen=True)``
# installs its own generated ``__hash__`` on the class.


def _frame_hash(self: Frame) -> int:
    h = self._hash
    if h is None:
        h = hash((
            self.method, self.serial, self.locals,
            self.return_pc, self.return_lhs_key,
        ))
        object.__setattr__(self, "_hash", h)
    return h


def _thread_hash(self: ThreadState) -> int:
    h = self._hash
    if h is None:
        h = hash((
            self.tid, self.pc, self.frames, self.store_buffer, self.view,
        ))
        object.__setattr__(self, "_hash", h)
    return h


def _program_hash(self: ProgramState) -> int:
    h = self._hash
    if h is None:
        h = hash((
            self.threads, self.memory, self.allocation, self.ghosts,
            self.log, self.termination, self.next_tid,
            self.next_serial, self.atomic_owner, self.histories,
        ))
        object.__setattr__(self, "_hash", h)
    return h


Frame.__hash__ = _frame_hash  # type: ignore[method-assign]
ThreadState.__hash__ = _thread_hash  # type: ignore[method-assign]
ProgramState.__hash__ = _program_hash  # type: ignore[method-assign]


EMPTY_STATE = ProgramState(
    threads=EMPTY_PMAP,
    memory=EMPTY_PMAP,
    allocation=EMPTY_PMAP,
    ghosts=EMPTY_PMAP,
)
