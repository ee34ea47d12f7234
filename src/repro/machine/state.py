"""Program states for the small-step semantics (§3.2).

A state contains the set of threads, the (shared, forest-structured)
heap/global memory, ghost state, the externally-visible console log,
and whether and how the program terminated.  Thread state includes the
program counter, the stack, and the x86-TSO store buffer (§3.2.1).

States are immutable and hashable so the explorer can deduplicate them.
They are built on every step, so the classes derive from
:class:`~repro.record.Slotted`: a written-out ``__init__``, immutable by
convention, with ``==``, ``hash`` and ``repr`` over the field tuple, as
a dataclass's would be.  Frames, threads and states, compared and hashed
once per explored state, write out ``==`` and a hash cached in a
``_hash`` slot; the PMap components hash incrementally, so a successor
re-hashes only what changed, and a copy made by ``replace`` computes its
own.
"""

from __future__ import annotations

from typing import Any

from repro.machine.pmap import EMPTY_PMAP, PMap
from repro.machine.values import Location, Root
from repro.record import Slotted


# ---------------------------------------------------------------------------
# Termination (§3.2.3): normal exit, assert failure, or undefined behaviour.

TERM_NORMAL = "normal"
TERM_ASSERT = "assert_failure"
TERM_UB = "undefined_behavior"


class Termination(Slotted):
    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail

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


class Frame(Slotted):
    """One stack frame: the method, a serial (for address-taken local
    roots), the local variable store, and where to resume on return."""

    __slots__ = ("method", "serial", "locals", "return_pc",
                 "return_lhs_key", "_hash")

    def __init__(self, method: str, serial: int, locals: PMap,
                 return_pc: str | None = None,
                 return_lhs_key: Any = None) -> None:
        self.method = method
        self.serial = serial
        self.locals = locals
        self.return_pc = return_pc
        #: The local name that receives the return value.
        self.return_lhs_key = return_lhs_key
        self._hash: int | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.method, self.serial, self.locals, self.return_pc,
             self.return_lhs_key)
            == (other.method, other.serial, other.locals, other.return_pc,
                other.return_lhs_key)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((
                self.method, self.serial, self.locals, self.return_pc,
                self.return_lhs_key,
            ))
        return h

    def with_local(self, name: str, value: Any) -> "Frame":
        return Frame(self.method, self.serial, self.locals.set(name, value),
                     self.return_pc, self.return_lhs_key)


class ThreadState(Slotted):
    """A thread: program counter, stack (top frame first), and its FIFO
    store buffer of pending (location, value) writes.

    ``view`` is the per-thread state of the release/acquire memory
    model (Location -> observed timestamp); it is ``None`` under
    SC/TSO, keeping those models' state equality untouched.
    """

    __slots__ = ("tid", "pc", "frames", "store_buffer", "view", "_hash")

    def __init__(
        self,
        tid: int,
        pc: str | None,  # None once the thread has terminated (returned)
        frames: tuple[Frame, ...] = (),
        store_buffer: tuple[tuple[Location, Any], ...] = (),
        view: PMap | None = None,
    ) -> None:
        self.tid = tid
        self.pc = pc
        self.frames = frames
        self.store_buffer = store_buffer
        self.view = view
        self._hash: int | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.tid, self.pc, self.frames, self.store_buffer, self.view)
            == (other.tid, other.pc, other.frames, other.store_buffer,
                other.view)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((
                self.tid, self.pc, self.frames, self.store_buffer,
                self.view,
            ))
        return h

    @property
    def terminated(self) -> bool:
        return self.pc is None

    @property
    def top(self) -> Frame:
        return self.frames[0]

    def with_pc(self, pc: str | None) -> "ThreadState":
        return ThreadState(self.tid, pc, self.frames, self.store_buffer,
                           self.view)

    def with_top_frame(self, frame: Frame) -> "ThreadState":
        return ThreadState(self.tid, self.pc, (frame,) + self.frames[1:],
                           self.store_buffer, self.view)

    def set_local(self, name: str, value: Any) -> "ThreadState":
        return self.with_top_frame(self.frames[0].with_local(name, value))

    def push_buffer(self, location: Location, value: Any) -> "ThreadState":
        return ThreadState(self.tid, self.pc, self.frames,
                           self.store_buffer + ((location, value),),
                           self.view)

    def pop_buffer(self) -> tuple["ThreadState", Location, Any]:
        (location, value), rest = self.store_buffer[0], self.store_buffer[1:]
        thread = ThreadState(self.tid, self.pc, self.frames, rest, self.view)
        return thread, location, value

    @property
    def sb_empty(self) -> bool:
        return not self.store_buffer


# ---------------------------------------------------------------------------
# Whole-program state


class ProgramState(Slotted):
    """The complete state of an Armada program (one level).

    Successor states are the explorer's hottest allocation, so the
    constructor is a plain slotted store.  States are immutable by
    convention: nothing mutates one after construction, and the
    memoized hash relies on that.
    """

    __slots__ = (
        "threads", "memory", "allocation", "ghosts", "log", "termination",
        "next_tid", "next_serial", "atomic_owner", "histories", "_hash",
    )

    def __init__(
        self,
        threads: PMap,  # tid -> ThreadState
        memory: PMap,  # Location -> value (global shared memory)
        allocation: PMap,  # Root -> "valid" | "freed"
        ghosts: PMap,  # name -> ghost value (sequentially consistent)
        log: tuple = (),  # externally visible output (print_* externs)
        termination: Termination | None = None,
        next_tid: int = 1,
        next_serial: int = 1,
        atomic_owner: int | None = None,
        histories: PMap | None = None,
    ) -> None:
        self.threads = threads
        self.memory = memory
        self.allocation = allocation
        self.ghosts = ghosts
        self.log = log
        self.termination = termination
        self.next_tid = next_tid
        self.next_serial = next_serial
        #: The thread currently inside an uninterruptible (atomic /
        #: explicit_yield) region, if any.  Other threads may not step.
        self.atomic_owner = atomic_owner
        #: Release/acquire write histories (Location -> tuple of
        #: (value, message-view) records); ``None`` under SC/TSO.
        self.histories = histories
        self._hash: int | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.threads, self.memory, self.allocation, self.ghosts,
             self.log, self.termination, self.next_tid, self.next_serial,
             self.atomic_owner, self.histories)
            == (other.threads, other.memory, other.allocation, other.ghosts,
                other.log, other.termination, other.next_tid,
                other.next_serial, other.atomic_owner, other.histories)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((
                self.threads, self.memory, self.allocation, self.ghosts,
                self.log, self.termination, self.next_tid,
                self.next_serial, self.atomic_owner, self.histories,
            ))
        return h

    # -- convenience ----------------------------------------------------

    @property
    def running(self) -> bool:
        return self.termination is None

    def thread(self, tid: int) -> ThreadState:
        return self.threads[tid]

    def with_thread(self, thread: ThreadState) -> "ProgramState":
        return ProgramState(
            self.threads.set(thread.tid, thread), self.memory,
            self.allocation, self.ghosts, self.log, self.termination,
            self.next_tid, self.next_serial, self.atomic_owner,
            self.histories,
        )

    def with_memory(self, location: Location, value: Any) -> "ProgramState":
        return ProgramState(
            self.threads, self.memory.set(location, value), self.allocation,
            self.ghosts, self.log, self.termination, self.next_tid,
            self.next_serial, self.atomic_owner, self.histories,
        )

    def with_ghost(self, name: str, value: Any) -> "ProgramState":
        return ProgramState(
            self.threads, self.memory, self.allocation,
            self.ghosts.set(name, value), self.log, self.termination,
            self.next_tid, self.next_serial, self.atomic_owner,
            self.histories,
        )

    def terminate(self, kind: str, detail: str = "") -> "ProgramState":
        return self.replace(termination=Termination(kind, detail))

    def append_log(self, entry: Any) -> "ProgramState":
        return self.replace(log=self.log + (entry,))

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
        return ProgramState(
            self.threads.set(tid, thread), self.memory.set(location, value),
            self.allocation, self.ghosts, self.log, self.termination,
            self.next_tid, self.next_serial, self.atomic_owner,
            self.histories,
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


EMPTY_STATE = ProgramState(
    threads=EMPTY_PMAP,
    memory=EMPTY_PMAP,
    allocation=EMPTY_PMAP,
    ghosts=EMPTY_PMAP,
)
