"""The :class:`MemoryModel` interface and its three implementations.

A memory model owns every semantic decision that distinguishes weak
from strong shared memory:

* how a plain assignment's leaf writes reach shared memory
  (:meth:`MemoryModel.write_leaves`),
* which asynchronous *environment* moves exist at a state — TSO's
  store-buffer drains, RA's view advances — and how they apply
  (:meth:`env_moves` / :meth:`apply_env` / :meth:`env_enabled`),
* what atomics (lock/unlock/CAS/exchange/fetch_add), fences and thread
  join do beyond their data effect (:meth:`atomic_update`,
  :meth:`atomic_acquire`, :meth:`fence`, :meth:`on_join`),
* how threads and the whole program state are initialised
  (:meth:`init_thread` / :meth:`init_state`).

Visible-value resolution itself lives in
:meth:`repro.machine.state.ProgramState.local_view`, which dispatches on
the thread's state representation (``thread.view is not None`` selects
the RA read path) so expression evaluation needs no model handle.

Environment moves are encoded as parameter tuples (the same shape as
:class:`~repro.machine.program.Transition` params); the machine wraps
them into ``Transition(tid, None, params)`` objects.  This keeps the
package import-light (no dependency on ``machine.program``) and keeps
the TSO drain transition object bit-identical to the historical one.

**Bit-identity of the TSO extraction.**  ``TSOModel`` methods are the
pre-refactor code moved verbatim: ``write_leaves`` replays the exact
push-buffer / direct-memory branches of ``steps.write_place``,
``env_moves`` emits one drain iff the buffer is nonempty (the same
``Transition(tid, None)`` object the machine used to build inline), and
``apply_env`` is ``ProgramState.drain_one``.  All TSO-mode states carry
``view=None`` / ``histories=None``, so state equality — and therefore
explorer state counts, dedup behaviour, final outcomes and traces — is
unchanged.  The existing differential suites enforce this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.machine.pmap import EMPTY_PMAP, PMap
from repro.machine.state import ProgramState, ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.values import Location

#: Key in ``ProgramState.histories`` holding the RA model's global
#: SC-fence view (never collides with a ``Location``).
SC_FENCE_KEY = ("$memmodel", "sc-view")

#: One environment move with no parameters (a TSO drain).
_ONE_MOVE: tuple[tuple, ...] = ((),)

EnvMove = tuple[tuple[Any, Any], ...]


class MemoryModel:
    """Base class: the hooks every model must provide.

    The base implementations are the *strong* defaults — direct writes,
    no environment moves, no synchronisation bookkeeping — so SC is the
    base behaviour and weaker models override.
    """

    #: Stable identifier; part of every proof-cache key and fingerprint.
    name: str = "abstract"

    # -- initialisation -------------------------------------------------

    def init_state(self, state: ProgramState) -> ProgramState:
        """Attach model-owned program-level state (e.g. histories)."""
        return state

    def init_thread(
        self, thread: ThreadState, parent: ThreadState | None
    ) -> ThreadState:
        """Attach model-owned per-thread state (e.g. a view).  *parent*
        is the spawning thread (``None`` for the main thread)."""
        return thread

    # -- plain writes ---------------------------------------------------

    def write_leaves(
        self,
        state: ProgramState,
        tid: int,
        leaves: Iterable[tuple["Location", Any]],
        buffered: bool,
    ) -> ProgramState:
        """Commit an assignment's decomposed leaf writes.  *buffered*
        distinguishes ordinary ``:=`` from bypassing ``::=`` writes;
        models free to ignore it (SC and RA do)."""
        new_memory = state.memory
        for loc, leaf in leaves:
            new_memory = new_memory.set(loc, leaf)
        return state.replace(memory=new_memory)

    # -- environment (asynchronous hardware) moves ----------------------

    def env_moves(
        self, state: ProgramState, thread: ThreadState, machine: Any = None
    ) -> Iterable[EnvMove]:
        """Parameter tuples of the enabled environment moves for
        *thread* (each becomes a ``Transition(tid, None, params)``).
        *machine* (the owning :class:`StateMachine`) lets a model
        consult program structure to prune unobservable moves."""
        return ()

    def apply_env(
        self, state: ProgramState, tid: int, params: EnvMove
    ) -> ProgramState:
        return state

    def env_enabled(
        self,
        state: ProgramState,
        tid: int,
        params: EnvMove,
        machine: Any = None,
    ) -> bool:
        """Re-check an environment move at a (possibly different) state —
        used by the mover/commutativity checks in the proof library."""
        return False

    # -- atomics, fences, join ------------------------------------------

    def atomic_update(
        self, state: ProgramState, tid: int, loc: "Location", value: Any
    ) -> ProgramState:
        """An atomic (LOCK-prefixed) write of *value* to *loc*, as
        performed by lock/unlock/CAS/exchange/fetch_add."""
        return state.with_memory(loc, value)

    def atomic_acquire(
        self, state: ProgramState, tid: int, loc: "Location"
    ) -> ProgramState:
        """The synchronisation effect of atomically *reading* *loc*
        (CAS-failure reads, exchange/fetch_add read halves)."""
        return state

    def fence(self, state: ProgramState, tid: int) -> ProgramState:
        return state

    def on_join(
        self, state: ProgramState, tid: int, target_tid: Any
    ) -> ProgramState:
        """Synchronisation when *tid* joins terminated *target_tid*."""
        return state


class SCModel(MemoryModel):
    """Sequential consistency: writes hit memory immediately, there are
    no buffers and no environment moves.  Reads fall through the TSO
    read path in ``local_view`` with an always-empty buffer, so no
    read-side override is needed."""

    name = "sc"


class TSOModel(MemoryModel):
    """x86-TSO (§3.2.1): per-thread FIFO store buffers drained by
    asynchronous environment moves; ``::=`` bypasses the buffer; RMWs
    and fences already require ``sb_empty`` in the step semantics."""

    name = "tso"

    def write_leaves(self, state, tid, leaves, buffered):
        if buffered:
            thread = state.thread(tid)
            for loc, leaf in leaves:
                thread = thread.push_buffer(loc, leaf)
            return state.with_thread(thread)
        new_memory = state.memory
        for loc, leaf in leaves:
            new_memory = new_memory.set(loc, leaf)
        return state.replace(memory=new_memory)

    def env_moves(self, state, thread, machine=None):
        # Drains stay enabled even for terminated threads: a thread may
        # exit with pending stores that must still reach memory.
        return _ONE_MOVE if thread.store_buffer else ()

    def apply_env(self, state, tid, params):
        return state.drain_one(tid)

    def env_enabled(self, state, tid, params, machine=None):
        return bool(state.threads[tid].store_buffer)


class RAModel(MemoryModel):
    """A C11-style release/acquire model, operationally.

    Per-location write *histories* live on the program state
    (``state.histories``: Location -> tuple of ``(value, message_view)``
    records, timestamp = tuple index); each thread carries a *view*
    (``thread.view``: Location -> timestamp) naming the record it
    currently observes per location.  A read returns the record at the
    thread's view — deterministically.  The read nondeterminism of RA
    is encoded as *environment advance moves*: an env step moves one
    thread's view of one location forward one record and **acquires**
    (joins) that record's message view — exactly the §4.1 encapsulated-
    nondeterminism discipline the TSO drains already follow.  Every
    store is a release: it appends a record carrying the writer's full
    view (including the new write).  Because views advance per location
    independently, two readers may see two writers' independent stores
    in opposite orders — IRIW's non-multi-copy-atomic outcome — while
    message-view acquisition still forbids MP and LB reorderings.
    RMWs acquire the latest record then release-write (they always act
    on the newest value, giving coherence and lock hand-off); ``fence``
    is an SC fence through a global view stored under
    :data:`SC_FENCE_KEY`; ``join`` acquires the joined thread's final
    view (pthread happens-before).
    """

    name = "ra"

    # -- initialisation -------------------------------------------------

    def init_state(self, state):
        return state.replace(histories=EMPTY_PMAP)

    def init_thread(self, thread, parent):
        view = (
            parent.view
            if parent is not None and parent.view is not None
            else EMPTY_PMAP
        )
        return thread.replace(view=view)

    # -- writes ---------------------------------------------------------

    def write_leaves(self, state, tid, leaves, buffered):
        # Every store is a release write appended to the location's
        # history; ``buffered`` (``:=`` vs ``::=``) makes no difference
        # under RA.  ``state.memory`` tracks the newest record so RMWs
        # and coherence checks read the modification-order maximum.
        thread = state.thread(tid)
        view = thread.view
        histories = state.histories
        memory = state.memory
        for loc, leaf in leaves:
            hist = histories.get(loc)
            if hist is None:
                hist = (
                    ((memory[loc], EMPTY_PMAP),) if loc in memory else ()
                )
            view = view.set(loc, len(hist))
            hist = hist + ((leaf, view),)
            histories = histories.set(loc, hist)
            memory = memory.set(loc, leaf)
        thread = thread.replace(view=view)
        return state.replace(
            threads=state.threads.set(tid, thread),
            memory=memory,
            histories=histories,
        )

    # -- environment advances -------------------------------------------
    #
    # In real RA a thread's view of a location changes only when the
    # thread actually reads (or RMWs) it.  Emitting advance moves for
    # every location at every pc would be sound but multiplies states
    # combinatorially with positions a thread can never observe, so
    # advances are emitted only for locations some step at the thread's
    # current pc may read through its view (statically over-approximated
    # from the steps' read expressions; pointer dereferences fall back
    # to "all locations").

    def env_moves(self, state, thread, machine=None):
        # A terminated thread never reads again; advancing its view only
        # multiplies states.
        if thread.terminated or thread.view is None:
            return ()
        histories = state.histories
        if histories is None or not histories:
            return ()
        names, include_all = self._read_filter(machine, thread.pc)
        if not include_all and not names:
            return ()
        view = thread.view
        moves: list[EnvMove] = []
        for loc, hist in histories.items():
            if loc == SC_FENCE_KEY:
                continue
            if not include_all:
                root = loc.root
                if root.kind != "global" or root.name not in names:
                    continue
            if view.get(loc, 0) < len(hist) - 1:
                moves.append((("advance", loc),))
        return moves

    def apply_env(self, state, tid, params):
        loc = dict(params)["advance"]
        thread = state.threads[tid]
        hist = state.histories[loc]
        pos = thread.view.get(loc, 0) + 1
        _value, message_view = hist[pos]
        view = _join(thread.view, message_view)
        if view.get(loc, 0) < pos:
            view = view.set(loc, pos)
        return state.with_thread(thread.replace(view=view))

    def env_enabled(self, state, tid, params, machine=None):
        thread = state.threads.get(tid)
        if thread is None or thread.view is None or thread.terminated:
            return False
        loc = dict(params).get("advance")
        histories = state.histories
        hist = histories.get(loc) if histories is not None else None
        if hist is None:
            return False
        if machine is not None:
            names, include_all = self._read_filter(machine, thread.pc)
            if not include_all:
                root = loc.root
                if root.kind != "global" or root.name not in names:
                    return False
        return thread.view.get(loc, 0) < len(hist) - 1

    def _read_filter(
        self, machine: Any, pc: str | None
    ) -> tuple[frozenset, bool]:
        """``(global names, include_all)``: which locations the steps at
        *pc* may read through the thread's view.  Cached per machine."""
        if machine is None or pc is None:
            return frozenset(), True
        cache = machine.__dict__.setdefault("_ra_read_filter", {})
        hit = cache.get(pc)
        if hit is None:
            hit = _pc_read_footprint(machine, pc)
            cache[pc] = hit
        return hit

    # -- atomics, fences, join ------------------------------------------

    def atomic_acquire(self, state, tid, loc):
        histories = state.histories
        hist = histories.get(loc) if histories is not None else None
        if not hist:
            return state
        pos = len(hist) - 1
        _value, message_view = hist[pos]
        thread = state.threads[tid]
        view = _join(thread.view, message_view)
        if view.get(loc, 0) < pos:
            view = view.set(loc, pos)
        if view is thread.view:
            return state
        return state.with_thread(thread.replace(view=view))

    def atomic_update(self, state, tid, loc, value):
        # RMW atomicity: acquire the newest record, then release-write.
        state = self.atomic_acquire(state, tid, loc)
        return self.write_leaves(state, tid, ((loc, value),), False)

    def fence(self, state, tid):
        # SC fence: join with the global fence view, then publish the
        # strengthened view back (view := view ⊔ sc; sc := view).
        histories = (
            state.histories if state.histories is not None else EMPTY_PMAP
        )
        sc_view = histories.get(SC_FENCE_KEY, EMPTY_PMAP)
        thread = state.threads[tid]
        view = _join(thread.view, sc_view)
        state = state.with_thread(thread.replace(view=view))
        return state.replace(histories=histories.set(SC_FENCE_KEY, view))

    def on_join(self, state, tid, target_tid):
        target = state.threads.get(target_tid)
        if target is None or target.view is None:
            return state
        thread = state.threads[tid]
        view = _join(thread.view, target.view)
        if view is thread.view:
            return state
        return state.with_thread(thread.replace(view=view))


def _pc_read_footprint(machine: Any, pc: str) -> tuple[frozenset, bool]:
    """Over-approximate the shared locations readable at *pc*.

    Returns ``(global names, include_all)``.  ``include_all`` is set
    when a read goes through a pointer or an address-taken local, whose
    target cannot be named statically.  Address-of expressions read no
    memory (their base variable is skipped; index subexpressions are
    still visited).
    """
    from repro.lang import asts as ast
    from repro.lang import types as lty

    info = machine.pcs.get(pc)
    if info is None:
        return frozenset(), True
    ctx = machine.ctx
    global_names = {g.name for g in ctx.level.globals if not g.ghost}
    mctx = ctx.method_contexts.get(info.method)
    addr_taken = (
        {n for n, i in mctx.locals.items() if i.address_taken}
        if mctx else set()
    )
    names: set[str] = set()
    include_all = False

    def children(expr: ast.Expr):
        for name in expr._fields:
            v = getattr(expr, name)
            if isinstance(v, ast.Expr):
                yield v
            elif isinstance(v, (list, tuple)):
                for item in v:
                    if isinstance(item, ast.Expr):
                        yield item

    def visit(expr: ast.Expr | None) -> None:
        nonlocal include_all
        if expr is None or include_all:
            return
        if isinstance(expr, ast.AddressOf):
            op = expr.operand
            while isinstance(op, (ast.FieldAccess, ast.Index)):
                if isinstance(op, ast.Index):
                    visit(op.index)
                op = op.base
            if not isinstance(op, ast.Var):
                visit(op)
            return
        if isinstance(expr, ast.Deref):
            include_all = True
            return
        if isinstance(expr, ast.Index) and isinstance(
            getattr(expr.base, "type", None), lty.PtrType
        ):
            include_all = True
            return
        if isinstance(expr, ast.Var):
            if expr.name in addr_taken:
                include_all = True
            elif expr.name in global_names:
                names.add(expr.name)
            return
        for child in children(expr):
            visit(child)

    for step in machine.steps_at(pc):
        for expr in step.reads_exprs():
            visit(expr)
        if include_all:
            break
    return frozenset(names), include_all


def _join(a: PMap, b: PMap) -> PMap:
    """Pointwise-maximum join of two views (timestamp lattice)."""
    if a is b or not b:
        return a
    updates = {}
    for key, ts in b.items():
        if a.get(key, -1) < ts:
            updates[key] = ts
    return a.set_many(updates) if updates else a


#: Registry of selectable models, by stable name.
MODELS: dict[str, MemoryModel] = {
    model.name: model for model in (SCModel(), TSOModel(), RAModel())
}

DEFAULT_MODEL = "tso"


def get_model(name: str | MemoryModel | None) -> MemoryModel:
    """Resolve a model by name (``None`` selects the TSO default);
    passing an existing model through is allowed."""
    if name is None:
        return MODELS[DEFAULT_MODEL]
    if isinstance(name, MemoryModel):
        return name
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown memory model {name!r} "
            f"(choose from {', '.join(sorted(MODELS))})"
        ) from None
