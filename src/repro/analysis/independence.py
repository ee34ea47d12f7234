"""Per-step independence facts for the regular-to-atomic classification.

A step may only join an atomic run
(:func:`repro.explore.atomic.classify_atomic`) if it is *independent*
of every step another thread could take — firing it first or last must
reach the same states.  This module computes, purely statically, the
set of steps that qualify as candidates; the classification narrows
them further (no shared writes), and the ``regular_to_atomic``
strategy's per-path obligations re-check each collapsed run
dynamically, so these facts only need to be a sound *filter*, never a
final verdict.

Two classifications are exported:

**Private globals** (``private_globals``): top-level global variables
whose every static access comes from a single thread context with spawn
multiplicity one (:meth:`repro.analysis.lockset.LocksetResult.is_multithreaded`
is false) and which are not mutex words.  Exactly one thread instance
can ever read or write such a location, so a buffered store to it — and
the store-buffer drain that later writes it back — is invisible to every
other thread.

**Local steps** (``local_step_ids``): a step is *local* when all of the
following hold:

* It is an :class:`~repro.machine.steps.AssignStep`,
  :class:`~repro.machine.steps.BranchStep` or
  :class:`~repro.machine.steps.AssumeStep` — steps whose whole effect is
  (at most) the firing thread's program counter, its local variables,
  and the shared-memory accesses tracked by the access map.  Every
  other step type either touches scheduler/allocation state
  (create/join/malloc/extern), pushes stack frames whose serials draw
  from shared counters (call/return), emits output, or havocs shared
  places — none of which commute with other threads in general.
* Every location it **writes** (per
  :func:`repro.analysis.accesses.extract_accesses`) is a private global,
  and the write is buffered (plain ``:=``; a TSO-bypassing ``::=``
  mutates memory directly, which this filter does not model).  A write
  to a non-address-taken local produces no access record at all, so
  ordinary register-like updates pass.
* Every location it **reads** is effectively unwritable by other
  threads: either no step anywhere in the program writes it, or it is a
  private global.  Mutex words are excluded outright.
* It never mentions a **ghost** variable.  Ghost state is sequentially
  consistent shared state, but it is deliberately invisible to the
  access map (the analyzer tracks the C-level memory the paper's proofs
  care about), so it must be re-checked here: a ghost read could observe
  another thread's ghost write.

Independence under TSO: a local step of thread *t* reads only locations
no other thread ever writes (so no concurrent store-buffer drain can
change what it observes) and writes — whether to *t*'s registers, or
through *t*'s store buffer to a private global — nothing any other
thread can ever read.  Its effects are confined to *t*'s private
frame/pc/buffer and cells only *t* accesses, which no other thread's
step reads or writes — hence it commutes exactly, in both directions,
with every transition of every other thread.  The same argument covers
drains of private-global buffer entries: the written-back cell is
invisible to everyone but *t*, and FIFO push/pop on *t*'s own buffer
commute with all other transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import asts as ast
from repro.lang.resolver import LevelContext
from repro.machine.program import StateMachine
from repro.machine.steps import AssignStep, AssumeStep, BranchStep, Step

from repro.analysis.accesses import AccessMap, extract_accesses
from repro.analysis.lockset import LocksetResult, compute_locksets


@dataclass(frozen=True)
class IndependenceFacts:
    """Static classification of a machine's steps.

    ``local_step_ids`` holds ``id(step)`` keys (steps use identity
    equality) of the provably independent steps; ``private_globals``
    names the single-context global variables; ``total_steps`` and
    ``local_steps`` summarize how selective the classification was.
    """

    local_step_ids: frozenset[int]
    private_globals: frozenset[str]
    total_steps: int
    local_steps: int

    def is_local(self, step: Step) -> bool:
        return id(step) in self.local_step_ids


def _mentions_ghost(
    ctx: LevelContext, method: str, exprs: list[ast.Expr]
) -> bool:
    for expr in exprs:
        if expr is None:
            continue
        for node in ast.walk_expr(expr):
            if not isinstance(node, ast.Var):
                continue
            if ctx.local(method, node.name) is not None:
                continue
            g = ctx.globals.get(node.name)
            if g is not None and g.ghost:
                return True
    return False


def step_independence(
    ctx: LevelContext,
    machine: StateMachine,
    access_map: AccessMap | None = None,
    locksets: LocksetResult | None = None,
) -> IndependenceFacts:
    """Compute the set of steps that commute with all other threads.

    The access map and lockset results are recomputed when not supplied
    (callers that already ran :func:`repro.analysis.analyze_level` should
    pass them in to avoid the duplicate pass).
    """
    if access_map is None:
        access_map = extract_accesses(ctx, machine)
    if locksets is None:
        locksets = compute_locksets(machine, access_map)

    written: set[str] = {
        a.location for a in access_map.all if a.kind == "write"
    }
    # Top-level globals (no ":" — local:/alloc: tokens are compound)
    # provably touched by at most one thread instance, ever.
    private: frozenset[str] = frozenset(
        loc for loc in access_map.by_location
        if ":" not in loc
        and loc not in access_map.mutex_words
        and not locksets.is_multithreaded(loc)
    )

    local_ids: set[int] = set()
    total = 0
    for pc, steps in machine.steps_by_pc.items():
        method = machine.pcs[pc].method
        for step in steps:
            total += 1
            if not isinstance(step, (AssignStep, BranchStep, AssumeStep)):
                continue
            if _mentions_ghost(ctx, method, step.reads_exprs()):
                continue
            safe = True
            for access in access_map.step_accesses(step):
                loc = access.location
                if loc in access_map.mutex_words:
                    safe = False
                    break
                if access.kind == "write":
                    if loc not in private or not access.buffered:
                        safe = False
                        break
                elif loc in written and loc not in private:
                    safe = False
                    break
            if safe:
                local_ids.add(id(step))

    return IndependenceFacts(
        local_step_ids=frozenset(local_ids),
        private_globals=private,
        total_steps=total,
        local_steps=len(local_ids),
    )
