"""Hash-sharded parallel frontier exploration.

The compiled stepper (PR 8) made each state cheaper; this module makes
*many cores* work on the state space at once, the way ``repro.farm``
already parallelizes obligation discharge.  The interned state space is
partitioned by hash across ``W`` forked worker processes:

* **Ownership.**  Worker ``w`` owns exactly the states with
  ``_owner(state, W) == w``.  Only the owner dedups, counts, checks
  invariants on, and expands a state, so every state is visited exactly
  once globally — the partition of the intern table *is* the partition
  of the work.  The partition key hashes the *shared* projection of the
  state (memory, ghosts, log) rather than the whole state: thread-local
  transitions (pc advances, local assigns, buffer appends) preserve that
  projection, so their successors stay on the discovering shard and
  never cross a pipe (~75% -> ~20% cross-shard traffic on QueueNondet).
  The cost is balance — a program whose action is all thread-local
  clusters onto few shards (still correct, just less parallel).
* **Rounds.**  Exploration is level-synchronized: in each round every
  worker expands its current frontier (one full BFS level), buckets
  foreign successors by owner, and ships each bucket as one pickled
  blob.  The driver routes blobs as opaque bytes (it never unpickles a
  state) and releases the next round once every worker has admitted its
  inbox.  Level-synchronized rounds keep the global search breadth-first,
  so parent pointers still yield *shortest* counterexample traces.
* **Handoff.**  A shipped successor carries ``(state, parent_ref)``
  where ``parent_ref = (wid, local_index, encoded_transition)`` names
  the parent slot in the discovering worker's state table.  At the end
  the driver collects every worker's parent table and reconstructs
  UB/violation traces by walking refs across tables, decoding
  transitions via ``machine.steps_at(pc)[index]``.
* **Dedup before IPC.**  Senders keep, per destination, the set of
  states already shipped there (any round) plus a per-round bucket
  dict, so a state crosses each pipe at most once per discovering
  worker.  Receiver-side interning resolves the remaining cross-worker
  races deterministically: the driver forwards each round's inbox
  sorted by sender id.

Workers run the **full** fan-out — no POR, no sleep sets, no symmetry.
The dynamic reductions are deliberately confined to single-process
exploration: their C3/cycle provisos and sleep-set bookkeeping consult
the *global* seen set, which no shard can observe locally, so pruning
inside a shard would be unsound.  Sharding therefore composes with any
memory model (including RA) and preserves verdicts, UB reasons,
assertion outcomes and deadlocks exactly; only wall-clock changes.

Determinism: verdict merging is order-independent (set unions, sums),
and UB reasons / violations are sorted by (reason/invariant, trace
length, trace text) before being reported.  The state budget is
enforced at round granularity — the driver stops launching rounds once
the global admitted count reaches ``max_states`` — so a truncated
sharded run may admit slightly more states than a truncated
single-process run (both report ``hit_state_budget``); un-truncated
runs agree exactly.

Requires a ``fork`` start method (Linux): workers inherit the machine,
the invariant closures, and — critically — the interpreter's string
hash seed, so ``hash(state) % W`` agrees in every process.  With
``workers <= 1`` or no fork support, falls back to the in-process
:class:`~repro.explore.explorer.Explorer`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
from typing import Callable

from repro.compiler.stepc import stepper_for, successors_for
from repro.explore.explorer import ExplorationResult, InvariantViolation
from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState, TERM_UB
from repro.obs import OBS


def _owner(state: ProgramState, nworkers: int) -> int:
    """The shard that owns *state*.  Pure and fork-consistent: PMap
    hashes are content-derived and the workers share the driver's
    string-hash seed."""
    return hash((state.memory, state.ghosts, state.log)) % nworkers


def _encode_transition(machine: StateMachine, tr: Transition,
                       memo: dict) -> tuple:
    """Portable reference to *tr*: steps are named (pc, index-at-pc)
    because step objects compare by identity and must not be pickled."""
    step = tr.step
    if step is None:
        return (tr.tid, None, 0, tr.params)
    key = id(step)
    index = memo.get(key)
    if index is None:
        index = next(
            i for i, s in enumerate(machine.steps_at(step.pc))
            if s is step
        )
        memo[key] = index
    return (tr.tid, step.pc, index, tr.params)


def _decode_transition(machine: StateMachine, enc: tuple) -> Transition:
    tid, pc, index, params = enc
    if pc is None:
        return Transition(tid, None, params)
    return Transition(tid, machine.steps_at(pc)[index], params)


def _worker_loop(
    wid: int,
    nworkers: int,
    machine: StateMachine,
    invariants: dict | None,
    compiled: bool,
    conn,
) -> None:
    """One shard: owns states with ``hash(state) % nworkers == wid``."""
    try:
        successors = successors_for(machine, compiled)
        seen: dict[ProgramState, int] = {}
        states: list[ProgramState] = []
        parents: list[tuple | None] = []
        frontier: list[int] = []
        sent = [set() for _ in range(nworkers)]
        step_memo: dict = {}
        stats = {
            "visited": 0, "taken": 0, "af": 0, "shipped": 0,
        }
        outcomes: set = set()
        ub: list[tuple[str, int]] = []
        violations: list[tuple[str, int]] = []
        new_states = 0

        def admit(state: ProgramState, ref: tuple | None) -> None:
            nonlocal new_states
            if state in seen:
                return
            index = len(states)
            seen[state] = index
            states.append(state)
            parents.append(ref)
            new_states += 1
            stats["visited"] += 1
            if invariants:
                for name, predicate in invariants.items():
                    try:
                        holds = predicate(state)
                    except Exception:  # predicate crashed: failure
                        holds = False
                    if not holds:
                        violations.append((name, index))
            if state.termination is not None:
                outcomes.add((state.termination.kind, state.log))
                if state.termination.kind == TERM_UB:
                    ub.append((state.termination.detail, index))
                if state.termination.kind == "assert_failure":
                    stats["af"] += 1
                return
            frontier.append(index)

        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "init":
                initial = machine.initial_state()
                if _owner(initial, nworkers) == wid:
                    admit(initial, None)
                new_states = 0  # the driver counts the initial state
            elif tag == "go":
                current, frontier = frontier, []
                buckets: list[dict] = [{} for _ in range(nworkers)]
                for index in current:
                    state = states[index]
                    pairs = successors(state)
                    if not pairs:
                        outcomes.add(("deadlock", state.log))
                        continue
                    for tr, nxt in pairs:
                        stats["taken"] += 1
                        ref = (
                            wid, index,
                            _encode_transition(machine, tr, step_memo),
                        )
                        dest = _owner(nxt, nworkers)
                        if dest == wid:
                            admit(nxt, ref)
                        else:
                            bucket = buckets[dest]
                            if nxt not in bucket and nxt not in sent[dest]:
                                bucket[nxt] = ref
                for dest in range(nworkers):
                    bucket = buckets[dest]
                    if dest == wid or not bucket:
                        continue
                    sent[dest].update(bucket)
                    stats["shipped"] += len(bucket)
                    blob = pickle.dumps(
                        list(bucket.items()),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    conn.send(("xfer", dest, blob))
                conn.send(("round_done",))
                # Admit this round's inbox, then report.
                while True:
                    msg = conn.recv()
                    if msg[0] == "admit":
                        for nxt, ref in pickle.loads(msg[1]):
                            admit(nxt, ref)
                    elif msg[0] == "round_end":
                        conn.send(
                            ("admitted", new_states, bool(frontier))
                        )
                        new_states = 0
                        break
            elif tag == "finish":
                needed = {index for _r, index in ub}
                needed.update(index for _n, index in violations)
                conn.send(("result", {
                    "wid": wid,
                    "visited": stats["visited"],
                    "taken": stats["taken"],
                    "af": stats["af"],
                    "shipped": stats["shipped"],
                    "outcomes": outcomes,
                    "ub": ub,
                    "violations": violations,
                    "parents": parents,
                    "vstates": {i: states[i] for i in needed},
                }))
                conn.close()
                return
    except EOFError:  # driver went away
        return
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


class ShardedExplorer:
    """Drive ``workers`` forked shards to a merged
    :class:`ExplorationResult` equivalent to single-process full
    exploration (see module docstring for the protocol)."""

    def __init__(
        self,
        machine: StateMachine,
        workers: int = 2,
        max_states: int = 2_000_000,
        compiled: bool = True,
    ) -> None:
        self.machine = machine
        self.workers = max(1, int(workers))
        self.max_states = max_states
        self.compiled = compiled

    def explore(
        self,
        invariants: dict[str, Callable[[ProgramState], bool]] | None = None,
    ) -> ExplorationResult:
        if self.workers <= 1 or not _fork_available():
            from repro.explore.explorer import Explorer

            return Explorer(
                self.machine, self.max_states, compiled=self.compiled
            ).explore(invariants)
        if not OBS.enabled:
            return self._explore(invariants)
        memmodel = getattr(self.machine, "memmodel", None)
        with OBS.span("explore_sharded", "phase",
                      level=self.machine.level_name,
                      workers=self.workers,
                      memory_model=memmodel.name if memmodel else "tso"):
            return self._explore(invariants)

    def _explore(self, invariants) -> ExplorationResult:
        machine = self.machine
        nworkers = self.workers
        if self.compiled:
            stepper_for(machine)  # compile once pre-fork; children inherit
        ctx = multiprocessing.get_context("fork")
        conns = []
        procs = []
        for wid in range(nworkers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop,
                args=(wid, nworkers, machine, invariants, self.compiled,
                      child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        try:
            for conn in conns:
                conn.send(("init",))
            total = 1
            rounds = 0
            hit_budget = False
            while True:
                rounds += 1
                for conn in conns:
                    conn.send(("go",))
                inbox: list[list] = [[] for _ in range(nworkers)]
                for src, conn in enumerate(conns):
                    while True:
                        msg = _recv(conn)
                        if msg[0] == "xfer":
                            inbox[msg[1]].append((src, msg[2]))
                        elif msg[0] == "round_done":
                            break
                for dest, conn in enumerate(conns):
                    # Sender order fixes which discoverer becomes the
                    # parent on cross-worker races: deterministic traces.
                    for _src, blob in sorted(
                        inbox[dest], key=lambda entry: entry[0]
                    ):
                        conn.send(("admit", blob))
                    conn.send(("round_end",))
                admitted = 0
                any_frontier = False
                for conn in conns:
                    msg = _recv(conn)
                    admitted += msg[1]
                    any_frontier = any_frontier or msg[2]
                total += admitted
                if not any_frontier:
                    break
                if total >= self.max_states:
                    hit_budget = True
                    break
            for conn in conns:
                conn.send(("finish",))
            summaries = [_recv(conn)[1] for conn in conns]
        finally:
            for conn in conns:
                try:
                    conn.close()
                except OSError:
                    pass
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover
                    proc.terminate()
        return self._merge(summaries, rounds, hit_budget)

    # ------------------------------------------------------------------

    def _merge(
        self, summaries: list[dict], rounds: int, hit_budget: bool
    ) -> ExplorationResult:
        machine = self.machine
        result = ExplorationResult()
        result.hit_state_budget = hit_budget
        tables: dict[int, list] = {}
        for summary in summaries:
            result.states_visited += summary["visited"]
            result.transitions_taken += summary["taken"]
            result.assert_failures += summary["af"]
            result.final_outcomes |= summary["outcomes"]
            tables[summary["wid"]] = summary["parents"]

        def trace_to(wid: int, index: int) -> tuple[Transition, ...]:
            trace: list[Transition] = []
            while True:
                ref = tables[wid][index]
                if ref is None:
                    break
                wid, index, enc = ref
                trace.append(_decode_transition(machine, enc))
            trace.reverse()
            return tuple(trace)

        ub_entries = []
        for summary in summaries:
            for reason, index in summary["ub"]:
                trace = trace_to(summary["wid"], index)
                ub_entries.append((reason, trace))
        ub_entries.sort(key=lambda e: (
            e[0], len(e[1]), tuple(t.describe() for t in e[1])
        ))
        for reason, trace in ub_entries:
            result.ub_reasons.append(reason)
            result.ub_traces.append(trace)

        violation_entries = []
        for summary in summaries:
            for name, index in summary["violations"]:
                trace = trace_to(summary["wid"], index)
                state = summary["vstates"][index]
                violation_entries.append((name, trace, state))
        violation_entries.sort(key=lambda e: (
            e[0], len(e[1]), tuple(t.describe() for t in e[1])
        ))
        for name, trace, state in violation_entries:
            result.violations.append(
                InvariantViolation(state, name, trace=trace)
            )

        if OBS.enabled:
            OBS.count("sharded.rounds", rounds)
            OBS.count("sharded.states_shipped",
                      sum(s["shipped"] for s in summaries))
            OBS.count("explorer.states_admitted", result.states_visited)
        return result


def _recv(conn):
    msg = conn.recv()
    if msg[0] == "error":
        raise RuntimeError(
            f"sharded exploration worker failed:\n{msg[1]}"
        )
    return msg


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover
        return False
