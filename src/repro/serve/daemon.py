"""``armada serve`` — the verification-as-a-service daemon.

One asyncio event loop multiplexes any number of concurrent clients
onto a small pool of *job slots*.  The loop itself never verifies
anything: every job body (parse, translate, discharge obligations
through a :class:`~repro.farm.VerificationFarm`) runs on an executor
thread, so a client polling ``status`` gets an answer in microseconds
while a six-level chain grinds through its state sweeps next door.

Shared, multi-tenant state — the reason a daemon beats N batch
processes:

* one :class:`~repro.farm.cache.ProofCache` (byte-capped, LRU) serves
  every job, so tenant A's verified obligations discharge tenant B's
  identical ones by file read;
* one :class:`~repro.serve.incremental.OutcomeCache` reuses whole
  proof outcomes when a resubmission left both levels, the recipe, and
  the configuration untouched — including the whole-program bounded
  checks the lemma cache cannot cover;
* one :class:`~repro.serve.incremental.FingerprintIndex` diffs each
  submission's per-level machine fingerprints against the previous one
  under the same name, reporting exactly which levels changed and
  which proofs that invalidated.

Lifecycle: SIGTERM/SIGINT (or the ``shutdown`` op) starts a *drain* —
new submissions are rejected, running farms finish their in-flight
obligation and short-circuit the rest as inconclusive, and unfinished
jobs stay in ``pending.jsonl`` so the next ``armada serve`` on the same
state directory re-enqueues them.  Every settled verdict was stored in
the shared proof cache as its obligation returned, and the cache is
content-addressed, so the resumed run re-checks only what the
interrupted one had not settled.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.errors import ArmadaError
from repro.farm import VerificationFarm
from repro.farm.cache import ProofCache
from repro.obs import OBS
from repro.record import Fresh, Record
from repro.serve import protocol
from repro.serve.incremental import FingerprintIndex, OutcomeCache
from repro.serve.protocol import (
    CANCELLED,
    DONE,
    ERROR,
    KIND_ANALYZE,
    KIND_EXPLORE,
    KIND_VERIFY,
    KINDS,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
)

#: How long the drain phase waits for in-flight jobs before giving up
#: and exiting anyway (the proof cache stores each settled verdict as
#: its obligation returns, so even a hard exit loses no settled
#: obligation).
DRAIN_GRACE_SECONDS = 30.0


def _now() -> float:
    return time.time()


class ServeJob(Record):
    """One submitted job, from queue to terminal state."""

    id: str
    kind: str
    name: str
    source: str
    filename: str
    options: dict[str, Any]
    state: str = QUEUED
    submitted_at: float = Fresh(_now)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    incremental: dict[str, Any] | None = None
    cancel_requested: bool = False
    #: Drained by daemon shutdown (not by a user cancel): stays in
    #: ``pending.jsonl`` so a restarted daemon re-enqueues it.
    requeue_on_restart: bool = False
    #: The farm currently discharging this job (verify only) — the
    #: handle ``cancel`` uses to drain a running job.
    farm: VerificationFarm | None = None
    events: list[dict[str, Any]] = Fresh(list)
    done: asyncio.Event = Fresh(asyncio.Event)

    def event(self, kind: str, **detail: Any) -> None:
        self.events.append({
            "seq": len(self.events),
            "kind": kind,
            "time": _now(),
            **detail,
        })

    def runtime_seconds(self) -> float | None:
        if self.started_at is None:
            return None
        end = self.finished_at if self.finished_at is not None else _now()
        return end - self.started_at

    def describe(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "name": self.name,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "runtime_seconds": self.runtime_seconds(),
            "cancel_requested": self.cancel_requested,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.incremental is not None:
            payload["incremental"] = self.incremental
        if self.result is not None and "status" in self.result:
            payload["status"] = self.result["status"]
        return payload


class ArmadaDaemon:
    """The server: one per state directory."""

    def __init__(
        self,
        socket_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        state_dir: str | Path = ".armada-serve",
        slots: int = 2,
        cache_max_bytes: int | None = None,
    ) -> None:
        if socket_path is None and port is None:
            socket_path = Path(state_dir) / "armada.sock"
        self.socket_path = Path(socket_path) if socket_path else None
        self.host = host
        self.port = port
        self.state_dir = Path(state_dir)
        self.slots = slots
        self.started_at = _now()

        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ProofCache(
            self.state_dir / "cache", max_bytes=cache_max_bytes
        )
        self.outcomes = OutcomeCache()
        self.index = FingerprintIndex(
            self.state_dir / "fingerprints.json"
        )
        self.pending_path = self.state_dir / "pending.jsonl"

        self.jobs: dict[str, ServeJob] = {}
        self._ids = itertools.count(1)
        self._queue: asyncio.Queue[ServeJob] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop = threading.Event()
        self._stop_async: asyncio.Event | None = None
        self._pending_lock = threading.Lock()
        self.draining = False
        #: Counters the ``stats`` op reports beside the cache numbers.
        self.submitted = 0
        self.completed = 0

    # ------------------------------------------------------------------
    # pending log (restart resume)

    def _append_pending(self, record: dict[str, Any]) -> None:
        with self._pending_lock:
            with open(self.pending_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()

    def _load_pending(self) -> list[dict[str, Any]]:
        """Unfinished submissions from a previous daemon's pending log
        (torn/garbage lines skipped), compacting the log on the way."""
        records: dict[str, dict[str, Any]] = {}
        try:
            text = self.pending_path.read_text(encoding="utf-8")
        except OSError:
            return []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict) or "id" not in record:
                continue
            if record.get("done"):
                records.pop(record["id"], None)
            elif isinstance(record.get("source"), str):
                records[record["id"]] = record
        survivors = list(records.values())
        with self._pending_lock:
            with open(self.pending_path, "w", encoding="utf-8") as fh:
                for record in survivors:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        return survivors

    def _resume_pending(self) -> int:
        """Re-enqueue jobs a previous daemon left unfinished."""
        resumed = 0
        max_id = 0
        for record in self._load_pending():
            job = ServeJob(
                id=str(record["id"]),
                kind=record.get("kind", KIND_VERIFY),
                name=str(record.get("name", "<resumed>")),
                source=record["source"],
                filename=str(record.get("filename", "<resumed>")),
                options=record.get("options", {}) or {},
            )
            job.event("resumed", detail="re-enqueued after restart")
            self.jobs[job.id] = job
            assert self._queue is not None
            self._queue.put_nowait(job)
            resumed += 1
            tail = job.id.rsplit("-", 1)[-1]
            if tail.isdigit():
                max_id = max(max_id, int(tail))
        if max_id:
            self._ids = itertools.count(max_id + 1)
        return resumed

    # ------------------------------------------------------------------
    # job execution (executor threads)

    def _execute(self, job: ServeJob) -> None:
        """Run one job body to completion on an executor thread."""
        with OBS.span(job.id, "serve.job", job_kind=job.kind):
            try:
                if job.kind == KIND_VERIFY:
                    job.result = self._run_verify(job)
                elif job.kind == KIND_ANALYZE:
                    job.result = self._run_analyze(job)
                elif job.kind == KIND_EXPLORE:
                    job.result = self._run_explore(job)
                else:
                    raise ArmadaError(f"unknown job kind {job.kind!r}")
                job.state = CANCELLED if job.cancel_requested else DONE
            except ArmadaError as error:
                job.state = ERROR
                job.error = str(error)
            except Exception as error:  # noqa: BLE001 — a job must
                # never take the daemon down with it.
                job.state = ERROR
                job.error = f"internal error: {error!r}"

    def _run_verify(self, job: ServeJob) -> dict[str, Any]:
        from repro.lang.frontend import check_program
        from repro.proofs.engine import ProofEngine

        options = job.options
        checked = check_program(job.source, job.filename)
        farm = VerificationFarm(cache=self.cache)
        job.farm = farm
        if job.cancel_requested or self.draining:
            # Covers the race where a cancel or drain landed between
            # this job leaving the queue and the farm existing.
            farm.request_shutdown()
        engine = ProofEngine(
            checked,
            max_states=int(options.get("max_states", 200_000)),
            validate_refinement=str(options.get("validate", "auto")),
            farm=farm,
            outcome_cache=self.outcomes,
            memory_model=options.get("memory_model"),
        )
        fingerprints = engine.level_fingerprints()
        diff = self.index.diff(job.name, fingerprints)
        job.incremental = diff.to_dict(checked.program.proofs)
        job.event("incremental", **job.incremental)
        try:
            outcome = engine.run_all()
        finally:
            job.farm = None
        if not outcome.inconclusive and not job.cancel_requested:
            # An inconclusive (timed-out / drained) run must not move
            # the index: the next submission of the same source should
            # still see those levels as "changed" work to finish.
            self.index.record(job.name, fingerprints)
        reused = sum(1 for o in outcome.outcomes if o.from_cache)
        job.incremental["reused_proofs"] = reused
        job.incremental["reverified_proofs"] = (
            len(outcome.outcomes) - reused
        )
        summary = farm.summary()
        return {
            "status": outcome.status,
            "memory_model": engine.memory_model,
            "end_to_end": outcome.end_to_end,
            "chain": outcome.chain,
            "chain_error": outcome.chain_error,
            "incremental": job.incremental,
            "outcomes": [
                {
                    "proof": o.proof_name,
                    "strategy": o.strategy,
                    "status": (
                        "verified" if o.success
                        else "inconclusive" if o.inconclusive
                        else "failed"
                    ),
                    "lemmas": o.lemma_count,
                    "generated_sloc": o.generated_sloc,
                    "elapsed_seconds": round(o.elapsed_seconds, 6),
                    "from_cache": o.from_cache,
                    "error": o.error,
                }
                for o in outcome.outcomes
            ],
            "farm": summary.to_dict(),
        }

    def _run_analyze(self, job: ServeJob) -> dict[str, Any]:
        from repro.analysis import analyze_level
        from repro.lang.frontend import check_program

        options = job.options
        checked = check_program(job.source, job.filename)
        level = options.get("level") or checked.program.levels[0].name
        ctx = checked.contexts.get(level)
        if ctx is None:
            names = ", ".join(l.name for l in checked.program.levels)
            raise ArmadaError(
                f"no level named {level} (levels: {names})"
            )
        result = analyze_level(
            ctx,
            max_states=int(options.get("max_states", 200_000)),
            memory_model=options.get("memory_model"),
        )
        return {
            "status": "analyzed",
            "level": level,
            "memory_model": result.memory_model,
            "racy": result.racy(),
            "report": json.loads(result.report().to_json()),
        }

    def _run_explore(self, job: ServeJob) -> dict[str, Any]:
        from repro.explore import Explorer, exploration_summary
        from repro.lang.frontend import check_program
        from repro.machine.translator import translate_level

        options = job.options
        checked = check_program(job.source, job.filename)
        level = options.get("level") or checked.program.levels[0].name
        ctx = checked.contexts.get(level)
        if ctx is None:
            names = ", ".join(l.name for l in checked.program.levels)
            raise ArmadaError(
                f"no level named {level} (levels: {names})"
            )
        machine = translate_level(
            ctx, memory_model=options.get("memory_model")
        )
        result = Explorer(
            machine,
            max_states=int(options.get("max_states", 200_000)),
        ).explore()
        summary = exploration_summary(machine, level, result)
        summary["status"] = "explored"
        return summary

    # ------------------------------------------------------------------
    # worker tasks (event loop side)

    async def _worker(self) -> None:
        assert self._queue is not None and self._loop is not None
        while True:
            job = await self._queue.get()
            if job.state != QUEUED:
                continue  # cancelled while queued
            if self.draining:
                # Leave the job QUEUED (and therefore in the pending
                # log): the next daemon on this state dir runs it.
                continue
            job.state = RUNNING
            job.started_at = _now()
            job.event("started")
            if OBS.enabled:
                OBS.count("serve.jobs_started")
            try:
                await self._loop.run_in_executor(
                    self._executor, self._execute, job
                )
            except asyncio.CancelledError:
                raise
            except Exception as err:  # noqa: BLE001 — _execute
                # catches everything itself; this is a belt for
                # failures in the dispatch machinery around it, which
                # must not silently kill the worker slot.
                job.state = ERROR
                job.error = f"internal error: {err!r}"
            job.finished_at = _now()
            job.event("finished", state=job.state,
                      error=job.error,
                      status=(job.result or {}).get("status"))
            self.completed += 1
            drained_unfinished = (
                (job.requeue_on_restart or self.draining)
                and not job.cancel_requested
                and job.result is not None
                and job.result.get("status") == "inconclusive"
            )
            if drained_unfinished:
                pass  # stays in pending.jsonl for the next daemon
            else:
                self._append_pending({"id": job.id, "done": True})
            job.done.set()

    # ------------------------------------------------------------------
    # protocol handlers (event loop side)

    async def _send(self, writer: asyncio.StreamWriter,
                    message: dict[str, Any]) -> None:
        writer.write(protocol.encode(message))
        await writer.drain()

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await self._send(writer, protocol.error(
                        "request line too long"))
                    break
                if not line:
                    break
                try:
                    request = protocol.decode(line)
                except protocol.ProtocolError as err:
                    await self._send(writer, protocol.error(str(err)))
                    continue
                try:
                    await self._dispatch(request, writer)
                except (ConnectionError, BrokenPipeError):
                    raise
                except Exception as err:  # noqa: BLE001 — one bad
                    # request must not sever every other client.
                    await self._send(writer, protocol.error(
                        f"internal error: {err!r}"))
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, request: dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        if op == protocol.OP_PING:
            await self._send(writer, protocol.ok(
                pong=True,
                version=protocol.PROTOCOL_VERSION,
                draining=self.draining,
            ))
        elif op == protocol.OP_SUBMIT:
            await self._op_submit(request, writer)
        elif op == protocol.OP_STATUS:
            job = await self._find(request, writer)
            if job is not None:
                await self._send(writer, protocol.ok(**job.describe()))
        elif op == protocol.OP_RESULT:
            await self._op_result(request, writer)
        elif op == protocol.OP_CANCEL:
            await self._op_cancel(request, writer)
        elif op == protocol.OP_EVENTS:
            await self._op_events(request, writer)
        elif op == protocol.OP_STATS:
            await self._send(writer, protocol.ok(stats=self.stats()))
        elif op == protocol.OP_SHUTDOWN:
            await self._send(writer, protocol.ok(draining=True))
            self.initiate_drain("shutdown op")
        else:
            await self._send(writer, protocol.error(
                f"unknown op {op!r} (expected one of "
                f"{', '.join(protocol.OPS)})"))

    async def _find(self, request: dict[str, Any],
                    writer: asyncio.StreamWriter) -> ServeJob | None:
        job = self.jobs.get(str(request.get("id")))
        if job is None:
            await self._send(writer, protocol.error(
                f"no such job {request.get('id')!r}"))
        return job

    async def _op_submit(self, request: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        if self.draining:
            await self._send(writer, protocol.error(
                "daemon is draining; resubmit after restart"))
            return
        kind = request.get("kind", KIND_VERIFY)
        source = request.get("source")
        if kind not in KINDS:
            await self._send(writer, protocol.error(
                f"unknown kind {kind!r} (expected one of "
                f"{', '.join(KINDS)})"))
            return
        if not isinstance(source, str) or not source.strip():
            await self._send(writer, protocol.error(
                "submit requires a non-empty 'source' string"))
            return
        filename = str(request.get("filename", "<submitted>"))
        options = request.get("options") or {}
        if not isinstance(options, dict):
            await self._send(writer, protocol.error(
                "'options' must be a JSON object"))
            return
        job = ServeJob(
            id=f"j-{next(self._ids):06d}",
            kind=kind,
            name=str(request.get("name", filename)),
            source=source,
            filename=filename,
            options=options,
        )
        job.event("submitted", job_kind=kind, name=job.name)
        self.jobs[job.id] = job
        self.submitted += 1
        if OBS.enabled:
            OBS.count("serve.jobs_submitted")
        self._append_pending({
            "id": job.id, "kind": kind, "name": job.name,
            "source": source, "filename": filename,
            "options": options,
        })
        assert self._queue is not None
        self._queue.put_nowait(job)
        await self._send(writer, protocol.ok(id=job.id, state=job.state))

    async def _op_result(self, request: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        job = await self._find(request, writer)
        if job is None:
            return
        if request.get("wait") and job.state not in TERMINAL_STATES:
            timeout = request.get("timeout")
            try:
                await asyncio.wait_for(
                    job.done.wait(),
                    float(timeout) if timeout is not None else None,
                )
            except asyncio.TimeoutError:
                await self._send(writer, protocol.error(
                    f"job {job.id} still {job.state} after "
                    f"{timeout}s", id=job.id, state=job.state))
                return
        payload = job.describe()
        if job.state not in TERMINAL_STATES:
            await self._send(writer, protocol.error(
                f"job {job.id} is {job.state}; pass 'wait': true or "
                "poll later", **payload))
            return
        await self._send(writer, protocol.ok(
            result=job.result, **payload))

    async def _op_cancel(self, request: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        job = await self._find(request, writer)
        if job is None:
            return
        if job.state in TERMINAL_STATES:
            await self._send(writer, protocol.ok(**job.describe()))
            return
        job.cancel_requested = True
        job.event("cancel_requested")
        if OBS.enabled:
            OBS.count("serve.jobs_cancelled")
        if job.state == QUEUED:
            job.state = CANCELLED
            job.finished_at = _now()
            job.event("finished", state=CANCELLED)
            self._append_pending({"id": job.id, "done": True})
            job.done.set()
        elif job.farm is not None:
            # Running verify: drain its farm.  In-flight obligations
            # finish; queued ones short-circuit inconclusive.
            job.farm.request_shutdown()
        await self._send(writer, protocol.ok(**job.describe()))

    async def _op_events(self, request: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        job = await self._find(request, writer)
        if job is None:
            return
        sent = 0
        wait = bool(request.get("wait"))
        while True:
            while sent < len(job.events):
                await self._send(writer, protocol.stream(
                    id=job.id, event=job.events[sent]))
                sent += 1
            if job.state in TERMINAL_STATES or not wait:
                break
            try:
                await asyncio.wait_for(job.done.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                pass
        await self._send(writer, protocol.ok(
            id=job.id, done=True, state=job.state, events=sent))

    # ------------------------------------------------------------------
    # stats

    def stats(self) -> dict[str, Any]:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "uptime_seconds": _now() - self.started_at,
            "draining": self.draining,
            "slots": self.slots,
            "submitted": self.submitted,
            "completed": self.completed,
            "jobs": states,
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "quarantined": self.cache.quarantined,
                "evictions": self.cache.evictions,
                "evicted_bytes": self.cache.evicted_bytes,
                "max_bytes": self.cache.max_bytes,
                "bytes": self.cache.total_bytes(),
                "entries": len(self.cache),
            },
            "outcome_cache": self.outcomes.stats(),
        }

    # ------------------------------------------------------------------
    # lifecycle

    def initiate_drain(self, reason: str = "signal") -> None:
        """Begin graceful shutdown; safe to call more than once and
        from signal handlers."""
        already_draining = self.draining
        self.draining = True
        # Always (re-)signal the stop events: a second drain request
        # must still stop a daemon whose ``draining`` flag was set
        # before the loop existed.
        self._stop.set()
        if self._loop is not None and self._stop_async is not None:
            self._loop.call_soon_threadsafe(self._stop_async.set)
        if already_draining:
            return
        if OBS.enabled:
            OBS.count("serve.drains")
        for job in self.jobs.values():
            if job.state == RUNNING:
                job.requeue_on_restart = True
                if job.farm is not None:
                    job.farm.request_shutdown()
            elif job.state == QUEUED:
                job.requeue_on_restart = True

    def stop_from_thread(self) -> None:
        """Thread-safe shutdown trigger for embedding tests."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                self.initiate_drain, "external stop")

    async def run(self, ready: threading.Event | None = None) -> int:
        """Serve until drained.  Returns the process exit code."""
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self.slots,
            thread_name_prefix="armada-serve",
        )
        if self._stop.is_set():
            self._stop_async.set()
        resumed = self._resume_pending()
        if resumed:
            self._log(f"resumed {resumed} unfinished job(s) from "
                      f"{self.pending_path}")

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self.initiate_drain,
                    signal.Signals(signum).name,
                )
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or exotic platform

        if self.socket_path is not None:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self.socket_path.unlink()
            except OSError:
                pass
            server = await asyncio.start_unix_server(
                self._handle_client, path=str(self.socket_path),
                limit=protocol.MAX_LINE_BYTES,
            )
            endpoint = str(self.socket_path)
        else:
            server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port,
                limit=protocol.MAX_LINE_BYTES,
            )
            sockets = server.sockets or []
            if sockets and self.port in (None, 0):
                self.port = sockets[0].getsockname()[1]
            endpoint = f"{self.host}:{self.port}"
        workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.slots)
        ]
        self._log(f"listening on {endpoint} "
                  f"({self.slots} slot(s), state {self.state_dir})")
        if ready is not None:
            ready.set()
        try:
            await self._stop_async.wait()
        finally:
            server.close()
            await server.wait_closed()
            # Drain, phase 1: give in-flight jobs the grace period to
            # finish their current obligation and post-process (done
            # marker, finished event).  Their farms were already told
            # to shut down, so "finish" means one obligation, not the
            # whole queue.
            running = [
                job for job in self.jobs.values()
                if job.state == RUNNING
            ]
            if running:
                try:
                    await asyncio.wait_for(
                        asyncio.gather(
                            *(job.done.wait() for job in running)
                        ),
                        timeout=DRAIN_GRACE_SECONDS,
                    )
                except asyncio.TimeoutError:
                    self._log(
                        "grace period expired with job(s) still "
                        "running; they stay pending for the next "
                        "daemon"
                    )
            # Phase 2: workers now sit in queue.get (or in a job body
            # that outlived the grace period) — cancel them.
            for task in workers:
                task.cancel()
            await asyncio.gather(*workers, return_exceptions=True)
            assert self._executor is not None
            self._executor.shutdown(wait=True, cancel_futures=True)
            if self.socket_path is not None:
                try:
                    self.socket_path.unlink()
                except OSError:
                    pass
            self._log("drained; exiting")
        return 0

    def _log(self, message: str) -> None:
        import sys

        print(f"armada serve: {message}", file=sys.stderr, flush=True)


def run_daemon(daemon: ArmadaDaemon) -> int:
    """Blocking entry point used by the CLI."""
    return asyncio.run(daemon.run())


class DaemonThread:
    """An in-process daemon on a background thread (tests, benchmarks).

    The event loop runs on the thread; :meth:`stop` initiates the same
    drain SIGTERM would and joins.  Use as a context manager.
    """

    def __init__(self, daemon: ArmadaDaemon) -> None:
        self.daemon = daemon
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="armada-serve-loop", daemon=True,
        )
        self.exit_code: int | None = None

    def _run(self) -> None:
        self.exit_code = asyncio.run(self.daemon.run(ready=self._ready))

    def __enter__(self) -> "DaemonThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("armada serve daemon failed to start")
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def stop(self, timeout: float = DRAIN_GRACE_SECONDS + 5) -> None:
        self.daemon.stop_from_thread()
        self._thread.join(timeout=timeout)
