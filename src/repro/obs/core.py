"""The observer: hierarchical spans and counters.

One module-level :data:`OBS` instance serves the whole process.  It is
**disabled by default**, and every instrumentation site in the hot
paths guards itself with a single attribute read::

    if OBS.enabled:
        OBS.count("explorer.states_admitted", admitted)

so the disabled-mode cost is one boolean test per *batched* event (hot
loops accumulate locally and emit once — see
``benchmarks/bench_obs_overhead.py`` for the measured bound).

Spans
-----
A span is one timed region of the verification pipeline.  Spans nest
via per-thread stacks, producing the hierarchy::

    chain  >  proof (level pair)  >  strategy
    obligation  >  phase (prover / explore)

Obligation spans are created by the farm workers and parented to
whatever span is active *on that thread*; ``armada serve`` runs jobs on
several threads, so consumers group by ``kind``, not by reconstructing
one global tree.

Counters attach to the innermost active span of the emitting thread
(falling back to a process-global accumulator emitted at
:meth:`Observer.disable`), which is what lets ``armada stats``
attribute prover assignments or explorer states to the obligation that
caused them.

Trace format (JSONL, one object per line)
-----------------------------------------
* ``{"type": "meta", "format": "armada-trace/1"}`` — first line.
* ``{"type": "span", "id": int, "parent": int|null, "kind": str,
  "name": str, "seconds": float, "attrs": {...}, "counters": {...}}``
  — emitted when the span closes.
* ``{"type": "counters", "counters": {...}}`` — the process-global
  counters, emitted by :meth:`disable`.

Every line is flushed as written, so a trace is readable mid-run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any

TRACE_FORMAT = "armada-trace/1"

#: Span kinds, outermost to innermost (documentation, not enforcement).
KIND_CHAIN = "chain"
KIND_PROOF = "proof"
KIND_STRATEGY = "strategy"
KIND_OBLIGATION = "obligation"
KIND_PHASE = "phase"


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; emitted as a single JSONL record on exit."""

    __slots__ = ("_obs", "id", "parent", "name", "kind", "attrs",
                 "counters", "_started")

    def __init__(self, obs: "Observer", name: str, kind: str,
                 attrs: dict) -> None:
        self._obs = obs
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.counters: dict[str, int | float] = {}
        self.id = -1
        self.parent: int | None = None
        self._started = 0.0

    def __enter__(self) -> "_Span":
        obs = self._obs
        stack = obs._stack()
        self.parent = stack[-1].id if stack else None
        with obs._lock:
            obs._next_id += 1
            self.id = obs._next_id
        stack.append(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        elapsed = time.perf_counter() - self._started
        stack = self._obs._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # unwound out of order (exception path)
            stack.remove(self)
        self._obs._emit({
            "type": "span",
            "id": self.id,
            "parent": self.parent,
            "kind": self.kind,
            "name": self.name,
            "seconds": round(elapsed, 6),
            "attrs": self.attrs,
            "counters": self.counters,
        })


class Observer:
    """Process-wide tracing/metrics sink (see module docstring)."""

    def __init__(self) -> None:
        self.enabled = False
        self._file = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._tls = threading.local()
        self._global_counters: dict[str, int | float] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def enable(self, path: str | os.PathLike) -> None:
        """Start tracing to *path* (truncates any existing file)."""
        if self.enabled:
            raise RuntimeError("observer is already enabled")
        self._file = open(path, "w", encoding="utf-8")
        self._next_id = 0
        self._global_counters = {}
        self._tls = threading.local()
        self.enabled = True
        self._emit({"type": "meta", "format": TRACE_FORMAT})

    def disable(self) -> None:
        """Flush the global counters and close the trace."""
        if not self.enabled:
            return
        self._emit({
            "type": "counters",
            "counters": dict(self._global_counters),
        })
        self.enabled = False
        handle, self._file = self._file, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # recording

    def span(self, name: str, kind: str = KIND_PHASE,
             **attrs: Any) -> "_Span | _NullSpan":
        """A context manager timing one region; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, kind, attrs)

    def count(self, name: str, n: int | float = 1) -> None:
        """Add *n* to a counter on the innermost span (or globally)."""
        if not self.enabled:
            return
        stack = self._stack()
        if stack:
            counters = stack[-1].counters
            counters[name] = counters.get(name, 0) + n
        else:
            with self._lock:
                self._global_counters[name] = (
                    self._global_counters.get(name, 0) + n
                )

    # ------------------------------------------------------------------
    # internals

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _emit(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            handle = self._file
            if handle is None:
                return
            handle.write(line + "\n")
            handle.flush()


#: The process-wide observer every instrumentation site talks to.
OBS = Observer()
