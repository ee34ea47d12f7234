"""Wire protocol of the ``armada serve`` job API.

The daemon speaks *line-delimited JSON* over a Unix-domain socket or a
TCP port: every request is one JSON object on one line, every response
is one JSON object on one line.  The framing is deliberately primitive
— any language with a socket and a JSON parser is a client; ``nc`` and
``socat`` work for debugging — and it multiplexes cleanly through an
asyncio server because a read never spans requests.

Requests carry an ``op`` plus op-specific fields, and each gets
exactly one response, which always carries ``ok`` (bool).  Failures
carry ``error`` (a message string).

Ops
---
``ping``    → liveness + protocol version.
``submit``  → enqueue a job: ``kind`` (verify/analyze/explore),
              ``source`` (Armada program text), ``filename`` and
              ``options``.
``status``  → job state, the submitted/started/finished timestamps
              and ``cancel_requested``.
``result``  → the job's result payload; ``wait: true`` blocks (server
              side, cheaply) until the job reaches a terminal state.
``cancel``  → request cancellation: a queued job never starts; a
              running job's farm drains (in-flight obligations finish,
              the rest short-circuit inconclusive).
``stats``   → daemon-wide counters: jobs by state, shared-cache
              hit/miss/eviction numbers, uptime.
``shutdown``→ ask the daemon to drain and exit (the programmatic
              equivalent of SIGTERM; used by tests and CI).

Job states form a tiny lattice: ``queued → running → (done | error |
cancelled)``; ``done`` results carry a verification ``status``
(verified / failed / inconclusive) of their own, and a verify result
carries the farm's counts (``farm``: jobs, cache hits, executed, ...),
which say how much of the job the shared proof cache served.
"""

from __future__ import annotations

import json
from typing import Any

#: Bumped when a request or response shape changes incompatibly.
PROTOCOL_VERSION = 2

#: Hard per-line ceiling: a submitted source plus framing must fit one
#: line.  1000 lines of Armada is ~30 KiB; 8 MiB is not a tight budget,
#: it is a defence against a client streaming garbage at the daemon.
MAX_LINE_BYTES = 8 * 1024 * 1024

# -- ops ---------------------------------------------------------------
OP_PING = "ping"
OP_SUBMIT = "submit"
OP_STATUS = "status"
OP_RESULT = "result"
OP_CANCEL = "cancel"
OP_STATS = "stats"
OP_SHUTDOWN = "shutdown"
OPS = (OP_PING, OP_SUBMIT, OP_STATUS, OP_RESULT, OP_CANCEL, OP_STATS,
       OP_SHUTDOWN)

# -- job kinds ---------------------------------------------------------
KIND_VERIFY = "verify"
KIND_ANALYZE = "analyze"
KIND_EXPLORE = "explore"
KINDS = (KIND_VERIFY, KIND_ANALYZE, KIND_EXPLORE)

# -- job states --------------------------------------------------------
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
CANCELLED = "cancelled"
TERMINAL_STATES = (DONE, ERROR, CANCELLED)


class ProtocolError(Exception):
    """A malformed request or response line."""


def encode(message: dict[str, Any]) -> bytes:
    """One message → one newline-terminated JSON line."""
    return json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


def decode(line: bytes | str) -> dict[str, Any]:
    """One line → one message dict, or :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode()
        except UnicodeDecodeError as error:
            raise ProtocolError(f"request is not UTF-8: {error}")
    line = line.strip()
    if not line:
        raise ProtocolError("empty request line")
    try:
        message = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"request is not JSON: {error}")
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


def ok(**fields: Any) -> dict[str, Any]:
    response = {"ok": True}
    response.update(fields)
    return response


def error(message: str, **fields: Any) -> dict[str, Any]:
    response: dict[str, Any] = {"ok": False, "error": message}
    response.update(fields)
    return response

