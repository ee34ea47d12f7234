"""Thin synchronous client for the ``armada serve`` daemon.

One request per connection: the client opens a socket, writes one JSON
line, reads the one response line, and closes.  That keeps the client
free of connection state (no reconnect logic, no pipelining
bookkeeping) at the cost of a socket handshake per call — negligible
next to any verification job, and exactly what the CLI subcommands
(``armada submit/status/result/cancel``) need.

The daemon is the source of truth for all job state; this module only
frames requests and raises :class:`ServeError` when the daemon says
``"ok": false``.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any

from repro.errors import ArmadaError
from repro.serve import protocol


class ServeError(ArmadaError):
    """The daemon refused a request or the connection failed."""

    def __init__(self, message: str,
                 response: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.response = response or {}


class ServeClient:
    """Talk to one daemon, by Unix socket path or TCP host:port."""

    def __init__(
        self,
        socket_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float | None = 60.0,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ServeError(
                "ServeClient needs a socket path or a TCP port "
                "(exactly one)"
            )
        self.socket_path = Path(socket_path) if socket_path else None
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    # transport

    def _connect(self) -> socket.socket:
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(str(self.socket_path))
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            return sock
        except OSError as error:
            target = (
                str(self.socket_path) if self.socket_path is not None
                else f"{self.host}:{self.port}"
            )
            raise ServeError(
                f"cannot reach armada serve at {target}: {error} "
                "(is the daemon running?)"
            )

    def request(self, message: dict[str, Any],
                timeout: float | None = ...) -> dict[str, Any]:
        """One request → its response."""
        sock = self._connect()
        if timeout is not ...:
            sock.settimeout(timeout)
        try:
            with sock, sock.makefile("rwb") as wire:
                wire.write(protocol.encode(message))
                wire.flush()
                line = wire.readline(protocol.MAX_LINE_BYTES)
            if not line:
                raise ServeError(
                    "connection closed mid-response (daemon shutting "
                    "down?)"
                )
            response = protocol.decode(line)
        except protocol.ProtocolError as error:
            raise ServeError(f"malformed daemon response: {error}")
        except socket.timeout:
            raise ServeError(
                f"daemon did not answer within {self.timeout}s"
            )
        except OSError as error:
            raise ServeError(f"connection to daemon failed: {error}")
        if not response.get("ok"):
            raise ServeError(
                str(response.get("error", "daemon refused request")),
                response,
            )
        return response

    # ------------------------------------------------------------------
    # ops

    def ping(self) -> dict[str, Any]:
        return self.request({"op": protocol.OP_PING})

    def wait_until_ready(self, timeout: float = 30.0,
                         interval: float = 0.05) -> None:
        """Poll ``ping`` until the daemon answers (startup races)."""
        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                self.ping()
                return
            except ServeError as error:
                last = error
                time.sleep(interval)
        raise ServeError(
            f"daemon not ready after {timeout}s: {last}"
        )

    def submit(
        self,
        source: str,
        *,
        kind: str = protocol.KIND_VERIFY,
        filename: str = "<submitted>",
        options: dict[str, Any] | None = None,
    ) -> str:
        """Enqueue a job; returns its id."""
        request: dict[str, Any] = {
            "op": protocol.OP_SUBMIT,
            "kind": kind,
            "source": source,
            "filename": filename,
        }
        if options:
            request["options"] = options
        return str(self.request(request)["id"])

    def status(self, job_id: str) -> dict[str, Any]:
        return self.request({"op": protocol.OP_STATUS, "id": job_id})

    def result(self, job_id: str, wait: bool = True,
               timeout: float | None = None) -> dict[str, Any]:
        """The job's terminal response (``state``, ``result``, ...).

        ``wait=True`` blocks server-side until the job settles; pass
        ``timeout`` to bound the wait.  The socket timeout is widened
        to outlast the server-side wait.
        """
        request: dict[str, Any] = {
            "op": protocol.OP_RESULT, "id": job_id,
        }
        if wait:
            request["wait"] = True
            if timeout is not None:
                request["timeout"] = timeout
        sock_timeout = (
            None if (wait and timeout is None)
            else (timeout + 30.0 if timeout is not None
                  else self.timeout)
        )
        return self.request(request, timeout=sock_timeout)

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.request({"op": protocol.OP_CANCEL, "id": job_id})

    def stats(self) -> dict[str, Any]:
        return self.request({"op": protocol.OP_STATS})["stats"]

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to drain and exit."""
        return self.request({"op": protocol.OP_SHUTDOWN})
