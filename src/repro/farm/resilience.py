"""Deadline and drain policy for the verification farm.

One :class:`ResilienceConfig` travels with a farm and answers two
questions the workers ask about every obligation:

* **May it start?**  Not once a drain was requested (the
  :class:`ShutdownToken`), and not once the whole-chain deadline budget
  (``chain_deadline``, armed at the farm's first discharge) is spent.
  Either way the obligation short-circuits to an inconclusive verdict
  instead of hanging.
* **How long may it run?**  The tighter of the per-obligation
  wall-clock deadline (``obligation_timeout``) and what is left of the
  chain budget.  An expired obligation yields a TIMEOUT verdict —
  *inconclusive*, never refuted.

The default config has no deadlines, so the workers call each
obligation directly.
"""

from __future__ import annotations

import threading
import time

from repro.record import Record


class ShutdownToken:
    """A one-way drain signal shared by a farm and its workers.

    Once requested (SIGTERM/SIGINT handler, a serve-side cancel), the
    obligation currently executing finishes normally, and every
    *not-yet-started* obligation short-circuits to an UNKNOWN verdict —
    inconclusive, so it is never cached and a resumed run re-checks
    it.  The token is monotonic: there is no way to
    un-request a drain, which keeps the worker-side check a single
    lock-free ``Event.is_set``.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def request(self) -> None:
        self._event.set()

    @property
    def requested(self) -> bool:
        return self._event.is_set()


class ResilienceConfig(Record):
    """Deadline and drain policy for one farm."""

    #: Per-obligation wall-clock deadline in seconds; None = unbounded.
    obligation_timeout: float | None = None
    #: Whole-chain wall-clock budget in seconds, measured from the
    #: farm's first discharge; None = unbounded.
    chain_deadline: float | None = None
    #: Cooperative drain signal; None = this farm cannot be drained.
    shutdown: ShutdownToken | None = None
    #: Monotonic timestamp the chain budget expires at; armed lazily.
    deadline_at: float | None = None

    def arm(self) -> None:
        """Start the chain budget clock (idempotent)."""
        if self.chain_deadline is not None and self.deadline_at is None:
            self.deadline_at = time.monotonic() + self.chain_deadline

    def chain_expired(self) -> bool:
        return (
            self.deadline_at is not None
            and time.monotonic() >= self.deadline_at
        )

    def shutdown_requested(self) -> bool:
        return self.shutdown is not None and self.shutdown.requested

    def attempt_budget(self) -> float | None:
        """Seconds one obligation may run: the tighter of the
        obligation deadline and what is left of the chain budget."""
        remaining = None
        if self.deadline_at is not None:
            remaining = max(0.0, self.deadline_at - time.monotonic())
        if self.obligation_timeout is None:
            return remaining
        if remaining is None:
            return self.obligation_timeout
        return min(self.obligation_timeout, remaining)

    def describe(self) -> str:
        parts = []
        if self.obligation_timeout is not None:
            parts.append(f"obligation<={self.obligation_timeout:g}s")
        if self.chain_deadline is not None:
            parts.append(f"chain<={self.chain_deadline:g}s")
        return ", ".join(parts) or "no deadlines"
