"""The liblfds-style built-in queue benchmark (§6.4 / Figure 12).

"We run (1,000 times) its built-in benchmark for evaluating queue
performance, using queue size 512."  The built-in benchmark drives
enqueue/dequeue operation pairs through the ring as fast as possible
and reports throughput in operations per second.

Two harnesses are provided:

* :func:`single_thread_throughput` — the paced mode liblfds uses for
  its cross-variant comparison: one thread alternately fills and drains
  the ring, so every cycle exercises both index paths and the element
  array.  Deterministic, low variance; this is what the Figure 12
  reproduction uses.
* :func:`two_thread_throughput` — a real producer/consumer pair on
  ``threading`` threads, for the concurrency smoke benchmark.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.record import Record


class ThroughputResult(Record):
    operations: int
    seconds: float

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.seconds if self.seconds > 0 else 0.0


def single_thread_throughput(
    queue_factory: Callable[[int], object],
    queue_size: int = 512,
    operations: int = 100_000,
) -> ThroughputResult:
    """Alternate bursts of enqueues and dequeues through the ring."""
    queue = queue_factory(queue_size)
    burst = queue.capacity  # type: ignore[attr-defined]
    completed = 0
    started = time.perf_counter()
    value = 0
    while completed < operations:
        n = min(burst, operations - completed)
        for _ in range(n):
            queue.try_enqueue(value)  # type: ignore[attr-defined]
            value += 1
        for _ in range(n):
            queue.try_dequeue()  # type: ignore[attr-defined]
        completed += 2 * n
    elapsed = time.perf_counter() - started
    return ThroughputResult(completed, elapsed)


def two_thread_throughput(
    queue_factory: Callable[[int], object],
    queue_size: int = 512,
    items: int = 50_000,
) -> ThroughputResult:
    """A real SPSC producer/consumer pair."""
    queue = queue_factory(queue_size)
    received: list[int] = []

    def producer() -> None:
        sent = 0
        while sent < items:
            if queue.try_enqueue(sent):  # type: ignore[attr-defined]
                sent += 1

    def consumer() -> None:
        got = 0
        while got < items:
            ok, _value = queue.try_dequeue()  # type: ignore[attr-defined]
            if ok:
                got += 1
        received.append(got)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=producer),
        threading.Thread(target=consumer),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    assert received == [items]
    return ThroughputResult(2 * items, elapsed)
