"""Synchronisation and message-passing primitives built on the kernel.

These are the building blocks the network and runtime layers use:

* :class:`Mailbox` -- unbounded FIFO channel with blocking receive.
* :class:`Semaphore` -- counting semaphore (fair FIFO wakeup).
* :class:`Barrier` -- reusable N-party barrier.
* :class:`Latch` -- count-down latch (one-shot).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from .engine import SimEvent, Simulator, Waitable

__all__ = ["Mailbox", "Semaphore", "Barrier", "Latch"]


class Mailbox:
    """Unbounded FIFO of messages with generator-friendly receive.

    ``recv()`` returns a waitable; yield it to obtain the next message.
    Messages are delivered in send order, receivers are woken in
    arrival order.

    One deque, created on first use, holds either queued messages or
    waiting receivers' events, never both: a send with a receiver
    waiting hands the message over at once, so messages only queue
    while no receiver waits.  ``_receivers`` says which it holds.
    A large startup creates several mailboxes per PE, and even an
    empty deque costs 760 bytes.
    """

    __slots__ = ("sim", "name", "_queue", "_receivers")

    def __init__(self, sim: Simulator, name: str = "mbox") -> None:
        self.sim = sim
        self.name = name
        self._queue: Optional[Deque[Any]] = None
        self._receivers = False

    def __len__(self) -> int:
        if self._queue is None or self._receivers:
            return 0
        return len(self._queue)

    def send(self, item: Any) -> None:
        """Deposit a message; wakes one waiting receiver (if any)."""
        queue = self._queue
        if queue is None:
            self._queue = deque((item,))
        elif self._receivers:
            ev = queue.popleft()
            if not queue:
                self._receivers = False
            ev.succeed(item)
        else:
            queue.append(item)

    def recv(self) -> Waitable:
        """Waitable for the next message (immediate if one is queued)."""
        ev = self.sim.event()
        queue = self._queue
        if queue is None:
            self._queue = deque((ev,))
            self._receivers = True
        elif queue and not self._receivers:
            ev.succeed(queue.popleft())
        else:
            queue.append(ev)
            self._receivers = True
        return ev

    def try_recv(self) -> Optional[Any]:
        """Non-blocking receive; ``None`` when empty."""
        if self._queue and not self._receivers:
            return self._queue.popleft()
        return None


class Semaphore:
    """Counting semaphore with FIFO fairness."""

    __slots__ = ("sim", "_value", "_waiters")

    def __init__(self, sim: Simulator, value: int = 1) -> None:
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.sim = sim
        self._value = value
        self._waiters: Deque[SimEvent] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Waitable:
        ev = self.sim.event()
        if self._value > 0:
            self._value -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1

    def held(self) -> Generator:
        """``yield from sem.held()`` wrappers are left to callers; this
        just acquires (use try/finally with :meth:`release`)."""
        yield self.acquire()


class Barrier:
    """Reusable barrier for a fixed party count.

    Each participant yields :meth:`wait`.  The waitable's value is the
    generation number (0, 1, 2, ...) that completed.
    """

    __slots__ = ("sim", "parties", "generation", "_arrived", "_event")

    def __init__(self, sim: Simulator, parties: int) -> None:
        if parties < 1:
            raise ValueError("barrier needs >= 1 party")
        self.sim = sim
        self.parties = parties
        self.generation = 0
        self._arrived = 0
        self._event: SimEvent = sim.event()

    def wait(self) -> Waitable:
        self._arrived += 1
        current = self._event
        if self._arrived == self.parties:
            gen = self.generation
            self.generation += 1
            self._arrived = 0
            self._event = self.sim.event()
            current.succeed(gen)
        return current


class Latch:
    """One-shot count-down latch; fires when count reaches zero."""

    __slots__ = ("sim", "_count", "_event")

    def __init__(self, sim: Simulator, count: int) -> None:
        if count < 0:
            raise ValueError("latch count must be >= 0")
        self.sim = sim
        self._count = count
        self._event = sim.event()
        if count == 0:
            self._event.succeed()

    @property
    def count(self) -> int:
        return self._count

    def count_down(self, n: int = 1) -> None:
        if self._count <= 0:
            raise RuntimeError("latch already open")
        if n < 1:
            raise ValueError("count_down amount must be >= 1")
        self._count -= n
        if self._count < 0:
            raise RuntimeError("latch count went negative")
        if self._count == 0:
            self._event.succeed()

    def wait(self) -> Waitable:
        return self._event
