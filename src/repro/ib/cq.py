"""Completion queues."""

from __future__ import annotations

from typing import List, Optional

from ..sim import Mailbox, Simulator, Waitable
from .types import WorkCompletion

__all__ = ["CompletionQueue"]


class CompletionQueue:
    """A queue of :class:`WorkCompletion` entries.

    ``wait()`` yields the next completion (blocking the calling
    process); ``poll()`` is the non-blocking variant returning ``None``
    when empty.
    """

    __slots__ = ("sim", "name", "_mbox")

    def __init__(self, sim: Simulator, name: str = "cq") -> None:
        self.sim = sim
        self.name = name
        self._mbox = Mailbox(sim, name=name)

    def push(self, wc: WorkCompletion) -> None:
        self._mbox.send(wc)

    def wait(self) -> Waitable:
        """Waitable delivering the next :class:`WorkCompletion`."""
        return self._mbox.recv()

    def poll(self) -> Optional[WorkCompletion]:
        return self._mbox.try_recv()

    def drain(self) -> List[WorkCompletion]:
        """Pop everything currently queued (non-blocking)."""
        out = []
        while True:
            wc = self._mbox.try_recv()
            if wc is None:
                return out
            out.append(wc)

    def __len__(self) -> int:
        return len(self._mbox)
