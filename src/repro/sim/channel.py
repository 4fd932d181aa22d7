"""Unbounded FIFO channel for inter-process message passing.

Modeled after an MPI-style mailbox: any number of producers ``put`` items
(never blocking — the channel is unbounded, matching the paper's one-way
SOAP messages which are fire-and-forget), and consumers ``yield ch.get()``
to receive in FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Environment, Event


class ChannelClosed(Exception):
    """Failure delivered to getters when the channel closes empty."""


class Channel:
    """FIFO queue of items with event-based ``get``."""

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> None:
        """Enqueue *item*; wakes the oldest waiting getter, if any."""
        if self._closed:
            raise ChannelClosed(f"put() on closed channel {self.name!r}")
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = self.env.event()
        if self._items:
            ev.succeed(self._items.popleft())
        elif self._closed:
            ev.fail(ChannelClosed(f"get() on closed channel {self.name!r}"))
            ev._defused = False
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any:
        """Non-blocking get; raises :class:`LookupError` when empty."""
        if not self._items:
            raise LookupError(f"channel {self.name!r} is empty")
        return self._items.popleft()

    def close(self) -> None:
        """Close the channel; pending and future getters fail."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            ev = self._getters.popleft()
            ev.fail(ChannelClosed(f"channel {self.name!r} closed"))
