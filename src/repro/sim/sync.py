"""Synchronization primitives for simulated processes."""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.core import Environment, Event


class Lock:
    """A FIFO mutex for simulation coroutines.

    Usage::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._locked = False
        self._waiters: Deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        ev = self.env.event()
        if not self._locked:
            self._locked = True
            ev.succeed()
        else:
            self._waiters.append(ev)
        san = self.env.san
        if san is not None:
            # Ownership lands on whichever process resumes on ev.
            san.on_acquire(self, ev)
        return ev

    def release(self) -> None:
        if not self._locked:
            raise RuntimeError("release() of an unlocked Lock")
        san = self.env.san
        if san is not None:
            san.on_release(self)
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False
