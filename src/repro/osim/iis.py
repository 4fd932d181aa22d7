"""IIS / ASP.NET worker-process model (paper Fig. 1's left column).

"IIS dispatches HTTP requests to the service, which internally invokes
either a method on a port type written by the service author or a port
type defined by WSRF."  Here IIS routes by URL path to a registered
application (the WSRF.NET wrapper service built by
:mod:`repro.wsrf.tooling`), after queueing for one of a bounded pool of
ASP.NET worker threads and charging per-request dispatch overhead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.sim import Environment, Event
from repro.soap import SoapFault
from repro.soap.endpoint import reply_text


class _WorkerPool:
    """A counting semaphore: FIFO queue for the ASP.NET thread pool."""

    def __init__(self, env: Environment, size: int) -> None:
        self.env = env
        self.free = size
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        ev = self.env.event()
        if self.free > 0:
            self.free -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.free += 1

    @property
    def queued(self) -> int:
        return len(self._waiters)


class IisServer:
    """Routes inbound SOAP text to applications by URL path.

    Applications expose ``handle_soap(payload: str, ctx) -> coroutine``
    returning response text (or None for one-way deliveries).  A path
    nobody serves is answered with a ``soap:Client`` fault envelope and
    counted as a ``"refused"`` delivery (docs/fault_tolerance.md, "The
    wire contract").
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.env: Environment = machine.env
        self._apps: Dict[str, object] = {}
        self._pool = _WorkerPool(self.env, machine.params.iis_workers)
        self.requests_served = 0

    def register_app(self, path: str, app: object) -> None:
        path = "/" + path.strip("/")
        if path in self._apps:
            raise ValueError(f"path {path!r} already registered on {self.machine.name!r}")
        if not hasattr(app, "handle_soap"):
            raise TypeError(f"app must expose handle_soap(); got {app!r}")
        self._apps[path] = app

    # -- crash-restart ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Checkpoint every hosted app that persists state (the wrappers)."""
        return {
            path: app.snapshot()
            for path, app in self._apps.items()
            if hasattr(app, "snapshot")
        }

    def restore(self, snap: Dict[str, object]) -> None:
        """Restore each hosted app in place.

        Registrations survive — a reboot re-deploys the same services at
        the same paths, so the wrapper objects (which everything on the
        fabric references) stay registered and only their state resets.
        """
        for path in sorted(snap):
            app = self._apps.get(path)
            if app is not None and hasattr(app, "restore"):
                app.restore(snap[path])

    def handle(self, payload: str, ctx):
        """Network-facing server protocol (see repro.net)."""
        app = self._apps.get("/" + ctx.path.strip("/"))
        network = self.machine.network
        if app is None:
            # 404: a refused delivery either way — a fault envelope for
            # the caller who waits, nothing for the one-way sender who
            # is gone; never an exception in the fabric.
            network.stats.record_fault("refused")
            fault = SoapFault(
                "soap:Client",
                f"no service at {ctx.path!r} on host {self.machine.name!r}",
            )
            return reply_text(network.codec, ctx, None, fault.to_element())
        obs = network.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "iis.handle",
                message_id=ctx.message_id or None,
                attrs={"host": self.machine.name, "path": ctx.path},
            )
        try:
            if getattr(app, "manages_worker_pool", False):
                # WSRF wrappers acquire their per-resource lock BEFORE taking
                # a worker thread, so requests queued on a busy WS-Resource
                # do not starve the pool (the classic ASP.NET re-entrancy
                # deadlock: handlers blocking on a lock while holding the
                # thread the lock holder needs for its own nested calls).
                response = yield from app.handle_soap(payload, ctx, pool=self._pool)
                self.requests_served += 1
                return response
            yield self._pool.acquire()
            try:
                yield self.env.timeout(self.machine.params.iis_dispatch_s)
                response = yield from app.handle_soap(payload, ctx)
                self.requests_served += 1
                return response
            finally:
                self._pool.release()
        finally:
            if span is not None:
                obs.finish(span)

    @property
    def queued_requests(self) -> int:
        return self._pool.queued
