"""Generator-based simulated processes."""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from repro.sim.core import _PENDING, URGENT, Environment, Event, SimulationError


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class ProcessKilled(Exception):
    """Failure value of a process terminated by :meth:`Process.kill`."""


class Process(Event):
    """A running generator; also a waitable that fires when it returns.

    The generator yields :class:`Event` objects to block; when the awaited
    event succeeds, its value is sent back into the generator, and when it
    fails, the exception is thrown in (so service code can use ordinary
    ``try/except`` around ``yield``).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: Environment, generator: Generator, name: str = "") -> None:
        if type(generator) is not GeneratorType and not (
            hasattr(generator, "send") and hasattr(generator, "throw")
        ):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the process at the current instant.
        boot = Event(env)
        boot._value = None
        boot._ok = True
        boot.callbacks.append(self._resume)
        #: the event this process is currently waiting on; the boot first,
        #: so a kill() before the first resumption detaches from it
        self._target: Optional[Event] = boot
        env._schedule(boot, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def _resume(self, trigger: Event) -> None:
        env = self.env
        prev, env._active_process = env._active_process, self
        self._target = None
        san = env.san
        if san is not None:
            san.on_resume(self, trigger)
        generator = self._generator
        try:
            while True:
                # A process can be killed by an earlier callback of the very
                # event resuming it (kill() cannot detach from a list step()
                # is walking).  Its closed generator then ends at once, the
                # process is already triggered, and it stays killed.
                try:
                    if trigger._ok:
                        target = generator.send(trigger._value)
                    else:
                        trigger._defused = True
                        target = generator.throw(trigger._value)
                except StopIteration as stop:
                    if self._value is _PENDING:
                        self.succeed(stop.value)
                    return
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    if self._value is _PENDING:
                        self.fail(exc)
                    return

                if not isinstance(target, Event):
                    err = SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}"
                    )
                    # Deliver the misuse back into the generator so tests can
                    # observe it, then fail the process if unhandled.
                    trigger = Event(env)
                    trigger._value = err
                    trigger._ok = False
                    continue
                if target.env is not env:
                    raise SimulationError("yielded an event from another environment")

                callbacks = target.callbacks
                if callbacks is None:
                    # Already fully processed: resume synchronously.
                    if san is not None:
                        san.on_join(self, target)
                    trigger = target
                    continue
                # Triggered or not, an event still on its way through the
                # heap resumes this process when step() pops it.
                self._target = target
                callbacks.append(self._resume)
                return
        finally:
            env._active_process = prev

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The interrupt is an URGENT event of its own: it is delivered at
        whatever suspension point the process has reached when that event
        is popped (an interrupt sent before the first resumption lands on
        the first ``yield``), and is dropped if the process has ended by
        then.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        hit = Event(self.env)
        hit._value = Interrupt(cause)
        hit._ok = False
        hit._defused = True
        hit.callbacks.append(self._deliver_interrupt)
        self.env._schedule(hit, priority=URGENT)

    def _deliver_interrupt(self, hit: Event) -> None:
        if self.triggered:
            return
        # Between interrupt() and now the process may have moved on to
        # another event: detach from the one it awaits at this moment, or
        # that event would resume it a second time later.
        self._detach()
        self._resume(hit)

    def _detach(self) -> None:
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    def kill(self, reason: str = "killed") -> None:
        """Terminate the process immediately; it fails with ProcessKilled.

        Unlike :meth:`interrupt`, the generator gets no chance to clean up
        via ``except`` — ``GeneratorExit`` is raised at the suspension point
        (running ``finally`` blocks), mirroring hard process termination.
        A process killed before its first resumption never runs at all, and
        an interrupt still in flight is dropped.
        """
        if self.triggered:
            return
        if self is self.env.active_process:
            raise SimulationError("a process cannot kill itself")
        self._detach()
        self._generator.close()
        exc = ProcessKilled(reason)
        self._value = exc
        self._ok = False
        self._defused = True
        self.env._schedule(self, priority=URGENT)
