"""The simulation kernel as it stood before its per-event path was
shortened, frozen as the reference of tests/test_kernel_equivalence.py.

``repro/sim/core.py`` + ``process.py`` + ``waitables.py`` at commit
f8c75a5 (the interrupt / kill race and clock fixes, the last commit of
the nine-frames-per-event kernel), verbatim and in that order; the only
edits are the ones one file needs — the three module headers merged
into one, and the function-level imports of ``Environment.process`` /
``all_of`` / ``any_of`` dropped because the names live here — and one
later hook, ``san.on_step_end()`` after an event's callbacks, which the
sanitizer added and both kernels emit at the same point.  Nothing
under ``src/`` imports this module and nothing selects it at run time:
it exists so that generated programs can be run on both kernels and
their schedules compared.  Do not optimise it, and do not fix it without
fixing ``repro.sim`` the same way.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

#: Events scheduled at the same instant are ordered by priority, then by
#: insertion sequence.  URGENT is used internally for process resumption so
#: that a process resumed by an already-triggered event runs before ordinary
#: same-time events.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for kernel misuse (double-trigger, running a dead loop, ...)."""


class Event:
    """A one-shot waitable.

    An event starts *pending*; exactly once it is either succeeded with a
    value or failed with an exception.  Processes block on events by
    yielding them; arbitrary callbacks may also be attached (the kernel
    uses callbacks to resume processes).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_san_vc")

    _PENDING = object()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        #: a failed event whose failure was never observed re-raises at the
        #: end of the run unless defused (observed by a process or waitable)
        self._defused = False

    # -- inspection ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (succeed/fail)."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.env._schedule(self)
        return self

    def trigger(self, other: "Event") -> None:
        """Mirror another (triggered) event's outcome onto this one."""
        if other._ok:
            self.succeed(other._value)
        else:
            other._defused = True
            self.fail(other._value)

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Attach *fn*; called with the event once it fires.

        If the event has already been processed the callback runs
        immediately (this keeps late subscribers correct).
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would poison the clock
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._ok = True
        env._schedule(self, delay=delay)


class Environment:
    """The simulation event loop.

    Owns simulated time (:attr:`now`, seconds as float) and the event heap.
    ``run()`` executes events in (time, priority, insertion) order until the
    heap is empty, a deadline passes, or a watched event triggers.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list = []
        self._seq = 0
        self._active_process = None
        #: attached repro.analysis.RaceSanitizer, or None = sanitizing off
        #: (step() and _schedule() then do a single None check each)
        self.san: Optional[Any] = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self):
        """The :class:`Process` currently executing, if any."""
        return self._active_process

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator):
        """Spawn *generator* as a new simulated process."""
        return Process(self, generator)

    def all_of(self, events):
        return AllOf(self, events)

    def any_of(self, events):
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        san = self.san
        if san is not None:
            # Stamp the event with the scheduler's vector clock: the one
            # edge from which the sanitizer derives every happens-before
            # relation (spawn, join, timeout, interrupt, lock hand-off).
            san.on_schedule(event)
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _seq, event = heapq.heappop(self._heap)
        self._now = when
        san = self.san
        if san is not None:
            san.on_step(event)
        event._run_callbacks()
        if san is not None:
            san.on_step_end()
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (drain the heap), a number (advance to
        that simulated time) or an :class:`Event` (run until it triggers,
        returning its value).
        """
        san = self.san
        if san is not None:
            # Top-level code only executes while the loop is idle, so
            # everything it did so far precedes everything in this run.
            san.on_run_begin()
        stop_event: Optional[Event] = None
        deadline = float("inf")
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.triggered:
                if not stop_event._ok:
                    stop_event._defused = True
                    raise stop_event._value
                return stop_event._value
        else:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"run(until={deadline!r}) is in the past (now={self._now!r})"
                )

        stopped = False

        if stop_event is not None:

            def _stop(_ev: Event) -> None:
                nonlocal stopped
                stopped = True

            stop_event.add_callback(_stop)

        # step is looked up through the instance once per run (tracers
        # patch Environment.step on the class), the heap head read inline
        heap = self._heap
        step = self.step
        while heap and not stopped:
            if heap[0][0] > deadline:
                self._now = deadline
                return None
            step()

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event): schedule drained before event triggered"
                )
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value
        if deadline != float("inf") and self._now < deadline:
            self._now = deadline
        return None


# -- process.py ------------------------------------------------------------------


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
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
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
        try:
            while True:
                # A process can be killed by an earlier callback of the very
                # event resuming it (kill() cannot detach from a list step()
                # is walking).  Its closed generator then ends at once, the
                # process is already triggered, and it stays killed.
                try:
                    if trigger._ok:
                        target = self._generator.send(trigger._value)
                    else:
                        trigger._defused = True
                        target = self._generator.throw(trigger._value)
                except StopIteration as stop:
                    if not self.triggered:
                        self.succeed(stop.value)
                    return
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    if not self.triggered:
                        self.fail(exc)
                    return

                if not isinstance(target, Event):
                    err = SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}"
                    )
                    # Deliver the misuse back into the generator so tests can
                    # observe it, then fail the process if unhandled.
                    trigger = Event(self.env)
                    trigger._value = err
                    trigger._ok = False
                    continue
                if target.env is not self.env:
                    raise SimulationError("yielded an event from another environment")

                if target.triggered and target.callbacks is None:
                    # Already fully processed: resume synchronously.
                    if san is not None:
                        san.on_join(self, target)
                    trigger = target
                    continue
                self._target = target
                target.add_callback(self._resume)
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


# -- waitables.py ----------------------------------------------------------------


class _Condition(Event):
    """Shared machinery for AllOf/AnyOf.

    Succeeds with an ordered dict ``{event: value}`` of the events that had
    triggered (successfully) by the time the condition fired.  Fails if any
    constituent event fails before the condition is met.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, env: Environment, events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: List[Event] = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("events from multiple environments")
        self._pending = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> Dict[Event, object]:
        # A Timeout is "triggered" from creation (its outcome is fixed); only
        # events whose callbacks have run have actually *fired* by now.
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, ev: Event) -> None:
        if self.triggered:
            if not ev._ok:
                ev._defused = True
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev.value)
            return
        self._pending -= 1
        if self._satisfied():
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when every constituent event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._pending == 0


class AnyOf(_Condition):
    """Triggers when at least one constituent event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._pending < len(self.events)
