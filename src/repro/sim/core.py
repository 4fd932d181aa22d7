"""Event loop and primitive waitables for the simulation kernel."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

#: Events scheduled at the same instant are ordered by priority, then by
#: insertion sequence.  URGENT is used internally for process resumption so
#: that a process resumed by an already-triggered event runs before ordinary
#: same-time events.
URGENT = 0
NORMAL = 1

#: the value of an event nobody has triggered yet
_PENDING = object()


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

    _PENDING = _PENDING

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: None once step() has run them: that, not the trigger, is what
        #: "processed" means everywhere in the kernel
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: a failed event whose failure was never observed re-raises at the
        #: end of the run unless defused (observed by a process or waitable)
        self._defused = False

    # -- inspection ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (succeed/fail)."""
        return self._value is not _PENDING

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
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.env._schedule(self)
        return self

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

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would poison the clock
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Most events of a run are timeouts, so this one fills its slots
        # and puts itself on the heap: Event.__init__ and
        # Environment._schedule written out, with nothing left out.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        san = env.san
        if san is not None:
            san.on_schedule(self)
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now + delay, NORMAL, seq, self))


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
        #: (step() and each scheduling site then do a single None check)
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

    def _schedule(self, event: Event, priority: int = NORMAL) -> None:
        """Put a triggered *event* on the heap at the current instant.

        The heap key is ``(time, priority, sequence)`` with one sequence
        number per scheduled event, so same-instant events pop URGENT
        first, then in the order they were scheduled.  (A ``Timeout``,
        the only event scheduled into the future, does the same itself.)
        """
        san = self.san
        if san is not None:
            # Stamp the event with the scheduler's vector clock: the one
            # edge from which the sanitizer derives every happens-before
            # relation (spawn, join, timeout, interrupt, lock hand-off).
            san.on_schedule(event)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        try:
            self._now, _prio, _seq, event = heappop(self._heap)
        except IndexError:
            raise SimulationError("step() on an empty schedule") from None
        san = self.san
        if san is not None:
            san.on_step(event)
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if san is not None:
            san.on_step_end()
        if not event._ok and not event._defused:
            raise event._value

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
        if deadline == float("inf"):  # no deadline to test before each event
            while heap and not stopped:
                step()
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


# Process and the conditions subclass Event, so their modules import this
# one; Environment's factories need the classes at call time only.
from repro.sim.process import Process  # noqa: E402
from repro.sim.waitables import AllOf, AnyOf  # noqa: E402
